// GatedStore: an ObjectStore wrapper whose puts a test can make fail
// (UNAVAILABLE, nothing written) or hold until released, to reach the
// windows a real store only opens by chance.
#pragma once

#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "storage/object_store.h"

namespace ditto::storage {

class GatedStore final : public ObjectStore {
 public:
  explicit GatedStore(ObjectStore& inner) : inner_(&inner) {}

  /// While on, every put fails with UNAVAILABLE and writes nothing.
  void fail_puts(bool on) {
    std::lock_guard<std::mutex> lk(mu_);
    fail_ = on;
  }
  /// Puts block from now until release_puts().
  void hold_puts() {
    std::lock_guard<std::mutex> lk(mu_);
    hold_ = true;
  }
  void release_puts() {
    std::lock_guard<std::mutex> lk(mu_);
    hold_ = false;
    cv_.notify_all();
  }
  /// Returns once some put is blocked by hold_puts().
  void wait_for_held_put() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return held_ > 0; });
  }

  const char* kind() const override { return inner_->kind(); }
  const StorageModel& model() const override { return inner_->model(); }
  Status put(const std::string& key, std::string_view value) override {
    DITTO_RETURN_IF_ERROR(gate(key));
    return inner_->put(key, value);
  }
  Status put_payload(const std::string& key, Payload value) override {
    DITTO_RETURN_IF_ERROR(gate(key));
    return inner_->put_payload(key, std::move(value));
  }
  Result<std::string> get(const std::string& key) const override { return inner_->get(key); }
  bool contains(const std::string& key) const override { return inner_->contains(key); }
  Status remove(const std::string& key) override { return inner_->remove(key); }
  std::vector<std::string> list(const std::string& prefix) const override {
    return inner_->list(prefix);
  }
  Bytes used_bytes() const override { return inner_->used_bytes(); }
  StoreStats stats() const override { return inner_->stats(); }

 private:
  Status gate(const std::string& key) {
    std::unique_lock<std::mutex> lk(mu_);
    if (hold_) {
      ++held_;
      cv_.notify_all();
      cv_.wait(lk, [&] { return !hold_; });
      --held_;
    }
    if (fail_) return Status::unavailable("gated put failure (" + key + ")");
    return Status::ok();
  }

  ObjectStore* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool fail_ = false;
  bool hold_ = false;
  int held_ = 0;
};

}  // namespace ditto::storage
