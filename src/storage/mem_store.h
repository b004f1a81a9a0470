// In-process key-value object store with a configurable StorageModel.
//
// Serves as the concrete backend for both simulated S3 and simulated
// Redis (see sim_store.h) and as a plain in-memory store for tests.
// Thread-safe. Optionally applies the model's transfer time as a real
// (scaled) sleep so engine-mode runs experience the latency asymmetry.
//
// Values are immutable shared Payloads, so no byte is copied under the
// store's mutex. put_payload keeps the caller's pointer and get_payload
// returns the stored one: neither copies a byte, and a reader's value
// stays valid after the key is overwritten, removed or cleared. put and
// get are thin wrappers that copy the value before locking (put) or
// after unlocking (get). Overwrite, remove and clear drop the displaced
// payloads after unlocking. Concurrent requests therefore contend only
// for the map update.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>

#include "storage/object_store.h"

namespace ditto::storage {

class MemStore : public ObjectStore {
 public:
  explicit MemStore(StorageModel model = {}, std::string kind = "mem")
      : model_(model), kind_(std::move(kind)) {}

  const char* kind() const override { return kind_.c_str(); }
  const StorageModel& model() const override { return model_; }

  Status put(const std::string& key, std::string_view value) override;
  Result<std::string> get(const std::string& key) const override;
  Status put_payload(const std::string& key, Payload value) override;
  Result<Payload> get_payload(const std::string& key) const override;
  bool contains(const std::string& key) const override;
  Status remove(const std::string& key) override;
  std::vector<std::string> list(const std::string& prefix) const override;

  Bytes used_bytes() const override;
  StoreStats stats() const override;

  /// When > 0, put/get sleep for model.transfer_time(n) * scale. Use a
  /// small scale (e.g. 1e-3) to keep engine tests fast while preserving
  /// the S3-vs-Redis-vs-shm ordering.
  void set_real_delay_scale(double scale) { delay_scale_ = scale; }
  double real_delay_scale() const { return delay_scale_; }

  void clear();

 private:
  void maybe_sleep(Bytes n) const;

  StorageModel model_;
  std::string kind_;
  double delay_scale_ = 0.0;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Payload> data_;
  Bytes used_ = 0;
  mutable StoreStats stats_;
};

}  // namespace ditto::storage
