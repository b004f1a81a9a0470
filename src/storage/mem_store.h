// In-process key-value object store with a configurable StorageModel.
//
// Serves as the concrete backend for both simulated S3 and simulated
// Redis (see sim_store.h) and as a plain in-memory store for tests.
// Thread-safe. Optionally applies the model's transfer time as a real
// (scaled) sleep so engine-mode runs experience the latency asymmetry.
//
// Payloads are immutable shared strings, so no byte is copied under the
// store's mutex: put copies the value before locking and only swaps the
// pointer under it; get copies the pointer under the lock and the bytes
// after releasing it (get still returns its own copy); overwrite,
// remove and clear free the displaced payloads after unlocking.
// Concurrent requests therefore contend only for the map update, not
// for the memcpy of each other's payloads.
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
  using Payload = std::shared_ptr<const std::string>;

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
