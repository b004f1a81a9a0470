// Per-server shared-memory arena.
//
// Each simulated server owns one Arena sized like its memory. The job
// service reserves a job's zero-copy footprint against it on admission
// and releases it when the job finishes; the accounting feeds the shared-memory persistence cost in
// the paper's cost metric (§6.2: "Ditto schedules more stages to
// exchange data through shared memory ... increasing the shared memory
// cost caused by data persistence").
#pragma once

#include <atomic>
#include <cstddef>
#include <string>

#include "common/status.h"
#include "common/units.h"

namespace ditto::cluster {

class Arena {
 public:
  explicit Arena(Bytes capacity, std::string name = "arena")
      : capacity_(capacity), name_(std::move(name)) {}

  /// Reserve `n` bytes; RESOURCE_EXHAUSTED when it would overflow.
  Status reserve(Bytes n);
  /// Return `n` bytes previously reserved.
  void release(Bytes n);

  Bytes capacity() const { return capacity_; }
  Bytes used() const { return used_.load(std::memory_order_relaxed); }
  Bytes available() const { return capacity_ - used(); }
  const std::string& name() const { return name_; }

  /// Integral of bytes x seconds is approximated by the simulator; the
  /// arena itself tracks the high-water mark for diagnostics.
  Bytes high_water() const { return high_water_.load(std::memory_order_relaxed); }

 private:
  const Bytes capacity_;
  const std::string name_;
  std::atomic<Bytes> used_{0};
  std::atomic<Bytes> high_water_{0};
};

}  // namespace ditto::cluster
