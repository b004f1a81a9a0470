// A function server: bounded pool of function slots plus a
// shared-memory arena (paper §3: "The number of functions held on each
// server is limited by the hardware capability (e.g., CPU cores)").
#pragma once

#include <memory>
#include <string>

#include "common/status.h"
#include "common/units.h"
#include "dag/types.h"
#include "cluster/arena.h"

namespace ditto::cluster {

class Server {
 public:
  Server(ServerId id, int total_slots, Bytes memory = 384_GiB)
      : id_(id),
        total_slots_(total_slots),
        free_slots_(total_slots),
        arena_(std::make_unique<Arena>(memory, "server-" + std::to_string(id))) {}

  ServerId id() const { return id_; }
  int total_slots() const { return total_slots_; }
  int free_slots() const { return free_slots_; }
  int used_slots() const { return total_slots_ - free_slots_; }

  /// Reserve `n` function slots; RESOURCE_EXHAUSTED when unavailable.
  Status reserve_slots(int n) {
    if (n < 0) return Status::invalid_argument("negative slot reservation");
    if (n > free_slots_) {
      return Status::resource_exhausted("server " + std::to_string(id_) + " has " +
                                        std::to_string(free_slots_) + " free slots, need " +
                                        std::to_string(n));
    }
    free_slots_ -= n;
    return Status::ok();
  }

  /// Return `n` previously reserved slots. Over-release (returning more
  /// than is outstanding) is a bookkeeping bug: it fails with
  /// FAILED_PRECONDITION and leaves the count untouched instead of
  /// silently clamping — a double release would otherwise hand the same
  /// slots to two jobs.
  Status release_slots(int n) {
    if (n < 0) return Status::invalid_argument("negative slot release");
    if (free_slots_ + n > total_slots_) {
      return Status::failed_precondition(
          "server " + std::to_string(id_) + " release of " + std::to_string(n) +
          " slots exceeds " + std::to_string(total_slots_ - free_slots_) + " outstanding");
    }
    free_slots_ += n;
    return Status::ok();
  }

  Arena& arena() { return *arena_; }
  const Arena& arena() const { return *arena_; }

 private:
  ServerId id_;
  int total_slots_;
  int free_slots_;
  std::unique_ptr<Arena> arena_;
};

}  // namespace ditto::cluster
