#include "cluster/arena.h"

namespace ditto::cluster {

Status Arena::reserve(Bytes n) {
  Bytes cur = used_.load(std::memory_order_relaxed);
  for (;;) {
    if (cur + n > capacity_) {
      return Status::resource_exhausted("arena '" + name_ + "' full");
    }
    if (used_.compare_exchange_weak(cur, cur + n, std::memory_order_relaxed)) break;
  }
  // Best-effort high-water update (monotone).
  Bytes hw = high_water_.load(std::memory_order_relaxed);
  const Bytes now = cur + n;
  while (now > hw && !high_water_.compare_exchange_weak(hw, now, std::memory_order_relaxed)) {
  }
  return Status::ok();
}

void Arena::release(Bytes n) { used_.fetch_sub(n, std::memory_order_relaxed); }

}  // namespace ditto::cluster
