// Zero-copy buffer abstraction for the SPRIGHT-style data plane
// (paper §2.2, §4.1 "Modeling the shared memory").
//
// A Buffer owns an immutable byte payload through a shared pointer.
// Passing a Buffer between tasks on the same server copies only the
// handle (a pointer bump), never the payload — that is the zero-copy
// property the scheduler's grouping decision exploits. Payloads are
// immutable after sealing so concurrent consumers need no locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ditto::shm {

/// Immutable, ref-counted byte buffer. Cheap to copy (handle only).
class Buffer {
 public:
  Buffer() = default;

  /// Copies `data` into a fresh payload (the single copy at produce time).
  static Buffer from_bytes(std::string_view data);

  /// Takes ownership of an already-built payload without copying.
  static Buffer adopt(std::vector<std::uint8_t> payload);

  bool empty() const { return !payload_ || payload_->empty(); }
  std::size_t size() const { return payload_ ? payload_->size() : 0; }
  const std::uint8_t* data() const { return payload_ ? payload_->data() : nullptr; }

  std::string_view view() const {
    return payload_ ? std::string_view(reinterpret_cast<const char*>(payload_->data()),
                                       payload_->size())
                    : std::string_view();
  }

  /// Number of handles sharing this payload (diagnostics/tests).
  long use_count() const { return payload_ ? payload_.use_count() : 0; }

  /// True if two handles alias the same payload (proof of zero-copy).
  bool same_payload(const Buffer& other) const { return payload_ == other.payload_; }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    if (a.size() != b.size()) return false;
    if (a.payload_ == b.payload_) return true;
    return a.size() == 0 || std::memcmp(a.data(), b.data(), a.size()) == 0;
  }

 private:
  using Payload = std::vector<std::uint8_t>;
  explicit Buffer(std::shared_ptr<const Payload> p) : payload_(std::move(p)) {}
  std::shared_ptr<const Payload> payload_;
};

}  // namespace ditto::shm
