#include "shm/buffer.h"

namespace ditto::shm {

Buffer Buffer::from_bytes(std::string_view data) {
  std::vector<std::uint8_t> payload(data.size());
  std::memcpy(payload.data(), data.data(), data.size());
  return adopt(std::move(payload));
}

Buffer Buffer::adopt(std::vector<std::uint8_t> payload) {
  return Buffer(std::make_shared<const Payload>(std::move(payload)));
}

}  // namespace ditto::shm
