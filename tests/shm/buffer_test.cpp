#include "shm/buffer.h"

#include <gtest/gtest.h>

namespace ditto::shm {
namespace {

TEST(BufferTest, EmptyByDefault) {
  Buffer b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.use_count(), 0);
}

TEST(BufferTest, FromBytesCopiesOnce) {
  std::string src = "hello world";
  Buffer b = Buffer::from_bytes(src);
  src[0] = 'X';  // source mutation must not leak in
  EXPECT_EQ(b.view(), "hello world");
}

TEST(BufferTest, HandleCopyIsZeroCopy) {
  Buffer a = Buffer::from_bytes("payload-of-some-size");
  Buffer b = a;  // zero-copy: same payload
  EXPECT_TRUE(a.same_payload(b));
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(a.data(), b.data());  // literally the same memory
}

TEST(BufferTest, AdoptTakesOwnershipWithoutCopy) {
  std::vector<std::uint8_t> payload = {1, 2, 3};
  const std::uint8_t* raw = payload.data();
  Buffer b = Buffer::adopt(std::move(payload));
  EXPECT_EQ(b.data(), raw);
  EXPECT_EQ(b.size(), 3u);
}

TEST(BufferTest, EqualityByContent) {
  const Buffer a = Buffer::from_bytes("abc");
  const Buffer b = Buffer::from_bytes("abc");
  const Buffer c = Buffer::from_bytes("abd");
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a.same_payload(b));
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace ditto::shm
