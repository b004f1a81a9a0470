#include "support/serde_v1.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

namespace ditto::exec {
namespace {

constexpr std::uint64_t kMagicV1 = 0x444954544f544231ull;  // "DITTOTB1"

std::size_t size_v1(const Table& t) {
  const std::size_t rows = t.num_rows();
  std::size_t n = 3 * 8;
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    n += 8 + t.schema()[c].name.size() + 8;
    switch (t.schema()[c].type) {
      case DataType::kInt64:
      case DataType::kDouble:
        n += rows * 8;
        break;
      case DataType::kString:
        for (const std::string& s : t.column(c).strings()) n += 8 + s.size();
        break;
    }
  }
  return n;
}

class Writer {
 public:
  explicit Writer(std::uint8_t* out) : out_(out) {}
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void bytes(const void* p, std::size_t n) {
    if (n > 0) std::memcpy(out_ + pos_, p, n);
    pos_ += n;
  }

 private:
  std::uint8_t* out_;
  std::size_t pos_ = 0;
};

}  // namespace

storage::Payload serialize_table_v1(const Table& t) {
  auto out = std::make_shared<std::string>(size_v1(t), '\0');
  Writer w(reinterpret_cast<std::uint8_t*>(out->data()));
  w.u64(kMagicV1);
  w.u64(t.num_columns());
  w.u64(t.num_rows());
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    const Field& f = t.schema()[c];
    w.u64(f.name.size());
    w.bytes(f.name.data(), f.name.size());
    w.u64(static_cast<std::uint64_t>(f.type));
    const Column& col = t.column(c);
    switch (col.type()) {
      case DataType::kInt64: {
        const auto v = col.int_span();
        w.bytes(v.data(), v.size() * sizeof(std::int64_t));
        break;
      }
      case DataType::kDouble: {
        const auto v = col.double_span();
        w.bytes(v.data(), v.size() * sizeof(double));
        break;
      }
      case DataType::kString:
        for (const std::string& s : col.strings()) {
          w.u64(s.size());
          w.bytes(s.data(), s.size());
        }
        break;
    }
  }
  return out;
}

}  // namespace ditto::exec
