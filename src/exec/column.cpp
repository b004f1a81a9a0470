#include "exec/column.h"

#include <cstring>

namespace ditto::exec {

const char* data_type_name(DataType t) {
  switch (t) {
    case DataType::kInt64: return "int64";
    case DataType::kDouble: return "double";
    case DataType::kString: return "string";
  }
  return "?";
}

Column Column::borrow_ints(std::shared_ptr<const void> owner, const std::int64_t* p,
                           std::size_t n) {
  assert((n == 0 || p != nullptr) && "borrowed column needs a payload");
  assert(reinterpret_cast<std::uintptr_t>(p) % alignof(std::int64_t) == 0);
  Column c;
  c.data_ = Borrowed<std::int64_t>{std::move(owner), p, n};
  return c;
}

Column Column::borrow_doubles(std::shared_ptr<const void> owner, const double* p,
                              std::size_t n) {
  assert((n == 0 || p != nullptr) && "borrowed column needs a payload");
  assert(reinterpret_cast<std::uintptr_t>(p) % alignof(double) == 0);
  Column c;
  c.data_ = Borrowed<double>{std::move(owner), p, n};
  return c;
}

DataType Column::type() const {
  switch (data_.index()) {
    case 0: case 3: return DataType::kInt64;
    case 1: case 4: return DataType::kDouble;
    default: return DataType::kString;
  }
}

std::size_t Column::size() const {
  switch (data_.index()) {
    case 0: return std::get<0>(data_).size();
    case 1: return std::get<1>(data_).size();
    case 2: return std::get<2>(data_).size();
    case 3: return std::get<3>(data_).size;
    default: return std::get<4>(data_).size;
  }
}

bool Column::is_borrowed() const { return data_.index() >= 3; }

ColumnSpan<std::int64_t> Column::int_span() const {
  if (data_.index() == 3) {
    const auto& b = std::get<3>(data_);
    return {b.data, b.size};
  }
  const auto& v = std::get<0>(data_);
  return {v.data(), v.size()};
}

ColumnSpan<double> Column::double_span() const {
  if (data_.index() == 4) {
    const auto& b = std::get<4>(data_);
    return {b.data, b.size};
  }
  const auto& v = std::get<1>(data_);
  return {v.data(), v.size()};
}

const std::vector<std::int64_t>& Column::ints() const {
  if (data_.index() == 3) return materialized(std::get<3>(data_));
  return std::get<0>(data_);
}

const std::vector<double>& Column::doubles() const {
  if (data_.index() == 4) return materialized(std::get<4>(data_));
  return std::get<1>(data_);
}

std::vector<std::int64_t>& Column::ints() {
  ensure_owned();
  return std::get<0>(data_);
}

std::vector<double>& Column::doubles() {
  ensure_owned();
  return std::get<1>(data_);
}

void Column::ensure_owned() {
  if (data_.index() == 3) {
    const auto& b = std::get<3>(data_);
    data_ = std::vector<std::int64_t>(b.data, b.data + b.size);
  } else if (data_.index() == 4) {
    const auto& b = std::get<4>(data_);
    data_ = std::vector<double>(b.data, b.data + b.size);
  }
}

Column Column::take(const std::vector<std::size_t>& indices) const {
  switch (type()) {
    case DataType::kInt64: {
      const auto src = int_span();
      std::vector<std::int64_t> out(indices.size());
      for (std::size_t i = 0; i < indices.size(); ++i) out[i] = src[indices[i]];
      return Column(std::move(out));
    }
    case DataType::kDouble: {
      const auto src = double_span();
      std::vector<double> out(indices.size());
      for (std::size_t i = 0; i < indices.size(); ++i) out[i] = src[indices[i]];
      return Column(std::move(out));
    }
    case DataType::kString: {
      const auto& src = strings();
      std::vector<std::string> out;
      out.reserve(indices.size());
      for (std::size_t i : indices) {
        assert(i < src.size());
        out.push_back(src[i]);
      }
      return Column(std::move(out));
    }
  }
  return Column();
}

Column Column::slice(std::size_t offset, std::size_t count) const {
  assert(offset <= size() && count <= size() - offset && "slice out of range");
  switch (data_.index()) {
    case 3: {
      const auto& b = std::get<3>(data_);
      return borrow_ints(b.owner, b.data + offset, count);
    }
    case 4: {
      const auto& b = std::get<4>(data_);
      return borrow_doubles(b.owner, b.data + offset, count);
    }
    case 0: {
      const auto src = int_span();
      return Column(std::vector<std::int64_t>(src.data() + offset, src.data() + offset + count));
    }
    case 1: {
      const auto src = double_span();
      return Column(std::vector<double>(src.data() + offset, src.data() + offset + count));
    }
    default: {
      const auto& src = strings();
      return Column(std::vector<std::string>(src.begin() + static_cast<std::ptrdiff_t>(offset),
                                             src.begin() + static_cast<std::ptrdiff_t>(offset + count)));
    }
  }
}

Column Column::borrowed_copy() const {
  switch (type()) {
    case DataType::kInt64: {
      const auto src = int_span();
      auto buf = std::make_shared<std::vector<std::int64_t>>(src.begin(), src.end());
      const std::int64_t* p = buf->data();
      const std::size_t n = buf->size();
      return borrow_ints(std::move(buf), p, n);
    }
    case DataType::kDouble: {
      const auto src = double_span();
      auto buf = std::make_shared<std::vector<double>>(src.begin(), src.end());
      const double* p = buf->data();
      const std::size_t n = buf->size();
      return borrow_doubles(std::move(buf), p, n);
    }
    case DataType::kString: return *this;
  }
  return *this;
}

std::size_t Column::byte_size() const {
  switch (type()) {
    case DataType::kInt64: return size() * sizeof(std::int64_t);
    case DataType::kDouble: return size() * sizeof(double);
    case DataType::kString: {
      std::size_t n = 0;
      for (const std::string& s : strings()) n += s.size() + sizeof(std::size_t);
      return n;
    }
  }
  return 0;
}

bool operator==(const Column& a, const Column& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kInt64: return a.int_span() == b.int_span();
    case DataType::kDouble: return a.double_span() == b.double_span();
    case DataType::kString: return a.strings() == b.strings();
  }
  return false;
}

}  // namespace ditto::exec
