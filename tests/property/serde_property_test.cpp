// Property test: randomly shaped tables always survive serialization.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/serde.h"

namespace ditto::exec {
namespace {

Table random_table(Rng& rng) {
  const std::size_t cols = 1 + static_cast<std::size_t>(rng.uniform_int(0, 5));
  const std::size_t rows = static_cast<std::size_t>(rng.uniform_int(0, 200));
  Schema schema;
  std::vector<Column> columns;
  for (std::size_t c = 0; c < cols; ++c) {
    const int type = static_cast<int>(rng.uniform_int(0, 2));
    schema.push_back({"c" + std::to_string(c), static_cast<DataType>(type)});
    switch (static_cast<DataType>(type)) {
      case DataType::kInt64: {
        std::vector<std::int64_t> v(rows);
        for (auto& x : v) x = rng.uniform_int(INT64_MIN / 2, INT64_MAX / 2);
        columns.emplace_back(std::move(v));
        break;
      }
      case DataType::kDouble: {
        std::vector<double> v(rows);
        for (auto& x : v) x = rng.normal(0.0, 1e6);
        columns.emplace_back(std::move(v));
        break;
      }
      case DataType::kString: {
        std::vector<std::string> v(rows);
        for (auto& x : v) {
          const std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, 64));
          x.resize(len);
          for (auto& ch : x) ch = static_cast<char>(rng.uniform_int(0, 255));
        }
        columns.emplace_back(std::move(v));
        break;
      }
    }
  }
  auto t = Table::make(std::move(schema), std::move(columns));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

class SerdeProperty : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SerdeProperty, ::testing::Range(0, 25));

TEST_P(SerdeProperty, RoundTripIsIdentity) {
  Rng rng(GetParam() * 31 + 7);
  const Table t = random_table(rng);
  const auto back = deserialize_table(serialize_table(t));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(*back, t);
}

TEST_P(SerdeProperty, TruncationNeverCrashesOrSucceeds) {
  Rng rng(GetParam() * 37 + 11);
  const Table t = random_table(rng);
  const std::string full = *serialize_table(t);
  for (int i = 0; i < 10; ++i) {
    const std::size_t cut =
        static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(full.size())));
    const auto r = deserialize_table(
        std::make_shared<const std::string>(full.substr(0, full.size() - cut)));
    // Never a false success: either error, or (for string tables) the
    // parse must fail — truncated fixed-width payloads cannot validate.
    EXPECT_FALSE(r.ok());
  }
}

}  // namespace
}  // namespace ditto::exec
