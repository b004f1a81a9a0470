// RecordLog: segments roll at the size bound and replay in order, a
// restarted writer extends the log, a failed put changes nothing, and
// the corruption contract: every truncation and every bit flip of a
// stored segment is INVALID_ARGUMENT (puts are atomic, so no torn tail
// is ever forgiven). Also the shared `key=value` field codec.
#include "storage/record_log.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/mem_store.h"
#include "support/gated_store.h"

namespace ditto::storage {
namespace {

constexpr char kKey[] = "journal/serve.log";

std::vector<std::string> sample_records(std::size_t n, std::size_t width = 90) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back("kind=sample i=" + std::to_string(i) + " pad=" +
                  std::string(width, static_cast<char>('a' + i % 26)));
  }
  return out;
}

std::string segment_name(int seq) {
  std::string digits = std::to_string(seq);
  return std::string(kKey) + "/" + std::string(16 - digits.size(), '0') + digits;
}

TEST(RecordLogTest, AppendsRollAtTheBoundAndReadBackInOrder) {
  MemStore store;
  RecordLog log(store, kKey);
  const auto records = sample_records(200);
  for (const std::string& r : records) ASSERT_TRUE(log.append(r).is_ok());

  const auto segments = store.list(std::string(kKey) + "/");
  ASSERT_GE(segments.size(), 3u);
  for (const std::string& name : segments) {
    const auto bytes = store.get(name);
    ASSERT_TRUE(bytes.ok());
    EXPECT_LE(bytes->size(), RecordLog::kSegmentBytes) << name;
  }
  EXPECT_TRUE(store.contains(segment_name(1)));
  EXPECT_TRUE(store.contains(segment_name(static_cast<int>(segments.size()))));

  const auto read = RecordLog::read(store, kKey);
  ASSERT_TRUE(read.ok()) << read.status().to_string();
  EXPECT_EQ(*read, records);
}

TEST(RecordLogTest, OversizeRecordGetsASegmentOfItsOwn) {
  MemStore store;
  RecordLog log(store, kKey);
  const std::string big(3 * RecordLog::kSegmentBytes, 'x');
  ASSERT_TRUE(log.append("small").is_ok());
  ASSERT_TRUE(log.append(big).is_ok());
  ASSERT_TRUE(log.append("after").is_ok());
  EXPECT_EQ(store.list(std::string(kKey) + "/").size(), 3u);
  const auto read = RecordLog::read(store, kKey);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, (std::vector<std::string>{"small", big, "after"}));
}

TEST(RecordLogTest, MissingLogReadsEmpty) {
  MemStore store;
  const auto read = RecordLog::read(store, kKey);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
  RecordLog log(store, kKey);
  const auto opened = log.open();
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

TEST(RecordLogTest, OpenExtendsTheOpenSegmentAndLaterRolls) {
  MemStore store;
  const auto records = sample_records(120);
  {
    RecordLog first(store, kKey);
    for (std::size_t i = 0; i < 50; ++i) ASSERT_TRUE(first.append(records[i]).is_ok());
  }
  const std::size_t segments_before = store.list(std::string(kKey) + "/").size();
  RecordLog second(store, kKey);
  const auto opened = second.open();
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, std::vector<std::string>(records.begin(), records.begin() + 50));
  ASSERT_TRUE(second.append(records[50]).is_ok());
  // The restarted writer appended to the last segment, not a new one.
  EXPECT_EQ(store.list(std::string(kKey) + "/").size(), segments_before);
  for (std::size_t i = 51; i < records.size(); ++i) {
    ASSERT_TRUE(second.append(records[i]).is_ok());
  }
  EXPECT_GT(store.list(std::string(kKey) + "/").size(), segments_before);
  const auto read = RecordLog::read(store, kKey);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, records);
}

TEST(RecordLogTest, FailedPutLeavesTheLogAsItWas) {
  MemStore inner;
  GatedStore store(inner);
  RecordLog log(store, kKey);
  const auto records = sample_records(150);
  // Every append first fails, then succeeds with the same record, so
  // every segment roll is attempted first by a failing put.
  for (const std::string& r : records) {
    store.fail_puts(true);
    ASSERT_EQ(log.append(r).code(), StatusCode::kUnavailable);
    store.fail_puts(false);
    ASSERT_TRUE(log.append(r).is_ok());
  }
  ASSERT_GE(inner.list(std::string(kKey) + "/").size(), 3u);
  const auto read = RecordLog::read(inner, kKey);
  ASSERT_TRUE(read.ok()) << read.status().to_string();
  EXPECT_EQ(*read, records);
}

TEST(RecordLogTest, SingleObjectAtTheKeyIsRejected) {
  MemStore store;
  ASSERT_TRUE(store.put(kKey, "a value written whole at the log's own key").is_ok());
  const auto read = RecordLog::read(store, kKey);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  RecordLog log(store, kKey);
  EXPECT_EQ(log.open().status().code(), StatusCode::kInvalidArgument);
}

TEST(RecordLogTest, MissingOrStraySegmentIsRejected) {
  MemStore store;
  {
    RecordLog log(store, kKey);
    for (const std::string& r : sample_records(150)) ASSERT_TRUE(log.append(r).is_ok());
  }
  ASSERT_GE(store.list(std::string(kKey) + "/").size(), 3u);
  for (const int lost : {1, 2}) {
    MemStore copy;
    for (const std::string& name : store.list(std::string(kKey) + "/")) {
      if (name == segment_name(lost)) continue;
      ASSERT_TRUE(copy.put(name, *store.get(name)).is_ok());
    }
    EXPECT_EQ(RecordLog::read(copy, kKey).status().code(), StatusCode::kInvalidArgument)
        << "segment " << lost << " lost";
  }
  ASSERT_TRUE(store.put(std::string(kKey) + "/stray", "x").is_ok());
  EXPECT_EQ(RecordLog::read(store, kKey).status().code(), StatusCode::kInvalidArgument);
}

/// A two-segment log and the bytes of its second, multi-record segment.
struct Corpus {
  MemStore store;
  std::vector<std::string> records = sample_records(52, 60);
  std::string victim;  ///< segment 2's key
};

void build(Corpus& c) {
  RecordLog log(c.store, kKey);
  for (const std::string& r : c.records) ASSERT_TRUE(log.append(r).is_ok());
  ASSERT_EQ(c.store.list(std::string(kKey) + "/").size(), 2u);
  c.victim = segment_name(2);
}

Status read_with(Corpus& c, const std::string& segment) {
  const auto original = c.store.get(c.victim);
  EXPECT_TRUE(c.store.put(c.victim, segment).is_ok());
  const Status st = RecordLog::read(c.store, kKey).status();
  EXPECT_TRUE(c.store.put(c.victim, *original).is_ok());
  return st;
}

// Corpus sweep 1: every proper prefix of a stored segment, including
// an empty object and a cut exactly on a record boundary, fails.
TEST(RecordLogTest, TruncationSweepRejectsEveryCut) {
  Corpus c;
  build(c);
  const std::string segment = *c.store.get(c.victim);
  ASSERT_GT(segment.size(), 200u);
  for (std::size_t cut = 0; cut < segment.size(); ++cut) {
    EXPECT_EQ(read_with(c, segment.substr(0, cut)).code(), StatusCode::kInvalidArgument)
        << "cut at byte " << cut;
  }
  EXPECT_TRUE(read_with(c, segment).is_ok());
}

// Corpus sweep 2: flipping any single bit of a stored segment fails.
TEST(RecordLogTest, BitFlipSweepRejectsEveryFlip) {
  Corpus c;
  build(c);
  const std::string segment = *c.store.get(c.victim);
  for (std::size_t pos = 0; pos < segment.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mangled = segment;
      mangled[pos] = static_cast<char>(mangled[pos] ^ (1 << bit));
      EXPECT_EQ(read_with(c, mangled).code(), StatusCode::kInvalidArgument)
          << "flip at byte " << pos << " bit " << bit;
    }
  }
}

TEST(RecordLogTest, TrailingBytesAfterTheSegmentAreRejected) {
  Corpus c;
  build(c);
  const std::string segment = *c.store.get(c.victim);
  EXPECT_EQ(read_with(c, segment + segment).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(read_with(c, segment + '\0').code(), StatusCode::kInvalidArgument);
}

TEST(RecordLogTest, EncodeDecodeSegmentRoundTrips) {
  for (const auto& records :
       {std::vector<std::string>{}, std::vector<std::string>{""}, sample_records(5)}) {
    const std::string bytes = RecordLog::encode_segment(records);
    const auto decoded = RecordLog::decode_segment(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(*decoded, records);
  }
  EXPECT_EQ(RecordLog::decode_segment("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(RecordLog::decode_segment("not a segment").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RecordFieldsTest, FormatParseRoundTripWithATail) {
  const RecordFields fields = {{"kind", "submit"}, {"jid", "12"}, {"payload", "job q1 a=b  c"}};
  const std::string text = format_fields(fields);
  EXPECT_EQ(text, "kind=submit jid=12 payload=job q1 a=b  c");
  const auto parsed = parse_fields(text, {"payload", "error"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(*parsed, fields);
  // An empty tail value and an empty payload both parse.
  const auto empty_tail = parse_fields("state=DONE error=", {"error"});
  ASSERT_TRUE(empty_tail.ok());
  EXPECT_EQ(empty_tail->back(), (std::pair<std::string, std::string>{"error", ""}));
  const auto none = parse_fields("");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(RecordFieldsTest, MalformedTextIsRejected) {
  for (const std::string text :
       {"novalue", "=x", "a=1  b=2", "a=1 ", " a=1", "a=1 b", "a=1 payload=x y"}) {
    EXPECT_EQ(parse_fields(text).status().code(), StatusCode::kInvalidArgument)
        << "'" << text << "'";
  }
}

TEST(RecordFieldsTest, NumbersParseWholeTokensOnly) {
  EXPECT_EQ(*parse_u64("n", "42"), 42u);
  for (const std::string bad : {"", "-1", "+1", "1x", "0x10", "99999999999999999999999"}) {
    EXPECT_FALSE(parse_u64("n", bad).ok()) << bad;
  }
  EXPECT_DOUBLE_EQ(*parse_nonnegative("d", format_double(0.1)), 0.1);
  EXPECT_DOUBLE_EQ(*parse_nonnegative("d", "12.5"), 12.5);
  for (const std::string bad : {"", "-1", "nan", "1.5s"}) {
    EXPECT_FALSE(parse_nonnegative("d", bad).ok()) << bad;
  }
}

}  // namespace
}  // namespace ditto::storage
