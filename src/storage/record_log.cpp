#include "storage/record_log.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>

namespace ditto::storage {
namespace {

constexpr std::size_t kHeaderBytes = 8;  ///< u32 len + u32 crc

/// CRC-32 (IEEE, reflected), table-driven.
std::uint32_t crc32(std::string_view bytes) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (const char ch : bytes) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::uint32_t read_u32(std::string_view bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + i])) << (8 * i);
  }
  return v;
}

/// The frame encoder.
void append_frame(std::string& out, std::string_view payload) {
  for (const std::uint32_t v : {static_cast<std::uint32_t>(payload.size()), crc32(payload)}) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
  out.append(payload);
}

/// The frame decoder: `bytes` must be whole frames with matching CRCs.
/// The views point into `bytes`.
Result<std::vector<std::string_view>> decode_frames(std::string_view bytes) {
  std::vector<std::string_view> frames;
  for (std::size_t at = 0; at < bytes.size();) {
    const std::size_t left = bytes.size() - at;
    if (left < kHeaderBytes || left - kHeaderBytes < read_u32(bytes, at)) {
      return Status::invalid_argument("truncated frame at byte " + std::to_string(at));
    }
    const std::string_view payload = bytes.substr(at + kHeaderBytes, read_u32(bytes, at));
    if (crc32(payload) != read_u32(bytes, at + 4)) {
      return Status::invalid_argument("CRC mismatch in frame at byte " + std::to_string(at));
    }
    frames.push_back(payload);
    at += kHeaderBytes + payload.size();
  }
  return frames;
}

std::string segment_of(std::string_view frames) {
  std::string segment;
  segment.reserve(kHeaderBytes + frames.size());
  append_frame(segment, frames);
  return segment;
}

std::string seq_name(std::uint64_t seq) {
  char name[21];  // 16 digits, or up to 20 for a seq past 10^16
  std::snprintf(name, sizeof(name), "%016llu", static_cast<unsigned long long>(seq));
  return name;
}

/// The log's records; `last` (optional) receives the last segment's
/// seq and record frames.
Result<std::vector<std::string>> read_log(const ObjectStore& store, const std::string& key,
                                          std::pair<std::uint64_t, std::string>* last) {
  if (store.contains(key)) {
    return Status::invalid_argument("record log '" + key +
                                    "' is one object, not segments (an older format?)");
  }
  std::vector<std::string> names = store.list(key + "/");
  std::sort(names.begin(), names.end());
  std::vector<std::string> records;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] != key + "/" + seq_name(i + 1)) {
      return Status::invalid_argument("record log '" + key + "': expected segment " +
                                      seq_name(i + 1) + ", found '" + names[i] + "'");
    }
    DITTO_ASSIGN_OR_RETURN(std::string bytes, store.get(names[i]));
    auto segment = RecordLog::decode_segment(bytes);
    if (!segment.ok()) {
      return Status::invalid_argument("record log segment '" + names[i] +
                                      "': " + segment.status().message());
    }
    records.insert(records.end(), segment->begin(), segment->end());
    if (last != nullptr) *last = {i + 1, bytes.substr(kHeaderBytes)};
  }
  return records;
}

template <typename T>
Result<T> parse_number(std::string_view field, std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end) {
    return Status::invalid_argument("bad " + std::string(field) + " '" + std::string(text) + "'");
  }
  return v;
}

}  // namespace

RecordLog::RecordLog(ObjectStore& store, std::string key)
    : store_(&store), key_(std::move(key)) {}

Result<std::vector<std::string>> RecordLog::read(const ObjectStore& store,
                                                 const std::string& key) {
  return read_log(store, key, nullptr);
}

Result<std::vector<std::string>> RecordLog::open() {
  std::pair<std::uint64_t, std::string> last{0, ""};
  DITTO_ASSIGN_OR_RETURN(std::vector<std::string> records, read_log(*store_, key_, &last));
  seq_ = last.first;
  frames_ = std::move(last.second);
  return records;
}

Status RecordLog::append(std::string_view record) {
  const bool roll = seq_ == 0 || (!frames_.empty() && 2 * kHeaderBytes + frames_.size() +
                                                          record.size() > kSegmentBytes);
  std::string frames = roll ? std::string() : frames_;
  append_frame(frames, record);
  const std::uint64_t seq = roll ? seq_ + 1 : seq_;
  DITTO_RETURN_IF_ERROR(store_->put(key_ + "/" + seq_name(seq), segment_of(frames)));
  seq_ = seq;
  frames_ = std::move(frames);
  return Status::ok();
}

std::string RecordLog::encode_segment(const std::vector<std::string>& records) {
  std::string frames;
  for (const std::string& r : records) append_frame(frames, r);
  return segment_of(frames);
}

Result<std::vector<std::string>> RecordLog::decode_segment(std::string_view bytes) {
  DITTO_ASSIGN_OR_RETURN(const std::vector<std::string_view> outer, decode_frames(bytes));
  if (outer.size() != 1) {
    return Status::invalid_argument("a segment is one frame, not " +
                                    std::to_string(outer.size()));
  }
  DITTO_ASSIGN_OR_RETURN(const std::vector<std::string_view> frames, decode_frames(outer[0]));
  return std::vector<std::string>(frames.begin(), frames.end());
}

std::string format_fields(const RecordFields& fields) {
  std::string out;
  for (const auto& [key, value] : fields) {
    out += (out.empty() ? "" : " ") + key + "=" + value;
  }
  return out;
}

Result<RecordFields> parse_fields(std::string_view text,
                                  std::initializer_list<std::string_view> tails) {
  RecordFields fields;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t eq = text.find('=', at);
    const std::size_t space = std::min(text.find(' ', at), text.size());
    if (eq == at || eq >= space) {
      return Status::invalid_argument("expected key=value at byte " + std::to_string(at));
    }
    const std::string_view key = text.substr(at, eq - at);
    const bool tail = std::find(tails.begin(), tails.end(), key) != tails.end();
    const std::size_t end = tail ? text.size() : space;
    fields.emplace_back(key, text.substr(eq + 1, end - eq - 1));
    if (end + 1 == text.size()) return Status::invalid_argument("trailing space");
    at = end + 1;
  }
  return fields;
}

std::string format_double(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

Result<std::uint64_t> parse_u64(std::string_view field, std::string_view text) {
  return parse_number<std::uint64_t>(field, text);
}

Result<double> parse_nonnegative(std::string_view field, std::string_view text) {
  DITTO_ASSIGN_OR_RETURN(const double v, parse_number<double>(field, text));
  if (!(v >= 0.0)) return Status::invalid_argument("bad " + std::string(field) + " (< 0)");
  return v;
}

}  // namespace ditto::storage
