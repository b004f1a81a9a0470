// RecordLog: the one durable record format of the service's state.
//
// A record is a frame `[u32 len][u32 crc32][payload]` (little-endian,
// CRC-32 IEEE). A segment object wraps a run of record frames in one
// more frame of the same shape, so any truncation or bit flip of a
// segment fails a length or CRC check: INVALID_ARGUMENT, never a
// shorter log. Puts are atomic (ObjectStore::put), so a crash leaves no
// torn segment to forgive.
//
// The log at `key` is the segments `<key>/<16-digit seq>`, seq 1, 2, ...
// An append rewrites only the last segment, and starts seq + 1 once the
// record would take that segment past kSegmentBytes, so an append
// writes at most kSegmentBytes plus one record however long the log is.
// The job journal appends to a RecordLog; the result-cache index is one
// segment (encode_segment/decode_segment). Both write their payloads
// with format_fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/object_store.h"

namespace ditto::storage {

class RecordLog {
 public:
  static constexpr std::size_t kSegmentBytes = 4096;

  /// Not thread-safe: callers serialize appends. `store` must outlive
  /// the log.
  RecordLog(ObjectStore& store, std::string key);

  /// The records at `key`, oldest first; no segment is an empty log.
  /// INVALID_ARGUMENT for a corrupt segment, a missing or stray seq, or
  /// an object at exactly `key` (not a segmented log).
  static Result<std::vector<std::string>> read(const ObjectStore& store,
                                               const std::string& key);

  /// read(), and positions appends after the last record. Call before
  /// the first append to a log that may hold records.
  Result<std::vector<std::string>> open();

  /// A failed put leaves the log as it was.
  Status append(std::string_view record);

  static std::string encode_segment(const std::vector<std::string>& records);
  static Result<std::vector<std::string>> decode_segment(std::string_view bytes);

  const std::string& key() const { return key_; }

 private:
  ObjectStore* store_;
  const std::string key_;
  std::uint64_t seq_ = 0;  ///< the last segment; 0 = none yet
  std::string frames_;     ///< its record frames
};

/// A record payload: `k1=v1 k2=v2 ...`, fields in order. No value may
/// contain a space, except a last field the reader names as a tail.
using RecordFields = std::vector<std::pair<std::string, std::string>>;
std::string format_fields(const RecordFields& fields);
Result<RecordFields> parse_fields(std::string_view text,
                                  std::initializer_list<std::string_view> tails = {});

/// Field values. The parsers take whole tokens only and name `field` in
/// their INVALID_ARGUMENT; parse_nonnegative rejects NaN.
std::string format_double(double v);
Result<std::uint64_t> parse_u64(std::string_view field, std::string_view text);
Result<double> parse_nonnegative(std::string_view field, std::string_view text);

}  // namespace ditto::storage
