// Table serialization for cross-server exchange.
//
// Intra-server exchange never serializes (an Exchange's local pipe
// hands tables over by pointer); cross-server exchange pays exactly this
// encode + decode — the cost asymmetry Ditto's grouping exploits. The
// wire form is a storage::Payload, the same shared immutable bytes an
// ObjectStore keeps. The one wire version is v2 ("DITTOTB2"):
//
//   string columns are one (rows+1) offsets array plus one contiguous
//   bytes blob; fixed-width payloads and offset arrays are 8-byte
//   aligned relative to the start of the payload, so the reader
//   BORROWS them in place (zero-copy deserialize) instead of copying
//   into fresh vectors.
//
// The legacy v1 format ("DITTOTB1": length-prefixed strings, unaligned
// fixed-width payloads) is rejected with INVALID_ARGUMENT. Every cache
// signature changed after the writer last emitted v1, so no stored
// object the engine or the service reads is v1.
//
// The reader treats input as untrusted: every length is bounds-checked
// overflow-safely and implausible sizes return INVALID_ARGUMENT before
// any allocation — a corrupt object from storage can never crash,
// throw, or over-allocate.
#pragma once

#include <vector>

#include "common/status.h"
#include "exec/table.h"
#include "storage/object_store.h"

namespace ditto::exec {

/// Serializes a table as v2 into a fresh exact-size payload: the
/// one-part case of serialize_tables.
storage::Payload serialize_table(const Table& table);

/// Serializes the concatenation of `parts` as v2 in one pass, without
/// building the concatenated table: the bytes equal
/// serialize_table(concat_tables(parts)), and each value is written
/// once. INVALID_ARGUMENT ("concat schema mismatch") when a part's
/// schema differs from the first part's; no parts give an empty table.
Result<storage::Payload> serialize_tables(const std::vector<const Table*>& parts);

/// Parses a v2 payload. Fixed-width columns borrow from `bytes` in
/// place and hold a refcount on it, so the table (or any slice of it)
/// keeps the payload alive; string columns and misaligned payloads are
/// copied. A null payload, a v1 payload and any malformed payload are
/// INVALID_ARGUMENT.
Result<Table> deserialize_table(const storage::Payload& bytes);

}  // namespace ditto::exec
