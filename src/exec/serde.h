// Table serialization for cross-server exchange.
//
// Intra-server exchange never serializes (Buffer handles move through
// shared memory); cross-server exchange pays exactly this encode +
// decode — the cost asymmetry Ditto's grouping exploits. Two wire
// versions are readable; only v2 is written:
//
//   v1 ("DITTOTB1", legacy): length-prefixed per string, fixed-width
//     payloads unaligned. Read so that bytes persisted by older
//     builds stay loadable.
//   v2 ("DITTOTB2"): string columns are one (rows+1) offsets
//     array plus one contiguous bytes blob; fixed-width payloads and
//     offset arrays are 8-byte aligned relative to the start of the
//     payload, so a receiver can BORROW them in place (zero-copy
//     deserialize) instead of copying into fresh vectors.
//
// Both readers treat input as untrusted: every length is bounds-checked
// overflow-safely and implausible sizes return INVALID_ARGUMENT before
// any allocation — a corrupt object from storage can never crash,
// throw, or over-allocate.
#pragma once

#include <memory>
#include <string>

#include "common/status.h"
#include "exec/table.h"
#include "shm/buffer.h"

namespace ditto::exec {

/// Serializes a table into a fresh exact-size string: the form an
/// ObjectStore keeps as a shared payload.
std::string serialize_table_to_string(const Table& table);

/// Serializes a table into a fresh buffer (one exact-size allocation).
shm::Buffer serialize_table(const Table& table);

/// Parses a buffer produced by serialize_table. All columns are owned
/// (the input bytes may go away).
Result<Table> deserialize_table(std::string_view bytes);

/// Zero-copy parse: fixed-width v2 columns borrow from `bytes` in
/// place, with `owner` keeping the backing memory alive for as long as
/// any resulting column (or a slice of it) exists. Falls back to owned
/// copies for v1 payloads, string columns, and misaligned payloads.
Result<Table> deserialize_table_borrowing(std::string_view bytes,
                                          std::shared_ptr<const void> owner);

/// Zero-copy parse from a shared-memory buffer: the table's borrowed
/// columns hold a refcount on the buffer payload.
Result<Table> deserialize_table(const shm::Buffer& buf);

}  // namespace ditto::exec
