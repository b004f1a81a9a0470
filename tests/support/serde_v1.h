// The legacy v1 table format ("DITTOTB1": length-prefixed strings,
// unaligned fixed-width payloads): its writer and its reader. The
// engine writes and reads only v2 (exec/serde.h). Tests keep v1 to pin
// the corruption corpus on a second layout, and the data-path
// micro-bench times this reader as the owned-copy baseline of its
// serde and receiver-parse gates.
#pragma once

#include "common/status.h"
#include "exec/table.h"
#include "storage/object_store.h"

namespace ditto::exec {

/// Serializes `table` in the v1 wire format (one exact-size allocation).
storage::Payload serialize_table_v1(const Table& table);

/// Parses a v1 payload, copying every column out of it. Applies the
/// same untrusted-input bounds as deserialize_table; a null payload or
/// any other magic is INVALID_ARGUMENT.
Result<Table> deserialize_table_v1(const storage::Payload& bytes);

}  // namespace ditto::exec
