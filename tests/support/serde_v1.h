// The legacy v1 table writer ("DITTOTB1": length-prefixed strings,
// unaligned fixed-width payloads). The engine writes only v2; the
// serde reader still accepts v1 so persisted bytes stay loadable. Tests
// and the data-path micro-bench use this writer to produce v1 payloads
// for that reader and as the legacy baseline of the receiver-parse
// gate.
#pragma once

#include "exec/table.h"
#include "storage/object_store.h"

namespace ditto::exec {

/// Serializes `table` in the v1 wire format (one exact-size allocation).
storage::Payload serialize_table_v1(const Table& table);

}  // namespace ditto::exec
