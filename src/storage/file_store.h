// FileStore: directory-backed ObjectStore — durable state that
// survives process death.
//
// The service tier's crash story (journal + recovered sink outputs)
// needs an object store whose contents outlive the process, which the
// in-memory stores cannot provide. Keys map to files under a root
// directory (a '/' in the key becomes a subdirectory), so the journal's
// segments `journal/serve.log/<seq>` and `sinks/<label>/<stage>` land
// where a human can inspect them.
//
// A put replaces the value atomically: it writes a staging file
// `.<name>.tmp<N>` next to the target, then renames it over the
// target, so a reader or a SIGKILL sees the old value or the new one,
// never a prefix (no fsync: a machine crash, as opposed to a process
// kill, can still lose recent puts). Key segments may not start with
// '.', so staging names never collide with keys; list, get and
// used_bytes never show them. A FileStore opening a root deletes the
// staging files and empty directories a killed process left behind
// (one FileStore per root).
//
// remove() also deletes the parent directories the removal emptied,
// up to but never including the root, so removed keys leave no empty
// directories behind.
//
// Thread-safe: a single mutex serializes metadata; values stream
// outside the byte-counting bookkeeping. A second, reader-writer lock
// orders the directory tree: puts (directory creation and opening the
// staging file) and directory walks share it, and remove's prune holds
// it alone, so a prune never deletes a directory a concurrent put is
// about to write into. Intended for journal/sink traffic (tens of
// objects), not the exchange hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "storage/object_store.h"

namespace ditto::storage {

class FileStore final : public ObjectStore {
 public:
  /// `root` is created (recursively) if missing; staging files and
  /// empty directories under it are deleted. The model is used only
  /// for simulator pricing; FileStore never sleeps.
  explicit FileStore(std::string root, StorageModel model = {});

  const char* kind() const override { return "file"; }
  const StorageModel& model() const override { return model_; }

  Status put(const std::string& key, std::string_view value) override;
  Result<std::string> get(const std::string& key) const override;
  bool contains(const std::string& key) const override;
  Status remove(const std::string& key) override;
  std::vector<std::string> list(const std::string& prefix) const override;

  Bytes used_bytes() const override;
  StoreStats stats() const override;

  const std::string& root() const { return root_; }

 private:
  /// Root-relative filesystem path for `key`; INVALID_ARGUMENT when the
  /// key would escape the root or name a staging file (empty, absolute,
  /// or a segment that is empty or starts with '.').
  Result<std::string> path_of(const std::string& key) const;

  std::string root_;
  StorageModel model_;
  mutable std::mutex mu_;
  mutable StoreStats stats_;
  /// Shared: creating directories and opening in put, list, used_bytes.
  /// Exclusive: remove's prune of emptied directories.
  mutable std::shared_mutex tree_mu_;
  std::atomic<std::uint64_t> staging_seq_{0};  ///< unique staging names
};

}  // namespace ditto::storage
