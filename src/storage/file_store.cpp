#include "storage/file_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

namespace ditto::storage {

namespace fs = std::filesystem;

namespace {

/// Staging files are the only names that start with '.': keys cannot.
bool is_staging(const fs::path& p) {
  const std::string name = p.filename().string();
  return !name.empty() && name.front() == '.';
}

}  // namespace

FileStore::FileStore(std::string root, StorageModel model)
    : root_(std::move(root)), model_(model) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  // A bad root surfaces as a Status on the first put/get. A killed
  // put leaves a staging file that is never renamed, or directories it
  // created but never wrote into: drop both, children before parents.
  std::vector<fs::path> stale;
  std::vector<fs::path> dirs;
  for (fs::recursive_directory_iterator it(root_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_directory(ec)) dirs.push_back(it->path());
    if (it->is_regular_file(ec) && is_staging(it->path())) stale.push_back(it->path());
  }
  for (const fs::path& p : stale) fs::remove(p, ec);
  for (auto d = dirs.rbegin(); d != dirs.rend(); ++d) fs::remove(*d, ec);  // empty ones only
}

Result<std::string> FileStore::path_of(const std::string& key) const {
  if (key.empty()) return Status::invalid_argument("file store key is empty");
  if (key.front() == '/') return Status::invalid_argument("file store key is absolute: " + key);
  std::istringstream segs(key);
  std::string seg;
  while (std::getline(segs, seg, '/')) {
    // '.' and '..' would escape or alias; any other leading '.' is the
    // staging namespace.
    if (seg.empty() || seg.front() == '.') {
      return Status::invalid_argument("file store key has bad segment: " + key);
    }
  }
  return root_ + "/" + key;
}

Status FileStore::put(const std::string& key, std::string_view value) {
  DITTO_ASSIGN_OR_RETURN(const std::string path, path_of(key));
  const fs::path target(path);
  const fs::path staging =
      target.parent_path() /
      ("." + target.filename().string() + ".tmp" + std::to_string(staging_seq_.fetch_add(1)));
  std::ofstream out;
  {
    // Held until the staging file is open: after that a prune sees a
    // non-empty directory and leaves it.
    std::shared_lock<std::shared_mutex> tree(tree_mu_);
    std::error_code ec;
    fs::create_directories(target.parent_path(), ec);
    if (ec) {
      return Status::unavailable("cannot create directories for " + key + ": " + ec.message());
    }
    out.open(staging, std::ios::binary | std::ios::trunc);
  }
  if (!out) return Status::unavailable("cannot open " + key + " for writing");
  out.write(value.data(), static_cast<std::streamsize>(value.size()));
  out.close();
  // The rename replaces the old value whole: a reader, or a crash, sees
  // the old bytes or the new ones, never a prefix.
  std::error_code ec;
  if (out) fs::rename(staging, target, ec);
  if (!out || ec) {
    fs::remove(staging, ec);
    return Status::unavailable("cannot write " + key);
  }
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.puts;
  stats_.bytes_written += value.size();
  return Status::ok();
}

Result<std::string> FileStore::get(const std::string& key) const {
  DITTO_ASSIGN_OR_RETURN(const std::string path, path_of(key));
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.gets;
    ++stats_.misses;
    return Status::not_found("no object '" + key + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string value = std::move(buf).str();
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.gets;
  stats_.bytes_read += value.size();
  return value;
}

bool FileStore::contains(const std::string& key) const {
  const auto path = path_of(key);
  if (!path.ok()) return false;
  std::error_code ec;
  return fs::is_regular_file(*path, ec);
}

Status FileStore::remove(const std::string& key) {
  DITTO_ASSIGN_OR_RETURN(const std::string path, path_of(key));
  std::error_code ec;
  if (!fs::remove(path, ec) || ec) return Status::not_found("no object '" + key + "'");
  // Prune the directories this removal emptied, deepest first. Removing
  // a directory fails unless it is empty, which ends the walk; the
  // root is never a candidate because only key segments are.
  std::unique_lock<std::shared_mutex> tree(tree_mu_);
  std::string dir = key;
  for (std::size_t slash = dir.rfind('/'); slash != std::string::npos;
       slash = dir.rfind('/')) {
    dir.resize(slash);
    if (!fs::remove(root_ + "/" + dir, ec) || ec) break;
  }
  return Status::ok();
}

std::vector<std::string> FileStore::list(const std::string& prefix) const {
  std::vector<std::string> keys;
  std::shared_lock<std::shared_mutex> tree(tree_mu_);
  std::error_code ec;
  const fs::path root(root_);
  for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec) || is_staging(it->path())) continue;
    const std::string key = fs::relative(it->path(), root, ec).generic_string();
    if (ec) continue;
    if (key.compare(0, prefix.size(), prefix) == 0) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

Bytes FileStore::used_bytes() const {
  Bytes total = 0;
  std::shared_lock<std::shared_mutex> tree(tree_mu_);
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec) && !is_staging(it->path())) total += it->file_size(ec);
  }
  return total;
}

StoreStats FileStore::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace ditto::storage
