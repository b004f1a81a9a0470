#include "obs/profile_store.h"

#include <algorithm>
#include <cstdio>

namespace ditto::obs {

void StageProfile::add(const TaskSample& s) {
  const auto ewma = [this](double prev, double x) {
    return count == 0 ? x : prev + kEwmaAlpha * (x - prev);
  };
  ewma_task = ewma(ewma_task, s.task_seconds);
  ewma_compute = ewma(ewma_compute, s.compute_seconds);
  ewma_transport = ewma(ewma_transport, s.transport_seconds);
  ewma_queue = ewma(ewma_queue, s.queue_seconds);
  for (const auto& [name, seconds] : s.kernel_seconds) {
    const auto it = ewma_kernel.find(name);
    if (it == ewma_kernel.end()) {
      ewma_kernel.emplace(name, seconds);
    } else {
      it->second += kEwmaAlpha * (seconds - it->second);
    }
  }
  ++count;
  retries += static_cast<std::size_t>(std::max(0, s.retries));
}

void StageProfileStore::record(std::uint64_t fingerprint, StageId stage, int dop,
                               const TaskSample& sample) {
  if (dop < 1 || stage == kNoStage) return;
  std::lock_guard<std::mutex> lock(mu_);
  StageProfile& p = profiles_[{fingerprint, stage, dop}];
  if (p.count == 0) {
    p.fingerprint = fingerprint;
    p.stage = stage;
    p.dop = dop;
  }
  p.add(sample);
}

std::optional<StageProfile> StageProfileStore::lookup(std::uint64_t fingerprint, StageId stage,
                                                      int dop) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = profiles_.find({fingerprint, stage, dop});
  if (it == profiles_.end()) return std::nullopt;
  return it->second;
}

std::vector<StageProfile> StageProfileStore::profiles_for(std::uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StageProfile> out;
  for (const auto& [key, p] : profiles_) {
    if (std::get<0>(key) == fingerprint) out.push_back(p);
  }
  return out;
}

std::vector<StageProfile> StageProfileStore::all() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StageProfile> out;
  out.reserve(profiles_.size());
  for (const auto& [key, p] : profiles_) out.push_back(p);
  return out;
}

std::size_t StageProfileStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return profiles_.size();
}

void StageProfileStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  profiles_.clear();
}

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fp));
  return buf;
}

Result<std::uint64_t> parse_fingerprint_hex(const std::string& hex) {
  if (hex.size() != 16) return Status::invalid_argument("fingerprint must be 16 hex chars");
  std::uint64_t v = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return Status::invalid_argument("bad hex digit in fingerprint");
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  return v;
}

}  // namespace ditto::obs
