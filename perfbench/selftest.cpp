// Self-test of the benchmark's own arithmetic: percentile selection and
// its tail-sample rule, failure counting, key-prefix classification,
// the timing store's per-class accounting, and the result line.
// Exits non-zero on the first failed check. Run through
// `python3 perfbench/run.py --selftest`, which also checks that a
// deliberately corrupted answer fails a benchmark run.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"
#include "storage/sim_store.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Nearest rank: p50 of 1..200 is 100, p95 is 190 with exactly ten
  // samples beyond it; 199 samples leave only nine.
  expect(percentile(one_to(200), 0.5) == 100.0, "p50 of 1..200");
  expect(percentile(one_to(200), 0.95) == 190.0, "p95 of 1..200");
  expect(samples_beyond(200, 0.95) == 10, "200 samples leave 10 beyond p95");
  expect(samples_beyond(199, 0.95) == 9, "199 samples leave 9 beyond p95");
  expect(percentile({7.0}, 0.95) == 7.0, "single sample");
  expect(percentile({}, 0.5) == kMissing, "empty input is missing");

  // A failed job enters as kMissing and lands in the tail.
  std::vector<double> with_failures = one_to(190);
  for (int i = 0; i < 10; ++i) with_failures.push_back(kMissing);
  expect(percentile(with_failures, 0.95) == 190.0, "ten failures sit beyond p95");
  with_failures.push_back(kMissing);
  expect(percentile(with_failures, 0.95) == kMissing, "eleven failures reach p95");

  Tally t;
  for (int i = 0; i < 97; ++i) t.add(true);
  for (int i = 0; i < 3; ++i) t.add(false);
  expect(t.attempted == 100 && t.failed == 3, "tally counts");
  expect(t.failed_frac() == 0.03, "failed_frac");
  expect(Tally{}.failed_frac() == 0.0, "empty tally");

  expect(classify_key("journal/serve.log") == KeyClass::kJournal, "journal prefix");
  expect(classify_key("sinks/d0-3/stage-8") == KeyClass::kSinks, "sinks prefix");
  expect(classify_key("cache/index") == KeyClass::kCache, "cache prefix");
  expect(classify_key("job-17/e0/2-5/0") == KeyClass::kExchange, "job exchange key");
  expect(classify_key("q95/3-4/1") == KeyClass::kExchange, "DAG-name exchange key");
  expect(classify_key("journalx") == KeyClass::kExchange, "prefix needs its slash");

  auto inner = ditto::storage::make_instant_store();
  TimingStore ts(*inner);
  expect(ts.put("journal/log", std::string(100, 'a')).is_ok(), "put journal");
  expect(ts.put("journal/log", std::string(150, 'b')).is_ok(), "rewrite journal");
  expect(ts.put("x/1", std::string(10, 'c')).is_ok(), "put exchange");
  expect(ts.get("x/1").ok(), "get exchange");
  expect(!ts.get("x/missing").ok(), "missing get");
  expect(ts.remove("x/1").is_ok(), "remove exchange");
  const StoreClassStats j = ts.class_stats(KeyClass::kJournal);
  const StoreClassStats x = ts.class_stats(KeyClass::kExchange);
  expect(j.puts == 2 && j.put_bytes == 250.0, "journal puts and bytes");
  expect(j.live_bytes == 150.0, "journal live bytes after rewrite");
  expect(j.put_bytes / j.live_bytes > 1.6 && j.put_bytes / j.live_bytes < 1.7,
         "journal write amplification");
  expect(x.puts == 1 && x.gets == 1 && x.get_bytes == 10.0, "exchange counts");
  expect(x.live_bytes == 0.0, "exchange live bytes after remove");

  expect(reference_kernel() == reference_kernel(), "reference kernel is deterministic");

  Report r;
  r.set("latency_ms", 1.25, "ms");
  r.set("never", kMissing, "ms");
  const std::string line = r.json(true, 4, 0);
  expect(line == "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": "
                 "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
                 "\"never\": {\"value\": 1e+12, \"unit\": \"ms\"}}}",
         "result line");

  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
