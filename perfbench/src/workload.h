#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// What a workload run takes and returns. main.cc prints a
// WorkloadResult as one JSON document; perfbench/run.py turns the raw
// samples into the reported metrics.

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "service/plan_cache.h"
#include "service/scenario_service.h"
#include "replay.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;      // small data for the harness self-test
  std::string run_dir;    // working directory for WAL files and traces
};

// An untraced run of a workload whose service state stays fixed once warm
// is split into segments: each sets the workload up anew (timed)
// and then measures its share of the window on that fresh set-up, replaying
// the same seeded request stream. Thread placement and allocator state
// differ from one set-up to the next; pooling several set-ups per run keeps
// that from deciding a whole run's figures. A traced run sets up once, then
// splits the window into a traced half and an untraced half.

struct WorkloadResult {
  std::vector<double> setup_s;
  // Peak resident set when the first untraced window has completed its
  // workload's fixed number of operations (see RssCheckpoint).
  double peak_rss_mb = 0.0;
  // Query latency at the client: what-if requests (how-to requests, mixed
  // in on http_german_1k only, go to howto_ms).
  std::vector<double> query_ms;
  std::vector<double> howto_ms;
  std::vector<double> apply_ms;  // CreateScenario + ApplyHypotheticalSql
  uint64_t ops = 0;              // completed operations in the timed window
  double window_s = 0.0;
  // Per segment: operations, seconds, and where its samples end in
  // query_ms.
  std::vector<uint64_t> segment_ops;
  std::vector<double> segment_s;
  std::vector<size_t> segment_end;
  uint64_t attempted = 0;
  uint64_t failed = 0;      // non-OK status, non-200 or wrong answer
  uint64_t mismatches = 0;  // of failed: wrong answers
  uint64_t verified = 0;    // answers compared against a reference
  std::string op_unit = "request";
  size_t thread_budget = 0;  // the service's engine threads, resolved
  std::map<std::string, double> layers;  // traced runs only
  std::vector<std::string> problems;     // every failed check, described

  /// Closes a segment whose samples were appended to query_ms.
  void EndSegment(uint64_t done, double seconds) {
    ops += done;
    window_s += seconds;
    segment_ops.push_back(done);
    segment_s.push_back(seconds);
    segment_end.push_back(query_ms.size());
  }
};

/// Per-layer values that need the traced window, the untraced window and
/// the replay together.
struct LayerInputs {
  std::vector<SpanRecord> spans;   // traced window + replay
  uint64_t window_ops = 0;         // operations in the traced window
  // Sum over the traced Submit calls of the engine time each reported
  // (WhatIfResult / HowToResult total_seconds: prepare + evaluate).
  double submit_engine_ms = 0.0;
  double traced_query_p50_ms = 0.0;
  double untraced_query_p50_ms = 0.0;
  std::vector<ReplayResult> replayed;
  StageCounters stages;
  hyper::service::PlanCacheStats replay_cache;
  hyper::service::PlanCacheStats service_before;  // around the traced window
  hyper::service::PlanCacheStats service_after;
  hyper::durability::WalStats wal_before;
  hyper::durability::WalStats wal_after;
};

/// Fills result->layers with every per-layer metric (a layer the workload
/// does not exercise reports 0) and records a problem when the replay's
/// per-stage misses differ from the service's.
void ComputeLayers(const LayerInputs& in, WorkloadResult* result);

WorkloadResult RunWarmWhatIf(const RunConfig& config);
WorkloadResult RunBranchChurn(const RunConfig& config);
WorkloadResult RunHttpGerman(const RunConfig& config);

double Median(std::vector<double> values);
double PeakRssMb();

/// Where peak_rss_mb is read: when a window has completed `ops` operations.
/// The figure then includes serving, and it does not move with throughput,
/// because it is always taken at the same point of the seeded request
/// stream. A window that has not completed `ops` operations by its deadline
/// runs on until it has. `ops == 0` takes no reading.
class RssCheckpoint {
 public:
  explicit RssCheckpoint(uint64_t ops) : ops_(ops) {}

  /// True while the window must go on past its deadline.
  bool pending(uint64_t done) const { return done < ops_; }

  /// Called once per completed operation with the number completed so far;
  /// takes the reading at the checkpoint.
  void Completed(uint64_t done) {
    if (done == ops_) mb_ = PeakRssMb();
  }

  double mb() const { return mb_; }

 private:
  uint64_t ops_;
  double mb_ = 0.0;
};

/// Runs `count` timed set-ups into result->setup_s and returns the last
/// one's state, or null (with the failure recorded) when one fails.
template <typename State, typename SetUp>
std::unique_ptr<State> TimedSetUps(int count, const SetUp& set_up,
                                   WorkloadResult* result) {
  std::unique_ptr<State> state;
  for (int k = 0; k < count; ++k) {
    state.reset();
    const int64_t start = NowNs();
    auto built = set_up();
    if (!built.ok()) {
      result->problems.push_back("set-up: " + built.status().ToString());
      ++result->attempted;
      ++result->failed;
      return nullptr;
    }
    state = std::move(built).value();
    result->setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return state;
}

/// Deterministic request-stream generator.
using Rng64 = std::mt19937_64;
inline size_t Pick(Rng64& rng, size_t n) { return rng() % n; }

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
