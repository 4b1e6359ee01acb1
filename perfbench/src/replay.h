#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// Stage-level replay and answer references, both built only from the
// program's public API.
//
// - BranchMirror rebuilds, from a base database and a hypothetical update,
//   the branch delta and the branch-effective database that
//   ScenarioService::ApplyHypothetical and ::EffectiveDatabase produce, held
//   in a benchmark-owned service::ScenarioBranch.
// - Replayer re-runs a request sequence stage by stage: sql::ParseSql ->
//   WhatIfEngine::Prepare (through a StageProvider that times each stage
//   factory) -> Evaluate at the default thread budget and at one thread, or
//   howto::HowToEngine::Run. Its caches mirror the service's, so its
//   per-stage miss counts must equal the service's cache_stats() misses.
// - Reference answers come from fresh engines at num_threads=1.

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "causal/graph.h"
#include "common/status.h"
#include "howto/engine.h"
#include "service/plan_cache.h"
#include "service/scenario.h"
#include "service/scenario_service.h"
#include "storage/database.h"
#include "trace.h"
#include "whatif/engine.h"

namespace perfbench {

/// One data snapshot as the service sees it for a request.
struct World {
  std::shared_ptr<const hyper::Database> db;
  std::string scope;  // "g<generation>|d<delta fingerprint>"
  uint64_t generation = 1;
  std::shared_ptr<const hyper::service::ScenarioBranch::OverrideMap>
      overrides;
};

/// The scope id ScenarioService gives a branch with this delta fingerprint.
std::string ScopeOf(uint64_t generation, uint64_t delta_fingerprint);

/// The trunk ("main", no deltas) world over `base`.
World TrunkWorld(std::shared_ptr<const hyper::Database> base);

/// A branch created from the trunk with one hypothetical update applied.
struct BranchMirror {
  hyper::service::ScenarioBranch branch{"", "main"};
  World world;
};

/// Computes the update's delta over `base` (When selects rows, every update
/// maps pre -> post), records it in a fresh ScenarioBranch and materializes
/// the branch-effective database, as the service does.
hyper::Result<BranchMirror> MirrorBranch(
    std::shared_ptr<const hyper::Database> base, const std::string& name,
    const std::string& update_sql);

/// Stage-time and miss counters the replay collects, per StageKind.
struct StageCounters {
  std::array<uint64_t, 4> misses{};
  std::array<int64_t, 4> self_ns{};  // factory time minus nested factories
};

/// StageProvider that forwards to a service::StageCache and times every
/// factory the cache runs. Nested factories (a stage building its upstream)
/// are subtracted from the enclosing one, so times are per-stage self time.
class TimingStageProvider : public hyper::whatif::StageProvider {
 public:
  TimingStageProvider(hyper::service::StageCache* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  hyper::Result<StagePtr> GetOrBuild(hyper::whatif::StageKind kind,
                                     const std::string& key,
                                     const StageFactory& build,
                                     bool* hit) override;
  StagePtr Peek(hyper::whatif::StageKind kind,
                const std::string& key) override {
    return inner_->Peek(kind, key);
  }

  StageCounters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }
  /// Request and parent span the next factories' spans belong to.
  void set_request(uint64_t request, uint64_t parent) {
    std::lock_guard<std::mutex> lock(mu_);
    request_ = request;
    parent_ = parent;
  }

 private:
  hyper::service::StageCache* inner_;
  Tracer* tracer_;
  mutable std::mutex mu_;
  StageCounters counters_;
  uint64_t request_ = 0;
  uint64_t parent_ = 0;
};

/// What one replayed request measured.
struct ReplayResult {
  bool ok = false;
  bool is_howto = false;
  double value = 0.0;        // what-if value or how-to objective
  bool t1_equal = true;      // 1-thread Evaluate gave the same bits
  size_t view_rows = 0;
  double train_seconds = 0.0;   // lazy training, in an untimed Evaluate
  double evaluate_ms = 0.0;     // default budget
  double evaluate_t1_ms = 0.0;  // one thread, same plan
  size_t candidates = 0;
  double candidate_eval_seconds = 0.0;
};

/// Replays requests against its own stage cache, with the service's
/// options and cache capacity.
class Replayer {
 public:
  Replayer(const hyper::causal::CausalGraph* graph,
           const hyper::service::ServiceOptions& options, Tracer* tracer);

  ReplayResult Run(const World& world, const std::string& sql,
                   uint64_t request);
  /// Mirrors ScenarioService::DropScenario's eager eviction.
  void Drop(const World& world) { cache_.EvictTagged(world.scope); }

  StageCounters counters() const { return provider_.counters(); }
  hyper::service::PlanCacheStats cache_stats() const {
    return cache_.stats();
  }

 private:
  hyper::whatif::StageContext ContextFor(const World& world);

  const hyper::causal::CausalGraph* graph_;
  hyper::service::ServiceOptions options_;
  Tracer* tracer_;
  hyper::service::StageCache cache_;
  TimingStageProvider provider_;
  uint64_t evaluations_ = 0;  // replayed what-if requests: whose arm goes first
};

/// Answers from fresh engines at num_threads=1 on one database, memoized
/// per statement. What-if plans are prepared once per query shape with no
/// stage cache (Run is exactly Prepare + Evaluate), then evaluated per
/// statement.
class Reference {
 public:
  Reference(std::shared_ptr<const hyper::Database> db,
            const hyper::causal::CausalGraph* graph,
            const hyper::service::ServiceOptions& options);

  struct Answer {
    bool ok = false;
    double value = 0.0;
    double baseline = 0.0;
  };
  const Answer& Get(const std::string& sql);

 private:
  std::shared_ptr<const hyper::Database> db_;
  const hyper::causal::CausalGraph* graph_;
  hyper::service::ServiceOptions options_;
  std::map<std::string, std::shared_ptr<const hyper::whatif::PreparedWhatIf>>
      plans_;
  std::map<std::string, Answer> answers_;
};

inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
