// branch_churn_100k: german-syn at 100k rows, 16-tree forest, durability
// on (WAL in the run directory, fsync policy `interval`). Each cycle
// runs CreateScenario -> ApplyHypotheticalSql -> one Submit on the branch ->
// DropScenario. One delta in four writes Status, which training reads, so
// the Learn stage is rebuilt and the forest retrained; the other three write
// an attribute training never reads, so Learn is reused, Scope is patched
// and Query rebuilt.

#include <filesystem>
#include <iterator>
#include <map>
#include <memory>

#include "common/strings.h"
#include "data/datasets.h"
#include "common/thread_pool.h"
#include "workload.h"

namespace perfbench {
namespace {

using hyper::service::Request;
using hyper::service::ScenarioService;

constexpr const char* kQuery =
    "Use German When Status = 1 Update(Status) = %d Output Count(Credit = 1)";
constexpr int kQueryConstants[] = {2, 3};
constexpr size_t kDeltaRows = 256;
// Set-ups timed per untraced run. The window itself runs on one service:
// state accumulates across cycles (a trained Learn stage per retrain, up to
// the cache's 64 entries), and the workload is meant to run more branches
// than the plan cache holds.
constexpr int kSetUps = 9;
// Cycles into the window at which peak_rss_mb is read (16 retrains), about
// a third of the window on a 4-core machine. The process keeps growing
// after it, by a trained Learn stage per retrain.
constexpr uint64_t kRssOps = 64;
// Attributes the query's training never reads (its features are Status and
// the adjustment set {Age, Housing}; its target is Credit).
constexpr const char* kUntrainedAttrs[] = {"Savings", "CreditHistory",
                                           "CreditAmount"};

struct Cycle {
  std::string name;
  std::string delta;
  std::string query;
  uint64_t fingerprint = 0;
  bool ok = false;
  double value = 0.0;
  double engine_ms = 0.0;  // prepare + evaluate, as the engine reported
};

struct State {
  std::shared_ptr<const hyper::Database> base;
  size_t rows = 0;
  hyper::causal::CausalGraph graph;
  hyper::service::ServiceOptions options;
  std::unique_ptr<ScenarioService> service;
  std::vector<std::string> warmup;
};

/// The seeded request stream: deltas and query constants.
class Stream {
 public:
  Stream(uint64_t seed, size_t rows)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + 2), span_(rows - kDeltaRows) {
    offset_ = Pick(rng_, span_);
    for (size_t r = 0; r < 2; ++r) ranges_[r] = Pick(rng_, span_);
  }

  /// Cycle `n`: every fourth delta writes Status on a range no earlier cycle
  /// used (a new training set, so a retrain); the others pick from six
  /// untrained-attribute deltas.
  Cycle Next() {
    Cycle c;
    c.name = "b" + std::to_string(n_);
    if (n_ % 4 == 0) {
      const size_t k = n_ / 4;
      const size_t lo = (offset_ + k * kDeltaRows) % span_;
      c.delta = hyper::StrFormat(
          "Use German When Id >= %zu And Id < %zu Update(Status) = %zu "
          "Output Count(*)",
          lo, lo + kDeltaRows, k % 4);
    } else {
      const size_t attr = Pick(rng_, std::size(kUntrainedAttrs));
      const size_t r = Pick(rng_, 2);
      c.delta = hyper::StrFormat(
          "Use German When Id >= %zu And Id < %zu Update(%s) = %zu "
          "Output Count(*)",
          ranges_[r], ranges_[r] + kDeltaRows, kUntrainedAttrs[attr], r + 1);
    }
    c.query = hyper::StrFormat(
        kQuery, kQueryConstants[Pick(rng_, std::size(kQueryConstants))]);
    ++n_;
    return c;
  }

 private:
  Rng64 rng_;
  size_t span_;
  size_t offset_ = 0;
  size_t ranges_[2] = {0, 0};
  size_t n_ = 0;
};

hyper::Result<std::unique_ptr<State>> SetUp(const RunConfig& config,
                                             const std::string& wal_dir) {
  auto state = std::make_unique<State>();
  {
    HYPER_ASSIGN_OR_RETURN(
        hyper::data::Dataset ds,
        hyper::data::MakeByName("german-syn-1m", config.tiny ? 0.005 : 0.1,
                                config.seed));
    state->base = std::make_shared<const hyper::Database>(std::move(ds.db));
    state->graph = std::move(ds.graph);
  }
  HYPER_ASSIGN_OR_RETURN(const hyper::Table* table,
                         state->base->GetTable("German"));
  state->rows = table->num_rows();
  state->options.whatif.estimator = hyper::learn::EstimatorKind::kForest;
  state->options.whatif.forest.num_trees = 16;
  state->options.data_dir = wal_dir;
  state->options.wal_fsync = hyper::durability::FsyncPolicy::kInterval;
  state->service = std::make_unique<ScenarioService>(
      state->base->ShallowCopy(), state->graph, state->options);
  HYPER_RETURN_NOT_OK(state->service->recovery_status());
  for (int c : kQueryConstants) {
    Request request;
    request.sql = hyper::StrFormat(kQuery, c);
    const auto response = state->service->Submit(request);
    if (!response.ok()) return response.status;
    state->warmup.push_back(request.sql);
  }
  return state;
}

struct Window {
  std::vector<double> query_ms;
  std::vector<double> apply_ms;
  std::vector<Cycle> cycles;
  uint64_t failed_calls = 0;
  double seconds = 0.0;
  double rss_mb = 0.0;  // at the RssCheckpoint, when one was asked for
};

Window RunWindow(State& state, Stream& stream, double seconds, Tracer* tracer,
                 uint64_t first_request, uint64_t rss_ops = 0) {
  Window window;
  RssCheckpoint rss(rss_ops);
  ScenarioService& svc = *state.service;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  int64_t last = start;
  for (uint64_t id = first_request, done = 0;
       NowNs() < deadline || rss.pending(done); ++id) {
    Cycle c = stream.Next();
    Span root(tracer, "request", id);
    bool ok = true;
    const int64_t t0 = NowNs();
    {
      Span span(tracer, "service.create", id, root.id());
      ok = svc.CreateScenario(c.name).ok() && ok;
    }
    {
      Span span(tracer, "service.apply", id, root.id());
      ok = svc.ApplyHypotheticalSql(c.name, c.delta).ok() && ok;
    }
    const int64_t t1 = NowNs();
    for (const auto& info : svc.ListScenarios()) {
      if (info.name == c.name) c.fingerprint = info.delta_fingerprint;
    }
    const int64_t t2 = NowNs();
    if (tracer != nullptr) {
      // Materializing the new branch version is the first thing Submit
      // would do; the traced run times it on its own.
      Span span(tracer, "service.effective_db", id, root.id());
      ok = svc.EffectiveDatabase(c.name).ok() && ok;
    }
    Request request;
    request.scenario = c.name;
    request.sql = c.query;
    hyper::service::Response response;
    {
      Span span(tracer, "service.submit", id, root.id());
      response = svc.Submit(request);
    }
    const int64_t t3 = NowNs();
    {
      Span span(tracer, "service.drop", id, root.id());
      ok = svc.DropScenario(c.name).ok() && ok;
    }
    last = NowNs();
    if (!ok) ++window.failed_calls;
    c.ok = ok && response.ok();
    c.value = response.whatif.value;
    c.engine_ms = response.whatif.total_seconds * 1e3;
    window.apply_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    window.query_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
    window.cycles.push_back(std::move(c));
    rss.Completed(++done);
  }
  window.seconds = static_cast<double>(last - start) / 1e9;
  window.rss_mb = rss.mb();
  return window;
}

/// Checks every answer against a fresh 1-thread engine on the same
/// branch-effective database, one delta at a time.
void Verify(const State& state, const std::vector<Cycle>& cycles,
            WorkloadResult* result) {
  std::map<std::string, std::vector<const Cycle*>> by_delta;
  for (const Cycle& c : cycles) by_delta[c.delta].push_back(&c);
  for (const auto& [delta, group] : by_delta) {
    auto mirror = MirrorBranch(state.base, "verify", delta);
    std::unique_ptr<Reference> reference;
    if (mirror.ok()) {
      reference = std::make_unique<Reference>(mirror->world.db, &state.graph,
                                              state.options);
    }
    for (const Cycle* c : group) {
      ++result->verified;
      const bool same_branch =
          mirror.ok() && mirror->branch.delta_fingerprint() == c->fingerprint;
      const Reference::Answer* want =
          reference ? &reference->Get(c->query) : nullptr;
      if (c->ok && same_branch && want != nullptr && want->ok &&
          SameBits(c->value, want->value)) {
        continue;
      }
      ++result->failed;
      if (c->ok) ++result->mismatches;
      if (result->problems.size() < 8) {
        result->problems.push_back(hyper::StrFormat(
            "cycle %s: answer %.17g (ok=%d, same branch=%d) != reference "
            "%.17g for %s on %s",
            c->name.c_str(), c->value, c->ok ? 1 : 0, same_branch ? 1 : 0,
            want != nullptr ? want->value : 0.0, c->query.c_str(),
            delta.c_str()));
      }
    }
  }
}

}  // namespace

WorkloadResult RunBranchChurn(const RunConfig& config) {
  WorkloadResult result;
  result.op_unit = "cycle";
  namespace fs = std::filesystem;
  const fs::path run_dir = config.run_dir.empty() ? "." : config.run_dir;
  int wal_dirs = 0;
  const auto set_up = [&] {
    const fs::path wal_dir = run_dir / ("wal-" + std::to_string(wal_dirs++));
    std::error_code ec;
    fs::remove_all(wal_dir, ec);
    return SetUp(config, wal_dir.string());
  };
  std::unique_ptr<State> state;
  std::vector<Cycle> all_cycles;
  uint64_t failed_calls = 0;
  if (!config.trace) {
    state = TimedSetUps<State>(kSetUps, set_up, &result);
    if (state != nullptr) {
      Stream stream(config.seed, state->rows);
      Window window =
          RunWindow(*state, stream, config.seconds, nullptr, 0, kRssOps);
      result.peak_rss_mb = window.rss_mb;
      result.query_ms = std::move(window.query_ms);
      result.apply_ms = std::move(window.apply_ms);
      result.EndSegment(window.cycles.size(), window.seconds);
      failed_calls = window.failed_calls;
      all_cycles = std::move(window.cycles);
    }
  } else if ((state = TimedSetUps<State>(1, set_up, &result)) != nullptr) {
    Stream stream(config.seed, state->rows);
    Tracer tracer;
    LayerInputs in;
    in.service_before = state->service->cache_stats();
    in.wal_before = state->service->wal_stats();
    const double half = config.seconds / 2;
    Window traced = RunWindow(*state, stream, half, &tracer, 1);
    in.service_after = state->service->cache_stats();
    in.wal_after = state->service->wal_stats();
    Window untraced = RunWindow(*state, stream, half, nullptr, 0);

    Replayer replayer(&state->graph, state->options, &tracer);
    const World trunk = TrunkWorld(state->base);
    uint64_t id = uint64_t{1} << 40;
    for (const std::string& sql : state->warmup) {
      in.replayed.push_back(replayer.Run(trunk, sql, id++));
    }
    for (const Cycle& c : traced.cycles) {
      in.submit_engine_ms += c.engine_ms;
      auto mirror = MirrorBranch(state->base, c.name, c.delta);
      if (!mirror.ok() || mirror->branch.delta_fingerprint() != c.fingerprint) {
        result.problems.push_back("mirrored branch differs from the "
                                  "service's for: " + c.delta);
        continue;
      }
      ReplayResult r = replayer.Run(mirror->world, c.query, id++);
      if (!r.ok || !r.t1_equal || !SameBits(r.value, c.value)) {
        result.problems.push_back("replay disagrees with the service on " +
                                  c.name);
      }
      in.replayed.push_back(r);
      replayer.Drop(mirror->world);
    }
    in.spans = tracer.spans();
    in.window_ops = traced.cycles.size();
    in.traced_query_p50_ms = Median(traced.query_ms);
    in.untraced_query_p50_ms = Median(untraced.query_ms);
    in.stages = replayer.counters();
    in.replay_cache = replayer.cache_stats();
    ComputeLayers(in, &result);
    tracer.WriteCsv((run_dir / "trace-branch_churn_100k.csv").string());
    result.query_ms = traced.query_ms;
    result.apply_ms = traced.apply_ms;
    result.EndSegment(traced.cycles.size(), traced.seconds);
    failed_calls = traced.failed_calls + untraced.failed_calls;
    all_cycles = std::move(traced.cycles);
    all_cycles.insert(all_cycles.end(), untraced.cycles.begin(),
                      untraced.cycles.end());
  }
  if (failed_calls != 0) {
    result.problems.push_back(hyper::StrFormat(
        "%llu cycle(s) had a failing create/apply/drop",
        static_cast<unsigned long long>(failed_calls)));
  }
  if (state != nullptr) {
    result.attempted += all_cycles.size();
    result.thread_budget =
        hyper::ThreadPool::ResolveBudget(state->options.whatif.num_threads);
    Verify(*state, all_cycles, &result);
  }
  state.reset();  // closes the WAL before its directory goes
  for (int k = 0; k < wal_dirs; ++k) {
    std::error_code ec;
    fs::remove_all(run_dir / ("wal-" + std::to_string(k)), ec);
  }
  return result;
}

}  // namespace perfbench
