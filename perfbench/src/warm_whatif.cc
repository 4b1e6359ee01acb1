// warm_whatif_1m: german-syn at 1M rows, frequency estimator, service
// defaults. One in-process client calls ScenarioService::Submit closed loop;
// set-up prepares every query shape, so each timed request is a plan-cache
// hit whose cost is Evaluate over the whole relation.

#include <iterator>
#include <memory>

#include "common/strings.h"
#include "data/datasets.h"
#include "common/thread_pool.h"
#include "workload.h"

namespace perfbench {
namespace {

using hyper::service::Request;
using hyper::service::ScenarioService;

struct Shape {
  const char* format;  // one %d: the rotating update constant
  int num_constants;   // constants 0 .. n-1
};

constexpr Shape kShapes[] = {
    {"Use German When Status = 1 Update(Status) = %d "
     "Output Count(Credit = 1)", 4},
    {"Use German When Age = 1 Update(Savings) = %d "
     "Output Avg(Post(Credit))", 3},
    {"Use German When Savings = 0 Update(CreditHistory) = %d "
     "Output Count(Credit = 1)", 3},
};

// An untraced run sets up kSetUps times and measures kWindowsPerSetUp
// segments on each. Each request keeps all of the pool's threads busy, so
// a host preempting any one of them for a moment shows in that request's
// latency; the median over nine segments leaves out a few seconds of that.
constexpr int kSetUps = 3;
constexpr int kWindowsPerSetUp = 3;
constexpr int kSegments = kSetUps * kWindowsPerSetUp;
// Requests into the first segment at which peak_rss_mb is read: most of a
// segment on a 4-core machine.
constexpr uint64_t kRssOps = 40;

std::string Statement(size_t shape, int constant) {
  return hyper::StrFormat(kShapes[shape].format, constant);
}

std::string NextStatement(Rng64& rng) {
  const size_t shape = Pick(rng, std::size(kShapes));
  return Statement(shape, static_cast<int>(Pick(
                              rng, static_cast<size_t>(
                                       kShapes[shape].num_constants))));
}

struct State {
  std::shared_ptr<const hyper::Database> base;
  hyper::causal::CausalGraph graph;
  hyper::service::ServiceOptions options;
  std::unique_ptr<ScenarioService> service;
  std::vector<std::string> warmup;
};

hyper::Result<std::unique_ptr<State>> SetUp(const RunConfig& config) {
  auto state = std::make_unique<State>();
  {
    HYPER_ASSIGN_OR_RETURN(
        hyper::data::Dataset ds,
        hyper::data::MakeByName("german-syn-1m", config.tiny ? 0.02 : 1.0,
                                config.seed));
    state->base = std::make_shared<const hyper::Database>(std::move(ds.db));
    state->graph = std::move(ds.graph);
  }
  state->options.whatif.estimator = hyper::learn::EstimatorKind::kFrequency;
  state->service = std::make_unique<ScenarioService>(
      state->base->ShallowCopy(), state->graph, state->options);
  // Warm every (shape, constant): plans, stages and lazily trained pattern
  // estimators are all in place before the first timed request.
  for (size_t shape = 0; shape < std::size(kShapes); ++shape) {
    for (int c = 0; c < kShapes[shape].num_constants; ++c) {
      Request request;
      request.sql = Statement(shape, c);
      const auto response = state->service->Submit(request);
      if (!response.ok()) return response.status;
      state->warmup.push_back(request.sql);
    }
  }
  return state;
}

struct Issued {
  std::string sql;
  bool ok = false;
  double value = 0.0;
  double engine_ms = 0.0;  // prepare + evaluate, as the engine reported
};

struct Window {
  std::vector<double> latency_ms;
  std::vector<Issued> issued;
  double seconds = 0.0;
  double rss_mb = 0.0;  // at the RssCheckpoint, when one was asked for
};

Window RunWindow(State& state, Rng64& rng, double seconds, Tracer* tracer,
                 uint64_t first_request, uint64_t rss_ops = 0) {
  Window window;
  RssCheckpoint rss(rss_ops);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  int64_t last = start;
  for (uint64_t id = first_request, done = 0;
       NowNs() < deadline || rss.pending(done); ++id) {
    Request request;
    request.sql = NextStatement(rng);
    Span root(tracer, "request", id);
    const int64_t t0 = NowNs();
    hyper::service::Response response;
    {
      Span span(tracer, "service.submit", id, root.id());
      response = state.service->Submit(request);
    }
    last = NowNs();
    window.latency_ms.push_back(static_cast<double>(last - t0) / 1e6);
    window.issued.push_back({std::move(request.sql), response.ok(),
                             response.whatif.value,
                             response.whatif.total_seconds * 1e3});
    rss.Completed(++done);
  }
  window.seconds = static_cast<double>(last - start) / 1e9;
  window.rss_mb = rss.mb();
  return window;
}

void Verify(const State& state, const std::vector<Issued>& issued,
            WorkloadResult* result) {
  Reference reference(state.base, &state.graph, state.options);
  for (const Issued& i : issued) {
    const Reference::Answer& want = reference.Get(i.sql);
    ++result->verified;
    if (!i.ok || !want.ok || !SameBits(i.value, want.value)) {
      ++result->failed;
      if (i.ok) ++result->mismatches;
      if (result->problems.size() < 8) {
        result->problems.push_back(hyper::StrFormat(
            "answer %.17g != reference %.17g for: %s", i.value, want.value,
            i.sql.c_str()));
      }
    }
  }
}

}  // namespace

WorkloadResult RunWarmWhatIf(const RunConfig& config) {
  WorkloadResult result;
  const auto set_up = [&] { return SetUp(config); };
  const uint64_t stream_seed = config.seed * 0x9e3779b97f4a7c15ULL + 1;
  std::unique_ptr<State> state;
  std::vector<Issued> all_issued;
  if (!config.trace) {
    for (int k = 0; k < kSetUps; ++k) {
      state.reset();  // one 1M-row data set in memory at a time
      state = TimedSetUps<State>(1, set_up, &result);
      if (state == nullptr) return result;
      Rng64 rng(stream_seed);
      for (int w = 0; w < kWindowsPerSetUp; ++w) {
        const bool first = k == 0 && w == 0;
        Window window = RunWindow(*state, rng, config.seconds / kSegments,
                                  nullptr, 0, first ? kRssOps : 0);
        if (first) result.peak_rss_mb = window.rss_mb;
        result.query_ms.insert(result.query_ms.end(),
                               window.latency_ms.begin(),
                               window.latency_ms.end());
        result.EndSegment(window.issued.size(), window.seconds);
        all_issued.insert(all_issued.end(), window.issued.begin(),
                          window.issued.end());
      }
    }
  } else {
    state = TimedSetUps<State>(1, set_up, &result);
    if (state == nullptr) return result;
    Rng64 rng(stream_seed);
    Tracer tracer;
    LayerInputs in;
    in.service_before = state->service->cache_stats();
    in.wal_before = state->service->wal_stats();
    const double half = config.seconds / 2;
    Window traced = RunWindow(*state, rng, half, &tracer, 1);
    in.service_after = state->service->cache_stats();
    in.wal_after = state->service->wal_stats();
    Window untraced = RunWindow(*state, rng, half, nullptr, 0);

    Replayer replayer(&state->graph, state->options, &tracer);
    const World trunk = TrunkWorld(state->base);
    uint64_t id = uint64_t{1} << 40;
    for (const std::string& sql : state->warmup) {
      in.replayed.push_back(replayer.Run(trunk, sql, id++));
    }
    for (const Issued& i : traced.issued) {
      in.submit_engine_ms += i.engine_ms;
      ReplayResult r = replayer.Run(trunk, i.sql, id++);
      if (!r.ok || !r.t1_equal || !SameBits(r.value, i.value)) {
        result.problems.push_back("replay disagrees with the service on: " +
                                  i.sql);
      }
      in.replayed.push_back(r);
    }
    in.spans = tracer.spans();
    in.window_ops = traced.issued.size();
    in.traced_query_p50_ms = Median(traced.latency_ms);
    in.untraced_query_p50_ms = Median(untraced.latency_ms);
    in.stages = replayer.counters();
    in.replay_cache = replayer.cache_stats();
    ComputeLayers(in, &result);
    if (!config.run_dir.empty()) {
      tracer.WriteCsv(config.run_dir + "/trace-warm_whatif_1m.csv");
    }
    result.query_ms = traced.latency_ms;
    result.EndSegment(traced.issued.size(), traced.seconds);
    all_issued = std::move(traced.issued);
    all_issued.insert(all_issued.end(), untraced.issued.begin(),
                      untraced.issued.end());
  }
  // Every set-up generates the same data from the seed, so one reference
  // serves the answers of all segments.
  result.attempted += all_issued.size();
  result.thread_budget =
      hyper::ThreadPool::ResolveBudget(state->options.whatif.num_threads);
  Verify(*state, all_issued, &result);
  return result;
}

}  // namespace perfbench
