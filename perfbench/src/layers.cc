// Per-layer metrics from the traced window's spans, the replay's spans and
// stage counters, and the service's cache and WAL counters.

#include <sys/resource.h>

#include <algorithm>

#include "common/strings.h"
#include "workload.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

const hyper::service::StageStats& Section(
    const hyper::service::PlanCacheStats& stats, size_t kind) {
  switch (kind) {
    case 0: return stats.scope;
    case 1: return stats.causal;
    case 2: return stats.learn;
    default: return stats.query;
  }
}

}  // namespace

void ComputeLayers(const LayerInputs& in, WorkloadResult* result) {
  auto& m = result->layers;
  const auto all = TotalsByName(in.spans);
  auto get = [](const std::map<std::string, SpanTotals>& totals,
                const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };

  const bool http = get(all, "net.handler").count > 0;
  const double roundtrip_us = http ? get(all, "request").MeanMs() * 1e3 : 0.0;
  const double handler_us = get(all, "net.handler").MeanMs() * 1e3;
  const double submit_ms = get(all, "service.submit").MeanMs();
  m["sql.parse_us"] = get(all, "sql.parse").MeanMs() * 1e3;
  m["net.roundtrip_us"] = roundtrip_us;
  m["net.handler_us"] = handler_us;
  m["net.transport_us"] = http ? roundtrip_us - handler_us : 0.0;
  m["net.codec_us"] = http ? handler_us - submit_ms * 1e3 : 0.0;
  m["service.submit_ms"] = submit_ms;

  // Submit minus parse and the prepare + evaluate time the engine reported
  // for the same calls: admission, world snapshot, cache lookups, response.
  const SpanTotals submits = get(all, "service.submit");
  m["service.self_ms"] =
      submit_ms - get(all, "sql.parse").MeanMs() -
      Ratio(in.submit_engine_ms, static_cast<double>(submits.count));

  const auto& before = in.service_before;
  const auto& after = in.service_after;
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups =
      hits + static_cast<double>(after.misses - before.misses) +
      static_cast<double>(after.coalesced - before.coalesced);
  m["service.plan_hit_ratio"] = Ratio(hits, lookups);
  m["service.effective_db_ms"] = get(all, "service.effective_db").MeanMs();

  m["whatif.prepare_ms"] = get(all, "whatif.prepare").MeanMs();
  static const char* kStage[4] = {"scope", "causal", "learn", "query"};
  for (size_t k = 0; k < 4; ++k) {
    const std::string prefix = std::string("whatif.") + kStage[k];
    const uint64_t misses = in.stages.misses[k];
    m[prefix + ".build_ms"] =
        Ratio(static_cast<double>(in.stages.self_ns[k]) / 1e6,
              static_cast<double>(misses));
    m[prefix + ".misses"] = Ratio(static_cast<double>(misses),
                                  static_cast<double>(in.replayed.size()));
    const uint64_t service_misses = Section(after, k).misses;
    if (misses != service_misses) {
      result->problems.push_back(hyper::StrFormat(
          "replay %s misses %llu != service %llu", prefix.c_str(),
          static_cast<unsigned long long>(misses),
          static_cast<unsigned long long>(service_misses)));
    }
  }
  if (in.replay_cache.misses != after.misses) {
    result->problems.push_back(hyper::StrFormat(
        "replay plan misses %zu != service %zu", in.replay_cache.misses,
        after.misses));
  }

  double train_s = 0.0, rows = 0.0, candidate_s = 0.0, candidates = 0.0;
  double evaluate_ms = 0.0, evaluate_t1_ms = 0.0;
  uint64_t trained = 0, howtos = 0, whatifs = 0;
  for (const ReplayResult& r : in.replayed) {
    if (r.train_seconds > 0.0) {
      train_s += r.train_seconds;
      ++trained;
    }
    if (r.is_howto) {
      ++howtos;
      candidates += static_cast<double>(r.candidates);
      candidate_s += r.candidate_eval_seconds;
    } else if (r.ok) {
      ++whatifs;
      rows += static_cast<double>(r.view_rows);
      evaluate_ms += r.evaluate_ms;
      evaluate_t1_ms += r.evaluate_t1_ms;
    }
  }
  // Evaluate times leave out lazy estimator training (learn.train_ms).
  m["learn.train_ms"] = Ratio(train_s * 1e3, static_cast<double>(trained));
  m["whatif.evaluate_ms"] = Ratio(evaluate_ms, static_cast<double>(whatifs));
  m["whatif.evaluate_rows_per_s"] = Ratio(rows * 1e3, evaluate_ms);
  m["whatif.evaluate_t1_ms"] =
      Ratio(evaluate_t1_ms, static_cast<double>(whatifs));
  m["howto.run_ms"] = get(all, "howto.run").MeanMs();
  m["howto.candidates"] = Ratio(candidates, static_cast<double>(howtos));
  m["howto.candidate_ms"] = Ratio(candidate_s * 1e3, candidates);

  const double appends =
      static_cast<double>(in.wal_after.appends - in.wal_before.appends);
  m["durability.wal_bytes_per_write"] = Ratio(
      static_cast<double>(in.wal_after.appended_bytes -
                          in.wal_before.appended_bytes),
      appends);
  m["durability.appends"] =
      Ratio(appends, static_cast<double>(in.window_ops));
  m["durability.fsyncs"] =
      Ratio(static_cast<double>(in.wal_after.fsyncs - in.wal_before.fsyncs),
            static_cast<double>(in.window_ops));

  m["trace.unattributed_frac"] = UnattributedFraction(in.spans, "request");
  m["trace.overhead_frac"] =
      Ratio(in.traced_query_p50_ms, in.untraced_query_p50_ms) - 1.0;
}

}  // namespace perfbench
