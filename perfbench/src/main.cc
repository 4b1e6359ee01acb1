// hyperbench: runs one benchmark workload against the HypeR public API and
// prints one JSON document with the raw measurements (set-up times,
// per-request latencies, counts, per-layer values of a traced run, the
// machine record and every failed check). perfbench/run.py builds this
// binary, runs it and turns the document into the reported metrics.
//
//   hyperbench --workload warm_whatif_1m|branch_churn_100k|http_german_1k
//              --seed N --seconds S --trace 0|1 [--tiny] [--run-dir DIR]
//              [--git-sha SHA]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/json.h"
#include "common/simd.h"
#include "workload.h"

#ifndef HYPERBENCH_BUILD_TYPE
#define HYPERBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::RunConfig;
using perfbench::WorkloadResult;

void Array(hyper::JsonWriter& w, const char* key,
           const std::vector<double>& values) {
  w.Key(key).BeginArray();
  for (double v : values) w.Double(v);
  w.EndArray();
}

int Usage() {
  std::fprintf(stderr,
               "usage: hyperbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--run-dir DIR] "
               "[--git-sha SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_value) {
      config.workload = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_value) {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (std::strcmp(argv[i], "--run-dir") == 0 && has_value) {
      config.run_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--git-sha") == 0 && has_value) {
      git_sha = argv[++i];
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      config.tiny = true;
    } else {
      return Usage();
    }
  }
  if (!(config.seconds > 0.0)) return Usage();

  WorkloadResult result;
  if (config.workload == "warm_whatif_1m") {
    result = perfbench::RunWarmWhatIf(config);
  } else if (config.workload == "branch_churn_100k") {
    result = perfbench::RunBranchChurn(config);
  } else if (config.workload == "http_german_1k") {
    result = perfbench::RunHttpGerman(config);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return Usage();
  }

  hyper::JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(config.workload);
  w.Key("seed").UInt(config.seed);
  w.Key("trace").Bool(config.trace);
  w.Key("tiny").Bool(config.tiny);
  w.Key("machine").BeginObject()
      .Key("nproc").UInt(std::thread::hardware_concurrency())
      .Key("simd").String(hyper::simd::LevelName(hyper::simd::ActiveLevel()))
      .Key("threads").UInt(result.thread_budget)
      .Key("build_type").String(HYPERBENCH_BUILD_TYPE)
      .Key("git_sha").String(git_sha)
      .Key("seed").UInt(config.seed)
      .EndObject();
  Array(w, "setup_s", result.setup_s);
  Array(w, "query_ms", result.query_ms);
  Array(w, "howto_ms", result.howto_ms);
  Array(w, "apply_ms", result.apply_ms);
  w.Key("ops").UInt(result.ops);
  w.Key("segments").BeginArray();
  for (size_t k = 0; k < result.segment_ops.size(); ++k) {
    w.BeginObject()
        .Key("ops").UInt(result.segment_ops[k])
        .Key("seconds").Double(result.segment_s[k])
        .Key("query_end").UInt(result.segment_end[k])
        .EndObject();
  }
  w.EndArray();
  w.Key("op_unit").String(result.op_unit);
  w.Key("window_s").Double(result.window_s);
  w.Key("attempted").UInt(result.attempted);
  w.Key("failed").UInt(result.failed);
  w.Key("mismatches").UInt(result.mismatches);
  w.Key("verified").UInt(result.verified);
  w.Key("peak_rss_mb").Double(result.peak_rss_mb);
  w.Key("run_peak_rss_mb").Double(perfbench::PeakRssMb());
  w.Key("layers").BeginObject();
  for (const auto& [name, value] : result.layers) w.Key(name).Double(value);
  w.EndObject();
  w.Key("problems").BeginArray();
  for (const std::string& p : result.problems) w.String(p);
  w.EndArray();
  w.EndObject();
  std::printf("%s\n", w.Take().c_str());
  return 0;
}
