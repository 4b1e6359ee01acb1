// http_german_1k: German at 1,000 rows (the paper's size). HttpServer +
// QueryHandler + ScenarioService run in process, wired as
// examples/scenario_server.cc wires them (with --threads 1, see SetUp); a
// loopback client drives one keep-alive connection closed loop. Nine
// requests in ten are POST /v1/whatif over two warm shapes with rotating
// constants, one in ten is POST /v1/howto. The whole workload runs on one
// CPU (see PinToOneCpu).

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <thread>

#include "common/json.h"
#include "common/strings.h"
#include "data/datasets.h"
#include "http_client.h"
#include "net/listener.h"
#include "net/query_handler.h"
#include "obs/metrics.h"
#include "common/thread_pool.h"
#include "workload.h"

namespace perfbench {
namespace {

using hyper::service::ScenarioService;

// Connections, one client thread each. All threads share one CPU, so a
// second connection would only add its requests' wait behind each other's
// (a what-if behind a how-to takes three times as long), and the 90th
// percentile would follow how the two interleave.
constexpr int kClients = 1;
constexpr int kSegments = 10;
// Set-up takes milliseconds here; several per segment steady its median.
constexpr int kSetUpsPerSegment = 3;
// Requests into the first segment at which peak_rss_mb is read: a few
// hundredths of a second on a 4-core machine.
constexpr uint64_t kRssOps = 1000;

struct Shape {
  const char* format;  // one %d: the rotating update constant
  int num_constants;
};

constexpr Shape kWhatIf[] = {
    {"Use German When Status = 1 Update(Status) = %d "
     "Output Count(Credit = 1)", 4},
    {"Use German When Age = 1 Update(Savings) = %d "
     "Output Avg(Post(Credit))", 3},
};
constexpr const char* kHowTo[] = {
    "Use German HowToUpdate Status ToMaximize Count(Credit = 1)",
    "Use German When Age = 0 HowToUpdate Status ToMaximize Avg(Post(Credit))",
};

struct Query {
  std::string sql;
  bool howto = false;
};

/// The n-th request of a connection: every tenth is a how-to, so the mix is
/// the same for every seed; the seed picks the statements.
Query NextQuery(Rng64& rng, uint64_t n) {
  if (n % 10 == 9) return {kHowTo[Pick(rng, std::size(kHowTo))], true};
  const Shape& shape = kWhatIf[Pick(rng, std::size(kWhatIf))];
  return {hyper::StrFormat(shape.format, static_cast<int>(Pick(
                                             rng, static_cast<size_t>(
                                                      shape.num_constants)))),
          false};
}

std::string Body(const std::string& sql) {
  hyper::JsonWriter w;
  w.BeginObject().Key("sql").String(sql).EndObject();
  return w.Take();
}

struct State {
  ~State() {
    for (auto& client : clients) client.Close();
    if (server != nullptr) server->Stop();
  }

  std::shared_ptr<const hyper::Database> base;
  hyper::causal::CausalGraph graph;
  hyper::service::ServiceOptions options;
  std::unique_ptr<hyper::obs::MetricsRegistry> registry;
  std::unique_ptr<ScenarioService> service;
  std::unique_ptr<hyper::net::QueryHandler> handler;
  hyper::net::HttpHandler inner;
  std::atomic<Tracer*> tracer{nullptr};
  std::unique_ptr<hyper::net::HttpServer> server;
  HttpClient clients[kClients];
  std::vector<Query> warmup;
};

/// One request as the client saw it.
struct Issued {
  uint64_t id = 0;
  Query query;
  bool ok = false;  // transport OK, HTTP 200, answer fields present
  double value = 0.0;
  double baseline = 0.0;
  double ms = 0.0;
};

/// Reads the answer fields out of a served response.
hyper::Status ParseAnswer(const Query& query, int code, const std::string& body,
                          Issued* out) {
  if (code != 200) {
    return hyper::Status::Internal(hyper::StrFormat("HTTP %d: %s", code,
                                                    body.c_str()));
  }
  HYPER_ASSIGN_OR_RETURN(hyper::JsonValue json, hyper::JsonValue::Parse(body));
  const hyper::JsonValue* value =
      json.Find(query.howto ? "objective_value" : "value");
  if (value == nullptr || !value->is_number()) {
    return hyper::Status::Internal("answer missing from: " + body);
  }
  out->value = value->number_value();
  if (query.howto) out->baseline = json.GetNumber("baseline_value");
  out->ok = true;
  return hyper::Status::OK();
}

hyper::Status Post(HttpClient& client, const Query& query,
                   const std::string& headers, int* code, std::string* body) {
  return client.Post(query.howto ? "/v1/howto" : "/v1/whatif",
                     Body(query.sql), headers, code, body);
}

hyper::Result<std::unique_ptr<State>> SetUp(const RunConfig& config) {
  auto state = std::make_unique<State>();
  {
    HYPER_ASSIGN_OR_RETURN(hyper::data::Dataset ds,
                           hyper::data::MakeByName("german", 1.0, config.seed));
    state->base = std::make_shared<const hyper::Database>(std::move(ds.db));
    state->graph = std::move(ds.graph);
  }
  state->registry = std::make_unique<hyper::obs::MetricsRegistry>();
  state->options.whatif.estimator = hyper::learn::EstimatorKind::kFrequency;
  state->options.metrics = state->registry.get();
  // `scenario_server --threads 1`. At 1k rows one thread evaluates in about
  // 15 us. The hardware pool's wake-ups cost more than that and put four
  // more runnable threads beside the clients and handlers, so on a small box
  // the figures followed scheduler contention (run-to-run spread about twice
  // as wide) instead of the parse, JSON, HTTP and service layers this
  // workload is for. warm_whatif_1m measures the pool's cost
  // (whatif.evaluate_ms against whatif.evaluate_t1_ms).
  state->options.num_threads = 1;
  state->options.whatif.num_threads = 1;
  state->service = std::make_unique<ScenarioService>(
      state->base->ShallowCopy(), state->graph, state->options);
  state->handler = std::make_unique<hyper::net::QueryHandler>(
      state->service.get(), state->registry.get());
  state->inner = state->handler->AsHandler();

  hyper::net::HttpServerOptions server_options;
  server_options.port = 0;
  server_options.num_threads = 4;
  state->server = std::make_unique<hyper::net::HttpServer>(server_options);
  State* st = state.get();
  HYPER_RETURN_NOT_OK(st->server->Start(
      [st](const hyper::net::HttpRequest& request,
           hyper::net::HttpResponse* response) {
        Tracer* tracer = st->tracer.load(std::memory_order_acquire);
        if (tracer == nullptr) {
          st->inner(request, response);
          return;
        }
        const uint64_t id = std::strtoull(
            std::string(request.Header("x-bench-request")).c_str(), nullptr,
            10);
        const uint64_t parent = std::strtoull(
            std::string(request.Header("x-bench-span")).c_str(), nullptr, 10);
        Span span(tracer, "net.handler", id, parent);
        st->inner(request, response);
      }));
  for (auto& client : st->clients) {
    HYPER_RETURN_NOT_OK(client.Connect(st->server->port()));
  }
  for (const Shape& shape : kWhatIf) {
    for (int c = 0; c < shape.num_constants; ++c) {
      st->warmup.push_back({hyper::StrFormat(shape.format, c), false});
    }
  }
  for (const char* sql : kHowTo) st->warmup.push_back({sql, true});
  for (const Query& query : st->warmup) {
    int code = 0;
    std::string body;
    Issued ignored;
    HYPER_RETURN_NOT_OK(Post(st->clients[0], query, "", &code, &body));
    HYPER_RETURN_NOT_OK(ParseAnswer(query, code, body, &ignored));
  }
  return state;
}

struct Window {
  std::vector<Issued> issued;  // ordered by request id
  double seconds = 0.0;
  std::vector<std::string> errors;  // first failure of each client
  double rss_mb = 0.0;  // at the RssCheckpoint, when one was asked for
};

Window RunWindow(State& state, uint64_t seed, uint64_t round, double seconds,
                 Tracer* tracer, uint64_t rss_ops = 0) {
  state.tracer.store(tracer, std::memory_order_release);
  std::vector<Issued> per_client[kClients];
  std::string error[kClients];
  int64_t last[kClients] = {};
  // Requests completed by both clients: exactly one of them sees each count,
  // so the checkpoint's reading is taken once.
  std::atomic<uint64_t> done{0};
  RssCheckpoint rss(rss_ops);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int j = 0; j < kClients; ++j) {
    threads.emplace_back([&, j] {
      Rng64 rng(seed * 0x9e3779b97f4a7c15ULL + 3 + round * kClients + j);
      last[j] = start;
      for (uint64_t id = 1 + j, n = 0;
           NowNs() < deadline || rss.pending(done.load());
           id += kClients, ++n) {
        Issued issued;
        issued.id = id;
        issued.query = NextQuery(rng, n);
        hyper::Status sent;
        int code = 0;
        std::string body;
        {
          Span root(tracer, "request", id);
          const std::string headers =
              tracer == nullptr
                  ? std::string()
                  : hyper::StrFormat(
                        "X-Bench-Request: %llu\r\nX-Bench-Span: %llu\r\n",
                        static_cast<unsigned long long>(id),
                        static_cast<unsigned long long>(root.id()));
          const int64_t t0 = NowNs();
          sent = Post(state.clients[j], issued.query, headers, &code, &body);
          last[j] = NowNs();
          issued.ms = static_cast<double>(last[j] - t0) / 1e6;
        }
        if (sent.ok()) sent = ParseAnswer(issued.query, code, body, &issued);
        per_client[j].push_back(std::move(issued));
        rss.Completed(done.fetch_add(1) + 1);
        if (!sent.ok() && error[j].empty()) error[j] = sent.ToString();
        if (code == 0) break;  // the connection is gone
      }
    });
  }
  for (auto& t : threads) t.join();
  state.tracer.store(nullptr, std::memory_order_release);

  Window window;
  int64_t end = start;
  for (int j = 0; j < kClients; ++j) {
    end = std::max(end, last[j]);
    if (!error[j].empty()) window.errors.push_back(error[j]);
    window.issued.insert(window.issued.end(), per_client[j].begin(),
                         per_client[j].end());
  }
  std::sort(window.issued.begin(), window.issued.end(),
            [](const Issued& a, const Issued& b) { return a.id < b.id; });
  window.seconds = static_cast<double>(end - start) / 1e9;
  window.rss_mb = rss.mb();
  return window;
}

/// Latency percentiles are over what-if requests: a how-to takes about
/// three times as long, so the 90th percentile of the 9:1 mix would sit on
/// the edge between the two modes and swing with either. How-to latency is
/// reported on its own.
void Record(const Window& window, WorkloadResult* result) {
  result->problems.insert(result->problems.end(), window.errors.begin(),
                          window.errors.end());
  for (const Issued& i : window.issued) {
    (i.query.howto ? result->howto_ms : result->query_ms).push_back(i.ms);
  }
  result->EndSegment(window.issued.size(), window.seconds);
}

/// Closes the connections and stops the server, then checks that it served
/// every request sent on this set-up (the server folds a connection's
/// requests into its stats when the connection ends).
void CheckServed(State& state, size_t issued, WorkloadResult* result) {
  for (auto& client : state.clients) client.Close();
  state.server->Stop();
  const hyper::net::HttpServer::Stats server = state.server->stats();
  const size_t sent = state.warmup.size() + issued;
  if (server.requests_served != sent || server.parse_errors != 0) {
    result->problems.push_back(hyper::StrFormat(
        "server served %llu request(s) for %zu sent, %llu parse error(s)",
        static_cast<unsigned long long>(server.requests_served), sent,
        static_cast<unsigned long long>(server.parse_errors)));
  }
}

void Verify(const State& state, const std::vector<Issued>& issued,
            WorkloadResult* result) {
  Reference reference(state.base, &state.graph, state.options);
  for (const Issued& i : issued) {
    const Reference::Answer& want = reference.Get(i.query.sql);
    ++result->verified;
    const bool same = i.ok && want.ok && SameBits(i.value, want.value) &&
                      (!i.query.howto || SameBits(i.baseline, want.baseline));
    if (same) continue;
    ++result->failed;
    if (i.ok) ++result->mismatches;
    if (result->problems.size() < 8) {
      result->problems.push_back(hyper::StrFormat(
          "served %.17g (ok=%d) != reference %.17g for: %s", i.value,
          i.ok ? 1 : 0, want.value, i.query.sql.c_str()));
    }
  }
}

/// Confines the calling thread, and every thread it starts from now on
/// (server accept and worker threads, client threads), to the last CPU it
/// may run on. A request here costs tens of microseconds of CPU, about as
/// much as waking an idle virtual CPU: spread over several CPUs, the
/// figures followed the host's scheduling of idle CPUs (throughput of one
/// run twice that of the next on a shared 4-vCPU machine). On one CPU the
/// blocked client hands over to the server thread and back, so a request's
/// latency is the CPU time of both ends and the loopback between them.
bool PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  return false;
}

}  // namespace

WorkloadResult RunHttpGerman(const RunConfig& config) {
  WorkloadResult result;
  if (!PinToOneCpu()) {
    result.problems.push_back("could not confine the workload to one CPU");
  }
  const auto set_up = [&] { return SetUp(config); };
  std::unique_ptr<State> state;
  std::vector<Issued> all_issued;
  if (!config.trace) {
    for (int segment = 0; segment < kSegments; ++segment) {
      state.reset();
      state = TimedSetUps<State>(kSetUpsPerSegment, set_up, &result);
      if (state == nullptr) return result;
      Window window =
          RunWindow(*state, config.seed, 0, config.seconds / kSegments,
                    nullptr, segment == 0 ? kRssOps : 0);
      if (segment == 0) result.peak_rss_mb = window.rss_mb;
      Record(window, &result);
      CheckServed(*state, window.issued.size(), &result);
      all_issued.insert(all_issued.end(), window.issued.begin(),
                        window.issued.end());
    }
  } else {
    state = TimedSetUps<State>(1, set_up, &result);
    if (state == nullptr) return result;
    Tracer tracer;
    LayerInputs in;
    in.service_before = state->service->cache_stats();
    const double half = config.seconds / 2;
    Window traced = RunWindow(*state, config.seed, 0, half, &tracer);
    in.service_after = state->service->cache_stats();
    Window untraced =
        RunWindow(*state, config.seed, 1, half, nullptr);

    // In-process Submit of the traced sequence, from as many threads as
    // there were connections: the service's share of a request without the
    // handler's JSON and HTTP work.
    std::vector<std::string> disagree[kClients];
    double engine_ms[kClients] = {};
    std::vector<std::thread> submitters;
    for (int j = 0; j < kClients; ++j) {
      submitters.emplace_back([&, j] {
        for (const Issued& i : traced.issued) {
          if (i.id % kClients != static_cast<uint64_t>(1 + j) % kClients) {
            continue;
          }
          hyper::service::Request request;
          request.sql = i.query.sql;
          hyper::service::Response response;
          {
            Span span(&tracer, "service.submit", (uint64_t{2} << 40) + i.id);
            response = state->service->Submit(request);
          }
          const double got = i.query.howto ? response.howto.objective_value
                                           : response.whatif.value;
          engine_ms[j] += 1e3 * (i.query.howto
                                     ? response.howto.total_seconds
                                     : response.whatif.total_seconds);
          if (!response.ok() || !i.ok || !SameBits(got, i.value)) {
            disagree[j].push_back(i.query.sql);
          }
        }
      });
    }
    for (auto& t : submitters) t.join();
    for (double ms : engine_ms) in.submit_engine_ms += ms;
    for (const auto& list : disagree) {
      for (const std::string& sql : list) {
        result.problems.push_back(
            "served answer differs from in-process Submit for: " + sql);
      }
    }

    Replayer replayer(&state->graph, state->options, &tracer);
    const World trunk = TrunkWorld(state->base);
    uint64_t id = uint64_t{1} << 40;
    for (const Query& query : state->warmup) {
      in.replayed.push_back(replayer.Run(trunk, query.sql, id++));
    }
    for (const Issued& i : traced.issued) {
      ReplayResult r = replayer.Run(trunk, i.query.sql, id++);
      if (!r.ok || !r.t1_equal || !SameBits(r.value, i.value)) {
        result.problems.push_back("replay disagrees with the server on: " +
                                  i.query.sql);
      }
      in.replayed.push_back(r);
    }
    in.spans = tracer.spans();
    in.window_ops = traced.issued.size();
    std::vector<double> traced_ms, untraced_ms;
    for (const Issued& i : traced.issued) {
      if (!i.query.howto) traced_ms.push_back(i.ms);
    }
    for (const Issued& i : untraced.issued) {
      if (!i.query.howto) untraced_ms.push_back(i.ms);
    }
    in.traced_query_p50_ms = Median(traced_ms);
    in.untraced_query_p50_ms = Median(untraced_ms);
    in.stages = replayer.counters();
    in.replay_cache = replayer.cache_stats();
    ComputeLayers(in, &result);
    if (!config.run_dir.empty()) {
      tracer.WriteCsv(config.run_dir + "/trace-http_german_1k.csv");
    }
    Record(traced, &result);
    result.problems.insert(result.problems.end(), untraced.errors.begin(),
                           untraced.errors.end());
    CheckServed(*state, traced.issued.size() + untraced.issued.size(),
                &result);
    all_issued = std::move(traced.issued);
    all_issued.insert(all_issued.end(), untraced.issued.begin(),
                      untraced.issued.end());
  }
  result.attempted += all_issued.size();
  result.thread_budget =
      hyper::ThreadPool::ResolveBudget(state->options.whatif.num_threads);
  Verify(*state, all_issued, &result);
  return result;
}

}  // namespace perfbench
