#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "data/datasets.h"
#include "howto/engine.h"
#include "service/plan_cache.h"
#include "service/scenario_service.h"
#include "sql/parser.h"
#include "whatif/engine.h"

namespace hyper::service {
namespace {

// The cache-correctness contract under test: every answer produced through
// the service / prepared-plan / batch machinery must be BIT-FOR-BIT equal
// (==, not NEAR) to a fresh single-query WhatIfEngine::Run.

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() {
    data::GermanOptions options;
    options.rows = 800;
    options.seed = 11;
    auto ds = data::MakeGermanSyn(options);
    EXPECT_TRUE(ds.ok()) << ds.status();
    db_ = std::move(ds->db);
    graph_ = std::move(ds->graph);
  }

  whatif::WhatIfOptions EngineOptions(whatif::BackdoorMode mode,
                                      learn::EstimatorKind estimator) const {
    whatif::WhatIfOptions options;
    options.backdoor = mode;
    options.estimator = estimator;
    options.forest.num_trees = 4;  // keep forest runs quick
    return options;
  }

  std::unique_ptr<ScenarioService> MakeService(
      const whatif::WhatIfOptions& whatif_options, size_t capacity = 64,
      size_t num_threads = 1) const {
    ServiceOptions options;
    options.whatif = whatif_options;
    options.plan_cache_capacity = capacity;
    options.num_threads = num_threads;
    return std::make_unique<ScenarioService>(db_, graph_, options);
  }

  double FreshRun(const std::string& query,
                  const whatif::WhatIfOptions& options) const {
    whatif::WhatIfEngine engine(&db_, &graph_, options);
    auto result = engine.RunSql(query);
    EXPECT_TRUE(result.ok()) << result.status();
    return result->value;
  }

  Database db_;
  causal::CausalGraph graph_;
};

constexpr const char* kQuery =
    "Use German When Status = 1 Update(Status) = 2 Output Count(Credit = 1)";
constexpr const char* kAvgQuery =
    "Use German When Age = 1 Update(Savings) = 2 Output Avg(Post(Credit))";

// --- cached-vs-uncached bit-equality across modes and estimators ----------

TEST_F(ServiceTest, CachedAnswersBitEqualAcrossModesAndEstimators) {
  const whatif::BackdoorMode modes[] = {
      whatif::BackdoorMode::kGraph, whatif::BackdoorMode::kAllAttributes,
      whatif::BackdoorMode::kUpdateOnly};
  const learn::EstimatorKind estimators[] = {learn::EstimatorKind::kFrequency,
                                             learn::EstimatorKind::kForest};
  for (whatif::BackdoorMode mode : modes) {
    for (learn::EstimatorKind estimator : estimators) {
      const whatif::WhatIfOptions options = EngineOptions(mode, estimator);
      const double expected = FreshRun(kQuery, options);

      auto service = MakeService(options);
      Response cold = service->Submit({"main", kQuery, {}});
      ASSERT_TRUE(cold.ok()) << cold.status;
      Response warm = service->Submit({"main", kQuery, {}});
      ASSERT_TRUE(warm.ok()) << warm.status;

      EXPECT_EQ(expected, cold.whatif.value)
          << whatif::BackdoorModeName(mode) << "/"
          << learn::EstimatorKindName(estimator);
      EXPECT_EQ(expected, warm.whatif.value)
          << whatif::BackdoorModeName(mode) << "/"
          << learn::EstimatorKindName(estimator);
      EXPECT_FALSE(cold.whatif.plan_cache_hit);
      EXPECT_TRUE(warm.whatif.plan_cache_hit);
      EXPECT_GT(warm.whatif.pattern_cache_hits, 0u);
      EXPECT_EQ(0.0, warm.whatif.train_seconds);
    }
  }
}

TEST_F(ServiceTest, AvgOutputCachedBitEqual) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  const double expected = FreshRun(kAvgQuery, options);
  auto service = MakeService(options);
  EXPECT_EQ(expected, service->Submit({"main", kAvgQuery, {}}).whatif.value);
  EXPECT_EQ(expected, service->Submit({"main", kAvgQuery, {}}).whatif.value);
}

// --- prepared plans and batched evaluation --------------------------------

TEST_F(ServiceTest, EvaluateBatchMatchesFreshRuns) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  whatif::WhatIfEngine engine(&db_, &graph_, options);

  auto stmt = sql::ParseSql(kQuery);
  ASSERT_TRUE(stmt.ok());
  auto plan = engine.Prepare(*stmt->whatif);
  ASSERT_TRUE(plan.ok()) << plan.status();

  std::vector<std::vector<whatif::UpdateSpec>> interventions;
  for (int v = 0; v <= 3; ++v) {
    whatif::UpdateSpec spec;
    spec.attribute = "Status";
    spec.func = sql::UpdateFuncKind::kSet;
    spec.constant = Value::Int(v);
    interventions.push_back({spec});
  }
  auto batch = engine.EvaluateBatch(**plan, interventions);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(4u, batch->size());

  for (int v = 0; v <= 3; ++v) {
    const double expected = FreshRun(
        "Use German When Status = 1 Update(Status) = " + std::to_string(v) +
            " Output Count(Credit = 1)",
        options);
    EXPECT_EQ(expected, (*batch)[v].value) << "Status <- " << v;
  }
}

TEST_F(ServiceTest, SubmitWhatIfBatchMatchesSingles) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);
  auto service = MakeService(options);

  std::vector<std::vector<whatif::UpdateSpec>> interventions;
  for (int v = 0; v <= 3; ++v) {
    whatif::UpdateSpec spec;
    spec.attribute = "Status";
    spec.func = sql::UpdateFuncKind::kSet;
    spec.constant = Value::Int(v);
    interventions.push_back({spec});
  }
  auto batch = service->SubmitWhatIfBatch("main", kQuery, interventions);
  ASSERT_TRUE(batch.ok()) << batch.status();

  for (int v = 0; v <= 3; ++v) {
    const double expected = FreshRun(
        "Use German When Status = 1 Update(Status) = " + std::to_string(v) +
            " Output Count(Credit = 1)",
        options);
    ASSERT_TRUE((*batch)[v].ok()) << (*batch)[v].status;
    EXPECT_EQ(expected, (*batch)[v].result.value) << "Status <- " << v;
  }
}

// --- scenario branches ----------------------------------------------------

TEST_F(ServiceTest, BranchIsolation) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto service = MakeService(options);
  const double main_before = service->Submit({"main", kQuery, {}}).whatif.value;

  ASSERT_TRUE(service->CreateScenario("b1", "main").ok());
  auto updated = service->ApplyHypotheticalSql(
      "b1", "Use German When Savings = 0 Update(Credit) = 0 Output Count(*)");
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_GT(*updated, 0u);

  const double b1_value = service->Submit({"b1", kQuery, {}}).whatif.value;
  const double main_after = service->Submit({"main", kQuery, {}}).whatif.value;
  EXPECT_EQ(main_before, main_after);  // updates never leak out of b1
  EXPECT_NE(main_before, b1_value);    // ...and b1 sees its own world

  // A sibling branched from main stays at the pre-update world; a child
  // branched from b1 inherits (chains) its deltas.
  ASSERT_TRUE(service->CreateScenario("b2", "main").ok());
  EXPECT_EQ(main_before, service->Submit({"b2", kQuery, {}}).whatif.value);
  ASSERT_TRUE(service->CreateScenario("b1-child", "b1").ok());
  EXPECT_EQ(b1_value,
            service->Submit({"b1-child", kQuery, {}}).whatif.value);

  // Chained update on the child only.
  auto chained = service->ApplyHypotheticalSql(
      "b1-child",
      "Use German When Savings = 1 Update(Credit) = 0 Output Count(*)");
  ASSERT_TRUE(chained.ok()) << chained.status();
  EXPECT_EQ(b1_value, service->Submit({"b1", kQuery, {}}).whatif.value);
  EXPECT_NE(b1_value,
            service->Submit({"b1-child", kQuery, {}}).whatif.value);
}

TEST_F(ServiceTest, BranchManagementErrors) {
  auto service = MakeService(EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency));
  EXPECT_FALSE(service->DropScenario("main").ok());
  EXPECT_FALSE(service->CreateScenario("x", "nope").ok());
  ASSERT_TRUE(service->CreateScenario("x").ok());
  EXPECT_FALSE(service->CreateScenario("x").ok());
  EXPECT_TRUE(service->DropScenario("x").ok());
  EXPECT_FALSE(service->Submit({"ghost", kQuery, {}}).ok());
  // Immutable attributes reject hypothetical updates.
  auto bad = service->ApplyHypotheticalSql(
      "main", "Use German Update(Age) = 1 Output Count(*)");
  EXPECT_FALSE(bad.ok());
}

// A hypothetical write is type-checked against the attribute's declared
// type (the rule Table::Append enforces): a string into the int column
// Housing fails before anything is journaled or applied, so the branch
// never holds a column no columnar image can represent.
TEST_F(ServiceTest, IllTypedHypotheticalIsRejectedWithoutSideEffects) {
  char dir_template[] = "/tmp/hyper_service_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string data_dir = dir_template;
  {
    ServiceOptions options;
    options.whatif = EngineOptions(whatif::BackdoorMode::kGraph,
                                   learn::EstimatorKind::kFrequency);
    options.num_threads = 1;
    options.data_dir = data_dir;
    options.wal_fsync = durability::FsyncPolicy::kAlways;
    options.snapshot_every_records = 0;
    ScenarioService service(db_, graph_, options);
    ASSERT_TRUE(service.recovery_status().ok()) << service.recovery_status();
    ASSERT_TRUE(service.CreateScenario("b").ok());
    auto info_of_b = [&] {
      for (const ScenarioInfo& info : service.ListScenarios()) {
        if (info.name == "b") return info;
      }
      ADD_FAILURE() << "branch b missing";
      return ScenarioInfo{};
    };
    const ScenarioInfo before = info_of_b();
    auto world_before = service.EffectiveDatabase("b");
    ASSERT_TRUE(world_before.ok());
    const uint64_t appends_before = service.wal_stats().appends;

    auto bad = service.ApplyHypotheticalSql(
        "b", "Use German When Age = 1 Update(Housing) = 'abc' "
             "Output Count(*)");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(StatusCode::kInvalidArgument, bad.status().code());
    const std::string& msg = bad.status().message();
    EXPECT_NE(msg.find("Housing"), std::string::npos) << msg;
    EXPECT_NE(msg.find("type STRING"), std::string::npos) << msg;
    EXPECT_NE(msg.find("declared INT"), std::string::npos) << msg;

    const ScenarioInfo after = info_of_b();
    EXPECT_EQ(before.updates_applied, after.updates_applied);
    EXPECT_EQ(before.overridden_cells, after.overridden_cells);
    EXPECT_EQ(before.delta_fingerprint, after.delta_fingerprint);
    auto world_after = service.EffectiveDatabase("b");
    ASSERT_TRUE(world_after.ok());
    EXPECT_EQ(world_before->get(), world_after->get());  // same version
    EXPECT_EQ(appends_before, service.wal_stats().appends);

    // The branch still serves queries that read the attribute.
    Response r = service.Submit({"b", kAvgQuery, {}});
    EXPECT_TRUE(r.ok()) << r.status;
  }
  std::filesystem::remove_all(data_dir);
}

TEST_F(ServiceTest, EmptyHypotheticalKeepsCachedPlans) {
  auto service = MakeService(EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency));
  ASSERT_TRUE(service->Submit({"main", kQuery, {}}).ok());
  // When selects nothing: the world is data-identical, so the branch must
  // not invalidate (no version bump, no fingerprint change) and the next
  // submit still hits the cached plan.
  auto updated = service->ApplyHypotheticalSql(
      "main", "Use German When Status = 99 Update(Status) = 2 "
              "Output Count(*)");
  ASSERT_TRUE(updated.ok()) << updated.status();
  EXPECT_EQ(0u, *updated);
  EXPECT_TRUE(service->Submit({"main", kQuery, {}}).whatif.plan_cache_hit);
}

// --- LRU eviction ---------------------------------------------------------

TEST_F(ServiceTest, LruEvictionUnderSmallCapacity) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto service = MakeService(options, /*capacity=*/2);

  const std::string queries[] = {
      "Use German When Status = 0 Update(Status) = 2 Output Count(Credit = 1)",
      "Use German When Status = 1 Update(Status) = 2 Output Count(Credit = 1)",
      "Use German When Status = 2 Update(Status) = 3 Output Count(Credit = 1)",
  };
  for (const std::string& q : queries) {
    ASSERT_TRUE(service->Submit({"main", q, {}}).ok());
  }
  PlanCacheStats stats = service->cache_stats();
  EXPECT_EQ(2u, stats.entries);
  EXPECT_EQ(1u, stats.evictions);
  EXPECT_EQ(3u, stats.misses);

  // The oldest entry was evicted: re-submitting it misses (and evicts the
  // next-oldest), and the answer is still bit-identical to a fresh run.
  Response again = service->Submit({"main", queries[0], {}});
  EXPECT_FALSE(again.whatif.plan_cache_hit);
  EXPECT_EQ(FreshRun(queries[0], options), again.whatif.value);
  stats = service->cache_stats();
  EXPECT_EQ(4u, stats.misses);
  EXPECT_EQ(2u, stats.evictions);

  // The most recent entry is still cached.
  EXPECT_TRUE(service->Submit({"main", queries[2], {}}).whatif.plan_cache_hit);
}

TEST_F(ServiceTest, CapacityZeroDisablesCaching) {
  auto service = MakeService(
      EngineOptions(whatif::BackdoorMode::kGraph,
                    learn::EstimatorKind::kFrequency),
      /*capacity=*/0);
  EXPECT_FALSE(service->Submit({"main", kQuery, {}}).whatif.plan_cache_hit);
  EXPECT_FALSE(service->Submit({"main", kQuery, {}}).whatif.plan_cache_hit);
  EXPECT_EQ(0u, service->cache_stats().entries);
}

// --- concurrency ----------------------------------------------------------

TEST_F(ServiceTest, ConcurrentSubmitDeterminism) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);

  // Reference values from fresh single-query runs.
  std::vector<std::string> queries;
  std::vector<double> expected;
  for (int v = 0; v <= 3; ++v) {
    queries.push_back(
        "Use German When Status = 1 Update(Status) = " + std::to_string(v) +
        " Output Count(Credit = 1)");
    expected.push_back(FreshRun(queries.back(), options));
  }

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    auto service = MakeService(options, 64, threads);
    std::vector<Request> requests;
    for (int rep = 0; rep < 2; ++rep) {
      for (const std::string& q : queries) {
        requests.push_back({"main", q, {}});
      }
    }
    std::vector<Response> responses = service->SubmitBatch(requests);
    ASSERT_EQ(requests.size(), responses.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].ok()) << responses[i].status;
      EXPECT_EQ(expected[i % queries.size()], responses[i].whatif.value)
          << "threads=" << threads << " request=" << i;
    }
  }
}

TEST_F(ServiceTest, ConcurrentExplicitThreadsDeterminism) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  const double expected = FreshRun(kQuery, options);
  auto service = MakeService(options);

  std::vector<double> values(8, 0.0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < values.size(); ++t) {
    workers.emplace_back([&, t] {
      values[t] = service->Submit({"main", kQuery, {}}).whatif.value;
    });
  }
  for (std::thread& w : workers) w.join();
  for (double v : values) EXPECT_EQ(expected, v);
}

// --- plan-cache single-flight and accounting ------------------------------

TEST_F(ServiceTest, GetOrPrepareSingleFlightsConcurrentMisses) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  whatif::WhatIfEngine engine(&db_, &graph_, options);
  auto stmt = sql::ParseSql(kQuery);
  ASSERT_TRUE(stmt.ok());

  PlanCache cache(8);
  std::atomic<size_t> prepares{0};
  std::atomic<size_t> started{0};
  auto prepare = [&]() -> Result<std::shared_ptr<const whatif::PreparedWhatIf>> {
    ++prepares;
    // Hold the in-flight slot open long enough that every follower arrives
    // while the leader is still preparing, even on one core.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return engine.Prepare(*stmt->whatif);
  };

  constexpr size_t kCallers = 8;
  std::vector<std::shared_ptr<const whatif::PreparedWhatIf>> plans(kCallers);
  // char, not bool: vector<bool> packs bits, and concurrent writes to
  // adjacent bits would themselves be a data race under the TSan gate.
  std::vector<char> hits(kCallers, 0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kCallers; ++t) {
    workers.emplace_back([&, t] {
      ++started;
      while (started.load() < kCallers) std::this_thread::yield();
      bool hit = false;
      auto plan = cache.GetOrPrepare("key", prepare, &hit);
      ASSERT_TRUE(plan.ok()) << plan.status();
      plans[t] = *plan;
      hits[t] = hit ? 1 : 0;
    });
  }
  for (std::thread& w : workers) w.join();

  // Exactly one caller prepared (and reported the miss); everyone else was
  // served the leader's work as a hit, and all share one plan object.
  EXPECT_EQ(1u, prepares.load());
  EXPECT_EQ(1, std::count(hits.begin(), hits.end(), 0));
  for (size_t t = 0; t < kCallers; ++t) {
    EXPECT_EQ(plans[0].get(), plans[t].get());
  }

  // Accounting: one miss (the preparer), everyone else coalesced or hit,
  // and the ledger reconciles with both the lookup and the prepare count.
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(prepares.load(), stats.misses);
  EXPECT_GT(stats.coalesced, 0u);
  EXPECT_EQ(kCallers, stats.hits + stats.misses + stats.coalesced);

  // A later lookup is a plain hit.
  bool hit = false;
  ASSERT_TRUE(cache.GetOrPrepare("key", prepare, &hit).ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(1u, prepares.load());
}

TEST_F(ServiceTest, GetOrPrepareFailurePropagatesToAllWaitersOnce) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  whatif::WhatIfEngine engine(&db_, &graph_, options);
  auto stmt = sql::ParseSql(kQuery);
  ASSERT_TRUE(stmt.ok());

  // The failure half of the single-flight contract: when the one elected
  // builder's factory fails, every coalesced waiter receives that same
  // error (exactly one factory run — the failure is not retried N times),
  // nothing is stored, and the in-flight slot is cleared so a later call
  // rebuilds from scratch.
  PlanCache cache(8);
  std::atomic<size_t> runs{0};
  std::atomic<size_t> started{0};
  auto failing =
      [&]() -> Result<std::shared_ptr<const whatif::PreparedWhatIf>> {
    ++runs;
    // Keep the in-flight slot open so every follower coalesces onto the
    // doomed build instead of racing past it.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return Status::ResourceExhausted("row budget exceeded at test.inject");
  };

  constexpr size_t kCallers = 8;
  std::vector<Status> statuses(kCallers);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kCallers; ++t) {
    workers.emplace_back([&, t] {
      ++started;
      while (started.load() < kCallers) std::this_thread::yield();
      auto plan = cache.GetOrPrepare("key", failing);
      statuses[t] = plan.ok() ? Status::OK() : plan.status();
    });
  }
  for (std::thread& w : workers) w.join();

  // One factory run; every caller saw the same typed error.
  EXPECT_EQ(1u, runs.load());
  for (size_t t = 0; t < kCallers; ++t) {
    EXPECT_EQ(StatusCode::kResourceExhausted, statuses[t].code())
        << "caller " << t << ": " << statuses[t];
  }

  // The failure stored nothing: no entry, and the miss ledger still
  // reconciles (1 miss for the failed leader, the rest coalesced).
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(0u, stats.entries);
  EXPECT_EQ(nullptr, cache.Get("key"));
  EXPECT_EQ(1u, stats.misses);
  EXPECT_EQ(kCallers - 1, stats.coalesced);

  // The in-flight slot was cleared: a retry runs the factory again, and a
  // now-successful factory populates the cache normally.
  auto rebuild =
      [&]() -> Result<std::shared_ptr<const whatif::PreparedWhatIf>> {
    ++runs;
    return engine.Prepare(*stmt->whatif);
  };
  bool hit = true;
  auto plan = cache.GetOrPrepare("key", rebuild, &hit);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(hit);
  EXPECT_EQ(2u, runs.load());
  EXPECT_EQ(1u, cache.stats().entries);
}

TEST_F(ServiceTest, PutLostRaceCountsCoalesced) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  whatif::WhatIfEngine engine(&db_, &graph_, options);
  auto stmt = sql::ParseSql(kQuery);
  ASSERT_TRUE(stmt.ok());

  // Two manual Get+Prepare+Put racers: both Gets miss, both prepare, the
  // second Put converges on the first entry. The ledger must reconcile:
  // 2 lookups = 2 misses = 2 prepares, and the dropped duplicate prepare is
  // visible as 1 coalesced insert.
  PlanCache cache(8);
  EXPECT_EQ(nullptr, cache.Get("key"));
  EXPECT_EQ(nullptr, cache.Get("key"));
  auto first = engine.Prepare(*stmt->whatif);
  auto second = engine.Prepare(*stmt->whatif);
  ASSERT_TRUE(first.ok() && second.ok());
  auto canonical1 = cache.Put("key", *first);
  auto canonical2 = cache.Put("key", *second);
  EXPECT_EQ(first->get(), canonical1.get());
  EXPECT_EQ(first->get(), canonical2.get());  // second racer lost

  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(0u, stats.hits);
  EXPECT_EQ(2u, stats.misses);
  EXPECT_EQ(1u, stats.coalesced);
  EXPECT_EQ(1u, stats.entries);
  EXPECT_EQ(2u, stats.hits + stats.misses);  // reconciles with 2 prepares
}

// --- per-item statuses in batched what-if ---------------------------------

TEST_F(ServiceTest, SubmitWhatIfBatchReportsPerItemFailures) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto service = MakeService(options);

  // For Post(Status) = 0 with Update(Status) = v: the update attribute's
  // post value is deterministic, so v != 0 disqualifies every updated tuple
  // and the Avg's qualifying set has zero probability — that intervention
  // must fail alone, without aborting its sweep siblings.
  const std::string base =
      "Use German Update(Status) = 0 Output Avg(Post(Credit)) "
      "For Post(Status) = 0";
  std::vector<std::vector<whatif::UpdateSpec>> interventions;
  for (int v : {0, 1}) {
    whatif::UpdateSpec spec;
    spec.attribute = "Status";
    spec.func = sql::UpdateFuncKind::kSet;
    spec.constant = Value::Int(v);
    interventions.push_back({spec});
  }

  auto batch = service->SubmitWhatIfBatch("main", base, interventions);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(2u, batch->size());

  // Item 0 answers, bit-identical to a fresh single run.
  ASSERT_TRUE((*batch)[0].ok()) << (*batch)[0].status;
  EXPECT_EQ(FreshRun("Use German Update(Status) = 0 "
                     "Output Avg(Post(Credit)) For Post(Status) = 0",
                     options),
            (*batch)[0].result.value);

  // Item 1 carries its own error.
  EXPECT_FALSE((*batch)[1].ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, (*batch)[1].status.code());
}

// --- how-to through shared plans ------------------------------------------

// Shared-plan scoring (one prepared plan per attribute, Evaluate per
// candidate) is bit-identical to a fresh Run of each candidate's statement.
TEST_F(ServiceTest, HowToSharedPlansBitEqualToFreshRuns) {
  auto parsed = sql::ParseSql(
      "Use German HowToUpdate Status ToMaximize Count(Credit = 1)");
  ASSERT_TRUE(parsed.ok() && parsed->howto != nullptr);
  const sql::HowToStmt& stmt = *parsed->howto;
  for (learn::EstimatorKind estimator :
       {learn::EstimatorKind::kFrequency, learn::EstimatorKind::kForest}) {
    howto::HowToOptions options;
    options.whatif = EngineOptions(whatif::BackdoorMode::kGraph, estimator);
    auto b = howto::HowToEngine(&db_, &graph_, options).Run(stmt);
    ASSERT_TRUE(b.ok()) << b.status();
    ASSERT_FALSE(b->candidates.empty());
    ASSERT_FALSE(b->candidates[0].empty());

    const whatif::WhatIfEngine fresh(&db_, &graph_, options.whatif);
    auto fresh_value = [&](const sql::WhatIfStmt& ws) {
      auto r = fresh.Run(ws);
      EXPECT_TRUE(r.ok()) << r.status();
      return r.ok() ? r->value : 0.0;
    };
    // The baseline is the no-op what-if: any Set update under When false.
    whatif::UpdateSpec noop = b->candidates[0][0].spec;
    noop.func = sql::UpdateFuncKind::kSet;
    sql::WhatIfStmt baseline = howto::MakeCandidateWhatIf(stmt, {noop});
    baseline.when = sql::MakeLiteral(Value::Bool(false));
    const double fresh_baseline = fresh_value(baseline);
    EXPECT_EQ(fresh_baseline, b->baseline_value);

    for (const auto& per_attribute : b->candidates) {
      for (const howto::CandidateUpdate& cu : per_attribute) {
        ASSERT_FALSE(cu.pruned);
        const double v = fresh_value(howto::MakeCandidateWhatIf(stmt, {cu.spec}));
        EXPECT_EQ(v, cu.objective_value) << cu.spec.constant.ToString();
        EXPECT_EQ(v - fresh_baseline, cu.delta);
      }
    }
    // The chosen plan's delta is its candidate's delta, so the reported
    // objective follows from the fresh answers above.
    for (const howto::AttributeChoice& choice : b->plan) {
      if (!choice.changed) continue;
      bool found = false;
      for (const howto::CandidateUpdate& cu : b->candidates[0]) {
        if (!cu.spec.constant.Equals(choice.update.constant)) continue;
        EXPECT_EQ(cu.delta, choice.delta);
        found = true;
      }
      EXPECT_TRUE(found) << choice.ToString();
    }
    // The shared path actually shared: estimators were reused across
    // candidates instead of retrained.
    EXPECT_GT(b->pattern_cache_hits, 0u);
  }
}

TEST_F(ServiceTest, HowToThroughServiceReusesCacheAcrossRuns) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto service = MakeService(options);
  const std::string stmt_text =
      "Use German HowToUpdate Status ToMaximize Count(Credit = 1)";

  Response first = service->Submit({"main", stmt_text, {}});
  ASSERT_TRUE(first.ok()) << first.status;
  Response second = service->Submit({"main", stmt_text, {}});
  ASSERT_TRUE(second.ok()) << second.status;

  EXPECT_EQ(first.howto.objective_value, second.howto.objective_value);
  EXPECT_EQ(first.howto.PlanToString(), second.howto.PlanToString());
  EXPECT_EQ(0u, first.howto.plan_cache_hits);
  EXPECT_GT(second.howto.plan_cache_hits, 0u);
  EXPECT_EQ(0.0, second.howto.train_seconds);
}

// --- concurrent how-to stress ---------------------------------------------

TEST_F(ServiceTest, ConcurrentMixedHowToStressBitEqualAcrossThreads) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto primary = sql::ParseSql(
      "Use German HowToUpdate Status, Savings "
      "ToMaximize Count(Credit = 1)");
  auto secondary = sql::ParseSql(
      "Use German HowToUpdate Status, Savings "
      "ToMinimize Avg(Post(CreditAmount))");
  ASSERT_TRUE(primary.ok() && secondary.ok());

  auto engine_with = [&](PlanCache* cache, size_t threads) {
    howto::HowToOptions ho;
    ho.whatif = options;
    ho.whatif.num_threads = threads;
    ho.plan_cache = cache;
    ho.cache_scope = "stress";
    return howto::HowToEngine(&db_, &graph_, ho);
  };

  // Single-threaded reference results (fresh cache).
  PlanCache ref_cache(64);
  howto::HowToEngine ref_engine = engine_with(&ref_cache, 1);
  auto ref_run = ref_engine.Run(*primary->howto);
  ASSERT_TRUE(ref_run.ok()) << ref_run.status();
  const double target =
      ref_run->baseline_value +
      0.3 * (ref_run->objective_value - ref_run->baseline_value);
  auto ref_min = ref_engine.RunMinCost(*primary->howto, target);
  ASSERT_TRUE(ref_min.ok()) << ref_min.status();
  auto ref_lex = ref_engine.RunLexicographic(
      {primary->howto.get(), secondary->howto.get()});
  ASSERT_TRUE(ref_lex.ok()) << ref_lex.status();

  // Reference what-if values on two scenario branches.
  auto ref_service = MakeService(options);
  ASSERT_TRUE(ref_service->CreateScenario("b1", "main").ok());
  ASSERT_TRUE(ref_service
                  ->ApplyHypotheticalSql(
                      "b1",
                      "Use German When Savings = 0 Update(Credit) = 0 "
                      "Output Count(*)")
                  .ok());
  const double ref_main =
      ref_service->Submit({"main", kQuery, {}}).whatif.value;
  const double ref_b1 = ref_service->Submit({"b1", kQuery, {}}).whatif.value;

  auto check_howto = [](const howto::HowToResult& expect,
                        const howto::HowToResult& got, const char* what) {
    EXPECT_EQ(expect.baseline_value, got.baseline_value) << what;
    EXPECT_EQ(expect.objective_value, got.objective_value) << what;
    EXPECT_EQ(expect.PlanToString(), got.PlanToString()) << what;
    ASSERT_EQ(expect.candidates.size(), got.candidates.size()) << what;
    for (size_t a = 0; a < expect.candidates.size(); ++a) {
      ASSERT_EQ(expect.candidates[a].size(), got.candidates[a].size());
      for (size_t i = 0; i < expect.candidates[a].size(); ++i) {
        EXPECT_EQ(expect.candidates[a][i].objective_value,
                  got.candidates[a][i].objective_value)
            << what << " candidate " << a << "/" << i;
      }
    }
  };

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    PlanCache cache(64);
    howto::HowToEngine engine = engine_with(&cache, threads);
    auto service = MakeService(options, 64, threads);
    ASSERT_TRUE(service->CreateScenario("b1", "main").ok());
    ASSERT_TRUE(service
                    ->ApplyHypotheticalSql(
                        "b1",
                        "Use German When Savings = 0 Update(Credit) = 0 "
                        "Output Count(*)")
                    .ok());

    // `threads` workers race mixed how-to solves against one shared plan
    // cache, interleaved with what-if submissions on both branches.
    std::vector<std::thread> workers;
    std::vector<Status> howto_status(threads);
    std::vector<howto::HowToResult> howto_results(threads);
    std::vector<double> whatif_values(threads, 0.0);
    std::atomic<size_t> started{0};
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        ++started;
        while (started.load() < threads) std::this_thread::yield();
        Result<howto::HowToResult> r = Status::Internal("unset");
        switch (t % 3) {
          case 0:
            r = engine.Run(*primary->howto);
            break;
          case 1:
            r = engine.RunMinCost(*primary->howto, target);
            break;
          default:
            r = engine.RunLexicographic(
                {primary->howto.get(), secondary->howto.get()});
            break;
        }
        if (r.ok()) {
          howto_results[t] = std::move(r).value();
        } else {
          howto_status[t] = r.status();
        }
        whatif_values[t] =
            service->Submit({t % 2 == 0 ? "main" : "b1", kQuery, {}})
                .whatif.value;
      });
    }
    for (std::thread& w : workers) w.join();

    for (size_t t = 0; t < threads; ++t) {
      ASSERT_TRUE(howto_status[t].ok()) << howto_status[t];
      switch (t % 3) {
        case 0:
          check_howto(*ref_run, howto_results[t], "Run");
          break;
        case 1:
          check_howto(*ref_min, howto_results[t], "RunMinCost");
          break;
        default:
          check_howto(*ref_lex, howto_results[t], "RunLexicographic");
          break;
      }
      EXPECT_EQ(t % 2 == 0 ? ref_main : ref_b1, whatif_values[t])
          << "threads=" << threads << " worker=" << t;
    }

    // No duplicate Prepare+train: single-flight guarantees one miss (= one
    // prepare) per distinct plan key, no matter how many workers raced on
    // it. Lexicographic workers (t % 3 == 2) touch 3 extra keys for the
    // secondary objective's baseline + per-attribute plans.
    const size_t distinct_keys = threads >= 3 ? 6u : 3u;
    PlanCacheStats stats = cache.stats();
    EXPECT_EQ(distinct_keys, stats.misses) << "threads=" << threads;
    EXPECT_EQ(0u, stats.evictions);
    // Every lookup is accounted for exactly once.
    size_t lookups = 0;
    for (size_t t = 0; t < threads; ++t) {
      lookups += (t % 3 == 2) ? 6 : 3;  // baseline + one per attribute
    }
    EXPECT_EQ(lookups, stats.hits + stats.misses + stats.coalesced)
        << "threads=" << threads;
  }
}

// --- invalidation ---------------------------------------------------------

TEST_F(ServiceTest, ReloadDatasetInvalidatesCache) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto service = MakeService(options);
  ASSERT_TRUE(service->Submit({"main", kQuery, {}}).ok());
  EXPECT_EQ(1u, service->cache_stats().entries);

  // Reload with different data: the old plan must not serve the new world.
  data::GermanOptions german;
  german.rows = 500;
  german.seed = 99;
  auto ds = data::MakeGermanSyn(german);
  ASSERT_TRUE(ds.ok());
  ASSERT_TRUE(service->ReloadDataset(std::move(ds->db)).ok());
  EXPECT_EQ(0u, service->cache_stats().entries);

  std::shared_ptr<const Database> reloaded =
      service->EffectiveDatabase("main").value();
  whatif::WhatIfEngine fresh(reloaded.get(), &graph_, options);
  Response after = service->Submit({"main", kQuery, {}});
  ASSERT_TRUE(after.ok()) << after.status;
  EXPECT_FALSE(after.whatif.plan_cache_hit);
  EXPECT_EQ(fresh.RunSql(kQuery)->value, after.whatif.value);
}

// --- staged prepare pipeline ----------------------------------------------

// A branch whose 1-cell delta touches only an attribute outside the plan's
// features / adjustment set / For-Output references reuses the trunk's
// CausalStage and LearnStage (trained estimators included): per-stage miss
// counters prove only Scope and Query rebuilt — and the answer is still
// bit-identical to a fresh engine run over the branch's effective world.
TEST_F(ServiceTest, BranchDeltaOutsideTrainingSetReusesLearnStage) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);
  auto service = MakeService(options);
  ASSERT_TRUE(service->Submit({"main", kQuery, {}}).ok());
  PlanCacheStats stats = service->cache_stats();
  EXPECT_EQ(1u, stats.scope.misses);
  EXPECT_EQ(1u, stats.causal.misses);
  EXPECT_EQ(1u, stats.learn.misses);
  EXPECT_EQ(1u, stats.query.misses);

  // Savings is not in this query's adjustment set ({Age, Housing} for
  // Status -> Credit), not an update attribute, and not referenced by
  // For/Output — so the LearnStage never reads it.
  ASSERT_TRUE(service->CreateScenario("savings").ok());
  auto updated = service->ApplyHypotheticalSql(
      "savings", "Use German When Id = 3 Update(Savings) = 2 Output Count(*)");
  ASSERT_TRUE(updated.ok()) << updated.status();
  ASSERT_EQ(1u, *updated);

  Response branch = service->Submit({"savings", kQuery, {}});
  ASSERT_TRUE(branch.ok()) << branch.status;
  stats = service->cache_stats();
  EXPECT_EQ(2u, stats.scope.misses);   // branch image rebuilt (patched)
  EXPECT_EQ(1u, stats.causal.misses);  // shape-keyed: shared with trunk
  EXPECT_EQ(1u, stats.learn.misses);   // delta misses the training set
  EXPECT_EQ(2u, stats.query.misses);   // per-row constants rebound
  EXPECT_GT(branch.whatif.pattern_cache_hits, 0u);
  EXPECT_EQ(0.0, branch.whatif.train_seconds);

  // Bit-identical to a fresh (monolithic) engine over the effective world.
  std::shared_ptr<const Database> world =
      service->EffectiveDatabase("savings").value();
  whatif::WhatIfEngine fresh(world.get(), &graph_, options);
  EXPECT_EQ(fresh.RunSql(kQuery)->value, branch.whatif.value);
}

// A Housing delta under kAllAttributes — where Housing joins the
// adjustment set — must invalidate the LearnStage (and retrain).
TEST_F(ServiceTest, BranchDeltaOnAdjustmentAttributeInvalidatesLearnStage) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kAllAttributes, learn::EstimatorKind::kFrequency);
  auto service = MakeService(options);
  ASSERT_TRUE(service->Submit({"main", kQuery, {}}).ok());
  ASSERT_EQ(1u, service->cache_stats().learn.misses);

  ASSERT_TRUE(service->CreateScenario("housing").ok());
  auto updated = service->ApplyHypotheticalSql(
      "housing", "Use German When Id = 3 Update(Housing) = 2 Output Count(*)");
  ASSERT_TRUE(updated.ok()) << updated.status();
  ASSERT_EQ(1u, *updated);

  Response branch = service->Submit({"housing", kQuery, {}});
  ASSERT_TRUE(branch.ok()) << branch.status;
  EXPECT_EQ(2u, service->cache_stats().learn.misses);

  std::shared_ptr<const Database> world =
      service->EffectiveDatabase("housing").value();
  whatif::WhatIfEngine fresh(world.get(), &graph_, options);
  EXPECT_EQ(fresh.RunSql(kQuery)->value, branch.whatif.value);

  // A delta on a For-referenced (target) attribute invalidates too.
  ASSERT_TRUE(service->CreateScenario("credit").ok());
  ASSERT_TRUE(service
                  ->ApplyHypotheticalSql("credit",
                                         "Use German When Id = 5 "
                                         "Update(Credit) = 0 Output Count(*)")
                  .ok());
  Response credit = service->Submit({"credit", kQuery, {}});
  ASSERT_TRUE(credit.ok()) << credit.status;
  EXPECT_EQ(3u, service->cache_stats().learn.misses);
}

// Evicting an upstream stage must not invalidate live downstream stages: a
// LearnStage holds its ScopeStage alive through a shared_ptr, keeps serving
// trained estimators, and a later prepare rebuilds only the evicted pieces.
TEST_F(ServiceTest, UpstreamEvictionKeepsDownstreamStagesAlive) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);
  const double expected = FreshRun(kQuery, options);
  auto service = MakeService(options);
  ASSERT_TRUE(service->Submit({"main", kQuery, {}}).ok());

  PlanCacheStats before = service->cache_stats();
  ASSERT_EQ(1u, before.scope.entries);
  ASSERT_EQ(1u, before.learn.entries);

  // DropScenario-style eager eviction by the trunk's scope tag removes the
  // full-fingerprint entries (plan, scope, query); causal + learn survive
  // because their keys use shape / restricted scopes.
  // (Exercised through a throwaway branch so the public API drives it.)
  ASSERT_TRUE(service->CreateScenario("twin").ok());
  ASSERT_TRUE(service->DropScenario("twin").ok());  // identical delta: no-op
  PlanCacheStats after_noop = service->cache_stats();
  EXPECT_EQ(1u, after_noop.entries);  // trunk-shared entries kept

  ASSERT_TRUE(service->CreateScenario("mut").ok());
  ASSERT_TRUE(service
                  ->ApplyHypotheticalSql("mut",
                                         "Use German When Id = 7 "
                                         "Update(Savings) = 1 Output Count(*)")
                  .ok());
  ASSERT_TRUE(service->Submit({"mut", kQuery, {}}).ok());
  PlanCacheStats with_branch = service->cache_stats();
  EXPECT_EQ(2u, with_branch.scope.entries);
  EXPECT_EQ(1u, with_branch.learn.entries);  // shared (delta outside set)
  ASSERT_TRUE(service->DropScenario("mut").ok());

  PlanCacheStats after_drop = service->cache_stats();
  EXPECT_EQ(1u, after_drop.entries) << "branch plan not evicted";
  EXPECT_EQ(1u, after_drop.scope.entries) << "branch scope not evicted";
  EXPECT_EQ(1u, after_drop.learn.entries) << "shared learn wrongly evicted";
  EXPECT_EQ(with_branch.scope.evictions + 1, after_drop.scope.evictions);

  // The ledger still reconciles after eager eviction: the three Submits
  // above each did one plan lookup, the two plan misses each did one lookup
  // per stage section — eviction never double-counts or loses a lookup.
  Response again = service->Submit({"main", kQuery, {}});
  ASSERT_TRUE(again.ok()) << again.status;
  EXPECT_EQ(expected, again.whatif.value);
  EXPECT_EQ(0.0, again.whatif.train_seconds);
  PlanCacheStats final_stats = service->cache_stats();
  EXPECT_EQ(3u,
            final_stats.hits + final_stats.misses + final_stats.coalesced);
  for (const StageStats* s :
       {&final_stats.scope, &final_stats.causal, &final_stats.learn,
        &final_stats.query}) {
    EXPECT_EQ(2u, s->hits + s->misses + s->coalesced);
  }
  EXPECT_EQ(1u, final_stats.learn.misses) << "learn stage was rebuilt";
}

// Upstream eviction, hit directly at the StageCache: evict every ScopeStage
// entry while a plan (and its Learn/Query stages) are live, then re-prepare.
// Only the scope rebuilds — downstream stages hold their upstream alive and
// keep serving — and evaluations stay bit-identical throughout.
TEST_F(ServiceTest, StageCacheUpstreamEvictionKeepsDownstreamServing) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);
  StageCache cache(64);
  whatif::StageContext ctx;
  ctx.stages = &cache;
  ctx.data_scope = "d";

  whatif::WhatIfEngine engine(&db_, &graph_, options);
  auto stmt = sql::ParseSql(kQuery);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  auto first = engine.Prepare(*stmt->whatif, &ctx);
  ASSERT_TRUE(first.ok()) << first.status();
  auto value_of = [&](const whatif::PreparedWhatIf& plan) {
    auto r =
        engine.Evaluate(plan, whatif::SpecsOfStatement(*stmt->whatif));
    EXPECT_TRUE(r.ok()) << r.status();
    return r->value;
  };
  const double expected = value_of(**first);

  // Scope keys are the only ones spelled "scope|d..." (plan keys embed
  // "|scope[...]="), so this evicts exactly the scope section's entry.
  EXPECT_EQ(1u, cache.EvictTagged("scope|d"));
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(0u, stats.scope.entries);
  EXPECT_EQ(1u, stats.learn.entries);

  // The live plan keeps working: its stages hold the evicted scope alive.
  EXPECT_EQ(expected, value_of(**first));

  // Re-preparing rebuilds only the scope; causal/learn/query all hit, so
  // no estimator retrains and the assembled plan answers identically.
  auto second = engine.Prepare(*stmt->whatif, &ctx);
  ASSERT_TRUE(second.ok()) << second.status();
  stats = cache.stats();
  EXPECT_EQ(2u, stats.scope.misses);
  EXPECT_EQ(1u, stats.causal.misses);
  EXPECT_EQ(1u, stats.learn.misses);
  EXPECT_EQ(1u, stats.query.misses);
  EXPECT_EQ(expected, value_of(**second));
}

// Staged, cached answers are bit-identical at 1/2/4/8 threads to a fresh
// standalone 1-thread Run (no StageContext) over each branch's effective
// database, across branches and When-variants.
TEST_F(ServiceTest, StagedVsFreshRunBitEqualAcrossThreads) {
  const whatif::WhatIfOptions staged_options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);

  const std::string queries[] = {
      kQuery,
      "Use German When Status = 2 Update(Status) = 3 Output Count(Credit = 1)",
      "Use German Update(Savings) = 2 Output Avg(Post(Credit))",
  };

  auto make_service = [&](size_t threads) {
    whatif::WhatIfOptions with_threads = staged_options;
    with_threads.num_threads = threads;
    auto service = MakeService(with_threads, 64, threads);
    EXPECT_TRUE(service->CreateScenario("b").ok());
    EXPECT_TRUE(service
                    ->ApplyHypotheticalSql("b",
                                           "Use German When Id = 2 "
                                           "Update(Housing) = 0 "
                                           "Output Count(*)")
                    .ok());
    return service;
  };
  auto run_all = [&](size_t threads) {
    auto service = make_service(threads);
    std::vector<Request> requests;
    for (const std::string& q : queries) {
      requests.push_back({"main", q, {}});
      requests.push_back({"b", q, {}});
    }
    std::vector<double> values;
    for (const Response& r : service->SubmitBatch(requests)) {
      EXPECT_TRUE(r.ok()) << r.status;
      values.push_back(r.whatif.value);
    }
    return values;
  };

  std::vector<double> reference;
  {
    auto service = make_service(1);
    auto main_db = service->EffectiveDatabase("main");
    auto b_db = service->EffectiveDatabase("b");
    ASSERT_TRUE(main_db.ok() && b_db.ok());
    whatif::WhatIfOptions fresh_options = staged_options;
    fresh_options.num_threads = 1;
    for (const std::string& q : queries) {
      for (const Database* db : {main_db->get(), b_db->get()}) {
        auto r = whatif::WhatIfEngine(db, &graph_, fresh_options).RunSql(q);
        ASSERT_TRUE(r.ok()) << r.status();
        reference.push_back(r->value);
      }
    }
  }
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(reference, run_all(threads))
        << "staged answers diverged at " << threads << " thread(s)";
  }
}

// --- O(delta) branches ----------------------------------------------------

/// A StageProvider over a StageCache that counts the Peeks that found an
/// entry: the only way a ScopeStage is patched instead of encoded.
class PeekRecordingStages : public whatif::StageProvider {
 public:
  explicit PeekRecordingStages(StageCache* inner) : inner_(inner) {}

  Result<StagePtr> GetOrBuild(whatif::StageKind kind, const std::string& key,
                              const StageFactory& build, bool* hit) override {
    return inner_->GetOrBuild(kind, key, build, hit);
  }
  StagePtr Peek(whatif::StageKind kind, const std::string& key) override {
    StagePtr found = inner_->Peek(kind, key);
    if (found != nullptr) ++peek_hits;
    return found;
  }

  size_t peek_hits = 0;

 private:
  StageCache* inner_;
};

/// `db` with `overrides` written into copies of the touched relations.
Database PatchedDatabase(const Database& db,
                         const std::map<std::string, TableCellOverrides>&
                             overrides) {
  Database out = db.ShallowCopy();
  for (const auto& [relation, attrs] : overrides) {
    Table* table = out.GetMutableTable(relation).value();
    for (const auto& [attr, cells] : attrs) {
      for (const auto& [row, value] : cells) table->SetValue(row, attr, value);
    }
  }
  return out;
}

/// Fresh directory under /tmp, removed (recursively) on destruction.
class ScratchDir {
 public:
  ScratchDir() {
    char tmpl[] = "/tmp/hyper_service_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "";
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// A branch prepared against the UNPATCHED base database plus its override
// cells gets its ScopeStage by patching the trunk's cached image (the Peek
// finds it), and answers bit-identically to a fresh 1-thread engine over
// the branch's rows.
TEST_F(ServiceTest, BranchScopeStageIsPatchedFromTheCachedTrunkImage) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);
  StageCache cache(64);
  PeekRecordingStages stages(&cache);
  whatif::StageContext trunk;
  trunk.stages = &stages;
  trunk.data_scope = "base";
  trunk.base_scope = "base";

  whatif::WhatIfEngine engine(&db_, &graph_, options);
  auto stmt = sql::ParseSql(kQuery);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_TRUE(engine.Prepare(*stmt->whatif, &trunk).ok());
  EXPECT_EQ(0u, stages.peek_hits);

  const Schema& schema = db_.GetTable("German").value()->schema();
  const size_t status = schema.IndexOf("Status").value();
  const size_t savings = schema.IndexOf("Savings").value();
  std::map<std::string, TableCellOverrides> overrides;
  for (size_t row : {3u, 17u, 400u}) {
    overrides["German"][status][row] = Value::Int(1);
    overrides["German"][savings][row] = Value::Int(2);
  }
  whatif::StageContext branch = trunk;
  branch.data_scope = "branch";
  branch.overrides = &overrides;
  auto plan = engine.Prepare(*stmt->whatif, &branch);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(1u, stages.peek_hits) << "the trunk image was not found";
  auto result =
      engine.Evaluate(**plan, whatif::SpecsOfStatement(*stmt->whatif));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->scope_patched);

  const Database patched = PatchedDatabase(db_, overrides);
  whatif::WhatIfOptions fresh_options = options;
  fresh_options.num_threads = 1;
  auto fresh =
      whatif::WhatIfEngine(&patched, &graph_, fresh_options).RunSql(kQuery);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(fresh->updated_rows, result->updated_rows);
  EXPECT_EQ(fresh->value, result->value);  // bit-for-bit
}

// With the trunk image gone (Clear), a branch's image is an encode of the
// base rows plus its overrides — never stored as the base image — and the
// answer is the same bits as a fresh 1-thread engine, and as the patched
// path once the trunk image is back.
TEST_F(ServiceTest, BranchAnswerAfterClearMatchesFreshRun) {
  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);
  auto service = MakeService(options);
  ASSERT_TRUE(service->Submit({"main", kQuery, {}}).ok());
  ASSERT_TRUE(service->CreateScenario("b").ok());
  ASSERT_TRUE(service
                  ->ApplyHypotheticalSql("b",
                                         "Use German When Id < 60 "
                                         "Update(Status) = 1 Output Count(*)")
                  .ok());
  service->ClearCache();

  Response encoded = service->Submit({"b", kQuery, {}});
  ASSERT_TRUE(encoded.ok()) << encoded.status;
  EXPECT_FALSE(encoded.whatif.scope_patched);
  std::shared_ptr<const Database> world =
      service->EffectiveDatabase("b").value();
  whatif::WhatIfOptions fresh_options = options;
  fresh_options.num_threads = 1;
  auto fresh =
      whatif::WhatIfEngine(world.get(), &graph_, fresh_options).RunSql(kQuery);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(fresh->value, encoded.whatif.value);

  // The branch's encode did not land under the trunk's key: the trunk
  // answers as a fresh run over the base does.
  Response trunk = service->Submit({"main", kQuery, {}});
  ASSERT_TRUE(trunk.ok()) << trunk.status;
  EXPECT_EQ(FreshRun(kQuery, options), trunk.whatif.value);

  service->ClearCache();
  ASSERT_TRUE(service->Submit({"main", kQuery, {}}).ok());
  Response patched = service->Submit({"b", kQuery, {}});
  ASSERT_TRUE(patched.ok()) << patched.status;
  EXPECT_TRUE(patched.whatif.scope_patched);
  EXPECT_EQ(encoded.whatif.value, patched.whatif.value);
}

// Two chained applies on one branch, the second's When reading cells the
// first wrote (through Pre values it also reads): the delta is computed over
// the branch's columnar image, both from the base image plus overrides and
// from the branch's own cached image, and must match a row-store scan of
// the materialized branch. Fingerprints and answers survive WAL recovery.
TEST_F(ServiceTest, ChainedAppliesComposeAndRecoverBitIdentically) {
  data::GermanOptions data_options;
  data_options.rows = 800;
  data_options.seed = 11;
  data_options.continuous_amount = true;
  auto ds = data::MakeGermanSyn(data_options);
  ASSERT_TRUE(ds.ok()) << ds.status();
  const char* first =
      "Use German When Id < 120 Update(CreditAmount) = 3 * Pre(CreditAmount) "
      "Output Count(*)";
  const char* second =
      "Use German When CreditAmount > 6000 And Savings < 2 "
      "Update(CreditAmount) = 0.5 + Pre(CreditAmount) Output Count(*)";
  const char* query =
      "Use German When CreditAmount > 5000 Update(Status) = 2 "
      "Output Avg(Post(Credit))";
  ScratchDir dir;
  ServiceOptions service_options;
  service_options.whatif = EngineOptions(whatif::BackdoorMode::kGraph,
                                         learn::EstimatorKind::kFrequency);
  service_options.num_threads = 1;
  service_options.data_dir = dir.path();
  service_options.wal_fsync = durability::FsyncPolicy::kAlways;

  // Rows the second When selects, by a row-store scan of the branch after
  // the first apply.
  auto expected_second = [&](const Database& db) {
    const Table& table = *db.GetTable("German").value();
    const size_t amount = table.schema().IndexOf("CreditAmount").value();
    const size_t savings = table.schema().IndexOf("Savings").value();
    size_t rows = 0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (table.At(r, amount).AsDouble().value() > 6000 &&
          table.At(r, savings).AsDouble().value() < 2) {
        ++rows;
      }
    }
    return rows;
  };

  std::vector<ScenarioInfo> live;
  double live_answer = 0.0;
  {
    ScenarioService service(ds->db, ds->graph, service_options);
    ASSERT_TRUE(service.recovery_status().ok()) << service.recovery_status();
    ASSERT_TRUE(service.Submit({"main", query, {}}).ok());
    // The expectation comes from a throwaway branch: materializing the
    // measured branches here would hand the second apply their rows.
    ASSERT_TRUE(service.CreateScenario("probe").ok());
    ASSERT_TRUE(service.ApplyHypotheticalSql("probe", first).ok());
    const size_t want =
        expected_second(*service.EffectiveDatabase("probe").value());
    ASSERT_NE(expected_second(ds->db), want) << "the first apply must matter";
    ASSERT_TRUE(service.DropScenario("probe").ok());
    for (const char* name : {"cold", "warm"}) {
      SCOPED_TRACE(name);
      ASSERT_TRUE(service.CreateScenario(name).ok());
      auto updated = service.ApplyHypotheticalSql(name, first);
      ASSERT_TRUE(updated.ok()) << updated.status();
      EXPECT_EQ(120u, *updated);
      if (std::string(name) == "warm") {
        // Caches the branch's own image, which the second apply reads.
        ASSERT_TRUE(service.Submit({name, query, {}}).ok());
      }
      updated = service.ApplyHypotheticalSql(name, second);
      ASSERT_TRUE(updated.ok()) << updated.status();
      EXPECT_EQ(want, *updated);
      EXPECT_GT(*updated, 0u);
    }
    live = service.ListScenarios();
    std::sort(live.begin(), live.end(),
              [](const auto& a, const auto& b) { return a.name < b.name; });
    ASSERT_EQ(3u, live.size());
    EXPECT_EQ(live[0].delta_fingerprint, live[2].delta_fingerprint)
        << "cold and warm chains diverged";
    Response answer = service.Submit({"cold", query, {}});
    ASSERT_TRUE(answer.ok()) << answer.status;
    live_answer = answer.whatif.value;
    whatif::WhatIfOptions fresh_options = service_options.whatif;
    fresh_options.num_threads = 1;
    std::shared_ptr<const Database> world =
        service.EffectiveDatabase("cold").value();
    auto fresh = whatif::WhatIfEngine(world.get(), &ds->graph, fresh_options)
                     .RunSql(query);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_EQ(fresh->value, live_answer);
  }
  ScenarioService recovered(ds->db, ds->graph, service_options);
  ASSERT_TRUE(recovered.recovery_status().ok())
      << recovered.recovery_status();
  std::vector<ScenarioInfo> infos = recovered.ListScenarios();
  std::sort(infos.begin(), infos.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  ASSERT_EQ(live.size(), infos.size());
  for (size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(live[i].delta_fingerprint, infos[i].delta_fingerprint)
        << infos[i].name;
  }
  Response answer = recovered.Submit({"cold", query, {}});
  ASSERT_TRUE(answer.ok()) << answer.status;
  EXPECT_EQ(live_answer, answer.whatif.value);
}

// Statements that read a branch's rows take the materializing path: a
// select view over Amazon's join, and a table view on a graph whose
// cross-tuple edge groups tuples by an attribute the branch rewrote. Both
// answer bit-identically to a fresh 1-thread engine over the branch.
TEST_F(ServiceTest, MaterializingPathsAnswerBitEqual) {
  whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kForest);
  whatif::WhatIfOptions fresh_options = options;
  fresh_options.num_threads = 1;
  auto expect_fresh = [&](ScenarioService& service,
                          const causal::CausalGraph& graph,
                          const std::string& query) {
    SCOPED_TRACE(query);
    ASSERT_TRUE(service.Submit({"main", query, {}}).ok());
    Response branch = service.Submit({"b", query, {}});
    ASSERT_TRUE(branch.ok()) << branch.status;
    std::shared_ptr<const Database> world =
        service.EffectiveDatabase("b").value();
    auto fresh =
        whatif::WhatIfEngine(world.get(), &graph, fresh_options).RunSql(query);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_EQ(fresh->value, branch.whatif.value);
  };

  data::AmazonOptions amazon_options;
  amazon_options.products = 200;
  amazon_options.reviews_per_product = 3;
  auto amazon = data::MakeAmazonSyn(amazon_options);
  ASSERT_TRUE(amazon.ok()) << amazon.status();
  ServiceOptions service_options;
  service_options.whatif = options;
  service_options.num_threads = 1;
  {
    ScenarioService service(amazon->db, amazon->graph, service_options);
    ASSERT_TRUE(service.CreateScenario("b").ok());
    ASSERT_TRUE(service
                    .ApplyHypotheticalSql(
                        "b",
                        "Use Product When Brand = 'Asus' Update(Price) = "
                        "1.2 * Pre(Price) Output Count(*)")
                    .ok());
    expect_fresh(
        service, amazon->graph,
        "Use V As (Select T1.PID, T1.Category, T1.Brand, T1.Price, "
        "T1.Quality, Avg(T2.Rating) As Rtng From Product As T1, Review As T2 "
        "Where T1.PID = T2.PID Group By T1.PID, T1.Category, T1.Brand, "
        "T1.Price, T1.Quality) When Brand = 'Asus' Update(Price) = 1.1 * "
        "Pre(Price) Output Avg(Rtng)");
  }

  causal::CausalGraph linked = graph_;
  linked.AddEdge("Housing", "Credit", "Savings");
  {
    ScenarioService service(db_, linked, service_options);
    ASSERT_TRUE(service.CreateScenario("b").ok());
    ASSERT_TRUE(service
                    .ApplyHypotheticalSql("b",
                                          "Use German When Id < 300 "
                                          "Update(Savings) = 2 Output Count(*)")
                    .ok());
    expect_fresh(service, linked, kQuery);
  }
}

// Peek keeps a patch base recent: with more branches than the stage cache
// holds, the trunk image survives and every branch is patched from it.
TEST_F(ServiceTest, TrunkImageOutlivesMoreBranchesThanCapacity) {
  StageCache cache(2);
  auto build = [](int tag) {
    return [tag]() -> Result<StageCache::StagePtr> {
      return std::static_pointer_cast<const void>(std::make_shared<int>(tag));
    };
  };
  const auto kind = whatif::StageKind::kScope;
  ASSERT_TRUE(cache.GetOrBuild(kind, "a", build(1), nullptr).ok());
  ASSERT_TRUE(cache.GetOrBuild(kind, "b", build(2), nullptr).ok());
  const PlanCacheStats before = cache.stats();
  ASSERT_NE(nullptr, cache.Peek(kind, "a"));  // a is now the most recent
  ASSERT_TRUE(cache.GetOrBuild(kind, "c", build(3), nullptr).ok());
  EXPECT_NE(nullptr, cache.Peek(kind, "a"));
  EXPECT_EQ(nullptr, cache.Peek(kind, "b"));
  const PlanCacheStats after = cache.stats();
  EXPECT_EQ(before.scope.hits, after.scope.hits);
  EXPECT_EQ(before.scope.misses + 1, after.scope.misses);

  const whatif::WhatIfOptions options = EngineOptions(
      whatif::BackdoorMode::kGraph, learn::EstimatorKind::kFrequency);
  auto service = MakeService(options, /*capacity=*/2);
  ASSERT_TRUE(service->Submit({"main", kQuery, {}}).ok());
  for (int i = 0; i < 5; ++i) {
    const std::string name = "b" + std::to_string(i);
    SCOPED_TRACE(name);
    ASSERT_TRUE(service->CreateScenario(name).ok());
    ASSERT_TRUE(service
                    ->ApplyHypotheticalSql(
                        name, "Use German When Id = " + std::to_string(i) +
                                  " Update(Savings) = 2 Output Count(*)")
                    .ok());
    Response r = service->Submit({name, kQuery, {}});
    ASSERT_TRUE(r.ok()) << r.status;
    EXPECT_TRUE(r.whatif.scope_patched);
  }
}

// --- the storage substrate the branches ride on ---------------------------

TEST_F(ServiceTest, DatabaseShallowCopyIsCopyOnWrite) {
  Database shallow = db_.ShallowCopy();
  const Table* original = db_.GetTable("German").value();
  EXPECT_EQ(original, shallow.GetTable("German").value());  // shared storage
  EXPECT_EQ(db_.ContentFingerprint(), shallow.ContentFingerprint());

  const Value before = original->At(0, 2);
  Table* detached = shallow.GetMutableTable("German").value();
  EXPECT_NE(static_cast<const Table*>(detached), original);  // detached
  detached->SetValue(0, 2, Value::Int(before.Equals(Value::Int(3)) ? 2 : 3));
  EXPECT_TRUE(db_.GetTable("German").value()->At(0, 2).Equals(before))
      << "mutation leaked into the base";
  EXPECT_NE(db_.ContentFingerprint(), shallow.ContentFingerprint());

  // Deep Clone stays eagerly independent (the SCM oracle mutates through
  // raw Table pointers taken before the clone).
  Database deep = db_.Clone();
  EXPECT_NE(db_.GetTable("German").value(), deep.GetTable("German").value());
  EXPECT_EQ(db_.ContentFingerprint(), deep.ContentFingerprint());
}

}  // namespace
}  // namespace hyper::service
