#include "replay.h"

#include <utility>

#include "common/hash.h"
#include "common/strings.h"
#include "relational/compiled.h"
#include "sql/parser.h"
#include "whatif/compile.h"

namespace perfbench {

using hyper::Database;
using hyper::Result;
using hyper::Status;
using hyper::Table;
using hyper::Value;
using hyper::service::ScenarioBranch;

std::string ScopeOf(uint64_t generation, uint64_t delta_fingerprint) {
  return hyper::StrFormat("g%llu|d%016llx",
                          static_cast<unsigned long long>(generation),
                          static_cast<unsigned long long>(delta_fingerprint));
}

World TrunkWorld(std::shared_ptr<const Database> base) {
  World world;
  world.db = std::move(base);
  world.scope = ScopeOf(world.generation, hyper::Fnv1a().hash());
  world.overrides = std::make_shared<const ScenarioBranch::OverrideMap>();
  return world;
}

Result<BranchMirror> MirrorBranch(std::shared_ptr<const Database> base,
                                  const std::string& name,
                                  const std::string& update_sql) {
  HYPER_ASSIGN_OR_RETURN(hyper::sql::Statement parsed,
                         hyper::sql::ParseSql(update_sql));
  if (parsed.whatif == nullptr || parsed.whatif->updates.empty()) {
    return Status::InvalidArgument("branch update must be a what-if "
                                   "statement with an Update clause");
  }
  const hyper::sql::WhatIfStmt& stmt = *parsed.whatif;
  HYPER_ASSIGN_OR_RETURN(std::string relation,
                         base->RelationOfAttribute(stmt.updates[0].attribute));
  HYPER_ASSIGN_OR_RETURN(const Table* table, base->GetTable(relation));
  const hyper::Schema& schema = table->schema();

  std::vector<size_t> rows;
  if (stmt.when == nullptr) {
    for (size_t r = 0; r < table->num_rows(); ++r) rows.push_back(r);
  } else {
    const std::vector<hyper::relational::ScopedTuple> scope{
        hyper::relational::ScopedTuple{relation, &schema}};
    HYPER_ASSIGN_OR_RETURN(
        hyper::relational::CompiledExpr when,
        hyper::relational::CompiledExpr::Compile(*stmt.when, scope));
    for (size_t r = 0; r < table->num_rows(); ++r) {
      const hyper::relational::BoundRow frame{&table->row(r), nullptr};
      HYPER_ASSIGN_OR_RETURN(bool selected, when.EvalRowBool(&frame));
      if (selected) rows.push_back(r);
    }
  }

  BranchMirror mirror;
  mirror.branch = ScenarioBranch(name, "main");
  for (const hyper::sql::UpdateClause& u : stmt.updates) {
    HYPER_ASSIGN_OR_RETURN(size_t attr, schema.IndexOf(u.attribute));
    hyper::whatif::UpdateSpec spec;
    spec.attribute = u.attribute;
    spec.func = u.func;
    spec.constant = u.constant;
    std::vector<std::pair<size_t, Value>> cells;
    cells.reserve(rows.size());
    for (size_t r : rows) {
      HYPER_ASSIGN_OR_RETURN(Value post, spec.Apply(table->At(r, attr)));
      cells.emplace_back(r, std::move(post));
    }
    mirror.branch.Override(relation, attr, cells);
  }
  mirror.branch.RecordUpdateApplied();

  Database effective = base->ShallowCopy();
  for (const auto& [rel, attrs] : mirror.branch.overrides()) {
    HYPER_ASSIGN_OR_RETURN(const Table* source, base->GetTable(rel));
    auto patched = std::make_shared<Table>(*source);
    for (const auto& [attr, cells] : attrs) {
      for (const auto& [tid, value] : cells) {
        patched->SetValue(tid, attr, value);
      }
    }
    HYPER_RETURN_NOT_OK(effective.PutTable(std::move(patched)));
  }
  mirror.world.db = std::make_shared<const Database>(std::move(effective));
  mirror.world.scope =
      ScopeOf(mirror.world.generation, mirror.branch.delta_fingerprint());
  mirror.world.overrides = std::make_shared<const ScenarioBranch::OverrideMap>(
      mirror.branch.overrides());
  return mirror;
}

namespace {

constexpr const char* kStageSpan[4] = {
    "whatif.scope.build", "whatif.causal.build", "whatif.learn.build",
    "whatif.query.build"};

/// Time of nested factories per open factory on this thread.
thread_local std::vector<int64_t> tls_child_ns;

}  // namespace

Result<TimingStageProvider::StagePtr> TimingStageProvider::GetOrBuild(
    hyper::whatif::StageKind kind, const std::string& key,
    const StageFactory& build, bool* hit) {
  const size_t k = static_cast<size_t>(kind);
  const StageFactory timed = [&]() -> Result<StagePtr> {
    uint64_t request = 0, parent = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      request = request_;
      parent = parent_;
    }
    Span span(tracer_, kStageSpan[k], request, parent);
    tls_child_ns.push_back(0);
    const int64_t start = NowNs();
    Result<StagePtr> out = build();
    const int64_t took = NowNs() - start;
    const int64_t nested = tls_child_ns.back();
    tls_child_ns.pop_back();
    if (!tls_child_ns.empty()) tls_child_ns.back() += took;
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.misses[k];
    counters_.self_ns[k] += took - nested;
    return out;
  };
  return inner_->GetOrBuild(kind, key, timed, hit);
}

Replayer::Replayer(const hyper::causal::CausalGraph* graph,
                   const hyper::service::ServiceOptions& options,
                   Tracer* tracer)
    : graph_(graph),
      options_(options),
      tracer_(tracer),
      cache_(options.plan_cache_capacity),
      provider_(&cache_, tracer) {}

hyper::whatif::StageContext Replayer::ContextFor(const World& world) {
  // The same wiring as ScenarioService::StageContextFor.
  hyper::whatif::StageContext ctx;
  ctx.stages = &provider_;
  ctx.data_scope = world.scope;
  ctx.shape_scope = hyper::StrFormat(
      "g%llu", static_cast<unsigned long long>(world.generation));
  ctx.base_scope = ScopeOf(world.generation, hyper::Fnv1a().hash());
  ctx.overrides = world.overrides.get();
  ctx.restricted = [db = world.db, overrides = world.overrides,
                    generation = world.generation](
                       const std::string& relation,
                       const std::vector<std::string>& attrs) {
    std::vector<size_t> indices;
    auto table = db->GetTable(relation);
    if (table.ok()) {
      for (const std::string& attr : attrs) {
        auto idx = (*table)->schema().IndexOf(attr);
        if (idx.ok()) indices.push_back(*idx);
      }
    }
    return hyper::StrFormat(
        "g%llu|r%016llx", static_cast<unsigned long long>(generation),
        static_cast<unsigned long long>(ScenarioBranch::FingerprintRestricted(
            *overrides, relation, indices)));
  };
  return ctx;
}

ReplayResult Replayer::Run(const World& world, const std::string& sql,
                           uint64_t request) {
  ReplayResult out;
  Span root(tracer_, "replay", request);
  auto parsed = [&] {
    Span span(tracer_, "sql.parse", request, root.id());
    return hyper::sql::ParseSql(sql);
  }();
  if (!parsed.ok()) return out;

  const hyper::whatif::WhatIfOptions& opts = options_.whatif;
  hyper::whatif::StageContext ctx = ContextFor(world);
  if (parsed->whatif != nullptr) {
    const hyper::sql::WhatIfStmt& stmt = *parsed->whatif;
    hyper::whatif::WhatIfEngine engine(world.db.get(), graph_, opts);
    bool hit = false;
    auto plan = cache_.GetOrPrepare(
        hyper::service::WhatIfPlanKey(world.scope, stmt, opts),
        [&] {
          Span span(tracer_, "whatif.prepare", request, root.id());
          provider_.set_request(request, span.id());
          return engine.Prepare(stmt, &ctx);
        },
        &hit);
    if (!plan.ok()) return out;
    const std::vector<hyper::whatif::UpdateSpec> specs =
        hyper::whatif::SpecsOfStatement(stmt);
    // An untimed Evaluate first does any lazy estimator training
    // (learn.train_ms) and warms caches and pages for both timed arms, which
    // then take turns going first, so neither arm always runs warmer.
    auto warm = [&] {
      Span span(tracer_, "whatif.evaluate_warm", request, root.id());
      return engine.Evaluate(**plan, specs);
    }();
    if (!warm.ok()) return out;
    hyper::whatif::WhatIfOptions t1_opts = opts;
    t1_opts.num_threads = 1;
    hyper::whatif::WhatIfEngine engine_t1(world.db.get(), graph_, t1_opts);
    struct Arm {
      const hyper::whatif::WhatIfEngine* engine;
      const char* span;
      double* ms;
    };
    Arm arms[2] = {{&engine, "whatif.evaluate", &out.evaluate_ms},
                   {&engine_t1, "whatif.evaluate_t1", &out.evaluate_t1_ms}};
    if (evaluations_++ % 2 == 1) std::swap(arms[0], arms[1]);
    bool same = true;
    for (const Arm& arm : arms) {
      const int64_t t0 = NowNs();
      auto result = [&] {
        Span span(tracer_, arm.span, request, root.id());
        return arm.engine->Evaluate(**plan, specs);
      }();
      *arm.ms = static_cast<double>(NowNs() - t0) / 1e6;
      if (!result.ok()) return out;
      same = same && SameBits(result->value, warm->value);
    }
    out.ok = true;
    out.value = warm->value;
    out.t1_equal = same;
    out.view_rows = warm->view_rows;
    out.train_seconds = warm->train_seconds;
    return out;
  }
  if (parsed->howto != nullptr) {
    hyper::howto::HowToOptions ho;
    ho.whatif = opts;
    ho.num_buckets = options_.howto_num_buckets;
    ho.global_l1_budget = options_.howto_global_l1_budget;
    ho.prefer_mck = options_.howto_prefer_mck;
    ho.plan_cache = &cache_;
    ho.cache_scope = world.scope;
    ho.stage_context = &ctx;
    hyper::howto::HowToEngine engine(world.db.get(), graph_, ho);
    auto result = [&] {
      Span span(tracer_, "howto.run", request, root.id());
      provider_.set_request(request, span.id());
      return engine.Run(*parsed->howto);
    }();
    if (!result.ok()) return out;
    out.ok = true;
    out.is_howto = true;
    out.value = result->objective_value;
    out.train_seconds = result->train_seconds;
    out.candidates = result->candidates_evaluated;
    out.candidate_eval_seconds = result->eval_seconds;
  }
  return out;
}

Reference::Reference(std::shared_ptr<const Database> db,
                     const hyper::causal::CausalGraph* graph,
                     const hyper::service::ServiceOptions& options)
    : db_(std::move(db)), graph_(graph), options_(options) {
  options_.whatif.num_threads = 1;
}

const Reference::Answer& Reference::Get(const std::string& sql) {
  auto found = answers_.find(sql);
  if (found != answers_.end()) return found->second;
  Answer answer;
  auto parsed = hyper::sql::ParseSql(sql);
  if (parsed.ok() && parsed->whatif != nullptr) {
    const hyper::sql::WhatIfStmt& stmt = *parsed->whatif;
    hyper::whatif::WhatIfEngine engine(db_.get(), graph_, options_.whatif);
    const std::string key =
        hyper::service::WhatIfPlanKey("reference", stmt, options_.whatif);
    auto plan = plans_.find(key);
    if (plan == plans_.end()) {
      auto prepared = engine.Prepare(stmt);
      if (prepared.ok()) plan = plans_.emplace(key, *prepared).first;
    }
    if (plan != plans_.end()) {
      auto result =
          engine.Evaluate(*plan->second, hyper::whatif::SpecsOfStatement(stmt));
      if (result.ok()) {
        answer.ok = true;
        answer.value = result->value;
      }
    }
  } else if (parsed.ok() && parsed->howto != nullptr) {
    hyper::howto::HowToOptions ho;
    ho.whatif = options_.whatif;
    ho.num_buckets = options_.howto_num_buckets;
    ho.global_l1_budget = options_.howto_global_l1_budget;
    ho.prefer_mck = options_.howto_prefer_mck;
    hyper::howto::HowToEngine engine(db_.get(), graph_, ho);
    auto result = engine.Run(*parsed->howto);
    if (result.ok()) {
      answer.ok = true;
      answer.value = result->objective_value;
      answer.baseline = result->baseline_value;
    }
  }
  return answers_.emplace(sql, answer).first->second;
}

}  // namespace perfbench
