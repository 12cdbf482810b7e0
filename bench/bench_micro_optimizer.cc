// Micro benchmarks (google-benchmark): optimizer-component latencies —
// GLogue construction, cardinality estimation, pattern canonicalization,
// type inference and CBO planning. These support the paper's claim that
// optimization time is negligible relative to execution (Section 8.1).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "src/engine/engine.h"
#include "src/ldbc/ldbc.h"
#include "src/meta/pattern_code.h"
#include "src/opt/pipeline/passes.h"
#include "src/opt/type_inference.h"
#include "src/workloads/queries.h"

namespace {

using namespace gopt;

const LdbcGraph& SharedGraph() {
  static LdbcGraph g = GenerateLdbc(0.3, 42);
  return g;
}

const Glogue& SharedGlogue() {
  static Glogue gl = Glogue::Build(*SharedGraph().graph);
  return gl;
}

/// Runs the query through the frontend passes (parse, optionally rbo) and
/// returns the resulting context — individual stages are poked through the
/// same PlannerPass objects the engine pipelines are built from.
PlanContext FrontendContext(const std::string& query, bool run_rbo) {
  PlanContext ctx;
  ctx.query = query;
  ctx.lang = Language::kCypher;
  ctx.graph = SharedGraph().graph.get();
  PassManager pm;
  pm.AddPass(std::make_unique<ParsePass>());
  if (run_rbo) pm.AddPass(std::make_unique<RboPass>(RboPass::Config{}));
  pm.Run(ctx);
  return ctx;
}

Pattern FirstPattern(const PlanContext& ctx) {
  LogicalOpPtr cur = ctx.logical;
  while (cur->kind != LogicalOpKind::kMatchPattern) cur = cur->inputs[0];
  return cur->pattern;
}

Pattern QcPattern(int idx) {
  auto q = SubstituteParams(QcQueries()[static_cast<size_t>(idx)].cypher,
                            DefaultParams());
  return FirstPattern(FrontendContext(q, /*run_rbo=*/true));
}

void BM_GlogueBuild(benchmark::State& state) {
  const auto& g = *SharedGraph().graph;
  for (auto _ : state) {
    Glogue gl = Glogue::Build(g);
    benchmark::DoNotOptimize(gl.NumMotifs());
  }
  state.counters["motifs"] =
      static_cast<double>(Glogue::Build(g).NumMotifs());
}
BENCHMARK(BM_GlogueBuild)->Unit(benchmark::kMillisecond);

void BM_CardinalityEstimation(benchmark::State& state) {
  const auto& g = *SharedGraph().graph;
  Pattern p = QcPattern(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    // Fresh GlogueQuery so the cache does not trivialize the measurement.
    GlogueQuery gq(&SharedGlogue(), &g.schema(), true);
    benchmark::DoNotOptimize(gq.GetFreq(p));
  }
}
BENCHMARK(BM_CardinalityEstimation)->DenseRange(0, 7)->Unit(benchmark::kMicrosecond);

void BM_Canonicalization(benchmark::State& state) {
  Pattern p = QcPattern(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CanonicalPatternCode(p));
  }
}
BENCHMARK(BM_Canonicalization)->DenseRange(0, 7)->Unit(benchmark::kMicrosecond);

void BM_TypeInference(benchmark::State& state) {
  const auto& g = *SharedGraph().graph;
  auto q = SubstituteParams(QtQueries()[static_cast<size_t>(state.range(0))].cypher,
                            DefaultParams());
  // Inference is timed over the raw parsed pattern (no RBO rewriting), the
  // paper's "Algorithm 1 on the user-written QT patterns" setup.
  Pattern p = FirstPattern(FrontendContext(q, /*run_rbo=*/false));
  for (auto _ : state) {
    benchmark::DoNotOptimize(InferTypes(p, g.schema()));
  }
}
BENCHMARK(BM_TypeInference)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

void BM_CboSearch(benchmark::State& state) {
  const auto& g = *SharedGraph().graph;
  Pattern p = QcPattern(static_cast<int>(state.range(0)));
  BackendSpec backend = BackendSpec::GraphScopeLike(4);
  for (auto _ : state) {
    GlogueQuery gq(&SharedGlogue(), &g.schema(), true);
    GraphOptimizer opt(&gq, &backend);
    benchmark::DoNotOptimize(opt.Optimize(p));
  }
}
BENCHMARK(BM_CboSearch)->DenseRange(0, 7)->Unit(benchmark::kMicrosecond);

void BM_CboSearchWarm(benchmark::State& state) {
  // One estimator shared across iterations, as the engine shares its
  // GlogueQuery across Prepare calls: after the first iteration every
  // estimate is a memo hit, so this times the search itself (BM_CboSearch
  // builds a fresh estimator per iteration and times cold estimation).
  const auto& g = *SharedGraph().graph;
  Pattern p = QcPattern(static_cast<int>(state.range(0)));
  BackendSpec backend = BackendSpec::GraphScopeLike(4);
  GlogueQuery gq(&SharedGlogue(), &g.schema(), true);
  GraphOptimizer opt(&gq, &backend);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.Optimize(p));
  }
  state.counters["searched"] = static_cast<double>(opt.searched_subpatterns);
}
BENCHMARK(BM_CboSearchWarm)->DenseRange(0, 7)->Unit(benchmark::kMicrosecond);

void BM_EndToEndPrepare(benchmark::State& state) {
  const auto& g = *SharedGraph().graph;
  static auto glogue = std::make_shared<Glogue>(Glogue::Build(g));
  EngineOptions opts;
  opts.enable_plan_cache = false;  // measure the full pipeline every time
  GOptEngine engine(&g, BackendSpec::GraphScopeLike(4), opts);
  engine.SetGlogue(glogue);
  auto q = SubstituteParams(IcQueries()[5].cypher, DefaultParams());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Prepare(q));
  }
}
BENCHMARK(BM_EndToEndPrepare)->Unit(benchmark::kMicrosecond);

/// The parameterized-workload template the auto-parameterization targets:
/// one LDBC-style query shape, a distinct anchor literal per call. Without
/// parameter extraction every call would plan from scratch.
std::string ParamWorkloadQuery(int person_id) {
  return "MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE p.id = " +
         std::to_string(person_id) +
         " RETURN f.id AS fid ORDER BY fid ASC LIMIT 20";
}

void BM_ParamWorkloadColdPrepare(benchmark::State& state) {
  // Baseline: the cache disabled, so every distinct literal pays the full
  // planning pipeline (what PR 1's literal-keyed cache degenerated to).
  const auto& g = *SharedGraph().graph;
  static auto glogue = std::make_shared<Glogue>(Glogue::Build(g));
  EngineOptions opts;
  opts.enable_plan_cache = false;
  GOptEngine engine(&g, BackendSpec::GraphScopeLike(4), opts);
  engine.SetGlogue(glogue);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Prepare(ParamWorkloadQuery(i++ % 100)));
  }
}
BENCHMARK(BM_ParamWorkloadColdPrepare)->Unit(benchmark::kMicrosecond);

void BM_ParamWorkloadWarmRun(benchmark::State& state) {
  // Auto-parameterized: 100 distinct literal values share one cached plan;
  // warm Run pays parameter extraction + execution only. Counters report
  // the cache hit rate over the whole run.
  const auto& g = *SharedGraph().graph;
  static auto glogue = std::make_shared<Glogue>(Glogue::Build(g));
  GOptEngine engine(&g, BackendSpec::GraphScopeLike(4));
  engine.SetGlogue(glogue);
  engine.Run(ParamWorkloadQuery(0));  // one cold plan warms the template
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(ParamWorkloadQuery(i++ % 100)));
  }
  const PlanCacheStats stats = engine.plan_cache_stats();
  state.counters["cache_hits"] = static_cast<double>(stats.hits);
  state.counters["cache_misses"] = static_cast<double>(stats.misses);
  state.counters["hit_rate"] =
      static_cast<double>(stats.hits) /
      static_cast<double>(std::max<uint64_t>(stats.hits + stats.misses, 1));
}
BENCHMARK(BM_ParamWorkloadWarmRun)->Unit(benchmark::kMicrosecond);

void BM_ParamWorkloadWarmPrepare(benchmark::State& state) {
  // Planning-side only: the warm counterpart of ColdPrepare — extraction +
  // cache lookup, no execution (the direct cold-vs-warm latency pair).
  const auto& g = *SharedGraph().graph;
  static auto glogue = std::make_shared<Glogue>(Glogue::Build(g));
  GOptEngine engine(&g, BackendSpec::GraphScopeLike(4));
  engine.SetGlogue(glogue);
  engine.Prepare(ParamWorkloadQuery(0));
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Prepare(ParamWorkloadQuery(i++ % 100)));
  }
}
BENCHMARK(BM_ParamWorkloadWarmPrepare)->Unit(benchmark::kMicrosecond);

void BM_ConcurrentRun(benchmark::State& state) {
  // The concurrency tentpole's acceptance workload: N threads Run a warm
  // parameterized template against ONE engine and ONE shared plan cache.
  // google-benchmark drives the state loop on state.threads() OS threads;
  // near-linear items_per_second scaling (on a machine with >= N cores)
  // demonstrates that Prepare/Execute are re-entrant and the sharded cache
  // doesn't serialize the hot path. The sequential backend keeps each Run
  // single-threaded, so the engine layer is the only concurrency in play.
  static const auto& g = *SharedGraph().graph;
  static auto glogue = std::make_shared<Glogue>(Glogue::Build(g));
  static GOptEngine* engine = [] {
    auto* e = new GOptEngine(&g, BackendSpec::Neo4jLike());
    e->SetGlogue(glogue);
    for (int i = 0; i < 100; ++i) e->Run(ParamWorkloadQuery(i));  // warm
    return e;
  }();
  int i = state.thread_index() * 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Run(ParamWorkloadQuery(i++ % 100)));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    const PlanCacheStats stats = engine->plan_cache_stats();
    state.counters["hit_rate"] =
        static_cast<double>(stats.hits) /
        static_cast<double>(std::max<uint64_t>(stats.hits + stats.misses, 1));
  }
}
BENCHMARK(BM_ConcurrentRun)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_CachedPrepare(benchmark::State& state) {
  const auto& g = *SharedGraph().graph;
  static auto glogue = std::make_shared<Glogue>(Glogue::Build(g));
  GOptEngine engine(&g, BackendSpec::GraphScopeLike(4));
  engine.SetGlogue(glogue);
  auto q = SubstituteParams(IcQueries()[5].cypher, DefaultParams());
  engine.Prepare(q);  // warm the plan cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Prepare(q));
  }
  const PlanCacheStats stats = engine.plan_cache_stats();
  state.counters["cache_hits"] = static_cast<double>(stats.hits);
  state.counters["cache_misses"] = static_cast<double>(stats.misses);
  state.counters["hit_rate"] =
      static_cast<double>(stats.hits) /
      static_cast<double>(std::max<uint64_t>(stats.hits + stats.misses, 1));
}
BENCHMARK(BM_CachedPrepare)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
