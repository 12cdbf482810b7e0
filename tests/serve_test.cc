// Suite for the async serving layer (docs/serving.md): blocking-vs-async
// result parity, the callback overload, per-query time/row budgets typed
// as kTimeout/kCancelled with partial stats discarded, admission control
// (kReject never touches the plan cache, kBlock applies backpressure),
// explicit cancellation through the Submission handle, Shutdown racing
// RunAsync with drain semantics (TSan-targeted), sessions (default
// params, per-session stats), and the Prometheus text exposition —
// parsed line by line and asserted to move under a multi-session stress.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/ldbc/ldbc.h"
#include "src/serve/serving.h"
#include "src/workloads/queries.h"

namespace gopt {
namespace {

std::shared_ptr<PropertyGraph> PaperGraph() {
  GraphSchema s = MakePaperSchema();
  auto g = std::make_shared<PropertyGraph>(s);
  TypeId person = *s.FindVertexType("Person");
  TypeId product = *s.FindVertexType("Product");
  TypeId knows = *s.FindEdgeType("Knows");
  TypeId purchases = *s.FindEdgeType("Purchases");
  std::vector<VertexId> p, pr;
  for (int i = 0; i < 4; ++i) {
    VertexId v = g->AddVertex(person);
    g->SetVertexProp(v, "id", Value(i));
    g->SetVertexProp(v, "name", Value("person" + std::to_string(i)));
    p.push_back(v);
  }
  for (int i = 0; i < 3; ++i) {
    VertexId v = g->AddVertex(product);
    g->SetVertexProp(v, "id", Value(i));
    pr.push_back(v);
  }
  g->AddEdge(p[0], p[1], knows);
  g->AddEdge(p[1], p[2], knows);
  g->AddEdge(p[0], p[2], knows);
  g->AddEdge(p[2], p[3], knows);
  g->AddEdge(p[0], pr[0], purchases);
  g->AddEdge(p[1], pr[0], purchases);
  g->AddEdge(p[1], pr[1], purchases);
  g->Finalize();
  return g;
}

constexpr const char* kEdgeQ =
    "MATCH (a:Person)-[:Knows]->(b:Person) RETURN a, b";

/// kEdgeQ's counterpart on the LDBC schema (edge types are uppercase).
constexpr const char* kLdbcEdgeQ =
    "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN p, q";

/// A query that runs long on the LDBC graph (cartesian triple) but is
/// cheap per row — used to hold a worker busy until explicitly cancelled
/// or timed out.
constexpr const char* kHeavyQ =
    "MATCH (a:Person), (b:Person), (c:Person) RETURN a, b, c";

/// Spins until `pred` holds or ~5s elapsed. The serving layer has no
/// "wait until running" API by design; tests poll the observability
/// surface instead.
template <typename Pred>
bool WaitFor(Pred pred, int timeout_ms = 5000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Extracts the value of an exact series line (name including labels).
double SeriesValue(const std::string& render, const std::string& series) {
  size_t pos = 0;
  while ((pos = render.find(series + " ", pos)) != std::string::npos) {
    if (pos == 0 || render[pos - 1] == '\n') {
      size_t eol = render.find('\n', pos);
      return std::atof(
          render.substr(pos + series.size() + 1, eol - pos).c_str());
    }
    ++pos;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Parity and delivery
// ---------------------------------------------------------------------------

TEST(ServeTest, AsyncMatchesBlocking) {
  auto g = PaperGraph();
  GOptEngine engine(g.get(), BackendSpec::Neo4jLike());
  ServingEngine serve(&engine);

  ExecOutcome blocking = engine.Run(kEdgeQ);
  ExecOutcome async = serve.RunAsync(kEdgeQ).get();
  EXPECT_EQ(async.status, ExecStatus::kOk);
  EXPECT_TRUE(blocking.SameRows(async));
  EXPECT_EQ(async.NumRows(), 4u);
}

TEST(ServeTest, CallbackOverloadDeliversOutcomeAndErrors) {
  auto g = PaperGraph();
  GOptEngine engine(g.get(), BackendSpec::Neo4jLike());
  ServingEngine serve(&engine);

  std::promise<void> done_ok, done_err;
  std::atomic<int> ok_rows{-1};
  std::atomic<bool> err_seen{false};
  serve.RunAsync(kEdgeQ, [&](ExecOutcome out, std::exception_ptr err) {
    if (!err && out.status == ExecStatus::kOk) {
      ok_rows = static_cast<int>(out.NumRows());
    }
    done_ok.set_value();
  });
  // A genuine failure (unparsable query) arrives as the exception_ptr,
  // never as a typed outcome.
  serve.RunAsync("THIS IS NOT A QUERY",
                 [&](ExecOutcome, std::exception_ptr err) {
                   err_seen = (err != nullptr);
                   done_err.set_value();
                 });
  done_ok.get_future().get();
  done_err.get_future().get();
  EXPECT_EQ(ok_rows.load(), 4);
  EXPECT_TRUE(err_seen.load());

  // The future API rethrows the same failure from get().
  EXPECT_THROW(serve.RunAsync("ALSO NOT A QUERY").get(), std::exception);
}

// ---------------------------------------------------------------------------
// Budgets and cancellation
// ---------------------------------------------------------------------------

TEST(ServeTest, TimeBudgetTypesAsTimeoutWhileUnbudgetedQueriesComplete) {
  auto ldbc = GenerateLdbc(0.05, 1);
  GOptEngine engine(ldbc.graph.get(), BackendSpec::Neo4jLike());
  ServingOptions sopts;
  sopts.worker_threads = 2;
  ServingEngine serve(&engine, sopts);

  // Prime the plan cache so the budgeted run spends its 1ms in execution,
  // not planning — the timeout must trip mid-pipeline.
  engine.Prepare(kHeavyQ);

  QueryBudget tiny;
  tiny.time_ms = 1;
  auto t0 = std::chrono::steady_clock::now();
  Submission s = serve.Submit(kHeavyQ, {}, Language::kCypher, &tiny);
  // A concurrent unbudgeted query on the other worker completes normally.
  std::future<ExecOutcome> light = serve.RunAsync(
      "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN p, q");

  ExecOutcome out = s.result.get();
  double waited_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  EXPECT_EQ(out.status, ExecStatus::kTimeout);
  EXPECT_EQ(out.NumRows(), 0u);
  // Partial stats are discarded: a half-run's counts would poison parity
  // and skew observations downstream.
  EXPECT_EQ(out.stats.rows_produced, 0u);
  EXPECT_EQ(out.stats.tuples_materialized, 0u);
  // Cooperative checks run at morsel/operator boundaries, so "bounded"
  // means a few boundaries past the deadline, never the full query.
  EXPECT_LT(waited_ms, 10000.0);

  ExecOutcome ok = light.get();
  EXPECT_EQ(ok.status, ExecStatus::kOk);
  EXPECT_GT(ok.NumRows(), 0u);
}

TEST(ServeTest, RowBudgetTypesAsCancelled) {
  auto g = PaperGraph();
  GOptEngine engine(g.get(), BackendSpec::Neo4jLike());
  ServingEngine serve(&engine);

  QueryBudget one_row;
  one_row.max_rows = 1;
  ExecOutcome out =
      serve.Submit(kEdgeQ, {}, Language::kCypher, &one_row).result.get();
  EXPECT_EQ(out.status, ExecStatus::kCancelled);
  EXPECT_EQ(out.NumRows(), 0u);
}

TEST(ServeTest, RowBudgetChargesExactlyRowsProduced) {
  // The row budget charges the same count as ExecStats::rows_produced,
  // breaker and union outputs included: a budget one short of a query's
  // rows_produced must cancel it, and a budget equal to it must not — on
  // every runtime and worker count.
  auto ldbc = GenerateLdbc(0.05, 1);
  const char* queries[] = {
      "MATCH (p:Person) RETURN COUNT(p) AS c",
      "MATCH (p:Person) RETURN p.id AS id ORDER BY id ASC LIMIT 5",
      "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN DISTINCT p",
      "MATCH (a:Person) RETURN a UNION MATCH (b:Person) RETURN b AS a",
  };
  auto run = [](const GOptEngine& engine, const Prepared& prep,
                uint64_t budget) {
    auto state = std::make_shared<CancelState>();
    state->set_row_budget(budget);
    return engine.Execute(prep, {}, CancelToken(state));
  };
  for (int variant = 0; variant < 3; ++variant) {
    EngineOptions opts;
    opts.exec_threads = variant == 1 ? 4 : 1;
    GOptEngine engine(ldbc.graph.get(),
                      variant == 2 ? BackendSpec::GraphScopeLike(4)
                                   : BackendSpec::Neo4jLike(),
                      opts);
    for (const char* q : queries) {
      SCOPED_TRACE(std::string(q) + " variant " + std::to_string(variant));
      Prepared prep = engine.Prepare(q);
      const uint64_t rows = engine.Execute(prep).stats.rows_produced;
      ASSERT_GT(rows, 1u);
      ExecOutcome over = run(engine, prep, rows - 1);
      EXPECT_EQ(over.status, ExecStatus::kCancelled);
      EXPECT_EQ(over.NumRows(), 0u);
      ExecOutcome exact = run(engine, prep, rows);
      EXPECT_EQ(exact.status, ExecStatus::kOk);
      EXPECT_EQ(exact.stats.rows_produced, rows);
    }
  }
  // An s-t query whose hash join is lazy (its build columns are dead under
  // COUNT(*)): the join emits one multiplicity group per matched probe
  // row, yet charges — and reports — every logical row it stands for.
  auto fraud = GenerateFraud(600, 4.0, 3);
  const std::string st =
      StQuery(6, {1, 2, 3, 4, 5, 6}, {10, 11, 12, 13, 14, 15});
  for (int threads : {1, 2}) {
    SCOPED_TRACE("ST query, exec_threads " + std::to_string(threads));
    EngineOptions opts;
    opts.exec_threads = threads;
    GOptEngine engine(fraud.graph.get(), BackendSpec::Neo4jLike(), opts);
    Prepared prep = engine.Prepare(st);
    EXPECT_NE(engine.Explain(prep).find("HashJoin[lazy]"), std::string::npos)
        << engine.Explain(prep);
    const uint64_t rows = engine.Execute(prep).stats.rows_produced;
    ASSERT_GT(rows, 1u);
    EXPECT_EQ(run(engine, prep, rows - 1).status, ExecStatus::kCancelled);
    ExecOutcome exact = run(engine, prep, rows);
    EXPECT_EQ(exact.status, ExecStatus::kOk);
    EXPECT_EQ(exact.stats.rows_produced, rows);
  }
}

TEST(ServeTest, ExplicitCancelThroughSubmissionHandle) {
  auto ldbc = GenerateLdbc(0.05, 1);
  GOptEngine engine(ldbc.graph.get(), BackendSpec::Neo4jLike());
  ServingOptions sopts;
  sopts.worker_threads = 1;
  ServingEngine serve(&engine, sopts);

  Submission s = serve.Submit(kHeavyQ);
  ASSERT_TRUE(s.cancel.valid());
  ASSERT_TRUE(WaitFor([&] { return serve.in_flight() == 1; }));
  s.cancel.Cancel();
  ExecOutcome out = s.result.get();
  EXPECT_EQ(out.status, ExecStatus::kCancelled);
  EXPECT_EQ(out.NumRows(), 0u);
}

TEST(ServeTest, PrepareWithTrippedTokenThrowsCancelledError) {
  auto g = PaperGraph();
  GOptEngine engine(g.get(), BackendSpec::Neo4jLike());
  CancelToken tok(std::make_shared<CancelState>());
  tok.Cancel();
  EXPECT_THROW(
      engine.Prepare("MATCH (x:Person)-[:Purchases]->(y:Product) RETURN x, y",
                     Language::kCypher, tok),
      CancelledError);
}

TEST(ServeTest, CancelledRunNeverPopulatesResultCache) {
  auto g = PaperGraph();
  EngineOptions opts;
  opts.result_cache_bytes = 1 << 20;
  GOptEngine engine(g.get(), BackendSpec::Neo4jLike(), opts);
  ServingEngine serve(&engine);

  QueryBudget one_row;
  one_row.max_rows = 1;
  ExecOutcome cancelled =
      serve.Submit(kEdgeQ, {}, Language::kCypher, &one_row).result.get();
  ASSERT_EQ(cancelled.status, ExecStatus::kCancelled);
  EXPECT_EQ(engine.result_cache_stats().entries, 0u)
      << "a cancelled run must not populate the result cache";

  ExecOutcome full = serve.RunAsync(kEdgeQ).get();
  EXPECT_EQ(full.status, ExecStatus::kOk);
  EXPECT_EQ(full.NumRows(), 4u);
  EXPECT_EQ(engine.result_cache_stats().entries, 1u);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(ServeTest, RejectPolicyRejectsWithoutTouchingPlanCache) {
  auto ldbc = GenerateLdbc(0.05, 1);
  GOptEngine engine(ldbc.graph.get(), BackendSpec::Neo4jLike());
  ServingOptions sopts;
  sopts.worker_threads = 1;
  sopts.max_queue = 2;
  sopts.admission = AdmissionPolicy::kReject;
  ServingEngine serve(&engine, sopts);

  // Hold the single worker with the heavy query, then fill the queue.
  Submission blocker = serve.Submit(kHeavyQ);
  ASSERT_TRUE(WaitFor([&] { return serve.in_flight() == 1; }));
  std::future<ExecOutcome> f1 = serve.RunAsync(kLdbcEdgeQ);
  std::future<ExecOutcome> f2 = serve.RunAsync(kLdbcEdgeQ);
  EXPECT_EQ(serve.queue_depth(), 2u);

  const PlanCacheStats before = engine.plan_cache_stats();
  // This exact text has never been planned: if rejection ever touched the
  // engine, the miss (or a new entry) would show in the counters.
  Submission rejected = serve.Submit(
      "MATCH (zz:Person)-[:IS_LOCATED_IN]->(pl:Place) RETURN zz, pl");
  ExecOutcome out = rejected.result.get();
  EXPECT_EQ(out.status, ExecStatus::kRejected);
  EXPECT_FALSE(rejected.cancel.valid());
  const PlanCacheStats after = engine.plan_cache_stats();
  EXPECT_EQ(before.hits, after.hits);
  EXPECT_EQ(before.misses, after.misses);
  EXPECT_EQ(before.entries, after.entries);

  blocker.cancel.Cancel();
  EXPECT_EQ(blocker.result.get().status, ExecStatus::kCancelled);
  EXPECT_EQ(f1.get().status, ExecStatus::kOk);
  EXPECT_EQ(f2.get().status, ExecStatus::kOk);
}

TEST(ServeTest, BlockPolicyAppliesBackpressureAndCompletesAll) {
  auto g = PaperGraph();
  GOptEngine engine(g.get(), BackendSpec::Neo4jLike());
  ServingOptions sopts;
  sopts.worker_threads = 1;
  sopts.max_queue = 1;
  sopts.admission = AdmissionPolicy::kBlock;
  ServingEngine serve(&engine, sopts);

  // 8 submissions through a 1-slot queue: every one must eventually run.
  std::vector<std::future<ExecOutcome>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(serve.RunAsync(kEdgeQ));
  for (auto& f : futs) {
    ExecOutcome out = f.get();
    EXPECT_EQ(out.status, ExecStatus::kOk);
    EXPECT_EQ(out.NumRows(), 4u);
  }
}

TEST(ServeTest, ZeroMaxQueueIsClampedNotDeadlocked) {
  // Regression: max_queue = 0 under kBlock made the wait predicate
  // (queue_.size() < max_queue) unsatisfiable, parking every submitter
  // until Shutdown. It is clamped to 1 (0 means "unlimited" elsewhere in
  // the serving options, so this is an easy misconfiguration).
  auto g = PaperGraph();
  GOptEngine engine(g.get(), BackendSpec::Neo4jLike());
  ServingOptions sopts;
  sopts.worker_threads = 1;
  sopts.max_queue = 0;
  sopts.admission = AdmissionPolicy::kBlock;
  ServingEngine serve(&engine, sopts);
  EXPECT_EQ(serve.options().max_queue, 1u);

  std::vector<std::future<ExecOutcome>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(serve.RunAsync(kEdgeQ));
  for (auto& f : futs) EXPECT_EQ(f.get().status, ExecStatus::kOk);
}

// ---------------------------------------------------------------------------
// Shutdown semantics
// ---------------------------------------------------------------------------

TEST(ServeTest, ShutdownRacingRunAsyncDrainsCleanly) {
  auto g = PaperGraph();
  GOptEngine engine(g.get(), BackendSpec::Neo4jLike());
  ServingOptions sopts;
  sopts.worker_threads = 2;
  ServingEngine serve(&engine, sopts);

  // Submitters race Shutdown: every future must resolve — admitted
  // queries drain to kOk, late ones come back kRejected, none hang.
  std::atomic<bool> go{true};
  std::vector<std::thread> submitters;
  std::mutex futs_mu;
  std::vector<std::future<ExecOutcome>> futs;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&] {
      while (go.load()) {
        std::future<ExecOutcome> f = serve.RunAsync(kEdgeQ);
        std::lock_guard<std::mutex> lock(futs_mu);
        futs.push_back(std::move(f));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  serve.Shutdown();
  go = false;
  for (auto& th : submitters) th.join();

  ASSERT_FALSE(futs.empty());
  size_t ok = 0, rejected = 0;
  for (auto& f : futs) {
    ExecOutcome out = f.get();
    if (out.status == ExecStatus::kOk) {
      EXPECT_EQ(out.NumRows(), 4u);
      ++ok;
    } else {
      EXPECT_EQ(out.status, ExecStatus::kRejected);
      ++rejected;
    }
  }
  EXPECT_GT(ok, 0u) << "at least the pre-shutdown queries must drain";
  // Shutdown is idempotent, and post-shutdown submissions reject.
  serve.Shutdown();
  EXPECT_EQ(serve.RunAsync(kEdgeQ).get().status, ExecStatus::kRejected);
  EXPECT_EQ(rejected + ok, futs.size());
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

TEST(ServeTest, SessionDefaultParamsAndStats) {
  auto ldbc = GenerateLdbc(0.05, 1);
  GOptEngine engine(ldbc.graph.get(), BackendSpec::Neo4jLike());
  ServingEngine serve(&engine);

  SessionOptions sess;
  sess.default_params["pid"] = Value(3);
  auto session = serve.OpenSession(sess);

  const char* param_q = "MATCH (a:Person) WHERE a.id = $pid RETURN a.id AS x";
  ExecOutcome with_default = session->RunAsync(param_q).get();
  EXPECT_EQ(with_default.status, ExecStatus::kOk);
  ASSERT_EQ(with_default.NumRows(), 1u);
  EXPECT_EQ(with_default.table().rows[0][0].AsInt(), 3);

  // Per-call bindings win over the session default.
  ExecOutcome with_override =
      session->RunAsync(param_q, {{"pid", Value(5)}}).get();
  ASSERT_EQ(with_override.NumRows(), 1u);
  EXPECT_EQ(with_override.table().rows[0][0].AsInt(), 5);

  // A session-level row budget types its queries as kCancelled.
  SessionOptions tight;
  tight.budget.max_rows = 1;
  auto budgeted = serve.OpenSession(tight);
  ExecOutcome cancelled =
      budgeted->RunAsync("MATCH (p:Person)-[:KNOWS]->(q) RETURN p, q").get();
  EXPECT_EQ(cancelled.status, ExecStatus::kCancelled);

  SessionStats st = session->stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.ok, 2u);
  EXPECT_EQ(st.cancelled, 0u);
  SessionStats bt = budgeted->stats();
  EXPECT_EQ(bt.submitted, 1u);
  EXPECT_EQ(bt.cancelled, 1u);

  EXPECT_THROW(serve.OpenSession([] {
                 SessionOptions o;
                 o.engine = "no-such-engine";
                 return o;
               }()),
               std::runtime_error);
}

TEST(ServeTest, SessionHandleDroppedWithQueriesInFlight) {
  // Regression: Task used to hold a raw Session* — dropping the last
  // client handle while a submission was still queued made the worker
  // call Record on a destroyed Session. Tasks now share ownership, so
  // the session dies only after its last outcome is delivered (ASan/TSan
  // jobs make a regression here fail loudly).
  auto ldbc = GenerateLdbc(0.05, 1);
  GOptEngine engine(ldbc.graph.get(), BackendSpec::Neo4jLike());
  ServingOptions sopts;
  sopts.worker_threads = 1;
  ServingEngine serve(&engine, sopts);

  Submission blocker = serve.Submit(kHeavyQ);
  ASSERT_TRUE(WaitFor([&] { return serve.in_flight() == 1; }));

  auto session = serve.OpenSession({});
  std::future<ExecOutcome> queued = session->RunAsync(kLdbcEdgeQ);
  EXPECT_EQ(serve.queue_depth(), 1u);
  session.reset();  // client walks away; its query is still queued

  blocker.cancel.Cancel();
  EXPECT_EQ(blocker.result.get().status, ExecStatus::kCancelled);
  ExecOutcome out = queued.get();
  EXPECT_EQ(out.status, ExecStatus::kOk);
  EXPECT_GT(out.NumRows(), 0u);

  // The sessions gauge drops only once the in-flight share is released.
  ASSERT_TRUE(WaitFor([&] {
    return SeriesValue(serve.metrics().Render(), "gopt_serve_sessions") == 0;
  }));
}

TEST(ServeTest, ErrorsCountInSessionStatsAndMetrics) {
  auto g = PaperGraph();
  GOptEngine engine(g.get(), BackendSpec::Neo4jLike());
  ServingEngine serve(&engine);

  auto session = serve.OpenSession({});
  EXPECT_THROW(session->RunAsync("THIS IS NOT A QUERY").get(),
               std::exception);
  EXPECT_EQ(session->RunAsync(kEdgeQ).get().status, ExecStatus::kOk);

  // Every submission lands in exactly one terminal bucket.
  SessionStats st = session->stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.errors, 1u);
  EXPECT_EQ(st.ok, 1u);
  EXPECT_EQ(st.submitted,
            st.ok + st.cancelled + st.timeout + st.rejected + st.errors);

  const std::string r = serve.metrics().Render();
  EXPECT_EQ(SeriesValue(r, "gopt_serve_queries_total{status=\"error\"}"), 1);
  EXPECT_EQ(SeriesValue(r, "gopt_serve_queries_total{status=\"ok\"}"), 1);
}

TEST(ServeTest, SessionsTargetRegisteredEngines) {
  auto g1 = PaperGraph();
  auto ldbc = GenerateLdbc(0.05, 1);
  GOptEngine e1(g1.get(), BackendSpec::Neo4jLike());
  GOptEngine e2(ldbc.graph.get(), BackendSpec::Neo4jLike());
  ServingEngine serve(&e1);
  serve.RegisterEngine("ldbc", &e2);

  SessionOptions to_ldbc;
  to_ldbc.engine = "ldbc";
  auto ldbc_session = serve.OpenSession(to_ldbc);
  auto paper_session = serve.OpenSession({});

  // The same query text lands on different graphs per session.
  const char* q = "MATCH (a:Person) RETURN a";
  EXPECT_EQ(paper_session->RunAsync(q).get().NumRows(), 4u);
  EXPECT_GT(ldbc_session->RunAsync(q).get().NumRows(), 4u);
}

// ---------------------------------------------------------------------------
// Explain integration
// ---------------------------------------------------------------------------

TEST(ServeTest, ExplainPrintsQueueWaitAndStatus) {
  auto g = PaperGraph();
  GOptEngine engine(g.get(), BackendSpec::Neo4jLike());
  Prepared prep = engine.Prepare(kEdgeQ);

  // Fabricate measurable queue wait through a held 1-worker pool.
  {
    auto ldbc = GenerateLdbc(0.05, 1);
    GOptEngine heavy_engine(ldbc.graph.get(), BackendSpec::Neo4jLike());
    ServingOptions sopts;
    sopts.worker_threads = 1;
    ServingEngine serve(&heavy_engine, sopts);
    Submission blocker = serve.Submit(kHeavyQ);
    ASSERT_TRUE(WaitFor([&] { return serve.in_flight() == 1; }));
    std::future<ExecOutcome> queued = serve.RunAsync(
        "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN p, q");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    blocker.cancel.Cancel();
    ExecOutcome out = queued.get();
    ASSERT_EQ(out.status, ExecStatus::kOk);
    EXPECT_GT(out.queue_ms, 0.0);
    Prepared hp = heavy_engine.Prepare(
        "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN p, q");
    std::string text = heavy_engine.Explain(hp, out);
    EXPECT_NE(text.find("queued"), std::string::npos)
        << "Explain must surface the admission wait:\n"
        << text;
  }

  // A typed non-ok outcome is called out (and a direct engine call with a
  // pre-expired deadline types as kTimeout without the serving layer).
  auto tok_state = std::make_shared<CancelState>();
  tok_state->set_deadline(std::chrono::steady_clock::now() -
                          std::chrono::milliseconds(10));
  ExecOutcome timed_out = engine.Execute(prep, {}, CancelToken(tok_state));
  ASSERT_EQ(timed_out.status, ExecStatus::kTimeout);
  std::string text = engine.Explain(prep, timed_out);
  EXPECT_NE(text.find("status: timeout"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Minimal exposition-format line check: `name{labels} value` with a
/// parsable numeric value and brace balance. Returns false with the
/// offending line in `why`.
bool ValidExpositionLine(const std::string& line, std::string* why) {
  size_t sp = line.rfind(' ');
  if (sp == std::string::npos || sp + 1 >= line.size()) {
    *why = "no value separator: " + line;
    return false;
  }
  const std::string value = line.substr(sp + 1);
  char* end = nullptr;
  std::strtod(value.c_str(), &end);
  if (end == value.c_str()) {
    *why = "unparsable value: " + line;
    return false;
  }
  const std::string id = line.substr(0, sp);
  size_t open = id.find('{');
  if (open == std::string::npos) {
    if (id.find('}') != std::string::npos) {
      *why = "stray brace: " + line;
      return false;
    }
  } else if (id.back() != '}') {
    *why = "unterminated label set: " + line;
    return false;
  }
  const std::string name = id.substr(0, open);
  if (name.empty() || !(std::isalpha(name[0]) || name[0] == '_')) {
    *why = "bad metric name: " + line;
    return false;
  }
  return true;
}

TEST(ServeTest, RenderIsValidExpositionAndSeriesMoveUnderStress) {
  auto ldbc = GenerateLdbc(0.05, 1);
  GOptEngine engine(ldbc.graph.get(), BackendSpec::Neo4jLike());
  ServingOptions sopts;
  sopts.worker_threads = 2;
  ServingEngine serve(&engine, sopts);

  const std::string before = serve.metrics().Render();

  // Multi-session stress: two sessions, interleaved queries.
  auto s1 = serve.OpenSession({});
  auto s2 = serve.OpenSession({});
  std::vector<std::future<ExecOutcome>> futs;
  for (int i = 0; i < 6; ++i) {
    futs.push_back(s1->RunAsync(
        "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN p, q"));
    futs.push_back(s2->RunAsync("MATCH (pl:Place) RETURN pl"));
  }
  for (auto& f : futs) EXPECT_EQ(f.get().status, ExecStatus::kOk);

  const std::string after = serve.metrics().Render();

  // Line grammar: every non-comment line is `name[{labels}] value`, every
  // family has HELP and TYPE headers before its first series.
  std::string why;
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < after.size()) {
    size_t eol = after.find('\n', start);
    if (eol == std::string::npos) eol = after.size();
    lines.push_back(after.substr(start, eol - start));
    start = eol + 1;
  }
  int series_lines = 0;
  for (const std::string& line : lines) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      continue;
    }
    ASSERT_FALSE(line[0] == '#') << "unknown comment form: " << line;
    EXPECT_TRUE(ValidExpositionLine(line, &why)) << why;
    ++series_lines;
  }
  EXPECT_GT(series_lines, 20);
  for (const char* family :
       {"gopt_serve_qps", "gopt_serve_queue_depth", "gopt_serve_inflight",
        "gopt_serve_latency_ms", "gopt_serve_queries_total",
        "gopt_plan_cache_hits", "gopt_result_cache_hit_ratio"}) {
    EXPECT_NE(after.find(std::string("# TYPE ") + family),
              std::string::npos)
        << "family missing from exposition: " << family;
  }

  // The series move: completed-query counter, latency observations, qps.
  EXPECT_EQ(SeriesValue(before, "gopt_serve_queries_total{status=\"ok\"}"),
            0);
  EXPECT_EQ(SeriesValue(after, "gopt_serve_queries_total{status=\"ok\"}"),
            12);
  EXPECT_EQ(SeriesValue(after, "gopt_serve_latency_ms_count"), 12);
  EXPECT_GT(SeriesValue(after, "gopt_serve_qps"), 0.0);
  EXPECT_GT(SeriesValue(after, "gopt_serve_sessions"), 1.0);
  // Histogram internal consistency: the +Inf bucket equals _count.
  EXPECT_EQ(SeriesValue(after, "gopt_serve_latency_ms_bucket{le=\"+Inf\"}"),
            SeriesValue(after, "gopt_serve_latency_ms_count"));
}

TEST(ServeTest, QueueDepthGaugeMovesWhileBlocked) {
  auto ldbc = GenerateLdbc(0.05, 1);
  GOptEngine engine(ldbc.graph.get(), BackendSpec::Neo4jLike());
  ServingOptions sopts;
  sopts.worker_threads = 1;
  ServingEngine serve(&engine, sopts);

  Submission blocker = serve.Submit(kHeavyQ);
  ASSERT_TRUE(WaitFor([&] { return serve.in_flight() == 1; }));
  std::future<ExecOutcome> queued = serve.RunAsync(
      "MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN p, q");
  EXPECT_EQ(serve.queue_depth(), 1u);

  const std::string held = serve.metrics().Render();
  EXPECT_EQ(SeriesValue(held, "gopt_serve_queue_depth"), 1);
  EXPECT_EQ(SeriesValue(held, "gopt_serve_inflight"), 1);

  blocker.cancel.Cancel();
  EXPECT_EQ(blocker.result.get().status, ExecStatus::kCancelled);
  EXPECT_EQ(queued.get().status, ExecStatus::kOk);
  // The future resolves before the worker returns to its loop and drops
  // the in-flight count — wait for the bookkeeping, then render.
  ASSERT_TRUE(WaitFor([&] { return serve.in_flight() == 0; }));

  const std::string drained = serve.metrics().Render();
  EXPECT_EQ(SeriesValue(drained, "gopt_serve_queue_depth"), 0);
  EXPECT_EQ(SeriesValue(drained, "gopt_serve_inflight"), 0);
  EXPECT_EQ(
      SeriesValue(drained, "gopt_serve_admission_rejected_total"), 0);
}

TEST(ServeTest, RejectionsCountInMetrics) {
  auto ldbc = GenerateLdbc(0.05, 1);
  GOptEngine engine(ldbc.graph.get(), BackendSpec::Neo4jLike());
  ServingOptions sopts;
  sopts.worker_threads = 1;
  sopts.max_queue = 1;
  ServingEngine serve(&engine, sopts);

  Submission blocker = serve.Submit(kHeavyQ);
  ASSERT_TRUE(WaitFor([&] { return serve.in_flight() == 1; }));
  std::future<ExecOutcome> fill = serve.RunAsync(kLdbcEdgeQ);
  ExecOutcome rejected = serve.RunAsync(kLdbcEdgeQ).get();
  EXPECT_EQ(rejected.status, ExecStatus::kRejected);

  const std::string r = serve.metrics().Render();
  EXPECT_EQ(SeriesValue(r, "gopt_serve_admission_rejected_total"), 1);
  EXPECT_EQ(SeriesValue(r, "gopt_serve_queries_total{status=\"rejected\"}"),
            1);

  blocker.cancel.Cancel();
  blocker.result.get();
  fill.get();
}

TEST(ServeTest, SharedRegistryInstanceLabelsKeepEnginesDistinct) {
  // Two ServingEngines injecting one registry: with distinct instance
  // labels their serve-level series stay separate instead of resolving to
  // the same gauges (where the last collector to run would clobber the
  // other's values).
  auto g = PaperGraph();
  GOptEngine e1(g.get(), BackendSpec::Neo4jLike());
  GOptEngine e2(g.get(), BackendSpec::Neo4jLike());
  auto registry = std::make_shared<MetricsRegistry>();

  ServingOptions o1;
  o1.metrics = registry;
  o1.instance = "alpha";
  o1.worker_threads = 1;
  ServingOptions o2;
  o2.metrics = registry;
  o2.instance = "beta";
  o2.worker_threads = 3;
  ServingEngine s1(&e1, o1);
  ServingEngine s2(&e2, o2);

  EXPECT_EQ(s1.RunAsync(kEdgeQ).get().status, ExecStatus::kOk);

  const std::string r = registry->Render();
  EXPECT_EQ(SeriesValue(r, "gopt_serve_workers{instance=\"alpha\"}"), 1);
  EXPECT_EQ(SeriesValue(r, "gopt_serve_workers{instance=\"beta\"}"), 3);
  EXPECT_EQ(SeriesValue(
                r, "gopt_serve_queries_total{instance=\"alpha\",status=\"ok\"}"),
            1);
  EXPECT_EQ(SeriesValue(
                r, "gopt_serve_queries_total{instance=\"beta\",status=\"ok\"}"),
            0);
  // Per-engine cache series split too.
  EXPECT_NE(r.find("gopt_plan_cache_hits{engine=\"default\",instance=\"alpha\"}"),
            std::string::npos);
  EXPECT_NE(r.find("gopt_plan_cache_hits{engine=\"default\",instance=\"beta\"}"),
            std::string::npos);
}

TEST(ServeTest, SharedRegistryOutlivesEngineWithoutDanglingCollectors) {
  // Regression: ~ServingEngine left its collectors registered on an
  // injected registry; the per-engine cache collector captures a raw
  // GOptEngine*, so rendering after the engine died dereferenced freed
  // memory. Collectors are now unregistered in the destructor and the
  // series render their frozen last-collected values (ASan job would
  // catch a regression).
  auto registry = std::make_shared<MetricsRegistry>();
  auto g = PaperGraph();
  {
    GOptEngine engine(g.get(), BackendSpec::Neo4jLike());
    ServingOptions sopts;
    sopts.metrics = registry;
    ServingEngine serve(&engine, sopts);
    EXPECT_EQ(serve.RunAsync(kEdgeQ).get().status, ExecStatus::kOk);
    EXPECT_EQ(SeriesValue(registry->Render(),
                          "gopt_serve_queries_total{status=\"ok\"}"),
              1);
  }
  // Engine and ServingEngine are gone; the registry still renders the
  // frozen counters without touching them.
  const std::string after = registry->Render();
  EXPECT_EQ(SeriesValue(after, "gopt_serve_queries_total{status=\"ok\"}"), 1);
  EXPECT_NE(after.find("gopt_plan_cache_hits"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Options-shape guards
// ---------------------------------------------------------------------------

TEST(ServeTest, ServingOptionsShapeGuard) {
  // Structured-binding arity pin, mirroring the OptionsFingerprint guard
  // in tests/options_fingerprint_test.cc: adding a field to these structs
  // breaks this binding, forcing the author to decide where it belongs.
  // ServingOptions fields are deliberately NOT fingerprinted — none of
  // them affect produced plans — so a new knob either stays here or, if
  // plan-affecting, must move to EngineOptions and its fingerprint.
  ServingOptions so;
  auto& [workers, max_queue, admission, default_budget, metrics, instance] =
      so;
  (void)workers;
  (void)max_queue;
  (void)admission;
  (void)metrics;
  (void)instance;
  QueryBudget& qb = default_budget;
  auto& [time_ms, max_rows] = qb;
  (void)time_ms;
  (void)max_rows;
}

}  // namespace
}  // namespace gopt
