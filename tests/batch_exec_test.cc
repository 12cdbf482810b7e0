// Differential suite for the morsel-driven batch runtime: every bundled
// workload query runs through the batch runtime at exec_threads 1 and 4
// and must produce the same rows, and the one-thread runtime is checked
// against the distributed executor at one worker; plus unit
// coverage for Batch row round-trips, selection-vector edge cases,
// pipeline decomposition, the work-stealing morsel queue, and
// ExecStats::rows_produced parity across both runtimes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/engine/engine.h"
#include "src/exec/morsel.h"
#include "src/exec/pipeline.h"
#include "src/ldbc/ldbc.h"
#include "src/opt/factorization.h"
#include "src/workloads/queries.h"

namespace gopt {
namespace {

class BatchExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ldbc_ = new LdbcGraph(GenerateLdbc(0.05, 123));
    glogue_ = new std::shared_ptr<const Glogue>(
        std::make_shared<Glogue>(Glogue::Build(*ldbc_->graph)));
  }
  static void TearDownTestSuite() {
    delete glogue_;
    delete ldbc_;
    ldbc_ = nullptr;
    glogue_ = nullptr;
  }

  static std::string Q(const std::string& text) {
    return SubstituteParams(text, DefaultParams());
  }

  // GOptEngine is neither movable nor copyable (it owns mutexes), so the
  // factory hands back a unique_ptr.
  static std::unique_ptr<GOptEngine> MakeEngine(int exec_threads) {
    EngineOptions opts;
    opts.exec_threads = exec_threads;
    auto e = std::make_unique<GOptEngine>(ldbc_->graph.get(),
                                          BackendSpec::Neo4jLike(), opts);
    e->SetGlogue(*glogue_);
    return e;
  }

  static LdbcGraph* ldbc_;
  static std::shared_ptr<const Glogue>* glogue_;
};

LdbcGraph* BatchExecTest::ldbc_ = nullptr;
std::shared_ptr<const Glogue>* BatchExecTest::glogue_ = nullptr;

// ---------------------------------------------------------------------------
// Batch unit tests
// ---------------------------------------------------------------------------

Row MixedRow(int64_t i) {
  return Row{Value(VertexRef{static_cast<VertexId>(i)}), Value(i),
             Value(static_cast<double>(i) * 0.5), Value("s" + std::to_string(i)),
             Value::List({Value(i), Value(i + 1)})};
}

TEST(BatchTest, RowRoundTripIsLossless) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back(MixedRow(i));
  Batch b = Batch::FromRows(rows, 5);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(b.num_cols(), 5u);
  std::vector<Row> back = b.ToRows();
  ASSERT_EQ(back.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(back[i], rows[i]);
}

TEST(BatchTest, EmptyBatchRoundTrip) {
  Batch b = Batch::FromRows({}, 3);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_FALSE(b.has_selection());
  EXPECT_TRUE(b.ToRows().empty());
  b.Flatten();  // no-op without a selection
  EXPECT_EQ(b.num_cols(), 3u);
}

TEST(BatchTest, SelectionVectorFiltersAndReorders) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 6; ++i) rows.push_back(MixedRow(i));
  Batch b = Batch::FromRows(rows, 5);
  b.SetSelection({4, 1, 3});
  EXPECT_TRUE(b.has_selection());
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.num_phys_rows(), 6u);
  EXPECT_EQ(b.At(0, 1), Value(static_cast<int64_t>(4)));
  std::vector<Row> out = b.ToRows();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], rows[4]);
  EXPECT_EQ(out[1], rows[1]);
  EXPECT_EQ(out[2], rows[3]);
  // Flatten compacts to the selected rows, same order, selection gone.
  b.Flatten();
  EXPECT_FALSE(b.has_selection());
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.num_phys_rows(), 3u);
  EXPECT_EQ(b.ToRows(), out);
}

TEST(BatchTest, AllFilteredBatchIsActiveEmptySelection) {
  std::vector<Row> rows = {MixedRow(0), MixedRow(1)};
  Batch b = Batch::FromRows(rows, 5);
  b.SetSelection({});  // every row filtered out
  EXPECT_TRUE(b.has_selection());
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.num_phys_rows(), 2u);  // physical rows still there...
  EXPECT_TRUE(b.ToRows().empty());   // ...but none active
  b.Flatten();
  EXPECT_EQ(b.num_phys_rows(), 0u);
}

TEST(BatchTest, BatchesFromRowsSplitsAtGranularity) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back(Row{Value(i)});
  std::vector<Batch> bs = BatchesFromRows(rows, 1, 4);
  ASSERT_EQ(bs.size(), 3u);
  EXPECT_EQ(bs[0].size(), 4u);
  EXPECT_EQ(bs[1].size(), 4u);
  EXPECT_EQ(bs[2].size(), 2u);
  EXPECT_EQ(TotalBatchRows(bs), 10u);
  EXPECT_EQ(RowsFromBatches(bs), rows);
}

// ---------------------------------------------------------------------------
// Morsel queue
// ---------------------------------------------------------------------------

TEST(MorselQueueTest, EveryMorselClaimedExactlyOnce) {
  constexpr size_t kTotal = 1000;
  constexpr int kWorkers = 4;
  MorselQueue q(kTotal, kWorkers);
  std::vector<std::atomic<int>> claimed(kTotal);
  for (auto& c : claimed) c.store(0);
  std::vector<std::thread> pool;
  for (int w = 0; w < kWorkers; ++w) {
    pool.emplace_back([&, w] {
      size_t idx;
      while (q.Next(w, &idx)) claimed[idx].fetch_add(1);
    });
  }
  for (auto& t : pool) t.join();
  for (size_t i = 0; i < kTotal; ++i) EXPECT_EQ(claimed[i].load(), 1) << i;
}

TEST(MorselQueueTest, EmptyQueueReturnsFalse) {
  MorselQueue q(0, 3);
  size_t idx;
  EXPECT_FALSE(q.Next(0, &idx));
  EXPECT_FALSE(q.Next(2, &idx));
}

// ---------------------------------------------------------------------------
// Pipeline decomposition
// ---------------------------------------------------------------------------

TEST_F(BatchExecTest, BreakersSplitPipelines) {
  auto engine = MakeEngine(4);
  auto prep = engine->Prepare(
      "MATCH (p:Person)-[:KNOWS]->(q:Person) "
      "RETURN p.id AS i, COUNT(q) AS c ORDER BY c DESC, i ASC");
  PipelinePlan plan = BuildPipelinePlan(prep.physical);
  ASSERT_GE(plan.pipelines.size(), 2u);
  // The root pipeline is last and materializes the plan root.
  EXPECT_EQ(plan.ProducerOf(prep.physical.get()),
            static_cast<int>(plan.pipelines.size()) - 1);
  // Some pipeline ends in the aggregate, a later one in the sort.
  bool saw_group = false, saw_order = false;
  for (const Pipeline& p : plan.pipelines) {
    if (p.sink->kind == PhysOpKind::kAggregate) saw_group = true;
    if (p.sink->kind == PhysOpKind::kOrder) {
      EXPECT_TRUE(saw_group) << "sort pipeline must follow the aggregate";
      saw_order = true;
    }
    for (int d : p.deps) EXPECT_LT(d, p.id) << "deps precede the pipeline";
  }
  EXPECT_TRUE(saw_group);
  EXPECT_TRUE(saw_order);
  EXPECT_NE(plan.ToString().find("=> Group"), std::string::npos)
      << plan.ToString();
}

TEST_F(BatchExecTest, JoinBuildSideIsADependencyPipeline) {
  auto engine = MakeEngine(4);
  auto prep = engine->Prepare(
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WITH a, b "
      "MATCH (b)-[:HAS_INTEREST]->(t:Tag) RETURN a, t");
  PipelinePlan plan = BuildPipelinePlan(prep.physical);
  // Find a pipeline with a HashJoin probe stage; its build side must be
  // produced by an earlier pipeline it depends on.
  bool saw_probe = false;
  for (const Pipeline& p : plan.pipelines) {
    for (const PhysOp* op : p.ops) {
      if (op->kind != PhysOpKind::kHashJoin) continue;
      saw_probe = true;
      const int build = plan.ProducerOf(op->children[1].get());
      ASSERT_GE(build, 0);
      EXPECT_LT(build, p.id);
      bool dep_listed = false;
      for (int d : p.deps) dep_listed |= (d == build);
      EXPECT_TRUE(dep_listed);
    }
  }
  // The CBO may or may not pick a hash join for this shape; if it did,
  // the build-side contract above was checked. Either way the plan must
  // decompose and the Explain section must render.
  EXPECT_FALSE(plan.pipelines.empty());
  std::string explain = engine->Explain(prep);
  EXPECT_NE(explain.find("=== Pipelines (morsel runtime) ==="),
            std::string::npos);
  (void)saw_probe;
}

// ---------------------------------------------------------------------------
// Differential: every bundled workload at one and four threads
// ---------------------------------------------------------------------------

void ExpectRuntimesAgree(GOptEngine& seq, GOptEngine& par,
                         const std::string& query, const std::string& name) {
  ExecOutcome a, b;
  ASSERT_NO_THROW(a = seq.Run(query)) << name << ": " << query;
  ASSERT_NO_THROW(b = par.Run(query)) << name << ": " << query;
  // The morsel runtime reassembles morsel outputs in source order, so
  // results match the one-thread run exactly — including sort
  // tie-breaks, which makes SameRows safe even under ORDER/LIMIT.
  EXPECT_TRUE(a.SameRows(b)) << name << ": seq=" << a.NumRows()
                             << " morsel=" << b.NumRows();
  EXPECT_EQ(a.stats.rows_produced, b.stats.rows_produced)
      << name << ": rows_produced parity";
}

TEST_F(BatchExecTest, DifferentialAllWorkloadsFourThreads) {
  auto seq = MakeEngine(1);
  auto par = MakeEngine(4);
  for (const auto* set : {&IcQueries(), &BiQueries(), &QrQueries(),
                          &QtQueries(), &QcQueries()}) {
    for (const auto& wq : *set) {
      ExpectRuntimesAgree(*seq, *par, Q(wq.cypher), wq.name);
    }
  }
}

TEST_F(BatchExecTest, DifferentialMorselSingleThread) {
  // The batch runtime at one thread (the engine's default single-machine
  // path) must match the distributed executor at one worker. Both run the
  // same batch kernels, so this compares the two schedulers: pipelines of
  // morsels against operator-at-a-time steps over whole materialized
  // inputs. The references that do not share the kernels are
  // `vectorize = false` (tests/vectorized_exec_test.cc) and NaiveMatch
  // (tests/executor_property_test.cc).
  auto seq = MakeEngine(1);
  auto store =
      PartitionedGraph::Build(ldbc_->graph.get(), PartitionPolicy::kHash, 1);
  for (const auto* set : {&QcQueries(), &QrQueries()}) {
    for (const auto& wq : *set) {
      auto prep = seq->Prepare(Q(wq.cypher));
      ASSERT_FALSE(prep.invalid) << wq.name;
      ParamMap bound = prep.params;

      DistributedExecutor row_ex(*store);
      row_ex.set_params(&bound);
      ResultTable want = row_ex.Execute(prep.physical);

      MorselOptions mopts;
      mopts.threads = 1;
      MorselExecutor batch_ex(ldbc_->graph.get(), mopts);
      batch_ex.set_params(&bound);
      ResultTable got = batch_ex.Execute(prep.physical);

      EXPECT_TRUE(want.SameRows(got))
          << wq.name << ": row=" << want.NumRows()
          << " batch=" << got.NumRows();
      EXPECT_EQ(row_ex.stats().rows_produced, batch_ex.stats().rows_produced)
          << wq.name;
    }
  }
}

TEST_F(BatchExecTest, DifferentialStPathQuery) {
  auto fraud = GenerateFraud(2000, 4.0, 9);
  EngineOptions seq_opts;
  GOptEngine seq(fraud.graph.get(), BackendSpec::Neo4jLike(), seq_opts);
  EngineOptions par_opts;
  par_opts.exec_threads = 4;
  GOptEngine par(fraud.graph.get(), BackendSpec::Neo4jLike(), par_opts);
  std::string q = StQuery(4, {1, 2, 3}, {10, 11});
  ExecOutcome a = seq.Run(q);
  ExecOutcome b = par.Run(q);
  EXPECT_TRUE(a.SameRows(b));
  EXPECT_EQ(a.stats.rows_produced, b.stats.rows_produced);
}

TEST_F(BatchExecTest, MorselRuntimeRunsExpandIntersectPlans) {
  // Plans lowered for the GraphScope-like backend may contain WCOJ
  // ExpandIntersect steps, which Neo4j-like plans never do. The morsel
  // runtime implements the full repertoire regardless — compare it
  // against the distributed executor on those very plans.
  GOptEngine gs(ldbc_->graph.get(), BackendSpec::GraphScopeLike(4));
  gs.SetGlogue(*glogue_);
  auto store =
      PartitionedGraph::Build(ldbc_->graph.get(), PartitionPolicy::kHash, 4);
  for (const auto& wq : QcQueries()) {
    auto prep = gs.Prepare(Q(wq.cypher));
    ASSERT_FALSE(prep.invalid) << wq.name;
    ParamMap bound = prep.params;

    DistributedExecutor dist(*store);
    dist.set_params(&bound);
    ResultTable want = dist.Execute(prep.physical);

    MorselOptions mopts;
    mopts.threads = 4;
    MorselExecutor batch_ex(ldbc_->graph.get(), mopts);
    batch_ex.set_params(&bound);
    ResultTable got = batch_ex.Execute(prep.physical);

    EXPECT_TRUE(want.SameRows(got))
        << wq.name << ": dist=" << want.NumRows()
        << " batch=" << got.NumRows();
    EXPECT_EQ(dist.stats().rows_produced, batch_ex.stats().rows_produced)
        << wq.name << ": rows_produced parity (dist vs batch)";
  }
}

// ---------------------------------------------------------------------------
// Hash join: the batch-native table against a nested-loop reference
// ---------------------------------------------------------------------------

const char* JoinKindLabel(JoinKind k) {
  switch (k) {
    case JoinKind::kInner: return "inner";
    case JoinKind::kLeftOuter: return "left-outer";
    case JoinKind::kSemi: return "semi";
    case JoinKind::kAnti: return "anti";
  }
  return "?";
}

constexpr JoinKind kAllJoinKinds[] = {JoinKind::kInner, JoinKind::kLeftOuter,
                                      JoinKind::kSemi, JoinKind::kAnti};

Value I(int64_t x) { return Value(x); }

/// Probe-side rows (k0, l, u): join keys mixing ints, doubles equal to
/// ints (2 vs 2.0), nulls, strings and vertex refs.
std::vector<Row> JoinProbeRows() {
  const Value keys[] = {I(1),    Value(2.0), Value(),     Value("s"),
                        I(2),    Value(VertexRef{1}), I(3), Value(1.0),
                        Value(), I(2)};
  const Value us[] = {I(7), Value(7.0), Value(), I(8), I(9)};
  std::vector<Row> rows;
  for (int64_t i = 0; i < 14; ++i) {
    rows.push_back(Row{keys[i % 10], I(100 + i), us[i % 5]});
  }
  return rows;
}

/// Build-side rows (k0, u, r) with duplicate keys, so one probe row meets
/// several matches — interleaved, to check build order is kept per key.
std::vector<Row> JoinBuildRows() {
  const Value keys[] = {I(2),   Value(1.0), Value(),    Value("s"),
                        I(9),   Value(VertexRef{1}),    Value(2.0),
                        I(1),   Value(),    Value("t")};
  const Value us[] = {Value(7.0), I(8), Value(), I(7)};
  std::vector<Row> rows;
  for (int64_t i = 0; i < 13; ++i) {
    rows.push_back(Row{keys[i % 10], us[i % 4], I(500 + i)});
  }
  return rows;
}

/// The probe layout (k0, l, u) and a build layout whose first `nkeys`
/// columns are the join keys k0, u; the others get build-only names.
std::vector<std::string> BuildCols(size_t nkeys) {
  return {nkeys > 0 ? "k0" : "bk0", nkeys > 1 ? "u" : "bu", "r"};
}

PhysOpPtr LayoutOp(std::vector<std::string> cols) {
  auto op = std::make_shared<PhysOp>(PhysOpKind::kCachedScan);
  op->out_cols = std::move(cols);
  return op;
}

/// A HashJoin over (probe, build) on the first `nkeys` of {k0, u}. Inner
/// and left-outer joins append the build's non-key columns.
PhysOpPtr MakeJoin(JoinKind kind, size_t nkeys, PhysOpPtr probe,
                   PhysOpPtr build) {
  auto join = std::make_shared<PhysOp>(PhysOpKind::kHashJoin);
  join->join_kind = kind;
  const std::vector<std::string> keys = {"k0", "u"};
  join->join_keys.assign(keys.begin(), keys.begin() + nkeys);
  join->out_cols = probe->out_cols;
  if (kind == JoinKind::kInner || kind == JoinKind::kLeftOuter) {
    for (const auto& c : build->out_cols) {
      if (std::find(join->join_keys.begin(), join->join_keys.end(), c) ==
          join->join_keys.end()) {
        join->out_cols.push_back(c);
      }
    }
  }
  join->children = {std::move(probe), std::move(build)};
  return join;
}

/// Nested-loop reference over Value::operator==: probe rows in order, each
/// probe row's matches in build order.
std::vector<Row> NestedLoopJoin(const PhysOp& join,
                                const std::vector<Row>& probe,
                                const std::vector<Row>& build) {
  const auto& lcols = join.children[0]->out_cols;
  const auto& rcols = join.children[1]->out_cols;
  auto index_of = [](const std::vector<std::string>& cols,
                     const std::string& c) {
    return static_cast<size_t>(std::find(cols.begin(), cols.end(), c) -
                               cols.begin());
  };
  std::vector<size_t> app;
  for (size_t c = lcols.size(); c < join.out_cols.size(); ++c) {
    app.push_back(index_of(rcols, join.out_cols[c]));
  }
  std::vector<Row> out;
  for (const Row& l : probe) {
    std::vector<const Row*> matches;
    for (const Row& r : build) {
      bool eq = true;
      for (const auto& k : join.join_keys) {
        eq = eq && l[index_of(lcols, k)] == r[index_of(rcols, k)];
      }
      if (eq) matches.push_back(&r);
    }
    auto emit = [&](const Row* r) {
      Row o = l;
      for (size_t a : app) {
        if (r != nullptr) {
          o.push_back((*r)[a]);
        } else {
          o.emplace_back();
        }
      }
      out.push_back(std::move(o));
    };
    switch (join.join_kind) {
      case JoinKind::kInner:
        for (const Row* r : matches) emit(r);
        break;
      case JoinKind::kLeftOuter:
        for (const Row* r : matches) emit(r);
        if (matches.empty()) emit(nullptr);
        break;
      case JoinKind::kSemi:
        if (!matches.empty()) out.push_back(l);
        break;
      case JoinKind::kAnti:
        if (matches.empty()) out.push_back(l);
        break;
    }
  }
  return out;
}

/// `rows` with every column from `from` on read as null — what a lazy
/// join's elided build columns read as.
std::vector<Row> NullFrom(std::vector<Row> rows, size_t from) {
  for (Row& r : rows) {
    for (size_t c = from; c < r.size(); ++c) r[c] = Value();
  }
  return rows;
}

/// The probe rows as a factorized batch: (k0, l) group-backed, one group
/// per run of equal k0 (a run of 1 otherwise), u per row.
Batch FactorizedProbe(const std::vector<Row>& rows) {
  Batch b(3);
  b.InitFactorized({1, 1, 0});
  size_t i = 0;
  while (i < rows.size()) {
    size_t j = i + 1;
    while (j < rows.size() && j - i < 3 && rows[j][0] == rows[i][0] &&
           rows[j][0].kind() == rows[i][0].kind() && rows[j][1] == rows[i][1]) {
      ++j;
    }
    b.gcol(0).push_back(rows[i][0]);
    b.gcol(1).push_back(rows[i][1]);
    for (size_t k = i; k < j; ++k) b.col(2).push_back(rows[k][2]);
    b.CloseGroup(static_cast<uint32_t>(j - i));
    i = j;
  }
  return b;
}

TEST_F(BatchExecTest, HashJoinKernelMatchesNestedLoop) {
  Kernels k(ldbc_->graph.get());
  // Factorized probe rows must share (k0, l) within a group: give three
  // consecutive rows one (k0, l) so the batch really has multi-row runs.
  std::vector<Row> probe = JoinProbeRows();
  for (size_t i : {4, 5}) {
    probe[i][0] = probe[3][0];
    probe[i][1] = probe[3][1];
  }
  const std::vector<Row> build = JoinBuildRows();
  const std::vector<uint32_t> sel = {13, 0, 4, 2, 5, 3, 9, 11};
  std::vector<Row> selected;
  for (uint32_t p : sel) selected.push_back(probe[p]);

  for (size_t nkeys : {0, 1, 2}) {
    // Build batches: flat, flat under a selection, and factorized.
    std::vector<Batch> right;
    right.push_back(Batch::FromRows({build.begin(), build.begin() + 4}, 3));
    Batch sel_batch =
        Batch::FromRows({build.begin() + 4, build.begin() + 8}, 3);
    sel_batch.SetSelection({0, 2, 1, 3});
    right.push_back(std::move(sel_batch));
    Batch fact_build(3);
    fact_build.InitFactorized({1, 0, 0});
    for (size_t i = 8; i < build.size(); ++i) {
      fact_build.gcol(0).push_back(build[i][0]);
      fact_build.col(1).push_back(build[i][1]);
      fact_build.col(2).push_back(build[i][2]);
      fact_build.CloseGroup(1);
    }
    right.push_back(std::move(fact_build));
    std::vector<Row> build_order;
    for (const Batch& b : right) b.AppendRowsTo(&build_order);

    for (JoinKind kind : kAllJoinKinds) {
      auto join = MakeJoin(kind, nkeys, LayoutOp({"k0", "l", "u"}),
                           LayoutOp(BuildCols(nkeys)));
      SCOPED_TRACE(std::string(JoinKindLabel(kind)) + " keys=" +
                   std::to_string(nkeys));
      const std::vector<Row> want = NestedLoopJoin(*join, probe, build_order);
      const std::vector<Row> want_sel =
          NestedLoopJoin(*join, selected, build_order);
      // (A keyless anti join keeps nothing: every probe row matches.)
      ASSERT_EQ(want.empty(), kind == JoinKind::kAnti && nkeys == 0);

      const JoinHashTable eager = k.BuildJoinTable(*join, right);
      const JoinHashTable lazy = k.BuildJoinTable(*join, right, true);
      Batch flat = Batch::FromRows(probe, 3);
      Batch flat_sel = Batch::FromRows(probe, 3);
      flat_sel.SetSelection(sel);
      Batch fact = FactorizedProbe(probe);
      ASSERT_GT(fact.num_groups(), 0u);
      ASSERT_LT(fact.num_groups(), probe.size());
      ASSERT_EQ(fact.ToRows(), probe);
      Batch fact_sel = FactorizedProbe(probe);
      fact_sel.SetSelection(sel);

      for (bool factorize : {false, true}) {
        SCOPED_TRACE(factorize ? "factorized emission" : "flat emission");
        EXPECT_EQ(k.JoinProbeBatch(*join, flat, eager, factorize).ToRows(),
                  want);
        EXPECT_EQ(k.JoinProbeBatch(*join, fact, eager, factorize).ToRows(),
                  want);
        EXPECT_EQ(
            k.JoinProbeBatch(*join, flat_sel, eager, factorize).ToRows(),
            want_sel);
        EXPECT_EQ(
            k.JoinProbeBatch(*join, fact_sel, eager, factorize).ToRows(),
            want_sel);
      }
      // Lazy: the same logical rows, build columns elided to null.
      const size_t nl = join->children[0]->out_cols.size();
      Batch lz = k.JoinProbeBatch(*join, fact, lazy);
      EXPECT_EQ(lz.size(), want.size());
      EXPECT_EQ(lz.ToRows(), NullFrom(want, nl));
      EXPECT_EQ(k.JoinProbeBatch(*join, flat_sel, lazy).ToRows(),
                NullFrom(want_sel, nl));
      if (kind == JoinKind::kInner || kind == JoinKind::kLeftOuter) {
        // One group per emitting probe row, however many matches.
        EXPECT_LE(lz.num_groups(), probe.size());
        EXPECT_EQ(lz.materialized_tuples(), lz.num_groups());
      }
      // An empty build side: no batches at all, or only empty ones.
      const std::vector<Row> want_empty = NestedLoopJoin(*join, probe, {});
      std::vector<Batch> empty_batch;
      empty_batch.push_back(Batch::FromRows({}, 3));
      for (const auto& none : {std::vector<Batch>{}, empty_batch}) {
        const JoinHashTable empty = k.BuildJoinTable(*join, none);
        EXPECT_EQ(k.JoinProbeBatch(*join, fact, empty, true).ToRows(),
                  want_empty);
      }
    }
  }
}

/// Runs `root` on the morsel runtime at `threads` workers in `mode`, with
/// tiny morsels and batches so every pipeline spans several of each.
ResultTable RunMorsel(const PropertyGraph* g, const PhysOpPtr& root,
                      int threads, FactorizationMode mode,
                      std::string* pipelines = nullptr) {
  MorselOptions mopts;
  mopts.threads = threads;
  mopts.factorization = mode;
  mopts.morsel_rows = 3;
  mopts.batch_rows = 2;
  MorselExecutor ex(g, mopts);
  if (pipelines != nullptr) {
    PipelinePlan plan = BuildPipelinePlan(root);
    ChooseFactorization(&plan, mode);
    *pipelines = plan.ToString();
    return ex.Execute(root, &plan);
  }
  return ex.Execute(root);
}

TEST_F(BatchExecTest, HashJoinRuntimesMatchNestedLoop) {
  // Probe pipeline: cached (k0, l, lst) -> Unfold(lst AS u) -> HashJoin. In
  // a factorized pipeline the unfold emits groups, so the join probes a
  // factorized input; under a COUNT sink the chooser marks it lazy.
  const std::vector<Row> base = JoinProbeRows();
  std::vector<Row> cached;
  for (size_t i = 0; i < base.size(); i += 2) {
    // Two consecutive u values per list (the second list may be empty).
    std::vector<Value> lst = {base[i][2]};
    if (i + 1 < base.size()) lst.push_back(base[i + 1][2]);
    if (i % 6 == 4) lst.clear();
    cached.push_back(Row{base[i][0], base[i][1], Value::List(lst)});
  }
  std::vector<Row> unfolded;
  for (const Row& r : cached) {
    for (const Value& u : r[2].AsList()) {
      unfolded.push_back(Row{r[0], r[1], r[2], u});
    }
  }
  const std::vector<Row> build = JoinBuildRows();
  const PropertyGraph* g = ldbc_->graph.get();
  Kernels ref(g);

  for (size_t nkeys : {0, 1, 2}) {
    for (JoinKind kind : kAllJoinKinds) {
      SCOPED_TRACE(std::string(JoinKindLabel(kind)) + " keys=" +
                   std::to_string(nkeys));
      auto scan = LayoutOp({"k0", "l", "lst"});
      scan->cached_rows = std::make_shared<const std::vector<Row>>(cached);
      auto unfold = std::make_shared<PhysOp>(PhysOpKind::kUnfold);
      unfold->children = {scan};
      unfold->unfold_tag = "lst";
      unfold->unfold_alias = "u";
      unfold->out_cols = {"k0", "l", "lst", "u"};
      auto bscan = LayoutOp(BuildCols(nkeys));
      bscan->cached_rows = std::make_shared<const std::vector<Row>>(build);
      auto join = MakeJoin(kind, nkeys, unfold, bscan);

      auto count = std::make_shared<PhysOp>(PhysOpKind::kAggregate);
      count->children = {join};
      count->group_keys = {ProjectItem{Expr::MakeVar("l"), "l"}};
      count->aggs = {AggCall{AggFunc::kCount, nullptr, "n"}};
      count->out_cols = {"l", "n"};

      // A sink reading an appended column: the join must stay eager.
      const bool fan_out =
          kind == JoinKind::kInner || kind == JoinKind::kLeftOuter;
      auto by_r = std::make_shared<PhysOp>(PhysOpKind::kAggregate);
      by_r->children = {join};
      by_r->group_keys = {ProjectItem{Expr::MakeVar("r"), "r"}};
      by_r->aggs = {AggCall{AggFunc::kCount, nullptr, "n"}};
      by_r->out_cols = {"r", "n"};

      const std::vector<Row> want = NestedLoopJoin(*join, unfolded, build);
      const std::vector<Row> want_count = ref.Aggregate(*count, want);

      for (FactorizationMode mode :
           {FactorizationMode::kOff, FactorizationMode::kOn}) {
        for (int threads : {1, 2, 4}) {
          SCOPED_TRACE("threads=" + std::to_string(threads) + " factorized=" +
                       std::to_string(mode == FactorizationMode::kOn));
          EXPECT_EQ(RunMorsel(g, join, threads, mode).rows, want);
          std::string pipes;
          EXPECT_EQ(RunMorsel(g, count, threads, mode, &pipes).rows,
                    want_count);
          EXPECT_EQ(pipes.find("HashJoin[lazy]") != std::string::npos,
                    fan_out && mode == FactorizationMode::kOn)
              << pipes;
          if (fan_out) {
            EXPECT_EQ(RunMorsel(g, by_r, threads, mode, &pipes).rows,
                      ref.Aggregate(*by_r, want));
            EXPECT_EQ(pipes.find("[lazy]"), std::string::npos) << pipes;
          }
        }
      }
      for (int workers : {1, 2}) {
        auto store =
            PartitionedGraph::Build(g, PartitionPolicy::kHash, workers);
        DistributedExecutor dist(*store);
        ResultTable got = dist.Execute(join);
        ResultTable ref_table;
        ref_table.columns = join->out_cols;
        ref_table.rows = want;
        EXPECT_TRUE(ref_table.SameRows(got)) << "dist workers=" << workers;
        DistributedExecutor dist_count(*store);
        ResultTable got_count = dist_count.Execute(count);
        ResultTable ref_count;
        ref_count.columns = count->out_cols;
        ref_count.rows = want_count;
        EXPECT_TRUE(ref_count.SameRows(got_count))
            << "dist count workers=" << workers;
      }
    }
  }
}

TEST_F(BatchExecTest, StPathJoinMatchesUnoptimizedPlan) {
  // The benchmark's s-t shape (k = 6): the CBO meets two expansion
  // frontiers in a lazy hash join under COUNT(*); the user-order plan
  // expands one direction only. Both must count the same paths at every
  // worker count.
  // The user-order plan filters only after expanding every path, so the
  // graph stays small.
  auto fraud = GenerateFraud(300, 3.0, 3);
  auto glogue = std::make_shared<const Glogue>(Glogue::Build(*fraud.graph));
  const std::vector<std::pair<std::vector<int64_t>, std::vector<int64_t>>>
      cases = {{{1, 2}, {10, 11, 12, 13, 14, 15, 16, 17}},
               {{3, 4, 5, 6, 7, 8}, {20, 21, 22, 23, 24, 25}},
               {{30, 31, 32, 33, 34, 35, 36, 37}, {40}}};
  EngineOptions noopt_opts;
  noopt_opts.mode = PlannerMode::kNoOpt;
  GOptEngine noopt(fraud.graph.get(), BackendSpec::Neo4jLike(), noopt_opts);
  noopt.SetGlogue(glogue);
  std::vector<ExecOutcome> want;
  bool any_paths = false;
  for (const auto& [s1, s2] : cases) {
    want.push_back(noopt.Run(StQuery(6, s1, s2)));
    ASSERT_EQ(want.back().NumRows(), 1u);
    any_paths |= !(want.back().table().rows[0][0] == Value(int64_t{0}));
  }
  EXPECT_TRUE(any_paths) << "the cases must count some paths";
  bool saw_lazy_join = false;
  for (int threads : {1, 2, 4}) {
    EngineOptions opts;
    opts.exec_threads = threads;
    GOptEngine gopt(fraud.graph.get(), BackendSpec::Neo4jLike(), opts);
    gopt.SetGlogue(glogue);
    for (size_t i = 0; i < cases.size(); ++i) {
      const std::string q = StQuery(6, cases[i].first, cases[i].second);
      auto prep = gopt.Prepare(q);
      ExecOutcome got = gopt.Execute(prep);
      ASSERT_EQ(got.status, ExecStatus::kOk) << q;
      EXPECT_TRUE(want[i].SameRows(got)) << q;
      saw_lazy_join = saw_lazy_join ||
                      gopt.Explain(prep).find("HashJoin[lazy]") !=
                          std::string::npos;
    }
  }
  EXPECT_TRUE(saw_lazy_join);
}

// ---------------------------------------------------------------------------
// Edge cases and execution metrics
// ---------------------------------------------------------------------------

TEST_F(BatchExecTest, AllFilteredQueryIsEmptyOnBothRuntimes) {
  auto seq = MakeEngine(1);
  auto par = MakeEngine(4);
  const std::string q = "MATCH (p:Person) WHERE p.id < 0 RETURN p";
  ExecOutcome a = seq->Run(q);
  ExecOutcome b = par->Run(q);
  EXPECT_EQ(a.NumRows(), 0u);
  EXPECT_EQ(b.NumRows(), 0u);
  EXPECT_TRUE(a.SameRows(b));
}

TEST_F(BatchExecTest, KeylessAggregateOverEmptyInputYieldsOneRow) {
  auto seq = MakeEngine(1);
  auto par = MakeEngine(4);
  const std::string q =
      "MATCH (p:Person) WHERE p.id < 0 RETURN COUNT(p) AS c";
  ExecOutcome a = seq->Run(q);
  ExecOutcome b = par->Run(q);
  ASSERT_EQ(a.NumRows(), 1u);
  ASSERT_EQ(b.NumRows(), 1u);
  EXPECT_TRUE(a.SameRows(b));
}

TEST_F(BatchExecTest, OutcomeCarriesPipelineStats) {
  auto par = MakeEngine(4);
  auto prep = par->Prepare("MATCH (p:Person)-[:KNOWS]->(q:Person) RETURN q");
  ExecOutcome out = par->Execute(prep);
  ASSERT_FALSE(out.stats.pipelines.empty());
  uint64_t morsels = 0;
  for (const auto& p : out.stats.pipelines) morsels += p.morsels;
  EXPECT_GT(morsels, 0u);
  EXPECT_EQ(out.stats.pipelines.back().rows_out, out.NumRows());
  std::string explain = par->Explain(prep, out);
  EXPECT_NE(explain.find("=== Execution ==="), std::string::npos);
  EXPECT_NE(explain.find("morsels"), std::string::npos);

  // At one thread the same runtime runs inline and reports its pipelines,
  // each on a single worker.
  auto seq = MakeEngine(1);
  ExecOutcome seq_out = seq->Run("MATCH (p:Person) RETURN p");
  ASSERT_FALSE(seq_out.stats.pipelines.empty());
  for (const auto& p : seq_out.stats.pipelines) EXPECT_EQ(p.threads, 1);
}

TEST_F(BatchExecTest, AutoThreadCountIsHardwareSized) {
  MorselOptions mopts;
  mopts.threads = 0;
  MorselExecutor ex(ldbc_->graph.get(), mopts);
  EXPECT_GE(ex.threads(), 1);
}

}  // namespace
}  // namespace gopt
