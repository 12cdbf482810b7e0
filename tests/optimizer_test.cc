// Tests for the RBO rules and the CBO search (Algorithms and rewrites of
// Sections 6.1 / 6.3).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/engine/engine.h"
#include "src/lang/cypher_parser.h"
#include "src/ldbc/ldbc.h"
#include "src/opt/rbo.h"
#include "src/workloads/queries.h"

namespace gopt {
namespace {

class RboTest : public ::testing::Test {
 protected:
  RboTest() : schema_(MakeLdbcSchema()), parser_(&schema_) {}

  LogicalOpPtr Optimize(const std::string& q,
                        std::vector<std::string>* fired = nullptr) {
    auto plan = parser_.Parse(q);
    HepPlanner planner;
    for (auto& r : DefaultRules()) planner.AddRule(std::move(r));
    return planner.Optimize(plan, schema_, fired);
  }

  GraphSchema schema_;
  CypherParser parser_;
};

TEST_F(RboTest, FilterIntoPatternPushesSingleAliasConjuncts) {
  std::vector<std::string> fired;
  auto plan = Optimize(
      "MATCH (a:Person)-[:KNOWS]->(b:Person) "
      "WHERE a.id = 1 AND b.firstName = 'Jan' AND a.id < b.id RETURN a, b",
      &fired);
  EXPECT_NE(std::find(fired.begin(), fired.end(), "FilterIntoPattern"),
            fired.end());
  // The cross-alias conjunct must remain a SELECT; single-alias ones moved.
  const LogicalOp* select = nullptr;
  const LogicalOp* cur = plan.get();
  while (cur) {
    if (cur->kind == LogicalOpKind::kSelect) select = cur;
    cur = cur->inputs.empty() ? nullptr : cur->inputs[0].get();
  }
  ASSERT_NE(select, nullptr);
  EXPECT_EQ(select->predicate->ToString(), "(a.id < b.id)");
  // Pattern vertices carry the pushed predicates with selectivity < 1.
  cur = plan.get();
  while (cur->kind != LogicalOpKind::kMatchPattern) {
    cur = cur->inputs[0].get();
  }
  EXPECT_FALSE(cur->pattern.FindVertexByAlias("a")->predicates.empty());
  EXPECT_LT(cur->pattern.FindVertexByAlias("a")->selectivity, 1.0);
}

TEST_F(RboTest, JoinToPatternMergesMatches) {
  std::vector<std::string> fired;
  auto plan = Optimize(
      "MATCH (a:Person)-[:KNOWS]->(b:Person) "
      "MATCH (b)-[:IS_LOCATED_IN]->(c:Place) RETURN a, b, c",
      &fired);
  EXPECT_NE(std::find(fired.begin(), fired.end(), "JoinToPattern"),
            fired.end());
  const LogicalOp* cur = plan.get();
  while (cur->kind != LogicalOpKind::kMatchPattern) {
    ASSERT_NE(cur->kind, LogicalOpKind::kJoin) << "join not eliminated";
    cur = cur->inputs[0].get();
  }
  EXPECT_EQ(cur->pattern.NumVertices(), 3u);
  EXPECT_EQ(cur->pattern.NumEdges(), 2u);
}

TEST_F(RboTest, JoinAfterAggregateIsNotMerged) {
  // Paper Section 6.1: GROUP between the patterns blocks JoinToPattern.
  auto plan = Optimize(
      "MATCH (a:Person)-[:KNOWS]->(b:Person) "
      "WITH b, COUNT(a) AS c MATCH (b)-[:IS_LOCATED_IN]->(p:Place) "
      "RETURN b, c, p");
  bool has_join = false;
  std::function<void(const LogicalOpPtr&)> walk = [&](const LogicalOpPtr& op) {
    if (op->kind == LogicalOpKind::kJoin) has_join = true;
    for (const auto& in : op->inputs) walk(in);
  };
  walk(plan);
  EXPECT_TRUE(has_join);
}

TEST_F(RboTest, ComSubPatternFactorsCommonPrefix) {
  std::vector<std::string> fired;
  auto plan = Optimize(
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:LIKES]->(m:Post) "
      "RETURN a, b UNION ALL "
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:LIKES]->(m:Comment) "
      "RETURN a, b",
      &fired);
  EXPECT_NE(std::find(fired.begin(), fired.end(), "ComSubPattern"),
            fired.end());
  // The two branches must share one MATCH node (a DAG).
  std::vector<const LogicalOp*> matches;
  std::function<void(const LogicalOpPtr&)> walk = [&](const LogicalOpPtr& op) {
    if (op->kind == LogicalOpKind::kMatchPattern) matches.push_back(op.get());
    for (const auto& in : op->inputs) walk(in);
  };
  walk(plan);
  ASSERT_EQ(matches.size(), 2u);  // visited twice through both extends
  EXPECT_EQ(matches[0], matches[1]) << "common subpattern is not shared";
}

TEST_F(RboTest, OrderLimitFusesToTopK) {
  std::vector<std::string> fired;
  auto plan = Optimize(
      "MATCH (a:Person) RETURN a.id AS x ORDER BY x ASC LIMIT 5", &fired);
  // The parser already fuses ORDER+LIMIT; the rule covers plans where they
  // arrive separately. Either way the final plan has a fused top-k ORDER.
  EXPECT_EQ(plan->kind, LogicalOpKind::kOrder);
  EXPECT_EQ(plan->limit, 5);
}

TEST_F(RboTest, AggregatePushDownPreAggregatesJoin) {
  std::vector<std::string> fired;
  auto plan = Optimize(
      "MATCH (c:Place)<-[:IS_LOCATED_IN]-(p:Person) "
      "WITH c.name AS country, p "
      "MATCH (p)<-[:HAS_CREATOR]-(m:Post) "
      "RETURN country, COUNT(*) AS msgs",
      &fired);
  EXPECT_NE(std::find(fired.begin(), fired.end(), "AggregatePushDown"),
            fired.end());
  // Final aggregate must now SUM partial counts.
  ASSERT_EQ(plan->kind, LogicalOpKind::kAggregate);
  ASSERT_EQ(plan->aggs.size(), 1u);
  EXPECT_EQ(plan->aggs[0].fn, AggFunc::kSum);
}

TEST_F(RboTest, FieldTrimAnnotatesPatterns) {
  auto plan = FieldTrim(Optimize(
      "MATCH (a:Person)-[k:KNOWS]->(b:Person) RETURN b.id AS bid"));
  const LogicalOp* cur = plan.get();
  while (cur->kind != LogicalOpKind::kMatchPattern) {
    cur = cur->inputs[0].get();
  }
  EXPECT_TRUE(cur->trimmed);
  // Only b survives; the unused edge alias k is not in output_tags.
  EXPECT_EQ(cur->output_tags, std::vector<std::string>{"b"});
  // Its property requirement is recorded as COLUMNS.
  ASSERT_EQ(cur->columns.size(), 1u);
  EXPECT_EQ(cur->columns[0].second, "id");
}

class CboTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ldbc_ = new LdbcGraph(GenerateLdbc(0.1, 3));
    glogue_ = new Glogue(Glogue::Build(*ldbc_->graph));
  }
  static void TearDownTestSuite() {
    delete glogue_;
    delete ldbc_;
  }
  Pattern ParsePattern(const std::string& q) {
    CypherParser parser(&ldbc_->graph->schema());
    auto plan = parser.Parse(q);
    HepPlanner planner;
    for (auto& r : DefaultRules()) planner.AddRule(std::move(r));
    plan = planner.Optimize(plan, ldbc_->graph->schema());
    LogicalOpPtr cur = plan;
    while (cur->kind != LogicalOpKind::kMatchPattern) cur = cur->inputs[0];
    return cur->pattern;
  }
  static LdbcGraph* ldbc_;
  static Glogue* glogue_;
};
LdbcGraph* CboTest::ldbc_ = nullptr;
Glogue* CboTest::glogue_ = nullptr;

TEST_F(CboTest, OptimalNeverWorseThanGreedy) {
  GlogueQuery gq(glogue_, &ldbc_->graph->schema(), true);
  BackendSpec backend = BackendSpec::GraphScopeLike(4);
  GraphOptimizer opt(&gq, &backend);
  for (const char* q :
       {"MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person), "
        "(a)-[:KNOWS]->(c) RETURN COUNT(*) AS x",
        "MATCH (t:Tag)<-[:HAS_TAG]-(m:Post)-[:HAS_CREATOR]->(p:Person) "
        "RETURN COUNT(*) AS x",
        "MATCH (f:Forum)-[:CONTAINER_OF]->(m:Post)<-[:LIKES]-(p:Person)"
        "-[:IS_LOCATED_IN]->(c:Place) RETURN COUNT(*) AS x"}) {
    Pattern p = ParsePattern(q);
    auto best = opt.Optimize(p);
    auto greedy = opt.GreedyPlan(p);
    ASSERT_NE(best, nullptr);
    ASSERT_NE(greedy, nullptr);
    EXPECT_LE(best->cost, greedy->cost * 1.0001) << q;
  }
}

TEST_F(CboTest, AnchoredPatternScansTheAnchor) {
  GlogueQuery gq(glogue_, &ldbc_->graph->schema(), true);
  BackendSpec backend = BackendSpec::Neo4jLike();
  GraphOptimizer opt(&gq, &backend);
  Pattern p = ParsePattern(
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
      "WHERE a.id = 3 RETURN a, b, c");
  auto plan = opt.Optimize(p);
  // Walk to the scan: it must start at the highly selective anchor a.
  const PatternPlanNode* cur = plan.get();
  while (cur->kind != PatternPlanNode::Kind::kScan) {
    cur = cur->child ? cur->child.get() : cur->left.get();
  }
  EXPECT_EQ(p.VertexById(cur->scan_vertex).alias, "a");
}

TEST_F(CboTest, PruningReducesSearchedSubpatterns) {
  GlogueQuery gq(glogue_, &ldbc_->graph->schema(), true);
  BackendSpec backend = BackendSpec::GraphScopeLike(4);
  GraphOptimizer opt(&gq, &backend);
  Pattern p = ParsePattern(
      "MATCH (p1:Person)-[:KNOWS]->(p2:Person)-[:KNOWS]->(p3:Person), "
      "(p1)-[:KNOWS]->(p3), (p3)-[:IS_LOCATED_IN]->(pl:Place), "
      "(p1)<-[:HAS_CREATOR]-(m:Post), (m)-[:HAS_TAG]->(t:Tag) "
      "RETURN COUNT(*) AS x");
  opt.Optimize(p);
  EXPECT_GT(opt.pruned_branches, 0u);
  // Far fewer subpatterns than the 2^|E| upper bound.
  EXPECT_LT(opt.searched_subpatterns, 1u << p.NumEdges());
}

TEST_F(CboTest, UserOrderPlanFollowsTextualOrder) {
  GlogueQuery gq(glogue_, &ldbc_->graph->schema(), true);
  BackendSpec backend = BackendSpec::GraphScopeLike(4);
  GraphOptimizer opt(&gq, &backend);
  Pattern p = ParsePattern(
      "MATCH (t:Tag)<-[:HAS_TAG]-(m:Post)-[:HAS_CREATOR]->(x:Person) "
      "RETURN t, m, x");
  auto plan = opt.UserOrderPlan(p);
  const PatternPlanNode* cur = plan.get();
  while (cur->kind != PatternPlanNode::Kind::kScan) cur = cur->child.get();
  // Scan anchors the src of the first textual edge (m for <-HAS_TAG-).
  EXPECT_EQ(p.VertexById(cur->scan_vertex).alias, "m");
}

TEST_F(CboTest, RecostMatchesSearchCosts) {
  GlogueQuery gq(glogue_, &ldbc_->graph->schema(), true);
  BackendSpec backend = BackendSpec::GraphScopeLike(4);
  GraphOptimizer opt(&gq, &backend);
  Pattern p = ParsePattern(
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:IS_LOCATED_IN]->(c:Place) "
      "RETURN a, b, c");
  auto plan = opt.Optimize(p);
  double searched_cost = plan->cost;
  opt.Recost(plan);
  EXPECT_NEAR(plan->cost, searched_cost, searched_cost * 1e-9);
}

std::string ChainQuery(const std::string& vtype, const std::string& etype,
                       int edges) {
  std::string q = "MATCH (v0:" + vtype + ")";
  for (int i = 1; i <= edges; ++i) {
    q += "-[:" + etype + "]->(v" + std::to_string(i) + ":" + vtype + ")";
  }
  return q + " RETURN COUNT(*) AS n";
}

TEST_F(CboTest, PatternWiderThanTheMaskGetsTheGreedyPlan) {
  GlogueQuery gq(glogue_, &ldbc_->graph->schema(), true);
  BackendSpec backend = BackendSpec::Neo4jLike();
  GraphOptimizer opt(&gq, &backend);
  Pattern p = ParsePattern(ChainQuery("Person", "KNOWS", 70));
  ASSERT_EQ(p.NumEdges(), 70u);
  auto plan = opt.Optimize(p);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(opt.searched_subpatterns, 0u);
  EXPECT_EQ(plan->cost, opt.GreedyPlan(p)->cost);
}

TEST(WidePatternTest, SeventyEdgeChainMatchesNoOpt) {
  // A directed 5-cycle: every vertex starts exactly one 70-step walk.
  GraphSchema schema;
  TypeId v = schema.AddVertexType("V");
  TypeId e = schema.AddEdgeType("E", {{v, v}});
  PropertyGraph g(schema);
  constexpr int kCycle = 5;
  for (int i = 0; i < kCycle; ++i) g.AddVertex(v);
  for (int i = 0; i < kCycle; ++i) {
    g.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>((i + 1) % kCycle),
              e);
  }
  g.Finalize();
  const std::string q = ChainQuery("V", "E", 70);
  for (PlannerMode mode : {PlannerMode::kGOpt, PlannerMode::kNoOpt}) {
    EngineOptions opts;
    opts.mode = mode;
    GOptEngine engine(&g, BackendSpec::Neo4jLike(), opts);
    ExecOutcome r = engine.Run(q);
    ASSERT_EQ(r.NumRows(), 1u);
    EXPECT_EQ(r.table().rows[0][0].AsInt(), kCycle)
        << "mode " << static_cast<int>(mode);
  }
}

/// Cold planning over the LDBC workloads: the plan cache is off, so every
/// Prepare runs the whole pipeline against the engine's shared estimation
/// memo.
class PlanningTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ldbc_ = new LdbcGraph(GenerateLdbc(0.1, 3));
    glogue_ = new std::shared_ptr<const Glogue>(
        std::make_shared<Glogue>(Glogue::Build(*ldbc_->graph)));
  }
  static void TearDownTestSuite() {
    delete glogue_;
    delete ldbc_;
  }
  static std::unique_ptr<GOptEngine> ColdEngine(const BackendSpec& backend) {
    EngineOptions opts;
    opts.enable_plan_cache = false;
    auto engine =
        std::make_unique<GOptEngine>(ldbc_->graph.get(), backend, opts);
    engine->SetGlogue(*glogue_);
    return engine;
  }
  /// The physical plan text (operator tree, join order, expand kinds).
  static std::string Plan(const GOptEngine& engine, const std::string& q) {
    Prepared prep = engine.Prepare(q);
    if (!prep.physical) return prep.invalid ? "<invalid>" : "<none>";
    return prep.physical->ToString(ldbc_->graph->schema());
  }
  static LdbcGraph* ldbc_;
  static std::shared_ptr<const Glogue>* glogue_;
};
LdbcGraph* PlanningTest::ldbc_ = nullptr;
std::shared_ptr<const Glogue>* PlanningTest::glogue_ = nullptr;

TEST_F(PlanningTest, PlansDoNotDependOnHistory) {
  std::vector<WorkloadQuery> queries;
  for (const auto* set : {&IcQueries(), &BiQueries(), &QrQueries(),
                          &QtQueries(), &QcQueries()}) {
    queries.insert(queries.end(), set->begin(), set->end());
  }
  for (const BackendSpec& backend :
       {BackendSpec::Neo4jLike(), BackendSpec::GraphScopeLike(4)}) {
    // One engine plans the whole list in reverse, so each query is planned
    // after every later one; it then plans the list again, fully warm.
    auto warm = ColdEngine(backend);
    std::vector<std::string> after_later(queries.size());
    for (size_t i = queries.size(); i-- > 0;) {
      after_later[i] =
          Plan(*warm, SubstituteParams(queries[i].cypher, DefaultParams()));
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::string q =
          SubstituteParams(queries[i].cypher, DefaultParams());
      const std::string fresh = Plan(*ColdEngine(backend), q);
      const std::string name = backend.name + " " + queries[i].name;
      EXPECT_EQ(after_later[i], fresh) << name;
      EXPECT_EQ(Plan(*warm, q), fresh) << name;
    }
  }
}

TEST_F(PlanningTest, ConcurrentColdPlanningMatchesSequential) {
  std::vector<std::string> queries;
  for (const auto* set : {&QcQueries(), &QrQueries()}) {
    for (const auto& wq : *set) {
      if (wq.name == "QC4a" || wq.name == "QC4b" || wq.name == "QR4") {
        queries.push_back(SubstituteParams(wq.cypher, DefaultParams()));
      }
    }
  }
  ASSERT_EQ(queries.size(), 3u);
  for (const BackendSpec& backend :
       {BackendSpec::Neo4jLike(), BackendSpec::GraphScopeLike(4)}) {
    std::vector<std::string> want;
    for (const auto& q : queries) want.push_back(Plan(*ColdEngine(backend), q));

    auto shared = ColdEngine(backend);
    constexpr int kThreads = 4;
    constexpr int kRounds = 3;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int r = 0; r < kRounds; ++r) {
          for (size_t k = 0; k < queries.size(); ++k) {
            // Staggered starts so threads race on different patterns.
            size_t i = (k + static_cast<size_t>(t)) % queries.size();
            if (Plan(*shared, queries[i]) != want[i]) ++mismatches;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0) << backend.name;
  }
}

}  // namespace
}  // namespace gopt
