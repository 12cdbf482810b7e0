// Fig. 11: the s-t path case study (fraud detection). Five ST queries with
// different source/target set sizes (|S1|, |S2|); plans compared:
//   - GOpt-plan:   CBO-chosen plan (bidirectional with a cost-chosen join
//                  position, annotated "(k1,k2)" like the paper),
//   - Neo4j-plan:  single-direction expansion from S1 ("(6,0)"),
//   - Alt-plan1/2: hand-fixed bidirectional splits at other positions.
#include "bench/bench_common.h"
#include "src/lang/cypher_parser.h"
#include "src/opt/rbo.h"
#include "src/physical/converter.h"

using namespace gopt;
using namespace gopt_bench;

namespace {

// Builds a bidirectional plan joining a k1-hop chain from `a` with a
// (hops-k1)-hop chain from `b`.
PatternPlanPtr SplitPlan(const Pattern& full, int split,
                         const GraphOptimizer& opt) {
  const auto& edges = full.edges();
  const int hops = static_cast<int>(edges.size());
  auto chain_plan = [&](int from_edge, int to_edge, bool forward) {
    // Chain expansion over edges [from_edge, to_edge); forward scans the
    // src of the first edge, backward scans the dst of the last edge.
    std::vector<int> eids;
    PatternPlanPtr plan;
    if (forward) {
      for (int i = from_edge; i < to_edge; ++i) {
        eids.push_back(edges[static_cast<size_t>(i)].id);
      }
    } else {
      for (int i = to_edge - 1; i >= from_edge; --i) {
        eids.push_back(edges[static_cast<size_t>(i)].id);
      }
    }
    int scan_v = forward ? edges[static_cast<size_t>(from_edge)].src
                         : edges[static_cast<size_t>(to_edge - 1)].dst;
    auto scan = std::make_shared<PatternPlanNode>();
    scan->kind = PatternPlanNode::Kind::kScan;
    scan->pattern = full.SingleVertex(scan_v);
    scan->scan_vertex = scan_v;
    plan = scan;
    std::vector<int> done;
    for (int eid : eids) {
      done.push_back(eid);
      const PatternEdge& e = full.EdgeById(eid);
      auto node = std::make_shared<PatternPlanNode>();
      node->kind = PatternPlanNode::Kind::kExpand;
      node->pattern = full.SubpatternByEdges(done);
      node->child = plan;
      node->new_vertex = forward ? e.dst : e.src;
      node->added_edges = {eid};
      node->expand_spec = std::make_shared<ExpandIntoSpec>();
      plan = node;
    }
    return plan;
  };
  if (split <= 0) return chain_plan(0, hops, /*forward=*/false);
  if (split >= hops) return chain_plan(0, hops, /*forward=*/true);
  auto join = std::make_shared<PatternPlanNode>();
  join->kind = PatternPlanNode::Kind::kJoin;
  join->pattern = full;
  join->left = chain_plan(0, split, true);
  join->right = chain_plan(split, hops, false);
  join->join_vertices = {edges[static_cast<size_t>(split - 1)].dst};
  join->join_spec = std::make_shared<HashJoinSpec>();
  opt.Recost(join);
  return join;
}

// (k1, k2) annotation of a plan: edge counts on each side of the top join.
std::string JoinPosition(const PatternPlanPtr& plan, int hops) {
  if (plan->kind == PatternPlanNode::Kind::kJoin) {
    size_t l = plan->left->pattern.NumEdges();
    return "(" + std::to_string(l) + "," +
           std::to_string(static_cast<size_t>(hops) - l) + ")";
  }
  return "(" + std::to_string(hops) + ",0)";
}

}  // namespace

int main() {
  const int repeats = EnvRepeats();
  const int hops = 6;
  const size_t accounts =
      static_cast<size_t>(6000 * std::max(0.2, EnvScaleFactor()));
  // Power-law transfer graph with enough fan-out that 6-hop frontiers
  // explode (the effect the case study is about).
  auto fraud = GenerateFraud(accounts, 10.0, 7);
  const PropertyGraph& g = *fraud.graph;
  auto glogue = std::make_shared<Glogue>(Glogue::Build(g));

  std::printf("Fig 11 — s-t paths (k=%d) on transfer graph |V|=%zu |E|=%zu\n",
              hops, g.NumVertices(), g.NumEdges());
  std::printf("%-5s %9s %12s %12s %12s %12s %10s\n", "query", "|S1|,|S2|",
              "GOpt(pos)", "Neo4j(6,0)", "Alt1(3,3)", "Alt2(2,4)", "best-alt/GOpt");
  PrintRule();

  Rng rng(11);
  struct STCase {
    int s1, s2;
  };
  STCase cases[] = {{2, 40}, {40, 2}, {6, 6}, {20, 3}, {3, 30}};

  int ci = 0;
  for (const auto& c : cases) {
    ++ci;
    std::vector<int64_t> s1, s2;
    for (int i = 0; i < c.s1; ++i) {
      s1.push_back(static_cast<int64_t>(rng.NextInt(accounts)));
    }
    for (int i = 0; i < c.s2; ++i) {
      s2.push_back(static_cast<int64_t>(rng.NextInt(accounts)));
    }
    std::string q = StQuery(hops, s1, s2);

    // GOpt-plan through the engine.
    GOptEngine eng(&g, BackendSpec::GraphScopeLike(4));
    eng.SetGlogue(glogue);
    auto prep = eng.Prepare(q);
    double t_gopt = TimeExecution(eng, prep, repeats);
    std::string pos = "(?)";
    if (!prep.pattern_plans.empty()) {
      pos = JoinPosition(prep.pattern_plans.begin()->second, hops);
    }

    // Manual plans: rebuild the logical plan, then substitute pattern plans.
    GlogueQuery gq(glogue.get(), &g.schema(), true);
    BackendSpec backend = BackendSpec::GraphScopeLike(4);
    GraphOptimizer opt(&gq, &backend);
    auto time_manual = [&](int split) {
      CypherParser parser(&g.schema());
      auto logical = parser.Parse(q);
      HepPlanner planner;
      for (auto& r : DefaultRules()) planner.AddRule(std::move(r));
      logical = planner.Optimize(logical, g.schema());
      logical = FieldTrim(logical);
      // Find the MATCH node.
      LogicalOpPtr match = logical;
      while (match->kind != LogicalOpKind::kMatchPattern) {
        match = match->inputs[0];
      }
      std::map<const LogicalOp*, PatternPlanPtr> plans;
      plans[match.get()] = SplitPlan(match->pattern, split, opt);
      PhysicalConverter conv(&g.schema());
      auto phys = conv.Convert(logical, plans);
      auto store = PartitionedGraph::Build(&g, PartitionPolicy::kHash, 4);
      DistributedExecutor ex(*store);
      std::vector<double> ms;
      for (int i = 0; i < repeats; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        ex.Execute(phys);
        auto t1 = std::chrono::steady_clock::now();
        ms.push_back(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                .count() /
            1000.0);
      }
      std::sort(ms.begin(), ms.end());
      return ms[ms.size() / 2];
    };

    double t_neo = time_manual(hops);  // single direction from S1
    double t_alt1 = time_manual(3);
    double t_alt2 = time_manual(2);
    double best_alt = std::min({t_neo, t_alt1, t_alt2});
    std::printf("ST%-3d %4d,%-4d %8.2f%-6s %12.2f %12.2f %12.2f %9.1fx\n", ci,
                c.s1, c.s2, t_gopt, pos.c_str(), t_neo, t_alt1, t_alt2,
                t_gopt > 0 ? best_alt / t_gopt : 0);
  }
  PrintRule();
  std::printf("GOpt picks the join split by cost; single-direction plans "
              "degrade sharply as paths fan out.\n");
  return 0;
}
