#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/opt/physical_spec.h"

namespace gopt {

struct PatternPlanNode;
using PatternPlanPtr = std::shared_ptr<PatternPlanNode>;

/// A node of the pattern execution plan produced by the CBO: a tree of
/// Scan / Expand / Join steps, each annotated with the pattern achieved so
/// far, the chosen PhysicalSpec, and the estimated frequency and cumulative
/// cost.
struct PatternPlanNode {
  enum class Kind { kScan, kExpand, kJoin };
  Kind kind = Kind::kScan;
  Pattern pattern;  ///< pattern matched after this step
  double freq = 0;  ///< estimated F(pattern)
  double cost = 0;  ///< cumulative estimated cost

  // kScan
  int scan_vertex = -1;

  // kExpand
  PatternPlanPtr child;
  int new_vertex = -1;  ///< -1 for a pure closing step
  std::vector<int> added_edges;
  std::shared_ptr<ExpandSpec> expand_spec;

  // kJoin
  PatternPlanPtr left, right;
  std::vector<int> join_vertices;
  std::shared_ptr<JoinSpec> join_spec;

  std::string ToString(const GraphSchema& schema, int indent = 0) const;
};

/// The graph CBO (paper Algorithm 2): a top-down search over subpatterns
/// with memoization and branch-and-bound pruning, seeded by a greedy
/// initial plan. Candidates are vertex expansions (every registered
/// ExpandSpec) and binary joins (every registered JoinSpec); costs combine
/// computation (PhysicalSpec cost models) with communication
/// (comm_factor x exchanged rows) on distributed backends.
///
/// The search memo is keyed by a 64-bit edge mask over the pattern being
/// optimized (bit i = its i-th edge): a connected subpattern with edges is
/// identified by its edge set. Removable vertices and join splits are
/// decided on the masks, so each memoized subpattern is materialized as a
/// Pattern, and priced with GetFreq, exactly once per search.
class GraphOptimizer {
 public:
  /// `comm` (optional) is the store's communication profile: when a
  /// sharded store is attached, its measured edge-cut scales the
  /// communication term, so partition-local expansions (low cut) price
  /// cheaper than cross-partition ones. Null charges every exchanged row,
  /// the pre-sharding behavior. Must outlive the optimizer.
  GraphOptimizer(const GlogueQuery* gq, const BackendSpec* backend,
                 const CommProfile* comm = nullptr)
      : gq_(gq), backend_(backend), comm_(comm) {}

  /// Optimal plan for a connected pattern (Algorithm 2). A pattern with
  /// more than 64 edges (or 64 vertices) does not fit the search's
  /// bitmask memo and gets GreedyPlan(p) instead.
  PatternPlanPtr Optimize(const Pattern& p) const;

  /// Greedy initial solution (GreedyInitial in the paper).
  PatternPlanPtr GreedyPlan(const Pattern& p) const;

  /// Plan that follows the textual order of the pattern's edges — the
  /// behavior of GraphScope's native planner ("GS-plan") and the unoptimized
  /// baseline.
  PatternPlanPtr UserOrderPlan(const Pattern& p) const;

  /// A random valid expansion order (the randomized baselines of Fig 8(c)).
  PatternPlanPtr RandomPlan(const Pattern& p, Rng* rng) const;

  /// Recomputes freq/cost annotations of a hand-assembled plan tree (used
  /// by benches that construct explicit alternatives, e.g. fixed join
  /// positions for the s-t path case study).
  void Recost(const PatternPlanPtr& node) const;

  // Search diagnostics (reset by Optimize).
  mutable size_t searched_subpatterns = 0;
  mutable size_t pruned_branches = 0;

 private:
  struct MemoEntry;
  struct SearchCtx;
  /// Widest pattern (edges, and vertices) the bitmask memo can hold.
  static constexpr size_t kMaxMaskBits = 64;

  void RecursiveSearch(MemoEntry& entry, SearchCtx* ctx) const;
  PatternPlanPtr MakeScan(const Pattern& p, int vid) const;
  /// Cost of one expand step into `pt`, whose estimated frequency is
  /// `out_freq` (= GetFreq(pt)).
  double ExpandStepCost(const Pattern& ps, const Pattern& pt, double out_freq,
                        int new_vertex, const std::vector<int>& added,
                        const ExpandSpec& spec) const;
  /// Fraction of an expansion's output rows that cross workers: the mean
  /// measured edge-cut of the added edges' types under the attached
  /// CommProfile, 1.0 without one.
  double ExpandCutFraction(const Pattern& pt,
                           const std::vector<int>& added) const;
  /// Fraction of rows a key re-hash exchange moves (joins): profile's
  /// rehash, 1.0 without one.
  double RehashFraction() const {
    return comm_ ? comm_->rehash : 1.0;
  }

  const GlogueQuery* gq_;
  const BackendSpec* backend_;
  const CommProfile* comm_ = nullptr;
};

}  // namespace gopt
