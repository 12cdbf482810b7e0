#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/meta/glogue_query.h"

namespace gopt {

/// How an expand step is executed by the backend runtime.
enum class PhysExpandImpl {
  kExpandInto,       ///< flattened per-edge expansion + edge checks (Neo4j)
  kExpandIntersect,  ///< adjacency-set intersection, WCOJ style (GraphScope)
};

/// PhysicalSpec for vertex-expansion operators (paper Section 6.3.2):
/// backends register their implementation and its cost model, so the CBO
/// search prices Expand(Ps -> Pt) with backend-specific costs.
class ExpandSpec {
 public:
  virtual ~ExpandSpec() = default;
  virtual std::string Name() const = 0;
  virtual PhysExpandImpl Impl() const = 0;
  /// Cost of expanding `ps` to `pt` by binding `new_vertex` through the
  /// edges `added_edges` (ids in `pt`). `new_vertex` may be -1 for a pure
  /// closing step (all endpoints already bound).
  virtual double ComputeCost(const GlogueQuery& gq, const Pattern& ps,
                             const Pattern& pt, int new_vertex,
                             const std::vector<int>& added_edges) const = 0;
};

/// PhysicalSpec for binary pattern joins: cost of Join(Ps1, Ps2 -> Pt).
class JoinSpec {
 public:
  virtual ~JoinSpec() = default;
  virtual std::string Name() const = 0;
  virtual double ComputeCost(const GlogueQuery& gq, const Pattern& ps1,
                             const Pattern& ps2) const = 0;
};

/// Neo4j-style ExpandInto: edges are appended one at a time and every
/// intermediate match set is flattened, so the cost is the sum of the
/// frequencies of the intermediate patterns (paper's Neo4j registration).
class ExpandIntoSpec : public ExpandSpec {
 public:
  std::string Name() const override { return "ExpandInto"; }
  PhysExpandImpl Impl() const override { return PhysExpandImpl::kExpandInto; }
  double ComputeCost(const GlogueQuery& gq, const Pattern& ps,
                     const Pattern& pt, int new_vertex,
                     const std::vector<int>& added_edges) const override;
};

/// GraphScope-style ExpandIntersect: adjacency sets are intersected without
/// flattening, cost |Ev| * F(Ps) (paper's GraphScope registration).
class ExpandIntersectSpec : public ExpandSpec {
 public:
  std::string Name() const override { return "ExpandIntersect"; }
  PhysExpandImpl Impl() const override {
    return PhysExpandImpl::kExpandIntersect;
  }
  double ComputeCost(const GlogueQuery& gq, const Pattern& ps,
                     const Pattern& pt, int new_vertex,
                     const std::vector<int>& added_edges) const override;
};

/// An ExpandIntersect executed with ExpandInto's cost formula: the
/// deliberately mismatched cost model behind the GOpt-Neo-plan baseline in
/// Fig. 8(c).
class MiscostedIntersectSpec : public ExpandSpec {
 public:
  std::string Name() const override { return "ExpandIntersect(neo-cost)"; }
  PhysExpandImpl Impl() const override {
    return PhysExpandImpl::kExpandIntersect;
  }
  double ComputeCost(const GlogueQuery& gq, const Pattern& ps,
                     const Pattern& pt, int new_vertex,
                     const std::vector<int>& added_edges) const override;
};

/// Hash join: cost F(Ps1) + F(Ps2) (paper, following GLogS).
class HashJoinSpec : public JoinSpec {
 public:
  std::string Name() const override { return "HashJoin"; }
  double ComputeCost(const GlogueQuery& gq, const Pattern& ps1,
                     const Pattern& ps2) const override;
};

/// Communication profile of the store the CBO prices exchanges against —
/// how the per-partition cardinality statistics of a sharded store
/// (src/store/PartitionStats) feed plan costing. Without a profile (an
/// engine with no store, e.g. a single-machine engine costing for a
/// distributed planning_backend) every exchanged row is charged; with one,
/// vertex-ownership exchanges charge only the measured edge-cut fraction
/// of the traversed edge types, and key re-hash exchanges charge the
/// (P-1)/P fraction that actually moves.
struct CommProfile {
  /// Fraction of rows a hash re-distribution moves off-worker: (P-1)/P on
  /// a P-partition store; 1 when no store is attached.
  double rehash = 1.0;
  /// The store's overall edge-cut fraction (PartitionedGraph::
  /// CutFraction()) — the fallback for untyped expansions, so a
  /// locality-preserving partitioning benefits them too; 1 when no store
  /// is attached.
  double all_cut = 1.0;
  /// Per edge TypeId: fraction of that type's edges crossing partitions
  /// (PartitionedGraph::CutFraction(etype)).
  std::vector<double> cut_by_etype;

  /// Cut fraction of one edge type, falling back to the overall cut when
  /// unknown.
  double CutOf(TypeId etype) const {
    return etype < cut_by_etype.size() ? cut_by_etype[etype] : all_cut;
  }
  /// Mean cut fraction over an edge-type constraint (All -> overall cut).
  double CutOf(const TypeConstraint& tc) const {
    if (tc.IsAll() || tc.types().empty()) return all_cut;
    double sum = 0;
    for (TypeId t : tc.types()) sum += CutOf(t);
    return sum / static_cast<double>(tc.types().size());
  }
};

/// A backend registration: the physical operators the engine implements,
/// their cost models, and the engine's execution profile (sequential or
/// distributed with a communication cost factor).
struct BackendSpec {
  std::string name;
  bool distributed = false;
  int num_workers = 1;
  /// alpha: weight of communication cost (exchanged intermediate rows);
  /// ignored (0) for sequential backends per the paper's cost model.
  double comm_factor = 0.0;
  std::vector<std::shared_ptr<ExpandSpec>> expands;
  std::vector<std::shared_ptr<JoinSpec>> joins;

  /// Neo4j-like sequential backend: ExpandInto + HashJoin, no comm cost.
  /// Registers no ExpandIntersectSpec, so its plans never contain
  /// ExpandIntersect (the converter emits it only from a registered spec).
  static BackendSpec Neo4jLike();
  /// GraphScope-like distributed backend: ExpandIntersect + HashJoin,
  /// communication-aware.
  static BackendSpec GraphScopeLike(int workers = 4);
  /// GraphScope executor but with Neo4j's cost for the intersect operator
  /// (the Fig. 8(c) GOpt-Neo-plan ablation).
  static BackendSpec GraphScopeWithNeo4jCosts(int workers = 4);
};

}  // namespace gopt
