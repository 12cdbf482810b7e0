#pragma once

#include <mutex>
#include <unordered_map>

#include "src/meta/glogue.h"

namespace gopt {

/// GlogueQuery: the unified cardinality-estimation interface of the paper
/// (Section 6.3.1). Given an arbitrary pattern — any mix of BasicType,
/// UnionType and AllType constraints, optionally with predicates and
/// variable-length path edges — GetFreq estimates its homomorphism
/// frequency:
///
///  - BasicType patterns within the GLogue motif range are answered exactly;
///  - small Union/All patterns are answered by enumerating concrete type
///    combinations over the motif store;
///  - larger patterns decompose by Eq. 1 (binary split over a shared
///    vertex set) and Eq. 2 (peeling one vertex and multiplying expand
///    ratios sigma), recursively, with results cached by canonical code.
///
/// With `high_order = false` the motif store is bypassed and everything is
/// estimated from vertex/edge frequencies alone — the low-order baseline of
/// the Fig. 8(d) ablation.
///
/// Memoization is two-level. The canonical memo maps CanonicalPatternCode
/// (WL refinement plus permutation search) to the estimate and is the only
/// store of values. In front of it, an exact-form index maps each
/// pattern's ExactPatternForm (an O(V+E) serialization in its own vertex-id
/// order) to the value its canonical code holds, so a repeated pattern —
/// the CBO and the PhysicalSpec cost models ask for the same subpatterns
/// thousands of times per query — skips canonicalization entirely. Equal
/// forms imply equal codes, so the index never returns a value the
/// canonical memo would not.
///
/// Thread-safety: estimation is const; both memo levels sit behind one
/// mutex, held only around lookups and inserts (never across the
/// recursive estimation), so one GlogueQuery may be queried from many
/// planning threads concurrently (the engine shares its two GlogueQuery
/// instances across all Prepare calls, and the CBO pass fans per-pattern
/// planning out over a pool). Concurrent estimates of the same uncached
/// pattern may compute it twice; the first insert wins and the exact-form
/// index records that stored value.
class GlogueQuery {
 public:
  /// `endpoint_filtered = false` degrades edge-frequency lookups to total
  /// per-edge-type counts, ignoring endpoint type constraints — the kind of
  /// rel-type/label-count statistics a Neo4j-style planner works with
  /// (used by the emulated CypherPlanner baseline).
  GlogueQuery(const Glogue* glogue, const GraphSchema* schema,
              bool high_order = true, bool endpoint_filtered = true)
      : gl_(glogue),
        schema_(schema),
        high_order_(high_order),
        endpoint_filtered_(endpoint_filtered) {}

  /// Estimated frequency including predicate selectivities.
  double GetFreq(const Pattern& p) const;

  /// Estimated frequency from type constraints only.
  double RawFreq(const Pattern& p) const;

  /// Sum of vertex-type frequencies matching a constraint.
  double VertexFreq(const TypeConstraint& tc) const;

  /// Sum of (src, edge, dst) triple frequencies compatible with the
  /// constraints; kBoth direction sums both orientations.
  double EdgeFreqBetween(const TypeConstraint& src, const TypeConstraint& etc_,
                         const TypeConstraint& dst, Direction dir) const;

  /// The expand ratio sigma for appending `e` (an edge of `target`) onto a
  /// base pattern that already contains the endpoint `anchor_vertex`;
  /// `closes` means the far endpoint is also already bound (paper Eq. 2).
  double ExpandRatio(const Pattern& target, const PatternEdge& e,
                     int anchor_vertex, bool closes) const;

  const GraphSchema& schema() const { return *schema_; }
  const Glogue& glogue() const { return *gl_; }
  bool high_order() const { return high_order_; }

  size_t CacheSize() const {
    std::lock_guard<std::mutex> lock(cache_mu_);
    return cache_.size();
  }

 private:
  double EstimateRec(const Pattern& p, int depth) const;
  double EstimateConnected(const Pattern& p, int depth) const;
  /// Enumerates concrete type combinations over the motif store; returns
  /// negative if the combination count exceeds the bound.
  double TryEnumerate(const Pattern& p) const;
  /// Eq. 1 binary split; returns negative if no usable split exists.
  double TryBinarySplit(const Pattern& p, int depth) const;
  /// Eq. 2 vertex peel (always applicable to connected patterns).
  double PeelVertex(const Pattern& p, int depth) const;

  double PathEdgeRatio(const Pattern& p, const PatternEdge& e,
                       int anchor_vertex, bool closes) const;

  const Glogue* gl_;
  const GraphSchema* schema_;
  bool high_order_;
  bool endpoint_filtered_ = true;
  /// Estimation memo, guarded by cache_mu_ (never held across the
  /// recursive estimation itself — only around lookups and inserts).
  /// cache_ is keyed by canonical code; exact_ by ExactPatternForm and
  /// holds copies of cache_ values.
  mutable std::mutex cache_mu_;
  mutable std::unordered_map<std::string, double> cache_;
  mutable std::unordered_map<std::string, double> exact_;
};

}  // namespace gopt
