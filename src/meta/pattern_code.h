#pragma once

#include <string>

#include "src/gir/pattern.h"

namespace gopt {

/// Computes a canonical byte-string code for a pattern: two patterns receive
/// the same code iff they are isomorphic as typed directed (multi)graphs,
/// considering type constraints, edge directions and path-expansion
/// parameters (and, when `with_preds`, embedded predicates/selectivities).
///
/// Used as the key of GLogue motif lookups and the GlogueQuery estimation
/// cache (paper Section 6.3.1). Patterns in CGPs are small, so the
/// canonicalization is exact: Weisfeiler-Leman color refinement followed by
/// enumeration of orderings within refined color classes (bounded; falls
/// back to a deterministic non-canonical order beyond the bound, which can
/// only cause cache misses, never wrong answers).
std::string CanonicalPatternCode(const Pattern& p, bool with_preds = false);

/// The pattern serialized as written, in O(V+E) with no canonicalization:
/// vertices in ascending id order with their type constraints, then the
/// edges in pattern order as (src rank, dst rank, direction, hops,
/// semantics, type constraint). Predicates are ignored. Two patterns with
/// equal forms are isomorphic under the id-order-preserving vertex map, so
/// they share CanonicalPatternCode(p, false) — the form can key a cache in
/// front of the canonical one (GlogueQuery's estimation memo).
std::string ExactPatternForm(const Pattern& p);

}  // namespace gopt
