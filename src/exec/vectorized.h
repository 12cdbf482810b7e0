#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/exec/batch.h"
#include "src/exec/eval.h"
#include "src/gir/expr.h"
#include "src/graph/property_graph.h"

namespace gopt {

/// Vectorized kernel fast paths (docs/vectorization.md): the primitives the
/// batch kernels dispatch to when `Kernels::set_vectorize` is on and the
/// call qualifies — sort-free adjacency intersection over the CSR's
/// per-type sorted spans, typed column views, and a small predicate
/// compiler whose comparisons run branch-free over primitive arrays.
/// Every fast path is differential-tested bit-identical to the generic
/// path it replaces (tests/vectorized_exec_test.cc).

/// A neighbor-sorted (vertex, multiplicity) adjacency list — the unit the
/// sort-free intersection operates on. Multiplicity counts parallel edges
/// to the same neighbor, folded during the merge.
using NbrList = std::vector<std::pair<VertexId, uint64_t>>;

/// Arm-size skew at which the pairwise intersection switches from the
/// linear two-pointer merge to galloping (exponential search) lookups of
/// the smaller list's entries in the larger one.
inline constexpr size_t kGallopSkew = 8;

/// K-way merges adjacency spans — each individually sorted by neighbor
/// (a per-type, per-direction CSR range) — into one neighbor-sorted
/// multiplicity list without sorting: a linear head-scan for few spans, a
/// binary heap across spans beyond that. Parallel edges (equal neighbors,
/// within or across spans) fold into one entry's multiplicity.
void MergeAdjSpans(const std::vector<Span<const AdjEntry>>& spans,
                   NbrList* out);

/// Intersects two neighbor-sorted multiplicity lists into `*out`
/// (multiplicities multiply — the WCOJ flatten-equivalent product). When
/// the sizes are skewed by >= kGallopSkew, iterates the smaller list and
/// gallops in the larger instead of the linear merge.
void IntersectSortedLists(const NbrList& a, const NbrList& b, NbrList* out);

/// Intersects a running result `cur` directly against one arm's raw CSR
/// sub-spans, skipping the arm's own merge entirely: each span is walked
/// (or galloped, when it dwarfs `cur` by >= kGallopSkew) once, counting how
/// many of its entries hit each `cur` neighbor, and the per-span counts sum
/// into the arm's parallel-edge multiplicity. Equivalent to
/// MergeAdjSpans(spans) followed by IntersectSortedLists(cur, merged), but
/// O(|cur| log) per hub span instead of O(|span|). `counts` is caller
/// scratch (resized here) so per-row calls don't reallocate.
void IntersectWithSpans(const NbrList& cur,
                        const std::vector<Span<const AdjEntry>>& spans,
                        std::vector<uint64_t>* counts, NbrList* out);

/// Per-kernel-invocation cache of typed column views: each column is
/// extracted at most once per batch (Batch::ExtractTyped), failed
/// extractions cached as null so the caller's fallback is also one-shot.
class TypedViewCache {
 public:
  explicit TypedViewCache(const Batch* b)
      : b_(b),
        vertex_(b->num_cols()),
        i64_(b->num_cols()),
        f64_(b->num_cols()) {}

  /// Cached view of column `c`, or nullptr when the column does not
  /// extract (factorized batch / mixed kinds) — fall back to Batch::At.
  const TypedView<VertexId>* Vertex(size_t c) {
    return Slot<VertexId>(&vertex_[c], c);
  }
  const TypedView<int64_t>* I64(size_t c) { return Slot<int64_t>(&i64_[c], c); }
  const TypedView<double>* F64(size_t c) { return Slot<double>(&f64_[c], c); }

 private:
  template <typename T>
  const TypedView<T>* Slot(std::unique_ptr<TypedView<T>>* slot, size_t c) {
    if (!*slot) {
      *slot = std::make_unique<TypedView<T>>(b_->ExtractTyped<T>(c));
    }
    return (*slot)->ok ? slot->get() : nullptr;
  }

  const Batch* b_;
  std::vector<std::unique_ptr<TypedView<VertexId>>> vertex_;
  std::vector<std::unique_ptr<TypedView<int64_t>>> i64_;
  std::vector<std::unique_ptr<TypedView<double>>> f64_;
};

/// Typed appender for vertex output columns: reserves once from the
/// caller's fan-out estimate and writes ids without routing each value
/// through a scratch row first.
class TypedVertexAppender {
 public:
  TypedVertexAppender(std::vector<Value>* col, size_t expected)
      : col_(col) {
    col_->reserve(col_->size() + expected);
  }

  void Append(VertexId v) { col_->push_back(Value(VertexRef{v})); }
  void AppendN(VertexId v, uint64_t n) {
    for (uint64_t k = 0; k < n; ++k) Append(v);
  }

 private:
  std::vector<Value>* col_;
};

/// A compiled conjunction of `column <cmp> constant` and `column IN list`
/// terms — the filter shapes FilterSelection and the scan evaluate
/// branch-free over typed columns instead of walking the expression tree
/// per row. Compile returns nullptr for anything outside the recognized
/// shape (the caller then falls back to ExprEval), and the compiled
/// evaluation is exactly ExprEval::EvalBool's semantics: null operands
/// compare to false, int/int comparisons stay integral, mixed numeric
/// comparisons coerce through double — identical to Value::Compare; an IN
/// term holds when some list element is Value::operator== to the operand.
class CompiledPredicate {
 public:
  /// One comparison term. `col` indexes the input layout; property terms
  /// additionally carry the hoisted whole-graph vertex-property column
  /// (one hash lookup per compile instead of per row) and resolve edge
  /// refs through the store per row.
  struct Term {
    int col = 0;
    bool is_prop = false;
    const std::vector<Value>* vprop = nullptr;  ///< hoisted vertex prop column
    std::string prop;                           ///< property name (edge reads)
    const PropertyGraph* g = nullptr;
    BinOp cmp = BinOp::kEq;  ///< a comparison, or kIn (cst is then a list)
    Value cst;
    /// kIn over an all-int list: the elements sorted, for binary search of
    /// int operands. Empty otherwise (then the list is scanned with ==).
    std::vector<int64_t> sorted_ints;
    bool int_list = false;
  };

  /// Compiles `e` against the layout `cols`. Conjunctions split into
  /// terms; each term must be kVar/kProperty <cmp> kLiteral/kParam (either
  /// side) with cmp in {=, <>, <, <=, >, >=}, or kVar/kProperty IN
  /// kLiteral/kParam (a right side that is not a list makes the whole
  /// conjunction false, as in ExprEval). Parameters resolve through
  /// `params` at compile time (per batch, not per row). Property terms
  /// need `g`; they read its whole-graph columns, which a sharded store's
  /// partition slices copy value for value.
  static std::unique_ptr<CompiledPredicate> Compile(const Expr& e,
                                                    const ColMap& cols,
                                                    const ParamMap* params,
                                                    const PropertyGraph* g);

  /// Appends the surviving physical positions of `in`'s active rows, in
  /// visit order, to `*sel` — the same contract as the generic
  /// FilterSelection row loop. Terms evaluate over all active rows into
  /// byte masks (auto-vectorizable compare loops on all-int64 / all-double
  /// columns, a Value::Compare loop otherwise) that AND together.
  void Select(const Batch& in, std::vector<uint32_t>* sel) const;

  /// Scan fast path: filters a vertex-id candidate list in place. Every
  /// term reads the scan's single column — the vertex itself for var
  /// terms, its properties (hoisted column) for property terms.
  void FilterVertexIds(std::vector<VertexId>* vids) const;

  size_t num_terms() const { return terms_.size(); }
  /// A term compares against a null constant, or tests membership in a
  /// non-list: the conjunction can never hold (comparison with null is
  /// null, IN over a non-list is false).
  bool always_false() const { return always_false_; }

 private:
  std::vector<Term> terms_;
  bool always_false_ = false;
};

}  // namespace gopt
