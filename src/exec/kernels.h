#pragma once

#include <atomic>
#include <cstdint>

#include "src/exec/batch.h"
#include "src/exec/eval.h"
#include "src/physical/physical_op.h"
#include "src/store/partitioned_graph.h"

namespace gopt {

/// A morsel of a vertex scan: a slice of the scan domain. `all` morsels
/// slice the raw vertex-id range [begin, end); typed morsels slice the
/// per-type vertex list of `type` by list offset. On a sharded store
/// (`partition` >= 0) the sliced domain is that partition's owned vertex
/// list (or per-type list) instead of the global one.
struct ScanMorsel {
  bool all = true;
  TypeId type = kInvalidTypeId;
  int partition = -1;  ///< -1: global store; else partition-local domain
  size_t begin = 0;
  size_t end = 0;
};

/// A join's build (right) side, read once from the build pipeline's
/// batches and then probed by any number of threads concurrently — the
/// build/probe split of the morsel runtime. The table is columnar and
/// flat: it keeps only the key columns and the appended columns (one entry
/// per build row, in build order), and groups the build rows by key in two
/// arrays — `positions` lists the rows key by key, ascending within a key,
/// and `offsets` delimits each key's run. Distinct keys are found through
/// an open-addressing slot array hashed with Value::Hash combined per key
/// column, and compared with Value::operator== (int/double coercion, null
/// equal to null). Building allocates per column, never per row.
///
/// A *lazy* table (the probing pipeline proved every appended column dead,
/// docs/factorization.md) stores no appended values; its probe emits one
/// multiplicity group per matched probe row instead of copied rows.
struct JoinHashTable {
  bool lazy = false;
  std::vector<int> lkey;  ///< probe-side key column positions
  /// Per key column, then per appended column (left empty when lazy): one
  /// value per build row, in build order.
  std::vector<std::vector<Value>> keys;
  std::vector<std::vector<Value>> append;
  /// Distinct keys, numbered in first-occurrence order: key d owns
  /// positions[offsets[d] .. offsets[d + 1]), and positions[offsets[d]] is
  /// its first build row (the one whose key values represent it).
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> positions;
  std::vector<size_t> key_hash;  ///< per distinct key
  /// Power-of-two open-addressing array: distinct key id + 1, 0 = empty.
  std::vector<uint32_t> slots;
};

/// Operator kernels shared by every runtime. The streaming kernels (scan,
/// expansions, filter, project, unfold, join build and probe) are
/// batch-native — they consume and produce columnar Batches, filters
/// refining the selection vector in place — and both the morsel runtime
/// (src/exec/morsel.cc) and the distributed executor
/// (src/exec/dist_executor.cc) schedule them. The blocking kernels (sort,
/// dedup, union, aggregate combine) materialize by nature and take rows;
/// both runtimes convert at those breakers.
class Kernels {
 public:
  /// `pstore` (optional) attaches a sharded store. All graph reads are
  /// then served partition-locally: scan morsels slice the per-partition
  /// vertex lists (partition-major order), expansions read the owner
  /// partition's CSR (Adj below), and vertex-property evaluation resolves
  /// through the owner's columnar slices. Semantics are identical either
  /// way — the partitioned store's spans and slices are
  /// differential-tested equal to the global store's.
  explicit Kernels(const PropertyGraph* g,
                   const PartitionedGraph* pstore = nullptr)
      : g_(g), pstore_(pstore), eval_(g, pstore) {}

  // ---- batch-native streaming kernels ----

  /// Splits the scan domain of `op` into morsels of at most `morsel_rows`
  /// vertices (one or more per vertex type). On a sharded store the
  /// domain is per-partition (morsels ordered partition-major, so a
  /// contiguous morsel-index range covers one partition).
  std::vector<ScanMorsel> ScanMorsels(const PhysOp& op,
                                      size_t morsel_rows) const;

  /// Scans one morsel: its slice of the scan domain, filtered by the
  /// op's pushed vertex predicates.
  Batch ScanBatch(const PhysOp& op, const ScanMorsel& m) const;

  /// The expansion kernels accept factorized input transparently (values
  /// resolve through the group mapping). With `factorize` they also emit
  /// factorized output: the input row becomes one prefix group shared by
  /// the whole fan-out, only the newly bound columns get per-row entries
  /// (docs/factorization.md). With `lazy` additionally set (only legal
  /// when the chooser proved the new columns dead downstream) even those
  /// are elided: groups carry just their multiplicity, the new columns
  /// read as null. Results are row-for-row identical in all modes.
  Batch ExpandEdgeBatch(const PhysOp& op, const Batch& in,
                        bool factorize = false, bool lazy = false) const;
  Batch ExpandIntersectBatch(const PhysOp& op, const Batch& in,
                             bool factorize = false, bool lazy = false) const;
  Batch PathExpandBatch(const PhysOp& op, const Batch& in,
                        bool factorize = false, bool lazy = false) const;
  /// The physical row positions (in visit order) that survive the filter
  /// predicate — computed without mutating `in`. On a factorized batch
  /// whose predicate only touches group columns, the predicate is
  /// evaluated once per group instead of once per row.
  std::vector<uint32_t> FilterSelection(const PhysOp& op,
                                        const Batch& in) const;
  /// Refines the selection vector in place; no values move.
  void FilterBatch(const PhysOp& op, Batch* in) const;
  /// Structure-preserving on factorized input: pass-through and
  /// group-only-expression columns stay group-backed (evaluated once per
  /// group), everything else is evaluated per row; falls back to the flat
  /// row loop when no output column would stay group-backed.
  Batch ProjectBatch(const PhysOp& op, const Batch& in) const;
  /// With `factorize`, each input row becomes a prefix group and the
  /// unfolded list elements the per-row column — the same shape as a
  /// factorized expansion.
  Batch UnfoldBatch(const PhysOp& op, const Batch& in,
                    bool factorize = false) const;

  /// Builds the join table straight from the build (right) side's
  /// batches — flat or factorized, any selection — reading only the key
  /// and appended columns, in batch order. With `lazy` the appended
  /// columns are not stored (see JoinHashTable).
  JoinHashTable BuildJoinTable(const PhysOp& op,
                               const std::vector<Batch>& right,
                               bool lazy = false) const;
  /// Streams one probe-side batch through a prebuilt table (thread-safe:
  /// the table is read-only during probing). Probe rows are read in place
  /// through the batch's group mapping — a factorized input is never
  /// flattened. Output rows keep the probe order, and each probe row's
  /// matches the build order. With `factorize` (inner and left-outer
  /// joins) each emitting probe row becomes one prefix group whose run
  /// holds its matches' appended values; a lazy table elides those too,
  /// leaving a pure multiplicity. Logical rows are identical in every mode.
  Batch JoinProbeBatch(const PhysOp& op, const Batch& left,
                       const JoinHashTable& ht, bool factorize = false) const;

  // ---- blocking kernels (pipeline-breaker sinks) ----

  std::vector<Row> Dedup(const PhysOp& op, const std::vector<Row>& in) const;

  /// Aggregation. With combine = false, evaluates group keys / agg args over
  /// the child layout (a full or "local" aggregation). With combine = true,
  /// input rows already have the op's output layout and partial results are
  /// merged (the distributed GroupGlobal phase: COUNT/SUM -> sum, MIN -> min,
  /// MAX -> max).
  std::vector<Row> Aggregate(const PhysOp& op, const std::vector<Row>& in,
                             bool combine = false) const;

  std::vector<Row> SortLimit(const PhysOp& op, std::vector<Row> in) const;

  /// K-way merge of per-worker lists already sorted by the op's sort
  /// items (each typically a local top-k), honoring op.limit. Ties across
  /// lists resolve to the lower list index then the earlier position —
  /// exactly the order a stable sort of the worker-order concatenation
  /// produces, at O(N log K) instead of a full re-sort.
  std::vector<Row> MergeSortedLimit(const PhysOp& op,
                                    std::vector<std::vector<Row>> parts) const;

  /// Aggregates collected batches directly — without materializing them
  /// as rows first. Factorized batches whose group keys and agg arguments
  /// all live on group columns are consumed run-at-a-time: one evaluation
  /// and one multiplicity-weighted state update per run (COUNT += n,
  /// SUM += v*n, ...), never expanding the groups. Output is identical to
  /// Aggregate over the flattened rows, including group order (first
  /// occurrence).
  std::vector<Row> AggregateBatchRows(const PhysOp& op,
                                      const std::vector<Batch>& in) const;

  /// Union splice: appends `right` (column-mapped into the union layout)
  /// to `left`, deduplicating when `op.union_distinct`. The morsel
  /// runtime's union sink.
  std::vector<Row> Union(const PhysOp& op, std::vector<Row> left,
                         std::vector<Row> right) const;

  /// Permutes `rows` (with layout `from_cols`) into `to_cols` order.
  std::vector<Row> MapColumns(std::vector<Row> rows,
                              const std::vector<std::string>& from_cols,
                              const std::vector<std::string>& to_cols) const;

  const ExprEval& eval() const { return eval_; }
  const PropertyGraph& graph() const { return *g_; }

  /// Installs execution-time parameter bindings on the evaluator (see
  /// ExprEval::set_params). The map must outlive kernel execution.
  void set_params(const ParamMap* params) { eval_.set_params(params); }

  /// Enables/disables the vectorized fast paths (docs/vectorization.md):
  /// sort-free CSR-span intersection in ExpandIntersectBatch, compiled
  /// branch-free predicates in FilterSelection/ScanBatch, typed column
  /// views and appenders. On by default; per call the kernel falls back to
  /// the generic path when the inputs don't qualify, and results are
  /// bit-identical either way — the choice is observable only through the
  /// dispatch counters below.
  void set_vectorize(bool on) { vectorize_ = on; }
  bool vectorize() const { return vectorize_; }

  /// Dispatch counters of the fast-path-aware kernels (ScanBatch,
  /// ExpandIntersectBatch, FilterSelection): one count per invocation,
  /// split by which path served it. Atomic (relaxed) because one Kernels
  /// instance serves every morsel worker concurrently; executors snapshot
  /// deltas per pipeline into ExecStats.
  uint64_t vectorized_dispatches() const {
    return vec_dispatch_.load(std::memory_order_relaxed);
  }
  uint64_t generic_dispatches() const {
    return gen_dispatch_.load(std::memory_order_relaxed);
  }

 private:
  /// Adjacency of `u`, served from the sharded store's partition-local
  /// CSR when one is attached (owner resolved through the ownership map),
  /// else from the global store. Span contents are identical either way.
  Span<const AdjEntry> Adj(VertexId u, bool out) const;
  Span<const AdjEntry> Adj(VertexId u, bool out, TypeId etype) const;

  /// Calls `f(v)` for every vertex in the slice morsel `m` covers.
  template <typename F>
  void ForEachScanVertex(const ScanMorsel& m, F&& f) const;

  /// Iterates adjacency entries of `u` in direction `dir` filtered by the
  /// edge type constraint; `reversed` in the callback is true when the data
  /// edge points toward `u`.
  template <typename F>
  void ForEachAdj(VertexId u, Direction dir, const TypeConstraint& etc_,
                  F&& f) const;

  const PropertyGraph* g_;
  const PartitionedGraph* pstore_ = nullptr;
  ExprEval eval_;
  bool vectorize_ = true;
  mutable std::atomic<uint64_t> vec_dispatch_{0};
  mutable std::atomic<uint64_t> gen_dispatch_{0};
};

/// Returns true if all aggregate functions support two-phase (local +
/// combine) execution.
bool SupportsPartialAgg(const PhysOp& op);

}  // namespace gopt
