#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/exec/result.h"

namespace gopt {

/// Number of rows a batch-producing kernel targets per output chunk.
inline constexpr size_t kDefaultBatchRows = 1024;

/// A typed, contiguous extraction of one Batch column (the vectorized fast
/// paths' input format, docs/vectorization.md): `vals` holds one entry per
/// *physical* row, indexed with PhysIndex(). `ok` is false when the batch
/// is factorized or any physical value is not of the requested type —
/// `vals` is then partial and meaningless, and the caller falls back to
/// the generic Value path. Supported T: int64_t, double, VertexId.
template <typename T>
struct TypedView {
  bool ok = false;
  std::vector<T> vals;
};

/// A columnar chunk of rows: the unit of data flow in the morsel-driven
/// batch runtime (src/exec/morsel.{h,cc}). Stores one Value vector per
/// column plus an optional *selection vector* — the list of physical row
/// positions that are still live. Filters refine the selection instead of
/// moving data; all other kernels iterate the active rows in selection
/// order, so every kernel visits rows in input order.
///
/// A batch may additionally be *factorized* (docs/factorization.md): some
/// columns are then *group columns* storing one entry per prefix group
/// instead of one per row, with `group_offsets()` mapping physical rows to
/// groups by run — how expansion kernels emit adjacency payloads without
/// replicating the prefix. Logical row semantics are unchanged: size(),
/// PhysIndex(), selections and visit order all range over logical rows,
/// and At()/GatherRow() resolve group columns transparently, so any
/// row-oriented consumer is correct on a factorized batch without knowing
/// it. A group may also carry *no* flat entries at all (a lazy, or
/// multiplicity-only, batch): the run length then only encodes how many
/// logical rows the group stands for; columns whose values were never
/// stored read as null (only emitted when provably dead downstream).
///
/// Conversion to and from the row representation is lossless: for any
/// row vector R, Batch::FromRows(R).ToRows() == R, and for any batch B,
/// Batch::FromRows(B.ToRows()) holds the same active rows in the same
/// order (with the selection compacted and groups expanded away).
class Batch {
 public:
  Batch() = default;
  explicit Batch(size_t num_cols) : cols_(num_cols) {}

  size_t num_cols() const { return cols_.size(); }
  /// Number of *active* rows (the selection's length when one is set).
  size_t size() const { return sel_active_ ? sel_.size() : num_phys_rows(); }
  bool empty() const { return size() == 0; }
  /// Number of physical rows stored, including filtered-out ones. On a
  /// factorized batch this is the logical row count the run lengths add up
  /// to (flat columns have exactly that many entries; group columns fewer).
  size_t num_phys_rows() const {
    if (factorized_) return goff_.empty() ? 0 : goff_.back();
    return cols_.empty() ? 0 : cols_[0].size();
  }

  std::vector<Value>& col(size_t c) { return cols_[c]; }
  const std::vector<Value>& col(size_t c) const { return cols_[c]; }

  /// Physical row position of active row `i`.
  uint32_t PhysIndex(size_t i) const {
    return sel_active_ ? sel_[i] : static_cast<uint32_t>(i);
  }

  /// Value at (active row i, column c), resolving group columns through
  /// the row's group.
  const Value& At(size_t i, size_t c) const {
    const uint32_t p = PhysIndex(i);
    if (factorized_ && group_col_[c]) return gcols_[c][GroupOf(p)];
    return cols_[c][p];
  }

  /// True once a selection vector has been installed (even an empty one:
  /// an all-filtered batch has an *active* empty selection, which is
  /// different from a batch with no selection at all).
  bool has_selection() const { return sel_active_; }
  const std::vector<uint32_t>& selection() const { return sel_; }

  /// Installs `sel` as the active selection (physical row positions in
  /// visit order). Replaces any previous selection; the positions must
  /// already refer to physical rows.
  void SetSelection(std::vector<uint32_t> sel) {
    sel_ = std::move(sel);
    sel_active_ = true;
  }

  /// Appends one row (values in column order) as an active physical row.
  /// Only valid while no selection is installed and not factorized.
  void AppendRow(const Row& r);

  /// Copies active row `i` into `*out` (resized to the column count).
  /// Kernels reuse one scratch row across calls to avoid reallocation.
  void GatherRow(size_t i, Row* out) const;

  /// Compacts the selection away and expands any group columns: after
  /// Flatten the batch stores only the previously active rows, densely and
  /// fully flat, in the same order. No-op (no column copy) without a
  /// selection or groups — including when the installed selection is the
  /// identity permutation, which only drops the vector.
  void Flatten();

  /// One-pass typed extraction of column `c` over the physical rows (all
  /// of them, so one extraction serves any selection). See TypedView for
  /// the contract; kernels cache the result per column per invocation
  /// (TypedViewCache in src/exec/vectorized.h).
  template <typename T>
  TypedView<T> ExtractTyped(size_t c) const;

  /// Dense copy of the given physical row positions, in visit order —
  /// how a filter's surviving rows are lifted out of a batch that must
  /// not be mutated (e.g. a materialized source shared between parents).
  /// The copy is fully flat (groups expanded for the gathered rows).
  Batch GatherPhys(const std::vector<uint32_t>& phys) const;

  /// Columnar form of `rows`; every row must have `num_cols` values.
  static Batch FromRows(const std::vector<Row>& rows, size_t num_cols);

  /// Appends the active rows, in order, to `*out`.
  void AppendRowsTo(std::vector<Row>* out) const;
  std::vector<Row> ToRows() const;

  // ---- factorized representation ----

  bool factorized() const { return factorized_; }
  /// Number of prefix groups (0 on a flat batch).
  size_t num_groups() const {
    return factorized_ ? goff_.size() - 1 : 0;
  }
  bool col_is_group(size_t c) const {
    return factorized_ && group_col_[c] != 0;
  }
  /// Per-group backing of a group column (one entry per group).
  std::vector<Value>& gcol(size_t c) { return gcols_[c]; }
  const std::vector<Value>& gcol(size_t c) const { return gcols_[c]; }
  /// Group start offsets over physical rows, size num_groups() + 1.
  const std::vector<uint32_t>& group_offsets() const { return goff_; }
  /// Group of physical row `phys` (binary search over the offsets).
  uint32_t GroupOf(uint32_t phys) const {
    return static_cast<uint32_t>(
        std::upper_bound(goff_.begin() + 1, goff_.end(), phys) -
        (goff_.begin() + 1));
  }

  /// Switches the (still empty) batch to factorized layout: columns with
  /// is_group[c] != 0 are group-backed. Producers then, per group, push
  /// the group values into gcol() and the per-row values into col(), and
  /// call CloseGroup with the run length.
  void InitFactorized(std::vector<uint8_t> is_group);
  /// Closes the current group: the last `run_len` flat entries (or a pure
  /// multiplicity when every column is group-backed) belong to the group
  /// whose group-column entries were just appended. run_len must be > 0.
  void CloseGroup(uint32_t run_len);
  /// Adopts `src`'s group offsets and selection — for kernels emitting
  /// exactly one output entry per input group / physical row (column
  /// subsetting projections). Requires InitFactorized was called.
  void CopyLayoutFrom(const Batch& src);

  /// Expands every group column to one entry per physical row, turning the
  /// batch flat; any selection is kept untouched. No-op on flat batches.
  void FlattenGroups();

  /// Physical tuples this batch stores: the flat row count, or — when
  /// factorized — group entries plus flat entries (groups only, when every
  /// column is group-backed). The materialization measure Explain reports
  /// against logical rows.
  uint64_t materialized_tuples() const;
  /// Value cells stored across all columns (group + flat backings).
  uint64_t materialized_cells() const;

 private:
  std::vector<std::vector<Value>> cols_;  ///< flat backings (empty for group cols)
  std::vector<uint32_t> sel_;
  bool sel_active_ = false;

  bool factorized_ = false;
  std::vector<uint8_t> group_col_;         ///< per column: group-backed?
  std::vector<std::vector<Value>> gcols_;  ///< per-group backings
  std::vector<uint32_t> goff_;             ///< group offsets, size G + 1
};

/// Splits `rows` into dense batches of at most `batch_rows` rows each.
std::vector<Batch> BatchesFromRows(const std::vector<Row>& rows,
                                   size_t num_cols, size_t batch_rows);

/// Concatenates the active rows of `batches` into one row vector.
std::vector<Row> RowsFromBatches(const std::vector<Batch>& batches);

/// Total active rows across `batches`.
size_t TotalBatchRows(const std::vector<Batch>& batches);

}  // namespace gopt
