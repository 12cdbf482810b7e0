#pragma once

#include <atomic>
#include <map>
#include <vector>

#include "src/common/cancel.h"
#include "src/exec/executor.h"
#include "src/exec/kernels.h"
#include "src/exec/pipeline.h"
#include "src/exec/result.h"
#include "src/opt/pipeline/planner_options.h"

namespace gopt {

/// Knobs of the morsel-driven runtime.
struct MorselOptions {
  /// Worker threads per pipeline. 1 runs every morsel inline on the
  /// calling thread (sequential batch execution, no pool); <= 0 means
  /// hardware concurrency.
  int threads = 1;
  /// Vertices per scan morsel (slices of the scan domain).
  size_t morsel_rows = 2048;
  /// Rows per batch when a breaker's materialized output is re-chunked
  /// into the next pipeline's morsels.
  size_t batch_rows = kDefaultBatchRows;
  /// Factorized-intermediate mode applied when Execute has to build the
  /// pipeline plan itself (no prebuilt plan passed). A prebuilt plan
  /// carries its own frozen per-pipeline decisions and wins.
  FactorizationMode factorization = FactorizationMode::kAuto;
  /// Kernel vectorized fast paths (docs/vectorization.md). Results are
  /// bit-identical on or off; off forces every kernel through the generic
  /// path (the differential suite's baseline).
  bool vectorize = true;
};

/// Work-stealing distribution of morsel indices [0, total) over workers.
/// Each worker owns a contiguous index range packed into one atomic word
/// (begin << 32 | end): owners pop from the front of their range, and a
/// worker whose range is empty steals from the back of the largest
/// remaining victim range. All transitions are CAS on the packed word, so
/// the queue is lock-free and ThreadSanitizer-clean.
class MorselQueue {
 public:
  MorselQueue(size_t total, int workers);

  /// Explicit initial ranges, one per worker (begin/end morsel indices).
  /// Used by partitioned scans to hand each worker one whole partition's
  /// contiguous morsel run — locality-first assignment, with stealing
  /// still balancing skewed partitions.
  explicit MorselQueue(const std::vector<std::pair<size_t, size_t>>& ranges);

  /// Claims the next morsel for worker `w`; false when no work is left
  /// anywhere (after attempting to steal from every other worker).
  bool Next(int w, size_t* idx);

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> range{0};
  };
  std::vector<Slot> slots_;
};

/// The morsel-driven, batch-at-a-time parallel runtime: decomposes the
/// physical plan into pipelines (src/exec/pipeline.h), splits every
/// pipeline's source into morsels, and streams each morsel through the
/// pipeline's operator chain on a work-stealing worker pool. Within a
/// pipeline, each worker holds only the one in-flight batch of its
/// current morsel — intermediate operator results are never retained.
/// What does materialize is each pipeline's *output* (the sink), kept as
/// the next pipeline's source; pipeline breakers (aggregate, sort, global
/// limit, dedup, union, join build sides) additionally see their whole
/// input at once when their blocking kernel runs.
///
/// With threads == 1 the runtime is fully sequential and deterministic,
/// running every morsel inline on the calling thread; with N threads,
/// results are identical (morsel outputs are reassembled in morsel order
/// before any order-sensitive sink runs) and per-worker ExecStats are
/// merged after every pipeline. It is the engine's single-machine runtime
/// at every EngineOptions::exec_threads; differential tests
/// (tests/batch_exec_test.cc) hold it equal to the distributed executor
/// on every bundled workload.
///
/// It implements the full operator repertoire, including ExpandIntersect.
/// A backend's narrower repertoire (the Neo4j-like backend has no
/// ExpandIntersect) is enforced at plan time by its BackendSpec, not here.
///
/// Thread-confinement: one instance per Execute call (the worker threads
/// it spawns internally are its own) — same contract as
/// DistributedExecutor.
class MorselExecutor {
 public:
  /// `pg` (optional) attaches a sharded store: scan pipelines then split
  /// into partition-granular morsels (one contiguous morsel run per
  /// partition, handed to workers partition-at-a-time before stealing)
  /// and ExecStats carries the per-partition scan row counts. Results are
  /// differential-tested identical across partition counts.
  explicit MorselExecutor(const PropertyGraph* g, MorselOptions opts = {},
                          const PartitionedGraph* pg = nullptr);

  /// Executes the plan. `plan` is an optional prebuilt decomposition of
  /// `root` (e.g. cached in a Prepared at planning time so warm-cache
  /// executions skip the rebuild); when null it is built here.
  ResultTable Execute(const PhysOpPtr& root, const PipelinePlan* plan = nullptr);

  const ExecStats& stats() const { return stats_; }

  /// Parameter bindings for $name slots in the plan's expressions; must
  /// outlive Execute (read concurrently by workers — safe, read-only).
  void set_params(const ParamMap* params) { k_.set_params(params); }

  /// Cooperative cancellation (docs/serving.md): workers check the token
  /// before every morsel (and the control thread between pipelines), so a
  /// trip aborts within one morsel's worth of work per worker. The
  /// CancelledError a worker throws rides the runtime's existing
  /// exception capture and is rethrown out of Execute after the pool
  /// joins.
  void set_cancel(CancelToken cancel) { cancel_ = std::move(cancel); }

  int threads() const { return threads_; }

 private:
  /// Per-worker counters of one pipeline chain, merged into ExecStats
  /// after the pool joins. `rows` counts logical rows (bindings
  /// represented — identical factorized or flat, which is what keeps
  /// rows_produced parity with the other runtimes); `tuples` counts
  /// physical tuples actually stored; `groups` the prefix-group entries
  /// among them.
  struct ChainStats {
    uint64_t rows = 0;
    uint64_t tuples = 0;
    uint64_t groups = 0;
  };

  /// Runs one pipeline; `is_root` marks the one materializing the plan
  /// root, whose collected batches are flattened for the result table.
  void RunPipeline(const Pipeline& p, bool is_root);
  /// Streams one source batch through the pipeline's operator chain,
  /// accumulating per-operator counts into `*cs`. The owned overload
  /// filters in place (scan batches belong to the worker); the shared
  /// overload copies only if the first operator is a filter (materialized
  /// source batches may be consumed by several parents).
  Batch ApplyChain(const Pipeline& p, Batch&& owned, ChainStats* cs) const;
  Batch ApplyChain(const Pipeline& p, const Batch& shared,
                   ChainStats* cs) const;
  /// Applies ops[from..] to an owned batch.
  Batch ApplyOpsOwned(const Pipeline& p, size_t from, Batch cur,
                      ChainStats* cs) const;
  /// One non-filter streaming operator (ops[i]), batch in / batch out.
  /// The pipeline's factorized / lazy_ops flags select factorized
  /// emission for the expansion kernels.
  Batch ApplyStreamingOp(const Pipeline& p, size_t i, const Batch& in) const;
  void RunUnionSink(const Pipeline& p);
  /// Runs a row-needing sink's blocking kernel (sort, limit, dedup) over
  /// the collected input rows; aggregates take AggregateBatchRows instead.
  std::vector<Row> RunBreaker(const PhysOp& sink, std::vector<Row> rows) const;

  Kernels k_;
  const PartitionedGraph* pg_;
  MorselOptions opts_;
  int threads_;
  CancelToken cancel_;
  ExecStats stats_;
  /// Materialized sink outputs, keyed by operator node (the DAG memo).
  std::map<const PhysOp*, std::vector<Batch>> results_;
  /// Join tables, built from the build side's materialized batches before
  /// the probing pipeline starts.
  std::map<const PhysOp*, JoinHashTable> join_tables_;
};

}  // namespace gopt
