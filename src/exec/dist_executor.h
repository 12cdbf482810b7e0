#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/common/cancel.h"
#include "src/common/hash.h"
#include "src/exec/executor.h"
#include "src/exec/kernels.h"
#include "src/exec/result.h"
#include "src/store/partitioned_graph.h"

namespace gopt {

/// The GraphScope-like backend runtime: a dataflow simulator with one
/// worker per partition of a sharded store (src/store/). Scans read each
/// partition's owned vertex lists, exchange targets come from the store's
/// ownership map, and exchange placement is *lazy*: a stream stays
/// partitioned by the vertex column it was last distributed on, and rows
/// move only when the next expansion reads adjacency of a
/// differently-partitioned column. comm_rows is therefore an edge-cut
/// metric: the final expansion of a chain (whose target no operator
/// expands from) ships nothing.
///
/// Joins, aggregates and dedups hash-exchange on their keys; ORDER does a
/// local top-k then a k-way merge of the sorted per-worker lists at
/// worker 0. Exchanged rows are counted in ExecStats::comm_rows, the
/// quantity the paper's distributed cost model charges as communication
/// cost.
///
/// Implements ExpandIntersect (WCOJ-style vertex expansion) and two-phase
/// aggregation (GroupLocal / GroupGlobal, Fig. 3(d) in the paper).
///
/// Thread-confinement: one executor instance belongs to one Execute call
/// at a time (it carries per-run memo/stats state; the worker threads it
/// spawns internally are its own). GOptEngine constructs a fresh executor
/// per Execute, so engine-level Execute calls may run concurrently.
class DistributedExecutor {
 public:
  /// One worker per partition of `pg`, which must outlive the executor.
  explicit DistributedExecutor(const PartitionedGraph& pg)
      : k_(&pg.base(), &pg), pg_(pg), workers_(pg.num_partitions()) {}

  ResultTable Execute(const PhysOpPtr& root);

  const ExecStats& stats() const { return stats_; }

  /// Parameter bindings for $name slots in the plan's expressions; must
  /// outlive Execute (the map is read concurrently by worker threads, which
  /// is safe because execution only ever reads it).
  void set_params(const ParamMap* params) { k_.set_params(params); }

  /// Enables/disables the kernels' vectorized fast paths (bit-identical
  /// results either way; see Kernels::set_vectorize).
  void set_vectorize(bool on) { k_.set_vectorize(on); }

  /// Cooperative cancellation (docs/serving.md): the control thread checks
  /// the token before every operator (the dataflow steps of this
  /// simulator), so a trip aborts between exchanges/operators by throwing
  /// CancelledError out of Execute.
  void set_cancel(CancelToken cancel) { cancel_ = std::move(cancel); }

 private:
  /// A distributed table: the batches each worker holds, in order. Every
  /// streaming operator runs the batch kernels of the morsel runtime on
  /// each batch; exchanges and the row-only breakers (dedup, sort, limit,
  /// union, aggregate combine) convert at their boundary.
  using Parts = std::vector<std::vector<Batch>>;
  using PartsPtr = std::shared_ptr<Parts>;

  PartsPtr Run(const PhysOpPtr& op);

  /// Re-partitions the active rows of every batch: a row held by worker w
  /// moves to worker `target(batch, row)`, keeping source-worker order;
  /// counts moved rows as communication.
  Parts Exchange(Parts in,
                 const std::function<int(const Batch&, size_t)>& target);
  /// Re-partitions by a hash of the given column indices (empty:
  /// everything to worker 0).
  Parts ExchangeByKey(Parts in, const std::vector<int>& key_idx);
  /// Re-partitions by the store's owner of the vertex in column `idx`.
  Parts ExchangeByVertex(Parts in, int idx);
  /// Owner worker of a row value holding a vertex.
  int OwnerOf(const Value& v) const;
  /// Runs `fn(w)` for every worker: inline when the step reads fewer than
  /// 2048 rows, else one thread per worker. The first exception a worker
  /// throws is rethrown here after every worker has joined.
  void ForEachWorker(size_t rows, const std::function<void(int)>& fn) const;
  /// Replaces each worker's batches by `fn(batches, worker)`.
  Parts PerWorker(const Parts& in,
                  const std::function<std::vector<Batch>(
                      const std::vector<Batch>&, int)>& fn) const;
  /// Applies a batch kernel to every batch (empty outputs are dropped).
  Parts MapBatches(const Parts& in,
                   const std::function<Batch(const Batch&)>& fn) const;
  /// Applies a row breaker kernel to each worker's rows; `ncols` is the
  /// output row width.
  Parts MapRows(const Parts& in, size_t ncols,
                const std::function<std::vector<Row>(std::vector<Row>)>& fn)
      const;

  /// The vertex tag an expansion reads adjacency from (the column its
  /// input must be partitioned by); empty when none.
  static const std::string& ExpandSourceTag(const PhysOp& op);
  /// Re-distributes `in` by owner of `tag` unless the stream is already
  /// partitioned that way; returns the parts to expand and records the
  /// stream's new partitioning tag in `cur_tag`. A single-consumer child
  /// stream is drained in place; one shared by several parents (DAG
  /// plans) is exchanged as a copy.
  const Parts* StageForExpansion(const PhysOp& op, const PartsPtr& in,
                                 Parts* staged, std::string* cur_tag);
  /// Counts how many parent operators consume each node's output (DAG
  /// nodes counted once per distinct parent edge).
  static void CountConsumers(const PhysOpPtr& op,
                             std::map<const PhysOp*, int>* consumers);

  Kernels k_;
  const PartitionedGraph& pg_;
  int workers_;
  CancelToken cancel_;
  ExecStats stats_;
  std::map<const PhysOp*, PartsPtr> memo_;
  /// The vertex tag each memoized stream is currently ownership-
  /// partitioned by ("" = no meaningful partitioning, e.g. after a key
  /// exchange or gather).
  std::map<const PhysOp*, std::string> owner_tag_;
  /// Parent count per node, so staging exchanges can drain single-consumer
  /// streams instead of copying them.
  std::map<const PhysOp*, int> consumers_;
};

}  // namespace gopt
