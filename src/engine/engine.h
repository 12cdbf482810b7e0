#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "src/common/cancel.h"
#include "src/engine/result_cache.h"
#include "src/exec/dist_executor.h"
#include "src/exec/executor.h"
#include "src/exec/morsel.h"
#include "src/opt/pipeline/pipelines.h"
#include "src/opt/pipeline/planner_options.h"
#include "src/opt/pipeline/shared_plan_cache.h"
#include "src/physical/converter.h"
#include "src/store/partitioned_graph.h"
#include "src/store/rebalancer.h"

namespace gopt {

/// A fully planned query ready for (repeated) execution under any
/// parameter binding. Defined at namespace scope (not nested in the
/// engine) so SharedPreparedPlanCache can be named by EngineOptions
/// without depending on the engine layer; `GOptEngine::Prepared` remains
/// an alias. The plan trees are immutable once planned — a Prepared can be
/// executed from any number of threads concurrently.
struct Prepared {
  LogicalOpPtr logical;
  PhysOpPtr physical;
  bool invalid = false;  ///< type inference proved the pattern unmatchable
  std::vector<std::string> fired_rules;
  std::map<const LogicalOp*, PatternPlanPtr> pattern_plans;
  std::vector<std::string> output_columns;
  /// Per-pass planning diagnostics (shared with the cache: a cache hit
  /// returns the trace of the original planning run).
  std::shared_ptr<const PlanTrace> trace;
  /// The physical plan's pipeline decomposition for the morsel runtime,
  /// built once at planning time (it only depends on the immutable plan
  /// tree) so warm-cache executions and Explain never rebuild it. Shared
  /// with the cache like `trace`; its raw PhysOp pointers refer into
  /// `physical`, which every Prepared copy co-owns.
  std::shared_ptr<const PipelinePlan> exec_pipelines;
  /// True when this Prepared was served from the plan cache.
  bool from_cache = false;

  /// The canonical parameterized query text this plan was built from
  /// (also the cache-key text).
  std::string parameterized_query;
  /// The language the text was planned as (part of every cache key).
  Language lang = Language::kCypher;
  /// The full plan-cache key — (parameterized text, language, options
  /// fingerprint, graph identity, statistics epoch). Computed by every
  /// Prepare, even with the plan cache disabled: it doubles as the plan
  /// component of result-cache keys (docs/result-cache.md).
  std::string plan_key;
  /// The statistics epoch this plan was prepared under — the scope tag of
  /// every result-cache entry it populates, so a later SetGlogue can evict
  /// exactly this generation's results.
  uint64_t glogue_epoch = 0;
  /// The ownership-map generation this plan was prepared under
  /// (PartitionedGraph::epoch(); 0 on an unpartitioned or policy-built
  /// store) — the partition-side scope tag of its result-cache entries, so
  /// RebalancePartitions can evict exactly the pre-migration generation.
  uint64_t partition_epoch = 0;
  /// Every parameter slot the plan references: auto-extracted $__pN slots
  /// plus user-written $name parameters, in first-occurrence order.
  /// Execute throws if any of them is unbound.
  std::vector<std::string> required_params;
  /// Literal values auto-extracted from THIS call's query text (per-call
  /// state: a cache hit re-extracts them from the new text). Execute
  /// merges user-supplied bindings over these.
  ParamMap params;
};

/// The result object of Execute/Run: the rows plus this call's execution
/// metrics. Returning metrics here (instead of parking them in engine
/// members) is what makes Execute re-entrant — concurrent calls cannot
/// clobber each other's numbers.
struct ExecOutcome {
  /// The result rows, held by shared_ptr so a result-cache hit hands out
  /// the cached table zero-copy (docs/result-cache.md): any number of
  /// concurrent hits share one immutable materialization. Cold executions
  /// wrap their freshly built table the same way.
  std::shared_ptr<const ResultTable> table_ptr;
  ExecStats stats;
  double ms = 0;  ///< wall-clock milliseconds of this execution
  /// Typed completion status (docs/serving.md). kOk for every blocking
  /// call without a token; a cancelled/timed-out execution returns
  /// kCancelled/kTimeout with an empty table and discarded partial stats;
  /// kRejected is produced only by the serving layer's admission control
  /// (the engine itself never runs a rejected query).
  ExecStatus status = ExecStatus::kOk;
  /// Milliseconds the query waited in the serving layer's admission queue
  /// before a worker picked it up (0 for direct engine calls). Reported
  /// separately from `ms`, which remains pure execution time.
  double queue_ms = 0;

  /// The rows (an empty table when the query was invalid-by-types and
  /// produced none). Reference is valid as long as this outcome — or any
  /// copy sharing table_ptr — lives.
  const ResultTable& table() const {
    static const ResultTable kEmpty;
    return table_ptr ? *table_ptr : kEmpty;
  }

  // Table forwarders, so call sites that only care about rows read as
  // before: `engine.Run(q).NumRows()`.
  size_t NumRows() const { return table().NumRows(); }
  bool SameRows(const ResultTable& other) const {
    return table().SameRows(other);
  }
  bool SameRows(const ExecOutcome& other) const {
    return table().SameRows(other.table());
  }
};

/// One entry of GOptEngine::ExecuteBatch: a query plus its $name bindings.
struct BatchQuery {
  std::string query;
  ParamMap params;
  Language lang = Language::kCypher;

  BatchQuery() = default;
  BatchQuery(std::string q, ParamMap p = {}, Language l = Language::kCypher)
      : query(std::move(q)), params(std::move(p)), lang(l) {}
};

/// GOptEngine: the end-to-end facade. Planning runs as a declarative pass
/// pipeline (opt/pipeline) selected by PlannerMode — parse -> RBO -> type
/// inference -> CBO -> physical conversion — followed by execution on the
/// configured backend: GraphScope-like distributed, or single-machine on
/// the morsel-driven batch runtime with EngineOptions::exec_threads
/// workers (inline on the calling thread at 1; see docs/executor.md).
/// With EngineOptions::partitions > 0, and always on a distributed
/// backend, the engine shards its graph into a PartitionedGraph at
/// construction (docs/storage.md): the distributed backend runs one worker
/// per partition with ownership-map exchanges, the single-machine runtime
/// splits scans into partition-granular morsels, and the CBO prices
/// communication with the store's measured edge-cut.
///
/// Prepared plans are a prepared-statement subsystem, not just a memoizer:
/// Prepare first auto-parameterizes the query (constant tokens become $__pN
/// slots; see ParameterizeQuery for the guards), then looks the
/// parameterized stream up in a sharded thread-safe SharedPlanCache keyed
/// by (parameterized text, language, options fingerprint, graph identity,
/// statistics epoch). Queries differing only in literal values therefore
/// share one plan; the extracted values travel with the returned Prepared
/// and are bound at Execute time, optionally overridden by user-supplied
/// $name parameters.
///
/// Thread-safety (see docs/concurrency.md): Prepare, Execute, Run and
/// Explain are const and re-entrant — one engine may serve any number of
/// threads, and several engines may share one plan cache (inject it via
/// EngineOptions::plan_cache) and one Glogue (SetGlogue). Control-plane
/// calls — SetGlogue, RebalancePartitions, ClearPlanCache,
/// mutable_options() — must not run concurrently with mutable_options()
/// writes; SetGlogue and RebalancePartitions are themselves safe against
/// in-flight Prepare/Execute calls (they finish against the statistics
/// and store generation they snapshotted).
class GOptEngine {
 public:
  using Prepared = gopt::Prepared;

  GOptEngine(const PropertyGraph* g, BackendSpec backend,
             EngineOptions opts = {});

  /// Plans `query` (or serves the plan from the cache after
  /// auto-parameterization). The returned Prepared carries the literal
  /// bindings extracted from this exact query text, so Execute(prep) runs
  /// it as written; re-Execute with explicit params rebinds without
  /// replanning. Const and re-entrant.
  ///
  /// `cancel` (optional) cooperatively cancels planning: the pass manager
  /// checks it between passes and the CBO's per-pattern tasks check it per
  /// pattern. Unlike Execute there is no partial result to type, so a trip
  /// throws CancelledError (status() tells timeout from cancel) — the
  /// serving layer converts it into a typed ExecOutcome.
  Prepared Prepare(const std::string& query, Language lang = Language::kCypher,
                   CancelToken cancel = {}) const;

  /// Executes a prepared plan. `params` (user-supplied $name bindings) are
  /// merged over the auto-extracted literals of `prep`; a $param required
  /// by the plan but bound by neither throws std::runtime_error before any
  /// operator runs. Const and re-entrant: a fresh executor is constructed
  /// per call and all metrics are returned in the ExecOutcome.
  ///
  /// `cancel` (optional) cooperatively cancels execution: the runtimes
  /// check it at morsel/operator boundaries and charge produced rows
  /// against its row budget. A tripped token yields a *typed* outcome —
  /// status kCancelled/kTimeout, empty table, partial stats discarded —
  /// and the result cache is never populated from a cancelled run.
  ExecOutcome Execute(const Prepared& prep, const ParamMap& params = {},
                      CancelToken cancel = {}) const;

  /// Prepare + Execute (Prepare hits the plan cache on repeated queries).
  ExecOutcome Run(const std::string& query,
                  Language lang = Language::kCypher) const;
  /// Prepare + Execute with explicit $name parameter bindings.
  ExecOutcome Run(const std::string& query, const ParamMap& params,
                  Language lang = Language::kCypher) const;

  /// Executes a batch of queries with shared sub-pattern caching
  /// (docs/result-cache.md): after per-query result-cache consults, the
  /// remaining plans are scanned for structurally identical sub-plans
  /// (under their effective bindings); each shared sub-plan is
  /// materialized once and spliced into every consumer as a cached-scan
  /// leaf before execution. Outcomes are index-aligned with `batch` and
  /// identical (bit-for-bit tables, same logical rows_produced) to running
  /// each query alone — only the work is shared, never the semantics.
  /// Const and re-entrant like Execute.
  std::vector<ExecOutcome> ExecuteBatch(
      const std::vector<BatchQuery>& batch) const;
  /// ExecuteBatch convenience over bare query strings.
  std::vector<ExecOutcome> RunBatch(
      const std::vector<std::string>& queries,
      Language lang = Language::kCypher) const;

  /// Human-readable plan description (logical + pattern plans + physical +
  /// the per-pass PlanTrace with millisecond timings, per-pattern CBO
  /// timings, and the plan-cache counters). On a non-distributed backend
  /// also shows the pipeline decomposition the plan executes as.
  std::string Explain(const Prepared& prep) const;

  /// Explain plus an "Execution" section for one finished run of the plan:
  /// per-pipeline wall-clock timings, morsel counts, worker counts and row
  /// counts (single-machine runtime), or the executor totals otherwise.
  std::string Explain(const Prepared& prep, const ExecOutcome& outcome) const;

  /// Snapshot of the prepared-plan cache counters (hits / misses /
  /// evictions / entries). By value: the live counters are concurrently
  /// updated atomics. On a shared cache the counters aggregate over every
  /// engine attached to it.
  PlanCacheStats plan_cache_stats() const { return plan_cache_->stats(); }
  /// Drops every cached plan whose scope is this engine's graph, across
  /// all epochs and option fingerprints (counters are preserved). On a
  /// shared cache, entries of engines over *other* graphs survive; peers
  /// over the same graph share this engine's entries and lose them too.
  /// To drop a shared cache wholesale, call Clear() on the handle itself.
  void ClearPlanCache();
  /// The engine's plan cache handle (inject it into another engine's
  /// EngineOptions::plan_cache to share plans).
  const std::shared_ptr<SharedPreparedPlanCache>& plan_cache() const {
    return plan_cache_;
  }

  /// Snapshot of the result-cache counters (hits / misses / evictions /
  /// entries / bytes); all zero when no result cache is configured. On a
  /// shared cache the counters aggregate over every engine attached.
  CacheStats result_cache_stats() const {
    return result_cache_ ? result_cache_->stats() : CacheStats{};
  }
  /// Drops every cached result scoped to this engine's graph, across all
  /// epochs (counters preserved). On a shared cache, entries of engines
  /// over *other* graphs survive. No-op without a result cache.
  void ClearResultCache() {
    if (result_cache_) result_cache_->EraseScope(g_->instance_id());
  }
  /// The engine's result cache handle (null when result_cache_bytes == 0
  /// and none was injected). Inject into another engine's
  /// EngineOptions::result_cache to share results across engines.
  const std::shared_ptr<ResultCache>& result_cache() const {
    return result_cache_;
  }

  /// Shares a prebuilt GLogue (e.g. across engines over the same graph).
  /// Advances this engine's statistics epoch, which re-keys its cache
  /// lookups: cached plans embed cost decisions made against the previous
  /// statistics, so they are never served to this engine again, while
  /// other engines on a shared cache keep their entries (epoch is part of
  /// the cache key). Engines given the same Glogue land on the same epoch
  /// and share plans.
  void SetGlogue(std::shared_ptr<const Glogue> gl);
  /// The engine's statistics (built on first use). Returned as shared
  /// ownership so the object survives a concurrent SetGlogue replacing the
  /// engine's own reference.
  std::shared_ptr<const Glogue> glogue() const;

  const BackendSpec& backend() const { return backend_; }
  const PropertyGraph& graph() const { return *g_; }
  /// The engine's current sharded store (null when
  /// EngineOptions::partitions == 0). Returned by value: the engine's
  /// reference may be swapped by a concurrent RebalancePartitions, and the
  /// snapshot you hold stays valid (each store generation is immutable).
  std::shared_ptr<const PartitionedGraph> partitioned_store() const;

  /// Adaptive skew-aware rebalancing (docs/storage.md): consults the
  /// accumulated per-partition row observations of past executions
  /// (observed_partition_rows) and, when the max/mean skew exceeds
  /// `opts.overload_ratio` (or `opts.force`), migrates hot vertices to an
  /// updated ownership map via PlanRebalance + BuildRebalanced and swaps
  /// the engine's store to the new generation. The swap is epoch-versioned:
  /// in-flight Prepare/Execute calls finish on the old store (their
  /// snapshot keeps it alive), new calls see the new one, and the plan /
  /// result caches are invalidated precisely — only this graph's entries
  /// of the *old* partition epoch are dropped; other graphs, other
  /// engines' epochs, and partition-invariant sub-pattern entries survive.
  /// Observed row counters reset on a successful migration. Results are
  /// never affected (ownership is results-invariant; differential-tested).
  /// Control-plane call like SetGlogue: safe against concurrent
  /// Prepare/Execute, but external callers must serialize it against other
  /// control-plane calls.
  RebalanceReport RebalancePartitions(const RebalanceOptions& opts = {});

  /// Accumulated per-partition rows over every execution since
  /// construction or the last successful rebalance (empty when
  /// unpartitioned) — the observation stream RebalancePartitions consults.
  std::vector<uint64_t> observed_partition_rows() const;

  /// NOT thread-safe: option writes must be externally serialized against
  /// every concurrent use of the engine.
  EngineOptions* mutable_options() { return &opts_; }

 private:
  /// The statistics handles one Prepare call plans against, snapshotted
  /// under stats_mu_ so a concurrent SetGlogue cannot free them mid-plan.
  struct StatsSnapshot {
    std::shared_ptr<const Glogue> glogue;
    std::shared_ptr<const GlogueQuery> gq_high;
    std::shared_ptr<const GlogueQuery> gq_low;
    uint64_t epoch = 0;
  };
  StatsSnapshot SnapshotStats() const;

  /// One immutable generation of the engine's sharded store: the
  /// PartitionedGraph plus the communication profile the CBO prices its
  /// measured cut ratios with. Held by shared_ptr and swapped atomically
  /// (under store_mu_) by RebalancePartitions, so const re-entrant
  /// Prepare/Execute snapshot one consistent (store, comm, epoch) even
  /// while a migration lands — the in-flight-queries-finish-on-the-old-
  /// epoch guarantee (docs/storage.md).
  struct StoreState {
    std::shared_ptr<const PartitionedGraph> store;
    CommProfile comm;
  };
  /// Builds the CommProfile for `store` and wraps both into a StoreState.
  static std::shared_ptr<const StoreState> MakeStoreState(
      std::shared_ptr<const PartitionedGraph> store, const PropertyGraph& g);
  /// The current store generation (null when unpartitioned).
  std::shared_ptr<const StoreState> SnapshotStore() const;
  /// Folds one run's per-partition row counts into the engine's
  /// observation accumulator (no-op for unpartitioned runs).
  void ObservePartitionRows(const ExecStats& stats) const;

  /// Runs the full planning pipeline (no cache). `store` is the store
  /// generation this plan prices communication against (may be null);
  /// `cancel` is checked between passes and per CBO pattern task.
  Prepared PlanQuery(const std::string& query, Language lang,
                     const StatsSnapshot& stats, const StoreState* store,
                     const CancelToken& cancel) const;
  /// Runs one physical plan on the configured backend with `bound`
  /// parameter bindings, accumulating metrics into *stats. `pipelines` is
  /// the plan's prebuilt decomposition for the morsel runtime (null: the
  /// executor builds it — the spliced-plan path of ExecuteBatch). `store` is the
  /// store generation snapshotted by the caller (one snapshot per
  /// Execute/ExecuteBatch, so a whole call executes on one generation).
  /// The shared backend-dispatch of Execute and ExecuteBatch.
  ResultTable RunPhysical(const PhysOpPtr& root, const PipelinePlan* pipelines,
                          const ParamMap& bound, const StoreState* store,
                          ExecStats* stats, const CancelToken& cancel = {}) const;

  const PropertyGraph* g_;
  BackendSpec backend_;
  EngineOptions opts_;
  std::shared_ptr<SharedPreparedPlanCache> plan_cache_;
  /// Memory-bounded cache of full query results and materialized shared
  /// sub-patterns (docs/result-cache.md). Null when disabled
  /// (result_cache_bytes == 0 and no injected handle).
  std::shared_ptr<ResultCache> result_cache_;

  /// Guards store_state_ swaps; mutable so const readers can snapshot.
  mutable std::mutex store_mu_;
  /// Current store generation (null when opts_.partitions == 0); replaced
  /// wholesale by RebalancePartitions.
  std::shared_ptr<const StoreState> store_state_;
  /// Accumulated per-partition row observations feeding the rebalancer;
  /// guarded by obs_mu_, reset on successful migration.
  mutable std::mutex obs_mu_;
  mutable std::vector<uint64_t> observed_rows_;

  /// Guards the lazily built statistics handles and the epoch; mutable so
  /// const Prepare can build them on first use.
  mutable std::mutex stats_mu_;
  mutable std::shared_ptr<const Glogue> glogue_;
  mutable std::shared_ptr<const GlogueQuery> gq_high_;
  mutable std::shared_ptr<const GlogueQuery> gq_low_;
  mutable uint64_t glogue_epoch_ = 0;
};

}  // namespace gopt
