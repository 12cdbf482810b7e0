#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/opt/physical_spec.h"
#include "src/store/partitioner.h"

namespace gopt {

enum class Language { kCypher, kGremlin };

// The engine's prepared-plan type and the thread-safe cache templated over
// it (declared in src/engine/engine.h and shared_plan_cache.h; only the
// names are needed here so EngineOptions can carry an injected cache
// handle without depending on the engine layer).
struct Prepared;
template <typename PlanT>
class SharedPlanCache;
using SharedPreparedPlanCache = SharedPlanCache<Prepared>;
/// The memory-bounded query-result cache (src/engine/result_cache.h;
/// forward-declared here for the same layering reason as the plan cache).
class ResultCache;

/// Planner behavior presets used throughout the experiments:
///  - kGOpt:       the full pipeline (RBO -> type inference -> CBO).
///  - kNoOpt:      no rewriting, user-specified pattern order.
///  - kRboOnly:    heuristic rules only, user order ("GS-plan": GraphScope's
///                 native rule-based planner per the paper Section 8.2).
///  - kNeo4jStyle: emulated CypherPlanner — CBO restricted to ExpandInto +
///                 HashJoin with low-order statistics, no type inference, no
///                 aggregate pushdown ("Neo4j-plan", Section 8.3).
enum class PlannerMode { kGOpt, kNoOpt, kRboOnly, kNeo4jStyle };

/// Matching semantics of MATCH_PATTERN results (paper Remark 3.1): the
/// framework plans under homomorphism semantics; Cypher's no-repeated-edge
/// semantics is realized by an all-distinct filter over the matched edges
/// appended after the pattern.
enum class MatchSemantics { kHomomorphism, kNoRepeatedEdge };

/// Whether the morsel runtime may keep expansion output *factorized* —
/// prefix groups shared across the fan-out instead of one flat row per
/// binding (docs/factorization.md):
///  - kAuto: per pipeline, the CBO decides from estimated fan-outs and
///    sink liveness (src/opt/factorization.cc);
///  - kOn:   every pipeline with an expansion runs factorized;
///  - kOff:  always flat (the pre-factorization behavior).
/// Results are differential-tested identical across all three settings.
enum class FactorizationMode { kAuto, kOn, kOff };

struct EngineOptions {
  PlannerMode mode = PlannerMode::kGOpt;

  // Fine-grained toggles for the micro benchmarks (applied on top of mode).
  bool enable_rbo = true;
  bool enable_type_inference = true;
  bool enable_cbo = true;
  bool high_order_stats = true;
  bool enable_agg_pushdown = true;
  /// Plan patterns with the greedy initial solution only, skipping the
  /// exhaustive top-down search (set by kNeo4jStyle: CypherPlanner-style
  /// greedy expansion planning).
  bool greedy_only = false;

  MatchSemantics semantics = MatchSemantics::kHomomorphism;

  /// GLogue construction parameters (ignored if a shared GLogue is set).
  int glogue_k = 3;
  double glogue_sample_rate = 1.0;

  /// >= 0: replace CBO pattern plans by the seeded random order (the
  /// randomized baselines of Fig. 8(c)).
  int64_t random_plan_seed = -1;

  /// When set, the CBO prices plans with this spec instead of the execution
  /// backend's (the GOpt-Neo-plan mismatch ablation of Fig. 8(c)).
  std::optional<BackendSpec> planning_backend;

  /// When non-empty, RBO runs only the named rules (e.g. {"JoinToPattern"}
  /// emulates GraphScope's native TraversalStrategy rule set, the "GS-plan"
  /// baseline of Fig. 8(e)).
  std::vector<std::string> rbo_rule_filter;

  /// Width of the thread pool the CBO pass fans per-pattern planning of
  /// multi-pattern queries out over. 0 = auto (min(#patterns, hardware
  /// concurrency, 4)); 1 plans sequentially. Never changes the produced
  /// plans (per-pattern search is independent and deterministic), so it is
  /// excluded from OptionsFingerprint like the cache knobs.
  int cbo_pattern_threads = 0;

  /// Worker threads of the morsel-driven batch runtime (the execution-side
  /// counterpart of cbo_pattern_threads), which runs every non-distributed
  /// backend (the distributed backend has its own worker model):
  ///  - 1 (default): every morsel runs inline on the calling thread;
  ///  - >= 2: that many workers;
  ///  - 0 / negative: sized to hardware concurrency.
  /// Never changes query results (differential-tested per release), so it
  /// is excluded from OptionsFingerprint like the other non-plan-affecting
  /// knobs.
  int exec_threads = 1;

  /// Sharded graph storage (src/store/, docs/storage.md): number of
  /// partitions the engine shards its graph into at construction.
  ///  - 0 (default): a distributed backend resolves it to its num_workers
  ///    at engine construction (so its plans and cache keys are those of
  ///    an explicit count); the morsel runtime keeps the unpartitioned
  ///    store and slices the global scan domain;
  ///  - >= 1: a PartitionedGraph is built once; the distributed backend
  ///    runs one worker per partition with ownership-map exchanges (its
  ///    num_workers is overridden), and the morsel runtime scans
  ///    partition-granular morsels. Results are differential-tested equal
  ///    across partition counts.
  /// Unlike the thread knobs this IS plan-affecting: the CBO prices
  /// communication with the store's measured edge-cut, so it is part of
  /// OptionsFingerprint.
  int partitions = 0;
  /// Vertex-partitioning policy of the sharded store (hash, range or
  /// edgecut); plan-affecting for the same reason as `partitions`.
  PartitionPolicy partition_policy = PartitionPolicy::kHash;
  /// kEdgeCut refinement: maximum label-propagation sweeps (0 degenerates
  /// to the hash seed). Shapes the ownership map and hence the measured cut
  /// ratios the CBO prices communication with, so it is plan-affecting and
  /// part of OptionsFingerprint. Ignored by hash/range.
  int partition_refine_sweeps = 5;
  /// kEdgeCut balance cap: no partition may own more than
  /// `partition_balance_cap * ceil(|V| / partitions)` vertices (values
  /// below 1.0 are clamped to 1.0). Plan-affecting like
  /// partition_refine_sweeps. Ignored by hash/range.
  double partition_balance_cap = 1.1;

  /// Factorized intermediate batches (docs/factorization.md). Plan-affecting
  /// — the per-pipeline factorize/flatten decisions are frozen into the
  /// cached prepared plan — so it is part of OptionsFingerprint.
  FactorizationMode factorization = FactorizationMode::kAuto;

  /// Kernel vectorized fast paths (docs/vectorization.md): sort-free
  /// CSR-span intersection, compiled branch-free filter predicates, typed
  /// column views. Applies to every runtime. Never changes query results
  /// (the differential suite holds off bit-identical to on), so like the
  /// thread knobs it is excluded from OptionsFingerprint.
  bool vectorize = true;

  /// Prepared-plan cache (sharded thread-safe LRU over the parameterized
  /// query stream): repeated Run / Prepare calls on the same query shape
  /// skip planning entirely. Capacity is read once at engine construction.
  bool enable_plan_cache = true;
  size_t plan_cache_capacity = 64;

  /// Injected shared prepared-plan cache. Engines constructed with the
  /// same SharedPlanCache handle share plans: cache keys carry the graph
  /// identity, the options fingerprint and the engine's statistics epoch
  /// (see PlanCacheScope), so engines over different graphs, options or
  /// GLogue statistics never cross-serve entries. When null the engine
  /// creates a private cache of plan_cache_capacity entries.
  std::shared_ptr<SharedPreparedPlanCache> plan_cache;

  /// Result cache (src/engine/result_cache.h, docs/result-cache.md):
  /// byte budget of the per-engine cache of materialized query answers,
  /// keyed on (parameterized plan key, bound parameter values, graph
  /// identity, statistics epoch, options fingerprint). 0 (default)
  /// disables result caching entirely. Like the plan-cache knobs this
  /// never changes what a query *returns* (hits are differential-tested
  /// bit-identical to cold executions), so it is excluded from
  /// OptionsFingerprint. Read once at engine construction.
  size_t result_cache_bytes = 0;

  /// Injected shared result cache, analogous to `plan_cache`: engines
  /// constructed with the same ResultCache handle share answers (the key's
  /// scope components keep different graphs / options / epochs apart).
  /// When null and result_cache_bytes > 0, the engine creates a private
  /// cache of that budget; when set, it overrides result_cache_bytes.
  std::shared_ptr<ResultCache> result_cache;

  /// Auto-parameterization: rewrite constant tokens of incoming queries
  /// into $__pN parameter slots before planning, so queries differing only
  /// in literal values share one cached plan (see ParameterizeQuery for the
  /// guards that keep plan-shaping literals — hop bounds, LIMIT counts,
  /// IN-lists, Gremlin structural arguments — out of the rewrite). Only
  /// effective while the plan cache is enabled: with no plan to share, the
  /// extraction would be pure overhead. Like the cache knobs this never
  /// changes the plan produced for a given key text, so it is excluded
  /// from OptionsFingerprint: toggling it changes the key text itself.
  bool auto_parameterize = true;
};

/// Canonicalizes the query to the lexer's token stream rejoined with single
/// spaces (comments stripped, string literals re-quoted canonically), so any
/// two spellings that tokenize identically share a plan-cache entry.
/// Untokenizable text is returned as-is (the parse pass reports the error).
std::string NormalizeQueryText(const std::string& query);

/// Fingerprint of every plan-affecting EngineOptions field (cache knobs and
/// cbo_pattern_threads are deliberately excluded — they never change the
/// produced plan). Two option sets with equal fingerprints plan any query
/// identically.
uint64_t OptionsFingerprint(const EngineOptions& opts);

/// Identifies which engine-side state a cached plan was planned against,
/// beyond the options fingerprint. Appended to every cache key so one
/// SharedPlanCache can serve many engines without cross-contamination.
/// Both components are process-unique instance ids, not addresses — a
/// recycled allocation can never collide with a dead scope:
///  - `graph`: PropertyGraph::instance_id() (plans embed the graph's
///    TypeIds);
///  - `glogue_epoch`: the engine's statistics epoch. 0 until SetGlogue is
///    called ("lazily self-built statistics"); afterwards the injected
///    Glogue's instance_id(), so engines sharing one Glogue share plans
///    while SetGlogue on one engine re-keys only that engine's lookups
///    (peers keep hitting their epoch's entries; the stale ones age out
///    of the LRU).
///  - `partition_epoch`: the engine's ownership-map generation
///    (PartitionedGraph::epoch()). 0 for any policy-built store — its
///    content is fully determined by the fingerprinted options, so engines
///    over the same graph still share plans — and a process-unique nonzero
///    id after Engine::RebalancePartitions migrates the map, so post-
///    migration lookups never hit plans priced against the old cut ratios
///    (docs/storage.md).
struct PlanCacheScope {
  uint64_t graph = 0;
  uint64_t glogue_epoch = 0;
  uint64_t partition_epoch = 0;
};

/// The full prepared-plan cache key (normalizes `query` first).
std::string PlanCacheKey(const std::string& query, Language lang,
                         const EngineOptions& opts,
                         const PlanCacheScope& scope = {});

/// The cache key over text already in canonical rendered-token form (e.g.
/// ParameterizeQuery output) — skips the redundant re-normalization.
std::string PlanCacheKeyFromCanonical(const std::string& canonical_text,
                                      Language lang,
                                      const EngineOptions& opts,
                                      const PlanCacheScope& scope = {});

}  // namespace gopt
