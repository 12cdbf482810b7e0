#include "src/engine/engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <set>
#include <stdexcept>

#include "src/common/str_format.h"
#include "src/engine/subpattern.h"
#include "src/lang/parameterize.h"
#include "src/opt/factorization.h"

namespace gopt {

GOptEngine::GOptEngine(const PropertyGraph* g, BackendSpec backend,
                       EngineOptions opts)
    : g_(g),
      backend_(std::move(backend)),
      opts_(opts),
      // An injected cache is shared with its other engines; otherwise the
      // engine gets a private one. Sized unconditionally so
      // enable_plan_cache can be toggled through mutable_options() after
      // construction.
      plan_cache_(opts.plan_cache
                      ? opts.plan_cache
                      : std::make_shared<SharedPreparedPlanCache>(
                            opts.plan_cache_capacity)),
      // An injected result cache is shared with its other engines and
      // overrides result_cache_bytes; otherwise a private one sized by the
      // byte budget, or none at all (the common default).
      result_cache_(opts.result_cache ? opts.result_cache
                    : opts.result_cache_bytes > 0
                        ? std::make_shared<ResultCache>(opts.result_cache_bytes)
                        : nullptr) {
  // The distributed backend always runs on a sharded store, one partition
  // per worker unless `partitions` asks otherwise. Resolved here, once, so
  // the options fingerprint and every later read see the effective count.
  if (backend_.distributed && opts_.partitions <= 0) {
    opts_.partitions = std::max(1, backend_.num_workers);
  }
  if (opts_.partitions > 0) {
    PartitionerOptions popts;
    popts.refine_sweeps = opts_.partition_refine_sweeps;
    popts.balance_cap = opts_.partition_balance_cap;
    store_state_ = MakeStoreState(
        PartitionedGraph::Build(g_, opts_.partition_policy, opts_.partitions,
                                popts),
        *g_);
    observed_rows_.assign(static_cast<size_t>(opts_.partitions), 0);
  }
}

std::shared_ptr<const GOptEngine::StoreState> GOptEngine::MakeStoreState(
    std::shared_ptr<const PartitionedGraph> store, const PropertyGraph& g) {
  auto ss = std::make_shared<StoreState>();
  // The store's measured cut ratios become the CBO's communication
  // profile: partition-local expansions price cheaper than
  // cross-partition ones (docs/storage.md). Recomputed per generation, so
  // a rebalanced map re-prices exchanges with its own cut.
  const int P = store->num_partitions();
  ss->comm.rehash =
      P <= 1 ? 0.0 : static_cast<double>(P - 1) / static_cast<double>(P);
  ss->comm.all_cut = store->CutFraction();
  ss->comm.cut_by_etype.resize(g.schema().NumEdgeTypes());
  for (TypeId t = 0; t < ss->comm.cut_by_etype.size(); ++t) {
    ss->comm.cut_by_etype[t] = store->CutFraction(t);
  }
  ss->store = std::move(store);
  return ss;
}

std::shared_ptr<const GOptEngine::StoreState> GOptEngine::SnapshotStore()
    const {
  std::lock_guard<std::mutex> lock(store_mu_);
  return store_state_;
}

std::shared_ptr<const PartitionedGraph> GOptEngine::partitioned_store() const {
  std::shared_ptr<const StoreState> ss = SnapshotStore();
  return ss ? ss->store : nullptr;
}

void GOptEngine::ObservePartitionRows(const ExecStats& stats) const {
  if (stats.partition_rows.empty()) return;
  std::lock_guard<std::mutex> lock(obs_mu_);
  if (observed_rows_.size() < stats.partition_rows.size()) {
    observed_rows_.resize(stats.partition_rows.size(), 0);
  }
  for (size_t p = 0; p < stats.partition_rows.size(); ++p) {
    observed_rows_[p] += stats.partition_rows[p];
  }
}

std::vector<uint64_t> GOptEngine::observed_partition_rows() const {
  std::lock_guard<std::mutex> lock(obs_mu_);
  return observed_rows_;
}

RebalanceReport GOptEngine::RebalancePartitions(const RebalanceOptions& opts) {
  RebalanceReport rep;
  std::shared_ptr<const StoreState> ss = SnapshotStore();
  if (!ss) {
    rep.reason = "unpartitioned engine (EngineOptions::partitions == 0)";
    return rep;
  }
  const PartitionedGraph& cur = *ss->store;
  rep.old_epoch = rep.new_epoch = cur.epoch();
  rep.old_version = rep.new_version = cur.version();
  rep.old_cut_edges = rep.new_cut_edges = cur.total_cut_edges();

  RebalancePlan plan = PlanRebalance(cur, observed_partition_rows(), opts);
  rep.rows_balance_before = plan.rows_balance;
  if (plan.moves == 0) {
    rep.reason = (!opts.force && plan.rows_balance <= opts.overload_ratio)
                     ? "observed skew below overload_ratio"
                     : "no beneficial move under the balance cap";
    return rep;
  }

  std::shared_ptr<const PartitionedGraph> next =
      PartitionedGraph::BuildRebalanced(cur, std::move(plan.ownership));
  rep.rebalanced = true;
  rep.vertices_moved = plan.moves;
  rep.new_epoch = next->epoch();
  rep.new_version = next->version();
  rep.new_cut_edges = next->total_cut_edges();
  rep.reason = "migrated";

  {
    std::lock_guard<std::mutex> lock(store_mu_);
    store_state_ = MakeStoreState(std::move(next), *g_);
  }
  // In-flight executions keep the old generation alive through their
  // snapshots and complete on it; everything from here on sees the new one.

  // Reset the observation stream: the old counters described the old map.
  {
    std::lock_guard<std::mutex> lock(obs_mu_);
    observed_rows_.assign(static_cast<size_t>(cur.num_partitions()), 0);
  }

  // Precise cache invalidation, mirroring SetGlogue's epoch bump: plans of
  // the old partition epoch were priced against the old cut ratios and
  // their keys just became unreachable for this engine — drop exactly this
  // graph's entries of that epoch. Result-cache entries are dropped by the
  // same (graph, partition epoch) scope across all glogue epochs; peer
  // graphs, live epochs, and the partition-invariant sub-pattern entries
  // (scoped with partition_epoch 0 under '\x01sub' keys that never embed a
  // partition epoch) are untouched except on the first rebalance, where
  // the old epoch IS 0 — the same first-bump collateral SetGlogue accepts.
  const std::string graph_tag = std::to_string(g_->instance_id());
  const std::string pepoch_tag = std::to_string(rep.old_epoch);
  plan_cache_->EraseIf([&graph_tag, &pepoch_tag](const std::string& key) {
    // Keys end "\x1f<graph>\x1f<glogue epoch>\x1f<partition epoch>".
    const size_t pepoch_sep = key.rfind('\x1f');
    if (pepoch_sep == std::string::npos || pepoch_sep == 0) return false;
    if (key.compare(pepoch_sep + 1, std::string::npos, pepoch_tag) != 0) {
      return false;
    }
    const size_t gepoch_sep = key.rfind('\x1f', pepoch_sep - 1);
    if (gepoch_sep == std::string::npos || gepoch_sep == 0) return false;
    const size_t graph_sep = key.rfind('\x1f', gepoch_sep - 1);
    if (graph_sep == std::string::npos) return false;
    return key.compare(graph_sep + 1, gepoch_sep - graph_sep - 1,
                       graph_tag) == 0;
  });
  if (result_cache_) {
    result_cache_->EraseScope(g_->instance_id(), ResultCache::kAnyEpoch,
                              rep.old_epoch);
  }
  return rep;
}

void GOptEngine::SetGlogue(std::shared_ptr<const Glogue> gl) {
  uint64_t old_epoch;
  uint64_t new_epoch;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    old_epoch = glogue_epoch_;
    glogue_ = std::move(gl);
    gq_high_.reset();
    gq_low_.reset();
    // Re-key this engine's cache lookups instead of clearing the (possibly
    // shared) cache: plans cached under the old epoch embed cost decisions
    // made against the previous statistics and become unreachable for this
    // engine, while peers sharing the cache keep theirs. The epoch is the
    // Glogue's process-unique instance id (never address-reused), so
    // engines given the same Glogue share an epoch (and therefore plans).
    glogue_epoch_ = glogue_ ? glogue_->instance_id() : 0;
    new_epoch = glogue_epoch_;
  }
  // Precise result-cache invalidation: cached results are keyed through
  // plan keys that embed (graph, epoch), so this engine's old-generation
  // entries just became unreachable — evict exactly those. Entries of
  // peers sharing the cache (other graphs, or the same graph on an epoch
  // still in use) survive untouched (docs/result-cache.md).
  if (result_cache_ && new_epoch != old_epoch) {
    result_cache_->EraseScope(g_->instance_id(), old_epoch);
  }
}

std::shared_ptr<const Glogue> GOptEngine::glogue() const {
  return SnapshotStats().glogue;
}

void GOptEngine::ClearPlanCache() {
  // Keys end with "\x1f<graph>\x1f<glogue epoch>\x1f<partition epoch>"
  // (PlanCacheKeyFromCanonical); match the graph segment exactly — parsed
  // from the key's tail, so a \x1f byte inside the query text can't fake a
  // scope boundary.
  const std::string graph_tag = std::to_string(g_->instance_id());
  plan_cache_->EraseIf([&graph_tag](const std::string& key) {
    const size_t pepoch_sep = key.rfind('\x1f');
    if (pepoch_sep == std::string::npos || pepoch_sep == 0) return false;
    const size_t gepoch_sep = key.rfind('\x1f', pepoch_sep - 1);
    if (gepoch_sep == std::string::npos || gepoch_sep == 0) return false;
    const size_t graph_sep = key.rfind('\x1f', gepoch_sep - 1);
    if (graph_sep == std::string::npos) return false;
    return key.compare(graph_sep + 1, gepoch_sep - graph_sep - 1,
                       graph_tag) == 0;
  });
}

GOptEngine::StatsSnapshot GOptEngine::SnapshotStats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (!glogue_) {
    GlogueOptions gopts;
    gopts.max_pattern_vertices = opts_.glogue_k;
    gopts.edge_sample_rate = opts_.glogue_sample_rate;
    glogue_ = std::make_shared<Glogue>(Glogue::Build(*g_, gopts));
  }
  if (!gq_high_) {
    gq_high_ = std::make_shared<GlogueQuery>(glogue_.get(), &g_->schema(),
                                             /*high_order=*/true);
    gq_low_ = std::make_shared<GlogueQuery>(glogue_.get(), &g_->schema(),
                                            /*high_order=*/false);
  }
  StatsSnapshot s;
  s.glogue = glogue_;
  s.gq_high = gq_high_;
  s.gq_low = gq_low_;
  s.epoch = glogue_epoch_;
  return s;
}

Prepared GOptEngine::PlanQuery(const std::string& query, Language lang,
                               const StatsSnapshot& stats,
                               const StoreState* store,
                               const CancelToken& cancel) const {
  PassManager pipeline = BuildPipeline(opts_);

  PlanContext ctx;
  ctx.query = query;
  ctx.lang = lang;
  ctx.graph = g_;
  ctx.exec_backend = &backend_;
  ctx.glogue = stats.glogue.get();
  ctx.gq_high = stats.gq_high.get();
  ctx.gq_low = stats.gq_low.get();
  ctx.comm = store ? &store->comm : nullptr;
  ctx.cancel = cancel;

  pipeline.Run(ctx);

  Prepared prep;
  prep.logical = std::move(ctx.logical);
  prep.physical = std::move(ctx.physical);
  prep.invalid = ctx.invalid;
  prep.fired_rules = std::move(ctx.fired_rules);
  prep.pattern_plans = std::move(ctx.pattern_plans);
  prep.output_columns = std::move(ctx.output_columns);
  prep.trace = std::make_shared<const PlanTrace>(std::move(ctx.trace));
  if (prep.physical) {
    PipelinePlan pp = BuildPipelinePlan(prep.physical);
    // Freeze the per-pipeline factorize / lazy / flatten decisions into
    // the cached plan (the knob is part of OptionsFingerprint for exactly
    // this reason).
    ChooseFactorization(&pp, opts_.factorization);
    prep.exec_pipelines = std::make_shared<const PipelinePlan>(std::move(pp));
  }
  return prep;
}

Prepared GOptEngine::Prepare(const std::string& query, Language lang,
                             CancelToken cancel) const {
  // Snapshot the statistics handles and the store generation up front: the
  // whole Prepare plans against one consistent Glogue and one ownership
  // map even if SetGlogue or RebalancePartitions lands concurrently.
  StatsSnapshot stats = SnapshotStats();
  std::shared_ptr<const StoreState> store = SnapshotStore();
  const uint64_t pepoch = store ? store->store->epoch() : 0;
  // Split the query into a canonical parameterized stream (the plan shape)
  // and this call's literal bindings; planning and the cache only ever see
  // the stream. With the cache disabled there is no sharing to gain, so
  // literal extraction is skipped and only user-written $params remain.
  ParameterizedQuery pq = ParameterizeQuery(
      query, lang, opts_.auto_parameterize && opts_.enable_plan_cache);
  auto plan_parameterized = [&]() {
    try {
      return PlanQuery(pq.text, lang, stats, store.get(), cancel);
    } catch (const CancelledError&) {
      throw;  // typed cancellation, not a parse/plan error — keep it as-is
    } catch (const std::exception& e) {
      if (pq.text == query) throw;
      // Parse errors carry token positions into the canonical stream, not
      // the user's original spelling — include the stream so they are
      // interpretable.
      throw std::runtime_error(std::string(e.what()) +
                               " [in canonical query: " + pq.text + "]");
    }
  };
  // The scoped plan key is computed even with the plan cache disabled: it
  // is also the plan component of result-cache keys, which need the same
  // (text, language, options, graph, epoch) discrimination.
  PlanCacheScope scope;
  scope.graph = g_->instance_id();
  scope.glogue_epoch = stats.epoch;
  scope.partition_epoch = pepoch;
  const std::string key =
      PlanCacheKeyFromCanonical(pq.text, lang, opts_, scope);
  if (!opts_.enable_plan_cache) {
    Prepared prep = plan_parameterized();
    prep.parameterized_query = std::move(pq.text);
    prep.lang = lang;
    prep.plan_key = key;
    prep.glogue_epoch = stats.epoch;
    prep.partition_epoch = pepoch;
    prep.required_params = std::move(pq.required_params);
    prep.params = std::move(pq.bindings);
    return prep;
  }
  if (std::shared_ptr<const Prepared> hit = plan_cache_->Get(key)) {
    Prepared prep = *hit;
    prep.from_cache = true;
    // The plan is shared; the bindings are this call's own.
    prep.params = std::move(pq.bindings);
    return prep;
  }
  Prepared prep = plan_parameterized();
  prep.parameterized_query = std::move(pq.text);
  prep.lang = lang;
  prep.plan_key = key;
  prep.glogue_epoch = stats.epoch;
  prep.partition_epoch = pepoch;
  prep.required_params = std::move(pq.required_params);
  // Cache the binding-independent plan; this call's extracted literals are
  // attached only to the returned copy. A concurrent Prepare of the same
  // shape may race to Put — both plans are equivalent, last write wins.
  plan_cache_->Put(key, prep);
  prep.params = std::move(pq.bindings);
  return prep;
}

ResultTable GOptEngine::RunPhysical(const PhysOpPtr& root,
                                    const PipelinePlan* pipelines,
                                    const ParamMap& bound,
                                    const StoreState* store,
                                    ExecStats* stats,
                                    const CancelToken& cancel) const {
  // A fresh executor per call: all execution state (operator memo, stats)
  // is call-local, so any number of Execute calls may run concurrently on
  // one engine. The caller's store snapshot pins one ownership-map
  // generation for the whole call (a concurrent rebalance cannot pull it
  // out from under the executor).
  const PartitionedGraph* pstore = store ? store->store.get() : nullptr;
  if (backend_.distributed) {
    // One worker per store partition (the constructor built the store).
    DistributedExecutor ex(*pstore);
    ex.set_params(&bound);
    ex.set_vectorize(opts_.vectorize);
    ex.set_cancel(cancel);
    ResultTable table = ex.Execute(root);
    *stats = ex.stats();
    ObservePartitionRows(*stats);
    return table;
  }
  // Every other backend runs on the morsel-driven batch runtime (see
  // docs/executor.md); at exec_threads == 1 it runs inline on this thread.
  // A null `pipelines` (a spliced consumer or a sub-pattern subtree) is
  // decomposed by the executor with the same factorization knob as
  // planning time.
  MorselOptions mopts;
  mopts.threads = opts_.exec_threads;
  mopts.factorization = opts_.factorization;
  mopts.vectorize = opts_.vectorize;
  MorselExecutor ex(g_, mopts, pstore);
  ex.set_params(&bound);
  ex.set_cancel(cancel);
  ResultTable table = ex.Execute(root, pipelines);
  *stats = ex.stats();
  ObservePartitionRows(*stats);
  return table;
}

ExecOutcome GOptEngine::Execute(const Prepared& prep, const ParamMap& params,
                                CancelToken cancel) const {
  // Resolve the effective bindings (user-supplied over auto-extracted) and
  // reject unbound slots before any operator runs.
  ParamMap bound = prep.params;
  for (const auto& [name, value] : params) bound[name] = value;
  for (const auto& name : prep.required_params) {
    if (!bound.count(name)) {
      throw std::runtime_error("Execute: unbound parameter $" + name +
                               " (bind it via the params argument)");
    }
  }
  ExecOutcome out;
  if (prep.invalid || !prep.physical) {
    auto empty = std::make_shared<ResultTable>();
    empty->columns = prep.output_columns;
    out.table_ptr = std::move(empty);
    if (result_cache_) out.stats.result_cache = result_cache_->stats();
    return out;
  }
  // Result-cache consult: keyed by the scoped plan key plus the effective
  // values of exactly the parameters the plan reads. A hit is zero-copy —
  // the cached immutable table is shared, no operator runs.
  std::string rkey;
  if (result_cache_) {
    rkey = ResultCacheKey(prep.plan_key, prep.required_params, bound);
    if (std::shared_ptr<const CachedResult> hit = result_cache_->Get(rkey)) {
      out.table_ptr = hit->table;
      out.stats.rows_produced = hit->rows_produced;
      out.stats.result_cache_hit = true;
      out.stats.result_cache = result_cache_->stats();
      return out;
    }
  }
  // One store snapshot for the whole execution: the in-flight-query
  // guarantee of RebalancePartitions.
  std::shared_ptr<const StoreState> store = SnapshotStore();
  auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<ResultTable> table;
  try {
    // An already-tripped token (e.g. the budget expired while queued or
    // during planning) aborts before any operator runs.
    cancel.Check();
    table = std::make_shared<ResultTable>(
        RunPhysical(prep.physical, prep.exec_pipelines.get(), bound,
                    store.get(), &out.stats, cancel));
    // A row budget can trip on the final operator's own output, after the
    // runtime's last boundary check — the run "finished" but violated its
    // budget, so it types as cancelled like any other trip.
    cancel.Check();
  } catch (const CancelledError& e) {
    // Typed outcome: the partial stats are discarded (a half-run's counts
    // would poison skew observations and parity checks), the table is
    // empty, and the result cache is never populated from a cancelled run.
    out.stats = ExecStats{};
    if (result_cache_) out.stats.result_cache = result_cache_->stats();
    out.status = e.status();
    auto empty = std::make_shared<ResultTable>();
    empty->columns = prep.output_columns;
    out.table_ptr = std::move(empty);
    auto tc = std::chrono::steady_clock::now();
    out.ms = std::chrono::duration_cast<std::chrono::microseconds>(tc - t0)
                 .count() /
             1000.0;
    return out;
  }
  out.table_ptr = table;
  auto t1 = std::chrono::steady_clock::now();
  out.ms =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() /
      1000.0;
  if (result_cache_) {
    CachedResult entry;
    entry.table = table;
    entry.rows_produced = out.stats.rows_produced;
    result_cache_->Put(rkey,
                       PlanCacheScope{g_->instance_id(), prep.glogue_epoch,
                                      prep.partition_epoch},
                       std::move(entry));
    out.stats.result_cache = result_cache_->stats();
  }
  return out;
}

ExecOutcome GOptEngine::Run(const std::string& query, Language lang) const {
  return Execute(Prepare(query, lang));
}

ExecOutcome GOptEngine::Run(const std::string& query, const ParamMap& params,
                            Language lang) const {
  return Execute(Prepare(query, lang), params);
}

std::vector<ExecOutcome> GOptEngine::ExecuteBatch(
    const std::vector<BatchQuery>& batch) const {
  const size_t n = batch.size();
  std::vector<ExecOutcome> out(n);
  std::vector<Prepared> preps;
  preps.reserve(n);
  std::vector<ParamMap> bounds(n);
  std::vector<std::string> rkeys(n);
  std::vector<bool> done(n, false);

  // Phase 1: prepare everything, validate bindings, and answer what the
  // result cache already knows — cache hits never reach the sharing pass.
  for (size_t i = 0; i < n; ++i) {
    preps.push_back(Prepare(batch[i].query, batch[i].lang));
    const Prepared& prep = preps.back();
    bounds[i] = prep.params;
    for (const auto& [name, value] : batch[i].params) {
      bounds[i][name] = value;
    }
    for (const auto& name : prep.required_params) {
      if (!bounds[i].count(name)) {
        throw std::runtime_error("ExecuteBatch: unbound parameter $" + name +
                                 " in batch entry " + std::to_string(i));
      }
    }
    if (prep.invalid || !prep.physical) {
      auto empty = std::make_shared<ResultTable>();
      empty->columns = prep.output_columns;
      out[i].table_ptr = std::move(empty);
      done[i] = true;
      continue;
    }
    if (result_cache_) {
      rkeys[i] = ResultCacheKey(prep.plan_key, prep.required_params,
                                bounds[i]);
      if (std::shared_ptr<const CachedResult> hit =
              result_cache_->Get(rkeys[i])) {
        out[i].table_ptr = hit->table;
        out[i].stats.rows_produced = hit->rows_produced;
        out[i].stats.result_cache_hit = true;
        done[i] = true;
      }
    }
  }

  // One store snapshot for the whole batch: every shared sub-pattern and
  // consumer plan executes on one ownership-map generation even if a
  // rebalance lands mid-batch.
  std::shared_ptr<const StoreState> store = SnapshotStore();

  // Phase 2: find sub-plans shared across the remaining (miss) plans.
  std::vector<PhysOpPtr> roots(n);
  std::vector<const ParamMap*> boundp(n);
  for (size_t i = 0; i < n; ++i) {
    if (!done[i]) roots[i] = preps[i].physical;
    boundp[i] = &bounds[i];
  }
  const std::vector<SharedSubPlan> shared = FindSharedSubPlans(roots, boundp);

  // Phase 3: materialize each shared sub-plan once (served from the
  // result cache across batches when possible) and record, per consumer
  // plan, the node -> cached-scan substitution and the rows_produced
  // compensation that keeps batch metrics identical to standalone runs.
  std::vector<std::map<const PhysOp*, PhysOpPtr>> splices(n);
  std::vector<uint64_t> extra_rows(n, 0);
  for (const SharedSubPlan& sp : shared) {
    const size_t owner = sp.sites.front().first;
    // Sub-pattern entries share the result cache under a reserved prefix:
    // '\x01' cannot start a plan key (those begin with query text), and the
    // graph id keeps engines over different graphs apart on a shared cache.
    const std::string skey = std::string("\x01sub\x1f") +
                             std::to_string(g_->instance_id()) + '\x1f' +
                             sp.fingerprint;
    std::shared_ptr<const std::vector<Row>> rows;
    uint64_t sub_rows_produced = 0;
    std::shared_ptr<const CachedResult> hit =
        result_cache_ ? result_cache_->Get(skey) : nullptr;
    if (hit) {
      // Aliasing share of the cached table's row vector — zero-copy.
      rows = std::shared_ptr<const std::vector<Row>>(hit->table,
                                                     &hit->table->rows);
      sub_rows_produced = hit->rows_produced;
    } else {
      ExecStats sub_stats;
      auto sub_table = std::make_shared<ResultTable>(RunPhysical(
          sp.representative, nullptr, bounds[owner], store.get(),
          &sub_stats));
      rows = std::shared_ptr<const std::vector<Row>>(sub_table,
                                                     &sub_table->rows);
      sub_rows_produced = sub_stats.rows_produced;
      if (result_cache_) {
        CachedResult entry;
        entry.table = sub_table;
        entry.rows_produced = sub_rows_produced;
        result_cache_->Put(skey,
                           PlanCacheScope{g_->instance_id(),
                                          preps[owner].glogue_epoch},
                           std::move(entry));
      }
    }
    PhysOpPtr scan = MakeCachedScan(*sp.representative, rows);
    for (const auto& [plan_idx, node] : sp.sites) {
      splices[plan_idx][node] = scan;
      // Standalone, the subtree's operators would have emitted
      // sub_rows_produced rows; spliced, only the cached scan emits its
      // rows.size(). Compensate so rows_produced parity holds.
      extra_rows[plan_idx] += sub_rows_produced - rows->size();
    }
  }

  // Phase 4: execute — spliced plans where sharing applies, the prepared
  // plan (with its frozen pipeline decomposition) otherwise.
  for (size_t i = 0; i < n; ++i) {
    if (done[i]) {
      if (result_cache_) out[i].stats.result_cache = result_cache_->stats();
      continue;
    }
    const Prepared& prep = preps[i];
    auto t0 = std::chrono::steady_clock::now();
    std::shared_ptr<ResultTable> table;
    if (splices[i].empty()) {
      table = std::make_shared<ResultTable>(
          RunPhysical(prep.physical, prep.exec_pipelines.get(), bounds[i],
                      store.get(), &out[i].stats));
    } else {
      PhysOpPtr spliced = SplicePlan(prep.physical, splices[i]);
      table = std::make_shared<ResultTable>(
          RunPhysical(spliced, nullptr, bounds[i], store.get(),
                      &out[i].stats));
      out[i].stats.rows_produced += extra_rows[i];
    }
    out[i].table_ptr = table;
    auto t1 = std::chrono::steady_clock::now();
    out[i].ms =
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count() /
        1000.0;
    if (result_cache_) {
      CachedResult entry;
      entry.table = table;
      entry.rows_produced = out[i].stats.rows_produced;
      result_cache_->Put(rkeys[i],
                         PlanCacheScope{g_->instance_id(), prep.glogue_epoch,
                                        prep.partition_epoch},
                         std::move(entry));
      out[i].stats.result_cache = result_cache_->stats();
    }
  }
  return out;
}

std::vector<ExecOutcome> GOptEngine::RunBatch(
    const std::vector<std::string>& queries, Language lang) const {
  std::vector<BatchQuery> batch;
  batch.reserve(queries.size());
  for (const std::string& q : queries) batch.emplace_back(q, ParamMap{}, lang);
  return ExecuteBatch(batch);
}

std::string GOptEngine::Explain(const Prepared& prep) const {
  std::string s;
  if (!prep.required_params.empty()) {
    s += "=== Parameters ===\n";
    for (const auto& name : prep.required_params) {
      auto it = prep.params.find(name);
      s += StrFormat("  $%s = %s\n", name.c_str(),
                     it != prep.params.end() ? it->second.ToString().c_str()
                                             : "<unbound>");
    }
  }
  {
    const PlanCacheStats stats = plan_cache_stats();
    s += "=== Cache ===\n";
    s += StrFormat("  this plan: %s\n",
                   prep.from_cache ? "plan cache hit" : "cold planning");
    s += StrFormat(
        "  plan cache (%s): %zu entries, %llu hits / %llu misses / %llu "
        "evictions (hit rate %.1f%%)\n",
        // "shared" whenever the handle is reachable outside this engine —
        // injected at construction or handed out via plan_cache() — since
        // then the counters may aggregate other engines' traffic.
        plan_cache_.use_count() > 1 ? "shared" : "private", stats.entries,
        static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.evictions),
        // One snapshot, all series derived from it — the consistency rule
        // CacheHitRatio documents.
        100.0 * CacheHitRatio(stats));
    if (result_cache_) {
      const CacheStats rs = result_cache_->stats();
      s += StrFormat(
          "  result cache (%s): %zu entries, %zu / %zu bytes, %llu hits / "
          "%llu misses / %llu evictions (hit rate %.1f%%)\n",
          result_cache_.use_count() > 1 ? "shared" : "private", rs.entries,
          rs.bytes, result_cache_->byte_budget(),
          static_cast<unsigned long long>(rs.hits),
          static_cast<unsigned long long>(rs.misses),
          static_cast<unsigned long long>(rs.evictions),
          100.0 * CacheHitRatio(rs));
    } else {
      s += "  result cache: disabled\n";
    }
  }
  std::shared_ptr<const StoreState> store = SnapshotStore();
  if (store) {
    s += "=== Partitions ===\n";
    std::string desc = store->store->Describe();
    // Indent the store description under the section header.
    size_t pos = 0;
    while (pos < desc.size()) {
      size_t nl = desc.find('\n', pos);
      if (nl == std::string::npos) nl = desc.size();
      s += "  " + desc.substr(pos, nl - pos) + "\n";
      pos = nl + 1;
    }
  }
  s += "=== Logical plan (GIR) ===\n";
  s += prep.logical->ToString(g_->schema());
  if (prep.trace) {
    s += StrFormat("=== Planner trace%s ===\n",
                   prep.from_cache ? " (plan cache hit)" : "");
    s += prep.trace->ToString();
  }
  if (prep.invalid) {
    s += "=== INVALID: type inference found no matching types ===\n";
    return s;
  }
  s += "=== Pattern plans ===\n";
  for (const auto& [op, plan] : prep.pattern_plans) {
    if (plan) s += plan->ToString(g_->schema());
  }
  s += "=== Physical plan (" + backend_.name + ") ===\n";
  s += prep.physical->ToString(g_->schema());
  {
    // Count distinct operators whose kernel has a vectorized fast path
    // (DAG nodes once). Dispatch is still decided per call from the actual
    // inputs; this only says which steps are eligible.
    std::set<const PhysOp*> seen;
    size_t eligible = 0, total = 0;
    std::function<void(const PhysOpPtr&)> walk = [&](const PhysOpPtr& op) {
      if (!op || !seen.insert(op.get()).second) return;
      ++total;
      if (HasVectorizedFastPath(op->kind)) ++eligible;
      for (const PhysOpPtr& c : op->children) walk(c);
    };
    walk(prep.physical);
    s += StrFormat(
        "  vectorize: %s, %zu of %zu operators have a fast path\n",
        opts_.vectorize ? "on" : "off", eligible, total);
  }
  if (!backend_.distributed) {
    s += "=== Pipelines (morsel runtime) ===\n";
    s += prep.exec_pipelines
             ? prep.exec_pipelines->ToString()
             : BuildPipelinePlan(prep.physical).ToString();
  }
  return s;
}

std::string GOptEngine::Explain(const Prepared& prep,
                                const ExecOutcome& outcome) const {
  std::string s = Explain(prep);
  s += "=== Execution ===\n";
  s += StrFormat("  %zu rows returned, %.3f ms, %llu rows produced\n",
                 outcome.table().NumRows(), outcome.ms,
                 static_cast<unsigned long long>(outcome.stats.rows_produced));
  if (outcome.queue_ms > 0) {
    // Admission wait of the serving layer (docs/serving.md), reported
    // apart from `ms` so execution time stays comparable across queued
    // and direct calls.
    s += StrFormat("  queued %.3f ms before execution (admission wait)\n",
                   outcome.queue_ms);
  }
  if (outcome.status != ExecStatus::kOk) {
    s += StrFormat("  status: %s — no rows, partial stats discarded\n",
                   ExecStatusName(outcome.status));
  }
  if (outcome.stats.result_cache_hit) {
    s += "  result cache hit: served zero-copy, no operator ran\n";
  }
  bool any_factorized = false;
  for (const PipelineStat& p : outcome.stats.pipelines) {
    any_factorized = any_factorized || p.factorized;
  }
  if (any_factorized && outcome.stats.tuples_materialized > 0) {
    s += StrFormat(
        "  factorized: %llu tuples materialized for %llu rows produced "
        "(%.2fx compression)\n",
        static_cast<unsigned long long>(outcome.stats.tuples_materialized),
        static_cast<unsigned long long>(outcome.stats.rows_produced),
        static_cast<double>(outcome.stats.rows_produced) /
            static_cast<double>(outcome.stats.tuples_materialized));
  }
  if (outcome.stats.vec_dispatch > 0 || outcome.stats.gen_dispatch > 0) {
    s += StrFormat(
        "  dispatch: %llu vectorized / %llu generic kernel calls\n",
        static_cast<unsigned long long>(outcome.stats.vec_dispatch),
        static_cast<unsigned long long>(outcome.stats.gen_dispatch));
  }
  if (outcome.stats.exchanges > 0 || outcome.stats.comm_rows > 0) {
    s += StrFormat("  %llu exchanges, %llu rows exchanged\n",
                   static_cast<unsigned long long>(outcome.stats.exchanges),
                   static_cast<unsigned long long>(outcome.stats.comm_rows));
  }
  if (outcome.stats.partitions > 0) {
    s += StrFormat("  %d partitions, store edge-cut %llu, vertex balance "
                   "%.2f (max/mean)\n",
                   outcome.stats.partitions,
                   static_cast<unsigned long long>(
                       outcome.stats.store_cut_edges),
                   outcome.stats.store_vertex_balance);
    uint64_t total_rows = 0, max_rows = 0;
    for (size_t p = 0; p < outcome.stats.partition_rows.size(); ++p) {
      total_rows += outcome.stats.partition_rows[p];
      max_rows = std::max(max_rows, outcome.stats.partition_rows[p]);
      s += StrFormat("  p%zu: %llu rows\n", p,
                     static_cast<unsigned long long>(
                         outcome.stats.partition_rows[p]));
    }
    if (total_rows > 0) {
      // Per-run row skew: max/mean rows per partition — the observation
      // stream RebalancePartitions acts on.
      s += StrFormat(
          "  rows balance %.2f (max/mean)\n",
          static_cast<double>(max_rows) * outcome.stats.partition_rows.size() /
              static_cast<double>(total_rows));
    }
  }
  for (const PipelineStat& p : outcome.stats.pipelines) {
    s += StrFormat(
        "  P%d: %s — %llu morsels, %llu rows, %d thread%s, %.3f ms\n", p.id,
        p.desc.c_str(), static_cast<unsigned long long>(p.morsels),
        static_cast<unsigned long long>(p.rows_out), p.threads,
        p.threads == 1 ? "" : "s", p.ms);
    if (p.factorized) {
      s += StrFormat(
          "      factorized: %llu logical rows as %llu tuples "
          "(%llu groups, %.2fx), %d flatten point%s\n",
          static_cast<unsigned long long>(p.chain_rows),
          static_cast<unsigned long long>(p.chain_tuples),
          static_cast<unsigned long long>(p.groups),
          p.chain_tuples == 0
              ? 1.0
              : static_cast<double>(p.chain_rows) /
                    static_cast<double>(p.chain_tuples),
          p.flatten_points, p.flatten_points == 1 ? "" : "s");
    }
    if (p.vec_dispatch > 0 || p.gen_dispatch > 0) {
      s += StrFormat(
          "      dispatch: %llu vectorized / %llu generic\n",
          static_cast<unsigned long long>(p.vec_dispatch),
          static_cast<unsigned long long>(p.gen_dispatch));
    }
  }
  return s;
}

}  // namespace gopt
