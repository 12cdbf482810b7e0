#include "src/exec/morsel.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/opt/factorization.h"

namespace gopt {

namespace {

uint64_t Pack(uint32_t begin, uint32_t end) {
  return (static_cast<uint64_t>(begin) << 32) | end;
}
uint32_t RangeBegin(uint64_t r) { return static_cast<uint32_t>(r >> 32); }
uint32_t RangeEnd(uint64_t r) { return static_cast<uint32_t>(r); }

}  // namespace

MorselQueue::MorselQueue(size_t total, int workers)
    : slots_(static_cast<size_t>(workers < 1 ? 1 : workers)) {
  const uint64_t n = total;
  const uint64_t w = slots_.size();
  for (uint64_t i = 0; i < w; ++i) {
    const uint32_t b = static_cast<uint32_t>(i * n / w);
    const uint32_t e = static_cast<uint32_t>((i + 1) * n / w);
    slots_[i].range.store(Pack(b, e), std::memory_order_relaxed);
  }
}

MorselQueue::MorselQueue(const std::vector<std::pair<size_t, size_t>>& ranges)
    : slots_(ranges.empty() ? 1 : ranges.size()) {
  for (size_t i = 0; i < ranges.size(); ++i) {
    slots_[i].range.store(Pack(static_cast<uint32_t>(ranges[i].first),
                               static_cast<uint32_t>(ranges[i].second)),
                          std::memory_order_relaxed);
  }
}

bool MorselQueue::Next(int w, size_t* idx) {
  auto& own = slots_[static_cast<size_t>(w)].range;
  // Pop the front of the worker's own range.
  uint64_t r = own.load(std::memory_order_acquire);
  while (RangeBegin(r) < RangeEnd(r)) {
    if (own.compare_exchange_weak(r, Pack(RangeBegin(r) + 1, RangeEnd(r)),
                                  std::memory_order_acq_rel)) {
      *idx = RangeBegin(r);
      return true;
    }
  }
  // Own range drained: steal from the back of the largest victim range.
  while (true) {
    int victim = -1;
    uint64_t vr = 0;
    uint32_t best = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (static_cast<int>(i) == w) continue;
      uint64_t cand = slots_[i].range.load(std::memory_order_acquire);
      uint32_t avail = RangeEnd(cand) - RangeBegin(cand);
      if (RangeBegin(cand) < RangeEnd(cand) && avail > best) {
        best = avail;
        victim = static_cast<int>(i);
        vr = cand;
      }
    }
    if (victim < 0) return false;  // everything drained everywhere
    auto& vslot = slots_[static_cast<size_t>(victim)].range;
    const uint32_t e = RangeEnd(vr);
    if (vslot.compare_exchange_weak(vr, Pack(RangeBegin(vr), e - 1),
                                    std::memory_order_acq_rel)) {
      *idx = e - 1;
      return true;
    }
    // Lost the race; rescan for a new victim.
  }
}

MorselExecutor::MorselExecutor(const PropertyGraph* g, MorselOptions opts,
                               const PartitionedGraph* pg)
    : k_(g, pg),
      pg_(pg),
      opts_(opts),
      threads_(opts.threads > 0
                   ? opts.threads
                   : std::max(1u, std::thread::hardware_concurrency())) {
  k_.set_vectorize(opts.vectorize);
}

ResultTable MorselExecutor::Execute(const PhysOpPtr& root,
                                    const PipelinePlan* plan) {
  results_.clear();
  join_tables_.clear();
  stats_ = ExecStats{};
  if (pg_ != nullptr) {
    stats_.partitions = pg_->num_partitions();
    stats_.store_cut_edges = pg_->total_cut_edges();
    stats_.store_vertex_balance = pg_->VertexBalance();
    stats_.partition_rows.assign(
        static_cast<size_t>(pg_->num_partitions()), 0);
  }
  PipelinePlan local;
  if (plan == nullptr) {
    local = BuildPipelinePlan(root);
    ChooseFactorization(&local, opts_.factorization);
    plan = &local;
  }
  for (const Pipeline& p : plan->pipelines) {
    // Cancellation check between pipelines (workers also check before
    // every morsel inside RunPipeline): a breaker-heavy plan cannot run
    // a whole extra pipeline after its budget tripped.
    cancel_.Check();
    RunPipeline(p, p.sink == root.get());
  }
  // One executor instance per Execute, so the kernel counters started at
  // zero: the final values are this run's totals.
  stats_.vec_dispatch = k_.vectorized_dispatches();
  stats_.gen_dispatch = k_.generic_dispatches();
  ResultTable out;
  out.columns = root->out_cols;
  out.rows = RowsFromBatches(results_.at(root.get()));
  return out;
}

Batch MorselExecutor::ApplyStreamingOp(const Pipeline& p, size_t i,
                                       const Batch& in) const {
  const PhysOp& op = *p.ops[i];
  const bool fact = p.factorized;
  const bool lazy = fact && i < p.lazy_ops.size() && p.lazy_ops[i] != 0;
  switch (op.kind) {
    case PhysOpKind::kExpandEdge:
      return k_.ExpandEdgeBatch(op, in, fact, lazy);
    case PhysOpKind::kExpandIntersect:
      return k_.ExpandIntersectBatch(op, in, fact, lazy);
    case PhysOpKind::kPathExpand:
      return k_.PathExpandBatch(op, in, fact, lazy);
    case PhysOpKind::kProject:
      return k_.ProjectBatch(op, in);
    case PhysOpKind::kUnfold:
      return k_.UnfoldBatch(op, in, fact);
    case PhysOpKind::kHashJoin:
      return k_.JoinProbeBatch(op, in, join_tables_.at(&op), fact);
    default:
      throw std::logic_error(
          "MorselExecutor: non-streaming operator in a pipeline chain");
  }
}

Batch MorselExecutor::ApplyOpsOwned(const Pipeline& p, size_t from, Batch cur,
                                    ChainStats* cs) const {
  for (size_t i = from; i < p.ops.size(); ++i) {
    const PhysOp* op = p.ops[i];
    if (op->kind == PhysOpKind::kSelect) {
      k_.FilterBatch(*op, &cur);  // refine the selection in place
      cs->rows += cur.size();     // stores nothing new, just marks rows
    } else {
      cur = ApplyStreamingOp(p, i, cur);
      cs->rows += cur.size();
      cs->tuples += cur.materialized_tuples();
      cs->groups += cur.num_groups();
    }
  }
  return cur;
}

Batch MorselExecutor::ApplyChain(const Pipeline& p, Batch&& owned,
                                 ChainStats* cs) const {
  return ApplyOpsOwned(p, 0, std::move(owned), cs);
}

Batch MorselExecutor::ApplyChain(const Pipeline& p, const Batch& shared,
                                 ChainStats* cs) const {
  // The shared batch belongs to the source node's materialized result; a
  // leading filter is the one streaming op that would mutate it, so the
  // selection is computed against the const batch and only the surviving
  // rows are gathered out. Everything else produces a fresh batch anyway.
  Batch cur;
  const PhysOp* op0 = p.ops.front();
  if (op0->kind == PhysOpKind::kSelect) {
    cur = shared.GatherPhys(k_.FilterSelection(*op0, shared));
    cs->rows += cur.size();
    cs->tuples += cur.size();  // the gathered dense copy
  } else {
    cur = ApplyStreamingOp(p, 0, shared);
    cs->rows += cur.size();
    cs->tuples += cur.materialized_tuples();
    cs->groups += cur.num_groups();
  }
  return ApplyOpsOwned(p, 1, std::move(cur), cs);
}

std::vector<Row> MorselExecutor::RunBreaker(const PhysOp& sink,
                                            std::vector<Row> rows) const {
  switch (sink.kind) {
    case PhysOpKind::kOrder:
      return k_.SortLimit(sink, std::move(rows));
    case PhysOpKind::kLimit: {
      const size_t n =
          std::min(rows.size(), static_cast<size_t>(sink.limit));
      rows.resize(n);
      return rows;
    }
    case PhysOpKind::kDedup:
      return k_.Dedup(sink, rows);
    default:
      throw std::logic_error("MorselExecutor: unexpected breaker kind");
  }
}

void MorselExecutor::RunUnionSink(const Pipeline& p) {
  const PhysOp& op = *p.sink;
  std::vector<Row> rows =
      k_.Union(op, RowsFromBatches(results_.at(op.children[0].get())),
               RowsFromBatches(results_.at(op.children[1].get())));
  stats_.rows_produced += rows.size();
  cancel_.AddRows(rows.size());
  results_[p.sink] =
      BatchesFromRows(rows, op.out_cols.size(), opts_.batch_rows);
}

void MorselExecutor::RunPipeline(const Pipeline& p, bool is_root) {
  const auto t0 = std::chrono::steady_clock::now();
  // Pipelines run sequentially, so the counter deltas over this call are
  // exactly this pipeline's dispatches (workers within the pipeline have
  // joined before the snapshot below).
  const uint64_t vec0 = k_.vectorized_dispatches();
  const uint64_t gen0 = k_.generic_dispatches();
  PipelineStat ps;
  ps.id = p.id;
  ps.desc = p.ToString();

  if (p.source == nullptr) {
    RunUnionSink(p);
  } else {
    // Build the tables of every probe stage in the chain straight from
    // their build sides' batches (materialized in dependency pipelines). A
    // join the chooser marked lazy gets a table without appended columns.
    for (size_t i = 0; i < p.ops.size(); ++i) {
      const PhysOp* op = p.ops[i];
      if (op->kind != PhysOpKind::kHashJoin || join_tables_.count(op)) {
        continue;
      }
      const bool lazy =
          p.factorized && i < p.lazy_ops.size() && p.lazy_ops[i] != 0;
      join_tables_.emplace(
          op, k_.BuildJoinTable(*op, results_.at(op->children[1].get()), lazy));
    }

    std::vector<ScanMorsel> scan_morsels;
    const std::vector<Batch>* src = nullptr;
    if (p.source_is_scan) {
      scan_morsels = k_.ScanMorsels(*p.source, opts_.morsel_rows);
      // Adaptive sizing: a small scan domain (one LDBC vertex type can be
      // a few thousand ids) must still fan out over the pool, so aim for
      // several morsels per worker — stealing then balances skew in the
      // per-morsel expansion work. Order is unchanged: a finer slicing of
      // the same domain concatenates to the same row sequence.
      const size_t min_morsels = static_cast<size_t>(threads_) * 4;
      if (threads_ > 1 && scan_morsels.size() < min_morsels) {
        size_t domain = 0;
        for (const ScanMorsel& m : scan_morsels) domain += m.end - m.begin;
        const size_t finer =
            std::max<size_t>(64, domain / (min_morsels ? min_morsels : 1));
        if (finer < opts_.morsel_rows) {
          scan_morsels = k_.ScanMorsels(*p.source, finer);
        }
      }
    } else {
      src = &results_.at(p.source);
    }
    const size_t M = p.source_is_scan ? scan_morsels.size() : src->size();
    ps.morsels = M;
    ps.factorized = p.factorized;
    ps.flatten_points = p.flatten_points;

    std::vector<Batch> out(M);
    const std::vector<Batch>* sink_in = &out;
    if (!p.source_is_scan && p.ops.empty()) {
      // Nothing to stream through (e.g. a breaker directly over another
      // breaker's output): feed the materialized batches straight to the
      // sink instead of copying them morsel-by-morsel.
      sink_in = src;
      ps.threads = 1;
    } else {
      const int T = static_cast<int>(
          std::min<size_t>(static_cast<size_t>(threads_), M ? M : 1));
      ps.threads = T;
      std::vector<ChainStats> emitted(static_cast<size_t>(T));
      // Per-morsel scan-source row counts (partitioned store only): each
      // slot is written by exactly one worker, merged into the
      // per-partition stats after the pool joins.
      std::vector<uint64_t> scan_rows;
      if (pg_ != nullptr && p.source_is_scan) scan_rows.assign(M, 0);
      // Partitioned scans: morsels are partition-major, so each
      // partition's morsels form one contiguous index run. When the runs
      // match the worker count, seed each worker with one whole partition
      // (partition-local work first; stealing still balances skew).
      auto make_queue = [&]() -> MorselQueue {
        if (pg_ != nullptr && p.source_is_scan && M > 0) {
          std::vector<std::pair<size_t, size_t>> runs;
          for (size_t i = 0; i < scan_morsels.size(); ++i) {
            if (runs.empty() ||
                scan_morsels[i].partition !=
                    scan_morsels[runs.back().first].partition) {
              runs.emplace_back(i, i + 1);
            } else {
              runs.back().second = i + 1;
            }
          }
          if (runs.size() == static_cast<size_t>(T)) return MorselQueue(runs);
        }
        return MorselQueue(M, T);
      };
      MorselQueue queue = make_queue();
      auto work = [&](int w) {
        ChainStats& acc = emitted[static_cast<size_t>(w)];
        size_t idx;
        while (queue.Next(w, &idx)) {
          // The morsel-boundary cancellation check: a tripped budget stops
          // each worker before its next morsel. The throw is captured by
          // the pool's exception_ptr below exactly like a kernel error.
          cancel_.Check();
          const uint64_t rows0 = acc.rows;
          if (p.source_is_scan) {
            Batch b = k_.ScanBatch(*p.source, scan_morsels[idx]);
            acc.rows += b.size();
            acc.tuples += b.size();
            if (!scan_rows.empty()) scan_rows[idx] = b.size();
            out[idx] =
                p.ops.empty() ? std::move(b) : ApplyChain(p, std::move(b), &acc);
          } else {
            out[idx] = ApplyChain(p, (*src)[idx], &acc);
          }
          // Charge this morsel's produced rows against the row budget; the
          // next morsel's Check (any worker) observes a trip.
          cancel_.AddRows(acc.rows - rows0);
        }
      };
      if (T <= 1) {
        work(0);
      } else {
        std::mutex err_mu;
        std::exception_ptr err;
        std::vector<std::thread> pool;
        pool.reserve(static_cast<size_t>(T));
        for (int w = 0; w < T; ++w) {
          pool.emplace_back([&, w] {
            try {
              work(w);
            } catch (...) {
              std::lock_guard<std::mutex> lock(err_mu);
              if (!err) err = std::current_exception();
            }
          });
        }
        for (auto& t : pool) t.join();
        if (err) std::rethrow_exception(err);
      }
      for (const ChainStats& e : emitted) {
        stats_.rows_produced += e.rows;
        stats_.tuples_materialized += e.tuples;
        ps.chain_rows += e.rows;
        ps.chain_tuples += e.tuples;
        ps.groups += e.groups;
      }
      for (size_t i = 0; i < scan_rows.size(); ++i) {
        // Cached-scan morsels carry partition -1 even on a sharded store
        // (their rows are a materialized stream, not owned vertices).
        if (scan_morsels[i].partition < 0) continue;
        stats_.partition_rows[static_cast<size_t>(
            scan_morsels[i].partition)] += scan_rows[i];
      }
    }

    if (p.sink_is_breaker()) {
      std::vector<Row> rows;
      if (p.sink->kind == PhysOpKind::kAggregate) {
        // The one breaker that consumes factorized batches without ever
        // expanding them: COUNT/SUM fold a whole run into one
        // multiplicity-weighted state update (group order and rounding
        // bit-identical to aggregating the flattened rows).
        rows = k_.AggregateBatchRows(*p.sink, *sink_in);
      } else {
        // Row-needing breakers (sort, global limit, dedup) force the
        // deferred flatten here: charge the expanded rows of every still-
        // factorized input batch as materialized now.
        for (const Batch& b : *sink_in) {
          if (b.factorized()) stats_.tuples_materialized += b.size();
        }
        rows = RunBreaker(*p.sink, RowsFromBatches(*sink_in));
      }
      stats_.rows_produced += rows.size();
      stats_.tuples_materialized += rows.size();
      // Breaker outputs count toward the row budget like chain rows do, so
      // the budget charges exactly ExecStats::rows_produced.
      cancel_.AddRows(rows.size());
      results_[p.sink] =
          BatchesFromRows(rows, p.sink->out_cols.size(), opts_.batch_rows);
    } else {
      // Terminal collect: keep per-morsel batches, reassembled in morsel
      // order so the result is identical for any thread count. Every
      // consumer of an intermediate collect (join builds, pipeline
      // sources, breakers) reads batches through their layout, so those
      // keep their groups; they are only compacted when a selection would
      // otherwise pin filtered-out rows. The root's batches are flattened:
      // that is where a factorized chain's deferred materialization
      // finally happens (free for flat, selection-less batches).
      std::vector<Batch>& res = results_[p.sink];
      for (Batch& b : out) {
        if (b.size() > 0) {
          if (is_root || b.has_selection()) {
            if (b.factorized()) stats_.tuples_materialized += b.size();
            b.Flatten();
          }
          res.push_back(std::move(b));
        }
      }
    }
  }

  ps.rows_out = TotalBatchRows(results_[p.sink]);
  ps.vec_dispatch = k_.vectorized_dispatches() - vec0;
  ps.gen_dispatch = k_.generic_dispatches() - gen0;
  const auto t1 = std::chrono::steady_clock::now();
  ps.ms =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() /
      1000.0;
  stats_.pipelines.push_back(std::move(ps));
}

}  // namespace gopt
