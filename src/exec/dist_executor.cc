#include "src/exec/dist_executor.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

namespace gopt {

namespace {

int IndexOf(const std::vector<std::string>& cols, const std::string& c) {
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] == c) return static_cast<int>(i);
  }
  return -1;
}

/// True when project item `it` passes a variable through under its own
/// name — the one projection shape that preserves a stream's ownership
/// partitioning on that column.
bool IsPassthrough(const ProjectItem& it) {
  return it.expr && it.expr->kind == Expr::Kind::kVar &&
         it.expr->tag == it.alias;
}

/// 0, 1, ..., n - 1: every column of an n-wide row as an exchange key.
std::vector<int> AllColumns(size_t n) {
  std::vector<int> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = static_cast<int>(i);
  return idx;
}

size_t TotalRows(const std::vector<std::vector<Batch>>& parts) {
  size_t n = 0;
  for (const auto& p : parts) n += TotalBatchRows(p);
  return n;
}

void PushNonEmpty(std::vector<Batch>* dst, Batch b) {
  if (!b.empty()) dst->push_back(std::move(b));
}

}  // namespace

void DistributedExecutor::CountConsumers(
    const PhysOpPtr& op, std::map<const PhysOp*, int>* consumers) {
  for (const PhysOpPtr& child : op->children) {
    // A node reached again through a second parent contributes one more
    // consumer edge but its subtree is already counted.
    if ((*consumers)[child.get()]++ == 0) CountConsumers(child, consumers);
  }
}

ResultTable DistributedExecutor::Execute(const PhysOpPtr& root) {
  memo_.clear();
  owner_tag_.clear();
  consumers_.clear();
  stats_ = ExecStats{};
  stats_.partitions = workers_;
  stats_.store_cut_edges = pg_.total_cut_edges();
  stats_.store_vertex_balance = pg_.VertexBalance();
  stats_.partition_rows.assign(static_cast<size_t>(workers_), 0);
  CountConsumers(root, &consumers_);
  PartsPtr parts = Run(root);
  // Fresh executor per Execute, so the kernel dispatch counters started at
  // zero: the final values are this run's totals.
  stats_.vec_dispatch = k_.vectorized_dispatches();
  stats_.gen_dispatch = k_.generic_dispatches();
  ResultTable out;
  out.columns = root->out_cols;
  for (const auto& p : *parts) {
    for (const Batch& b : p) b.AppendRowsTo(&out.rows);
  }
  return out;
}

void DistributedExecutor::ForEachWorker(
    size_t rows, const std::function<void(int)>& fn) const {
  // Small steps are not worth a thread spawn (the simulator would
  // otherwise charge ~100us of scheduling per stage to sub-millisecond
  // queries); results are identical either way.
  if (rows < 2048) {
    for (int w = 0; w < workers_; ++w) fn(w);
    return;
  }
  std::mutex err_mu;
  std::exception_ptr err;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    threads.emplace_back([&, w] {
      try {
        fn(w);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!err) err = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (err) std::rethrow_exception(err);
}

DistributedExecutor::Parts DistributedExecutor::PerWorker(
    const Parts& in,
    const std::function<std::vector<Batch>(const std::vector<Batch>&, int)>&
        fn) const {
  Parts out(static_cast<size_t>(workers_));
  ForEachWorker(TotalRows(in), [&](int w) {
    out[static_cast<size_t>(w)] = fn(in[static_cast<size_t>(w)], w);
  });
  return out;
}

DistributedExecutor::Parts DistributedExecutor::MapBatches(
    const Parts& in, const std::function<Batch(const Batch&)>& fn) const {
  return PerWorker(in, [&](const std::vector<Batch>& batches, int) {
    std::vector<Batch> out;
    for (const Batch& b : batches) PushNonEmpty(&out, fn(b));
    return out;
  });
}

DistributedExecutor::Parts DistributedExecutor::MapRows(
    const Parts& in, size_t ncols,
    const std::function<std::vector<Row>(std::vector<Row>)>& fn) const {
  return PerWorker(in, [&](const std::vector<Batch>& batches, int) {
    return BatchesFromRows(fn(RowsFromBatches(batches)), ncols,
                           kDefaultBatchRows);
  });
}

int DistributedExecutor::OwnerOf(const Value& v) const {
  return v.kind() == Value::Kind::kVertex ? pg_.OwnerOf(v.AsVertex().id) : 0;
}

DistributedExecutor::Parts DistributedExecutor::Exchange(
    Parts in, const std::function<int(const Batch&, size_t)>& target) {
  stats_.exchanges++;
  Parts out(static_cast<size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    for (Batch& b : in[static_cast<size_t>(w)]) {
      b.Flatten();  // dense and flat: active row i is physical row i
      for (size_t i = 0; i < b.size(); ++i) {
        const int t = target(b, i);
        if (t != w) stats_.comm_rows++;
        // Each target gathers into one batch, in source-worker order.
        std::vector<Batch>& dst = out[static_cast<size_t>(t)];
        if (dst.empty()) dst.emplace_back(b.num_cols());
        for (size_t c = 0; c < b.num_cols(); ++c) {
          dst[0].col(c).push_back(std::move(b.col(c)[i]));
        }
      }
    }
  }
  return out;
}

DistributedExecutor::Parts DistributedExecutor::ExchangeByKey(
    Parts in, const std::vector<int>& key_idx) {
  return Exchange(std::move(in), [&](const Batch& b, size_t i) {
    if (key_idx.empty()) return 0;
    size_t h = 0x51ed;
    for (int k : key_idx) {
      h = HashCombine(h, b.col(static_cast<size_t>(k))[i].Hash());
    }
    return static_cast<int>(h % static_cast<size_t>(workers_));
  });
}

DistributedExecutor::Parts DistributedExecutor::ExchangeByVertex(Parts in,
                                                                 int idx) {
  return Exchange(std::move(in), [&](const Batch& b, size_t i) {
    return OwnerOf(b.col(static_cast<size_t>(idx))[i]);
  });
}

const std::string& DistributedExecutor::ExpandSourceTag(const PhysOp& op) {
  // ExpandIntersect reads adjacency of every arm; the first arm is the
  // pivot the stream is distributed on (the remaining arms' reads are the
  // intersection's irreducible remote lookups, charged by the cost model
  // through the edge-cut profile).
  if (op.kind == PhysOpKind::kExpandIntersect && !op.arms.empty()) {
    return op.arms[0].from_tag;
  }
  return op.from_tag;
}

const DistributedExecutor::Parts* DistributedExecutor::StageForExpansion(
    const PhysOp& op, const PartsPtr& in, Parts* staged,
    std::string* cur_tag) {
  const std::string& need = ExpandSourceTag(op);
  *cur_tag = need;
  auto it = owner_tag_.find(op.children[0].get());
  const std::string& have = it != owner_tag_.end() ? it->second : std::string();
  if (need.empty() || have == need) return in.get();  // already co-located
  const int idx = IndexOf(op.children[0]->out_cols, need);
  if (idx < 0) {
    *cur_tag = have;  // tag not materialized in the row: nothing to stage
    return in.get();
  }
  // A single-consumer stream is drained in place (the memoized entry has
  // no other reader); one feeding several parents (DAG plans) is
  // exchanged as a copy.
  if (consumers_[op.children[0].get()] <= 1) {
    *staged = ExchangeByVertex(std::move(*in), idx);
  } else {
    *staged = ExchangeByVertex(Parts(*in), idx);
  }
  return staged;
}

DistributedExecutor::PartsPtr DistributedExecutor::Run(const PhysOpPtr& op) {
  auto it = memo_.find(op.get());
  if (it != memo_.end()) return it->second;

  // Operator-boundary cancellation check: every dataflow step of the
  // simulator starts on the control thread, so checking here bounds the
  // overrun to one operator.
  cancel_.Check();

  // The vertex tag this node's output is ownership-partitioned by ("" =
  // none).
  std::string out_tag;
  const size_t ncols = op->out_cols.size();
  auto result = std::make_shared<Parts>(static_cast<size_t>(workers_));
  switch (op->kind) {
    case PhysOpKind::kScanVertices: {
      // Each worker scans the vertex lists its partition owns — no
      // communication. One whole-domain morsel per (partition, vertex
      // type) visits types in constraint order, ids ascending within.
      const std::vector<ScanMorsel> morsels =
          k_.ScanMorsels(*op, ~static_cast<size_t>(0));
      size_t domain = 0;
      for (const ScanMorsel& m : morsels) domain += m.end - m.begin;
      ForEachWorker(domain, [&](int w) {
        for (const ScanMorsel& m : morsels) {
          if (m.partition != w) continue;
          PushNonEmpty(&(*result)[static_cast<size_t>(w)],
                       k_.ScanBatch(*op, m));
        }
      });
      out_tag = op->alias;
      break;
    }
    case PhysOpKind::kCachedScan: {
      // Pre-materialized sub-pattern bindings: deal the rows round-robin
      // over the workers. The stream is not ownership-partitioned on any
      // vertex column (out_tag stays empty), so a later expansion stages
      // it to the expansion source's owners like any unaligned stream.
      const std::vector<Row>& rows = *op->cached_rows;
      for (size_t i = 0; i < rows.size(); ++i) {
        std::vector<Batch>& dst = (*result)[i % static_cast<size_t>(workers_)];
        if (dst.empty()) dst.emplace_back(ncols);
        dst[0].AppendRow(rows[i]);
      }
      break;
    }
    case PhysOpKind::kExpandEdge:
    case PhysOpKind::kExpandIntersect:
    case PhysOpKind::kPathExpand: {
      auto in = Run(op->children[0]);
      // Lazy exchange: co-locate the input with the expansion source's
      // owner (a no-op when the stream already is), then expand in place.
      // The output stays partitioned by the source tag — the newly bound
      // vertex ships only if a later operator expands from it, so a
      // chain's final expansion moves no rows at all.
      Parts staged;
      const Parts* src = StageForExpansion(*op, in, &staged, &out_tag);
      *result = MapBatches(*src, [&](const Batch& b) {
        switch (op->kind) {
          case PhysOpKind::kExpandEdge:
            return k_.ExpandEdgeBatch(*op, b);
          case PhysOpKind::kExpandIntersect:
            return k_.ExpandIntersectBatch(*op, b);
          default:
            return k_.PathExpandBatch(*op, b);
        }
      });
      break;
    }
    case PhysOpKind::kSelect: {
      auto in = Run(op->children[0]);
      // The input may be shared with other parents: gather the survivors
      // out instead of refining its selection in place.
      *result = MapBatches(*in, [&](const Batch& b) {
        return b.GatherPhys(k_.FilterSelection(*op, b));
      });
      out_tag = owner_tag_[op->children[0].get()];
      break;
    }
    case PhysOpKind::kProject: {
      auto in = Run(op->children[0]);
      *result = MapBatches(
          *in, [&](const Batch& b) { return k_.ProjectBatch(*op, b); });
      // Partitioning survives only if the partitioning column passes
      // through under its own name.
      const std::string& have = owner_tag_[op->children[0].get()];
      for (const ProjectItem& item : op->items) {
        if (item.alias == have && IsPassthrough(item)) out_tag = have;
      }
      break;
    }
    case PhysOpKind::kUnfold: {
      auto in = Run(op->children[0]);
      *result = MapBatches(
          *in, [&](const Batch& b) { return k_.UnfoldBatch(*op, b); });
      const std::string& have = owner_tag_[op->children[0].get()];
      if (have != op->unfold_alias) out_tag = have;
      break;
    }
    case PhysOpKind::kAggregate: {
      auto in = Run(op->children[0]);
      // A full or local (GroupLocal) aggregation of each worker's batches.
      auto aggregate = [&](const Parts& src) {
        return PerWorker(src, [&](const std::vector<Batch>& batches, int) {
          return BatchesFromRows(k_.AggregateBatchRows(*op, batches), ncols,
                                 kDefaultBatchRows);
        });
      };
      if (SupportsPartialAgg(*op)) {
        // GroupLocal on each worker, exchange partials by key, GroupGlobal.
        Parts partial = ExchangeByKey(aggregate(*in),
                                      AllColumns(op->group_keys.size()));
        *result = MapRows(partial, ncols, [&](std::vector<Row> rows) {
          return k_.Aggregate(*op, rows, /*combine=*/true);
        });
      } else {
        // Raw-row exchange by group key hash, then full local aggregation.
        ColMap cmap = MakeColMap(op->children[0]->out_cols);
        Row row;
        *result = aggregate(Exchange(*in, [&](const Batch& b, size_t i) {
          if (op->group_keys.empty()) return 0;
          b.GatherRow(i, &row);
          size_t h = 0x9d;
          for (const auto& k : op->group_keys) {
            h = HashCombine(h, k_.eval().Eval(*k.expr, row, cmap).Hash());
          }
          return static_cast<int>(h % static_cast<size_t>(workers_));
        }));
      }
      // A keyless aggregate produces its single row on worker 0 only;
      // other workers' aggregation over empty input must not emit
      // defaults.
      if (op->group_keys.empty()) {
        for (int w = 1; w < workers_; ++w) {
          (*result)[static_cast<size_t>(w)].clear();
        }
      }
      break;
    }
    case PhysOpKind::kHashJoin: {
      auto l = Run(op->children[0]);
      auto r = Run(op->children[1]);
      std::vector<int> lkey, rkey;
      for (const auto& k : op->join_keys) {
        lkey.push_back(IndexOf(op->children[0]->out_cols, k));
        rkey.push_back(IndexOf(op->children[1]->out_cols, k));
      }
      Parts le = ExchangeByKey(*l, lkey);
      Parts re = ExchangeByKey(*r, rkey);
      // Each worker builds from its share of the right side and probes
      // its share of the left.
      *result = PerWorker(le, [&](const std::vector<Batch>& probe, int w) {
        const JoinHashTable ht =
            k_.BuildJoinTable(*op, re[static_cast<size_t>(w)]);
        std::vector<Batch> out;
        for (const Batch& b : probe) {
          PushNonEmpty(&out, k_.JoinProbeBatch(*op, b, ht));
        }
        return out;
      });
      break;
    }
    case PhysOpKind::kDedup: {
      auto in = Run(op->children[0]);
      const auto& ccols = op->children[0]->out_cols;
      std::vector<int> key_idx;
      if (op->dedup_tags.empty()) {
        key_idx = AllColumns(ccols.size());
      } else {
        for (const auto& t : op->dedup_tags) key_idx.push_back(IndexOf(ccols, t));
      }
      *result = MapRows(ExchangeByKey(*in, key_idx), ncols,
                        [&](std::vector<Row> rows) { return k_.Dedup(*op, rows); });
      break;
    }
    case PhysOpKind::kOrder: {
      auto in = Run(op->children[0]);
      // Local top-k, gather the sorted lists to worker 0 (counted as
      // communication like any exchange), then k-way merge them there —
      // output-identical to re-sorting the concatenation, without the
      // O(N log N) re-sort of already-sorted runs.
      std::vector<std::vector<Row>> local(static_cast<size_t>(workers_));
      ForEachWorker(TotalRows(*in), [&](int w) {
        local[static_cast<size_t>(w)] = k_.SortLimit(
            *op, RowsFromBatches((*in)[static_cast<size_t>(w)]));
      });
      stats_.exchanges++;
      for (int w = 1; w < workers_; ++w) {
        stats_.comm_rows += local[static_cast<size_t>(w)].size();
      }
      (*result)[0] = BatchesFromRows(k_.MergeSortedLimit(*op, std::move(local)),
                                     ncols, kDefaultBatchRows);
      break;
    }
    case PhysOpKind::kLimit: {
      auto in = Run(op->children[0]);
      std::vector<Row> rows = RowsFromBatches(ExchangeByKey(*in, {})[0]);
      rows.resize(std::min(rows.size(), static_cast<size_t>(op->limit)));
      (*result)[0] = BatchesFromRows(rows, ncols, kDefaultBatchRows);
      break;
    }
    case PhysOpKind::kUnion: {
      auto l = Run(op->children[0]);
      auto r = Run(op->children[1]);
      for (int w = 0; w < workers_; ++w) {
        std::vector<Batch>& dst = (*result)[static_cast<size_t>(w)];
        dst = (*l)[static_cast<size_t>(w)];
        for (Batch& b : BatchesFromRows(
                 k_.MapColumns(RowsFromBatches((*r)[static_cast<size_t>(w)]),
                               op->children[1]->out_cols, op->out_cols),
                 ncols, kDefaultBatchRows)) {
          dst.push_back(std::move(b));
        }
      }
      if (op->union_distinct) {
        PhysOp dd(PhysOpKind::kDedup);
        dd.children = {op};
        *result = MapRows(ExchangeByKey(std::move(*result), AllColumns(ncols)),
                          ncols,
                          [&](std::vector<Row> rows) { return k_.Dedup(dd, rows); });
      }
      break;
    }
  }
  // rows_produced counts the rows emitted per operator node, once per node
  // (intermediate partials, exchanged copies and two-phase local results
  // are not emissions) — the definition all runtimes share; see ExecStats.
  uint64_t emitted = 0;
  for (size_t w = 0; w < result->size(); ++w) {
    const size_t rows = TotalBatchRows((*result)[w]);
    emitted += rows;
    stats_.partition_rows[w] += rows;
  }
  stats_.rows_produced += emitted;
  // Charge this operator's emissions against the row budget; the next
  // operator's Check observes a trip.
  cancel_.AddRows(emitted);
  memo_[op.get()] = result;
  owner_tag_[op.get()] = out_tag;
  return result;
}

}  // namespace gopt
