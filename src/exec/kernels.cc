#include "src/exec/kernels.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "src/common/hash.h"
#include "src/exec/vectorized.h"

namespace gopt {

namespace {

int IndexOf(const std::vector<std::string>& cols, const std::string& c) {
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] == c) return static_cast<int>(i);
  }
  return -1;
}

/// Appends `scratch[proj[j]]` for each output column j to `out`'s columns.
void EmitProjected(const Row& scratch, const std::vector<int>& proj,
                   Batch* out) {
  for (size_t j = 0; j < proj.size(); ++j) {
    out->col(j).push_back(scratch[static_cast<size_t>(proj[j])]);
  }
}

/// True when an expansion's output layout is its input layout plus new
/// columns at the end — the shape factorized emission needs (the input row
/// becomes the group prefix verbatim).
bool OutputExtendsInput(const PhysOp& op) {
  const auto& child_cols = op.children[0]->out_cols;
  return op.out_cols.size() >= child_cols.size() &&
         std::equal(child_cols.begin(), child_cols.end(),
                    op.out_cols.begin());
}

/// Group-column layout of a factorized expansion: the inherited prefix is
/// group-backed; the new columns are per-row, unless `lazy` elides them
/// into null group entries.
std::vector<uint8_t> FactorizedLayout(size_t nout, size_t nchild, bool lazy) {
  std::vector<uint8_t> is_group(nout, 1);
  if (!lazy) {
    for (size_t c = nchild; c < nout; ++c) is_group[c] = 0;
  }
  return is_group;
}

/// Closes the group of one factorized-expansion input row: pushes the
/// prefix values (and null entries for lazily elided new columns), then
/// records the run length.
void CloseFactorizedRow(const Row& scratch, size_t nchild, size_t nout,
                        bool lazy, uint32_t run, Batch* out) {
  if (run == 0) return;
  for (size_t c = 0; c < nchild; ++c) out->gcol(c).push_back(scratch[c]);
  if (lazy) {
    for (size_t c = nchild; c < nout; ++c) out->gcol(c).push_back(Value());
  }
  out->CloseGroup(run);
}

/// Output-row reserve hint for an expansion kernel: input rows x the
/// planner's estimated per-step fan-out (the est_rows ratio against the
/// child estimate), clamped to [1, 16] per row and capped overall so a bad
/// estimate can never balloon the allocation past one further doubling.
size_t ExpansionReserveHint(const PhysOp& op, size_t in_rows) {
  double ratio = 4.0;
  if (op.est_rows > 0 && !op.children.empty() &&
      op.children[0]->est_rows > 0) {
    ratio = op.est_rows / op.children[0]->est_rows;
  }
  ratio = std::max(1.0, std::min(16.0, ratio));
  constexpr size_t kCap = size_t{1} << 16;
  return std::min(kCap,
                  static_cast<size_t>(static_cast<double>(in_rows) * ratio));
}

/// Reserves an expansion's output columns: group-backed columns get one
/// entry per input row, flat output columns the fan-out hint.
void ReserveExpansionOutput(Batch* out, size_t nout, size_t nchild, bool fact,
                            bool lazy, size_t in_rows, size_t hint) {
  if (fact) {
    for (size_t c = 0; c < nchild; ++c) out->gcol(c).reserve(in_rows);
    for (size_t c = nchild; c < nout; ++c) {
      if (lazy) {
        out->gcol(c).reserve(in_rows);
      } else {
        out->col(c).reserve(hint);
      }
    }
    return;
  }
  for (size_t c = 0; c < nout; ++c) out->col(c).reserve(hint);
}

}  // namespace

Span<const AdjEntry> Kernels::Adj(VertexId u, bool out) const {
  if (pstore_ != nullptr) {
    return out ? pstore_->OutEdgesOf(u) : pstore_->InEdgesOf(u);
  }
  return out ? g_->OutEdges(u) : g_->InEdges(u);
}

Span<const AdjEntry> Kernels::Adj(VertexId u, bool out, TypeId etype) const {
  if (pstore_ != nullptr) {
    return out ? pstore_->OutEdgesOf(u, etype) : pstore_->InEdgesOf(u, etype);
  }
  return out ? g_->OutEdges(u, etype) : g_->InEdges(u, etype);
}

template <typename F>
void Kernels::ForEachAdj(VertexId u, Direction dir, const TypeConstraint& etc_,
                         F&& f) const {
  auto iter_dir = [&](bool out) {
    if (etc_.IsAll()) {
      for (const auto& a : Adj(u, out)) f(a, !out);
    } else {
      for (TypeId t : etc_.types()) {
        for (const auto& a : Adj(u, out, t)) f(a, !out);
      }
    }
  };
  if (dir == Direction::kOut || dir == Direction::kBoth) iter_dir(true);
  if (dir == Direction::kIn || dir == Direction::kBoth) iter_dir(false);
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

std::vector<ScanMorsel> Kernels::ScanMorsels(const PhysOp& op,
                                             size_t morsel_rows) const {
  if (morsel_rows == 0) morsel_rows = kDefaultBatchRows;
  std::vector<ScanMorsel> out;
  auto slice = [&](bool all, TypeId t, int partition, size_t n) {
    for (size_t b = 0; b < n; b += morsel_rows) {
      ScanMorsel m;
      m.all = all;
      m.type = t;
      m.partition = partition;
      m.begin = b;
      m.end = std::min(n, b + morsel_rows);
      out.push_back(m);
    }
  };
  if (op.kind == PhysOpKind::kCachedScan) {
    // The domain is the pre-materialized row vector, never the store: one
    // global slicing regardless of partitioning (the rows are a finished
    // sub-pattern materialization, not vertices with owners).
    slice(true, kInvalidTypeId, -1,
          op.cached_rows ? op.cached_rows->size() : 0);
    return out;
  }
  if (pstore_ != nullptr) {
    // Partition-major: each partition's morsels form one contiguous index
    // run, so the morsel queue can hand whole partitions to workers.
    for (int p = 0; p < pstore_->num_partitions(); ++p) {
      if (op.vtc.IsAll()) {
        slice(true, kInvalidTypeId, p, pstore_->Vertices(p).size());
      } else {
        for (TypeId t : op.vtc.types()) {
          slice(false, t, p, pstore_->VerticesOfType(p, t).size());
        }
      }
    }
    return out;
  }
  if (op.vtc.IsAll()) {
    slice(true, kInvalidTypeId, -1, g_->NumVertices());
  } else {
    for (TypeId t : op.vtc.types()) {
      slice(false, t, -1, g_->VerticesOfType(t).size());
    }
  }
  return out;
}

template <typename F>
void Kernels::ForEachScanVertex(const ScanMorsel& m, F&& f) const {
  if (m.partition >= 0) {
    // Partition-local domain: the slice indexes one shard's owned list.
    auto span = m.all ? pstore_->Vertices(m.partition)
                      : pstore_->VerticesOfType(m.partition, m.type);
    for (size_t i = m.begin; i < m.end; ++i) f(span[i]);
  } else if (m.all) {
    for (size_t i = m.begin; i < m.end; ++i) f(static_cast<VertexId>(i));
  } else {
    auto span = g_->VerticesOfType(m.type);
    for (size_t i = m.begin; i < m.end; ++i) f(span[i]);
  }
}

Batch Kernels::ScanBatch(const PhysOp& op, const ScanMorsel& m) const {
  if (op.kind == PhysOpKind::kCachedScan) {
    // Emit the morsel's slice of the cached rows verbatim. Counts as
    // neither dispatch: there is no vectorized-vs-generic choice to make.
    Batch cached(op.out_cols.size());
    for (size_t c = 0; c < op.out_cols.size(); ++c) {
      cached.col(c).reserve(m.end - m.begin);
    }
    for (size_t i = m.begin; i < m.end; ++i) {
      cached.AppendRow((*op.cached_rows)[i]);
    }
    return cached;
  }
  Batch out(1);
  const size_t domain = m.end - m.begin;

  // Vectorized path: when every pushed predicate compiles (trivially when
  // there are none), collect the candidate ids, filter the id list through
  // the compiled terms, and emit through the typed appender — no per-row
  // expression walk, one reserve.
  if (vectorize_) {
    std::vector<std::unique_ptr<CompiledPredicate>> preds;
    bool compiled = true;
    for (const auto& p : op.vertex_preds) {
      auto cp = CompiledPredicate::Compile(*p, ColMap{{op.alias, 0}},
                                           eval_.params(), g_);
      if (cp == nullptr) {
        compiled = false;
        break;
      }
      preds.push_back(std::move(cp));
    }
    if (compiled) {
      vec_dispatch_.fetch_add(1, std::memory_order_relaxed);
      std::vector<VertexId> vids;
      vids.reserve(domain);
      ForEachScanVertex(m, [&](VertexId v) { vids.push_back(v); });
      // Applying the predicates list-at-a-time (instead of all predicates
      // per vertex) selects the same final set: predicates have no side
      // effects and AND commutes with filtering.
      for (const auto& cp : preds) cp->FilterVertexIds(&vids);
      TypedVertexAppender app(&out.col(0), vids.size());
      for (VertexId v : vids) app.Append(v);
      return out;
    }
  }
  gen_dispatch_.fetch_add(1, std::memory_order_relaxed);
  out.col(0).reserve(domain);
  ColMap self{{op.alias, 0}};
  Row row(1);
  ForEachScanVertex(m, [&](VertexId v) {
    row[0] = Value(VertexRef{v});
    for (const auto& p : op.vertex_preds) {
      if (!eval_.EvalBool(p, row, self)) return;
    }
    out.col(0).push_back(row[0]);
  });
  return out;
}

// ---------------------------------------------------------------------------
// ExpandEdge (flattened expansion / ExpandInto edge check)
// ---------------------------------------------------------------------------

Batch Kernels::ExpandEdgeBatch(const PhysOp& op, const Batch& in,
                               bool factorize, bool lazy) const {
  const auto& child_cols = op.children[0]->out_cols;
  ColMap cmap = MakeColMap(child_cols);
  int from_idx = cmap.at(op.from_tag);
  int tgt_idx = op.target_bound ? cmap.at(op.alias) : -1;
  const size_t nchild = child_cols.size();
  const size_t nout = op.out_cols.size();
  const bool fact = factorize && OutputExtendsInput(op);

  // Scratch layout: child row + [edge, vertex].
  ColMap smap = cmap;
  const int epos = static_cast<int>(child_cols.size());
  const int vpos = epos + 1;
  if (!op.edge_alias.empty()) smap[op.edge_alias] = epos;
  if (!op.target_bound) smap[op.alias] = vpos;
  // Output projection: out_cols -> scratch positions.
  std::vector<int> proj;
  for (const auto& c : op.out_cols) {
    if (!op.edge_alias.empty() && c == op.edge_alias) {
      proj.push_back(epos);
    } else if (!op.target_bound && c == op.alias) {
      proj.push_back(vpos);
    } else {
      proj.push_back(cmap.at(c));
    }
  }

  Batch out(nout);
  if (fact) out.InitFactorized(FactorizedLayout(nout, nchild, lazy));
  ReserveExpansionOutput(&out, nout, nchild, fact, lazy, in.size(),
                         ExpansionReserveHint(op, in.size()));
  Row scratch;
  uint32_t run = 0;  // fan-out of the current input row (fact mode)
  auto emit = [&](const AdjEntry& a, VertexId v) {
    scratch[static_cast<size_t>(epos)] = Value(g_->MakeEdgeRef(a.eid));
    scratch[static_cast<size_t>(vpos)] = Value(VertexRef{v});
    for (const auto& p : op.edge_preds) {
      if (!eval_.EvalBool(p, scratch, smap)) return;
    }
    for (const auto& p : op.vertex_preds) {
      if (!eval_.EvalBool(p, scratch, smap)) return;
    }
    if (fact) {
      if (!lazy) {
        for (size_t j = nchild; j < nout; ++j) {
          out.col(j).push_back(scratch[static_cast<size_t>(proj[j])]);
        }
      }
      ++run;
      return;
    }
    EmitProjected(scratch, proj, &out);
  };
  auto close_row = [&]() {
    if (!fact) return;
    CloseFactorizedRow(scratch, nchild, nout, lazy, run, &out);
    run = 0;
  };

  if (op.target_bound) {
    // Closing step (ExpandInto): probe the sorted per-type adjacency span
    // for the bound target instead of scanning the whole neighborhood.
    std::vector<TypeId> etypes = op.etc_.Resolve(
        [&] {
          std::vector<TypeId> all(g_->schema().NumEdgeTypes());
          for (size_t i = 0; i < all.size(); ++i) {
            all[i] = static_cast<TypeId>(i);
          }
          return all;
        }());
    for (size_t i = 0; i < in.size(); ++i) {
      in.GatherRow(i, &scratch);
      scratch.resize(child_cols.size() + 2);
      VertexId u = scratch[static_cast<size_t>(from_idx)].AsVertex().id;
      VertexId t = scratch[static_cast<size_t>(tgt_idx)].AsVertex().id;
      auto probe = [&](bool out_dir) {
        for (TypeId et : etypes) {
          auto span = Adj(u, out_dir, et);
          auto lo = std::lower_bound(
              span.begin(), span.end(), t,
              [](const AdjEntry& a, VertexId x) { return a.nbr < x; });
          for (auto it = lo; it != span.end() && it->nbr == t; ++it) {
            emit(*it, t);
          }
        }
      };
      if (op.dir == Direction::kOut || op.dir == Direction::kBoth) probe(true);
      if (op.dir == Direction::kIn || op.dir == Direction::kBoth) probe(false);
      close_row();
    }
    return out;
  }

  for (size_t i = 0; i < in.size(); ++i) {
    in.GatherRow(i, &scratch);
    scratch.resize(child_cols.size() + 2);
    VertexId u = scratch[static_cast<size_t>(from_idx)].AsVertex().id;
    ForEachAdj(u, op.dir, op.etc_, [&](const AdjEntry& a, bool) {
      VertexId v = a.nbr;
      if (!op.vtc.Matches(g_->VertexType(v))) return;
      emit(a, v);
    });
    close_row();
  }
  return out;
}

// ---------------------------------------------------------------------------
// ExpandIntersect (WCOJ-style multi-arm intersection)
// ---------------------------------------------------------------------------

Batch Kernels::ExpandIntersectBatch(const PhysOp& op, const Batch& in,
                                    bool factorize, bool lazy) const {
  const auto& child_cols = op.children[0]->out_cols;
  ColMap cmap = MakeColMap(child_cols);
  std::vector<int> from_idx;
  for (const auto& arm : op.arms) from_idx.push_back(cmap.at(arm.from_tag));
  const size_t nchild = child_cols.size();
  const size_t nout = op.out_cols.size();
  const bool fact = factorize && OutputExtendsInput(op);

  ColMap smap = cmap;
  const int vpos = static_cast<int>(child_cols.size());
  smap[op.alias] = vpos;
  const size_t narms = op.arms.size();

  const bool vec = vectorize_;
  (vec ? vec_dispatch_ : gen_dispatch_)
      .fetch_add(1, std::memory_order_relaxed);

  // Typed from-vertex reads: one extraction per arm column shared across
  // all rows; columns that don't extract (factorized input) read per row
  // through At().
  TypedViewCache views(&in);
  std::vector<const TypedView<VertexId>*> fview(narms, nullptr);
  if (vec) {
    for (size_t k = 0; k < narms; ++k) {
      fview[k] = views.Vertex(static_cast<size_t>(from_idx[k]));
    }
  }
  auto from_v = [&](size_t ri, size_t k) -> VertexId {
    if (fview[k] != nullptr) return fview[k]->vals[in.PhysIndex(ri)];
    return in.At(ri, static_cast<size_t>(from_idx[k])).AsVertex().id;
  };

  // Scratch buffers reused across rows: (neighbor, multiplicity) lists and
  // the per-arm hit counters of the span-direct intersection.
  NbrList cur, next, arm_list;
  std::vector<uint64_t> hit_counts;

  // Generic fallback: materialize one arm's qualifying neighbors, sort,
  // compress parallel edges.
  auto collect_arm = [&](const IntersectArm& arm, VertexId u, NbrList* outv) {
    outv->clear();
    ForEachAdj(u, arm.dir, arm.etc_, [&](const AdjEntry& a, bool) {
      if (!op.vtc.Matches(g_->VertexType(a.nbr))) return;
      outv->emplace_back(a.nbr, 1);
    });
    // Per-type spans are sorted by neighbor, but multiple types / both
    // directions interleave: sort then compress parallel edges.
    std::sort(outv->begin(), outv->end());
    size_t w = 0;
    for (size_t r = 0; r < outv->size(); ++r) {
      if (w > 0 && (*outv)[w - 1].first == (*outv)[r].first) {
        (*outv)[w - 1].second += 1;
      } else {
        (*outv)[w++] = (*outv)[r];
      }
    }
    outv->resize(w);
  };

  // Vectorized collect: enumerate each arm's neighbor-sorted CSR sub-spans
  // (per type and direction — the sort contract both stores guarantee) and
  // k-way merge them sort-free, folding parallel-edge multiplicity during
  // the merge. The vertex-type filter runs once per unique neighbor after
  // the merge — its verdict depends only on the neighbor, so this equals
  // the generic per-edge filter.
  std::vector<std::vector<Span<const AdjEntry>>> aspans(narms);
  std::vector<size_t> arm_size(narms, 0);
  std::vector<size_t> order(narms);
  auto gather_spans = [&](size_t k, VertexId u) {
    auto& spans = aspans[k];
    spans.clear();
    const IntersectArm& arm = op.arms[k];
    auto add_dir = [&](bool out_dir) {
      if (arm.etc_.IsAll()) {
        SplitTypeSubSpans(Adj(u, out_dir), &spans);
      } else {
        for (TypeId t : arm.etc_.types()) {
          auto s = Adj(u, out_dir, t);
          if (!s.empty()) spans.push_back(s);
        }
      }
    };
    if (arm.dir == Direction::kOut || arm.dir == Direction::kBoth) {
      add_dir(true);
    }
    if (arm.dir == Direction::kIn || arm.dir == Direction::kBoth) {
      add_dir(false);
    }
    size_t sz = 0;
    for (const auto& s : spans) sz += s.size();
    arm_size[k] = sz;
  };
  // Hoisted vertex-type verdicts: one Matches call per type per
  // invocation instead of one per merged neighbor.
  std::vector<uint8_t> vtc_ok;
  bool vtc_all = op.vtc.IsAll();
  if (vec && !vtc_all) {
    const size_t ntypes = g_->schema().NumVertexTypes();
    vtc_ok.resize(ntypes);
    bool all = true;
    for (size_t t = 0; t < ntypes; ++t) {
      vtc_ok[t] = op.vtc.Matches(static_cast<TypeId>(t));
      all = all && vtc_ok[t] != 0;
    }
    // The constraint covers every type in the schema: same as IsAll.
    vtc_all = all;
  }
  auto merged_collect = [&](size_t k, NbrList* outv) {
    MergeAdjSpans(aspans[k], outv);
    if (!vtc_all) {
      size_t w = 0;
      for (size_t r = 0; r < outv->size(); ++r) {
        if (vtc_ok[g_->VertexType((*outv)[r].first)]) {
          (*outv)[w++] = (*outv)[r];
        }
      }
      outv->resize(w);
    }
  };

  Batch out(nout);
  if (fact) out.InitFactorized(FactorizedLayout(nout, nchild, lazy));
  ReserveExpansionOutput(&out, nout, nchild, fact, lazy, in.size(),
                         ExpansionReserveHint(op, in.size()));
  // Fact mode emits the intersected vertex straight from its id — the one
  // per-row output column goes through the typed appender.
  std::optional<TypedVertexAppender> vapp;
  if (fact && !lazy) {
    vapp.emplace(&out.col(static_cast<size_t>(vpos)), 0);
  }
  Row scratch;
  for (size_t ri = 0; ri < in.size(); ++ri) {
    // WCOJ-style sorted intersection, multiplicity-preserving: the result
    // multiplicity is the product of parallel-edge counts per arm
    // (flatten-equivalent, so both backends agree exactly).
    if (vec) {
      bool empty_arm = false;
      for (size_t k = 0; k < narms; ++k) {
        gather_spans(k, from_v(ri, k));
        if (arm_size[k] == 0) {
          empty_arm = true;
          break;
        }
      }
      cur.clear();
      if (!empty_arm) {
        // Seed from the smallest arm (by span-length upper bound): every
        // later intersection is bounded by the running result, and the
        // skew gallop kicks in where it pays.
        for (size_t k = 0; k < narms; ++k) order[k] = k;
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          return arm_size[a] != arm_size[b] ? arm_size[a] < arm_size[b]
                                            : a < b;
        });
        merged_collect(order[0], &cur);
        // Later arms never merge: the running result intersects straight
        // against their raw sub-spans (galloping on hub spans). The
        // vertex-type filter is already baked into the seed — intersection
        // only shrinks it — so later arms skip the filter too.
        for (size_t oi = 1; oi < narms && !cur.empty(); ++oi) {
          IntersectWithSpans(cur, aspans[order[oi]], &hit_counts, &next);
          std::swap(cur, next);
        }
      }
    } else {
      collect_arm(op.arms[0], from_v(ri, 0), &cur);
      for (size_t i = 1; i < narms && !cur.empty(); ++i) {
        collect_arm(op.arms[i], from_v(ri, i), &arm_list);
        next.clear();
        size_t a = 0, b = 0;
        while (a < cur.size() && b < arm_list.size()) {
          if (cur[a].first < arm_list[b].first) {
            ++a;
          } else if (cur[a].first > arm_list[b].first) {
            ++b;
          } else {
            next.emplace_back(cur[a].first,
                              cur[a].second * arm_list[b].second);
            ++a;
            ++b;
          }
        }
        std::swap(cur, next);
      }
    }
    // Empty intersection: nothing to emit, so skip gathering the input row
    // entirely (a zero-run group close is a no-op in fact mode).
    if (cur.empty()) continue;
    in.GatherRow(ri, &scratch);
    scratch.resize(nchild + 1);
    uint32_t run = 0;
    for (auto [v, mult] : cur) {
      scratch[static_cast<size_t>(vpos)] = Value(VertexRef{v});
      bool ok = true;
      for (const auto& p : op.vertex_preds) {
        if (!eval_.EvalBool(p, scratch, smap)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      if (fact) {
        if (!lazy) vapp->AppendN(v, mult);
        run += static_cast<uint32_t>(mult);
        continue;
      }
      // Output layout = child columns + the intersected vertex.
      for (uint64_t k = 0; k < mult; ++k) {
        for (size_t c = 0; c < scratch.size(); ++c) {
          out.col(c).push_back(scratch[c]);
        }
      }
    }
    if (fact) CloseFactorizedRow(scratch, nchild, nout, lazy, run, &out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// PathExpand
// ---------------------------------------------------------------------------

Batch Kernels::PathExpandBatch(const PhysOp& op, const Batch& in,
                               bool factorize, bool lazy) const {
  const auto& child_cols = op.children[0]->out_cols;
  ColMap cmap = MakeColMap(child_cols);
  int from_idx = cmap.at(op.from_tag);
  int tgt_idx = op.target_bound ? cmap.at(op.alias) : -1;
  const size_t nchild = child_cols.size();
  const size_t nout = op.out_cols.size();
  const bool fact = factorize && OutputExtendsInput(op);

  ColMap smap = cmap;
  const int vpos = static_cast<int>(child_cols.size());
  const int ppos = vpos + 1;
  if (!op.target_bound) smap[op.alias] = vpos;
  if (!op.path_alias.empty()) smap[op.path_alias] = ppos;
  std::vector<int> proj;
  for (const auto& c : op.out_cols) {
    if (!op.target_bound && c == op.alias) {
      proj.push_back(vpos);
    } else if (!op.path_alias.empty() && c == op.path_alias) {
      proj.push_back(ppos);
    } else {
      proj.push_back(cmap.at(c));
    }
  }

  Batch out(nout);
  if (fact) out.InitFactorized(FactorizedLayout(nout, nchild, lazy));
  ReserveExpansionOutput(&out, nout, nchild, fact, lazy, in.size(),
                         ExpansionReserveHint(op, in.size()));
  Row scratch;
  std::vector<VertexId> path_v;
  std::vector<EdgeId> path_e;
  uint32_t run = 0;

  for (size_t ri = 0; ri < in.size(); ++ri) {
    in.GatherRow(ri, &scratch);
    scratch.resize(child_cols.size() + 2);
    VertexId start = scratch[static_cast<size_t>(from_idx)].AsVertex().id;
    path_v = {start};
    path_e.clear();

    auto emit = [&](VertexId end) {
      if (op.target_bound) {
        if (scratch[static_cast<size_t>(tgt_idx)].AsVertex().id != end) return;
      } else if (!op.vtc.Matches(g_->VertexType(end))) {
        return;
      }
      scratch[static_cast<size_t>(vpos)] = Value(VertexRef{end});
      scratch[static_cast<size_t>(ppos)] = Value(PathRef{path_v, path_e});
      for (const auto& p : op.edge_preds) {
        if (!eval_.EvalBool(p, scratch, smap)) return;
      }
      for (const auto& p : op.vertex_preds) {
        if (!eval_.EvalBool(p, scratch, smap)) return;
      }
      if (fact) {
        if (!lazy) {
          for (size_t j = nchild; j < nout; ++j) {
            out.col(j).push_back(scratch[static_cast<size_t>(proj[j])]);
          }
        }
        ++run;
        return;
      }
      EmitProjected(scratch, proj, &out);
    };

    std::function<void(VertexId, int)> dfs = [&](VertexId v, int depth) {
      if (depth >= op.min_hops) emit(v);
      if (depth >= op.max_hops) return;
      ForEachAdj(v, op.dir, op.etc_, [&](const AdjEntry& a, bool) {
        if (op.semantics == PathSemantics::kSimple &&
            std::find(path_v.begin(), path_v.end(), a.nbr) != path_v.end()) {
          return;
        }
        if (op.semantics == PathSemantics::kTrail &&
            std::find(path_e.begin(), path_e.end(), a.eid) != path_e.end()) {
          return;
        }
        path_v.push_back(a.nbr);
        path_e.push_back(a.eid);
        dfs(a.nbr, depth + 1);
        path_v.pop_back();
        path_e.pop_back();
      });
    };
    dfs(start, 0);
    if (fact) {
      CloseFactorizedRow(scratch, nchild, nout, lazy, run, &out);
      run = 0;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Filter / Project / Unfold
// ---------------------------------------------------------------------------

namespace {

/// True when every tag the expression references maps to a group-backed
/// column of `b` (then the expression has one value per group). Unmapped
/// tags (e.g. parameter names) disqualify conservatively.
bool OnlyGroupTags(const Expr& e, const Batch& b, const ColMap& cmap) {
  std::set<std::string> tags;
  e.CollectTags(&tags);
  for (const auto& t : tags) {
    auto it = cmap.find(t);
    if (it == cmap.end() || !b.col_is_group(static_cast<size_t>(it->second))) {
      return false;
    }
  }
  return true;
}

/// Fills `scratch` with group g's values: group columns from their
/// backing, per-row columns as null (callers guarantee the expression
/// evaluated on it only reads group columns).
void GatherGroup(const Batch& b, uint32_t g, Row* scratch) {
  scratch->resize(b.num_cols());
  for (size_t c = 0; c < b.num_cols(); ++c) {
    (*scratch)[c] = b.col_is_group(c) ? b.gcol(c)[g] : Value();
  }
}

}  // namespace

std::vector<uint32_t> Kernels::FilterSelection(const PhysOp& op,
                                               const Batch& in) const {
  ColMap cmap = MakeColMap(op.children[0]->out_cols);
  std::vector<uint32_t> sel;
  // Vectorized path: a flat batch whose predicate compiles to
  // column-vs-constant terms evaluates branch-free over the typed columns
  // (src/exec/vectorized.h), no per-row gather or expression walk.
  if (vectorize_ && !in.factorized() && op.predicate != nullptr) {
    auto cp =
        CompiledPredicate::Compile(*op.predicate, cmap, eval_.params(), g_);
    if (cp != nullptr) {
      vec_dispatch_.fetch_add(1, std::memory_order_relaxed);
      cp->Select(in, &sel);
      return sel;
    }
  }
  gen_dispatch_.fetch_add(1, std::memory_order_relaxed);
  sel.reserve(in.size());
  Row scratch;
  if (in.factorized() && op.predicate &&
      OnlyGroupTags(*op.predicate, in, cmap)) {
    // The predicate's verdict is constant within a group: evaluate it
    // once per group touched and fan the verdict out over the rows.
    std::vector<int8_t> verdict(in.num_groups(), -1);
    for (size_t i = 0; i < in.size(); ++i) {
      const uint32_t p = in.PhysIndex(i);
      const uint32_t g = in.GroupOf(p);
      if (verdict[g] < 0) {
        GatherGroup(in, g, &scratch);
        verdict[g] = eval_.EvalBool(op.predicate, scratch, cmap) ? 1 : 0;
      }
      if (verdict[g]) sel.push_back(p);
    }
    return sel;
  }
  for (size_t i = 0; i < in.size(); ++i) {
    in.GatherRow(i, &scratch);
    if (eval_.EvalBool(op.predicate, scratch, cmap)) {
      sel.push_back(in.PhysIndex(i));
    }
  }
  return sel;
}

void Kernels::FilterBatch(const PhysOp& op, Batch* in) const {
  in->SetSelection(FilterSelection(op, *in));
}

Batch Kernels::ProjectBatch(const PhysOp& op, const Batch& in) const {
  ColMap cmap = MakeColMap(op.children[0]->out_cols);
  const size_t ncols = op.children[0]->out_cols.size();
  const size_t nout = op.out_cols.size();
  if (in.factorized()) {
    // Structure-preserving path: plan each output column as a pass-through
    // of an input backing, a per-group evaluation (expression only reads
    // group columns — includes constants), or a per-row evaluation.
    enum class How { kPass, kGroupEval, kRowEval };
    std::vector<How> how(nout, How::kRowEval);
    std::vector<int> src(nout, -1);
    std::vector<const ProjectItem*> item_of(nout, nullptr);
    std::vector<uint8_t> is_group(nout, 0);
    size_t oc = 0;
    if (op.append) {
      for (; oc < ncols; ++oc) {
        how[oc] = How::kPass;
        src[oc] = static_cast<int>(oc);
        is_group[oc] = in.col_is_group(oc) ? 1 : 0;
      }
    }
    for (const auto& item : op.items) {
      item_of[oc] = &item;
      if (item.expr->kind == Expr::Kind::kVar) {
        auto it = cmap.find(item.expr->tag);
        if (it != cmap.end()) {
          how[oc] = How::kPass;
          src[oc] = it->second;
          is_group[oc] =
              in.col_is_group(static_cast<size_t>(it->second)) ? 1 : 0;
          ++oc;
          continue;
        }
      }
      if (OnlyGroupTags(*item.expr, in, cmap)) {
        how[oc] = How::kGroupEval;
        is_group[oc] = 1;
      }
      ++oc;
    }
    bool any_group = false;
    for (uint8_t g : is_group) any_group |= g != 0;
    if (any_group) {
      Batch out(nout);
      out.InitFactorized(is_group);
      Row scratch;
      for (size_t j = 0; j < nout; ++j) {
        switch (how[j]) {
          case How::kPass:
            if (is_group[j]) {
              out.gcol(j) = in.gcol(static_cast<size_t>(src[j]));
            } else {
              out.col(j) = in.col(static_cast<size_t>(src[j]));
            }
            break;
          case How::kGroupEval: {
            auto& gc = out.gcol(j);
            gc.reserve(in.num_groups());
            for (uint32_t g = 0; g < in.num_groups(); ++g) {
              GatherGroup(in, g, &scratch);
              gc.push_back(eval_.Eval(*item_of[j]->expr, scratch, cmap));
            }
            break;
          }
          case How::kRowEval: {
            // Per-row values land at their physical positions (inactive
            // rows stay null), so the adopted selection keeps working.
            auto& fc = out.col(j);
            fc.assign(in.num_phys_rows(), Value());
            for (size_t i = 0; i < in.size(); ++i) {
              in.GatherRow(i, &scratch);
              fc[in.PhysIndex(i)] = eval_.Eval(*item_of[j]->expr, scratch, cmap);
            }
            break;
          }
        }
      }
      out.CopyLayoutFrom(in);
      return out;
    }
  }
  Batch out(nout);
  // Exactly one output row per input row: reserve the exact size.
  for (size_t c = 0; c < nout; ++c) out.col(c).reserve(in.size());
  Row scratch;
  for (size_t i = 0; i < in.size(); ++i) {
    in.GatherRow(i, &scratch);
    size_t c = 0;
    if (op.append) {
      for (; c < ncols; ++c) out.col(c).push_back(scratch[c]);
    }
    for (const auto& item : op.items) {
      out.col(c++).push_back(eval_.Eval(*item.expr, scratch, cmap));
    }
  }
  return out;
}

Batch Kernels::UnfoldBatch(const PhysOp& op, const Batch& in,
                           bool factorize) const {
  ColMap cmap = MakeColMap(op.children[0]->out_cols);
  int idx = cmap.at(op.unfold_tag);
  const size_t nchild = op.children[0]->out_cols.size();
  const bool fact = factorize && op.out_cols.size() == nchild + 1;
  Batch out(op.out_cols.size());
  if (fact) out.InitFactorized(FactorizedLayout(nchild + 1, nchild, false));
  // Floor reserve: at least one output row per input row with a non-empty
  // list (list fan-out is unknown up front).
  ReserveExpansionOutput(&out, op.out_cols.size(), nchild, fact,
                         /*lazy=*/false, in.size(), in.size());
  Row scratch;
  for (size_t i = 0; i < in.size(); ++i) {
    const Value& v = in.At(i, static_cast<size_t>(idx));
    if (v.kind() != Value::Kind::kList) continue;
    in.GatherRow(i, &scratch);
    if (fact) {
      // The input row is the prefix group; the list elements are the
      // per-row column — the same shape as a factorized expansion.
      const auto& elems = v.AsList();
      if (elems.empty()) continue;
      for (const Value& x : elems) out.col(nchild).push_back(x);
      CloseFactorizedRow(scratch, nchild, nchild + 1, false,
                         static_cast<uint32_t>(elems.size()), &out);
      continue;
    }
    for (const Value& x : v.AsList()) {
      for (size_t c = 0; c < scratch.size(); ++c) {
        out.col(c).push_back(scratch[c]);
      }
      out.col(scratch.size()).push_back(x);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Dedup
// ---------------------------------------------------------------------------

std::vector<Row> Kernels::Dedup(const PhysOp& op,
                                const std::vector<Row>& in) const {
  const auto& cols = op.children[0]->out_cols;
  std::vector<int> key_idx;
  if (op.dedup_tags.empty()) {
    for (size_t i = 0; i < cols.size(); ++i) key_idx.push_back(static_cast<int>(i));
  } else {
    for (const auto& t : op.dedup_tags) key_idx.push_back(IndexOf(cols, t));
  }
  std::unordered_map<std::vector<Value>, bool, ValueVecHash> seen;
  std::vector<Row> out;
  for (const Row& r : in) {
    std::vector<Value> key;
    key.reserve(key_idx.size());
    for (int i : key_idx) key.push_back(r[static_cast<size_t>(i)]);
    if (seen.emplace(std::move(key), true).second) out.push_back(r);
  }
  return out;
}

bool SupportsPartialAgg(const PhysOp& op) {
  for (const auto& a : op.aggs) {
    if (a.fn != AggFunc::kCount && a.fn != AggFunc::kSum &&
        a.fn != AggFunc::kMin && a.fn != AggFunc::kMax) {
      return false;
    }
  }
  return true;
}

namespace {

struct AggState {
  int64_t count = 0;
  double dsum = 0;
  int64_t isum = 0;
  bool any_double = false;
  bool has_value = false;
  Value min, max;
  std::set<Value> distinct;
  std::vector<Value> collect;
};

Value AggResult(const AggCall& call, const AggState& s) {
  switch (call.fn) {
    case AggFunc::kCount:
      return Value(s.count);
    case AggFunc::kCountDistinct:
      return Value(static_cast<int64_t>(s.distinct.size()));
    case AggFunc::kSum:
      if (!s.has_value) return Value(static_cast<int64_t>(0));
      return s.any_double ? Value(s.dsum) : Value(s.isum);
    case AggFunc::kMin:
      return s.has_value ? s.min : Value();
    case AggFunc::kMax:
      return s.has_value ? s.max : Value();
    case AggFunc::kAvg:
      if (s.count == 0) return Value();
      return Value((s.any_double ? s.dsum : static_cast<double>(s.isum)) /
                   static_cast<double>(s.count));
    case AggFunc::kCollect:
      return Value::List(s.collect);
  }
  return Value();
}

void AggUpdate(AggState* s, const AggCall& call, const Value& v) {
  switch (call.fn) {
    case AggFunc::kCount:
      if (call.arg == nullptr || !v.is_null()) s->count++;
      break;
    case AggFunc::kCountDistinct:
      if (!v.is_null()) s->distinct.insert(v);
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (!v.is_null()) {
        s->count++;
        s->has_value = true;
        if (v.kind() == Value::Kind::kDouble) {
          if (!s->any_double) {
            s->dsum = static_cast<double>(s->isum);
            s->any_double = true;
          }
          s->dsum += v.AsDouble();
        } else if (s->any_double) {
          s->dsum += v.ToDouble();
        } else {
          s->isum += v.AsInt();
        }
      }
      break;
    case AggFunc::kMin:
      if (!v.is_null()) {
        if (!s->has_value || v.Compare(s->min) < 0) s->min = v;
        s->has_value = true;
      }
      break;
    case AggFunc::kMax:
      if (!v.is_null()) {
        if (!s->has_value || v.Compare(s->max) > 0) s->max = v;
        s->has_value = true;
      }
      break;
    case AggFunc::kCollect:
      if (!v.is_null()) s->collect.push_back(v);
      break;
  }
}

/// AggUpdate applied `n` times with the same value. Integer COUNT/SUM fold
/// the multiplicity into one arithmetic step; anything touching doubles
/// replays the per-row additions so floating-point accumulation order (and
/// therefore rounding) is bit-identical to the flat row loop. MIN/MAX and
/// COUNT DISTINCT are multiplicity-invariant.
void AggUpdateN(AggState* s, const AggCall& call, const Value& v, uint64_t n) {
  switch (call.fn) {
    case AggFunc::kCount:
      if (call.arg == nullptr || !v.is_null()) {
        s->count += static_cast<int64_t>(n);
      }
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (!v.is_null()) {
        if (v.kind() == Value::Kind::kDouble || s->any_double) {
          for (uint64_t k = 0; k < n; ++k) AggUpdate(s, call, v);
        } else {
          s->count += static_cast<int64_t>(n);
          s->has_value = true;
          s->isum += v.AsInt() * static_cast<int64_t>(n);
        }
      }
      break;
    case AggFunc::kCountDistinct:
    case AggFunc::kMin:
    case AggFunc::kMax:
      AggUpdate(s, call, v);
      break;
    case AggFunc::kCollect:
      for (uint64_t k = 0; k < n; ++k) AggUpdate(s, call, v);
      break;
  }
}

}  // namespace

std::vector<Row> Kernels::Aggregate(const PhysOp& op,
                                    const std::vector<Row>& in,
                                    bool combine) const {
  const size_t nkeys = op.group_keys.size();
  const size_t naggs = op.aggs.size();
  ColMap cmap = MakeColMap(combine ? op.out_cols : op.children[0]->out_cols);

  std::unordered_map<std::vector<Value>, size_t, ValueVecHash> index;
  std::vector<std::vector<Value>> keys;
  std::vector<std::vector<AggState>> states;

  for (const Row& r : in) {
    std::vector<Value> key(nkeys);
    if (combine) {
      for (size_t i = 0; i < nkeys; ++i) key[i] = r[i];
    } else {
      for (size_t i = 0; i < nkeys; ++i) {
        key[i] = eval_.Eval(*op.group_keys[i].expr, r, cmap);
      }
    }
    auto [it, inserted] = index.emplace(key, keys.size());
    if (inserted) {
      keys.push_back(key);
      states.emplace_back(naggs);
    }
    auto& st = states[it->second];
    for (size_t i = 0; i < naggs; ++i) {
      const AggCall& call = op.aggs[i];
      if (combine) {
        // Partial results sit at column nkeys + i; COUNT/SUM merge by
        // summation, MIN/MAX by comparison.
        const Value& v = r[nkeys + i];
        AggCall merged = call;
        if (call.fn == AggFunc::kCount) {
          merged.fn = AggFunc::kSum;
          merged.arg = Expr::MakeLiteral(Value());  // non-null marker
          AggUpdate(&st[i], merged, v);
          // Represent back as count for AggResult:
          st[i].count = st[i].isum;
        } else {
          AggUpdate(&st[i], merged, v);
        }
      } else {
        Value v = call.arg ? eval_.Eval(*call.arg, r, cmap) : Value(true);
        AggUpdate(&st[i], call, v);
      }
    }
  }

  std::vector<Row> out;
  // A keyless aggregate over empty input still yields one row.
  if (keys.empty() && nkeys == 0) {
    keys.push_back({});
    states.emplace_back(naggs);
  }
  for (size_t gi = 0; gi < keys.size(); ++gi) {
    Row r = keys[gi];
    for (size_t i = 0; i < naggs; ++i) {
      r.push_back(AggResult(op.aggs[i], states[gi][i]));
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Row> Kernels::AggregateBatchRows(
    const PhysOp& op, const std::vector<Batch>& in) const {
  const size_t nkeys = op.group_keys.size();
  const size_t naggs = op.aggs.size();
  ColMap cmap = MakeColMap(op.children[0]->out_cols);

  std::unordered_map<std::vector<Value>, size_t, ValueVecHash> index;
  std::vector<std::vector<Value>> keys;
  std::vector<std::vector<AggState>> states;
  Row scratch;

  // One state update representing `n` identical input rows. Group keys are
  // discovered in first-occurrence order, exactly like the row loop: the
  // first row of a run precedes the rest.
  auto update = [&](const Row& r, uint64_t n) {
    std::vector<Value> key(nkeys);
    for (size_t i = 0; i < nkeys; ++i) {
      key[i] = eval_.Eval(*op.group_keys[i].expr, r, cmap);
    }
    auto [it, inserted] = index.emplace(key, keys.size());
    if (inserted) {
      keys.push_back(std::move(key));
      states.emplace_back(naggs);
    }
    auto& st = states[it->second];
    for (size_t i = 0; i < naggs; ++i) {
      const AggCall& call = op.aggs[i];
      Value v = call.arg ? eval_.Eval(*call.arg, r, cmap) : Value(true);
      AggUpdateN(&st[i], call, v, n);
    }
  };

  for (const Batch& b : in) {
    // Run-at-a-time consumption is sound when every key and argument is
    // constant within a group — i.e. reads only group columns.
    bool runwise = b.factorized();
    if (runwise) {
      for (const auto& k : op.group_keys) {
        runwise = runwise && OnlyGroupTags(*k.expr, b, cmap);
      }
      for (const auto& a : op.aggs) {
        if (a.arg) runwise = runwise && OnlyGroupTags(*a.arg, b, cmap);
      }
    }
    const size_t n = b.size();
    if (runwise && !b.has_selection()) {
      // Every physical row is active: each group is one run, folded in
      // one step straight from the offsets.
      const auto& goff = b.group_offsets();
      for (size_t g = 0; g + 1 < goff.size(); ++g) {
        GatherGroup(b, static_cast<uint32_t>(g), &scratch);
        update(scratch, goff[g + 1] - goff[g]);
      }
    } else if (runwise) {
      size_t i = 0;
      while (i < n) {
        const uint32_t g = b.GroupOf(b.PhysIndex(i));
        size_t j = i + 1;
        while (j < n && b.GroupOf(b.PhysIndex(j)) == g) ++j;
        GatherGroup(b, g, &scratch);
        update(scratch, j - i);
        i = j;
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        b.GatherRow(i, &scratch);
        update(scratch, 1);
      }
    }
  }

  std::vector<Row> out;
  // A keyless aggregate over empty input still yields one row.
  if (keys.empty() && nkeys == 0) {
    keys.push_back({});
    states.emplace_back(naggs);
  }
  for (size_t gi = 0; gi < keys.size(); ++gi) {
    Row r = std::move(keys[gi]);
    for (size_t i = 0; i < naggs; ++i) {
      r.push_back(AggResult(op.aggs[i], states[gi][i]));
    }
    out.push_back(std::move(r));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Join build / probe
// ---------------------------------------------------------------------------

namespace {

/// Seed of the per-key-column hash chain; also the hash of the empty key
/// (a keyless join: every build row shares it).
constexpr size_t kJoinHashSeed = 0x4a6f696eull;

/// Slot of hash `h` in a power-of-two slot array of 2^bits entries:
/// Fibonacci hashing spreads Value::Hash's low-entropy inputs (vertex ids)
/// over the high bits.
inline size_t JoinSlot(size_t h, int bits) {
  return static_cast<size_t>((static_cast<uint64_t>(h) *
                              0x9e3779b97f4a7c15ull) >>
                             (64 - bits));
}

inline int SlotBits(const JoinHashTable& ht) {
  int bits = 0;
  while ((size_t{1} << bits) < ht.slots.size()) ++bits;
  return bits;
}

/// Walks the probe sequence of hash `h` and returns the slot index that
/// either holds the distinct key equal to the one `key_at(k)` yields, or
/// is empty (the key is absent). `rep(d)` is the build row representing
/// distinct key d.
template <typename KeyAt, typename RepOf>
size_t FindJoinSlot(const JoinHashTable& ht, int bits, size_t h,
                    KeyAt key_at, RepOf rep) {
  const size_t mask = ht.slots.size() - 1;
  for (size_t s = JoinSlot(h, bits);; s = (s + 1) & mask) {
    const uint32_t d1 = ht.slots[s];
    if (d1 == 0) return s;
    const uint32_t d = d1 - 1;
    if (ht.key_hash[d] != h) continue;
    const uint32_t r = rep(d);
    bool eq = true;
    for (size_t k = 0; k < ht.keys.size() && eq; ++k) {
      eq = ht.keys[k][r] == key_at(k);
    }
    if (eq) return s;
  }
}

/// Resolves a join's key and appended column positions and sizes the
/// table's columns for `rows` build rows.
JoinHashTable NewJoinTable(const PhysOp& op, bool lazy, size_t rows,
                           std::vector<int>* rkey,
                           std::vector<int>* rappend) {
  const auto& lcols = op.children[0]->out_cols;
  const auto& rcols = op.children[1]->out_cols;
  if (rows >= std::numeric_limits<uint32_t>::max()) {
    throw std::runtime_error("HashJoin: build side exceeds 2^32 rows");
  }
  JoinHashTable ht;
  ht.lazy = lazy;
  for (const auto& k : op.join_keys) {
    ht.lkey.push_back(IndexOf(lcols, k));
    rkey->push_back(IndexOf(rcols, k));
    if (ht.lkey.back() < 0 || rkey->back() < 0) {
      throw std::runtime_error("HashJoin: key column '" + k +
                               "' missing from an input");
    }
  }
  // Right columns appended beyond the left layout.
  for (size_t i = lcols.size(); i < op.out_cols.size(); ++i) {
    rappend->push_back(IndexOf(rcols, op.out_cols[i]));
    if (rappend->back() < 0) {
      throw std::runtime_error("HashJoin: output column '" + op.out_cols[i] +
                               "' missing from the right input");
    }
  }
  ht.keys.resize(rkey->size());
  for (auto& c : ht.keys) c.reserve(rows);
  ht.append.resize(rappend->size());
  if (!lazy) {
    for (auto& c : ht.append) c.reserve(rows);
  }
  return ht;
}

/// Appends one build row, read through `at(column)`, to the table's key
/// and (unless lazy) appended columns.
template <typename ValueAt>
void AppendBuildRow(JoinHashTable* ht, const std::vector<int>& rkey,
                    const std::vector<int>& rappend, ValueAt at) {
  for (size_t k = 0; k < rkey.size(); ++k) {
    ht->keys[k].push_back(at(static_cast<size_t>(rkey[k])));
  }
  if (ht->lazy) return;
  for (size_t j = 0; j < rappend.size(); ++j) {
    ht->append[j].push_back(at(static_cast<size_t>(rappend[j])));
  }
}

/// Groups the build rows collected in `ht->keys` by key: assigns distinct
/// key ids in first-occurrence order, then lays the rows out key by key
/// (a counting sort, so each key's rows stay in build order).
void IndexJoinTable(JoinHashTable* ht, size_t rows) {
  int bits = 1;
  while ((size_t{1} << bits) < 2 * rows) ++bits;
  ht->slots.assign(size_t{1} << bits, 0);
  std::vector<uint32_t> row_key(rows);
  std::vector<uint32_t> first_row;  // per distinct key, while building
  std::vector<uint32_t> count;
  for (size_t r = 0; r < rows; ++r) {
    size_t h = kJoinHashSeed;
    for (const auto& col : ht->keys) h = HashCombine(h, col[r].Hash());
    const size_t s = FindJoinSlot(
        *ht, bits, h, [&](size_t k) -> const Value& { return ht->keys[k][r]; },
        [&](uint32_t d) { return first_row[d]; });
    if (ht->slots[s] == 0) {
      ht->slots[s] = static_cast<uint32_t>(first_row.size()) + 1;
      ht->key_hash.push_back(h);
      first_row.push_back(static_cast<uint32_t>(r));
      count.push_back(0);
    }
    row_key[r] = ht->slots[s] - 1;
    ++count[row_key[r]];
  }
  ht->offsets.assign(count.size() + 1, 0);
  for (size_t d = 0; d < count.size(); ++d) {
    ht->offsets[d + 1] = ht->offsets[d] + count[d];
  }
  std::vector<uint32_t> cursor(ht->offsets.begin(), ht->offsets.end() - 1);
  ht->positions.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    ht->positions[cursor[row_key[r]]++] = static_cast<uint32_t>(r);
  }
}

}  // namespace

JoinHashTable Kernels::BuildJoinTable(const PhysOp& op,
                                      const std::vector<Batch>& right,
                                      bool lazy) const {
  const size_t rows = TotalBatchRows(right);
  std::vector<int> rkey, rappend;
  JoinHashTable ht = NewJoinTable(op, lazy, rows, &rkey, &rappend);
  for (const Batch& b : right) {
    for (size_t i = 0; i < b.size(); ++i) {
      AppendBuildRow(&ht, rkey, rappend,
                     [&](size_t c) -> const Value& { return b.At(i, c); });
    }
  }
  IndexJoinTable(&ht, rows);
  return ht;
}

Batch Kernels::JoinProbeBatch(const PhysOp& op, const Batch& left,
                              const JoinHashTable& ht, bool factorize) const {
  const size_t nlcols = op.children[0]->out_cols.size();
  const size_t nout = op.out_cols.size();
  const bool filter_only =
      op.join_kind == JoinKind::kSemi || op.join_kind == JoinKind::kAnti;
  // Semi and anti joins emit at most one row per probe row: nothing to
  // share, so they always emit flat rows.
  const bool fact = (factorize || ht.lazy) && !filter_only;
  Batch out(nout);
  if (fact) {
    out.InitFactorized(FactorizedLayout(nout, nlcols, ht.lazy));
    for (size_t c = 0; c < nout; ++c) {
      if (out.col_is_group(c)) out.gcol(c).reserve(left.size());
    }
  }
  // Floor reserve: joins commonly emit about one row per probe row.
  for (size_t c = 0; c < nout; ++c) {
    if (!out.col_is_group(c)) out.col(c).reserve(left.size());
  }
  const int bits = SlotBits(ht);
  const size_t nkeys = ht.lkey.size();
  auto rep = [&](uint32_t d) { return ht.positions[ht.offsets[d]]; };
  for (size_t i = 0; i < left.size(); ++i) {
    // Resolve the probe row's group once; every read below goes through
    // the batch's own layout (Batch::At, without re-searching the group).
    const uint32_t p = left.PhysIndex(i);
    const uint32_t g = left.factorized() ? left.GroupOf(p) : 0;
    auto at = [&](size_t c) -> const Value& {
      return left.col_is_group(c) ? left.gcol(c)[g] : left.col(c)[p];
    };
    auto key_at = [&](size_t k) -> const Value& {
      return at(static_cast<size_t>(ht.lkey[k]));
    };
    size_t h = kJoinHashSeed;
    for (size_t k = 0; k < nkeys; ++k) h = HashCombine(h, key_at(k).Hash());
    // The matching range of ht.positions (empty when the key is absent).
    uint32_t begin = 0, end = 0;
    const uint32_t d1 = ht.slots[FindJoinSlot(ht, bits, h, key_at, rep)];
    if (d1 != 0) {
      begin = ht.offsets[d1 - 1];
      end = ht.offsets[d1];
    }
    const bool matched = begin < end;
    if (filter_only) {
      if (matched == (op.join_kind == JoinKind::kSemi)) {
        for (size_t c = 0; c < nlcols; ++c) out.col(c).push_back(at(c));
      }
      continue;
    }
    // Inner and left-outer share the matched-row emit; left-outer adds a
    // null-padded row when nothing matched.
    if (!matched && op.join_kind != JoinKind::kLeftOuter) continue;
    const uint32_t run = matched ? end - begin : 1;
    for (size_t c = 0; c < nlcols; ++c) {
      if (fact) {
        out.gcol(c).push_back(at(c));  // the probe row is the group
      } else {
        out.col(c).insert(out.col(c).end(), run, at(c));
      }
    }
    for (size_t c = nlcols; c < nout; ++c) {
      if (ht.lazy) {
        out.gcol(c).push_back(Value());  // elided: reads as null
      } else if (!matched) {
        out.col(c).push_back(Value());
      } else {
        const auto& src = ht.append[c - nlcols];
        for (uint32_t q = begin; q < end; ++q) {
          out.col(c).push_back(src[ht.positions[q]]);
        }
      }
    }
    if (fact) out.CloseGroup(run);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Union
// ---------------------------------------------------------------------------

std::vector<Row> Kernels::Union(const PhysOp& op, std::vector<Row> left,
                                std::vector<Row> right) const {
  std::vector<Row> mapped =
      MapColumns(std::move(right), op.children[1]->out_cols, op.out_cols);
  for (Row& r : mapped) left.push_back(std::move(r));
  if (op.union_distinct) {
    // Layout-only child so the dedup kernel sees the union's columns.
    auto layout = std::make_shared<PhysOp>(PhysOpKind::kUnion);
    layout->out_cols = op.out_cols;
    PhysOp dd(PhysOpKind::kDedup);
    dd.children = {layout};
    left = Dedup(dd, left);
  }
  return left;
}

// ---------------------------------------------------------------------------
// Sort / Limit
// ---------------------------------------------------------------------------

std::vector<Row> Kernels::SortLimit(const PhysOp& op,
                                    std::vector<Row> in) const {
  ColMap cmap = MakeColMap(op.children[0]->out_cols);
  const size_t nkeys = op.sort_items.size();
  // Decorate with sort keys.
  std::vector<std::pair<std::vector<Value>, Row>> dec;
  dec.reserve(in.size());
  for (Row& r : in) {
    std::vector<Value> keys(nkeys);
    for (size_t i = 0; i < nkeys; ++i) {
      keys[i] = eval_.Eval(*op.sort_items[i].expr, r, cmap);
    }
    dec.emplace_back(std::move(keys), std::move(r));
  }
  std::stable_sort(dec.begin(), dec.end(), [&](const auto& a, const auto& b) {
    for (size_t i = 0; i < nkeys; ++i) {
      int c = a.first[i].Compare(b.first[i]);
      if (c != 0) return op.sort_items[i].asc ? c < 0 : c > 0;
    }
    return false;
  });
  std::vector<Row> out;
  size_t n = dec.size();
  if (op.limit >= 0) n = std::min(n, static_cast<size_t>(op.limit));
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(std::move(dec[i].second));
  return out;
}

std::vector<Row> Kernels::MergeSortedLimit(
    const PhysOp& op, std::vector<std::vector<Row>> parts) const {
  ColMap cmap = MakeColMap(op.children[0]->out_cols);
  const size_t nkeys = op.sort_items.size();
  // Evaluate each row's sort keys once up front (same decoration SortLimit
  // uses, so the comparator agrees exactly).
  std::vector<std::vector<std::vector<Value>>> keys(parts.size());
  size_t total = 0;
  for (size_t p = 0; p < parts.size(); ++p) {
    keys[p].reserve(parts[p].size());
    for (const Row& r : parts[p]) {
      std::vector<Value> k(nkeys);
      for (size_t i = 0; i < nkeys; ++i) {
        k[i] = eval_.Eval(*op.sort_items[i].expr, r, cmap);
      }
      keys[p].push_back(std::move(k));
    }
    total += parts[p].size();
  }
  struct Cursor {
    size_t part;
    size_t pos;
  };
  // Min-heap ordered by sort keys; key ties resolve to the lower part
  // index — the order a stable sort of the worker-order concatenation
  // yields, so the merge is output-identical to the old full re-sort.
  auto after = [&](const Cursor& a, const Cursor& b) {
    const auto& ka = keys[a.part][a.pos];
    const auto& kb = keys[b.part][b.pos];
    for (size_t i = 0; i < nkeys; ++i) {
      int c = ka[i].Compare(kb[i]);
      if (c != 0) return op.sort_items[i].asc ? c > 0 : c < 0;
    }
    return a.part > b.part;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(after)> heap(after);
  for (size_t p = 0; p < parts.size(); ++p) {
    if (!parts[p].empty()) heap.push({p, 0});
  }
  size_t n = total;
  if (op.limit >= 0) n = std::min(n, static_cast<size_t>(op.limit));
  std::vector<Row> out;
  out.reserve(n);
  while (out.size() < n && !heap.empty()) {
    Cursor c = heap.top();
    heap.pop();
    out.push_back(std::move(parts[c.part][c.pos]));
    if (c.pos + 1 < parts[c.part].size()) heap.push({c.part, c.pos + 1});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Column permutation
// ---------------------------------------------------------------------------

std::vector<Row> Kernels::MapColumns(std::vector<Row> rows,
                                     const std::vector<std::string>& from_cols,
                                     const std::vector<std::string>& to_cols) const {
  if (from_cols == to_cols) return rows;
  std::vector<int> perm;
  for (const auto& c : to_cols) perm.push_back(IndexOf(from_cols, c));
  std::vector<Row> out;
  out.reserve(rows.size());
  for (Row& r : rows) {
    Row nr(perm.size());
    for (size_t i = 0; i < perm.size(); ++i) {
      nr[i] = perm[i] >= 0 ? r[static_cast<size_t>(perm[i])] : Value();
    }
    out.push_back(std::move(nr));
  }
  return out;
}

}  // namespace gopt
