#include "src/engine/subpattern.h"

#include <cstring>
#include <functional>
#include <set>

#include "src/engine/result_cache.h"

namespace gopt {

namespace {

template <typename T>
void AppendRaw(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

void AppendSized(std::string* out, const std::string& s) {
  AppendRaw(out, static_cast<uint64_t>(s.size()));
  out->append(s);
}

void AppendExpr(std::string* out, const ExprPtr& e,
                std::set<std::string>* params) {
  if (!e) {
    out->push_back(0);
    return;
  }
  out->push_back(1);
  // Expr::ToString is a full rendering of the expression tree; length-
  // prefixed it cannot collide across field boundaries. The $params it
  // references are collected so their bound values join the fingerprint.
  AppendSized(out, e->ToString());
  e->CollectParams(params);
}

void AppendExprs(std::string* out, const std::vector<ExprPtr>& es,
                 std::set<std::string>* params) {
  AppendRaw(out, static_cast<uint64_t>(es.size()));
  for (const auto& e : es) AppendExpr(out, e, params);
}

void AppendTypeConstraint(std::string* out, const TypeConstraint& tc) {
  if (tc.IsAll()) {
    out->push_back('A');
    return;
  }
  out->push_back('T');
  AppendRaw(out, static_cast<uint64_t>(tc.types().size()));
  for (TypeId t : tc.types()) AppendRaw(out, t);
}

void AppendNode(std::string* out, const PhysOp& op,
                std::set<std::string>* params) {
  out->push_back(static_cast<char>(op.kind));
  // Every result-shaping field, per-kind payloads included unconditionally
  // (unused ones are defaults, identical for equal kinds). est_rows is
  // deliberately excluded: it is a planning annotation, not semantics.
  for (const std::string& c : op.out_cols) AppendSized(out, c);
  out->push_back('|');
  AppendSized(out, op.alias);
  AppendTypeConstraint(out, op.vtc);
  AppendExprs(out, op.vertex_preds, params);
  AppendSized(out, op.from_tag);
  AppendRaw(out, static_cast<int32_t>(op.dir));
  AppendTypeConstraint(out, op.etc_);
  AppendExprs(out, op.edge_preds, params);
  AppendSized(out, op.edge_alias);
  out->push_back(op.target_bound ? 1 : 0);
  AppendRaw(out, static_cast<uint64_t>(op.arms.size()));
  for (const IntersectArm& arm : op.arms) {
    AppendSized(out, arm.from_tag);
    AppendRaw(out, static_cast<int32_t>(arm.dir));
    AppendTypeConstraint(out, arm.etc_);
  }
  AppendRaw(out, static_cast<int32_t>(op.min_hops));
  AppendRaw(out, static_cast<int32_t>(op.max_hops));
  AppendRaw(out, static_cast<int32_t>(op.semantics));
  AppendSized(out, op.path_alias);
  AppendExpr(out, op.predicate, params);
  AppendRaw(out, static_cast<uint64_t>(op.items.size()));
  for (const ProjectItem& it : op.items) {
    AppendExpr(out, it.expr, params);
    AppendSized(out, it.alias);
  }
  out->push_back(op.append ? 1 : 0);
  AppendRaw(out, static_cast<uint64_t>(op.group_keys.size()));
  for (const ProjectItem& it : op.group_keys) {
    AppendExpr(out, it.expr, params);
    AppendSized(out, it.alias);
  }
  AppendRaw(out, static_cast<uint64_t>(op.aggs.size()));
  for (const AggCall& a : op.aggs) {
    AppendRaw(out, static_cast<int32_t>(a.fn));
    AppendExpr(out, a.arg, params);
    AppendSized(out, a.alias);
  }
  AppendRaw(out, static_cast<uint64_t>(op.sort_items.size()));
  for (const SortItem& s : op.sort_items) {
    AppendExpr(out, s.expr, params);
    out->push_back(s.asc ? 1 : 0);
  }
  AppendRaw(out, op.limit);
  AppendRaw(out, static_cast<uint64_t>(op.dedup_tags.size()));
  for (const std::string& t : op.dedup_tags) AppendSized(out, t);
  AppendRaw(out, static_cast<uint64_t>(op.join_keys.size()));
  for (const std::string& k : op.join_keys) AppendSized(out, k);
  AppendRaw(out, static_cast<int32_t>(op.join_kind));
  out->push_back(op.union_distinct ? 1 : 0);
  AppendSized(out, op.unfold_tag);
  AppendSized(out, op.unfold_alias);
  AppendRaw(out, static_cast<uint64_t>(op.children.size()));
  for (const PhysOpPtr& c : op.children) AppendNode(out, *c, params);
}

/// A sub-plan worth materializing once: anything beyond a bare
/// unfiltered vertex scan (sharing those would trade a streaming scan for
/// a same-size row copy with no work saved) and not already a splice.
bool WorthSharing(const PhysOp& op) {
  if (op.kind == PhysOpKind::kCachedScan) return false;
  return op.kind != PhysOpKind::kScanVertices || !op.vertex_preds.empty();
}

}  // namespace

std::string SubPlanFingerprint(const PhysOp& op, const ParamMap& bound) {
  std::string s;
  std::set<std::string> params;
  AppendNode(&s, op, &params);
  // Fold in the effective bindings of exactly the $params this subtree
  // reads (std::set: canonical order). A param bound differently across
  // two batch entries keeps their otherwise-identical sub-plans apart; a
  // param only other parts of the query read does not fragment sharing.
  for (const std::string& name : params) {
    AppendSized(&s, name);
    auto it = bound.find(name);
    if (it != bound.end()) {
      AppendValueFingerprint(&s, it->second);
    } else {
      s.push_back('?');  // unbound (Execute rejects these before running)
    }
  }
  return s;
}

std::vector<SharedSubPlan> FindSharedSubPlans(
    const std::vector<PhysOpPtr>& roots,
    const std::vector<const ParamMap*>& bound) {
  struct Occurrence {
    size_t plan;
    const PhysOp* node;
    const PhysOpPtr* holder;  ///< a shared_ptr owning `node`
  };
  std::map<std::string, std::vector<Occurrence>> occ;
  // Fingerprint every node of every plan (each distinct node pointer once
  // per plan — DAG re-visits within a plan are already shared for free).
  for (size_t i = 0; i < roots.size(); ++i) {
    if (!roots[i]) continue;
    std::set<const PhysOp*> seen;
    std::function<void(const PhysOpPtr&)> walk = [&](const PhysOpPtr& n) {
      if (!seen.insert(n.get()).second) return;
      if (n.get() != roots[i].get() && WorthSharing(*n)) {
        occ[SubPlanFingerprint(*n, *bound[i])].push_back(
            Occurrence{i, n.get(), &n});
      }
      for (const PhysOpPtr& c : n->children) walk(c);
    };
    walk(roots[i]);
  }

  // Top-down maximality: re-walk each plan, selecting the first node on
  // each root-to-leaf path whose fingerprint occurs >= 2 times anywhere in
  // the batch, and not descending below a selection.
  std::map<std::string, SharedSubPlan> picked;
  for (size_t i = 0; i < roots.size(); ++i) {
    if (!roots[i]) continue;
    std::set<const PhysOp*> seen;
    std::function<void(const PhysOpPtr&, bool)> walk = [&](const PhysOpPtr& n,
                                                          bool is_root) {
      if (!seen.insert(n.get()).second) return;
      if (!is_root && WorthSharing(*n)) {
        std::string fp = SubPlanFingerprint(*n, *bound[i]);
        auto it = occ.find(fp);
        if (it != occ.end() && it->second.size() >= 2) {
          SharedSubPlan& s = picked[fp];
          if (!s.representative) {
            s.fingerprint = fp;
            s.representative = n;
          }
          s.sites.emplace_back(i, n.get());
          return;  // maximal: nothing nested inside gets its own splice
        }
      }
      for (const PhysOpPtr& c : n->children) walk(c, false);
    };
    walk(roots[i], true);
  }

  std::vector<SharedSubPlan> out;
  for (auto& [fp, s] : picked) {
    // A fingerprint can end up with a single top-most site when its other
    // occurrences are nested inside a larger selection; materializing it
    // for one consumer would be pure overhead.
    if (s.sites.size() >= 2) out.push_back(std::move(s));
  }
  return out;
}

PhysOpPtr SplicePlan(const PhysOpPtr& root,
                     const std::map<const PhysOp*, PhysOpPtr>& replacements) {
  std::map<const PhysOp*, PhysOpPtr> memo;
  std::function<PhysOpPtr(const PhysOpPtr&)> clone =
      [&](const PhysOpPtr& n) -> PhysOpPtr {
    auto r = replacements.find(n.get());
    if (r != replacements.end()) return r->second;
    auto m = memo.find(n.get());
    if (m != memo.end()) return m->second;
    std::vector<PhysOpPtr> kids;
    kids.reserve(n->children.size());
    bool changed = false;
    for (const PhysOpPtr& c : n->children) {
      kids.push_back(clone(c));
      changed = changed || kids.back().get() != c.get();
    }
    // Untouched subtrees are shared with the original plan (both are
    // immutable); only the spine above a splice is copied.
    PhysOpPtr out;
    if (!changed) {
      out = n;
    } else {
      out = std::make_shared<PhysOp>(*n);
      out->children = std::move(kids);
    }
    memo[n.get()] = out;
    return out;
  };
  return clone(root);
}

PhysOpPtr MakeCachedScan(const PhysOp& original,
                         std::shared_ptr<const std::vector<Row>> rows) {
  auto scan = std::make_shared<PhysOp>(PhysOpKind::kCachedScan);
  scan->out_cols = original.out_cols;
  scan->alias = original.alias;
  scan->est_rows = rows ? static_cast<double>(rows->size()) : 0;
  scan->cached_rows = std::move(rows);
  return scan;
}

}  // namespace gopt
