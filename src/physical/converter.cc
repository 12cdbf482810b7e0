#include "src/physical/converter.h"

#include <algorithm>
#include <functional>
#include <set>
#include <stdexcept>

namespace gopt {

namespace {

bool HasCol(const std::vector<std::string>& cols, const std::string& c) {
  return std::find(cols.begin(), cols.end(), c) != cols.end();
}

bool IsInternal(const std::string& alias) {
  return alias.empty() || alias[0] == '$';
}

}  // namespace

namespace {

/// Physical cleanup: collapses Project-over-Project chains of pure column
/// renames and removes identity projections, so per-operator materialization
/// does not pay for redundant row copies (FieldTrim + RETURN frequently
/// stack two projections).
PhysOpPtr CollapseProjects(PhysOpPtr op, std::map<const PhysOp*, PhysOpPtr>* done) {
  auto it = done->find(op.get());
  if (it != done->end()) return it->second;
  auto cur = std::make_shared<PhysOp>(*op);
  for (auto& c : cur->children) c = CollapseProjects(c, done);

  auto is_rename_only = [](const PhysOp& p) {
    if (p.kind != PhysOpKind::kProject || p.append) return false;
    for (const auto& item : p.items) {
      if (item.expr->kind != Expr::Kind::kVar) return false;
    }
    return true;
  };
  if (cur->kind == PhysOpKind::kProject && !cur->append &&
      !cur->children.empty() && is_rename_only(*cur->children[0])) {
    // Rewire outer expressions through the inner rename map.
    const PhysOp& inner = *cur->children[0];
    std::map<std::string, std::string> rename;
    for (const auto& item : inner.items) rename[item.alias] = item.expr->tag;
    std::function<ExprPtr(const ExprPtr&)> rewrite =
        [&](const ExprPtr& e) -> ExprPtr {
      if (!e) return e;
      auto copy = std::make_shared<Expr>(*e);
      if ((copy->kind == Expr::Kind::kVar ||
           copy->kind == Expr::Kind::kProperty) &&
          rename.count(copy->tag)) {
        copy->tag = rename[copy->tag];
      }
      for (auto& a : copy->args) a = rewrite(a);
      return copy;
    };
    for (auto& item : cur->items) item.expr = rewrite(item.expr);
    cur->children = inner.children;
  }
  // Identity projection: same columns, same order, pure Vars.
  if (is_rename_only(*cur) && !cur->children.empty()) {
    bool identity = cur->out_cols == cur->children[0]->out_cols;
    if (identity) {
      for (size_t i = 0; i < cur->items.size(); ++i) {
        if (cur->items[i].expr->tag != cur->out_cols[i] ||
            cur->items[i].alias != cur->out_cols[i]) {
          identity = false;
          break;
        }
      }
    }
    if (identity) {
      auto child = cur->children[0];
      (*done)[op.get()] = child;
      return child;
    }
  }
  (*done)[op.get()] = cur;
  return cur;
}

}  // namespace

PhysOpPtr PhysicalConverter::Convert(
    const LogicalOpPtr& root,
    const std::map<const LogicalOp*, PatternPlanPtr>& pattern_plans) {
  shared_.clear();
  PhysOpPtr phys = ConvertNode(root, pattern_plans);
  std::map<const PhysOp*, PhysOpPtr> done;
  return CollapseProjects(phys, &done);
}

PhysOpPtr PhysicalConverter::MakeEdgeStep(const Pattern& pat,
                                          const PatternEdge& e, PhysOpPtr input,
                                          bool bind_edge) {
  const PatternVertex& sv = pat.VertexById(e.src);
  const PatternVertex& dv = pat.VertexById(e.dst);
  bool src_bound = HasCol(input->out_cols, sv.alias);
  bool dst_bound = HasCol(input->out_cols, dv.alias);
  if (!src_bound && !dst_bound) {
    throw std::runtime_error("MakeEdgeStep: neither endpoint bound");
  }
  const PatternVertex* from = src_bound ? &sv : &dv;
  const PatternVertex* to = src_bound ? &dv : &sv;
  bool closing = src_bound && dst_bound;

  Direction step_dir;
  if (e.dir == Direction::kBoth) {
    step_dir = Direction::kBoth;
  } else {
    step_dir = (from == &sv) ? Direction::kOut : Direction::kIn;
  }

  auto op = std::make_shared<PhysOp>(e.IsPath() ? PhysOpKind::kPathExpand
                                                : PhysOpKind::kExpandEdge);
  op->children = {input};
  op->from_tag = from->alias;
  op->dir = step_dir;
  op->etc_ = e.tc;
  op->edge_preds = e.predicates;
  op->alias = to->alias;
  op->vtc = to->tc;
  if (!closing) op->vertex_preds = to->predicates;
  op->target_bound = closing;
  op->out_cols = input->out_cols;
  if (!closing) op->out_cols.push_back(to->alias);
  // Edge predicates read the edge (or path) through its alias, so an edge
  // that carries any is named even when no downstream operator keeps it;
  // only a bound edge becomes an output column.
  const bool name_edge = bind_edge || !e.predicates.empty();
  if (e.IsPath()) {
    op->min_hops = e.min_hops;
    op->max_hops = e.max_hops;
    op->semantics = e.semantics;
    if (name_edge) op->path_alias = e.alias;
  } else if (name_edge) {
    op->edge_alias = e.alias;
  }
  if (bind_edge) op->out_cols.push_back(e.alias);
  return op;
}

PhysOpPtr PhysicalConverter::ConvertPlanRec(const Pattern& full,
                                            const PatternPlanPtr& node,
                                            bool bind_all_edges) {
  switch (node->kind) {
    case PatternPlanNode::Kind::kScan: {
      const PatternVertex& v = full.VertexById(node->scan_vertex);
      auto op = std::make_shared<PhysOp>(PhysOpKind::kScanVertices);
      op->alias = v.alias;
      op->vtc = v.tc;
      op->vertex_preds = v.predicates;
      op->out_cols = {v.alias};
      op->est_rows = node->freq;
      return op;
    }
    case PatternPlanNode::Kind::kExpand: {
      PhysOpPtr in = ConvertPlanRec(full, node->child, bind_all_edges);
      auto needs_binding = [&](const PatternEdge& e) {
        if (bind_all_edges) return true;
        if (IsInternal(e.alias)) return false;
        // FieldTrim: skip binding edges whose alias no downstream operator
        // needs (null trimmed_tags_ means "no trim info: bind all named").
        return trimmed_tags_ == nullptr || trimmed_tags_->count(e.alias) > 0;
      };
      // Intersection arms see neighbor sets, not edges: an edge that must
      // be bound or filtered takes the sequential expansion instead.
      bool any_path = false, any_bind = false, any_edge_pred = false;
      for (int eid : node->added_edges) {
        const PatternEdge& e = full.EdgeById(eid);
        any_path |= e.IsPath();
        any_bind |= needs_binding(e);
        any_edge_pred |= !e.predicates.empty();
      }
      bool use_intersect =
          node->expand_spec &&
          node->expand_spec->Impl() == PhysExpandImpl::kExpandIntersect &&
          node->added_edges.size() > 1 && node->new_vertex >= 0 && !any_path &&
          !any_bind && !any_edge_pred;
      if (use_intersect) {
        const PatternVertex& nv = full.VertexById(node->new_vertex);
        auto op = std::make_shared<PhysOp>(PhysOpKind::kExpandIntersect);
        op->children = {in};
        op->alias = nv.alias;
        op->vtc = nv.tc;
        op->vertex_preds = nv.predicates;
        for (int eid : node->added_edges) {
          const PatternEdge& e = full.EdgeById(eid);
          IntersectArm arm;
          bool from_src = (e.dst == node->new_vertex);
          const PatternVertex& fv = full.VertexById(from_src ? e.src : e.dst);
          arm.from_tag = fv.alias;
          if (e.dir == Direction::kBoth) {
            arm.dir = Direction::kBoth;
          } else {
            arm.dir = from_src ? Direction::kOut : Direction::kIn;
          }
          arm.etc_ = e.tc;
          op->arms.push_back(std::move(arm));
        }
        op->out_cols = in->out_cols;
        op->out_cols.push_back(nv.alias);
        op->est_rows = node->freq;
        return op;
      }
      // Sequential expansion: the first edge incident to the new vertex
      // binds it; the rest (and pure closing steps) check adjacency.
      PhysOpPtr cur = in;
      for (int eid : node->added_edges) {
        const PatternEdge& e = full.EdgeById(eid);
        cur = MakeEdgeStep(node->pattern, e, cur, needs_binding(e));
      }
      // The CBO's frequency estimate covers the whole expand step; annotate
      // its final operator (intermediate edge steps stay unknown).
      if (cur != in) cur->est_rows = node->freq;
      return cur;
    }
    case PatternPlanNode::Kind::kJoin: {
      PhysOpPtr l = ConvertPlanRec(full, node->left, bind_all_edges);
      PhysOpPtr r = ConvertPlanRec(full, node->right, bind_all_edges);
      auto op = std::make_shared<PhysOp>(PhysOpKind::kHashJoin);
      op->children = {l, r};
      for (int vid : node->join_vertices) {
        op->join_keys.push_back(full.VertexById(vid).alias);
      }
      op->join_kind = JoinKind::kInner;
      op->out_cols = l->out_cols;
      for (const auto& c : r->out_cols) {
        if (!HasCol(op->out_cols, c)) op->out_cols.push_back(c);
      }
      op->est_rows = node->freq;
      return op;
    }
  }
  throw std::runtime_error("ConvertPlanRec: bad node");
}

PhysOpPtr PhysicalConverter::FinishPattern(const LogicalOp& op, PhysOpPtr in) {
  // No-repeated-edge semantics: all-distinct filter over the matched edges
  // (paper Remark 3.1).
  if (opts_.semantics == MatchSemantics::kNoRepeatedEdge) {
    std::vector<ExprPtr> args;
    for (const auto& e : op.pattern.edges()) {
      if (HasCol(in->out_cols, e.alias)) {
        args.push_back(Expr::MakeVar(e.alias));
      }
    }
    if (args.size() >= 2 || (args.size() == 1 && op.pattern.HasPathEdge())) {
      auto sel = std::make_shared<PhysOp>(PhysOpKind::kSelect);
      sel->children = {in};
      sel->predicate = Expr::MakeFunc("all_edges_distinct", args);
      sel->out_cols = in->out_cols;
      sel->est_rows = in->est_rows;
      in = sel;
    }
  }
  // Column pruning: FieldTrim's output_tags, or every user-visible alias.
  std::set<std::string> keep;
  if (op.trimmed) {
    for (const auto& t : op.output_tags) keep.insert(t);
  } else {
    for (const auto& c : in->out_cols) {
      if (!IsInternal(c)) keep.insert(c);
    }
  }
  std::vector<std::string> kept;
  for (const auto& c : in->out_cols) {
    if (keep.count(c)) kept.push_back(c);
  }
  // Rows must survive even if no column is referenced (e.g. COUNT(*)).
  if (kept.empty() && !in->out_cols.empty()) kept.push_back(in->out_cols[0]);
  if (kept.size() == in->out_cols.size()) return in;
  auto proj = std::make_shared<PhysOp>(PhysOpKind::kProject);
  proj->children = {in};
  for (const auto& c : kept) {
    proj->items.push_back({Expr::MakeVar(c), c});
  }
  proj->append = false;
  proj->out_cols = kept;
  proj->est_rows = in->est_rows;
  return proj;
}

PhysOpPtr PhysicalConverter::ConvertPatternPlan(const LogicalOp& match_op,
                                                const PatternPlanPtr& plan) {
  bool bind_all = opts_.semantics == MatchSemantics::kNoRepeatedEdge;
  std::set<std::string> trimmed(match_op.output_tags.begin(),
                                match_op.output_tags.end());
  trimmed_tags_ = match_op.trimmed ? &trimmed : nullptr;
  PhysOpPtr body = ConvertPlanRec(match_op.pattern, plan, bind_all);
  trimmed_tags_ = nullptr;
  return FinishPattern(match_op, body);
}

PhysOpPtr PhysicalConverter::ConvertNode(
    const LogicalOpPtr& op,
    const std::map<const LogicalOp*, PatternPlanPtr>& pattern_plans) {
  auto sh = shared_.find(op.get());
  if (sh != shared_.end()) return sh->second;

  PhysOpPtr out;
  switch (op->kind) {
    case LogicalOpKind::kMatchPattern: {
      auto it = pattern_plans.find(op.get());
      if (it == pattern_plans.end()) {
        throw std::runtime_error("Convert: missing pattern plan");
      }
      out = ConvertPatternPlan(*op, it->second);
      break;
    }
    case LogicalOpKind::kPatternExtend: {
      PhysOpPtr in = ConvertNode(op->inputs[0], pattern_plans);
      std::set<int> bound_e(op->bound_edges.begin(), op->bound_edges.end());
      // Expand delta edges in dependency order.
      std::vector<int> delta;
      for (const auto& e : op->pattern.edges()) {
        if (!bound_e.count(e.id)) delta.push_back(e.id);
      }
      bool bind_all = opts_.semantics == MatchSemantics::kNoRepeatedEdge;
      std::set<std::string> trimmed(op->output_tags.begin(),
                                    op->output_tags.end());
      PhysOpPtr cur = in;
      std::vector<int> remaining = delta;
      while (!remaining.empty()) {
        bool progress = false;
        for (size_t i = 0; i < remaining.size(); ++i) {
          const PatternEdge& e = op->pattern.EdgeById(remaining[i]);
          const auto& sa = op->pattern.VertexById(e.src).alias;
          const auto& da = op->pattern.VertexById(e.dst).alias;
          if (HasCol(cur->out_cols, sa) || HasCol(cur->out_cols, da)) {
            bool bind = bind_all || (!IsInternal(e.alias) &&
                                     (!op->trimmed || trimmed.count(e.alias)));
            cur = MakeEdgeStep(op->pattern, e, cur, bind);
            remaining.erase(remaining.begin() + static_cast<long>(i));
            progress = true;
            break;
          }
        }
        if (!progress) {
          throw std::runtime_error("PatternExtend: disconnected delta");
        }
      }
      out = FinishPattern(*op, cur);
      break;
    }
    case LogicalOpKind::kSelect: {
      PhysOpPtr in = ConvertNode(op->inputs[0], pattern_plans);
      out = std::make_shared<PhysOp>(PhysOpKind::kSelect);
      out->children = {in};
      out->predicate = op->predicate;
      out->out_cols = in->out_cols;
      out->est_rows = in->est_rows;
      break;
    }
    case LogicalOpKind::kProject: {
      PhysOpPtr in = ConvertNode(op->inputs[0], pattern_plans);
      out = std::make_shared<PhysOp>(PhysOpKind::kProject);
      out->children = {in};
      out->items = op->items;
      out->append = op->append;
      if (op->append) {
        out->out_cols = in->out_cols;
      }
      for (const auto& item : op->items) out->out_cols.push_back(item.alias);
      out->est_rows = in->est_rows;
      break;
    }
    case LogicalOpKind::kAggregate: {
      PhysOpPtr in = ConvertNode(op->inputs[0], pattern_plans);
      out = std::make_shared<PhysOp>(PhysOpKind::kAggregate);
      out->children = {in};
      out->group_keys = op->group_keys;
      out->aggs = op->aggs;
      for (const auto& k : op->group_keys) out->out_cols.push_back(k.alias);
      for (const auto& a : op->aggs) out->out_cols.push_back(a.alias);
      break;
    }
    case LogicalOpKind::kOrder: {
      PhysOpPtr in = ConvertNode(op->inputs[0], pattern_plans);
      out = std::make_shared<PhysOp>(PhysOpKind::kOrder);
      out->children = {in};
      out->sort_items = op->sort_items;
      out->limit = op->limit;
      out->out_cols = in->out_cols;
      break;
    }
    case LogicalOpKind::kLimit: {
      PhysOpPtr in = ConvertNode(op->inputs[0], pattern_plans);
      out = std::make_shared<PhysOp>(PhysOpKind::kLimit);
      out->children = {in};
      out->limit = op->limit;
      out->out_cols = in->out_cols;
      break;
    }
    case LogicalOpKind::kDedup: {
      PhysOpPtr in = ConvertNode(op->inputs[0], pattern_plans);
      out = std::make_shared<PhysOp>(PhysOpKind::kDedup);
      out->children = {in};
      out->dedup_tags = op->dedup_tags;
      out->out_cols = in->out_cols;
      break;
    }
    case LogicalOpKind::kJoin: {
      PhysOpPtr l = ConvertNode(op->inputs[0], pattern_plans);
      PhysOpPtr r = ConvertNode(op->inputs[1], pattern_plans);
      out = std::make_shared<PhysOp>(PhysOpKind::kHashJoin);
      out->children = {l, r};
      out->join_keys = op->join_keys;
      out->join_kind = op->join_kind;
      out->out_cols = l->out_cols;
      if (op->join_kind == JoinKind::kInner ||
          op->join_kind == JoinKind::kLeftOuter) {
        for (const auto& c : r->out_cols) {
          if (!HasCol(out->out_cols, c)) out->out_cols.push_back(c);
        }
      }
      break;
    }
    case LogicalOpKind::kUnion: {
      PhysOpPtr l = ConvertNode(op->inputs[0], pattern_plans);
      PhysOpPtr r = ConvertNode(op->inputs[1], pattern_plans);
      out = std::make_shared<PhysOp>(PhysOpKind::kUnion);
      out->children = {l, r};
      out->union_distinct = op->union_distinct;
      out->out_cols = l->out_cols;
      break;
    }
    case LogicalOpKind::kUnfold: {
      PhysOpPtr in = ConvertNode(op->inputs[0], pattern_plans);
      out = std::make_shared<PhysOp>(PhysOpKind::kUnfold);
      out->children = {in};
      out->unfold_tag = op->unfold_tag;
      out->unfold_alias = op->unfold_alias;
      out->out_cols = in->out_cols;
      out->out_cols.push_back(op->unfold_alias);
      break;
    }
  }
  shared_[op.get()] = out;
  return out;
}

}  // namespace gopt
