#include "src/opt/factorization.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace gopt {

namespace {

bool IsExpansion(PhysOpKind k) {
  return k == PhysOpKind::kExpandEdge || k == PhysOpKind::kExpandIntersect ||
         k == PhysOpKind::kPathExpand;
}

/// Inner and left-outer hash joins can fan a probe row out over its
/// matches; semi and anti joins emit at most the probe row itself.
bool IsFanOutJoin(const PhysOp& op) {
  return op.kind == PhysOpKind::kHashJoin &&
         (op.join_kind == JoinKind::kInner ||
          op.join_kind == JoinKind::kLeftOuter);
}

/// Build-side columns a hash join appends beyond its probe layout.
std::vector<std::string> AppendedCols(const PhysOp& op) {
  const size_t nl = op.children[0]->out_cols.size();
  return std::vector<std::string>(op.out_cols.begin() + nl, op.out_cols.end());
}

void CollectPredTags(const std::vector<ExprPtr>& preds,
                     std::set<std::string>* tags) {
  for (const auto& p : preds) {
    if (p) p->CollectTags(tags);
  }
}

/// Columns an expansion binds that did not exist on its input.
std::vector<std::string> ProducedCols(const PhysOp& op) {
  std::vector<std::string> out;
  // An edge or path alias that only names the edge for its predicates is
  // not an output column.
  auto add_output = [&](const std::string& c) {
    if (!c.empty() && std::find(op.out_cols.begin(), op.out_cols.end(), c) !=
                          op.out_cols.end()) {
      out.push_back(c);
    }
  };
  switch (op.kind) {
    case PhysOpKind::kExpandEdge:
      if (!op.target_bound) out.push_back(op.alias);
      add_output(op.edge_alias);
      break;
    case PhysOpKind::kPathExpand:
      if (!op.target_bound) out.push_back(op.alias);
      add_output(op.path_alias);
      break;
    case PhysOpKind::kExpandIntersect:
      out.push_back(op.alias);
      break;
    default:
      break;
  }
  return out;
}

}  // namespace

void ChooseFactorization(PipelinePlan* plan, FactorizationMode mode) {
  for (Pipeline& p : plan->pipelines) {
    p.factorized = false;
    p.lazy_ops.clear();
    p.flatten_points = 0;
    if (mode == FactorizationMode::kOff) continue;

    size_t n_expansions = 0;
    size_t n_joins = 0;
    for (const PhysOp* op : p.ops) {
      if (IsExpansion(op->kind)) ++n_expansions;
      if (IsFanOutJoin(*op)) ++n_joins;
    }
    if (n_expansions == 0 && n_joins == 0) continue;

    // Backward liveness from the sink: which columns does anything
    // downstream of each op actually read? Only an aggregating sink makes
    // columns dead outright (it reads its keys and arguments, nothing
    // else); every other sink materializes full rows, so everything is
    // live — prefix sharing still applies, but no expansion may go lazy.
    bool all_live = true;
    std::set<std::string> live;
    if (p.sink_is_breaker() && p.sink->kind == PhysOpKind::kAggregate) {
      all_live = false;
      for (const auto& k : p.sink->group_keys) k.expr->CollectTags(&live);
      for (const auto& a : p.sink->aggs) {
        if (a.arg) a.arg->CollectTags(&live);
      }
    }

    std::vector<uint8_t> lazy(p.ops.size(), 0);
    bool any_lazy = false;
    for (size_t idx = p.ops.size(); idx-- > 0;) {
      const PhysOp& op = *p.ops[idx];
      if (IsExpansion(op.kind) && !all_live) {
        const auto produced = ProducedCols(op);
        bool needed = produced.empty();  // nothing to skip storing
        for (const auto& c : produced) needed |= live.count(c) > 0;
        if (!needed) {
          lazy[idx] = 1;
          any_lazy = true;
        }
      }
      if (IsFanOutJoin(op) && !all_live) {
        // A join whose appended columns are all dead emits one
        // multiplicity group per matched probe row instead of copying the
        // row once per match — even with nothing appended, since the
        // copies are what it saves.
        bool needed = false;
        for (const auto& c : AppendedCols(op)) needed |= live.count(c) > 0;
        if (!needed) {
          lazy[idx] = 1;
          any_lazy = true;
        }
      }
      if (all_live) continue;
      // Fold the op's own reads into the live set (kernels evaluate
      // predicates and expressions on real values, so every referenced
      // tag must stay stored upstream; produced columns stop being live
      // below their producer).
      switch (op.kind) {
        case PhysOpKind::kExpandEdge:
        case PhysOpKind::kPathExpand:
          for (const auto& c : ProducedCols(op)) live.erase(c);
          live.insert(op.from_tag);
          if (op.target_bound) live.insert(op.alias);
          CollectPredTags(op.edge_preds, &live);
          CollectPredTags(op.vertex_preds, &live);
          break;
        case PhysOpKind::kExpandIntersect:
          live.erase(op.alias);
          for (const auto& arm : op.arms) live.insert(arm.from_tag);
          CollectPredTags(op.vertex_preds, &live);
          break;
        case PhysOpKind::kSelect:
          if (op.predicate) op.predicate->CollectTags(&live);
          break;
        case PhysOpKind::kProject:
          if (!op.append) live.clear();
          for (const auto& item : op.items) {
            if (op.append) live.erase(item.alias);
          }
          for (const auto& item : op.items) item.expr->CollectTags(&live);
          break;
        case PhysOpKind::kUnfold:
          live.erase(op.unfold_alias);
          live.insert(op.unfold_tag);
          break;
        case PhysOpKind::kHashJoin:
          // The probe passes its input columns through, appends the build
          // side's, and reads its key columns.
          for (const auto& c : AppendedCols(op)) live.erase(c);
          for (const auto& k : op.join_keys) live.insert(k);
          break;
        default:
          // Anything unforeseen may surface every input column: be
          // conservative below this point.
          all_live = true;
          break;
      }
    }

    bool choose = false;
    if (mode == FactorizationMode::kOn) {
      choose = true;
    } else {  // kAuto
      // Estimated per-expansion fan-out from the CBO's pattern
      // frequencies; prefix sharing pays once the fan-out replicates
      // prefixes noticeably.
      double prev = p.source != nullptr ? p.source->est_rows : -1;
      double max_fanout = 0;
      bool saw_ratio = false;
      for (const PhysOp* op : p.ops) {
        if (IsExpansion(op->kind) && op->est_rows > 0 && prev > 0) {
          max_fanout = std::max(max_fanout, op->est_rows / prev);
          saw_ratio = true;
        }
        prev = op->est_rows > 0 ? op->est_rows : -1;
      }
      choose = any_lazy || max_fanout >= 1.2 ||
               (!saw_ratio && n_expansions >= 2);
    }
    if (!choose) continue;

    p.factorized = true;
    p.lazy_ops = std::move(lazy);
    // Informational: where groups get expanded back to rows. Join builds
    // and probes read factorized batches in place, and so do the
    // consumers of an intermediate collect.
    if (p.sink_is_breaker()) {
      if (p.sink->kind != PhysOpKind::kAggregate) p.flatten_points++;
    } else if (&p == &plan->pipelines.back()) {
      p.flatten_points++;  // terminal collect row-ifies at the root
    }
  }
}

}  // namespace gopt
