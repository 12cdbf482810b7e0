#include "src/opt/cbo.h"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <unordered_map>

namespace gopt {

namespace {

bool IntersectApplicable(const ExpandSpec& spec, int new_vertex,
                         const std::vector<int>& added, const Pattern& pt) {
  if (spec.Impl() != PhysExpandImpl::kExpandIntersect) return true;
  // Intersection binds exactly one new vertex; multi-edge intersects over
  // path edges are not executable.
  if (new_vertex < 0 && added.size() > 1) return false;
  if (added.size() > 1) {
    for (int eid : added) {
      if (pt.EdgeById(eid).IsPath()) return false;
    }
  }
  return true;
}

PatternPlanPtr ScanNode(Pattern single, int vid, double freq) {
  auto node = std::make_shared<PatternPlanNode>();
  node->kind = PatternPlanNode::Kind::kScan;
  node->pattern = std::move(single);
  node->scan_vertex = vid;
  node->freq = freq;
  node->cost = freq;
  return node;
}

}  // namespace

std::string PatternPlanNode::ToString(const GraphSchema& schema,
                                      int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::ostringstream os;
  switch (kind) {
    case Kind::kScan:
      os << pad << "Scan v" << scan_vertex << " ("
         << pattern.VertexById(scan_vertex).tc.ToString(schema, true) << ")";
      break;
    case Kind::kExpand:
      os << pad << (expand_spec ? expand_spec->Name() : "Expand");
      if (new_vertex >= 0) os << " bind v" << new_vertex;
      os << " edges{";
      for (size_t i = 0; i < added_edges.size(); ++i) {
        if (i) os << ",";
        os << added_edges[i];
      }
      os << "}";
      break;
    case Kind::kJoin:
      os << pad << (join_spec ? join_spec->Name() : "Join") << " keys{";
      for (size_t i = 0; i < join_vertices.size(); ++i) {
        if (i) os << ",";
        os << "v" << join_vertices[i];
      }
      os << "}";
      break;
  }
  char buf[64];
  snprintf(buf, sizeof(buf), "  [freq=%.1f cost=%.1f]", freq, cost);
  os << buf << "\n";
  if (child) os << child->ToString(schema, indent + 1);
  if (left) os << left->ToString(schema, indent + 1);
  if (right) os << right->ToString(schema, indent + 1);
  return os.str();
}

PatternPlanPtr GraphOptimizer::MakeScan(const Pattern& p, int vid) const {
  Pattern single = p.SingleVertex(vid);
  double freq = gq_->GetFreq(single);
  return ScanNode(std::move(single), vid, freq);
}

double GraphOptimizer::ExpandCutFraction(const Pattern& pt,
                                         const std::vector<int>& added) const {
  if (!comm_ || added.empty()) return comm_ ? comm_->all_cut : 1.0;
  double sum = 0;
  for (int eid : added) {
    double cut = comm_->all_cut;
    for (const PatternEdge& e : pt.edges()) {
      if (e.id == eid) {
        cut = comm_->CutOf(e.tc);
        break;
      }
    }
    sum += cut;
  }
  return sum / static_cast<double>(added.size());
}

double GraphOptimizer::ExpandStepCost(const Pattern& ps, const Pattern& pt,
                                      double out_freq, int new_vertex,
                                      const std::vector<int>& added,
                                      const ExpandSpec& spec) const {
  double comp = spec.ComputeCost(*gq_, ps, pt, new_vertex, added);
  // An expansion's exchange moves only the rows whose newly bound vertex
  // lives off-worker — on a sharded store that is the edge-cut fraction of
  // the traversed edge types, not the whole output.
  double comm =
      backend_->comm_factor * out_freq * ExpandCutFraction(pt, added);
  return out_freq + comp + comm;
}

/// One memoized subpattern of the search: its edge and vertex masks over
/// the root pattern, the subpattern itself with its estimated frequency
/// (both computed once, on first reference), and the best plan found.
struct GraphOptimizer::MemoEntry {
  uint64_t edges = 0;
  uint64_t vertices = 0;
  Pattern pattern;
  double freq = 0;
  PatternPlanPtr plan;
  double cost = std::numeric_limits<double>::infinity();
  bool done = false;
};

/// Per-Optimize search state. Bit i of an edge mask is the root's i-th
/// edge and bit j of a vertex mask its j-th vertex; subpatterns keep the
/// root's vertex and edge order, so a mask names a subpattern exactly.
struct GraphOptimizer::SearchCtx {
  SearchCtx(const Pattern& root, const GlogueQuery* gq)
      : root(root), gq(gq), scans(root.NumVertices()) {
    std::vector<int> vid;
    for (const auto& v : root.vertices()) vid.push_back(v.id);
    auto index_of = [&](int id) {
      return std::find(vid.begin(), vid.end(), id) - vid.begin();
    };
    incident.assign(vid.size(), 0);
    for (size_t i = 0; i < root.NumEdges(); ++i) {
      const PatternEdge& e = root.edges()[i];
      uint64_t ends = Bit(index_of(e.src)) | Bit(index_of(e.dst));
      endpoints.push_back(ends);
      for (uint64_t r = ends; r; r &= r - 1) incident[Low(r)] |= Bit(i);
    }
  }

  static uint64_t Bit(size_t i) { return uint64_t{1} << i; }
  /// Bits 0..n-1 set (n <= 64).
  static uint64_t LowBits(size_t n) {
    return n == 64 ? ~uint64_t{0} : Bit(n) - 1;
  }
  static int Low(uint64_t m) { return __builtin_ctzll(m); }

  uint64_t Endpoints(uint64_t emask) const {
    uint64_t v = 0;
    for (uint64_t r = emask; r; r &= r - 1) v |= endpoints[Low(r)];
    return v;
  }

  /// Whether the edges `emask` connect all of the (non-empty) vertex set
  /// `vmask`.
  bool Connected(uint64_t emask, uint64_t vmask) const {
    uint64_t reached = vmask & (~vmask + 1);
    for (bool grew = true; grew;) {
      grew = false;
      for (uint64_t r = emask; r; r &= r - 1) {
        uint64_t ends = endpoints[Low(r)];
        if (ends & reached) {
          reached |= ends;
          emask &= ~(r & (~r + 1));
          grew = true;
        }
      }
    }
    return reached == vmask;
  }

  /// Root edge ids of a mask, in root order.
  std::vector<int> EdgeIds(uint64_t emask) const {
    std::vector<int> ids;
    for (uint64_t r = emask; r; r &= r - 1) {
      ids.push_back(root.edges()[Low(r)].id);
    }
    return ids;
  }

  /// The memo entry of the connected subpattern with edges `emask`.
  MemoEntry& ByEdges(uint64_t emask) {
    auto [it, fresh] = memo.try_emplace(emask);
    MemoEntry& e = it->second;
    if (fresh) {
      e.edges = emask;
      e.vertices = Endpoints(emask);
      e.pattern = root.SubpatternByEdges(EdgeIds(emask));
      e.freq = gq->GetFreq(e.pattern);
    }
    return e;
  }

  /// The memo entry of the single-vertex subpattern of root vertex `j`.
  MemoEntry& ByVertex(int j) {
    MemoEntry& e = scans[static_cast<size_t>(j)];
    if (e.vertices == 0) {
      e.vertices = Bit(static_cast<size_t>(j));
      e.pattern = root.SingleVertex(root.vertices()[static_cast<size_t>(j)].id);
      e.freq = gq->GetFreq(e.pattern);
    }
    return e;
  }

  const Pattern& root;
  const GlogueQuery* gq;
  std::vector<uint64_t> endpoints;  ///< per edge: its endpoint vertex bits
  std::vector<uint64_t> incident;   ///< per vertex: its incident edge bits
  std::unordered_map<uint64_t, MemoEntry> memo;  ///< keyed by edge mask
  std::vector<MemoEntry> scans;  ///< single-vertex subpatterns, by index
  double cost_star = std::numeric_limits<double>::infinity();
  MemoEntry* full = nullptr;
};

PatternPlanPtr GraphOptimizer::Optimize(const Pattern& p) const {
  searched_subpatterns = 0;
  pruned_branches = 0;
  if (p.NumVertices() == 0) return nullptr;
  if (p.NumVertices() == 1) return MakeScan(p, p.vertices()[0].id);
  if (p.NumEdges() > kMaxMaskBits || p.NumVertices() > kMaxMaskBits) {
    return GreedyPlan(p);
  }

  PatternPlanPtr greedy = GreedyPlan(p);
  SearchCtx ctx(p, gq_);
  const uint64_t all = SearchCtx::LowBits(p.NumEdges());
  MemoEntry& full = ctx.memo[all];
  full.edges = all;
  full.vertices = SearchCtx::LowBits(p.NumVertices());
  full.pattern = p;
  full.freq = gq_->GetFreq(p);
  ctx.full = &full;
  if (greedy) {
    full.plan = greedy;
    full.cost = greedy->cost;
    ctx.cost_star = greedy->cost;
  }
  RecursiveSearch(full, &ctx);
  if (full.plan) return full.plan;
  return greedy;
}

void GraphOptimizer::RecursiveSearch(MemoEntry& entry, SearchCtx* ctx) const {
  if (entry.done) return;
  entry.done = true;  // subpatterns are strictly smaller; no cycles
  ++searched_subpatterns;
  const Pattern& p = entry.pattern;

  if (__builtin_popcountll(entry.vertices) == 1) {
    MemoEntry& single = ctx->ByVertex(SearchCtx::Low(entry.vertices));
    int vid = single.pattern.vertices()[0].id;
    auto scan = ScanNode(single.pattern, vid, single.freq);
    if (!entry.plan || scan->cost < entry.cost) {
      entry.plan = scan;
      entry.cost = scan->cost;
    }
    return;
  }

  const double out_freq = entry.freq;
  auto update = [&](PatternPlanPtr node) {
    if (node->cost < entry.cost) {
      entry.plan = node;
      entry.cost = node->cost;
      if (&entry == ctx->full && node->cost < ctx->cost_star) {
        ctx->cost_star = node->cost;
      }
    }
  };

  // ---- Expand candidates: peel each removable vertex ----
  for (uint64_t vr = entry.vertices; vr; vr &= vr - 1) {
    const int j = SearchCtx::Low(vr);
    const uint64_t added_mask =
        entry.edges & ctx->incident[static_cast<size_t>(j)];
    const uint64_t rest_edges = entry.edges & ~added_mask;
    const uint64_t rest_vertices = entry.vertices & ~SearchCtx::Bit(j);
    if (!ctx->Connected(rest_edges, rest_vertices)) continue;
    MemoEntry& sub = rest_edges ? ctx->ByEdges(rest_edges)
                                : ctx->ByVertex(SearchCtx::Low(rest_vertices));
    const int vid = ctx->root.vertices()[static_cast<size_t>(j)].id;
    const std::vector<int> added = ctx->EdgeIds(added_mask);
    for (const auto& spec : backend_->expands) {
      if (!IntersectApplicable(*spec, vid, added, p)) continue;
      double noncum =
          ExpandStepCost(sub.pattern, p, out_freq, vid, added, *spec);
      if (noncum >= ctx->cost_star) {
        ++pruned_branches;
        continue;
      }
      RecursiveSearch(sub, ctx);
      if (!sub.plan) continue;
      double total = sub.cost + noncum;
      if (total >= entry.cost) continue;
      auto node = std::make_shared<PatternPlanNode>();
      node->kind = PatternPlanNode::Kind::kExpand;
      node->pattern = p;
      node->freq = out_freq;
      node->child = sub.plan;
      node->new_vertex = vid;
      node->added_edges = added;
      node->expand_spec = spec;
      node->cost = total;
      update(node);
    }
  }

  // ---- Join candidates: connected binary edge splits ----
  const int m = __builtin_popcountll(entry.edges);
  if (m >= 2 && m <= 12 && !backend_->joins.empty()) {
    std::vector<uint64_t> bits;  // entry's i-th edge -> its root edge bit
    for (uint64_t r = entry.edges; r; r &= r - 1) bits.push_back(r & (~r + 1));
    for (uint32_t mask = 1; mask + 1 < (1u << m); ++mask) {
      if (__builtin_popcount(mask) > m / 2 ||
          (__builtin_popcount(mask) == m - __builtin_popcount(mask) &&
           (mask & 1) == 0)) {
        continue;  // dedupe unordered splits
      }
      uint64_t s1 = 0;
      for (uint32_t r = mask; r; r &= r - 1) s1 |= bits[SearchCtx::Low(r)];
      const uint64_t s2 = entry.edges & ~s1;
      const uint64_t v1 = ctx->Endpoints(s1), v2 = ctx->Endpoints(s2);
      const uint64_t common_mask = v1 & v2;
      if (!common_mask || !ctx->Connected(s1, v1) || !ctx->Connected(s2, v2)) {
        continue;
      }
      MemoEntry& e1 = ctx->ByEdges(s1);
      MemoEntry& e2 = ctx->ByEdges(s2);
      std::vector<int> common;
      for (uint64_t r = common_mask; r; r &= r - 1) {
        common.push_back(ctx->root.vertices()[SearchCtx::Low(r)].id);
      }
      for (const auto& jspec : backend_->joins) {
        // A join's exchange re-hashes both inputs by key; on a sharded
        // store only the (P-1)/P fraction actually moves.
        double noncum =
            out_freq + jspec->ComputeCost(*gq_, e1.pattern, e2.pattern) +
            backend_->comm_factor * (e1.freq + e2.freq) * RehashFraction();
        if (noncum >= ctx->cost_star) {
          ++pruned_branches;
          continue;
        }
        RecursiveSearch(e1, ctx);
        RecursiveSearch(e2, ctx);
        if (!e1.plan || !e2.plan) continue;
        double total = e1.cost + e2.cost + noncum;
        if (total >= entry.cost) continue;
        auto node = std::make_shared<PatternPlanNode>();
        node->kind = PatternPlanNode::Kind::kJoin;
        node->pattern = p;
        node->freq = out_freq;
        node->left = e1.plan;
        node->right = e2.plan;
        node->join_vertices = common;
        node->join_spec = jspec;
        node->cost = total;
        update(node);
      }
    }
  }
}

PatternPlanPtr GraphOptimizer::GreedyPlan(const Pattern& p) const {
  if (p.NumVertices() == 0) return nullptr;
  if (p.NumVertices() == 1) return MakeScan(p, p.vertices()[0].id);
  // Peel greedily: repeatedly remove the (vertex, spec) with the cheapest
  // expand step, then build the plan bottom-up in reverse.
  struct Step {
    Pattern pt;
    int v;
    std::vector<int> added;
    std::shared_ptr<ExpandSpec> spec;
  };
  std::vector<Step> steps;
  Pattern q = p;
  while (q.NumVertices() > 1) {
    double best_cost = std::numeric_limits<double>::infinity();
    Step best;
    const double q_freq = gq_->GetFreq(q);
    for (const auto& v : q.vertices()) {
      if (!q.IsConnectedWithout(v.id)) continue;
      Pattern ps = q.WithoutVertex(v.id);
      const double ps_freq = gq_->GetFreq(ps);
      std::vector<int> added = q.IncidentEdges(v.id);
      for (const auto& spec : backend_->expands) {
        if (!IntersectApplicable(*spec, v.id, added, q)) continue;
        double c = ExpandStepCost(ps, q, q_freq, v.id, added, *spec) + ps_freq;
        if (c < best_cost) {
          best_cost = c;
          best = {q, v.id, added, spec};
        }
      }
    }
    if (!best.spec) return nullptr;  // should not happen for connected p
    steps.push_back(best);
    q = q.WithoutVertex(best.v);
  }
  PatternPlanPtr plan = MakeScan(q, q.vertices()[0].id);
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    auto node = std::make_shared<PatternPlanNode>();
    node->kind = PatternPlanNode::Kind::kExpand;
    node->pattern = it->pt;
    node->freq = gq_->GetFreq(it->pt);
    node->child = plan;
    node->new_vertex = it->v;
    node->added_edges = it->added;
    node->expand_spec = it->spec;
    node->cost = plan->cost + ExpandStepCost(plan->pattern, it->pt, node->freq,
                                             it->v, it->added, *it->spec);
    plan = node;
  }
  return plan;
}

namespace {

std::shared_ptr<ExpandSpec> DefaultSingleEdgeSpec(const BackendSpec& b) {
  for (const auto& s : b.expands) {
    if (s->Impl() == PhysExpandImpl::kExpandInto) return s;
  }
  return b.expands.empty() ? nullptr : b.expands[0];
}

}  // namespace

PatternPlanPtr GraphOptimizer::UserOrderPlan(const Pattern& p) const {
  if (p.NumVertices() == 0) return nullptr;
  if (p.NumVertices() == 1) return MakeScan(p, p.vertices()[0].id);
  auto spec = DefaultSingleEdgeSpec(*backend_);

  std::vector<int> remaining;
  for (const auto& e : p.edges()) remaining.push_back(e.id);
  std::set<int> bound;
  std::vector<int> done_edges;
  PatternPlanPtr plan;

  while (!remaining.empty()) {
    // First edge in textual order that touches the bound set (the first
    // edge overall to start).
    size_t pick = 0;
    if (plan) {
      bool found = false;
      for (size_t i = 0; i < remaining.size(); ++i) {
        const auto& e = p.EdgeById(remaining[i]);
        if (bound.count(e.src) || bound.count(e.dst)) {
          pick = i;
          found = true;
          break;
        }
      }
      if (!found) pick = 0;  // disconnected; take next in order
    }
    const PatternEdge& e = p.EdgeById(remaining[pick]);
    remaining.erase(remaining.begin() + static_cast<long>(pick));
    if (!plan) {
      plan = MakeScan(p, e.src);
      bound.insert(e.src);
    }
    int nv = -1;
    if (!bound.count(e.src)) nv = e.src;
    if (!bound.count(e.dst)) nv = e.dst;
    done_edges.push_back(e.id);

    auto node = std::make_shared<PatternPlanNode>();
    node->kind = PatternPlanNode::Kind::kExpand;
    node->pattern = p.SubpatternByEdges(done_edges);
    node->freq = gq_->GetFreq(node->pattern);
    node->child = plan;
    node->new_vertex = nv;
    node->added_edges = {e.id};
    node->expand_spec = spec;
    node->cost = plan->cost + ExpandStepCost(plan->pattern, node->pattern,
                                             node->freq, nv, {e.id}, *spec);
    bound.insert(e.src);
    bound.insert(e.dst);
    plan = node;
  }
  return plan;
}

PatternPlanPtr GraphOptimizer::RandomPlan(const Pattern& p, Rng* rng) const {
  if (p.NumVertices() == 0) return nullptr;
  if (p.NumVertices() == 1) return MakeScan(p, p.vertices()[0].id);
  auto spec = DefaultSingleEdgeSpec(*backend_);

  std::vector<int> remaining;
  for (const auto& e : p.edges()) remaining.push_back(e.id);
  std::set<int> bound;
  std::vector<int> done_edges;
  PatternPlanPtr plan;

  while (!remaining.empty()) {
    std::vector<size_t> cands;
    for (size_t i = 0; i < remaining.size(); ++i) {
      const auto& e = p.EdgeById(remaining[i]);
      if (!plan || bound.count(e.src) || bound.count(e.dst)) cands.push_back(i);
    }
    size_t pick = cands[rng->NextInt(cands.size())];
    const PatternEdge& e = p.EdgeById(remaining[pick]);
    remaining.erase(remaining.begin() + static_cast<long>(pick));
    if (!plan) {
      int anchor = rng->NextBool(0.5) ? e.src : e.dst;
      plan = MakeScan(p, anchor);
      bound.insert(anchor);
    }
    int nv = -1;
    if (!bound.count(e.src)) nv = e.src;
    if (!bound.count(e.dst)) nv = e.dst;
    done_edges.push_back(e.id);

    auto node = std::make_shared<PatternPlanNode>();
    node->kind = PatternPlanNode::Kind::kExpand;
    node->pattern = p.SubpatternByEdges(done_edges);
    node->freq = gq_->GetFreq(node->pattern);
    node->child = plan;
    node->new_vertex = nv;
    node->added_edges = {e.id};
    node->expand_spec = spec;
    node->cost = plan->cost + ExpandStepCost(plan->pattern, node->pattern,
                                             node->freq, nv, {e.id}, *spec);
    bound.insert(e.src);
    bound.insert(e.dst);
    plan = node;
  }
  return plan;
}

void GraphOptimizer::Recost(const PatternPlanPtr& node) const {
  if (!node) return;
  switch (node->kind) {
    case PatternPlanNode::Kind::kScan:
      node->freq = gq_->GetFreq(node->pattern);
      node->cost = node->freq;
      return;
    case PatternPlanNode::Kind::kExpand: {
      Recost(node->child);
      node->freq = gq_->GetFreq(node->pattern);
      node->cost = node->child->cost +
                   ExpandStepCost(node->child->pattern, node->pattern,
                                  node->freq, node->new_vertex,
                                  node->added_edges, *node->expand_spec);
      return;
    }
    case PatternPlanNode::Kind::kJoin: {
      Recost(node->left);
      Recost(node->right);
      node->freq = gq_->GetFreq(node->pattern);
      double f1 = gq_->GetFreq(node->left->pattern);
      double f2 = gq_->GetFreq(node->right->pattern);
      node->cost = node->left->cost + node->right->cost + node->freq +
                   node->join_spec->ComputeCost(*gq_, node->left->pattern,
                                                node->right->pattern) +
                   backend_->comm_factor * (f1 + f2) * RehashFraction();
      return;
    }
  }
}

}  // namespace gopt
