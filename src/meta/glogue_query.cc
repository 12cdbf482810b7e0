#include "src/meta/glogue_query.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "src/meta/pattern_code.h"

namespace gopt {

namespace {
constexpr double kFreqFloor = 1e-9;
constexpr int kMaxEnumCombos = 512;
constexpr int kMaxSplitEdges = 10;
constexpr int kMaxDepth = 64;

/// Connected components of a pattern, by vertex-id sets.
std::vector<std::vector<int>> Components(const Pattern& p) {
  std::vector<std::vector<int>> comps;
  std::set<int> seen;
  for (const auto& v : p.vertices()) {
    if (seen.count(v.id)) continue;
    std::vector<int> comp;
    std::vector<int> stack = {v.id};
    while (!stack.empty()) {
      int x = stack.back();
      stack.pop_back();
      if (seen.count(x)) continue;
      seen.insert(x);
      comp.push_back(x);
      for (int n : p.NeighborVertices(x)) stack.push_back(n);
    }
    comps.push_back(std::move(comp));
  }
  return comps;
}

Pattern InducedByVertexSet(const Pattern& p, const std::vector<int>& vids) {
  std::set<int> want(vids.begin(), vids.end());
  Pattern out;
  for (const auto& v : p.vertices()) {
    if (want.count(v.id)) out.AddVertex(v.alias, v.tc, v.id);
  }
  for (const auto& e : p.edges()) {
    if (want.count(e.src) && want.count(e.dst)) {
      int id = out.AddEdge(e.src, e.dst, e.alias, e.tc, e.dir, e.id);
      out.EdgeById(id) = e;
    }
  }
  return out;
}

}  // namespace

double GlogueQuery::VertexFreq(const TypeConstraint& tc) const {
  double sum = 0;
  for (TypeId t : tc.Resolve(schema_->AllVertexTypes())) {
    sum += gl_->VertexTypeFreq(t);
  }
  return std::max(sum, kFreqFloor);
}

double GlogueQuery::EdgeFreqBetween(const TypeConstraint& src,
                                    const TypeConstraint& etc_,
                                    const TypeConstraint& dst,
                                    Direction dir) const {
  if (!endpoint_filtered_) {
    // Rel-type totals only (label-count statistics).
    double sum = 0;
    for (TypeId t : etc_.Resolve(schema_->AllEdgeTypes())) {
      sum += gl_->EdgeTypeFreq(t);
    }
    return dir == Direction::kBoth ? 2 * sum : sum;
  }
  double sum = 0;
  for (const auto& [key, freq] : gl_->edge_triples()) {
    auto [s, e, d] = key;
    if (!etc_.Matches(e)) continue;
    bool fwd = src.Matches(s) && dst.Matches(d);
    bool rev = dir == Direction::kBoth && src.Matches(d) && dst.Matches(s);
    if (dir == Direction::kBoth) {
      if (fwd) sum += freq;
      if (rev) sum += freq;
    } else if (fwd) {
      sum += freq;
    }
  }
  return sum;
}

double GlogueQuery::GetFreq(const Pattern& p) const {
  double f = RawFreq(p);
  for (const auto& v : p.vertices()) f *= v.selectivity;
  for (const auto& e : p.edges()) f *= e.selectivity;
  return std::max(f, kFreqFloor);
}

double GlogueQuery::RawFreq(const Pattern& p) const {
  return EstimateRec(p, 0);
}

double GlogueQuery::EstimateRec(const Pattern& p, int depth) const {
  if (p.NumVertices() == 0) return 1.0;
  if (depth > kMaxDepth) return 1.0;
  std::string form = ExactPatternForm(p);
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = exact_.find(form);
    if (it != exact_.end()) return it->second;
  }
  std::string code = CanonicalPatternCode(p, /*with_preds=*/false);
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(code);
    if (it != cache_.end()) {
      exact_.emplace(std::move(form), it->second);
      return it->second;
    }
  }

  double result;
  auto comps = Components(p);
  if (comps.size() > 1) {
    // Frequency of a disconnected pattern is the product of its components'
    // frequencies (cartesian semantics, paper Section 3).
    result = 1.0;
    for (const auto& comp : comps) {
      result *= EstimateConnected(InducedByVertexSet(p, comp), depth + 1);
    }
  } else {
    result = EstimateConnected(p, depth);
  }
  result = std::max(result, kFreqFloor);
  // First writer wins: a racing estimate of the same code keeps the stored
  // value, so both memo levels always agree.
  std::lock_guard<std::mutex> lock(cache_mu_);
  double stored = cache_.emplace(std::move(code), result).first->second;
  exact_.emplace(std::move(form), stored);
  return stored;
}

double GlogueQuery::EstimateConnected(const Pattern& p, int depth) const {
  // Single vertex.
  if (p.NumVertices() == 1 && p.NumEdges() == 0) {
    return VertexFreq(p.vertices()[0].tc);
  }
  // Single non-path edge: exact from triple frequencies.
  if (p.NumEdges() == 1 && p.NumVertices() == 2 && !p.HasPathEdge()) {
    const PatternEdge& e = p.edges()[0];
    return std::max(EdgeFreqBetween(p.VertexById(e.src).tc, e.tc,
                                    p.VertexById(e.dst).tc, e.dir),
                    kFreqFloor);
  }

  if (high_order_) {
    // Direct motif lookup for BasicType patterns in range.
    if (auto f = gl_->Lookup(p)) return std::max(*f, kFreqFloor);
    // Enumerate concrete type combinations over the motif store.
    if (static_cast<int>(p.NumVertices()) <= gl_->max_pattern_vertices()) {
      double f = TryEnumerate(p);
      if (f >= 0) return std::max(f, kFreqFloor);
    }
  }
  // Eq. 1: binary split sharing vertices.
  double f = TryBinarySplit(p, depth);
  if (f >= 0) return std::max(f, kFreqFloor);
  // Eq. 2: peel one vertex and multiply expand ratios.
  return std::max(PeelVertex(p, depth), kFreqFloor);
}

double GlogueQuery::TryEnumerate(const Pattern& p) const {
  if (p.HasPathEdge()) return -1;
  for (const auto& e : p.edges()) {
    if (e.dir == Direction::kBoth) return -1;
  }
  // Count combinations first.
  double combos = 1;
  for (const auto& v : p.vertices()) {
    combos *= static_cast<double>(v.tc.Cardinality(schema_->NumVertexTypes()));
    if (combos > kMaxEnumCombos) return -1;
  }
  for (const auto& e : p.edges()) {
    combos *= static_cast<double>(e.tc.Cardinality(schema_->NumEdgeTypes()));
    if (combos > kMaxEnumCombos) return -1;
  }
  // Recursive assignment of concrete types to vertices, then edges.
  std::vector<const PatternVertex*> vs;
  for (const auto& v : p.vertices()) vs.push_back(&v);
  std::vector<const PatternEdge*> es;
  for (const auto& e : p.edges()) es.push_back(&e);

  double total = 0;
  std::map<int, TypeId> vassign;
  std::map<int, TypeId> eassign;

  std::function<void(size_t)> assign_edges;
  std::function<void(size_t)> assign_vertices;

  assign_edges = [&](size_t i) {
    if (i == es.size()) {
      Pattern q;
      for (const auto* v : vs) {
        q.AddVertex("", TypeConstraint::Basic(vassign[v->id]), v->id);
      }
      for (const auto* e : es) {
        q.AddEdge(e->src, e->dst, "", TypeConstraint::Basic(eassign[e->id]),
                  Direction::kOut, e->id);
      }
      if (auto f = gl_->Lookup(q)) total += *f;
      return;
    }
    const PatternEdge* e = es[i];
    for (TypeId t : e->tc.Resolve(schema_->AllEdgeTypes())) {
      // Prune schema-invalid assignments early.
      if (!schema_->CanConnect(vassign[e->src], t, vassign[e->dst])) continue;
      eassign[e->id] = t;
      assign_edges(i + 1);
    }
  };
  assign_vertices = [&](size_t i) {
    if (i == vs.size()) {
      assign_edges(0);
      return;
    }
    for (TypeId t : vs[i]->tc.Resolve(schema_->AllVertexTypes())) {
      vassign[vs[i]->id] = t;
      assign_vertices(i + 1);
    }
  };
  assign_vertices(0);
  return total;
}

double GlogueQuery::TryBinarySplit(const Pattern& p, int depth) const {
  const int m = static_cast<int>(p.NumEdges());
  if (m < 2 || m > kMaxSplitEdges) return -1;
  if (static_cast<int>(p.NumVertices()) <= gl_->max_pattern_vertices()) {
    return -1;  // in-range patterns are better served by enumeration/peel
  }
  std::vector<int> eids;
  for (const auto& e : p.edges()) eids.push_back(e.id);

  int best_common = -1;
  double best_f = -1;
  for (uint32_t mask = 1; mask + 1 < (1u << m); ++mask) {
    std::vector<int> s1, s2;
    for (int i = 0; i < m; ++i) {
      ((mask >> i) & 1 ? s1 : s2).push_back(eids[i]);
    }
    if (s1.size() > s2.size()) continue;  // dedupe unordered splits
    Pattern p1 = p.SubpatternByEdges(s1);
    Pattern p2 = p.SubpatternByEdges(s2);
    if (!p1.IsConnected() || !p2.IsConnected()) continue;
    if (static_cast<int>(p1.NumVertices()) > gl_->max_pattern_vertices())
      continue;
    if (static_cast<int>(p2.NumVertices()) > gl_->max_pattern_vertices())
      continue;
    auto common = p1.CommonVertices(p2);
    if (common.empty()) continue;
    if (static_cast<int>(common.size()) > best_common) {
      best_common = static_cast<int>(common.size());
      double f1 = EstimateRec(p1, depth + 1);
      double f2 = EstimateRec(p2, depth + 1);
      // The intersection is the common vertices with no edges.
      double fc = 1.0;
      for (int v : common) fc *= VertexFreq(p.VertexById(v).tc);
      best_f = f1 * f2 / std::max(fc, kFreqFloor);
    }
  }
  return best_f;
}

double GlogueQuery::PathEdgeRatio(const Pattern& p, const PatternEdge& e,
                                  int anchor_vertex, bool closes) const {
  const TypeConstraint& anchor_tc = p.VertexById(anchor_vertex).tc;
  int far = (e.src == anchor_vertex) ? e.dst : e.src;
  const TypeConstraint& far_tc = p.VertexById(far).tc;
  // Per-hop fanout from constraint S to constraint T, honoring the data
  // direction relative to the anchor side of the walk.
  const bool along = (e.src == anchor_vertex);  // walk follows src->dst
  TypeConstraint all = TypeConstraint::All();
  auto hop = [&](const TypeConstraint& s, const TypeConstraint& t) {
    double ef;
    if (e.dir == Direction::kBoth) {
      ef = EdgeFreqBetween(s, e.tc, t, Direction::kBoth);
    } else if (along) {
      ef = EdgeFreqBetween(s, e.tc, t, Direction::kOut);
    } else {
      ef = EdgeFreqBetween(t, e.tc, s, Direction::kOut);
    }
    return ef / VertexFreq(s);
  };
  double sum = 0;
  for (int l = std::max(1, e.min_hops); l <= e.max_hops; ++l) {
    double r;
    if (l == 1) {
      r = hop(anchor_tc, far_tc);
    } else {
      r = hop(anchor_tc, all);
      for (int i = 1; i < l - 1; ++i) r *= hop(all, all);
      r *= hop(all, far_tc);
    }
    sum += r;
  }
  if (closes) sum /= VertexFreq(far_tc);
  return sum;
}

double GlogueQuery::ExpandRatio(const Pattern& target, const PatternEdge& e,
                                int anchor_vertex, bool closes) const {
  if (e.IsPath()) return PathEdgeRatio(target, e, anchor_vertex, closes);
  // The numerator counts qualifying data edges irrespective of which
  // endpoint anchors the expansion.
  double ef = EdgeFreqBetween(target.VertexById(e.src).tc, e.tc,
                              target.VertexById(e.dst).tc, e.dir);
  int far = (e.src == anchor_vertex) ? e.dst : e.src;
  // The anchor endpoint divides; a closing expansion also divides by the
  // far endpoint's frequency (paper Eq. 2).
  double denom = VertexFreq(target.VertexById(anchor_vertex).tc);
  if (closes) denom *= VertexFreq(target.VertexById(far).tc);
  return ef / std::max(denom, kFreqFloor);
}

double GlogueQuery::PeelVertex(const Pattern& p, int depth) const {
  // Pick a removable (non-cut) vertex: fewest incident edges, then widest
  // type constraint, so estimation stays anchored on the most specific
  // part of the pattern.
  int best = -1;
  size_t best_deg = ~0ull;
  size_t best_card = 0;
  for (const auto& v : p.vertices()) {
    if (!p.IsConnectedWithout(v.id)) continue;
    size_t deg = p.IncidentEdges(v.id).size();
    size_t card = v.tc.Cardinality(schema_->NumVertexTypes());
    if (deg < best_deg || (deg == best_deg && card > best_card)) {
      best = v.id;
      best_deg = deg;
      best_card = card;
    }
  }
  if (best < 0) best = p.vertices()[0].id;  // no non-cut vertex (degenerate)

  Pattern base = p.WithoutVertex(best);
  double f = EstimateRec(base, depth + 1);
  // Append the peeled vertex's incident edges one at a time; the first
  // opens the new vertex (anchor = the endpoint in the base), later ones
  // close onto it (anchor = still the base-side endpoint).
  bool first = true;
  for (int eid : p.IncidentEdges(best)) {
    const PatternEdge& e = p.EdgeById(eid);
    int anchor = (e.src == best) ? e.dst : e.src;
    f *= ExpandRatio(p, e, anchor, /*closes=*/!first);
    first = false;
  }
  return f;
}

}  // namespace gopt
