#include "src/meta/pattern_code.h"

#include <algorithm>
#include <map>
#include <vector>

#include "src/common/hash.h"

namespace gopt {

namespace {

size_t HashTypeConstraint(const TypeConstraint& tc) {
  if (tc.IsAll()) return 0xA11A11;
  size_t h = 0x7c;
  for (TypeId t : tc.types()) h = HashCombine(h, t);
  return h;
}

size_t HashVertexLabel(const PatternVertex& v, bool with_preds) {
  size_t h = HashTypeConstraint(v.tc);
  if (with_preds) {
    h = HashCombine(h, static_cast<size_t>(v.selectivity * 4096));
    for (const auto& p : v.predicates) {
      h = HashCombine(h, std::hash<std::string>()(p->ToString()));
    }
  }
  return h;
}

size_t HashEdgeLabel(const PatternEdge& e, bool with_preds) {
  size_t h = HashTypeConstraint(e.tc);
  h = HashCombine(h, static_cast<size_t>(e.dir));
  h = HashCombine(h, static_cast<size_t>(e.min_hops));
  h = HashCombine(h, static_cast<size_t>(e.max_hops));
  h = HashCombine(h, static_cast<size_t>(e.semantics));
  if (with_preds) {
    h = HashCombine(h, static_cast<size_t>(e.selectivity * 4096));
    for (const auto& p : e.predicates) {
      h = HashCombine(h, std::hash<std::string>()(p->ToString()));
    }
  }
  return h;
}

void AppendU64(std::string* out, uint64_t x) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((x >> (i * 8)) & 0xff));
}

void AppendTc(std::string* out, const TypeConstraint& tc) {
  if (tc.IsAll()) {
    out->push_back('\x7f');
    return;
  }
  out->push_back(static_cast<char>(tc.types().size()));
  for (TypeId t : tc.types()) AppendU64(out, t);
}

/// Serializes the pattern under a fixed vertex ordering (pos[id] = rank).
std::string Serialize(const Pattern& p, const std::map<int, int>& pos,
                      bool with_preds) {
  std::string out;
  out.push_back(static_cast<char>(p.NumVertices()));
  // Vertices in rank order.
  std::vector<const PatternVertex*> vs(p.NumVertices());
  for (const auto& v : p.vertices()) vs[pos.at(v.id)] = &v;
  for (const auto* v : vs) {
    AppendTc(&out, v->tc);
    if (with_preds) {
      AppendU64(&out, static_cast<uint64_t>(v->selectivity * 4096));
      AppendU64(&out, v->predicates.size());
      for (const auto& pr : v->predicates) out += pr->ToString();
    }
  }
  // Edges as sorted tuples.
  std::vector<std::string> etuples;
  for (const auto& e : p.edges()) {
    int s = pos.at(e.src), d = pos.at(e.dst);
    char dir = static_cast<char>(e.dir);
    if (e.dir == Direction::kBoth && s > d) std::swap(s, d);
    std::string t;
    t.push_back(static_cast<char>(s));
    t.push_back(static_cast<char>(d));
    t.push_back(dir);
    t.push_back(static_cast<char>(e.min_hops));
    t.push_back(static_cast<char>(e.max_hops));
    t.push_back(static_cast<char>(e.semantics));
    AppendTc(&t, e.tc);
    if (with_preds) {
      AppendU64(&t, static_cast<uint64_t>(e.selectivity * 4096));
      for (const auto& pr : e.predicates) t += pr->ToString();
    }
    etuples.push_back(std::move(t));
  }
  std::sort(etuples.begin(), etuples.end());
  out.push_back(static_cast<char>(etuples.size()));
  for (auto& t : etuples) out += t;
  return out;
}

/// LEB128 varint: short for the small integers patterns are made of, and
/// self-delimiting, so concatenations stay unambiguous.
void AppendVarint(std::string* out, uint64_t x) {
  while (x >= 0x80) {
    out->push_back(static_cast<char>((x & 0x7f) | 0x80));
    x >>= 7;
  }
  out->push_back(static_cast<char>(x));
}

/// Type constraint for ExactPatternForm: 0 for AllType, else the type
/// count plus one followed by the types.
void AppendFormTc(std::string* out, const TypeConstraint& tc) {
  if (tc.IsAll()) {
    out->push_back(0);
    return;
  }
  AppendVarint(out, tc.types().size() + 1);
  for (TypeId t : tc.types()) AppendVarint(out, t);
}

}  // namespace

std::string ExactPatternForm(const Pattern& p) {
  const auto& vs = p.vertices();
  auto by_id = [](const PatternVertex& a, const PatternVertex& b) {
    return a.id < b.id;
  };
  // Vertex ranks by id. Subpatterns keep their parent's vertex order, which
  // is id order for parsed patterns, so the copy-and-sort is rare.
  std::vector<int> sorted_ids;
  const bool in_id_order = std::is_sorted(vs.begin(), vs.end(), by_id);
  if (!in_id_order) {
    for (const auto& v : vs) sorted_ids.push_back(v.id);
    std::sort(sorted_ids.begin(), sorted_ids.end());
  }
  auto id_less = [](const PatternVertex& v, int x) { return v.id < x; };
  auto rank = [&](int id) -> uint64_t {
    if (in_id_order) {
      return static_cast<uint64_t>(
          std::lower_bound(vs.begin(), vs.end(), id, id_less) - vs.begin());
    }
    return static_cast<uint64_t>(
        std::lower_bound(sorted_ids.begin(), sorted_ids.end(), id) -
        sorted_ids.begin());
  };

  std::string out;
  out.reserve(4 + 4 * vs.size() + 10 * p.NumEdges());
  AppendVarint(&out, vs.size());
  if (in_id_order) {
    for (const auto& v : vs) AppendFormTc(&out, v.tc);
  } else {
    for (int id : sorted_ids) AppendFormTc(&out, p.VertexById(id).tc);
  }
  AppendVarint(&out, p.NumEdges());
  for (const auto& e : p.edges()) {
    AppendVarint(&out, rank(e.src));
    AppendVarint(&out, rank(e.dst));
    out.push_back(static_cast<char>(e.dir));
    AppendVarint(&out, static_cast<uint32_t>(e.min_hops));
    AppendVarint(&out, static_cast<uint32_t>(e.max_hops));
    out.push_back(static_cast<char>(e.semantics));
    AppendFormTc(&out, e.tc);
  }
  return out;
}

std::string CanonicalPatternCode(const Pattern& p, bool with_preds) {
  const size_t n = p.NumVertices();
  if (n == 0) return "";

  // --- WL color refinement ---
  std::vector<int> vids;
  std::map<int, size_t> inv;  // vertex id -> invariant
  for (const auto& v : p.vertices()) {
    vids.push_back(v.id);
    inv[v.id] = HashVertexLabel(v, with_preds);
  }
  for (int round = 0; round < 3; ++round) {
    std::map<int, size_t> next;
    for (int id : vids) {
      std::vector<size_t> sig;
      for (const auto& e : p.edges()) {
        if (e.src != id && e.dst != id) continue;
        size_t rel;
        if (e.dir == Direction::kBoth) {
          rel = 2;
        } else {
          rel = (e.src == id) ? 0 : 1;
        }
        int other = (e.src == id) ? e.dst : e.src;
        sig.push_back(HashCombine(HashCombine(HashEdgeLabel(e, with_preds), rel),
                                  inv[other]));
      }
      std::sort(sig.begin(), sig.end());
      size_t h = inv[id];
      for (size_t s : sig) h = HashCombine(h, s);
      next[id] = h;
    }
    inv = std::move(next);
  }

  // --- group by invariant; enumerate orderings within groups ---
  std::sort(vids.begin(), vids.end(), [&](int a, int b) {
    return inv[a] != inv[b] ? inv[a] < inv[b] : a < b;
  });
  std::vector<std::vector<int>> groups;
  for (int id : vids) {
    if (!groups.empty() && inv[groups.back().back()] == inv[id]) {
      groups.back().push_back(id);
    } else {
      groups.push_back({id});
    }
  }
  // Bound the number of orderings to keep the worst case trivial.
  uint64_t total = 1;
  for (const auto& g : groups) {
    for (size_t i = 2; i <= g.size(); ++i) total *= i;
    if (total > 5040) break;
  }
  if (total > 5040) {
    std::map<int, int> pos;
    for (size_t i = 0; i < vids.size(); ++i) pos[vids[i]] = static_cast<int>(i);
    return Serialize(p, pos, with_preds);
  }

  std::string best;
  std::vector<std::vector<int>> perms = groups;  // mutated by next_permutation
  // Iterate the cartesian product of group permutations.
  while (true) {
    std::map<int, int> pos;
    int rank = 0;
    for (const auto& g : perms) {
      for (int id : g) pos[id] = rank++;
    }
    std::string s = Serialize(p, pos, with_preds);
    if (best.empty() || s < best) best = std::move(s);
    // Advance to the next combination of permutations.
    size_t gi = 0;
    while (gi < perms.size() &&
           !std::next_permutation(perms[gi].begin(), perms[gi].end())) {
      ++gi;  // this group wrapped; carry to the next
    }
    if (gi == perms.size()) break;
  }
  return best;
}

}  // namespace gopt
