#include "src/exec/vectorized.h"

#include <algorithm>
#include <queue>
#include <utility>

namespace gopt {

namespace {

/// Appends (v, mult) to `out`, folding into the tail entry when the
/// neighbor repeats (parallel edges arriving from successive spans).
inline void FoldPush(NbrList* out, VertexId v, uint64_t mult) {
  if (!out->empty() && out->back().first == v) {
    out->back().second += mult;
  } else {
    out->emplace_back(v, mult);
  }
}

}  // namespace

void MergeAdjSpans(const std::vector<Span<const AdjEntry>>& spans,
                   NbrList* out) {
  out->clear();
  if (spans.empty()) return;
  if (spans.size() == 1) {
    // Single span: one linear fold of consecutive equal neighbors.
    out->reserve(spans[0].size());
    for (const AdjEntry& a : spans[0]) FoldPush(out, a.nbr, 1);
    return;
  }
  size_t total = 0;
  for (const Span<const AdjEntry>& s : spans) total += s.size();
  out->reserve(total);
  if (spans.size() == 2) {
    // Two spans (single-type kBoth, the dominant shape): a straight
    // two-pointer merge with tail folding beats the head-scan loop.
    const Span<const AdjEntry>& a = spans[0];
    const Span<const AdjEntry>& b = spans[1];
    size_t i = 0;
    size_t j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i].nbr <= b[j].nbr) {
        FoldPush(out, a[i].nbr, 1);
        ++i;
      } else {
        FoldPush(out, b[j].nbr, 1);
        ++j;
      }
    }
    for (; i < a.size(); ++i) FoldPush(out, a[i].nbr, 1);
    for (; j < b.size(); ++j) FoldPush(out, b[j].nbr, 1);
    return;
  }
  if (spans.size() <= 4) {
    // Few spans (the common per-type / two-direction case): a linear scan
    // of the span heads beats heap maintenance.
    std::vector<size_t> pos(spans.size(), 0);
    for (;;) {
      VertexId min_v = kNullVertex;
      bool any = false;
      for (size_t k = 0; k < spans.size(); ++k) {
        if (pos[k] < spans[k].size()) {
          const VertexId v = spans[k][pos[k]].nbr;
          if (!any || v < min_v) {
            min_v = v;
            any = true;
          }
        }
      }
      if (!any) break;
      uint64_t mult = 0;
      for (size_t k = 0; k < spans.size(); ++k) {
        while (pos[k] < spans[k].size() && spans[k][pos[k]].nbr == min_v) {
          ++mult;
          ++pos[k];
        }
      }
      out->emplace_back(min_v, mult);
    }
    return;
  }
  // Many spans: min-heap over the span heads; each pop consumes the full
  // equal-neighbor run of that span, and FoldPush folds equal neighbors
  // arriving from different spans (popped consecutively, heap is ordered).
  using Head = std::pair<VertexId, uint32_t>;  // (neighbor, span index)
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heap;
  std::vector<size_t> pos(spans.size(), 0);
  for (uint32_t k = 0; k < spans.size(); ++k) {
    if (!spans[k].empty()) heap.emplace(spans[k][0].nbr, k);
  }
  while (!heap.empty()) {
    const auto [v, k] = heap.top();
    heap.pop();
    uint64_t mult = 0;
    while (pos[k] < spans[k].size() && spans[k][pos[k]].nbr == v) {
      ++mult;
      ++pos[k];
    }
    if (pos[k] < spans[k].size()) heap.emplace(spans[k][pos[k]].nbr, k);
    FoldPush(out, v, mult);
  }
}

namespace {

/// First position p in [from, a.size()) with a[p].first >= v: exponential
/// probe doubling from `from`, then binary search inside the bracketed
/// window — O(log gap) instead of O(gap), the gallop of the skewed
/// intersection.
inline size_t GallopLower(const NbrList& a, size_t from, VertexId v) {
  size_t lo = from;
  size_t hi = from;
  size_t step = 1;
  while (hi < a.size() && a[hi].first < v) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  if (hi > a.size()) hi = a.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (a[mid].first < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void IntersectSortedLists(const NbrList& a, const NbrList& b, NbrList* out) {
  out->clear();
  const NbrList& small = a.size() <= b.size() ? a : b;
  const NbrList& big = a.size() <= b.size() ? b : a;
  if (small.empty()) return;
  out->reserve(small.size());
  if (small.size() * kGallopSkew <= big.size()) {
    // Skewed: iterate the smaller list, gallop in the larger. The search
    // base advances monotonically, so the whole pass stays O(|small| *
    // log(|big|/|small|)) even when every entry matches.
    size_t base = 0;
    for (const auto& [v, m] : small) {
      base = GallopLower(big, base, v);
      if (base == big.size()) break;
      if (big[base].first == v) {
        out->emplace_back(v, m * big[base].second);
        ++base;
      }
    }
    return;
  }
  size_t i = 0;
  size_t j = 0;
  while (i < small.size() && j < big.size()) {
    const VertexId x = small[i].first;
    const VertexId y = big[j].first;
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      out->emplace_back(x, small[i].second * big[j].second);
      ++i;
      ++j;
    }
  }
}

namespace {

/// GallopLower over a raw adjacency span (keyed by AdjEntry::nbr).
inline size_t GallopLowerAdj(Span<const AdjEntry> a, size_t from, VertexId v) {
  size_t lo = from;
  size_t hi = from;
  size_t step = 1;
  while (hi < a.size() && a[hi].nbr < v) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  if (hi > a.size()) hi = a.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (a[mid].nbr < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void IntersectWithSpans(const NbrList& cur,
                        const std::vector<Span<const AdjEntry>>& spans,
                        std::vector<uint64_t>* counts, NbrList* out) {
  out->clear();
  if (cur.empty()) return;
  counts->assign(cur.size(), 0);
  for (const Span<const AdjEntry>& s : spans) {
    if (s.empty()) continue;
    // Per-span skew decision: hub spans gallop, peer-sized spans take the
    // linear merge. The probe base advances monotonically either way.
    const bool gallop = cur.size() * kGallopSkew <= s.size();
    size_t j = 0;
    for (size_t i = 0; i < cur.size() && j < s.size(); ++i) {
      const VertexId v = cur[i].first;
      if (gallop) {
        j = GallopLowerAdj(s, j, v);
      } else {
        while (j < s.size() && s[j].nbr < v) ++j;
      }
      while (j < s.size() && s[j].nbr == v) {
        ++(*counts)[i];
        ++j;
      }
    }
  }
  for (size_t i = 0; i < cur.size(); ++i) {
    if ((*counts)[i] != 0) {
      out->emplace_back(cur[i].first, cur[i].second * (*counts)[i]);
    }
  }
}

namespace {

bool IsCmp(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

/// `cst <cmp> col` rewritten as `col <cmp'> cst`.
BinOp FlipCmp(BinOp op) {
  switch (op) {
    case BinOp::kLt:
      return BinOp::kGt;
    case BinOp::kLe:
      return BinOp::kGe;
    case BinOp::kGt:
      return BinOp::kLt;
    case BinOp::kGe:
      return BinOp::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

/// Constant operand: a literal, or a parameter resolved at compile time
/// (per batch, not per row). Unbound parameters fail compilation so the
/// generic path raises the same error the engine contract specifies.
bool ConstOperand(const Expr& e, const ParamMap* params, Value* out) {
  if (e.kind == Expr::Kind::kLiteral) {
    *out = e.literal;
    return true;
  }
  if (e.kind == Expr::Kind::kParam && params != nullptr) {
    const auto it = params->find(e.tag);
    if (it != params->end()) {
      *out = it->second;
      return true;
    }
  }
  return false;
}

/// Verdict from a Value::Compare result — EvalBool over the comparison.
inline uint8_t KeepCmp(int c, BinOp op) {
  switch (op) {
    case BinOp::kEq:
      return c == 0;
    case BinOp::kNe:
      return c != 0;
    case BinOp::kLt:
      return c < 0;
    case BinOp::kLe:
      return c <= 0;
    case BinOp::kGt:
      return c > 0;
    case BinOp::kGe:
      return c >= 0;
    default:
      return 0;
  }
}

/// Membership of a non-null `v` in an IN term's list, as ExprEval's kIn:
/// true when some element is Value::operator== to `v`. Int operands of an
/// all-int list binary-search the sorted copy (int/int equality is exact,
/// so the verdict is the same); everything else — doubles that may equal
/// an int, NaN, strings, vertices — scans the list with ==.
inline uint8_t InList(const Value& v, const CompiledPredicate::Term& t) {
  if (t.int_list && v.kind() == Value::Kind::kInt) {
    return std::binary_search(t.sorted_ints.begin(), t.sorted_ints.end(),
                              v.AsInt());
  }
  if (t.cst.kind() != Value::Kind::kList) return 0;
  for (const Value& x : t.cst.AsList()) {
    if (v == x) return 1;
  }
  return 0;
}

/// One term on one value, exactly ExprEval's semantics: a null operand
/// makes the comparison (or membership test) null, which EvalBool reads as
/// false; otherwise the verdict comes from Value::Compare.
inline uint8_t EvalTermValue(const Value& v, const CompiledPredicate::Term& t) {
  if (v.is_null() || t.cst.is_null()) return 0;
  if (t.cmp == BinOp::kIn) return InList(v, t);
  return KeepCmp(v.Compare(t.cst), t.cmp);
}

/// Property input value for the entity in the term's column, matching
/// ExprEval::Property: vertex refs read the hoisted whole-graph column,
/// edge refs resolve through the store, anything else reads null.
inline Value PropValue(const CompiledPredicate::Term& t, const Value& entity) {
  switch (entity.kind()) {
    case Value::Kind::kVertex: {
      const VertexId id = entity.AsVertex().id;
      if (t.vprop == nullptr || id >= t.vprop->size()) return Value();
      return (*t.vprop)[id];
    }
    case Value::Kind::kEdge:
      return t.g->GetEdgeProp(entity.AsEdge().id, t.prop);
    default:
      return Value();
  }
}

/// ANDs one term's verdicts into `mask` over `n` rows read through `at`.
/// Kind classification runs over all rows (not just still-set ones) so the
/// chosen loop never depends on earlier terms' outcomes. The typed loops
/// mirror Value::Compare exactly: int/int comparisons stay integral (no
/// double round-trip for |x| > 2^53), any double involved coerces both
/// sides to double with Compare's three-way form — written as !(a>c) /
/// !(a<c) rather than a<=c / a>=c so NaN keeps Compare's "unordered is
/// equal" behavior.
template <typename AccessFn>
void ApplyTermMask(size_t n, AccessFn at, const CompiledPredicate::Term& t,
                   std::vector<uint8_t>* mask) {
  bool all_int = true;
  bool all_double = true;
  for (size_t i = 0; i < n && (all_int || all_double); ++i) {
    const Value::Kind k = at(i).kind();
    all_int = all_int && k == Value::Kind::kInt;
    all_double = all_double && k == Value::Kind::kDouble;
  }
  uint8_t* m = mask->data();
  // IN terms carry a list constant, so they skip both typed loops and take
  // the per-value loop below (InList binary-searches int operands).
  if (all_int && t.cst.kind() == Value::Kind::kInt) {
    std::vector<int64_t> buf(n);
    for (size_t i = 0; i < n; ++i) buf[i] = at(i).AsInt();
    const int64_t* b = buf.data();
    const int64_t c = t.cst.AsInt();
    switch (t.cmp) {
      case BinOp::kEq:
        for (size_t i = 0; i < n; ++i) m[i] &= static_cast<uint8_t>(b[i] == c);
        break;
      case BinOp::kNe:
        for (size_t i = 0; i < n; ++i) m[i] &= static_cast<uint8_t>(b[i] != c);
        break;
      case BinOp::kLt:
        for (size_t i = 0; i < n; ++i) m[i] &= static_cast<uint8_t>(b[i] < c);
        break;
      case BinOp::kLe:
        for (size_t i = 0; i < n; ++i) m[i] &= static_cast<uint8_t>(b[i] <= c);
        break;
      case BinOp::kGt:
        for (size_t i = 0; i < n; ++i) m[i] &= static_cast<uint8_t>(b[i] > c);
        break;
      case BinOp::kGe:
        for (size_t i = 0; i < n; ++i) m[i] &= static_cast<uint8_t>(b[i] >= c);
        break;
      default:
        break;
    }
    return;
  }
  if ((all_int || all_double) && t.cst.IsNumeric()) {
    std::vector<double> buf(n);
    for (size_t i = 0; i < n; ++i) buf[i] = at(i).ToDouble();
    const double* b = buf.data();
    const double c = t.cst.ToDouble();
    switch (t.cmp) {
      case BinOp::kEq:
        for (size_t i = 0; i < n; ++i)
          m[i] &= static_cast<uint8_t>(!(b[i] < c) && !(b[i] > c));
        break;
      case BinOp::kNe:
        for (size_t i = 0; i < n; ++i)
          m[i] &= static_cast<uint8_t>(b[i] < c || b[i] > c);
        break;
      case BinOp::kLt:
        for (size_t i = 0; i < n; ++i) m[i] &= static_cast<uint8_t>(b[i] < c);
        break;
      case BinOp::kLe:
        for (size_t i = 0; i < n; ++i) m[i] &= static_cast<uint8_t>(!(b[i] > c));
        break;
      case BinOp::kGt:
        for (size_t i = 0; i < n; ++i) m[i] &= static_cast<uint8_t>(b[i] > c);
        break;
      case BinOp::kGe:
        for (size_t i = 0; i < n; ++i) m[i] &= static_cast<uint8_t>(!(b[i] < c));
        break;
      default:
        break;
    }
    return;
  }
  // Mixed / non-numeric column (or non-numeric constant): per-value
  // Value::Compare loop, skipping rows already masked out.
  for (size_t i = 0; i < n; ++i) {
    if (m[i]) m[i] = EvalTermValue(at(i), t);
  }
}

}  // namespace

std::unique_ptr<CompiledPredicate> CompiledPredicate::Compile(
    const Expr& e, const ColMap& cols, const ParamMap* params,
    const PropertyGraph* g) {
  auto cp = std::make_unique<CompiledPredicate>();
  std::vector<const Expr*> stack{&e};
  while (!stack.empty()) {
    const Expr* cur = stack.back();
    stack.pop_back();
    if (cur->kind == Expr::Kind::kBinary && cur->bin == BinOp::kAnd) {
      // Splitting the conjunction is exact: comparison leaves evaluate to
      // bool-or-null, and over {true, false, null} EvalBool(a AND b) ==
      // EvalBool(a) && EvalBool(b).
      stack.push_back(cur->args[0].get());
      stack.push_back(cur->args[1].get());
      continue;
    }
    if (cur->kind != Expr::Kind::kBinary) return nullptr;
    const bool is_in = cur->bin == BinOp::kIn;
    if (!is_in && !IsCmp(cur->bin)) return nullptr;
    const Expr* lhs = cur->args[0].get();
    const Expr* rhs = cur->args[1].get();
    Term t;
    t.cmp = cur->bin;
    const Expr* colex = nullptr;
    if (ConstOperand(*rhs, params, &t.cst)) {
      colex = lhs;
    } else if (!is_in && ConstOperand(*lhs, params, &t.cst)) {
      colex = rhs;
      t.cmp = FlipCmp(t.cmp);
    } else {
      return nullptr;
    }
    if (colex->kind == Expr::Kind::kVar) {
      const auto it = cols.find(colex->tag);
      if (it == cols.end()) return nullptr;
      t.col = it->second;
    } else if (colex->kind == Expr::Kind::kProperty) {
      if (g == nullptr) return nullptr;
      const auto it = cols.find(colex->tag);
      if (it == cols.end()) return nullptr;
      t.col = it->second;
      t.is_prop = true;
      t.prop = colex->prop;
      t.vprop = g->VertexPropColumn(colex->prop);
      t.g = g;
    } else {
      return nullptr;
    }
    if (is_in) {
      // IN over a null or a non-list is null / false for every row.
      if (t.cst.kind() != Value::Kind::kList) {
        cp->always_false_ = true;
      } else {
        t.int_list = true;
        for (const Value& x : t.cst.AsList()) {
          if (x.kind() != Value::Kind::kInt) {
            t.int_list = false;
            break;
          }
          t.sorted_ints.push_back(x.AsInt());
        }
        if (t.int_list) {
          std::sort(t.sorted_ints.begin(), t.sorted_ints.end());
        } else {
          t.sorted_ints.clear();
        }
      }
    } else if (t.cst.is_null()) {
      cp->always_false_ = true;
    }
    cp->terms_.push_back(std::move(t));
  }
  return cp;
}

void CompiledPredicate::Select(const Batch& in,
                               std::vector<uint32_t>* sel) const {
  const size_t n = in.size();
  if (n == 0 || always_false_) return;
  std::vector<uint8_t> mask(n, 1);
  std::vector<Value> propbuf;
  for (const Term& t : terms_) {
    const std::vector<Value>& col = in.col(static_cast<size_t>(t.col));
    if (t.is_prop) {
      propbuf.clear();
      propbuf.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        propbuf.push_back(PropValue(t, col[in.PhysIndex(i)]));
      }
      const Value* p = propbuf.data();
      ApplyTermMask(n, [p](size_t i) -> const Value& { return p[i]; }, t,
                    &mask);
    } else if (in.has_selection()) {
      const uint32_t* s = in.selection().data();
      const Value* c = col.data();
      ApplyTermMask(n, [c, s](size_t i) -> const Value& { return c[s[i]]; }, t,
                    &mask);
    } else {
      const Value* c = col.data();
      ApplyTermMask(n, [c](size_t i) -> const Value& { return c[i]; }, t,
                    &mask);
    }
  }
  sel->reserve(sel->size() + n);
  for (size_t i = 0; i < n; ++i) {
    if (mask[i]) sel->push_back(in.PhysIndex(i));
  }
}

void CompiledPredicate::FilterVertexIds(std::vector<VertexId>* vids) const {
  if (always_false_) {
    vids->clear();
    return;
  }
  size_t w = 0;
  for (size_t i = 0; i < vids->size(); ++i) {
    const VertexId v = (*vids)[i];
    bool keep = true;
    for (const Term& t : terms_) {
      Value val;
      if (t.is_prop) {
        val = (t.vprop != nullptr && v < t.vprop->size()) ? (*t.vprop)[v]
                                                          : Value();
      } else {
        val = Value(VertexRef{v});
      }
      if (!EvalTermValue(val, t)) {
        keep = false;
        break;
      }
    }
    if (keep) (*vids)[w++] = v;
  }
  vids->resize(w);
}

}  // namespace gopt
