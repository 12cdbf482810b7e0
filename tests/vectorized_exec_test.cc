// Differential and unit suite for the vectorized kernel fast paths
// (docs/vectorization.md): the sort-free CSR-span intersection
// (MergeAdjSpans / IntersectSortedLists, parallel-edge multiplicity
// folding, the skew gallop), typed column views (Batch::ExtractTyped,
// TypedViewCache), the compiled branch-free filter predicates
// (CompiledPredicate vs ExprEval on every recognized shape and every
// rejection), and — the core contract — identical ResultTables and
// rows_produced for every bundled workload across vectorize {on, off} x
// exec_threads {1, 4} x partitions {0, 4} x factorization {off, auto}.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/engine/engine.h"
#include "src/exec/kernels.h"
#include "src/exec/morsel.h"
#include "src/exec/vectorized.h"
#include "src/ldbc/ldbc.h"
#include "src/workloads/queries.h"

namespace gopt {
namespace {

// ---------------------------------------------------------------------------
// MergeAdjSpans: sort-free k-way merge of neighbor-sorted spans
// ---------------------------------------------------------------------------

std::vector<AdjEntry> Entries(const std::vector<VertexId>& nbrs) {
  std::vector<AdjEntry> out;
  for (VertexId v : nbrs) out.push_back({v, 0, 0});
  return out;
}

NbrList Merged(const std::vector<std::vector<VertexId>>& lists) {
  std::vector<std::vector<AdjEntry>> storage;
  for (const auto& l : lists) storage.push_back(Entries(l));
  std::vector<Span<const AdjEntry>> spans;
  for (const auto& s : storage) spans.emplace_back(s.data(), s.size());
  NbrList out;
  MergeAdjSpans(spans, &out);
  return out;
}

TEST(MergeAdjSpansTest, EmptyAndSingleSpan) {
  EXPECT_TRUE(Merged({}).empty());
  EXPECT_TRUE(Merged({{}}).empty());
  // Single span: parallel edges (equal neighbors) fold into multiplicity.
  NbrList m = Merged({{2, 2, 2, 5, 7, 7}});
  NbrList want = {{2, 3}, {5, 1}, {7, 2}};
  EXPECT_EQ(m, want);
}

TEST(MergeAdjSpansTest, TwoSpansInterleaveAndFoldAcross) {
  // The kBoth-direction shape: two sorted spans whose ranges interleave,
  // with equal neighbors both within one span and across the two.
  NbrList m = Merged({{1, 3, 3, 8}, {2, 3, 8, 9}});
  NbrList want = {{1, 1}, {2, 1}, {3, 3}, {8, 2}, {9, 1}};
  EXPECT_EQ(m, want);
}

TEST(MergeAdjSpansTest, HeapPathBeyondFourSpans) {
  // > 4 spans exercises the heap merge; same folding contract.
  NbrList m = Merged({{1, 4}, {2, 4}, {3, 4}, {4, 4}, {4, 5}, {0, 6}});
  NbrList want = {{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 6}, {5, 1}, {6, 1}};
  EXPECT_EQ(m, want);
}

TEST(MergeAdjSpansTest, SomeSpansEmpty) {
  NbrList m = Merged({{}, {5}, {}, {5, 9}, {}});
  NbrList want = {{5, 2}, {9, 1}};
  EXPECT_EQ(m, want);
}

// ---------------------------------------------------------------------------
// IntersectSortedLists: two-pointer and gallop paths
// ---------------------------------------------------------------------------

/// Reference implementation: plain two-pointer, multiplicities multiply.
NbrList NaiveIntersect(const NbrList& a, const NbrList& b) {
  NbrList out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first < b[j].first) {
      ++i;
    } else if (a[i].first > b[j].first) {
      ++j;
    } else {
      out.emplace_back(a[i].first, a[i].second * b[j].second);
      ++i;
      ++j;
    }
  }
  return out;
}

TEST(IntersectSortedListsTest, MultiplicitiesMultiply) {
  NbrList a = {{1, 2}, {3, 1}, {5, 3}};
  NbrList b = {{3, 4}, {5, 2}, {7, 1}};
  NbrList out;
  IntersectSortedLists(a, b, &out);
  NbrList want = {{3, 4}, {5, 6}};
  EXPECT_EQ(out, want);
  // Symmetric.
  IntersectSortedLists(b, a, &out);
  EXPECT_EQ(out, want);
}

TEST(IntersectSortedListsTest, EmptySides) {
  NbrList a = {{1, 1}};
  NbrList empty, out;
  IntersectSortedLists(a, empty, &out);
  EXPECT_TRUE(out.empty());
  IntersectSortedLists(empty, a, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectSortedListsTest, GallopMatchesTwoPointer) {
  // Size skew >= kGallopSkew forces the gallop path; results must match
  // the linear reference exactly, including first/last-element matches.
  NbrList small = {{0, 2}, {63, 1}, {512, 3}, {999, 1}};
  NbrList big;
  for (VertexId v = 0; v < 1000; v += 3) big.emplace_back(v, (v % 5) + 1);
  ASSERT_GE(big.size(), small.size() * kGallopSkew);
  NbrList out;
  IntersectSortedLists(small, big, &out);
  EXPECT_EQ(out, NaiveIntersect(small, big));
  IntersectSortedLists(big, small, &out);
  EXPECT_EQ(out, NaiveIntersect(big, small));
}

TEST(IntersectSortedListsTest, GallopNoOverlapAndDisjointRanges) {
  NbrList small = {{2000, 1}, {3000, 1}};
  NbrList big;
  for (VertexId v = 0; v < 200; ++v) big.emplace_back(v, 1);
  NbrList out;
  IntersectSortedLists(small, big, &out);
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// IntersectWithSpans: span-direct intersection of the running result
// ---------------------------------------------------------------------------

/// Runs both the span-direct intersection and its reference (merge the
/// spans, then intersect the lists) and checks they agree.
NbrList SpanIntersect(const NbrList& cur,
                      const std::vector<std::vector<VertexId>>& lists) {
  std::vector<std::vector<AdjEntry>> storage;
  for (const auto& l : lists) storage.push_back(Entries(l));
  std::vector<Span<const AdjEntry>> spans;
  for (const auto& s : storage) spans.emplace_back(s.data(), s.size());
  std::vector<uint64_t> counts;
  NbrList got;
  IntersectWithSpans(cur, spans, &counts, &got);
  NbrList merged, want;
  MergeAdjSpans(spans, &merged);
  IntersectSortedLists(cur, merged, &want);
  EXPECT_EQ(got, want);
  return got;
}

TEST(IntersectWithSpansTest, CountsParallelEdgesAcrossSpans) {
  // Neighbor 3 repeats within one span and across spans (5 total hits);
  // cur multiplicity multiplies in.
  NbrList cur = {{1, 2}, {3, 2}, {9, 1}};
  NbrList got = SpanIntersect(cur, {{1, 3, 3, 3, 8}, {2, 3, 3, 9}});
  NbrList want = {{1, 2}, {3, 10}, {9, 1}};
  EXPECT_EQ(got, want);
}

TEST(IntersectWithSpansTest, EmptyCurEmptySpansNoOverlap) {
  EXPECT_TRUE(SpanIntersect({}, {{1, 2, 3}}).empty());
  EXPECT_TRUE(SpanIntersect({{1, 1}}, {}).empty());
  EXPECT_TRUE(SpanIntersect({{1, 1}}, {{}, {}}).empty());
  EXPECT_TRUE(SpanIntersect({{1, 1}, {5, 2}}, {{2, 3}, {4, 6}}).empty());
}

TEST(IntersectWithSpansTest, GallopOnHubSpanMatchesLinear) {
  // One hub span >= kGallopSkew * |cur| (gallop path) plus one peer-sized
  // span (linear path) in the same call; reference path must agree.
  NbrList cur = {{0, 1}, {63, 2}, {510, 1}, {999, 3}};
  std::vector<VertexId> hub;
  for (VertexId v = 0; v < 1000; v += 3) hub.push_back(v);
  ASSERT_GE(hub.size(), cur.size() * kGallopSkew);
  NbrList got = SpanIntersect(cur, {hub, {63, 999}});
  // 63 and 999 hit both spans (hub holds every multiple of 3).
  NbrList want = {{0, 1}, {63, 4}, {510, 1}, {999, 6}};
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// Typed column views
// ---------------------------------------------------------------------------

TEST(TypedViewTest, ExtractTypedPerKind) {
  Batch b(3);
  for (int64_t i = 0; i < 4; ++i) {
    b.col(0).push_back(Value(i * 10));
    b.col(1).push_back(Value(static_cast<double>(i) + 0.5));
    b.col(2).push_back(Value(VertexRef{static_cast<VertexId>(i)}));
  }
  auto ints = b.ExtractTyped<int64_t>(0);
  ASSERT_TRUE(ints.ok);
  EXPECT_EQ(ints.vals, (std::vector<int64_t>{0, 10, 20, 30}));
  auto dbls = b.ExtractTyped<double>(1);
  ASSERT_TRUE(dbls.ok);
  EXPECT_EQ(dbls.vals[3], 3.5);
  auto verts = b.ExtractTyped<VertexId>(2);
  ASSERT_TRUE(verts.ok);
  EXPECT_EQ(verts.vals, (std::vector<VertexId>{0, 1, 2, 3}));
  // Wrong kind anywhere in the column fails the whole extraction.
  EXPECT_FALSE(b.ExtractTyped<double>(0).ok);
  EXPECT_FALSE(b.ExtractTyped<VertexId>(0).ok);
}

TEST(TypedViewTest, MixedKindsAndFactorizedFail) {
  Batch b(1);
  b.col(0).push_back(Value(static_cast<int64_t>(1)));
  b.col(0).push_back(Value());  // null poisons the int view
  EXPECT_FALSE(b.ExtractTyped<int64_t>(0).ok);

  Batch f(2);
  f.InitFactorized({1, 0});
  f.gcol(0).push_back(Value(static_cast<int64_t>(1)));
  f.col(1).push_back(Value(static_cast<int64_t>(2)));
  f.CloseGroup(1);
  EXPECT_FALSE(f.ExtractTyped<int64_t>(1).ok);
}

TEST(TypedViewTest, ExtractionIsPerPhysicalRowIgnoringSelection) {
  Batch b(1);
  for (int64_t i = 0; i < 5; ++i) b.col(0).push_back(Value(i));
  b.SetSelection({1, 3});
  auto v = b.ExtractTyped<int64_t>(0);
  ASSERT_TRUE(v.ok);
  // Physical rows, indexable by PhysIndex — not compacted to selection.
  EXPECT_EQ(v.vals.size(), 5u);
  EXPECT_EQ(v.vals[b.PhysIndex(1)], 3);
}

TEST(TypedViewTest, CacheExtractsOncePerColumn) {
  Batch b(2);
  b.col(0).push_back(Value(static_cast<int64_t>(7)));
  b.col(1).push_back(Value("str"));
  TypedViewCache cache(&b);
  const TypedView<int64_t>* v1 = cache.I64(0);
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(cache.I64(0), v1) << "second lookup returns the cached view";
  EXPECT_EQ(cache.I64(1), nullptr) << "failed extraction cached as null";
  EXPECT_EQ(cache.I64(1), nullptr);
}

// ---------------------------------------------------------------------------
// CompiledPredicate vs ExprEval
// ---------------------------------------------------------------------------

class CompiledPredicateTest : public ::testing::Test {
 protected:
  CompiledPredicateTest()
      : schema_(MakeTinySchema()), g_(schema_), eval_(&g_) {
    for (int i = 0; i < 3; ++i) g_.AddVertex(0);
    g_.SetVertexProp(0, "id", Value(static_cast<int64_t>(100)));
    g_.SetVertexProp(1, "id", Value(static_cast<int64_t>(200)));
    g_.SetVertexProp(2, "id", Value(static_cast<int64_t>(300)));
    g_.Finalize();
    cols_ = MakeColMap({"a", "b", "s", "v"});
    layout_ = std::make_shared<PhysOp>(PhysOpKind::kScanVertices);
    layout_->out_cols = {"a", "b", "s", "v"};
    // Rows covering nulls, mixed numerics, NaN, strings and vertex refs.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    AddRow(Value(static_cast<int64_t>(1)), Value(1.5), Value("x"),
           Value(VertexRef{0}));
    AddRow(Value(static_cast<int64_t>(5)), Value(nan), Value("y"),
           Value(VertexRef{1}));
    AddRow(Value(), Value(5.0), Value(), Value(VertexRef{2}));
    AddRow(Value(static_cast<int64_t>(-3)), Value(-0.0), Value("x"),
           Value(VertexRef{kNullVertex}));
    AddRow(Value(2.5), Value(static_cast<int64_t>(2)), Value("z"),
           Value(VertexRef{1}));
  }

  static GraphSchema MakeTinySchema() {
    GraphSchema s;
    s.AddVertexType("V");
    return s;
  }

  void AddRow(Value a, Value b, Value s, Value v) {
    batch_.col(0).push_back(std::move(a));
    batch_.col(1).push_back(std::move(b));
    batch_.col(2).push_back(std::move(s));
    batch_.col(3).push_back(std::move(v));
  }

  /// Reference: the generic FilterSelection row loop over ExprEval.
  std::vector<uint32_t> Generic(const ExprPtr& e) {
    std::vector<uint32_t> sel;
    Row scratch;
    for (size_t i = 0; i < batch_.size(); ++i) {
      batch_.GatherRow(i, &scratch);
      if (eval_.EvalBool(e, scratch, cols_)) {
        sel.push_back(batch_.PhysIndex(i));
      }
    }
    return sel;
  }

  /// Compiles and runs the fast path; asserts the predicate compiled.
  std::vector<uint32_t> Fast(const ExprPtr& e,
                             const ParamMap* params = nullptr) {
    auto cp = CompiledPredicate::Compile(*e, cols_, params, &g_);
    EXPECT_NE(cp, nullptr) << "expected the shape to compile";
    std::vector<uint32_t> sel;
    if (cp) cp->Select(batch_, &sel);
    return sel;
  }

  void ExpectParity(const ExprPtr& e) { EXPECT_EQ(Fast(e), Generic(e)); }

  static ExprPtr Cmp(BinOp op, ExprPtr l, ExprPtr r) {
    return Expr::MakeBinary(op, std::move(l), std::move(r));
  }

  GraphSchema schema_;
  PropertyGraph g_;
  ExprEval eval_;
  ColMap cols_;
  PhysOpPtr layout_;
  Batch batch_{4};
};

TEST_F(CompiledPredicateTest, EveryComparatorOnIntColumn) {
  for (BinOp op : {BinOp::kEq, BinOp::kNe, BinOp::kLt, BinOp::kLe, BinOp::kGt,
                   BinOp::kGe}) {
    ExpectParity(Cmp(op, Expr::MakeVar("a"),
                     Expr::MakeLiteral(Value(static_cast<int64_t>(2)))));
  }
}

TEST_F(CompiledPredicateTest, DoubleColumnWithNaNAndSignedZero) {
  // Column b holds doubles, an int and a NaN. Value::Compare treats NaN as
  // equal to every numeric (both < and > are false), and -0.0 == 0.0 — the
  // branch-free loops must reproduce both.
  for (BinOp op : {BinOp::kEq, BinOp::kNe, BinOp::kLt, BinOp::kLe, BinOp::kGt,
                   BinOp::kGe}) {
    ExpectParity(Cmp(op, Expr::MakeVar("b"), Expr::MakeLiteral(Value(1.5))));
    ExpectParity(Cmp(op, Expr::MakeVar("b"), Expr::MakeLiteral(Value(0.0))));
    ExpectParity(Cmp(op, Expr::MakeVar("b"),
                     Expr::MakeLiteral(Value(static_cast<int64_t>(2)))));
  }
}

TEST_F(CompiledPredicateTest, MixedNumericColumnCoercesThroughDouble) {
  // Column a mixes int64 and double (plus a null): the int fast loop must
  // refuse and the double loop coerce exactly like Value::Compare.
  ExpectParity(Cmp(BinOp::kLt, Expr::MakeVar("a"),
                   Expr::MakeLiteral(Value(2.6))));
  ExpectParity(Cmp(BinOp::kGe, Expr::MakeVar("a"),
                   Expr::MakeLiteral(Value(static_cast<int64_t>(1)))));
}

TEST_F(CompiledPredicateTest, StringsVerticesAndNullRows) {
  ExpectParity(Cmp(BinOp::kEq, Expr::MakeVar("s"),
                   Expr::MakeLiteral(Value("x"))));
  ExpectParity(Cmp(BinOp::kNe, Expr::MakeVar("s"),
                   Expr::MakeLiteral(Value("x"))));
  ExpectParity(Cmp(BinOp::kLt, Expr::MakeVar("s"),
                   Expr::MakeLiteral(Value("y"))));
}

TEST_F(CompiledPredicateTest, ConstantOnLeftFlips) {
  // 2 < a  ==  a > 2.
  ExprPtr flipped = Cmp(BinOp::kLt,
                        Expr::MakeLiteral(Value(static_cast<int64_t>(2))),
                        Expr::MakeVar("a"));
  ExprPtr direct = Cmp(BinOp::kGt, Expr::MakeVar("a"),
                       Expr::MakeLiteral(Value(static_cast<int64_t>(2))));
  EXPECT_EQ(Fast(flipped), Generic(direct));
}

TEST_F(CompiledPredicateTest, ConjunctionsSplitIntoTerms) {
  ExprPtr e = Expr::MakeBinary(
      BinOp::kAnd,
      Cmp(BinOp::kGt, Expr::MakeVar("a"),
          Expr::MakeLiteral(Value(static_cast<int64_t>(0)))),
      Expr::MakeBinary(
          BinOp::kAnd,
          Cmp(BinOp::kLt, Expr::MakeVar("b"), Expr::MakeLiteral(Value(4.0))),
          Cmp(BinOp::kEq, Expr::MakeVar("s"),
              Expr::MakeLiteral(Value("x")))));
  auto cp = CompiledPredicate::Compile(*e, cols_, nullptr, &g_);
  ASSERT_NE(cp, nullptr);
  EXPECT_EQ(cp->num_terms(), 3u);
  ExpectParity(e);
}

TEST_F(CompiledPredicateTest, ParamsResolveAtCompileTime) {
  ParamMap params{{"p", Value(static_cast<int64_t>(2))}};
  ExprPtr e = Cmp(BinOp::kGe, Expr::MakeVar("a"), Expr::MakeParam("p"));
  eval_.set_params(&params);
  EXPECT_EQ(Fast(e, &params), Generic(e));
  eval_.set_params(nullptr);
  // Unbound parameter: must NOT compile (the generic path throws, and the
  // fast path silently evaluating would mask the contract violation).
  EXPECT_EQ(CompiledPredicate::Compile(*e, cols_, nullptr, &g_),
            nullptr);
}

TEST_F(CompiledPredicateTest, PropertyTermsReadHoistedColumns) {
  // v.id > 150 over vertex refs, including a dangling null-vertex ref
  // (bounds-checked to null — compares false, exactly like ExprEval).
  ExprPtr e = Cmp(BinOp::kGt, Expr::MakeProperty("v", "id"),
                  Expr::MakeLiteral(Value(static_cast<int64_t>(150))));
  eval_.set_params(nullptr);
  ExpectParity(e);
}

TEST_F(CompiledPredicateTest, NullConstantIsAlwaysFalse) {
  ExprPtr e = Cmp(BinOp::kEq, Expr::MakeVar("a"),
                  Expr::MakeLiteral(Value()));
  auto cp = CompiledPredicate::Compile(*e, cols_, nullptr, &g_);
  ASSERT_NE(cp, nullptr);
  EXPECT_TRUE(cp->always_false());
  std::vector<uint32_t> sel;
  cp->Select(batch_, &sel);
  EXPECT_TRUE(sel.empty());
  EXPECT_EQ(Generic(e), sel);
}

TEST_F(CompiledPredicateTest, UnrecognizedShapesRefuseToCompile) {
  // Disjunction.
  EXPECT_EQ(CompiledPredicate::Compile(
                *Expr::MakeBinary(
                    BinOp::kOr,
                    Cmp(BinOp::kEq, Expr::MakeVar("a"),
                        Expr::MakeLiteral(Value(static_cast<int64_t>(1)))),
                    Cmp(BinOp::kEq, Expr::MakeVar("a"),
                        Expr::MakeLiteral(Value(static_cast<int64_t>(2))))),
                cols_, nullptr, &g_),
            nullptr);
  // Column-vs-column.
  EXPECT_EQ(CompiledPredicate::Compile(
                *Cmp(BinOp::kLt, Expr::MakeVar("a"), Expr::MakeVar("b")),
                cols_, nullptr, &g_),
            nullptr);
  // Unknown column.
  EXPECT_EQ(CompiledPredicate::Compile(
                *Cmp(BinOp::kEq, Expr::MakeVar("zz"),
                     Expr::MakeLiteral(Value(static_cast<int64_t>(1)))),
                cols_, nullptr, &g_),
            nullptr);
  // Arithmetic inside the comparison.
  EXPECT_EQ(CompiledPredicate::Compile(
                *Cmp(BinOp::kEq,
                     Expr::MakeBinary(
                         BinOp::kAdd, Expr::MakeVar("a"),
                         Expr::MakeLiteral(Value(static_cast<int64_t>(1)))),
                     Expr::MakeLiteral(Value(static_cast<int64_t>(2)))),
                cols_, nullptr, &g_),
            nullptr);
}

TEST_F(CompiledPredicateTest, InTermsMatchExprEval) {
  // Every column (ints + a double + null; doubles with NaN, -0.0 and an
  // int; strings + null; vertex refs) against lists covering: all-int
  // (sorted binary search), int vs double equality (2 vs 2.0), strings,
  // nulls inside the list, the empty list, NaN, and vertex refs.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto i64 = [](int64_t x) { return Value(x); };
  const std::vector<std::vector<Value>> lists = {
      {i64(5), i64(1), i64(-3)},
      {i64(2)},
      {Value(2.0)},
      {Value(2.5), i64(7)},
      {Value(0.0)},
      {Value("x"), Value("z")},
      {Value(), i64(1)},
      {Value()},
      {},
      {Value(nan)},
      {Value(VertexRef{1}), Value(VertexRef{2})},
  };
  for (const char* col : {"a", "b", "s", "v"}) {
    for (const auto& l : lists) {
      ExprPtr e = Cmp(BinOp::kIn, Expr::MakeVar(col),
                      Expr::MakeLiteral(Value::List(l)));
      SCOPED_TRACE(e->ToString());
      ExpectParity(e);
    }
  }
  // Property operand, through the hoisted column (ids 100/200/300 plus a
  // dangling null-vertex ref that reads null).
  ExpectParity(Cmp(BinOp::kIn, Expr::MakeProperty("v", "id"),
                   Expr::MakeLiteral(Value::List({i64(300), i64(100)}))));
  ExpectParity(Cmp(BinOp::kIn, Expr::MakeProperty("v", "id"),
                   Expr::MakeLiteral(Value::List({Value(200.0)}))));
  // Under a selection and inside a conjunction.
  batch_.SetSelection({4, 1, 0});
  ExpectParity(Expr::MakeBinary(
      BinOp::kAnd,
      Cmp(BinOp::kIn, Expr::MakeVar("a"),
          Expr::MakeLiteral(Value::List({i64(5), i64(1)}))),
      Cmp(BinOp::kIn, Expr::MakeVar("s"),
          Expr::MakeLiteral(Value::List({Value("y"), Value("x")})))));
}

TEST_F(CompiledPredicateTest, InTermParamsAndNonListSides) {
  ParamMap params{{"ids", Value::List({Value(static_cast<int64_t>(-3)),
                                       Value(static_cast<int64_t>(5))})},
                  {"scalar", Value(static_cast<int64_t>(5))},
                  {"nothing", Value()}};
  eval_.set_params(&params);
  ExprPtr e = Cmp(BinOp::kIn, Expr::MakeVar("a"), Expr::MakeParam("ids"));
  EXPECT_EQ(Fast(e, &params), Generic(e));
  EXPECT_FALSE(Generic(e).empty());
  // A right side that is not a list (a scalar, a null) is false for every
  // row, in ExprEval and compiled alike.
  for (const char* name : {"scalar", "nothing"}) {
    ExprPtr bad = Cmp(BinOp::kIn, Expr::MakeVar("a"), Expr::MakeParam(name));
    auto cp = CompiledPredicate::Compile(*bad, cols_, &params, &g_);
    ASSERT_NE(cp, nullptr) << name;
    EXPECT_TRUE(cp->always_false()) << name;
    EXPECT_EQ(Fast(bad, &params), Generic(bad)) << name;
    EXPECT_TRUE(Generic(bad).empty()) << name;
  }
  ExprPtr lit = Cmp(BinOp::kIn, Expr::MakeVar("a"),
                    Expr::MakeLiteral(Value(static_cast<int64_t>(5))));
  EXPECT_EQ(Fast(lit), Generic(lit));
  eval_.set_params(nullptr);
  // Unbound list parameter and a list on the left: not compiled.
  EXPECT_EQ(CompiledPredicate::Compile(*e, cols_, nullptr, &g_),
            nullptr);
  EXPECT_EQ(CompiledPredicate::Compile(
                *Cmp(BinOp::kIn,
                     Expr::MakeLiteral(Value::List({Value(
                         static_cast<int64_t>(1))})),
                     Expr::MakeVar("a")),
                cols_, nullptr, &g_),
            nullptr);
}

TEST_F(CompiledPredicateTest, InTermsFilterScanVertexIds) {
  // The scan fast path: FilterVertexIds over candidate ids, var and
  // property operands, against ExprEval on the one-column scan row.
  const ColMap self{{"v", 0}};
  const std::vector<ExprPtr> preds = {
      Cmp(BinOp::kIn, Expr::MakeProperty("v", "id"),
          Expr::MakeLiteral(Value::List({Value(static_cast<int64_t>(300)),
                                         Value(static_cast<int64_t>(100))}))),
      Cmp(BinOp::kIn, Expr::MakeProperty("v", "id"),
          Expr::MakeLiteral(Value::List({Value(200.0), Value()}))),
      Cmp(BinOp::kIn, Expr::MakeProperty("v", "id"),
          Expr::MakeLiteral(Value::List({}))),
      Cmp(BinOp::kIn, Expr::MakeVar("v"),
          Expr::MakeLiteral(Value::List({Value(VertexRef{2}),
                                         Value(static_cast<int64_t>(0))}))),
  };
  for (const ExprPtr& e : preds) {
    SCOPED_TRACE(e->ToString());
    auto cp = CompiledPredicate::Compile(*e, self, nullptr, &g_);
    ASSERT_NE(cp, nullptr);
    std::vector<VertexId> got = {0, 1, 2, 7};  // 7: past the store
    cp->FilterVertexIds(&got);
    std::vector<VertexId> want;
    for (VertexId v : {0, 1, 2, 7}) {
      if (eval_.EvalBool(e, Row{Value(VertexRef{v})}, self)) want.push_back(v);
    }
    EXPECT_EQ(got, want);
  }
}

TEST_F(CompiledPredicateTest, SelectionRespectedAndPhysIndicesReturned) {
  batch_.SetSelection({4, 2, 0});
  ExprPtr e = Cmp(BinOp::kGt, Expr::MakeVar("b"),
                  Expr::MakeLiteral(Value(0.0)));
  ExpectParity(e);  // visit order follows the selection, physical positions
  batch_.SetSelection({});
  ExpectParity(e);
}

// ---------------------------------------------------------------------------
// ExpandIntersectBatch: vectorized vs generic on a hand-built multigraph
// ---------------------------------------------------------------------------

class IntersectKernelTest : public ::testing::Test {
 protected:
  IntersectKernelTest() : schema_(MakeSchema()), g_(schema_) {
    // Types: V=0 (8 vertices: ids 0..7), W=1 (2 vertices: ids 8..9).
    for (int i = 0; i < 8; ++i) g_.AddVertex(0);
    for (int i = 0; i < 2; ++i) g_.AddVertex(1);
    // E edges with parallel duplicates; F and G edges so a kBoth all-type
    // arm enumerates > 4 CSR sub-spans (heap merge path).
    auto E = [&](VertexId s, VertexId d) { g_.AddEdge(s, d, 0); };
    auto F = [&](VertexId s, VertexId d) { g_.AddEdge(s, d, 1); };
    auto G = [&](VertexId s, VertexId d) { g_.AddEdge(s, d, 2); };
    E(0, 2); E(0, 2); E(0, 3); E(0, 4); E(0, 8);
    E(1, 2); E(1, 4); E(1, 4); E(1, 5); E(1, 8);
    F(0, 3); F(0, 4); F(2, 0); F(4, 0); F(4, 1); F(5, 1);
    G(0, 2); G(2, 1); G(3, 0); G(3, 1); G(4, 4);
    E(2, 4); E(3, 4); E(6, 2);  // vertex 7 stays isolated
    g_.Finalize();
  }

  static GraphSchema MakeSchema() {
    GraphSchema s;
    TypeId v = s.AddVertexType("V");
    TypeId w = s.AddVertexType("W");
    s.AddEdgeType("E", {{v, v}, {v, w}});
    s.AddEdgeType("F", {{v, v}});
    s.AddEdgeType("G", {{v, v}});
    return s;
  }

  PhysOpPtr MakeOp(Direction d0, Direction d1, TypeConstraint etc0,
                   TypeConstraint etc1, TypeConstraint vtc) {
    auto child = std::make_shared<PhysOp>(PhysOpKind::kScanVertices);
    child->out_cols = {"a", "b"};
    auto op = std::make_shared<PhysOp>(PhysOpKind::kExpandIntersect);
    op->children = {child};
    op->out_cols = {"a", "b", "c"};
    op->alias = "c";
    op->vtc = vtc;
    op->arms.push_back({"a", d0, etc0});
    op->arms.push_back({"b", d1, etc1});
    return op;
  }

  Batch MakeInput(const std::vector<std::pair<VertexId, VertexId>>& rows) {
    Batch in(2);
    for (auto [a, b] : rows) {
      in.col(0).push_back(Value(VertexRef{a}));
      in.col(1).push_back(Value(VertexRef{b}));
    }
    return in;
  }

  /// Runs the op through a vectorizing and a generic Kernels instance in
  /// every emission mode and asserts bit-identical logical rows plus the
  /// expected dispatch accounting.
  void ExpectPathsAgree(const PhysOpPtr& op, const Batch& in) {
    Kernels vec(&g_), gen(&g_);
    vec.set_vectorize(true);
    gen.set_vectorize(false);
    for (auto [fact, lazy] :
         {std::pair<bool, bool>{false, false}, {true, false}, {true, true}}) {
      Batch a = vec.ExpandIntersectBatch(*op, in, fact, lazy);
      Batch b = gen.ExpandIntersectBatch(*op, in, fact, lazy);
      EXPECT_EQ(a.ToRows(), b.ToRows())
          << "fact=" << fact << " lazy=" << lazy;
    }
    EXPECT_EQ(vec.vectorized_dispatches(), 3u);
    EXPECT_EQ(vec.generic_dispatches(), 0u);
    EXPECT_EQ(gen.vectorized_dispatches(), 0u);
    EXPECT_EQ(gen.generic_dispatches(), 3u);
  }

  GraphSchema schema_;
  PropertyGraph g_;
};

TEST_F(IntersectKernelTest, OutOutAllTypesWithParallelEdges) {
  // a=0 and b=1 share E-neighbors {2 (x2 from a), 4 (x2 from b), 8}: the
  // multiplicity product must survive the merge-fold on both paths.
  auto op = MakeOp(Direction::kOut, Direction::kOut, TypeConstraint::All(),
                   TypeConstraint::All(), TypeConstraint::All());
  ExpectPathsAgree(op, MakeInput({{0, 1}, {2, 3}, {0, 0}}));
}

TEST_F(IntersectKernelTest, BothDirectionInterleavesSubSpans) {
  // kBoth over all 3 edge types: up to 6 sub-spans per arm — the heap
  // merge path — and out/in neighbor ranges genuinely interleave.
  auto op = MakeOp(Direction::kBoth, Direction::kBoth, TypeConstraint::All(),
                   TypeConstraint::All(), TypeConstraint::All());
  ExpectPathsAgree(op, MakeInput({{0, 1}, {4, 3}, {2, 0}, {3, 4}}));
}

TEST_F(IntersectKernelTest, TypedArmsAndVertexTypeFilter) {
  // Arms restricted to E only, target restricted to type V: type-W
  // neighbor 8 (shared by 0 and 1) must be filtered identically.
  auto op = MakeOp(Direction::kOut, Direction::kOut,
                   TypeConstraint::Basic(0), TypeConstraint::Basic(0),
                   TypeConstraint::Basic(0));
  ExpectPathsAgree(op, MakeInput({{0, 1}, {1, 0}, {2, 3}}));
}

TEST_F(IntersectKernelTest, EmptyArmsAndEmptyIntersections) {
  // Vertex 7 is isolated (empty arm); (5, 6) have edges but intersect
  // empty; an empty input batch degenerates cleanly.
  auto op = MakeOp(Direction::kBoth, Direction::kBoth, TypeConstraint::All(),
                   TypeConstraint::All(), TypeConstraint::All());
  ExpectPathsAgree(op, MakeInput({{7, 0}, {0, 7}, {5, 6}, {7, 7}}));
  Kernels vec(&g_), gen(&g_);
  gen.set_vectorize(false);
  Batch empty = MakeInput({});
  EXPECT_EQ(vec.ExpandIntersectBatch(*op, empty).ToRows(),
            gen.ExpandIntersectBatch(*op, empty).ToRows());
}

TEST_F(IntersectKernelTest, MixedDirectionsAndMixedConstraints) {
  auto op = MakeOp(Direction::kIn, Direction::kBoth, TypeConstraint::All(),
                   TypeConstraint::Basic(1), TypeConstraint::All());
  ExpectPathsAgree(op, MakeInput({{4, 0}, {0, 4}, {1, 5}, {2, 2}}));
}

// ---------------------------------------------------------------------------
// ScanBatch fast path
// ---------------------------------------------------------------------------

/// Every row `k` scans for `op`, morsel by morsel.
std::vector<Row> ScanAll(const Kernels& k, const PhysOp& op) {
  std::vector<Row> rows;
  for (const ScanMorsel& m : k.ScanMorsels(op, kDefaultBatchRows)) {
    k.ScanBatch(op, m).AppendRowsTo(&rows);
  }
  return rows;
}

TEST_F(IntersectKernelTest, ScanBatchCompiledPredicatesMatchGeneric) {
  g_.SetVertexProp(0, "score", Value(static_cast<int64_t>(10)));
  g_.SetVertexProp(1, "score", Value(static_cast<int64_t>(20)));
  g_.SetVertexProp(2, "score", Value(static_cast<int64_t>(30)));
  g_.Finalize();  // idempotent (no topology change)

  auto scan = std::make_shared<PhysOp>(PhysOpKind::kScanVertices);
  scan->out_cols = {"x"};
  scan->alias = "x";
  scan->vtc = TypeConstraint::Basic(0);
  scan->vertex_preds.push_back(Expr::MakeBinary(
      BinOp::kGt, Expr::MakeProperty("x", "score"),
      Expr::MakeLiteral(Value(static_cast<int64_t>(15)))));

  Kernels vec(&g_), gen(&g_);
  vec.set_vectorize(true);
  gen.set_vectorize(false);
  EXPECT_EQ(ScanAll(vec, *scan), ScanAll(gen, *scan));
  EXPECT_GT(vec.vectorized_dispatches(), 0u);
  EXPECT_EQ(gen.vectorized_dispatches(), 0u);

  // Store-attached: the property term compiles too (the partition slices
  // copy the base columns), so the scan takes the fast path and matches
  // the generic path over the same store.
  auto store = PartitionedGraph::Build(&g_, PartitionPolicy::kHash, 2);
  Kernels vec_store(&g_, store.get()), gen_store(&g_, store.get());
  gen_store.set_vectorize(false);
  const std::vector<Row> store_rows = ScanAll(vec_store, *scan);
  EXPECT_EQ(store_rows.size(), 2u);  // scores 20 and 30
  EXPECT_EQ(store_rows, ScanAll(gen_store, *scan));
  EXPECT_GT(vec_store.vectorized_dispatches(), 0u);
  EXPECT_EQ(vec_store.generic_dispatches(), 0u);

  // A predicate outside the compilable shape falls back per call and
  // counts as generic even with vectorize on.
  auto hard = std::make_shared<PhysOp>(*scan);
  hard->vertex_preds = {Expr::MakeBinary(
      BinOp::kOr,
      Expr::MakeBinary(BinOp::kEq, Expr::MakeProperty("x", "score"),
                       Expr::MakeLiteral(Value(static_cast<int64_t>(10)))),
      Expr::MakeBinary(BinOp::kEq, Expr::MakeProperty("x", "score"),
                       Expr::MakeLiteral(Value(static_cast<int64_t>(30)))))};
  const uint64_t gen_before = vec.generic_dispatches();
  EXPECT_EQ(ScanAll(vec, *hard), ScanAll(gen, *hard));
  EXPECT_GT(vec.generic_dispatches(), gen_before);
}

// ---------------------------------------------------------------------------
// Engine differential: workloads x vectorize x threads x partitions x
// factorization
// ---------------------------------------------------------------------------

class VectorizedExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ldbc_ = new LdbcGraph(GenerateLdbc(0.05, 123));
    glogue_ = new std::shared_ptr<const Glogue>(
        std::make_shared<Glogue>(Glogue::Build(*ldbc_->graph)));
  }
  static void TearDownTestSuite() {
    delete glogue_;
    delete ldbc_;
    ldbc_ = nullptr;
    glogue_ = nullptr;
  }

  static std::string Q(const std::string& text) {
    return SubstituteParams(text, DefaultParams());
  }

  static std::unique_ptr<GOptEngine> MakeEngine(bool vectorize,
                                                int exec_threads = 1,
                                                int partitions = 0,
                                                FactorizationMode mode =
                                                    FactorizationMode::kOff) {
    EngineOptions opts;
    opts.vectorize = vectorize;
    opts.exec_threads = exec_threads;
    opts.partitions = partitions;
    opts.factorization = mode;
    auto e = std::make_unique<GOptEngine>(ldbc_->graph.get(),
                                          BackendSpec::Neo4jLike(), opts);
    e->SetGlogue(*glogue_);
    return e;
  }

  static LdbcGraph* ldbc_;
  static std::shared_ptr<const Glogue>* glogue_;
};

LdbcGraph* VectorizedExecTest::ldbc_ = nullptr;
std::shared_ptr<const Glogue>* VectorizedExecTest::glogue_ = nullptr;

TEST_F(VectorizedExecTest, DifferentialAllWorkloadsAcrossConfigs) {
  // Reference: vectorize off, sequential, unpartitioned, flat — the fully
  // generic execution. Every other combination must agree bit-for-bit and
  // keep rows_produced parity.
  auto reference = MakeEngine(false, 1, 0, FactorizationMode::kOff);
  struct Config {
    bool vec;
    int threads;
    int partitions;
    FactorizationMode fact;
  };
  std::vector<Config> configs;
  for (bool vec : {true, false}) {
    for (int t : {1, 4}) {
      for (int p : {0, 4}) {
        for (FactorizationMode f :
             {FactorizationMode::kOff, FactorizationMode::kAuto}) {
          if (!vec && t == 1 && p == 0 && f == FactorizationMode::kOff) {
            continue;  // the reference itself
          }
          configs.push_back({vec, t, p, f});
        }
      }
    }
  }
  std::vector<std::unique_ptr<GOptEngine>> engines;
  for (const Config& c : configs) {
    engines.push_back(MakeEngine(c.vec, c.threads, c.partitions, c.fact));
  }
  std::vector<uint64_t> vec_total(configs.size(), 0);
  for (const auto* set : {&IcQueries(), &BiQueries(), &QrQueries(),
                          &QtQueries(), &QcQueries()}) {
    for (const auto& wq : *set) {
      const std::string q = Q(wq.cypher);
      ExecOutcome ref;
      ASSERT_NO_THROW(ref = reference->Run(q)) << wq.name;
      EXPECT_EQ(ref.stats.vec_dispatch, 0u)
          << wq.name << ": vectorize off must never take a fast path";
      for (size_t i = 0; i < configs.size(); ++i) {
        ExecOutcome got;
        ASSERT_NO_THROW(got = engines[i]->Run(q)) << wq.name;
        EXPECT_TRUE(ref.SameRows(got))
            << wq.name << " vec=" << configs[i].vec
            << " threads=" << configs[i].threads
            << " partitions=" << configs[i].partitions
            << " fact=" << (configs[i].fact == FactorizationMode::kOff
                                ? "off"
                                : "auto")
            << ": ref=" << ref.NumRows() << " got=" << got.NumRows();
        EXPECT_EQ(ref.stats.rows_produced, got.stats.rows_produced)
            << wq.name << " vec=" << configs[i].vec
            << " threads=" << configs[i].threads
            << " partitions=" << configs[i].partitions;
        if (configs[i].vec) {
          // Not asserted per query: a plan whose dispatch-aware calls all
          // carry uncompilable predicates legitimately stays generic.
          // Across the workloads every vectorizing engine must take fast
          // paths, though.
          vec_total[i] += got.stats.vec_dispatch;
        } else {
          EXPECT_EQ(got.stats.vec_dispatch, 0u) << wq.name;
        }
      }
    }
  }
  for (size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].vec) {
      EXPECT_GT(vec_total[i], 0u)
          << "threads=" << configs[i].threads
          << " partitions=" << configs[i].partitions;
    }
  }
}

TEST_F(VectorizedExecTest, DispatchCountersAndExplainSurfaceChoice) {
  const std::string q =
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
      "WHERE a.id < 500 RETURN a.id AS i, c.id AS j "
      "ORDER BY i ASC, j ASC LIMIT 20";
  auto on = MakeEngine(true, 4);
  auto off = MakeEngine(false, 4);
  auto prep_on = on->Prepare(q);
  auto prep_off = off->Prepare(q);
  ExecOutcome a = on->Execute(prep_on);
  ExecOutcome b = off->Execute(prep_off);
  ASSERT_TRUE(a.SameRows(b));

  EXPECT_GT(a.stats.vec_dispatch, 0u);
  EXPECT_EQ(b.stats.vec_dispatch, 0u);
  EXPECT_GT(b.stats.gen_dispatch, 0u);
  // Per-pipeline counters sum to the run totals.
  uint64_t vec_sum = 0, gen_sum = 0;
  for (const PipelineStat& p : a.stats.pipelines) {
    vec_sum += p.vec_dispatch;
    gen_sum += p.gen_dispatch;
  }
  EXPECT_EQ(vec_sum, a.stats.vec_dispatch);
  EXPECT_EQ(gen_sum, a.stats.gen_dispatch);

  // Explain: plan annotation and executed dispatch counts.
  const std::string plan_explain = on->Explain(prep_on);
  EXPECT_NE(plan_explain.find("vectorize: on"), std::string::npos)
      << plan_explain;
  EXPECT_NE(plan_explain.find("fast path"), std::string::npos)
      << plan_explain;
  const std::string exec_explain = on->Explain(prep_on, a);
  EXPECT_NE(exec_explain.find("vectorized"), std::string::npos)
      << exec_explain;
  EXPECT_NE(off->Explain(prep_off).find("vectorize: off"), std::string::npos);
}

TEST_F(VectorizedExecTest, HasVectorizedFastPathClassification) {
  EXPECT_TRUE(HasVectorizedFastPath(PhysOpKind::kScanVertices));
  EXPECT_TRUE(HasVectorizedFastPath(PhysOpKind::kSelect));
  EXPECT_TRUE(HasVectorizedFastPath(PhysOpKind::kExpandIntersect));
  EXPECT_FALSE(HasVectorizedFastPath(PhysOpKind::kExpandEdge));
  EXPECT_FALSE(HasVectorizedFastPath(PhysOpKind::kAggregate));
  EXPECT_FALSE(HasVectorizedFastPath(PhysOpKind::kCachedScan));
}

}  // namespace
}  // namespace gopt
