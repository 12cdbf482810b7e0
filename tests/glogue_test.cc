// Tests for GLogue motif statistics and GlogueQuery cardinality estimation,
// including the paper's worked Example 6.2 (Fig. 6) and exactness checks
// against the naive homomorphism oracle.
#include <gtest/gtest.h>

#include <cmath>

#include "src/exec/naive_matcher.h"
#include "src/ldbc/ldbc.h"
#include "src/meta/glogue_query.h"
#include "src/meta/pattern_code.h"

namespace gopt {
namespace {

/// The exact GLogue of the paper's Fig. 6(a): Person:10, Product:20,
/// Place:5; Knows:40, ProducedIn:20, Purchases:30, LocatedIn:10.
Glogue PaperGlogue(const GraphSchema& s) {
  TypeId person = *s.FindVertexType("Person");
  TypeId product = *s.FindVertexType("Product");
  TypeId place = *s.FindVertexType("Place");
  TypeId knows = *s.FindEdgeType("Knows");
  TypeId purchases = *s.FindEdgeType("Purchases");
  TypeId located = *s.FindEdgeType("LocatedIn");
  TypeId produced = *s.FindEdgeType("ProducedIn");
  std::map<std::tuple<TypeId, TypeId, TypeId>, double> triples = {
      {{person, knows, person}, 40},
      {{person, purchases, product}, 30},
      {{person, located, place}, 10},
      {{product, produced, place}, 20},
  };
  return Glogue::FromLowOrderStats(s, {10, 20, 5}, triples);
}

TEST(GlogueQuery, PaperExample62) {
  GraphSchema s = MakePaperSchema();
  Glogue gl = PaperGlogue(s);
  GlogueQuery gq(&gl, &s, /*high_order=*/true);

  TypeId person = *s.FindVertexType("Person");
  TypeId product = *s.FindVertexType("Product");
  TypeId place = *s.FindVertexType("Place");
  TypeId knows = *s.FindEdgeType("Knows");
  TypeId purchases = *s.FindEdgeType("Purchases");
  TypeId located = *s.FindEdgeType("LocatedIn");
  TypeId produced = *s.FindEdgeType("ProducedIn");

  // Source pattern Ps (Fig. 6b): (v1:Person)-[Knows|Purchases]->
  // (v2:Person|Product). F = 40 + 30 = 70.
  Pattern ps;
  int v1 = ps.AddVertex("v1", TypeConstraint::Basic(person));
  int v2 = ps.AddVertex("v2", TypeConstraint::Union({person, product}));
  ps.AddEdge(v1, v2, "e1", TypeConstraint::Union({knows, purchases}));
  EXPECT_DOUBLE_EQ(gq.RawFreq(ps), 70.0);

  // Expand e2 = (v2)-[LocatedIn|ProducedIn]->(v3:Place): sigma = 1.0
  // (paper Fig. 6c).
  Pattern p1 = ps;
  int v3 = p1.AddVertex("v3", TypeConstraint::Basic(place));
  int e2 = p1.AddEdge(v2, v3, "e2", TypeConstraint::Union({located, produced}));
  EXPECT_NEAR(gq.ExpandRatio(p1, p1.EdgeById(e2), v2, /*closes=*/false), 1.0,
              1e-9);

  // Expand e3 = (v1)-[LocatedIn]->(v3), closing: sigma = 10/(10*5) = 0.2
  // (paper Fig. 6d); F_Pt = 70 * 1.0 * 0.2 = 14.
  Pattern pt = p1;
  int e3 = pt.AddEdge(v1, v3, "e3", TypeConstraint::Basic(located));
  EXPECT_NEAR(gq.ExpandRatio(pt, pt.EdgeById(e3), v1, /*closes=*/true), 0.2,
              1e-9);
  EXPECT_NEAR(gq.RawFreq(pt), 14.0, 1e-6);
}

TEST(Glogue, LowOrderFrequencies) {
  auto ldbc = GenerateLdbc(0.05, 5);
  const auto& g = *ldbc.graph;
  Glogue gl = Glogue::Build(g);
  TypeId person = *g.schema().FindVertexType("Person");
  TypeId knows = *g.schema().FindEdgeType("KNOWS");
  EXPECT_DOUBLE_EQ(gl.VertexTypeFreq(person),
                   static_cast<double>(g.NumVerticesOfType(person)));
  EXPECT_DOUBLE_EQ(gl.EdgeTypeFreq(knows),
                   static_cast<double>(g.NumEdgesOfType(knows)));
  EXPECT_DOUBLE_EQ(gl.EdgeTripleFreq(person, knows, person),
                   static_cast<double>(g.NumEdgesOfType(knows)));
}

/// Builds a small typed pattern.
Pattern MakePattern(const GraphSchema& s,
                    std::vector<const char*> vtypes,
                    std::vector<std::tuple<int, int, const char*>> edges) {
  Pattern p;
  std::vector<int> ids;
  for (const char* vt : vtypes) {
    ids.push_back(p.AddVertex("v" + std::to_string(ids.size()),
                              TypeConstraint::Basic(*s.FindVertexType(vt))));
  }
  int i = 0;
  for (auto [a, b, et] : edges) {
    p.AddEdge(ids[static_cast<size_t>(a)], ids[static_cast<size_t>(b)],
              "e" + std::to_string(i++),
              TypeConstraint::Basic(*s.FindEdgeType(et)));
  }
  return p;
}

TEST(Glogue, WedgeCountsMatchOracle) {
  auto ldbc = GenerateLdbc(0.03, 5);
  const auto& g = *ldbc.graph;
  Glogue gl = Glogue::Build(g);
  GlogueQuery gq(&gl, &g.schema(), true);
  // Wedge: Person <-KNOWS- Person -KNOWS-> Person (out-out from middle).
  Pattern wedge = MakePattern(g.schema(), {"Person", "Person", "Person"},
                              {{0, 1, "KNOWS"}, {0, 2, "KNOWS"}});
  auto oracle =
      NaiveMatch(g, wedge, {"v0", "v1", "v2"});
  EXPECT_DOUBLE_EQ(gq.RawFreq(wedge), static_cast<double>(oracle.NumRows()));
}

TEST(Glogue, MixedTypeWedgeMatchesOracle) {
  auto ldbc = GenerateLdbc(0.03, 5);
  const auto& g = *ldbc.graph;
  Glogue gl = Glogue::Build(g);
  GlogueQuery gq(&gl, &g.schema(), true);
  Pattern wedge = MakePattern(g.schema(), {"Person", "Person", "Place"},
                              {{0, 1, "KNOWS"}, {1, 2, "IS_LOCATED_IN"}});
  auto oracle = NaiveMatch(g, wedge, {"v0", "v1", "v2"});
  EXPECT_DOUBLE_EQ(gq.RawFreq(wedge), static_cast<double>(oracle.NumRows()));
}

TEST(Glogue, TriangleCountsMatchOracle) {
  auto ldbc = GenerateLdbc(0.03, 5);
  const auto& g = *ldbc.graph;
  Glogue gl = Glogue::Build(g);
  GlogueQuery gq(&gl, &g.schema(), true);
  Pattern tri = MakePattern(
      g.schema(), {"Person", "Person", "Person"},
      {{0, 1, "KNOWS"}, {1, 2, "KNOWS"}, {0, 2, "KNOWS"}});
  auto oracle = NaiveMatch(g, tri, {"v0", "v1", "v2"});
  EXPECT_DOUBLE_EQ(gq.RawFreq(tri), static_cast<double>(oracle.NumRows()));
}

TEST(Glogue, UnionTypeEnumerationMatchesOracle) {
  auto ldbc = GenerateLdbc(0.03, 5);
  const auto& g = *ldbc.graph;
  const auto& s = g.schema();
  Glogue gl = Glogue::Build(g);
  GlogueQuery gq(&gl, &s, true);
  // (p:Person)-[:LIKES]->(m:Post|Comment)-[:HAS_CREATOR]->(q:Person):
  // in-range union pattern answered by motif enumeration (exact).
  Pattern p;
  int a = p.AddVertex("a", TypeConstraint::Basic(*s.FindVertexType("Person")));
  int m = p.AddVertex(
      "m", TypeConstraint::Union(
               {*s.FindVertexType("Post"), *s.FindVertexType("Comment")}));
  int q = p.AddVertex("q", TypeConstraint::Basic(*s.FindVertexType("Person")));
  p.AddEdge(a, m, "e0", TypeConstraint::Basic(*s.FindEdgeType("LIKES")));
  p.AddEdge(m, q, "e1", TypeConstraint::Basic(*s.FindEdgeType("HAS_CREATOR")));
  auto oracle = NaiveMatch(g, p, {"a", "m", "q"});
  EXPECT_DOUBLE_EQ(gq.RawFreq(p), static_cast<double>(oracle.NumRows()));
}

TEST(Glogue, LargerPatternEstimateIsReasonable) {
  auto ldbc = GenerateLdbc(0.05, 5);
  const auto& g = *ldbc.graph;
  Glogue gl = Glogue::Build(g);
  GlogueQuery gq(&gl, &g.schema(), true);
  // 4-vertex path (out of motif range): estimated via Eq.1/Eq.2; should be
  // within an order of magnitude of the truth.
  Pattern p = MakePattern(
      g.schema(), {"Person", "Person", "Person", "Place"},
      {{0, 1, "KNOWS"}, {1, 2, "KNOWS"}, {2, 3, "IS_LOCATED_IN"}});
  auto oracle = NaiveMatch(g, p, {"v0"});
  double est = gq.RawFreq(p);
  double truth = static_cast<double>(oracle.NumRows());
  ASSERT_GT(truth, 0);
  EXPECT_GT(est, truth / 10);
  EXPECT_LT(est, truth * 10);
}

TEST(Glogue, HighOrderBeatsLowOrderOnTriangles) {
  auto ldbc = GenerateLdbc(0.05, 5);
  const auto& g = *ldbc.graph;
  Glogue gl = Glogue::Build(g);
  GlogueQuery high(&gl, &g.schema(), true);
  GlogueQuery low(&gl, &g.schema(), false);
  Pattern tri = MakePattern(
      g.schema(), {"Person", "Person", "Person"},
      {{0, 1, "KNOWS"}, {1, 2, "KNOWS"}, {0, 2, "KNOWS"}});
  double truth = static_cast<double>(NaiveMatch(g, tri, {"v0"}).NumRows());
  double err_high = std::abs(std::log((high.RawFreq(tri) + 1) / (truth + 1)));
  double err_low = std::abs(std::log((low.RawFreq(tri) + 1) / (truth + 1)));
  EXPECT_LE(err_high, err_low);
  EXPECT_DOUBLE_EQ(high.RawFreq(tri), truth);  // exact within motif range
}

TEST(Glogue, SparsificationApproximatesExactCounts) {
  auto ldbc = GenerateLdbc(0.2, 5);
  const auto& g = *ldbc.graph;
  Glogue exact = Glogue::Build(g);
  GlogueOptions opts;
  opts.edge_sample_rate = 0.5;
  Glogue sampled = Glogue::Build(g, opts);
  GlogueQuery gq_e(&exact, &g.schema(), true);
  GlogueQuery gq_s(&sampled, &g.schema(), true);
  Pattern wedge = MakePattern(g.schema(), {"Person", "Person", "Person"},
                              {{0, 1, "KNOWS"}, {1, 2, "KNOWS"}});
  double fe = gq_e.RawFreq(wedge);
  double fs = gq_s.RawFreq(wedge);
  EXPECT_GT(fs, fe * 0.4);
  EXPECT_LT(fs, fe * 2.5);
}

TEST(Glogue, SelectivityMultipliesIntoGetFreq) {
  GraphSchema s = MakePaperSchema();
  Glogue gl = PaperGlogue(s);
  GlogueQuery gq(&gl, &s, true);
  Pattern p;
  int v = p.AddVertex("v", TypeConstraint::Basic(*s.FindVertexType("Person")));
  p.VertexById(v).selectivity = 0.1;
  EXPECT_NEAR(gq.GetFreq(p), 1.0, 1e-9);  // 10 * 0.1
}

TEST(PatternCode, IsomorphicPatternsShareCode) {
  GraphSchema s = MakePaperSchema();
  TypeId person = *s.FindVertexType("Person");
  TypeId knows = *s.FindEdgeType("Knows");
  // Same triangle built with different vertex orders and ids.
  Pattern p1, p2;
  int a1 = p1.AddVertex("a", TypeConstraint::Basic(person), 5);
  int b1 = p1.AddVertex("b", TypeConstraint::Basic(person), 9);
  int c1 = p1.AddVertex("c", TypeConstraint::Basic(person), 2);
  p1.AddEdge(a1, b1, "", TypeConstraint::Basic(knows));
  p1.AddEdge(b1, c1, "", TypeConstraint::Basic(knows));
  p1.AddEdge(a1, c1, "", TypeConstraint::Basic(knows));

  int c2 = p2.AddVertex("x", TypeConstraint::Basic(person), 0);
  int a2 = p2.AddVertex("y", TypeConstraint::Basic(person), 1);
  int b2 = p2.AddVertex("z", TypeConstraint::Basic(person), 2);
  p2.AddEdge(a2, b2, "", TypeConstraint::Basic(knows));
  p2.AddEdge(b2, c2, "", TypeConstraint::Basic(knows));
  p2.AddEdge(a2, c2, "", TypeConstraint::Basic(knows));

  EXPECT_EQ(CanonicalPatternCode(p1), CanonicalPatternCode(p2));
}

TEST(PatternCode, DirectionMatters) {
  GraphSchema s = MakePaperSchema();
  TypeId person = *s.FindVertexType("Person");
  TypeId knows = *s.FindEdgeType("Knows");
  Pattern path_out, path_in;
  {
    int a = path_out.AddVertex("a", TypeConstraint::Basic(person));
    int b = path_out.AddVertex("b", TypeConstraint::Basic(person));
    int c = path_out.AddVertex("c", TypeConstraint::Basic(person));
    path_out.AddEdge(a, b, "", TypeConstraint::Basic(knows));
    path_out.AddEdge(b, c, "", TypeConstraint::Basic(knows));
  }
  {
    int a = path_in.AddVertex("a", TypeConstraint::Basic(person));
    int b = path_in.AddVertex("b", TypeConstraint::Basic(person));
    int c = path_in.AddVertex("c", TypeConstraint::Basic(person));
    path_in.AddEdge(a, b, "", TypeConstraint::Basic(knows));
    path_in.AddEdge(c, b, "", TypeConstraint::Basic(knows));  // reversed
  }
  EXPECT_NE(CanonicalPatternCode(path_out), CanonicalPatternCode(path_in));
}

TEST(PatternCode, TypesMatter) {
  GraphSchema s = MakePaperSchema();
  TypeId person = *s.FindVertexType("Person");
  TypeId product = *s.FindVertexType("Product");
  Pattern p1, p2;
  p1.AddVertex("", TypeConstraint::Basic(person));
  p2.AddVertex("", TypeConstraint::Basic(product));
  EXPECT_NE(CanonicalPatternCode(p1), CanonicalPatternCode(p2));
  Pattern pu, pa;
  pu.AddVertex("", TypeConstraint::Union({person, product}));
  pa.AddVertex("", TypeConstraint::All());
  EXPECT_NE(CanonicalPatternCode(pu), CanonicalPatternCode(pa));
}

TEST(PatternCode, PredicateModeDistinguishes) {
  GraphSchema s = MakePaperSchema();
  TypeId person = *s.FindVertexType("Person");
  Pattern p1, p2;
  p1.AddVertex("a", TypeConstraint::Basic(person));
  int v = p2.AddVertex("a", TypeConstraint::Basic(person));
  p2.VertexById(v).selectivity = 0.1;
  EXPECT_EQ(CanonicalPatternCode(p1, false), CanonicalPatternCode(p2, false));
  EXPECT_NE(CanonicalPatternCode(p1, true), CanonicalPatternCode(p2, true));
}

/// A star: a center with `leaves` out-edges to same-typed leaves, built
/// with vertex ids shifted by `id_base`, the center listed first or last.
Pattern Star(const GraphSchema& s, int leaves, int id_base, bool center_first) {
  TypeId person = *s.FindVertexType("Person");
  TypeId knows = *s.FindEdgeType("Knows");
  Pattern p;
  const int center = id_base + 100;
  if (center_first) p.AddVertex("c", TypeConstraint::Basic(person), center);
  for (int i = leaves; i-- > 0;) {
    p.AddVertex("l" + std::to_string(i), TypeConstraint::Basic(person),
                id_base + i);
  }
  if (!center_first) p.AddVertex("c", TypeConstraint::Basic(person), center);
  for (int i = 0; i < leaves; ++i) {
    p.AddEdge(center, id_base + i, "", TypeConstraint::Basic(knows));
  }
  return p;
}

TEST(PatternCode, EqualExactFormsShareCanonicalCode) {
  GraphSchema s = MakePaperSchema();
  // Eight interchangeable leaves exceed the permutation bound, so the
  // canonical code falls back to id order; equal forms must still agree.
  for (int leaves : {3, 8}) {
    Pattern a = Star(s, leaves, 0, true);
    Pattern b = Star(s, leaves, 40, false);
    EXPECT_EQ(ExactPatternForm(a), ExactPatternForm(b)) << leaves;
    EXPECT_EQ(CanonicalPatternCode(a), CanonicalPatternCode(b)) << leaves;
  }
  // Aliases, edge ids and predicates are not part of the form; direction
  // and types are.
  Pattern named = Star(s, 3, 0, true);
  named.mutable_edges()[0].alias = "e";
  named.mutable_vertices()[0].selectivity = 0.5;
  EXPECT_EQ(ExactPatternForm(named), ExactPatternForm(Star(s, 3, 0, true)));
  Pattern flipped = Star(s, 3, 0, true);
  std::swap(flipped.mutable_edges()[0].src, flipped.mutable_edges()[0].dst);
  EXPECT_NE(ExactPatternForm(flipped), ExactPatternForm(Star(s, 3, 0, true)));
  Pattern retyped = Star(s, 3, 0, true);
  retyped.mutable_vertices()[1].tc =
      TypeConstraint::Basic(*s.FindVertexType("Product"));
  EXPECT_NE(ExactPatternForm(retyped), ExactPatternForm(Star(s, 3, 0, true)));
}

TEST(GlogueQuery, ExactFormHitsReturnTheCanonicalValue) {
  GraphSchema s = MakePaperSchema();
  Glogue gl = PaperGlogue(s);
  GlogueQuery gq(&gl, &s, true);
  // A relabeled copy misses the exact-form index but hits the canonical
  // memo; repeats then hit the index. All three answers are one value.
  const double first = gq.RawFreq(Star(s, 4, 0, true));
  const size_t codes = gq.CacheSize();
  EXPECT_EQ(gq.RawFreq(Star(s, 4, 7, false)), first);
  EXPECT_EQ(gq.RawFreq(Star(s, 4, 0, true)), first);
  EXPECT_EQ(gq.CacheSize(), codes);
}

}  // namespace
}  // namespace gopt
