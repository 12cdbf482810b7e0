// Self-tests of the benchmark driver's own logic. Run with
//   python3 perfbench/run.py --selftest
// Exits nonzero when any check fails.

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"
#include "perfbench/workloads.h"
#include "src/engine/engine.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

using namespace perfbench;

void TestPercentileRule() {
  // The tail is the highest level with at least ten samples beyond it.
  Check(TailLevel(1000) == 0.99, "1000 samples: p99 has 10 beyond");
  Check(TailLevel(999) == 0.98, "999 samples: p99 has 9 beyond, so p98");
  Check(TailLevel(200) == 0.95, "200 samples: p95");
  Check(TailLevel(20) == 0.5, "20 samples: only the median");
  Check(TailLevel(19) == 0, "19 samples: no level qualifies");
  for (size_t n : {10u, 57u, 100u, 999u, 1000u, 5000u}) {
    const double p = TailLevel(n);
    Check(p == 0 || SamplesBeyond(n, p) >= 10,
          "level chosen for n=" + std::to_string(n) + " has >= 10 beyond");
  }
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  Check(NearestRank(xs, 0.99) == 990, "nearest rank p99 of 1..1000 is 990");
  Check(NearestRank(xs, 0.5) == 500, "nearest rank p50 of 1..1000 is 500");
  const Quantiles q = Summarize(xs);
  Check(q.n == 1000 && q.tail == 990 && q.p50 == 500, "Summarize of 1..1000");
}

void TestSamplersDeterministic() {
  auto zipf = [](uint64_t seed) {
    ZipfSampler z(16, 1.0, seed);
    std::vector<uint64_t> out;
    for (int i = 0; i < 200; ++i) out.push_back(z.Next());
    return out;
  };
  Check(zipf(3) == zipf(3), "Zipf sampler: same seed, same ranks");
  Check(zipf(3) != zipf(4), "Zipf sampler: another seed, other ranks");
  const auto ranks = zipf(3);
  size_t top = 0;
  for (auto r : ranks) top += r == 0;
  Check(top > ranks.size() / 8, "Zipf sampler: rank 0 is the most frequent");

  auto cycle = [](uint64_t seed) {
    ShuffledCycle c(10, seed);
    std::vector<size_t> out;
    for (int i = 0; i < 30; ++i) out.push_back(c.Next());
    return out;
  };
  Check(cycle(5) == cycle(5), "request cycle: same seed, same order");
  auto first = cycle(5);
  std::vector<size_t> pass(first.begin(), first.begin() + 10);
  std::sort(pass.begin(), pass.end());
  bool perm = true;
  for (size_t i = 0; i < 10; ++i) perm = perm && pass[i] == i;
  Check(perm, "request cycle: each pass sends every request once");

  // The parameter pools: every workload's distinct requests are a pure
  // function of the seed.
  for (const auto& w : Workloads()) {
    auto g = GenerateGraph(w.kind);
    auto texts = [&](uint64_t seed) {
      std::vector<std::string> out;
      for (const auto& r : BuildPool(w.kind, *g, seed)) out.push_back(r.text);
      return out;
    };
    Check(texts(1) == texts(1),
          std::string(w.name) + ": same seed, same requests");
    Check(texts(1) != texts(2),
          std::string(w.name) + ": another seed, other requests");
  }
}

gopt::ResultTable Table() {
  gopt::ResultTable t;
  t.columns = {"id", "name", "score", "v"};
  for (int i = 0; i < 5; ++i) {
    t.rows.push_back({gopt::Value(static_cast<int64_t>(i)),
                      gopt::Value("name " + std::to_string(i)),
                      gopt::Value(0.1 * i), gopt::Value(gopt::VertexRef{
                                                static_cast<uint64_t>(i)})});
  }
  return t;
}

void TestGate() {
  const gopt::ResultTable ref = Table();
  std::stringstream ss;
  WriteTable(ss, ref);
  gopt::ResultTable back;
  Check(ReadTable(ss, &back), "reference table parses back");
  Check(back.SameRows(ref), "gate accepts the round-tripped table");
  gopt::ResultTable shuffled = ref;
  std::reverse(shuffled.rows.begin(), shuffled.rows.end());
  Check(shuffled.SameRows(ref), "gate accepts the rows in another order");
  gopt::ResultTable altered = ref;
  altered.rows[2][2] = gopt::Value(0.2000001);
  Check(!altered.SameRows(ref), "gate rejects an altered value");
  gopt::ResultTable dropped = ref;
  dropped.rows.pop_back();
  Check(!dropped.SameRows(ref), "gate rejects a missing row");
  gopt::ResultTable renamed = ref;
  renamed.columns[1] = "label";
  Check(!renamed.SameRows(ref), "gate rejects a renamed column");
}

void TestWalkOracle() {
  // The s-t reference must agree with the reference engine where the
  // latter is cheap enough to run.
  auto fraud = gopt::GenerateFraud(40, 3.0, 7);
  const auto& g = *fraud.graph;
  gopt::EngineOptions ro;
  ro.mode = gopt::PlannerMode::kNoOpt;
  ro.enable_plan_cache = false;
  gopt::GOptEngine ref(&g, gopt::BackendSpec::Neo4jLike(), ro);
  const auto transfer = *g.schema().FindEdgeType("TRANSFER");
  gopt::Rng rng(3);
  bool all = true;
  for (int q = 0; q < 6; ++q) {
    std::vector<int64_t> s1, s2;
    for (int i = 0; i < 4; ++i) s1.push_back(rng.NextInt(40));
    for (int i = 0; i < 5; ++i) s2.push_back(rng.NextInt(40));
    const auto out = ref.Run(gopt::StQuery(kStHops, s1, s2));
    const int64_t expect = CountWalks(g, transfer, kStHops, s1, s2);
    all = all && out.NumRows() == 1 && out.table().rows[0][0].AsInt() == expect;
  }
  Check(all, "walk-count oracle equals the reference engine on 6-hop ST");
}

void TestSelfTime() {
  Tracer t(Clock::now());
  const int root = t.Add("root", 0, 100, -1, 1);
  t.Add("a", 10, 30, root, 1);
  t.Add("b", 20, 50, root, 1);
  t.Add("c", 90, 120, root, 1);
  const auto self = t.SelfUs();
  Check(self[0] == 50, "self time subtracts the union of child intervals");
  Check(self[1] == 20, "a leaf's self time is its duration");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSamplersDeterministic();
  TestGate();
  TestWalkOracle();
  TestSelfTime();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
