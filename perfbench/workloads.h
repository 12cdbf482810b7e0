#pragma once

// The benchmark's workloads: which graph each one runs on and the pool of
// distinct requests its stream is drawn from. Everything here is a pure
// function of the workload and --seed.

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/ldbc/ldbc.h"
#include "src/opt/pipeline/planner_options.h"
#include "src/workloads/queries.h"

namespace perfbench {

using gopt::Language;

constexpr double kLdbcScale = 0.5;       // ldbc-* and serve-zipf
constexpr double kPlanColdScale = 0.1;   // plan-cold: planning dominates
constexpr uint64_t kLdbcGraphSeed = 42;  // the datasets are fixed; --seed
constexpr uint64_t kFraudGraphSeed = 7;  // draws the request streams
constexpr size_t kFraudAccounts = 3000;
constexpr double kFraudDegree = 8.0;
constexpr int kStHops = 6;
constexpr size_t kParamDrawsPerShape = 4;  // distinct requests per shape
constexpr size_t kStQueriesPerCase = 40;
constexpr size_t kServePersons = 16;  // Zipf ranks of personId

// ------------------------------------------------------------ workloads --

enum class Kind { kLdbcNeo4j, kLdbcGraphScope, kPlanCold, kStPath, kServe };

struct WorkloadInfo {
  const char* name;
  Kind kind;
  const char* model;  ///< load model, as recorded in the run record
};

inline const std::vector<WorkloadInfo>& Workloads() {
  static const std::vector<WorkloadInfo> kAll = {
      {"ldbc-neo4j", Kind::kLdbcNeo4j, "closed loop, 1 client"},
      {"ldbc-graphscope", Kind::kLdbcGraphScope, "closed loop, 1 client"},
      {"plan-cold", Kind::kPlanCold, "closed loop, 1 client per engine thread"},
      {"stpath-morsel", Kind::kStPath, "closed loop, 1 client"},
      {"serve-zipf", Kind::kServe, "open loop, 3 fixed offered rates"},
  };
  return kAll;
}

/// One distinct request: a query shape, its text with parameters filled
/// in, and its language. ST queries also keep their id sets for the
/// walk-count reference.
struct Request {
  std::string shape;
  std::string text;
  Language lang = Language::kCypher;
  std::vector<int64_t> s1, s2;
};

/// Values present in the generated LDBC graph that query parameters are
/// drawn from.
struct LdbcPools {
  std::vector<std::string> person_ids, first_names, countries, cities, tags,
      tag_classes;

  explicit LdbcPools(const gopt::PropertyGraph& g) {
    const auto& schema = g.schema();
    auto strings = [&](const char* type, const char* prop,
                       const char* kind_filter) {
      std::set<std::string> out;
      auto t = schema.FindVertexType(type);
      for (auto v : g.VerticesOfType(*t)) {
        if (kind_filter &&
            g.GetVertexProp(v, "type").ToString() != kind_filter) {
          continue;
        }
        out.insert(g.GetVertexProp(v, prop).ToString());
      }
      return std::vector<std::string>(out.begin(), out.end());
    };
    person_ids = strings("Person", "id", nullptr);
    first_names = strings("Person", "firstName", nullptr);
    countries = strings("Place", "name", "country");
    cities = strings("Place", "name", "city");
    tags = strings("Tag", "name", nullptr);
    tag_classes = strings("TagClass", "name", nullptr);
  }

  std::map<std::string, std::string> Draw(gopt::Rng* rng,
                                          const std::string* person) const {
    auto pick = [&](const std::vector<std::string>& pool) {
      return pool[rng->NextInt(pool.size())];
    };
    auto date = [&](int lo_year, int hi_year) {
      return std::to_string(rng->NextRange(lo_year, hi_year)) + "0101";
    };
    std::map<std::string, std::string> p;
    p["personId"] = person ? *person : pick(person_ids);
    p["firstName"] = pick(first_names);
    p["minDate"] = date(2010, 2016);
    p["maxDate"] = date(2017, 2022);
    p["minBirthday"] = date(1960, 2000);
    p["country"] = pick(countries);
    p["city"] = pick(cities);
    p["city2"] = pick(cities);
    p["tagName"] = pick(tags);
    p["tagName2"] = pick(tags);
    p["tagClass"] = pick(tag_classes);
    return p;
  }
};

/// The distinct requests of a workload, drawn from `seed`. Timed requests
/// are drawn from this pool, so the correctness gate covers all of them.
inline std::vector<Request> BuildPool(Kind kind, const gopt::PropertyGraph& g,
                                      uint64_t seed) {
  gopt::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<Request> pool;
  auto add = [&](const gopt::WorkloadQuery& q,
                 const std::map<std::string, std::string>& params) {
    pool.push_back({q.name, gopt::SubstituteParams(q.cypher, params),
                    Language::kCypher, {}, {}});
    if (kind == Kind::kPlanCold && !q.gremlin.empty()) {
      pool.push_back({q.name + "/gremlin",
                      gopt::SubstituteParams(q.gremlin, params),
                      Language::kGremlin, {}, {}});
    }
  };
  switch (kind) {
    case Kind::kLdbcNeo4j:
    case Kind::kLdbcGraphScope: {
      LdbcPools pools(g);
      std::vector<gopt::WorkloadQuery> shapes = gopt::IcQueries();
      for (const auto& q : gopt::BiQueries()) shapes.push_back(q);
      for (const auto& q : shapes) {
        for (size_t i = 0; i < kParamDrawsPerShape; ++i) {
          add(q, pools.Draw(&rng, nullptr));
        }
      }
      break;
    }
    case Kind::kServe: {
      // personId ranks: kServePersons distinct persons; the stream draws
      // a rank per request from a Zipf distribution.
      LdbcPools pools(g);
      std::vector<std::string> persons;
      std::set<std::string> seen;
      while (persons.size() < kServePersons) {
        const auto& p = pools.person_ids[rng.NextInt(pools.person_ids.size())];
        if (seen.insert(p).second) persons.push_back(p);
      }
      for (const auto& q : gopt::IcQueries()) {
        for (const auto& person : persons) add(q, pools.Draw(&rng, &person));
      }
      break;
    }
    case Kind::kPlanCold: {
      LdbcPools pools(g);
      std::vector<gopt::WorkloadQuery> shapes = gopt::QrQueries();
      for (const auto& q : gopt::QtQueries()) shapes.push_back(q);
      for (const auto& q : gopt::QcQueries()) shapes.push_back(q);
      for (const auto& q : shapes) {
        for (size_t i = 0; i < kParamDrawsPerShape; ++i) {
          add(q, pools.Draw(&rng, nullptr));
        }
      }
      break;
    }
    case Kind::kStPath: {
      // The |S1|,|S2| mix of the s-t path case study.
      const std::pair<int, int> cases[] = {
          {2, 40}, {40, 2}, {6, 6}, {20, 3}, {3, 30}};
      for (const auto& [n1, n2] : cases) {
        for (size_t i = 0; i < kStQueriesPerCase; ++i) {
          Request r;
          r.shape = "ST(" + std::to_string(n1) + "," + std::to_string(n2) + ")";
          for (int k = 0; k < n1; ++k) {
            r.s1.push_back(static_cast<int64_t>(rng.NextInt(g.NumVertices())));
          }
          for (int k = 0; k < n2; ++k) {
            r.s2.push_back(static_cast<int64_t>(rng.NextInt(g.NumVertices())));
          }
          r.text = gopt::StQuery(kStHops, r.s1, r.s2);
          pool.push_back(std::move(r));
        }
      }
      break;
    }
  }
  return pool;
}

inline std::shared_ptr<gopt::PropertyGraph> GenerateGraph(Kind kind) {
  switch (kind) {
    case Kind::kPlanCold:
      return gopt::GenerateLdbc(kPlanColdScale, kLdbcGraphSeed).graph;
    case Kind::kStPath:
      return gopt::GenerateFraud(kFraudAccounts, kFraudDegree, kFraudGraphSeed)
          .graph;
    default:
      return gopt::GenerateLdbc(kLdbcScale, kLdbcGraphSeed).graph;
  }
}

}  // namespace perfbench
