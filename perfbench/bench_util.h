#pragma once

// Pieces of the benchmark driver that its self-test checks on their own:
// the percentile rule, the seeded samplers, the reference-table format, the
// s-t walk-count oracle, and the span recorder.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/result.h"
#include "src/graph/property_graph.h"

namespace perfbench {

// ---------------------------------------------------------------- stats --

/// Nearest-rank value at level `p` in (0, 1] of ascending `sorted`.
inline double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * sorted.size() - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank value at level `p`.
inline size_t SamplesBeyond(size_t n, double p) {
  size_t rank = static_cast<size_t>(std::ceil(p * n - 1e-9));
  return n - std::min(rank, n);
}

/// The tail percentile a timing is reported at: the highest of the fixed
/// levels 0.99, 0.98, 0.95, 0.90, 0.75, 0.50 with at least ten samples
/// beyond it, or 0 when even the median has fewer.
inline double TailLevel(size_t n) {
  for (double p : {0.99, 0.98, 0.95, 0.90, 0.75, 0.50}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0;
}

struct Quantiles {
  size_t n = 0;
  double p50 = 0;
  double tail_level = 0;  ///< TailLevel(n); the level `tail` is taken at
  double tail = 0;        ///< value at tail_level (the max when it is 0)
};

inline Quantiles Summarize(std::vector<double> xs) {
  Quantiles q;
  q.n = xs.size();
  if (xs.empty()) return q;
  std::sort(xs.begin(), xs.end());
  q.p50 = NearestRank(xs, 0.5);
  q.tail_level = TailLevel(xs.size());
  q.tail = q.tail_level > 0 ? NearestRank(xs, q.tail_level) : xs.back();
  return q;
}

// ------------------------------------------------------------- samplers --

/// Zipf-distributed ranks in [0, n): rank 0 is the most frequent.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s, uint64_t seed) : n_(n), s_(s), rng_(seed) {}
  uint64_t Next() { return rng_.NextZipf(n_, s_); }

 private:
  uint64_t n_;
  double s_;
  gopt::Rng rng_;
};

/// A seeded endless stream over indices [0, n): each pass over the pool is
/// a fresh shuffle, so every pass sends each request exactly once.
class ShuffledCycle {
 public:
  ShuffledCycle(size_t n, uint64_t seed) : order_(n), rng_(seed) {
    for (size_t i = 0; i < n; ++i) order_[i] = i;
    pos_ = n;
  }
  size_t Next() {
    if (pos_ == order_.size()) {
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.NextInt(i)]);
      }
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  std::vector<size_t> order_;
  size_t pos_ = 0;
  gopt::Rng rng_;
};

// ------------------------------------------------------ reference tables --
//
// Reference answers are computed in a separate process (so the reference
// engine's memory does not count towards the measured process) and passed
// as text. Every value kind round-trips exactly: doubles in hex-float.

inline void WriteValue(std::ostream& os, const gopt::Value& v) {
  using K = gopt::Value::Kind;
  switch (v.kind()) {
    case K::kNull: os << "N"; break;
    case K::kBool: os << "B" << (v.AsBool() ? 1 : 0); break;
    case K::kInt: os << "I" << v.AsInt(); break;
    case K::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%a", v.AsDouble());
      os << "D" << buf;
      break;
    }
    case K::kString:
      os << "S" << v.AsString().size() << ":" << v.AsString();
      break;
    case K::kVertex: os << "V" << v.AsVertex().id; break;
    case K::kEdge: {
      const auto e = v.AsEdge();
      os << "E" << e.id << "," << e.src << "," << e.dst << "," << e.type;
      break;
    }
    case K::kPath: {
      const auto& p = v.AsPath();
      os << "P" << p.vertices.size();
      for (auto x : p.vertices) os << "," << x;
      os << ";" << p.edges.size();
      for (auto x : p.edges) os << "," << x;
      break;
    }
    case K::kList:
      os << "L" << v.AsList().size();
      for (const auto& e : v.AsList()) {
        os << " ";
        WriteValue(os, e);
      }
      break;
  }
}

inline bool ReadValue(std::istream& is, gopt::Value* out) {
  char tag = 0;
  if (!(is >> tag)) return false;
  switch (tag) {
    case 'N': *out = gopt::Value(); return true;
    case 'B': {
      int b = 0;
      if (!(is >> b)) return false;
      *out = gopt::Value(b != 0);
      return true;
    }
    case 'I': {
      int64_t i = 0;
      if (!(is >> i)) return false;
      *out = gopt::Value(i);
      return true;
    }
    case 'D': {
      std::string tok;
      if (!(is >> tok)) return false;
      *out = gopt::Value(std::strtod(tok.c_str(), nullptr));
      return true;
    }
    case 'S': {
      size_t len = 0;
      char colon = 0;
      if (!(is >> len) || !is.get(colon) || colon != ':') return false;
      std::string s(len, '\0');
      if (len > 0 && !is.read(&s[0], static_cast<std::streamsize>(len))) {
        return false;
      }
      *out = gopt::Value(std::move(s));
      return true;
    }
    case 'V': {
      gopt::VertexRef v;
      if (!(is >> v.id)) return false;
      *out = gopt::Value(v);
      return true;
    }
    case 'E': {
      gopt::EdgeRef e;
      char c1, c2, c3;
      if (!(is >> e.id >> c1 >> e.src >> c2 >> e.dst >> c3 >> e.type)) {
        return false;
      }
      *out = gopt::Value(e);
      return true;
    }
    case 'P': {
      gopt::PathRef p;
      size_t nv = 0, ne = 0;
      char c;
      if (!(is >> nv)) return false;
      p.vertices.resize(nv);
      for (auto& x : p.vertices) {
        if (!(is >> c >> x)) return false;
      }
      if (!(is >> c >> ne)) return false;
      p.edges.resize(ne);
      for (auto& x : p.edges) {
        if (!(is >> c >> x)) return false;
      }
      *out = gopt::Value(std::move(p));
      return true;
    }
    case 'L': {
      size_t n = 0;
      if (!(is >> n)) return false;
      std::vector<gopt::Value> elems(n);
      for (auto& e : elems) {
        if (!ReadValue(is, &e)) return false;
      }
      *out = gopt::Value::List(std::move(elems));
      return true;
    }
    default:
      return false;
  }
}

/// One table: "T <ncols> <nrows>", the column names as strings, then the
/// rows' values, whitespace-separated.
inline void WriteTable(std::ostream& os, const gopt::ResultTable& t) {
  os << "T " << t.columns.size() << " " << t.rows.size();
  for (const auto& c : t.columns) os << " S" << c.size() << ":" << c;
  for (const auto& row : t.rows) {
    for (const auto& v : row) {
      os << " ";
      WriteValue(os, v);
    }
  }
  os << "\n";
}

inline bool ReadTable(std::istream& is, gopt::ResultTable* t) {
  std::string tag;
  size_t ncols = 0, nrows = 0;
  if (!(is >> tag >> ncols >> nrows) || tag != "T") return false;
  t->columns.assign(ncols, "");
  for (auto& c : t->columns) {
    gopt::Value v;
    if (!ReadValue(is, &v) || v.kind() != gopt::Value::Kind::kString) {
      return false;
    }
    c = v.AsString();
  }
  t->rows.assign(nrows, gopt::Row(ncols));
  for (auto& row : t->rows) {
    for (auto& v : row) {
      if (!ReadValue(is, &v)) return false;
    }
  }
  return true;
}

// ---------------------------------------------------- s-t path reference --

/// Reference answer of StQuery(hops, s1, s2) under homomorphism semantics:
/// the number of `hops`-edge walks over `etype` from an account whose id is
/// in s1 to one whose id is in s2, counted by dynamic programming over the
/// edge list (the id property of a generated account is its vertex id).
inline int64_t CountWalks(const gopt::PropertyGraph& g, gopt::TypeId etype,
                          int hops, const std::vector<int64_t>& s1,
                          const std::vector<int64_t>& s2) {
  std::vector<int64_t> cur(g.NumVertices(), 0), next(g.NumVertices(), 0);
  for (int64_t id : s1) cur[static_cast<size_t>(id)] = 1;  // IN is a set
  for (int h = 0; h < hops; ++h) {
    std::fill(next.begin(), next.end(), 0);
    for (gopt::EdgeId e = 0; e < g.NumEdges(); ++e) {
      if (g.EdgeType(e) != etype) continue;
      next[g.EdgeDst(e)] += cur[g.EdgeSrc(e)];
    }
    cur.swap(next);
  }
  std::vector<int64_t> targets = s2;
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  int64_t total = 0;
  for (int64_t id : targets) total += cur[static_cast<size_t>(id)];
  return total;
}

// ---------------------------------------------------------------- spans --

using Clock = std::chrono::steady_clock;

/// In-memory span recorder of the traced run: spans are appended while the
/// run measures and written out once it ends. Children are recorded either
/// live (Begin/End) or, for intervals a layer reports as a duration only
/// (planner passes, pipelines, queue wait), with Add.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0;  ///< since the tracer's origin
    double end_us = 0;
    int parent = -1;
    uint64_t request = 0;
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  /// Add, Begin and End may be called from several client threads.
  int Add(std::string name, double start_us, double end_us, int parent,
          uint64_t request) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start_us, end_us, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  int Begin(std::string name, int parent, uint64_t request) {
    return Add(std::move(name), Us(Clock::now()), 0, parent, request);
  }
  void End(int id) {
    const double end_us = Us(Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_us = end_us;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the union of its
  /// children's intervals (clipped to the span).
  std::vector<double> SelfUs() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const auto& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<size_t>(s.parent)].push_back({s.start_us, s.end_us});
      }
    }
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0, lo = 0, hi = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_us);
        b = std::min(b, s.end_us);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
      self[i] = (s.end_us - s.start_us) - covered;
    }
    return self;
  }

  void WriteJson(std::ostream& os) const {
    os << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                    "\"end_us\":%.3f,\"parent\":%d,\"request\":%llu}%s\n",
                    i, s.name.c_str(), s.start_us, s.end_us, s.parent,
                    static_cast<unsigned long long>(s.request),
                    i + 1 < spans_.size() ? "," : "");
      os << buf;
    }
    os << "]\n";
  }

 private:
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
