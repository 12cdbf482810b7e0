// The repository benchmark driver: one workload per invocation, from query
// text to result table through the public API (GOptEngine, and
// ServingEngine on serve-zipf). See perfbench/README.md for the workloads
// and metrics, and perfbench/run.py for the command that builds and runs
// it.
//
// A run has two processes. The first (--reference-out) computes the
// reference answer of every distinct request of the workload and writes
// them to a file; the second (--reference-in) sets up the system under
// test several times, checks every distinct request against those answers
// (the correctness gate), then measures for --seconds and prints the
// report, ending with one JSON line.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench_util.h"
#include "perfbench/workloads.h"
#include "src/engine/engine.h"
#include "src/lang/parameterize.h"
#include "src/ldbc/ldbc.h"
#include "src/meta/glogue.h"
#include "src/serve/serving.h"
#include "src/workloads/queries.h"

namespace perfbench {
namespace {

using gopt::BackendSpec;
using gopt::EngineOptions;
using gopt::ExecOutcome;
using gopt::ExecStatus;
using gopt::GOptEngine;
using gopt::Language;
using gopt::ResultTable;

// ------------------------------------------------------------ constants --

constexpr int kSetupRepeats = 5;
constexpr size_t kWindowRequests = 1000;  // p99 needs 1000 samples
constexpr size_t kMaxSamples = 1 << 18;   // reserved per phase
constexpr double kServeZipfS = 1.0;
constexpr double kServeLimitMs = 50;  // p99 latency limit of goodput
constexpr size_t kResultCacheBytes = 1 << 20;

/// The thread budget: at most min(nproc, 4) threads in total.
int Threads() {
  unsigned hc = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hc, 1u, 4u));
}

/// Engine threads next to the client or generator thread, within the
/// budget; at least 2, so parallel runtimes run in parallel.
int EngineThreads() { return std::max(2, Threads() - 1); }

/// Clients of a closed loop. plan-cold plans and executes each request on
/// its client's thread, so it gets one client per engine thread: the
/// speed of one host vCPU drifts by up to 2x over minutes, and a single
/// client's figures followed it.
int Clients(Kind kind) { return kind == Kind::kPlanCold ? EngineThreads() : 1; }

/// Requests per window: whole passes over the pool, at least
/// kWindowRequests.
size_t WindowRequests(size_t pool) {
  return pool * ((kWindowRequests + pool - 1) / pool);
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return NearestRank(xs, 0.5);
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// ------------------------------------------------------- system under test --

struct SetupTimes {
  double generate_s = 0, glogue_s = 0, engine_s = 0, warmup_s = 0, total_s = 0;
};

struct Sut {
  std::shared_ptr<gopt::PropertyGraph> graph;
  std::shared_ptr<const gopt::Glogue> glogue;
  std::unique_ptr<GOptEngine> engine;
  std::unique_ptr<gopt::ServingEngine> serving;  // destroyed before engine
  std::vector<Request> pool;
  SetupTimes times;
  bool partitioned = false;
};

EngineOptions SutOptions(Kind kind) {
  EngineOptions o;
  switch (kind) {
    case Kind::kLdbcGraphScope: o.partitions = EngineThreads(); break;
    case Kind::kPlanCold: o.enable_plan_cache = false; break;
    case Kind::kStPath:
      // Two morsel workers, the fewest that run in parallel: on a shared
      // host, a query whose workers fill every core waits for whichever
      // one the host descheduled.
      o.exec_threads = 2;
      o.factorization = gopt::FactorizationMode::kAuto;
      // IN-lists stay literal, so every distinct ST query is its own plan:
      // the cache holds the whole pool, as a deployment sized for its
      // working set would.
      o.plan_cache_capacity = 1024;
      break;
    case Kind::kServe: o.result_cache_bytes = kResultCacheBytes; break;
    case Kind::kLdbcNeo4j: break;
  }
  return o;
}

BackendSpec SutBackend(Kind kind) {
  return kind == Kind::kLdbcGraphScope ? BackendSpec::GraphScopeLike(EngineThreads())
                                       : BackendSpec::Neo4jLike();
}

/// Generation, statistics, engine construction (which builds the
/// partitioned store when configured) and warm-up: one pass over the pool,
/// so the timed phase starts with the caches and allocator state it would
/// have in use.
std::unique_ptr<Sut> Setup(Kind kind, uint64_t seed) {
  auto sut = std::make_unique<Sut>();
  const auto t0 = Clock::now();
  sut->graph = GenerateGraph(kind);
  const auto t1 = Clock::now();
  sut->glogue = std::make_shared<const gopt::Glogue>(
      gopt::Glogue::Build(*sut->graph));
  const auto t2 = Clock::now();
  EngineOptions opts = SutOptions(kind);
  sut->partitioned = opts.partitions > 0;
  sut->engine =
      std::make_unique<GOptEngine>(sut->graph.get(), SutBackend(kind), opts);
  sut->engine->SetGlogue(sut->glogue);
  if (kind == Kind::kServe) {
    gopt::ServingOptions so;
    so.worker_threads = EngineThreads();
    so.admission = gopt::AdmissionPolicy::kReject;
    so.max_queue = 64;
    sut->serving =
        std::make_unique<gopt::ServingEngine>(sut->engine.get(), so);
  }
  const auto t3 = Clock::now();
  sut->pool = BuildPool(kind, *sut->graph, seed);
  for (const auto& r : sut->pool) {
    sut->engine->Execute(sut->engine->Prepare(r.text, r.lang));
  }
  if (kind == Kind::kServe) sut->engine->ClearResultCache();
  const auto t4 = Clock::now();
  sut->times = {Seconds(t1 - t0), Seconds(t2 - t1), Seconds(t3 - t2),
                Seconds(t4 - t3), Seconds(t4 - t0)};
  return sut;
}

// ------------------------------------------------------------ reference --

/// The reference engine: no optimization, the Neo4j-like sequential
/// runtime, every cache off. ST queries use the walk-count oracle instead:
/// the unoptimized 6-hop plan enumerates every path of the graph before
/// filtering, which takes seconds and gigabytes per query.
int WriteReference(Kind kind, uint64_t seed, const std::string& path) {
  auto graph = GenerateGraph(kind);
  auto pool = BuildPool(kind, *graph, seed);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 2;
  }
  EngineOptions ro;
  ro.mode = gopt::PlannerMode::kNoOpt;
  ro.enable_plan_cache = false;
  GOptEngine ref(graph.get(), BackendSpec::Neo4jLike(), ro);
  const auto transfer = graph->schema().FindEdgeType("TRANSFER");
  for (const auto& r : pool) {
    ResultTable t;
    if (kind == Kind::kStPath) {
      t.columns = {"paths"};
      t.rows.push_back({gopt::Value(
          CountWalks(*graph, *transfer, kStHops, r.s1, r.s2))});
    } else {
      t = ref.Run(r.text, r.lang).table();
    }
    WriteTable(out, t);
  }
  return out ? 0 : 2;
}

bool ReadReference(const std::string& path, size_t n,
                   std::vector<ResultTable>* out) {
  std::ifstream in(path);
  out->assign(n, ResultTable{});
  for (auto& t : *out) {
    if (!ReadTable(in, &t)) return false;
  }
  return true;
}

// ------------------------------------------------------------ measuring --

/// What one request of a traced phase reported, for the per-layer metrics.
struct Sample {
  double latency_ms = 0;
  bool ok = false;
  bool from_cache = false;
  double prepare_ms = 0;
  double execute_ms = 0;
  double parameterize_us = 0;
  std::shared_ptr<const gopt::PlanTrace> trace;
  gopt::ExecStats stats;
  double queue_ms = 0, service_ms = 0;
};

struct RunTotals {
  /// Every timed request, in order. Kept compact and reserved up front so
  /// that peak_rss_mb does not depend on how many requests a run completed.
  std::vector<double> latency_ms;
  std::vector<uint8_t> ok;
  std::vector<Sample> traced;  ///< traced phase only
  size_t attempted = 0, failed = 0, mismatched = 0;
  gopt::CacheStats plan_before, plan_after, result_before, result_after;
  // serve-zipf
  double lag_ms_max = 0, goodput_qps = 0, throughput_qps = 0;
  size_t rejected = 0;
  std::vector<std::string> rate_lines;
};

/// One client of a closed loop: sends the next request when the previous
/// one has returned, until `deadline`. Every answer is checked against the
/// reference after its timer stops.
void RunClient(const Sut& sut, const std::vector<ResultTable>& ref,
               uint64_t seed, Clock::time_point deadline, Tracer* tracer,
               std::atomic<uint64_t>* request_ids, RunTotals* tot) {
  const GOptEngine& eng = *sut.engine;
  ShuffledCycle order(sut.pool.size(), seed);
  tot->latency_ms.reserve(kMaxSamples);
  tot->ok.reserve(kMaxSamples);
  while (Clock::now() < deadline) {
    const Request& r = sut.pool[order.Next()];
    const size_t idx = static_cast<size_t>(&r - sut.pool.data());
    Sample s;
    ++tot->attempted;
    const uint64_t request_id = ++*request_ids;
    int root = -1, span = -1;
    const auto t0 = Clock::now();
    try {
      if (tracer) {
        root = tracer->Begin("request", -1, request_id);
        span = tracer->Begin("lang.parameterize", root, request_id);
        const auto a = Clock::now();
        gopt::ParameterizeQuery(r.text, r.lang);
        s.parameterize_us =
            std::chrono::duration<double, std::micro>(Clock::now() - a).count();
        tracer->End(span);
        span = tracer->Begin("engine.prepare", root, request_id);
      }
      const auto p0 = Clock::now();
      auto prep = eng.Prepare(r.text, r.lang);
      const auto p1 = Clock::now();
      if (tracer) {
        tracer->End(span);
        if (!prep.from_cache && prep.trace) {
          double at = tracer->Us(p0);
          for (const auto& pass : prep.trace->passes) {
            tracer->Add("pass." + pass.pass, at, at + pass.ms * 1e3, span,
                        request_id);
            at += pass.ms * 1e3;
          }
        }
        span = tracer->Begin("exec.execute", root, request_id);
      }
      auto out = eng.Execute(prep);
      const auto t1 = Clock::now();
      if (tracer) {
        tracer->End(span);
        double at = tracer->Us(p1);
        for (const auto& pipe : out.stats.pipelines) {
          tracer->Add("exec.pipeline", at, at + pipe.ms * 1e3, span, request_id);
          at += pipe.ms * 1e3;
        }
        tracer->End(root);
      }
      s.latency_ms = Ms(t1 - t0);
      s.prepare_ms = Ms(p1 - p0);
      s.execute_ms = Ms(t1 - p1);
      s.from_cache = prep.from_cache;
      s.ok = out.status == ExecStatus::kOk;
      if (!s.ok) {
        ++tot->failed;
      } else if (!out.table().SameRows(ref[idx])) {
        s.ok = false;
        ++tot->failed;
        ++tot->mismatched;
      }
      if (tracer) {
        s.trace = prep.trace;
        s.stats = std::move(out.stats);
      }
    } catch (const std::exception& e) {
      s.latency_ms = Ms(Clock::now() - t0);
      ++tot->failed;
      if (tracer && root >= 0) {
        tracer->End(span);
        tracer->End(root);
      }
      std::fprintf(stderr, "request %s failed: %s\n", r.shape.c_str(), e.what());
    }
    tot->latency_ms.push_back(s.latency_ms);
    tot->ok.push_back(s.ok ? 1 : 0);
    if (tracer) tot->traced.push_back(std::move(s));
  }
}

/// Closed loop with `clients` clients for `seconds`, each on its own thread
/// with its own request order. Each client's timed requests are cut to
/// whole windows (see Windowed) and appended to `tot` one client after
/// another, so every window holds one client's whole passes.
void RunClosed(Sut& sut, const std::vector<ResultTable>& ref, uint64_t seed,
               double seconds, int clients, Tracer* tracer, RunTotals* tot) {
  tot->plan_before = sut.engine->plan_cache_stats();
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  std::atomic<uint64_t> request_ids{0};
  std::vector<RunTotals> each(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(RunClient, std::cref(sut), std::cref(ref),
                         seed + static_cast<uint64_t>(c) * 0x9e37, deadline,
                         tracer, &request_ids, &each[static_cast<size_t>(c)]);
  }
  for (auto& t : threads) t.join();
  tot->plan_after = sut.engine->plan_cache_stats();

  const size_t per = WindowRequests(sut.pool.size());
  size_t whole = 0;
  for (const auto& e : each) whole += e.latency_ms.size() / per * per;
  tot->latency_ms.reserve(kMaxSamples);
  tot->ok.reserve(kMaxSamples);
  for (auto& e : each) {
    // With less than one window per client, every sample is kept.
    const size_t keep = whole > 0 ? e.latency_ms.size() / per * per
                                  : e.latency_ms.size();
    tot->latency_ms.insert(tot->latency_ms.end(), e.latency_ms.begin(),
                           e.latency_ms.begin() + keep);
    tot->ok.insert(tot->ok.end(), e.ok.begin(), e.ok.begin() + keep);
    tot->attempted += e.attempted;
    tot->failed += e.failed;
    tot->mismatched += e.mismatched;
    for (auto& smp : e.traced) tot->traced.push_back(std::move(smp));
  }
}

/// End-to-end figures of a closed loop. The samples are cut into windows
/// of whole passes over the pool, each with the same mix and at least
/// kWindowRequests requests; requests after the last full window are
/// checked but not timed. The host runs faster and slower for seconds at a
/// time. latency_p50_ms and throughput_qps pool every window, so a run's
/// figure moves in proportion to the share of it that ran slow; a
/// best-of-windows figure jumps between the fast and the slow speed
/// instead. The tail is the 25th percentile of the windows' tails, since
/// a pooled tail percentile takes its samples from the slowest stretch.
struct ClosedFigures {
  double p50 = 0, tail = 0, tail_level = 0;
  double qps = 0;  ///< completed requests per second over all clients
  size_t windows = 0, window_requests = 0;
  std::vector<double> window_p50, window_tail, window_qps;
};

ClosedFigures Windowed(const RunTotals& tot, size_t pool, int clients) {
  size_t per = WindowRequests(pool);
  size_t windows = tot.latency_ms.size() / per;
  if (windows == 0) {
    per = tot.latency_ms.size();
    windows = 1;
  }
  ClosedFigures f;
  std::vector<double> timed;
  double busy_s = 0, ok = 0;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> lat;
    double window_busy_s = 0, window_ok = 0;
    for (size_t i = w * per; i < (w + 1) * per; ++i) {
      lat.push_back(tot.latency_ms[i]);
      window_busy_s += tot.latency_ms[i] / 1e3;
      window_ok += tot.ok[i];
    }
    timed.insert(timed.end(), lat.begin(), lat.end());
    busy_s += window_busy_s;
    ok += window_ok;
    const Quantiles q = Summarize(std::move(lat));
    f.window_p50.push_back(q.p50);
    f.window_tail.push_back(q.tail);
    f.window_qps.push_back(window_busy_s > 0 ? window_ok / window_busy_s : 0);
    f.tail_level = q.tail_level;
  }
  f.p50 = Median(std::move(timed));
  // Each client is busy all the time, so the clients together complete
  // `clients` times one client's rate.
  f.qps = busy_s > 0 ? clients * ok / busy_s : 0;
  std::vector<double> tails = f.window_tail;
  std::sort(tails.begin(), tails.end());
  f.tail = NearestRank(tails, 0.25);
  f.windows = windows;
  f.window_requests = per;
  return f;
}

/// Open loop through ServingEngine at each fixed offered rate for a third
/// of `seconds`: arrivals are Poisson from the seed, each request is timed
/// from when it was due, and the generator's lateness is recorded.
void RunOpen(Sut& sut, const std::vector<ResultTable>& ref, uint64_t seed,
             double seconds, Tracer* tracer, RunTotals* tot) {
  const std::vector<double> rates = {200, 400, 800};
  const double phase_s = seconds / static_cast<double>(rates.size());
  gopt::Rng arrivals(seed ^ 0x5eed);
  const size_t persons = kServePersons;
  const size_t shapes = sut.pool.size() / persons;
  ZipfSampler rank(persons, kServeZipfS, seed + 17);
  gopt::Rng shape_rng(seed + 29);
  // Every phase starts with an empty result cache, so its hit ratio is the
  // share of repeated requests within the phase.
  sut.engine->ClearResultCache();
  tot->latency_ms.reserve(kMaxSamples);
  tot->ok.reserve(kMaxSamples);
  tot->result_before = sut.engine->result_cache_stats();
  tot->plan_before = sut.engine->plan_cache_stats();
  uint64_t request_id = 0;

  struct Slot {
    size_t idx = 0;
    Clock::time_point due, submitted, done;
    ExecOutcome out;
    bool error = false;
    double parameterize_us = 0;
  };
  for (double rate : rates) {
    // The whole schedule of this phase, drawn up front.
    std::vector<Slot> slots;
    double t = 0;
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    while (true) {
      t += -std::log(1.0 - arrivals.NextDouble()) / rate;
      if (t >= phase_s) break;
      Slot s;
      s.idx = static_cast<size_t>(shape_rng.NextInt(shapes)) * persons +
              static_cast<size_t>(rank.Next());
      s.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(t));
      slots.push_back(std::move(s));
    }
    std::atomic<size_t> completed{0};
    size_t max_backlog = 0;
    for (auto& s : slots) {
      std::this_thread::sleep_until(s.due);
      if (tracer) {
        const auto a = Clock::now();
        gopt::ParameterizeQuery(sut.pool[s.idx].text, sut.pool[s.idx].lang);
        s.parameterize_us =
            std::chrono::duration<double, std::micro>(Clock::now() - a).count();
      }
      s.submitted = Clock::now();
      tot->lag_ms_max = std::max(tot->lag_ms_max, Ms(s.submitted - s.due));
      Slot* slot = &s;
      try {
        sut.serving->RunAsync(
            sut.pool[s.idx].text,
            [slot, &completed](ExecOutcome out, std::exception_ptr err) {
              slot->done = Clock::now();
              slot->out = std::move(out);
              slot->error = err != nullptr;
              completed.fetch_add(1, std::memory_order_release);
            },
            {}, sut.pool[s.idx].lang);
      } catch (const std::exception&) {
        s.done = Clock::now();
        s.error = true;
        completed.fetch_add(1, std::memory_order_release);
      }
      max_backlog = std::max(max_backlog, sut.serving->queue_depth());
    }
    const auto phase_end = slots.empty() ? Clock::now() : slots.back().due;
    while (completed.load(std::memory_order_acquire) < slots.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const double drain_ms = Ms(Clock::now() - phase_end);
    std::vector<double> lat;
    size_t rejected = 0, failed = 0;
    for (auto& s : slots) {
      Sample smp;
      ++tot->attempted;
      ++request_id;
      smp.latency_ms = Ms(s.done - s.due);
      smp.queue_ms = s.out.queue_ms;
      smp.execute_ms = s.out.ms;
      smp.service_ms = Ms(s.done - s.submitted) - s.out.queue_ms;
      smp.parameterize_us = s.parameterize_us;
      smp.ok = !s.error && s.out.status == ExecStatus::kOk;
      if (s.out.status == ExecStatus::kRejected) ++rejected;
      if (smp.ok && !s.out.table().SameRows(ref[s.idx])) {
        smp.ok = false;
        ++tot->mismatched;
      }
      if (!smp.ok) ++failed;
      if (tracer) {
        const int root = tracer->Add("request", tracer->Us(s.due),
                                     tracer->Us(s.done), -1, request_id);
        const double q0 = tracer->Us(s.submitted);
        tracer->Add("lang.parameterize", q0 - s.parameterize_us, q0, root,
                    request_id);
        tracer->Add("serve.queue", q0, q0 + s.out.queue_ms * 1e3, root,
                    request_id);
        tracer->Add("serve.service", q0 + s.out.queue_ms * 1e3,
                    tracer->Us(s.done), root, request_id);
      }
      lat.push_back(smp.latency_ms);
      tot->latency_ms.push_back(smp.latency_ms);
      tot->ok.push_back(smp.ok ? 1 : 0);
      if (tracer) {
        smp.stats = s.out.stats;
        tot->traced.push_back(std::move(smp));
      }
    }
    tot->rejected += rejected;
    tot->failed += failed;
    const Quantiles q = Summarize(lat);
    // Sustained: tail latency within the limit, nothing refused, and the
    // queue drained within the limit after the last arrival.
    const bool meets = q.tail <= kServeLimitMs && rejected == 0 &&
                       failed == 0 && drain_ms <= kServeLimitMs;
    if (meets) tot->goodput_qps = std::max(tot->goodput_qps, rate);
    tot->throughput_qps = static_cast<double>(slots.size() - failed) / phase_s;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  offered %5.0f/s: n=%zu p50 %.3f ms p%.0f %.3f ms "
                  "rejected %zu max backlog %zu drain %.1f ms -> %s",
                  rate, q.n, q.p50, q.tail_level * 100, q.tail, rejected,
                  max_backlog, drain_ms, meets ? "meets limit" : "misses limit");
    tot->rate_lines.push_back(line);
  }
  tot->result_after = sut.engine->result_cache_stats();
  tot->plan_after = sut.engine->plan_cache_stats();
}

// --------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// The plan identity of every shape, from the gate: a hash of the prepared
/// physical plan's text, and the shape's summed work counters.
struct ShapeRecord {
  std::string plan_hash;
  size_t distinct_plans = 0;
  uint64_t rows_produced = 0, comm_rows = 0;
};

struct GateResult {
  std::map<std::string, ShapeRecord> shapes;
  std::vector<std::string> mismatches;
  size_t checked = 0;
  double rows_per_query = 0, comm_rows_per_query = 0;
};

/// The correctness gate: every distinct request once through the system
/// under test (twice on serve-zipf, so the second answer comes from the
/// result cache), compared with the reference answer.
GateResult RunGate(Sut& sut, const std::vector<ResultTable>& ref) {
  GateResult g;
  std::map<std::string, std::set<uint64_t>> hashes;
  uint64_t rows = 0, comm = 0;
  const auto& schema = sut.graph->schema();
  for (size_t i = 0; i < sut.pool.size(); ++i) {
    const Request& r = sut.pool[i];
    auto fail = [&](const std::string& why) {
      g.mismatches.push_back(r.shape + " [" + why + "]: " + r.text);
    };
    try {
      auto prep = sut.engine->Prepare(r.text, r.lang);
      std::vector<ExecOutcome> outs;
      if (sut.serving) {
        for (int k = 0; k < 2; ++k) {
          outs.push_back(sut.serving->RunAsync(r.text, {}, r.lang).get());
        }
      } else {
        outs.push_back(sut.engine->Execute(prep));
      }
      for (size_t k = 0; k < outs.size(); ++k) {
        ++g.checked;
        if (outs[k].status != ExecStatus::kOk) {
          fail(gopt::ExecStatusName(outs[k].status));
        } else if (!outs[k].table().SameRows(ref[i])) {
          fail(std::string(k == 0 ? "answer" : "cached answer") + " differs: " +
               std::to_string(outs[k].NumRows()) + " rows vs reference " +
               std::to_string(ref[i].NumRows()));
        }
      }
      const auto& st = outs.front().stats;
      auto& rec = g.shapes[r.shape];
      const uint64_t h = Fnv1a(prep.physical ? prep.physical->ToString(schema)
                                             : std::string("invalid"));
      if (rec.plan_hash.empty()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        rec.plan_hash = buf;
      }
      hashes[r.shape].insert(h);
      rec.rows_produced += st.rows_produced;
      rec.comm_rows += st.comm_rows;
      rows += st.rows_produced;
      comm += st.comm_rows;
    } catch (const std::exception& e) {
      ++g.checked;
      fail(std::string("error: ") + e.what());
    }
  }
  for (auto& [shape, rec] : g.shapes) rec.distinct_plans = hashes[shape].size();
  const double n = static_cast<double>(std::max<size_t>(1, sut.pool.size()));
  g.rows_per_query = static_cast<double>(rows) / n;
  g.comm_rows_per_query = static_cast<double>(comm) / n;
  if (sut.serving) sut.engine->ClearResultCache();
  return g;
}

/// Per-layer metrics of a traced phase, named module.metric.
std::vector<Metric> LayerMetrics(const Sut& sut, const RunTotals& tot,
                                 const SetupTimes& setup, double overhead_pct) {
  std::vector<double> param_us, cold_ms, warm_us, exec_ms, queue_ms, service_ms;
  std::map<std::string, double> pass_ms;
  double plan_ms = 0, tuples = 0, pipe_ms = 0, morsels = 0, chain_rows = 0,
         chain_tuples = 0, vec = 0, gen = 0, exchanges = 0, comm = 0,
         skew_sum = 0;
  size_t cold = 0, skew_n = 0, n = 0;
  for (const auto& s : tot.traced) {
    ++n;
    if (s.parameterize_us > 0) param_us.push_back(s.parameterize_us);
    if (!sut.serving) {
      if (s.from_cache) {
        warm_us.push_back(s.prepare_ms * 1e3);
      } else {
        cold_ms.push_back(s.prepare_ms);
        if (s.trace) {
          ++cold;
          plan_ms += s.trace->total_ms;
          for (const auto& p : s.trace->passes) pass_ms[p.pass] += p.ms;
        }
      }
    } else {
      queue_ms.push_back(s.queue_ms);
      service_ms.push_back(s.service_ms);
    }
    exec_ms.push_back(s.execute_ms);
    const auto& st = s.stats;
    tuples += static_cast<double>(st.tuples_materialized);
    for (const auto& p : st.pipelines) {
      pipe_ms += p.ms;
      morsels += static_cast<double>(p.morsels);
      chain_rows += static_cast<double>(p.chain_rows);
      chain_tuples += static_cast<double>(p.chain_tuples);
    }
    vec += static_cast<double>(st.vec_dispatch);
    gen += static_cast<double>(st.gen_dispatch);
    exchanges += static_cast<double>(st.exchanges);
    comm += static_cast<double>(st.comm_rows);
    if (!st.partition_rows.empty()) {
      double mx = 0, sum = 0;
      for (auto r : st.partition_rows) {
        mx = std::max(mx, static_cast<double>(r));
        sum += static_cast<double>(r);
      }
      if (sum > 0) {
        skew_sum += mx / (sum / static_cast<double>(st.partition_rows.size()));
        ++skew_n;
      }
    }
  }
  const double dn = std::max<double>(1, static_cast<double>(n));
  const double dcold = std::max<double>(1, static_cast<double>(cold));
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  auto mean = [](const std::vector<double>& xs) {
    double s = 0;
    for (double x : xs) s += x;
    return xs.empty() ? 0 : s / static_cast<double>(xs.size());
  };
  const auto plan_hits = tot.plan_after.hits - tot.plan_before.hits;
  const auto plan_lookups =
      plan_hits + (tot.plan_after.misses - tot.plan_before.misses);
  const auto res_hits = tot.result_after.hits - tot.result_before.hits;
  const auto res_lookups =
      res_hits + (tot.result_after.misses - tot.result_before.misses);
  const Quantiles ex = Summarize(exec_ms), qu = Summarize(queue_ms),
                  sv = Summarize(service_ms);
  return {
      {"ldbc.generate_s", setup.generate_s, "s"},
      {"meta.glogue_build_s", setup.glogue_s, "s"},
      {"store.partition_build_s", sut.partitioned ? setup.engine_s : 0, "s"},
      {"lang.parameterize_us", param_us.empty() ? 0 : Median(param_us), "us"},
      {"lang.parse_ms", pass_ms["parse"] / dcold, "ms"},
      {"opt.rbo_ms", pass_ms["rbo"] / dcold, "ms"},
      {"opt.field_trim_ms", pass_ms["field_trim"] / dcold, "ms"},
      {"opt.type_inference_ms", pass_ms["type_inference"] / dcold, "ms"},
      {"opt.cbo_ms", pass_ms["cbo"] / dcold, "ms"},
      {"physical.conversion_ms", pass_ms["physical_conversion"] / dcold, "ms"},
      {"opt.plan_ms", plan_ms / dcold, "ms"},
      {"engine.prepare_cold_ms", mean(cold_ms), "ms"},
      {"engine.prepare_warm_us", warm_us.empty() ? 0 : Median(warm_us), "us"},
      {"engine.plan_cache_hit_ratio",
       ratio(static_cast<double>(plan_hits), static_cast<double>(plan_lookups)),
       "ratio"},
      {"engine.plan_cache_lookups", static_cast<double>(plan_lookups), "count"},
      {"engine.result_cache_hit_ratio",
       ratio(static_cast<double>(res_hits), static_cast<double>(res_lookups)),
       "ratio"},
      {"engine.result_cache_lookups", static_cast<double>(res_lookups), "count"},
      {"engine.result_cache_evictions",
       static_cast<double>(tot.result_after.evictions -
                           tot.result_before.evictions),
       "count"},
      {"exec.execute_ms_p50", ex.p50, "ms"},
      {"exec.execute_ms_p99", ex.tail, "ms"},
      {"exec.tuples_per_query", tuples / dn, "tuples"},
      {"exec.pipeline_ms", pipe_ms / dn, "ms"},
      {"exec.morsels_per_query", morsels / dn, "count"},
      {"exec.factorized_ratio", ratio(chain_rows, chain_tuples), "ratio"},
      {"exec.vectorized_share", ratio(vec, vec + gen), "ratio"},
      {"store.exchanges_per_query", exchanges / dn, "count"},
      {"store.comm_rows_per_query", comm / dn, "rows"},
      {"store.partition_rows_skew", skew_n ? skew_sum / static_cast<double>(skew_n) : 0,
       "ratio"},
      {"serve.queue_ms_p50", qu.p50, "ms"},
      {"serve.queue_ms_p99", qu.tail, "ms"},
      {"serve.service_ms_p99", sv.tail, "ms"},
      {"serve.rejected", static_cast<double>(tot.rejected), "count"},
      {"serve.attempted", sut.serving ? static_cast<double>(tot.attempted) : 0,
       "count"},
      {"serve.goodput_qps", tot.goodput_qps, "1/s"},
      {"bench.generator_lag_ms_max", tot.lag_ms_max, "ms"},
      {"bench.trace_overhead_pct", overhead_pct, "%"},
      {"bench.failed_frac",
       ratio(static_cast<double>(tot.failed), static_cast<double>(tot.attempted)),
       "ratio"},
  };
}

struct Args {
  std::string workload, reference_in, reference_out, record;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v != "0";
    else if (k == "--reference-in") a.reference_in = v;
    else if (k == "--reference-out") a.reference_out = v;
    else if (k == "--record") a.record = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadInfo* info = nullptr;
  for (const auto& w : Workloads()) {
    if (args.workload == w.name) info = &w;
  }
  if (!info) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!args.reference_out.empty()) {
    return WriteReference(info->kind, args.seed, args.reference_out);
  }
  const auto run_start = Clock::now();

  // Set-up, several times; the last system is the one measured.
  std::unique_ptr<Sut> sut;
  std::vector<SetupTimes> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    sut.reset();
    sut = Setup(info->kind, args.seed);
    setups.push_back(sut->times);
  }
  SetupTimes setup;
  {
    auto med = [&](double SetupTimes::*f) {
      std::vector<double> xs;
      for (const auto& s : setups) xs.push_back(s.*f);
      return Median(xs);
    };
    setup = {med(&SetupTimes::generate_s), med(&SetupTimes::glogue_s),
             med(&SetupTimes::engine_s), med(&SetupTimes::warmup_s),
             med(&SetupTimes::total_s)};
  }

  std::vector<ResultTable> ref;
  if (!ReadReference(args.reference_in, sut->pool.size(), &ref)) {
    std::fprintf(stderr, "cannot read the reference answers from '%s'\n",
                 args.reference_in.c_str());
    return 2;
  }
  const GateResult gate = RunGate(*sut, ref);
  // peak_rss_mb is taken here: set-up and one run of every distinct request.
  // During the timed phase the peak also depends on which large requests of
  // concurrent clients happen to overlap; that peak is printed, not gated.
  const double setup_rss_mb = PeakRssMb();

  auto measure = [&](double seconds, Tracer* tracer, uint64_t stream_seed) {
    RunTotals tot;
    if (info->kind == Kind::kServe) {
      RunOpen(*sut, ref, stream_seed, seconds, tracer, &tot);
    } else {
      RunClosed(*sut, ref, stream_seed, seconds, Clients(info->kind), tracer,
                &tot);
    }
    return tot;
  };
  auto latency = [](const RunTotals& tot) { return Summarize(tot.latency_ms); };

  // End-to-end metrics come from an untraced phase. A traced run splits
  // its time: an untraced half, then a traced half over the same stream
  // that gives the per-layer metrics and the tracing overhead.
  Tracer tracer(run_start);
  const RunTotals tot =
      measure(args.trace ? args.seconds / 2 : args.seconds, nullptr, args.seed);
  RunTotals traced;
  double overhead_pct = 0;
  if (args.trace) {
    traced = measure(args.seconds / 2, &tracer, args.seed);
    const double base = latency(tot).p50;
    overhead_pct = base > 0 ? (latency(traced).p50 / base - 1) * 100 : 0;
  }
  // Open loop: pooled over the offered rates; closed loop: per window.
  ClosedFigures fig;
  if (info->kind == Kind::kServe) {
    const Quantiles q = latency(tot);
    fig.p50 = q.p50;
    fig.tail = q.tail;
    fig.tail_level = q.tail_level;
    fig.qps = tot.throughput_qps;
    fig.windows = 1;
    fig.window_requests = q.n;
  } else {
    fig = Windowed(tot, sut->pool.size(), Clients(info->kind));
  }
  const size_t attempted = tot.attempted + traced.attempted;
  const size_t failed = tot.failed + traced.failed;
  const bool correct = gate.mismatches.empty() && tot.mismatched == 0 &&
                       traced.mismatched == 0;

  // ---- human-readable report ----
  std::printf("workload %s  seed %llu  %s  threads<=%d  %s\n", info->name,
              static_cast<unsigned long long>(args.seed), info->model,
              Threads(), args.trace ? "traced" : "untraced");
  std::printf("graph |V|=%zu |E|=%zu  distinct requests %zu\n",
              sut->graph->NumVertices(), sut->graph->NumEdges(),
              sut->pool.size());
  std::printf("set-up (median of %d): generate %.3f s, glogue %.3f s, engine "
              "%.3f s, warm-up %.3f s, total %.3f s\n",
              kSetupRepeats, setup.generate_s, setup.glogue_s, setup.engine_s,
              setup.warmup_s, setup.total_s);
  std::printf("correctness gate: %zu answers checked, %zu differ from the "
              "reference\n",
              gate.checked, gate.mismatches.size());
  for (const auto& m : gate.mismatches) std::printf("  MISMATCH %s\n", m.c_str());
  std::printf("plan identity (shape: plan hash, distinct plans, rows_produced, "
              "comm_rows over the distinct requests):\n");
  for (const auto& [shape, rec] : gate.shapes) {
    std::printf("  %-14s %s %zu %llu %llu\n", shape.c_str(),
                rec.plan_hash.c_str(), rec.distinct_plans,
                static_cast<unsigned long long>(rec.rows_produced),
                static_cast<unsigned long long>(rec.comm_rows));
  }
  for (const auto& line : tot.rate_lines) std::printf("%s\n", line.c_str());

  const double failed_frac =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                : 0;
  // The end-to-end metrics BENCHMARK.json lists. latency_p99_ms is printed
  // below but not listed: host vCPU stalls add milliseconds to the tail, and
  // its spread across runs on stpath-morsel exceeded the largest bound.
  std::vector<Metric> e2e = {
      {"setup_s", setup.total_s, "s"},
      {"latency_p50_ms", fig.p50, "ms"},
      {"throughput_qps", fig.qps, "1/s"},
      {"rows_per_query", gate.rows_per_query, "rows"},
      {"peak_rss_mb", setup_rss_mb, "MB"},
  };
  std::printf("end-to-end (%zu untraced requests in %zu window(s) of %zu; "
              "latency tail at p%g, best quartile of the windows):\n",
              tot.latency_ms.size(), fig.windows, fig.window_requests,
              fig.tail_level * 100);
  for (size_t w = 0; w < fig.window_p50.size(); ++w) {
    std::printf("  window %zu: p50 %.3f ms, tail %.3f ms, %.1f/s\n", w,
                fig.window_p50[w], fig.window_tail[w], fig.window_qps[w]);
  }
  for (const auto& m : e2e) {
    std::printf("  %-24s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-24s %14.6f %s\n", "latency_p99_ms", fig.tail, "ms");
  std::printf("  %-24s %14.6f %s\n", "failed_frac", failed_frac, "ratio");
  std::printf("  %-24s %14.6f %s\n", "comm_rows_per_query",
              gate.comm_rows_per_query, "rows");
  std::printf("  %-24s %14.6f %s (whole run)\n", "peak_rss_run_mb",
              PeakRssMb(), "MB");
  if (info->kind == Kind::kServe) {
    std::printf("  %-24s %14.6f %s (limit p99 <= %.0f ms)\n", "goodput_qps",
                tot.goodput_qps, "1/s", kServeLimitMs);
  }

  std::vector<Metric> layers;
  if (args.trace) {
    layers = LayerMetrics(*sut, traced, setup, overhead_pct);
    std::printf("per-layer (traced half):\n");
    for (const auto& m : layers) {
      std::printf("  %-32s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::map<std::string, std::pair<double, size_t>> self;
    const auto self_us = tracer.SelfUs();
    for (size_t i = 0; i < self_us.size(); ++i) {
      auto& e = self[tracer.spans()[i].name];
      e.first += self_us[i];
      ++e.second;
    }
    std::printf("self time per span (mean us over spans):\n");
    for (const auto& [name, e] : self) {
      std::printf("  %-28s %12.3f us  x%zu\n", name.c_str(),
                  e.first / static_cast<double>(e.second), e.second);
    }
  }

  // ---- run record ----
  if (!args.record.empty()) {
    std::ofstream rec(args.record);
    rec << "{\"workload\":\"" << info->name << "\",\"seed\":" << args.seed
        << ",\"model\":\"" << info->model << "\",\"threads\":" << Threads()
        << ",\"seconds\":" << JsonNumber(args.seconds)
        << ",\"correct\":" << (correct ? "true" : "false") << ",\"shapes\":{";
    bool first = true;
    for (const auto& [shape, r] : gate.shapes) {
      rec << (first ? "" : ",") << "\"" << shape << "\":{\"plan_hash\":\""
          << r.plan_hash << "\",\"distinct_plans\":" << r.distinct_plans
          << ",\"rows_produced\":" << r.rows_produced
          << ",\"comm_rows\":" << r.comm_rows << "}";
      first = false;
    }
    rec << "},\"metrics\":{\"latency_p99_ms\":" << JsonNumber(fig.tail)
        << ",\"failed_frac\":" << JsonNumber(failed_frac)
        << ",\"comm_rows_per_query\":" << JsonNumber(gate.comm_rows_per_query);
    first = false;
    for (const auto* list : {&e2e, &layers}) {
      for (const auto& m : *list) {
        rec << (first ? "" : ",") << "\"" << m.name << "\":" << JsonNumber(m.value);
        first = false;
      }
    }
    rec << "},\"spans\":";
    tracer.WriteJson(rec);
    rec << "}\n";
  }

  // ---- result line ----
  const auto& out = args.trace ? layers : e2e;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " +
            JsonNumber(out[i].value) + ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::fflush(stdout);
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
