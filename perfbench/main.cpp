// The repository benchmark program (see README.md beside this file).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--corrupt]
//
// Runs the workload's jobs back to back in a closed loop (one client, one
// job at a time) for the given time and prints, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones.
// Exits non-zero when any job fails its oracle, when a ledger check fails,
// or when the report cannot be written.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/vector_clock.h"
#include "dsm/batch.h"
#include "dsm/config.h"
#include "dsm/store.h"
#include "dsm/wire.h"
#include "net/fabric.h"
#include "net/mailbox.h"
#include "obs/critical_path.h"
#include "obs/tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace mc;
using Clock = std::chrono::steady_clock;

// Every message kind any workload sends; per-kind metrics are reported for
// all of them (0 where a workload does not use the kind).
const std::vector<std::string> kKinds = {
    "update",          "batch",           "barrier_arrive",  "barrier_release",
    "lock_req",        "lock_grant",      "unlock",          "rel_ack",
    "fetch_bulk_req",  "fetch_bulk_resp", "dir_sharer_add",  "dir_ack",
    "dir_unregister",  "dir_sharer_del",  "frontier_req",    "frontier_resp",
};

constexpr std::size_t kSetupRepeats = 5;
// The traced phase keeps every traced thread's event buffer alive (the
// tracer owns them for the whole process), so it is capped in jobs.
constexpr std::size_t kMaxTracedJobs = 24;
// Share of --seconds given to each phase of a traced run; the rest goes to
// the layer micro-timings.
constexpr double kTracedRunPhaseShare = 0.4;
// Critical-path categories must sum to the path total within this share.
constexpr double kLedgerBound = 0.01;
// Checks of the recorded job history per traced run (median reported).
constexpr int kHistoryChecks = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool tiny = false;
  bool corrupt = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--workload" && has_value) {
        a.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        a.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        a.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        a.trace = std::stoi(argv[++i]);
      } else if (arg == "--tiny") {
        a.tiny = true;
      } else if (arg == "--corrupt") {
        a.corrupt = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0 && (a.trace == 0 || a.trace == 1);
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Quantile q of the samples, linearly interpolated between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Everything measured over a series of jobs.
struct Series {
  std::vector<double> job_ms;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> sums;  // metrics() summed over jobs
  double app_ms = 0.0;
  double ops = 0.0;
  double body_ns = 0.0, calls_ns = 0.0, gaps_ns = 0.0;
  double read_call_ns = 0.0, write_call_ns = 0.0, barrier_call_ns = 0.0;
  double read_calls = 0.0, write_calls = 0.0, barrier_calls = 0.0;
  // Traced jobs only.
  std::array<double, obs::kCpCategories> cp_ns{};
  double cp_total_ns = 0.0;
  double trace_dropped = 0.0;

  [[nodiscard]] double jobs() const { return static_cast<double>(job_ms.size()); }
  [[nodiscard]] double sum(const std::string& k) const {
    const auto it = sums.find(k);
    return it == sums.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double per_job(const std::string& k) const { return ratio(sum(k), jobs()); }
  /// Exact histogram mean from summed `.sum` / `.count` flats.
  [[nodiscard]] double hist_mean(const std::string& base) const {
    return ratio(sum(base + ".sum"), sum(base + ".count"));
  }
};

void report_failure(const JobOutcome& o, std::uint64_t job) {
  std::fprintf(stderr, "perfbench: job %llu FAILED: %s\n",
               static_cast<unsigned long long>(job), o.error.c_str());
}

void add_outcome(Series& s, const JobOutcome& o, double job_ms) {
  s.job_ms.push_back(job_ms);
  ++s.attempted;
  if (!o.ok) {
    report_failure(o, s.attempted);
    ++s.failed;
  }
  for (const auto& [k, v] : o.metrics.values) s.sums[k] += static_cast<double>(v);
  s.app_ms += o.app_ms;
  s.ops += static_cast<double>(o.ops);
  s.body_ns += o.body_ns;
  s.calls_ns += o.calls_ns;
  s.gaps_ns += o.gaps_ns;
  s.read_call_ns += o.read_call_ns;
  s.write_call_ns += o.write_call_ns;
  s.barrier_call_ns += o.barrier_call_ns;
  s.read_calls += static_cast<double>(o.read_calls);
  s.write_calls += static_cast<double>(o.write_calls);
  s.barrier_calls += static_cast<double>(o.barrier_calls);
}

/// Closed loop: whole passes over the input pool until `seconds` have
/// elapsed (so per-job counts average every input equally), or until
/// `max_jobs` when nonzero.  With `traced`, the event tracer records each
/// job and the job's critical path is analysed after it.
Series run_series(Workload& w, double seconds, bool corrupt, bool timed, bool traced,
                  std::size_t max_jobs = 0) {
  Series s;
  const std::size_t pool = w.pool_size();
  obs::Tracer& tracer = obs::Tracer::instance();
  const double cpu0 = cpu_ms();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  for (std::size_t k = 0;; ++k) {
    if (k % pool == 0 && k > 0 &&
        (Clock::now() >= deadline || (max_jobs != 0 && k >= max_jobs))) {
      break;
    }
    std::uint64_t t0_ns = 0;
    if (traced) {
      tracer.clear();
      tracer.enable();
      t0_ns = obs::Tracer::now_ns();
    }
    const auto t0 = Clock::now();
    const JobOutcome o = w.run_job(k % pool, corrupt && k == 0, timed);
    const auto t1 = Clock::now();
    if (traced) {
      const std::uint64_t t1_ns = obs::Tracer::now_ns();
      tracer.disable();
      s.trace_dropped += static_cast<double>(tracer.dropped_events());
      const obs::CriticalPath cp = obs::analyze_trace(tracer.snapshot(), t0_ns, t1_ns);
      for (std::size_t c = 0; c < obs::kCpCategories; ++c) {
        s.cp_ns[c] += static_cast<double>(cp.category_ns[c]);
      }
      s.cp_total_ns += static_cast<double>(cp.total_ns);
      tracer.clear();
    }
    add_outcome(s, o, ns_between(t0, t1) / 1e6);
  }
  s.wall_s = ns_between(start, Clock::now()) / 1e9;
  s.cpu_ms = cpu_ms() - cpu0;
  return s;
}

/// Median over trials of the mean cost per unit of work; each call of
/// `body` returns the nanoseconds it measured and the units it covered.
double median_ns_per_unit(const std::function<std::pair<double, double>()>& body,
                          int trials = 7) {
  std::vector<double> per_unit;
  body();  // warm-up
  for (int t = 0; t < trials; ++t) {
    const auto [ns, units] = body();
    per_unit.push_back(ratio(ns, units));
  }
  return quantile(per_unit, 0.5);
}

template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Vector clocks shaped like a running P-process computation.
std::vector<VectorClock> sample_clocks(std::size_t procs, std::size_t n, Rng& rng) {
  std::vector<VectorClock> out;
  VectorClock vc(procs);
  for (std::size_t p = 0; p < procs; ++p) vc.set(static_cast<ProcId>(p), 1000 + rng.below(64));
  for (std::size_t i = 0; i < n; ++i) {
    vc.tick(static_cast<ProcId>(rng.below(procs)));
    out.push_back(vc);
  }
  return out;
}

struct LayerTimings {
  double encode_ns_per_record = 0.0, decode_ns_per_record = 0.0;
  double store_apply_ns = 0.0;
  double vc_merge_ns = 0.0, vc_compare_ns = 0.0;
  double fabric_send_ns = 0.0, fabric_multicast_ns = 0.0;
  double mailbox_handoff_ns = 0.0;
};

/// Single-layer costs measured in isolation, at the workload's process
/// count and with batch frames shaped like the ones its jobs shipped.
LayerTimings time_layers(std::size_t procs, std::size_t records_per_frame,
                         std::uint64_t seed) {
  LayerTimings t;
  Rng rng(seed);
  const std::size_t P = procs;

  // Batch codec.
  {
    const std::vector<VectorClock> clocks = sample_clocks(P, records_per_frame, rng);
    std::vector<dsm::BatchRecord> recs(records_per_frame);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      recs[i].var = static_cast<VarId>(rng.below(256));
      recs[i].value = rng.next();
      recs[i].flags = dsm::kFlagWrite;
      recs[i].seq = 100 + i;
      recs[i].vc = clocks[i];
    }
    constexpr int kReps = 2000;
    const auto units = static_cast<double>(kReps * recs.size());
    t.encode_ns_per_record = median_ns_per_unit([&] {
      const auto a = Clock::now();
      for (int r = 0; r < kReps; ++r) keep(dsm::encode_batch(recs, P, false));
      return std::make_pair(ns_between(a, Clock::now()), units);
    });
    const net::Message frame = dsm::encode_batch(recs, P, false);
    t.decode_ns_per_record = median_ns_per_unit([&] {
      const auto a = Clock::now();
      for (int r = 0; r < kReps; ++r) keep(dsm::decode_batch(frame, P, false));
      return std::make_pair(ns_between(a, Clock::now()), units);
    });
  }

  // Store::apply: causally ordered writes from P writers over 256 variables.
  {
    constexpr std::size_t kVars = 256, kApplies = 20000;
    std::vector<VectorClock> clocks;
    std::vector<ProcId> writer(kApplies);
    VectorClock vc(P);
    for (std::size_t i = 0; i < kApplies; ++i) {
      writer[i] = static_cast<ProcId>(rng.below(P));
      vc.tick(writer[i]);
      clocks.push_back(vc);
    }
    t.store_apply_ns = median_ns_per_unit([&] {
      dsm::Store store(kVars, P);
      const auto a = Clock::now();
      for (std::size_t i = 0; i < kApplies; ++i) {
        store.apply(static_cast<VarId>(i % kVars), i, dsm::kFlagWrite,
                    WriteId{writer[i], clocks[i][writer[i]]}, clocks[i]);
      }
      return std::make_pair(ns_between(a, Clock::now()), static_cast<double>(kApplies));
    });
  }

  // VectorClock merge / compare.
  {
    constexpr std::size_t kN = 4096;
    const std::vector<VectorClock> clocks = sample_clocks(P, kN, rng);
    std::vector<std::size_t> other(kN);
    for (auto& o : other) o = rng.below(kN);
    t.vc_merge_ns = median_ns_per_unit([&] {
      VectorClock acc(P);
      const auto a = Clock::now();
      for (std::size_t i = 0; i < kN; ++i) acc.merge(clocks[i]);
      const double ns = ns_between(a, Clock::now());
      keep(acc);
      return std::make_pair(ns, static_cast<double>(kN));
    });
    t.vc_compare_ns = median_ns_per_unit([&] {
      std::size_t before = 0;
      const auto a = Clock::now();
      for (std::size_t i = 0; i < kN; ++i) {
        before += clocks[i].compare(clocks[other[i]]) == ClockOrder::kBefore;
      }
      const double ns = ns_between(a, Clock::now());
      keep(before);
      return std::make_pair(ns, static_cast<double>(kN));
    });
  }

  // Fabric::send and ::multicast at the workload's endpoint count
  // (processes plus the lock and barrier managers), update-shaped messages.
  {
    const std::size_t endpoints = P + 2;
    net::Fabric fabric(endpoints);
    net::Message proto;
    proto.kind = dsm::kUpdate;
    proto.payload.assign(P, 7);
    constexpr std::size_t kMsgs = 2048;
    const auto drain = [&](net::Endpoint e, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) keep(fabric.recv(e));
    };
    t.fabric_send_ns = median_ns_per_unit([&] {
      std::vector<net::Message> msgs(kMsgs, proto);
      for (auto& m : msgs) {
        m.src = 0;
        m.dst = 1;
      }
      const auto a = Clock::now();
      for (auto& m : msgs) fabric.send(std::move(m));
      const double ns = ns_between(a, Clock::now());
      drain(1, kMsgs);
      return std::make_pair(ns, static_cast<double>(kMsgs));
    });
    std::vector<net::Endpoint> dsts;
    for (std::size_t d = 1; d < P; ++d) dsts.push_back(static_cast<net::Endpoint>(d));
    if (!dsts.empty()) {
      t.fabric_multicast_ns = median_ns_per_unit([&] {
        net::Message m = proto;
        m.src = 0;
        constexpr std::size_t kCasts = 512;
        const auto a = Clock::now();
        for (std::size_t i = 0; i < kCasts; ++i) fabric.multicast(m, dsts);
        const double ns = ns_between(a, Clock::now());
        for (const net::Endpoint d : dsts) drain(d, kCasts);
        return std::make_pair(ns, static_cast<double>(kCasts * dsts.size()));
      });
    }
    fabric.shutdown();
  }

  // Mailbox push -> recv hand-off to a blocked consumer thread.
  {
    net::Mailbox box;
    std::atomic<std::uint64_t> received{0};
    std::atomic<double> latency_ns{0.0};
    std::thread consumer([&] {
      while (auto m = box.recv()) {
        const auto sent = Clock::time_point(Clock::duration(m->a));
        latency_ns.store(latency_ns.load() + ns_between(sent, Clock::now()));
        received.fetch_add(1);
      }
    });
    constexpr std::uint64_t kHandoffs = 400;
    t.mailbox_handoff_ns = median_ns_per_unit(
        [&] {
          latency_ns.store(0.0);
          const std::uint64_t base = received.load();
          for (std::uint64_t i = 0; i < kHandoffs; ++i) {
            net::Message m;
            m.a = static_cast<std::uint64_t>(Clock::now().time_since_epoch().count());
            if (!box.push(std::move(m))) break;
            while (received.load() < base + i + 1) std::this_thread::yield();
          }
          return std::make_pair(latency_ns.load(), static_cast<double>(kHandoffs));
        },
        5);
    box.close();
    consumer.join();
  }
  return t;
}

struct HistoryTimings {
  bool ok = true;
  std::string error;
  double ops = 0.0, edges = 0.0;
  double feed_ns = 0.0, finalize_ns = 0.0;  // medians over the checks
};

/// The history layer: one job of the workload recorded, then checked
/// kHistoryChecks times with IncrementalChecker feed + finalize.  The
/// verdict must be clean and every recorded operation counted.
HistoryTimings time_history(Workload& w) {
  HistoryTimings t;
  const history::History h = w.record_history();
  const std::vector<std::uint32_t> order = feed_order(h);
  std::vector<double> feed, finalize;
  for (int i = 0; i < kHistoryChecks; ++i) {
    const CheckOutcome c = check_history(h, order);
    if (!c.ok) {
      t.ok = false;
      t.error = c.error;
    }
    feed.push_back(c.feed_ns);
    finalize.push_back(c.finalize_ns);
    t.ops = static_cast<double>(c.ops);
    t.edges = 0.0;
    for (const char* e : {"po", "rf", "lock", "bar", "await", "ww", "rw"}) {
      t.edges += static_cast<double>(c.metrics.get(std::string("checker.edges.") + e));
    }
  }
  t.feed_ns = quantile(feed, 0.5);
  t.finalize_ns = quantile(finalize, 0.5);
  return t;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

bool print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (i ? ", " : "") + std::string("\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}\n";
  return std::fputs(out.c_str(), stdout) >= 0 && std::fflush(stdout) == 0 &&
         !std::ferror(stdout);
}

std::vector<Metric> end_to_end(const Series& s, double setup_s) {
  return {
      {"setup_s", "s", setup_s},
      {"cpu_ms_per_job", "ms", ratio(s.cpu_ms, s.jobs())},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  };
}

/// Seconds spent inside jobs (excludes the traced run's analysis time).
double wall_sum_s(const Series& s) {
  double ms = 0.0;
  for (const double j : s.job_ms) ms += j;
  return ms / 1e3;
}

std::vector<Metric> per_layer(const Workload& w, const Series& plain, const Series& traced,
                              const LayerTimings& lt, const HistoryTimings& ht) {
  const Series& s = plain;
  const double jobs = s.jobs();
  const double msgs = s.sum("net.messages");
  std::vector<Metric> m;
  const auto add = [&](std::string name, std::string unit, double v) {
    m.push_back({std::move(name), std::move(unit), v});
  };
  const double p50 = quantile(s.job_ms, 0.5);

  add("jobs_per_s", "1/s", ratio(jobs, s.wall_s));
  add("job_ms.p50", "ms", p50);
  add("job_ms.p90", "ms", quantile(s.job_ms, 0.9));
  add("error_rate", "frac", ratio(static_cast<double>(s.failed + traced.failed),
                                  static_cast<double>(s.attempted + traced.attempted)));
  add("msgs_per_job", "count", s.per_job("net.messages"));
  add("bytes_per_job", "B", s.per_job("net.bytes"));

  add("apps.reference_ms", "ms", w.reference_ms());
  add("apps.dsm_overhead_x", "x", ratio(p50, w.reference_ms()));
  add("apps.iterations", "count", w.iterations());

  const double proc_ms = s.app_ms * static_cast<double>(w.procs());
  add("dsm.ops_per_job", "count", ratio(s.ops, jobs));
  add("dsm.blocked_frac", "frac", ratio(s.sum("dsm.blocked_ns") / 1e6, proc_ms));
  add("dsm.system.overhead_ms_per_job", "ms", ratio(wall_sum_s(s) * 1e3 - s.app_ms, jobs));
  add("dsm.read_pram_ns.mean", "ns", s.hist_mean("read.pram_ns"));
  add("dsm.read_causal_ns.mean", "ns", s.hist_mean("read.causal_ns"));
  add("dsm.await_ns.mean", "ns", s.hist_mean("await.spin_ns"));
  add("dsm.lock.acquires_per_job", "count", s.per_job("lock.acquire_ns.count"));
  add("dsm.lock.acquire_ns.mean", "ns", s.hist_mean("lock.acquire_ns"));
  add("dsm.lockmgr.grant_wait_ns.mean", "ns", s.hist_mean("lockmgr.grant_wait_ns"));
  add("dsm.barriers_per_job", "count", s.per_job("barriermgr.assemble_ns.count"));
  add("dsm.barrier.wait_ns.mean", "ns", s.hist_mean("barrier.wait_ns"));
  add("dsm.barriermgr.assemble_ns.mean", "ns", s.hist_mean("barriermgr.assemble_ns"));

  const double frames = s.sum("net.batch.msgs");
  const double updates = s.sum("net.batch.updates");
  const double coalesced = s.sum("net.batch.coalesced");
  add("dsm.batch.frames_per_job", "count", ratio(frames, jobs));
  add("dsm.batch.updates_per_frame", "count", ratio(updates, frames));
  add("dsm.batch.coalesced_frac", "frac", ratio(coalesced, updates + coalesced));
  add("dsm.batch.encode_ns_per_record", "ns", lt.encode_ns_per_record);
  add("dsm.batch.decode_ns_per_record", "ns", lt.decode_ns_per_record);
  add("dsm.store.apply_ns", "ns", lt.store_apply_ns);

  const double fills = s.sum("directory.fills");
  double meta_msgs = 0.0;
  for (const std::string& k : kKinds) {
    if (k.rfind("dir_", 0) == 0 || k.rfind("frontier_", 0) == 0) {
      meta_msgs += s.sum("net.msg." + k);
    }
  }
  add("dsm.directory.fills_per_job", "count", ratio(fills, jobs));
  add("dsm.directory.fill_records_per_fill", "count",
      ratio(s.sum("directory.fill_records"), fills));
  add("dsm.directory.fill_wait_ns.mean", "ns", s.hist_mean("directory.fill_wait_ns"));
  add("dsm.directory.evictions_per_job", "count", s.per_job("directory.evictions"));
  add("dsm.directory.frontier_pings_per_job", "count", s.per_job("directory.frontier_pings"));
  add("dsm.directory.meta_msgs_frac", "frac", ratio(meta_msgs, msgs));

  add("dsm.node.read_call_ns.mean", "ns", ratio(s.read_call_ns, s.read_calls));
  add("dsm.node.write_call_ns.mean", "ns", ratio(s.write_call_ns, s.write_calls));
  add("dsm.node.barrier_call_ns.mean", "ns", ratio(s.barrier_call_ns, s.barrier_calls));
  add("dsm.node.calls_frac", "frac", ratio(s.calls_ns, s.body_ns));
  add("dsm.node.gaps_frac", "frac", ratio(s.gaps_ns, s.body_ns));

  for (const std::string& k : kKinds) add("net.msgs." + k + "_per_job", "count", s.per_job("net.msg." + k));
  for (const std::string& k : kKinds) add("net.bytes." + k + "_per_job", "B", s.per_job("net.bytes." + k));
  add("net.send_ns.mean", "ns", s.hist_mean("net.send_ns"));
  add("net.fabric.send_call_ns", "ns", lt.fabric_send_ns);
  add("net.fabric.multicast_call_ns", "ns", lt.fabric_multicast_ns);
  add("net.mailbox.handoff_ns", "ns", lt.mailbox_handoff_ns);

  const double acks = s.sum("net.acks");
  add("net.reliable.acks_per_data_msg", "ratio", ratio(acks, msgs - acks));
  add("net.reliable.ack_bytes_per_job", "B", s.per_job("net.ack_bytes"));
  add("net.reliable.retransmits_per_job", "count", s.per_job("net.retransmits"));

  add("common.vc.merge_ns", "ns", lt.vc_merge_ns);
  add("common.vc.compare_ns", "ns", lt.vc_compare_ns);

  add("history.ops_per_job", "count", ht.ops);
  add("history.feed_ns_per_op", "ns", ratio(ht.feed_ns, ht.ops));
  add("history.finalize_ms", "ms", ht.finalize_ns / 1e6);
  add("history.edges_per_op", "count", ratio(ht.edges, ht.ops));

  for (std::size_t c = 0; c < obs::kCpCategories; ++c) {
    add(std::string("obs.cp.") + obs::to_string(static_cast<obs::CpCategory>(c)) + "_frac",
        "frac", ratio(traced.cp_ns[c], traced.cp_total_ns));
  }
  add("obs.trace_overhead_frac", "frac",
      1.0 - ratio(ratio(traced.jobs(), wall_sum_s(traced)), ratio(jobs, wall_sum_s(s))));
  add("obs.trace.dropped", "count", traced.trace_dropped);
  return m;
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--tiny] [--corrupt]\n");
    return 2;
  }
  if (make_workload(args.workload) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool traced_run = args.trace == 1;

  // Set-up: inputs, sequential references and one warm-up pass over the
  // pool, repeated so setup_s can report a median.  setup_s is the CPU time
  // (user + system, all threads) of one set-up: on a shared host, wall time
  // doubles while the host steals the machine's CPUs, CPU time does not.
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    const double cpu0 = cpu_ms();
    std::unique_ptr<Workload> cand = make_workload(args.workload);
    cand->setup(args.seed, args.tiny);
    for (std::size_t item = 0; item < cand->pool_size(); ++item) {
      const JobOutcome o = cand->run_job(item, false, traced_run);
      ++attempted;
      if (!o.ok) {
        report_failure(o, attempted);
        ++failed;
      }
    }
    setup_s.push_back((cpu_ms() - cpu0) / 1e3);
    w = std::move(cand);
  }

  std::vector<Metric> metrics;
  bool ledger_ok = true;
  if (!traced_run) {
    const Series s = run_series(*w, args.seconds, args.corrupt, false, false);
    attempted += s.attempted;
    failed += s.failed;
    metrics = end_to_end(s, quantile(setup_s, 0.5));
    std::fprintf(stderr, "perfbench: %s seed %llu: %zu jobs (job_ms samples) in %.2f s\n",
                 args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                 s.job_ms.size(), s.wall_s);
  } else {
    const double phase_s = args.seconds * kTracedRunPhaseShare;
    const Series plain = run_series(*w, phase_s, args.corrupt, true, false);
    const Series traced = run_series(*w, phase_s, false, true, true, kMaxTracedJobs);
    attempted += plain.attempted + traced.attempted;
    failed += plain.failed + traced.failed;
    const double frames = plain.sum("net.batch.msgs");
    const std::size_t records_per_frame =
        frames > 0 ? std::max<std::size_t>(
                         1, static_cast<std::size_t>(
                                std::lround(plain.sum("net.batch.updates") / frames)))
                   : dsm::BatchingConfig{}.max_updates;
    const LayerTimings lt = time_layers(w->procs(), records_per_frame, args.seed);
    const HistoryTimings ht = time_history(*w);
    if (!ht.ok) {
      std::fprintf(stderr, "perfbench: history check FAILED: %s\n", ht.error.c_str());
      ledger_ok = false;
    }
    metrics = per_layer(*w, plain, traced, lt, ht);

    double cp_sum = 0.0;
    for (const double c : traced.cp_ns) cp_sum += c;
    if (!(traced.cp_total_ns > 0.0 &&
          std::abs(cp_sum - traced.cp_total_ns) <= kLedgerBound * traced.cp_total_ns)) {
      std::fprintf(stderr, "perfbench: critical-path categories (%.0f ns) do not sum to "
                   "the path total (%.0f ns)\n", cp_sum, traced.cp_total_ns);
      ledger_ok = false;
    }
    if (plain.body_ns > 0.0 &&
        std::abs(plain.calls_ns + plain.gaps_ns - plain.body_ns) > kLedgerBound * plain.body_ns) {
      std::fprintf(stderr, "perfbench: Node calls (%.0f ns) + gaps (%.0f ns) do not account "
                   "for the body time (%.0f ns)\n", plain.calls_ns, plain.gaps_ns,
                   plain.body_ns);
      ledger_ok = false;
    }
    std::fprintf(stderr, "perfbench: %s seed %llu: %zu untraced + %zu traced jobs\n",
                 args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                 plain.job_ms.size(), traced.job_ms.size());
  }
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      m.value = 0.0;  // JSON has no NaN; the run is reported incorrect
      ledger_ok = false;
    }
  }
  const bool correct = failed == 0 && ledger_ok;
  const bool written = print_result(correct, attempted, failed, metrics);
  if (!written) std::fprintf(stderr, "perfbench: FAILED to write the result\n");
  return correct && written ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
