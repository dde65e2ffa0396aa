// Chaos soak — long-horizon fault soak with the online consistency monitor
// and the time-series sampler attached (docs/FAULTS.md, docs/CHECKING.md §10).
//
// The Section 5 applications loop under a seeded fault plan (drops,
// duplicates, delay spikes) with the reliability layer repairing the
// channel.  Every iteration runs with a live ConsistencyMonitor attached to
// the nodes' operation sinks, so consistency is checked *while* the faults
// are active, not post-mortem; a background MetricsSampler diffs the merged
// metrics into timestamped delta records.  The run streams as JSONL
// (--jsonl): one meta line, sample lines from the time-series, one line per
// iteration with its verdict, a violation line (with the counterexample DOT
// embedded) if the monitor ever fires, and a final summary line.
// tools/validate_soak.py checks the stream's invariants.
//
//   bench_soak --duration 30 --seed 1 --jsonl soak.jsonl
//   bench_soak --smoke               # one quick pass per app
//   bench_soak --crash-rate 1 ...    # every iteration crash-stops a process
//
// With --crash-rate in (0, 1], that fraction of iterations runs an elastic
// variant (docs/FAULTS.md "Membership and views") and crash-stops one
// process mid-run on top of the usual chaos: the survivors must complete
// via the view change, the monitor must stay clean across the eviction, and
// each such iteration emits a view_change JSONL record with the final epoch.
//
// Clean runs must report zero violations: the faults live strictly below
// the reliability layer, so the memory-model guarantees still hold — that
// is the soak's whole point.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "apps/cholesky.h"
#include "apps/equation_solver.h"
#include "bench_util.h"
#include "dsm/system.h"
#include "net/fault.h"
#include "obs/json.h"
#include "obs/monitor.h"
#include "obs/timeseries.h"

using namespace mc;
using namespace mc::apps;
using namespace mc::bench;

namespace {

net::FaultPlan chaos_plan(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = 0.05;
  plan.dup_prob = 0.05;
  plan.delay_prob = 0.02;
  plan.delay_factor = 10.0;
  plan.delay_floor = std::chrono::microseconds(50);
  return plan;
}

/// splitmix64: decorrelate per-iteration seeds from the master seed.
std::uint64_t mix_seed(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Everything the sampler thread reads while iterations come and go.  The
/// cumulative snapshot accumulates counters (and overwrites gauges) across
/// finished iterations; the live monitor of the current iteration is
/// layered on top, so counter deltas stay monotone over the whole soak.
struct SoakState {
  std::mutex mu;
  MetricsSnapshot cumulative;
  obs::ConsistencyMonitor* live = nullptr;
  std::uint64_t iterations = 0;
  std::uint64_t stalls = 0;
  std::uint64_t crashes = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t violations_causal = 0;
  std::uint64_t violations_pram = 0;
  std::uint64_t violations_mixed = 0;

  void merge(const MetricsSnapshot& add) {
    for (const auto& [k, v] : add.values) {
      if (obs::timeseries_is_gauge(k)) {
        cumulative.values[k] = v;
      } else {
        cumulative.values[k] += v;
      }
    }
  }

  [[nodiscard]] MetricsSnapshot snapshot() {
    std::scoped_lock lk(mu);
    MetricsSnapshot snap = cumulative;
    std::uint64_t vc = violations_causal, vp = violations_pram, vm = violations_mixed;
    if (live != nullptr) {
      const auto st = live->status();
      for (const auto& [k, v] : live->metrics().values) {
        if (obs::timeseries_is_gauge(k)) {
          snap.values[k] = v;
        } else {
          snap.values[k] += v;
        }
      }
      vc += st.counts.violations_causal;
      vp += st.counts.violations_pram;
      vm += st.counts.violations_mixed;
    }
    // Soak-wide rolling verdicts (1 = no violation of that model so far),
    // overriding the current iteration's local view.
    snap.values["monitor.verdict.causal"] = vc == 0 ? 1 : 0;
    snap.values["monitor.verdict.pram"] = vp == 0 ? 1 : 0;
    snap.values["monitor.verdict.mixed"] = vm == 0 ? 1 : 0;
    snap.values["soak.iterations"] = iterations;
    snap.values["soak.crashes"] = crashes;
    snap.values["soak.view_changes"] = view_changes;
    snap.values["watchdog.stalls"] = stalls;
    return snap;
  }
};

struct IterationOutcome {
  std::string app;
  double wall_ms = 0.0;
  bool stalled = false;
  std::string stall_reason;
  bool crashed = false;
  history::GraphVerdict verdict;
  obs::ConsistencyMonitor::Status status;
  std::string first_dot;
  MetricsSnapshot metrics;
  obs::ProfileReport profile;  ///< only under --profile
};

/// One application run under chaos with a fresh monitor attached.  The
/// monitor is per-iteration because WriteId sequence numbers restart with
/// each MixedSystem.  Crash iterations run the elastic variants and
/// crash-stop one process on top of the chaos plan.
IterationOutcome run_iteration(std::size_t which, std::uint64_t seed, bool crash,
                               const std::optional<obs::ProfilerOptions>& prof,
                               SoakState& state) {
  IterationOutcome out;
  out.crashed = crash;
  const auto cases = which % 4;

  std::size_t procs = 4;  // workers + coordinator
  if (!crash && (cases == 2 || cases == 3)) procs = 3;
  if (crash && cases % 2 == 1) procs = 3;
  auto monitor = std::make_unique<obs::ConsistencyMonitor>(procs);
  if (crash) monitor->enable_elastic(dsm::full_mask(procs));
  {
    std::scoped_lock lk(state.mu);
    state.live = monitor.get();
  }
  const auto hook = [&](dsm::MixedSystem& sys) { sys.attach_op_sink(monitor.get()); };
  const auto stall_timeout = std::chrono::seconds(10);

  if (crash) {
    if (cases % 2 == 0) {
      // Elastic barrier solver: one worker goes silent after an early
      // sweep; the coordinator keeps planning it until the reliability
      // layer's give-up verdict drives the eviction.
      const LinearSystem sys = LinearSystem::random(16, 2);
      SolverOptions opt;
      opt.workers = procs - 1;
      opt.seed = seed;
      opt.faults = chaos_plan(seed);
      opt.reliable = true;
      opt.system_hook = hook;
      opt.stall_timeout = stall_timeout;
      opt.profile = prof;
      ElasticSchedule sched;
      sched.crash_after[seed % opt.workers] = (seed >> 8) % 3;
      const SolverResult r = solve_barrier_elastic(sys, opt, sched);
      out.app = "solver-elastic-crash";
      out.wall_ms = r.elapsed_ms;
      out.stalled = r.stalled;
      out.stall_reason = r.stall_reason;
      out.metrics = r.metrics;
      out.profile = r.profile;
    } else {
      // Cholesky crash drill: the victim finishes its columns, then skips
      // the final barrier; the survivors complete via the view change.
      const SparseSpd m = SparseSpd::random(20, 3, 0.1, 3);
      const Symbolic sym = analyze(m);
      CholeskyOptions opt;
      opt.procs = procs;
      opt.seed = seed;
      // No chaos on top of the crash: the drill's contract is that the
      // victim's contributions all propagated before it went silent, but a
      // chaos-dropped copy whose retransmit the crash injector then kills
      // is lost forever — a survivor awaiting that count decrement stalls.
      // The solver iteration covers chaos+crash (sweeps self-heal).
      opt.reliable = true;
      opt.system_hook = hook;
      opt.stall_timeout = stall_timeout;
      opt.profile = prof;
      opt.crash_proc = static_cast<ProcId>(1 + seed % (procs - 1));
      const CholeskyResult r = cholesky_locks(m, sym, opt);
      out.app = "cholesky-locks-crash";
      out.wall_ms = r.elapsed_ms;
      out.stalled = r.stalled;
      out.stall_reason = r.stall_reason;
      out.metrics = r.metrics;
      out.profile = r.profile;
    }
  } else if (cases == 0 || cases == 1) {
    const LinearSystem sys = LinearSystem::random(16, 2);
    SolverOptions opt;
    opt.workers = procs - 1;
    opt.seed = seed;
    opt.faults = chaos_plan(seed);
    opt.reliable = true;
    opt.system_hook = hook;
    opt.stall_timeout = stall_timeout;
    opt.profile = prof;
    const SolverResult r =
        cases == 0 ? solve_barrier_pram(sys, opt) : solve_handshake_causal(sys, opt);
    out.app = cases == 0 ? "solver-barrier" : "solver-handshake";
    out.wall_ms = r.elapsed_ms;
    out.stalled = r.stalled;
    out.stall_reason = r.stall_reason;
    out.metrics = r.metrics;
    out.profile = r.profile;
  } else {
    const SparseSpd m = SparseSpd::random(20, 3, 0.1, 3);
    const Symbolic sym = analyze(m);
    CholeskyOptions opt;
    opt.procs = procs;
    opt.seed = seed;
    opt.faults = chaos_plan(seed);
    opt.reliable = true;
    opt.system_hook = hook;
    opt.stall_timeout = stall_timeout;
    opt.profile = prof;
    const CholeskyResult r =
        cases == 2 ? cholesky_locks(m, sym, opt) : cholesky_counters(m, sym, opt);
    out.app = cases == 2 ? "cholesky-locks" : "cholesky-counters";
    out.wall_ms = r.elapsed_ms;
    out.stalled = r.stalled;
    out.stall_reason = r.stall_reason;
    out.metrics = r.metrics;
    out.profile = r.profile;
  }

  // Detach from the sampler before the monitor is finalized and destroyed.
  {
    std::scoped_lock lk(state.mu);
    state.live = nullptr;
  }
  out.verdict = monitor->finalize();
  out.status = monitor->status();
  out.first_dot = monitor->first_violation_dot();

  std::scoped_lock lk(state.mu);
  state.merge(out.metrics);
  state.merge(monitor->metrics());
  ++state.iterations;
  if (out.stalled) ++state.stalls;
  if (crash) ++state.crashes;
  state.view_changes += out.metrics.get("view.changes");
  state.violations_causal += out.status.counts.violations_causal;
  state.violations_pram += out.status.counts.violations_pram;
  state.violations_mixed += out.status.counts.violations_mixed;
  return out;
}

void jsonl_verdict(obs::JsonWriter& w, const history::GraphVerdict& v) {
  w.key("verdict").begin_object();
  w.key("well_formed").value(v.well_formed);
  w.key("mixed").value(v.mixed.ok);
  w.key("causal").value(v.causal.ok);
  w.key("pram").value(v.pram.ok);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  double duration_s = 10.0;
  double crash_rate = 0.0;
  std::uint64_t seed = 1;
  std::string jsonl_path;

  // Peel off our own flags before Harness (which rejects unknown ones).
  std::vector<char*> pass{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--duration" && i + 1 < argc) {
      duration_s = std::atof(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--jsonl" && i + 1 < argc) {
      jsonl_path = argv[++i];
    } else if (arg == "--crash-rate" && i + 1 < argc) {
      crash_rate = std::atof(argv[++i]);
    } else {
      pass.push_back(argv[i]);
    }
  }
  Harness h("bench_soak", static_cast<int>(pass.size()), pass.data());
  h.config("fault_plan", "drop=0.05 dup=0.05 delay=0.02x10+50us");
  h.config("seed", std::to_string(seed));
  h.config("crash_rate", std::to_string(crash_rate));
  if (h.smoke()) duration_s = 0.0;  // one rotation through the apps

  print_header("Chaos soak — online consistency monitoring under faults",
               "each iteration: one Section 5 app under chaos, live monitor "
               "attached, verdict per model");

  SoakState state;
  obs::MetricsSampler sampler([&state] { return state.snapshot(); },
                              std::chrono::milliseconds(250),
                              /*capacity=*/1 << 16);

  std::vector<std::string> iteration_lines;
  std::string violation_line;
  std::uint64_t violations_total = 0;
  std::uint64_t skipped_total = 0;
  bool structural_failure = false;

  // Under --profile, each iteration's contention profile merges into a
  // soak-cumulative report; the stream carries one `profile` record per
  // iteration (tracked/overflow counts are monotone — validate_soak.py
  // checks that).
  const std::optional<obs::ProfilerOptions> prof =
      h.profiling() ? std::optional(h.profile_options()) : std::nullopt;
  obs::ProfileReport cumulative_profile(prof.value_or(obs::ProfilerOptions{}));

  Stopwatch clock;
  std::size_t iter = 0;
  // At least one full rotation through the app mix, then run out the clock.
  std::uint64_t view_changes_cum = 0;
  while (iter < 4 || clock.elapsed_ms() < duration_s * 1000.0) {
    // Seeded crash decision: deterministic per (seed, iter), so a given
    // command line always crashes the same iterations.
    const bool crash =
        crash_rate > 0.0 &&
        static_cast<double>(mix_seed(seed * 1000003 + iter) % 1000000) <
            crash_rate * 1e6;
    const IterationOutcome out =
        run_iteration(iter, mix_seed(seed + iter), crash, prof, state);

    const auto& c = out.status.counts;
    const std::uint64_t iter_violations =
        c.violations_causal + c.violations_pram + c.violations_mixed;
    violations_total += iter_violations;
    skipped_total += out.status.skipped;
    structural_failure = structural_failure || out.status.structural_failed;

    obs::JsonWriter w(0);
    w.begin_object();
    w.key("type").value("iteration");
    w.key("n").value(static_cast<std::uint64_t>(iter));
    w.key("app").value(out.app);
    w.key("wall_ms").value(out.wall_ms);
    w.key("stalled").value(out.stalled);
    jsonl_verdict(w, out.verdict);
    w.key("ops").value(c.fed);
    w.key("live_nodes").value(c.live_nodes);
    w.key("retired").value(c.retired);
    w.key("prunes").value(c.prunes);
    w.key("skipped").value(out.status.skipped);
    w.end_object();
    iteration_lines.push_back(w.str());

    if (out.crashed) {
      // One membership record per crash iteration: the epoch the survivors
      // finished under plus the cumulative view-change count (monotone
      // across the stream — validate_soak.py checks both).
      view_changes_cum += out.metrics.get("view.changes");
      obs::JsonWriter vw(0);
      vw.begin_object();
      vw.key("type").value("view_change");
      vw.key("iteration").value(static_cast<std::uint64_t>(iter));
      vw.key("app").value(out.app);
      vw.key("epoch").value(out.metrics.get("view.epoch"));
      vw.key("faults").value(out.metrics.get("view.faults"));
      vw.key("locks_revoked").value(out.metrics.get("view.locks_revoked"));
      vw.key("reseed_assignments").value(out.metrics.get("view.reseed_assignments"));
      vw.key("total").value(view_changes_cum);
      vw.end_object();
      iteration_lines.push_back(vw.str());
    }

    if (prof.has_value()) {
      cumulative_profile.merge(out.profile);
      const auto hot_vars = cumulative_profile.top_vars(1);
      const auto hot_locks = cumulative_profile.top_locks(1);
      obs::JsonWriter pw(0);
      pw.begin_object();
      pw.key("type").value("profile");
      pw.key("iteration").value(static_cast<std::uint64_t>(iter));
      pw.key("app").value(out.app);
      pw.key("vars_tracked").value(
          static_cast<std::uint64_t>(cumulative_profile.vars.entries.size()));
      pw.key("vars_overflow").value(cumulative_profile.vars.overflow_events);
      pw.key("locks_tracked").value(
          static_cast<std::uint64_t>(cumulative_profile.locks.entries.size()));
      pw.key("locks_overflow").value(cumulative_profile.locks.overflow_events);
      pw.key("barriers_tracked").value(
          static_cast<std::uint64_t>(cumulative_profile.barriers.entries.size()));
      pw.key("barriers_overflow").value(cumulative_profile.barriers.overflow_events);
      if (!hot_vars.empty()) {
        pw.key("hot_var").value(static_cast<std::uint64_t>(hot_vars.front().first));
        pw.key("hot_var_ops").value(hot_vars.front().second.total_ops());
      }
      if (!hot_locks.empty()) {
        pw.key("hot_lock").value(static_cast<std::uint64_t>(hot_locks.front().first));
        pw.key("hot_lock_acquires").value(hot_locks.front().second.acquires);
      }
      pw.end_object();
      iteration_lines.push_back(pw.str());
    }

    if (iter_violations > 0 && violation_line.empty()) {
      obs::JsonWriter vw(0);
      vw.begin_object();
      vw.key("type").value("violation");
      vw.key("iteration").value(static_cast<std::uint64_t>(iter));
      vw.key("app").value(out.app);
      vw.key("message").value(out.verdict.mixed.ok ? out.verdict.causal.message()
                                                   : out.verdict.mixed.message());
      vw.key("dot").value(out.first_dot);
      vw.end_object();
      violation_line = vw.str();
      if (!jsonl_path.empty() && !out.first_dot.empty()) {
        std::ofstream dot(jsonl_path + ".cx.dot");
        dot << out.first_dot;
      }
    }

    std::printf("iter %-4zu %-18s %7.1fms  verdict mixed=%s causal=%s pram=%s "
                "ops=%-6llu live=%-5llu prunes=%-4llu%s\n",
                iter, out.app.c_str(), out.wall_ms,
                out.verdict.mixed.ok ? "ok" : "VIOLATION",
                out.verdict.causal.ok ? "ok" : "violation",
                out.verdict.pram.ok ? "ok" : "violation",
                static_cast<unsigned long long>(c.fed),
                static_cast<unsigned long long>(c.live_nodes),
                static_cast<unsigned long long>(c.prunes),
                out.stalled ? "  STALLED" : "");

    auto& row = h.add_row("soak-" + std::to_string(iter) + "-" + out.app);
    row.params["app"] = out.app;
    row.params["seed"] = std::to_string(mix_seed(seed + iter));
    row.wall_ms = out.wall_ms;
    row.metrics = out.metrics;
    if (prof.has_value() && !out.profile.empty()) {
      Harness::set_profile(row, out.profile);
    }
    ++iter;
  }

  sampler.stop();
  const MetricsSnapshot last = state.snapshot();

  if (!jsonl_path.empty()) {
    std::ofstream f(jsonl_path);
    obs::JsonWriter meta(0);
    meta.begin_object();
    meta.key("type").value("meta");
    meta.key("bench").value("bench_soak");
    meta.key("seed").value(seed);
    meta.key("duration_s").value(duration_s);
    meta.key("smoke").value(h.smoke());
    meta.key("crash_rate").value(crash_rate);
    meta.key("apps").begin_array();
    for (const char* a : {"solver-barrier", "solver-handshake", "cholesky-locks",
                          "cholesky-counters"}) {
      meta.value(a);
    }
    meta.end_array();
    meta.end_object();
    f << meta.str() << '\n';
    f << sampler.series().to_jsonl();
    for (const auto& line : iteration_lines) f << line << '\n';
    if (!violation_line.empty()) f << violation_line << '\n';

    obs::JsonWriter fin(0);
    fin.begin_object();
    fin.key("type").value("final");
    fin.key("iterations").value(static_cast<std::uint64_t>(iter));
    fin.key("stalls").value(state.stalls);
    fin.key("crashes").value(state.crashes);
    fin.key("view_changes").value(state.view_changes);
    fin.key("violations").value(violations_total);
    fin.key("skipped").value(skipped_total);
    fin.key("structural_failure").value(structural_failure);
    fin.key("verdict").begin_object();
    fin.key("causal").value(last.get("monitor.verdict.causal") == 1);
    fin.key("pram").value(last.get("monitor.verdict.pram") == 1);
    fin.key("mixed").value(last.get("monitor.verdict.mixed") == 1);
    fin.end_object();
    fin.key("samples").value(static_cast<std::uint64_t>(sampler.series().size()));
    fin.key("samples_dropped").value(sampler.series().dropped());
    fin.key("elapsed_s").value(clock.elapsed_ms() / 1000.0);
    fin.end_object();
    f << fin.str() << '\n';
    std::fprintf(stderr, "wrote %s (%zu samples, %zu iterations)\n",
                 jsonl_path.c_str(), sampler.series().size(), iter);
  }

  std::printf("\nsoak: %zu iterations, %llu violations, %llu stalls, "
              "%zu samples (%llu dropped)\n",
              iter, static_cast<unsigned long long>(violations_total),
              static_cast<unsigned long long>(state.stalls),
              sampler.series().size(),
              static_cast<unsigned long long>(sampler.series().dropped()));

  const int written = h.finish();
  return violations_total == 0 && !structural_failure ? written : 1;
}
