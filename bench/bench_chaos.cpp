// Experiment C11 — the price of robustness (docs/FAULTS.md).
//
// The reliability layer rebuilds the reliable-FIFO channel Section 6
// assumes; this harness measures what that costs.  Each Section 5
// application runs three ways:
//
//   ideal     — the bare fabric, no faults, no reliability (the seed
//               configuration every other experiment uses);
//   reliable  — reliability enabled on a clean fabric (pure protocol
//               overhead: sequence headers + acks, zero retransmits);
//   chaos     — reliability over a faulty fabric (drops, duplicates,
//               delay spikes), the configuration the chaos suite tests.
//
// Reported per case: wall time, messages, bytes, retransmits, ack bytes —
// so the overhead decomposes into "headers and acks" vs "repairing loss".

#include <cstdio>
#include <string>

#include "apps/cholesky.h"
#include "apps/em_field.h"
#include "apps/em_field2d.h"
#include "apps/equation_solver.h"
#include "bench_util.h"
#include "net/fault.h"

using namespace mc;
using namespace mc::apps;
using namespace mc::bench;

namespace {

enum class Mode { kIdeal, kReliable, kChaos };

const char* to_string(Mode m) {
  switch (m) {
    case Mode::kIdeal: return "ideal";
    case Mode::kReliable: return "reliable";
    default: return "chaos";
  }
}

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

void report(Harness& h, const std::string& app, Mode mode, double ms,
            const MetricsSnapshot& m) {
  std::printf("%-10s %-9s time=%8.2fms msgs=%-8llu bytes=%-10llu "
              "retrans=%-5llu ack_bytes=%-8llu dropped=%-5llu\n",
              app.c_str(), to_string(mode), ms, msgs(m), bytes(m),
              static_cast<unsigned long long>(m.get("net.retransmits")),
              static_cast<unsigned long long>(m.get("net.ack_bytes")),
              static_cast<unsigned long long>(m.get("net.fault.dropped")));
  auto& row = h.add_row(app + "-" + to_string(mode));
  row.params["app"] = app;
  row.params["mode"] = to_string(mode);
  row.wall_ms = ms;
  row.metrics = m;
}

void solver_case(Harness& h, Mode mode) {
  const LinearSystem sys = LinearSystem::random(16, 2);
  SolverOptions opt;
  opt.workers = 3;
  opt.reliable = mode != Mode::kIdeal;
  if (mode == Mode::kChaos) opt.faults = chaos_plan(11);
  if (h.profiling()) opt.profile = h.profile_options();
  const auto r = solve_barrier_pram(sys, opt);
  report(h, "solver", mode, r.elapsed_ms, r.metrics);
  if (h.profiling() && !r.profile.empty()) {
    Harness::set_profile(h.last_row(), r.profile);
  }
}

void cholesky_case(Harness& h, Mode mode) {
  const SparseSpd m = SparseSpd::random(20, 3, 0.1, 3);
  const Symbolic sym = analyze(m);
  CholeskyOptions opt;
  opt.procs = 3;
  opt.reliable = mode != Mode::kIdeal;
  if (mode == Mode::kChaos) opt.faults = chaos_plan(22);
  if (h.profiling()) opt.profile = h.profile_options();
  const auto r = cholesky_locks(m, sym, opt);
  report(h, "cholesky", mode, r.elapsed_ms, r.metrics);
  if (h.profiling() && !r.profile.empty()) {
    Harness::set_profile(h.last_row(), r.profile);
  }
}

void em_case(Harness& h, Mode mode) {
  EmProblem prob;
  prob.m = 64;
  prob.steps = 16;
  const auto r = em_mixed(
      prob, 4, ReadMode::kPram, EmSharing::kFullGrid, {}, 1, false,
      mode == Mode::kChaos ? std::optional<net::FaultPlan>(chaos_plan(33))
                           : std::nullopt,
      mode != Mode::kIdeal);
  report(h, "em-field", mode, r.elapsed_ms, r.metrics);
}

void em2d_case(Harness& h, Mode mode) {
  Em2dProblem prob;
  prob.nx = 24;
  prob.ny = 16;
  prob.steps = 8;
  const auto r = em2d_mixed(
      prob, 3, ReadMode::kPram, {}, 1,
      mode == Mode::kChaos ? std::optional<net::FaultPlan>(chaos_plan(44))
                           : std::nullopt,
      mode != Mode::kIdeal);
  report(h, "em-field2d", mode, r.elapsed_ms, r.metrics);
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("bench_chaos", argc, argv);
  h.config("fault_plan", "drop=0.05 dup=0.05 delay=0.02x10+50us");

  print_header("C11 — reliability overhead and chaos recovery (docs/FAULTS.md)",
               "each app: bare fabric vs reliability-on-clean vs "
               "reliability-under-faults");
  for (const Mode mode : {Mode::kIdeal, Mode::kReliable, Mode::kChaos}) {
    solver_case(h, mode);
  }
  if (!h.smoke()) {
    std::printf("\n");
    for (const Mode mode : {Mode::kIdeal, Mode::kReliable, Mode::kChaos}) {
      cholesky_case(h, mode);
    }
    std::printf("\n");
    for (const Mode mode : {Mode::kIdeal, Mode::kReliable, Mode::kChaos}) {
      em_case(h, mode);
    }
    std::printf("\n");
    for (const Mode mode : {Mode::kIdeal, Mode::kReliable, Mode::kChaos}) {
      em2d_case(h, mode);
    }
  }

  h.finish();
  return h.finish();
}
