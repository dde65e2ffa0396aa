// Experiments F2, F3, C1: the Section 5.1 equation solver.
//
// Regenerates the Section 7 comparison between the Figure 2 (barriers +
// PRAM) and Figure 3 (handshaking + causal) formulations, with the SC
// baseline as the strong-memory reference.  The paper's claim (C1): the
// barrier formulation outperforms handshaking.  Judged on protocol cost —
// messages, bytes, and time blocked in the consistency machinery.

#include <cstdio>
#include <string>
#include <vector>

#include "apps/equation_solver.h"
#include "bench_util.h"

using namespace mc;
using namespace mc::apps;
using namespace mc::bench;

namespace {

void run_case(Harness& h, std::size_t n, std::size_t workers) {
  const LinearSystem sys = LinearSystem::random(n, 1000 + n);
  SolverOptions opt;
  opt.workers = workers;
  opt.latency = net::LatencyModel::fast();
  opt.tol = 1e-8;
  if (h.profiling()) opt.profile = h.profile_options();

  SolverOptions no_ts = opt;
  no_ts.omit_timestamps = true;  // Section 6: legal because Fig 2 is
                                 // PRAM-consistent (Corollary 2)

  // Run each formulation and report it immediately, so that under --trace
  // the row's critical-path window covers exactly that solve.
  const auto run_one = [&](const char* name, auto&& solve,
                           const char* blocked_key) {
    h.mark();
    const SolverResult r = solve();
    std::printf("%-24s n=%-4zu workers=%zu iters=%-3zu time=%8.2fms msgs=%-8llu "
                "bytes=%-10llu blocked=%8.2fms\n",
                name, n, workers, r.iterations, r.elapsed_ms, msgs(r.metrics),
                bytes(r.metrics), blocked_ms(r.metrics, blocked_key));
    auto& out = h.add_row(name);
    out.params["n"] = std::to_string(n);
    out.params["workers"] = std::to_string(workers);
    out.wall_ms = r.elapsed_ms;
    out.stats["iterations"] = static_cast<double>(r.iterations);
    out.metrics = r.metrics;
    // The SC baseline runs without a profiler, so its report stays empty.
    if (h.profiling() && !r.profile.empty()) Harness::set_profile(out, r.profile);
  };
  run_one("fig2-barrier-pram", [&] { return solve_barrier_pram(sys, opt); },
          "dsm.blocked_ns");
  run_one("fig2-pram-no-timestamps", [&] { return solve_barrier_pram(sys, no_ts); },
          "dsm.blocked_ns");
  run_one("fig3-handshake-causal", [&] { return solve_handshake_causal(sys, opt); },
          "dsm.blocked_ns");
  if (n <= 24 && workers == 2) {
    // Section 7's chaotic-relaxation observation: converges with zero
    // synchronization, at the cost of free-running (redundant) sweeps and
    // update traffic.  Reported on the small case only; `iters` counts the
    // coordinator's residual polls.
    run_one("async-gauss-seidel", [&] { return solve_async_gauss_seidel(sys, opt); },
            "dsm.blocked_ns");
  }
  run_one("sc-baseline", [&] { return solve_sc_baseline(sys, opt); },
          "sc.blocked_ns");
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("bench_solver", argc, argv);
  h.config("latency", "fast");
  h.config("tol", "1e-8");

  print_header("F2/F3/C1 — iterative equation solver (Section 5.1, Figures 2-3)",
               "barrier+PRAM vs handshake+causal vs SC; expect fig2 cheapest "
               "(fewer messages, less blocking), SC most expensive");
  const std::vector<std::size_t> sizes =
      h.smoke() ? std::vector<std::size_t>{16} : std::vector<std::size_t>{24, 48, 96};
  const std::vector<std::size_t> worker_counts =
      h.smoke() ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4};
  for (const std::size_t n : sizes) {
    for (const std::size_t workers : worker_counts) {
      run_case(h, n, workers);
    }
    std::printf("\n");
  }
  return h.finish();
}
