// Experiments F5, C2: Section 5.3 sparse Cholesky factorization.
//
// Figure 5's lock-based column algorithm against the counter-object
// formulation.  Section 7's Maya result (C2): "an algorithm using counter
// objects outperforms the lock-based algorithm significantly" — here that
// must show as fewer messages, zero lock traffic, and lower wall time.

#include <cstdio>
#include <string>

#include "apps/cholesky.h"
#include "bench_util.h"

using namespace mc;
using namespace mc::apps;
using namespace mc::bench;

namespace {

void run_case(Harness& h, std::size_t n, std::size_t procs) {
  const SparseSpd m = SparseSpd::random(n, 3, 0.05, 9000 + n);
  const Symbolic sym = analyze(m);
  CholeskyOptions opt;
  opt.procs = procs;
  opt.latency = net::LatencyModel::fast();
  if (h.profiling()) opt.profile = h.profile_options();

  struct Row {
    const char* name;
    CholeskyResult r;
  };
  const Row rows[] = {
      {"fig5-locks-causal", cholesky_locks(m, sym, opt)},
      {"counter-objects", cholesky_counters(m, sym, opt)},
  };
  for (const Row& row : rows) {
    const double err = factorization_error(m, row.r.l);
    std::printf("%-18s n=%-4zu procs=%zu nnzL=%-6zu time=%8.2fms msgs=%-8llu "
                "bytes=%-10llu locks=%-6llu err=%.1e\n",
                row.name, n, procs, sym.fill_nnz(), row.r.elapsed_ms,
                msgs(row.r.metrics), bytes(row.r.metrics),
                static_cast<unsigned long long>(row.r.metrics.get("net.msg.lock_req")),
                err);
    auto& out = h.add_row(row.name);
    out.params["n"] = std::to_string(n);
    out.params["procs"] = std::to_string(procs);
    out.params["nnzL"] = std::to_string(sym.fill_nnz());
    out.wall_ms = row.r.elapsed_ms;
    out.stats["factorization_error"] = err;
    out.metrics = row.r.metrics;
    if (h.profiling() && !row.r.profile.empty()) {
      Harness::set_profile(out, row.r.profile);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("bench_cholesky", argc, argv);
  h.config("latency", "fast");

  print_header("F5/C2 — sparse Cholesky factorization (Section 5.3, Figure 5)",
               "write locks + causal reads vs commutative counter objects; "
               "expect counters to win significantly (Section 7)");
  const std::vector<std::size_t> sizes =
      h.smoke() ? std::vector<std::size_t>{24} : std::vector<std::size_t>{32, 64, 96};
  const std::vector<std::size_t> proc_counts =
      h.smoke() ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4};
  for (const std::size_t n : sizes) {
    for (const std::size_t procs : proc_counts) {
      run_case(h, n, procs);
    }
    std::printf("\n");
  }
  return h.finish();
}
