// Section 5.1 integration: both parallel solver formulations converge to
// the sequential reference (bitwise — the arithmetic is shared), their
// traces satisfy the paper's conditions, and the SC baseline agrees.

#include <gtest/gtest.h>

#include "apps/equation_solver.h"
#include "history/checkers.h"
#include "history/program_analysis.h"

namespace mc::apps {
namespace {

struct Case {
  std::size_t n;
  std::size_t workers;
  std::uint64_t seed;
};

class SolverSweep : public ::testing::TestWithParam<Case> {};

INSTANTIATE_TEST_SUITE_P(Sizes, SolverSweep,
                         ::testing::Values(Case{8, 2, 1}, Case{16, 3, 2}, Case{24, 4, 3},
                                           Case{32, 2, 4}, Case{13, 3, 5}),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "_w" +
                                  std::to_string(info.param.workers) + "_s" +
                                  std::to_string(info.param.seed);
                         });

TEST_P(SolverSweep, BarrierPramMatchesReferenceExactly) {
  const auto& c = GetParam();
  const LinearSystem sys = LinearSystem::random(c.n, c.seed);
  SolverOptions opt;
  opt.workers = c.workers;
  const auto ref = jacobi_reference(sys, opt.tol, opt.max_iters);
  const auto par = solve_barrier_pram(sys, opt);
  ASSERT_TRUE(ref.converged);
  ASSERT_TRUE(par.converged);
  EXPECT_EQ(par.iterations, ref.iterations);
  EXPECT_EQ(max_abs_diff(par.x, ref.x), 0.0) << "arithmetic must be identical";
}

TEST_P(SolverSweep, HandshakeCausalMatchesReferenceExactly) {
  const auto& c = GetParam();
  const LinearSystem sys = LinearSystem::random(c.n, c.seed);
  SolverOptions opt;
  opt.workers = c.workers;
  const auto ref = jacobi_reference(sys, opt.tol, opt.max_iters);
  const auto par = solve_handshake_causal(sys, opt);
  ASSERT_TRUE(par.converged);
  EXPECT_EQ(par.iterations, ref.iterations);
  EXPECT_EQ(max_abs_diff(par.x, ref.x), 0.0);
}

TEST(Solver, ScBaselineMatchesReference) {
  const LinearSystem sys = LinearSystem::random(16, 7);
  SolverOptions opt;
  opt.workers = 3;
  const auto ref = jacobi_reference(sys, opt.tol, opt.max_iters);
  const auto sc = solve_sc_baseline(sys, opt);
  ASSERT_TRUE(sc.converged);
  EXPECT_EQ(sc.iterations, ref.iterations);
  EXPECT_EQ(max_abs_diff(sc.x, ref.x), 0.0);
}

TEST(Solver, BarrierTraceIsMixedConsistentAndPramConsistent) {
  const LinearSystem sys = LinearSystem::random(6, 11);
  SolverOptions opt;
  opt.workers = 2;
  opt.tol = 1e-3;  // few iterations keep the trace checkable
  const auto run = solve_barrier_traced(sys, opt, ReadMode::kPram);
  ASSERT_TRUE(run.result.converged);
  const auto mixed = history::check_mixed_consistency(run.history);
  EXPECT_TRUE(mixed.ok) << mixed.message();
  // Corollary 2's program condition: the Figure 2 program is
  // PRAM-consistent, which is why PRAM reads are sufficient.
  const auto phases = history::check_pram_consistent_phases(run.history);
  EXPECT_TRUE(phases.ok) << phases.message();
}

TEST(Solver, BarrierVariantWithCausalReadsAlsoValid) {
  // Causal reads are strictly stronger; the program stays correct.
  const LinearSystem sys = LinearSystem::random(6, 11);
  SolverOptions opt;
  opt.workers = 2;
  opt.tol = 1e-3;
  const auto run = solve_barrier_traced(sys, opt, ReadMode::kCausal);
  ASSERT_TRUE(run.result.converged);
  const auto ref = jacobi_reference(sys, opt.tol, opt.max_iters);
  EXPECT_EQ(max_abs_diff(run.result.x, ref.x), 0.0);
  EXPECT_TRUE(history::check_mixed_consistency(run.history).ok);
}

TEST(Solver, HandshakeTraceIsMixedConsistent) {
  const LinearSystem sys = LinearSystem::random(5, 13);
  SolverOptions opt;
  opt.workers = 2;
  opt.tol = 1e-3;
  const auto run = solve_handshake_traced(sys, opt);
  ASSERT_TRUE(run.result.converged);
  const auto mixed = history::check_mixed_consistency(run.history);
  EXPECT_TRUE(mixed.ok) << mixed.message();
}

TEST(Solver, HandshakeUsesNoBarriersAndBarrierUsesNoAwaits) {
  const LinearSystem sys = LinearSystem::random(5, 17);
  SolverOptions opt;
  opt.workers = 2;
  opt.tol = 1e-3;
  const auto barrier_run = solve_barrier_traced(sys, opt, ReadMode::kPram);
  const auto handshake_run = solve_handshake_traced(sys, opt);
  auto count = [](const history::History& h, history::OpKind k) {
    std::size_t c = 0;
    for (const auto& op : h.ops()) {
      if (op.kind == k) ++c;
    }
    return c;
  };
  EXPECT_GT(count(barrier_run.history, history::OpKind::kBarrier), 0u);
  EXPECT_EQ(count(barrier_run.history, history::OpKind::kAwait), 0u);
  EXPECT_EQ(count(handshake_run.history, history::OpKind::kBarrier), 0u);
  EXPECT_GT(count(handshake_run.history, history::OpKind::kAwait), 0u);
}

TEST(Solver, ConvergesUnderLatency) {
  const LinearSystem sys = LinearSystem::random(12, 19);
  SolverOptions opt;
  opt.workers = 2;
  opt.latency = net::LatencyModel::fast();
  const auto ref = jacobi_reference(sys, opt.tol, opt.max_iters);
  const auto par = solve_barrier_pram(sys, opt);
  ASSERT_TRUE(par.converged);
  EXPECT_EQ(max_abs_diff(par.x, ref.x), 0.0);
}

TEST(Solver, SingleWorkerDegeneratesToSequential) {
  const LinearSystem sys = LinearSystem::random(10, 23);
  SolverOptions opt;
  opt.workers = 1;
  const auto ref = jacobi_reference(sys, opt.tol, opt.max_iters);
  const auto par = solve_barrier_pram(sys, opt);
  EXPECT_EQ(par.iterations, ref.iterations);
  EXPECT_EQ(max_abs_diff(par.x, ref.x), 0.0);
}

TEST(Solver, MetricsShowBarrierTrafficForFig2AndAwaitTrafficForFig3) {
  const LinearSystem sys = LinearSystem::random(8, 29);
  SolverOptions opt;
  opt.workers = 2;
  opt.tol = 1e-6;
  const auto fig2 = solve_barrier_pram(sys, opt);
  const auto fig3 = solve_handshake_causal(sys, opt);
  EXPECT_GT(fig2.metrics.get("net.msg.barrier_arrive"), 0u);
  EXPECT_EQ(fig3.metrics.get("net.msg.barrier_arrive"), 0u);
  EXPECT_GT(fig3.metrics.get("net.msg.batch"), 0u);
}

}  // namespace
}  // namespace mc::apps
