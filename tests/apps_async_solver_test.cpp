// Section 7's asynchronous-relaxation observation: chaotic Gauss-Seidel on
// pure PRAM memory — no barriers, no awaits, no locks — still converges to
// the solution of the system.

#include <gtest/gtest.h>

#include "apps/equation_solver.h"

namespace mc::apps {
namespace {

TEST(AsyncGaussSeidel, ConvergesToTheSolution) {
  const LinearSystem sys = LinearSystem::random(24, 77);
  SolverOptions opt;
  opt.workers = 3;
  opt.tol = 1e-8;
  const auto res = solve_async_gauss_seidel(sys, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_LT(residual_inf(sys, res.x), opt.tol);
}

TEST(AsyncGaussSeidel, AgreesWithJacobiReferenceNumerically) {
  const LinearSystem sys = LinearSystem::random(16, 78);
  SolverOptions opt;
  opt.workers = 2;
  opt.tol = 1e-10;
  const auto ref = jacobi_reference(sys, opt.tol, 10000);
  const auto res = solve_async_gauss_seidel(sys, opt);
  ASSERT_TRUE(ref.converged);
  ASSERT_TRUE(res.converged);
  // Same fixed point, different iteration schedule: compare numerically.
  EXPECT_LT(max_abs_diff(res.x, ref.x), 1e-7);
}

TEST(AsyncGaussSeidel, UsesNoSynchronizationMessages) {
  const LinearSystem sys = LinearSystem::random(16, 79);
  SolverOptions opt;
  opt.workers = 2;
  const auto res = solve_async_gauss_seidel(sys, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.metrics.get("net.msg.barrier_arrive"), 0u);
  EXPECT_EQ(res.metrics.get("net.msg.lock_req"), 0u);
  EXPECT_EQ(res.metrics.get("net.msg.sync_req"), 0u);
  EXPECT_GT(res.metrics.get("net.msg.batch"), 0u);
}

TEST(AsyncGaussSeidel, ConvergesUnderLatency) {
  const LinearSystem sys = LinearSystem::random(12, 80);
  SolverOptions opt;
  opt.workers = 2;
  opt.latency = net::LatencyModel::fast();
  const auto res = solve_async_gauss_seidel(sys, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_LT(residual_inf(sys, res.x), opt.tol);
}

TEST(AsyncGaussSeidel, SingleWorkerIsPlainGaussSeidel) {
  const LinearSystem sys = LinearSystem::random(10, 81);
  SolverOptions opt;
  opt.workers = 1;
  const auto res = solve_async_gauss_seidel(sys, opt);
  ASSERT_TRUE(res.converged);
  EXPECT_LT(residual_inf(sys, res.x), opt.tol);
}

}  // namespace
}  // namespace mc::apps
