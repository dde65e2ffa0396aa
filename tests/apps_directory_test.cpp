// Section 5 applications under directory-based partial replication
// (Config::directory; docs/DIRECTORY.md): every app must produce results
// BITWISE-identical to its full-replication run — the directory changes
// who holds a replica and when updates travel, never which LWW winner a
// synchronized read observes.  Tight replica budgets additionally force
// the evict → re-fetch path through every phase.  Every case runs under
// two staging configurations: small batches and the paper's per-write
// broadcast (the BatchingConfig::per_write() ablation), where every
// directory multicast ships at once as a one-record frame.

#include <gtest/gtest.h>

#include "apps/cholesky.h"
#include "apps/em_field.h"
#include "apps/em_field2d.h"
#include "apps/equation_solver.h"

namespace mc::apps {
namespace {

dsm::BatchingConfig small_batches() {
  dsm::BatchingConfig b;
  b.max_updates = 8;
  return b;
}

struct Staging {
  const char* name;
  dsm::BatchingConfig batching;
};

const Staging kStagings[] = {
    {"small-batches", small_batches()},
    {"per-write", dsm::BatchingConfig::per_write()},
};

dsm::DirectoryConfig tight_directory() {
  dsm::DirectoryConfig d;
  d.replica_budget = 4;
  d.fetch_frame = 4;
  return d;
}

// ----------------------------------------------------------------------
// Equation solver (Section 5.1)
// ----------------------------------------------------------------------

TEST(DirectoryApps, SolverBarrierPramBitwiseIdentical) {
  for (const Staging& st : kStagings) {
    SCOPED_TRACE(st.name);
    const LinearSystem sys = LinearSystem::random(24, 11);
    SolverOptions full;
    full.workers = 3;
    full.batching = st.batching;
    SolverOptions dir = full;
    dir.directory = dsm::DirectoryConfig{};
    const auto a = solve_barrier_pram(sys, full);
    const auto b = solve_barrier_pram(sys, dir);
    ASSERT_TRUE(a.converged);
    ASSERT_TRUE(b.converged);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(max_abs_diff(a.x, b.x), 0.0) << "directory must not change results";
  }
}

TEST(DirectoryApps, SolverBarrierPramTightBudgetBitwiseIdentical) {
  for (const Staging& st : kStagings) {
    SCOPED_TRACE(st.name);
    const LinearSystem sys = LinearSystem::random(16, 3);
    SolverOptions full;
    full.workers = 2;
    full.batching = st.batching;
    SolverOptions dir = full;
    dir.directory = tight_directory();
    const auto a = solve_barrier_pram(sys, full);
    const auto b = solve_barrier_pram(sys, dir);
    ASSERT_TRUE(a.converged && b.converged);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(max_abs_diff(a.x, b.x), 0.0);
    EXPECT_GT(b.metrics.get("directory.evictions"), 0u)
        << "the tight budget was supposed to exercise eviction";
  }
}

TEST(DirectoryApps, SolverHandshakeCausalBitwiseIdentical) {
  for (const Staging& st : kStagings) {
    SCOPED_TRACE(st.name);
    const LinearSystem sys = LinearSystem::random(16, 5);
    SolverOptions full;
    full.workers = 3;
    full.batching = st.batching;
    SolverOptions dir = full;
    dir.directory = dsm::DirectoryConfig{};
    const auto a = solve_handshake_causal(sys, full);
    const auto b = solve_handshake_causal(sys, dir);
    ASSERT_TRUE(a.converged && b.converged);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(max_abs_diff(a.x, b.x), 0.0);
  }
}

// ----------------------------------------------------------------------
// Electromagnetic fields (Section 5.2), 1-D and 2-D
// ----------------------------------------------------------------------

TEST(DirectoryApps, EmField1dBitwiseIdentical) {
  for (const Staging& st : kStagings) {
    SCOPED_TRACE(st.name);
    EmProblem prob;
    prob.m = 48;
    prob.steps = 12;
    const EmResult ref = em_reference(prob);
    const EmResult dir =
        em_mixed(prob, 3, ReadMode::kPram, EmSharing::kFullGrid, {}, 1, false,
                 std::nullopt, false, st.batching, tight_directory());
    EXPECT_EQ(dir.e, ref.e);
    EXPECT_EQ(dir.h, ref.h);
    EXPECT_GT(dir.metrics.get("directory.fills"), 0u);
  }
}

TEST(DirectoryApps, EmField1dGhostBitwiseIdentical) {
  for (const Staging& st : kStagings) {
    SCOPED_TRACE(st.name);
    EmProblem prob;
    prob.m = 32;
    prob.steps = 8;
    const EmResult ref = em_reference(prob);
    const EmResult dir =
        em_mixed(prob, 4, ReadMode::kPram, EmSharing::kGhost, {}, 1, false,
                 std::nullopt, false, st.batching, dsm::DirectoryConfig{});
    EXPECT_EQ(dir.e, ref.e);
    EXPECT_EQ(dir.h, ref.h);
  }
}

TEST(DirectoryApps, EmField2dBitwiseIdentical) {
  for (const Staging& st : kStagings) {
    SCOPED_TRACE(st.name);
    Em2dProblem prob;
    prob.nx = 16;
    prob.ny = 12;
    prob.steps = 6;
    const Em2dResult ref = em2d_reference(prob);
    const Em2dResult dir =
        em2d_mixed(prob, 4, ReadMode::kPram, {}, 1, std::nullopt, false,
                   st.batching, tight_directory());
    EXPECT_EQ(dir.ez, ref.ez);
    EXPECT_EQ(dir.hx, ref.hx);
    EXPECT_EQ(dir.hy, ref.hy);
  }
}

// ----------------------------------------------------------------------
// Cholesky (Section 5.3), both formulations
// ----------------------------------------------------------------------

TEST(DirectoryApps, CholeskyLocksMatchesReference) {
  for (const Staging& st : kStagings) {
    SCOPED_TRACE(st.name);
    // Remote-column updates accumulate in lock-grant order, which is
    // schedule-dependent in floating point — the factor agrees with the
    // reference numerically, matching the full-replication test's bound.
    const SparseSpd m = SparseSpd::random(16, 3, 0.25, 17);
    const Symbolic sym = analyze(m);
    CholeskyOptions opt;
    opt.procs = 3;
    opt.batching = st.batching;
    opt.directory = tight_directory();
    const auto got = cholesky_locks(m, sym, opt);
    EXPECT_LT(factorization_error(m, got.l), 1e-8);
  }
}

TEST(DirectoryApps, CholeskyCountersMatchesReference) {
  for (const Staging& st : kStagings) {
    SCOPED_TRACE(st.name);
    // The counter variant exercises delta write-allocation: decrements land
    // on columns the worker never read (uncached), so every accumulator is
    // filled before the first local application.
    const SparseSpd m = SparseSpd::random(14, 3, 0.3, 23);
    const Symbolic sym = analyze(m);
    CholeskyOptions opt;
    opt.procs = 3;
    opt.batching = st.batching;
    opt.directory = tight_directory();
    const auto got = cholesky_counters(m, sym, opt);
    EXPECT_LT(factorization_error(m, got.l), 1e-8);
    EXPECT_GT(got.metrics.get("directory.fills"), 0u);
  }
}

}  // namespace
}  // namespace mc::apps
