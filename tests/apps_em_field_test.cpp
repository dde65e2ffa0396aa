// Section 5.2 integration: the electromagnetic-field computation agrees
// bitwise with the sequential reference under both sharing disciplines and
// on the SC baseline.

#include <gtest/gtest.h>

#include "apps/em_field.h"

namespace mc::apps {
namespace {

struct Case {
  std::size_t m;
  std::size_t steps;
  std::size_t procs;
};

class EmSweep : public ::testing::TestWithParam<Case> {};

INSTANTIATE_TEST_SUITE_P(Grids, EmSweep,
                         ::testing::Values(Case{32, 8, 2}, Case{48, 10, 3},
                                           Case{64, 6, 4}, Case{33, 7, 3}),
                         [](const auto& info) {
                           return "m" + std::to_string(info.param.m) + "_t" +
                                  std::to_string(info.param.steps) + "_p" +
                                  std::to_string(info.param.procs);
                         });

TEST_P(EmSweep, FullGridPramMatchesReference) {
  EmProblem prob;
  prob.m = GetParam().m;
  prob.steps = GetParam().steps;
  const auto ref = em_reference(prob);
  const auto par = em_mixed(prob, GetParam().procs, ReadMode::kPram, EmSharing::kFullGrid);
  EXPECT_EQ(ref.e, par.e);
  EXPECT_EQ(ref.h, par.h);
}

TEST_P(EmSweep, GhostSharingMatchesReference) {
  EmProblem prob;
  prob.m = GetParam().m;
  prob.steps = GetParam().steps;
  const auto ref = em_reference(prob);
  const auto par = em_mixed(prob, GetParam().procs, ReadMode::kPram, EmSharing::kGhost);
  EXPECT_EQ(ref.e, par.e);
  EXPECT_EQ(ref.h, par.h);
}

TEST(EmField, CausalReadsAreEquallyCorrect) {
  EmProblem prob;
  prob.m = 40;
  prob.steps = 6;
  const auto ref = em_reference(prob);
  const auto par = em_mixed(prob, 3, ReadMode::kCausal, EmSharing::kFullGrid);
  EXPECT_EQ(ref.e, par.e);
  EXPECT_EQ(ref.h, par.h);
}

TEST(EmField, ScBaselineMatchesReference) {
  EmProblem prob;
  prob.m = 40;
  prob.steps = 6;
  const auto ref = em_reference(prob);
  const auto sc = em_sc(prob, 3);
  EXPECT_EQ(ref.e, sc.e);
  EXPECT_EQ(ref.h, sc.h);
}

TEST(EmField, PulsePropagatesAndEnergyStaysBounded) {
  EmProblem prob;
  prob.m = 64;
  prob.steps = 30;
  const auto ref = em_reference(prob);
  double energy = 0.0;
  for (const double v : ref.e) energy += v * v;
  for (const double v : ref.h) energy += v * v;
  EXPECT_GT(energy, 0.01);
  EXPECT_LT(energy, 100.0);
  // The pulse must have left its initial support: some H activity exists.
  double h_energy = 0.0;
  for (const double v : ref.h) h_energy += v * v;
  EXPECT_GT(h_energy, 1e-6);
}

TEST(EmField, GhostSharingSendsFarFewerUpdates) {
  EmProblem prob;
  prob.m = 64;
  prob.steps = 8;
  // The paper's per-write broadcast: one frame per update per peer, so the
  // frame count is the update fan-out.  (Batched, both variants ship one
  // frame per peer per phase.)
  const auto per_write = dsm::BatchingConfig::per_write();
  const auto full = em_mixed(prob, 4, ReadMode::kPram, EmSharing::kFullGrid, {}, 1,
                             false, std::nullopt, false, per_write);
  const auto ghost = em_mixed(prob, 4, ReadMode::kPram, EmSharing::kGhost, {}, 1,
                              false, std::nullopt, false, per_write);
  EXPECT_GT(full.metrics.get("net.msg.batch"),
            10 * ghost.metrics.get("net.msg.batch"));
}

TEST(EmField, SingleProcessDegeneratesToReference) {
  EmProblem prob;
  prob.m = 24;
  prob.steps = 5;
  const auto ref = em_reference(prob);
  const auto par = em_mixed(prob, 1, ReadMode::kPram, EmSharing::kGhost);
  EXPECT_EQ(ref.e, par.e);
  EXPECT_EQ(ref.h, par.h);
}

TEST(EmField, WorksUnderLatency) {
  EmProblem prob;
  prob.m = 32;
  prob.steps = 5;
  const auto ref = em_reference(prob);
  const auto par =
      em_mixed(prob, 3, ReadMode::kPram, EmSharing::kGhost, net::LatencyModel::fast());
  EXPECT_EQ(ref.e, par.e);
  EXPECT_EQ(ref.h, par.h);
}

TEST(EmField, PatternOptimizedGhostIsExactAndCheaper) {
  EmProblem prob;
  prob.m = 64;
  prob.steps = 10;
  const auto ref = em_reference(prob);
  const auto plain = em_mixed(prob, 4, ReadMode::kPram, EmSharing::kGhost);
  const auto optimized = em_mixed(prob, 4, ReadMode::kPram, EmSharing::kGhost, {}, 1,
                                  /*pattern_optimized=*/true);
  EXPECT_EQ(ref.e, optimized.e);
  EXPECT_EQ(ref.h, optimized.h);
  // Each boundary value reaches one neighbour instead of three peers, and
  // updates carry no timestamps.
  EXPECT_LT(optimized.metrics.get("net.msg.batch"),
            plain.metrics.get("net.msg.batch") / 2);
  EXPECT_LT(optimized.metrics.get("net.bytes"), plain.metrics.get("net.bytes"));
}

}  // namespace
}  // namespace mc::apps
