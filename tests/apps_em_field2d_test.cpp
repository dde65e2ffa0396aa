// 2-D TE-mode Yee scheme (Section 5.2's full-size shape): strip-parallel
// runs agree bitwise with the sequential reference.

#include <gtest/gtest.h>

#include "apps/em_field2d.h"

namespace mc::apps {
namespace {

struct Case {
  std::size_t nx;
  std::size_t ny;
  std::size_t steps;
  std::size_t procs;
};

class Em2dSweep : public ::testing::TestWithParam<Case> {};

INSTANTIATE_TEST_SUITE_P(Grids, Em2dSweep,
                         ::testing::Values(Case{16, 16, 6, 2}, Case{24, 16, 5, 3},
                                           Case{32, 24, 4, 4}, Case{17, 9, 7, 3}),
                         [](const auto& info) {
                           return "x" + std::to_string(info.param.nx) + "y" +
                                  std::to_string(info.param.ny) + "_t" +
                                  std::to_string(info.param.steps) + "_p" +
                                  std::to_string(info.param.procs);
                         });

TEST_P(Em2dSweep, MatchesReferenceExactly) {
  Em2dProblem prob;
  prob.nx = GetParam().nx;
  prob.ny = GetParam().ny;
  prob.steps = GetParam().steps;
  const auto ref = em2d_reference(prob);
  const auto par = em2d_mixed(prob, GetParam().procs, ReadMode::kPram);
  EXPECT_EQ(ref.ez, par.ez);
  EXPECT_EQ(ref.hx, par.hx);
  EXPECT_EQ(ref.hy, par.hy);
}

TEST(Em2d, CausalModeAlsoExact) {
  Em2dProblem prob;
  prob.nx = 20;
  prob.ny = 12;
  prob.steps = 5;
  const auto ref = em2d_reference(prob);
  const auto par = em2d_mixed(prob, 3, ReadMode::kCausal);
  EXPECT_EQ(ref.ez, par.ez);
}

TEST(Em2d, PulseSpreadsFromCenter) {
  Em2dProblem prob;
  prob.nx = 32;
  prob.ny = 32;
  prob.steps = 12;
  const auto ref = em2d_reference(prob);
  // H fields pick up energy as the pulse propagates.
  double h_energy = 0.0;
  for (const double v : ref.hx) h_energy += v * v;
  for (const double v : ref.hy) h_energy += v * v;
  EXPECT_GT(h_energy, 1e-4);
  // Total energy stays bounded (stable Courant number).
  double total = h_energy;
  for (const double v : ref.ez) total += v * v;
  EXPECT_LT(total, 1e4);
}

TEST(Em2d, OnlyBoundaryRowsCrossTheFabric) {
  Em2dProblem prob;
  prob.nx = 32;
  prob.ny = 16;
  prob.steps = 6;
  const auto par = em2d_mixed(prob, 4, ReadMode::kPram);
  // Per step: each proc publishes <= 2 rows of ny values to 3 peers, plus
  // the initial publication and barrier traffic — far below shipping the
  // whole grid every phase.
  const auto updates = par.metrics.get("net.msg.batch");
  EXPECT_LT(updates, (prob.steps + 1) * 2 * prob.ny * 4 * 3 + 1);
  EXPECT_GT(updates, 0u);
}

TEST(Em2d, WorksUnderLatency) {
  Em2dProblem prob;
  prob.nx = 16;
  prob.ny = 8;
  prob.steps = 4;
  const auto ref = em2d_reference(prob);
  const auto par = em2d_mixed(prob, 2, ReadMode::kPram, net::LatencyModel::fast());
  EXPECT_EQ(ref.ez, par.ez);
}

}  // namespace
}  // namespace mc::apps
