// Runtime edge cases and misuse handling: demand fetch corner cases,
// re-entrancy, mismatched unlocks, single-process systems, and repeated
// run() phases.

#include <gtest/gtest.h>

#include "gtest_compat.h"

#include "dsm/system.h"
#include "history/checkers.h"

namespace mc::dsm {
namespace {

TEST(DsmEdge, SingleProcessSystemWorksWithoutPeers) {
  Config cfg;
  cfg.num_procs = 1;
  cfg.num_vars = 4;
  cfg.record_trace = true;
  MixedSystem sys(cfg);
  Node& n = sys.node(0);
  n.write(0, 1);
  n.dec_int(1, 5);
  n.barrier();
  n.wlock(0);
  n.write(0, 2);
  n.wunlock(0);
  n.await(0, 2);
  EXPECT_EQ(n.read(0, ReadMode::kCausal), 2u);
  EXPECT_TRUE(history::check_mixed_consistency(sys.collect_history()).ok);
}

TEST(DsmEdge, EagerUnlockWithOneProcessSkipsProbes) {
  Config cfg;
  cfg.num_procs = 1;
  cfg.num_vars = 4;
  cfg.default_lock_policy = LockPolicy::kEager;
  MixedSystem sys(cfg);
  sys.node(0).wlock(0);
  sys.node(0).write(0, 1);
  sys.node(0).wunlock(0);  // must not wait for nonexistent acks
  EXPECT_EQ(sys.metrics().get("net.msg.sync_req"), 0u);
}

TEST(DsmEdge, RunCanBeInvokedRepeatedly) {
  Config cfg;
  cfg.num_procs = 3;
  cfg.num_vars = 8;
  MixedSystem sys(cfg);
  for (int phase = 0; phase < 5; ++phase) {
    sys.run([&](Node& n, ProcId p) {
      n.write_int(p, phase * 10 + p);
      n.barrier();
      for (ProcId q = 0; q < 3; ++q) {
        EXPECT_EQ(n.read_int(q, ReadMode::kPram), phase * 10 + q);
      }
    });
  }
}

TEST(DsmEdge, DemandReadOfNeverWrittenProtectedVar) {
  Config cfg;
  cfg.num_procs = 2;
  cfg.num_vars = 8;
  cfg.default_lock_policy = LockPolicy::kDemand;
  cfg.demand_association[3] = 0;
  MixedSystem sys(cfg);
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.wlock(0);
      // Critical section that never touches var 3: the digest stays empty.
      n.wunlock(0);
    } else {
      n.wlock(0);
      EXPECT_EQ(n.read_int(3, ReadMode::kPram), 0);
      n.wunlock(0);
    }
  });
}

TEST(DsmEdge, DemandVariableWrittenOutsideItsLockIsBroadcast) {
  // Writing a demand-associated variable while NOT holding its write lock
  // falls back to ordinary broadcast (the program violated entry
  // consistency, but the memory stays well-defined).
  Config cfg;
  cfg.num_procs = 2;
  cfg.num_vars = 8;
  cfg.default_lock_policy = LockPolicy::kDemand;
  cfg.demand_association[0] = 0;
  MixedSystem sys(cfg);
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.write_int(0, 7);  // outside any critical section
      n.write_int(1, 1);
    } else {
      n.await_int(1, 1);
      EXPECT_EQ(n.read_int(0, ReadMode::kPram), 7);
    }
  });
  EXPECT_GT(sys.metrics().get("net.msg.batch"), 0u);
}

TEST(DsmEdge, ReentrantLockDies) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Config cfg;
        cfg.num_procs = 1;
        cfg.num_vars = 2;
        MixedSystem sys(cfg);
        sys.node(0).wlock(0);
        sys.node(0).wlock(0);
      },
      "not re-entrant");
}

TEST(DsmEdge, UnlockWithoutLockDies) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Config cfg;
        cfg.num_procs = 1;
        cfg.num_vars = 2;
        MixedSystem sys(cfg);
        sys.node(0).wunlock(0);
      },
      "not held");
}

TEST(DsmEdge, MismatchedUnlockKindDies) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Config cfg;
        cfg.num_procs = 1;
        cfg.num_vars = 2;
        MixedSystem sys(cfg);
        sys.node(0).rlock(0);
        sys.node(0).wunlock(0);
      },
      "does not match");
}

TEST(DsmEdge, ManyVariablesStressAllocation) {
  Config cfg;
  cfg.num_procs = 2;
  cfg.num_vars = 100000;
  MixedSystem sys(cfg);
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.write(99999, 1);
      n.write(0, 1);
    } else {
      n.await(0, 1);
      EXPECT_EQ(n.read(99999, ReadMode::kPram), 1u);
    }
  });
}

TEST(DsmEdge, HeldLocksSurviveAcrossRunPhases) {
  Config cfg;
  cfg.num_procs = 2;
  cfg.num_vars = 4;
  MixedSystem sys(cfg);
  sys.node(0).wlock(0);
  sys.node(0).write_int(0, 42);
  sys.node(0).wunlock(0);
  sys.run([](Node& n, ProcId p) {
    if (p == 1) {
      n.wlock(0);
      EXPECT_EQ(n.read_int(0, ReadMode::kCausal), 42);
      n.wunlock(0);
    }
  });
}

}  // namespace
}  // namespace mc::dsm
