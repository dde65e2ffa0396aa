// The sequentially consistent baseline: protocol behaviour and, on small
// runs, verification against the Definition 1 serialization search.

#include <gtest/gtest.h>

#include <atomic>
#include <tuple>

#include "baseline/sc_system.h"
#include "history/serialization.h"

namespace mc::baseline {
namespace {

ScConfig small(std::size_t procs) {
  ScConfig cfg;
  cfg.num_procs = procs;
  cfg.num_vars = 16;
  cfg.record_trace = true;
  return cfg;
}

TEST(ScBaseline, ReadOwnWrite) {
  ScSystem sys(small(2));
  sys.node(0).write(0, 42);
  EXPECT_EQ(sys.node(0).read(0), 42u);
}

TEST(ScBaseline, WritesAreTotallyOrderedAcrossReplicas) {
  // Two writers race on one location; after a barrier everyone agrees.
  ScSystem sys(small(3));
  std::atomic<Value> seen[3];
  sys.run([&](ScNode& n, ProcId p) {
    if (p < 2) n.write(0, p + 1);
    n.barrier();
    seen[p] = n.read(0);
  });
  EXPECT_EQ(seen[0].load(), seen[1].load());
  EXPECT_EQ(seen[1].load(), seen[2].load());
  EXPECT_TRUE(seen[0].load() == 1 || seen[0].load() == 2);
}

TEST(ScBaseline, StoreBufferingOutcomeIsImpossible) {
  // The classic SB litmus: under SC at least one process must observe the
  // other's write.
  for (int round = 0; round < 20; ++round) {
    ScSystem sys(small(2));
    std::atomic<Value> r0{~0ull};
    std::atomic<Value> r1{~0ull};
    sys.run([&](ScNode& n, ProcId p) {
      if (p == 0) {
        n.write(0, 1);
        r0 = n.read(1);
      } else {
        n.write(1, 1);
        r1 = n.read(0);
      }
    });
    EXPECT_FALSE(r0.load() == 0 && r1.load() == 0) << "round " << round;
  }
}

TEST(ScBaseline, SmallTracesPassTheSerializationSearch) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ScConfig cfg = small(3);
    cfg.seed = seed;
    ScSystem sys(cfg);
    sys.run([&](ScNode& n, ProcId p) {
      n.write(p, p + 10);
      std::ignore = n.read((p + 1) % 3);
      n.write(3, p + 20);
      std::ignore = n.read(3);
    });
    const auto h = sys.collect_history();
    const auto sc = history::check_sequential_consistency(h);
    EXPECT_TRUE(sc.sequentially_consistent) << "seed " << seed << "\n" << h.to_string();
  }
}

TEST(ScBaseline, AwaitUnblocksOnRemoteWrite) {
  ScSystem sys(small(2));
  sys.run([](ScNode& n, ProcId p) {
    if (p == 0) {
      n.write_int(0, 7);
    } else {
      n.await_int(0, 7);
      EXPECT_EQ(n.read_int(0), 7);
    }
  });
}

TEST(ScBaseline, BarrierFlushesAllPreBarrierWrites) {
  ScSystem sys(small(4));
  sys.run([](ScNode& n, ProcId p) {
    n.write_int(p, 100 + p);
    n.barrier();
    for (ProcId q = 0; q < 4; ++q) EXPECT_EQ(n.read_int(q), 100 + q);
  });
}

TEST(ScBaseline, WritesCostSequencerRoundTripMessages) {
  ScSystem sys(small(3));
  // The sequencer multicasts to nodes 0, 1, 2 in turn, so the write of the
  // last node returns only after all three copies were sent (and counted).
  sys.node(2).write(0, 1);
  const auto snap = sys.metrics();
  EXPECT_EQ(snap.get("net.msg.sc_write"), 1u);
  EXPECT_EQ(snap.get("net.msg.sc_ordered"), 3u);  // rebroadcast to all
}

TEST(ScBaseline, WriteBlocksUnderLatency) {
  ScConfig cfg = small(2);
  cfg.latency.base = std::chrono::milliseconds(5);
  ScSystem sys(cfg);
  Stopwatch t;
  sys.node(0).write(0, 1);
  // Round trip through the sequencer: at least two hops.
  EXPECT_GE(t.elapsed(), std::chrono::milliseconds(9));
  EXPECT_GT(sys.node(0).stats().write_blocked.sum_ns(), 0u);
}

TEST(ScBaseline, PhasedProgramMatchesMixedSystemResults) {
  // The same two-phase computation gives identical numeric results on the
  // SC baseline (it is the reference semantics).
  ScSystem sys(small(3));
  sys.run([](ScNode& n, ProcId p) {
    n.write_int(p, (p + 1) * 11);
    n.barrier();
    std::int64_t sum = 0;
    for (ProcId q = 0; q < 3; ++q) sum += n.read_int(q);
    EXPECT_EQ(sum, 11 + 22 + 33);
  });
}

}  // namespace
}  // namespace mc::baseline
