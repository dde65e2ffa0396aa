// Memory-operation behaviour of the mixed-consistency runtime: dual store
// views, FIFO/causal visibility, delta objects, and awaits.

#include <gtest/gtest.h>

#include <atomic>

#include "dsm/system.h"
#include "history/checkers.h"

namespace mc::dsm {
namespace {

Config small(std::size_t procs, std::size_t vars = 32) {
  Config cfg;
  cfg.num_procs = procs;
  cfg.num_vars = vars;
  cfg.record_trace = true;
  return cfg;
}

TEST(DsmMemory, ReadOwnWriteImmediately) {
  MixedSystem sys(small(2));
  Node& n0 = sys.node(0);
  n0.write(3, 42);
  EXPECT_EQ(n0.read(3, ReadMode::kPram), 42u);
  EXPECT_EQ(n0.read(3, ReadMode::kCausal), 42u);
}

TEST(DsmMemory, UnwrittenLocationReadsAsZero) {
  MixedSystem sys(small(2));
  EXPECT_EQ(sys.node(0).read(7, ReadMode::kPram), 0u);
  EXPECT_EQ(sys.node(1).read(7, ReadMode::kCausal), 0u);
}

TEST(DsmMemory, AwaitDeliversRemoteWrite) {
  MixedSystem sys(small(2));
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.write(0, 99);
    } else {
      n.await(0, 99);
      EXPECT_EQ(n.read(0, ReadMode::kPram), 99u);
      EXPECT_EQ(n.read(0, ReadMode::kCausal), 99u);
    }
  });
}

TEST(DsmMemory, AwaitOnAlreadySatisfiedValueReturnsImmediately) {
  MixedSystem sys(small(1));
  sys.node(0).write(2, 5);
  sys.node(0).await(2, 5);  // must not block
  SUCCEED();
}

TEST(DsmMemory, FifoOrderFromOneSender) {
  // p0 writes x:=1..50 then flag; p1 awaits the flag and must read the
  // final value: per-sender FIFO forbids older values afterwards.
  MixedSystem sys(small(2));
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      for (Value v = 1; v <= 50; ++v) n.write(0, v);
      n.write(1, 1);
    } else {
      n.await(1, 1);
      EXPECT_EQ(n.read(0, ReadMode::kPram), 50u);
    }
  });
  EXPECT_TRUE(history::check_mixed_consistency(sys.collect_history()).ok)
      << history::check_mixed_consistency(sys.collect_history()).message();
}

TEST(DsmMemory, CausalReadSeesTransitiveContext) {
  // p0 writes data then flag1; p1 awaits flag1 and writes flag2; p2 awaits
  // flag2 — its causal read of data must return the value even though p2
  // never synchronized with p0 directly.
  MixedSystem sys(small(3));
  std::atomic<Value> observed{0};
  sys.run([&](Node& n, ProcId p) {
    if (p == 0) {
      n.write(0, 1234);
      n.write(1, 1);
    } else if (p == 1) {
      n.await(1, 1);
      n.write(2, 1);
    } else {
      n.await(2, 1);
      observed = n.read(0, ReadMode::kCausal);
    }
  });
  EXPECT_EQ(observed.load(), 1234u);
  EXPECT_TRUE(history::check_mixed_consistency(sys.collect_history()).ok);
}

TEST(DsmMemory, WriterContextVisibleToPramReadAfterAwait) {
  // Await establishes a direct edge to the writer, so the writer's earlier
  // writes are PRAM-visible afterwards.
  MixedSystem sys(small(2));
  sys.run([](Node& n, ProcId p) {
    if (p == 0) {
      n.write(0, 7);
      n.write(1, 1);
    } else {
      n.await(1, 1);
      EXPECT_EQ(n.read(0, ReadMode::kPram), 7u);
    }
  });
}

TEST(DsmMemory, IntDeltasAccumulateCommutatively) {
  MixedSystem sys(small(3));
  sys.node(0).write_int(0, 100);
  sys.run([](Node& n, ProcId) {
    // The barrier orders the initial write before every decrement: a write
    // concurrent with deltas does not commute with them, and the replicas
    // that applied some deltas first would arbitrate it away.
    n.barrier();
    for (int i = 0; i < 10; ++i) n.dec_int(0, 1);
  });
  // All deltas are broadcast; once every process's decrements are applied
  // the counter reads 70 everywhere.  Await on the final value to avoid
  // racing delivery.
  sys.run([](Node& n, ProcId) { n.await_int(0, 70); });
  for (ProcId p = 0; p < 3; ++p) {
    EXPECT_EQ(sys.node(p).read_int(0, ReadMode::kPram), 70);
    EXPECT_EQ(sys.node(p).read_int(0, ReadMode::kCausal), 70);
  }
}

TEST(DsmMemory, DoubleDeltasAccumulate) {
  MixedSystem sys(small(2));
  sys.node(0).write_double(0, 10.0);
  sys.run([](Node& n, ProcId) {
    n.barrier();  // the initial write precedes the deltas (see above)
    n.dec_double(0, 2.5);
  });
  sys.run([](Node& n, ProcId) {
    while (n.read_double(0, ReadMode::kPram) != 5.0) {
      std::this_thread::yield();
    }
  });
  EXPECT_DOUBLE_EQ(sys.node(1).read_double(0, ReadMode::kCausal), 5.0);
}

TEST(DsmMemory, TypedHelpersRoundTrip) {
  MixedSystem sys(small(1));
  Node& n = sys.node(0);
  n.write_double(0, -3.25);
  EXPECT_DOUBLE_EQ(n.read_double(0, ReadMode::kPram), -3.25);
  n.write_int(1, -17);
  EXPECT_EQ(n.read_int(1, ReadMode::kCausal), -17);
}

TEST(DsmMemory, StatsCountOperations) {
  MixedSystem sys(small(1));
  Node& n = sys.node(0);
  n.write(0, 1);
  n.read(0, ReadMode::kPram);
  n.read(0, ReadMode::kCausal);
  n.dec_int(1, 1);
  EXPECT_EQ(n.stats().writes.get(), 1u);
  EXPECT_EQ(n.stats().reads_pram.get(), 1u);
  EXPECT_EQ(n.stats().reads_causal.get(), 1u);
  EXPECT_EQ(n.stats().deltas.get(), 1u);
}

TEST(DsmMemory, MetricsExposeFabricTraffic) {
  MixedSystem sys(small(2));
  sys.node(0).write(0, 1);
  sys.run([](Node& n, ProcId p) {
    if (p == 1) n.await(0, 1);
  });
  const auto snap = sys.metrics();
  EXPECT_GE(snap.get("net.msg.batch"), 1u);
  EXPECT_EQ(snap.get("dsm.writes"), 1u);
}

TEST(DsmMemory, WorksUnderInjectedLatency) {
  Config cfg = small(3);
  cfg.latency = net::LatencyModel::fast();
  MixedSystem sys(cfg);
  sys.run([](Node& n, ProcId p) {
    n.write(p, p + 1);
    n.barrier();
    for (ProcId q = 0; q < 3; ++q) {
      EXPECT_EQ(n.read(q, ReadMode::kPram), q + 1);
    }
  });
  EXPECT_TRUE(history::check_mixed_consistency(sys.collect_history()).ok);
}

}  // namespace
}  // namespace mc::dsm
