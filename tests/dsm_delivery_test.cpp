// The delivery thread's batch contract, the read path's sampled timing and
// the causal gate on local deltas, driven message by message: the test
// plays the peer process and the lock manager on a bare fabric, so it
// decides exactly which messages reach the node under test together, and
// when.

#include <gtest/gtest.h>
#include "gtest_compat.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <tuple>

#include "dsm/batch.h"
#include "dsm/node.h"
#include "dsm/wire.h"

namespace mc::dsm {
namespace {

using namespace std::chrono_literals;

constexpr ProcId kSelf = 0;
constexpr ProcId kPeer = 1;
constexpr net::Endpoint kMgr = 2;  // lock and barrier manager endpoint

Config two_procs() {
  Config cfg;
  cfg.num_procs = 2;
  cfg.num_vars = 16;
  return cfg;
}

/// Node 0 of a two-process system whose peer and managers are scripted.
struct Scripted {
  Config cfg = two_procs();
  net::Fabric fabric{3};
  Node node{cfg, kSelf, fabric, kMgr, kMgr};

  ~Scripted() {
    fabric.shutdown();
    node.stop();
  }

  /// The peer's seq-th write, x := v (its clock is {0, seq}), as the
  /// one-record frame a per-write broadcast ships.
  static net::Message peer_write(VarId x, std::int64_t v, SeqNo seq) {
    BatchRecord r;
    r.var = x;
    r.value = value_of(v);
    r.flags = kFlagWrite;
    r.seq = seq;
    r.vc = VectorClock{0, seq};
    net::Message m = encode_batch({r}, 2, /*omit_timestamps=*/false);
    m.src = kPeer;
    m.dst = kSelf;
    return m;
  }

  /// Grant of lock `l` whose previous holder, the peer, had issued
  /// `peer_writes` writes when it released.
  static net::Message grant(LockId l, SeqNo peer_writes) {
    net::Message m;
    m.src = kMgr;
    m.dst = kSelf;
    m.kind = kLockGrant;
    m.a = l;
    m.b = 1;
    m.c = std::uint64_t{1} << kPeer;
    m.payload = {0, peer_writes};
    return m;
  }

  /// Wait for the node's lock request to reach the scripted manager.
  void expect_lock_request() {
    const auto req = fabric.mailbox(kMgr).recv();
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->kind, kLockReq);
  }
};

TEST(DsmDelivery, UpdatesAheadOfAGrantInOneBatchAreVisibleAfterWlock) {
  Scripted s;
  constexpr SeqNo kWrites = 5;
  std::atomic<int> seen_ok{0};
  std::thread app([&] {
    s.node.wlock(0);
    for (SeqNo k = 1; k <= kWrites; ++k) {
      if (s.node.read_int(static_cast<VarId>(k), ReadMode::kCausal) ==
          static_cast<std::int64_t>(100 + k)) {
        seen_ok.fetch_add(1);
      }
    }
  });
  s.expect_lock_request();
  // One shared future stamp: the delivery thread wakes once, at the stamp,
  // and drains the five updates and the grant behind them as one batch.
  const net::SimTime due = std::chrono::steady_clock::now() + 50ms;
  for (SeqNo k = 1; k <= kWrites; ++k) {
    net::Message m = Scripted::peer_write(static_cast<VarId>(k), 100 + k, k);
    m.deliver_at = due;
    EXPECT_TRUE(s.fabric.mailbox(kSelf).push(std::move(m)));
  }
  net::Message g = Scripted::grant(0, kWrites);
  g.deliver_at = due;
  EXPECT_TRUE(s.fabric.mailbox(kSelf).push(std::move(g)));
  app.join();
  EXPECT_EQ(seen_ok.load(), static_cast<int>(kWrites));
  // The updates were applied before the grant was acted on, so no read
  // had to wait for them.
  EXPECT_EQ(s.node.stats().read_blocked.count(), 0u);
  EXPECT_EQ(s.node.stats().reads_causal.get(), kWrites);
}

TEST(DsmDelivery, ReadLatencyIsSampledWhileReadCountsStayExact) {
  Scripted s;
  constexpr std::uint64_t kPramReads = 200;
  constexpr std::uint64_t kCausalReads = 62;
  for (std::uint64_t i = 0; i < kPramReads; ++i) {
    std::ignore = s.node.read(static_cast<VarId>(i % 16), ReadMode::kPram);
  }
  for (std::uint64_t i = 0; i < kCausalReads; ++i) {
    std::ignore = s.node.read(static_cast<VarId>(i % 16), ReadMode::kCausal);
  }
  const auto samples = [](std::uint64_t reads) {
    return (reads + Node::kReadSampleEvery - 1) / Node::kReadSampleEvery;
  };
  const NodeStats& st = s.node.stats();
  EXPECT_EQ(st.reads_pram.get(), kPramReads);
  EXPECT_EQ(st.reads_causal.get(), kCausalReads);
  EXPECT_EQ(st.read_pram_ns.count(), samples(kPramReads));  // reads 0, 61, 122, 183
  EXPECT_EQ(st.read_causal_ns.count(), samples(kCausalReads));  // reads 0, 61
  EXPECT_EQ(st.read_blocked.count(), 0u);
}

TEST(DsmDelivery, UnsampledReadThatBlocksIsStillTimed) {
  Scripted s;
  std::atomic<bool> reading{false};
  std::int64_t got = 0;
  std::thread app([&] {
    std::ignore = s.node.read(3, ReadMode::kPram);  // read #0: the sampled one
    s.node.wlock(0);
    reading.store(true);
    got = s.node.read_int(3, ReadMode::kPram);  // read #1: blocks, unsampled
  });
  s.expect_lock_request();
  // The grant raises the PRAM floor on the peer to its first write, which
  // is held back: the next read must block until it lands.
  EXPECT_TRUE(s.fabric.mailbox(kSelf).push(Scripted::grant(0, 1)));
  while (!reading.load()) std::this_thread::yield();
  std::this_thread::sleep_for(30ms);
  EXPECT_TRUE(s.fabric.mailbox(kSelf).push(Scripted::peer_write(3, 42, 1)));
  app.join();
  EXPECT_EQ(got, 42);
  const NodeStats& st = s.node.stats();
  EXPECT_EQ(st.reads_pram.get(), 2u);
  EXPECT_EQ(st.read_pram_ns.count(), 1u);
  ASSERT_EQ(st.read_blocked.count(), 1u);
  EXPECT_GE(st.read_blocked.sum_ns(),
            static_cast<std::uint64_t>(std::chrono::nanoseconds(20ms).count()));
  EXPECT_GE(st.total_blocked_ns(), st.read_blocked.sum_ns());
}

TEST(DsmDelivery, DeltaWaitsForTheWriteItsClockCovers) {
  // The grant's release clock covers the peer's write x3 := 10, which is
  // still in flight.  Applied at once, the delta's merged clock would
  // make that write compare as older and be dropped here alone (value -1
  // where every other replica holds 9); gated like a causal read, the
  // delta lands on top of it.
  Scripted s;
  std::atomic<bool> decrementing{false};
  std::int64_t got = 0;
  std::thread app([&] {
    s.node.wlock(0);
    decrementing.store(true);
    s.node.dec_int(3, 1);
    got = s.node.read_int(3, ReadMode::kCausal);
  });
  s.expect_lock_request();
  EXPECT_TRUE(s.fabric.mailbox(kSelf).push(Scripted::grant(0, 1)));
  while (!decrementing.load()) std::this_thread::yield();
  std::this_thread::sleep_for(30ms);
  EXPECT_TRUE(s.fabric.mailbox(kSelf).push(Scripted::peer_write(3, 10, 1)));
  app.join();
  EXPECT_EQ(got, 9);
}

TEST(DsmDeliveryDeathTest, SkippedPerWriteFrameTripsTheFifoCheck) {
  // The peer's second write never arrives: its third advances the peer's
  // clock component by 2 in a frame whose records weigh 1.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Scripted s;
        std::ignore = s.fabric.mailbox(kSelf).push(Scripted::peer_write(3, 1, 1));
        std::ignore = s.fabric.mailbox(kSelf).push(Scripted::peer_write(3, 3, 3));
        std::this_thread::sleep_for(10s);
      },
      "per-sender FIFO violated");
}

}  // namespace
}  // namespace mc::dsm
