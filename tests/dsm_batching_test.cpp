// Batched update propagation (Config::batching; DESIGN.md §6.3).
//
// Three layers of coverage:
//   - the kBatch codec: round trips, and the wire_bytes honesty the
//     delta-encoded clocks exist for;
//   - coalescing semantics: last-writer-wins for plain writes, summation
//     for deltas, no cross-kind merging, truthful weights in count mode;
//   - flush-on-sync litmus programs: staging windows so large that ONLY the
//     mandatory flushes before barrier / unlock / await / fetch can ship an
//     update — if any flush point were skipped, the observing process would
//     block on its consistency floor forever (or read a stale value), so
//     these programs terminating with the right values is exactly the
//     Theorem 1 preservation argument, run under both ideal and chaotic
//     fabrics.

#include "dsm/batch.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <tuple>

#include "common/rng.h"
#include "dsm/system.h"
#include "history/checkers.h"
#include "net/fault.h"

namespace mc::dsm {
namespace {

using namespace std::chrono_literals;

// A staging window nothing but a mandatory flush can close within test
// lifetime: thresholds and delay far beyond what any litmus program stages.
BatchingConfig sync_only_batching() {
  BatchingConfig b;
  b.max_updates = 1 << 20;
  b.max_bytes = std::size_t{1} << 30;
  b.max_delay = 1h;
  return b;
}

net::FaultPlan chaos_plan(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = 0.05;
  plan.dup_prob = 0.05;
  plan.delay_prob = 0.02;
  plan.delay_factor = 10.0;
  plan.delay_floor = std::chrono::microseconds(50);
  return plan;
}

// ----------------------------------------------------------------------
// Codec
// ----------------------------------------------------------------------

TEST(BatchCodec, RoundTripsRecordsWithClocks) {
  constexpr std::size_t kProcs = 5;
  std::vector<BatchRecord> recs;
  for (int i = 0; i < 4; ++i) {
    BatchRecord r;
    r.var = static_cast<VarId>(100 + i);
    r.value = value_of(1.5 * i);
    r.flags = i % 2 == 0 ? kFlagWrite : kFlagDoubleDelta;
    r.seq = 40 + 3 * static_cast<SeqNo>(i);
    r.weight = 1 + static_cast<std::uint64_t>(i);
    r.vc = VectorClock(kProcs);
    r.vc.set(1, 7 + static_cast<std::uint64_t>(i));
    r.vc.set(3, 2);
    recs.push_back(r);
  }
  const net::Message m = encode_batch(recs, kProcs, false);
  EXPECT_EQ(m.kind, kBatch);
  EXPECT_EQ(m.a, recs.size());
  EXPECT_EQ(decode_batch(m, kProcs, false), recs);
}

TEST(BatchCodec, RoundTripsCountModeRecords) {
  std::vector<BatchRecord> recs;
  for (int i = 0; i < 3; ++i) {
    BatchRecord r;
    r.var = static_cast<VarId>(i);
    r.value = static_cast<Value>(1000 + i);
    r.flags = kFlagIntDelta;
    r.seq = static_cast<SeqNo>(10 + i);
    r.weight = 2;
    recs.push_back(r);
  }
  const net::Message m = encode_batch(recs, 8, true);
  EXPECT_EQ(decode_batch(m, 8, true), recs);
}

TEST(BatchCodec, WireBytesChargeDeltaEncodedClocks) {
  // N consecutive writes by one process: clocks differ from the batch base
  // only in the writer's component, so each record ships ONE clock-delta
  // word instead of P — and wire_bytes must charge the encoded payload,
  // not the logical full clocks (the C3/C11/C12 honesty fix).
  constexpr std::size_t kProcs = 16;
  constexpr std::size_t kRecords = 16;
  std::vector<BatchRecord> recs;
  std::size_t unbatched_bytes = 0;
  for (std::size_t i = 0; i < kRecords; ++i) {
    BatchRecord r;
    r.var = 7;
    r.value = i;
    r.seq = i + 1;
    r.vc = VectorClock(kProcs);
    r.vc.set(0, i + 1);
    recs.push_back(r);
    // The per-write broadcast ships each record as its own frame.
    unbatched_bytes += encode_batch({r}, kProcs, false).wire_bytes();
  }
  const net::Message m = encode_batch(recs, kProcs, false);
  // Payload: base clock (P) + per record (header, value, seq, mask, <=1 delta).
  EXPECT_LE(m.payload.size(), kProcs + kRecords * 5);
  EXPECT_EQ(m.wire_bytes(), net::Message::kHeaderBytes + m.payload.size() * 8);
  EXPECT_LT(m.wire_bytes(), unbatched_bytes / 3);
}

// ----------------------------------------------------------------------
// Coalescing semantics
// ----------------------------------------------------------------------

Config two_proc_cfg(const BatchingConfig& batching) {
  Config cfg;
  cfg.num_procs = 2;
  cfg.num_vars = 8;
  cfg.batching = batching;
  return cfg;
}

TEST(Batching, PlainWritesCollapseLastWriterWins) {
  MixedSystem sys(two_proc_cfg(sync_only_batching()));
  sys.run([&](Node& n, ProcId p) {
    if (p == 0) {
      for (int i = 1; i <= 5; ++i) n.write_int(0, i);
      n.barrier();
    } else {
      n.barrier();
      EXPECT_EQ(n.read_int(0, ReadMode::kPram), 5);
    }
  });
  const auto metrics = sys.metrics();
  // Five writes to one destination collapsed into one staged record.
  EXPECT_EQ(metrics.get("net.batch.coalesced"), 4u);
  EXPECT_EQ(metrics.get("net.batch.updates"), 1u);
  EXPECT_EQ(metrics.get("net.batch.msgs"), 1u);
  // That one frame is the only update message on the wire.
  EXPECT_EQ(metrics.get("net.msg.batch"), 1u);
}

TEST(Batching, DeltasMergeBySummation) {
  MixedSystem sys(two_proc_cfg(sync_only_batching()));
  sys.node(0).write_int(0, 1000);
  sys.run([&](Node& n, ProcId p) {
    n.barrier();
    if (p == 0) {
      for (int i = 1; i <= 4; ++i) n.dec_int(0, i);  // total 10
      n.barrier();
    } else {
      n.barrier();
      EXPECT_EQ(n.read_int(0, ReadMode::kPram), 990);
    }
  });
  EXPECT_EQ(sys.metrics().get("net.batch.coalesced"), 3u);
}

TEST(Batching, WriteAndDeltaToSameVarDoNotCrossCoalesce) {
  MixedSystem sys(two_proc_cfg(sync_only_batching()));
  sys.run([&](Node& n, ProcId p) {
    if (p == 0) {
      n.write_int(0, 100);
      n.dec_int(0, 30);
      n.write_int(1, 7);
      n.barrier();
    } else {
      n.barrier();
      EXPECT_EQ(n.read_int(0, ReadMode::kPram), 70);
      EXPECT_EQ(n.read_int(1, ReadMode::kPram), 7);
    }
  });
  const auto metrics = sys.metrics();
  EXPECT_EQ(metrics.get("net.batch.coalesced"), 0u);
  EXPECT_EQ(metrics.get("net.batch.updates"), 3u);
}

TEST(Batching, CountModeWeightsKeepSentCountsTruthful) {
  // omit_timestamps: barrier synchronization compares the receiver's
  // weighted receive index against the sender's per-original count.  Wrong
  // weights would leave p1's count floor unreachable (hang) or stale.
  Config cfg = two_proc_cfg(sync_only_batching());
  cfg.omit_timestamps = true;
  MixedSystem sys(cfg);
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 0) {
          for (int i = 1; i <= 6; ++i) n.write_int(0, i);
          n.dec_int(1, 2);
          n.dec_int(1, 3);
          n.barrier();
        } else {
          n.barrier();
          EXPECT_EQ(n.read_int(0, ReadMode::kPram), 6);
          EXPECT_EQ(n.read_int(1, ReadMode::kPram), -5);
        }
      },
      10s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
  EXPECT_EQ(sys.metrics().get("net.batch.coalesced"), 6u);
}

TEST(Batching, ThresholdFlushShipsWithoutSynchronization) {
  // max_updates = 4: the fifth write forces a flush with no sync action in
  // sight; the reader eventually observes it through plain PRAM reads.
  BatchingConfig b = sync_only_batching();
  b.max_updates = 4;
  b.coalesce = false;  // keep every record so the threshold actually fills
  MixedSystem sys(two_proc_cfg(b));
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 0) {
          for (int i = 1; i <= 5; ++i) n.write_int(static_cast<VarId>(i), i);
        } else {
          n.await_int(4, 4);  // shipped by the threshold flush
        }
      },
      10s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
  EXPECT_GE(sys.metrics().get("net.batch.msgs"), 1u);
}

TEST(Batching, DelayFlushBoundsStalenessForAsyncReaders) {
  // No synchronization at all on the writer side and thresholds never
  // reached: only BatchingConfig::max_delay can ship the write.
  BatchingConfig b = sync_only_batching();
  b.max_delay = 1ms;
  MixedSystem sys(two_proc_cfg(b));
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 0) {
          n.write_int(0, 42);
        } else {
          n.await_int(0, 42);
        }
      },
      10s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
}

TEST(Batching, DefaultConfigShipsOneFramePerPeerAtUnlock) {
  // Config{} batches: a lock section of k writes to distinct variables
  // stages k records per peer, and the unlock's mandatory flush ships them
  // as one frame per peer.  Every flush ships all peers' buffers, and only
  // the max_delay flusher can add flushes before the unlock: at most one
  // per max_delay the section lasts.  So a section shorter than max_delay
  // (any unsanitized build) must ship exactly one frame per peer.
  constexpr int kWrites = 8;
  constexpr std::size_t kPeers = 2;
  Config cfg;
  ASSERT_EQ(cfg.batching.max_updates, BatchingConfig{}.max_updates);
  ASSERT_GT(cfg.batching.max_updates, static_cast<std::size_t>(kWrites));
  cfg.num_procs = kPeers + 1;
  cfg.num_vars = 16;
  MixedSystem sys(cfg);
  std::chrono::steady_clock::duration section{};
  sys.run([&](Node& n, ProcId p) {
    if (p == 0) {
      n.wlock(0);
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kWrites; ++i) n.write_int(static_cast<VarId>(i), i + 1);
      n.wunlock(0);
      section = std::chrono::steady_clock::now() - start;
    }
    n.barrier();
    EXPECT_EQ(n.read_int(kWrites - 1, ReadMode::kPram), kWrites);
  });
  const auto metrics = sys.metrics();
  EXPECT_EQ(metrics.get("net.batch.updates"), kWrites * kPeers);
  EXPECT_EQ(metrics.get("net.batch.coalesced"), 0u);
  const auto frames = metrics.get("net.msg.batch");
  const auto timer_flushes =
      static_cast<std::uint64_t>(section / cfg.batching.max_delay);
  EXPECT_EQ(frames % kPeers, 0u);
  EXPECT_GE(frames, kPeers);
  EXPECT_LE(frames, kPeers * (1 + timer_flushes));
}

TEST(Batching, LaterWindowShipsWhileTimerArmedForEarlierWindow) {
  // The flusher is only notified when it is idle.  Here p0's first write
  // opens a window and arms the flusher's max_delay timer; the unlock
  // closes that window by flushing, and the next write opens a second one
  // while the timer is still armed, so it wakes nobody.  Nothing syncs
  // after it: only the timer's expiry, re-arming on the second window's
  // start, can ship it to p1's await.
  BatchingConfig b = sync_only_batching();
  b.max_delay = 100ms;
  MixedSystem sys(two_proc_cfg(b));
  std::chrono::steady_clock::time_point second_window{};
  std::chrono::steady_clock::duration staleness{};
  bool timer_armed = false;
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 0) {
          const auto first_window = std::chrono::steady_clock::now();
          n.write_int(0, 1);
          // Give the woken flusher time to arm its timer on this window.
          std::this_thread::sleep_for(10ms);
          n.wlock(0);
          n.wunlock(0);  // flushes the first window
          second_window = std::chrono::steady_clock::now();
          n.write_int(1, 42);
          timer_armed = second_window - first_window < b.max_delay;
        } else {
          n.await_int(1, 42);
          staleness = std::chrono::steady_clock::now() - second_window;
        }
      },
      10s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
  EXPECT_TRUE(timer_armed) << "the second window opened after the first timer expired";
  // Shipped by the re-armed timer: within max_delay of the window opening,
  // plus generous scheduling slack (far under the 10 s watchdog deadline).
  EXPECT_LT(staleness, b.max_delay + 2s);
  // Counted by the fabric before delivery (the node's net.batch.* stats are
  // recorded after the send, so p1 may finish before the flusher does).
  EXPECT_EQ(sys.metrics().get("net.msg.batch"), 2u);
}

// ----------------------------------------------------------------------
// Flush-on-sync litmus programs
// ----------------------------------------------------------------------

struct LitmusParam {
  bool chaos = false;
  LockPolicy policy = LockPolicy::kLazy;
};

class BatchingLitmus : public ::testing::TestWithParam<bool> {
 protected:
  Config make_cfg(std::size_t procs, std::size_t vars) {
    Config cfg;
    cfg.num_procs = procs;
    cfg.num_vars = vars;
    cfg.batching = sync_only_batching();
    if (GetParam()) {
      cfg.faults = chaos_plan(4242);
      cfg.reliable = true;
    }
    return cfg;
  }
};

INSTANTIATE_TEST_SUITE_P(Fabrics, BatchingLitmus, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "chaotic" : "ideal";
                         });

TEST_P(BatchingLitmus, BarrierArrivalFlushesStagedWrites) {
  MixedSystem sys(make_cfg(3, 4));
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        n.write_int(p, 100 + static_cast<int>(p));
        n.barrier();
        for (ProcId q = 0; q < 3; ++q) {
          EXPECT_EQ(n.read_int(q, ReadMode::kPram), 100 + static_cast<int>(q));
        }
      },
      20s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
}

TEST_P(BatchingLitmus, UnlockFlushesCriticalSectionWritesLazy) {
  Config cfg = make_cfg(2, 2);
  cfg.default_lock_policy = LockPolicy::kLazy;
  MixedSystem sys(cfg);
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 0) {
          n.wlock(0);
          n.write_int(0, 55);
          n.wunlock(0);
          n.barrier();
        } else {
          n.barrier();  // order the episodes: p0's critical section first
          n.wlock(0);
          EXPECT_EQ(n.read_int(0, ReadMode::kCausal), 55);
          n.wunlock(0);
        }
      },
      20s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
}

TEST_P(BatchingLitmus, UnlockFlushesCriticalSectionWritesEager) {
  Config cfg = make_cfg(2, 2);
  cfg.default_lock_policy = LockPolicy::kEager;
  MixedSystem sys(cfg);
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 0) {
          n.wlock(0);
          n.write_int(0, 66);
          n.wunlock(0);  // eager: probes must follow the flushed batch
          n.barrier();
        } else {
          n.barrier();
          // The eager release already made the write globally visible.
          EXPECT_EQ(n.read_int(0, ReadMode::kPram), 66);
        }
      },
      20s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
}

TEST_P(BatchingLitmus, AwaitFlushesOwnStagedWritesFirst) {
  // Handshake: p0 stages data + flag and then awaits p1's answer, which p1
  // only produces after seeing the flag.  Without flush-before-await both
  // processes would block forever on each other's staged buffers.  p1's
  // trailing await resolves locally against its own answer write — its only
  // effect is the mandatory flush that ships that write to p0.
  MixedSystem sys(make_cfg(2, 3));
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 0) {
          n.write_int(0, 7);  // data
          n.write_int(1, 1);  // flag
          n.await_int(2, 1);  // answer
        } else {
          n.await_int(1, 1);
          EXPECT_EQ(n.read_int(0, ReadMode::kCausal), 7);
          n.write_int(2, 1);
          n.await_int(2, 1);
        }
      },
      20s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
}

TEST_P(BatchingLitmus, DemandPolicyPublishesStagedOrdinaryWrites) {
  // Demand policy: p0's protected write stays local and migrates with the
  // lock, while its ordinary write is staged — the unlock-entry flush must
  // publish the staged record before the write-set digest ships, or p1's
  // causal read of the ordinary variable (whose clock the fetched entry
  // dominates) would block forever.
  Config cfg = make_cfg(2, 3);
  cfg.default_lock_policy = LockPolicy::kDemand;
  cfg.demand_association[0] = 0;
  MixedSystem sys(cfg);
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        if (p == 0) {
          n.write_int(2, 9);  // ordinary broadcast write, staged
          n.wlock(0);
          n.write_int(0, 11);  // protected: migrates with the lock
          n.wunlock(0);
          n.barrier();
        } else {
          n.barrier();
          n.wlock(0);
          EXPECT_EQ(n.read_int(0, ReadMode::kCausal), 11);  // demand fetch
          n.wunlock(0);
          EXPECT_EQ(n.read_int(2, ReadMode::kCausal), 9);
        }
      },
      20s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;
}

TEST_P(BatchingLitmus, RandomLitmusProgramHistoryStillChecks) {
  constexpr std::size_t kVars = 4;
  constexpr int kSteps = 40;
  Config cfg = make_cfg(3, kVars + 1);
  cfg.record_trace = true;
  // Real batching dynamics (small windows), not the sync-only extreme.
  BatchingConfig b;
  b.max_updates = 4;
  b.max_delay = 200us;
  cfg.batching = b;
  const VarId counter = kVars;

  MixedSystem sys(cfg);
  sys.node(0).write_int(counter, 1'000'000);
  const auto out = sys.run(
      [&](Node& n, ProcId p) {
        n.barrier();
        Rng rng(1313 * (p + 1));
        for (int step = 0; step < kSteps; ++step) {
          if (step % 13 == 12) {
            n.barrier();
            continue;
          }
          switch (rng.below(8)) {
            case 0:
            case 1:
            case 2:
              n.write(static_cast<VarId>(rng.below(kVars)),
                      (std::uint64_t{p} << 32) | static_cast<std::uint64_t>(step));
              break;
            case 3:
            case 4:
              std::ignore = n.read(static_cast<VarId>(rng.below(kVars)),
                                   rng.chance(0.5) ? ReadMode::kPram
                                                   : ReadMode::kCausal);
              break;
            case 5:
              n.dec_int(counter, static_cast<std::int64_t>(rng.below(3)) + 1);
              break;
            default: {
              n.wlock(0);
              const Value v = n.read(0, ReadMode::kCausal);
              n.write(0, v + 1);
              n.wunlock(0);
              break;
            }
          }
        }
        n.barrier();
      },
      30s);
  ASSERT_FALSE(out.stalled) << out.diagnostics.reason;

  const auto h = sys.collect_history();
  const auto res = history::check_mixed_consistency(h);
  EXPECT_TRUE(res.ok) << res.message() << "\n" << h.to_string();
}

}  // namespace
}  // namespace mc::dsm
