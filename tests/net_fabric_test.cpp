#include "net/fabric.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace mc::net {
namespace {

Message make(Endpoint src, Endpoint dst, std::uint16_t kind, std::uint64_t a = 0) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.kind = kind;
  m.a = a;
  return m;
}

TEST(Mailbox, DeliversInFifoOrderWithoutLatency) {
  Fabric f(2);
  for (std::uint64_t i = 0; i < 100; ++i) f.send(make(0, 1, 1, i));
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto m = f.mailbox(1).recv();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->a, i);
    EXPECT_EQ(m->channel_seq, i);
  }
}

TEST(Mailbox, TryRecvOnEmptyReturnsNothing) {
  Fabric f(2);
  EXPECT_FALSE(f.mailbox(1).try_recv().has_value());
}

TEST(Mailbox, CloseWakesBlockedReceiver) {
  Fabric f(2);
  std::thread t([&f] {
    const auto m = f.mailbox(1).recv();
    EXPECT_FALSE(m.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  f.shutdown();
  t.join();
}

TEST(Mailbox, DrainsPendingMessagesAfterClose) {
  Fabric f(2);
  f.send(make(0, 1, 1, 42));
  f.shutdown();
  const auto m = f.mailbox(1).recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->a, 42u);
  EXPECT_FALSE(f.mailbox(1).recv().has_value());
}

Message stamped(std::uint64_t a, SimTime due) {
  Message m = make(0, 1, 1, a);
  m.deliver_at = due;
  return m;
}

TEST(Mailbox, RecvAllDrainsOnlyDeliverableMessagesInStampOrder) {
  using namespace std::chrono_literals;
  Mailbox box;
  const SimTime now = std::chrono::steady_clock::now();
  ASSERT_TRUE(box.push(stamped(1, now - 1ms)));
  ASSERT_TRUE(box.push(stamped(2, now - 2ms)));
  ASSERT_TRUE(box.push(stamped(3, now + 1h)));
  ASSERT_TRUE(box.push(stamped(4, now - 2ms)));  // ties with 2: arrival order
  std::vector<Message> out;
  ASSERT_TRUE(box.recv_all(out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].a, 2u);
  EXPECT_EQ(out[1].a, 4u);
  EXPECT_EQ(out[2].a, 1u);
  EXPECT_EQ(box.pending(), 1u);
  EXPECT_FALSE(box.try_recv().has_value());
}

TEST(Mailbox, RecvAllDeliversPendingMessagesAfterCloseThenReturnsFalse) {
  using namespace std::chrono_literals;
  Mailbox box;
  const SimTime now = std::chrono::steady_clock::now();
  ASSERT_TRUE(box.push(stamped(1, now)));
  ASSERT_TRUE(box.push(stamped(2, now + 30ms)));
  box.close();
  std::vector<Message> out{make(0, 1, 1, 99)};  // recv_all appends
  ASSERT_TRUE(box.recv_all(out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].a, 1u);
  ASSERT_TRUE(box.recv_all(out));  // waits for the later stamp
  EXPECT_GE(std::chrono::steady_clock::now() - now, 25ms);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].a, 2u);
  EXPECT_FALSE(box.recv_all(out));
  EXPECT_EQ(out.size(), 3u);
}

TEST(Mailbox, RecvAllWakesForAnEarlierMessageWhileParkedOnALaterOne) {
  using namespace std::chrono_literals;
  Mailbox box;
  ASSERT_TRUE(box.push(stamped(1, std::chrono::steady_clock::now() + 1h)));
  std::vector<Message> out;
  std::thread consumer([&] { EXPECT_TRUE(box.recv_all(out)); });
  std::this_thread::sleep_for(20ms);
  EXPECT_TRUE(box.push(stamped(2, std::chrono::steady_clock::now())));
  consumer.join();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].a, 2u);
  EXPECT_EQ(box.pending(), 1u);
}

TEST(Mailbox, CloseWakesReceiverBlockedInRecvAll) {
  Mailbox box;
  std::thread consumer([&] {
    std::vector<Message> out;
    EXPECT_FALSE(box.recv_all(out));
    EXPECT_TRUE(out.empty());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.close();
  consumer.join();
}

TEST(Fabric, ChannelsAreFifoPerSenderUnderJitter) {
  LatencyModel lat;
  lat.base = std::chrono::microseconds(50);
  lat.jitter = std::chrono::microseconds(200);
  Fabric f(3, lat, /*seed=*/7);
  for (std::uint64_t i = 0; i < 50; ++i) {
    f.send(make(0, 2, 1, i));
    f.send(make(1, 2, 2, i));
  }
  std::uint64_t next_from_0 = 0;
  std::uint64_t next_from_1 = 0;
  for (int i = 0; i < 100; ++i) {
    const auto m = f.mailbox(2).recv();
    ASSERT_TRUE(m.has_value());
    if (m->src == 0) {
      EXPECT_EQ(m->a, next_from_0++);
    } else {
      EXPECT_EQ(m->a, next_from_1++);
    }
  }
  EXPECT_EQ(next_from_0, 50u);
  EXPECT_EQ(next_from_1, 50u);
}

TEST(Fabric, LatencyDelaysDelivery) {
  LatencyModel lat;
  lat.base = std::chrono::milliseconds(30);
  Fabric f(2, lat);
  const auto start = std::chrono::steady_clock::now();
  f.send(make(0, 1, 1));
  const auto m = f.mailbox(1).recv();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(m.has_value());
  EXPECT_GE(elapsed, std::chrono::milliseconds(25));
}

TEST(Fabric, MulticastReachesEveryDestination) {
  Fabric f(4);
  f.multicast(make(0, kNoEndpoint, 3, 9), {1, 2, 3});
  for (Endpoint e = 1; e < 4; ++e) {
    const auto m = f.mailbox(e).recv();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->a, 9u);
    EXPECT_EQ(m->dst, e);
  }
  EXPECT_EQ(f.messages_sent(), 3u);
}

TEST(Fabric, AccountsMessagesAndBytes) {
  Fabric f(2);
  Message m = make(0, 1, 2);
  m.payload = {1, 2, 3, 4};
  const std::size_t expected_bytes = m.wire_bytes();
  f.send(std::move(m));
  EXPECT_EQ(f.messages_sent(), 1u);
  EXPECT_EQ(f.bytes_sent(), expected_bytes);
  EXPECT_EQ(f.messages_of_kind(2), 1u);
  EXPECT_EQ(f.messages_of_kind(3), 0u);
}

TEST(Fabric, MetricsUseRegisteredKindNames) {
  Fabric f(2);
  f.name_kind(5, "update");
  f.send(make(0, 1, 5));
  const auto snap = f.metrics();
  EXPECT_EQ(snap.get("net.messages"), 1u);
  EXPECT_EQ(snap.get("net.msg.update"), 1u);
}

TEST(Mailbox, PushAfterCloseReturnsFalseAndDiscards) {
  Fabric f(2);
  f.mailbox(1).close();
  EXPECT_FALSE(f.mailbox(1).push(make(0, 1, 1, 7)));
  EXPECT_EQ(f.mailbox(1).pending(), 0u);
  EXPECT_FALSE(f.mailbox(1).try_recv().has_value());
}

TEST(Fabric, CountsSendsAfterClose) {
  Fabric f(2);
  f.send(make(0, 1, 1, 1));
  f.mailbox(1).close();
  f.send(make(0, 1, 1, 2));
  f.send(make(0, 1, 1, 3));
  EXPECT_EQ(f.sends_after_close(), 2u);
  // The raced sends are still accounted as sent (they left the sender) but
  // only the pre-close message is deliverable.
  EXPECT_EQ(f.messages_sent(), 3u);
  EXPECT_EQ(f.metrics().get("net.send_after_close"), 2u);
  ASSERT_TRUE(f.mailbox(1).recv().has_value());
  EXPECT_FALSE(f.mailbox(1).recv().has_value());
}

TEST(Fabric, CloseRecvRaceAccountsEveryMessage) {
  // A receiver draining while the fabric shuts down mid-stream: every send
  // must either be received or show up in sends_after_close — none lost
  // silently.
  constexpr std::uint64_t kTotal = 5000;
  Fabric f(2);
  std::uint64_t received = 0;
  std::thread receiver([&] {
    while (f.mailbox(1).recv().has_value()) ++received;
  });
  std::thread sender([&] {
    for (std::uint64_t i = 0; i < kTotal; ++i) f.send(make(0, 1, 1, i));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  f.shutdown();
  sender.join();
  receiver.join();
  EXPECT_EQ(received + f.sends_after_close(), kTotal);
  EXPECT_EQ(f.messages_sent(), kTotal);
}

TEST(Fabric, MulticastAccountingUnderConcurrentSenders) {
  constexpr int kPerSender = 200;
  Fabric f(5);
  const std::vector<Endpoint> dsts{3, 4};
  std::vector<std::thread> senders;
  for (Endpoint s = 0; s < 3; ++s) {
    senders.emplace_back([&f, &dsts, s] {
      for (int i = 0; i < kPerSender; ++i) {
        Message m = make(s, 0, 2, static_cast<std::uint64_t>(i));
        m.payload = {1, 2};
        f.multicast(m, dsts);
      }
    });
  }
  for (auto& t : senders) t.join();
  const std::uint64_t expected = 3ull * kPerSender * dsts.size();
  EXPECT_EQ(f.messages_sent(), expected);
  EXPECT_EQ(f.messages_of_kind(2), expected);
  Message probe = make(0, 3, 2);
  probe.payload = {1, 2};
  EXPECT_EQ(f.bytes_sent(), expected * probe.wire_bytes());
  for (const Endpoint d : dsts) {
    std::uint64_t got = 0;
    while (f.mailbox(d).try_recv().has_value()) ++got;
    EXPECT_EQ(got, 3ull * kPerSender);
  }
}

TEST(Fabric, ConcurrentSendersDoNotLoseMessages) {
  Fabric f(5);
  std::vector<std::thread> senders;
  for (Endpoint s = 0; s < 4; ++s) {
    senders.emplace_back([&f, s] {
      for (int i = 0; i < 500; ++i) f.send(make(s, 4, 1));
    });
  }
  for (auto& t : senders) t.join();
  int received = 0;
  while (f.mailbox(4).try_recv().has_value()) ++received;
  EXPECT_EQ(received, 2000);
  EXPECT_EQ(f.messages_sent(), 2000u);
}

}  // namespace
}  // namespace mc::net
