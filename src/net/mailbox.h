// A multi-producer single-consumer mailbox with simulated-latency release.
//
// Messages become visible to the consumer only once their `deliver_at`
// stamp has passed; among deliverable messages the mailbox releases them in
// arrival order, which — combined with the fabric's per-channel monotone
// deliver_at stamping — yields the FIFO channels that Section 6 assumes.
//
// Producers signal the consumer only while it is parked on an empty (or
// not-yet-deliverable) heap and only when their message becomes the new
// head, so a consumer that keeps up costs its producers no futex wake.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "net/message.h"

namespace mc::net {

class Mailbox {
 public:
  /// Enqueue a message (called by the fabric).  Never blocks.  Returns
  /// false — and discards the message — once the mailbox is closed, so the
  /// fabric can account for shutdown-raced sends instead of losing them
  /// silently (`net.send_after_close`).
  [[nodiscard]] bool push(Message m);

  /// Blocking receive.  Returns nullopt once the mailbox is closed *and*
  /// drained — pending messages are still delivered after close so that
  /// shutdown cannot drop protocol traffic.
  std::optional<Message> recv();

  /// Blocking batch receive: wait until at least one message is
  /// deliverable, then append every deliverable message to `out` in
  /// (deliver_at, arrival) order under one lock hold.  Returns false —
  /// appending nothing — only once the mailbox is closed and drained.
  bool recv_all(std::vector<Message>& out);

  /// Non-blocking receive of a deliverable message.
  std::optional<Message> try_recv();

  /// Wake all blocked receivers and reject future pushes.
  void close();

  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t pending() const;

 private:
  struct Entry {
    Message msg;
    std::uint64_t arrival = 0;
  };

  /// Heap order: true when `a` is released after `b` — (deliver_at,
  /// arrival) ascending, so the heap front is the earliest deliverable
  /// message and equal stamps stay FIFO.
  static bool later(const Entry& a, const Entry& b) {
    if (a.msg.deliver_at != b.msg.deliver_at) return a.msg.deliver_at > b.msg.deliver_at;
    return a.arrival > b.arrival;
  }

  /// Move the heap front out.  Expects mu_ and a non-empty heap.
  Message pop_front_locked();

  /// Block until the heap front is deliverable (true) or the mailbox is
  /// closed and drained (false).  Expects `lk` to hold mu_.
  bool wait_deliverable(std::unique_lock<std::mutex>& lk);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Entry> heap_;  // min-heap under later()
  std::uint64_t arrivals_ = 0;
  /// The consumer is (about to be) blocked on cv_; cleared by the producer
  /// that wakes it, so a burst of pushes costs one notify.
  bool parked_ = false;
  bool closed_ = false;
};

}  // namespace mc::net
