#include "net/mailbox.h"

#include <algorithm>
#include <chrono>

namespace mc::net {

bool Mailbox::push(Message m) {
  bool wake = false;
  {
    std::scoped_lock lk(mu_);
    if (closed_) return false;  // late traffic after shutdown is rejected
    const std::uint64_t arrival = arrivals_++;
    heap_.push_back(Entry{std::move(m), arrival});
    std::push_heap(heap_.begin(), heap_.end(), later);
    // A parked consumer sleeps until the old front's deliver_at (or
    // forever on an empty heap); only a new front moves that deadline.
    if (parked_ && heap_.front().arrival == arrival) {
      parked_ = false;
      wake = true;
    }
  }
  if (wake) cv_.notify_one();
  return true;
}

Message Mailbox::pop_front_locked() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Message out = std::move(heap_.back().msg);
  heap_.pop_back();
  return out;
}

bool Mailbox::wait_deliverable(std::unique_lock<std::mutex>& lk) {
  for (;;) {
    if (!heap_.empty()) {
      const SimTime due = heap_.front().msg.deliver_at;
      if (due <= std::chrono::steady_clock::now()) return true;
      // Wait until the front becomes deliverable or something earlier (or
      // a close) arrives.
      parked_ = true;
      cv_.wait_until(lk, due);
      parked_ = false;
      continue;
    }
    if (closed_) return false;
    parked_ = true;
    cv_.wait(lk);
    parked_ = false;
  }
}

std::optional<Message> Mailbox::recv() {
  std::unique_lock lk(mu_);
  if (!wait_deliverable(lk)) return std::nullopt;
  return pop_front_locked();
}

bool Mailbox::recv_all(std::vector<Message>& out) {
  std::unique_lock lk(mu_);
  if (!wait_deliverable(lk)) return false;
  const SimTime now = std::chrono::steady_clock::now();
  do {
    out.push_back(pop_front_locked());
  } while (!heap_.empty() && heap_.front().msg.deliver_at <= now);
  return true;
}

std::optional<Message> Mailbox::try_recv() {
  std::scoped_lock lk(mu_);
  if (heap_.empty()) return std::nullopt;
  if (heap_.front().msg.deliver_at > std::chrono::steady_clock::now()) return std::nullopt;
  return pop_front_locked();
}

void Mailbox::close() {
  {
    std::scoped_lock lk(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool Mailbox::closed() const {
  std::scoped_lock lk(mu_);
  return closed_;
}

std::size_t Mailbox::pending() const {
  std::scoped_lock lk(mu_);
  return heap_.size();
}

}  // namespace mc::net
