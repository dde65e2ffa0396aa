#include "net/fabric.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "net/reliable.h"
#include "obs/tracer.h"

namespace mc::net {

// Optional robustness layers.  Installed once under ext_mu_ and published
// through the fabric's single atomic pointer; the raw atomics inside let the
// hot path read the current layer without taking a lock.  Retired fault
// injectors stay alive (their counters feed metrics, and in-flight senders
// may still hold a pointer).
struct Fabric::Ext {
  std::vector<std::unique_ptr<FaultInjector>> fault_storage;
  std::atomic<FaultInjector*> faults{nullptr};

  std::unique_ptr<ReliableChannel> rel_storage;
  std::atomic<ReliableChannel*> reliable{nullptr};
};

Fabric::Fabric(std::size_t endpoints, LatencyModel latency, std::uint64_t seed)
    : stamper_(latency, endpoints, seed), channel_seq_(endpoints * endpoints, 0) {
  MC_CHECK(endpoints > 0);
  mailboxes_.reserve(endpoints);
  for (std::size_t i = 0; i < endpoints; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  // Registered here, not in enable_reliability(): a metrics key must never
  // degrade to a bare number ("net.msg.62") just because the reliability
  // layer was attached after the first ack went out, or never attached.
  name_kind(kRelAckKind, "rel_ack");
}

Fabric::~Fabric() = default;

Mailbox& Fabric::mailbox(Endpoint e) {
  MC_CHECK(e < mailboxes_.size());
  return *mailboxes_[e];
}

void Fabric::send(Message m) {
  Ext* ext = ext_.load(std::memory_order_acquire);
  if (ext != nullptr) {
    ReliableChannel* rel = ext->reliable.load(std::memory_order_acquire);
    if (rel != nullptr && m.kind != kRelAckKind) rel->on_send(m);
  }
  deliver(std::move(m), ext);
}

void Fabric::send_raw(Message m) {
  deliver(std::move(m), ext_.load(std::memory_order_acquire));
}

void Fabric::deliver(Message m, Ext* ext) {
  MC_CHECK(m.src < mailboxes_.size());
  MC_CHECK(m.dst < mailboxes_.size());
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::scoped_lock lk(stamp_mu_);
    m.channel_seq = channel_seq_[m.src * mailboxes_.size() + m.dst]++;
    m.deliver_at = stamper_.stamp(m, t0);
  }
  messages_.add();
  bytes_.add(m.wire_bytes());
  {
    const std::size_t bucket = std::min<std::size_t>(m.kind, kKindBuckets - 1);
    per_kind_[bucket].add();
    per_kind_bytes_[bucket].add(m.wire_bytes());
  }

  FaultInjector::Decision fate;
  if (ext != nullptr) {
    FaultInjector* faults = ext->faults.load(std::memory_order_acquire);
    if (faults != nullptr) {
      fate = faults->decide(
          m, std::chrono::duration_cast<std::chrono::nanoseconds>(m.deliver_at - t0));
    }
  }
  if (fate.drop) {
    send_ns_.record(std::chrono::steady_clock::now() - t0);
    return;
  }
  m.deliver_at += fate.extra_delay;

  if (obs::trace_enabled()) {
    // Stamp the flow correlation id (keep ids the reliability layer already
    // assigned to retransmitted copies) and open the flow; the consumer
    // emits the matching flow end (docs/TRACING.md).
    if (m.trace_id == 0) m.trace_id = obs::next_flow_id();
    obs::trace_instant("send", "net", {"kind", m.kind}, {"dst", m.dst});
    obs::trace_flow_start("msg", "net", m.trace_id, {"kind", m.kind});
  }
  const Endpoint dst = m.dst;
  if (fate.duplicate) {
    // The wire carried the message twice: account for the extra copy and
    // deliver it with identical stamps (the mailbox keeps arrival order).
    messages_.add();
    bytes_.add(m.wire_bytes());
    {
      const std::size_t bucket = std::min<std::size_t>(m.kind, kKindBuckets - 1);
      per_kind_[bucket].add();
      per_kind_bytes_[bucket].add(m.wire_bytes());
    }
    Message copy = m;
    if (!mailboxes_[dst]->push(std::move(copy))) send_after_close_.add();
  }
  if (!mailboxes_[dst]->push(std::move(m))) send_after_close_.add();
  send_ns_.record(std::chrono::steady_clock::now() - t0);
}

std::optional<Message> Fabric::recv(Endpoint e) {
  MC_CHECK(e < mailboxes_.size());
  Ext* ext = ext_.load(std::memory_order_acquire);
  if (ext != nullptr) {
    ReliableChannel* rel = ext->reliable.load(std::memory_order_acquire);
    if (rel != nullptr) return rel->recv(e);
  }
  return mailboxes_[e]->recv();
}

bool Fabric::recv_all(Endpoint e, std::vector<Message>& out) {
  MC_CHECK(e < mailboxes_.size());
  if (!reliability_enabled()) return mailboxes_[e]->recv_all(out);
  auto m = recv(e);
  if (!m.has_value()) return false;
  out.push_back(std::move(*m));
  return true;
}

void Fabric::multicast(const Message& m, const std::vector<Endpoint>& dsts) {
  for (const Endpoint d : dsts) {
    Message copy = m;
    copy.dst = d;
    send(std::move(copy));
  }
}

void Fabric::shutdown() {
  // Stop retransmissions before closing mailboxes so the timer thread never
  // races shutdown with late pushes (they would be rejected and counted as
  // send_after_close, muddying the metric).
  Ext* ext = ext_.load(std::memory_order_acquire);
  if (ext != nullptr) {
    ReliableChannel* rel = ext->reliable.load(std::memory_order_acquire);
    if (rel != nullptr) rel->stop();
  }
  for (auto& mb : mailboxes_) mb->close();
}

void Fabric::inject_faults(const FaultPlan& plan) {
  std::scoped_lock lk(ext_mu_);
  if (!ext_storage_) {
    ext_storage_ = std::make_unique<Ext>();
    ext_.store(ext_storage_.get(), std::memory_order_release);
  }
  ext_storage_->fault_storage.push_back(
      std::make_unique<FaultInjector>(plan, endpoints()));
  ext_storage_->faults.store(ext_storage_->fault_storage.back().get(),
                             std::memory_order_release);
}

void Fabric::clear_faults() {
  std::scoped_lock lk(ext_mu_);
  if (ext_storage_) ext_storage_->faults.store(nullptr, std::memory_order_release);
}

void Fabric::enable_reliability(const ReliabilityConfig& cfg) {
  std::scoped_lock lk(ext_mu_);
  if (!ext_storage_) {
    ext_storage_ = std::make_unique<Ext>();
    ext_.store(ext_storage_.get(), std::memory_order_release);
  }
  MC_CHECK_MSG(ext_storage_->rel_storage == nullptr,
               "reliability can only be enabled once per fabric");
  name_kind(kRelAckKind, "rel_ack");
  ext_storage_->rel_storage =
      std::make_unique<ReliableChannel>(*this, endpoints(), cfg);
  ext_storage_->reliable.store(ext_storage_->rel_storage.get(),
                               std::memory_order_release);
}

bool Fabric::reliability_enabled() const {
  Ext* ext = ext_.load(std::memory_order_acquire);
  return ext != nullptr && ext->reliable.load(std::memory_order_acquire) != nullptr;
}

ReliableChannel* Fabric::reliable_channel() {
  Ext* ext = ext_.load(std::memory_order_acquire);
  return ext == nullptr ? nullptr : ext->reliable.load(std::memory_order_acquire);
}

std::uint64_t Fabric::messages_of_kind(std::uint16_t kind) const {
  return per_kind_[std::min<std::size_t>(kind, kKindBuckets - 1)].get();
}

std::uint64_t Fabric::bytes_of_kind(std::uint16_t kind) const {
  return per_kind_bytes_[std::min<std::size_t>(kind, kKindBuckets - 1)].get();
}

std::vector<std::size_t> Fabric::in_flight() const {
  std::vector<std::size_t> counts;
  counts.reserve(mailboxes_.size());
  for (const auto& mb : mailboxes_) counts.push_back(mb->pending());
  return counts;
}

void Fabric::name_kind(std::uint16_t kind, std::string name) {
  MC_CHECK(kind < kKindBuckets);
  std::scoped_lock lk(names_mu_);
  kind_names_[kind] = std::move(name);
}

MetricsSnapshot Fabric::metrics() const {
  MetricsSnapshot snap;
  snap.values["net.messages"] = messages_.get();
  snap.values["net.bytes"] = bytes_.get();
  snap.values["net.send_after_close"] = send_after_close_.get();
  snap.add_histogram("net.send_ns", send_ns_);
  {
    std::scoped_lock lk(names_mu_);
    for (std::size_t k = 0; k < kKindBuckets; ++k) {
      const std::uint64_t n = per_kind_[k].get();
      if (n == 0) continue;
      const std::string& name = kind_names_[k];
      const std::string label = name.empty() ? std::to_string(k) : name;
      snap.values["net.msg." + label] = n;
      snap.values["net.bytes." + label] = per_kind_bytes_[k].get();
    }
  }
  {
    std::scoped_lock lk(ext_mu_);
    if (ext_storage_) {
      // Retired injectors are reported too (later installs overwrite the
      // shared keys; chaos runs install one plan, so this is exact there).
      for (const auto& inj : ext_storage_->fault_storage) inj->add_metrics(snap);
      if (ext_storage_->rel_storage) ext_storage_->rel_storage->add_metrics(snap);
    }
  }
  return snap;
}

}  // namespace mc::net
