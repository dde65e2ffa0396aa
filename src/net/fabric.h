// The simulated message-passing fabric: a fixed set of endpoints connected
// by FIFO channels with configurable latency and full traffic accounting.
//
// This is the substitute for the workstation network underneath the Maya
// platform (Section 6): processes and managers are endpoints, each endpoint
// owns a mailbox, and every protocol byte is counted so benchmarks can
// report machine-independent costs.
//
// Two optional layers sandwich the ideal channel (both off by default, one
// branch on a null pointer when absent):
//   - a FaultInjector (net/fault.h) makes the channel lossy — seeded drops,
//     duplication, delay spikes, partitions, crash-stop endpoints;
//   - a ReliableChannel (net/reliable.h) rebuilds the paper's reliable-FIFO
//     assumption on top of the lossy channel with acks and retransmits.

#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "net/fault.h"
#include "net/latency.h"
#include "net/mailbox.h"
#include "net/message.h"

namespace mc::net {

class ReliableChannel;
struct ReliabilityConfig;

class Fabric {
 public:
  /// Up to this many distinct protocol message kinds are accounted
  /// separately (kinds at or above the cap share the last bucket).
  static constexpr std::size_t kKindBuckets = 64;

  Fabric(std::size_t endpoints, LatencyModel latency = LatencyModel::zero(),
         std::uint64_t seed = 1);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] std::size_t endpoints() const { return mailboxes_.size(); }

  [[nodiscard]] Mailbox& mailbox(Endpoint e);

  /// Send `m` from m.src to m.dst, stamping channel sequence and simulated
  /// delivery time.  Runs the message through the reliability layer and the
  /// fault plan when installed.  Thread-safe.
  void send(Message m);

  /// Send bypassing the reliability wrap (retransmissions and acks — they
  /// still face the fault plan and normal stamping/accounting).
  void send_raw(Message m);

  /// Receive the next message for endpoint `e`: the reliable in-order
  /// stream when reliability is enabled, the raw mailbox otherwise.  One
  /// consumer thread per endpoint.
  std::optional<Message> recv(Endpoint e);

  /// Batch receive for endpoint `e`: block until something is deliverable,
  /// then append every deliverable message to `out` in delivery order
  /// (Mailbox::recv_all).  The reliable stream still hands over one
  /// message per call.  Returns false once the endpoint is closed and
  /// drained.  One consumer thread per endpoint.
  bool recv_all(Endpoint e, std::vector<Message>& out);

  /// Send a copy of `m` from `src` to every endpoint in `dsts`.
  void multicast(const Message& m, const std::vector<Endpoint>& dsts);

  /// Close every mailbox (messages already in flight are still delivered)
  /// and stop the reliability layer's retransmit timer.
  void shutdown();

  // --- fault injection & reliability (docs/FAULTS.md) ---

  /// Install (or replace) a fault plan.  Runtime-togglable; do not call
  /// concurrently with in-flight sends you care about replaying.
  void inject_faults(const FaultPlan& plan);

  /// Stop injecting faults (the injector's counters survive for metrics).
  void clear_faults();

  /// Layer the ack/retransmit protocol over every subsequent send/recv.
  /// Enable once, before protocol traffic starts.
  void enable_reliability(const ReliabilityConfig& cfg);

  [[nodiscard]] bool reliability_enabled() const;
  [[nodiscard]] ReliableChannel* reliable_channel();

  // --- accounting ---

  [[nodiscard]] std::uint64_t messages_sent() const { return messages_.get(); }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_.get(); }
  [[nodiscard]] std::uint64_t messages_of_kind(std::uint16_t kind) const;
  [[nodiscard]] std::uint64_t bytes_of_kind(std::uint16_t kind) const;

  /// Sends rejected because the destination mailbox had already been
  /// closed — shutdown races, visible instead of silent.
  [[nodiscard]] std::uint64_t sends_after_close() const {
    return send_after_close_.get();
  }

  /// Messages currently sitting in each endpoint's mailbox (diagnostics).
  [[nodiscard]] std::vector<std::size_t> in_flight() const;

  /// Latency of the send path itself (stamping + mailbox insertion,
  /// including contention on the stamping lock) — the fabric's hot path.
  [[nodiscard]] const LatencyHistogram& send_latency() const { return send_ns_; }

  /// Snapshot of fabric-level metrics, with per-kind counts labeled through
  /// `kind_name` (protocol layers install their kind names at startup).
  /// Includes fault and reliability counters when those layers exist.
  [[nodiscard]] MetricsSnapshot metrics() const;

  /// Register a human-readable name for a message kind (for metrics keys).
  void name_kind(std::uint16_t kind, std::string name);

 private:
  /// Optional layers, behind a single pointer so the hot path pays one
  /// branch when neither is installed.
  struct Ext;

  void deliver(Message m, Ext* ext);

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  std::mutex stamp_mu_;
  LatencyStamper stamper_;
  std::vector<std::uint64_t> channel_seq_;  // [src * n + dst]

  mutable std::mutex ext_mu_;           // guards installation, not the hot path
  std::unique_ptr<Ext> ext_storage_;
  std::atomic<Ext*> ext_{nullptr};

  Counter messages_;
  Counter bytes_;
  Counter send_after_close_;
  std::array<Counter, kKindBuckets> per_kind_;
  std::array<Counter, kKindBuckets> per_kind_bytes_;
  LatencyHistogram send_ns_;

  mutable std::mutex names_mu_;
  std::array<std::string, kKindBuckets> kind_names_;
};

}  // namespace mc::net
