// The benchmark's workloads.  Each one makes its inputs from the seed in
// set-up, runs one job per call into the program's public entry points, and
// checks the job's output against an oracle computed in set-up.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "history/history.h"

namespace perfbench {

/// What one job produced, after its oracle ran.
struct JobOutcome {
  bool ok = true;
  std::string error;          ///< first oracle failure (empty when ok)
  double app_ms = 0.0;        ///< time inside the DSM run
  std::uint64_t ops = 0;      ///< shared-memory ops issued
  mc::MetricsSnapshot metrics;  ///< the job's metrics()
  /// keyspace-directory with call timers on: the slowest thread's body,
  /// split into Node calls and the gaps between them, and the per-kind
  /// call time sums and counts.
  double body_ns = 0.0;
  double calls_ns = 0.0;
  double gaps_ns = 0.0;
  double read_call_ns = 0.0, write_call_ns = 0.0, barrier_call_ns = 0.0;
  std::uint64_t read_calls = 0, write_calls = 0, barrier_calls = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate the pool of inputs from `seed` and compute references;
  /// `tiny` shrinks every input (self-test only).  Warm-up jobs are run by
  /// the caller.
  virtual void setup(std::uint64_t seed, bool tiny) = 0;

  /// Inputs per pass; job k runs on input k % pool_size().
  [[nodiscard]] virtual std::size_t pool_size() const = 0;

  /// Run one job on input `item` and check its output.  With `corrupt`,
  /// one output value is altered before the check (self-test only).
  /// `timed` turns on the benchmark's own per-call timers.
  virtual JobOutcome run_job(std::size_t item, bool corrupt, bool timed) = 0;

  /// DSM processes of one job.
  [[nodiscard]] virtual std::size_t procs() const = 0;

  /// Run one job on input 0 with operation recording on and return its
  /// history (the input of the history-layer timings).
  virtual mc::history::History record_history() = 0;

  /// Sequential reference time per input in ms (0 when there is none).
  [[nodiscard]] virtual double reference_ms() const { return 0.0; }

  /// Mean solver iterations per input (0 when not an iterative solver).
  [[nodiscard]] virtual double iterations() const { return 0.0; }
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// A causal linear extension of a recorded history: the order in which
/// IncrementalChecker::feed accepts its operations.
std::vector<std::uint32_t> feed_order(const mc::history::History& h);

/// One IncrementalChecker feed + finalize over a recorded history.
struct CheckOutcome {
  bool ok = true;
  std::string error;
  std::uint64_t ops = 0;  ///< operations the checker counted
  double feed_ns = 0.0;
  double finalize_ns = 0.0;
  mc::MetricsSnapshot metrics;  ///< the checker's metrics()
};

/// Check `h` fed in `order`.  ok requires a clean verdict and every
/// recorded operation counted.
CheckOutcome check_history(const mc::history::History& h,
                           const std::vector<std::uint32_t>& order);

}  // namespace perfbench
