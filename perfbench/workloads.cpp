#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "apps/cholesky.h"
#include "apps/equation_solver.h"
#include "apps/matrix.h"
#include "apps/sparse.h"
#include "common/rng.h"
#include "dsm/system.h"
#include "history/incremental_checker.h"

namespace perfbench {

using namespace mc;
using Clock = std::chrono::steady_clock;

namespace {

// Generous enough that the benchmark's own load cannot trip it: a healthy
// job takes well under a second.
constexpr std::chrono::seconds kStallDeadline{60};

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

double ms_since(Clock::time_point t0) { return ns_between(t0, Clock::now()) / 1e6; }

std::uint64_t dsm_ops(const MetricsSnapshot& m) {
  return m.get("dsm.reads_pram") + m.get("dsm.reads_causal") + m.get("dsm.writes") +
         m.get("dsm.deltas");
}

/// One seed per pool input, drawn from the workload seed.
std::vector<std::uint64_t> item_seeds(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<std::uint64_t> out(n);
  for (auto& s : out) s = rng.next() | 1;
  return out;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

constexpr std::size_t kCholeskyBand = 3;
constexpr double kCholeskyFill = 0.05;
constexpr double kCholeskyTolerance = 1e-10;

/// `count` banded SPD matrices for the pool.  The random off-band fill
/// makes the factor's fill-in -- and with it a job's work and message
/// count -- vary by a third from matrix to matrix, which would make one
/// seed's pool faster than another's.  So draw four candidates per slot
/// from the seed and keep the `count` with the median fill-in: every seed
/// then gets a pool of the same work, and still different values.
std::vector<apps::SparseSpd> pick_matrices(std::uint64_t seed, std::size_t n,
                                           std::size_t count) {
  std::vector<std::pair<std::size_t, apps::SparseSpd>> cands;
  for (const std::uint64_t s : item_seeds(seed, 4 * count)) {
    apps::SparseSpd m = apps::SparseSpd::random(n, kCholeskyBand, kCholeskyFill, s);
    const std::size_t fill = apps::analyze(m).fill_nnz();
    cands.emplace_back(fill, std::move(m));
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::size_t first = (cands.size() - count) / 2;
  std::vector<apps::SparseSpd> out;
  for (std::size_t i = first; i < first + count; ++i) out.push_back(std::move(cands[i].second));
  return out;
}

// ---------------------------------------------------------------------------

class SolverBarrier final : public Workload {
 public:
  void setup(std::uint64_t seed, bool tiny) override {
    const std::size_t n = tiny ? 24 : 128;
    const std::size_t pool = tiny ? 1 : 4;
    opt_.workers = 3;
    opt_.tol = 1e-8;
    opt_.batching = dsm::BatchingConfig{};
    opt_.reliable = true;
    opt_.reliability.ack_every = 8;
    opt_.stall_timeout = kStallDeadline;
    double ref_ms = 0.0, iters = 0.0;
    for (const std::uint64_t s : item_seeds(seed, pool)) {
      Input in{apps::LinearSystem::random(n, s), {}};
      const auto t0 = Clock::now();
      in.ref = apps::jacobi_reference(in.sys, opt_.tol, opt_.max_iters);
      ref_ms += ms_since(t0);
      iters += static_cast<double>(in.ref.iterations);
      inputs_.push_back(std::move(in));
    }
    ref_ms_ = ref_ms / static_cast<double>(pool);
    iters_ = iters / static_cast<double>(pool);
  }

  std::size_t pool_size() const override { return inputs_.size(); }
  std::size_t procs() const override { return opt_.workers + 1; }
  double reference_ms() const override { return ref_ms_; }
  double iterations() const override { return iters_; }

  history::History record_history() override {
    apps::SolverRun r = apps::solve_barrier_traced(inputs_[0].sys, opt_, ReadMode::kPram);
    if (r.result.stalled) throw std::runtime_error("recording stalled: " + r.result.stall_reason);
    return std::move(r.history);
  }

  JobOutcome run_job(std::size_t item, bool corrupt, bool) override {
    const Input& in = inputs_[item];
    apps::SolverResult r = apps::solve_barrier_pram(in.sys, opt_);
    JobOutcome out;
    out.app_ms = r.elapsed_ms;
    out.ops = dsm_ops(r.metrics);
    out.metrics = std::move(r.metrics);
    if (corrupt && !r.x.empty()) r.x[0] = std::nextafter(r.x[0], 1e300);
    if (r.stalled) {
      out.ok = false;
      out.error = "solver stalled: " + r.stall_reason;
    } else if (!bitwise_equal(r.x, in.ref.x) || r.iterations != in.ref.iterations) {
      out.ok = false;
      out.error = "solver result differs from jacobi_reference";
    }
    return out;
  }

 private:
  struct Input {
    apps::LinearSystem sys;
    apps::JacobiReference ref;
  };
  apps::SolverOptions opt_;
  std::vector<Input> inputs_;
  double ref_ms_ = 0.0, iters_ = 0.0;
};

// ---------------------------------------------------------------------------

class CholeskyLocks final : public Workload {
 public:
  void setup(std::uint64_t seed, bool tiny) override {
    const std::size_t n = tiny ? 16 : 48;
    const std::size_t pool = tiny ? 1 : 8;
    opt_.procs = 4;
    opt_.lock_policy = dsm::LockPolicy::kLazy;
    opt_.stall_timeout = kStallDeadline;
    double ref_ms = 0.0;
    for (apps::SparseSpd& m : pick_matrices(seed, n, pool)) {
      Input in{std::move(m), {}};
      in.sym = apps::analyze(in.m);
      const auto t0 = Clock::now();
      const std::vector<double> l = apps::cholesky_reference(in.m, in.sym);
      ref_ms += ms_since(t0);
      if (apps::factorization_error(in.m, l) > kCholeskyTolerance) {
        throw std::runtime_error("cholesky_reference fails its own tolerance");
      }
      inputs_.push_back(std::move(in));
    }
    ref_ms_ = ref_ms / static_cast<double>(pool);
  }

  std::size_t pool_size() const override { return inputs_.size(); }
  std::size_t procs() const override { return opt_.procs; }
  double reference_ms() const override { return ref_ms_; }

  history::History record_history() override {
    apps::CholeskyOptions opt = opt_;
    opt.record_trace = true;
    apps::CholeskyResult r = apps::cholesky_locks(inputs_[0].m, inputs_[0].sym, opt);
    if (r.stalled) throw std::runtime_error("recording stalled: " + r.stall_reason);
    return std::move(r.history);
  }

  JobOutcome run_job(std::size_t item, bool corrupt, bool) override {
    const Input& in = inputs_[item];
    apps::CholeskyResult r = apps::cholesky_locks(in.m, in.sym, opt_);
    JobOutcome out;
    out.app_ms = r.elapsed_ms;
    out.ops = dsm_ops(r.metrics);
    out.metrics = std::move(r.metrics);
    if (corrupt && !r.l.empty()) r.l[0] += 1e-6;
    if (r.stalled) {
      out.ok = false;
      out.error = "cholesky stalled: " + r.stall_reason;
    } else if (!(apps::factorization_error(in.m, r.l) <= kCholeskyTolerance)) {
      out.ok = false;
      out.error = "cholesky factorization error above tolerance";
    }
    return out;
  }

 private:
  struct Input {
    apps::SparseSpd m;
    apps::Symbolic sym;
  };
  apps::CholeskyOptions opt_;
  std::vector<Input> inputs_;
  double ref_ms_ = 0.0;
};

// ---------------------------------------------------------------------------

// The C14 directory shape at 4 processes: every process owns a stripe,
// writes all of it each round, then reads a rotating window of a ring
// neighbour's stripe.  The window is larger than the replica budget, so
// the LRU evicts every round and fills batch `fetch_frame` variables.
class KeyspaceDirectory final : public Workload {
 public:
  void setup(std::uint64_t seed, bool tiny) override {
    procs_ = 4;
    stripe_ = tiny ? 16 : 64;
    window_ = tiny ? 12 : 48;
    rounds_ = tiny ? 2 : 10;
    budget_ = tiny ? 8 : 32;
    frame_ = tiny ? 4 : 8;
    const std::size_t pool = tiny ? 1 : 4;
    for (const std::uint64_t s : item_seeds(seed, pool)) {
      Rng rng(s);
      Input in;
      in.values.resize(rounds_ * procs_ * stripe_);
      for (auto& v : in.values) v = static_cast<std::int64_t>(rng.next() >> 1);
      in.offsets.resize(rounds_);
      for (auto& o : in.offsets) o = rng.below(stripe_);
      inputs_.push_back(std::move(in));
    }
  }

  std::size_t pool_size() const override { return inputs_.size(); }
  std::size_t procs() const override { return procs_; }

  history::History record_history() override {
    history::History h{0};
    const JobOutcome o = run(0, false, false, &h);
    if (!o.ok) throw std::runtime_error("recording failed: " + o.error);
    return h;
  }

  JobOutcome run_job(std::size_t item, bool corrupt, bool timed) override {
    return run(item, corrupt, timed, nullptr);
  }

 private:
  struct Input {
    std::vector<std::int64_t> values;  // [round][proc][index]
    std::vector<std::size_t> offsets;  // read window start per round
  };
  struct ThreadLedger {
    Clock::time_point start, end;
    double read_ns = 0.0, write_ns = 0.0, barrier_ns = 0.0, gaps = 0.0;
    std::uint64_t reads = 0, writes = 0, barriers = 0;
  };

  /// One job; with `recorded`, operation recording is on and the job's
  /// history is stored there.
  JobOutcome run(std::size_t item, bool corrupt, bool timed, history::History* recorded) {
    const Input& in = inputs_[item];
    const auto value = [&](std::size_t r, std::size_t p, std::size_t i) {
      return in.values[(r * procs_ + p) * stripe_ + i];
    };
    dsm::Config cfg;
    cfg.num_procs = procs_;
    cfg.num_vars = procs_ * stripe_;
    cfg.batching = dsm::BatchingConfig{};
    cfg.directory = dsm::DirectoryConfig{budget_, frame_};
    cfg.record_trace = recorded != nullptr;
    dsm::MixedSystem sys(cfg);

    std::vector<ThreadLedger> ledger(procs_);
    std::vector<std::size_t> mismatches(procs_, 0);
    const auto body = [&](dsm::Node& node, ProcId p) {
      ThreadLedger& led = ledger[p];
      led.start = Clock::now();
      Clock::time_point last = led.start;
      // Times one Node call and the gap since the previous one.
      const auto call = [&](double& sum, std::uint64_t& count, auto&& fn) {
        if (!timed) return fn();
        const auto a = Clock::now();
        auto result = fn();
        const auto b = Clock::now();
        led.gaps += ns_between(last, a);
        sum += ns_between(a, b);
        ++count;
        last = b;
        return result;
      };
      const auto base = static_cast<VarId>(p * stripe_);
      for (std::size_t r = 0; r < rounds_; ++r) {
        for (std::size_t i = 0; i < stripe_; ++i) {
          call(led.write_ns, led.writes, [&] {
            node.write_int(base + static_cast<VarId>(i), value(r, p, i));
            return 0;
          });
        }
        call(led.barrier_ns, led.barriers, [&] {
          node.barrier();
          return 0;
        });
        const std::size_t owner = (p + 1 + r) % procs_;
        for (std::size_t k = 0; k < window_; ++k) {
          const std::size_t i = (in.offsets[r] + k) % stripe_;
          const std::int64_t got = call(led.read_ns, led.reads, [&] {
            return node.read_int(static_cast<VarId>(owner * stripe_ + i), ReadMode::kPram);
          });
          if (got != value(r, owner, i)) ++mismatches[p];
        }
        call(led.barrier_ns, led.barriers, [&] {
          node.barrier();
          return 0;
        });
      }
      led.end = Clock::now();
      if (timed) led.gaps += ns_between(last, led.end);
    };
    const auto run_start = Clock::now();
    const dsm::MixedSystem::RunOutcome outcome = sys.run(body, kStallDeadline);
    const double app_ms = ms_since(run_start);

    JobOutcome out;
    out.app_ms = app_ms;
    out.metrics = sys.metrics();
    out.ops = dsm_ops(out.metrics);
    if (recorded != nullptr) *recorded = sys.collect_history();
    if (corrupt) ++mismatches[0];
    std::size_t bad = 0;
    for (const std::size_t m : mismatches) bad += m;
    if (outcome.stalled) {
      out.ok = false;
      out.error = "keyspace run stalled: " + outcome.diagnostics.reason;
    } else if (bad != 0) {
      out.ok = false;
      out.error = std::to_string(bad) + " reads did not return that round's value";
    }
    if (timed) {
      const ThreadLedger* slow = &ledger[0];
      for (const ThreadLedger& led : ledger) {
        if (led.end - led.start > slow->end - slow->start) slow = &led;
        out.read_call_ns += led.read_ns;
        out.write_call_ns += led.write_ns;
        out.barrier_call_ns += led.barrier_ns;
        out.read_calls += led.reads;
        out.write_calls += led.writes;
        out.barrier_calls += led.barriers;
      }
      out.body_ns = ns_between(slow->start, slow->end);
      out.calls_ns = slow->read_ns + slow->write_ns + slow->barrier_ns;
      out.gaps_ns = slow->gaps;
    }
    return out;
  }

  std::size_t procs_ = 4, stripe_ = 0, window_ = 0, rounds_ = 0, budget_ = 0, frame_ = 0;
  std::vector<Input> inputs_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "solver-barrier") return std::make_unique<SolverBarrier>();
  if (name == "cholesky-locks") return std::make_unique<CholeskyLocks>();
  if (name == "keyspace-directory") return std::make_unique<KeyspaceDirectory>();
  return nullptr;
}

// Kahn's algorithm over program order, reads-from, barrier and lock-episode
// order.  Lock episodes are chained in grant order, which real execution
// respects, so the order is always acyclic for a recorded run.
std::vector<std::uint32_t> feed_order(const history::History& h) {
  using history::OpKind;
  const auto n = static_cast<std::uint32_t>(h.size());
  std::vector<std::vector<std::uint32_t>> succ(n);
  std::vector<std::uint32_t> indegree(n, 0);
  const auto edge = [&](std::uint32_t a, std::uint32_t b) {
    succ[a].push_back(b);
    ++indegree[b];
  };
  std::vector<std::uint32_t> pos(n, 0);
  for (ProcId p = 0; p < h.num_procs(); ++p) {
    const auto& ops = h.ops_of(p);
    for (std::size_t k = 0; k < ops.size(); ++k) {
      pos[ops[k]] = static_cast<std::uint32_t>(k);
      if (k > 0) edge(ops[k - 1], ops[k]);
    }
  }
  std::unordered_map<std::uint64_t, std::uint32_t> writer;
  const auto wid = [](const WriteId& w) {
    return (static_cast<std::uint64_t>(w.proc) << 48) ^ w.seq;
  };
  std::map<std::pair<BarrierId, std::uint32_t>, std::vector<std::uint32_t>> barriers;
  std::map<LockId, std::map<std::uint64_t, std::vector<std::uint32_t>>> episodes;
  for (std::uint32_t i = 0; i < n; ++i) {
    const history::Operation& op = h.op(i);
    if (op.kind == OpKind::kWrite || op.kind == OpKind::kDelta) writer[wid(op.write_id)] = i;
    if (op.kind == OpKind::kBarrier) barriers[{op.barrier, op.barrier_epoch}].push_back(i);
    if (history::is_lock_op(op.kind)) episodes[op.lock][op.lock_episode].push_back(i);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const history::Operation& op = h.op(i);
    if ((op.kind == OpKind::kRead || op.kind == OpKind::kAwait) && op.write_id.valid()) {
      const auto it = writer.find(wid(op.write_id));
      if (it != writer.end()) edge(it->second, i);
    }
  }
  for (const auto& [key, members] : barriers) {
    for (const std::uint32_t m : members) {
      const auto& ops = h.ops_of(h.op(m).proc);
      for (const std::uint32_t m2 : members) {
        if (m2 == m) continue;
        if (pos[m] > 0) edge(ops[pos[m] - 1], m2);
        if (pos[m] + 1 < ops.size()) edge(m2, ops[pos[m] + 1]);
      }
    }
  }
  for (const auto& [lock, eps] : episodes) {
    const std::vector<std::uint32_t>* prev = nullptr;
    for (const auto& [e, ops] : eps) {
      if (prev != nullptr) {
        for (const std::uint32_t a : *prev) {
          for (const std::uint32_t b : ops) edge(a, b);
        }
      }
      prev = &ops;
    }
  }
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>, std::greater<>> ready;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  std::vector<std::uint32_t> order;
  order.reserve(n);
  while (!ready.empty()) {
    const std::uint32_t i = ready.top();
    ready.pop();
    order.push_back(i);
    for (const std::uint32_t j : succ[i]) {
      if (--indegree[j] == 0) ready.push(j);
    }
  }
  if (order.size() != n) throw std::runtime_error("recorded history has no causal order");
  return order;
}

CheckOutcome check_history(const history::History& h, const std::vector<std::uint32_t>& order) {
  CheckOutcome out;
  history::IncrementalChecker chk(h.num_procs());
  const auto t0 = Clock::now();
  bool fed = true;
  for (const std::uint32_t i : order) {
    if (!chk.feed(h.op(i), i)) {
      fed = false;
      break;
    }
  }
  const auto t1 = Clock::now();
  const history::GraphVerdict v = chk.finalize();
  out.finalize_ns = ns_between(t1, Clock::now());
  out.feed_ns = ns_between(t0, t1);
  out.metrics = chk.metrics();
  out.ops = out.metrics.get("checker.ops");
  if (!(fed && v.ok())) {
    out.ok = false;
    out.error = "checker verdict not clean: " + (v.error.empty() ? v.mixed.message() : v.error);
  } else if (out.ops != h.size()) {
    out.ok = false;
    out.error = "checker counted " + std::to_string(out.ops) + " ops of " +
                std::to_string(h.size()) + " recorded";
  }
  return out;
}

}  // namespace perfbench
