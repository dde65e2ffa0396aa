// Experiment C3: the paper's core premise (Sections 1 and 6) — weaker
// consistency means lower access latency.  Microbenchmarks of the memory
// operations on the mixed-consistency runtime and the SC baseline:
//
//   PRAM read  ~  causal read  <  mixed write (local apply + async
//   broadcast)  <<  SC write (sequencer round trip).
//
// Hand-rolled timing loops (bench_util.h) cover the unloaded fast path; a
// second table reports *blocked* time under a LAN-like latency model,
// where the SC write's round trip dominates.

#include <cstdio>
#include <tuple>

#include "baseline/sc_system.h"
#include "bench_util.h"
#include "dsm/system.h"

using namespace mc;
using namespace mc::bench;

namespace {

dsm::MixedSystem& mixed_instance() {
  static auto* sys = [] {
    dsm::Config cfg;
    cfg.num_procs = 4;
    cfg.num_vars = 64;
    return new dsm::MixedSystem(cfg);
  }();
  return *sys;
}

baseline::ScSystem& sc_instance() {
  static auto* sys = [] {
    baseline::ScConfig cfg;
    cfg.num_procs = 4;
    cfg.num_vars = 64;
    return new baseline::ScSystem(cfg);
  }();
  return *sys;
}

void report(Harness& h, const char* name, const MicroResult& r) {
  std::printf("%-18s %10.1f ns/op  (%llu iters in %.1fms)\n", name, r.ns_per_op,
              static_cast<unsigned long long>(r.iterations), r.total_ms);
  auto& row = h.add_row(name);
  row.wall_ms = r.total_ms;
  row.stats["ns_per_op"] = r.ns_per_op;
  row.stats["iterations"] = static_cast<double>(r.iterations);
}

void micro_table(Harness& h) {
  // Smoke runs trim each timing loop to ~2ms — enough to exercise the path,
  // not enough for stable numbers.
  const double min_ms = h.smoke() ? 2.0 : 100.0;
  std::printf("\n=== C3 — memory-operation fast-path latency (unloaded) ===\n");
  {
    dsm::Node& n = mixed_instance().node(0);
    n.write(0, 1);
    report(h, "mixed-pram-read",
           measure_op([&] { do_not_optimize(n.read(0, ReadMode::kPram)); }, min_ms));
  }
  {
    dsm::Node& n = mixed_instance().node(0);
    n.write(1, 1);
    report(h, "mixed-causal-read",
           measure_op([&] { do_not_optimize(n.read(1, ReadMode::kCausal)); }, min_ms));
  }
  {
    dsm::Node& n = mixed_instance().node(1);
    Value v = 0;
    report(h, "mixed-write", measure_op([&] { n.write(2, ++v); }, min_ms));
  }
  {
    dsm::Node& n = mixed_instance().node(2);
    report(h, "mixed-delta", measure_op([&] { n.dec_int(3, 1); }, min_ms));
  }
  {
    baseline::ScNode& n = sc_instance().node(0);
    n.write(0, 1);
    report(h, "sc-read", measure_op([&] { do_not_optimize(n.read(0)); }, min_ms));
  }
  {
    baseline::ScNode& n = sc_instance().node(1);
    Value v = 0;
    report(h, "sc-write", measure_op([&] { n.write(2, ++v); }, min_ms));
  }
}

/// Blocked-time table under LAN-like latency: every process writes a slot
/// and reads all others between barriers; SC pays a sequencer round trip
/// per write, the mixed system's writes stay asynchronous.
void latency_table(Harness& h) {
  const auto lat = net::LatencyModel::lan();
  const int kRounds = h.smoke() ? 3 : 30;

  dsm::Config mcfg;
  mcfg.num_procs = 4;
  mcfg.num_vars = 8;
  mcfg.latency = lat;
  if (h.profiling()) mcfg.profile = h.profile_options();
  dsm::MixedSystem mixed(mcfg);
  Stopwatch mix_clock;
  mixed.run([&](dsm::Node& n, ProcId p) {
    for (int i = 0; i < kRounds; ++i) {
      n.write_int(p, i);
      n.barrier();
      for (ProcId q = 0; q < 4; ++q) std::ignore = n.read_int(q, ReadMode::kPram);
      n.barrier();
    }
  });
  const double mixed_ms = mix_clock.elapsed_ms();

  baseline::ScConfig scfg;
  scfg.num_procs = 4;
  scfg.num_vars = 8;
  scfg.latency = lat;
  baseline::ScSystem sc(scfg);
  Stopwatch sc_clock;
  sc.run([&](baseline::ScNode& n, ProcId p) {
    for (int i = 0; i < kRounds; ++i) {
      n.write_int(p, i);
      n.barrier();
      for (ProcId q = 0; q < 4; ++q) std::ignore = n.read_int(q);
      n.barrier();
    }
  });
  const double sc_ms = sc_clock.elapsed_ms();

  std::printf("\n=== C3 — blocking under LAN latency (%d write/read rounds, 4 procs) ===\n",
              kRounds);
  std::printf("mixed (PRAM reads, async writes): time=%8.2fms blocked=%8.2fms\n",
              mixed_ms, blocked_ms(mixed.metrics()));
  std::printf("SC baseline (sequencer writes):   time=%8.2fms blocked=%8.2fms\n",
              sc_ms, blocked_ms(sc.metrics(), "sc.blocked_ns"));
  std::printf("expected shape: SC blocks for a round trip per write; the mixed "
              "system only blocks at barriers\n");

  auto& mrow = h.add_row("lan-mixed");
  mrow.params["latency"] = "lan";
  mrow.params["rounds"] = std::to_string(kRounds);
  mrow.wall_ms = mixed_ms;
  mrow.metrics = mixed.metrics();
  if (h.profiling()) Harness::set_profile(mrow, mixed.profile());
  auto& srow = h.add_row("lan-sc");
  srow.params["latency"] = "lan";
  srow.params["rounds"] = std::to_string(kRounds);
  srow.wall_ms = sc_ms;
  srow.metrics = sc.metrics();
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("bench_memory_ops", argc, argv);
  h.config("procs", "4");

  micro_table(h);
  latency_table(h);

  // The micro rows time the fast path of long-lived systems; attach their
  // cumulative runtime metrics once so histogram keys appear in the report.
  auto& mixed_row = h.add_row("micro-mixed-system");
  mixed_row.metrics = mixed_instance().metrics();
  auto& sc_row = h.add_row("micro-sc-system");
  sc_row.metrics = sc_instance().metrics();
  return h.finish();
}
