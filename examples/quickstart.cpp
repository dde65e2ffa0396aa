// Quickstart: a five-minute tour of the mixed-consistency DSM.
//
//   build/examples/quickstart
//
// Demonstrates per-read consistency labels, the four synchronization
// primitives, counter objects, and checking a recorded execution against
// the paper's formal definitions.

#include <cstdio>

#include "dsm/system.h"
#include "history/checkers.h"

using namespace mc;

int main() {
  // A DSM with three processes and a handful of shared locations.
  // record_trace keeps a formal history we can check afterwards.
  dsm::Config cfg;
  cfg.num_procs = 3;
  cfg.num_vars = 8;
  cfg.record_trace = true;
  dsm::MixedSystem sys(cfg);

  constexpr VarId kData = 0;     // producer/consumer payload
  constexpr VarId kFlag = 1;     // handshake flag
  constexpr VarId kShared = 2;   // lock-protected accumulator
  constexpr VarId kCounter = 3;  // commutative counter object
  constexpr VarId kReady = 4;    // set once initialization is done
  constexpr LockId kLock = 0;

  // Initialize before going parallel, then raise a ready flag nobody
  // changes afterwards.
  sys.node(0).write_int(kCounter, 10);
  sys.node(0).write_int(kReady, 1);

  sys.run([&](dsm::Node& node, ProcId p) {
    // Synchronize with the initialization writes (programs that skip this
    // would race, and the checker below would say so).  Await the flag, not
    // the counter: other processes decrement the counter as soon as they
    // get past here, so an await on its initial value could miss it.
    node.await_int(kReady, 1);

    if (p == 0) {
      // Producer: fill the payload, then raise the flag.  The await on the
      // consumer side establishes the |->await synchronization edge.
      node.write_int(kData, 1234);
      node.write_int(kFlag, 1);
    } else if (p == 1) {
      // Consumer: awaits make the producer's context visible — even a
      // cheap PRAM read returns the payload.
      node.await_int(kFlag, 1);
      std::printf("consumer saw data = %lld (PRAM read)\n",
                  static_cast<long long>(node.read_int(kData, ReadMode::kPram)));
    }

    // Everyone: a lock-protected read-modify-write...
    node.wlock(kLock);
    node.write_int(kShared, node.read_int(kShared, ReadMode::kCausal) + 1);
    node.wunlock(kLock);

    // ...and a lock-free commutative decrement of the counter object.
    node.dec_int(kCounter, 2);

    // Barriers separate computation phases; all pre-barrier updates are
    // visible afterwards, even to PRAM reads.
    node.barrier();
    std::printf("p%u after barrier: shared=%lld counter=%lld\n", p,
                static_cast<long long>(node.read_int(kShared, ReadMode::kPram)),
                static_cast<long long>(node.read_int(kCounter, ReadMode::kPram)));
  });

  // Check the recorded execution against Definition 4 of the paper.
  const auto history = sys.collect_history();
  const auto verdict = history::check_mixed_consistency(history);
  std::printf("history of %zu operations is %s\n", history.size(),
              verdict.ok ? "mixed consistent" : verdict.message().c_str());

  const auto metrics = sys.metrics();
  std::printf("fabric traffic: %llu messages, %llu bytes\n",
              static_cast<unsigned long long>(metrics.get("net.messages")),
              static_cast<unsigned long long>(metrics.get("net.bytes")));
  return verdict.ok ? 0 : 1;
}
