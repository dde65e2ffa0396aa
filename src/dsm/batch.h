// Framed wire batches: N (possibly coalesced) memory updates in one kBatch
// Message, the only update wire path (Config::batching; DESIGN.md §6.3).
// The paper's per-write broadcast is a one-record frame.
//
// Payload layout, vector-clock mode (P = num_procs, P <= 64):
//
//   word 0 .. P-1        base clock: component-wise MINIMUM of the record
//                        clocks (coalescing can make record clocks
//                        non-monotone within a batch, so min — not the
//                        first record's clock — is the only safe base)
//   then per record:
//     w0                 var (bits 0..31) | flags (bits 32..39)
//                        | weight (bits 40..63)
//     w1                 value bits
//     w2                 writer sequence number (WriteId::seq)
//     optional words     writer (kFlagHasWriter), write epoch
//                        (kFlagHasEpoch), staleness baseline
//                        (kFlagHasBaseline) — in that order, each present
//                        only when its flag bit is set
//     w_m                clock-delta mask m: bit k set <=> vc[k] != base[k]
//     popcount(m) words  vc[k] - base[k], for each set bit k ascending
//
// Count-vector mode (Config::omit_timestamps): no base clock and no clock
// words; records are w0..w2 plus the optional words only.
//
// The flags byte packs the operation in its low bits (kFlagOpMask) and the
// record options above it; consumers must mask with kFlagOpMask before
// switching on the operation.  Directory fills (kFetchBulkResp) reuse this
// codec with the optional words carrying per-variable install metadata.
//
// The payload holds exactly the words a real wire format would ship, so
// Message::wire_bytes() (header + payload) charges the delta-encoded size.
// A one-record frame costs P + 4 words in vector-clock mode (base clock,
// three record words, an all-zero delta mask) and 3 words in count mode.
//
// `weight` counts how many original updates were coalesced into the record
// (last-writer-wins writes, summed deltas).  Count-vector receivers advance
// their per-sender receive index by `weight`, keeping Section 6's count
// synchronization truthful even though the collapsed updates never travel.

#pragma once

#include <vector>

#include "common/types.h"
#include "common/vector_clock.h"
#include "net/message.h"

namespace mc::dsm {

/// One staged (possibly coalesced) update inside a batch.
struct BatchRecord {
  VarId var = 0;
  Value value = 0;
  std::uint64_t flags = 0;
  SeqNo seq = 0;
  std::uint64_t weight = 1;
  VectorClock vc;  // empty in count-vector mode
  /// View epoch of the write; travels on the wire only when kFlagHasEpoch
  /// is set (elastic runs), else decoded records stay at 0.
  std::uint64_t epoch = 0;
  /// Explicit writer (kFlagHasWriter); kNoProc means "the frame sender".
  ProcId writer = kNoProc;
  /// Staleness baseline shipped with directory fills (kFlagHasBaseline):
  /// the home's applied-write count for the variable.
  std::uint64_t baseline = 0;

  friend bool operator==(const BatchRecord&, const BatchRecord&) = default;
};

/// Encode records into a kBatch message.  src/dst are left for the caller.
[[nodiscard]] net::Message encode_batch(const std::vector<BatchRecord>& recs,
                                        std::size_t num_procs, bool omit_timestamps);

/// Decode a kBatch payload produced by encode_batch.
[[nodiscard]] std::vector<BatchRecord> decode_batch(const net::Message& m,
                                                    std::size_t num_procs,
                                                    bool omit_timestamps);

}  // namespace mc::dsm
