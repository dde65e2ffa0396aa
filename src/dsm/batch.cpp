#include "dsm/batch.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.h"
#include "dsm/wire.h"

namespace mc::dsm {

namespace {
constexpr std::uint64_t kVarBits = 32;
constexpr std::uint64_t kFlagBits = 8;
constexpr std::uint64_t kWeightBits = 64 - kVarBits - kFlagBits;
}  // namespace

net::Message encode_batch(const std::vector<BatchRecord>& recs, std::size_t num_procs,
                          bool omit_timestamps) {
  MC_CHECK(!recs.empty());
  net::Message m;
  m.kind = kBatch;
  m.a = recs.size();
  // One allocation: at most 6 fixed and optional words plus a full clock
  // delta per record, after the base clock.
  const std::size_t clock_words = omit_timestamps ? 0 : num_procs;
  m.payload.reserve(clock_words + recs.size() * (7 + clock_words));

  if (!omit_timestamps) {
    MC_CHECK_MSG(num_procs <= 64, "batch clock-delta masks assume <= 64 processes");
    // The base clock is computed in place, in payload words 0 .. P-1.
    m.payload.assign(num_procs, std::numeric_limits<std::uint64_t>::max());
    for (const BatchRecord& r : recs) {
      MC_CHECK(r.vc.size() == num_procs);
      const auto vc = r.vc.components();
      for (std::size_t p = 0; p < num_procs; ++p) {
        m.payload[p] = std::min(m.payload[p], vc[p]);
      }
    }
  }

  for (const BatchRecord& r : recs) {
    MC_CHECK(r.var < (std::uint64_t{1} << kVarBits));
    MC_CHECK(r.flags < (std::uint64_t{1} << kFlagBits));
    MC_CHECK(r.weight < (std::uint64_t{1} << kWeightBits));
    m.payload.push_back(r.var | (r.flags << kVarBits) |
                        (r.weight << (kVarBits + kFlagBits)));
    m.payload.push_back(r.value);
    m.payload.push_back(r.seq);
    if (r.flags & kFlagHasWriter) m.payload.push_back(r.writer);
    if (r.flags & kFlagHasEpoch) m.payload.push_back(r.epoch);
    if (r.flags & kFlagHasBaseline) m.payload.push_back(r.baseline);
    if (omit_timestamps) continue;
    const auto vc = r.vc.components();
    std::uint64_t mask = 0;
    for (std::size_t p = 0; p < num_procs; ++p) {
      if (vc[p] != m.payload[p]) mask |= std::uint64_t{1} << p;
    }
    m.payload.push_back(mask);
    for (std::size_t p = 0; p < num_procs; ++p) {
      if ((mask >> p & 1) != 0) m.payload.push_back(vc[p] - m.payload[p]);
    }
  }
  return m;
}

std::vector<BatchRecord> decode_batch(const net::Message& m, std::size_t num_procs,
                                      bool omit_timestamps) {
  MC_CHECK(m.kind == kBatch || m.kind == kFetchBulkResp);
  const std::size_t n = m.a;
  MC_CHECK(n >= 1);
  std::vector<BatchRecord> recs;
  recs.reserve(n);
  // The base clock is read in place, from payload words 0 .. P-1.
  std::size_t i = 0;
  if (!omit_timestamps) {
    MC_CHECK(num_procs <= 64 && m.payload.size() >= num_procs);
    i = num_procs;
  }
  for (std::size_t k = 0; k < n; ++k) {
    MC_CHECK(i + 3 <= m.payload.size());
    BatchRecord& r = recs.emplace_back();
    const std::uint64_t w0 = m.payload[i++];
    r.var = static_cast<VarId>(w0 & ((std::uint64_t{1} << kVarBits) - 1));
    r.flags = (w0 >> kVarBits) & ((std::uint64_t{1} << kFlagBits) - 1);
    r.weight = w0 >> (kVarBits + kFlagBits);
    r.value = m.payload[i++];
    r.seq = m.payload[i++];
    if (r.flags & kFlagHasWriter) {
      MC_CHECK(i < m.payload.size());
      r.writer = static_cast<ProcId>(m.payload[i++]);
    }
    if (r.flags & kFlagHasEpoch) {
      MC_CHECK(i < m.payload.size());
      r.epoch = m.payload[i++];
    }
    if (r.flags & kFlagHasBaseline) {
      MC_CHECK(i < m.payload.size());
      r.baseline = m.payload[i++];
    }
    if (!omit_timestamps) {
      MC_CHECK(i < m.payload.size());
      const std::uint64_t mask = m.payload[i++];
      MC_CHECK(i + static_cast<std::size_t>(std::popcount(mask)) <= m.payload.size());
      r.vc = VectorClock(num_procs);
      for (ProcId p = 0; p < num_procs; ++p) {
        r.vc.set(p, m.payload[p] + ((mask >> p & 1) != 0 ? m.payload[i++] : 0));
      }
    }
  }
  MC_CHECK(i == m.payload.size());
  return recs;
}

}  // namespace mc::dsm
