// Liveness-deadline wait shared by the baseline memories.

#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/check.h"

namespace mc::baseline {

/// Wait on `cv` until `pred` holds; a protocol blocked for 30 s is wedged,
/// and dies with `what` instead of hanging.
template <typename Pred>
void wait_or_die(std::condition_variable& cv, std::unique_lock<std::mutex>& lk,
                 const char* what, Pred pred) {
  if (!cv.wait_for(lk, std::chrono::seconds(30), pred)) MC_CHECK_MSG(false, what);
}

}  // namespace mc::baseline
