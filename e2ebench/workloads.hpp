// The four workloads.  Each builds its system through the public APIs,
// measures for `seconds`, checks every answer against its oracle outside
// the timed window, and fills a Report: the end-to-end metrics when
// `trace` is off, the per-layer metrics when it is on.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "harness.hpp"

namespace e2e {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Report run_svc_hot(const RunOptions& options);
Report run_svc_churn(const RunOptions& options);
Report run_sweep(const RunOptions& options);
Report run_fleet_zipf(const RunOptions& options);

/// Construct an environment several times and keep the last one; returns
/// the median construction time in seconds.  At least kSetupMinReps
/// constructions, and more (up to kSetupMaxReps) until they add up to
/// kSetupMinSeconds, so a cheap set-up still gets a steady median.  The
/// previous environment is destroyed before the next is built, so no two
/// are alive at once (their worker threads would count against the thread
/// budget).
inline constexpr int kSetupMinReps = 3;
inline constexpr int kSetupMaxReps = 25;
inline constexpr double kSetupMinSeconds = 1.0;

template <typename Env, typename Make>
double setup_median(std::unique_ptr<Env>& env, Make make) {
  std::vector<double> secs;
  double total = 0.0;
  while (static_cast<int>(secs.size()) < kSetupMinReps ||
         (total < kSetupMinSeconds &&
          static_cast<int>(secs.size()) < kSetupMaxReps)) {
    env.reset();
    const auto t0 = Clock::now();
    env = make();
    secs.push_back(us_between(t0, Clock::now()) * 1e-6);
    total += secs.back();
  }
  return median(std::move(secs));
}

/// Keep `value` alive through the optimiser.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

}  // namespace e2e
