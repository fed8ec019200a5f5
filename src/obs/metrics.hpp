// Telemetry primitives shared by every subsystem (see DESIGN.md §9).
//
// Counter and LatencyHistogram are the partitioner's, estimator's,
// adaptive executor's, MMPS's, fleet's and service's one metering
// vocabulary.  Callers resolve a metric once (registry mutex) and then
// update it lock-free, never under the registry's lock.
//
// MetricsSnapshot captures the registry's counter values and histogram
// counts at a point in time; snapshot_delta() subtracts two snapshots so
// benchmarks can report what one phase cost without resetting anything.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include "util/json.hpp"
#include "util/stats.hpp"

namespace netpart::obs {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Latency distribution on one fixed log-linear layout: power-of-two
/// octaves from 1 ns, each split into kSubBuckets linear sub-buckets, so
/// every bucket is at most 1/32 of its lower edge wide and the range runs
/// to 2^40 ns (~1100 s).  Recording is lock-free: a relaxed add to one
/// bucket and to the integer-nanosecond sum, plus a relaxed CAS only when
/// a sample is a new min or max.  mean/min/max are exact; quantiles are
/// interpolated inside the bucket holding the target rank and clamped to
/// [min, max], so they sit within one bucket width of the true order
/// statistic.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBits;  ///< per octave
  static constexpr int kOctaves = 40;                ///< 1 ns .. 2^40 ns
  /// Bucket 0 holds [0, 1) ns and every negative or NaN sample; the last
  /// bucket holds everything from 2^kOctaves ns up.
  static constexpr std::size_t kBuckets =
      2 + static_cast<std::size_t>(kSubBuckets) * kOctaves;

  LatencyHistogram() = default;
  /// The arguments are ignored: every histogram has the fixed layout.  The
  /// overload exists only for e2ebench/svc_workloads.cpp, which still
  /// constructs `LatencyHistogram(0.0, 200.0, 400)`.
  LatencyHistogram(double, double, std::size_t) : LatencyHistogram() {}

  /// NaN records as 0.
  void record(double us);

  std::size_t count() const;
  double mean_us() const;
  double min_us() const;
  double max_us() const;
  /// p50/p90/p95/p99 from one snapshot of the buckets (zero summary when
  /// empty).
  QuantileSummary quantiles() const;

  /// Index of the bucket a sample of `us` microseconds lands in.
  static std::size_t bucket_of(double us);
  /// Lower edge of bucket `index`, in microseconds.
  static double bucket_lower_us(std::size_t index);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> sum_ns_{0};
  std::atomic<double> min_us_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_us_{-std::numeric_limits<double>::infinity()};
};

/// Point-in-time view of a registry: counter values plus per-histogram
/// sample counts (the deterministic parts -- wall-clock latencies are
/// excluded so two identical seeded runs snapshot identically).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> latency_counts;
};

/// after - before, keeping only entries that changed (a metric absent from
/// `before` counts from zero).  Benchmarks wrap a phase in two snapshots
/// and report the delta.
MetricsSnapshot snapshot_delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after);

/// {"counters": {...}, "latency_counts": {...}} -- map order, so the
/// rendering is deterministic and name-ordered.
JsonValue snapshot_json(const MetricsSnapshot& snapshot);

/// One metric per line ("counter <name> <value>" / "latency <name> count
/// <n>"), name-ordered: byte-identical for identical snapshots.
std::string snapshot_text(const MetricsSnapshot& snapshot);

}  // namespace netpart::obs
