#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace netpart::obs {

namespace {

constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

// Bound on one sample's contribution to the nanosecond sum, so the
// double -> int64 conversion is always defined (2^62 ns is ~146 years).
constexpr double kMaxSampleNs = 0x1p62;

}  // namespace

std::size_t LatencyHistogram::bucket_of(double us) {
  const double ns = us * 1e3;
  if (!(ns >= 1.0)) return 0;  // [0, 1) ns, negatives and NaN
  // ns >= 1 is positive and normal: the biased exponent is the octave and
  // the top kSubBits mantissa bits are the linear step inside it.
  const auto bits = std::bit_cast<std::uint64_t>(ns);
  const int octave = static_cast<int>(bits >> 52) - 1023;
  if (octave >= kOctaves) return kBuckets - 1;
  const auto sub = static_cast<std::size_t>(bits >> (52 - kSubBits)) &
                   static_cast<std::size_t>(kSubBuckets - 1);
  return 1 + static_cast<std::size_t>(octave * kSubBuckets) + sub;
}

double LatencyHistogram::bucket_lower_us(std::size_t index) {
  if (index == 0) return 0.0;
  const std::size_t step = std::min(index, kBuckets - 1) - 1;
  const int octave = static_cast<int>(step / kSubBuckets);
  const int sub = static_cast<int>(step % kSubBuckets);
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave) /
         1e3;
}

void LatencyHistogram::record(double us) {
  if (std::isnan(us)) us = 0.0;
  buckets_[bucket_of(us)].fetch_add(1, kRelaxed);
  const double ns = std::clamp(us * 1e3, -kMaxSampleNs, kMaxSampleNs);
  sum_ns_.fetch_add(std::llround(ns), kRelaxed);
  double lo = min_us_.load(kRelaxed);
  while (us < lo && !min_us_.compare_exchange_weak(lo, us, kRelaxed)) {
  }
  double hi = max_us_.load(kRelaxed);
  while (us > hi && !max_us_.compare_exchange_weak(hi, us, kRelaxed)) {
  }
}

std::size_t LatencyHistogram::count() const {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_) total += bucket.load(kRelaxed);
  return static_cast<std::size_t>(total);
}

double LatencyHistogram::mean_us() const {
  const std::size_t n = count();
  if (n == 0) return 0.0;
  return static_cast<double>(sum_ns_.load(kRelaxed)) / 1e3 /
         static_cast<double>(n);
}

double LatencyHistogram::min_us() const {
  const double lo = min_us_.load(kRelaxed);
  return lo <= max_us_.load(kRelaxed) ? lo : 0.0;  // 0 until a sample lands
}

double LatencyHistogram::max_us() const {
  const double hi = max_us_.load(kRelaxed);
  return min_us_.load(kRelaxed) <= hi ? hi : 0.0;
}

QuantileSummary LatencyHistogram::quantiles() const {
  // One pass snapshots the buckets; the count is their sum, so a record()
  // racing with this call can never leave the walk short of its target.
  std::array<std::uint64_t, kBuckets> counts;
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(kRelaxed);
    total += counts[b];
  }
  if (total == 0) return {};
  const double lo = min_us();
  const double hi = max_us();

  constexpr std::array<double, 4> kQ = {0.50, 0.90, 0.95, 0.99};
  std::array<double, 4> estimate{};
  std::size_t next = 0;
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < kBuckets && next < kQ.size(); ++b) {
    if (counts[b] == 0) continue;
    const auto in_bucket = static_cast<double>(counts[b]);
    const double edge = bucket_lower_us(b);
    // The overflow bucket has no upper edge; its estimates run up to max.
    const double top =
        b + 1 < kBuckets ? bucket_lower_us(b + 1) : std::max(edge, hi);
    while (next < kQ.size() &&
           kQ[next] * static_cast<double>(total) <=
               static_cast<double>(below) + in_bucket) {
      // Samples are taken as uniform inside the bucket.
      const double frac =
          (kQ[next] * static_cast<double>(total) - static_cast<double>(below)) /
          in_bucket;
      const double v = edge + (top - edge) * frac;
      // Clamp to [min, max]; not std::clamp, whose lo <= hi precondition a
      // record() racing with the first sample could break.
      estimate[next++] = std::min(std::max(v, lo), hi);
    }
    below += counts[b];
  }
  return QuantileSummary{.p50 = estimate[0],
                         .p90 = estimate[1],
                         .p95 = estimate[2],
                         .p99 = estimate[3]};
}

MetricsSnapshot snapshot_delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
    if (value != base) delta.counters.emplace(name, value - base);
  }
  for (const auto& [name, value] : after.latency_counts) {
    const auto it = before.latency_counts.find(name);
    const std::uint64_t base =
        it == before.latency_counts.end() ? 0 : it->second;
    if (value != base) delta.latency_counts.emplace(name, value - base);
  }
  return delta;
}

JsonValue snapshot_json(const MetricsSnapshot& snapshot) {
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : snapshot.counters) {
    counters.set(name, value);
  }
  JsonValue latencies = JsonValue::object();
  for (const auto& [name, value] : snapshot.latency_counts) {
    latencies.set(name, value);
  }
  return JsonValue::object()
      .set("counters", std::move(counters))
      .set("latency_counts", std::move(latencies));
}

std::string snapshot_text(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    out += "counter " + name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.latency_counts) {
    out += "latency " + name + " count " + std::to_string(value) + "\n";
  }
  return out;
}

}  // namespace netpart::obs
