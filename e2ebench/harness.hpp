// Shared machinery of the end-to-end benchmark: latency histograms and the
// percentile rule, open-loop accounting, the seeded request streams of
// every workload, the decision oracle, the host fingerprint, and the
// result record.  Everything here is pure logic so harness_test.cpp can pin
// it; the workloads themselves live in *_workload(s).cpp.
#pragma once

#include <chrono>
#include <map>
#include <cstdint>
#include <string>
#include <vector>

#include "calib/cost_model.hpp"
#include "dp/phases.hpp"
#include "net/availability.hpp"
#include "obs/telemetry.hpp"
#include "svc/cache.hpp"
#include "svc/request.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;
using netpart::JsonValue;

double us_between(Clock::time_point a, Clock::time_point b);

// --- latency distribution --------------------------------------------------

/// Highest percentile (as a fraction) from the ladder 99.9/99/95/90/75/50
/// that has at least ten samples beyond it; 0.5 when even the median has
/// fewer than ten.
double tail_quantile(std::uint64_t samples);

/// Log-linear histogram of non-negative durations in nanoseconds: 128
/// linear sub-buckets per power of two (<0.8% relative width), so the
/// quantiles of millions of sub-microsecond samples stay exact to well
/// under the run-to-run spread without storing the samples.
class LogHistogram {
 public:
  static constexpr int kSub = 128;
  static constexpr int kOctaves = 44;  // up to ~4.9 hours

  void record_ns(double ns);
  void record_us(double us) { record_ns(us * 1e3); }
  void merge(const LogHistogram& other);

  std::uint64_t count() const { return count_; }
  /// Quantile q in [0, 1], interpolated inside its bucket; 0 when empty.
  double quantile_ns(double q) const;
  double quantile_us(double q) const { return quantile_ns(q) * 1e-3; }

  /// Bucket counts on log-spaced edges from 1 us to 100 ms (five per
  /// decade), plus the samples below and above that range:
  /// {"edges_us": [...26 edges], "counts": [...25], "below_1us": n,
  ///  "above_100ms": n}.
  JsonValue distribution_json() const;

 private:
  static int index_of(double ns);
  static double lower_edge(int index);

  std::vector<std::uint64_t> buckets_ =
      std::vector<std::uint64_t>(static_cast<std::size_t>(kSub * kOctaves) +
                                 1);
  std::uint64_t count_ = 0;
};

/// Latency summary as every workload reports it.
struct LatencySummary {
  std::uint64_t samples = 0;
  double p50_us = 0.0;
  double tail_q = 0.5;  ///< the percentile latency_p99_us reports
  double tail_us = 0.0;
};
LatencySummary summarize(const LogHistogram& h);

// --- open-loop accounting --------------------------------------------------

/// Fixed-rate arrival schedule.  Request k is due at start + k * period;
/// its latency is charged from that due time, so a generator stall that
/// sends later requests late charges the wait to them.  Const, so the
/// generator and the reply collector share one schedule.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double period_us)
      : start_(start), period_us_(period_us) {}
  Clock::time_point due(std::uint64_t k) const;
  /// Microseconds from request k's due time to `at` (0 if `at` is early).
  double charge_us(std::uint64_t k, Clock::time_point at) const;

 private:
  Clock::time_point start_;
  double period_us_;
};

// --- seeded request streams ------------------------------------------------

/// Zipf(s) ranks 0..k-1 by inverse CDF, one Rng::next_double per draw.
class Zipf {
 public:
  Zipf(int k, double s);
  int draw(netpart::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// An endless seeded zipf index stream (fleet_zipf draws it lazily; its
/// length is set by the run's wall-clock budget).
class ZipfStream {
 public:
  ZipfStream(std::uint64_t seed, std::uint64_t stream, int universe,
             double s);
  int next() { return zipf_.draw(rng_); }

 private:
  Zipf zipf_;
  netpart::Rng rng_;
};

/// svc_hot's universe: Partition requests over the five spec factories
/// mixed with Repartition requests (a quarter of the universe).
std::vector<netpart::svc::PartitionRequest> hot_universe(std::uint64_t seed,
                                                         int size);

/// svc_churn's universe: Partition requests on the five spec factories;
/// `linear_share` of them use Linear search, the rest Binary.
std::vector<netpart::svc::PartitionRequest> churn_universe(
    std::uint64_t seed, int size, double linear_share);

/// Zipf-skewed indices into a universe; `stream` separates clients.
std::vector<int> zipf_stream(std::uint64_t seed, std::uint64_t stream,
                             int universe, double s, std::size_t length);

/// svc_churn's availability sequence: each snapshot withdraws a seeded
/// handful of processors from the idle baseline, and differs from its
/// predecessor, so every AvailabilityFeed::update bumps the epoch.
std::vector<netpart::AvailabilitySnapshot> churn_snapshots(
    std::uint64_t seed, const netpart::AvailabilitySnapshot& idle, int count);

/// sweep's stencil problem size.
int sweep_problem_size(std::uint64_t seed);

/// The spec resolver both svc workloads register: the `apps` factory named
/// by the request's spec field (the set netpartd serves).
netpart::ComputationSpec resolve_spec(
    const netpart::svc::PartitionRequest& request);

// --- oracle ----------------------------------------------------------------

/// Empty when `got` equals `want` bitwise on the fields a decision serves
/// (config, partition, placement, t_c_ms); otherwise what differs.
std::string decision_mismatch(const netpart::svc::PartitionDecision& got,
                              const netpart::svc::PartitionDecision& want);

/// Checks served svc decisions against partition() (Partition kind) or
/// the Eq. 3 proportional split (Repartition kind) on the availability
/// snapshot of the decision's own epoch.  Expected decisions are memoised
/// per (request, epoch), so checking a long run costs one oracle compute
/// per distinct pair.
class ServiceOracle {
 public:
  ServiceOracle(const netpart::Network& net, const netpart::CostModelDb& db,
                std::uint64_t signature)
      : net_(net), db_(db), signature_(signature) {}

  void add_epoch(std::uint64_t epoch, netpart::AvailabilitySnapshot snap);
  const netpart::AvailabilitySnapshot& snapshot(std::uint64_t epoch) const;

  /// What partition() decides for `request` at `epoch`.
  const netpart::svc::PartitionDecision& expected(
      int request_id, const netpart::svc::PartitionRequest& request,
      std::uint64_t epoch);

  /// Empty when `got` is the right answer to `request` (right key for its
  /// epoch, bitwise equal content); otherwise what is wrong.
  std::string check(int request_id,
                    const netpart::svc::PartitionRequest& request,
                    const netpart::svc::PartitionDecision& got);

 private:
  const netpart::Network& net_;
  const netpart::CostModelDb& db_;
  std::uint64_t signature_;
  std::map<std::uint64_t, netpart::AvailabilitySnapshot> epochs_;
  std::map<std::pair<int, std::uint64_t>, netpart::svc::PartitionDecision>
      memo_;
};

// --- host, process, record -------------------------------------------------

/// CPU model, nproc, SIMD flags, compiler and build type.
JsonValue host_fingerprint();
double process_cpu_s();
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports.  `metrics` are exactly the BENCHMARK.json
/// set for the mode (end-to-end or per-layer); `extra` holds the
/// workload-specific figures that only the record and the console show.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  LogHistogram latency;
  /// Per window group: the figures the end-to-end medians are taken over.
  JsonValue groups = JsonValue::array();
  std::vector<std::string> problems;  ///< oracle mismatches and check failures

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    extra.push_back({name, value, unit});
  }
  void problem(std::string what);
};

/// The end-to-end metric names, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
/// The per-layer metric names with units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Completions of one run bucketed into fixed wall-clock windows, so the
/// end-to-end figures can be medians over windows: a burst of host noise
/// then spoils one window instead of the run.  Each thread records into its
/// own Timeline (merge() combines them); one thread stamps the process CPU
/// clock as it passes window boundaries.
class Timeline {
 public:
  Timeline(Clock::time_point start, double seconds, double window_s);

  /// A request completed at `done` after `latency_us`.
  void record(Clock::time_point done, double latency_us);
  /// CPU the harness burned for itself (spin-waits) at time `at`; it is
  /// not charged to the system under test.
  void exclude_cpu(Clock::time_point at, double cpu_s);
  /// Stamp the process CPU clock for every boundary passed by `now`.
  void stamp_cpu(Clock::time_point now);
  /// Stamp the final boundary (call once, after the run).
  void finish();
  /// Next boundary to stamp at (stamp_cpu is cheap to skip until then).
  Clock::time_point next_stamp() const { return next_stamp_; }

  void merge(const Timeline& other);

  LogHistogram total() const;
  std::uint64_t completed() const;
  /// Process CPU seconds over the run, minus the excluded harness CPU.
  double cpu_s() const;
  double elapsed_s() const { return elapsed_s_; }

  struct Window {
    LogHistogram latency;
    std::uint64_t done = 0;
    double excluded_cpu_s = 0.0;
    /// First and last completion in the window (throughput is measured
    /// between them, so an open loop's rate reads as measured).
    Clock::time_point first = Clock::time_point::max();
    Clock::time_point last = Clock::time_point::min();
  };
  const std::vector<Window>& windows() const { return windows_; }
  /// Process CPU seconds at each window boundary (size windows + 1).
  const std::vector<double>& cpu_at() const { return cpu_at_; }
  double window_s() const { return window_s_; }

 private:
  std::size_t index(Clock::time_point t) const;

  Clock::time_point start_;
  double window_s_;
  std::vector<Window> windows_;
  std::vector<double> cpu_at_;
  std::size_t stamped_ = 0;
  Clock::time_point next_stamp_;
  double elapsed_s_ = 0.0;
};

/// Consecutive windows grouped so each group holds at least
/// kMinGroupSamples latencies, 25 beyond its p99 (the percentile rule asks
/// for 10; a group tail from 10 samples swings too much); the end-to-end
/// figures are medians over the groups.
inline constexpr std::uint64_t kMinGroupSamples = 2500;
std::vector<std::pair<std::size_t, std::size_t>> window_groups(
    const Timeline& t);

/// Append the end-to-end metrics shared by every workload: setup_s and,
/// as medians over window groups, latency p50 and tail, throughput and
/// CPU per request; peak RSS at the end.
void add_end_to_end(Report& report, double setup_s, const Timeline& t);

/// Growth of CPU per request from an untraced to a traced pass, in %.
double trace_overhead_pct(const Timeline& plain, const Timeline& traced);

/// Median of a small sample (setup repetitions, replay timings).
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// Read a counter from a registry without creating it when absent.
std::uint64_t counter_value(const netpart::obs::TelemetryRegistry& reg,
                            const std::string& name);

}  // namespace e2e
