#include "harness.hpp"

#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <thread>

#include "apps/gauss.hpp"
#include "apps/particles.hpp"
#include "apps/reduce.hpp"
#include "apps/stencil.hpp"
#include "core/partitioner.hpp"
#include "util/error.hpp"

namespace e2e {

using netpart::AvailabilitySnapshot;
using netpart::PartitionOptions;
using netpart::Rng;
using netpart::svc::PartitionDecision;
using netpart::svc::PartitionRequest;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// --- latency distribution --------------------------------------------------

double tail_quantile(std::uint64_t samples) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9) return q;
  }
  return 0.5;
}

int LogHistogram::index_of(double ns) {
  if (!(ns >= 1.0)) return 0;  // [0, 1) ns, and NaN
  int exp = 0;
  const double mantissa = std::frexp(ns, &exp);  // ns = m * 2^exp, m in [.5,1)
  const int octave = exp - 1;
  if (octave >= kOctaves) return kSub * kOctaves;
  const int sub = std::min(
      kSub - 1, static_cast<int>((2.0 * mantissa - 1.0) * kSub));
  return 1 + octave * kSub + sub;
}

double LogHistogram::lower_edge(int index) {
  if (index <= 0) return 0.0;
  const int octave = (index - 1) / kSub;
  const int sub = (index - 1) % kSub;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSub, octave);
}

void LogHistogram::record_ns(double ns) {
  ++buckets_[static_cast<std::size_t>(index_of(ns))];
  ++count_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LogHistogram::quantile_ns(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Continuous rank in [0, count): the sample at rank r sits in the bucket
  // whose cumulative range covers it, spread uniformly across the bucket.
  const double rank = q * static_cast<double>(count_ - 1) + 0.5;
  double before = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double n = static_cast<double>(buckets_[i]);
    if (n > 0.0 && rank <= before + n) {
      const double lo = lower_edge(static_cast<int>(i));
      const double hi = i + 1 < buckets_.size()
                            ? lower_edge(static_cast<int>(i) + 1)
                            : lo;
      return lo + (hi - lo) * (rank - before) / n;
    }
    before += n;
  }
  return lower_edge(static_cast<int>(buckets_.size()) - 1);
}

JsonValue LogHistogram::distribution_json() const {
  constexpr int kPerDecade = 5;
  constexpr int kDecades = 5;  // 1 us .. 100 ms
  constexpr int kBins = kPerDecade * kDecades;
  std::array<std::uint64_t, kBins> bins{};
  std::uint64_t below = 0, above = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const int idx = static_cast<int>(i);
    const double hi = idx + 1 < static_cast<int>(buckets_.size())
                          ? lower_edge(idx + 1)
                          : lower_edge(idx);
    const double mid_us = 0.5 * (lower_edge(idx) + hi) * 1e-3;
    if (mid_us < 1.0) {
      below += buckets_[i];
    } else if (mid_us >= 1e5) {
      above += buckets_[i];
    } else {
      const int bin = std::clamp(
          static_cast<int>(std::floor(kPerDecade * std::log10(mid_us))), 0,
          kBins - 1);
      bins[static_cast<std::size_t>(bin)] += buckets_[i];
    }
  }
  JsonValue edges = JsonValue::array();
  for (int k = 0; k <= kBins; ++k) {
    edges.push(std::pow(10.0, static_cast<double>(k) / kPerDecade));
  }
  JsonValue counts = JsonValue::array();
  for (const std::uint64_t c : bins) counts.push(c);
  return JsonValue::object()
      .set("edges_us", std::move(edges))
      .set("counts", std::move(counts))
      .set("below_1us", below)
      .set("above_100ms", above);
}

LatencySummary summarize(const LogHistogram& h) {
  LatencySummary s;
  s.samples = h.count();
  s.p50_us = h.quantile_us(0.5);
  s.tail_q = tail_quantile(s.samples);
  s.tail_us = h.quantile_us(std::min(0.99, s.tail_q));
  return s;
}

// --- open-loop accounting --------------------------------------------------

Clock::time_point OpenLoopSchedule::due(std::uint64_t k) const {
  return start_ + std::chrono::nanoseconds(std::llround(
                      static_cast<double>(k) * period_us_ * 1e3));
}

double OpenLoopSchedule::charge_us(std::uint64_t k,
                                   Clock::time_point at) const {
  return std::max(0.0, us_between(due(k), at));
}

// --- seeded request streams ------------------------------------------------

Zipf::Zipf(int k, double s) : cdf_(static_cast<std::size_t>(k)) {
  NP_REQUIRE(k >= 1, "zipf needs a non-empty universe");
  double total = 0.0;
  for (int i = 0; i < k; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[static_cast<std::size_t>(i)] = total;
  }
  for (double& c : cdf_) c /= total;
}

int Zipf::draw(Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<int>(it - cdf_.begin()),
                  static_cast<int>(cdf_.size()) - 1);
}

namespace {

/// The five spec factories with problem-size ranges every one of the
/// benchmark networks can partition.
struct SpecShape {
  const char* name;
  std::int64_t lo, hi;
};
constexpr std::array<SpecShape, 5> kSpecs = {{
    {"stencil", 120, 2400},
    {"sten2", 120, 2400},
    {"gauss", 64, 512},
    {"particles", 512, 8192},
    {"reduce", 4096, 262144},
}};

PartitionRequest partition_request(Rng& rng, std::size_t shape) {
  const SpecShape& s = kSpecs[shape % kSpecs.size()];
  PartitionRequest r;
  r.kind = PartitionRequest::Kind::Partition;
  r.spec = s.name;
  r.n = rng.next_int(s.lo, s.hi);
  r.iterations = static_cast<std::int32_t>(rng.next_int(1, 20));
  return r;
}

/// Draw requests until `size` distinct ones (by cache key) exist.
template <typename Draw>
std::vector<PartitionRequest> distinct(int size, Draw draw) {
  std::vector<PartitionRequest> out;
  std::set<std::uint64_t> keys;
  for (int i = 0; static_cast<int>(out.size()) < size; ++i) {
    PartitionRequest r = draw(static_cast<std::size_t>(out.size()));
    if (keys.insert(netpart::svc::request_key(r, 0, 0)).second) {
      out.push_back(std::move(r));
    }
    NP_REQUIRE(i < size * 64, "request universe draws keep colliding");
  }
  return out;
}

}  // namespace

std::vector<PartitionRequest> hot_universe(std::uint64_t seed, int size) {
  Rng rng = Rng(seed).stream(0x686f74);  // "hot"
  return distinct(size, [&rng](std::size_t i) {
    if (i % 4 != 3) return partition_request(rng, i);
    PartitionRequest r;
    r.kind = PartitionRequest::Kind::Repartition;
    r.spec = "rebalance";
    r.n = rng.next_int(1000, 200000);
    const auto ranks = rng.next_int(2, 16);
    for (std::int64_t k = 0; k < ranks; ++k) {
      r.rate_milli.push_back(
          k == 0 ? 1000 : static_cast<std::int32_t>(rng.next_int(100, 1000)));
    }
    return r;
  });
}

std::vector<PartitionRequest> churn_universe(std::uint64_t seed, int size,
                                             double linear_share) {
  Rng rng = Rng(seed).stream(0x636875726e);  // "churn"
  return distinct(size, [&rng, linear_share](std::size_t i) {
    PartitionRequest r = partition_request(rng, i);
    if (rng.next_double() < linear_share) {
      r.options.search = PartitionOptions::Search::Linear;
    }
    return r;
  });
}

ZipfStream::ZipfStream(std::uint64_t seed, std::uint64_t stream,
                       int universe, double s)
    : zipf_(universe, s),
      rng_(Rng(seed).stream(0x7a69706600 + stream)) {}  // "zipf"

std::vector<int> zipf_stream(std::uint64_t seed, std::uint64_t stream,
                             int universe, double s, std::size_t length) {
  ZipfStream draws(seed, stream, universe, s);
  std::vector<int> out(length);
  for (int& i : out) i = draws.next();
  return out;
}

std::vector<AvailabilitySnapshot> churn_snapshots(
    std::uint64_t seed, const AvailabilitySnapshot& idle, int count) {
  Rng rng = Rng(seed).stream(0x6176);  // "av"
  std::vector<AvailabilitySnapshot> out;
  const auto clusters = static_cast<std::int64_t>(idle.available.size());
  while (static_cast<int>(out.size()) < count) {
    AvailabilitySnapshot s = idle;
    const auto withdrawals = rng.next_int(1, 3);
    for (std::int64_t w = 0; w < withdrawals; ++w) {
      int& n = s.available[static_cast<std::size_t>(
          rng.next_int(0, clusters - 1))];
      n -= static_cast<int>(rng.next_int(0, n / 4));
    }
    const bool repeats =
        out.empty() ? s.available == idle.available
                    : s.available == out.back().available;
    if (!repeats && s.total() > 0) out.push_back(std::move(s));
  }
  return out;
}

int sweep_problem_size(std::uint64_t seed) {
  Rng rng = Rng(seed).stream(0x7377);  // "sw"
  return static_cast<int>(rng.next_int(2000, 2800));
}

netpart::ComputationSpec resolve_spec(const PartitionRequest& request) {
  namespace apps = netpart::apps;
  const int n = static_cast<int>(request.n);
  const int iterations = request.iterations;
  if (request.spec == "stencil" || request.spec == "sten2") {
    return apps::make_stencil_spec(
        apps::StencilConfig{.n = n, .iterations = iterations,
                            .overlap = request.spec == "sten2"});
  }
  if (request.spec == "gauss") {
    return apps::make_gauss_spec(apps::GaussConfig{.n = n});
  }
  if (request.spec == "particles") {
    return apps::make_particle_spec(
        apps::ParticleConfig{.count = n, .iterations = iterations});
  }
  if (request.spec == "reduce") {
    return apps::make_reduce_spec(
        apps::ReduceConfig{.count = n, .iterations = iterations});
  }
  throw netpart::InvalidArgument("unknown spec " + request.spec);
}

// --- oracle ----------------------------------------------------------------

std::string decision_mismatch(const PartitionDecision& got,
                              const PartitionDecision& want) {
  if (got.config != want.config) return "config differs";
  if (got.partition.values() != want.partition.values()) {
    return "partition differs";
  }
  if (got.placement.size() != want.placement.size()) {
    return "placement differs";
  }
  for (std::size_t i = 0; i < got.placement.size(); ++i) {
    if (got.placement[i].cluster != want.placement[i].cluster ||
        got.placement[i].index != want.placement[i].index) {
      return "placement differs";
    }
  }
  if (std::bit_cast<std::uint64_t>(got.t_c_ms) !=
      std::bit_cast<std::uint64_t>(want.t_c_ms)) {
    return "t_c_ms differs";
  }
  return {};
}

void ServiceOracle::add_epoch(std::uint64_t epoch,
                              AvailabilitySnapshot snap) {
  epochs_[epoch] = std::move(snap);
}

const AvailabilitySnapshot& ServiceOracle::snapshot(
    std::uint64_t epoch) const {
  const auto it = epochs_.find(epoch);
  NP_REQUIRE(it != epochs_.end(), "oracle has no snapshot for the epoch");
  return it->second;
}

const PartitionDecision& ServiceOracle::expected(
    int request_id, const PartitionRequest& request, std::uint64_t epoch) {
  const auto slot = std::make_pair(request_id, epoch);
  if (const auto it = memo_.find(slot); it != memo_.end()) return it->second;
  PartitionDecision want;
  if (request.kind == PartitionRequest::Kind::Repartition) {
    std::vector<double> rates(request.rate_milli.begin(),
                              request.rate_milli.end());
    want.partition = netpart::proportional_partition(rates, request.n);
  } else {
    const netpart::ComputationSpec spec = resolve_spec(request);
    const netpart::CycleEstimator estimator(net_, db_, spec);
    netpart::PartitionResult result =
        netpart::partition(estimator, snapshot(epoch), request.options);
    want.partition = std::move(result.estimate.partition);
    want.config = std::move(result.config);
    want.placement = std::move(result.placement);
    want.t_c_ms = result.estimate.t_c_ms;
  }
  return memo_.emplace(slot, std::move(want)).first->second;
}

std::string ServiceOracle::check(int request_id,
                                 const PartitionRequest& request,
                                 const PartitionDecision& got) {
  if (!epochs_.contains(got.epoch)) return "decision from an unknown epoch";
  if (got.key != netpart::svc::request_key(request, signature_, got.epoch)) {
    return "decision answers another request";
  }
  return decision_mismatch(got, expected(request_id, request, got.epoch));
}

// --- host, process, record -------------------------------------------------

namespace {

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (!__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                     &regs[4 * leaf + 2], &regs[4 * leaf + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

}  // namespace

JsonValue host_fingerprint() {
  JsonValue simd = JsonValue::array();
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) simd.push("sse4.2");
  if (__builtin_cpu_supports("avx")) simd.push("avx");
  if (__builtin_cpu_supports("avx2")) simd.push("avx2");
  if (__builtin_cpu_supports("fma")) simd.push("fma");
  if (__builtin_cpu_supports("avx512f")) simd.push("avx512f");
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  return JsonValue::object()
      .set("cpu_model", cpu_model())
      .set("nproc",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .set("simd", std::move(simd))
      .set("compiler", compiler)
      .set("build_type", E2EBENCH_BUILD_TYPE);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::problem(std::string what) {
  correct = false;
  if (problems.size() < 20) problems.push_back(std::move(what));
}

const std::vector<std::pair<std::string, std::string>>&
end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"setup_s", "s"},
      {"latency_p50_us", "us"},
      {"latency_p99_us", "us"},
      {"throughput_rps", "1/s"},
      {"cpu_us_per_req", "us"},
      {"peak_rss_mb", "MB"},
  };
  return k;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"svc.validate_ns", "ns"},
      {"svc.key_ns", "ns"},
      {"svc.lookup_ns", "ns"},
      {"svc.hit_ratio", "ratio"},
      {"svc.hit_us_p50", "us"},
      {"svc.cold_us_p50", "us"},
      {"svc.cold_us_p99", "us"},
      {"svc.queue_wait_us_p50", "us"},
      {"svc.handoff_us_p50", "us"},
      {"svc.cold_accounting_err_pct", "%"},
      {"svc.coalesced_frac", "ratio"},
      {"svc.cold_computes", "count"},
      {"svc.shed_frac", "ratio"},
      {"svc.invalidate_us", "us"},
      {"net.feed_read_ns", "ns"},
      {"net.feed_update_us", "us"},
      {"dp.resolve_us", "us"},
      {"core.estimator_ctor_us", "us"},
      {"core.search_binary_us", "us"},
      {"core.search_linear_us", "us"},
      {"core.eval_ns", "ns"},
      {"core.evals_per_search", "count"},
      {"core.sweep_ns_per_config", "ns"},
      {"core.sweep_speedup", "ratio"},
      {"core.sweep_steals", "count"},
      {"obs.record_ns", "ns"},
      {"obs.trace_overhead_pct", "%"},
      {"calib.fit_ms", "ms"},
      {"sim.events_per_req", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.ns_per_event_tail_over_head", "ratio"},
      {"mmps.recv_posted_per_req", "count"},
      {"mmps.recv_any_posted_per_req", "count"},
      {"fleet.wire_ns", "ns"},
      {"fleet.hit_ratio", "ratio"},
      {"fleet.forwards_per_req", "count"},
      {"fleet.failovers", "count"},
      {"fleet.route_us_p50", "us"},
      {"fleet.forward_us_p50", "us"},
      {"fleet.compute_us_p50", "us"},
      {"fleet.reply_us_p50", "us"},
      {"bench.gen_lag_p99_us", "us"},
  };
  return k;
}

Timeline::Timeline(Clock::time_point start, double seconds, double window_s)
    : start_(start),
      window_s_(window_s),
      windows_(static_cast<std::size_t>(
          std::max(1.0, std::ceil(seconds / window_s - 1e-9)))),
      cpu_at_(windows_.size() + 1, 0.0),
      next_stamp_(start) {}

std::size_t Timeline::index(Clock::time_point t) const {
  const double at = us_between(start_, t) * 1e-6 / window_s_;
  if (!(at > 0.0)) return 0;
  return std::min(windows_.size() - 1, static_cast<std::size_t>(at));
}

void Timeline::record(Clock::time_point done, double latency_us) {
  Window& w = windows_[index(done)];
  w.latency.record_us(latency_us);
  ++w.done;
  w.first = std::min(w.first, done);
  w.last = std::max(w.last, done);
}

void Timeline::exclude_cpu(Clock::time_point at, double cpu_s) {
  windows_[index(at)].excluded_cpu_s += cpu_s;
}

void Timeline::stamp_cpu(Clock::time_point now) {
  if (now < next_stamp_ || stamped_ >= windows_.size()) return;
  const double cpu = process_cpu_s();
  while (stamped_ < windows_.size() && now >= next_stamp_) {
    cpu_at_[stamped_++] = cpu;
    next_stamp_ = start_ + std::chrono::nanoseconds(std::llround(
                               static_cast<double>(stamped_) * window_s_ * 1e9));
  }
}

void Timeline::finish() {
  const auto now = Clock::now();
  stamp_cpu(now);
  const double cpu = process_cpu_s();
  while (stamped_ < cpu_at_.size()) cpu_at_[stamped_++] = cpu;
  elapsed_s_ = us_between(start_, now) * 1e-6;
}

void Timeline::merge(const Timeline& other) {
  NP_REQUIRE(other.windows_.size() == windows_.size(),
             "timelines of different shapes");
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    windows_[i].latency.merge(other.windows_[i].latency);
    windows_[i].done += other.windows_[i].done;
    windows_[i].excluded_cpu_s += other.windows_[i].excluded_cpu_s;
    windows_[i].first = std::min(windows_[i].first, other.windows_[i].first);
    windows_[i].last = std::max(windows_[i].last, other.windows_[i].last);
  }
}

LogHistogram Timeline::total() const {
  LogHistogram h;
  for (const Window& w : windows_) h.merge(w.latency);
  return h;
}

std::uint64_t Timeline::completed() const {
  std::uint64_t n = 0;
  for (const Window& w : windows_) n += w.done;
  return n;
}

double Timeline::cpu_s() const {
  double excluded = 0.0;
  for (const Window& w : windows_) excluded += w.excluded_cpu_s;
  return cpu_at_.back() - cpu_at_.front() - excluded;
}

std::vector<std::pair<std::size_t, std::size_t>> window_groups(
    const Timeline& t) {
  const auto& w = t.windows();
  const std::size_t n = w.size();
  for (std::size_t g = 1; g <= n; ++g) {
    std::vector<std::pair<std::size_t, std::size_t>> groups;
    bool enough = true;
    for (std::size_t b = 0; b + g <= n; b += g) {
      // A trailing remainder joins the last full group.
      const std::size_t e = b + 2 * g > n ? n : b + g;
      std::uint64_t samples = 0;
      for (std::size_t i = b; i < e; ++i) samples += w[i].latency.count();
      enough = enough && samples >= kMinGroupSamples;
      groups.emplace_back(b, e);
      if (e == n) break;
    }
    if (enough) return groups;
  }
  return {{0, n}};
}

void add_end_to_end(Report& report, double setup_s, const Timeline& t) {
  std::vector<double> p50, tail, rps, cpu;
  const auto& w = t.windows();
  const auto groups = window_groups(t);
  std::uint64_t min_samples = ~std::uint64_t{0};
  for (const auto& [b, e] : groups) {
    LogHistogram h;
    std::uint64_t done = 0;
    double excluded = 0.0;
    auto first = Clock::time_point::max();
    auto last = Clock::time_point::min();
    for (std::size_t i = b; i < e; ++i) {
      h.merge(w[i].latency);
      done += w[i].done;
      excluded += w[i].excluded_cpu_s;
      first = std::min(first, w[i].first);
      last = std::max(last, w[i].last);
    }
    const LatencySummary s = summarize(h);
    min_samples = std::min(min_samples, s.samples);
    const double n = static_cast<double>(std::max<std::uint64_t>(1, done));
    p50.push_back(s.p50_us);
    tail.push_back(s.tail_us);
    // Completions per second between the group's first and last one.
    const double span_s = us_between(first, last) * 1e-6;
    rps.push_back(done > 1 && span_s > 0.0
                      ? static_cast<double>(done - 1) / span_s
                      : 0.0);
    cpu.push_back((t.cpu_at()[e] - t.cpu_at()[b] - excluded) * 1e6 / n);
    report.groups.push(JsonValue::object()
                           .set("windows", JsonValue::array()
                                               .push(static_cast<std::int64_t>(b))
                                               .push(static_cast<std::int64_t>(e)))
                           .set("samples", s.samples)
                           .set("latency_p50_us", s.p50_us)
                           .set("latency_tail_us", s.tail_us)
                           .set("throughput_rps", rps.back())
                           .set("cpu_us_per_req", cpu.back()));
  }
  report.add("setup_s", setup_s, "s");
  report.add("latency_p50_us", median(p50), "us");
  report.add("latency_p99_us", median(tail), "us");
  report.add("throughput_rps", median(rps), "1/s");
  report.add("cpu_us_per_req", median(cpu), "us");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.note("latency_samples", static_cast<double>(t.total().count()),
              "count");
  report.note("latency_tail_percentile",
              100.0 * std::min(0.99, tail_quantile(min_samples)), "%");
  report.note("window_groups", static_cast<double>(groups.size()), "count");
  report.latency = t.total();
}

double trace_overhead_pct(const Timeline& plain, const Timeline& traced) {
  const auto per_req = [](const Timeline& t) {
    return t.cpu_s() /
           static_cast<double>(std::max<std::uint64_t>(1, t.completed()));
  };
  return (per_req(traced) / per_req(plain) - 1.0) * 100.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::uint64_t counter_value(const netpart::obs::TelemetryRegistry& reg,
                            const std::string& name) {
  const auto snap = reg.snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

}  // namespace e2e
