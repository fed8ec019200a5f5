// svc_hot and svc_churn: the partition service under a closed loop of
// cache hits, and under an open loop of zipf traffic whose availability
// epoch keeps moving.
#include <immintrin.h>

#include <algorithm>
#include <optional>

#include "calib/calibrate.hpp"
#include "core/estimator.hpp"
#include "core/partitioner.hpp"
#include "net/presets.hpp"
#include "obs/span.hpp"
#include "svc/service.hpp"
#include "svc/validate.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace netpart;
using svc::PartitionDecision;
using svc::PartitionRequest;
using svc::ServiceReply;
using svc::ServiceStatus;
using DecisionPtr = std::shared_ptr<const PartitionDecision>;

namespace {

/// Width of the wall-clock windows the end-to-end figures are medians over.
constexpr double kWindowS = 0.5;

// svc_hot: one closed-loop client over a universe that fits the cache.
// With two clients the hit path's p99 swung between ~3.5 and ~9.5 us in
// host regimes lasting seconds (lock hand-offs between the clients), too
// far apart for any run-to-run bound.
constexpr int kHotUniverse = 256;
constexpr double kHotZipf = 1.1;

// svc_churn: one open-loop generator at a fixed rate; the universe is
// 32 times the cache, and every kChurnUpdateEvery requests the load loop
// moves the availability epoch, which turns the whole working set cold.
// About three quarters of the requests are cold.  The rate keeps the one
// worker under a fifth busy, so a host that turns several times slower for
// a while still does not tip the service into shedding.
constexpr double kChurnRate = 10000.0;  // requests per second
constexpr int kChurnUniverse = 4096;
constexpr std::size_t kChurnCache = 128;
constexpr double kChurnZipf = 0.8;
constexpr double kChurnLinearShare = 0.1;
constexpr std::uint64_t kChurnUpdateEvery = 2000;
constexpr double kChurnWarmupS = 0.25;
/// The latency limit slo_miss_frac is counted against.
constexpr double kChurnSloUs = 1000.0;
/// Cold requests replayed layer by layer in the traced run, and the
/// tolerance within which the replayed layers plus the measured handoff
/// must account for the measured cold latency.
constexpr int kReplaySample = 200;
constexpr double kAccountingTolerancePct = 10.0;

/// Calibrate every topology: the five spec factories between them use
/// all of them.
CostModelDb calibrate_all(const Network& net, double& fit_ms) {
  const auto t0 = Clock::now();
  CostModelDb db = calibrate(net).db;
  fit_ms = us_between(t0, Clock::now()) * 1e-3;
  return db;
}

AvailabilitySnapshot idle_snapshot(const Network& net) {
  return gather_availability(net, make_managers(net, AvailabilityPolicy{}));
}

/// Durations of the spans named `name`, in microseconds.
std::vector<double> span_durations(const std::vector<obs::SpanRecord>& spans,
                                   const std::string& name) {
  std::vector<double> out;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == name) out.push_back(s.dur_us);
  }
  return out;
}

const JsonValue* attr(const obs::SpanRecord& s, const std::string& key) {
  for (const auto& [k, v] : s.attrs) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// Per-call nanoseconds of `body`, which makes `calls` calls: the median of
/// five batches, each timed by one span in `reg`.
template <typename Body>
double batch_ns(obs::TelemetryRegistry& reg, const char* name,
                std::size_t calls, Body body) {
  reg.clear_events();
  for (int rep = 0; rep < 5; ++rep) {
    obs::Span span(reg, name, "bench");
    body();
  }
  return median(span_durations(reg.spans(), name)) * 1e3 /
         static_cast<double>(calls);
}

/// Fold another workload's traced report into `into`: its per-layer
/// metrics join `into`'s, except those `into` already has (the overhead and
/// calibration of that other workload), which become prefixed figures, as
/// do its other figures.  Its oracle verdict carries over; its request
/// counts stay in its figures (`into` counts its own workload's requests).
void absorb(Report& into, const Report& other, const std::string& prefix) {
  for (const Metric& m : other.metrics) {
    const bool taken =
        std::any_of(into.metrics.begin(), into.metrics.end(),
                    [&m](const Metric& have) { return have.name == m.name; });
    if (taken) {
      into.note(prefix + "." + m.name, m.value, m.unit);
    } else {
      into.add(m.name, m.value, m.unit);
    }
  }
  for (const Metric& m : other.extra) {
    into.note(prefix + "." + m.name, m.value, m.unit);
  }
  for (const std::string& p : other.problems) into.problem(p);
  into.correct = into.correct && other.correct;
}

// --- svc_hot ----------------------------------------------------------------

struct HotEnv {
  Network net = presets::paper_testbed();
  double fit_ms = 0.0;
  CostModelDb db = calibrate_all(net, fit_ms);
  AvailabilityFeed feed{idle_snapshot(net)};
  std::vector<PartitionRequest> universe;
  std::unique_ptr<svc::PartitionService> service;

  explicit HotEnv(std::uint64_t seed)
      : universe(hot_universe(seed, kHotUniverse)) {
    svc::ServiceOptions options;
    options.workers = 1;  // warm-up only; the timed loop never misses
    options.queue_capacity = kHotUniverse;
    options.cache_capacity = 1024;
    service = std::make_unique<svc::PartitionService>(net, db, feed,
                                                      resolve_spec, options);
    // Submit the whole universe, then wait: the worker drains one queue
    // instead of waking once per request.
    std::vector<std::shared_future<ServiceReply>> pending;
    for (const PartitionRequest& r : universe) {
      pending.push_back(service->submit(r));
    }
    for (const auto& f : pending) {
      NP_REQUIRE(f.get().status == ServiceStatus::Ok,
                 "svc_hot warm-up failed: " + f.get().error);
    }
  }
};

struct HotPass {
  explicit HotPass(Timeline t) : timeline(std::move(t)) {}
  Timeline timeline;
  std::uint64_t failed = 0;
  std::uint64_t misses = 0;
  std::vector<std::pair<int, DecisionPtr>> served;  ///< distinct decisions
};

/// One closed-loop client (the calling thread) querying until `seconds`
/// have passed.
HotPass hot_closed_loop(HotEnv& env, std::uint64_t seed, double seconds,
                        obs::TelemetryRegistry* trace) {
  const std::vector<int> stream = zipf_stream(seed, 0, kHotUniverse, kHotZipf,
                                              std::size_t{1} << 16);
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  HotPass pass(Timeline(t0, seconds, kWindowS));
  Timeline& timeline = pass.timeline;
  timeline.stamp_cpu(t0);
  std::optional<obs::Span> span;
  if (trace != nullptr) span.emplace(*trace, "bench.hot_client", "bench");
  // A hit hands out the cached shared_ptr, so the client only needs to
  // remember each distinct decision object it saw to check every reply.
  std::vector<const PartitionDecision*> last(kHotUniverse, nullptr);
  for (std::size_t i = 0;; ++i) {
    const int idx = stream[i & (stream.size() - 1)];
    const auto a = Clock::now();
    const ServiceReply reply =
        env.service->query(env.universe[static_cast<std::size_t>(idx)]);
    const auto b = Clock::now();
    timeline.record(b, us_between(a, b));
    if (b >= timeline.next_stamp()) timeline.stamp_cpu(b);
    if (reply.status != ServiceStatus::Ok) {
      ++pass.failed;
    } else {
      if (!reply.cache_hit) ++pass.misses;
      if (reply.decision.get() != last[static_cast<std::size_t>(idx)]) {
        last[static_cast<std::size_t>(idx)] = reply.decision.get();
        pass.served.emplace_back(idx, reply.decision);
      }
    }
    if (b >= deadline) break;
  }
  span.reset();
  timeline.finish();
  return pass;
}

void check_hot(HotEnv& env, const HotPass& pass, Report& report) {
  ServiceOracle oracle(env.net, env.db, env.service->signature());
  oracle.add_epoch(env.feed.epoch(), idle_snapshot(env.net));
  std::uint64_t mismatches = 0;
  for (const auto& [idx, decision] : pass.served) {
    const std::string why = oracle.check(
        idx, env.universe[static_cast<std::size_t>(idx)], *decision);
    if (!why.empty()) {
      ++mismatches;
      report.problem("svc_hot request " + std::to_string(idx) + ": " + why);
    }
  }
  if (pass.misses > 0) {
    report.problem("svc_hot: " + std::to_string(pass.misses) +
                   " timed requests missed a warmed cache");
  }
  report.attempted += pass.timeline.completed();
  report.failed += pass.failed + mismatches;
}

}  // namespace

Report run_svc_hot(const RunOptions& o) {
  Report report;
  std::unique_ptr<HotEnv> env;
  std::vector<double> fit_ms;
  const double setup_s = setup_median(env, [&] {
    auto e = std::make_unique<HotEnv>(o.seed);
    fit_ms.push_back(e->fit_ms);
    return e;
  });

  if (!o.trace) {
    const HotPass pass = hot_closed_loop(*env, o.seed, o.seconds, nullptr);
    check_hot(*env, pass, report);
    add_end_to_end(report, setup_s, pass.timeline);
    return report;
  }

  // Traced run: an untraced quarter for the overhead baseline, the layer
  // batches, then a quarter with the program's own spans recording.  The
  // rest of the run measures the layers of svc_churn and sweep (below).
  const HotPass plain = hot_closed_loop(*env, o.seed, o.seconds / 4, nullptr);
  check_hot(*env, plain, report);

  obs::TelemetryRegistry reg;
  const std::uint64_t epoch = env->feed.epoch();
  const std::uint64_t sig = env->service->signature();
  const auto& u = env->universe;
  constexpr std::size_t kCalls = std::size_t{1} << 18;
  report.add("svc.validate_ns", batch_ns(reg, "svc.validate_request", kCalls, [&] {
               for (std::size_t i = 0; i < kCalls; ++i) {
                 keep(svc::validate_request(u[i % u.size()]));
               }
             }), "ns");
  report.add("svc.key_ns", batch_ns(reg, "svc.request_key", kCalls, [&] {
               for (std::size_t i = 0; i < kCalls; ++i) {
                 keep(svc::request_key(u[i % u.size()], sig, epoch));
               }
             }), "ns");
  std::vector<std::uint64_t> keys;
  for (const PartitionRequest& r : u) {
    keys.push_back(svc::request_key(r, sig, epoch));
  }
  report.add("svc.lookup_ns", batch_ns(reg, "svc.cache_lookup", kCalls, [&] {
               for (std::size_t i = 0; i < kCalls; ++i) {
                 keep(env->service->cache().lookup(keys[i % keys.size()]));
               }
             }), "ns");
  report.add("net.feed_read_ns", batch_ns(reg, "net.feed_read", kCalls, [&] {
               for (std::size_t i = 0; i < kCalls; ++i) {
                 keep(env->feed.read());
               }
             }), "ns");
  {
    // The service's hit histogram shape, recorded from the client thread.
    obs::LatencyHistogram hist(0.0, 200.0, 400);
    report.add("obs.record_ns",
               batch_ns(reg, "obs.latency_record", kCalls, [&] {
                 for (std::size_t i = 0; i < kCalls; ++i) {
                   hist.record(static_cast<double>(i & 127) * 0.01);
                 }
               }),
               "ns");
  }

  obs::TelemetryRegistry::global().set_enabled(true);
  const HotPass traced = hot_closed_loop(*env, o.seed, o.seconds / 4, &reg);
  obs::TelemetryRegistry::global().set_enabled(false);
  obs::TelemetryRegistry::global().clear_events();
  check_hot(*env, traced, report);
  report.add("obs.trace_overhead_pct",
             trace_overhead_pct(plain.timeline, traced.timeline), "%");
  report.add("calib.fit_ms", median(fit_ms), "ms");
  report.latency = plain.timeline.total();

  // svc_churn and sweep are not gated workloads: on a host that steals CPU
  // from an idle or busy vCPU their end-to-end tails swing by more than any
  // bound (README.md).  Their layers are measured here instead, by their
  // own traced runs.
  env.reset();  // its worker would count against their thread budget
  absorb(report, run_svc_churn({o.seed, o.seconds * 0.3, true}), "svc_churn");
  absorb(report, run_sweep({o.seed, o.seconds * 0.2, true}), "sweep");
  return report;
}

// --- svc_churn --------------------------------------------------------------

namespace {

struct ChurnEnv {
  Network net;
  double fit_ms = 0.0;
  CostModelDb db;
  AvailabilitySnapshot idle;
  AvailabilityFeed feed;
  std::vector<PartitionRequest> universe;
  std::vector<int> stream;
  std::vector<AvailabilitySnapshot> snapshots;
  std::size_t next_snapshot = 0;
  std::unique_ptr<svc::PartitionService> service;
  ServiceOracle oracle;
  std::uint64_t next_k = 0;  ///< position in the request stream

  ChurnEnv(std::uint64_t seed, double seconds);

  /// The load loop's availability change: the next snapshot in the seeded
  /// sequence, which bumps the epoch.
  std::uint64_t update_feed() {
    const AvailabilitySnapshot& next =
        snapshots[next_snapshot++ % snapshots.size()];
    const std::uint64_t epoch = feed.update(next);
    oracle.add_epoch(epoch, next);
    return epoch;
  }
};

Network churn_network() {
  // The calibrated 10-cluster random network of the service bench.
  Rng rng(7);
  return presets::random_network(rng, 10, 32);
}

struct ChurnReply {
  int idx = 0;  ///< universe index
  ServiceStatus status = ServiceStatus::Failed;
  bool cache_hit = false;
  DecisionPtr decision;
  float due_us = 0.0f;     ///< latency charged from the due time
  float submit_us = 0.0f;  ///< latency from the submit call
};

struct ChurnPass {
  explicit ChurnPass(Timeline t) : timeline(std::move(t)) {}
  std::vector<ChurnReply> replies;
    Timeline timeline;  ///< latency from due time
  LogHistogram lag;  ///< generator lateness
};

/// One thread generates and collects: between sends it polls the replies
/// still outstanding, so a completion is seen within a poll of when its
/// future became ready, without a collector thread to wake.  `trace`
/// (optional) receives the benchmark's spans.
ChurnPass churn_open_loop(ChurnEnv& env, double seconds,
                          obs::TelemetryRegistry* trace) {
  const double period_us = 1e6 / kChurnRate;
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const OpenLoopSchedule schedule(start, period_us);
  const auto end =
      start + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));

  struct Pending {
    std::uint64_t k;
    int idx;
    Clock::time_point sent;
    std::shared_future<ServiceReply> future;
  };
  std::vector<Pending> outstanding;
  // Reserved up front: a reallocation inside the loop would stall the
  // generator for milliseconds.
  ChurnPass pass(Timeline(start, seconds, kWindowS));
  pass.replies.reserve(static_cast<std::size_t>(seconds * kChurnRate) + 16);
  outstanding.reserve(1024);
  Timeline& timeline = pass.timeline;
  const auto finish = [&](const Pending& p, const ServiceReply& reply,
                          Clock::time_point done) {
    // Only answered requests enter the latency distribution; a shed or
    // failed one is counted by fail_frac and slo_miss_frac instead.
    const double due_us = schedule.charge_us(p.k, done);
    if (reply.status == ServiceStatus::Ok) timeline.record(done, due_us);
    pass.replies.push_back(ChurnReply{p.idx, reply.status, reply.cache_hit,
                                      reply.decision,
                                      static_cast<float>(due_us),
                                      static_cast<float>(
                                          us_between(p.sent, done))});
  };
  const auto poll = [&](Clock::time_point now) {
    std::size_t kept = 0;
    for (Pending& p : outstanding) {
      if (p.future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        finish(p, p.future.get(), now);
      } else {
        outstanding[kept++] = std::move(p);
      }
    }
    outstanding.resize(kept);
  };

  for (std::uint64_t j = 0;; ++j) {
    const auto due = schedule.due(j);
    if (due >= end) break;
    // The wait is the harness's own CPU (spinning and polling), not the
    // service's: it is excluded from cpu_us_per_req.
    const auto wait0 = Clock::now();
    if (wait0 >= timeline.next_stamp()) timeline.stamp_cpu(wait0);
    auto now = wait0;
    while (now < due) {
      poll(now);
      _mm_pause();
      now = Clock::now();
    }
    timeline.exclude_cpu(wait0, us_between(wait0, now) * 1e-6);

    const std::uint64_t k = env.next_k++;
    if (k > 0 && k % kChurnUpdateEvery == 0) {
      if (trace == nullptr) {
        env.update_feed();
      } else {
        std::uint64_t epoch = 0;
        {
          obs::Span span(*trace, "net.feed_update", "bench");
          epoch = env.update_feed();
        }
        // The purge the service would run on its next admission, run here
        // so its cost is a span of its own.
        obs::Span span(*trace, "svc.invalidate_before", "bench");
        env.service->cache().invalidate_before(epoch);
      }
    }
    const int idx = env.stream[k % env.stream.size()];
    const auto sent = Clock::now();
    pass.lag.record_us(schedule.charge_us(j, sent));
    Pending p{j, idx, sent, {}};
    {
      std::optional<obs::Span> span;
      if (trace != nullptr) span.emplace(*trace, "bench.submit", "bench");
      p.future =
          env.service->submit(env.universe[static_cast<std::size_t>(idx)]);
    }
    outstanding.push_back(std::move(p));
    poll(Clock::now());
  }
  while (!outstanding.empty()) {
    poll(Clock::now());
    _mm_pause();
  }
  timeline.finish();
  return pass;
}

ChurnEnv::ChurnEnv(std::uint64_t seed, double seconds)
    : net(churn_network()),
      db(calibrate_all(net, fit_ms)),
      idle(idle_snapshot(net)),
      feed(idle),
      universe(churn_universe(seed, kChurnUniverse, kChurnLinearShare)),
      stream(zipf_stream(seed, 0, kChurnUniverse, kChurnZipf,
                         std::size_t{1} << 20)),
      snapshots(churn_snapshots(
          seed, idle,
          static_cast<int>((seconds + kChurnWarmupS + 1.0) * kChurnRate /
                           static_cast<double>(kChurnUpdateEvery)) +
              2)),
      oracle(net, db, svc::network_signature(net)) {
  svc::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 64;
  options.cache_capacity = kChurnCache;
  service = std::make_unique<svc::PartitionService>(net, db, feed,
                                                    resolve_spec, options);
  oracle.add_epoch(feed.epoch(), idle);
  // Warm-up: the same open loop until the cache reaches its steady state.
  (void)churn_open_loop(*this, kChurnWarmupS, nullptr);
}

struct ChurnCounts {
  std::uint64_t attempted = 0, failed = 0, shed = 0, hits = 0, slo_miss = 0,
                mismatches = 0;
};

ChurnCounts check_churn(ChurnEnv& env, const ChurnPass& pass,
                        Report& report) {
  ChurnCounts c;
  for (const ChurnReply& r : pass.replies) {
    ++c.attempted;
    if (r.status == ServiceStatus::Overloaded) {
      ++c.shed;
    } else if (r.status == ServiceStatus::Failed) {
      ++c.failed;
    } else {
      if (r.cache_hit) ++c.hits;
      const std::string why = env.oracle.check(
          r.idx, env.universe[static_cast<std::size_t>(r.idx)], *r.decision);
      if (!why.empty()) {
        ++c.mismatches;
        report.problem("svc_churn request " + std::to_string(r.idx) + ": " +
                       why);
      }
    }
    if (r.status != ServiceStatus::Ok || r.due_us > kChurnSloUs) {
      ++c.slo_miss;
    }
  }
  report.attempted += c.attempted;
  report.failed += c.failed + c.shed + c.mismatches;
  return c;
}

/// One sampled cold request replayed inline, one span per layer.
struct Replay {
  double validate_us, read_us, key_us, lookup_us, resolve_us, ctor_us,
      search_us, eval_ns;
  bool linear;
  double sum_us() const {
    return validate_us + read_us + key_us + lookup_us + resolve_us +
           ctor_us + search_us;
  }
};

Replay replay_cold(ChurnEnv& env, obs::TelemetryRegistry& reg, int idx,
                   std::uint64_t epoch,
                   EstimatorScratch& scratch, Rng& rng, Report& report) {
  const PartitionRequest& request = env.universe[static_cast<std::size_t>(idx)];
  const AvailabilitySnapshot& snap = env.oracle.snapshot(epoch);
  const std::uint64_t sig = env.service->signature();
  constexpr int kReps = 3;
  std::vector<double> t[7];
  std::optional<PartitionResult> result;
  for (int rep = 0; rep < kReps; ++rep) {
    reg.clear_events();
    {
      obs::Span s(reg, "svc.validate_request", "bench");
      keep(svc::validate_request(request));
    }
    {
      obs::Span s(reg, "net.feed_read", "bench");
      keep(env.feed.read());
    }
    std::uint64_t key = 0;
    {
      obs::Span s(reg, "svc.request_key", "bench");
      key = svc::request_key(request, sig, epoch);
    }
    {
      obs::Span s(reg, "svc.cache_lookup", "bench");
      keep(env.service->cache().lookup(key));
    }
    std::optional<ComputationSpec> spec;
    {
      obs::Span s(reg, "dp.resolve", "bench");
      spec.emplace(resolve_spec(request));
    }
    std::optional<CycleEstimator> estimator;
    {
      obs::Span s(reg, "core.estimator_ctor", "bench");
      estimator.emplace(env.net, env.db, *spec);
    }
    {
      obs::Span s(reg, "core.partition", "bench");
      result.emplace(partition(*estimator, snap, request.options, &scratch));
    }
    const std::vector<obs::SpanRecord> spans = reg.spans();
    NP_REQUIRE(spans.size() == 7, "replay expects one span per layer");
    for (std::size_t i = 0; i < 7; ++i) t[i].push_back(spans[i].dur_us);
  }
  PartitionDecision got;
  got.partition = result->estimate.partition;
  got.config = result->config;
  got.placement = result->placement;
  got.t_c_ms = result->estimate.t_c_ms;
  const std::string why = decision_mismatch(
      got, env.oracle.expected(idx, request, epoch));
  if (!why.empty()) report.problem("svc_churn replay: " + why);

  // The per-evaluation kernel, over a batch of the configurations the
  // heuristic visits: the fastest clusters fully used, then p processors of
  // the next one.
  const ComputationSpec spec = resolve_spec(request);
  const CycleEstimator estimator(env.net, env.db, spec);
  std::vector<ProcessorConfig> configs;
  const std::vector<ClusterId>& order = estimator.cluster_order();
  while (configs.size() < 64) {
    ProcessorConfig c(snap.available.size(), 0);
    const auto full = static_cast<std::size_t>(
        rng.next_int(0, static_cast<std::int64_t>(order.size()) - 1));
    std::int64_t total = 0;
    for (std::size_t i = 0; i < full; ++i) {
      c[static_cast<std::size_t>(order[i])] =
          snap.available[static_cast<std::size_t>(order[i])];
      total += c[static_cast<std::size_t>(order[i])];
    }
    const auto next = static_cast<std::size_t>(order[full]);
    c[next] = static_cast<int>(rng.next_int(0, snap.available[next]));
    total += c[next];
    if (total > 0 && total <= request.n) configs.push_back(std::move(c));
  }
  constexpr int kEvalReps = 16;
  reg.clear_events();
  {
    obs::Span s(reg, "core.estimate_into", "bench");
    for (int rep = 0; rep < kEvalReps; ++rep) {
      for (const ProcessorConfig& c : configs) {
        keep(estimator.estimate_into(c, scratch).t_c_ms);
      }
    }
  }
  const double eval_ns = reg.spans().front().dur_us * 1e3 /
                         static_cast<double>(kEvalReps * configs.size());
  return Replay{median(t[0]), median(t[1]), median(t[2]), median(t[3]),
                median(t[4]), median(t[5]), median(t[6]), eval_ns,
                request.options.search == PartitionOptions::Search::Linear};
}

void churn_extras(Report& report, const ChurnPass& pass, const ChurnCounts& c) {
  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, c.attempted));
  report.note("fail_frac",
              static_cast<double>(c.failed + c.shed + c.mismatches) / attempted,
              "ratio");
  report.note("slo_miss_frac", static_cast<double>(c.slo_miss) / attempted,
              "ratio");
  report.note("slo_limit_us", kChurnSloUs, "us");
  report.note("shed", static_cast<double>(c.shed), "count");
  report.note("hit_ratio", static_cast<double>(c.hits) / attempted, "ratio");
  report.note("gen_lag_p99_us", pass.lag.quantile_us(0.99), "us");
}

}  // namespace

Report run_svc_churn(const RunOptions& o) {
  Report report;
  std::unique_ptr<ChurnEnv> env;
  std::vector<double> fit_ms;
  const double setup_s = setup_median(env, [&] {
    auto e = std::make_unique<ChurnEnv>(o.seed, o.seconds);
    fit_ms.push_back(e->fit_ms);
    return e;
  });

  if (!o.trace) {
    const ChurnPass pass = churn_open_loop(*env, o.seconds, nullptr);
    const ChurnCounts c = check_churn(*env, pass, report);
    add_end_to_end(report, setup_s, pass.timeline);
    churn_extras(report, pass, c);
    return report;
  }

  const ChurnPass plain = churn_open_loop(*env, o.seconds / 2, nullptr);
  const ChurnCounts plain_counts = check_churn(*env, plain, report);
  churn_extras(report, plain, plain_counts);

  obs::TelemetryRegistry reg;
  reg.set_record_capacity(std::size_t{1} << 20);
  auto& global = obs::TelemetryRegistry::global();
  global.clear_events();
  const auto counters0 = env->service->metrics().snapshot().counters;
  const auto global0 = global.snapshot().counters;
  global.set_enabled(true);
  const ChurnPass traced = churn_open_loop(*env, o.seconds / 2, &reg);
  const auto counters1 = env->service->metrics().snapshot().counters;
  const auto global1 = global.snapshot().counters;
  check_churn(*env, traced, report);

  const auto delta = [](const auto& before, const auto& after,
                        const std::string& name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return static_cast<double>((a == after.end() ? 0 : a->second) -
                               (b == before.end() ? 0 : b->second));
  };
  const double requests = std::max(1.0, delta(counters0, counters1, "requests"));
  report.add("svc.hit_ratio", delta(counters0, counters1, "cache_hits") / requests,
             "ratio");
  report.add("svc.coalesced_frac",
             delta(counters0, counters1, "coalesced") / requests, "ratio");
  report.add("svc.cold_computes", delta(counters0, counters1, "cold_computes"),
             "count");
  report.add("svc.shed_frac", delta(counters0, counters1, "shed_overload") / requests,
             "ratio");
  report.add("core.evals_per_search",
             delta(global0, global1, "partitioner.cost_model_evals") /
                 std::max(1.0, delta(global0, global1, "partitioner.calls")),
             "count");

  // The program's own spans: svc.request (outcome) and svc.execute
  // (queue_wait_us).  The registry keeps the first 2^18 events, plenty.
  const std::vector<obs::SpanRecord> spans = global.spans();
  global.set_enabled(false);
  global.clear_events();
  std::vector<double> hit_us, queue_wait_us, execute_us;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "svc.request") {
      const JsonValue* outcome = attr(s, "outcome");
      if (outcome != nullptr && outcome->as_string() == "hit") {
        hit_us.push_back(s.dur_us);
      }
    } else if (s.name == "svc.execute") {
      execute_us.push_back(s.dur_us);
      if (const JsonValue* w = attr(s, "queue_wait_us")) {
        queue_wait_us.push_back(w->as_double());
      }
    }
  }
  report.add("svc.hit_us_p50", median(hit_us), "us");
  report.add("svc.queue_wait_us_p50", median(queue_wait_us), "us");
  report.note("execute_us_p50", median(execute_us), "us");
  const std::vector<obs::SpanRecord> bench_spans = reg.spans();
  report.add("svc.invalidate_us",
             median(span_durations(bench_spans, "svc.invalidate_before")),
             "us");
  report.add("net.feed_update_us",
             median(span_durations(bench_spans, "net.feed_update")), "us");

  // Where cold latency goes: the untraced half's cold replies, and a seeded
  // sample of them replayed inline one layer at a time.  The handoff is
  // what the replayed layers do not explain (admission, queue wait, worker
  // wake-up, the reply's trip back).
  std::vector<double> cold_us;
  std::vector<const ChurnReply*> cold;
  for (const ChurnReply& r : plain.replies) {
    if (r.status != ServiceStatus::Ok || r.cache_hit) continue;
    cold_us.push_back(r.submit_us);
    cold.push_back(&r);
  }
  report.add("svc.cold_us_p50", quantile(cold_us, 0.5), "us");
  report.add("svc.cold_us_p99", quantile(cold_us, 0.99), "us");
  Rng rng = Rng(o.seed).stream(0x7265706c6179);  // "replay"
  for (std::size_t i = cold.size(); i > 1; --i) {
    std::swap(cold[i - 1], cold[static_cast<std::size_t>(rng.next_int(
                               0, static_cast<std::int64_t>(i) - 1))]);
  }
  cold.resize(std::min<std::size_t>(cold.size(), kReplaySample));
  EstimatorScratch scratch;
  std::vector<double> layer_sum, handoff, latency, resolve, ctor, binary,
      linear, eval_ns;
  for (const ChurnReply* r : cold) {
    const Replay p = replay_cold(*env, reg, r->idx, r->decision->epoch,
                                 scratch, rng, report);
    layer_sum.push_back(p.sum_us());
    handoff.push_back(r->submit_us - p.sum_us());
    latency.push_back(r->submit_us);
    resolve.push_back(p.resolve_us);
    ctor.push_back(p.ctor_us);
    (p.linear ? linear : binary).push_back(p.search_us);
    eval_ns.push_back(p.eval_ns);
  }
  report.add("svc.handoff_us_p50", median(handoff), "us");
  const double cold_p50 = median(latency);
  const double err_pct =
      cold_p50 > 0.0
          ? std::abs(median(layer_sum) + median(handoff) - cold_p50) /
                cold_p50 * 100.0
          : 0.0;
  report.add("svc.cold_accounting_err_pct", err_pct, "%");
  report.note("replay_sample", static_cast<double>(cold.size()), "count");
  report.note("replay_layer_sum_us_p50", median(layer_sum), "us");
  report.note("replay_cold_us_p50", cold_p50, "us");
  report.note("accounting_tolerance_pct", kAccountingTolerancePct, "%");
  if (cold.empty()) {
    report.problem("svc_churn: no cold request to replay");
  } else if (err_pct > kAccountingTolerancePct) {
    report.problem("svc_churn: replayed layers plus handoff miss the cold "
                   "latency by " + std::to_string(err_pct) + "%");
  }
  report.add("dp.resolve_us", median(resolve), "us");
  report.add("core.estimator_ctor_us", median(ctor), "us");
  report.add("core.search_binary_us", median(binary), "us");
  report.add("core.search_linear_us", median(linear), "us");
  report.add("core.eval_ns", median(eval_ns), "ns");
  report.add("bench.gen_lag_p99_us", plain.lag.quantile_us(0.99), "us");

  report.add("obs.trace_overhead_pct",
             trace_overhead_pct(plain.timeline, traced.timeline), "%");
  report.add("calib.fit_ms", median(fit_ms), "ms");
  report.latency = plain.timeline.total();
  return report;
}

}  // namespace e2e
