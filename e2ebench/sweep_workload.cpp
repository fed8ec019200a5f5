// sweep: the exhaustive oracle, exhaustive_partition() with one worker per
// hardware thread over the 13^4-configuration grid space of the
// parallel_speedup gate.  No svc layer runs here.
#include <algorithm>
#include <bit>
#include <thread>

#include "calib/calibrate.hpp"
#include "core/partitioner.hpp"
#include "net/builder.hpp"
#include "obs/span.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace netpart;

namespace {

constexpr int kClusters = 4;
constexpr int kPerCluster = 12;  // (12 + 1)^4 = 28561 configurations
/// Width of the wall-clock windows the end-to-end figures are medians over.
constexpr double kWindowS = 0.5;

/// `clusters` clusters of exactly `per_cluster` processors each, speeds
/// spread over the paper's Sparc2/IPC range, so the exhaustive space is
/// exactly (per_cluster + 1)^clusters.
Network grid_network(int clusters, int per_cluster) {
  NetworkBuilder b;
  b.bandwidth_bps(10e6);
  b.frame_overhead(SimTime::micros(50));
  b.router_delay(SimTime::nanos(600), SimTime::micros(100));
  for (int i = 0; i < clusters; ++i) {
    ProcessorType t;
    t.name = "cpu" + std::to_string(i);
    t.flop_time = SimTime::micros(0.1 + 0.1 * i);
    t.int_time = t.flop_time * 0.5;
    t.comm_per_byte = SimTime::nanos(800);
    t.comm_per_message = SimTime::micros(500);
    t.data_format =
        i % 2 == 0 ? DataFormat::BigEndian : DataFormat::LittleEndian;
    t.coerce_per_byte = SimTime::nanos(400);
    b.add_cluster(t.name, t, per_cluster);
  }
  return b.build();
}

struct SweepEnv {
  Network net = grid_network(kClusters, kPerCluster);
  double fit_ms = 0.0;
  CostModelDb db;
  AvailabilitySnapshot snap;
  ComputationSpec spec;
  CycleEstimator estimator;
  int threads;

  explicit SweepEnv(std::uint64_t seed)
      : db(fit(net, fit_ms)),
        snap(gather_availability(net,
                                 make_managers(net, AvailabilityPolicy{}))),
        spec(apps_stencil(sweep_problem_size(seed))),
        estimator(net, db, spec),
        threads(static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()))) {
    (void)exhaustive_partition(estimator, snap, {.threads = threads});
  }

  static CostModelDb fit(const Network& net, double& ms) {
    CalibrationParams params;
    params.topologies = {Topology::OneD};
    const auto t0 = Clock::now();
    CostModelDb db = calibrate(net, params).db;
    ms = us_between(t0, Clock::now()) * 1e-3;
    return db;
  }

  static ComputationSpec apps_stencil(int n) {
    svc::PartitionRequest r;
    r.spec = "stencil";
    r.n = n;
    r.iterations = 10;
    return resolve_spec(r);
  }
};

struct SweepPass {
  explicit SweepPass(Timeline t) : timeline(std::move(t)) {}
  Timeline timeline;
  std::uint64_t calls = 0;
  /// The first sweep's result, and every later one that differs from it
  /// (kept this way so memory does not grow with the call count).
  std::vector<PartitionResult> distinct;

  void keep_result(PartitionResult r) {
    ++calls;
    if (distinct.empty() || r.config != distinct.front().config ||
        std::bit_cast<std::uint64_t>(r.estimate.t_c_ms) !=
            std::bit_cast<std::uint64_t>(distinct.front().estimate.t_c_ms)) {
      distinct.push_back(std::move(r));
    }
  }
};

SweepPass sweep_loop(SweepEnv& env, double seconds) {
  const auto t0 = Clock::now();
  SweepPass pass(Timeline(t0, seconds, kWindowS));
  pass.timeline.stamp_cpu(t0);
  const auto deadline =
      t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  for (;;) {
    const auto a = Clock::now();
    PartitionResult r =
        exhaustive_partition(env.estimator, env.snap, {.threads = env.threads});
    const auto b = Clock::now();
    pass.timeline.record(b, us_between(a, b));
    pass.timeline.stamp_cpu(b);
    pass.keep_result(std::move(r));
    if (b >= deadline) break;
  }
  pass.timeline.finish();
  return pass;
}

/// Every sweep must choose what the serial sweep chooses, and report the
/// reference estimate() of that configuration.
void check_sweep(SweepEnv& env, const SweepPass& pass, Report& report) {
  const PartitionResult serial =
      exhaustive_partition(env.estimator, env.snap, {.threads = 1});
  const double want_tc = env.estimator.estimate(serial.config).t_c_ms;
  // Every sweep equals distinct.front() unless it is listed after it.
  std::uint64_t bad = pass.distinct.size() > 1 ? pass.distinct.size() - 1 : 0;
  if (!pass.distinct.empty() &&
      (pass.distinct.front().config != serial.config ||
       std::bit_cast<std::uint64_t>(pass.distinct.front().estimate.t_c_ms) !=
           std::bit_cast<std::uint64_t>(want_tc))) {
    bad = pass.calls;
  }
  if (bad > 0) {
    report.problem("sweep: " + std::to_string(bad) +
                   " sweeps disagree with the serial sweep");
  }
  report.attempted += pass.calls;
  report.failed += bad;
}

}  // namespace

Report run_sweep(const RunOptions& o) {
  Report report;
  std::unique_ptr<SweepEnv> env;
  std::vector<double> fit_ms;
  const double setup_s = setup_median(env, [&] {
    auto e = std::make_unique<SweepEnv>(o.seed);
    fit_ms.push_back(e->fit_ms);
    return e;
  });

  if (!o.trace) {
    const SweepPass pass = sweep_loop(*env, o.seconds);
    check_sweep(*env, pass, report);
    add_end_to_end(report, setup_s, pass.timeline);
    report.note("threads", env->threads, "count");
    return report;
  }

  const SweepPass plain = sweep_loop(*env, o.seconds / 2);
  check_sweep(*env, plain, report);

  // Traced half: serial and parallel sweeps alternate, each in a span, with
  // the program's partition.exhaustive spans recording too.
  obs::TelemetryRegistry reg;
  auto& global = obs::TelemetryRegistry::global();
  global.set_enabled(true);
  const std::uint64_t steals0 = counter_value(global, "partitioner.steals");
  SweepPass traced(Timeline(Clock::now(), o.seconds / 2, o.seconds / 2));
  std::vector<double> serial_us, parallel_us;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::nanoseconds(
                                 static_cast<std::int64_t>(o.seconds / 2 * 1e9));
  std::uint64_t space = 1;
  for (const int n : env->snap.available) space *= static_cast<std::uint64_t>(n) + 1;
  while (Clock::now() < deadline) {
    reg.clear_events();
    {
      obs::Span span(reg, "core.exhaustive_serial", "bench");
      traced.keep_result(
          exhaustive_partition(env->estimator, env->snap, {.threads = 1}));
    }
    {
      obs::Span span(reg, "core.exhaustive_parallel", "bench");
      traced.keep_result(exhaustive_partition(
          env->estimator, env->snap, {.threads = env->threads}));
    }
    const auto spans = reg.spans();
    serial_us.push_back(spans.at(0).dur_us);
    parallel_us.push_back(spans.at(1).dur_us);
  }
  global.set_enabled(false);
  global.clear_events();
  check_sweep(*env, traced, report);
  const double steals =
      static_cast<double>(counter_value(global, "partitioner.steals") - steals0);

  report.add("core.sweep_ns_per_config",
             median(parallel_us) * 1e3 / static_cast<double>(space), "ns");
  report.add("core.sweep_speedup", median(serial_us) / median(parallel_us),
             "ratio");
  report.add("core.sweep_steals",
             steals / static_cast<double>(parallel_us.size()), "count");
  // Overhead: the serial partner shares the traced half, so compare the
  // parallel sweep's latency rather than CPU per call.
  report.add("obs.trace_overhead_pct",
             (median(parallel_us) / plain.timeline.total().quantile_us(0.5) -
              1.0) *
                 100.0,
             "%");
  report.add("calib.fit_ms", median(fit_ms), "ms");
  report.latency = plain.timeline.total();
  return report;
}

}  // namespace e2e
