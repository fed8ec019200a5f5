// Tests for the load schedule and the dynamic-repartitioning executor
// (the paper's Section 7 future work).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "core/decompose.hpp"
#include "exec/adaptive.hpp"
#include "exec/executor.hpp"
#include "exec/load.hpp"
#include "net/presets.hpp"
#include "obs/telemetry.hpp"
#include "sim/faults.hpp"

namespace netpart {
namespace {

const Network& testbed() {
  static const Network net = presets::paper_testbed();
  return net;
}

// ------------------------------------------------------------------ load

TEST(LoadScheduleTest, PiecewiseConstantLookup) {
  LoadSchedule s;
  const ProcessorRef ref{0, 2};
  s.add(ref, SimTime::millis(100), 0.5);
  s.add(ref, SimTime::millis(300), 0.2);
  EXPECT_DOUBLE_EQ(s.load(ref, SimTime::zero()), 0.0);
  EXPECT_DOUBLE_EQ(s.load(ref, SimTime::millis(100)), 0.5);
  EXPECT_DOUBLE_EQ(s.load(ref, SimTime::millis(200)), 0.5);
  EXPECT_DOUBLE_EQ(s.load(ref, SimTime::millis(400)), 0.2);
  EXPECT_DOUBLE_EQ(s.load(ProcessorRef{0, 3}, SimTime::millis(200)), 0.0);
  EXPECT_DOUBLE_EQ(s.slowdown(ref, SimTime::millis(200)), 2.0);
}

TEST(LoadScheduleTest, LoadClampedBelowOne) {
  LoadSchedule s;
  s.add(ProcessorRef{0, 0}, SimTime::zero(), 5.0);
  EXPECT_LE(s.load(ProcessorRef{0, 0}, SimTime::millis(1)), 0.9);
}

TEST(LoadScheduleTest, StepSchedulesATailOfTheCluster) {
  const LoadSchedule s =
      LoadSchedule::step(testbed(), 1, 3, SimTime::millis(50), 0.4);
  EXPECT_DOUBLE_EQ(s.load(ProcessorRef{1, 2}, SimTime::millis(100)), 0.0);
  EXPECT_DOUBLE_EQ(s.load(ProcessorRef{1, 3}, SimTime::millis(100)), 0.4);
  EXPECT_DOUBLE_EQ(s.load(ProcessorRef{1, 5}, SimTime::millis(100)), 0.4);
  EXPECT_DOUBLE_EQ(s.load(ProcessorRef{1, 5}, SimTime::millis(10)), 0.0);
}

TEST(LoadScheduleTest, LoadSlowsExecutionDown) {
  const apps::StencilConfig cfg{.n = 300, .iterations = 10,
                                .overlap = false};
  const ComputationSpec spec = apps::make_stencil_spec(cfg);
  const ProcessorConfig config{4, 0};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), cfg.n);
  const double unloaded =
      execute(testbed(), spec, placement, part, {}).elapsed.as_millis();
  const LoadSchedule loaded_half =
      LoadSchedule::step(testbed(), 0, 0, SimTime::zero(), 0.5);
  ExecutionOptions options;
  options.load = &loaded_half;
  const double loaded =
      execute(testbed(), spec, placement, part, options)
          .elapsed.as_millis();
  // All four processors at 0.5 load: compute takes 2x.
  EXPECT_GT(loaded, 1.6 * unloaded);
}

// -------------------------------------------------------------- adaptive

struct AdaptiveFixture {
  apps::StencilConfig cfg{.n = 1200, .iterations = 40, .overlap = false};
  ComputationSpec spec = apps::make_stencil_spec(cfg);
  ProcessorConfig config{6, 0};
  Placement placement = contiguous_placement(testbed(), config);
  PartitionVector initial = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), cfg.n);
  AdaptiveOptions adaptive{.check_interval = 5,
                           .imbalance_threshold = 1.25,
                           .pdu_bytes = 4 * 1200};
};

TEST(AdaptiveTest, ConfigRecoveryScoresAgainstExhaustiveOracle) {
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(testbed(), params);
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 1200, .iterations = 10, .overlap = false});
  CycleEstimator est(testbed(), cal.db, spec);

  // Degraded availability: half the fast cluster is gone.
  AvailabilitySnapshot snap;
  snap.available = {3, 6};

  // The oracle's own pick scores a perfect 1.0; a deliberately bad
  // recovery (one slow processor) scores strictly worse.
  const ConfigRecoveryReport self = evaluate_config_recovery(
      est, snap, exhaustive_partition(est, snap, {.threads = 2}).config);
  EXPECT_DOUBLE_EQ(self.ratio, 1.0);
  EXPECT_GT(self.oracle_evaluations, 0u);

  const ConfigRecoveryReport bad =
      evaluate_config_recovery(est, snap, ProcessorConfig{0, 1});
  EXPECT_GT(bad.ratio, 1.0);
  EXPECT_EQ(bad.oracle_config, self.oracle_config);
  EXPECT_DOUBLE_EQ(bad.oracle_t_c_ms, self.oracle_t_c_ms);
}

TEST(AdaptiveTest, NoLoadMeansNoRepartitions) {
  AdaptiveFixture f;
  const AdaptiveResult r = execute_adaptive(
      testbed(), f.spec, f.placement, f.initial, {}, f.adaptive);
  EXPECT_EQ(r.repartitions, 0);
  EXPECT_EQ(r.redistribution_time, SimTime::zero());
  EXPECT_EQ(r.final_partition.values(), f.initial.values());
}

TEST(AdaptiveTest, RepartitionsUnderSkewedLoadAndWins) {
  AdaptiveFixture f;
  // Halfway processors 3..5 pick up a heavy background user.
  const LoadSchedule skew =
      LoadSchedule::step(testbed(), 0, 3, SimTime::millis(500), 0.5);
  ExecutionOptions options;
  options.load = &skew;

  const AdaptiveResult adaptive = execute_adaptive(
      testbed(), f.spec, f.placement, f.initial, options, f.adaptive);
  const AdaptiveResult fixed = execute_static_chunked(
      testbed(), f.spec, f.placement, f.initial, options, f.adaptive);
  EXPECT_GT(adaptive.repartitions, 0);
  EXPECT_LT(adaptive.elapsed, fixed.elapsed);
  // The loaded processors must end with less work than the unloaded.
  EXPECT_LT(adaptive.final_partition.at(5), adaptive.final_partition.at(0));
}

TEST(AdaptiveTest, StaticChunkedMatchesPlainExecutor) {
  AdaptiveFixture f;
  const AdaptiveResult chunked = execute_static_chunked(
      testbed(), f.spec, f.placement, f.initial, {}, f.adaptive);
  const double plain =
      execute(testbed(), f.spec, f.placement, f.initial, {})
          .elapsed.as_millis();
  // Chunking inserts barriers; allow a small divergence.
  EXPECT_NEAR(chunked.elapsed.as_millis(), plain, 0.05 * plain);
}

TEST(AdaptiveTest, RedistributionCostIsCounted) {
  AdaptiveFixture f;
  const LoadSchedule skew =
      LoadSchedule::step(testbed(), 0, 3, SimTime::zero(), 0.6);
  ExecutionOptions options;
  options.load = &skew;
  const AdaptiveResult r = execute_adaptive(
      testbed(), f.spec, f.placement, f.initial, options, f.adaptive);
  ASSERT_GT(r.repartitions, 0);
  EXPECT_GT(r.redistribution_time, SimTime::zero());
}

TEST(AdaptiveTest, TelemetryLandsOnThePipelineClock) {
  // Each chunk (and each redistribution) runs a fresh simulator from local
  // time 0; its msg spans must land inside that chunk's window on the
  // pipeline clock, which the global registry's adaptive.* spans mark.
  AdaptiveFixture f;
  const LoadSchedule skew =
      LoadSchedule::step(testbed(), 0, 3, SimTime::zero(), 0.6);
  obs::TelemetryRegistry reg;
  ExecutionOptions options;
  options.load = &skew;
  options.telemetry = &reg;
  obs::TelemetryRegistry& global = obs::TelemetryRegistry::global();
  global.clear_events();
  global.set_enabled(true);
  const AdaptiveResult r = execute_adaptive(
      testbed(), f.spec, f.placement, f.initial, options, f.adaptive);
  global.set_enabled(false);
  const std::vector<obs::SpanRecord> windows = global.spans();
  global.clear_events();
  ASSERT_GT(r.repartitions, 0);

  std::vector<obs::SpanRecord> msgs;
  for (const obs::SpanRecord& s : reg.spans()) {
    if (s.name == "msg") msgs.push_back(s);
  }
  ASSERT_FALSE(msgs.empty());
  for (const obs::SpanRecord& m : msgs) {
    EXPECT_LE(m.start_us + m.dur_us, r.elapsed.as_micros() + 1e-6);
  }
  int chunks = 0;
  int migrations = 0;
  for (const obs::SpanRecord& w : windows) {
    if (w.name != "adaptive.chunk" && w.name != "adaptive.migration") {
      continue;
    }
    (w.name == "adaptive.chunk" ? chunks : migrations) += 1;
    const bool has_msg = std::any_of(
        msgs.begin(), msgs.end(), [&w](const obs::SpanRecord& m) {
          return m.start_us > w.start_us &&
                 m.start_us < w.start_us + w.dur_us;
        });
    EXPECT_TRUE(has_msg) << w.name << " at " << w.start_us << "us";
  }
  EXPECT_EQ(chunks, 8);
  EXPECT_EQ(migrations, r.repartitions);
}

TEST(AdaptiveTest, AdaptivePinnedBitForBit) {
  // Constants recorded before the chunks and the migrations moved onto the
  // shared SPMD runtime.  A load step and an open-ended slowdown force
  // imbalance- and fault-triggered repartitions; a flap lands on the
  // migration traffic's segment.
  AdaptiveFixture f;
  const LoadSchedule skew =
      LoadSchedule::step(testbed(), 0, 3, SimTime::millis(500), 0.5);
  sim::FaultPlan plan;
  plan.slowdowns.push_back(
      {SimTime::millis(2000), SimTime::max(), f.placement[1], 2.0});
  plan.flaps.push_back({SimTime::millis(4000), SimTime::millis(4040), 0});
  ExecutionOptions options;
  options.load = &skew;
  options.faults = &plan;
  options.sim_params.loss_rate = 0.02;
  options.seed = 5;
  obs::TelemetryRegistry reg;
  options.telemetry = &reg;
  const AdaptiveResult r = execute_adaptive(
      testbed(), f.spec, f.placement, f.initial, options, f.adaptive);
  EXPECT_EQ(r.elapsed.as_nanos(), 27571610400);
  EXPECT_EQ(r.redistribution_time.as_nanos(), 1682400000);
  EXPECT_EQ(r.repartitions, 2);
  EXPECT_EQ(r.fault_responses, 1);
  EXPECT_EQ(r.first_fault_response.as_nanos(), 3541994400);
  EXPECT_EQ(r.final_partition.to_string(), "300 150 300 150 150 150");
  EXPECT_EQ(r.messages_delivered, 400u);
  // The migrations' transfers show up only in the simulator telemetry.
  EXPECT_EQ(reg.counter("sim.messages_delivered").value(), 410u);
  EXPECT_EQ(reg.counter("sim.bytes_delivered").value(), 2980800u);
  EXPECT_EQ(reg.counter("sim.fragments_lost").value(), 60u);
}

TEST(LoadScheduleTest, RandomWalkIsBoundedAndSeeded) {
  const LoadSchedule a = LoadSchedule::random_walk(
      testbed(), Rng(5), 0.3, SimTime::seconds(1), SimTime::seconds(5));
  const LoadSchedule b = LoadSchedule::random_walk(
      testbed(), Rng(5), 0.3, SimTime::seconds(1), SimTime::seconds(5));
  for (ClusterId c = 0; c < testbed().num_clusters(); ++c) {
    for (ProcessorIndex i = 0; i < testbed().cluster(c).size(); ++i) {
      for (double t : {0.5, 2.5, 4.5}) {
        const double la = a.load(ProcessorRef{c, i}, SimTime::seconds(t));
        EXPECT_GE(la, 0.0);
        EXPECT_LE(la, 0.9);
        EXPECT_EQ(la, b.load(ProcessorRef{c, i}, SimTime::seconds(t)));
      }
    }
  }
  // Loads actually change over time for at least some processors.
  bool changed = false;
  for (ProcessorIndex i = 0; i < 6; ++i) {
    if (a.load(ProcessorRef{0, i}, SimTime::seconds(0.5)) !=
        a.load(ProcessorRef{0, i}, SimTime::seconds(4.5))) {
      changed = true;
    }
  }
  EXPECT_TRUE(changed);
}

TEST(AdaptiveTest, ValidatesOptions) {
  AdaptiveFixture f;
  AdaptiveOptions bad = f.adaptive;
  bad.check_interval = 0;
  EXPECT_THROW(execute_adaptive(testbed(), f.spec, f.placement, f.initial,
                                {}, bad),
               InvalidArgument);
  bad = f.adaptive;
  bad.imbalance_threshold = 1.0;
  EXPECT_THROW(execute_adaptive(testbed(), f.spec, f.placement, f.initial,
                                {}, bad),
               InvalidArgument);
}

}  // namespace
}  // namespace netpart
