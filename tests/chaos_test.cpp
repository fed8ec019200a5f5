// Chaos tier: the full pipeline under seeded random fault schedules.
//
// Each seed drives one reproducible scenario through the whole stack:
//
//   1. control plane -- the fault-tolerant availability protocol runs while
//      hosts crash and processors are revoked; it must terminate within its
//      sim-time budget, report crashed managers as dead, and agree with a
//      direct availability query for every surviving cluster;
//   2. partitioning  -- the survivor placement built from the post-fault
//      availability must never land a rank on a crashed or revoked host;
//   3. data plane    -- the distributed stencil runs under performance
//      faults (slowdowns, segment flaps, degradations); the numerics must
//      stay bit-identical to the sequential reference;
//   4. adaptation    -- the adaptive executor runs under open-ended
//      slowdowns and its recovered partition must land within a documented
//      bound of the oracle re-partition for the effective speeds.
//
// Any failure reproduces from a single integer: the seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "apps/stencil.hpp"
#include "core/decompose.hpp"
#include "exec/adaptive.hpp"
#include "exec/executor.hpp"
#include "mmps/manager_protocol.hpp"
#include "net/availability.hpp"
#include "net/builder.hpp"
#include "net/presets.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/telemetry.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/netsim.hpp"
#include "topo/placement.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace netpart {
namespace {

constexpr int kSeeds = 20;

/// Upper bound on evaluate_recovery().ratio for the adaptive runs below.
/// The oracle knows the exact post-fault speeds; the executor only sees
/// noisy per-chunk busy times (which fold in messaging and the pre-fault
/// part of the chunk the slowdown landed in), so perfect recovery is not
/// attainable.  Empirically the 20 seeds stay well under this.
constexpr double kRecoveryBound = 1.5;

/// Fail-stop plan for the control-plane phase: crashes and revocations land
/// at t=0 (control_horizon zero) so the hosts are already dead before the
/// first token can arrive -- a manager crashing mid-protocol may
/// legitimately forward the token first and escape detection.  One short
/// flap exercises the ack retry path without exceeding it
/// (flap < ack_timeout * max_attempts).
sim::FaultPlan control_plan(std::uint64_t seed, const Network& net) {
  sim::ChaosOptions options;
  options.crashes = 2;
  options.revocations = 2;
  options.slowdowns = 0;
  options.flaps = 1;
  options.degrades = 0;
  options.control_horizon = SimTime::zero();
  options.horizon = SimTime::millis(50);
  options.max_flap = SimTime::millis(100);
  return sim::ChaosRng(seed).make_plan(net, options);
}

/// Performance-only plan for the data-plane phase: nothing crashes, so
/// every message is eventually delivered and the numerics are exact.
sim::FaultPlan perf_plan(std::uint64_t seed, const Network& net) {
  sim::ChaosOptions options;
  options.crashes = 0;
  options.revocations = 0;
  options.slowdowns = 2;
  options.flaps = 1;
  options.degrades = 1;
  options.horizon = SimTime::millis(80);
  options.max_flap = SimTime::millis(60);
  return sim::ChaosRng(seed).make_plan(net, options);
}

/// Clusters whose manager host (index 0) the plan crashes.
std::vector<ClusterId> crashed_managers(const sim::FaultPlan& plan,
                                        const Network& net) {
  std::vector<ClusterId> dead;
  for (ClusterId c = 1; c < net.num_clusters(); ++c) {
    if (plan.crashed_by(ProcessorRef{c, 0}, SimTime::max())) {
      dead.push_back(c);
    }
  }
  return dead;
}

class ChaosPipelineTest : public ::testing::TestWithParam<std::uint64_t> {};

// ------------------------------------------------------- control plane

TEST_P(ChaosPipelineTest, ProtocolTerminatesAndReportsDeadManagers) {
  const std::uint64_t seed = GetParam();
  Network net = presets::paper_testbed();
  const sim::FaultPlan plan = control_plan(seed, net);

  // Fold the fail-stop faults into the availability view first: the
  // managers' own counts must already exclude crashed/revoked processors.
  apply_churn_to_network(net, plan.churn_events(), SimTime::max());

  sim::Engine engine;
  sim::NetSim sim(engine, net, {}, Rng(seed));
  sim::FaultInjector injector(sim, plan);
  injector.arm();

  const std::vector<ClusterManager> managers = make_managers(net, {});
  const mmps::ProtocolOptions options{};
  const mmps::ProtocolResult result =
      mmps::run_availability_protocol(sim, managers, options);

  // Bounded: the run never exceeds its budget, crashed peers or not.
  EXPECT_LE(result.elapsed, options.budget) << "seed " << seed;
  EXPECT_TRUE(result.completed) << "seed " << seed;

  // Every crashed manager is reported dead with zero availability; every
  // surviving cluster's count matches a direct threshold query.
  const std::vector<ClusterId> expected_dead = crashed_managers(plan, net);
  EXPECT_EQ(result.dead, expected_dead) << "seed " << seed;
  for (ClusterId c = 0; c < net.num_clusters(); ++c) {
    const auto i = static_cast<std::size_t>(c);
    const bool dead = std::find(expected_dead.begin(), expected_dead.end(),
                                c) != expected_dead.end();
    if (dead) {
      EXPECT_EQ(result.snapshot.available[i], 0) << "seed " << seed;
    } else {
      EXPECT_EQ(result.snapshot.available[i],
                managers[i].available(net))
          << "seed " << seed << " cluster " << c;
    }
  }
}

// ------------------------------------- partitioning from the survivors

TEST_P(ChaosPipelineTest, SurvivorPlacementAvoidsFaultedHosts) {
  const std::uint64_t seed = GetParam();
  Network net = presets::paper_testbed();
  const sim::FaultPlan plan = control_plan(seed, net);
  apply_churn_to_network(net, plan.churn_events(), SimTime::max());

  const std::vector<ClusterManager> managers = make_managers(net, {});
  const std::vector<ClusterId> dead = crashed_managers(plan, net);

  ProcessorConfig config(static_cast<std::size_t>(net.num_clusters()), 0);
  std::vector<std::vector<ProcessorIndex>> available(
      static_cast<std::size_t>(net.num_clusters()));
  for (ClusterId c = 0; c < net.num_clusters(); ++c) {
    const auto i = static_cast<std::size_t>(c);
    if (std::find(dead.begin(), dead.end(), c) != dead.end()) {
      continue;  // a dead manager takes its whole cluster out of the pool
    }
    available[i] = managers[i].available_indices(net);
    config[i] = static_cast<int>(available[i].size());
  }
  // The spared initiator host guarantees a non-empty pool.
  ASSERT_GT(config_total(config), 0) << "seed " << seed;

  const std::vector<ClusterId> order = clusters_by_speed(net);
  const Placement placement =
      available_placement(net, config, available, order);
  ASSERT_EQ(static_cast<int>(placement.size()), config_total(config));
  for (const ProcessorRef& ref : placement) {
    EXPECT_FALSE(plan.crashed_by(ref, SimTime::max()))
        << "seed " << seed << " placed a rank on crashed host ("
        << ref.cluster << "," << ref.index << ")";
  }

  // The survivors can actually run: the stencil executes on this placement
  // with the same plan armed (crashes predate fault_origin, so only the
  // performance effects remain) and reproduces the sequential numerics.
  const apps::StencilConfig cfg{.n = 96, .iterations = 4};
  const PartitionVector partition =
      balanced_partition(net, config, order, cfg.n);
  const apps::DistributedStencilResult run = apps::run_distributed_stencil(
      net, placement, partition, cfg, {}, &plan, SimTime::millis(10));
  EXPECT_EQ(run.grid, apps::run_sequential(cfg)) << "seed " << seed;
}

// ------------------------------------------------------------ data plane

TEST_P(ChaosPipelineTest, StencilNumericsSurvivePerformanceFaults) {
  const std::uint64_t seed = GetParam();
  const Network net = presets::paper_testbed();
  const sim::FaultPlan plan = perf_plan(seed, net);

  const ProcessorConfig config{4, 3};
  const std::vector<ClusterId> order = clusters_by_speed(net);
  const Placement placement = contiguous_placement(net, config, order);
  const apps::StencilConfig cfg{.n = 192, .iterations = 6};
  const PartitionVector partition =
      balanced_partition(net, config, order, cfg.n);

  const apps::DistributedStencilResult benign =
      apps::run_distributed_stencil(net, placement, partition, cfg);
  const apps::DistributedStencilResult faulted =
      apps::run_distributed_stencil(net, placement, partition, cfg, {},
                                    &plan);

  // Performance faults delay the run but never corrupt it.
  EXPECT_EQ(faulted.grid, apps::run_sequential(cfg)) << "seed " << seed;
  EXPECT_GE(faulted.elapsed, benign.elapsed) << "seed " << seed;
}

// ------------------------------------------------------------ adaptation

TEST_P(ChaosPipelineTest, AdaptiveRecoveryWithinBoundOfOracle) {
  const std::uint64_t seed = GetParam();
  const Network net = presets::paper_testbed();
  const apps::StencilConfig cfg{.n = 600, .iterations = 30};
  const ComputationSpec spec = apps::make_stencil_spec(cfg);
  const ProcessorConfig config{6, 0};
  const std::vector<ClusterId> order = clusters_by_speed(net);
  const Placement placement = contiguous_placement(net, config, order);
  const PartitionVector initial =
      balanced_partition(net, config, order, cfg.n);

  AdaptiveOptions adaptive;
  adaptive.check_interval = 3;
  adaptive.imbalance_threshold = 1.25;
  adaptive.pdu_bytes = 4 * cfg.n;

  // Baseline elapsed time sets the fault horizon: the slowdowns land in
  // the first quarter of the run so the executor has room to recover.
  ExecutionOptions benign;
  benign.seed = seed;
  const AdaptiveResult baseline = execute_static_chunked(
      net, spec, placement, initial, benign, adaptive);
  ASSERT_GT(baseline.elapsed, SimTime::zero());

  sim::ChaosOptions chaos;
  chaos.crashes = 0;
  chaos.revocations = 0;
  chaos.slowdowns = 2;
  chaos.flaps = 0;
  chaos.degrades = 0;
  chaos.horizon = baseline.elapsed * 0.25;
  chaos.max_slowdown = 3.0;
  chaos.open_ended_slowdowns = true;
  const sim::FaultPlan plan = sim::ChaosRng(seed).make_plan(net, chaos);

  ExecutionOptions faulted = benign;
  faulted.faults = &plan;
  const AdaptiveResult result = execute_adaptive(
      net, spec, placement, initial, faulted, adaptive);

  // The slowdown onsets land inside chunk windows, so at least one
  // repartition must have been fault-forced, and its timestamp must lie
  // within the run.
  EXPECT_GE(result.fault_responses, 1) << "seed " << seed;
  EXPECT_LE(result.first_fault_response, result.elapsed) << "seed " << seed;

  // Effective per-PDU time of each rank once every (open-ended) slowdown
  // is active: nominal flop time x ops per PDU x fault multiplier.
  const double ops =
      static_cast<double>(spec.computation_phases()[0].ops_per_pdu());
  std::vector<double> ms_per_pdu;
  ms_per_pdu.reserve(placement.size());
  for (const ProcessorRef& ref : placement) {
    const double nominal =
        net.cluster(ref.cluster).type().flop_time.as_millis() * ops;
    ms_per_pdu.push_back(nominal *
                         plan.slowdown_at(ref, SimTime::seconds(1000000)));
  }

  const RecoveryReport report =
      evaluate_recovery(result.final_partition, ms_per_pdu);
  EXPECT_LE(report.ratio, kRecoveryBound)
      << "seed " << seed << ": achieved " << report.achieved_ms
      << "ms vs oracle " << report.oracle_ms << "ms (partition "
      << result.final_partition.to_string() << " vs oracle "
      << report.oracle.to_string() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosPipelineTest,
                         ::testing::Range<std::uint64_t>(1, kSeeds + 1));

// ------------------------------------------------- directed protocol tests

TEST(FaultTolerantProtocolTest, MatchesDirectGatherWithoutFaults) {
  const Network net = presets::paper_testbed();
  const std::vector<ClusterManager> managers = make_managers(net, {});

  sim::Engine engine;
  sim::NetSim sim(engine, net, {}, Rng(1));
  const mmps::ProtocolResult result =
      mmps::run_availability_protocol(sim, managers);

  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.dead.empty());
  EXPECT_EQ(result.snapshot.available,
            gather_availability(net, managers).available);
}

TEST(FaultTolerantProtocolTest, CrashedManagerIsDeclaredDeadAfterRetries) {
  const Network net = presets::paper_testbed();
  sim::FaultPlan plan;
  plan.crashes.push_back({SimTime::zero(), ProcessorRef{1, 0}});

  sim::Engine engine;
  sim::NetSim sim(engine, net, {}, Rng(2));
  sim::FaultInjector injector(sim, plan);
  injector.arm();

  const std::vector<ClusterManager> managers = make_managers(net, {});
  mmps::ProtocolOptions options;
  options.ack_timeout = SimTime::millis(100);
  options.max_attempts = 3;
  const mmps::ProtocolResult result =
      mmps::run_availability_protocol(sim, managers, options);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.dead, std::vector<ClusterId>{1});
  EXPECT_EQ(result.snapshot.available[1], 0);
  EXPECT_EQ(result.snapshot.available[0], managers[0].available(net));
  // Declaring the peer dead costs max_attempts ack timeouts.
  EXPECT_GE(result.elapsed, options.ack_timeout * 3.0);
  EXPECT_LE(result.elapsed, options.budget);
}

TEST(FaultTolerantProtocolTest, SurvivesTransientFlapViaRetry) {
  const Network net = presets::paper_testbed();
  sim::FaultPlan plan;
  // Both segments go dark briefly; the retries ride it out and nobody is
  // misdeclared dead.
  plan.flaps.push_back({SimTime::zero(), SimTime::millis(150), 0});
  plan.flaps.push_back({SimTime::zero(), SimTime::millis(150), 1});

  sim::Engine engine;
  sim::NetSim sim(engine, net, {}, Rng(3));
  sim::FaultInjector injector(sim, plan);
  injector.arm();

  const std::vector<ClusterManager> managers = make_managers(net, {});
  mmps::ProtocolOptions options;
  options.ack_timeout = SimTime::millis(100);
  options.max_attempts = 5;
  const mmps::ProtocolResult result =
      mmps::run_availability_protocol(sim, managers, options);

  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.dead.empty());
  EXPECT_EQ(result.snapshot.available[0], managers[0].available(net));
  EXPECT_EQ(result.snapshot.available[1], managers[1].available(net));
  EXPECT_GE(result.elapsed, SimTime::millis(150));
}

TEST(FaultTolerantProtocolTest, TwoAdjacentDeathsInOneTokenRoundBothReported) {
  // Two managers that are consecutive in token order crash before the
  // round starts.  The initiator must ride out max_attempts timeouts for
  // EACH of them back to back -- the second probe starts from a state where
  // a peer was just declared dead -- and the final report must name both,
  // with the survivors' availability intact.  This is the exact shape the
  // fleet's report_dead_peers consumes after a multi-node outage.
  NetworkBuilder b;
  b.add_cluster("a", presets::sparc2(), 2);
  b.add_cluster("b", presets::sparc2(), 2);
  b.add_cluster("c", presets::sparc2(), 2);
  b.add_cluster("d", presets::sparc2(), 2);
  const Network net = b.build();

  sim::FaultPlan plan;
  plan.crashes.push_back({SimTime::zero(), ProcessorRef{1, 0}});
  plan.crashes.push_back({SimTime::zero(), ProcessorRef{2, 0}});

  sim::Engine engine;
  sim::NetSim sim(engine, net, {}, Rng(7));
  sim::FaultInjector injector(sim, plan);
  injector.arm();

  const std::vector<ClusterManager> managers = make_managers(net, {});
  mmps::ProtocolOptions options;
  options.ack_timeout = SimTime::millis(100);
  options.max_attempts = 3;
  const mmps::ProtocolResult result =
      mmps::run_availability_protocol(sim, managers, options);

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.dead, (std::vector<ClusterId>{1, 2}));
  EXPECT_EQ(result.snapshot.available[1], 0);
  EXPECT_EQ(result.snapshot.available[2], 0);
  EXPECT_EQ(result.snapshot.available[0], managers[0].available(net));
  EXPECT_EQ(result.snapshot.available[3], managers[3].available(net));
  // Each death costs its own max_attempts ack timeouts; they cannot be
  // amortised into one detection.
  EXPECT_GE(result.elapsed, options.ack_timeout * 6.0);
}

TEST(FaultTolerantProtocolTest, BudgetBoundsARunThatCannotComplete) {
  const Network net = presets::paper_testbed();
  sim::FaultPlan plan;
  // A permanent partition of both segments, and a budget too small even to
  // declare the unreachable peer dead: the run must stop at the budget and
  // report itself incomplete instead of hanging.
  plan.flaps.push_back({SimTime::zero(), SimTime::max(), 0});
  plan.flaps.push_back({SimTime::zero(), SimTime::max(), 1});

  sim::Engine engine;
  sim::NetSim sim(engine, net, {}, Rng(4));
  sim::FaultInjector injector(sim, plan);
  injector.arm();

  const std::vector<ClusterManager> managers = make_managers(net, {});
  mmps::ProtocolOptions options;
  options.ack_timeout = SimTime::millis(100);
  options.max_attempts = 2;
  options.budget = SimTime::millis(150);
  const mmps::ProtocolResult result =
      mmps::run_availability_protocol(sim, managers, options);

  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.elapsed, options.budget);
}

// ------------------------------------------------------------- telemetry

TEST(ChaosTraceExportTest, FaultEventsAppearInExportedTrace) {
  // One representative seed end-to-end: a faulted execution recorded into
  // a registry and exported as Chrome trace JSON must show the plan's
  // performance faults as instant events alongside the message spans --
  // the observability contract for debugging chaos runs.
  const Network net = presets::paper_testbed();
  const sim::FaultPlan plan = perf_plan(/*seed=*/3, net);
  ASSERT_FALSE(plan.slowdowns.empty());

  const ProcessorConfig config{4, 3};
  const std::vector<ClusterId> order = clusters_by_speed(net);
  const Placement placement = contiguous_placement(net, config, order);
  const apps::StencilConfig cfg{.n = 192, .iterations = 6};
  const PartitionVector partition =
      balanced_partition(net, config, order, cfg.n);
  const ComputationSpec spec = apps::make_stencil_spec(cfg);

  obs::TelemetryRegistry registry;
  ExecutionOptions options;
  options.faults = &plan;
  options.telemetry = &registry;
  (void)execute(net, spec, placement, partition, options);

  const JsonValue parsed =
      JsonValue::parse(obs::chrome_trace_json(registry).dump(1));
  const JsonValue* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::set<std::string> instant_names;
  std::size_t msg_spans = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    const std::string ph = e.find("ph")->as_string();
    if (ph == "i") instant_names.insert(e.find("name")->as_string());
    if (ph == "X" && e.find("name")->as_string() == "msg") ++msg_spans;
  }
  EXPECT_GT(msg_spans, 0u);
  EXPECT_TRUE(instant_names.count("host-slow") == 1 ||
              instant_names.count("seg-degrade") == 1 ||
              instant_names.count("chan-down") == 1)
      << "no fault instants in the exported trace";
}

}  // namespace
}  // namespace netpart
