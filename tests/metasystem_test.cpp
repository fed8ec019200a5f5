// Tests for the metasystem extension (relaxed assumption 1) and the
// messaged availability protocol.
#include <gtest/gtest.h>

#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "core/decompose.hpp"
#include "core/partitioner.hpp"
#include "exec/executor.hpp"
#include "mmps/manager_protocol.hpp"
#include "net/builder.hpp"
#include "net/presets.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "util/error.hpp"

namespace netpart {
namespace {

TEST(MetasystemTest, UnequalBandwidthRequiresRelaxation) {
  NetworkBuilder strict;
  strict.add_cluster_on("fast-net", presets::sparc2(), 4, 100e6,
                        SimTime::micros(10));
  strict.add_cluster("slow-net", presets::sun_ipc(), 4);
  EXPECT_THROW(strict.build(), InvalidArgument);

  NetworkBuilder relaxed;
  relaxed.relax_equal_bandwidth();
  relaxed.add_cluster_on("fast-net", presets::sparc2(), 4, 100e6,
                         SimTime::micros(10));
  relaxed.add_cluster("slow-net", presets::sun_ipc(), 4);
  const Network net = relaxed.build();
  EXPECT_DOUBLE_EQ(net.segment(0).bandwidth_bps, 100e6);
  EXPECT_DOUBLE_EQ(net.segment(1).bandwidth_bps, 10e6);
}

TEST(MetasystemTest, PresetIsValidAndFast) {
  const Network net = presets::metasystem();
  EXPECT_EQ(net.num_clusters(), 3);
  EXPECT_EQ(net.cluster_by_name("multicomputer").size(), 8);
  // The multicomputer's segment runs at 80 Mbit/s.
  EXPECT_DOUBLE_EQ(
      net.segment(net.cluster_by_name("multicomputer").segment())
          .bandwidth_bps,
      80e6);
}

TEST(MetasystemTest, CalibrationSeesTheFasterFabric) {
  const Network net = presets::metasystem();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  // Per-byte slope on the multicomputer fabric is far below ethernet's.
  EXPECT_LT(cal.db.comm_fit(0, Topology::OneD).c4,
            0.3 * cal.db.comm_fit(1, Topology::OneD).c4);
}

TEST(MetasystemTest, PartitionerSaturatesMulticomputerFirst) {
  const Network net = presets::metasystem();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 4800, .iterations = 10, .overlap = false});
  CycleEstimator est(net, cal.db, spec);
  const PartitionResult r = partition(est, snap);
  EXPECT_EQ(r.config[0], 8) << "multicomputer must be fully used first";
}

TEST(AvailabilityProtocolTest, MatchesDirectGather) {
  Network net = presets::fig1_network();
  net.cluster(0).processor(2).load = 0.8;
  net.cluster(1).processor(0).load = 0.5;
  const auto managers = make_managers(net, AvailabilityPolicy{});
  const AvailabilitySnapshot direct = gather_availability(net, managers);

  sim::Engine engine;
  sim::NetSim sim(engine, net, sim::NetSimParams{}, Rng(4));
  const mmps::ProtocolResult result =
      mmps::run_availability_protocol(sim, managers);
  EXPECT_EQ(result.snapshot.available, direct.available);
  // For k clusters the run delivers the ring (k-1) and the result (1)
  // tokens plus the acks of the k-1 ring hops; it ends when the initiator
  // holds the result, before the result's ack and the broadcast land.
  EXPECT_EQ(result.messages, 2u * 3u - 1u);
  EXPECT_GT(result.elapsed, SimTime::zero());
}

TEST(AvailabilityProtocolTest, OverheadSmallVersusComputation) {
  // The paper: "There is additional overhead required to determine the
  // available processors within each cluster but it is also small
  // relative to elapsed time."
  const Network net = presets::paper_testbed();
  const auto managers = make_managers(net, AvailabilityPolicy{});
  sim::Engine engine;
  sim::NetSim sim(engine, net, sim::NetSimParams{}, Rng(4));
  const mmps::ProtocolResult result =
      mmps::run_availability_protocol(sim, managers);
  // Stencil elapsed times are hundreds to thousands of ms.
  EXPECT_LT(result.elapsed.as_millis(), 20.0);
}

TEST(AvailabilityProtocolTest, SingleClusterNeedsNoMessages) {
  NetworkBuilder b;
  b.add_cluster("only", presets::sparc2(), 4);
  const Network net = b.build();
  const auto managers = make_managers(net, AvailabilityPolicy{});
  sim::Engine engine;
  sim::NetSim sim(engine, net, sim::NetSimParams{}, Rng(4));
  const mmps::ProtocolResult result =
      mmps::run_availability_protocol(sim, managers);
  EXPECT_EQ(result.messages, 0u);
  EXPECT_EQ(result.snapshot.available[0], 4);
}

// Pins the acknowledged ring's observable result -- snapshot, dead list,
// delivered messages and elapsed ns -- on fig1, the paper testbed, the
// random networks bench_protocol sweeps, and one crashed manager.
TEST(AvailabilityProtocolTest, ProtocolPinnedBitForBit) {
  struct Case {
    const char* name;
    Network net;
    std::uint64_t seed;
    bool crash_manager_1;
    std::vector<int> available;
    std::vector<ClusterId> dead;
    std::uint64_t messages;
    std::int64_t elapsed_ns;
  };
  const auto random_net = [](int k) {
    Rng rng(static_cast<std::uint64_t>(k) * 31);
    return presets::random_network(rng, k, 6);
  };
  const Case cases[] = {
      {"fig1", presets::fig1_network(), 4, false, {8, 4, 4}, {}, 5, 4422800},
      {"testbed", presets::paper_testbed(), 4, false, {6, 6}, {}, 3, 4447120},
      {"random k=2", random_net(2), 9, false, {5, 6}, {}, 3, 4539024},
      {"random k=3", random_net(3), 9, false, {6, 5, 4}, {}, 5, 4866072},
      {"random k=5", random_net(5), 9, false, {6, 3, 5, 3, 5}, {}, 9,
       12344520},
      {"random k=8", random_net(8), 9, false, {2, 3, 4, 3, 4, 5, 4, 2}, {},
       15, 18067288},
      {"fig1 manager 1 crashed", presets::fig1_network(), 2, true, {8, 0, 4},
       {1}, 3, 752921600},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    sim::FaultPlan plan;
    if (c.crash_manager_1) {
      plan.crashes.push_back({SimTime::zero(), ProcessorRef{1, 0}});
    }
    sim::Engine engine;
    sim::NetSim sim(engine, c.net, sim::NetSimParams{}, Rng(c.seed));
    sim::FaultInjector injector(sim, plan);
    injector.arm();
    const mmps::ProtocolResult result = mmps::run_availability_protocol(
        sim, make_managers(c.net, AvailabilityPolicy{}));
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.snapshot.available, c.available);
    EXPECT_EQ(result.dead, c.dead);
    EXPECT_EQ(result.messages, c.messages);
    EXPECT_EQ(result.elapsed.as_nanos(), c.elapsed_ns);
  }
}

TEST(ExecutorInstrumentationTest, IterationSeriesAndUtilisation) {
  const Network net = presets::paper_testbed();
  const apps::StencilConfig cfg{.n = 300, .iterations = 10,
                                .overlap = false};
  const ComputationSpec spec = apps::make_stencil_spec(cfg);
  const ProcessorConfig config{6, 0};
  const Placement placement = contiguous_placement(net, config);
  const PartitionVector part =
      balanced_partition(net, config, clusters_by_speed(net), cfg.n);
  const ExecutionResult r = execute(net, spec, placement, part, {});

  ASSERT_EQ(r.iteration_finish.size(), 10u);
  // Monotone, ending at the elapsed time.
  for (std::size_t i = 1; i < r.iteration_finish.size(); ++i) {
    EXPECT_GT(r.iteration_finish[i], r.iteration_finish[i - 1]);
  }
  EXPECT_EQ(r.iteration_finish.back(), r.elapsed);
  // Steady state: later cycle times within 25% of each other.
  const double c5 = (r.iteration_finish[5] - r.iteration_finish[4])
                        .as_millis();
  const double c9 = (r.iteration_finish[9] - r.iteration_finish[8])
                        .as_millis();
  EXPECT_NEAR(c5, c9, 0.25 * c5);

  ASSERT_EQ(r.segment_busy.size(), 2u);
  // Only the Sparc2 segment carries traffic; N=300 on 6 processors is
  // channel-bound there (utilisation near 1).
  EXPECT_EQ(r.segment_busy[1], SimTime::zero());
  EXPECT_GT(r.segment_busy[0].as_millis(), 0.6 * r.elapsed.as_millis());
  EXPECT_LE(r.segment_busy[0], r.elapsed);
}

}  // namespace
}  // namespace netpart
