// Unit tests for the fault-injection subsystem: FaultPlan semantics,
// ChaosRng reproducibility, FaultInjector behaviour on the simulator, and
// the availability-churn plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/availability.hpp"
#include "net/presets.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/telemetry.hpp"
#include "sim/faults.hpp"
#include "sim/netsim.hpp"
#include "topo/placement.hpp"
#include "util/error.hpp"

namespace netpart::sim {
namespace {

Network testbed() { return presets::paper_testbed(); }

std::size_t count_instants(const obs::TelemetryRegistry& reg,
                           const std::string& name) {
  std::size_t n = 0;
  for (const obs::InstantRecord& i : reg.instants()) {
    if (i.name == name) ++n;
  }
  return n;
}

// ---------------------------------------------------------- plan queries

TEST(FaultPlanTest, CrashedByIsPermanentFromCrashTime) {
  FaultPlan plan;
  plan.crashes.push_back({SimTime::millis(5), ProcessorRef{1, 2}});
  EXPECT_FALSE(plan.crashed_by(ProcessorRef{1, 2}, SimTime::millis(4)));
  EXPECT_TRUE(plan.crashed_by(ProcessorRef{1, 2}, SimTime::millis(5)));
  EXPECT_TRUE(plan.crashed_by(ProcessorRef{1, 2}, SimTime::seconds(100)));
  EXPECT_FALSE(plan.crashed_by(ProcessorRef{1, 3}, SimTime::seconds(100)));
}

TEST(FaultPlanTest, SlowdownWindowsAreHalfOpenAndCompose) {
  FaultPlan plan;
  plan.slowdowns.push_back(
      {SimTime::millis(10), SimTime::millis(20), ProcessorRef{0, 0}, 2.0});
  plan.slowdowns.push_back(
      {SimTime::millis(15), SimTime::millis(30), ProcessorRef{0, 0}, 3.0});
  EXPECT_DOUBLE_EQ(plan.slowdown_at(ProcessorRef{0, 0}, SimTime::millis(9)),
                   1.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_at(ProcessorRef{0, 0}, SimTime::millis(10)),
                   2.0);
  // Overlap multiplies; the first window's end is exclusive.
  EXPECT_DOUBLE_EQ(plan.slowdown_at(ProcessorRef{0, 0}, SimTime::millis(15)),
                   6.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_at(ProcessorRef{0, 0}, SimTime::millis(20)),
                   3.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_at(ProcessorRef{0, 0}, SimTime::millis(30)),
                   1.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_at(ProcessorRef{0, 1}, SimTime::millis(15)),
                   1.0);
}

TEST(FaultPlanTest, ChannelAndDegradeWindows) {
  FaultPlan plan;
  plan.flaps.push_back({SimTime::millis(1), SimTime::millis(2), 0});
  plan.degrades.push_back({SimTime::millis(1), SimTime::millis(3), 1, 4.0});
  EXPECT_TRUE(plan.channel_down_at(0, SimTime::millis(1)));
  EXPECT_FALSE(plan.channel_down_at(0, SimTime::millis(2)));
  EXPECT_FALSE(plan.channel_down_at(1, SimTime::millis(1)));
  EXPECT_DOUBLE_EQ(plan.degradation_at(1, SimTime::millis(2)), 4.0);
  EXPECT_DOUBLE_EQ(plan.degradation_at(1, SimTime::millis(3)), 1.0);
  EXPECT_DOUBLE_EQ(plan.degradation_at(0, SimTime::millis(2)), 1.0);
}

TEST(FaultPlanTest, DisturbsDetectsBoundariesInWindow) {
  FaultPlan plan;
  plan.crashes.push_back({SimTime::millis(50), ProcessorRef{0, 1}});
  plan.slowdowns.push_back(
      {SimTime::millis(100), SimTime::max(), ProcessorRef{1, 0}, 2.0});
  EXPECT_TRUE(plan.disturbs(SimTime::millis(40), SimTime::millis(60)));
  EXPECT_TRUE(plan.disturbs(SimTime::millis(40), SimTime::millis(50)));
  EXPECT_FALSE(plan.disturbs(SimTime::millis(50), SimTime::millis(90)));
  EXPECT_TRUE(plan.disturbs(SimTime::millis(90), SimTime::millis(100)));
  // The open slowdown end (SimTime::max) is never a boundary.
  EXPECT_FALSE(plan.disturbs(SimTime::millis(101), SimTime::max()));
}

TEST(FaultPlanTest, ChurnEventsIncludeCrashesAsRevocations) {
  FaultPlan plan;
  plan.crashes.push_back({SimTime::millis(5), ProcessorRef{1, 2}});
  plan.churn.push_back(
      {SimTime::millis(1), ProcessorRef{0, 3}, ChurnEvent::Kind::Revoke});
  const std::vector<ChurnEvent> events = plan.churn_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].ref, (ProcessorRef{1, 2}));
  EXPECT_EQ(events[1].kind, ChurnEvent::Kind::Revoke);
  EXPECT_EQ(events[1].at, SimTime::millis(5));
}

TEST(FaultPlanTest, ValidateRejectsBadPlans) {
  const Network net = testbed();
  {
    FaultPlan plan;
    plan.crashes.push_back({SimTime::zero(), ProcessorRef{9, 0}});
    EXPECT_THROW(plan.validate(net), InvalidArgument);
  }
  {
    FaultPlan plan;
    plan.slowdowns.push_back(
        {SimTime::millis(5), SimTime::millis(2), ProcessorRef{0, 0}, 2.0});
    EXPECT_THROW(plan.validate(net), InvalidArgument);
  }
  {
    FaultPlan plan;
    plan.slowdowns.push_back(
        {SimTime::millis(1), SimTime::millis(2), ProcessorRef{0, 0}, 0.5});
    EXPECT_THROW(plan.validate(net), InvalidArgument);
  }
  {
    FaultPlan plan;
    plan.flaps.push_back({SimTime::millis(1), SimTime::millis(2), 7});
    EXPECT_THROW(plan.validate(net), InvalidArgument);
  }
}

TEST(FaultPlanTest, DescribeIsSortedAndOrderIndependent) {
  FaultPlan a;
  a.crashes.push_back({SimTime::millis(7), ProcessorRef{1, 1}});
  a.flaps.push_back({SimTime::millis(2), SimTime::millis(4), 0});

  FaultPlan b;
  b.flaps.push_back({SimTime::millis(2), SimTime::millis(4), 0});
  b.crashes.push_back({SimTime::millis(7), ProcessorRef{1, 1}});

  EXPECT_EQ(a.describe(), b.describe());
  // Sorted by time: the flap line comes first.
  EXPECT_LT(a.describe().find("flap"), a.describe().find("crash"));
}

// -------------------------------------------------------------- ChaosRng

TEST(ChaosRngTest, SameSeedSamePlan) {
  const Network net = testbed();
  ChaosOptions options;
  options.control_horizon = SimTime::millis(50);
  const FaultPlan p1 = ChaosRng(42).make_plan(net, options);
  const FaultPlan p2 = ChaosRng(42).make_plan(net, options);
  EXPECT_EQ(p1.describe(), p2.describe());
  EXPECT_FALSE(p1.empty());
  EXPECT_NE(p1.describe(), ChaosRng(43).make_plan(net, options).describe());
}

TEST(ChaosRngTest, ConsecutivePlansDiffer) {
  const Network net = testbed();
  ChaosRng rng(7);
  EXPECT_NE(rng.make_plan(net).describe(), rng.make_plan(net).describe());
}

TEST(ChaosRngTest, NeverTouchesSparedHost) {
  const Network net = testbed();
  ChaosOptions options;
  options.crashes = 3;
  options.revocations = 3;
  options.control_horizon = SimTime::millis(100);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const FaultPlan plan = ChaosRng(seed).make_plan(net, options);
    for (const auto& c : plan.crashes) {
      EXPECT_NE(c.host, options.spared) << "seed " << seed;
    }
    for (const auto& e : plan.churn) {
      EXPECT_NE(e.ref, options.spared) << "seed " << seed;
    }
    plan.validate(net);
  }
}

TEST(ChaosRngTest, LeavesSurvivorsForThePartitioner) {
  // Even when asked for more fail-stop faults than hosts exist, at least
  // one non-spared processor must stay untouched.
  const Network net = testbed();
  ChaosOptions options;
  options.crashes = 100;
  options.revocations = 100;
  const FaultPlan plan = ChaosRng(3).make_plan(net, options);
  const int total_hosts = 12;
  EXPECT_LT(static_cast<int>(plan.crashes.size() + plan.churn.size()),
            total_hosts - 1);
}

// --------------------------------------------------------- FaultInjector

TEST(FaultInjectorTest, CrashedHostDropsTraffic) {
  const Network net = testbed();
  Engine engine;
  NetSim sim(engine, net, NetSimParams{}, Rng(1));
  obs::TelemetryRegistry reg;
  sim.set_telemetry(&reg);

  FaultPlan plan;
  plan.crashes.push_back({SimTime::millis(200), ProcessorRef{1, 1}});
  FaultInjector injector(sim, plan);
  injector.arm();

  int delivered_to_dead = 0;
  int delivered_before = 0;
  // Sent at t=0, delivered well before the 200ms crash: arrives.
  sim.send(ProcessorRef{1, 0}, ProcessorRef{1, 1}, 16,
           [&] { ++delivered_before; });
  engine.run();
  EXPECT_EQ(delivered_before, 1);
  EXPECT_EQ(engine.now() >= SimTime::millis(200), true);

  // After the crash: traffic to and from the dead host vanishes.
  sim.send(ProcessorRef{1, 0}, ProcessorRef{1, 1}, 16,
           [&] { ++delivered_to_dead; });
  sim.send(ProcessorRef{1, 1}, ProcessorRef{1, 0}, 16,
           [&] { ++delivered_to_dead; });
  engine.run();
  EXPECT_EQ(delivered_to_dead, 0);
  EXPECT_EQ(sim.messages_dropped(), 2u);
  EXPECT_EQ(reg.counter("sim.messages_dropped").value(),
            sim.messages_dropped());
  EXPECT_EQ(count_instants(reg, "host-crash"), 1u);
  EXPECT_EQ(count_instants(reg, "dropped"), 2u);

  // The crash event carries the host and the exact time.
  for (const obs::InstantRecord& e : reg.instants()) {
    if (e.name == "host-crash") {
      ASSERT_FALSE(e.attrs.empty());
      EXPECT_EQ(e.attrs[0].first, "src");
      EXPECT_EQ(e.attrs[0].second.as_string(), "(1,1)");
      EXPECT_DOUBLE_EQ(e.ts_us, SimTime::millis(200).as_micros());
    }
  }
}

TEST(FaultInjectorTest, SlowdownStretchesHostReservations) {
  Host host;
  EXPECT_EQ(host.reserve(SimTime::zero(), SimTime::millis(10)),
            SimTime::millis(10));
  host.set_slowdown(2.0);
  EXPECT_EQ(host.reserve(SimTime::millis(10), SimTime::millis(10)),
            SimTime::millis(30));
  host.set_slowdown(1.0);
  EXPECT_EQ(host.reserve(SimTime::millis(30), SimTime::millis(10)),
            SimTime::millis(40));
  EXPECT_THROW(host.set_slowdown(0.9), InvalidArgument);
}

TEST(FaultInjectorTest, DegradationStretchesChannelOccupancy) {
  Channel ch(10e6, SimTime::micros(50));
  ch.set_degradation(2.0);
  const ChannelGrant g = ch.reserve(SimTime::zero(), SimTime::millis(2));
  EXPECT_EQ(g.end, SimTime::millis(4));
  EXPECT_THROW(ch.set_degradation(0.0), InvalidArgument);
}

TEST(FaultInjectorTest, FlapForcesRetransmissionThenRecovers) {
  const Network net = testbed();
  Engine engine;
  NetSim sim(engine, net, NetSimParams{}, Rng(1));
  obs::TelemetryRegistry reg;
  sim.set_telemetry(&reg);

  FaultPlan plan;
  // Segment 0 partitioned for the first 100ms.
  plan.flaps.push_back({SimTime::zero(), SimTime::millis(100), 0});
  FaultInjector injector(sim, plan);
  injector.arm();

  int delivered = 0;
  SimTime delivered_at;
  sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 64, [&] {
    ++delivered;
    delivered_at = engine.now();
  });
  engine.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_GT(delivered_at, SimTime::millis(100));
  EXPECT_GT(sim.retransmissions(), 0u);
  EXPECT_EQ(count_instants(reg, "chan-down"), 1u);
  EXPECT_EQ(count_instants(reg, "chan-up"), 1u);
  EXPECT_GT(count_instants(reg, "lost"), 0u);
}

TEST(FaultInjectorTest, GiveUpAfterMaxRoundsInsteadOfHangingOrAsserting) {
  const Network net = testbed();
  Engine engine;
  NetSimParams params;
  params.max_retransmit_rounds = 3;
  params.give_up_after_max_rounds = true;
  NetSim sim(engine, net, params, Rng(1));

  FaultPlan plan;
  // Down for far longer than 3 RTO rounds can ride out.
  plan.flaps.push_back({SimTime::zero(), SimTime::seconds(10), 0});
  FaultInjector injector(sim, plan);
  injector.arm();

  int delivered = 0;
  sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 64, [&] { ++delivered; });
  engine.run();  // must terminate
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(sim.messages_dropped(), 1u);
}

TEST(FaultInjectorTest, OriginShiftsAndClampsPlanTimes) {
  const Network net = testbed();
  Engine engine;
  NetSim sim(engine, net, NetSimParams{}, Rng(1));

  FaultPlan plan;
  plan.crashes.push_back({SimTime::millis(5), ProcessorRef{1, 1}});
  plan.slowdowns.push_back({SimTime::millis(1), SimTime::millis(8),
                            ProcessorRef{0, 0}, 3.0});
  // Origin past the slowdown window: it must not be applied at all; the
  // crash (absolute t=5ms <= origin) applies immediately.
  FaultInjector injector(sim, plan, SimTime::millis(10));
  injector.arm();
  engine.run();
  EXPECT_FALSE(sim.host(ProcessorRef{1, 1}).alive());
  EXPECT_DOUBLE_EQ(sim.host(ProcessorRef{0, 0}).slowdown(), 1.0);
}

TEST(FaultInjectorTest, SecondArmIsAnError) {
  const Network net = testbed();
  Engine engine;
  NetSim sim(engine, net, NetSimParams{}, Rng(1));
  FaultPlan plan;
  plan.crashes.push_back({SimTime::millis(1), ProcessorRef{1, 1}});
  FaultInjector injector(sim, plan);
  injector.arm();
  EXPECT_THROW(injector.arm(), InvalidArgument);
}

// ------------------------------------------------- determinism regression

/// Full stream fingerprint of one chaos scenario: generated plan, injected
/// faults, and background traffic, all rendered as the registry's
/// Chrome-trace export.
std::string chaos_fingerprint(std::uint64_t seed) {
  const Network net = presets::paper_testbed();
  ChaosOptions options;
  options.control_horizon = SimTime::millis(20);
  options.horizon = SimTime::millis(200);
  options.max_flap = SimTime::millis(120);
  const FaultPlan plan = ChaosRng(seed).make_plan(net, options);

  Engine engine;
  NetSimParams params;
  params.loss_rate = 0.02;
  params.give_up_after_max_rounds = true;
  NetSim sim(engine, net, params, Rng(seed ^ 0x9E3779B97F4A7C15ull));
  obs::TelemetryRegistry reg;
  sim.set_telemetry(&reg);
  FaultInjector injector(sim, plan);
  injector.arm();

  // Background traffic across both segments, staggered over the horizon.
  Rng traffic(seed);
  for (int i = 0; i < 40; ++i) {
    const ProcessorRef src{static_cast<ClusterId>(i % 2),
                           static_cast<ProcessorIndex>(i % 6)};
    const ProcessorRef dst{static_cast<ClusterId>((i + 1) % 2),
                           static_cast<ProcessorIndex>((i + 3) % 6)};
    const SimTime at = SimTime::millis(5.0 * i);
    const std::int64_t bytes = traffic.next_int(1, 4000);
    engine.schedule_at(at, [&sim, src, dst, bytes] {
      sim.send(src, dst, bytes, [] {});
    });
  }
  engine.run();
  return plan.describe() + "----\n" + obs::chrome_trace_json(reg).dump(1);
}

TEST(FaultDeterminismTest, SameSeedByteIdenticalEventStream) {
  // Across the seeds, every event kind rides in the fingerprint.
  std::string all;
  for (std::uint64_t seed : {1ull, 7ull, 23ull}) {
    const std::string first = chaos_fingerprint(seed);
    const std::string second = chaos_fingerprint(seed);
    EXPECT_EQ(first, second) << "seed " << seed;
    all += first;
  }
  for (const char* kind :
       {"msg", "leg", "lost", "dropped", "host-crash", "host-slow",
        "host-restore", "chan-down", "chan-up", "seg-degrade", "seg-restore",
        "proc-revoke"}) {
    std::string quoted = "\"";
    quoted += kind;
    quoted += '"';
    EXPECT_NE(all.find(quoted), std::string::npos) << "no " << kind;
  }
}

TEST(FaultDeterminismTest, DifferentSeedsDifferentStreams) {
  EXPECT_NE(chaos_fingerprint(1), chaos_fingerprint(2));
}

}  // namespace
}  // namespace netpart::sim

// ----------------------------------------------------- availability churn

namespace netpart {
namespace {

TEST(ChurnTest, ApplyChurnToNetworkMarksRevokedProcessorsLoaded) {
  Network net = presets::paper_testbed();
  std::vector<ChurnEvent> events;
  events.push_back(
      {SimTime::millis(1), ProcessorRef{0, 2}, ChurnEvent::Kind::Revoke});
  events.push_back(
      {SimTime::millis(5), ProcessorRef{0, 2}, ChurnEvent::Kind::Restore});

  apply_churn_to_network(net, events, SimTime::millis(2));
  EXPECT_DOUBLE_EQ(net.cluster(0).processor(2).load, 1.0);

  apply_churn_to_network(net, events, SimTime::millis(10));
  EXPECT_DOUBLE_EQ(net.cluster(0).processor(2).load, 0.0);
}

TEST(ChurnTest, ThresholdPolicyExcludesRevokedProcessors) {
  Network net = presets::paper_testbed();
  const auto managers = make_managers(net, AvailabilityPolicy{});
  const int before = gather_availability(net, managers).total();

  std::vector<ChurnEvent> events;
  events.push_back(
      {SimTime::zero(), ProcessorRef{1, 4}, ChurnEvent::Kind::Revoke});
  apply_churn_to_network(net, events, SimTime::millis(1));
  const AvailabilitySnapshot after = gather_availability(net, managers);
  EXPECT_EQ(after.total(), before - 1);

  const auto indices = managers[1].available_indices(net);
  EXPECT_EQ(std::count(indices.begin(), indices.end(), 4), 0);
}

TEST(ChurnTest, AvailablePlacementUsesSurvivingIndices) {
  const Network net = presets::paper_testbed();
  // Cluster 0 lost processors 0 and 1; cluster 1 intact.
  const std::vector<std::vector<ProcessorIndex>> available = {
      {2, 3, 4, 5}, {0, 1, 2, 3, 4, 5}};
  const ProcessorConfig config = {2, 1};
  const Placement p =
      available_placement(net, config, available, {0, 1});
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], (ProcessorRef{0, 2}));
  EXPECT_EQ(p[1], (ProcessorRef{0, 3}));
  EXPECT_EQ(p[2], (ProcessorRef{1, 0}));

  const ProcessorConfig too_many = {5, 0};
  EXPECT_THROW(available_placement(net, too_many, available, {0, 1}),
               InvalidArgument);
}

}  // namespace
}  // namespace netpart
