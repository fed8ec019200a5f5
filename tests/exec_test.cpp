// Tests for the SPMD executor and step scheduling.
#include <gtest/gtest.h>

#include <string>

#include "apps/stencil.hpp"
#include "byte_hash.hpp"
#include "core/decompose.hpp"
#include "exec/adaptive.hpp"
#include "exec/executor.hpp"
#include "exec/schedule.hpp"
#include "net/presets.hpp"
#include "obs/telemetry.hpp"
#include "sim/faults.hpp"
#include "util/error.hpp"

namespace netpart {
namespace {

const Network& testbed() {
  static const Network net = presets::paper_testbed();
  return net;
}

ComputationSpec stencil(int n, bool overlap) {
  return apps::make_stencil_spec(
      apps::StencilConfig{.n = n, .iterations = 10, .overlap = overlap});
}

TEST(ScheduleTest, Sten1OrderIsSendRecvCompute) {
  const ComputationSpec spec = stencil(60, false);
  const auto steps = default_schedule(spec);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].kind, StepKind::Send);
  EXPECT_EQ(steps[1].kind, StepKind::Receive);
  EXPECT_EQ(steps[2].kind, StepKind::Compute);
  EXPECT_EQ(to_string(steps, spec),
            "send(borders) recv(borders) compute(grid)");
}

TEST(ScheduleTest, Sten2OrderIsSendComputeRecv) {
  const ComputationSpec spec = stencil(60, true);
  const auto steps = default_schedule(spec);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].kind, StepKind::Send);
  EXPECT_EQ(steps[1].kind, StepKind::Compute);
  EXPECT_EQ(steps[2].kind, StepKind::Receive);
}

TEST(ScheduleTest, MultiPhaseOrdering) {
  // Two computation phases, three communication phases with different
  // overlap targets: sends first, non-overlapped receives before any
  // compute, each overlapped receive after its compute phase.
  ComputationPhaseSpec prep;
  prep.name = "prep";
  prep.num_pdus = [] { return std::int64_t{100}; };
  prep.ops_per_pdu = [] { return 1.0; };
  ComputationPhaseSpec main_phase = prep;
  main_phase.name = "main";
  main_phase.ops_per_pdu = [] { return 50.0; };

  const auto comm = [](std::string name, std::string overlap) {
    CommunicationPhaseSpec p;
    p.name = std::move(name);
    p.topology = [] { return Topology::OneD; };
    p.bytes_per_message = [](std::int64_t) { return std::int64_t{64}; };
    p.overlap_with = std::move(overlap);
    return p;
  };
  const ComputationSpec spec(
      "multi", {prep, main_phase},
      {comm("sync", ""), comm("early", "prep"), comm("late", "main")}, 2);

  const auto steps = default_schedule(spec);
  EXPECT_EQ(to_string(steps, spec),
            "send(sync) send(early) send(late) recv(sync) compute(prep) "
            "recv(early) compute(main) recv(late)");

  // And it executes: 1-D chain of 4 -> 6 directed messages per comm phase
  // per iteration, 3 phases, 2 iterations.
  const ProcessorConfig config{4, 0};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), 100);
  const ExecutionResult r = execute(testbed(), spec, placement, part, {});
  EXPECT_EQ(r.messages_delivered, 2u * 3u * 6u);
}

TEST(ExecutorTest, SingleRankIsPureCompute) {
  const ComputationSpec spec = stencil(300, false);
  const Placement placement{ProcessorRef{0, 0}};
  const PartitionVector part({300});
  const ExecutionResult r = execute(testbed(), spec, placement, part, {});
  // 10 iterations x 0.0003 ms x 5*300 x 300 rows = 1350 ms of compute plus
  // nothing else (no neighbours).
  EXPECT_NEAR(r.elapsed.as_millis(), 1350.0, 5.0);
  EXPECT_EQ(r.messages_delivered, 0u);
}

TEST(ExecutorTest, DeterministicWithoutJitter) {
  const ComputationSpec spec = stencil(300, true);
  const ProcessorConfig config{4, 2};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part =
      balanced_partition(testbed(), config, clusters_by_speed(testbed()),
                         300);
  const ExecutionResult a = execute(testbed(), spec, placement, part, {});
  const ExecutionResult b = execute(testbed(), spec, placement, part, {});
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.rank_finish, b.rank_finish);
}

TEST(ExecutorTest, JitterPerturbsButSeedsReproduce) {
  const ComputationSpec spec = stencil(300, false);
  const ProcessorConfig config{4, 0};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part =
      balanced_partition(testbed(), config, clusters_by_speed(testbed()),
                         300);
  ExecutionOptions o1;
  o1.compute_jitter = 0.05;
  o1.seed = 1;
  ExecutionOptions o2 = o1;
  o2.seed = 2;
  const double t1 = execute(testbed(), spec, placement, part, o1)
                        .elapsed.as_millis();
  const double t1_again = execute(testbed(), spec, placement, part, o1)
                              .elapsed.as_millis();
  const double t2 = execute(testbed(), spec, placement, part, o2)
                        .elapsed.as_millis();
  EXPECT_EQ(t1, t1_again);
  EXPECT_NE(t1, t2);
}

TEST(ExecutorTest, BalancedPartitionBalancesBusyTime) {
  const ComputationSpec spec = stencil(1200, false);
  const ProcessorConfig config{6, 6};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), 1200);
  const ExecutionResult r = execute(testbed(), spec, placement, part, {});
  SimTime busy_min = SimTime::max();
  SimTime busy_max = SimTime::zero();
  for (const SimTime t : r.rank_busy) {
    busy_min = std::min(busy_min, t);
    busy_max = std::max(busy_max, t);
  }
  // Within ~12%: integer rounding of A_i plus asymmetric border traffic.
  EXPECT_LT(busy_max.as_millis(), 1.12 * busy_min.as_millis());
}

TEST(ExecutorTest, EqualPartitionImbalancesBusyTime) {
  const ComputationSpec spec = stencil(1200, false);
  const ProcessorConfig config{6, 6};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector equal = equal_partition(12, 1200);
  const ExecutionResult r = execute(testbed(), spec, placement, equal, {});
  // IPC ranks (6..11) run their equal share at half speed: ~2x busy.
  EXPECT_GT(r.rank_busy[6].as_millis(), 1.7 * r.rank_busy[0].as_millis());
}

TEST(ExecutorTest, MessageCountMatchesTopology) {
  const ComputationSpec spec = stencil(300, false);
  const ProcessorConfig config{5, 0};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part =
      balanced_partition(testbed(), config, clusters_by_speed(testbed()),
                         300);
  const ExecutionResult r = execute(testbed(), spec, placement, part, {});
  // 1-D chain of 5: 2(p-1) = 8 messages per iteration, 10 iterations.
  EXPECT_EQ(r.messages_delivered, 80u);
}

TEST(ExecutorTest, OverlapBeatsNoOverlap) {
  const ProcessorConfig config{6, 0};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part =
      balanced_partition(testbed(), config, clusters_by_speed(testbed()),
                         600);
  const double t1 = execute(testbed(), stencil(600, false), placement, part,
                            {})
                        .elapsed.as_millis();
  const double t2 = execute(testbed(), stencil(600, true), placement, part,
                            {})
                        .elapsed.as_millis();
  EXPECT_LT(t2, t1);
}

TEST(ExecutorTest, SurvivesHeavyLossAndStillCompletes) {
  const ComputationSpec spec = stencil(300, false);
  const ProcessorConfig config{4, 2};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part =
      balanced_partition(testbed(), config, clusters_by_speed(testbed()),
                         300);
  ExecutionOptions clean;
  ExecutionOptions lossy;
  lossy.sim_params.loss_rate = 0.25;
  lossy.sim_params.rto = SimTime::millis(10);
  const ExecutionResult rc = execute(testbed(), spec, placement, part,
                                     clean);
  const ExecutionResult rl = execute(testbed(), spec, placement, part,
                                     lossy);
  EXPECT_EQ(rl.messages_delivered, rc.messages_delivered);
  EXPECT_GT(rl.retransmissions, 0u);
  EXPECT_GT(rl.elapsed, rc.elapsed);
}

TEST(ExecutorTest, ComputeBreakdownAccountsForEq4) {
  const ComputationSpec spec = stencil(1200, false);
  const ProcessorConfig config{6, 0};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), 1200);
  const ExecutionResult r = execute(testbed(), spec, placement, part, {});
  ASSERT_EQ(r.rank_compute.size(), 6u);
  for (const SimTime t : r.rank_compute) {
    // 10 iterations x 0.0003 ms x 6000 x 200 rows = 3600 ms.
    EXPECT_NEAR(t.as_millis(), 3600.0, 5.0);
    // Compute is part of, and dominated by, total busy time.
    EXPECT_LE(t, r.elapsed);
  }
  // Busy = compute + messaging overhead; the difference is small but
  // positive (send initiations + receive processing).
  for (std::size_t i = 0; i < r.rank_busy.size(); ++i) {
    EXPECT_GT(r.rank_busy[i], r.rank_compute[i]);
  }
  // Communication exposure = elapsed - compute for the slowest rank.
  EXPECT_GT(r.elapsed, r.rank_compute[0]);
}

TEST(ExecutorTest, ValidatesPartitionAlignment) {
  const ComputationSpec spec = stencil(300, false);
  const Placement placement = contiguous_placement(testbed(), {2, 0});
  EXPECT_THROW(
      execute(testbed(), spec, placement, PartitionVector({300}), {}),
      InvalidArgument);  // 1 entry for 2 ranks
  EXPECT_THROW(
      execute(testbed(), spec, placement, PartitionVector({100, 100}), {}),
      InvalidArgument);  // does not cover the domain
}

TEST(ExecutorTest, AverageElapsedAveragesSeeds) {
  const ComputationSpec spec = stencil(300, false);
  const Placement placement = contiguous_placement(testbed(), {3, 0});
  const PartitionVector part = balanced_partition(
      testbed(), {3, 0}, clusters_by_speed(testbed()), 300);
  ExecutionOptions options;
  options.compute_jitter = 0.05;
  const double avg =
      average_elapsed_ms(testbed(), spec, placement, part, options, 5);
  EXPECT_GT(avg, 0.0);
  EXPECT_THROW(
      average_elapsed_ms(testbed(), spec, placement, part, options, 0),
      InvalidArgument);
}

// Every per-rank / per-iteration / per-segment series of a run, in ns,
// folded into one constant.
std::uint64_t series_hash(const ExecutionResult& r) {
  std::vector<std::int64_t> ns;
  for (const auto* series : {&r.rank_finish, &r.rank_busy, &r.rank_compute,
                             &r.iteration_finish, &r.segment_busy}) {
    ns.push_back(static_cast<std::int64_t>(series->size()));
    for (const SimTime t : *series) ns.push_back(t.as_nanos());
  }
  return byte_hash(ns);
}

TEST(ExecutorTest, ExecutePinnedBitForBit) {
  // Constants recorded from the executor's own engine before it moved onto
  // the shared SPMD runtime; any drift in event order, seeding, fault
  // arming or readout shows up here.
  const ProcessorConfig config{4, 2};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), 300);
  const LoadSchedule load =
      LoadSchedule::step(testbed(), 0, 2, SimTime::millis(200), 0.5);
  // The flap hits the scatter, the slowdown the iterations after it.
  sim::FaultPlan plan;
  plan.slowdowns.push_back(
      {SimTime::millis(650), SimTime::millis(900), placement[1], 3.0});
  plan.flaps.push_back({SimTime::millis(150), SimTime::millis(190), 0});

  struct Case {
    const char* name;
    bool overlap;
    ExecutionOptions options;
    std::int64_t elapsed_ns;
    std::int64_t startup_ns;
    std::uint64_t messages;
    std::uint64_t retransmissions;
    std::uint64_t series;
  };
  ExecutionOptions lossy;
  lossy.sim_params.loss_rate = 0.05;
  lossy.compute_jitter = 0.05;
  lossy.seed = 11;
  ExecutionOptions loaded;
  loaded.load = &load;
  loaded.load_time_origin = SimTime::millis(50);
  ExecutionOptions scatter;
  scatter.pdu_bytes = 4 * 300;
  ExecutionOptions faulted;
  faulted.faults = &plan;
  faulted.load_time_origin = SimTime::millis(20);
  faulted.pdu_bytes = 4 * 300;
  const Case cases[] = {
      {"STEN-1", false, {}, 390656000, 0, 100, 0, 10702137747949861687u},
      {"STEN-2", true, {}, 271600000, 0, 100, 0, 10148288428529396413u},
      {"lossy + jitter", false, lossy, 499690377, 0, 100, 3,
       1990197887885597195u},
      {"load step", true, loaded, 379600000, 0, 100, 0,
       17564936405268429100u},
      {"scatter", false, scatter, 390656000, 456119200, 105, 0,
       6621509838777875812u},
      {"slowdown + flap", false, faulted, 495290000, 537500400, 105, 19,
       4637136077160858159u},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const ExecutionResult r =
        execute(testbed(), stencil(300, c.overlap), placement, part,
                c.options);
    EXPECT_EQ(r.elapsed.as_nanos(), c.elapsed_ns);
    EXPECT_EQ(r.startup.as_nanos(), c.startup_ns);
    EXPECT_EQ(r.messages_delivered, c.messages);
    EXPECT_EQ(r.retransmissions, c.retransmissions);
    EXPECT_EQ(series_hash(r), c.series);
  }

  // Telemetry on, with the fault plan and the scatter: the same figures,
  // one msg span per delivered message (scatter included) and the sim.*
  // counters.
  obs::TelemetryRegistry reg;
  ExecutionOptions traced = faulted;
  traced.telemetry = &reg;
  const ExecutionResult r =
      execute(testbed(), stencil(300, false), placement, part, traced);
  EXPECT_EQ(r.elapsed.as_nanos(), cases[5].elapsed_ns);
  EXPECT_EQ(series_hash(r), cases[5].series);
  std::size_t msg_spans = 0;
  for (const obs::SpanRecord& s : reg.spans()) {
    if (s.name == "msg") ++msg_spans;
  }
  EXPECT_EQ(msg_spans, 105u);
  EXPECT_EQ(reg.instants().size(), 150u);
  EXPECT_EQ(reg.counter("sim.messages_delivered").value(), 105u);
  EXPECT_EQ(reg.counter("sim.bytes_delivered").value(), 408000u);
  EXPECT_EQ(reg.counter("sim.fragments_lost").value(), 19u);
  EXPECT_EQ(reg.counter("sim.messages_dropped").value(), 0u);
}

// The message of the ExecutionStalled that `run` throws ("" if none).
template <typename Fn>
std::string stall_message(Fn run) {
  try {
    run();
  } catch (const ExecutionStalled& e) {
    return e.what();
  }
  return "";
}

TEST(ExecutorTest, StalledRunsThrowExecutionStalled) {
  const ComputationSpec spec = stencil(300, false);
  const ProcessorConfig config{4, 2};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), 300);

  // A placed host crashes mid-run: its neighbours wait forever.
  sim::FaultPlan crash;
  crash.crashes.push_back({SimTime::millis(30), placement[2]});
  ExecutionOptions crashed;
  crashed.faults = &crash;
  EXPECT_NE(stall_message([&] {
              execute(testbed(), spec, placement, part, crashed);
            }).find("did not finish"),
            std::string::npos);

  // The budget ends before the last iteration does.
  ExecutionOptions tiny;
  tiny.budget = SimTime::millis(1);
  EXPECT_NE(stall_message([&] {
              execute(testbed(), spec, placement, part, tiny);
            }).find("did not finish"),
            std::string::npos);

  // The scatter's destination is dead before the first byte leaves.
  sim::FaultPlan dead;
  dead.crashes.push_back({SimTime::zero(), placement[3]});
  ExecutionOptions scatter;
  scatter.faults = &dead;
  scatter.pdu_bytes = 4 * 300;
  EXPECT_NE(stall_message([&] {
              execute(testbed(), spec, placement, part, scatter);
            }).find("startup scatter"),
            std::string::npos);

  // A skewed load forces a migration far longer than the budget, which
  // every chunk alone fits in.
  const LoadSchedule skew =
      LoadSchedule::step(testbed(), 0, 2, SimTime::zero(), 0.6);
  ExecutionOptions bounded;
  bounded.load = &skew;
  bounded.budget = SimTime::seconds(2);
  const AdaptiveOptions adaptive{.check_interval = 2,
                                 .imbalance_threshold = 1.25,
                                 .pdu_bytes = 4 * 300 * 400};
  EXPECT_NE(stall_message([&] {
              execute_adaptive(testbed(), spec, placement, part, bounded,
                               adaptive);
            }).find("PDU redistribution"),
            std::string::npos);
}

}  // namespace
}  // namespace netpart
