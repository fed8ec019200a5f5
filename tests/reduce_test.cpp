// Tests for the tree-reduction application.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "apps/reduce.hpp"
#include "core/decompose.hpp"
#include "exec/executor.hpp"
#include "net/presets.hpp"

namespace netpart {
namespace {

const Network& testbed() {
  static const Network net = presets::paper_testbed();
  return net;
}

TEST(ReduceTest, SpecUsesTreeTopology) {
  const ComputationSpec spec =
      apps::make_reduce_spec(apps::ReduceConfig{.count = 1000,
                                                .iterations = 5});
  EXPECT_EQ(spec.dominant_communication().topology(), Topology::Tree);
  EXPECT_EQ(spec.dominant_communication().bytes_per_message(100), 8);
  EXPECT_EQ(spec.num_pdus(), 1000);
}

TEST(ReduceTest, DistributedSumMatchesSequential) {
  const apps::ReduceConfig cfg{.count = 5000, .iterations = 3};
  for (const ProcessorConfig& config :
       {ProcessorConfig{1, 0}, ProcessorConfig{3, 2},
        ProcessorConfig{6, 6}}) {
    const Placement placement = contiguous_placement(testbed(), config);
    const PartitionVector part = balanced_partition(
        testbed(), config, clusters_by_speed(testbed()), cfg.count);
    const auto dist =
        apps::run_distributed_reduce(testbed(), placement, part, cfg);
    const double expected =
        apps::sequential_sum(apps::make_reduce_input(cfg.count, 2));
    // Tree combination reassociates: exact to within accumulated eps.
    EXPECT_NEAR(dist.value, expected, 1e-9 * cfg.count);
    EXPECT_GT(dist.elapsed.as_millis(), 0.0);
  }
}

TEST(ReduceTest, MessageCountMatchesTreeEdges) {
  const apps::ReduceConfig cfg{.count = 4000, .iterations = 4};
  const ProcessorConfig config{5, 0};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), cfg.count);
  const auto dist =
      apps::run_distributed_reduce(testbed(), placement, part, cfg);
  // p-1 tree edges, one upward message each, per iteration.
  EXPECT_EQ(dist.messages, 4u * 4u);
}

// The run pinned bit for bit (exact elapsed nanoseconds, message count and
// the sum's bit pattern): the tree combines partials in arrival order, so
// any change to the runtime's event order shows in the value as well as the
// time.  The simulator's RNG only draws fragment losses, hence the lossy
// runs.
TEST(ReduceTest, DistributedReducePinnedBitForBit) {
  const apps::ReduceConfig cfg{.count = 5000, .iterations = 3};
  const ProcessorConfig config{6, 6};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), cfg.count);
  sim::NetSimParams lossy;
  lossy.loss_rate = 0.05;
  struct Case {
    std::uint64_t seed;
    bool lossy;
    std::int64_t elapsed_ns;
    std::uint64_t messages;
    std::uint64_t value_bits;
  };
  const Case cases[] = {
      {2, false, 20986600, 33, 4617083092190660690},
      {2, true, 20986600, 33, 4617083092190660690},
      {4, false, 20986600, 33, 13848106412208912252u},
      {4, true, 159013560, 33, 13848106412208912252u},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << "seed " << c.seed << (c.lossy ? " lossy" : ""));
    const auto dist = apps::run_distributed_reduce(
        testbed(), placement, part, cfg, c.seed,
        c.lossy ? lossy : sim::NetSimParams{});
    EXPECT_EQ(dist.elapsed.as_nanos(), c.elapsed_ns);
    EXPECT_EQ(dist.messages, c.messages);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dist.value), c.value_bits);
  }
}

TEST(ReduceTest, ExecutorRunsTreeTopology) {
  const apps::ReduceConfig cfg{.count = 100000, .iterations = 10};
  const ComputationSpec spec = apps::make_reduce_spec(cfg);
  const ProcessorConfig config{6, 4};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), cfg.count);
  const ExecutionResult r = execute(testbed(), spec, placement, part, {});
  EXPECT_GT(r.elapsed.as_millis(), 0.0);
  // 2(p-1) messages per cycle for the symmetric tree exchange.
  EXPECT_EQ(r.messages_delivered, 10u * 2u * 9u);
}

TEST(ReduceTest, StartupScatterMeasured) {
  const apps::ReduceConfig cfg{.count = 50000, .iterations = 5};
  const ComputationSpec spec = apps::make_reduce_spec(cfg);
  const ProcessorConfig config{4, 0};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), cfg.count);
  ExecutionOptions options;
  options.pdu_bytes = 8;
  const ExecutionResult r = execute(testbed(), spec, placement, part,
                                    options);
  EXPECT_GT(r.startup, SimTime::zero());
  const ExecutionResult no_startup =
      execute(testbed(), spec, placement, part, {});
  EXPECT_EQ(no_startup.startup, SimTime::zero());
  // The iteration time itself is unaffected by measuring startup.
  EXPECT_EQ(r.elapsed, no_startup.elapsed);
}

}  // namespace
}  // namespace netpart
