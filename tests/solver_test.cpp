// Tests for the two-phase Jacobi solver (halo exchange + norm reduction).
#include <gtest/gtest.h>

#include "apps/solver.hpp"
#include "byte_hash.hpp"
#include "calib/calibrate.hpp"
#include "core/decompose.hpp"
#include "core/partitioner.hpp"
#include "exec/executor.hpp"
#include "net/presets.hpp"

namespace netpart {
namespace {

const Network& testbed() {
  static const Network net = presets::paper_testbed();
  return net;
}

TEST(SolverTest, DominantPhaseIsTheHaloExchange) {
  const ComputationSpec spec = apps::make_solver_spec(
      apps::SolverConfig{.n = 300, .iterations = 10});
  ASSERT_EQ(spec.communication_phases().size(), 2u);
  // borders: 4N = 1200 bytes dominates the 8-byte norm reduction.
  EXPECT_EQ(spec.dominant_communication().name, "borders");
  EXPECT_EQ(spec.dominant_communication().topology(), Topology::OneD);
  EXPECT_DOUBLE_EQ(spec.dominant_computation().ops_per_pdu(), 6.0 * 300);
}

TEST(SolverTest, SequentialResidualsDecrease) {
  std::vector<float> grid;
  const std::vector<double> residuals = run_sequential_solver(
      apps::SolverConfig{.n = 32, .iterations = 30}, grid);
  ASSERT_EQ(residuals.size(), 30u);
  // Jacobi converges on the heat plate: the residual shrinks.
  EXPECT_LT(residuals.back(), 0.5 * residuals.front());
  for (std::size_t i = 1; i < residuals.size(); ++i) {
    EXPECT_LE(residuals[i], residuals[i - 1] * 1.01);
  }
}

TEST(SolverTest, DistributedMatchesSequential) {
  const apps::SolverConfig cfg{.n = 40, .iterations = 12};
  const ProcessorConfig config{4, 3};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), cfg.n);
  const auto dist =
      apps::run_distributed_solver(testbed(), placement, part, cfg);

  std::vector<float> seq_grid;
  const std::vector<double> seq_residuals =
      run_sequential_solver(cfg, seq_grid);

  // The grid evolves identically (same sweeps, same float arithmetic).
  EXPECT_EQ(dist.grid, seq_grid);
  // Residuals reassociate across the tree: equal to within accumulation
  // noise.
  ASSERT_EQ(dist.residuals.size(), seq_residuals.size());
  for (std::size_t i = 0; i < seq_residuals.size(); ++i) {
    EXPECT_NEAR(dist.residuals[i], seq_residuals[i],
                1e-9 * (1.0 + seq_residuals[i]));
  }
}

// The run pinned bit for bit: exact elapsed nanoseconds, message count and
// a byte hash of the grid and the residuals.  The solver's simulator seed is
// fixed, and its RNG only draws fragment losses, so it runs lossless and at
// 5% loss.
TEST(SolverTest, DistributedSolverPinnedBitForBit) {
  const apps::SolverConfig cfg{.n = 40, .iterations = 12};
  const ProcessorConfig config{4, 3};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), cfg.n);
  sim::NetSimParams lossy;
  lossy.loss_rate = 0.05;
  struct Case {
    bool lossy;
    std::int64_t elapsed_ns;
    std::uint64_t messages;
    std::uint64_t result_hash;
  };
  const Case cases[] = {
      {false, 131324040, 216, 12395803094255193621u},
      {true, 338548560, 216, 12395803094255193621u},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.lossy ? "lossy" : "lossless");
    const auto dist = apps::run_distributed_solver(
        testbed(), placement, part, cfg,
        c.lossy ? lossy : sim::NetSimParams{});
    EXPECT_EQ(dist.elapsed.as_nanos(), c.elapsed_ns);
    EXPECT_EQ(dist.messages, c.messages);
    EXPECT_EQ(byte_hash(dist.grid, dist.residuals), c.result_hash);
  }
}

TEST(SolverTest, SingleRankRunsBothPhases) {
  const apps::SolverConfig cfg{.n = 24, .iterations = 6};
  const Placement placement{ProcessorRef{0, 0}};
  const PartitionVector part({24});
  const auto dist =
      apps::run_distributed_solver(testbed(), placement, part, cfg);
  std::vector<float> seq_grid;
  const auto seq = run_sequential_solver(cfg, seq_grid);
  EXPECT_EQ(dist.grid, seq_grid);
  ASSERT_EQ(dist.residuals.size(), 6u);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_DOUBLE_EQ(dist.residuals[i], seq[i]);
  }
  EXPECT_EQ(dist.messages, 0u);
}

TEST(SolverTest, PartitionerHandlesTwoPhaseSpec) {
  CalibrationParams params;
  params.topologies = {Topology::OneD, Topology::Tree};
  const CalibrationResult cal = calibrate(testbed(), params);
  const ComputationSpec spec = apps::make_solver_spec(
      apps::SolverConfig{.n = 1200, .iterations = 10});
  CycleEstimator est(testbed(), cal.db, spec);
  const AvailabilitySnapshot snap =
      gather_availability(testbed(),
                          make_managers(testbed(), AvailabilityPolicy{}));
  const PartitionResult r = partition(est, snap);
  EXPECT_GE(config_total(r.config), 6);
  const ExecutionResult run =
      execute(testbed(), spec, r.placement, r.estimate.partition, {});
  EXPECT_GT(run.elapsed.as_millis(), 0.0);
  // Both phases generate traffic: 1-D borders + tree partials.
  const std::uint64_t p =
      static_cast<std::uint64_t>(config_total(r.config));
  EXPECT_EQ(run.messages_delivered,
            10u * (2 * (p - 1) + 2 * (p - 1)));
}

TEST(SolverTest, DistributedSurvivesLoss) {
  const apps::SolverConfig cfg{.n = 30, .iterations = 8};
  const ProcessorConfig config{3, 2};
  const Placement placement = contiguous_placement(testbed(), config);
  const PartitionVector part = balanced_partition(
      testbed(), config, clusters_by_speed(testbed()), cfg.n);
  sim::NetSimParams lossy;
  lossy.loss_rate = 0.2;
  lossy.rto = SimTime::millis(5);
  const auto dist =
      apps::run_distributed_solver(testbed(), placement, part, cfg, lossy);
  std::vector<float> seq_grid;
  run_sequential_solver(cfg, seq_grid);
  // Reliability: loss slows the run but never corrupts the data.
  EXPECT_EQ(dist.grid, seq_grid);
}

}  // namespace
}  // namespace netpart
