// Application-level tests: the functional distributed implementations must
// reproduce their sequential references, and the annotation specs must
// describe the paper's published values.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/gauss.hpp"
#include "apps/particles.hpp"
#include "apps/stencil.hpp"
#include "byte_hash.hpp"
#include "core/decompose.hpp"
#include "net/presets.hpp"
#include "sim/faults.hpp"

namespace netpart {
namespace {

class AppsFixture : public ::testing::Test {
 protected:
  Network net_ = presets::paper_testbed();
  std::vector<ClusterId> order_ = clusters_by_speed(net_);
};

// ---------------------------------------------------------------- stencil

TEST_F(AppsFixture, StencilSpecMatchesPaperAnnotations) {
  const apps::StencilConfig cfg{.n = 600, .iterations = 10,
                                .overlap = false};
  const ComputationSpec spec = apps::make_stencil_spec(cfg);
  EXPECT_EQ(spec.num_pdus(), 600);
  EXPECT_DOUBLE_EQ(spec.dominant_computation().ops_per_pdu(), 5.0 * 600);
  EXPECT_EQ(spec.dominant_communication().topology(), Topology::OneD);
  EXPECT_EQ(spec.dominant_communication().bytes_per_message(100), 4 * 600);
  EXPECT_FALSE(spec.dominant_phases_overlap());
  EXPECT_EQ(spec.iterations(), 10);
}

TEST_F(AppsFixture, Sten2SpecOverlaps) {
  const apps::StencilConfig cfg{.n = 60, .iterations = 10, .overlap = true};
  const ComputationSpec spec = apps::make_stencil_spec(cfg);
  EXPECT_TRUE(spec.dominant_phases_overlap());
  EXPECT_EQ(spec.name(), "STEN-2");
}

TEST_F(AppsFixture, SequentialStencilRelaxesTowardBoundary) {
  const apps::StencilConfig cfg{.n = 16, .iterations = 200,
                                .overlap = false};
  const std::vector<float> grid = apps::run_sequential(cfg);
  // Heat diffuses from the hot top row: the row below must have warmed.
  EXPECT_GT(grid[16 + 8], 10.0f);
  // Corners of the fixed boundary remain untouched.
  EXPECT_FLOAT_EQ(grid[0], 100.0f);
  EXPECT_FLOAT_EQ(grid[16 * 16 - 1], 0.0f);
}

TEST_F(AppsFixture, DistributedStencilBitExactSten1) {
  const apps::StencilConfig cfg{.n = 32, .iterations = 7, .overlap = false};
  const ProcessorConfig config{3, 2};
  const Placement placement = contiguous_placement(net_, config);
  const PartitionVector part =
      balanced_partition(net_, config, order_, cfg.n);
  const auto dist =
      apps::run_distributed_stencil(net_, placement, part, cfg);
  const auto seq = apps::run_sequential(cfg);
  ASSERT_EQ(dist.grid, seq);
  EXPECT_GT(dist.elapsed.as_millis(), 0.0);
}

TEST_F(AppsFixture, DistributedStencilBitExactSten2SingleRowRanks) {
  // Force single-row blocks on some ranks: the STEN-2 interior/border
  // split must still compute every row exactly once.
  const apps::StencilConfig cfg{.n = 13, .iterations = 5, .overlap = true};
  const ProcessorConfig config{6, 6};
  const Placement placement = contiguous_placement(net_, config);
  const PartitionVector part =
      balanced_partition(net_, config, order_, cfg.n);
  const auto dist =
      apps::run_distributed_stencil(net_, placement, part, cfg);
  EXPECT_EQ(dist.grid, apps::run_sequential(cfg));
}

TEST_F(AppsFixture, StencilOverlapIsFasterAtScale) {
  const ProcessorConfig config{6, 0};
  const Placement placement = contiguous_placement(net_, config);
  const int n = 120;
  const PartitionVector part = balanced_partition(net_, config, order_, n);
  const apps::StencilConfig sten1{.n = n, .iterations = 10,
                                  .overlap = false};
  const apps::StencilConfig sten2{.n = n, .iterations = 10,
                                  .overlap = true};
  const auto t1 = apps::run_distributed_stencil(net_, placement, part,
                                                sten1);
  const auto t2 = apps::run_distributed_stencil(net_, placement, part,
                                                sten2);
  EXPECT_LT(t2.elapsed, t1.elapsed);
}

// ------------------------------------------------------------------ gauss

TEST_F(AppsFixture, SequentialGaussSolvesSystem) {
  const apps::LinearSystem sys = apps::make_test_system(64, 3);
  const std::vector<double> x = apps::solve_sequential(sys);
  // Residual check.
  for (int i = 0; i < sys.n; ++i) {
    double acc = 0.0;
    for (int j = 0; j < sys.n; ++j) {
      acc += sys.a[static_cast<std::size_t>(i) * sys.n + j] *
             x[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(acc, sys.b[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST_F(AppsFixture, DistributedGaussMatchesSequential) {
  const apps::GaussConfig cfg{.n = 48};
  const ProcessorConfig config{3, 2};
  const Placement placement = contiguous_placement(net_, config);
  const PartitionVector part =
      balanced_partition(net_, config, order_, cfg.n);
  const auto dist = apps::run_distributed_gauss(net_, placement, part, cfg,
                                                /*seed=*/3);
  const std::vector<double> seq =
      apps::solve_sequential(apps::make_test_system(cfg.n, 3));
  ASSERT_EQ(dist.x.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_NEAR(dist.x[i], seq[i], 1e-9) << "x[" << i << "]";
  }
  EXPECT_GT(dist.elapsed.as_millis(), 0.0);
}

TEST_F(AppsFixture, GaussRowMappings) {
  const PartitionVector part({6, 3, 3});
  // Block: contiguous ranges.
  const auto block = apps::map_rows(part, 12, apps::RowMapping::Block);
  EXPECT_EQ(block[0], (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(block[1], (std::vector<int>{6, 7, 8}));
  // Cyclic: every rank gets exactly A_i rows, interleaved so each prefix
  // splits near the A ratio.
  const auto cyclic = apps::map_rows(part, 12, apps::RowMapping::Cyclic);
  EXPECT_EQ(cyclic[0].size(), 6u);
  EXPECT_EQ(cyclic[1].size(), 3u);
  EXPECT_EQ(cyclic[2].size(), 3u);
  // Rank 0 owns half of the first half of the matrix, not all of it.
  int rank0_in_first_half = 0;
  for (int g : cyclic[0]) {
    if (g < 6) ++rank0_in_first_half;
  }
  EXPECT_LE(rank0_in_first_half, 4);
  // All rows covered exactly once.
  std::vector<int> seen(12, 0);
  for (const auto& rows : cyclic) {
    for (int g : rows) ++seen[static_cast<std::size_t>(g)];
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST_F(AppsFixture, CyclicGaussMatchesSequentialAndRunsFaster) {
  const ProcessorConfig config{4, 2};
  const Placement placement = contiguous_placement(net_, config);
  const PartitionVector part =
      balanced_partition(net_, config, order_, 48);

  apps::GaussConfig block_cfg{.n = 48, .mapping = apps::RowMapping::Block};
  apps::GaussConfig cyclic_cfg{.n = 48,
                               .mapping = apps::RowMapping::Cyclic};
  const auto block =
      apps::run_distributed_gauss(net_, placement, part, block_cfg, 7);
  const auto cyclic =
      apps::run_distributed_gauss(net_, placement, part, cyclic_cfg, 7);
  const std::vector<double> seq =
      apps::solve_sequential(apps::make_test_system(48, 7));
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_NEAR(block.x[i], seq[i], 1e-9);
    EXPECT_NEAR(cyclic.x[i], seq[i], 1e-9);
  }
  // The cyclic mapping keeps the shrinking active set balanced, so the
  // simulated elimination is faster.
  EXPECT_LT(cyclic.elapsed, block.elapsed);
}

TEST_F(AppsFixture, GaussSpecHasNonUniformAnnotations) {
  const apps::GaussConfig cfg{.n = 256};
  const ComputationSpec spec = apps::make_gauss_spec(cfg);
  EXPECT_EQ(spec.num_pdus(), 256);
  EXPECT_EQ(spec.iterations(), 256);
  EXPECT_EQ(spec.dominant_communication().topology(), Topology::Broadcast);
  EXPECT_NEAR(spec.dominant_computation().ops_per_pdu(),
              2.0 / 3.0 * 256, 1e-12);
}

// -------------------------------------------------------------- particles

TEST_F(AppsFixture, DistributedParticlesBitExact) {
  const apps::ParticleConfig cfg{.count = 200, .iterations = 25};
  const ProcessorConfig config{4, 3};
  const Placement placement = contiguous_placement(net_, config);
  const PartitionVector part =
      balanced_partition(net_, config, order_, cfg.count);
  const auto dist =
      apps::run_distributed_particles(net_, placement, part, cfg);
  const apps::ParticleState seq = apps::run_sequential_particles(cfg, 5);
  ASSERT_EQ(dist.state.position, seq.position);
  ASSERT_EQ(dist.state.velocity, seq.velocity);
}

TEST_F(AppsFixture, ParticleChainConservesMomentum) {
  // Internal spring forces are equal and opposite; with free ends the
  // total momentum change per step is zero up to floating point.
  const apps::ParticleConfig cfg{.count = 64, .iterations = 100};
  const apps::ParticleState state = apps::run_sequential_particles(cfg, 9);
  double momentum = 0.0;
  for (double v : state.velocity) momentum += v;
  EXPECT_NEAR(momentum, 0.0, 1e-9);
}

TEST_F(AppsFixture, ParticleSpecIsLatencyBound) {
  const apps::ParticleConfig cfg{.count = 10000, .iterations = 10};
  const ComputationSpec spec = apps::make_particle_spec(cfg);
  EXPECT_EQ(spec.dominant_communication().bytes_per_message(1000), 8);
  EXPECT_EQ(spec.num_pdus(), 10000);
}

// ------------------------------------------------------------ pinned runs
//
// Each distributed run pinned bit for bit: the exact elapsed nanoseconds,
// the message count and a byte hash of the numeric result.  A runtime
// change that reorders the t=0 rank starts, changes a simulator seed or
// moves a compute charge fails here even when the numerics still match
// the sequential reference.  The simulator's RNG only draws fragment
// losses, so every app also runs at 5% loss, where its seed shows.

sim::NetSimParams lossy() {
  sim::NetSimParams params;
  params.loss_rate = 0.05;
  return params;
}

TEST_F(AppsFixture, DistributedStencilPinnedBitForBit) {
  const ProcessorConfig config{3, 2};
  const Placement placement = contiguous_placement(net_, config);
  const PartitionVector part = balanced_partition(net_, config, order_, 32);
  // A slow host and a degraded segment, on a plan clock 2 ms ahead of the
  // run: pins where the fault injector arms and its origin shift.
  sim::FaultPlan plan;
  plan.slowdowns.push_back(
      {SimTime::millis(3), SimTime::millis(30), placement[1], 3.0});
  plan.degrades.push_back({SimTime::millis(4), SimTime::millis(20), 0, 2.5});
  struct Case {
    const char* name;
    bool overlap;
    sim::NetSimParams params;
    const sim::FaultPlan* faults;
    std::int64_t elapsed_ns;
    std::uint64_t messages;
    std::uint64_t grid_hash;
  };
  const Case cases[] = {
      {"STEN-1", false, {}, nullptr, 35348800, 56, 2699016972131395501},
      {"STEN-2", true, {}, nullptr, 35156800, 56, 2699016972131395501},
      {"STEN-1 lossy", false, lossy(), nullptr, 131078400, 56,
       2699016972131395501},
      {"STEN-2 lossy", true, lossy(), nullptr, 130214400, 56,
       2699016972131395501},
      {"STEN-1 faulted", false, {}, &plan, 46141880, 56, 2699016972131395501},
      {"STEN-2 faulted", true, {}, &plan, 45757880, 56, 2699016972131395501},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const apps::StencilConfig cfg{.n = 32, .iterations = 7,
                                  .overlap = c.overlap};
    const auto dist = apps::run_distributed_stencil(
        net_, placement, part, cfg, c.params, c.faults, SimTime::millis(2));
    EXPECT_EQ(dist.elapsed.as_nanos(), c.elapsed_ns);
    EXPECT_EQ(dist.messages, c.messages);
    EXPECT_EQ(byte_hash(dist.grid), c.grid_hash);
  }
}

TEST_F(AppsFixture, DistributedGaussPinnedBitForBit) {
  const ProcessorConfig config{3, 2};
  const Placement placement = contiguous_placement(net_, config);
  const PartitionVector part = balanced_partition(net_, config, order_, 48);
  struct Case {
    apps::RowMapping mapping;
    std::uint64_t seed;
    bool lossy;
    std::int64_t elapsed_ns;
    std::uint64_t messages;
    std::uint64_t x_hash;
  };
  constexpr apps::RowMapping kBlock = apps::RowMapping::Block;
  constexpr apps::RowMapping kCyclic = apps::RowMapping::Cyclic;
  const Case cases[] = {
      {kBlock, 3, false, 469466120, 384, 2758320047553664941},
      {kBlock, 3, true, 1634224180, 384, 2758320047553664941},
      {kBlock, 7, false, 469466120, 384, 17095855729385747189u},
      {kBlock, 7, true, 1658597760, 384, 17095855729385747189u},
      {kCyclic, 3, false, 469461520, 384, 2758320047553664941},
      {kCyclic, 3, true, 1633799360, 384, 2758320047553664941},
      {kCyclic, 7, false, 469461520, 384, 17095855729385747189u},
      {kCyclic, 7, true, 1659358160, 384, 17095855729385747189u},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << (c.mapping == apps::RowMapping::Block ? "block"
                                                          : "cyclic")
                 << " seed " << c.seed << (c.lossy ? " lossy" : ""));
    const apps::GaussConfig cfg{.n = 48, .mapping = c.mapping};
    const auto dist = apps::run_distributed_gauss(
        net_, placement, part, cfg, c.seed,
        c.lossy ? lossy() : sim::NetSimParams{});
    EXPECT_EQ(dist.elapsed.as_nanos(), c.elapsed_ns);
    EXPECT_EQ(dist.messages, c.messages);
    EXPECT_EQ(byte_hash(dist.x), c.x_hash);
  }
}

TEST_F(AppsFixture, DistributedParticlesPinnedBitForBit) {
  const ProcessorConfig config{4, 3};
  const Placement placement = contiguous_placement(net_, config);
  const PartitionVector part = balanced_partition(net_, config, order_, 200);
  struct Case {
    std::uint64_t seed;
    bool lossy;
    std::int64_t elapsed_ns;
    std::uint64_t messages;
    std::uint64_t state_hash;
  };
  const Case cases[] = {
      {5, false, 145419200, 300, 16762207901862878878u},
      {5, true, 437246340, 300, 16762207901862878878u},
      {9, false, 145419200, 300, 15920375061056911433u},
      {9, true, 385369900, 300, 15920375061056911433u},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << "seed " << c.seed << (c.lossy ? " lossy" : ""));
    const apps::ParticleConfig cfg{.count = 200, .iterations = 25};
    const auto dist = apps::run_distributed_particles(
        net_, placement, part, cfg, c.seed,
        c.lossy ? lossy() : sim::NetSimParams{});
    EXPECT_EQ(dist.elapsed.as_nanos(), c.elapsed_ns);
    EXPECT_EQ(dist.messages, c.messages);
    EXPECT_EQ(byte_hash(dist.state.position, dist.state.velocity),
              c.state_hash);
  }
}

}  // namespace
}  // namespace netpart
