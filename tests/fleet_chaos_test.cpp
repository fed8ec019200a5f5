// Fleet chaos tier (DESIGN.md §12): a node crash mid-epoch across 20
// seeds.  Each seed varies the simulator's jitter and the workload draw;
// every run must hold the warm-failover contract:
//
//   * the pre-crash workload replicates the zipf hot head, so when the
//     victim dies its replicas already hold >= 50% of its hot entries;
//   * the post-report workload completes every request with zero
//     failovers (routing excludes the dead node up front);
//   * the whole history is deterministic: the same seed twice produces
//     byte-identical outcomes.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "fleet/driver.hpp"
#include "fleet/fleet.hpp"
#include "mmps/manager_protocol.hpp"
#include "net/availability.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace netpart {
namespace {

constexpr std::uint64_t kSeeds = 20;
constexpr fleet::NodeId kVictim = 3;

struct CrashOutcome {
  double warm_fraction = 0.0;
  std::uint64_t pre_ok = 0;
  std::uint64_t post_ok = 0;
  std::uint64_t post_failed = 0;
  std::uint64_t post_failovers = 0;
  std::uint64_t dead_reported = 0;
  std::uint64_t hot_entries = 0;
  double post_rps = 0.0;
};

CrashOutcome run_crash_scenario(std::uint64_t seed) {
  fleet::FleetOptions options;
  options.replication = 2;
  options.node.hot_threshold = 3;
  const Network net = fleet::make_fleet_network(4);
  sim::Engine engine;
  sim::NetSim sim(engine, net, sim::NetSimParams{}, Rng(seed));
  fleet::Fleet fl(sim, options, fleet::synthetic_cold_path(net));
  fl.start();

  fleet::WorkloadOptions w;
  w.requests = 120;
  w.distinct_keys = 24;
  w.zipf_s = 1.1;
  w.seed = seed;

  CrashOutcome out;
  // Warm the hot head, then bump the epoch and re-warm under it, so the
  // crash happens mid-epoch with replicated state at the current epoch.
  (void)fleet::run_workload(fl, w);
  fl.announce_epoch(0, fl.node(0).epoch() + 1);
  (void)fleet::run_workload(fl, w);
  out.pre_ok = fl.stats().ok;
  out.hot_entries = fl.node(kVictim).hot_entries().size();

  sim.host(ProcessorRef{kVictim, 0}).crash();
  out.warm_fraction = fl.warm_fraction_for(kVictim);

  // The availability token ring proves the death; its report feeds every
  // peer table so the post-crash workload routes around the victim up
  // front.
  const std::vector<ClusterManager> managers = make_managers(net, {});
  const mmps::ProtocolResult avail =
      mmps::run_availability_protocol(sim, managers);
  fl.report_dead_peers(avail.dead);
  out.dead_reported = avail.dead.size();

  const std::uint64_t failovers_before = fl.stats().failovers;
  const fleet::WorkloadResult after = fleet::run_workload(fl, w);
  out.post_ok = after.ok;
  out.post_failed = after.failed;
  out.post_failovers = fl.stats().failovers - failovers_before;
  out.post_rps = after.rps;
  fl.stop();
  return out;
}

class FleetChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FleetChaosTest, CrashMidEpochFailsOverWarm) {
  const std::uint64_t seed = GetParam();
  const CrashOutcome out = run_crash_scenario(seed);

  EXPECT_GT(out.hot_entries, 0u)
      << "seed " << seed << ": the zipf head never got hot on the victim";
  EXPECT_GE(out.warm_fraction, 0.5)
      << "seed " << seed << ": replicas hold " << 100 * out.warm_fraction
      << "% of the victim's hot entries";
  EXPECT_EQ(out.dead_reported, 1u) << "seed " << seed;
  EXPECT_EQ(out.post_failed, 0u)
      << "seed " << seed << ": failover phase dropped requests";
  EXPECT_EQ(out.post_failovers, 0u)
      << "seed " << seed
      << ": reported deaths must reroute at submit time, not via RTO";
}

TEST_P(FleetChaosTest, SameSeedIsByteDeterministic) {
  const std::uint64_t seed = GetParam();
  const CrashOutcome a = run_crash_scenario(seed);
  const CrashOutcome b = run_crash_scenario(seed);
  EXPECT_EQ(std::tuple(a.warm_fraction, a.pre_ok, a.post_ok, a.post_failed,
                       a.post_failovers, a.hot_entries, a.post_rps),
            std::tuple(b.warm_fraction, b.pre_ok, b.post_ok, b.post_failed,
                       b.post_failovers, b.hot_entries, b.post_rps))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetChaosTest,
                         ::testing::Range<std::uint64_t>(1, kSeeds + 1));

}  // namespace
}  // namespace netpart
