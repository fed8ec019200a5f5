// Property-based and parameterised sweeps over the core invariants:
//
//  * Eq. 3 partitions always cover the domain and track speed ratios.
//  * T_c(p) along the heuristic fill order is unimodal (Fig. 3), so the
//    binary search finds the same argmin a linear scan does.
//  * The heuristic never beats the exhaustive optimum (sanity of both),
//    and matches it on two-cluster networks.
//  * Estimator monotonicity: more bytes or more iterations never reduce
//    the estimate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "core/decompose.hpp"
#include "core/partitioner.hpp"
#include "dp/rank_kernel.hpp"
#include "exec/executor.hpp"
#include "net/builder.hpp"
#include "net/presets.hpp"

namespace netpart {
namespace {

struct RandomNetCase {
  std::uint64_t seed;
  int clusters;
};

class RandomNetworkProperties
    : public ::testing::TestWithParam<RandomNetCase> {
 protected:
  static CalibrationParams one_d_params() {
    CalibrationParams params;
    params.topologies = {Topology::OneD};
    return params;
  }
};

TEST_P(RandomNetworkProperties, BalancedPartitionInvariants) {
  Rng rng(GetParam().seed);
  const Network net =
      presets::random_network(rng, GetParam().clusters, 6);
  const auto order = clusters_by_speed(net);
  Rng config_rng = rng.stream(1);
  for (int trial = 0; trial < 20; ++trial) {
    ProcessorConfig config(static_cast<std::size_t>(net.num_clusters()), 0);
    int total = 0;
    for (ClusterId c = 0; c < net.num_clusters(); ++c) {
      config[static_cast<std::size_t>(c)] = static_cast<int>(
          config_rng.next_int(0, net.cluster(c).size()));
      total += config[static_cast<std::size_t>(c)];
    }
    if (total == 0) continue;
    const std::int64_t pdus = config_rng.next_int(total, 5000);
    const PartitionVector pv =
        balanced_partition(net, config, order, pdus);
    // Coverage and positivity.
    ASSERT_EQ(pv.total(), pdus);
    ASSERT_NO_THROW(pv.validate(pdus));
    // Speed-proportionality: for any two ranks, work ratio tracks the
    // inverse flop-time ratio within integer rounding.
    int rank = 0;
    std::vector<std::pair<double, std::int64_t>> entries;  // (speed, A)
    for (ClusterId c : order) {
      for (int i = 0; i < config[static_cast<std::size_t>(c)];
           ++i, ++rank) {
        entries.emplace_back(
            1.0 / net.cluster(c).type().flop_time.as_seconds(),
            pv.at(rank));
      }
    }
    for (std::size_t i = 0; i + 1 < entries.size(); ++i) {
      if (entries[i].first > entries[i + 1].first) {
        EXPECT_GE(entries[i].second + 1, entries[i + 1].second);
      }
    }
  }
}

TEST_P(RandomNetworkProperties, TcCurveUnimodalAndSearchesAgree) {
  Rng rng(GetParam().seed);
  const Network net =
      presets::random_network(rng, GetParam().clusters, 6);
  const CalibrationResult cal = calibrate(net, one_d_params());
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));

  for (const int n : {300, 2400}) {
    const ComputationSpec spec = apps::make_stencil_spec(
        apps::StencilConfig{.n = n, .iterations = 10, .overlap = false});
    CycleEstimator est(net, cal.db, spec);

    PartitionOptions binary;
    PartitionOptions linear;
    linear.search = PartitionOptions::Search::Linear;
    const PartitionResult rb = partition(est, snap, binary);
    const PartitionResult rl = partition(est, snap, linear);
    // Linear scan is the ground truth for the per-cluster argmin; binary
    // search must agree whenever the curve is unimodal.  Verify both the
    // agreement and (for the first cluster) the unimodality itself.
    EXPECT_EQ(rb.config, rl.config) << "seed " << GetParam().seed;

    const ClusterId first = est.cluster_order().front();
    ProcessorConfig probe(static_cast<std::size_t>(net.num_clusters()), 0);
    std::vector<double> curve;
    for (int p = 1; p <= snap.available[static_cast<std::size_t>(first)];
         ++p) {
      probe[static_cast<std::size_t>(first)] = p;
      curve.push_back(est.estimate(probe).t_c_ms);
    }
    // A unimodal valley has no interior local maximum.
    int local_maxima = 0;
    for (std::size_t i = 1; i + 1 < curve.size(); ++i) {
      if (curve[i] > curve[i - 1] + 1e-9 && curve[i] > curve[i + 1] + 1e-9) {
        ++local_maxima;
      }
    }
    EXPECT_EQ(local_maxima, 0)
        << "T_c(p) should fall then rise (Fig. 3), seed "
        << GetParam().seed;
  }
}

TEST_P(RandomNetworkProperties, HeuristicNeverBeatsExhaustive) {
  Rng rng(GetParam().seed);
  const Network net =
      presets::random_network(rng, GetParam().clusters, 5);
  const CalibrationResult cal = calibrate(net, one_d_params());
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 1200, .iterations = 10, .overlap = false});
  CycleEstimator est(net, cal.db, spec);
  const PartitionResult heur = partition(est, snap);
  const PartitionResult exh = exhaustive_partition(est, snap);
  EXPECT_GE(heur.estimate.t_c_ms, exh.estimate.t_c_ms - 1e-9);
  EXPECT_LT(heur.evaluations, exh.evaluations);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomNetworkProperties,
    ::testing::Values(RandomNetCase{1, 2}, RandomNetCase{2, 2},
                      RandomNetCase{3, 3}, RandomNetCase{4, 3},
                      RandomNetCase{5, 4}, RandomNetCase{6, 4},
                      RandomNetCase{7, 5}, RandomNetCase{8, 5}),
    [](const auto& test_info) {
      return "seed" + std::to_string(test_info.param.seed) + "_k" +
             std::to_string(test_info.param.clusters);
    });

TEST_P(RandomNetworkProperties, PredictionNearMeasuredBestEndToEnd) {
  // The paper's headline property, on networks it never saw: the
  // predicted configuration's measured time is close to the best measured
  // configuration along the heuristic's fill order.
  Rng rng(GetParam().seed ^ 0xE2E);
  const Network net =
      presets::random_network(rng, GetParam().clusters, 5);
  const CalibrationResult cal = calibrate(net, one_d_params());
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 1800, .iterations = 10, .overlap = false});
  CycleEstimator est(net, cal.db, spec);
  const PartitionResult predicted = partition(est, snap);

  const auto measure = [&](const ProcessorConfig& config) {
    const Placement placement =
        contiguous_placement(net, config, est.cluster_order());
    const PartitionVector part =
        balanced_partition(net, config, est.cluster_order(), 1800);
    return execute(net, spec, placement, part, {}).elapsed.as_millis();
  };

  const double t_predicted = measure(predicted.config);
  // Sweep total processor counts along the fill order.
  double best = t_predicted;
  ProcessorConfig config(snap.available.size(), 0);
  for (ClusterId c : est.cluster_order()) {
    for (int i = 0; i < snap.available[static_cast<std::size_t>(c)]; ++i) {
      ++config[static_cast<std::size_t>(c)];
      best = std::min(best, measure(config));
    }
  }
  EXPECT_LE(t_predicted, 1.25 * best) << "seed " << GetParam().seed;
}

TEST_P(RandomNetworkProperties, FastPathBitwiseMatchesReference) {
  // The closed-form engine must not be "close": every cost field of
  // estimate_into() is the exact same double estimate() produces, on
  // networks and configurations it never saw.
  Rng rng(GetParam().seed ^ 0xFA57);
  const Network net =
      presets::random_network(rng, GetParam().clusters, 6);
  const CalibrationResult cal = calibrate(net, one_d_params());
  EstimatorScratch scratch;
  Rng config_rng = rng.stream(2);
  for (const auto& [n, overlap] :
       std::vector<std::pair<int, bool>>{{300, false},
                                         {600, true},
                                         {2400, false}}) {
    const ComputationSpec spec = apps::make_stencil_spec(
        apps::StencilConfig{.n = n, .iterations = 10, .overlap = overlap});
    CycleEstimator est(net, cal.db, spec);
    for (int trial = 0; trial < 25; ++trial) {
      ProcessorConfig config(static_cast<std::size_t>(net.num_clusters()),
                             0);
      int total = 0;
      for (ClusterId c = 0; c < net.num_clusters(); ++c) {
        config[static_cast<std::size_t>(c)] = static_cast<int>(
            config_rng.next_int(0, net.cluster(c).size()));
        total += config[static_cast<std::size_t>(c)];
      }
      if (total == 0) continue;
      const CycleEstimate ref = est.estimate(config);
      const FastEstimate fast = est.estimate_into(config, scratch);
      ASSERT_EQ(ref.t_comp_ms, fast.t_comp_ms) << "seed "
                                               << GetParam().seed;
      ASSERT_EQ(ref.t_comm_ms, fast.t_comm_ms) << "seed "
                                               << GetParam().seed;
      ASSERT_EQ(ref.t_overlap_ms, fast.t_overlap_ms)
          << "seed " << GetParam().seed;
      ASSERT_EQ(ref.t_c_ms, fast.t_c_ms) << "seed " << GetParam().seed;
      ASSERT_EQ(ref.t_elapsed_ms, fast.t_elapsed_ms)
          << "seed " << GetParam().seed;
    }
  }
}

TEST_P(RandomNetworkProperties, ParallelExhaustiveMatchesSerial) {
  Rng rng(GetParam().seed);
  const Network net =
      presets::random_network(rng, GetParam().clusters, 5);
  const CalibrationResult cal = calibrate(net, one_d_params());
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 1200, .iterations = 10, .overlap = false});
  CycleEstimator est(net, cal.db, spec);
  const PartitionResult serial =
      exhaustive_partition(est, snap, {.threads = 1});
  for (const int threads : {2, 3, 4}) {
    const PartitionResult parallel =
        exhaustive_partition(est, snap, {.threads = threads});
    EXPECT_EQ(serial.config, parallel.config)
        << "seed " << GetParam().seed << " threads " << threads;
    EXPECT_EQ(serial.estimate.t_c_ms, parallel.estimate.t_c_ms);
    EXPECT_EQ(serial.evaluations, parallel.evaluations);
  }
}

/// Two identical "twin" clusters (same processor type, same size) plus a
/// faster third.  Under a computation-only spec T_c is the slowest rank's
/// T_comp, which swapping the twins' counts leaves unchanged, so T_c ties
/// across distinct configurations are guaranteed.
Network twin_cluster_network() {
  NetworkBuilder b;
  b.bandwidth_bps(10e6);
  b.frame_overhead(SimTime::micros(50));
  b.router_delay(SimTime::nanos(600), SimTime::micros(100));
  ProcessorType twin;
  twin.name = "twin";
  twin.flop_time = SimTime::micros(0.4);
  twin.int_time = twin.flop_time * 0.5;
  twin.comm_per_byte = SimTime::nanos(800);
  twin.comm_per_message = SimTime::micros(500);
  ProcessorType fast = twin;
  fast.name = "fast";
  fast.flop_time = SimTime::micros(0.2);
  fast.int_time = fast.flop_time * 0.5;
  b.add_cluster("twin_a", twin, 4);
  b.add_cluster("twin_b", twin, 4);
  b.add_cluster("fast", fast, 4);
  return b.build();
}

TEST(ExhaustiveTieBreak, GrayOrderKeepsOdometerFirstMinimum) {
  // The sweep walks Gray-code order, not odometer order, so its tie-break
  // must be explicit: the oracle is a plain odometer scan (cluster 0 the
  // least significant digit) through estimate() with strict <, which
  // returns the first minimum.  The sweep must return that configuration,
  // its T_c, and the oracle's evaluation count at every thread count and
  // chunk size -- chunk 1 starts chunks on the all-zero configuration and
  // on every reflection boundary -- with and without chaos yields.
  const Network net = twin_cluster_network();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  for (const std::int64_t n : {12, 24, 60}) {
    ComputationPhaseSpec compute;
    compute.name = "compute";
    compute.num_pdus = [n] { return n; };
    compute.ops_per_pdu = [] { return 100.0; };
    const ComputationSpec spec("compute_only", {compute}, {}, 10);
    CycleEstimator est(net, cal.db, spec);

    const std::uint64_t oracle_before = est.evaluations();
    ProcessorConfig config(snap.available.size(), 0);
    ProcessorConfig oracle_config;
    double oracle_tc = std::numeric_limits<double>::infinity();
    std::vector<double> scanned;
    for (;;) {
      std::size_t digit = 0;
      while (digit < config.size() && config[digit] == snap.available[digit]) {
        config[digit++] = 0;
      }
      if (digit == config.size()) break;
      ++config[digit];
      if (config_total(config) == 0) continue;
      const double tc = est.estimate(config).t_c_ms;
      scanned.push_back(tc);
      if (tc < oracle_tc) {
        oracle_tc = tc;
        oracle_config = config;
      }
    }
    // The winner's materialisation, as exhaustive_partition counts it.
    ASSERT_EQ(est.estimate(oracle_config).t_c_ms, oracle_tc);
    const std::uint64_t oracle_evals = est.evaluations() - oracle_before;
    ASSERT_GT(std::count(scanned.begin(), scanned.end(), oracle_tc), 1)
        << "n " << n << ": the minimum must be tied for this test to bite";

    for (const int threads : {1, 2, 4}) {
      for (const std::uint64_t chunk : {0, 1, 7}) {
        for (const std::uint64_t chaos : {std::uint64_t{0},
                                          std::uint64_t{0x71E}}) {
          ExhaustiveOptions options;
          options.threads = threads;
          options.chunk = chunk;
          options.chaos_yield_seed = chaos;
          const std::uint64_t before = est.evaluations();
          const PartitionResult got = exhaustive_partition(est, snap, options);
          EXPECT_EQ(oracle_config, got.config)
              << "n " << n << " threads " << threads << " chunk " << chunk
              << " chaos " << chaos;
          EXPECT_EQ(oracle_tc, got.estimate.t_c_ms)
              << "n " << n << " threads " << threads << " chunk " << chunk;
          EXPECT_EQ(oracle_evals, got.evaluations)
              << "n " << n << " threads " << threads << " chunk " << chunk;
          EXPECT_EQ(got.evaluations, est.evaluations() - before);
        }
      }
    }
  }
}

/// Feed one group-share draw -- `sizes[g]` ranks sharing weight
/// `weights[g]`, `pdus` PDUs -- to the closed-form kernel: a network of one
/// cluster per group (flop time 1000/w ns, so the weights' ratios carry
/// over up to nanosecond rounding), a synthetic cost model, and a spec
/// whose message size grows with A_i, every processor selected.  Checks
/// estimate_into() against estimate() on every cost field, and the
/// kernel's staged shares against the materialised Eq. 3 vector: each
/// group's max A always, and -- where the closed form served the draw --
/// the full per-rank pattern (the group's first `extras` ranks carry
/// base+1, the rest base).  *closed_form reports whether it served (a
/// delta probe counts only closed-form results), false = starvation
/// repair.
void check_group_share_draw(const std::vector<double>& weights,
                            const std::vector<int>& sizes,
                            std::int64_t pdus, bool* closed_form) {
  NetworkBuilder b;
  b.bandwidth_bps(10e6);
  b.router_delay(SimTime::nanos(600), SimTime::micros(100));
  for (std::size_t g = 0; g < weights.size(); ++g) {
    ProcessorType type;
    type.name = "g" + std::to_string(g);
    type.flop_time = SimTime::nanos(
        std::max<std::int64_t>(1, std::llround(1000.0 / weights[g])));
    type.int_time = type.flop_time;
    type.comm_per_byte = SimTime::nanos(800);
    type.comm_per_message = SimTime::micros(500);
    b.add_cluster(type.name, type, sizes[g]);
  }
  const Network net = b.build();
  CostModelDb db(net.num_clusters());
  for (ClusterId c = 0; c < net.num_clusters(); ++c) {
    db.set_comm(c, Topology::OneD,
                Eq1Fit{0.5 + 0.1 * c, 0.05, 0.001, 0.0002 * (c + 1), 1.0});
    for (ClusterId o = c + 1; o < net.num_clusters(); ++o) {
      db.set_router(c, o, LineFit{0.0003, 0.2, 1.0});
    }
  }
  ComputationPhaseSpec compute;
  compute.name = "compute";
  compute.num_pdus = [pdus] { return pdus; };
  compute.ops_per_pdu = [] { return 100.0; };
  CommunicationPhaseSpec comm;
  comm.name = "exchange";
  comm.topology = [] { return Topology::OneD; };
  comm.bytes_per_message = [](std::int64_t a) { return 64 + 8 * a; };
  const ComputationSpec spec("group_shares", {compute}, {comm}, 10);
  const CycleEstimator est(net, db, spec);

  const ProcessorConfig config(sizes.begin(), sizes.end());
  const CycleEstimate ref = est.estimate(config);
  EstimatorScratch scratch;
  const FastEstimate fast = est.estimate_into(config, scratch);
  ASSERT_EQ(ref.t_comp_ms, fast.t_comp_ms);
  ASSERT_EQ(ref.t_comm_ms, fast.t_comm_ms);
  ASSERT_EQ(ref.t_overlap_ms, fast.t_overlap_ms);
  ASSERT_EQ(ref.t_c_ms, fast.t_c_ms);
  ASSERT_EQ(ref.t_elapsed_ms, fast.t_elapsed_ms);

  ASSERT_EQ(scratch.staged_groups, static_cast<int>(sizes.size()));
  std::int64_t remainder = pdus;
  for (int g = 0; g < scratch.staged_groups; ++g) {
    remainder -= scratch.stage_base[static_cast<std::size_t>(g)] *
                 scratch.stage_p[static_cast<std::size_t>(g)];
  }
  // Whether the closed form served: a zero move re-scores the same
  // configuration and counts as a delta evaluation only when it did.
  est.bind_delta(config, scratch);
  const std::uint64_t delta_before = scratch.delta_evaluations;
  const FastEstimate probe = est.estimate_delta(0, 0, scratch);
  ASSERT_EQ(ref.t_c_ms, probe.t_c_ms);
  *closed_form = scratch.delta_evaluations == delta_before + 1;

  int rank = 0;
  for (int g = 0; g < scratch.staged_groups; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    const int p = scratch.stage_p[gi];
    const std::int64_t base = scratch.stage_base[gi];
    const std::int64_t extras = std::clamp<std::int64_t>(
        remainder - scratch.stage_rb[gi], 0, p);
    std::int64_t max_a = 0;
    for (int i = 0; i < p; ++i, ++rank) {
      max_a = std::max(max_a, ref.partition.at(rank));
      if (*closed_form) {
        ASSERT_EQ(ref.partition.at(rank), base + (i < extras ? 1 : 0))
            << "group " << g << " rank " << rank;
      }
    }
    ASSERT_EQ(scratch.stage_max_a[gi], max_a) << "group " << g;
  }
}

TEST(GroupShares, MatchesProportionalPartitionExactly) {
  // The kernel's closed-form Eq. 3 shares must reproduce, per homogeneous
  // group, the exact per-rank assignment of proportional_partition (which
  // estimate() materialises): the first `extras` ranks of a group carry
  // base+1, the rest base.
  Rng rng(0x5A5A);
  int closed_form = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int groups = static_cast<int>(rng.next_int(1, 6));
    std::vector<double> group_weights;
    std::vector<int> group_sizes;
    int total_ranks = 0;
    for (int g = 0; g < groups; ++g) {
      group_weights.push_back(0.1 + 10.0 * rng.next_double());
      group_sizes.push_back(static_cast<int>(rng.next_int(1, 5)));
      total_ranks += group_sizes.back();
    }
    const std::int64_t pdus = rng.next_int(total_ranks, 4000);
    bool served = false;
    ASSERT_NO_FATAL_FAILURE(
        check_group_share_draw(group_weights, group_sizes, pdus, &served))
        << "trial " << trial;
    if (served) ++closed_form;
  }
  // The closed form must cover the overwhelming majority of draws.
  EXPECT_GT(closed_form, 350);
}

// Stable-sort oracle for the rank kernel: ranks_before[g] as
// proportional_partition's per-rank stable sort defines it.
std::vector<std::int64_t> ranks_before_oracle(
    const std::vector<double>& frac, const std::vector<int>& sizes) {
  std::vector<int> order(frac.size());
  for (std::size_t g = 0; g < order.size(); ++g) {
    order[g] = static_cast<int>(g);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return frac[a] > frac[b]; });
  std::vector<std::int64_t> out(frac.size());
  std::int64_t before = 0;
  for (const int g : order) {
    out[static_cast<std::size_t>(g)] = before;
    before += sizes[static_cast<std::size_t>(g)];
  }
  return out;
}

TEST(RankKernel, MatchesGeneralOnAllTiePatternsUpTo4) {
  // Exhaustive differential over the sorting network's whole input space
  // modulo magnitude: with 4 lanes, only the pattern of equalities and
  // orderings among the fracs matters, so drawing every frac from a
  // 4-value palette covers every tie pattern (including all-equal), and
  // every size from {0, 1, 3} covers empty and uneven groups.  The
  // network must agree with the quadratic general pass AND the
  // stable-sort oracle exactly.
  const double palette[] = {0.0, 0.25, 0.5, 0.999};
  const int size_palette[] = {0, 1, 3};
  for (int groups = 1; groups <= 4; ++groups) {
    int frac_combos = 1;
    int size_combos = 1;
    for (int g = 0; g < groups; ++g) {
      frac_combos *= 4;
      size_combos *= 3;
    }
    for (int fc = 0; fc < frac_combos; ++fc) {
      std::vector<double> frac(static_cast<std::size_t>(groups));
      int f = fc;
      for (int g = 0; g < groups; ++g, f /= 4) frac[g] = palette[f % 4];
      for (int sc = 0; sc < size_combos; ++sc) {
        std::vector<int> sizes(static_cast<std::size_t>(groups));
        int s = sc;
        for (int g = 0; g < groups; ++g, s /= 3) {
          sizes[g] = size_palette[s % 3];
        }
        std::int64_t kernel[4];
        std::int64_t general[4];
        largest_remainder_ranks(frac.data(), sizes.data(), groups, kernel);
        detail::largest_remainder_ranks_general(frac.data(), sizes.data(),
                                                groups, general);
        const std::vector<std::int64_t> oracle =
            ranks_before_oracle(frac, sizes);
        for (int g = 0; g < groups; ++g) {
          ASSERT_EQ(kernel[g], general[g])
              << "groups " << groups << " fc " << fc << " sc " << sc
              << " g " << g;
          ASSERT_EQ(kernel[g], oracle[static_cast<std::size_t>(g)])
              << "groups " << groups << " fc " << fc << " sc " << sc
              << " g " << g;
        }
      }
    }
  }
}

TEST(RankKernel, AllEqualFracsUseOriginalGroupOrder) {
  // Equal fracs everywhere (the all-equal-remainder pattern): the stable
  // order is the original group order, so ranks_before must be the plain
  // exclusive prefix sum of the sizes.
  const std::vector<double> frac = {0.5, 0.5, 0.5, 0.5};
  const std::vector<int> sizes = {2, 5, 1, 3};
  std::int64_t rb[4];
  largest_remainder_ranks(frac.data(), sizes.data(), 4, rb);
  EXPECT_EQ(rb[0], 0);
  EXPECT_EQ(rb[1], 2);
  EXPECT_EQ(rb[2], 7);
  EXPECT_EQ(rb[3], 8);
}

TEST(RankKernel, GeneralPathAboveFourGroupsMatchesOracle) {
  // Above 4 groups the entry point must dispatch to the quadratic pass;
  // both must still equal the stable-sort oracle on random draws with
  // forced ties.
  Rng rng(0x9A9A);
  for (int trial = 0; trial < 200; ++trial) {
    const int groups = static_cast<int>(rng.next_int(5, 9));
    std::vector<double> frac(static_cast<std::size_t>(groups));
    std::vector<int> sizes(static_cast<std::size_t>(groups));
    for (int g = 0; g < groups; ++g) {
      // Quantised draws force frequent cross-group ties.
      frac[g] = static_cast<double>(rng.next_int(0, 4)) * 0.25;
      sizes[g] = static_cast<int>(rng.next_int(0, 4));
    }
    std::vector<std::int64_t> kernel(static_cast<std::size_t>(groups));
    largest_remainder_ranks(frac.data(), sizes.data(), groups,
                            kernel.data());
    const std::vector<std::int64_t> oracle =
        ranks_before_oracle(frac, sizes);
    for (int g = 0; g < groups; ++g) {
      ASSERT_EQ(kernel[static_cast<std::size_t>(g)],
                oracle[static_cast<std::size_t>(g)])
          << "trial " << trial << " g " << g;
    }
  }
}

TEST(RankKernel, InvariantDividerBitwiseMatchesDivision) {
  // The batched share stage replaces x / d with divide(x); the engine's
  // bitwise contract requires exact equality on whichever path the
  // toolchain compiled in (Markstein correction under hardware FMA, plain
  // division otherwise).
  Rng rng(0xD1F1);
  for (int trial = 0; trial < 20000; ++trial) {
    // Magnitudes spanning the Eq. 3 share range and well beyond it.
    const double x = std::ldexp(0.5 + rng.next_double(),
                                static_cast<int>(rng.next_int(-30, 60)));
    const double d = std::ldexp(0.5 + rng.next_double(),
                                static_cast<int>(rng.next_int(-30, 60)));
    const InvariantDivider div(d);
    ASSERT_EQ(div.divide(x), x / d)
        << "trial " << trial << " x " << x << " d " << d
        << " fused " << kInvariantDividerFused;
  }
}

TEST(GroupShares, StarvationEdges) {
  // The closed form must refuse exactly when a rank would starve (base 0
  // with fewer extras than ranks) and hand the draw to the starvation
  // repair, which must still agree bitwise with estimate().  Pin both
  // sides of the edge.
  const auto run = [](std::vector<double> w, std::vector<int> sz,
                      std::int64_t pdus) {
    bool served = false;
    check_group_share_draw(w, sz, pdus, &served);
    return served;
  };
  // pdus == total ranks with equal weights: every rank gets exactly one
  // (base 0, extras == size everywhere) -- no starvation.
  EXPECT_TRUE(run({1.0, 1.0}, {3, 3}, 6));
  // A tiny-weight group at the remainder boundary: base 0 and the
  // remainder runs out before reaching it.
  EXPECT_FALSE(run({1000.0, 0.001}, {2, 2}, 100));
  // Same weights, enough PDUs that the small group's base rises above 0.
  EXPECT_TRUE(run({1000.0, 0.001}, {2, 2}, 4000000));
  // Starvation must also be detected past the 4-group sorting network, on
  // the rank kernel's quadratic path.
  EXPECT_FALSE(
      run({100.0, 100.0, 100.0, 100.0, 0.001}, {1, 1, 1, 1, 2}, 7));
}

class DeltaEvalProperties : public RandomNetworkProperties {};

INSTANTIATE_TEST_SUITE_P(
    Seeds, DeltaEvalProperties,
    ::testing::Values(RandomNetCase{11, 2}, RandomNetCase{12, 3},
                      RandomNetCase{13, 4}, RandomNetCase{14, 5}),
    [](const auto& test_info) {
      return "seed" + std::to_string(test_info.param.seed) + "_k" +
             std::to_string(test_info.param.clusters);
    });

TEST_P(DeltaEvalProperties, DeltaBitwiseMatchesFromScratch) {
  // The delta engine's contract: estimate_delta(c, +/-1) returns the
  // exact FastEstimate estimate_into() computes for the moved
  // configuration -- bitwise on every cost field -- across randomized
  // single-move sequences, including moves that empty a cluster and
  // moves that activate one.  commit_delta adopts the staged gather of
  // the last probe when that probe scored the committed move and
  // regathers otherwise, so before every commit the walk rotates what
  // the last probe was: the committed move, a different move, or a move
  // that took the starvation fallback (reached by the last input).  After
  // every commit the cache and the next probe must equal a freshly bound
  // scratch's.
  Rng rng(GetParam().seed ^ 0xDE17A);
  const Network net =
      presets::random_network(rng, GetParam().clusters, 6);
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  Rng config_rng = rng.stream(4);
  // The starvation edge: n about half the network's processors, with
  // moves past n illegal, so the walk keeps meeting total == n, where a
  // rank can only be starved.  Ideal shares differ by at most the flop-time
  // skew minus 1 there, so the fallback needs a skew of at least 2.
  int processors = 0;
  double fastest = std::numeric_limits<double>::infinity();
  double slowest = 0.0;
  for (ClusterId c = 0; c < net.num_clusters(); ++c) {
    processors += net.cluster(c).size();
    const double flop = net.cluster(c).type().flop_time.as_seconds();
    fastest = std::min(fastest, flop);
    slowest = std::max(slowest, flop);
  }
  const int edge_n = processors / 2 + 1;
  const double skew = slowest / fastest;
  for (const auto& [n, overlap] :
       std::vector<std::pair<int, bool>>{
           {300, false}, {1200, true}, {edge_n, false}}) {
    const ComputationSpec spec = apps::make_stencil_spec(
        apps::StencilConfig{.n = n, .iterations = 10, .overlap = overlap});
    CycleEstimator est(net, cal.db, spec);
    EstimatorScratch scratch;
    DeltaScratch& d = scratch.delta;
    EstimatorScratch ref_scratch;

    // Random non-empty starting configuration.
    ProcessorConfig config(static_cast<std::size_t>(net.num_clusters()),
                           0);
    int total = 0;
    while (total == 0 || total > n) {
      total = 0;
      for (ClusterId c = 0; c < net.num_clusters(); ++c) {
        config[static_cast<std::size_t>(c)] = static_cast<int>(
            config_rng.next_int(0, net.cluster(c).size()));
        total += config[static_cast<std::size_t>(c)];
      }
    }
    const FastEstimate bound = est.bind_delta(config, scratch);
    const FastEstimate bound_ref = est.estimate_into(config, ref_scratch);
    ASSERT_EQ(bound.t_c_ms, bound_ref.t_c_ms);

    int last_probe_committed = 0;
    int last_probe_other = 0;
    int last_probe_starved = 0;
    for (int move = 0; move < 60; ++move) {
      // Probe every legal +/-1 around the current baseline.
      std::vector<std::pair<ClusterId, int>> legal;
      std::vector<std::pair<ClusterId, int>> starved;
      for (ClusterId c = 0; c < net.num_clusters(); ++c) {
        const auto ci = static_cast<std::size_t>(c);
        for (const int delta : {+1, -1}) {
          const int moved = config[ci] + delta;
          if (moved < 0 || moved > net.cluster(c).size()) continue;
          if (total + delta == 0 || total + delta > n) continue;
          legal.emplace_back(c, delta);
          const std::uint64_t delta_evals = scratch.delta_evaluations;
          const FastEstimate got =
              est.estimate_delta(c, delta, scratch);
          // Only the starvation fallback leaves the delta count alone.
          if (scratch.delta_evaluations == delta_evals) {
            starved.emplace_back(c, delta);
          }
          ProcessorConfig moved_config = config;
          moved_config[ci] = moved;
          const FastEstimate want =
              est.estimate_into(moved_config, ref_scratch);
          ASSERT_EQ(want.t_comp_ms, got.t_comp_ms)
              << "seed " << GetParam().seed << " move " << move << " c "
              << c << " delta " << delta;
          ASSERT_EQ(want.t_comm_ms, got.t_comm_ms)
              << "seed " << GetParam().seed << " move " << move << " c "
              << c << " delta " << delta;
          ASSERT_EQ(want.t_overlap_ms, got.t_overlap_ms)
              << "seed " << GetParam().seed << " move " << move << " c "
              << c << " delta " << delta;
          ASSERT_EQ(want.t_c_ms, got.t_c_ms)
              << "seed " << GetParam().seed << " move " << move << " c "
              << c << " delta " << delta;
          ASSERT_EQ(want.t_elapsed_ms, got.t_elapsed_ms)
              << "seed " << GetParam().seed << " move " << move << " c "
              << c << " delta " << delta;
        }
      }
      ASSERT_FALSE(legal.empty());
      const auto pick = [&](const std::vector<std::pair<ClusterId, int>>& v) {
        return v[static_cast<std::size_t>(config_rng.next_int(
            0, static_cast<std::int64_t>(v.size()) - 1))];
      };
      // Commit a random legal move and keep walking; first re-probe so
      // the last probe before the commit is, in rotation, the committed
      // move, a different one, or a starved one (then also committed, so
      // the commit adopts a gather whose scoring fell back).
      std::pair<ClusterId, int> commit = pick(legal);
      std::pair<ClusterId, int> last = commit;
      if (move % 3 == 1 && legal.size() > 1) {
        while (last == commit) last = pick(legal);
        ++last_probe_other;
      } else if (move % 3 == 2 && !starved.empty()) {
        commit = last = pick(starved);
        ++last_probe_starved;
      } else {
        ++last_probe_committed;
      }
      const auto [cc, cd] = commit;
      est.estimate_delta(last.first, last.second, scratch);
      est.commit_delta(cc, cd, scratch);
      config[static_cast<std::size_t>(cc)] += cd;
      total += cd;
      // After a commit the cache must be the one a fresh bind builds, and
      // the new baseline must itself score bitwise.
      EstimatorScratch fresh;
      est.bind_delta(config, fresh);
      ASSERT_EQ(d.config, fresh.delta.config);
      ASSERT_EQ(d.total_p, fresh.delta.total_p);
      ASSERT_EQ(d.group_c, fresh.delta.group_c);
      ASSERT_EQ(d.group_p, fresh.delta.group_p);
      ASSERT_EQ(d.group_w, fresh.delta.group_w);
      ASSERT_EQ(d.prefix_w, fresh.delta.prefix_w)
          << "seed " << GetParam().seed << " move " << move;
      const FastEstimate rebased = est.estimate_delta(cc, 0, scratch);
      const FastEstimate rebased_fresh =
          est.estimate_delta(cc, 0, fresh);
      const FastEstimate rebased_ref =
          est.estimate_into(config, ref_scratch);
      ASSERT_EQ(rebased.t_c_ms, rebased_fresh.t_c_ms)
          << "seed " << GetParam().seed << " move " << move;
      ASSERT_EQ(rebased.t_c_ms, rebased_ref.t_c_ms)
          << "seed " << GetParam().seed << " move " << move;
    }
    EXPECT_GT(last_probe_committed, 0) << "n " << n;
    EXPECT_GT(last_probe_other, 0) << "n " << n;
    if (n == edge_n && skew >= 2.0) {
      EXPECT_GT(last_probe_starved, 0)
          << "seed " << GetParam().seed << ": the starvation-edge input "
          << "never reached the fallback";
    }
  }
}

TEST(DeltaEval, EmptyAndRefillCluster) {
  // The splice cases the randomized walk may or may not hit, pinned
  // deterministically: removing the last processor of a cluster (its
  // group vanishes from the gather) and re-activating an empty cluster
  // (a group is inserted), both bitwise against from-scratch.
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10, .overlap = false});
  CycleEstimator est(net, cal.db, spec);
  EstimatorScratch scratch;
  EstimatorScratch ref_scratch;

  est.bind_delta({1, 1}, scratch);
  const FastEstimate drained = est.estimate_delta(0, -1, scratch);
  const FastEstimate drained_ref = est.estimate_into({0, 1}, ref_scratch);
  EXPECT_EQ(drained.t_c_ms, drained_ref.t_c_ms);
  EXPECT_EQ(drained.t_comm_ms, drained_ref.t_comm_ms);

  est.commit_delta(0, -1, scratch);  // baseline now {0, 1}
  const FastEstimate refilled = est.estimate_delta(0, +1, scratch);
  const FastEstimate refilled_ref = est.estimate_into({1, 1}, ref_scratch);
  EXPECT_EQ(refilled.t_c_ms, refilled_ref.t_c_ms);
  EXPECT_EQ(refilled.t_comm_ms, refilled_ref.t_comm_ms);

  // Draining the only remaining cluster must be rejected, and the
  // capacity edge must hold on the high side too.
  EXPECT_THROW(est.estimate_delta(1, -1, scratch), Error);
  est.commit_delta(0, +1, scratch);  // baseline {1, 1}
  EXPECT_THROW(est.estimate_delta(0, net.cluster(0).size(), scratch),
               Error);
}

TEST(DeltaEval, ForeignEstimateIntoBetweenProbeAndCommit) {
  // One scratch serving two estimators: estimate_into() of another
  // estimator rebinds the scratch's tables and restages the kernel's
  // groups.  A probe after it must run on this estimator's tables again,
  // and a commit of a move probed before it must regather instead of
  // adopting the foreign staging -- bitwise a fresh scratch's.
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10, .overlap = false});
  const ComputationSpec other_spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 2400, .iterations = 3, .overlap = true});
  const CycleEstimator est(net, cal.db, spec);
  const CycleEstimator other(net, cal.db, other_spec);
  EstimatorScratch scratch;
  EstimatorScratch ref_scratch;

  est.bind_delta({2, 1}, scratch);
  other.estimate_into({5, 4}, scratch);
  const FastEstimate moved = est.estimate_delta(0, +1, scratch);
  const FastEstimate moved_ref = est.estimate_into({3, 1}, ref_scratch);
  EXPECT_EQ(moved.t_comp_ms, moved_ref.t_comp_ms);
  EXPECT_EQ(moved.t_comm_ms, moved_ref.t_comm_ms);
  EXPECT_EQ(moved.t_c_ms, moved_ref.t_c_ms);
  other.estimate_into({5, 4}, scratch);
  est.commit_delta(0, +1, scratch);  // baseline now {3, 1}
  EstimatorScratch fresh;
  est.bind_delta({3, 1}, fresh);
  EXPECT_EQ(scratch.delta.config, fresh.delta.config);
  EXPECT_EQ(scratch.delta.group_c, fresh.delta.group_c);
  EXPECT_EQ(scratch.delta.group_p, fresh.delta.group_p);
  EXPECT_EQ(scratch.delta.prefix_w, fresh.delta.prefix_w);
  const FastEstimate probe = est.estimate_delta(1, +1, scratch);
  const FastEstimate want = est.estimate_into({3, 2}, ref_scratch);
  EXPECT_EQ(probe.t_comp_ms, want.t_comp_ms);
  EXPECT_EQ(probe.t_comm_ms, want.t_comm_ms);
  EXPECT_EQ(probe.t_c_ms, want.t_c_ms);
}

TEST(DeltaEval, CountsEvaluationsAndRequiresBinding) {
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10, .overlap = false});
  CycleEstimator est(net, cal.db, spec);
  EstimatorScratch scratch;
  EXPECT_THROW(est.estimate_delta(0, 1, scratch), Error);

  est.bind_delta({3, 2}, scratch);
  const std::uint64_t evals_after_bind = scratch.evaluations;
  est.estimate_delta(0, 1, scratch);
  est.estimate_delta(1, -1, scratch);
  EXPECT_EQ(scratch.evaluations, evals_after_bind + 2);
  EXPECT_GE(scratch.delta_evaluations, 0u);
}

TEST(EstimatorMonotonicity, MoreWorkNeverCheaper) {
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  double prev = 0.0;
  for (const int n : {60, 120, 300, 600, 1200, 2400}) {
    const ComputationSpec spec = apps::make_stencil_spec(
        apps::StencilConfig{.n = n, .iterations = 10, .overlap = false});
    CycleEstimator est(net, cal.db, spec);
    const double tc = est.estimate({6, 6}).t_c_ms;
    EXPECT_GT(tc, prev) << "T_c must grow with problem size at fixed p";
    prev = tc;
  }
}

TEST(EstimatorMonotonicity, ElapsedScalesWithIterations) {
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  const auto elapsed = [&](int iters) {
    const ComputationSpec spec = apps::make_stencil_spec(
        apps::StencilConfig{.n = 600, .iterations = iters,
                            .overlap = false});
    CycleEstimator est(net, cal.db, spec);
    return est.estimate({6, 0}).t_elapsed_ms;
  };
  EXPECT_NEAR(elapsed(20), 2.0 * elapsed(10), 1e-9);
}

}  // namespace
}  // namespace netpart
