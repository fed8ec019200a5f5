// Randomised end-to-end property tests ("fuzz-lite"): random traffic
// patterns through MMPS and random partition requests through the full
// pipeline must uphold the library invariants for every seed.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "analysis/model_lint.hpp"
#include "analysis/net_lint.hpp"
#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "core/partitioner.hpp"
#include "fleet/wire.hpp"
#include "mmps/system.hpp"
#include "net/presets.hpp"
#include "obs/trace_context.hpp"
#include "util/error.hpp"

namespace netpart {
namespace {

class RandomTraffic : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTraffic, MmpsDeliversEverythingInOrder) {
  const Network net = presets::paper_testbed();
  sim::Engine engine;
  sim::NetSimParams params;
  params.loss_rate = 0.15;
  params.rto = SimTime::millis(3);
  sim::NetSim netsim(engine, net, params, Rng(GetParam()));
  mmps::System mmps(netsim);
  Rng rng = Rng(GetParam()).stream(1);

  struct Key {
    ProcessorRef src;
    ProcessorRef dst;
    std::int32_t tag;
    auto operator<=>(const Key&) const = default;
  };
  std::map<Key, int> sent_count;
  std::map<Key, int> next_expected;  // sequence encoded in payload size
  int delivered = 0;
  int total = 0;

  const auto random_ref = [&] {
    const auto c = static_cast<ClusterId>(rng.next_int(0, 1));
    const auto i = static_cast<ProcessorIndex>(rng.next_int(0, 5));
    return ProcessorRef{c, i};
  };

  for (int round = 0; round < 120; ++round) {
    const ProcessorRef src = random_ref();
    ProcessorRef dst = random_ref();
    if (src == dst) dst.index = (dst.index + 1) % 6;
    const auto tag = static_cast<std::int32_t>(rng.next_int(0, 3));
    const Key key{src, dst, tag};
    const int seq = sent_count[key]++;
    ++total;
    // Payload size encodes the per-key sequence number.
    mmps.send(src, dst, tag,
              std::vector<std::byte>(static_cast<std::size_t>(seq + 1)));
    mmps.recv(dst, src, tag, [&, key](mmps::Message msg) {
      // Per-key FIFO: sizes arrive in send order.
      EXPECT_EQ(msg.payload.size(),
                static_cast<std::size_t>(next_expected[key] + 1));
      ++next_expected[key];
      ++delivered;
    });
  }
  engine.run();
  EXPECT_EQ(delivered, total);
  EXPECT_EQ(mmps.unclaimed(), 0u);
}

TEST_P(RandomTraffic, PipelineInvariantsOnRandomNetworks) {
  Rng rng(GetParam() * 7919);
  const Network net = presets::random_network(
      rng, 2 + static_cast<int>(GetParam() % 4), 6);
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  Rng size_rng = rng.stream(3);

  for (int trial = 0; trial < 5; ++trial) {
    const int n = static_cast<int>(size_rng.next_int(snap.total(), 4000));
    const ComputationSpec spec = apps::make_stencil_spec(
        apps::StencilConfig{.n = n, .iterations = 10, .overlap = false});
    CycleEstimator est(net, cal.db, spec);
    const PartitionResult r = partition(est, snap);
    // Invariants: capacity respected, domain covered, positive estimate,
    // placement consistent with the configuration.
    for (ClusterId c = 0; c < net.num_clusters(); ++c) {
      ASSERT_LE(r.config[static_cast<std::size_t>(c)],
                snap.available[static_cast<std::size_t>(c)]);
    }
    ASSERT_EQ(r.estimate.partition.total(), n);
    ASSERT_GT(r.estimate.t_c_ms, 0.0);
    ASSERT_EQ(static_cast<int>(r.placement.size()),
              config_total(r.config));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTraffic,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// --- degenerate inputs ----------------------------------------------------
//
// The estimator's ClusterObjective memo uses NaN as its "empty" sentinel
// (estimator.hpp), so a NaN cost leaking out of the estimator would be
// indistinguishable from an un-evaluated slot.  Two lines of defense are
// locked down here: npcheck's lints flag the inputs that could produce
// one (NaN-prone fitted models, zero-processor clusters), and for valid
// but degenerate inputs -- single-processor segments, PDU counts at the
// starvation edge -- every cost field stays finite, scalar and delta.

/// Walk `scratch.delta`'s baseline to `target` as a delta chain -- one
/// +/-1 move at a time, each an estimate_delta then a commit_delta of the
/// same move -- and return the last step's estimate, i.e. `target`'s
/// estimate on the delta path (a zero move when already there).
/// Removals run before additions, and the last selected processor goes
/// only once an addition has happened, so the running total never leaves
/// [1, max(source, target, 2)].
FastEstimate delta_walk(const CycleEstimator& est,
                        const ProcessorConfig& target,
                        EstimatorScratch& scratch) {
  DeltaScratch& d = scratch.delta;
  FastEstimate last = est.estimate_delta(0, 0, scratch);
  const auto step = [&](std::size_t c, int delta) {
    last = est.estimate_delta(static_cast<ClusterId>(c), delta, scratch);
    est.commit_delta(static_cast<ClusterId>(c), delta, scratch);
  };
  for (;;) {
    for (std::size_t c = 0; c < target.size(); ++c) {
      while (d.config[c] > target[c] && d.total_p > 1) step(c, -1);
    }
    std::size_t grow = 0;
    while (grow < target.size() && d.config[grow] >= target[grow]) ++grow;
    if (grow == target.size()) break;
    step(grow, +1);
  }
  for (std::size_t c = 0; c < target.size(); ++c) {
    while (d.config[c] > target[c]) step(c, -1);
  }
  return last;
}

ProcessorType fuzz_proc(const char* name, int flop_ns) {
  ProcessorType type;
  type.name = name;
  type.flop_time = SimTime::nanos(flop_ns);
  type.int_time = SimTime::nanos(flop_ns / 2);
  return type;
}

TEST(DegenerateInputs, NpcheckFlagsEmptyNetworksAndNanModels) {
  // A network with no clusters has no processors to give a PDU to:
  // NP-N005.  (A zero-processor or zero-rate *cluster* is rejected even
  // earlier, by the Cluster constructor's own invariants -- the lint
  // branch exists for hand-built part lists that bypass it.)
  const std::vector<Segment> segments = {{0, 10e6, SimTime::micros(100)}};
  analysis::DiagnosticSink net_sink;
  analysis::lint_network_parts({}, segments, {}, "<fuzz-net>", net_sink);
  EXPECT_NE(net_sink.render_text().find("[NP-N005]"), std::string::npos)
      << net_sink.render_text();

  // A fit with a non-finite coefficient poisons every estimate that
  // touches it: NP-M001, as an error, before it ever reaches a search.
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  CostModelDb db = calibrate(net, params).db;
  Eq1Fit poisoned = db.comm_fit(0, Topology::OneD);
  poisoned.c3 = std::numeric_limits<double>::quiet_NaN();
  db.set_comm(0, Topology::OneD, poisoned);
  analysis::DiagnosticSink model_sink;
  analysis::lint_cost_model(db, net, "<fuzz-model>", model_sink);
  EXPECT_FALSE(model_sink.clean());
  EXPECT_NE(model_sink.render_text().find("[NP-M001]"), std::string::npos)
      << model_sink.render_text();
}

TEST(DegenerateInputs, SingleProcessorSegmentsStayFiniteAndBatchExact) {
  // A singleton cluster has no intra-cluster benchmark, so model lint
  // warns (NP-M006) and the estimator substitutes its conservative proxy
  // -- which must still be finite and bitwise identical across the
  // scalar engine and a delta chain through the configurations.
  const std::vector<Cluster> clusters = {
      Cluster(0, "lone", fuzz_proc("fast", 200), 0, 1),
      Cluster(1, "farm", fuzz_proc("slow", 400), 1, 5)};
  const std::vector<Segment> segments = {{0, 10e6, SimTime::micros(100)},
                                         {1, 10e6, SimTime::micros(100)}};
  const std::vector<RouterLink> routers = {
      {0, 1, SimTime::nanos(600), SimTime::micros(50)}};
  const Network net(clusters, segments, routers);
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);

  analysis::DiagnosticSink sink;
  analysis::lint_cost_model(cal.db, net, "<fuzz-model>", sink);
  EXPECT_NE(sink.render_text().find("[NP-M006]"), std::string::npos)
      << sink.render_text();

  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10, .overlap = false});
  CycleEstimator est(net, cal.db, spec);
  const std::vector<ProcessorConfig> configs = {
      {1, 0}, {1, 1}, {0, 5}, {1, 5}, {1, 3}, {0, 1}};
  EstimatorScratch delta_scratch;
  est.bind_delta(configs.front(), delta_scratch);
  EstimatorScratch scalar_scratch;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const FastEstimate got = delta_walk(est, configs[i], delta_scratch);
    const FastEstimate want = est.estimate_into(configs[i], scalar_scratch);
    ASSERT_TRUE(std::isfinite(want.t_c_ms)) << "config " << i;
    ASSERT_TRUE(std::isfinite(want.t_comm_ms)) << "config " << i;
    ASSERT_EQ(want.t_c_ms, got.t_c_ms) << "config " << i;
    ASSERT_EQ(want.t_comm_ms, got.t_comm_ms) << "config " << i;
  }
}

class StarvationPressure : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StarvationPressure, NoNanReachesTheObjectiveCache) {
  // PDU counts at or just above the processor count force zero-base
  // shares and the starvation-repair path; heterogeneous speeds make the
  // shares maximally lopsided.  Nothing in the pipeline may emit NaN --
  // the ClusterObjective memo's empty sentinel must stay unambiguous --
  // and a delta chain through the configurations must agree bitwise with
  // the scalar engine even on the repair path.  One delta scratch serves
  // every trial, so each trial's new estimator also rebinds it.
  Rng rng(GetParam() ^ 0x57A8);
  const Network net = presets::random_network(
      rng, 2 + static_cast<int>(GetParam() % 3), 5);
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal = calibrate(net, params);
  Rng config_rng = rng.stream(5);
  EstimatorScratch delta_scratch;
  EstimatorScratch scalar_scratch;
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<ProcessorConfig> configs;
    int max_total = 1;
    for (int c = 0; c < 32; ++c) {
      ProcessorConfig config(static_cast<std::size_t>(net.num_clusters()),
                             0);
      int total = 0;
      for (ClusterId cl = 0; cl < net.num_clusters(); ++cl) {
        config[static_cast<std::size_t>(cl)] = static_cast<int>(
            config_rng.next_int(0, net.cluster(cl).size()));
        total += config[static_cast<std::size_t>(cl)];
      }
      if (total == 0) continue;
      max_total = std::max(max_total, total);
      configs.push_back(std::move(config));
    }
    // n at the starvation edge: barely one PDU per processor.
    const int n = max_total + static_cast<int>(config_rng.next_int(0, 2));
    const ComputationSpec spec = apps::make_stencil_spec(
        apps::StencilConfig{.n = n, .iterations = 10, .overlap = false});
    CycleEstimator est(net, cal.db, spec);
    std::vector<ProcessorConfig> fitting;
    for (const ProcessorConfig& config : configs) {
      if (config_total(config) <= n) fitting.push_back(config);
    }
    if (fitting.empty()) continue;
    est.bind_delta(fitting.front(), delta_scratch);
    for (std::size_t i = 0; i < fitting.size(); ++i) {
      const FastEstimate got = delta_walk(est, fitting[i], delta_scratch);
      const FastEstimate want =
          est.estimate_into(fitting[i], scalar_scratch);
      ASSERT_TRUE(std::isfinite(got.t_c_ms))
          << "trial " << trial << " i " << i;
      ASSERT_TRUE(std::isfinite(got.t_comp_ms));
      ASSERT_TRUE(std::isfinite(got.t_comm_ms));
      ASSERT_EQ(want.t_c_ms, got.t_c_ms)
          << "trial " << trial << " i " << i;
      ASSERT_EQ(want.t_elapsed_ms, got.t_elapsed_ms);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StarvationPressure,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(DegenerateInputs, TruncatedTraceContextBytesThrowInsteadOfCrashing) {
  // A trace context on the wire is u64 length (0 or 24) + that many
  // bytes.  Every truncation of a valid encoding, and every length the
  // format does not define, must surface as InvalidArgument from the
  // reader -- never a crash or a garbage context.
  obs::TraceContext ctx;
  ctx.trace_id = 0x0123456789abcdefULL;
  ctx.span_id = 0xfedcba9876543210ULL;
  ctx.parent_span_id = 0x1111111111111111ULL;
  fleet::WireWriter w;
  fleet::encode_trace_context_into(w, ctx);
  const std::vector<std::byte> bytes = w.take();
  ASSERT_EQ(bytes.size(), 32u);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::byte> truncated(bytes.begin(),
                                     bytes.begin() +
                                         static_cast<long>(cut));
    fleet::WireReader r(truncated);
    EXPECT_THROW((void)fleet::decode_trace_context_from(r), Error)
        << "cut at " << cut;
  }
  // Undefined lengths (anything but 0 and 24), including lengths large
  // enough to overflow a size computation, are rejected up front.
  for (const std::uint64_t bogus :
       {std::uint64_t{1}, std::uint64_t{8}, std::uint64_t{16},
        std::uint64_t{23}, std::uint64_t{25},
        std::numeric_limits<std::uint64_t>::max()}) {
    fleet::WireWriter bad;
    bad.u64(bogus);
    for (int i = 0; i < 24; ++i) bad.u8(0xee);
    const std::vector<std::byte> payload = bad.take();
    fleet::WireReader r(payload);
    EXPECT_THROW((void)fleet::decode_trace_context_from(r), InvalidArgument)
        << "length " << bogus;
  }
}

TEST(DegenerateInputs, WireLengthsAndCountsAreCheckedBeforeAllocating) {
  // Every length or element count on the wire is checked against the
  // bytes left before anything is sized by it: a string length near 2^64
  // must not wrap the bound (it threw std::length_error), and a count must
  // not reach reserve() (2^62 threw std::length_error; 2^26 reserved
  // 512 MB before the truncation showed).  A request kind the format does
  // not define is rejected too, and so is a search or stop byte other than
  // 0 or 1.  Each is a peer bug: InvalidArgument.
  const auto forward_header = [] {
    fleet::WireWriter w;
    w.i32(1).u64(42).i32(7).u64(0);  // from, key, reply tag, no context
    return w;
  };
  const auto padded = [](fleet::WireWriter& w) {
    for (int i = 0; i < 32; ++i) w.u8(0);
    return w.take();
  };
  {
    fleet::WireWriter w = forward_header();
    w.u8(0).u64(std::numeric_limits<std::uint64_t>::max() - 20);
    const std::vector<std::byte> bytes = padded(w);
    EXPECT_THROW((void)fleet::decode_forward(bytes), InvalidArgument);
  }
  for (const int kind : {2, 255}) {
    fleet::WireWriter w = forward_header();
    w.u8(static_cast<std::uint8_t>(kind))
        .str("stencil")
        .i64(256)
        .i32(4)
        .u8(0)
        .u8(0)
        .u64(0);
    const std::vector<std::byte> bytes = w.take();
    EXPECT_THROW((void)fleet::decode_forward(bytes), InvalidArgument)
        << "kind " << kind;
  }
  for (const auto& [search, stop] :
       {std::pair<int, int>{2, 0}, {255, 0}, {0, 2}, {1, 255}}) {
    fleet::WireWriter w = forward_header();
    w.u8(0)
        .str("stencil")
        .i64(256)
        .i32(4)
        .u8(static_cast<std::uint8_t>(search))
        .u8(static_cast<std::uint8_t>(stop))
        .u64(0);
    const std::vector<std::byte> bytes = w.take();
    EXPECT_THROW((void)fleet::decode_forward(bytes), InvalidArgument)
        << "search " << search << " stop " << stop;
  }
  for (const std::uint64_t count :
       {std::uint64_t{1} << 62, std::uint64_t{1} << 26}) {
    fleet::WireWriter w = forward_header();
    w.u8(1).str("job").i64(256).i32(4).u8(0).u8(0).u64(count);
    const std::vector<std::byte> bytes = padded(w);
    EXPECT_THROW((void)fleet::decode_forward(bytes), InvalidArgument)
        << "rate count " << count;

    // A decision's three counts: per-rank shares, config, placement.
    for (int field = 0; field < 3; ++field) {
      fleet::WireWriter d;
      d.u64(9).u64(3).f64(1.5).u64(12);
      d.u64(field == 0 ? count : 1).i64(256);
      if (field >= 1) d.u64(field == 1 ? count : 1).i32(1);
      if (field == 2) d.u64(count).i32(0).i32(0);
      const std::vector<std::byte> decision = padded(d);
      EXPECT_THROW((void)fleet::decode_decision(decision), InvalidArgument)
          << "count " << count << " field " << field;
    }
  }
}

}  // namespace
}  // namespace netpart
