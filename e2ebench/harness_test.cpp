// Tests for the benchmark harness's own logic: the percentile rule, the
// open-loop accounting, the window grouping, seed determinism of every
// request stream, and the oracle's ability to catch a wrong decision.
#include <gtest/gtest.h>

#include <cmath>

#include "calib/calibrate.hpp"
#include "core/partitioner.hpp"
#include "harness.hpp"
#include "net/presets.hpp"

namespace e2e {
namespace {

using netpart::svc::PartitionDecision;
using netpart::svc::PartitionRequest;

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyondIt) {
  EXPECT_DOUBLE_EQ(tail_quantile(100000), 0.999);
  EXPECT_DOUBLE_EQ(tail_quantile(10000), 0.999);
  EXPECT_DOUBLE_EQ(tail_quantile(9999), 0.99);
  EXPECT_DOUBLE_EQ(tail_quantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(tail_quantile(999), 0.95);
  EXPECT_DOUBLE_EQ(tail_quantile(100), 0.9);
  EXPECT_DOUBLE_EQ(tail_quantile(40), 0.75);
  EXPECT_DOUBLE_EQ(tail_quantile(39), 0.5);
  EXPECT_DOUBLE_EQ(tail_quantile(3), 0.5);
}

TEST(PercentileRule, ReportedTailNeverExceedsP99) {
  LogHistogram h;
  for (int i = 1; i <= 100000; ++i) h.record_us(i);
  const LatencySummary s = summarize(h);
  EXPECT_EQ(s.samples, 100000u);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.999);
  EXPECT_NEAR(s.tail_us, 99000.0, 99000.0 * 0.01);
  EXPECT_NEAR(s.p50_us, 50000.0, 50000.0 * 0.01);
}

TEST(PercentileRule, SmallSampleFallsBackToSupportedPercentile) {
  LogHistogram h;
  for (int i = 1; i <= 100; ++i) h.record_us(i);
  const LatencySummary s = summarize(h);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.9);
  EXPECT_NEAR(s.tail_us, 90.0, 1.5);
}

TEST(LogHistogram, QuantilesWithinOneBucket) {
  LogHistogram h;
  for (int i = 0; i < 1000; ++i) h.record_ns(700.0 + i);  // 700..1699 ns
  EXPECT_NEAR(h.quantile_ns(0.5), 1200.0, 1200.0 * 0.008);
  EXPECT_NEAR(h.quantile_ns(0.0), 700.0, 700.0 * 0.008);
  EXPECT_NEAR(h.quantile_ns(1.0), 1699.0, 1699.0 * 0.008);
  LogHistogram other;
  other.record_ns(5e6);
  h.merge(other);
  EXPECT_EQ(h.count(), 1001u);
}

TEST(LogHistogram, DistributionSpansOneMicrosecondToHundredMilliseconds) {
  LogHistogram h;
  h.record_ns(500.0);  // below 1 us
  h.record_us(1.2);
  h.record_us(150.0);
  h.record_us(2e5);  // above 100 ms
  const JsonValue d = h.distribution_json();
  ASSERT_EQ(d.find("edges_us")->size(), 26u);
  EXPECT_DOUBLE_EQ(d.find("edges_us")->at(0).as_double(), 1.0);
  EXPECT_NEAR(d.find("edges_us")->at(25).as_double(), 1e5, 1e-6);
  ASSERT_EQ(d.find("counts")->size(), 25u);
  std::int64_t in_range = 0;
  for (std::size_t i = 0; i < 25; ++i) {
    in_range += d.find("counts")->at(i).as_int();
  }
  EXPECT_EQ(in_range, 2);
  EXPECT_EQ(d.find("below_1us")->as_int(), 1);
  EXPECT_EQ(d.find("above_100ms")->as_int(), 1);
  EXPECT_EQ(d.find("counts")->at(0).as_int(), 1);   // 1.2 us in [1, 1.58)
  EXPECT_EQ(d.find("counts")->at(10).as_int(), 1);  // 150 us in [100, 158)
}

TEST(OpenLoop, StalledGeneratorChargesLaterRequestsFromTheirDueTime) {
  const Clock::time_point start{};
  const OpenLoopSchedule schedule(start, /*period_us=*/100.0);
  EXPECT_EQ(schedule.due(3) - start, std::chrono::microseconds(300));
  // The generator stalls 1 ms before sending request 0, then sends requests
  // 0..9 back to back; each is served in 5 us.  Request k was due at
  // k * 100 us, so it is charged the stall minus its own offset.
  const auto stall_end = start + std::chrono::microseconds(1000);
  for (std::uint64_t k = 0; k < 10; ++k) {
    const auto done = stall_end + std::chrono::microseconds(5 * (k + 1));
    EXPECT_NEAR(schedule.charge_us(k, done),
                1000.0 + 5.0 * static_cast<double>(k + 1) -
                    100.0 * static_cast<double>(k),
                1e-6);
  }
  // A reply that lands before its due time is charged nothing, not a
  // negative latency.
  EXPECT_EQ(schedule.charge_us(20, start + std::chrono::microseconds(1)),
            0.0);
}

TEST(Timeline, GroupsWindowsUntilEachHoldsEnoughSamples) {
  const Clock::time_point start{};
  Timeline t(start, /*seconds=*/2.5, /*window_s=*/0.5);
  ASSERT_EQ(t.windows().size(), 5u);
  // 1500 completions in each of windows 0..3, 100 in window 4.
  for (int w = 0; w < 5; ++w) {
    const int n = w < 4 ? 1500 : 100;
    for (int i = 0; i < n; ++i) {
      t.record(start + std::chrono::milliseconds(500 * w + 1 + i % 400),
               1.0 + w);
    }
  }
  // A completion after the nominal end lands in the last window.
  t.record(start + std::chrono::seconds(5), 9.0);
  EXPECT_EQ(t.windows().back().done, 101u);
  EXPECT_EQ(t.completed(), 6101u);
  // Pairs of windows reach 2500 samples; the odd window out joins the last
  // pair rather than forming a short group of its own.
  const auto groups = window_groups(t);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], std::make_pair(std::size_t{0}, std::size_t{2}));
  EXPECT_EQ(groups[1], std::make_pair(std::size_t{2}, std::size_t{5}));
}

TEST(Streams, EveryRequestStreamIsSeedDeterministic) {
  const auto keys = [](const std::vector<PartitionRequest>& u) {
    std::vector<std::uint64_t> out;
    for (const PartitionRequest& r : u) {
      out.push_back(netpart::svc::request_key(r, 0, 0));
    }
    return out;
  };
  EXPECT_EQ(keys(hot_universe(5, 64)), keys(hot_universe(5, 64)));
  EXPECT_NE(keys(hot_universe(5, 64)), keys(hot_universe(6, 64)));
  EXPECT_EQ(keys(churn_universe(5, 64, 0.1)), keys(churn_universe(5, 64, 0.1)));
  EXPECT_NE(keys(churn_universe(5, 64, 0.1)), keys(churn_universe(6, 64, 0.1)));
  EXPECT_EQ(zipf_stream(5, 0, 100, 1.0, 500), zipf_stream(5, 0, 100, 1.0, 500));
  EXPECT_NE(zipf_stream(5, 0, 100, 1.0, 500), zipf_stream(6, 0, 100, 1.0, 500));
  EXPECT_NE(zipf_stream(5, 0, 100, 1.0, 500), zipf_stream(5, 1, 100, 1.0, 500));
  ZipfStream a(5, 0, 32, 1.1), b(5, 0, 32, 1.1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  EXPECT_EQ(sweep_problem_size(5), sweep_problem_size(5));

  netpart::AvailabilitySnapshot idle;
  idle.available = {32, 16, 24, 8};
  const auto s1 = churn_snapshots(5, idle, 20);
  const auto s2 = churn_snapshots(5, idle, 20);
  ASSERT_EQ(s1.size(), 20u);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].available, s2[i].available);
    // Consecutive snapshots differ, so every update bumps the epoch.
    EXPECT_NE(s1[i].available,
              i == 0 ? idle.available : s1[i - 1].available);
  }
}

TEST(Streams, UniversesAreDistinctRequests) {
  const auto u = hot_universe(9, 256);
  std::set<std::uint64_t> keys;
  int repartitions = 0;
  for (const PartitionRequest& r : u) {
    keys.insert(netpart::svc::request_key(r, 0, 0));
    if (r.kind == PartitionRequest::Kind::Repartition) ++repartitions;
  }
  EXPECT_EQ(keys.size(), u.size());
  EXPECT_EQ(repartitions, 64);
}

TEST(Oracle, FlagsACorruptedDecision) {
  const netpart::Network net = netpart::presets::paper_testbed();
  netpart::CalibrationParams params;
  params.topologies = {netpart::Topology::OneD};
  const netpart::CostModelDb db = netpart::calibrate(net, params).db;
  const auto snap = netpart::gather_availability(
      net, netpart::make_managers(net, netpart::AvailabilityPolicy{}));
  const std::uint64_t sig = netpart::svc::network_signature(net);
  ServiceOracle oracle(net, db, sig);
  oracle.add_epoch(1, snap);

  PartitionRequest request;
  request.spec = "stencil";
  request.n = 600;
  request.iterations = 10;
  PartitionDecision good = oracle.expected(0, request, 1);
  good.key = netpart::svc::request_key(request, sig, 1);
  good.epoch = 1;
  ASSERT_EQ(oracle.check(0, request, good), "");

  PartitionDecision tc = good;
  tc.t_c_ms = std::nextafter(tc.t_c_ms, 1e300);
  EXPECT_EQ(oracle.check(0, request, tc), "t_c_ms differs");

  PartitionDecision config = good;
  config.config.back() += 1;
  EXPECT_EQ(oracle.check(0, request, config), "config differs");

  PartitionDecision split = good;
  std::vector<std::int64_t> v = split.partition.values();
  v.front() += 1;
  v.back() -= 1;
  split.partition = netpart::PartitionVector(v);
  EXPECT_EQ(oracle.check(0, request, split), "partition differs");

  PartitionDecision stale = good;
  stale.epoch = 2;  // an epoch the feed never reported
  EXPECT_NE(oracle.check(0, request, stale), "");

  PartitionDecision other = good;
  other.key ^= 1;  // the answer to some other request
  EXPECT_EQ(oracle.check(0, request, other), "decision answers another request");
}

}  // namespace
}  // namespace e2e
