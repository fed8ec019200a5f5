// Tests for the unified telemetry layer (src/obs/): counters, the
// log-linear latency histogram's layout and quantiles, snapshots,
// RAII spans on both clocks, the Chrome-trace exporter (round-tripped
// through the util/json parser), the simulator's msg spans, and the
// determinism of the text export.  ObsThreadedTest matches the tsan test
// preset's filter, so its concurrency cases also run under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/stencil.hpp"
#include "calib/calibrate.hpp"
#include "core/estimator.hpp"
#include "core/partitioner.hpp"
#include "net/availability.hpp"
#include "net/presets.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "sim/engine.hpp"
#include "sim/netsim.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace netpart {
namespace {

using obs::Span;
using obs::TelemetryRegistry;

// ------------------------------------------------------------- metrics

TEST(ObsMetricsTest, CounterFindOrCreateAndAdd) {
  TelemetryRegistry reg;
  obs::Counter& c = reg.counter("x");
  c.add();
  c.add(4);
  EXPECT_EQ(reg.counter("x").value(), 5u);
  EXPECT_EQ(&reg.counter("x"), &c);
  EXPECT_EQ(reg.counter("y").value(), 0u);
}

TEST(ObsMetricsTest, SnapshotDeltaKeepsOnlyChanges) {
  TelemetryRegistry reg;
  reg.counter("stable").add(10);
  reg.counter("moving").add(1);
  reg.latency("lat").record(5.0);
  const obs::MetricsSnapshot before = reg.snapshot();
  reg.counter("moving").add(2);
  reg.counter("fresh").add(7);
  reg.latency("lat").record(6.0);
  const obs::MetricsSnapshot delta =
      obs::snapshot_delta(before, reg.snapshot());

  EXPECT_EQ(delta.counters.size(), 2u);
  EXPECT_EQ(delta.counters.at("moving"), 2u);
  EXPECT_EQ(delta.counters.at("fresh"), 7u);
  EXPECT_EQ(delta.counters.count("stable"), 0u);
  EXPECT_EQ(delta.latency_counts.at("lat"), 1u);
}

TEST(ObsMetricsTest, SnapshotTextIsNameOrdered) {
  obs::MetricsSnapshot snap;
  snap.counters["b"] = 2;
  snap.counters["a"] = 1;
  snap.latency_counts["z"] = 3;
  EXPECT_EQ(obs::snapshot_text(snap),
            "counter a 1\ncounter b 2\nlatency z count 3\n");
}

TEST(ObsMetricsTest, MetricsTextCoversCountersAndHistograms) {
  TelemetryRegistry reg;
  reg.counter("requests").add(3);
  reg.latency("rtt").record(10.0);
  const std::string text = reg.metrics_text();
  EXPECT_NE(text.find("counter requests 3"), std::string::npos);
  EXPECT_NE(text.find("latency rtt"), std::string::npos);
}

// ----------------------------------------------------- latency histogram

using obs::LatencyHistogram;

TEST(LatencyHistogramTest, BucketsAndClamping) {
  // 1 ns opens the first octave; each bucket starts where the last ends.
  EXPECT_EQ(LatencyHistogram::bucket_of(0.001), 1u);
  EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_lower_us(1), 0.001);
  for (std::size_t b = 1; b + 1 < LatencyHistogram::kBuckets; ++b) {
    const double lo = LatencyHistogram::bucket_lower_us(b);
    const double hi = LatencyHistogram::bucket_lower_us(b + 1);
    ASSERT_GT(hi, lo) << "bucket " << b;
    EXPECT_LE((hi - lo) / lo, 1.0 / 32 + 1e-12) << "bucket " << b;
    EXPECT_EQ(LatencyHistogram::bucket_of(lo), b);
    EXPECT_EQ(LatencyHistogram::bucket_of((lo + hi) / 2), b);
  }
  // The range reaches past 1000 s; beyond it samples clamp into the last
  // bucket, below 1 ns into the first.
  const std::size_t last = LatencyHistogram::kBuckets - 1;
  EXPECT_GE(LatencyHistogram::bucket_lower_us(last), 1e9);
  EXPECT_LT(LatencyHistogram::bucket_of(1e9), last);
  EXPECT_EQ(LatencyHistogram::bucket_of(1e12), last);
  EXPECT_EQ(LatencyHistogram::bucket_of(
                std::numeric_limits<double>::infinity()),
            last);
  EXPECT_EQ(LatencyHistogram::bucket_of(0.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(0.0009), 0u);

  LatencyHistogram h;
  h.record(1e12);  // out of range: counted, and still the exact max
  h.record(2.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.max_us(), 1e12);
  // The overflow bucket has no upper edge: its estimates run up to max.
  EXPECT_GE(h.quantiles().p99, LatencyHistogram::bucket_lower_us(last));
  EXPECT_LE(h.quantiles().p99, 1e12);
}

TEST(LatencyHistogramTest, EmptyReturnsZeroSummary) {
  const LatencyHistogram h;
  const QuantileSummary q = h.quantiles();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(q.p50, 0.0);
  EXPECT_EQ(q.p90, 0.0);
  EXPECT_EQ(q.p95, 0.0);
  EXPECT_EQ(q.p99, 0.0);
  EXPECT_EQ(h.mean_us(), 0.0);
  EXPECT_EQ(h.min_us(), 0.0);
  EXPECT_EQ(h.max_us(), 0.0);
}

TEST(LatencyHistogramTest, ZerosGiveZeroQuantiles) {
  LatencyHistogram h;
  for (int i = 0; i < 120; ++i) h.record(0.0);
  const QuantileSummary q = h.quantiles();
  EXPECT_EQ(h.count(), 120u);
  EXPECT_EQ(q.p50, 0.0);
  EXPECT_EQ(q.p99, 0.0);
  EXPECT_EQ(h.max_us(), 0.0);
  EXPECT_EQ(h.mean_us(), 0.0);
}

TEST(LatencyHistogramTest, NegativeAndNanLandInLowestBucket) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(LatencyHistogram::bucket_of(-5.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(nan), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(-inf), 0u);

  LatencyHistogram h;
  h.record(-5.0);
  h.record(nan);  // records as 0
  h.record(-1.0);
  h.record(3.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min_us(), -5.0);
  EXPECT_EQ(h.max_us(), 3.0);
  EXPECT_DOUBLE_EQ(h.mean_us(), (-5.0 + 0.0 - 1.0 + 3.0) / 4);
  const QuantileSummary q = h.quantiles();
  // Three of four samples share the lowest bucket, so the median is in it.
  EXPECT_GE(q.p50, h.min_us());
  EXPECT_LT(q.p50, LatencyHistogram::bucket_lower_us(1));
  EXPECT_DOUBLE_EQ(q.p99, 3.0);
}

TEST(LatencyHistogramTest, SeededSpreadWithinOneBucketOfExact) {
  // Log-uniform from 10 ns to 100 ms: seven decades, every octave used.
  Rng rng(2024);
  LatencyHistogram h;
  std::vector<double> samples;
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double us = 0.01 * std::pow(10.0, 7.0 * rng.next_double());
    samples.push_back(us);
    sum += us;
    h.record(us);
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_EQ(h.min_us(), samples.front());
  EXPECT_EQ(h.max_us(), samples.back());
  // The sum is kept in whole nanoseconds: the mean is exact to 1 ns.
  EXPECT_NEAR(h.mean_us(), sum / static_cast<double>(samples.size()), 1e-3);

  // Nearest-rank order statistic: the ceil(q*n)-th smallest sample.
  const auto exact = [&samples](double q) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    return samples[rank - 1];
  };
  const QuantileSummary q = h.quantiles();
  const std::pair<double, double> cases[] = {
      {0.50, q.p50}, {0.90, q.p90}, {0.95, q.p95}, {0.99, q.p99}};
  for (const auto& [quantile, estimate] : cases) {
    const double truth = exact(quantile);
    EXPECT_NEAR(estimate, truth, truth / 32 * (1 + 1e-9)) << "q " << quantile;
    EXPECT_GE(estimate, h.min_us());
    EXPECT_LE(estimate, h.max_us());
  }
}

TEST(LatencyHistogramTest, UniformSamplesInterpolate) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(i + 0.5);
  const QuantileSummary q = h.quantiles();
  EXPECT_NEAR(q.p50, 50.0, 50.0 / 32);
  EXPECT_NEAR(q.p95, 95.0, 95.0 / 32);
  EXPECT_NEAR(q.p99, 99.0, 99.0 / 32);
}

TEST(LatencyHistogramTest, SummaryIsMonotone) {
  LatencyHistogram h;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) h.record(rng.next_double() * 10.0);
  const QuantileSummary s = h.quantiles();
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, h.max_us());
  EXPECT_NEAR(s.p50, 5.0, 1.0);
}

TEST(LatencyHistogramTest, SingleBucketSpike) {
  LatencyHistogram h;
  for (int i = 0; i < 8; ++i) h.record(3.5);
  // Every estimate clamps to [min, max], so a spike reads back exactly.
  const QuantileSummary q = h.quantiles();
  EXPECT_EQ(q.p50, 3.5);
  EXPECT_EQ(q.p99, 3.5);
}

// --------------------------------------------------------------- spans

TEST(ObsSpanTest, NestingTracksDepthAndRecordsLifo) {
  TelemetryRegistry reg;
  EXPECT_EQ(Span::depth(), 0);
  {
    Span outer(reg, "outer");
    EXPECT_EQ(Span::depth(), 1);
    {
      Span inner(reg, "inner");
      EXPECT_EQ(Span::depth(), 2);
    }
    EXPECT_EQ(Span::depth(), 1);
  }
  EXPECT_EQ(Span::depth(), 0);

  const std::vector<obs::SpanRecord> spans = reg.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");  // innermost ends first
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_GE(spans[1].dur_us, spans[0].dur_us);
}

TEST(ObsSpanTest, SimClockSpanUsesExplicitTimes) {
  TelemetryRegistry reg;
  {
    Span span(reg, "chunk", SimTime::millis(10), "exec");
    span.attr("k", JsonValue(1));
    span.end_at(SimTime::millis(35));
  }
  const std::vector<obs::SpanRecord> spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].sim_clock);
  EXPECT_DOUBLE_EQ(spans[0].start_us, 10000.0);
  EXPECT_DOUBLE_EQ(spans[0].dur_us, 25000.0);
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].first, "k");
}

TEST(ObsSpanTest, SimClockSpanWithoutEndAtRecordsZeroDuration) {
  TelemetryRegistry reg;
  { Span span(reg, "abandoned", SimTime::millis(5)); }
  const std::vector<obs::SpanRecord> spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].dur_us, 0.0);
}

TEST(ObsSpanTest, EndIsIdempotent) {
  TelemetryRegistry reg;
  Span span(reg, "once");
  span.end();
  span.end();
  EXPECT_EQ(reg.span_count(), 1u);
  EXPECT_EQ(Span::depth(), 0);
}

TEST(ObsSpanTest, DisabledRegistryRecordsNothing) {
  TelemetryRegistry reg(/*enabled=*/false);
  {
    Span span(reg, "ghost");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(Span::depth(), 0);  // disabled spans never join the stack
    span.attr("k", JsonValue(1));
  }
  EXPECT_EQ(reg.span_count(), 0u);
  // Counters stay live regardless: they are always-on metering.
  reg.counter("still_counts").add(2);
  EXPECT_EQ(reg.counter("still_counts").value(), 2u);
}

TEST(ObsSpanTest, EnabledIsSampledAtConstruction) {
  TelemetryRegistry reg(/*enabled=*/false);
  reg.set_enabled(true);
  {
    Span span(reg, "now_on");
    EXPECT_TRUE(span.active());
    reg.set_enabled(false);  // flipping mid-span must not lose the record
  }
  EXPECT_EQ(reg.span_count(), 1u);
}

TEST(ObsSpanTest, RecordCapacityDropsAndCounts) {
  TelemetryRegistry reg;
  reg.set_record_capacity(3);
  for (int i = 0; i < 5; ++i) {
    Span span(reg, "s");
  }
  EXPECT_EQ(reg.span_count(), 3u);
  EXPECT_EQ(reg.dropped_records(), 2u);
}

// -------------------------------------------------------- chrome trace

// ------------------------------------------------------- trace identity

TEST(ObsTraceContextTest, GeneratorIsDeterministicPerSeedAndStream) {
  obs::TraceIdGenerator a(/*seed=*/42, /*stream=*/0);
  obs::TraceIdGenerator b(/*seed=*/42, /*stream=*/0);
  obs::TraceIdGenerator other_stream(/*seed=*/42, /*stream=*/1);
  obs::TraceIdGenerator other_seed(/*seed=*/43, /*stream=*/0);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t id = a.next();
    EXPECT_NE(id, 0u) << "0 is reserved for 'no id'";
    EXPECT_EQ(id, b.next()) << "same seed+stream must replay identically";
    EXPECT_NE(id, other_stream.next());
    EXPECT_NE(id, other_seed.next());
    ids.push_back(id);
  }
  EXPECT_EQ(std::set<std::uint64_t>(ids.begin(), ids.end()).size(),
            ids.size())
      << "ids must not collide within a stream";
  a.reset(42, 0);
  EXPECT_EQ(a.next(), ids[0]) << "reset replays the stream";
}

TEST(ObsTraceContextTest, SpansFormATraceTreeWithinAThread) {
  TelemetryRegistry reg;
  reg.set_trace_seed(7);
  {
    Span outer(reg, "outer");
    EXPECT_TRUE(outer.context().valid());
    {
      Span inner(reg, "inner");
      EXPECT_EQ(inner.context().trace_id, outer.context().trace_id);
      EXPECT_EQ(inner.context().parent_span_id, outer.context().span_id);
    }
  }
  {
    Span next(reg, "next");
    EXPECT_EQ(next.context().parent_span_id, 0u)
        << "a span opened outside any scope starts a fresh root";
  }
  const std::vector<obs::SpanRecord> spans = reg.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].trace_id, spans[1].trace_id);
  EXPECT_EQ(spans[0].parent_span_id, spans[1].span_id);
  EXPECT_NE(spans[2].trace_id, spans[1].trace_id)
      << "sibling roots get distinct trace ids";
}

TEST(ObsMetricsTest, DimensionedMetricsTextLabelsEveryRow) {
  TelemetryRegistry reg;
  reg.counter("requests").add(3);
  reg.latency("rtt").record(10.0);
  const std::string text = reg.metrics_text("node=2");
  EXPECT_NE(text.find("counter requests{node=2} 3"), std::string::npos);
  EXPECT_NE(text.find("latency rtt{node=2} "), std::string::npos);
  EXPECT_EQ(text.find("counter requests 3"), std::string::npos)
      << "every row carries the label";
  // The plain overload is unchanged (tier-1 tooling greps its format).
  EXPECT_NE(reg.metrics_text().find("counter requests 3"),
            std::string::npos);
}

TEST(ObsChromeTraceTest, RoundTripsThroughJsonParser) {
  TelemetryRegistry reg;
  {
    Span wall(reg, "wall_work", "app");
    wall.attr("n", JsonValue(42));
  }
  {
    Span sim(reg, "sim_work", SimTime::millis(1), "exec");
    sim.end_at(SimTime::millis(2));
  }
  obs::InstantRecord instant;
  instant.name = "fault";
  instant.category = "sim.event";
  instant.sim_clock = true;
  instant.ts_us = 1500.0;
  reg.record_instant(std::move(instant));

  const JsonValue parsed =
      JsonValue::parse(obs::chrome_trace_json(reg).dump(1));
  const JsonValue* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr);

  int metadata = 0, complete = 0, instants = 0;
  bool saw_wall = false, saw_sim = false, saw_args = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    const std::string ph = e.find("ph")->as_string();
    if (ph == "M") {
      ++metadata;
      continue;
    }
    if (ph == "X") {
      ++complete;
      const std::string name = e.find("name")->as_string();
      // pid separates the clocks: 1 = wall, 2 = simulated.
      if (name == "wall_work") {
        saw_wall = true;
        EXPECT_EQ(e.find("pid")->as_int(), 1);
        saw_args = e.find("args") != nullptr;
      }
      if (name == "sim_work") {
        saw_sim = true;
        EXPECT_EQ(e.find("pid")->as_int(), 2);
        EXPECT_DOUBLE_EQ(e.find("ts")->as_double(), 1000.0);
        EXPECT_DOUBLE_EQ(e.find("dur")->as_double(), 1000.0);
      }
    }
    if (ph == "i") ++instants;
  }
  EXPECT_EQ(metadata, 2);  // two process_name records
  EXPECT_EQ(complete, 2);
  EXPECT_EQ(instants, 1);
  EXPECT_TRUE(saw_wall);
  EXPECT_TRUE(saw_sim);
  EXPECT_TRUE(saw_args);
}

TEST(ObsChromeTraceTest, SpanArgsCarryTraceIdsAsHexStrings) {
  // JSON doubles cannot hold a u64, so the exporter writes ids as
  // 16-hex-digit strings; 0 (untraced) omits the keys entirely to keep
  // pre-tracing traces byte-stable.
  TelemetryRegistry reg;
  reg.set_trace_seed(5);
  {
    Span outer(reg, "parent", SimTime::millis(1), "t");
    outer.end_at(SimTime::millis(2));
  }
  obs::SpanRecord untraced;
  untraced.name = "untraced";
  untraced.sim_clock = true;
  reg.record_span(untraced);

  EXPECT_EQ(obs::trace_id_hex(0x1f), "000000000000001f");
  const JsonValue parsed =
      JsonValue::parse(obs::chrome_trace_json(reg).dump(1));
  const JsonValue* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_traced = false, saw_untraced = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    if (e.find("ph")->as_string() != "X") continue;
    const JsonValue* args = e.find("args");
    if (e.find("name")->as_string() == "parent") {
      saw_traced = true;
      ASSERT_NE(args, nullptr);
      const JsonValue* trace_id = args->find("trace_id");
      ASSERT_NE(trace_id, nullptr);
      EXPECT_EQ(trace_id->as_string().size(), 16u);
      ASSERT_NE(args->find("span_id"), nullptr);
      EXPECT_EQ(args->find("parent_span_id"), nullptr)
          << "roots omit the parent key";
    } else {
      saw_untraced = true;
      EXPECT_TRUE(args == nullptr || args->find("trace_id") == nullptr);
    }
  }
  EXPECT_TRUE(saw_traced);
  EXPECT_TRUE(saw_untraced);
}

// ------------------------------------------------- simulator telemetry

TEST(ObsSimBridgeTest, MatchesSendDeliveredPairsIntoSpans) {
  // The simulator records straight into a registry: one sim-clock msg span
  // per delivery, shifted by the origin; a lost fragment is an instant.
  const Network net = presets::paper_testbed();
  sim::Engine engine;
  sim::NetSim netsim(engine, net, sim::NetSimParams{}, Rng(1));
  TelemetryRegistry reg;
  netsim.set_telemetry(&reg, SimTime::millis(100));
  // Segment 0 drops the first attempt's only fragment, then recovers.
  netsim.channel(0).set_down(true);
  engine.schedule_at(SimTime::millis(1),
                     [&netsim] { netsim.channel(0).set_down(false); });
  SimTime delivered;
  netsim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 128,
              [&] { delivered = engine.now(); });
  engine.run();

  const SimTime initiated = sim::NetSimParams{}.send_initiation;
  const std::vector<obs::SpanRecord> spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "msg");
  EXPECT_TRUE(spans[0].sim_clock);
  EXPECT_DOUBLE_EQ(spans[0].start_us,
                   (SimTime::millis(100) + initiated).as_micros());
  EXPECT_DOUBLE_EQ(spans[0].dur_us, (delivered - initiated).as_micros());
  std::vector<std::string> instants;
  for (const obs::InstantRecord& i : reg.instants()) {
    instants.push_back(i.name);
  }
  EXPECT_EQ(instants, (std::vector<std::string>{"lost", "leg"}));
  EXPECT_EQ(reg.counter("sim.messages_delivered").value(), 1u);
  EXPECT_EQ(reg.counter("sim.bytes_delivered").value(), 128u);
  EXPECT_EQ(reg.counter("sim.fragments_lost").value(), 1u);
}

// ------------------------------------------------- deterministic export

TEST(ObsGoldenTest, IdenticalRunsExportByteIdenticalMetrics) {
  // Two identical seeded partitioner runs must meter identically: the
  // name-ordered snapshot-delta text is the golden artifact.  Uses the
  // global registry exactly as the instrumented library does.
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CostModelDb db = calibrate(net, params).db;
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10});

  TelemetryRegistry& global = TelemetryRegistry::global();
  const auto run_once = [&] {
    const obs::MetricsSnapshot before = global.snapshot();
    const CycleEstimator est(net, db, spec);
    (void)partition(est, snap);
    return obs::snapshot_text(obs::snapshot_delta(before, global.snapshot()));
  };

  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("counter partitioner.calls 1"), std::string::npos);
  EXPECT_NE(first.find("counter partitioner.cost_model_evals"),
            std::string::npos);
}

TEST(ObsGoldenTest, ExhaustiveMetersLikeTheHeuristic) {
  // exhaustive_partition must meter through the same counters partition()
  // does, so heuristic-vs-oracle trace comparisons line up, and its span
  // must carry the sweep parameters.
  const Network net = presets::paper_testbed();
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CostModelDb db = calibrate(net, params).db;
  const AvailabilitySnapshot snap =
      gather_availability(net, make_managers(net, AvailabilityPolicy{}));
  const ComputationSpec spec = apps::make_stencil_spec(
      apps::StencilConfig{.n = 600, .iterations = 10});
  const CycleEstimator est(net, db, spec);

  TelemetryRegistry& global = TelemetryRegistry::global();
  const obs::MetricsSnapshot before = global.snapshot();
  const std::size_t spans_before = global.span_count();
  global.set_enabled(true);
  const PartitionResult result =
      exhaustive_partition(est, snap, {.threads = 2});
  global.set_enabled(false);
  const std::string delta =
      obs::snapshot_text(obs::snapshot_delta(before, global.snapshot()));

  EXPECT_NE(delta.find("counter partitioner.calls 1"), std::string::npos);
  EXPECT_NE(delta.find("counter partitioner.cost_model_evals " +
                       std::to_string(result.evaluations)),
            std::string::npos);
  EXPECT_NE(delta.find("counter estimator.evaluations " +
                       std::to_string(result.evaluations)),
            std::string::npos);

  bool found_span = false;
  const auto spans = global.spans();
  for (std::size_t i = spans_before; i < spans.size(); ++i) {
    if (spans[i].name != "partition.exhaustive") continue;
    found_span = true;
    bool has_threads = false, has_evals = false;
    for (const auto& [key, value] : spans[i].attrs) {
      has_threads = has_threads || key == "threads";
      has_evals = has_evals || key == "evaluations";
    }
    EXPECT_TRUE(has_threads);
    EXPECT_TRUE(has_evals);
  }
  EXPECT_TRUE(found_span);
}

// ----------------------------------------------------------- threading

class ObsThreadedTest : public ::testing::Test {};

TEST_F(ObsThreadedTest, ConcurrentCountersSumExactly) {
  TelemetryRegistry reg;
  constexpr int kThreads = 8, kAdds = 5000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg] {
      obs::Counter& c = reg.counter("shared");
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(reg.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST_F(ObsThreadedTest, ConcurrentSpansAndMetricsAreSafe) {
  TelemetryRegistry reg;
  constexpr int kThreads = 8, kSpans = 200;
  // A reader exports the histogram while the writers record into it.
  std::atomic<bool> done{false};
  std::thread reader([&reg, &done] {
    do {
      const QuantileSummary q = reg.latency("lat").quantiles();
      EXPECT_LE(q.p50, q.p99);
      EXPECT_FALSE(reg.metrics_text().empty());
    } while (!done.load());
  });
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg, t] {
      for (int i = 0; i < kSpans; ++i) {
        Span span(reg, "work");
        span.attr("t", JsonValue(t));
        reg.latency("lat").record(1.0 + (i + t) % 7);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(reg.span_count(),
            static_cast<std::size_t>(kThreads) * kSpans);
  // Every span carries the stable id of the thread that recorded it.
  for (const obs::SpanRecord& s : reg.spans()) {
    EXPECT_EQ(s.name, "work");
  }
  const obs::LatencyHistogram& lat = reg.latency("lat");
  EXPECT_EQ(lat.count(), static_cast<std::size_t>(kThreads) * kSpans);
  EXPECT_EQ(lat.min_us(), 1.0);
  EXPECT_EQ(lat.max_us(), 7.0);
}

}  // namespace
}  // namespace netpart
