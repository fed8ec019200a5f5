// Tests for the simulator's telemetry: msg spans, lifecycle instants and
// sim.* counters recorded straight into a TelemetryRegistry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "net/presets.hpp"
#include "obs/telemetry.hpp"
#include "sim/netsim.hpp"

namespace netpart::sim {
namespace {

std::size_t count_instants(const obs::TelemetryRegistry& reg,
                           const std::string& name) {
  std::size_t n = 0;
  for (const obs::InstantRecord& i : reg.instants()) {
    if (i.name == name) ++n;
  }
  return n;
}

std::size_t count_spans(const obs::TelemetryRegistry& reg,
                        const std::string& name) {
  std::size_t n = 0;
  for (const obs::SpanRecord& s : reg.spans()) {
    if (s.name == name) ++n;
  }
  return n;
}

/// The span attribute `key`, or nullptr.
const JsonValue* attr(const obs::SpanRecord& span, const std::string& key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return &v;
  }
  return nullptr;
}

class TraceTest : public ::testing::Test {
 protected:
  Network net_ = presets::paper_testbed();
  Engine engine_;
  obs::TelemetryRegistry reg_;
};

TEST_F(TraceTest, IntraClusterMessageLifecycle) {
  NetSim sim(engine_, net_, NetSimParams{}, Rng(1));
  sim.set_telemetry(&reg_);
  sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 1000, [] {});
  engine_.run();

  EXPECT_EQ(count_spans(reg_, "msg"), 1u);
  EXPECT_EQ(count_instants(reg_, "leg"), 1u);
  EXPECT_EQ(count_instants(reg_, "lost"), 0u);
  EXPECT_EQ(reg_.counter("sim.messages_delivered").value(), 1u);
  EXPECT_EQ(reg_.counter("sim.bytes_delivered").value(), 1000u);
}

TEST_F(TraceTest, CrossClusterHasTwoLegs) {
  NetSim sim(engine_, net_, NetSimParams{}, Rng(1));
  sim.set_telemetry(&reg_);
  sim.send(ProcessorRef{0, 0}, ProcessorRef{1, 0}, 2000, [] {});
  engine_.run();
  EXPECT_EQ(count_instants(reg_, "leg"), 2u);
  EXPECT_EQ(count_spans(reg_, "msg"), 1u);
}

TEST_F(TraceTest, LossEventsAppearUnderLoss) {
  NetSimParams params;
  params.loss_rate = 0.4;
  params.rto = SimTime::millis(2);
  NetSim sim(engine_, net_, params, Rng(7));
  sim.set_telemetry(&reg_);
  for (int i = 0; i < 20; ++i) {
    sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 6000, [] {});
  }
  engine_.run();
  EXPECT_EQ(count_spans(reg_, "msg"), 20u);
  EXPECT_GT(count_instants(reg_, "lost"), 0u);
  EXPECT_EQ(count_instants(reg_, "lost"), sim.retransmissions());
  EXPECT_EQ(reg_.counter("sim.fragments_lost").value(),
            sim.retransmissions());
}

TEST_F(TraceTest, MeanLatencyMatchesSingleMessage) {
  NetSim sim(engine_, net_, NetSimParams{}, Rng(1));
  sim.set_telemetry(&reg_);
  SimTime delivered;
  sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 500,
           [&] { delivered = engine_.now(); });
  engine_.run();
  // Latency = delivery - initiation-complete.
  const std::vector<obs::SpanRecord> spans = reg_.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].dur_us,
                   (delivered - NetSimParams{}.send_initiation).as_micros());
}

TEST_F(TraceTest, NoTracerNoOverheadPath) {
  // Telemetry can be installed and removed; removed records nothing.
  NetSim sim(engine_, net_, NetSimParams{}, Rng(1));
  sim.set_telemetry(&reg_);
  sim.set_telemetry(nullptr);
  sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 100, [] {});
  engine_.run();
  EXPECT_EQ(reg_.span_count(), 0u);
  EXPECT_TRUE(reg_.instants().empty());
  EXPECT_EQ(reg_.counter("sim.messages_delivered").value(), 0u);
}

TEST_F(TraceTest, DisabledRegistryStillCounts) {
  // Spans and instants honour enabled(); counters are always on.
  reg_.set_enabled(false);
  NetSim sim(engine_, net_, NetSimParams{}, Rng(1));
  sim.set_telemetry(&reg_);
  sim.send(ProcessorRef{0, 0}, ProcessorRef{1, 0}, 300, [] {});
  engine_.run();
  EXPECT_EQ(reg_.span_count(), 0u);
  EXPECT_TRUE(reg_.instants().empty());
  EXPECT_EQ(reg_.counter("sim.messages_delivered").value(), 1u);
  EXPECT_EQ(reg_.counter("sim.bytes_delivered").value(), 300u);
}

TEST(TraceLossTest, EveryMsgSpanMatchesItsOwnMessageUnderLoss) {
  // Retransmission reorders one pair's messages under loss, so a span
  // paired by per-pair FIFO order would start at another message's send.
  // Each message has a distinct size, which names its span.
  const Network net = presets::paper_testbed();
  constexpr int kMessages = 20;
  const SimTime spacing = SimTime::micros(100);
  int reordered_seeds = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Engine engine;
    NetSimParams params;
    params.loss_rate = 0.4;
    params.rto = SimTime::millis(2);
    NetSim sim(engine, net, params, Rng(seed));
    obs::TelemetryRegistry reg;
    sim.set_telemetry(&reg);
    std::vector<SimTime> delivered(kMessages);
    for (int i = 0; i < kMessages; ++i) {
      engine.schedule_at(spacing * i, [&sim, &engine, &delivered, i] {
        sim.send(ProcessorRef{0, 0}, ProcessorRef{0, 1}, 6000 + i,
                 [&engine, &delivered, i] { delivered[i] = engine.now(); });
      });
    }
    engine.run();
    if (!std::is_sorted(delivered.begin(), delivered.end())) {
      ++reordered_seeds;
    }

    const std::vector<obs::SpanRecord> spans = reg.spans();
    ASSERT_EQ(spans.size(), static_cast<std::size_t>(kMessages))
        << "seed " << seed;
    for (const obs::SpanRecord& span : spans) {
      const JsonValue* bytes = attr(span, "bytes");
      ASSERT_NE(bytes, nullptr);
      const int i = static_cast<int>(bytes->as_int()) - 6000;
      ASSERT_GE(i, 0);
      ASSERT_LT(i, kMessages);
      // The sender is idle at every send: initiation completes
      // send_initiation after the send.
      const SimTime initiated = spacing * i + params.send_initiation;
      EXPECT_DOUBLE_EQ(span.start_us, initiated.as_micros())
          << "seed " << seed << " message " << i;
      EXPECT_NEAR(span.start_us + span.dur_us, delivered[i].as_micros(),
                  1e-6)
          << "seed " << seed << " message " << i;
    }
  }
  // The scenario must actually reorder, or FIFO pairing would pass too.
  EXPECT_GT(reordered_seeds, 0);
}

}  // namespace
}  // namespace netpart::sim
