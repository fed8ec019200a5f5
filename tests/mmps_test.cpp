// Tests for the MMPS message layer: coercion round trips, tag matching,
// ordering, and reliability on top of the simulated network.
#include <gtest/gtest.h>

#include <limits>

#include "mmps/coercion.hpp"
#include "mmps/system.hpp"
#include "net/presets.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "util/error.hpp"

namespace netpart::mmps {
namespace {

// ---------------------------------------------------------------- coercion

template <typename T>
class CoercionRoundTrip : public ::testing::Test {};

using ScalarTypes = ::testing::Types<float, double, std::int32_t,
                                     std::int64_t, std::uint16_t>;
TYPED_TEST_SUITE(CoercionRoundTrip, ScalarTypes);

TYPED_TEST(CoercionRoundTrip, EncodeDecodeIsIdentity) {
  using T = TypeParam;
  std::vector<T> values;
  values.push_back(T{0});
  values.push_back(T{1});
  values.push_back(std::numeric_limits<T>::max());
  values.push_back(std::numeric_limits<T>::lowest());
  if constexpr (std::is_floating_point_v<T>) {
    values.push_back(static_cast<T>(-3.14159));
    values.push_back(std::numeric_limits<T>::denorm_min());
  }
  const auto bytes = encode_array(std::span<const T>(values));
  EXPECT_EQ(bytes.size(), values.size() * sizeof(T));
  const auto decoded = decode_array<T>(bytes);
  EXPECT_EQ(decoded, values);
}

TEST(CoercionTest, ByteswapIsInvolution) {
  EXPECT_EQ(byteswap_value(byteswap_value(0x12345678)), 0x12345678);
  EXPECT_EQ(byteswap_value(std::uint16_t{0x1234}), 0x3412);
  const double v = 2.718281828;
  EXPECT_EQ(byteswap_value(byteswap_value(v)), v);
}

TEST(CoercionTest, NetworkOrderIsBigEndian) {
  const std::vector<std::uint32_t> one = {1};
  const auto bytes = encode_array(std::span<const std::uint32_t>(one));
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(std::to_integer<int>(bytes[0]), 0);
  EXPECT_EQ(std::to_integer<int>(bytes[3]), 1);
}

TEST(CoercionTest, RejectsMisalignedPayload) {
  const std::vector<std::byte> bytes(7);
  EXPECT_THROW(decode_array<std::uint32_t>(bytes), InvalidArgument);
}

// ------------------------------------------------------------------ system

class MmpsSystemTest : public ::testing::Test {
 protected:
  Network net_ = presets::paper_testbed();
  sim::Engine engine_;
  sim::NetSim sim_{engine_, net_, sim::NetSimParams{}, Rng(8)};
  System mmps_{sim_};
  const ProcessorRef a_{0, 0};
  const ProcessorRef b_{0, 1};
  const ProcessorRef c_{1, 0};
};

TEST_F(MmpsSystemTest, PayloadSurvivesTransit) {
  const std::vector<double> data = {1.5, -2.5, 1e300};
  mmps_.send(a_, b_, /*tag=*/7,
             encode_array(std::span<const double>(data)));
  std::vector<double> received;
  mmps_.recv(b_, a_, 7, [&](Message msg) {
    received = decode_array<double>(msg.payload);
    EXPECT_EQ(msg.tag, 7);
    EXPECT_EQ(msg.source, (ProcessorRef{0, 0}));
  });
  engine_.run();
  EXPECT_EQ(received, data);
  EXPECT_EQ(mmps_.unclaimed(), 0u);
}

TEST_F(MmpsSystemTest, RecvBeforeSendWorks) {
  bool got = false;
  mmps_.recv(b_, a_, 1, [&](Message) { got = true; });
  mmps_.send(a_, b_, 1, std::vector<std::byte>(64));
  engine_.run();
  EXPECT_TRUE(got);
}

TEST_F(MmpsSystemTest, TagsAndSourcesDoNotCrossMatch) {
  int tag1 = 0;
  int tag2 = 0;
  mmps_.send(a_, b_, 1, std::vector<std::byte>(8));
  mmps_.send(a_, b_, 2, std::vector<std::byte>(16));
  mmps_.send(c_, b_, 1, std::vector<std::byte>(24));
  mmps_.recv(b_, a_, 2, [&](Message msg) {
    tag2 = static_cast<int>(msg.payload.size());
  });
  mmps_.recv(b_, c_, 1, [&](Message msg) {
    tag1 = static_cast<int>(msg.payload.size());
  });
  engine_.run();
  EXPECT_EQ(tag2, 16);
  EXPECT_EQ(tag1, 24);
  EXPECT_EQ(mmps_.unclaimed(), 1u);  // the (a_, tag 1) message waits
}

TEST_F(MmpsSystemTest, SameKeyDeliveredInOrder) {
  for (int i = 0; i < 4; ++i) {
    mmps_.send(a_, b_, 5, std::vector<std::byte>(
                              static_cast<std::size_t>(i + 1)));
  }
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 4; ++i) {
    mmps_.recv(b_, a_, 5,
               [&](Message msg) { sizes.push_back(msg.payload.size()); });
  }
  engine_.run();
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 2, 3, 4}));
}

TEST_F(MmpsSystemTest, ReliableUnderLoss) {
  sim::Engine engine;
  sim::NetSimParams params;
  params.loss_rate = 0.3;
  params.rto = SimTime::millis(5);
  sim::NetSim lossy(engine, net_, params, Rng(77));
  System mmps(lossy);
  int delivered = 0;
  for (int i = 0; i < 30; ++i) {
    mmps.send(a_, c_, i, std::vector<std::byte>(5000));
    mmps.recv(c_, a_, i, [&](Message msg) {
      EXPECT_EQ(msg.payload.size(), 5000u);
      ++delivered;
    });
  }
  engine.run();
  EXPECT_EQ(delivered, 30);
  EXPECT_GT(lossy.retransmissions(), 0u);
}

TEST_F(MmpsSystemTest, RejectsNullHandler) {
  EXPECT_THROW(mmps_.recv(b_, a_, 0, nullptr), InvalidArgument);
}

TEST_F(MmpsSystemTest, ResequencesAfterRetransmission) {
  // Under loss a retransmitted message physically arrives after its
  // successors; MMPS must still deliver per-pair in send order.  High loss
  // plus multi-fragment messages makes reordering on the wire all but
  // certain across 60 messages.
  sim::Engine engine;
  sim::NetSimParams params;
  params.loss_rate = 0.35;
  params.rto = SimTime::millis(20);
  sim::NetSim lossy(engine, net_, params, Rng(1234));
  System mmps(lossy);
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 60; ++i) {
    mmps.send(a_, b_, /*tag=*/0,
              std::vector<std::byte>(static_cast<std::size_t>(3000 + i)));
    mmps.recv(b_, a_, 0,
              [&](Message msg) { sizes.push_back(msg.payload.size()); });
  }
  engine.run();
  ASSERT_GT(lossy.retransmissions(), 0u);
  ASSERT_EQ(sizes.size(), 60u);
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(sizes[static_cast<std::size_t>(i)],
              static_cast<std::size_t>(3000 + i));
  }
}

// ------------------------------------------------------- timed receives

TEST_F(MmpsSystemTest, RecvWithTimeoutFiresWhenNothingArrives) {
  bool got = false;
  bool timed_out = false;
  mmps_.recv_with_timeout(b_, a_, /*tag=*/5, SimTime::millis(30),
                          [&](Message) { got = true; },
                          [&] { timed_out = true; });
  engine_.run();
  EXPECT_FALSE(got);
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(engine_.now(), SimTime::millis(30));
}

TEST_F(MmpsSystemTest, RecvWithTimeoutDeliversInTimeAndNeverFiresLate) {
  bool got = false;
  bool timed_out = false;
  mmps_.send(a_, b_, /*tag=*/5, std::vector<std::byte>(16));
  mmps_.recv_with_timeout(b_, a_, 5, SimTime::seconds(1),
                          [&](Message) { got = true; },
                          [&] { timed_out = true; });
  engine_.run();  // runs past the timeout event, which must be a no-op
  EXPECT_TRUE(got);
  EXPECT_FALSE(timed_out);
  EXPECT_GE(engine_.now(), SimTime::seconds(1));
}

TEST_F(MmpsSystemTest, RecvWithTimeoutReportsCrashedPeer) {
  // The fix for the blocking-receive-from-a-crashed-host hang: the
  // receiver posts an RTO-style timed receive, the sender is dead, and the
  // receive reports failure instead of parking the engine forever.
  sim::FaultPlan plan;
  plan.crashes.push_back({SimTime::zero(), c_});
  sim::FaultInjector injector(sim_, plan);
  injector.arm();
  engine_.run();  // land the t=0 crash before anything is sent

  bool got = false;
  bool timed_out = false;
  mmps_.send(c_, b_, /*tag=*/3, std::vector<std::byte>(64));  // vanishes
  mmps_.recv_with_timeout(b_, c_, 3, SimTime::millis(100),
                          [&](Message) { got = true; },
                          [&] { timed_out = true; });
  engine_.run();
  EXPECT_FALSE(got);
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(sim_.messages_dropped(), 1u);
}

TEST_F(MmpsSystemTest, TimedOutReceiveDoesNotStealALaterMessage) {
  bool stale = false;
  mmps_.recv_with_timeout(b_, a_, /*tag=*/9, SimTime::millis(10),
                          [&](Message) { stale = true; }, [] {});
  engine_.run();  // expire the timed receive

  mmps_.send(a_, b_, 9, std::vector<std::byte>(32));
  engine_.run();
  EXPECT_FALSE(stale);
  EXPECT_EQ(mmps_.unclaimed(), 1u);

  bool fresh = false;
  mmps_.recv(b_, a_, 9, [&](Message) { fresh = true; });
  EXPECT_TRUE(fresh);
  EXPECT_EQ(mmps_.unclaimed(), 0u);
}

// -------------------------------------------------- any-source receives

TEST_F(MmpsSystemTest, RecvAnyMatchesAnySourceExactTakesPrecedence) {
  mmps_.send(a_, b_, /*tag=*/4, std::vector<std::byte>(8));
  mmps_.send(c_, b_, 4, std::vector<std::byte>(8));

  std::vector<ProcessorRef> any_sources;
  ProcessorRef exact_source{-1, -1};
  mmps_.recv(b_, c_, 4, [&](Message msg) { exact_source = msg.source; });
  mmps_.recv_any(b_, 4, [&](Message msg) {
    any_sources.push_back(msg.source);
  });
  engine_.run();
  EXPECT_EQ(exact_source, c_);
  ASSERT_EQ(any_sources.size(), 1u);
  EXPECT_EQ(any_sources[0], a_);
  EXPECT_EQ(mmps_.unclaimed(), 0u);
}

TEST_F(MmpsSystemTest, RecvAnyServesAlreadyDeliveredMessage) {
  mmps_.send(c_, b_, /*tag=*/6, std::vector<std::byte>(48));
  engine_.run();
  EXPECT_EQ(mmps_.unclaimed(), 1u);
  std::size_t size = 0;
  mmps_.recv_any(b_, 6, [&](Message msg) { size = msg.payload.size(); });
  EXPECT_EQ(size, 48u);
  EXPECT_EQ(mmps_.unclaimed(), 0u);
}

// recv_any serves the lowest (source cluster, source index) holding a
// delivered message, not the oldest delivery: c_'s message lands first,
// yet a_'s is served first.  A mailbox that changes this order must change
// this test on purpose.
TEST_F(MmpsSystemTest, RecvAnyServesLowestSourceFirst) {
  mmps_.send(c_, b_, /*tag=*/9, std::vector<std::byte>(8));
  engine_.run();
  const SimTime c_delivered = engine_.now();
  mmps_.send(a_, b_, 9, std::vector<std::byte>(8));
  engine_.run();
  ASSERT_GT(engine_.now(), c_delivered);
  ASSERT_EQ(mmps_.unclaimed(), 2u);

  std::vector<ProcessorRef> served;
  for (int i = 0; i < 2; ++i) {
    mmps_.recv_any(b_, 9, [&](Message msg) { served.push_back(msg.source); });
  }
  EXPECT_EQ(served, (std::vector<ProcessorRef>{a_, c_}));
  EXPECT_EQ(mmps_.unclaimed(), 0u);
}

TEST_F(MmpsSystemTest, ResetCancelsReceiversAndDropsState) {
  bool got = false;
  mmps_.recv(b_, a_, /*tag=*/2, [&](Message) { got = true; });
  mmps_.reset();
  mmps_.send(a_, b_, 2, std::vector<std::byte>(16));
  engine_.run();
  EXPECT_FALSE(got);  // the posted receive died with the reset
  EXPECT_EQ(mmps_.unclaimed(), 1u);  // the late message parks unclaimed
}

}  // namespace
}  // namespace netpart::mmps
