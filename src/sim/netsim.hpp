// Message-level network simulator.
//
// NetSim realises the delivery path of one message on the modelled network:
//
//   sender host (initiation) -> source segment channel -> [router ->
//   destination segment channel] -> receiver host (+ coercion) -> delivery
//
// The channel occupancy of a message sent by a processor of type T is
//
//   T.comm_per_message + nfrags * frame_overhead + bytes * (wire + T.comm_per_byte)
//
// i.e. the host paces the wire (1994 UDP stacks were host-limited), which is
// what makes communication "faster on a cluster of Sun4's than Sun3's" and
// gives the per-cluster cost functions of Eq. 1.  A router hop adds the
// paper's per-byte internal delay and makes the router contend as one
// additional station on each segment it touches.
//
// Datagram loss is Bernoulli per fragment; lost fragments are retransmitted
// after an RTO, which is how the MMPS layer above provides reliability.
//
// Telemetry: with a registry installed (set_telemetry), every delivered
// message becomes one sim-clock "msg" span from its own initiation to its
// own delivery, every other lifecycle event (leg, lost, dropped) and every
// fault transition an instant, and the sim.* counters count as the events
// happen.  Without one, each event costs a single null-pointer test.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/ids.hpp"
#include "net/network.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/host.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace netpart::obs {
class Counter;
class TelemetryRegistry;
}  // namespace netpart::obs

namespace netpart::sim {

struct NetSimParams {
  /// Probability that a fragment is lost on a channel hop.
  double loss_rate = 0.0;
  /// Retransmission timeout applied by the reliable layer.
  SimTime rto = SimTime::millis(50);
  /// Datagram payload limit (ethernet MTU minus UDP/IP headers).
  std::int64_t mtu = 1472;
  /// Host cost to initiate an asynchronous send (system call).
  SimTime send_initiation = SimTime::micros(30);
  /// Host cost to accept a delivered message.
  SimTime recv_processing = SimTime::micros(50);
  /// Cap on retransmission rounds before the simulator reports a bug (the
  /// reliable layer never gives up; this guards against loss_rate ~ 1).
  int max_retransmit_rounds = 64;
  /// When true, a message that exhausts max_retransmit_rounds is dropped
  /// (counted in sim.messages_dropped and traced as a "dropped" instant)
  /// instead of tripping an assertion.  Enable
  /// under fault injection, where a long channel partition legitimately
  /// defeats the retransmission layer.
  bool give_up_after_max_rounds = false;
};

/// Delivery notification: fires when the receiving host has fully processed
/// the message (after coercion, if any).
using DeliveryCallback = std::function<void()>;

class NetSim {
 public:
  NetSim(Engine& engine, const Network& network, NetSimParams params,
         Rng rng);

  NetSim(const NetSim&) = delete;
  NetSim& operator=(const NetSim&) = delete;

  /// Initiate a message from `src` to `dst` at engine.now().  The sender
  /// host is reserved for the initiation cost; the callback fires at the
  /// delivery-complete time.  Without loss, messages between a pair of
  /// hosts are delivered in initiation order (FIFO channels); under loss a
  /// retransmitted message can be overtaken by a later one, and the
  /// reliable layer above (mmps::System) resequences.
  void send(ProcessorRef src, ProcessorRef dst, std::int64_t bytes,
            DeliveryCallback on_delivered);

  Host& host(ProcessorRef ref);
  const Host& host(ProcessorRef ref) const;
  Channel& channel(SegmentId id);

  const Network& network() const { return network_; }
  Engine& engine() { return engine_; }
  const NetSimParams& params() const { return params_; }

  /// Channel occupancy of a `bytes`-byte message paced by a host of the
  /// given type (exposed for tests and the analytical cost model).
  SimTime message_occupancy(const ProcessorType& sender_type,
                            const Segment& segment,
                            std::int64_t bytes) const;

  std::int64_t fragments(std::int64_t bytes) const;

  /// Number of messages fully delivered so far.
  std::uint64_t messages_delivered() const { return delivered_; }
  /// Number of fragment retransmissions performed so far.
  std::uint64_t retransmissions() const { return retransmissions_; }
  /// Number of messages abandoned (dead host, retransmit cap).
  std::uint64_t messages_dropped() const { return dropped_; }

  /// Record this simulator's events into `registry` (nullptr = off).
  /// `origin` shifts the local clock onto the pipeline clock (a chunked
  /// run restarts each simulator at time zero).  Spans and instants are
  /// recorded while registry->enabled(); the sim.messages_delivered,
  /// sim.bytes_delivered, sim.fragments_lost and sim.messages_dropped
  /// counters always count.  The registry must outlive the simulator.
  void set_telemetry(obs::TelemetryRegistry* registry,
                     SimTime origin = SimTime::zero());

  /// Record a sim-clock instant (category "sim.event") at local time `at`.
  /// Events that name a processor land on its sender lane; segment events
  /// (src.cluster < 0) on that segment's lane.  The fault injector uses it
  /// to put fault transitions on the message-lifecycle timeline.
  void instant(const char* name, SimTime at, ProcessorRef src,
               ProcessorRef dst = ProcessorRef{}, std::int64_t bytes = 0,
               SegmentId segment = -1, double factor = 0.0) {
    if (telemetry_ == nullptr) return;
    record_instant(name, at, src, dst, bytes, segment, factor);
  }

 private:
  /// One channel hop of a message's path.
  struct Leg {
    Channel* channel = nullptr;
    SimTime fixed;       ///< per-message occupancy (first attempt only)
    SimTime per_byte;    ///< wire + sender-side pacing
    SimTime post_delay;  ///< router internal delay after this leg
  };

  /// In-flight message state shared by the chained engine events.
  struct Transit {
    std::vector<Leg> legs;
    std::size_t next_leg = 0;
    ProcessorRef src;
    ProcessorRef dst;
    std::int64_t bytes = 0;
    SimTime initiated;  ///< sender host finished the initiation
    SimTime coerce_cost;
    DeliveryCallback on_delivered;
  };

  /// Start (or continue to) the leg at t->next_leg; called at the time the
  /// message is ready to enter that channel.
  void run_leg(std::shared_ptr<Transit> t);

  /// One transmission attempt of `frags` fragments on the current leg.
  /// Fragments reserve the channel one at a time, so concurrent messages
  /// interleave at datagram granularity -- the packet-level fairness of a
  /// shared ethernet.  Fragments lost in this attempt are retransmitted in
  /// a follow-up attempt after the RTO.
  void attempt(std::shared_ptr<Transit> t, std::int64_t frags, bool first,
               int round);

  /// Transmit the next fragment of the current attempt.
  void next_fragment(std::shared_ptr<Transit> t, std::int64_t frags_left,
                     std::int64_t bytes_left, std::int64_t lost, bool first,
                     int round);

  /// All legs done: receiver host processing, then the delivery callback.
  void finish_delivery(const std::shared_ptr<Transit>& t);

  std::size_t host_slot(ProcessorRef ref) const;

  Engine& engine_;
  const Network& network_;
  NetSimParams params_;
  Rng rng_;
  std::vector<Channel> channels_;        // by SegmentId
  std::vector<Host> hosts_;              // dense, cluster-major
  std::vector<std::size_t> host_base_;   // cluster -> first host slot
  std::uint64_t delivered_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t dropped_ = 0;

  // Installed telemetry (off while telemetry_ is null); the counters are
  // resolved once per set_telemetry().
  obs::TelemetryRegistry* telemetry_ = nullptr;
  SimTime telemetry_origin_;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* lost_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;

  void record_instant(const char* name, SimTime at, ProcessorRef src,
                      ProcessorRef dst, std::int64_t bytes, SegmentId segment,
                      double factor);
  void record_delivery(const Transit& t, SimTime done);
  std::uint32_t lane(ProcessorRef src, SegmentId segment) const;
  void drop(const Transit& t);
};

}  // namespace netpart::sim
