// MMPS: reliable tagged message passing over the simulated network.
//
// The paper's substrate [5] is a portable message-passing library over UDP
// datagrams.  This layer provides its programming model: asynchronous
// tagged sends, receives that match on (source, tag), reliability (the
// simulator's fragment retransmission), and in-order delivery per
// (source, destination) pair -- a retransmitted message can physically
// arrive after its successors, so the receiver resequences before
// matching, exactly as a reliable transport does.  Payloads are real
// bytes: the functional applications (stencil, Gaussian elimination) move
// actual data through it and verify their numerics.
//
// Fault awareness: the simulator silently drops traffic touching a crashed
// host, so a plain recv() posted against a dead peer would wait forever.
// recv_with_timeout() is the RTO-style escape hatch: it reports the
// failure instead of blocking the engine.  The mailbox state is held
// behind a shared core that in-flight engine events capture weakly, so a
// System (and any budget-bounded protocol built on it) can be torn down
// while deliveries are still queued.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "sim/netsim.hpp"

namespace netpart::mmps {

struct Message {
  ProcessorRef source;
  std::int32_t tag = 0;
  std::vector<std::byte> payload;
};

/// Handler invoked when a matching message has been fully received
/// (delivery-complete time on the receiving host).
using RecvHandler = std::function<void(Message)>;

/// Handler invoked when a timed receive expires unmatched.
using TimeoutHandler = std::function<void()>;

class System {
 public:
  explicit System(sim::NetSim& net)
      : net_(net), core_(std::make_shared<Core>()) {}

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Asynchronous send; completion is not signalled to the sender (MMPS
  /// semantics).  The payload is moved into the in-flight message.
  void send(ProcessorRef src, ProcessorRef dst, std::int32_t tag,
            std::vector<std::byte> payload);

  /// Post a receive at `dst` matching (src, tag).  If a matching message
  /// already arrived the handler fires immediately (same simulated time);
  /// otherwise it fires on delivery.  Multiple receives for the same key
  /// are served in posting order.
  void recv(ProcessorRef dst, ProcessorRef src, std::int32_t tag,
            RecvHandler handler);

  /// Timed receive: like recv(), but if no matching message is delivered
  /// within `timeout` the posted receive is cancelled and `on_timeout`
  /// fires instead -- the RTO-style failure return that lets a caller
  /// detect a crashed peer rather than blocking the engine forever.
  void recv_with_timeout(ProcessorRef dst, ProcessorRef src,
                         std::int32_t tag, SimTime timeout,
                         RecvHandler handler, TimeoutHandler on_timeout);

  /// Any-source receive at `dst` matching `tag` alone: among the sources
  /// holding an already-delivered message with that tag, serves the lowest
  /// (source cluster, source index) -- not the oldest delivery -- and that
  /// source's oldest message; else fires on the next matching delivery.
  /// Exact-source receives take precedence when both are pending.  (The
  /// fault-tolerant manager protocol needs this: after deaths, a token's
  /// predecessor is not known in advance.)
  void recv_any(ProcessorRef dst, std::int32_t tag, RecvHandler handler);

  /// Messages delivered but not yet matched by a receive (diagnostics).
  std::size_t unclaimed() const;

  /// Drop every queued message and cancel every posted receive (handlers
  /// are destroyed, not invoked).  Budget-bounded protocols call this on
  /// abort so no stored handler keeps their state alive.
  void reset() { *core_ = Core{}; }

 private:
  struct Key {
    std::int32_t dst_cluster;
    std::int32_t dst_index;
    std::int32_t src_cluster;
    std::int32_t src_index;
    std::int32_t tag;
    auto operator<=>(const Key&) const = default;
  };
  static Key make_key(ProcessorRef dst, ProcessorRef src, std::int32_t tag);

  struct PendingRecv {
    RecvHandler handler;
    std::uint64_t id = 0;  ///< non-zero for cancellable (timed) receives
  };
  struct Box {
    std::deque<Message> ready;
    std::deque<PendingRecv> pending;
  };
  /// Any-source receives, keyed by (dst, tag).
  struct AnyKey {
    std::int32_t dst_cluster;
    std::int32_t dst_index;
    std::int32_t tag;
    auto operator<=>(const AnyKey&) const = default;
  };

  /// Resequencing state per (src, dst) pair.
  struct PairKey {
    std::int32_t src_cluster;
    std::int32_t src_index;
    std::int32_t dst_cluster;
    std::int32_t dst_index;
    auto operator<=>(const PairKey&) const = default;
  };
  struct PairState {
    std::int64_t next_send = 0;
    std::int64_t next_deliver = 0;
    /// Messages that physically arrived ahead of a retransmitted
    /// predecessor, keyed by sequence number.
    std::map<std::int64_t, std::pair<std::int32_t, Message>> held;
  };

  /// All mailbox state; engine events capture it weakly so in-flight
  /// deliveries outliving the System are harmless no-ops.
  struct Core {
    std::map<Key, Box> boxes;
    std::map<AnyKey, std::deque<RecvHandler>> any_pending;
    std::map<PairKey, PairState> pairs;
    std::uint64_t next_recv_id = 1;
  };

  /// A message's payload reached `dst` in sequence position `seq`; deliver
  /// it (and any held successors) once its predecessors are in.
  static void arrived(Core& core, ProcessorRef dst, std::int64_t seq,
                      std::int32_t tag, Message msg);
  static void match(Core& core, ProcessorRef dst, std::int32_t tag,
                    Message msg);

  sim::NetSim& net_;
  std::shared_ptr<Core> core_;
};

}  // namespace netpart::mmps
