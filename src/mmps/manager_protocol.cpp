#include "mmps/manager_protocol.hpp"

#include <algorithm>
#include <memory>

#include "analysis/race/annotations.hpp"
#include "mmps/coercion.hpp"
#include "mmps/system.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"

namespace netpart::mmps {

namespace {
constexpr std::int32_t kRingTag = -101;
constexpr std::int32_t kResultTag = -102;
constexpr std::int32_t kAckTag = -103;
constexpr std::int32_t kBcastTag = -104;

ProcessorRef manager_host(ClusterId c) { return ProcessorRef{c, 0}; }

/// Shared state of one protocol run.  Handlers capture it via shared_ptr;
/// `done` neuters every callback that fires after the run finished or the
/// budget expired.  The token payload genuinely rides the messages
/// (counts plus dead flags as one int32 array of length 2k); receivers
/// merge it so the initiator's view is built from real bytes.
struct Ring : std::enable_shared_from_this<Ring> {
  System mmps;
  std::vector<std::int32_t> own;
  std::vector<std::int32_t> counts;
  std::vector<char> dead;
  std::vector<char> got_token;
  bool done = false;
  bool completed = false;
  ProtocolOptions opts;
  ClusterId k;

  Ring(sim::NetSim& net, const ProtocolOptions& options, ClusterId clusters)
      : mmps(net),
        own(static_cast<std::size_t>(clusters), 0),
        counts(static_cast<std::size_t>(clusters), 0),
        dead(static_cast<std::size_t>(clusters), 0),
        got_token(static_cast<std::size_t>(clusters), 0),
        opts(options),
        k(clusters) {}

  std::vector<std::byte> payload() const {
    std::vector<std::int32_t> buf = counts;
    buf.reserve(counts.size() * 2);
    for (char d : dead) buf.push_back(d);
    return encode_array(std::span<const std::int32_t>(buf));
  }

  void merge(const Message& msg) {
    // npracer: all ring-state mutation happens in sim-engine callbacks.
    // Single-threaded today (always happens-before), but the annotations
    // light up the moment anyone drives the engine from multiple threads.
    NP_WRITE(&counts, "mmps.ring.state");
    const std::vector<std::int32_t> buf =
        decode_array<std::int32_t>(msg.payload);
    NP_ASSERT(static_cast<ClusterId>(buf.size()) == 2 * k);
    for (ClusterId c = 0; c < k; ++c) {
      const auto i = static_cast<std::size_t>(c);
      counts[i] = std::max(counts[i], buf[i]);
      dead[i] = static_cast<char>(dead[i] |
                                  buf[static_cast<std::size_t>(k + c)]);
    }
  }

  /// Next ring stop after position `after` as seen from `holder`,
  /// skipping managers already known dead; position 0 means "return the
  /// result to the initiator".
  ClusterId next_target(ClusterId after) const {
    ClusterId t = (after + 1) % k;
    while (t != 0 && dead[static_cast<std::size_t>(t)]) {
      t = (t + 1) % k;
    }
    return t;
  }

  /// Send the token from `holder` to `target` (attempt counts up to
  /// opts.max_attempts); every hop is acknowledged, and an unacknowledged
  /// successor is retried, then declared dead and skipped.
  void send_token(ClusterId holder, ClusterId target, int attempt) {
    if (done) return;
    if (attempt > 0) {
      static obs::Counter& retries =
          obs::TelemetryRegistry::global().counter("mmps.token_retries");
      retries.add(1);
    }
    const std::int32_t tag = target == 0 ? kResultTag : kRingTag;
    mmps.send(manager_host(holder), manager_host(target), tag, payload());
    auto self = shared_from_this();
    mmps.recv_with_timeout(
        manager_host(holder), manager_host(target), kAckTag,
        opts.ack_timeout,
        [self](Message) {
          // Hop acknowledged; the successor carries the ring forward.
        },
        [self, holder, target, attempt] {
          if (self->done) return;
          if (attempt + 1 < self->opts.max_attempts) {
            self->send_token(holder, target, attempt + 1);
            return;
          }
          NP_WRITE(&self->counts, "mmps.ring.state");
          self->dead[static_cast<std::size_t>(target)] = 1;
          self->counts[static_cast<std::size_t>(target)] = 0;
          if (target == 0) {
            // The initiator itself never acked -- nothing left to try;
            // the budget loop reports the run as incomplete.
            return;
          }
          self->send_token(holder, self->next_target(target), 0);
        });
  }

  /// Arm manager `c` to accept the token from whichever predecessor
  /// survives.  Re-armed after each receipt so retransmitted duplicates
  /// are absorbed (and re-acked, quieting a retrying predecessor).
  void post_token_recv(ClusterId c) {
    auto self = shared_from_this();
    mmps.recv_any(manager_host(c), kRingTag, [self, c](Message msg) {
      if (self->done) return;
      self->mmps.send(manager_host(c), msg.source, kAckTag, {});
      self->post_token_recv(c);
      const auto i = static_cast<std::size_t>(c);
      if (self->got_token[i]) return;  // duplicate: ack was enough
      NP_WRITE(&self->counts, "mmps.ring.state");
      self->got_token[i] = 1;
      self->merge(msg);
      self->counts[i] = self->own[i];
      self->send_token(c, self->next_target(c), 0);
    });
  }

  /// Arm the initiator for the completed vector coming off the ring.
  void post_result_recv() {
    auto self = shared_from_this();
    mmps.recv_any(manager_host(0), kResultTag, [self](Message msg) {
      if (self->done) return;
      self->mmps.send(manager_host(0), msg.source, kAckTag, {});
      self->merge(msg);
      NP_WRITE(&self->counts, "mmps.ring.state");
      self->done = true;
      self->completed = true;
      // Broadcast the final snapshot to the surviving managers
      // (fire-and-forget: the run ends once the initiator holds N_i).
      for (ClusterId c = 1; c < self->k; ++c) {
        if (self->dead[static_cast<std::size_t>(c)]) continue;
        self->mmps.send(manager_host(0), manager_host(c), kBcastTag,
                        self->payload());
      }
    });
  }
};
}  // namespace

ProtocolResult run_availability_protocol(
    sim::NetSim& net, const std::vector<ClusterManager>& managers,
    const ProtocolOptions& options) {
  const Network& network = net.network();
  NP_REQUIRE(static_cast<int>(managers.size()) == network.num_clusters(),
             "need exactly one manager per cluster");
  NP_REQUIRE(options.max_attempts >= 1, "need at least one attempt");
  NP_REQUIRE(options.ack_timeout > SimTime::zero(),
             "ack timeout must be positive");
  NP_REQUIRE(options.budget > SimTime::zero(), "budget must be positive");
  NP_REQUIRE(net.host(manager_host(0)).alive(),
             "the initiating manager (cluster 0) must be alive");
  const ClusterId k = network.num_clusters();
  const std::uint64_t messages_before = net.messages_delivered();
  sim::Engine& engine = net.engine();
  const SimTime start = engine.now();
  const SimTime deadline = start + options.budget;

  ProtocolResult result;
  result.snapshot.available.assign(static_cast<std::size_t>(k), 0);

  if (k == 1) {
    result.snapshot.available[0] = managers[0].available(network);
    result.elapsed = SimTime::zero();
    return result;
  }

  auto ring = std::make_shared<Ring>(net, options, k);
  for (ClusterId c = 0; c < k; ++c) {
    ring->own[static_cast<std::size_t>(c)] =
        managers[static_cast<std::size_t>(c)].available(network);
  }

  for (ClusterId c = 1; c < k; ++c) {
    ring->post_token_recv(c);
    // Absorb the final broadcast so it is not left unclaimed.
    ring->mmps.recv_any(manager_host(c), kBcastTag,
                        [ring](Message) { /* manager caches snapshot */ });
  }
  ring->post_result_recv();

  // The initiator holds the token first.
  NP_WRITE(&ring->counts, "mmps.ring.state");
  ring->got_token[0] = 1;
  ring->counts[0] = ring->own[0];
  ring->send_token(0, ring->next_target(0), 0);

  // Drive the engine one event at a time: run() would also drain
  // unrelated future events (e.g. a fault injector's), and the budget
  // check must interleave with protocol progress.
  while (!ring->done && !engine.idle() && engine.now() < deadline) {
    engine.step();
  }
  NP_READ(&ring->counts, "mmps.ring.state");
  result.completed = ring->completed;
  // Neuter every handler still queued in the engine, and release the ones
  // stored in the mailbox (they hold the Ring alive via shared_ptr).
  NP_WRITE(&ring->counts, "mmps.ring.state");
  ring->done = true;
  ring->mmps.reset();

  for (ClusterId c = 0; c < k; ++c) {
    const auto i = static_cast<std::size_t>(c);
    if (ring->dead[i]) {
      result.dead.push_back(c);
    } else {
      result.snapshot.available[i] = ring->counts[i];
    }
  }
  result.elapsed = std::min(engine.now(), deadline) - start;
  result.messages = net.messages_delivered() - messages_before;
  return result;
}

}  // namespace netpart::mmps
