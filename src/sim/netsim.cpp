#include "sim/netsim.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/telemetry.hpp"
#include "util/error.hpp"

namespace netpart::sim {

namespace {

std::string ref_string(const ProcessorRef& ref) {
  // Built with += rather than one operator+ chain: gcc 12's -Wrestrict
  // fires a false positive on the chained temporaries under -O2.
  std::string out = "(";
  out += std::to_string(ref.cluster);
  out += ',';
  out += std::to_string(ref.index);
  out += ')';
  return out;
}

}  // namespace

NetSim::NetSim(Engine& engine, const Network& network, NetSimParams params,
               Rng rng)
    : engine_(engine), network_(network), params_(params), rng_(rng) {
  NP_REQUIRE(params_.loss_rate >= 0.0 && params_.loss_rate < 1.0,
             "loss rate must be in [0, 1)");
  NP_REQUIRE(params_.mtu > 0, "mtu must be positive");
  channels_.reserve(static_cast<std::size_t>(network_.num_segments()));
  for (const Segment& seg : network_.segments()) {
    channels_.emplace_back(seg.bandwidth_bps, seg.frame_overhead);
  }
  host_base_.reserve(static_cast<std::size_t>(network_.num_clusters()));
  std::size_t base = 0;
  for (const Cluster& c : network_.clusters()) {
    host_base_.push_back(base);
    base += static_cast<std::size_t>(c.size());
  }
  hosts_.resize(base);
}

std::size_t NetSim::host_slot(ProcessorRef ref) const {
  NP_REQUIRE(ref.cluster >= 0 && ref.cluster < network_.num_clusters(),
             "bad cluster in processor ref");
  const Cluster& c = network_.cluster(ref.cluster);
  NP_REQUIRE(ref.index >= 0 && ref.index < c.size(),
             "bad index in processor ref");
  return host_base_[static_cast<std::size_t>(ref.cluster)] +
         static_cast<std::size_t>(ref.index);
}

Host& NetSim::host(ProcessorRef ref) { return hosts_[host_slot(ref)]; }

const Host& NetSim::host(ProcessorRef ref) const {
  return hosts_[host_slot(ref)];
}

Channel& NetSim::channel(SegmentId id) {
  NP_REQUIRE(id >= 0 && id < network_.num_segments(),
             "segment id out of range");
  return channels_[static_cast<std::size_t>(id)];
}

std::int64_t NetSim::fragments(std::int64_t bytes) const {
  NP_REQUIRE(bytes >= 0, "bytes must be non-negative");
  if (bytes == 0) return 1;
  return (bytes + params_.mtu - 1) / params_.mtu;
}

void NetSim::set_telemetry(obs::TelemetryRegistry* registry,
                           SimTime origin) {
  telemetry_ = registry;
  telemetry_origin_ = origin;
  if (registry == nullptr) return;
  delivered_counter_ = &registry->counter("sim.messages_delivered");
  bytes_counter_ = &registry->counter("sim.bytes_delivered");
  lost_counter_ = &registry->counter("sim.fragments_lost");
  dropped_counter_ = &registry->counter("sim.messages_dropped");
}

std::uint32_t NetSim::lane(ProcessorRef src, SegmentId segment) const {
  // Host slots are stable across simulators of one network, so a sender
  // keeps its lane over the separate simulators of a chunked run.
  const std::size_t slot =
      src.cluster >= 0 ? host_slot(src)
                       : hosts_.size() + static_cast<std::size_t>(segment);
  return static_cast<std::uint32_t>(slot);
}

void NetSim::record_instant(const char* name, SimTime at, ProcessorRef src,
                            ProcessorRef dst, std::int64_t bytes,
                            SegmentId segment, double factor) {
  if (!telemetry_->enabled()) return;
  obs::InstantRecord instant;
  instant.name = name;
  instant.category = "sim.event";
  instant.sim_clock = true;
  instant.tid = lane(src, segment);
  instant.ts_us = (telemetry_origin_ + at).as_micros();
  if (src.cluster >= 0) instant.attrs.emplace_back("src", ref_string(src));
  if (dst.cluster >= 0) instant.attrs.emplace_back("dst", ref_string(dst));
  if (bytes != 0) instant.attrs.emplace_back("bytes", JsonValue(bytes));
  if (segment >= 0) {
    instant.attrs.emplace_back("segment",
                               JsonValue(static_cast<int>(segment)));
  }
  if (factor != 0.0) instant.attrs.emplace_back("factor", factor);
  telemetry_->record_instant(std::move(instant));
}

void NetSim::record_delivery(const Transit& t, SimTime done) {
  delivered_counter_->add(1);
  bytes_counter_->add(static_cast<std::uint64_t>(t.bytes));
  if (!telemetry_->enabled()) return;
  obs::SpanRecord span;
  span.name = "msg";
  span.category = "sim.msg";
  span.sim_clock = true;
  span.tid = lane(t.src, -1);
  span.start_us = (telemetry_origin_ + t.initiated).as_micros();
  span.dur_us = (telemetry_origin_ + done).as_micros() - span.start_us;
  span.attrs.emplace_back("src", ref_string(t.src));
  span.attrs.emplace_back("dst", ref_string(t.dst));
  span.attrs.emplace_back("bytes", JsonValue(t.bytes));
  telemetry_->record_span(std::move(span));
}

SimTime NetSim::message_occupancy(const ProcessorType& sender_type,
                                  const Segment& segment,
                                  std::int64_t bytes) const {
  const SimTime wire = SimTime::nanos(
      static_cast<std::int64_t>(8.0 * 1e9 / segment.bandwidth_bps + 0.5));
  return sender_type.comm_per_message +
         segment.frame_overhead * fragments(bytes) +
         (wire + sender_type.comm_per_byte) * bytes;
}

void NetSim::send(ProcessorRef src, ProcessorRef dst, std::int64_t bytes,
                  DeliveryCallback on_delivered) {
  NP_REQUIRE(bytes >= 0, "bytes must be non-negative");
  NP_REQUIRE(on_delivered != nullptr, "delivery callback required");

  // Sender host pays the asynchronous-send initiation cost.
  Host& sender = host(src);
  if (!sender.alive()) {
    // A crashed sender initiates nothing; the message silently vanishes
    // (datagram semantics -- nobody is told).
    Transit ghost;
    ghost.src = src;
    ghost.dst = dst;
    ghost.bytes = bytes;
    drop(ghost);
    return;
  }
  const SimTime ready =
      sender.reserve(engine_.now(), params_.send_initiation);

  const Cluster& src_cluster = network_.cluster(src.cluster);
  const Cluster& dst_cluster = network_.cluster(dst.cluster);

  auto transit = std::make_shared<Transit>();
  transit->src = src;
  transit->dst = dst;
  transit->bytes = bytes;
  transit->initiated = ready;
  transit->on_delivered = std::move(on_delivered);
  if (network_.needs_coercion(src.cluster, dst.cluster)) {
    transit->coerce_cost = dst_cluster.type().coerce_per_byte * bytes;
  }

  // Local (same-host) messages skip the wire entirely.
  if (!(src == dst)) {
    Leg first;
    first.channel = &channel(src_cluster.segment());
    first.fixed = src_cluster.type().comm_per_message;
    first.per_byte =
        first.channel->byte_time() + src_cluster.type().comm_per_byte;
    if (src_cluster.segment() != dst_cluster.segment()) {
      const auto link = network_.router_between(src.cluster, dst.cluster);
      NP_ASSERT(link.has_value());
      first.post_delay = link->delay_per_packet * fragments(bytes) +
                         link->delay_per_byte * bytes;
      transit->legs.push_back(first);

      // The router contends as one additional station on the destination
      // segment, pacing at that cluster's interface speed.
      Leg second;
      second.channel = &channel(dst_cluster.segment());
      second.fixed = dst_cluster.type().comm_per_message;
      second.per_byte =
          second.channel->byte_time() + dst_cluster.type().comm_per_byte;
      transit->legs.push_back(second);
    } else {
      transit->legs.push_back(first);
    }
  }

  engine_.schedule_at(ready,
                      [this, transit]() mutable { run_leg(transit); });
}

void NetSim::drop(const Transit& t) {
  ++dropped_;
  if (telemetry_ == nullptr) return;
  dropped_counter_->add(1);
  record_instant("dropped", engine_.now(), t.src, t.dst, t.bytes, -1, 0.0);
}

void NetSim::run_leg(std::shared_ptr<Transit> t) {
  if (t->next_leg >= t->legs.size()) {
    finish_delivery(t);
    return;
  }
  const std::int64_t frags = fragments(t->bytes);
  attempt(std::move(t), frags, /*first=*/true, /*round=*/0);
}

void NetSim::attempt(std::shared_ptr<Transit> t, std::int64_t frags,
                     bool first, int round) {
  NP_ASSERT(round <= params_.max_retransmit_rounds);
  const std::int64_t attempt_bytes =
      first ? t->bytes : std::min(t->bytes, frags * params_.mtu);
  next_fragment(std::move(t), frags, attempt_bytes, /*lost=*/0, first,
                round);
}

void NetSim::next_fragment(std::shared_ptr<Transit> t,
                           std::int64_t frags_left, std::int64_t bytes_left,
                           std::int64_t lost, bool first, int round) {
  const Leg& leg = t->legs[t->next_leg];

  if (frags_left == 0) {
    if (lost == 0) {
      const SimTime done = engine_.now() + leg.post_delay;
      instant("leg", done, t->src, t->dst, t->bytes);
      engine_.schedule_at(done, [this, t = std::move(t)]() mutable {
        ++t->next_leg;
        run_leg(std::move(t));
      });
      return;
    }
    if (round >= params_.max_retransmit_rounds &&
        params_.give_up_after_max_rounds) {
      drop(*t);
      return;
    }
    NP_ASSERT(round < params_.max_retransmit_rounds);
    retransmissions_ += static_cast<std::uint64_t>(lost);
    engine_.schedule_after(params_.rto, [this, t = std::move(t), lost,
                                         round] {
      attempt(t, lost, /*first=*/false, round + 1);
    });
    return;
  }

  const std::int64_t frag_bytes = std::min(bytes_left, params_.mtu);
  // The per-message fixed cost rides on the first fragment of the first
  // attempt; retransmitted fragments pay only the (small) resend cost.
  const bool lead = first && frags_left == fragments(t->bytes);
  const SimTime occupancy =
      (lead ? leg.fixed : (first ? SimTime::zero() : params_.send_initiation)) +
      leg.channel->frame_overhead() + leg.per_byte * frag_bytes;
  const ChannelGrant grant = leg.channel->reserve(engine_.now(), occupancy);
  // Draw the Bernoulli loss unconditionally so the loss pattern of the
  // surviving traffic is independent of when channels flap.
  const bool bernoulli_drop = rng_.next_bool(params_.loss_rate);
  const bool dropped = bernoulli_drop || leg.channel->down();
  if (dropped && telemetry_ != nullptr) {
    lost_counter_->add(1);
    record_instant("lost", grant.end, t->src, t->dst, t->bytes, -1, 0.0);
  }
  engine_.schedule_at(
      grant.end, [this, t = std::move(t), frags_left, bytes_left, frag_bytes,
                  lost, dropped, first, round]() mutable {
        next_fragment(std::move(t), frags_left - 1, bytes_left - frag_bytes,
                      lost + (dropped ? 1 : 0), first, round);
      });
}

void NetSim::finish_delivery(const std::shared_ptr<Transit>& t) {
  Host& receiver = host(t->dst);
  if (!receiver.alive()) {
    // The payload reached a dead host: nobody processes it, the delivery
    // callback never fires.  The MMPS timeout path reports the peer.
    drop(*t);
    return;
  }
  const SimTime done = receiver.reserve(
      engine_.now(), params_.recv_processing + t->coerce_cost);
  if (telemetry_ != nullptr) record_delivery(*t, done);
  engine_.schedule_at(done, [this, t] {
    ++delivered_;
    t->on_delivered();
  });
}

}  // namespace netpart::sim
