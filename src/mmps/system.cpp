#include "mmps/system.hpp"

#include <memory>
#include <utility>

#include "obs/telemetry.hpp"
#include "util/error.hpp"

namespace netpart::mmps {

namespace {

obs::Counter& mmps_counter(const char* name) {
  return obs::TelemetryRegistry::global().counter(name);
}

}  // namespace

System::Key System::make_key(ProcessorRef dst, ProcessorRef src,
                             std::int32_t tag) {
  return Key{dst.cluster, dst.index, src.cluster, src.index, tag};
}

void System::send(ProcessorRef src, ProcessorRef dst, std::int32_t tag,
                  std::vector<std::byte> payload) {
  const auto bytes = static_cast<std::int64_t>(payload.size());
  static obs::Counter& sends = mmps_counter("mmps.sends");
  static obs::Counter& sent_bytes = mmps_counter("mmps.bytes_sent");
  sends.add(1);
  sent_bytes.add(static_cast<std::uint64_t>(bytes));
  PairState& pair = core_->pairs[PairKey{src.cluster, src.index, dst.cluster,
                                         dst.index}];
  const std::int64_t seq = pair.next_send++;
  // The payload rides alongside the simulated transfer and materialises at
  // the receiver on delivery.  The mailbox core is captured weakly: if the
  // System is gone (or reset) by then, the delivery is a no-op.
  auto carried = std::make_shared<Message>(
      Message{src, tag, std::move(payload)});
  net_.send(src, dst, bytes,
            [core = std::weak_ptr<Core>(core_), dst, seq, tag, carried] {
              if (auto locked = core.lock()) {
                arrived(*locked, dst, seq, tag, std::move(*carried));
              }
            });
}

void System::arrived(Core& core, ProcessorRef dst, std::int64_t seq,
                     std::int32_t tag, Message msg) {
  PairState& pair = core.pairs[PairKey{msg.source.cluster, msg.source.index,
                                       dst.cluster, dst.index}];
  if (seq != pair.next_deliver) {
    // A retransmitted predecessor is still in flight: hold this message
    // until the sequence closes.  (After a reset() the pair state is
    // fresh, so a late delivery of sequence n > 0 parks here harmlessly.)
    if (seq < pair.next_deliver) return;
    pair.held.emplace(seq, std::make_pair(tag, std::move(msg)));
    return;
  }
  ++pair.next_deliver;
  match(core, dst, tag, std::move(msg));
  while (!pair.held.empty() &&
         pair.held.begin()->first == pair.next_deliver) {
    auto node = pair.held.extract(pair.held.begin());
    ++pair.next_deliver;
    match(core, dst, node.mapped().first, std::move(node.mapped().second));
  }
}

void System::match(Core& core, ProcessorRef dst, std::int32_t tag,
                   Message msg) {
  Box& box = core.boxes[make_key(dst, msg.source, tag)];
  if (!box.pending.empty()) {
    RecvHandler handler = std::move(box.pending.front().handler);
    box.pending.pop_front();
    handler(std::move(msg));
    return;
  }
  const auto any =
      core.any_pending.find(AnyKey{dst.cluster, dst.index, tag});
  if (any != core.any_pending.end() && !any->second.empty()) {
    RecvHandler handler = std::move(any->second.front());
    any->second.pop_front();
    handler(std::move(msg));
    return;
  }
  box.ready.push_back(std::move(msg));
}

void System::recv(ProcessorRef dst, ProcessorRef src, std::int32_t tag,
                  RecvHandler handler) {
  NP_REQUIRE(handler != nullptr, "recv handler required");
  static obs::Counter& posted = mmps_counter("mmps.recv_posted");
  posted.add(1);
  Box& box = core_->boxes[make_key(dst, src, tag)];
  if (!box.ready.empty()) {
    Message msg = std::move(box.ready.front());
    box.ready.pop_front();
    handler(std::move(msg));
    return;
  }
  box.pending.push_back(PendingRecv{std::move(handler), 0});
}

void System::recv_with_timeout(ProcessorRef dst, ProcessorRef src,
                               std::int32_t tag, SimTime timeout,
                               RecvHandler handler,
                               TimeoutHandler on_timeout) {
  NP_REQUIRE(handler != nullptr, "recv handler required");
  NP_REQUIRE(on_timeout != nullptr, "timeout handler required");
  NP_REQUIRE(timeout > SimTime::zero(), "timeout must be positive");
  static obs::Counter& posted = mmps_counter("mmps.recv_posted");
  posted.add(1);
  const Key key = make_key(dst, src, tag);
  Box& box = core_->boxes[key];
  if (!box.ready.empty()) {
    Message msg = std::move(box.ready.front());
    box.ready.pop_front();
    handler(std::move(msg));
    return;
  }
  const std::uint64_t id = core_->next_recv_id++;
  box.pending.push_back(PendingRecv{std::move(handler), id});
  net_.engine().schedule_after(
      timeout, [core = std::weak_ptr<Core>(core_), key, id,
                on_timeout = std::move(on_timeout)] {
        auto locked = core.lock();
        if (!locked) return;
        auto it = locked->boxes.find(key);
        if (it == locked->boxes.end()) return;
        auto& pending = it->second.pending;
        for (auto p = pending.begin(); p != pending.end(); ++p) {
          if (p->id == id) {
            pending.erase(p);
            static obs::Counter& timeouts =
                mmps_counter("mmps.recv_timeouts");
            timeouts.add(1);
            on_timeout();
            return;
          }
        }
        // Already matched: the timeout lost the race, nothing to do.
      });
}

void System::recv_any(ProcessorRef dst, std::int32_t tag,
                      RecvHandler handler) {
  NP_REQUIRE(handler != nullptr, "recv handler required");
  static obs::Counter& posted = mmps_counter("mmps.recv_any_posted");
  posted.add(1);
  // Key order scans sources from the lowest (cluster, index) up: serve the
  // first source holding a delivered message with this (dst, tag), oldest
  // of that source's messages first.  Delivery age across sources is not
  // consulted.
  for (auto& [key, box] : core_->boxes) {
    if (key.dst_cluster != dst.cluster || key.dst_index != dst.index ||
        key.tag != tag || box.ready.empty()) {
      continue;
    }
    Message msg = std::move(box.ready.front());
    box.ready.pop_front();
    handler(std::move(msg));
    return;
  }
  core_->any_pending[AnyKey{dst.cluster, dst.index, tag}].push_back(
      std::move(handler));
}

std::size_t System::unclaimed() const {
  std::size_t count = 0;
  for (const auto& [key, box] : core_->boxes) {
    count += box.ready.size();
  }
  return count;
}

}  // namespace netpart::mmps
