// MMPS substrate micro-benchmark: per-message delivery-latency
// distributions on the simulated testbed, within and across clusters, with
// and without datagram loss.  Messages are issued one at a time (no
// pipelining), so the distribution shows pure path latency; the long
// retransmission tail under loss is the reason the paper's cost functions
// are "average case ... due to the large amount of non-determinism
// inherent in UDP-based communications".
#include <cstdio>
#include <functional>

#include "bench/common.hpp"
#include "mmps/system.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"

namespace netpart {
namespace {

void measure(const char* title, ProcessorRef src, ProcessorRef dst,
             std::int64_t bytes, double loss) {
  const Network net = presets::paper_testbed();
  sim::Engine engine;
  sim::NetSimParams params;
  params.loss_rate = loss;
  params.rto = SimTime::millis(20);
  sim::NetSim netsim(engine, net, params, Rng(99));
  mmps::System mmps(netsim);

  constexpr int kMessages = 400;
  obs::LatencyHistogram hist;
  RunningStats stats;

  // Chain the messages: each send is issued when the previous delivery
  // completes, so every sample sees an idle channel.
  std::function<void(int)> send_next = [&](int i) {
    if (i == kMessages) return;
    const SimTime t0 = engine.now();
    mmps.send(src, dst, i, std::vector<std::byte>(
                               static_cast<std::size_t>(bytes)));
    mmps.recv(dst, src, i, [&, i, t0](mmps::Message) {
      const double ms = (engine.now() - t0).as_millis();
      hist.record(ms * 1e3);
      stats.add(ms);
      send_next(i + 1);
    });
  };
  send_next(0);
  engine.run();

  const QuantileSummary q = hist.quantiles();
  std::printf("%s (%d messages of %lld bytes, loss %.0f%%)\n"
              "latency mean %.2f ms, min %.2f, max %.2f, "
              "p50 %.2f, p90 %.2f, p99 %.2f, "
              "%llu retransmissions\n\n",
              title, kMessages, static_cast<long long>(bytes), 100 * loss,
              stats.mean(), stats.min(), stats.max(), q.p50 / 1e3,
              q.p90 / 1e3, q.p99 / 1e3,
              static_cast<unsigned long long>(netsim.retransmissions()));
}

}  // namespace
}  // namespace netpart

int main() {
  using namespace netpart;
  measure("intra-cluster (Sparc2 -> Sparc2)", ProcessorRef{0, 0},
          ProcessorRef{0, 1}, 2400, 0.0);
  measure("cross-router (Sparc2 -> IPC)", ProcessorRef{0, 0},
          ProcessorRef{1, 0}, 2400, 0.0);
  measure("cross-router under 10% loss", ProcessorRef{0, 0},
          ProcessorRef{1, 0}, 2400, 0.10);
  return 0;
}
