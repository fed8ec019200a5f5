// Fleet study: what the multi-node partition service buys and costs.
//
// Four sections, all on the deterministic simulator:
//   scaling      aggregate RPS vs fleet size (1/2/4/8 nodes) under an
//                open-loop zipf workload that saturates a single node --
//                the case for fleeting the service at all.
//   replication  cache behaviour vs replication factor (R = 1/2/3) on a
//                4-node fleet: hit ratio, replica-local serves, push
//                traffic.
//   convergence  epoch gossip: rounds for a bump entering at node 0 to
//                reach every node, vs fleet size, with heartbeats slowed
//                so the ring-wise gossip path is measured alone.  Bound:
//                2N rounds (the ring needs N-1).
//   recovery     a node crash mid-epoch: RTO-driven failovers until the
//                token ring reports the death, the warm fraction of the
//                dead node's hot entries on its replicas, and post-report
//                routing with zero failovers.
//
// Emits BENCH_fleet.json.  Gates (also in --smoke): 4 nodes beat 1 node
// on RPS, every fleet converges within 2N gossip rounds, the crashed
// node's replicas hold >= 50% of its hot entries, the failover phase
// completes every request, and distributed tracing stays pay-for-use
// (zero spans recorded with tracing off; bounded wall-clock overhead
// with it on -- obs_overhead_pct in the JSON).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "fleet/driver.hpp"
#include "fleet/fleet.hpp"
#include "mmps/manager_protocol.hpp"
#include "net/availability.hpp"
#include "sim/engine.hpp"
#include "util/table.hpp"

namespace netpart {
namespace {

/// One fleet on its own simulator (members ordered for construction).
struct Bed {
  Network net;
  sim::Engine engine;
  sim::NetSim sim;
  fleet::Fleet fl;

  Bed(int nodes, fleet::FleetOptions options, std::uint64_t seed)
      : net(fleet::make_fleet_network(nodes)),
        sim(engine, net, sim::NetSimParams{}, Rng(seed)),
        fl(sim, std::move(options), fleet::synthetic_cold_path(net)) {
    fl.start();
  }
};

fleet::WorkloadOptions base_workload(bool smoke) {
  fleet::WorkloadOptions w;
  w.requests = smoke ? 150 : 600;
  w.distinct_keys = 32;
  w.zipf_s = 1.1;
  w.seed = 1;
  return w;
}

void scaling_study(bool smoke, JsonValue& root, bool& gate_scaling) {
  Table table({"nodes", "rps", "hit %", "forwards", "mean ms"});
  JsonValue rows = JsonValue::array();
  double rps1 = 0.0, rps4 = 0.0;
  for (const int nodes : {1, 2, 4, 8}) {
    fleet::FleetOptions options;
    options.replication = nodes >= 2 ? 2 : 1;
    // Model a heavier decision service for this section: at the default
    // 80us hit cost the simulated 10 Mbit/s links make a forward cost more
    // than it saves, so fleeting could never win; partition estimation at
    // realistic sizes sits in the hundreds of microseconds and up, where
    // the queueing delay on one node dominates the forward hop.
    options.hit_service = SimTime::micros(500);
    options.cold_service = SimTime::millis(20);
    Bed bed(nodes, options, /*seed=*/7);
    fleet::WorkloadOptions w = base_workload(smoke);
    // Arrivals fast enough to saturate one node, so added nodes convert
    // into throughput, not idle time.
    w.arrival_period = SimTime::micros(100);
    const fleet::WorkloadResult r = fleet::run_workload(bed.fl, w);
    bed.fl.stop();
    const double hit_pct = 100.0 * static_cast<double>(r.hit_replies) /
                           static_cast<double>(r.submitted);
    table.add_row({std::to_string(nodes), std::to_string(r.rps).substr(0, 7),
               bench::ms(hit_pct),
               std::to_string(bed.fl.stats().forwards),
               bench::ms(r.mean_latency_ms)});
    rows.push(JsonValue::object()
                  .set("nodes", nodes)
                  .set("rps", r.rps)
                  .set("ok", static_cast<std::int64_t>(r.ok))
                  .set("hit_pct", hit_pct)
                  .set("forwards",
                       static_cast<std::int64_t>(bed.fl.stats().forwards))
                  .set("mean_latency_ms", r.mean_latency_ms));
    if (nodes == 1) rps1 = r.rps;
    if (nodes == 4) rps4 = r.rps;
  }
  std::printf("scaling (aggregate RPS vs fleet size)\n");
  std::printf("%s", table.render().c_str());
  gate_scaling = rps4 > rps1;
  root.set("scaling", JsonValue::object()
                          .set("rows", rows)
                          .set("rps_1", rps1)
                          .set("rps_4", rps4));
}

void replication_study(bool smoke, JsonValue& root) {
  Table table({"R", "hit %", "replica serves", "pushes", "inserts",
               "mean ms"});
  JsonValue rows = JsonValue::array();
  for (const int r : {1, 2, 3}) {
    fleet::FleetOptions options;
    options.replication = r;
    Bed bed(4, options, /*seed=*/11);
    fleet::WorkloadOptions w = base_workload(smoke);
    (void)fleet::run_workload(bed.fl, w);  // warm the hot head
    const fleet::FleetStats warm = bed.fl.stats();
    const fleet::WorkloadResult measured = fleet::run_workload(bed.fl, w);
    bed.fl.stop();
    const fleet::FleetStats& s = bed.fl.stats();
    const double hit_pct = 100.0 *
                           static_cast<double>(measured.hit_replies) /
                           static_cast<double>(measured.submitted);
    const auto replica_serves = s.replica_serves - warm.replica_serves;
    table.add_row({std::to_string(r), bench::ms(hit_pct),
               std::to_string(replica_serves),
               std::to_string(s.replications_pushed),
               std::to_string(s.replica_inserts),
               bench::ms(measured.mean_latency_ms)});
    rows.push(JsonValue::object()
                  .set("replication", r)
                  .set("hit_pct", hit_pct)
                  .set("replica_serves",
                       static_cast<std::int64_t>(replica_serves))
                  .set("pushes",
                       static_cast<std::int64_t>(s.replications_pushed))
                  .set("inserts",
                       static_cast<std::int64_t>(s.replica_inserts))
                  .set("mean_latency_ms", measured.mean_latency_ms));
  }
  std::printf("\nreplication (4 nodes, zipf 1.1, measured after warmup)\n");
  std::printf("%s", table.render().c_str());
  root.set("replication", rows);
}

void convergence_study(JsonValue& root, bool& gate_convergence) {
  Table table({"nodes", "rounds", "bound 2N"});
  JsonValue rows = JsonValue::array();
  gate_convergence = true;
  for (const int nodes : {2, 4, 8}) {
    fleet::FleetOptions options;
    options.replication = 2;
    // Slow heartbeats (and matching peer thresholds) so epoch spread is
    // carried by the gossip ring alone, not heartbeat piggybacking.
    options.heartbeat_period = SimTime::seconds(10);
    options.peer.suspect_after = SimTime::seconds(30);
    options.peer.dead_after = SimTime::seconds(60);
    Bed bed(nodes, options, /*seed=*/3);
    const std::uint64_t epoch = 2;
    bed.fl.announce_epoch(0, epoch);
    const auto converged = [&] {
      for (fleet::NodeId id : bed.fl.node_ids()) {
        if (bed.fl.node(id).epoch() != epoch) return false;
      }
      return true;
    };
    const std::uint64_t bound = 2 * static_cast<std::uint64_t>(nodes);
    while (!converged() && bed.fl.stats().gossip_rounds <= bound + 1 &&
           bed.engine.step()) {
    }
    bed.fl.stop();
    const std::uint64_t rounds = bed.fl.stats().gossip_rounds;
    const bool ok = converged() && rounds <= bound;
    gate_convergence = gate_convergence && ok;
    table.add_row({std::to_string(nodes), std::to_string(rounds),
               std::to_string(bound)});
    rows.push(JsonValue::object()
                  .set("nodes", nodes)
                  .set("rounds", static_cast<std::int64_t>(rounds))
                  .set("bound", static_cast<std::int64_t>(bound))
                  .set("converged", ok));
  }
  std::printf("\nconvergence (gossip rounds to spread an epoch, "
              "heartbeats quiesced)\n");
  std::printf("%s", table.render().c_str());
  root.set("convergence", rows);
}

void recovery_study(bool smoke, JsonValue& root, bool& gate_warm,
                    bool& gate_failover) {
  fleet::FleetOptions options;
  options.replication = 2;
  Bed bed(4, options, /*seed=*/5);
  fleet::WorkloadOptions w = base_workload(smoke);
  (void)fleet::run_workload(bed.fl, w);  // warm the hot head

  // Crash node 3 with NO dead-peer report: the next phase discovers the
  // death one RTO at a time (the failover path under test).
  const fleet::NodeId victim = 3;
  bed.sim.host(ProcessorRef{victim, 0}).crash();
  const double warm = bed.fl.warm_fraction_for(victim);
  const std::uint64_t failovers_before = bed.fl.stats().failovers;
  const fleet::WorkloadResult blind = fleet::run_workload(bed.fl, w);
  const std::uint64_t blind_failovers =
      bed.fl.stats().failovers - failovers_before;

  // Now the availability token ring reports the death; routing excludes
  // the dead node and failovers stop.
  const std::vector<ClusterManager> managers = make_managers(bed.net, {});
  const mmps::ProtocolResult avail =
      mmps::run_availability_protocol(bed.sim, managers);
  bed.fl.report_dead_peers(avail.dead);
  const std::uint64_t reported_failovers_before = bed.fl.stats().failovers;
  const fleet::WorkloadResult routed = fleet::run_workload(bed.fl, w);
  const std::uint64_t routed_failovers =
      bed.fl.stats().failovers - reported_failovers_before;
  bed.fl.stop();

  gate_warm = warm >= 0.5;
  gate_failover = blind.failed == 0 && routed.failed == 0 &&
                  blind_failovers > 0 && routed_failovers == 0;
  std::printf("\nrecovery (node %d crashed mid-epoch, replication 2)\n",
              victim);
  std::printf("  warm fraction on replicas   %.0f%%  (gate >= 50%%)\n",
              100.0 * warm);
  std::printf("  blind phase: ok %llu/%llu, %llu failovers, "
              "max latency %.1f ms\n",
              static_cast<unsigned long long>(blind.ok),
              static_cast<unsigned long long>(blind.submitted),
              static_cast<unsigned long long>(blind_failovers),
              blind.max_latency_ms);
  std::printf("  token ring reported %zu dead in %.1f ms; routed phase: "
              "ok %llu/%llu, %llu failovers\n",
              avail.dead.size(), avail.elapsed.as_millis(),
              static_cast<unsigned long long>(routed.ok),
              static_cast<unsigned long long>(routed.submitted),
              static_cast<unsigned long long>(routed_failovers));
  root.set("recovery",
           JsonValue::object()
               .set("victim", victim)
               .set("warm_fraction", warm)
               .set("blind_ok", static_cast<std::int64_t>(blind.ok))
               .set("blind_failovers",
                    static_cast<std::int64_t>(blind_failovers))
               .set("blind_max_latency_ms", blind.max_latency_ms)
               .set("protocol_elapsed_ms", avail.elapsed.as_millis())
               .set("protocol_dead",
                    static_cast<std::int64_t>(avail.dead.size()))
               .set("routed_ok", static_cast<std::int64_t>(routed.ok))
               .set("routed_failovers",
                    static_cast<std::int64_t>(routed_failovers)));
}

void overhead_study(bool smoke, JsonValue& root, bool& gate_overhead) {
  // Tracing must be pay-for-what-you-use.  With tracing off a fleet
  // request's span machinery collapses to one enabled check per would-be
  // span, so the same workload is run twice -- spans off, spans on -- and
  // the wall-clock delta is the price of distributed tracing.  Min over
  // reps because wall time on shared CI hosts is noisy upward only.
  const int reps = 3;
  double best_us[2] = {1e300, 1e300};
  std::size_t spans[2] = {0, 0};
  for (int rep = 0; rep < reps; ++rep) {
    for (int traced = 0; traced < 2; ++traced) {
      fleet::FleetOptions options;
      options.replication = 2;
      options.tracing = traced == 1;
      Bed bed(4, options, /*seed=*/13);
      fleet::WorkloadOptions w = base_workload(smoke);
      const auto t0 = std::chrono::steady_clock::now();
      (void)fleet::run_workload(bed.fl, w);
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      best_us[traced] = std::min(best_us[traced], us);
      std::size_t recorded = 0;
      for (fleet::NodeId id : bed.fl.node_ids()) {
        recorded += bed.fl.node(id).telemetry().span_count();
      }
      spans[traced] = recorded;
      bed.fl.stop();
    }
  }
  const double overhead_pct =
      100.0 * (best_us[1] - best_us[0]) / best_us[0];
  // The bound is deliberately loose (tracing may cost real work; it must
  // not cost multiples of the workload); the sharp gate is the zero-span
  // invariant on the disabled path.
  gate_overhead = spans[0] == 0 && spans[1] > 0 && overhead_pct <= 150.0;
  std::printf("\nobservability (same workload, spans off vs on, min of %d "
              "reps)\n",
              reps);
  std::printf("  off %.0f us (0 spans)   on %.0f us (%zu spans)   "
              "overhead %+.1f%%  (gate <= 150%%)\n",
              best_us[0], best_us[1], spans[1], overhead_pct);
  root.set("observability",
           JsonValue::object()
               .set("disabled_us", best_us[0])
               .set("enabled_us", best_us[1])
               .set("spans_disabled",
                    static_cast<std::int64_t>(spans[0]))
               .set("spans_enabled", static_cast<std::int64_t>(spans[1]))
               .set("obs_overhead_pct", overhead_pct));
}

}  // namespace
}  // namespace netpart

int main(int argc, char** argv) {
  using namespace netpart;
  const Config args = bench::parse_bench_args(argc, argv);
  const bool smoke = args.get_bool_or("smoke", false);
  const std::string json_out = args.get_or("json_out", "BENCH_fleet.json");

  bench::PhaseMetrics phase_metrics;
  JsonValue root = JsonValue::object();
  root.set("bench", "fleet");
  root.set("meta", JsonValue::object().set("smoke", smoke));

  bool gate_scaling = false, gate_convergence = false, gate_warm = false,
       gate_failover = false, gate_overhead = false;
  scaling_study(smoke, root, gate_scaling);
  phase_metrics.phase("scaling");
  replication_study(smoke, root);
  phase_metrics.phase("replication");
  convergence_study(root, gate_convergence);
  phase_metrics.phase("convergence");
  recovery_study(smoke, root, gate_warm, gate_failover);
  phase_metrics.phase("recovery");
  overhead_study(smoke, root, gate_overhead);
  phase_metrics.phase("observability");

  const bool pass = gate_scaling && gate_convergence && gate_warm &&
                    gate_failover && gate_overhead;
  root.set("checks", JsonValue::object()
                         .set("scaling_4_beats_1", gate_scaling)
                         .set("convergence_within_2n", gate_convergence)
                         .set("warm_fraction_ge_half", gate_warm)
                         .set("failover_completes", gate_failover)
                         .set("tracing_overhead_bounded", gate_overhead)
                         .set("pass", pass));
  root.set("metrics", phase_metrics.to_json());
  bench::write_bench_json(json_out, root);
  std::printf("\nchecks: scaling %s, convergence %s, warm %s, failover %s, "
              "tracing %s -> %s\nresults -> %s\n",
              gate_scaling ? "ok" : "FAIL",
              gate_convergence ? "ok" : "FAIL", gate_warm ? "ok" : "FAIL",
              gate_failover ? "ok" : "FAIL", gate_overhead ? "ok" : "FAIL",
              pass ? "PASS" : "FAIL", json_out.c_str());
  return pass ? 0 : 1;
}
