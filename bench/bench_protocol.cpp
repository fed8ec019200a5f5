// The cooperative availability protocol's cost (the paper's [11] claim:
// "additional overhead required to determine the available processors ...
// is also small relative to elapsed time").  The acknowledged token ring
// over real simulated messages, across cluster counts; elapsed ends when
// the initiator holds every N_i.
#include <cstdio>

#include "bench/common.hpp"
#include "mmps/manager_protocol.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int main() {
  using namespace netpart;
  Table table({"clusters", "processors", "messages", "elapsed ms",
               "vs stencil N=300 (6 Sparc2s)"});

  // Reference elapsed time the overhead must amortise against.
  const double stencil_ms = [] {
    const Network net = presets::paper_testbed();
    const apps::StencilConfig cfg{.n = 300, .iterations = 10,
                                  .overlap = false};
    return bench::measured_stencil_ms(net, cfg, {6, 0}, 1);
  }();

  for (const int k : {2, 3, 5, 8}) {
    Rng rng(static_cast<std::uint64_t>(k) * 31);
    const Network net = presets::random_network(rng, k, 6);
    const auto managers = make_managers(net, AvailabilityPolicy{});
    sim::Engine engine;
    sim::NetSim sim(engine, net, sim::NetSimParams{}, Rng(9));
    const mmps::ProtocolResult result =
        mmps::run_availability_protocol(sim, managers);
    table.add_row({std::to_string(k),
                   std::to_string(net.total_processors()),
                   std::to_string(result.messages),
                   format_double(result.elapsed.as_millis(), 2),
                   format_double(100.0 * result.elapsed.as_millis() /
                                     stencil_ms,
                                 2) +
                       "%"});
  }
  std::printf("%s\n",
              table.render("Availability protocol cost (acknowledged "
                           "token ring among cluster managers)")
                  .c_str());
  return 0;
}
