#include "net/presets.hpp"

#include "net/builder.hpp"
#include "util/error.hpp"

namespace netpart {
namespace presets {

namespace {
/// Common ethernet parameters for all presets: 10 Mbit/s wire and a small
/// MAC-level per-frame overhead (the dominant per-message fixed cost is on
/// the hosts, so this stays small).
void ethernet_defaults(NetworkBuilder& b) {
  b.bandwidth_bps(10e6);
  b.frame_overhead(SimTime::micros(50));
  b.router_delay(/*per_byte=*/SimTime::nanos(600),
                 /*per_packet=*/SimTime::micros(100));
}
}  // namespace

ProcessorType sparc2() {
  ProcessorType t;
  t.name = "Sparc2";
  t.flop_time = SimTime::micros(0.3);
  t.int_time = SimTime::micros(0.15);
  t.comm_per_byte = SimTime::nanos(600);
  t.comm_per_message = SimTime::micros(500);
  t.data_format = DataFormat::BigEndian;
  t.coerce_per_byte = SimTime::nanos(300);
  return t;
}

ProcessorType sun_ipc() {
  ProcessorType t;
  t.name = "IPC";
  t.flop_time = SimTime::micros(0.6);
  t.int_time = SimTime::micros(0.3);
  t.comm_per_byte = SimTime::nanos(1485);
  t.comm_per_message = SimTime::micros(900);
  t.data_format = DataFormat::BigEndian;
  t.coerce_per_byte = SimTime::nanos(600);
  return t;
}

ProcessorType sun4() {
  ProcessorType t = sparc2();
  t.name = "Sun4";
  return t;
}

ProcessorType hp9000() {
  ProcessorType t;
  t.name = "HP9000";
  t.flop_time = SimTime::micros(0.2);
  t.int_time = SimTime::micros(0.1);
  t.comm_per_byte = SimTime::nanos(500);
  t.comm_per_message = SimTime::micros(400);
  t.data_format = DataFormat::BigEndian;
  t.coerce_per_byte = SimTime::nanos(250);
  return t;
}

ProcessorType rs6000() {
  ProcessorType t;
  t.name = "RS6000";
  t.flop_time = SimTime::micros(0.12);
  t.int_time = SimTime::micros(0.08);
  t.comm_per_byte = SimTime::nanos(450);
  t.comm_per_message = SimTime::micros(350);
  t.data_format = DataFormat::BigEndian;
  t.coerce_per_byte = SimTime::nanos(200);
  return t;
}

ProcessorType i860() {
  ProcessorType t;
  t.name = "i860";
  t.flop_time = SimTime::micros(0.25);
  t.int_time = SimTime::micros(0.12);
  t.comm_per_byte = SimTime::nanos(700);
  t.comm_per_message = SimTime::micros(550);
  t.data_format = DataFormat::LittleEndian;
  t.coerce_per_byte = SimTime::nanos(350);
  return t;
}

Network paper_testbed() {
  NetworkBuilder b;
  ethernet_defaults(b);
  b.add_cluster("sparc2", sparc2(), 6);
  b.add_cluster("ipc", sun_ipc(), 6);
  return b.build();
}

Network fig1_network() {
  NetworkBuilder b;
  ethernet_defaults(b);
  b.add_cluster("sun4", sun4(), 8);
  b.add_cluster("hp", hp9000(), 4);
  b.add_cluster("rs6000", rs6000(), 4);
  return b.build();
}

Network coercion_testbed() {
  NetworkBuilder b;
  ethernet_defaults(b);
  b.add_cluster("sparc2", sparc2(), 6);
  b.add_cluster("i860", i860(), 6);
  return b.build();
}

Network metasystem() {
  // Multicomputer node: i860-class compute with a fast message
  // coprocessor -- per-message and per-byte host costs an order of
  // magnitude below the workstations'.
  ProcessorType node;
  node.name = "mc-node";
  node.flop_time = SimTime::micros(0.08);
  node.int_time = SimTime::micros(0.05);
  node.comm_per_byte = SimTime::nanos(60);
  node.comm_per_message = SimTime::micros(60);
  node.data_format = DataFormat::BigEndian;
  node.coerce_per_byte = SimTime::nanos(150);

  NetworkBuilder b;
  ethernet_defaults(b);
  b.relax_equal_bandwidth();
  // 80 Mbit/s internal interconnect with a small per-frame cost.
  b.add_cluster_on("multicomputer", node, 8, 80e6, SimTime::micros(10));
  b.add_cluster("sparc2", sparc2(), 6);
  b.add_cluster("ipc", sun_ipc(), 6);
  return b.build();
}

Network random_network(Rng& rng, int clusters, int max_per_cluster) {
  NP_REQUIRE(clusters >= 1, "need at least one cluster");
  NP_REQUIRE(max_per_cluster >= 2, "need at least two processors/cluster");
  NetworkBuilder b;
  ethernet_defaults(b);
  for (int i = 0; i < clusters; ++i) {
    ProcessorType t;
    t.name = "cpu" + std::to_string(i);
    // Flop times spread over roughly a factor of 6 (0.1 .. 0.6 us): the
    // Sparc2/IPC gap of the paper sits inside this range.
    t.flop_time = SimTime::micros(0.1 + 0.5 * rng.next_double());
    t.int_time = t.flop_time * 0.5;
    t.comm_per_byte = SimTime::nanos(rng.next_int(400, 1600));
    t.comm_per_message =
        SimTime::micros(static_cast<double>(rng.next_int(300, 1000)));
    t.data_format =
        rng.next_bool(0.25) ? DataFormat::LittleEndian : DataFormat::BigEndian;
    t.coerce_per_byte = SimTime::nanos(rng.next_int(200, 700));
    b.add_cluster(t.name, t,
                  static_cast<int>(rng.next_int(2, max_per_cluster)));
  }
  return b.build();
}

Network by_name(const std::string& name) {
  if (name == "paper") return paper_testbed();
  if (name == "fig1") return fig1_network();
  if (name == "coercion") return coercion_testbed();
  if (name == "metasystem") return metasystem();
  throw ConfigError("unknown network preset: " + name +
                    " (expected paper|fig1|coercion|metasystem)");
}

}  // namespace presets
}  // namespace netpart
