// Canned networks.
//
// paper_testbed() reproduces the HPDC'94 evaluation platform: 6 Sun Sparc2
// and 6 Sun IPC workstations on two 10 Mbit/s ethernet segments joined by a
// router.  Host messaging parameters are calibrated so that benchmarking the
// 1-D topology in the simulator and fitting Eq. 1 lands near the constants
// the paper reports:
//
//   T_comm[C1,1-D] ~ (-.0055 + .00283 P1) b + 1.1 P1   (msec)
//   T_comm[C2,1-D] ~ (-.0123 + .00457 P2) b + 1.9 P2
//   T_router       ~ .0006 b
//
// In a chain of p stations, 2(p-1) messages serialise on the shared channel
// per cycle, so the fitted per-byte-per-processor slope c4 is twice the
// per-byte channel occupancy and the fitted per-processor latency c2 is
// twice the per-message fixed cost.  That gives:
//   Sparc2: fixed ~ 550 us/message, pacing ~ 0.6 us/byte (+0.8 us/byte wire)
//   IPC:    fixed ~ 950 us/message, pacing ~ 1.5 us/byte
#pragma once

#include <string>

#include "net/network.hpp"
#include "util/rng.hpp"

namespace netpart {
namespace presets {

/// Machine models.
ProcessorType sparc2();
ProcessorType sun_ipc();
ProcessorType sun4();     ///< Fig. 1 cluster
ProcessorType hp9000();   ///< Fig. 1 cluster
ProcessorType rs6000();   ///< Fig. 1 cluster
ProcessorType i860();     ///< little-endian model, exercises coercion

/// The evaluation platform of Section 6: 6 Sparc2 + 6 IPC.
Network paper_testbed();

/// The example network of Fig. 1: Sun4, HP, and RS-6000 clusters on three
/// ethernet segments joined by routers.
Network fig1_network();

/// A mixed-endianness network (Sparc2 + i860) for coercion experiments.
Network coercion_testbed();

/// A metasystem (the paper's Section 7 target): an 8-node multicomputer
/// whose internal interconnect is much faster than ethernet, next to the
/// two workstation clusters of the evaluation testbed.  Relaxes
/// assumption 1 (equal segment bandwidth).
Network metasystem();

/// The named preset: paper, fig1, coercion or metasystem (the names the
/// command-line tools accept).  Throws ConfigError for any other name.
Network by_name(const std::string& name);

/// A random heterogeneous network for ablation studies: `clusters` clusters
/// of 2..max_per_cluster processors whose speeds and messaging costs vary
/// around the Sparc2 baseline.
Network random_network(Rng& rng, int clusters, int max_per_cluster);

}  // namespace presets
}  // namespace netpart
