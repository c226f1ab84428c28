// NAMD-shaped synthetic workload (paper §V-D substitution; see DESIGN.md).
//
// Reproduces NAMD's per-step communication and compute signature on the
// CHARM++ layer without the chemistry: cutoff-sized *patches* multicast
// atom positions (1-16 KiB messages) to *pair/self computes*, computes
// return forces, a PME-like phase does patch->pencil aggregation, two
// transpose all-to-alls among pencils, and force return; patches integrate
// and report.  Per-object compute costs are calibrated so ApoA1 (92,224
// atoms, PME every step) costs ~1.97 s of single-core work per step — the
// paper's 2-core baseline of ~985 ms/step (Table II).
//
// The measurement-based greedy load balancer runs after warmup steps, as
// NAMD's LB framework does.
#pragma once

#include <cstdint>
#include <string>

#include "converse/machine.hpp"
#include "trace/tracer.hpp"

namespace ugnirt::apps::namdmodel {

struct MolecularSystem {
  std::string name;
  int atoms = 0;
};

/// The paper's benchmark systems (§V-D).
MolecularSystem apoa1();   // 92,224 atoms
MolecularSystem dhfr();    // 23,558 atoms
MolecularSystem iapp();    // 5,570 atoms

struct NamdConfig {
  MolecularSystem system;
  int warmup_steps = 2;   // measured-load collection before LB
  int steps = 4;          // measured steps after LB
  /// Single-core work per atom per step (ns); 21,400 ns calibrates ApoA1
  /// to the paper's 2-core 985 ms/step with PME every step.
  SimTime ns_per_atom_step = 21'400;
  /// NAMD-like patch sizing; 480 atoms puts position/force messages at
  /// ~7.7 KiB — inside the paper's "1K to 16K" band and mostly below the
  /// MPI eager threshold, as on the real machine.
  int target_atoms_per_patch = 480;
};

struct NamdResult {
  double ms_per_step = 0;   // average measured virtual step time
  int patches = 0;
  int computes = 0;
  int pme_objects = 0;
  int migrations = 0;       // objects moved by the load balancer
  double lb_max_before = 0; // max PE load before/after LB (ns per step)
  double lb_max_after = 0;
  std::uint64_t messages = 0;
};

NamdResult run_namd_model(const converse::MachineOptions& options,
                          const NamdConfig& config,
                          trace::Tracer* tracer = nullptr);

/// The same run on `machine`, which must not have run yet; the caller
/// keeps it to inspect its layer afterwards.
NamdResult run_namd_model(converse::Machine& machine, const NamdConfig& config,
                          trace::Tracer* tracer = nullptr);

}  // namespace ugnirt::apps::namdmodel
