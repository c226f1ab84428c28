// The one factory that links an application against an LRTS layer.
//
// "All the following benchmark programs and applications are written in
// CHARM++, but linked with either MPI- or uGNI-based message-driven runtime
// for comparison" (paper §V) — this factory is that link step.
//
// `make_machine(kind, options)` is the canonical entry point: the layer is
// an explicit argument (it *is* the link decision, not another tunable
// buried in the options bag), and every config sub-struct riding in
// MachineOptions is overlaid in place with its UGNIRT_<PREFIX>_<NAME>
// environment overrides (util/config.hpp), so they apply without a
// rebuild.
#pragma once

#include <memory>

#include "converse/machine.hpp"

namespace ugnirt::lrts {

/// Build a machine running layer `kind` (overrides `options.layer`), with
/// UGNIRT_GEMINI_* / _FAULT_* / _AGG_* / _FLOW_* environment overrides
/// applied on top of the passed-in options.  The UGNIRT_TENANCY_* knobs
/// are not machine options: a multi-tenant program overlays them onto the
/// TenancyConfig it gives its tenancy::JobManager.
std::unique_ptr<converse::Machine> make_machine(
    converse::LayerKind kind, const converse::MachineOptions& options = {});

}  // namespace ugnirt::lrts
