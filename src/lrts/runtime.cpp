#include "lrts/runtime.hpp"

#include "lrts/mpi_layer.hpp"
#include "lrts/smp_layer.hpp"
#include "lrts/ugni_layer.hpp"
#include "util/config.hpp"

namespace ugnirt::lrts {

std::unique_ptr<converse::Machine> make_machine(
    converse::LayerKind kind, const converse::MachineOptions& options_in) {
  converse::MachineOptions options = options_in;
  options.layer = kind;
  // Env overrides for every knob, so ablations need no rebuild.
  overlay_env(options.mc);
  overlay_env(options.fault);
  overlay_env(options.aggregation);
  overlay_env(options.flow);
  std::unique_ptr<converse::MachineLayer> layer;
  switch (kind) {
    case converse::LayerKind::kUgni:
      if (options.smp_mode) {
        layer = std::make_unique<SmpLayer>();
      } else {
        layer = std::make_unique<UgniLayer>();
      }
      break;
    case converse::LayerKind::kMpi:
      layer = std::make_unique<MpiLayer>();
      break;
  }
  return std::make_unique<converse::Machine>(options, std::move(layer));
}

}  // namespace ugnirt::lrts
