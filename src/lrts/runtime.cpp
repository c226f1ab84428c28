#include "lrts/runtime.hpp"

#include "lrts/mpi_layer.hpp"
#include "lrts/smp_layer.hpp"
#include "lrts/ugni_layer.hpp"

namespace ugnirt::lrts {

std::unique_ptr<converse::Machine> make_machine(
    converse::LayerKind kind, const converse::MachineOptions& options_in) {
  converse::MachineOptions options = options_in;
  options.layer = kind;
  // Honor UGNIRT_GEMINI_* / UGNIRT_FAULT_* / UGNIRT_RETRY_* / UGNIRT_AGG_*
  // / UGNIRT_FLOW_* / UGNIRT_TENANCY_* environment overrides for every
  // model constant, fault knob, retry knob, aggregation knob, flow-control
  // knob and tenancy knob, so experiments and ablations can retune the
  // machine without rebuilds.
  {
    Config cfg;
    options.mc.export_to(cfg);
    options.fault.export_to(cfg);
    options.retry.export_to(cfg);
    options.aggregation.export_to(cfg);
    options.flow.export_to(cfg);
    options.tenancy.export_to(cfg);
    cfg.apply_env_overrides();
    options.mc = gemini::MachineConfig::from(cfg);
    options.fault = fault::FaultPlan::from(cfg);
    options.retry = fault::RetryPolicy::from(cfg);
    options.aggregation = aggregation::AggregationConfig::from(cfg);
    options.flow = flowcontrol::FlowConfig::from(cfg);
    options.tenancy = tenancy::TenancyConfig::from(cfg);
  }
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
