// Deterministic, seeded fault injection for the simulated Gemini stack.
//
// A FaultInjector sits between the uGNI emulation / network model and the
// machine layers and can force every transient failure mode the paper's
// runtime has to survive on real hardware:
//
//   * GNI_RC_TRANSACTION_ERROR on FMA/BTE posts (link-level CRC retry
//     exhaustion — the initiator must re-post);
//   * GNI_RC_ERROR_RESOURCE on GNI_MemRegister (MDD/TLB entries exhausted);
//   * GNI_RC_ERROR_RESOURCE on GNI_SmsgSendWTag (SSID pool exhausted);
//   * CQ overruns (an event is dropped and the CQ latches overrun until
//     the owner runs GNI_CqErrorRecover);
//   * SMSG credit-starvation windows (a peer's mailbox stays "full" for a
//     span of virtual time — sends see GNI_RC_NOT_DONE);
//   * per-link degradation (bandwidth cut by `kLinkSlowdown`) and
//     blackouts (the route is unavailable; transfers queue behind the
//     blackout) inside gemini::Network.
//
// Determinism: every injection site draws from its own Rng stream derived
// from (plan.seed, site, actor), so the decision sequence seen by one NIC
// or link never depends on how other actors interleave.  Same seed + same
// workload => identical fault schedule => identical event trace.
//
// Config keys live under "fault.*" and are overridable via UGNIRT_FAULT_*
// environment variables; `lrts::make_machine` applies them automatically.
#pragma once

#include <cstdint>
#include <map>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace ugnirt::trace {
class MetricsRegistry;
}

namespace ugnirt::fault {

/// Length of an SMSG credit-starvation window, virtual ns.
inline constexpr SimTime kSmsgStarveNs = 20000;
/// Length of a degraded-link window, virtual ns.
inline constexpr SimTime kLinkDegradeNs = 50000;
/// Bandwidth divisor while a route is degraded.
inline constexpr double kLinkSlowdown = 4.0;
/// Length of a link blackout window, virtual ns.
inline constexpr SimTime kLinkBlackoutNs = 100000;

struct FaultPlan {
  /// Master switch; when false the injector is never installed and every
  /// fault path costs a single null-pointer test.
  bool enabled = false;
  /// Seed for all injection streams (independent of the workload seed so
  /// the same traffic can be replayed under a different fault schedule).
  std::uint64_t seed = 0xFA17;

  /// P(transient GNI_RC_TRANSACTION_ERROR) per FMA/BTE post.
  double p_post_error = 0.0;
  /// P(GNI_RC_ERROR_RESOURCE) per GNI_MemRegister call.
  double p_reg_error = 0.0;
  /// P(GNI_RC_ERROR_RESOURCE) per GNI_SmsgSendWTag call.
  double p_smsg_error = 0.0;
  /// P(forced drop + overrun latch) per CQ event delivery.
  double p_cq_overrun = 0.0;

  /// P(a send opens a kSmsgStarveNs starvation window on its channel).
  double p_smsg_starve = 0.0;

  /// P(a transfer opens a kLinkDegradeNs degraded window on its route).
  double p_link_degrade = 0.0;
  /// P(a transfer opens a kLinkBlackoutNs blackout window on its route).
  double p_link_blackout = 0.0;

  /// True when any probability is nonzero (the plan can actually fire).
  bool any() const {
    return p_post_error > 0 || p_reg_error > 0 || p_smsg_error > 0 ||
           p_cq_overrun > 0 || p_smsg_starve > 0 || p_link_degrade > 0 ||
           p_link_blackout > 0;
  }

  /// Each knob once: key "fault.<name>", env UGNIRT_FAULT_<NAME>.
  static constexpr const char* kConfigPrefix = "fault";
  template <class V>
  void fields(V&& v) {
    v("enabled", enabled);
    v("seed", seed);
    v("p_post_error", p_post_error);
    v("p_reg_error", p_reg_error);
    v("p_smsg_error", p_smsg_error);
    v("p_cq_overrun", p_cq_overrun);
    v("p_smsg_starve", p_smsg_starve);
    v("p_link_degrade", p_link_degrade);
    v("p_link_blackout", p_link_blackout);
  }
};

/// What a link fault does to one transfer: wait out `delay` ns before the
/// route can be reserved, then move bytes `slowdown`x slower.
struct LinkFault {
  SimTime delay = 0;
  double slowdown = 1.0;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  const FaultPlan& plan() const { return plan_; }

  /// Per-call Bernoulli draws, one independent stream per (site, NIC).
  bool inject_post_error(std::int32_t inst);
  bool inject_reg_error(std::int32_t inst);
  bool inject_smsg_error(std::int32_t inst);
  bool inject_cq_overrun(std::int32_t inst);

  /// True while the (inst -> peer) SMSG channel is inside a starvation
  /// window; each call may also open a new window.
  bool smsg_starved(std::int32_t inst, std::int32_t peer, SimTime now);

  /// Degradation/blackout state of the directed route from -> to at `now`;
  /// each call may open a new window.
  LinkFault link_fault(int from_node, int to_node, SimTime now);

  /// Publish "fault.*" counters (faults *injected*; the layers publish
  /// what they *recovered*).
  void collect_metrics(trace::MetricsRegistry& reg) const;

  std::uint64_t injected_total() const;

 private:
  enum Site : std::uint64_t {
    kSitePost = 1,
    kSiteReg,
    kSiteSmsgError,
    kSiteCq,
    kSiteStarve,
    kSiteLink,
  };

  Rng& stream(Site site, std::uint64_t actor);
  bool draw(Site site, std::uint64_t actor, double p);

  struct LinkState {
    SimTime degraded_until = 0;
    SimTime blackout_until = 0;
  };

  FaultPlan plan_;
  Rng base_;
  // std::map keeps iteration (metrics, debugging) deterministic.
  std::map<std::uint64_t, Rng> streams_;
  std::map<std::uint64_t, SimTime> starve_until_;
  std::map<std::uint64_t, LinkState> links_;

  struct {
    std::uint64_t post_errors = 0;
    std::uint64_t reg_errors = 0;
    std::uint64_t smsg_errors = 0;
    std::uint64_t cq_overruns = 0;
    std::uint64_t starve_windows = 0;
    std::uint64_t starved_sends = 0;
    std::uint64_t degrade_windows = 0;
    std::uint64_t blackout_windows = 0;
  } n_;
};

}  // namespace ugnirt::fault
