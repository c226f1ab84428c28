#include "apps/namdmodel/namdmodel.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "charm/array.hpp"
#include "charm/charm.hpp"
#include "charm/lb.hpp"
#include "lrts/runtime.hpp"
#include "topo/torus.hpp"

namespace ugnirt::apps::namdmodel {

using converse::CmiAlloc;
using converse::CmiFree;
using converse::CmiMyPe;
using converse::CmiSetHandler;
using converse::CmiSyncSendAndFree;
using converse::kCmiHeaderBytes;

MolecularSystem apoa1() { return MolecularSystem{"ApoA1", 92224}; }
MolecularSystem dhfr() { return MolecularSystem{"DHFR", 23558}; }
MolecularSystem iapp() { return MolecularSystem{"IAPP", 5570}; }

namespace {

// Array methods.
constexpr int kPositions = 1;  // patch -> compute
constexpr int kForces = 2;     // compute -> patch
constexpr int kPmeCharge = 3;  // patch -> pme
constexpr int kPmeTransA = 4;  // pme -> pme (first all-to-all)
constexpr int kPmeTransB = 5;  // pme -> pme (second all-to-all)
constexpr int kPmeForce = 6;   // pme -> patch
constexpr int kDoneAgg = 7;    // patch -> aggregator patch (done counts)

struct MsgHead {
  std::int32_t step;
  std::int32_t from;  // element id
};

struct Model;

/// Common base so one ArrayManager holds patches, computes and PME pencils.
class NamdObject : public charm::ArrayElement {
 public:
  explicit NamdObject(Model& m) : m_(&m) {}

 protected:
  Model* m_;
};

struct Model {
  NamdConfig cfg;
  converse::Machine* machine = nullptr;
  charm::ArrayManager* array = nullptr;

  int npatch = 0, ncomp = 0, npme = 0;

  struct PatchInfo {
    int atoms = 0;
    std::vector<int> computes;  // element ids
    int pme = -1;               // element id
    SimTime integrate_work = 0;
  };
  struct CompInfo {
    int p1 = -1, p2 = -1;  // patch element ids (p2 < 0: self compute)
    SimTime work = 0;
  };
  struct PmeInfo {
    std::vector<int> src_patches;
    SimTime phase_work = 0;      // charged 3x per step
    std::uint32_t trans_bytes = 0;
    // Grid-structured transposes (NAMD pencil decomposition): phase A
    // exchanges within the pencil's row, phase B within its column.
    std::vector<int> row_peers;  // element ids
    std::vector<int> col_peers;
  };
  std::vector<PatchInfo> patches;
  std::vector<CompInfo> computes;
  std::vector<PmeInfo> pmes;

  int comp_id(int i) const { return npatch + i; }
  int pme_id(int i) const { return npatch + ncomp + i; }

  // Done-aggregation tree (first nagg patches collect group counts).
  int nagg = 1;
  std::vector<int> agg_expected;

  // Controller state (PE 0).
  int dones = 0;
  int step = 0;
  bool measuring = false;
  SimTime measure_start = 0;
  SimTime measure_end = 0;
  int start_handler = -1;
  int done_handler = -1;
  NamdResult result;

  void send_msg(int dest_elem, int method, int from, std::uint32_t bytes);
  void controller_step_done(int count);
  void broadcast_step();
};

class PatchObj final : public NamdObject {
 public:
  PatchObj(Model& m, int id) : NamdObject(m), id_(id) {}

  void begin(int step) {
    step_ = step;
    forces_ = 0;
    pme_force_ = false;
    const auto& info = m_->patches[static_cast<std::size_t>(id_)];
    const std::uint32_t pos_bytes =
        static_cast<std::uint32_t>(info.atoms) * 16 + 16;
    for (int c : info.computes) {
      m_->send_msg(c, kPositions, id_, pos_bytes);
    }
    m_->send_msg(info.pme, kPmeCharge, id_,
                 static_cast<std::uint32_t>(info.atoms) * 8 + 16);
  }

  void receive(int method, const void* payload, std::uint32_t) override {
    if (method == kDoneAgg) {
      std::int32_t count = 0;
      std::memcpy(&count,
                  static_cast<const std::uint8_t*>(payload) + sizeof(MsgHead),
                  sizeof(count));
      aggregate_done(count);
      return;
    }
    MsgHead head;
    std::memcpy(&head, payload, sizeof(head));
    assert(head.step == step_);
    const auto& info = m_->patches[static_cast<std::size_t>(id_)];
    if (method == kForces) {
      ++forces_;
    } else if (method == kPmeForce) {
      pme_force_ = true;
    } else {
      assert(false && "patch: unexpected method");
    }
    if (forces_ < static_cast<int>(info.computes.size()) || !pme_force_) {
      return;
    }
    // All forces in: integrate and report through the aggregation tree
    // (direct all-to-root dones would make PE 0 a probe hotspot).
    converse::CmiChargeWork(info.integrate_work);
    report_done(1);
  }

  void aggregate_done(int count) {
    agg_count_ += count;
    if (agg_count_ < m_->agg_expected[static_cast<std::size_t>(id_)]) return;
    agg_count_ = 0;
    send_controller_done(
        m_->agg_expected[static_cast<std::size_t>(id_)]);
  }

 private:
  void report_done(int count) {
    const int agg = id_ % m_->nagg;
    if (agg == id_) {
      aggregate_done(count);
      return;
    }
    const MsgHead head{m_->step, id_};
    const std::int32_t c32 = count;
    m_->array->invoke_with(
        agg, kDoneAgg, sizeof(MsgHead) + sizeof(c32), [&](void* payload) {
          auto* b = static_cast<std::uint8_t*>(payload);
          std::memcpy(b, &head, sizeof(head));
          std::memcpy(b + sizeof(head), &c32, sizeof(c32));
        });
  }

  void send_controller_done(int count) {
    std::uint32_t total = static_cast<std::uint32_t>(kCmiHeaderBytes + 8);
    void* msg = CmiAlloc(total);
    *converse::msg_payload<std::int32_t>(msg) = count;
    CmiSetHandler(msg, m_->done_handler);
    CmiSyncSendAndFree(0, total, msg);
  }

  int id_;
  int step_ = -1;
  int forces_ = 0;
  int agg_count_ = 0;
  bool pme_force_ = false;
};

class ComputeObj final : public NamdObject {
 public:
  ComputeObj(Model& m, int id) : NamdObject(m), id_(id) {}

  void receive(int method, const void* payload, std::uint32_t) override {
    assert(method == kPositions);
    (void)method;
    MsgHead head;
    std::memcpy(&head, payload, sizeof(head));
    if (head.step != step_) {
      assert(head.step == step_ + 1);
      step_ = head.step;
      inputs_ = 0;
    }
    const auto& info =
        m_->computes[static_cast<std::size_t>(id_ - m_->npatch)];
    const int needed = info.p2 < 0 ? 1 : 2;
    if (++inputs_ < needed) return;
    converse::CmiChargeWork(info.work);
    auto force_bytes = [&](int p) {
      return static_cast<std::uint32_t>(
                 m_->patches[static_cast<std::size_t>(p)].atoms) *
                 16 +
             16;
    };
    m_->send_msg(info.p1, kForces, id_, force_bytes(info.p1));
    if (info.p2 >= 0) m_->send_msg(info.p2, kForces, id_, force_bytes(info.p2));
  }

 private:
  int id_;
  int step_ = -1;
  int inputs_ = 0;
};

class PmeObj final : public NamdObject {
 public:
  PmeObj(Model& m, int id) : NamdObject(m), id_(id) {}

  void receive(int method, const void* payload, std::uint32_t) override {
    MsgHead head;
    std::memcpy(&head, payload, sizeof(head));
    if (head.step != step_) {
      assert(head.step == step_ + 1);
      step_ = head.step;
      charges_ = trans_a_ = trans_b_ = 0;
    }
    const auto& info = m_->pmes[static_cast<std::size_t>(my_index())];
    const int row_peers = static_cast<int>(info.row_peers.size());
    const int col_peers = static_cast<int>(info.col_peers.size());
    switch (method) {
      case kPmeCharge:
        if (++charges_ < static_cast<int>(info.src_patches.size())) return;
        phase(kPmeTransA, info.row_peers, info);
        if (row_peers == 0) {
          phase(kPmeTransB, info.col_peers, info);
          if (col_peers == 0) finish(info);
        }
        return;
      case kPmeTransA:
        if (++trans_a_ < row_peers) return;
        phase(kPmeTransB, info.col_peers, info);
        if (col_peers == 0) finish(info);
        return;
      case kPmeTransB:
        if (++trans_b_ < col_peers) return;
        finish(info);
        return;
      default:
        assert(false && "pme: unexpected method");
    }
  }

 private:
  int my_index() const { return id_ - m_->npatch - m_->ncomp; }

  /// Charge one FFT phase and fan out a transpose round to the group.
  void phase(int round, const std::vector<int>& peers,
             const Model::PmeInfo& info) {
    converse::CmiChargeWork(info.phase_work);
    for (int j : peers) {
      m_->send_msg(j, round, id_, info.trans_bytes);
    }
  }

  void finish(const Model::PmeInfo& info) {
    converse::CmiChargeWork(info.phase_work);
    for (int p : info.src_patches) {
      std::uint32_t bytes =
          static_cast<std::uint32_t>(
              m_->patches[static_cast<std::size_t>(p)].atoms) *
              16 +
          16;
      m_->send_msg(p, kPmeForce, id_, bytes);
    }
  }

  int id_;
  int step_ = -1;
  int charges_ = 0;
  int trans_a_ = 0;
  int trans_b_ = 0;
};

void Model::send_msg(int dest_elem, int method, int from,
                     std::uint32_t bytes) {
  // Payload: MsgHead followed by `bytes` of synthetic data, which stays
  // unwritten.  Every handler reads MsgHead only (kDoneAgg one int32 past
  // it, written by report_done), and nothing hashes or compares payload
  // bytes, so their values cannot reach a result.
  const MsgHead head{step, from};
  array->invoke_with(dest_elem, method,
                     static_cast<std::uint32_t>(sizeof(MsgHead) + bytes),
                     [&](void* payload) {
                       std::memcpy(payload, &head, sizeof(head));
                     });
}

void Model::broadcast_step() {
  std::uint32_t total = static_cast<std::uint32_t>(kCmiHeaderBytes + 8);
  void* msg = CmiAlloc(total);
  CmiSetHandler(msg, start_handler);
  converse::CmiSyncBroadcastAllAndFree(total, msg);
}

void Model::controller_step_done(int count) {
  dones += count;
  if (dones < npatch) return;
  dones = 0;

  const int total_steps = cfg.warmup_steps + cfg.steps;
  sim::Context& ctx = machine->current_pe().ctx();

  if (step + 1 == cfg.warmup_steps) {
    // Load balance on the measured (warmup) loads, then start measuring.
    charm::LbResult lb = charm::greedy_lb(
        array->measured_load(),
        [&] {
          std::vector<int> cur(static_cast<std::size_t>(array->size()));
          for (int i = 0; i < array->size(); ++i) cur[static_cast<std::size_t>(i)] = array->location_of(i);
          return cur;
        }(),
        machine->num_pes());
    result.migrations = array->migrate_to(lb.assignment);
    result.lb_max_before = lb.max_load_before / cfg.warmup_steps;
    result.lb_max_after = lb.max_load_after / cfg.warmup_steps;
    array->reset_load();
    measure_start = ctx.now();
    measuring = true;
  }
  if (step + 1 == total_steps) {
    measure_end = ctx.now();
    return;  // done; engine drains
  }
  ++step;
  broadcast_step();
}

}  // namespace

NamdResult run_namd_model(const converse::MachineOptions& options,
                          const NamdConfig& config,
                          trace::Tracer* tracer) {
  auto machine = lrts::make_machine(options.layer, options);
  return run_namd_model(*machine, config, tracer);
}

NamdResult run_namd_model(converse::Machine& machine, const NamdConfig& config,
                          trace::Tracer* tracer) {
  if (tracer) {
    tracer->set_pe_count(machine.num_pes());
    machine.set_tracer(tracer);
  }
  charm::Charm charm(machine);

  Model model;
  model.cfg = config;
  model.machine = &machine;

  const int atoms = config.system.atoms;
  model.npatch =
      std::max(8, (atoms + config.target_atoms_per_patch - 1) /
                      config.target_atoms_per_patch);
  // Factor the patch count into a 3-D grid (same helper as the torus).
  auto dims = topo::Torus3D::for_nodes(model.npatch).dims();
  const int px = dims[0], py = dims[1], pz = dims[2];
  model.npatch = px * py * pz;
  // PME pencil decomposition scales with the machine (NAMD chooses pencil
  // counts from the grid and the core count); cap at 3x the patch count.
  model.npme = std::clamp(machine.num_pes() / 4, 4, model.npatch);

  // Patches and their 26-neighbourhoods (deduplicated, half-shell).
  model.patches.resize(static_cast<std::size_t>(model.npatch));
  const int base_atoms = atoms / model.npatch;
  int extra = atoms % model.npatch;
  for (auto& p : model.patches) {
    p.atoms = base_atoms + (extra-- > 0 ? 1 : 0);
  }

  auto pidx = [&](int x, int y, int z) {
    x = (x + px) % px;
    y = (y + py) % py;
    z = (z + pz) % pz;
    return x + px * (y + py * z);
  };
  double pair_units = 0;  // sum of a_i*a_j (and a_i^2/2 for self)
  for (int z = 0; z < pz; ++z) {
    for (int y = 0; y < py; ++y) {
      for (int x = 0; x < px; ++x) {
        int me = pidx(x, y, z);
        // Self compute.
        Model::CompInfo self;
        self.p1 = me;
        pair_units += 0.5 * model.patches[static_cast<std::size_t>(me)].atoms *
                      model.patches[static_cast<std::size_t>(me)].atoms;
        model.computes.push_back(self);
        // Half-shell pair computes (each neighbor pair once).
        std::set<int> seen;
        for (int dz = -1; dz <= 1; ++dz) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              if (dx == 0 && dy == 0 && dz == 0) continue;
              int nb = pidx(x + dx, y + dy, z + dz);
              if (nb <= me || !seen.insert(nb).second) continue;
              Model::CompInfo pair;
              pair.p1 = me;
              pair.p2 = nb;
              pair_units +=
                  0.25 *  // partial cutoff overlap between neighbor cells
                  static_cast<double>(
                      model.patches[static_cast<std::size_t>(me)].atoms) *
                  model.patches[static_cast<std::size_t>(nb)].atoms;
              model.computes.push_back(pair);
            }
          }
        }
      }
    }
  }
  model.ncomp = static_cast<int>(model.computes.size());

  // Work calibration: total per-step work = atoms * ns_per_atom_step,
  // split 82% short-range, 12% PME, 6% integration.
  const double total_work = static_cast<double>(atoms) *
                            static_cast<double>(config.ns_per_atom_step);
  const double short_work = 0.82 * total_work;
  const double pme_work = 0.12 * total_work;
  const double integ_work = 0.06 * total_work;
  {
    for (auto& c : model.computes) {
      double units = c.p2 < 0
          ? 0.5 * model.patches[static_cast<std::size_t>(c.p1)].atoms *
                model.patches[static_cast<std::size_t>(c.p1)].atoms
          : 0.25 *
                static_cast<double>(
                    model.patches[static_cast<std::size_t>(c.p1)].atoms) *
                model.patches[static_cast<std::size_t>(c.p2)].atoms;
      c.work = static_cast<SimTime>(short_work * units / pair_units);
    }
  }
  for (auto& p : model.patches) {
    p.integrate_work =
        static_cast<SimTime>(integ_work / model.npatch);
  }

  // PME pencils: patch -> pencil by index hash; grid-structured transposes
  // (row exchange, then column exchange), as in NAMD's pencil FFT.
  model.pmes.resize(static_cast<std::size_t>(model.npme));
  const double grid_bytes = static_cast<double>(atoms) * 4.0;
  int g = 1;
  while (g * g < model.npme) ++g;
  for (int i = 0; i < model.npme; ++i) {
    auto& pme = model.pmes[static_cast<std::size_t>(i)];
    pme.phase_work = static_cast<SimTime>(pme_work / model.npme / 3.0);
    pme.trans_bytes = static_cast<std::uint32_t>(
        std::max(512.0, grid_bytes / model.npme / g));
    const int row = i / g, col = i % g;
    for (int j = 0; j < model.npme; ++j) {
      if (j == i) continue;
      if (j / g == row) pme.row_peers.push_back(model.pme_id(j));
      if (j % g == col) pme.col_peers.push_back(model.pme_id(j));
    }
  }
  for (int p = 0; p < model.npatch; ++p) {
    int target = p % model.npme;
    model.patches[static_cast<std::size_t>(p)].pme = model.pme_id(target);
    model.pmes[static_cast<std::size_t>(target)].src_patches.push_back(p);
  }
  // Done-aggregation groups: ~16 collectors.
  model.nagg = std::max(1, std::min(16, model.npatch));
  model.agg_expected.assign(static_cast<std::size_t>(model.npatch), 0);
  for (int p = 0; p < model.npatch; ++p) {
    model.agg_expected[static_cast<std::size_t>(p % model.nagg)] += 1;
  }

  // Wire patch -> compute lists.
  for (int c = 0; c < model.ncomp; ++c) {
    const auto& info = model.computes[static_cast<std::size_t>(c)];
    model.patches[static_cast<std::size_t>(info.p1)].computes.push_back(
        model.comp_id(c));
    if (info.p2 >= 0) {
      model.patches[static_cast<std::size_t>(info.p2)].computes.push_back(
          model.comp_id(c));
    }
  }

  const int nelems = model.npatch + model.ncomp + model.npme;
  charm::ArrayManager array(charm, nelems, [&](int idx) -> std::unique_ptr<charm::ArrayElement> {
    if (idx < model.npatch) {
      return std::make_unique<PatchObj>(model, idx);
    }
    if (idx < model.npatch + model.ncomp) {
      return std::make_unique<ComputeObj>(model, idx);
    }
    return std::make_unique<PmeObj>(model, idx);
  });
  model.array = &array;

  model.done_handler = machine.register_handler([&](void* msg) {
    int count = *converse::msg_payload<std::int32_t>(msg);
    CmiFree(msg);
    model.controller_step_done(count);
  });
  model.start_handler = machine.register_handler([&](void* msg) {
    CmiFree(msg);
    int me = CmiMyPe();
    for (int p = 0; p < model.npatch; ++p) {
      if (array.location_of(p) == me) {
        static_cast<PatchObj*>(array.element(p))->begin(model.step);
      }
    }
  });

  machine.start(0, [&] { model.broadcast_step(); });
  machine.run();

  NamdResult result = model.result;
  result.patches = model.npatch;
  result.computes = model.ncomp;
  result.pme_objects = model.npme;
  result.messages = machine.stats().msgs_sent;

  if (tracer) tracer->finalize(model.measure_end);
  SimTime elapsed = model.measure_end - model.measure_start;
  result.ms_per_step =
      config.steps > 0 ? to_ms(elapsed / config.steps) : 0;
  return result;
}

}  // namespace ugnirt::apps::namdmodel
