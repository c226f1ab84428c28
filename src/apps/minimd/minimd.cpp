#include "apps/minimd/minimd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>

#include "charm/array.hpp"
#include "charm/charm.hpp"
#include "lrts/runtime.hpp"
#include "util/rng.hpp"

namespace ugnirt::apps::minimd {

namespace {

struct Atom {
  Vec3 pos;
  Vec3 vel;  // half-step velocity between integrations
};

// Method ids on the patch array.
constexpr int kMethodStart = 0;
constexpr int kMethodPositions = 1;
constexpr int kMethodMigrants = 2;

struct PosHead {
  std::int32_t step;
  std::int32_t count;
  // Vec3[count] follows
};

struct MigHead {
  std::int32_t step;
  std::int32_t count;
  // Atom[count] follows
};

struct Shared;  // forward

/// One spatial patch: owns atoms, exchanges ghosts, integrates.
class Patch final : public charm::ArrayElement {
 public:
  Patch(Shared& shared, int idx);

  void receive(int method, const void* payload, std::uint32_t bytes) override;
  std::uint32_t pack_size() const override {
    return static_cast<std::uint32_t>(atoms_.size() * sizeof(Atom) + 64);
  }

  void begin_step();  // send positions for current step

  std::vector<Atom> atoms_;
  Vec3 lo_;  // box corner of this patch

 private:
  // `raw` points into the message payload, which is only 4-byte aligned:
  // the handlers memcpy the records out rather than read them in place.
  void on_positions(const PosHead& head, const std::uint8_t* raw);
  void on_migrants(const MigHead& head, const std::uint8_t* raw);
  void try_compute();
  void try_finish();
  void compute_and_integrate();

  Shared* s_;
  int step_ = 0;
  bool computed_ = false;   // forces/integration done for step_
  bool first_step_ = true;
  std::vector<Vec3> prev_force_;  // F(t) for the velocity completion
  // Ghost positions buffered per step.
  std::map<int, std::pair<int, std::vector<Vec3>>> ghosts_;  // step -> (senders, coords)
  std::map<int, std::pair<int, std::vector<Atom>>> migrants_;  // step -> (senders, atoms)
  double pending_energy_ = 0;
};

/// Run-wide shared state (host-side; per-patch data stays in the patches).
struct Shared {
  MdConfig cfg;
  converse::Machine* machine = nullptr;
  charm::Charm* charm = nullptr;
  charm::ArrayManager* patches = nullptr;
  int npatches = 0;
  std::vector<std::vector<int>> neighbors;  // deduplicated, excludes self
  Vec3 box;
  int energy_red = -1;
  MdResult result;
  double e0 = 0;
  bool have_e0 = false;
  SimTime t_start = 0;
  // Per-PE round bookkeeping for the energy reduction.
  std::vector<int> pe_patches;           // patches hosted per PE
  std::vector<std::map<int, std::pair<int, double>>> pe_round;  // pe -> step -> (done, E)

  int patch_of(double x, double y, double z) const {
    auto wrap = [](double v, double span) {
      double w = std::fmod(v, span);
      return w < 0 ? w + span : w;
    };
    int ix = static_cast<int>(wrap(x, box.x) / cfg.patch_len);
    int iy = static_cast<int>(wrap(y, box.y) / cfg.patch_len);
    int iz = static_cast<int>(wrap(z, box.z) / cfg.patch_len);
    ix = std::min(ix, cfg.patches_x - 1);
    iy = std::min(iy, cfg.patches_y - 1);
    iz = std::min(iz, cfg.patches_z - 1);
    return ix + cfg.patches_x * (iy + cfg.patches_y * iz);
  }

  Vec3 min_image(Vec3 d) const {
    auto fold = [](double v, double span) {
      if (v > span / 2) return v - span;
      if (v < -span / 2) return v + span;
      return v;
    };
    return Vec3{fold(d.x, box.x), fold(d.y, box.y), fold(d.z, box.z)};
  }

  void patch_done_step(int pe, int step, double energy);
};

Patch::Patch(Shared& shared, int idx) : s_(&shared) {
  const MdConfig& c = s_->cfg;
  int ix = idx % c.patches_x;
  int iy = (idx / c.patches_x) % c.patches_y;
  int iz = idx / (c.patches_x * c.patches_y);
  lo_ = Vec3{ix * c.patch_len, iy * c.patch_len, iz * c.patch_len};

  // Jittered lattice fill with Maxwell-ish velocities, net momentum zeroed
  // per patch so the global momentum starts at exactly zero.
  Rng rng(c.seed ^ (static_cast<std::uint64_t>(idx) * 0x9e3779b97f4a7c15ULL));
  int side = 1;
  while (side * side * side < c.atoms_per_patch) ++side;
  double cell = c.patch_len / side;
  Vec3 mom{};
  for (int a = 0; a < c.atoms_per_patch; ++a) {
    Atom atom;
    int ax = a % side, ay = (a / side) % side, az = a / (side * side);
    atom.pos = Vec3{lo_.x + (ax + 0.3 + 0.4 * rng.next_double()) * cell,
                    lo_.y + (ay + 0.3 + 0.4 * rng.next_double()) * cell,
                    lo_.z + (az + 0.3 + 0.4 * rng.next_double()) * cell};
    double scale = std::sqrt(c.initial_temp);
    atom.vel = Vec3{scale * (rng.next_double() - 0.5) * 2,
                    scale * (rng.next_double() - 0.5) * 2,
                    scale * (rng.next_double() - 0.5) * 2};
    mom.x += atom.vel.x;
    mom.y += atom.vel.y;
    mom.z += atom.vel.z;
    atoms_.push_back(atom);
  }
  if (!atoms_.empty()) {
    for (auto& a : atoms_) {
      a.vel.x -= mom.x / static_cast<double>(atoms_.size());
      a.vel.y -= mom.y / static_cast<double>(atoms_.size());
      a.vel.z -= mom.z / static_cast<double>(atoms_.size());
    }
  }
}

void Patch::begin_step() {
  // Ship current positions to every neighbor patch.
  const auto& nbrs = s_->neighbors[static_cast<std::size_t>(index())];
  std::vector<std::uint8_t> buf(sizeof(PosHead) + atoms_.size() * sizeof(Vec3));
  auto* head = reinterpret_cast<PosHead*>(buf.data());
  head->step = step_;
  head->count = static_cast<std::int32_t>(atoms_.size());
  auto* out = reinterpret_cast<Vec3*>(buf.data() + sizeof(PosHead));
  for (std::size_t i = 0; i < atoms_.size(); ++i) out[i] = atoms_[i].pos;
  for (int nb : nbrs) {
    s_->patches->invoke(nb, kMethodPositions, buf.data(),
                        static_cast<std::uint32_t>(buf.size()));
  }
  if (nbrs.empty()) try_compute();
}

void Patch::receive(int method, const void* payload, std::uint32_t bytes) {
  if (method == kMethodStart) {
    (void)payload;
    (void)bytes;
    begin_step();
  } else if (method == kMethodPositions) {
    PosHead head;
    std::memcpy(&head, payload, sizeof(head));
    assert(bytes == sizeof(PosHead) + sizeof(Vec3) * static_cast<std::uint32_t>(head.count));
    on_positions(head,
                 static_cast<const std::uint8_t*>(payload) + sizeof(PosHead));
  } else if (method == kMethodMigrants) {
    MigHead head;
    std::memcpy(&head, payload, sizeof(head));
    assert(bytes == sizeof(MigHead) + sizeof(Atom) * static_cast<std::uint32_t>(head.count));
    on_migrants(head,
                static_cast<const std::uint8_t*>(payload) + sizeof(MigHead));
  } else {
    assert(false && "unknown patch method");
  }
}

/// Append `count` records from an unaligned byte buffer to `out`.
template <typename T>
void append_unaligned(std::vector<T>& out, const std::uint8_t* raw,
                      std::int32_t count) {
  if (count <= 0) return;  // memcpy must not see an empty vector's null data()
  const std::size_t old = out.size();
  out.resize(old + static_cast<std::size_t>(count));
  std::memcpy(out.data() + old, raw,
              static_cast<std::size_t>(count) * sizeof(T));
}

void Patch::on_positions(const PosHead& head, const std::uint8_t* raw) {
  auto& slot = ghosts_[head.step];
  slot.first += 1;
  append_unaligned(slot.second, raw, head.count);
  try_compute();
}

void Patch::on_migrants(const MigHead& head, const std::uint8_t* raw) {
  auto& slot = migrants_[head.step];
  slot.first += 1;
  append_unaligned(slot.second, raw, head.count);
  try_finish();
}

void Patch::try_compute() {
  if (computed_) return;
  const int needed =
      static_cast<int>(s_->neighbors[static_cast<std::size_t>(index())].size());
  auto it = ghosts_.find(step_);
  int have = it == ghosts_.end() ? 0 : it->second.first;
  if (have < needed) return;
  compute_and_integrate();
  computed_ = true;
  try_finish();
}

void Patch::compute_and_integrate() {
  const MdConfig& c = s_->cfg;
  const double rc2 = c.patch_len * c.patch_len;
  const double sig2 = c.sigma * c.sigma;

  std::vector<Vec3> others;
  if (auto it = ghosts_.find(step_); it != ghosts_.end()) {
    others = std::move(it->second.second);
    ghosts_.erase(it);
  }

  const std::size_t own = atoms_.size();
  std::vector<Vec3> force(own, Vec3{});
  double pe = 0;
  std::uint64_t pairs = 0;

  auto accumulate = [&](std::size_t i, const Vec3& other, bool half_pe) {
    Vec3 d = s_->min_image(Vec3{atoms_[i].pos.x - other.x,
                                atoms_[i].pos.y - other.y,
                                atoms_[i].pos.z - other.z});
    double r2 = d.x * d.x + d.y * d.y + d.z * d.z;
    ++pairs;
    if (r2 >= rc2 || r2 < 1e-12) return;
    double inv2 = sig2 / r2;
    double inv6 = inv2 * inv2 * inv2;
    double inv12 = inv6 * inv6;
    // F = 24 eps (2 s^12/r^13 - s^6/r^7) rhat = 24 eps (2 inv12 - inv6)/r2 * d
    double f = 24.0 * c.epsilon * (2.0 * inv12 - inv6) / r2;
    force[i].x += f * d.x;
    force[i].y += f * d.y;
    force[i].z += f * d.z;
    double e = 4.0 * c.epsilon * (inv12 - inv6);
    pe += half_pe ? 0.5 * e : 0.5 * e;  // every pair seen from both sides
  };

  for (std::size_t i = 0; i < own; ++i) {
    for (std::size_t j = 0; j < own; ++j) {
      if (i == j) continue;
      accumulate(i, atoms_[j].pos, true);
    }
    for (const Vec3& g : others) accumulate(i, g, true);
  }
  s_->result.pair_interactions += pairs;
  converse::CmiChargeWork(static_cast<SimTime>(pairs) * c.ns_per_pair);

  // Velocity Verlet: finish last step's kick, record energy, kick + drift.
  if (!first_step_) {
    for (std::size_t i = 0; i < own; ++i) {
      atoms_[i].vel.x += force[i].x * c.dt / 2;
      atoms_[i].vel.y += force[i].y * c.dt / 2;
      atoms_[i].vel.z += force[i].z * c.dt / 2;
    }
  }
  double ke = 0;
  for (const Atom& a : atoms_) {
    ke += 0.5 * (a.vel.x * a.vel.x + a.vel.y * a.vel.y + a.vel.z * a.vel.z);
  }
  pending_energy_ = ke + pe;

  for (std::size_t i = 0; i < own; ++i) {
    atoms_[i].vel.x += force[i].x * c.dt / 2;
    atoms_[i].vel.y += force[i].y * c.dt / 2;
    atoms_[i].vel.z += force[i].z * c.dt / 2;
    atoms_[i].pos.x += atoms_[i].vel.x * c.dt;
    atoms_[i].pos.y += atoms_[i].vel.y * c.dt;
    atoms_[i].pos.z += atoms_[i].vel.z * c.dt;
    // Wrap into the global box.
    auto wrap = [](double v, double span) {
      double w = std::fmod(v, span);
      return w < 0 ? w + span : w;
    };
    atoms_[i].pos.x = wrap(atoms_[i].pos.x, s_->box.x);
    atoms_[i].pos.y = wrap(atoms_[i].pos.y, s_->box.y);
    atoms_[i].pos.z = wrap(atoms_[i].pos.z, s_->box.z);
  }
  first_step_ = false;

  // Migrate atoms that left the patch; one message per neighbor always, so
  // receivers can count completion.
  const auto& nbrs = s_->neighbors[static_cast<std::size_t>(index())];
  std::vector<std::vector<Atom>> outgoing(nbrs.size());
  std::vector<Atom> keep;
  keep.reserve(atoms_.size());
  for (const Atom& a : atoms_) {
    int dest = s_->patch_of(a.pos.x, a.pos.y, a.pos.z);
    if (dest == index()) {
      keep.push_back(a);
      continue;
    }
    auto it = std::find(nbrs.begin(), nbrs.end(), dest);
    assert(it != nbrs.end() && "atom moved beyond the neighbor shell");
    outgoing[static_cast<std::size_t>(it - nbrs.begin())].push_back(a);
    ++s_->result.migrations;
  }
  atoms_ = std::move(keep);
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    std::vector<std::uint8_t> buf(sizeof(MigHead) +
                                  outgoing[k].size() * sizeof(Atom));
    auto* head = reinterpret_cast<MigHead*>(buf.data());
    head->step = step_;
    head->count = static_cast<std::int32_t>(outgoing[k].size());
    if (!outgoing[k].empty()) {
      std::memcpy(buf.data() + sizeof(MigHead), outgoing[k].data(),
                  outgoing[k].size() * sizeof(Atom));
    }
    s_->patches->invoke(nbrs[k], kMethodMigrants, buf.data(),
                        static_cast<std::uint32_t>(buf.size()));
  }
}

void Patch::try_finish() {
  if (!computed_) return;
  const int needed =
      static_cast<int>(s_->neighbors[static_cast<std::size_t>(index())].size());
  auto it = migrants_.find(step_);
  int have = it == migrants_.end() ? 0 : it->second.first;
  if (have < needed) return;
  if (it != migrants_.end()) {
    for (const Atom& a : it->second.second) atoms_.push_back(a);
    migrants_.erase(it);
  }
  // Step complete: report energy and either advance or stop.
  s_->patch_done_step(converse::CmiMyPe(), step_, pending_energy_);
  computed_ = false;
  ++step_;
  if (step_ < s_->cfg.steps) begin_step();
}

void Shared::patch_done_step(int pe, int step, double energy) {
  auto& slot = pe_round[static_cast<std::size_t>(pe)][step];
  slot.first += 1;
  slot.second += energy;
  if (slot.first < pe_patches[static_cast<std::size_t>(pe)]) return;
  double total = slot.second;
  pe_round[static_cast<std::size_t>(pe)].erase(step);
  charm->contribute_d(energy_red, total);
}

}  // namespace

MdResult run_minimd(const converse::MachineOptions& options,
                    const MdConfig& config) {
  auto machine = lrts::make_machine(options.layer, options);
  charm::Charm charm(*machine);

  Shared shared;
  shared.cfg = config;
  shared.machine = machine.get();
  shared.charm = &charm;
  shared.npatches =
      config.patches_x * config.patches_y * config.patches_z;
  assert(options.pes <= shared.npatches &&
         "minimd needs at least one patch per PE");
  shared.box = Vec3{config.patches_x * config.patch_len,
                    config.patches_y * config.patch_len,
                    config.patches_z * config.patch_len};

  // Deduplicated 26-neighborhood (wraps can alias on tiny grids).
  shared.neighbors.resize(static_cast<std::size_t>(shared.npatches));
  for (int idx = 0; idx < shared.npatches; ++idx) {
    int ix = idx % config.patches_x;
    int iy = (idx / config.patches_x) % config.patches_y;
    int iz = idx / (config.patches_x * config.patches_y);
    std::set<int> uniq;
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dz = -1; dz <= 1; ++dz) {
          int nx = (ix + dx + config.patches_x) % config.patches_x;
          int ny = (iy + dy + config.patches_y) % config.patches_y;
          int nz = (iz + dz + config.patches_z) % config.patches_z;
          int n = nx + config.patches_x * (ny + config.patches_y * nz);
          if (n != idx) uniq.insert(n);
        }
      }
    }
    shared.neighbors[static_cast<std::size_t>(idx)]
        .assign(uniq.begin(), uniq.end());
  }

  charm::ArrayManager patches(charm, shared.npatches, [&](int idx) {
    return std::make_unique<Patch>(shared, idx);
  });
  shared.patches = &patches;

  shared.pe_patches.assign(static_cast<std::size_t>(options.pes), 0);
  for (int i = 0; i < shared.npatches; ++i) {
    shared.pe_patches[static_cast<std::size_t>(patches.location_of(i))]++;
  }
  for (int pe = 0; pe < options.pes; ++pe) {
    assert(shared.pe_patches[static_cast<std::size_t>(pe)] > 0);
  }
  shared.pe_round.resize(static_cast<std::size_t>(options.pes));

  SimTime t_end = 0;
  shared.energy_red = charm.register_reduction_sum_d([&](double total) {
    shared.result.energy.push_back(total);
    if (!shared.have_e0) {
      shared.e0 = total;
      shared.have_e0 = true;
    } else if (shared.e0 != 0) {
      double drift = std::abs(total - shared.e0) / std::abs(shared.e0);
      shared.result.max_energy_drift =
          std::max(shared.result.max_energy_drift, drift);
    }
    t_end = machine->current_pe().ctx().now();
  });

  machine->start(0, [&] {
    shared.t_start = machine->current_pe().ctx().now();
    // Kick off step 0 on every patch, on its home PE.
    patches.invoke_all(kMethodStart, nullptr, 0);
  });
  machine->run();

  MdResult result = std::move(shared.result);
  result.steps = config.steps;
  result.elapsed = t_end - shared.t_start;
  result.per_step =
      config.steps > 0 ? result.elapsed / config.steps : 0;
  // Total momentum from final atom states.
  for (int i = 0; i < shared.npatches; ++i) {
    for (const Atom& a : static_cast<Patch*>(patches.element(i))->atoms_) {
      result.total_momentum.x += a.vel.x;
      result.total_momentum.y += a.vel.y;
      result.total_momentum.z += a.vel.z;
    }
  }
  return result;
}

}  // namespace ugnirt::apps::minimd
