// jacobi3d: 7-point stencil relaxation over a chare array — the classic
// CHARM++ halo-exchange mini-app, here as a third application domain on
// the reproduced runtime.
//
// The domain is split into blocks; every iteration each block ships its
// six faces to its neighbors, applies the Jacobi update for real (doubles),
// and reports its residual to a controller that stops at convergence.
// Works identically on the uGNI, MPI, and SMP machine layers.
//
// Usage: ./jacobi3d [blocks_per_dim] [block_n] [pes] [ugni|mpi|smp]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "charm/array.hpp"
#include "charm/charm.hpp"
#include "lrts/runtime.hpp"

using namespace ugnirt;
using namespace ugnirt::converse;

namespace {

constexpr int kFaceXlo = 0, kFaceXhi = 1, kFaceYlo = 2, kFaceYhi = 3,
              kFaceZlo = 4, kFaceZhi = 5;
constexpr int kMethodFace = 1;

struct FaceHead {
  std::int32_t step;
  std::int32_t face;  // which of MY faces this fills
  std::int32_t count;
};

struct Controller;

struct Grid {
  int bdim = 2;  // blocks per dimension
  int n = 16;    // interior points per block per dimension
  charm::ArrayManager* blocks = nullptr;
  Controller* controller = nullptr;
  int done_handler = -1;
  /// Modeled cost per point update (virtual ns); the arithmetic also runs
  /// for real.
  SimTime ns_per_point = 6;
};

/// One block: (n+2)^3 with ghost shell.
class Block final : public charm::ArrayElement {
 public:
  Block(Grid& g, int idx) : g_(&g), idx_(idx) {
    const int n2 = g.n + 2;
    cur_.assign(static_cast<std::size_t>(n2 * n2 * n2), 0.0);
    next_ = cur_;
    // Boundary condition: the global x=0 plane is held at 1.0.
    int bx = idx % g.bdim;
    if (bx == 0) {
      for (int z = 0; z < n2; ++z) {
        for (int y = 0; y < n2; ++y) at(cur_, 0, y, z) = 1.0;
      }
    }
  }

  void begin_step(int step) {
    step_ = step;
    faces_ = 0;
    send_faces();
    // Replay faces that arrived before our step broadcast did (a neighbor
    // that saw the broadcast earlier may already have sent).
    std::vector<std::vector<std::uint8_t>> replay;
    replay.swap(early_faces_);
    for (const auto& buf : replay) {
      receive(kMethodFace, buf.data(), static_cast<std::uint32_t>(buf.size()));
    }
  }

  void receive(int method, const void* payload, std::uint32_t bytes) override;

  double residual() const { return residual_; }

 private:
  double& at(std::vector<double>& v, int x, int y, int z) {
    const int n2 = g_->n + 2;
    return v[static_cast<std::size_t>(x + n2 * (y + n2 * z))];
  }
  double at(const std::vector<double>& v, int x, int y, int z) const {
    const int n2 = g_->n + 2;
    return v[static_cast<std::size_t>(x + n2 * (y + n2 * z))];
  }

  int neighbor(int dx, int dy, int dz) const {
    int b = g_->bdim;
    int bx = idx_ % b, by = (idx_ / b) % b, bz = idx_ / (b * b);
    int nx = bx + dx, ny = by + dy, nz = bz + dz;
    if (nx < 0 || nx >= b || ny < 0 || ny >= b || nz < 0 || nz >= b) {
      return -1;  // physical boundary
    }
    return nx + b * (ny + b * nz);
  }

  void send_faces();
  void maybe_compute();

  Grid* g_;
  int idx_;
  std::uint32_t bytes_len(const FaceHead& head) const {
    return static_cast<std::uint32_t>(sizeof(FaceHead)) +
           static_cast<std::uint32_t>(head.count) * 8;
  }

  int step_ = -1;
  int faces_ = 0;
  int faces_needed_ = 0;
  double residual_ = 0;
  std::vector<std::vector<std::uint8_t>> early_faces_;
  std::vector<double> cur_, next_;
};

struct Controller {
  Grid* g = nullptr;
  converse::Machine* machine = nullptr;
  int dones = 0;
  int step = 0;
  int max_steps = 50;
  double tol = 1e-4;
  double residual = 0;
  int start_handler = -1;
  SimTime t0 = 0, t1 = 0;

  void broadcast_step() {
    void* msg = CmiAlloc(kCmiHeaderBytes + 8);
    CmiSetHandler(msg, start_handler);
    CmiSyncBroadcastAllAndFree(kCmiHeaderBytes + 8, msg);
  }

  void block_done(double local_residual) {
    residual = std::max(residual, local_residual);
    int nblocks = g->bdim * g->bdim * g->bdim;
    if (++dones < nblocks) return;
    dones = 0;
    ++step;
    std::printf("  step %3d  residual %.6f\n", step, residual);
    if (residual < tol || step >= max_steps) {
      t1 = machine->current_pe().ctx().now();
      return;
    }
    residual = 0;
    broadcast_step();
  }
};

void Block::send_faces() {
  const int n = g_->n;
  faces_needed_ = 0;
  struct Dir {
    int dx, dy, dz;
    int their_face;
  };
  const Dir dirs[6] = {{-1, 0, 0, kFaceXhi}, {1, 0, 0, kFaceXlo},
                       {0, -1, 0, kFaceYhi}, {0, 1, 0, kFaceYlo},
                       {0, 0, -1, kFaceZhi}, {0, 0, 1, kFaceZlo}};
  for (const Dir& d : dirs) {
    int nb = neighbor(d.dx, d.dy, d.dz);
    if (nb < 0) continue;
    ++faces_needed_;
    std::vector<std::uint8_t> buf(sizeof(FaceHead) +
                                  static_cast<std::size_t>(n) * n * 8);
    auto* head = reinterpret_cast<FaceHead*>(buf.data());
    head->step = step_;
    head->face = d.their_face;
    head->count = n * n;
    // Extract my boundary plane facing this neighbor.  The doubles follow
    // a 12-byte header, so they are copied, not stored in place.
    std::uint8_t* out = buf.data() + sizeof(FaceHead);
    for (int b2 = 1; b2 <= n; ++b2) {
      for (int b1 = 1; b1 <= n; ++b1) {
        double v = 0;
        if (d.dx != 0) v = at(cur_, d.dx < 0 ? 1 : n, b1, b2);
        if (d.dy != 0) v = at(cur_, b1, d.dy < 0 ? 1 : n, b2);
        if (d.dz != 0) v = at(cur_, b1, b2, d.dz < 0 ? 1 : n);
        std::memcpy(out + ((b2 - 1) * n + (b1 - 1)) * sizeof v, &v, sizeof v);
      }
    }
    g_->blocks->invoke(nb, kMethodFace, buf.data(),
                       static_cast<std::uint32_t>(buf.size()));
  }
  if (faces_needed_ == 0) maybe_compute();
}

void Block::receive(int method, const void* payload, std::uint32_t bytes) {
  (void)bytes;
  assert(method == kMethodFace);
  (void)method;
  FaceHead head;
  std::memcpy(&head, payload, sizeof(head));
  if (head.step == step_ + 1) {
    // Next-step face raced ahead of our step broadcast: hold it.
    const auto* bytes = static_cast<const std::uint8_t*>(payload);
    early_faces_.emplace_back(bytes, bytes + bytes_len(head));
    return;
  }
  assert(head.step == step_);
  const auto* in = static_cast<const std::uint8_t*>(payload) + sizeof(FaceHead);
  const int n = g_->n;
  for (int b2 = 1; b2 <= n; ++b2) {
    for (int b1 = 1; b1 <= n; ++b1) {
      double v = 0;
      std::memcpy(&v, in + ((b2 - 1) * n + (b1 - 1)) * sizeof v, sizeof v);
      switch (head.face) {
        case kFaceXlo: at(cur_, 0, b1, b2) = v; break;
        case kFaceXhi: at(cur_, n + 1, b1, b2) = v; break;
        case kFaceYlo: at(cur_, b1, 0, b2) = v; break;
        case kFaceYhi: at(cur_, b1, n + 1, b2) = v; break;
        case kFaceZlo: at(cur_, b1, b2, 0) = v; break;
        case kFaceZhi: at(cur_, b1, b2, n + 1) = v; break;
        default: assert(false);
      }
    }
  }
  ++faces_;
  maybe_compute();
}

void Block::maybe_compute() {
  if (faces_ < faces_needed_) return;
  const int n = g_->n;
  double maxdiff = 0;
  for (int z = 1; z <= n; ++z) {
    for (int y = 1; y <= n; ++y) {
      for (int x = 1; x <= n; ++x) {
        double v = (at(cur_, x - 1, y, z) + at(cur_, x + 1, y, z) +
                    at(cur_, x, y - 1, z) + at(cur_, x, y + 1, z) +
                    at(cur_, x, y, z - 1) + at(cur_, x, y, z + 1)) /
                   6.0;
        maxdiff = std::max(maxdiff, std::abs(v - at(cur_, x, y, z)));
        at(next_, x, y, z) = v;
      }
    }
  }
  std::swap(cur_, next_);
  CmiChargeWork(static_cast<SimTime>(n) * n * n * g_->ns_per_point);

  // Report to the controller on PE 0.
  std::uint32_t total = kCmiHeaderBytes + sizeof(double);
  void* msg = CmiAlloc(total);
  std::memcpy(payload_of(msg), &maxdiff, sizeof(double));
  CmiSetHandler(msg, g_->done_handler);
  CmiSyncSendAndFree(0, total, msg);
}

}  // namespace

int main(int argc, char** argv) {
  Grid grid;
  grid.bdim = argc > 1 ? std::atoi(argv[1]) : 3;
  grid.n = argc > 2 ? std::atoi(argv[2]) : 12;

  MachineOptions options;
  options.pes = argc > 3 ? std::atoi(argv[3]) : 8;
  if (argc > 4 && std::strcmp(argv[4], "mpi") == 0) {
    options.layer = LayerKind::kMpi;
  } else if (argc > 4 && std::strcmp(argv[4], "smp") == 0) {
    options.smp_mode = true;
  }
  const int nblocks = grid.bdim * grid.bdim * grid.bdim;
  if (options.pes > nblocks) options.pes = nblocks;

  auto machine = lrts::make_machine(options.layer, options);
  charm::Charm charm(*machine);
  charm::ArrayManager blocks(charm, nblocks, [&](int idx) {
    return std::make_unique<Block>(grid, idx);
  });
  grid.blocks = &blocks;

  Controller ctl;
  ctl.g = &grid;
  ctl.machine = machine.get();
  grid.controller = &ctl;

  grid.done_handler = machine->register_handler([&](void* msg) {
    double r;
    std::memcpy(&r, payload_of(msg), sizeof(r));
    CmiFree(msg);
    ctl.block_done(r);
  });
  ctl.start_handler = machine->register_handler([&](void* msg) {
    CmiFree(msg);
    int me = CmiMyPe();
    for (int b = 0; b < nblocks; ++b) {
      if (blocks.location_of(b) == me) {
        static_cast<Block*>(blocks.element(b))->begin_step(ctl.step);
      }
    }
  });

  std::printf("jacobi3d: %d^3 blocks of %d^3 points on %d PEs (%s layer)\n",
              grid.bdim, grid.n, options.pes,
              options.smp_mode ? "uGNI-SMP"
              : options.layer == LayerKind::kUgni ? "uGNI" : "MPI");
  machine->start(0, [&] {
    ctl.t0 = machine->current_pe().ctx().now();
    ctl.broadcast_step();
  });
  machine->run();

  std::printf("\n  %d iterations, final residual %.6f\n", ctl.step,
              ctl.residual);
  std::printf("  virtual time %.3f ms (%.1f us/iteration)\n",
              to_ms(ctl.t1 - ctl.t0),
              to_us((ctl.t1 - ctl.t0) / std::max(1, ctl.step)));
  return ctl.step > 0 ? 0 : 2;
}
