#include "charm/charm.hpp"

#include <cassert>
#include <cstring>

namespace ugnirt::charm {

using converse::CmiAlloc;
using converse::CmiFree;
using converse::CmiMyPe;
using converse::CmiSetHandler;
using converse::CmiSyncSendAndFree;
using converse::header_of;
using converse::kCmiHeaderBytes;
using converse::kMsgFlagSystem;
using converse::Machine;
using converse::msg_payload;
using converse::payload_of;
using converse::read_payload;

namespace {

struct TaskHead {
  std::int32_t task_id;
  std::uint32_t bytes;
  // payload follows
};

struct RedMsg {
  std::int32_t red_id;
  std::uint64_t round;
  std::uint64_t vu;
  double vd;
};

struct QdWaveMsg {
  std::uint64_t round;
};

struct QdReportMsg {
  std::uint64_t round;
  std::uint64_t created;
  std::uint64_t processed;
  std::int32_t reports;  // how many PEs this partial covers
};

}  // namespace

Charm::Charm(converse::Machine& machine) : machine_(&machine) {
  task_handler_ = machine_->register_handler([this](void* msg) {
    const auto head = read_payload<TaskHead>(msg);
    assert(head.task_id >= 0 &&
           head.task_id < static_cast<int>(tasks_.size()));
    const void* payload =
        static_cast<const std::uint8_t*>(payload_of(msg)) + sizeof(TaskHead);
    tasks_[static_cast<std::size_t>(head.task_id)](payload, head.bytes);
    CmiFree(msg);
  });

  reduction_handler_ = machine_->register_handler([this](void* msg) {
    const auto rm = read_payload<RedMsg>(msg);
    reduction_arrive(rm.red_id, CmiMyPe(), rm.round, rm.vu, rm.vd);
    CmiFree(msg);
  });

  qd_wave_handler_ = machine_->register_handler([this](void* msg) {
    const auto wm = read_payload<QdWaveMsg>(msg);
    int pe = CmiMyPe();
    QdPeRound& s = qd_slot(pe, wm.round);
    s.wave_seen = true;
    s.created += machine_->qd_created(pe);
    s.processed += machine_->qd_processed(pe);
    s.reports += 1;
    CmiFree(msg);
    qd_try_forward(pe);
  });

  qd_report_handler_ = machine_->register_handler([this](void* msg) {
    const auto rm = read_payload<QdReportMsg>(msg);
    int pe = CmiMyPe();
    QdPeRound& s = qd_slot(pe, rm.round);
    s.created += rm.created;
    s.processed += rm.processed;
    s.reports += rm.reports;
    CmiFree(msg);
    qd_try_forward(pe);
  });
}

// ---------------------------------------------------------------------------
// Tasks
// ---------------------------------------------------------------------------

int Charm::register_task(TaskFn fn) {
  tasks_.push_back(std::move(fn));
  return static_cast<int>(tasks_.size()) - 1;
}

void Charm::seed_task_to(int pe, int task_id, const void* payload,
                         std::uint32_t bytes) {
  std::uint32_t total = static_cast<std::uint32_t>(
      kCmiHeaderBytes + sizeof(TaskHead) + bytes);
  void* msg = CmiAlloc(total);
  auto* head = msg_payload<TaskHead>(msg);
  head->task_id = task_id;
  head->bytes = bytes;
  if (bytes) {
    std::memcpy(reinterpret_cast<std::uint8_t*>(head) + sizeof(TaskHead),
                payload, bytes);
  }
  CmiSetHandler(msg, task_handler_);
  CmiSyncSendAndFree(pe, total, msg);
}

void Charm::seed_task(int task_id, const void* payload, std::uint32_t bytes) {
  // The random seed balancer: "After a new task is dynamically created, it
  // is randomly assigned to a processor" (paper §V-C).
  converse::Pe& pe = machine_->current_pe();
  int dest = static_cast<int>(
      pe.rng().next_below(static_cast<std::uint32_t>(machine_->num_pes())));
  seed_task_to(dest, task_id, payload, bytes);
}

// ---------------------------------------------------------------------------
// Reductions (k-ary tree rooted at PE 0)
// ---------------------------------------------------------------------------

int Charm::register_reduction_sum(ReductionCb at_root) {
  Reduction r;
  r.cb_u64 = std::move(at_root);
  r.state.resize(static_cast<std::size_t>(machine_->num_pes()));
  r.next_round.assign(static_cast<std::size_t>(machine_->num_pes()), 0);
  reductions_.push_back(std::move(r));
  return static_cast<int>(reductions_.size()) - 1;
}

int Charm::register_reduction_sum_d(ReductionCbD at_root) {
  Reduction r;
  r.cb_d = std::move(at_root);
  r.is_double = true;
  r.state.resize(static_cast<std::size_t>(machine_->num_pes()));
  r.next_round.assign(static_cast<std::size_t>(machine_->num_pes()), 0);
  reductions_.push_back(std::move(r));
  return static_cast<int>(reductions_.size()) - 1;
}

int Charm::expected_contributions(int pe) const {
  std::vector<int> children;
  machine_->tree_children(pe, children);
  return 1 + static_cast<int>(children.size());
}

void Charm::contribute(int red_id, std::uint64_t value) {
  int pe = CmiMyPe();
  // A contribution is a sync point: ship any coalesced stragglers now so
  // an aggregation buffer never gates the dependency chain behind the
  // reduction (no-op when aggregation is off).
  machine_->flush_aggregation();
  Reduction& r = reductions_[static_cast<std::size_t>(red_id)];
  std::uint64_t round = r.next_round[static_cast<std::size_t>(pe)]++;
  reduction_arrive(red_id, pe, round, value, 0.0);
}

void Charm::contribute_d(int red_id, double value) {
  int pe = CmiMyPe();
  machine_->flush_aggregation();
  Reduction& r = reductions_[static_cast<std::size_t>(red_id)];
  std::uint64_t round = r.next_round[static_cast<std::size_t>(pe)]++;
  reduction_arrive(red_id, pe, round, 0, value);
}

void Charm::reduction_arrive(int red_id, int pe, std::uint64_t round,
                             std::uint64_t vu, double vd) {
  Reduction& r = reductions_[static_cast<std::size_t>(red_id)];
  auto& rounds = r.state[static_cast<std::size_t>(pe)];
  if (rounds.size() <= round) rounds.resize(round + 1);
  Reduction::Round& slot = rounds[round];
  slot.acc_u64 += vu;
  slot.acc_d += vd;
  slot.contributions += 1;
  if (slot.contributions < expected_contributions(pe)) return;

  if (pe == 0) {
    if (r.is_double) {
      r.cb_d(slot.acc_d);
    } else {
      r.cb_u64(slot.acc_u64);
    }
    return;
  }
  // Forward the combined partial to the tree parent.
  int parent = machine_->tree_parent(pe);
  std::uint32_t total =
      static_cast<std::uint32_t>(kCmiHeaderBytes + sizeof(RedMsg));
  void* msg = CmiAlloc(total);
  auto* rm = msg_payload<RedMsg>(msg);
  rm->red_id = red_id;
  rm->round = round;
  rm->vu = slot.acc_u64;
  rm->vd = slot.acc_d;
  CmiSetHandler(msg, reduction_handler_);
  CmiSyncSendAndFree(parent, total, msg);
}

// ---------------------------------------------------------------------------
// Quiescence detection
// ---------------------------------------------------------------------------

void Charm::start_quiescence(std::function<void()> cb) {
  assert(!qd_active_ && "one quiescence detection at a time");
  qd_active_ = true;
  qd_cb_ = std::move(cb);
  qd_prev_created_ = ~0ull;
  qd_prev_processed_ = ~0ull;
  qd_waves_ = 0;
  qd_start_wave();
}

void Charm::qd_start_wave() {
  ++qd_round_;
  ++qd_waves_;
  // Broadcast the wave as a *system* message so QD traffic does not perturb
  // the counters it reads.
  std::uint32_t total =
      static_cast<std::uint32_t>(kCmiHeaderBytes + sizeof(QdWaveMsg));
  void* msg = CmiAlloc(total);
  header_of(msg)->flags |= kMsgFlagSystem;
  msg_payload<QdWaveMsg>(msg)->round = qd_round_;
  CmiSetHandler(msg, qd_wave_handler_);
  converse::CmiSyncBroadcastAllAndFree(total, msg);
}

Charm::QdPeRound& Charm::qd_slot(int pe, std::uint64_t round) {
  if (qd_pe_.size() < static_cast<std::size_t>(machine_->num_pes())) {
    qd_pe_.resize(static_cast<std::size_t>(machine_->num_pes()));
  }
  QdPeRound& s = qd_pe_[static_cast<std::size_t>(pe)];
  if (!s.valid || s.round != round) {
    s = QdPeRound{};
    s.round = round;
    s.valid = true;
  }
  return s;
}

void Charm::qd_try_forward(int pe) {
  QdPeRound& s = qd_pe_[static_cast<std::size_t>(pe)];
  if (!s.wave_seen) return;
  const std::uint64_t round = s.round;

  // A PE's subtree is complete when it has its own wave plus one partial
  // per child subtree; partials carry how many PEs they aggregate.
  std::vector<int> children;
  machine_->tree_children(pe, children);
  int subtree = 1;
  for (int c : children) {
    // Subtree sizes under a k-ary tree: count nodes rooted at c.
    int stack[64];
    int top = 0;
    stack[top++] = c;
    int count = 0;
    std::vector<int> kids;
    while (top) {
      int n = stack[--top];
      ++count;
      machine_->tree_children(n, kids);
      for (int k : kids) stack[top++] = k;
    }
    subtree += count;
  }
  if (s.reports < subtree) return;
  assert(s.reports == subtree);

  if (pe != 0) {
    int parent = machine_->tree_parent(pe);
    std::uint32_t total =
        static_cast<std::uint32_t>(kCmiHeaderBytes + sizeof(QdReportMsg));
    void* msg = CmiAlloc(total);
    header_of(msg)->flags |= kMsgFlagSystem;
    auto* rm = msg_payload<QdReportMsg>(msg);
    rm->round = round;
    rm->created = s.created;
    rm->processed = s.processed;
    rm->reports = s.reports;
    CmiSetHandler(msg, qd_report_handler_);
    CmiSyncSendAndFree(parent, total, msg);
    s.valid = false;  // round done at this PE
    return;
  }

  // Root: evaluate the wave.
  std::uint64_t created = s.created;
  std::uint64_t processed = s.processed;
  s.valid = false;
  if (created == processed && created == qd_prev_created_ &&
      processed == qd_prev_processed_) {
    qd_active_ = false;
    auto cb = std::move(qd_cb_);
    qd_cb_ = nullptr;
    cb();
    return;
  }
  qd_prev_created_ = created;
  qd_prev_processed_ = processed;
  // Let in-flight work drain a little before the next wave.
  converse::Pe& mype = machine_->current_pe();
  mype.ctx().charge(machine_->options().mc.sched_loop_ns);
  Machine* m = machine_;
  machine_->scheduler().schedule_at(
      mype.ctx().now() + 20'000, [this, m] {
    // Re-enter through a PE context: run the wave start as a step on PE 0.
    m->start(0, [this] { qd_start_wave(); });
  });
}

}  // namespace ugnirt::charm
