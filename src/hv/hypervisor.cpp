#include "hv/hypervisor.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace vprobe::hv {
namespace {

/// Xen 4.0.1 Credit timeslice: every scheduler runs its pick for one slice.
constexpr sim::Time kSlice = sim::Time::ms(30);
/// Direct cost of one context switch, charged to the switching PCPU.
constexpr sim::Time kContextSwitchCost = sim::Time::us(2);
/// Perfctr-Xen counter save/restore cost, charged per context switch
/// (Section IV-B: counters are updated before each VCPU switch).
constexpr sim::Time kPmuSaveRestoreCost = sim::Time::ns(400);

}  // namespace

Hypervisor::Hypervisor(Config config, std::unique_ptr<Scheduler> scheduler)
    : Hypervisor(std::move(config), std::move(scheduler), nullptr) {}

Hypervisor::Hypervisor(Config config, std::unique_ptr<Scheduler> scheduler,
                       sim::Engine& shared_engine)
    : Hypervisor(std::move(config), std::move(scheduler), &shared_engine) {}

Hypervisor::Hypervisor(Config config, std::unique_ptr<Scheduler> scheduler,
                       sim::Engine* shared)
    : config_(config),
      owned_engine_(shared != nullptr ? nullptr : std::make_unique<sim::Engine>()),
      engine_(shared != nullptr ? *shared : *owned_engine_),
      rng_(config.seed),
      topology_(config.machine),
      memory_manager_(config.machine),
      machine_state_(config.machine),
      cost_model_(config_.machine, machine_state_),
      scheduler_(std::move(scheduler)),
      occupied_pcpus_(topology_.num_pcpus()) {
  if (!scheduler_) throw std::invalid_argument("Hypervisor: scheduler is null");
  machine_state_.set_decay_caches(config_.rate_cache);
  pcpus_.resize(static_cast<std::size_t>(topology_.num_pcpus()));
  for (int p = 0; p < topology_.num_pcpus(); ++p) {
    Pcpu& pcpu = pcpus_[static_cast<std::size_t>(p)];
    pcpu.id = p;
    pcpu.node = topology_.node_of(p);
    pcpu.queue.bind_occupancy(occupied_pcpus_, p);
  }
  scheduler_->attach(*this);
}

Hypervisor::~Hypervisor() {
  if (owned_engine_ != nullptr) {
    // Events may hold references into pcpus/domains; drop them first.
    engine_.clear();
    return;
  }
  // Shared engine: other hosts' events must survive, so cancel only the
  // handles this host owns.  A queued tickle batch (arm_tickle) captures raw
  // PCPU pointers and has no handle here — the fleet owner is required to
  // Engine::clear() before destroying any host (Cluster's destructor does).
  for (sim::EventHandle& timer : tick_timers_) timer.cancel();
  accounting_timer_.cancel();
  for (Pcpu& p : pcpus_) p.segment_event.cancel();
  for (const auto& dom : domains_) {
    for (std::size_t i = 0; i < dom->num_vcpus(); ++i) {
      dom->vcpu(i).wake_timer.cancel();
    }
  }
}

Domain& Hypervisor::create_domain(const std::string& name,
                                  std::int64_t mem_bytes, int num_vcpus,
                                  numa::PlacementPolicy policy,
                                  numa::NodeId preferred_node) {
  if (num_vcpus < 1) throw std::invalid_argument("create_domain: num_vcpus < 1");
  auto memory = std::make_unique<numa::VmMemory>(
      memory_manager_, config_.machine, mem_bytes, policy, preferred_node);
  domains_.push_back(
      std::make_unique<Domain>(next_domain_id_++, name, std::move(memory)));
  Domain& dom = *domains_.back();
  // Boot placement mirrors Xen 4.0.1: VCPUs land round-robin over ALL
  // PCPUs with no regard for where the domain's memory was allocated — the
  // NUMA-obliviousness Section II-B blames for Figure 1.  The per-domain
  // offset is random: where a real domain's VCPUs come up depends on what
  // dom0 and earlier domains were doing at boot.
  const auto boot_base =
      static_cast<int>(rng_.uniform_int(0, topology_.num_pcpus() - 1));
  for (int i = 0; i < num_vcpus; ++i) {
    Vcpu& v = dom.add_vcpu(next_vcpu_id_++);
    v.pcpu = static_cast<numa::PcpuId>((boot_base + i) % topology_.num_pcpus());
    all_vcpus_.push_back(&v);
    scheduler_->vcpu_created(v);
  }
  (void)preferred_node;  // only steers the memory placement policy
  if (observer_ != nullptr) observer_->on_domain_created(*this, dom);
  return dom;
}

Domain* Hypervisor::find_domain(int domain_id) {
  for (const auto& d : domains_) {
    if (d->id() == domain_id) return d.get();
  }
  return nullptr;
}

Pcpu* Hypervisor::host_of(const Vcpu& vcpu) {
  for (Pcpu& p : pcpus_) {
    if (p.current == &vcpu) return &p;
  }
  return nullptr;
}

void Hypervisor::retire_vcpu(Vcpu& v) {
  switch (v.state) {
    case VcpuState::kRunning: {
      Pcpu* host = host_of(v);
      assert(host != nullptr && "Running VCPU with no hosting PCPU");
      // The partial segment's wall time is accounted (busy_time, PMU,
      // contention occupancy released), but the guest is being killed
      // mid-flight: its workload does not advance and any outcome it would
      // have produced is discarded.
      settle_segment(*host);
      host->current = nullptr;
      emit(trace::EventKind::kSwitchOut, v.id(), host->id, 2);
      // Refill the PCPU asynchronously: during destroy_domain() the rest of
      // the domain is still being torn down, and a synchronous reschedule
      // could hand the PCPU a sibling VCPU this loop retires next.
      poke(*host);
      break;
    }
    case VcpuState::kRunnable:
      if (v.in_runqueue) pcpu(v.pcpu).queue.remove(v);
      break;
    case VcpuState::kBlocked:
    case VcpuState::kPaused:
    case VcpuState::kDone:
      break;
  }
  v.wake_timer.cancel();
  v.wake_pending = false;
  v.state = VcpuState::kDone;
  scheduler_->vcpu_retired(v);
  memory_map_.unregister_vcpu(v.id());
  emit(trace::EventKind::kRetire, v.id(), v.pcpu);
  std::erase(all_vcpus_, &v);
}

void Hypervisor::destroy_domain(Domain& dom) {
  const auto it = std::find_if(
      domains_.begin(), domains_.end(),
      [&](const std::unique_ptr<Domain>& d) { return d.get() == &dom; });
  if (it == domains_.end()) {
    throw std::invalid_argument("destroy_domain: domain not owned by this hypervisor");
  }
  if (observer_ != nullptr) observer_->before_domain_destroy(*this, dom);
  for (std::size_t i = 0; i < dom.num_vcpus(); ++i) retire_vcpu(dom.vcpu(i));
  emit(trace::EventKind::kDomainDestroy, -1, -1, dom.id());
  // Erasing the owning pointer frees the VCPUs and the VmMemory — the
  // VmMemory destructor releases every homed chunk back to its node pool.
  domains_.erase(it);
  if (observer_ != nullptr) observer_->after_domain_destroy(*this);
}

void Hypervisor::destroy_domain(int domain_id) {
  Domain* dom = find_domain(domain_id);
  if (dom == nullptr) {
    throw std::invalid_argument("destroy_domain: unknown domain id " +
                                std::to_string(domain_id));
  }
  destroy_domain(*dom);
}

void Hypervisor::pause_vcpu(Vcpu& v) {
  switch (v.state) {
    case VcpuState::kRunning: {
      Pcpu* host = host_of(v);
      assert(host != nullptr && "Running VCPU with no hosting PCPU");
      const double instrs = settle_segment(*host);
      // Unlike retirement, the guest survives: its workload advances over
      // the settled segment, and the outcome is folded into the paused
      // state so resume replays it faithfully.
      Outcome out = v.work()->advance(instrs, engine_.now());
      host->current = nullptr;
      emit(trace::EventKind::kSwitchOut, v.id(), host->id, 2);
      scheduler_->vcpu_sleep(v);
      switch (out.kind) {
        case OutcomeKind::kFinished:
          v.state = VcpuState::kDone;
          emit(trace::EventKind::kFinish, v.id(), host->id);
          break;
        case OutcomeKind::kContinue:
          v.state = VcpuState::kPaused;
          v.wake_pending = true;  // it still had work; resume requeues it
          break;
        case OutcomeKind::kBlockTimed: {
          v.state = VcpuState::kPaused;
          v.wake_pending = false;
          Vcpu* vp = &v;
          v.wake_timer = engine_.schedule(out.wake_after, [this, vp] { wake(*vp); });
          break;
        }
        case OutcomeKind::kBlockUntilWake:
          v.state = VcpuState::kPaused;
          v.wake_pending = false;
          break;
      }
      poke(*host);
      break;
    }
    case VcpuState::kRunnable:
      if (v.in_runqueue) pcpu(v.pcpu).queue.remove(v);
      v.state = VcpuState::kPaused;
      v.wake_pending = true;  // it was ready to run; resume makes it so again
      scheduler_->vcpu_sleep(v);
      break;
    case VcpuState::kBlocked:
      v.state = VcpuState::kPaused;
      v.wake_pending = false;  // a wake arriving later sets it
      break;
    case VcpuState::kPaused:
    case VcpuState::kDone:
      return;  // nothing to do, and no kPause event either
  }
  if (v.state == VcpuState::kPaused) {
    emit(trace::EventKind::kPause, v.id(), v.pcpu);
  }
}

void Hypervisor::resume_vcpu(Vcpu& v) {
  if (v.state != VcpuState::kPaused) return;
  v.state = VcpuState::kBlocked;
  emit(trace::EventKind::kResume, v.id(), v.pcpu);
  if (v.wake_pending) {
    v.wake_pending = false;
    wake(v);
  }
}

void Hypervisor::pause_domain(Domain& dom) {
  for (std::size_t i = 0; i < dom.num_vcpus(); ++i) pause_vcpu(dom.vcpu(i));
}

void Hypervisor::resume_domain(Domain& dom) {
  for (std::size_t i = 0; i < dom.num_vcpus(); ++i) resume_vcpu(dom.vcpu(i));
}

void Hypervisor::start() {
  // Per-PCPU tick timers with staggered phases, like Xen's per-CPU
  // periodic timers.  The stagger matters: synchronized ticks would flip
  // every VCPU's credit priority in lockstep and the fairness steal
  // (UNDER work pulled toward OVER heads) would never find asymmetry.
  tick_timers_.reserve(pcpus_.size());
  for (auto& p : pcpus_) {
    Pcpu* pp = &p;
    const sim::Time phase =
        (kTickPeriod * pp->id) / static_cast<std::int64_t>(pcpus_.size());
    // First-class periodic timer with an explicit first firing: the engine
    // re-arms the same event slot in place, so a tick costs no allocation
    // and no bootstrap wrapper event.  The re-arm draws its sequence number
    // right after on_tick() returns — the same position in the sequence
    // stream as the old schedule-then-rearm chain, keeping golden traces
    // bit-identical.
    tick_timers_.push_back(engine_.schedule_periodic_at(
        engine_.now() + phase, kTickPeriod,
        [this, pp] { on_tick(*pp); }));
  }
  accounting_timer_ =
      engine_.schedule_periodic(kAccountingPeriod, [this] { on_accounting(); });
}

void Hypervisor::on_tick(Pcpu& p) {
  scheduler_->tick(p);
  if (observer_ != nullptr) observer_->after_tick(*this, p);
  if (p.busy()) {
    // Preempt when a queued VCPU now outranks the running one (e.g. the
    // running VCPU just went OVER, or a BOOST is waiting).
    const Vcpu* head = p.queue.front();
    if (head != nullptr &&
        static_cast<int>(head->priority) < static_cast<int>(p.current->priority)) {
      request_preempt(p);
    }
  } else {
    poke(p);  // idle PCPUs periodically retry stealing, like Xen's ticker
  }
}

void Hypervisor::on_accounting() {
  if (observer_ != nullptr) observer_->before_accounting(*this);
  scheduler_->accounting();
  if (observer_ != nullptr) observer_->after_accounting(*this);
}

void Hypervisor::wake(Vcpu& vcpu) {
  if (vcpu.state == VcpuState::kPaused) {
    // Latch the wake (timed wakes keep firing against paused VCPUs, and
    // guest events don't stop arriving); resume_domain() replays it.
    vcpu.wake_pending = true;
    return;
  }
  if (vcpu.state != VcpuState::kBlocked) return;
  // A VCPU pinned after it last ran must wake inside its mask.
  if (!vcpu.allowed_on(vcpu.pcpu)) {
    for (int p = 0; p < topology_.num_pcpus(); ++p) {
      if (vcpu.allowed_on(p)) {
        vcpu.pcpu = static_cast<numa::PcpuId>(p);
        break;
      }
    }
  }
  vcpu.state = VcpuState::kRunnable;
  ++vcpu.wakeups;
  emit(trace::EventKind::kWake, vcpu.id(), vcpu.pcpu);
  scheduler_->vcpu_wake(vcpu);
  tickle_after_wake(vcpu);
}

namespace {

/// One tickle batch under construction: a list through Pcpu::poke_next.  A
/// PCPU already waiting in a queued batch is skipped; its pending turn will
/// reschedule it.
struct PokeBatch {
  Pcpu* head = nullptr;
  Pcpu* tail = nullptr;

  void add(Pcpu& p) {
    if (p.poke_pending) return;
    p.poke_pending = true;
    (tail != nullptr ? tail->poke_next : head) = &p;
    tail = &p;
  }
};

}  // namespace

void Hypervisor::tickle_after_wake(Vcpu& vcpu) {
  Pcpu& target = pcpu(vcpu.pcpu);
  Pcpu* preempt = nullptr;
  PokeBatch batch;
  if (target.idle()) {
    batch.add(target);
  } else if (static_cast<int>(vcpu.priority) <
             static_cast<int>(target.current->priority)) {
    preempt = &target;
  }
  // Idle peers may steal the new arrival (Xen tickles the idler mask).
  // Pokes run local-node first: the tickle IPI to a same-socket idler lands
  // and reschedules before a cross-socket one, so local idlers win the race
  // for the new arrival on real hardware too.
  for (auto& p : pcpus_) {
    if (p.idle() && p.id != target.id && p.node == target.node) batch.add(p);
  }
  for (auto& p : pcpus_) {
    if (p.idle() && p.id != target.id && p.node != target.node) batch.add(p);
  }
  // The whole tickle is one engine event.  Armed one event per PCPU, these
  // bodies would hold contiguous sequence numbers at the same time, so no
  // other event could fire between them and everything they schedule would
  // fire after the last one: running them back to back in a single event
  // is the same order (docs/ENGINE.md, "Determinism contract").
  arm_tickle(preempt, batch.head);
}

void Hypervisor::poke(Pcpu& p) {
  PokeBatch batch;
  batch.add(p);
  arm_tickle(nullptr, batch.head);
}

void Hypervisor::request_preempt(Pcpu& p) {
  if (p.busy()) arm_tickle(&p, nullptr);
}

void Hypervisor::arm_tickle(Pcpu* preempt, Pcpu* head) {
  if (preempt == nullptr && head == nullptr) return;
  engine_.schedule(sim::Time::zero(), [this, preempt, head] {
    if (preempt != nullptr && preempt->busy()) {
      end_segment(*preempt, /*force_requeue=*/true);
    }
    for (Pcpu* p = head; p != nullptr;) {
      // Unlink first: once its flag clears, this PCPU may join a new batch.
      Pcpu* next = p->poke_next;
      p->poke_next = nullptr;
      p->poke_pending = false;
      if (p->idle()) schedule_pcpu(*p);
      p = next;
    }
  });
}

void Hypervisor::charge_overhead(OverheadBucket bucket, sim::Time cost,
                                 Pcpu* where) {
  ledger_.record(bucket, cost);
  if (where != nullptr) where->pending_stall += cost;
}

Pcpu& Hypervisor::least_loaded_pcpu(numa::NodeId node) {
  Pcpu* best = nullptr;
  int best_load = 0;
  for (numa::PcpuId pid : topology_.pcpus_of(node)) {
    Pcpu& p = pcpu(pid);
    const int load = p.workload() + (p.busy() ? 1 : 0);
    if (best == nullptr || load < best_load) {
      best = &p;
      best_load = load;
    }
  }
  assert(best != nullptr);
  return *best;
}

void Hypervisor::migrate_to_node(Vcpu& vcpu, numa::NodeId node) {
  if (!topology_.valid_node(node)) {
    throw std::invalid_argument("migrate_to_node: bad node");
  }
  // Hard affinity: pick the least-loaded *allowed* PCPU; a fully pinned
  // VCPU simply cannot be moved off its mask.
  Pcpu* target_ptr = nullptr;
  int target_load = 0;
  for (numa::PcpuId pid : topology_.pcpus_of(node)) {
    if (!vcpu.allowed_on(pid)) continue;
    Pcpu& p = pcpu(pid);
    const int load = p.workload() + (p.busy() ? 1 : 0);
    if (target_ptr == nullptr || load < target_load) {
      target_ptr = &p;
      target_load = load;
    }
  }
  if (target_ptr == nullptr) return;  // no allowed PCPU on that node
  Pcpu& target = *target_ptr;
  switch (vcpu.state) {
    case VcpuState::kRunning: {
      Pcpu& host = pcpu(vcpu.pcpu);
      vcpu.pcpu = target.id;  // requeue_preempted() will use this
      request_preempt(host);
      break;
    }
    case VcpuState::kRunnable: {
      if (vcpu.in_runqueue) {
        pcpu(vcpu.pcpu).queue.remove(vcpu);
      }
      vcpu.pcpu = target.id;
      target.queue.insert(vcpu);
      if (target.idle()) poke(target);
      break;
    }
    case VcpuState::kBlocked:
    case VcpuState::kPaused:
    case VcpuState::kDone:
      vcpu.pcpu = target.id;  // it will wake there
      break;
  }
}

void Hypervisor::schedule_pcpu(Pcpu& p) {
  if (p.busy()) return;
  Decision d = scheduler_->do_schedule(p);
  if (d.vcpu == nullptr) {
    p.idle_since = engine_.now();
    return;
  }
  assert(d.vcpu->state == VcpuState::kRunnable);
  assert(!d.vcpu->in_runqueue);
  start_running(p, *d.vcpu);
}

void Hypervisor::start_running(Pcpu& p, Vcpu& v) {
  // Migration bookkeeping: compare against where the VCPU last *ran*.
  if (v.last_ran_pcpu != numa::kInvalidPcpu && v.last_ran_pcpu != p.id) {
    const bool cross = topology_.node_of(v.last_ran_pcpu) != p.node;
    v.warmth.on_migration(cross);
    ++v.migrations;
    if (cross) ++v.cross_node_migrations;
    emit(trace::EventKind::kMigration, v.id(), p.id, v.last_ran_pcpu);
  }
  emit(trace::EventKind::kSwitchIn, v.id(), p.id);
  v.pcpu = p.id;
  v.last_ran_pcpu = p.id;
  v.state = VcpuState::kRunning;
  p.current = &v;
  ++p.context_switches;
  charge_overhead(OverheadBucket::kContextSwitch, kContextSwitchCost, &p);
  // Perfctr-Xen: a running VCPU's counters are saved/restored around each
  // context switch (Section IV-B).
  v.pmu.record_save_restore();
  charge_overhead(OverheadBucket::kPmuCollection, kPmuSaveRestoreCost, &p);
  p.slice_end = engine_.now() + kSlice;
  start_segment(p);
}

void Hypervisor::start_segment(Pcpu& p) {
  Vcpu& v = *p.current;
  assert(v.work() != nullptr && "VCPU scheduled without bound work");
  const sim::Time now = engine_.now();

  p.burst = v.work()->next_burst(now);
  // Stabilise the node-fraction span: copy into the PCPU-owned buffer so
  // placement changes mid-segment cannot invalidate it.
  p.frac_copy.fill(0.0);
  auto& frac = p.burst.profile.node_fractions;
  std::copy_n(frac.begin(), std::min(frac.size(), p.frac_copy.size()),
              p.frac_copy.begin());
  frac = std::span<const double>(p.frac_copy.data(), p.frac_copy.size());
  const BurstPlan& plan = p.burst;

  machine_state_.occupant_in(p.node, static_cast<std::uint64_t>(v.id()),
                             plan.profile.working_set_bytes);

  // Slice-clamp fast path: ns_per_instr can never be below base_cpi/clock
  // (every other cost term is non-negative), so when even at that floor the
  // burst overruns the slice, the predicted end is the slice end for ANY
  // actual rate — same seg_end, rate evaluation skipped.  CPU-bound guests
  // spend nearly all their segments here.  The settlement recomputes the
  // rates it needs either way, so results are bit-identical.
  sim::Time seg_end;
  const double floor_ns = plan.instructions * cost_model_.min_ns_per_instr();
  const sim::Time floor_end = now + p.pending_stall +
                              sim::Time::ns(static_cast<std::int64_t>(
                                  std::min(floor_ns, 9.0e15) + 1.0));
  if (config_.rate_cache && floor_end >= p.slice_end) {
    // Every caller guarantees a future slice end (start_running uses a
    // positive slice; end_segment only continues while now < slice_end), so
    // the clamp cannot schedule the segment event in the past.
    assert(p.slice_end > now && "slice-clamp fast path needs a future slice end");
    seg_end = p.slice_end;
  } else {
    const double nspi = cost_model_.ns_per_instr(
        plan.profile, p.node, v.warmth.extra_miss_rate(), now);
    const double burst_ns = plan.instructions * nspi;
    seg_end = now + p.pending_stall +
              sim::Time::ns(static_cast<std::int64_t>(
                  std::min(burst_ns, 9.0e15) + 1.0));
    if (seg_end > p.slice_end) seg_end = p.slice_end;
    if (seg_end <= now) seg_end = now + sim::Time::ns(1);
  }

  p.segment_start = now;
  p.segment_event = engine_.schedule_at(
      seg_end, [this, &p] { end_segment(p, /*force_requeue=*/false); });
}

double Hypervisor::settle_segment(Pcpu& p) {
  Vcpu& v = *p.current;
  p.segment_event.cancel();
  const sim::Time now = engine_.now();
  const sim::Time elapsed = now - p.segment_start;

  // Hypervisor stalls eat into guest execution time.
  const sim::Time stall_used = std::min(p.pending_stall, elapsed);
  p.pending_stall -= stall_used;
  const sim::Time work_time = elapsed - stall_used;

  // Settlement recomputes rates at the segment's *start* time — the same
  // `now` the prediction in start_segment used.
  perf::ExecResult res = cost_model_.run(
      p.burst.profile, p.node, v.warmth.extra_miss_rate(),
      p.burst.instructions, work_time, p.segment_start);
  v.pmu.add(res.counters);
  v.warmth.on_executed(res.instructions);
  v.cpu_time += res.elapsed;
  p.busy_time += elapsed;

  machine_state_.occupant_out(p.node, static_cast<std::uint64_t>(v.id()));
  return res.instructions;
}

void Hypervisor::end_segment(Pcpu& p, bool force_requeue) {
  Vcpu& v = *p.current;
  const double instructions = settle_segment(p);
  const sim::Time now = engine_.now();

  Outcome out = v.work()->advance(instructions, now);

  // Same VCPU keeps the CPU: more work, slice not expired, not preempted.
  if (out.kind == OutcomeKind::kContinue && !force_requeue &&
      now < p.slice_end) {
    start_segment(p);
    return;
  }

  p.current = nullptr;
  emit(trace::EventKind::kSwitchOut, v.id(), p.id, force_requeue ? 1 : 0);
  switch (out.kind) {
    case OutcomeKind::kContinue:
      v.state = VcpuState::kRunnable;
      scheduler_->requeue_preempted(v);
      break;
    case OutcomeKind::kBlockTimed: {
      v.state = VcpuState::kBlocked;
      scheduler_->vcpu_sleep(v);
      emit(trace::EventKind::kBlock, v.id(), p.id);
      Vcpu* vp = &v;
      v.wake_timer = engine_.schedule(out.wake_after, [this, vp] { wake(*vp); });
      break;
    }
    case OutcomeKind::kBlockUntilWake:
      v.state = VcpuState::kBlocked;
      scheduler_->vcpu_sleep(v);
      emit(trace::EventKind::kBlock, v.id(), p.id);
      break;
    case OutcomeKind::kFinished:
      v.state = VcpuState::kDone;
      scheduler_->vcpu_sleep(v);
      emit(trace::EventKind::kFinish, v.id(), p.id);
      break;
  }
  schedule_pcpu(p);
}

sim::Time Hypervisor::total_busy_time() const {
  sim::Time t = sim::Time::zero();
  for (const auto& p : pcpus_) t += p.busy_time;
  return t;
}

std::uint64_t Hypervisor::total_migrations() const {
  std::uint64_t n = 0;
  for (const Vcpu* v : all_vcpus_) n += v->migrations;
  return n;
}

std::uint64_t Hypervisor::total_cross_node_migrations() const {
  std::uint64_t n = 0;
  for (const Vcpu* v : all_vcpus_) n += v->cross_node_migrations;
  return n;
}

}  // namespace vprobe::hv
