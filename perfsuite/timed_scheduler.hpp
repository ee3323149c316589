// TimedScheduler: a decorator that forwards every hv::Scheduler hook to the
// scheduler built by runner::make_scheduler and records, per hook, the call
// count and the host nanoseconds spent inside it.  It is how the traced run
// attributes host time to the scheduler layer from outside src/.
//
// Hooks can nest (a hook may call into the hypervisor, which calls another
// hook), so each hook's self time excludes the hooks it contains.  Work the
// inner scheduler does from its own engine events (vProbe's sampling-period
// analyzer and partitioner) runs outside any hook and is not attributed
// here.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hv/scheduler.hpp"

namespace perfsuite {

enum class Hook {
  kCreated,
  kWake,
  kSleep,
  kRetired,
  kRequeue,
  kDoSchedule,
  kTick,
  kAccounting,
  kCount
};

constexpr std::size_t kNumHooks = static_cast<std::size_t>(Hook::kCount);

struct HookStats {
  std::array<std::uint64_t, kNumHooks> calls{};
  std::array<std::int64_t, kNumHooks> self_ns{};

  std::uint64_t calls_of(Hook h) const { return calls[static_cast<std::size_t>(h)]; }
  std::int64_t ns_of(Hook h) const { return self_ns[static_cast<std::size_t>(h)]; }
  std::uint64_t total_calls() const;
  std::int64_t total_ns() const;
  HookStats& operator+=(const HookStats& other);
  HookStats operator-(const HookStats& other) const;
};

inline std::uint64_t HookStats::total_calls() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t c : calls) sum += c;
  return sum;
}

inline std::int64_t HookStats::total_ns() const {
  std::int64_t sum = 0;
  for (const std::int64_t ns : self_ns) sum += ns;
  return sum;
}

inline HookStats& HookStats::operator+=(const HookStats& other) {
  for (std::size_t i = 0; i < kNumHooks; ++i) {
    calls[i] += other.calls[i];
    self_ns[i] += other.self_ns[i];
  }
  return *this;
}

inline HookStats HookStats::operator-(const HookStats& other) const {
  HookStats out = *this;
  for (std::size_t i = 0; i < kNumHooks; ++i) {
    out.calls[i] -= other.calls[i];
    out.self_ns[i] -= other.self_ns[i];
  }
  return out;
}

class TimedScheduler final : public vprobe::hv::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<vprobe::hv::Scheduler> inner)
      : inner_(std::move(inner)) {
    stack_.reserve(8);
  }

  const char* name() const override { return inner_->name(); }
  void attach(vprobe::hv::Hypervisor& hv) override {
    Scheduler::attach(hv);
    inner_->attach(hv);
  }

  void vcpu_created(vprobe::hv::Vcpu& v) override {
    Timed t(*this, Hook::kCreated);
    inner_->vcpu_created(v);
  }
  void vcpu_wake(vprobe::hv::Vcpu& v) override {
    Timed t(*this, Hook::kWake);
    inner_->vcpu_wake(v);
  }
  void vcpu_sleep(vprobe::hv::Vcpu& v) override {
    Timed t(*this, Hook::kSleep);
    inner_->vcpu_sleep(v);
  }
  void vcpu_retired(vprobe::hv::Vcpu& v) override {
    Timed t(*this, Hook::kRetired);
    inner_->vcpu_retired(v);
  }
  void requeue_preempted(vprobe::hv::Vcpu& v) override {
    Timed t(*this, Hook::kRequeue);
    inner_->requeue_preempted(v);
  }
  vprobe::hv::Decision do_schedule(vprobe::hv::Pcpu& p) override {
    Timed t(*this, Hook::kDoSchedule);
    return inner_->do_schedule(p);
  }
  void tick(vprobe::hv::Pcpu& p) override {
    Timed t(*this, Hook::kTick);
    inner_->tick(p);
  }
  void accounting() override {
    Timed t(*this, Hook::kAccounting);
    inner_->accounting();
  }

  const HookStats& stats() const { return stats_; }
  vprobe::hv::Scheduler& inner() { return *inner_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Frame {
    Clock::time_point start;
    std::int64_t child_ns = 0;
  };

  /// One hook invocation: self time = duration minus nested hooks.
  class Timed {
   public:
    Timed(TimedScheduler& owner, Hook hook) : owner_(owner), hook_(hook) {
      owner_.stack_.push_back({Clock::now(), 0});
    }
    ~Timed() {
      const Frame frame = owner_.stack_.back();
      owner_.stack_.pop_back();
      const std::int64_t dur =
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               frame.start)
              .count();
      const auto i = static_cast<std::size_t>(hook_);
      ++owner_.stats_.calls[i];
      owner_.stats_.self_ns[i] += dur - frame.child_ns;
      if (!owner_.stack_.empty()) owner_.stack_.back().child_ns += dur;
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    TimedScheduler& owner_;
    Hook hook_;
  };

  std::unique_ptr<vprobe::hv::Scheduler> inner_;
  HookStats stats_;
  std::vector<Frame> stack_;
};

}  // namespace perfsuite
