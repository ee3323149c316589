#include "hv/run_queue.hpp"

#include <algorithm>
#include <cassert>

namespace vprobe::hv {

void RunQueue::insert(Vcpu& vcpu) {
  assert(!vcpu.in_runqueue);
  if (items_.empty() && occupancy_word_ != nullptr) {
    *occupancy_word_ |= occupancy_bit_;
  }
  // Find the first element with a strictly weaker priority and insert before
  // it — i.e. FIFO within the class.
  auto pos = std::find_if(items_.begin(), items_.end(), [&](const Vcpu* v) {
    return static_cast<int>(v->priority) > static_cast<int>(vcpu.priority);
  });
  items_.insert(pos, &vcpu);
  vcpu.in_runqueue = true;
}

Vcpu* RunQueue::pop_front() {
  if (items_.empty()) return nullptr;
  Vcpu* v = items_.front();
  items_.erase(items_.begin());
  v->in_runqueue = false;
  note_removal();
  return v;
}

bool RunQueue::remove(Vcpu& vcpu) {
  auto it = std::find(items_.begin(), items_.end(), &vcpu);
  if (it == items_.end()) return false;
  items_.erase(it);
  vcpu.in_runqueue = false;
  note_removal();
  return true;
}

}  // namespace vprobe::hv
