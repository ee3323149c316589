// Per-PCPU run queue with Credit-scheduler ordering.
//
// VCPUs are kept sorted by priority class (BOOST < UNDER < OVER in queue
// position terms — strongest first), FIFO within a class, exactly like
// Xen's csched runq insertion.
//
// Occupancy contract: a queue bound to the hypervisor's occupancy set
// (bind_occupancy) keeps its PCPU's bit set exactly while it holds at least
// one VCPU.  insert(), pop_front() and remove() are the only mutators, and
// each flips the bit on the empty <-> non-empty transition, so steals can
// skip empty queues by walking set bits.  The invariant checker verifies
// bit == !empty() on every run-queue sweep.  An unbound queue (unit tests)
// keeps no bit.
#pragma once

#include <cstdint>
#include <vector>

#include "hv/vcpu.hpp"
#include "numa/pcpu_mask.hpp"

namespace vprobe::hv {

class RunQueue {
 public:
  /// Mirror this queue's emptiness into bit `pcpu` of `occupancy`, which
  /// must outlive the queue.  Call while the queue is empty.
  void bind_occupancy(numa::PcpuMask& occupancy, numa::PcpuId pcpu) {
    occupancy_word_ = occupancy.word_of(pcpu);
    occupancy_bit_ = numa::PcpuMask::bit(pcpu);
  }

  /// Insert by priority class, at the tail of the VCPU's class.
  void insert(Vcpu& vcpu);

  /// Head of the queue (strongest priority, oldest within class).
  Vcpu* front() const { return items_.empty() ? nullptr : items_.front(); }

  Vcpu* pop_front();

  /// Remove a specific VCPU; returns false when not present.
  bool remove(Vcpu& vcpu);

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

  /// Queue contents in order (for scheduler scans).
  const std::vector<Vcpu*>& items() const { return items_; }

 private:
  /// Clear the occupancy bit when the last VCPU has left.
  void note_removal() {
    if (items_.empty() && occupancy_word_ != nullptr) {
      *occupancy_word_ &= ~occupancy_bit_;
    }
  }

  std::vector<Vcpu*> items_;
  std::uint64_t* occupancy_word_ = nullptr;
  std::uint64_t occupancy_bit_ = 0;
};

}  // namespace vprobe::hv
