// NVMe-oF queue pairs: bounded submission queues with in-flight accounting.
//
// A connection carries N I/O queue pairs. Each qpair admits at most `depth`
// outstanding commands; a command submitted while all slots are busy waits
// for the earliest completion (the host blocks on a free SQ entry — the
// fabric-level backpressure the paper's transport-queueing observations
// hinge on). The model is a deterministic k-server queue evaluated
// synchronously: submit() returns the time the command may start, commit()
// records when its slot frees.
//
// Depth histograms are always recorded (they are pure accounting); whether
// the bound actually delays commands is the caller's choice
// (sim::FabricParams::enforce_qpair_depth), so the default ideal fabric
// stays timing-inert.
//
// Bookkeeping: the slots live in a ring kept sorted by (free time, slot
// index), so the slot submit() picks — the earliest-freeing one, lowest
// index on ties — is the ring head, in_flight() is a binary search, and
// commit() re-inserts the head walking back from the tail (no steps when
// completions arrive in submission order).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.h"

namespace ecf::nvmeof {

class QueuePair {
 public:
  // `depth` must be in [1, 65536]. `id` is the queue id.
  QueuePair(int id, int depth);

  struct Slot {
    std::size_t index = 0;       // slot to pass to commit()
    sim::SimTime start = 0;      // earliest start honoring the depth bound
    int depth_at_submit = 0;     // outstanding commands seen at submission
  };

  // Admit a command at time `now`. When `enforce` is set and all slots are
  // outstanding, start is pushed to the earliest slot-free time; otherwise
  // start == now and the bound is accounting-only.
  Slot submit(sim::SimTime now, bool enforce);

  // Record the command's completion time into its slot: the slot frees at
  // max(its previous free time, complete). The slot must be the one the
  // next submit() would pick — true for the slot of the last submit() as
  // long as no commit() came in between; anything else throws.
  void commit(const Slot& slot, sim::SimTime complete);

  int id() const { return id_; }
  int depth() const { return depth_; }
  std::uint64_t submitted() const { return submitted_; }
  // Seconds commands spent waiting for a free slot (backpressure wait).
  double queued_seconds() const { return queued_seconds_; }
  // Outstanding commands at `now`: slots whose free time is after `now`.
  int in_flight(sim::SimTime now) const;
  // histogram[d] = submissions that found d commands outstanding,
  // d in [0, depth].
  const std::vector<std::uint64_t>& depth_histogram() const {
    return depth_hist_;
  }

 private:
  int id_;
  int depth_;
  // Ring sorted by (free_[i], slot_[i]), starting at head_: free time and
  // slot index of each entry, in parallel arrays to keep 10 bytes a slot.
  std::size_t head_ = 0;
  std::vector<sim::SimTime> free_;
  std::vector<std::uint16_t> slot_;
  std::vector<std::uint64_t> depth_hist_;
  std::uint64_t submitted_ = 0;
  double queued_seconds_ = 0;
};

}  // namespace ecf::nvmeof
