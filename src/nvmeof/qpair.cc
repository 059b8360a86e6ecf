#include "nvmeof/qpair.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace ecf::nvmeof {

QueuePair::QueuePair(int id, int depth) : id_(id), depth_(depth) {
  ECF_CHECK_GE(depth, 1) << " qpair depth";
  ECF_CHECK_LE(depth, 65536) << " qpair depth (slot indices are 16-bit)";
  const auto n = static_cast<std::size_t>(depth);
  // All slots free at t=0, so index order is already (time, index) order.
  free_.assign(n, 0.0);
  slot_.resize(n);
  std::iota(slot_.begin(), slot_.end(), std::uint16_t{0});
  // Buckets 0..depth inclusive; the last one counts submissions that found
  // every slot busy.
  depth_hist_.assign(n + 1, 0);
}

int QueuePair::in_flight(sim::SimTime now) const {
  // Ring order is [head_, depth) then [0, head_), each sorted ascending.
  const auto begin = free_.begin();
  const auto head = begin + static_cast<std::ptrdiff_t>(head_);
  auto idle = std::upper_bound(head, free_.end(), now) - head;
  if (idle == free_.end() - head) {
    idle += std::upper_bound(begin, head, now) - begin;
  }
  return depth_ - static_cast<int>(idle);
}

QueuePair::Slot QueuePair::submit(sim::SimTime now, bool enforce) {
  ++submitted_;
  Slot out;
  out.depth_at_submit = in_flight(now);
  ++depth_hist_[static_cast<std::size_t>(out.depth_at_submit)];

  // The ring head is the earliest-freeing slot, lowest index on ties.
  out.index = slot_[head_];
  out.start = enforce ? std::max(now, free_[head_]) : now;
  queued_seconds_ += out.start - now;
  return out;
}

void QueuePair::commit(const Slot& slot, sim::SimTime complete) {
  ECF_CHECK_EQ(slot.index, static_cast<std::size_t>(slot_[head_]))
      << " qpair commit must target the slot of the last submit";
  const sim::SimTime t = std::max(free_[head_], complete);
  if (t == free_[head_]) return;  // key unchanged, ring still sorted
  const std::uint16_t s = slot_[head_];
  // Pop the head: its cell becomes the ring's tail. Walk back from there,
  // moving every entry that sorts after (t, s) one cell later.
  const std::size_t last = free_.size() - 1;
  std::size_t hole = head_;
  head_ = head_ == last ? 0 : head_ + 1;
  for (std::size_t left = last; left > 0; --left) {
    const std::size_t prev = hole == 0 ? last : hole - 1;
    if (free_[prev] < t || (free_[prev] == t && slot_[prev] < s)) break;
    free_[hole] = free_[prev];
    slot_[hole] = slot_[prev];
    hole = prev;
  }
  free_[hole] = t;
  slot_[hole] = s;
}

}  // namespace ecf::nvmeof
