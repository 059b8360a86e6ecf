#include "nvmeof/qpair.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace ecf::nvmeof {
namespace {

TEST(QueuePair, RejectsBadDepth) {
  EXPECT_THROW(QueuePair(1, 0), std::logic_error);
  EXPECT_THROW(QueuePair(1, -3), std::logic_error);
}

TEST(QueuePair, UnenforcedSubmitStartsImmediately) {
  QueuePair q(1, 2);
  const auto a = q.submit(1.0, /*enforce=*/false);
  q.commit(a, 5.0);
  const auto b = q.submit(1.0, false);
  q.commit(b, 5.0);
  // Third command exceeds depth 2, but without enforcement it still
  // starts at `now` — the bound is accounting-only.
  const auto c = q.submit(1.0, false);
  EXPECT_DOUBLE_EQ(c.start, 1.0);
  EXPECT_DOUBLE_EQ(q.queued_seconds(), 0.0);
}

TEST(QueuePair, EnforcedSubmitWaitsForFreeSlot) {
  QueuePair q(1, 2);
  const auto a = q.submit(0.0, true);
  EXPECT_DOUBLE_EQ(a.start, 0.0);
  q.commit(a, 10.0);
  const auto b = q.submit(0.0, true);
  EXPECT_DOUBLE_EQ(b.start, 0.0);
  q.commit(b, 4.0);
  // Both slots busy; the next command must wait for the earliest
  // completion (t=4, slot freed by b).
  const auto c = q.submit(1.0, true);
  EXPECT_DOUBLE_EQ(c.start, 4.0);
  EXPECT_EQ(c.depth_at_submit, 2);
  EXPECT_DOUBLE_EQ(q.queued_seconds(), 3.0);
  q.commit(c, 6.0);
  // After c's slot is taken, earliest free time is min(10, next-free).
  const auto d = q.submit(5.0, true);
  EXPECT_DOUBLE_EQ(d.start, 6.0);
}

TEST(QueuePair, InFlightAndHistogramTrackOutstanding) {
  QueuePair q(1, 4);
  const auto a = q.submit(0.0, true);
  q.commit(a, 2.0);
  const auto b = q.submit(0.0, true);
  q.commit(b, 3.0);
  EXPECT_EQ(q.in_flight(1.0), 2);
  EXPECT_EQ(q.in_flight(2.5), 1);
  EXPECT_EQ(q.in_flight(3.5), 0);
  // Histogram: first submit saw 0 outstanding, second saw 1.
  const auto& h = q.depth_histogram();
  EXPECT_EQ(h[0], 1u);
  EXPECT_EQ(h[1], 1u);
  EXPECT_EQ(q.submitted(), 2u);
}

TEST(QueuePair, HistogramSaturatesAtDepthBucket) {
  QueuePair q(1, 2);
  for (int i = 0; i < 5; ++i) {
    const auto s = q.submit(0.0, /*enforce=*/false);
    q.commit(s, 100.0);  // all outstanding forever
  }
  const auto& h = q.depth_histogram();
  ASSERT_EQ(h.size(), 3u);  // buckets 0..depth
  EXPECT_EQ(h[0], 1u);
  EXPECT_EQ(h[1], 1u);
  EXPECT_EQ(h[2], 3u);  // submissions 3..5 each find both slots busy
}

TEST(QueuePair, LowestIndexSlotWinsTies) {
  QueuePair q(1, 3);
  // All slots free at t=0: submissions must reuse slot 0 first
  // (deterministic tie-break, keeps replays stable).
  const auto a = q.submit(0.0, true);
  EXPECT_EQ(a.index, 0u);
  q.commit(a, 1.0);
  const auto b = q.submit(0.0, true);
  EXPECT_EQ(b.index, 1u);
}

TEST(QueuePair, CommitOfAnotherSlotThrows) {
  QueuePair q(1, 3);
  const auto a = q.submit(0.0, true);
  q.commit(a, 5.0);
  const auto b = q.submit(0.0, true);
  ASSERT_NE(a.index, b.index);
  // `a` was already committed and is no longer the slot the queue hands
  // out next: committing it again breaks the one-commit-per-submit order.
  EXPECT_THROW(q.commit(a, 6.0), std::logic_error);
  QueuePair::Slot bogus = b;
  bogus.index = 2;
  EXPECT_THROW(q.commit(bogus, 6.0), std::logic_error);
  // The queue is untouched by the rejected commits.
  q.commit(b, 7.0);
  EXPECT_EQ(q.in_flight(0.0), 2);
  EXPECT_EQ(q.submit(0.0, true).index, 2u);
}

// The linear-scan queue pair the ring bookkeeping replaced: one pass for
// in_flight, one min_element pass for the pick. Kept as the reference model.
class LinearScanQueuePair {
 public:
  explicit LinearScanQueuePair(int depth)
      : slot_free_(static_cast<std::size_t>(depth), 0.0),
        depth_hist_(static_cast<std::size_t>(depth) + 1, 0) {}

  QueuePair::Slot submit(sim::SimTime now, bool enforce) {
    QueuePair::Slot out;
    out.depth_at_submit = in_flight(now);
    ++depth_hist_[std::min(static_cast<std::size_t>(out.depth_at_submit),
                           depth_hist_.size() - 1)];
    const auto it = std::min_element(slot_free_.begin(), slot_free_.end());
    out.index = static_cast<std::size_t>(it - slot_free_.begin());
    out.start = enforce ? std::max(now, *it) : now;
    queued_seconds_ += out.start - now;
    return out;
  }
  void commit(const QueuePair::Slot& slot, sim::SimTime complete) {
    slot_free_[slot.index] = std::max(slot_free_[slot.index], complete);
  }
  int in_flight(sim::SimTime now) const {
    int n = 0;
    for (const sim::SimTime t : slot_free_) {
      if (t > now) ++n;
    }
    return n;
  }
  sim::SimTime slot_free(std::size_t index) const { return slot_free_[index]; }
  double queued_seconds() const { return queued_seconds_; }
  const std::vector<std::uint64_t>& depth_histogram() const {
    return depth_hist_;
  }

 private:
  std::vector<sim::SimTime> slot_free_;
  std::vector<std::uint64_t> depth_hist_;
  double queued_seconds_ = 0;
};

struct DiffCase {
  int depth;
  bool integer_times;  // tie-heavy: every time is a small integer
};

// Random submit/commit pairs against the reference: enforce on and off,
// completions before the slot's current free time (the max case), the odd
// submit left uncommitted, and in_flight probed at times behind and ahead
// of the clock. Everything observable must match exactly.
void run_differential(std::uint64_t seed, const DiffCase& dc) {
  util::Rng rng(seed);
  QueuePair q(1, dc.depth);
  LinearScanQueuePair ref(dc.depth);
  auto draw = [&](double lo, double span) {
    return dc.integer_times
               ? lo + static_cast<double>(rng.uniform(
                          static_cast<std::uint64_t>(span) + 1))
               : lo + span * rng.uniform01();
  };
  double now = 0;
  int max_cases = 0;
  for (int step = 0; step < 4000; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " depth "
                                      << dc.depth << " step " << step);
    // The clock mostly advances, sometimes stalls (ties), sometimes jumps.
    if (rng.bernoulli(0.7)) now += draw(0, rng.bernoulli(0.9) ? 1 : 8);
    const bool enforce = rng.bernoulli(0.5);
    const QueuePair::Slot got = q.submit(now, enforce);
    const QueuePair::Slot want = ref.submit(now, enforce);
    ASSERT_EQ(got.index, want.index);
    ASSERT_EQ(got.start, want.start);
    ASSERT_EQ(got.depth_at_submit, want.depth_at_submit);
    if (rng.bernoulli(0.05)) continue;  // submitted, never committed
    // Completion: usually after start, sometimes before the slot's
    // current free time so commit keeps the later one. Service times
    // alternate between phases that stay well under the depth and phases
    // that saturate it.
    const double service = (step / 500) % 2 == 0 ? dc.depth / 4.0 + 4
                                                  : dc.depth * 2.0 + 4;
    const double complete = rng.bernoulli(0.2)
                                ? draw(std::max(0.0, now - 4), 4)
                                : draw(got.start, service);
    if (complete < ref.slot_free(want.index)) ++max_cases;
    q.commit(got, complete);
    ref.commit(want, complete);
    ASSERT_EQ(q.queued_seconds(), ref.queued_seconds());
    for (int probe = 0; probe < 2; ++probe) {
      const double at = draw(std::max(0.0, now - 8), 16);
      ASSERT_EQ(q.in_flight(at), ref.in_flight(at)) << " at " << at;
    }
  }
  EXPECT_EQ(q.depth_histogram(), ref.depth_histogram());
  EXPECT_EQ(q.submitted(), 4000u);
  EXPECT_GT(max_cases, 0) << " the max case was never exercised";
  EXPECT_GT(ref.depth_histogram().back(), 0u) << " never saturated";
}

TEST(QueuePair, MatchesLinearScanReference) {
  const DiffCase cases[] = {{1, true},  {2, true},   {3, true},
                            {7, false}, {16, true},  {128, false},
                            {128, true}};
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (const DiffCase& dc : cases) run_differential(seed, dc);
  }
}

}  // namespace
}  // namespace ecf::nvmeof
