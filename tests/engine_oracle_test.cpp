// Differential test of the event engine against a heap-only reference.
//
// The product Engine orders pending events with a slab, a ladder window of
// adaptive-width buckets and a 4-ary overflow heap (DESIGN.md §16). Its
// only contract is the (time, seq) pop order, cancel-by-id and the pending
// counters, so a reference that keeps every pending event in one binary
// heap is a complete oracle. One seeded stream of schedule_at, cancel,
// step and run_until drives both; the stream is built in phases that reach
// each structural path of the ladder:
//   * delays from 1 ns to ~10 h, past the ~4.3 s bucket-width clamp: width
//     doubling, heap overflow and window refills;
//   * same-timestamp clusters above 8 x 512 entries, each drained before
//     the next, so the width halves down to its 16 ns floor and stays there;
//   * run_until into the gap before a freshly anchored window, then
//     inserts below the anchor;
//   * cancel bursts that trip compact_tombstones;
//   * same-instant storms whose callbacks schedule nested wakes at now();
//   * same-instant masses: waves of at least 10k events at one to four
//     instants, appended in (time, seq) order so their buckets drain
//     without a sort, then out-of-order inserts into buckets the cursor
//     has not reached, nested wakes and cancels of wave members;
//   * a tie-break policy installed and removed mid-run, with storms and a
//     same-timestamp cluster above 8 x 512 entries under it, so the policy
//     picks among long same-instant runs with cancels and nested wakes in
//     them, and inside a same-instant mass;
//   * events near SimTime::max(), where the window end clamps and far
//     entries share the last bucket.
// After every phase both sides must agree on fire order, now(), executed,
// cancelled and pending counts, and pending_time_digest().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "smilab/core/fnv.h"
#include "smilab/sim/choice_hooks.h"
#include "smilab/sim/event_queue.h"

namespace smilab {
namespace {

// --- The reference ----------------------------------------------------------

/// Heap-only engine: one binary min-heap of (time, seq) keys and a
/// seq-keyed map of live callbacks. Cancel erases the callback; the heap
/// drops dead keys lazily. With a tie-break policy installed, a pop takes
/// every live key at the minimal time, in (time, seq) order, and fires the
/// one the policy picks.
class ReferenceEngine {
 public:
  using Id = std::uint64_t;  ///< the event's seq

  [[nodiscard]] SimTime now() const { return now_; }

  Id schedule_at(SimTime t, std::function<void()> fn) {
    const Id seq = next_seq_++;
    heap_.push(Key{t.ns(), seq});
    live_.emplace(seq, Live{t.ns(), std::move(fn)});
    return seq;
  }

  void cancel(Id id) {
    if (live_.erase(id) != 0) ++cancelled_;
  }

  void set_tie_break(SchedulePolicy* policy) { policy_ = policy; }

  bool step() {
    drop_dead();
    if (heap_.empty()) return false;
    std::vector<Key> tied{heap_.top()};
    heap_.pop();
    std::size_t pick = 0;
    if (policy_ != nullptr) {
      for (drop_dead(); !heap_.empty() && heap_.top().time == tied[0].time;
           drop_dead()) {
        tied.push_back(heap_.top());
        heap_.pop();
      }
      if (tied.size() > 1) {
        pick = policy_->choose(ChoiceKind::kEventTie, tied.size());
      }
      for (std::size_t i = 0; i < tied.size(); ++i) {
        if (i != pick) heap_.push(tied[i]);
      }
    }
    auto node = live_.extract(tied[pick].seq);
    now_ = SimTime{tied[pick].time};
    ++executed_;
    node.mapped().fn();
    return true;
  }

  bool run_until(SimTime t) {
    for (drop_dead(); !heap_.empty(); drop_dead()) {
      if (heap_.top().time > t.ns()) {
        now_ = t;
        return true;
      }
      step();
    }
    if (now_ < t) now_ = t;
    return !live_.empty();
  }

  [[nodiscard]] std::size_t pending_events() const { return live_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  [[nodiscard]] std::uint64_t cancelled_events() const { return cancelled_; }

  /// Sum of splitmix64 over live timestamps: the definition the product's
  /// pending_time_digest must meet.
  [[nodiscard]] std::uint64_t pending_time_digest() const {
    std::uint64_t acc = 0;
    for (const auto& [seq, live] : live_) {
      acc += splitmix64(static_cast<std::uint64_t>(live.time));
    }
    return acc;
  }

 private:
  struct Key {
    std::int64_t time;
    std::uint64_t seq;
    bool operator>(const Key& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  struct Live {
    std::int64_t time;
    std::function<void()> fn;
  };

  void drop_dead() {
    while (!heap_.empty() && live_.count(heap_.top().seq) == 0) heap_.pop();
  }

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> heap_;
  std::unordered_map<std::uint64_t, Live> live_;
  SchedulePolicy* policy_ = nullptr;
};

// --- The differential driver -----------------------------------------------

/// Records every tie-break question; picks 0, or rotates through the
/// candidates so losers are re-queued and fire later.
class RecordingPolicy final : public SchedulePolicy {
 public:
  explicit RecordingPolicy(bool rotate) : rotate_(rotate) {}
  std::size_t choose(ChoiceKind kind, std::size_t n) override {
    EXPECT_EQ(kind, ChoiceKind::kEventTie);
    asked.push_back(n);
    return rotate_ ? asked.size() % n : 0;
  }
  std::vector<std::size_t> asked;

 private:
  bool rotate_;
};

/// One engine plus its record of events by logical number. An event's
/// callback logs its number and, while `wake` > 0, schedules a nested wake
/// at now() (and, for odd `wake`, one more a nanosecond later), so storms
/// feed themselves. Both sides number events identically as long as they
/// fire in the same order.
template <typename E, typename Id>
struct Side {
  E eng;
  std::vector<Id> ids;
  std::vector<std::uint32_t> fired;

  void schedule(SimTime t, std::uint32_t wake) {
    const auto k = static_cast<std::uint32_t>(ids.size());
    ids.push_back(eng.schedule_at(t, [this, k, wake] { fire(k, wake); }));
  }

  void fire(std::uint32_t k, std::uint32_t wake) {
    fired.push_back(k);
    if (wake == 0) return;
    schedule(eng.now(), wake - 1);
    if ((wake & 1) != 0 && eng.now() < SimTime::max()) {
      schedule(eng.now() + SimDuration{1}, 0);
    }
  }
};

class Differential {
 public:
  explicit Differential(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] SimTime now() const { return product_.eng.now(); }
  [[nodiscard]] std::size_t scheduled() const { return product_.ids.size(); }

  void schedule(SimTime t, std::uint32_t wake = 0) {
    product_.schedule(t, wake);
    reference_.schedule(t, wake);
  }

  /// Cancel logical event k (pending, fired or already cancelled).
  void cancel(std::size_t k) {
    product_.eng.cancel(product_.ids[k]);
    reference_.eng.cancel(reference_.ids[k]);
  }

  /// Cancel one of the most recently scheduled events, which are the ones
  /// most likely still pending.
  void cancel_recent() {
    const std::size_t n = scheduled();
    if (n == 0) return;
    cancel(n - 1 - next() % std::min<std::size_t>(n, 256));
  }

  bool step() {
    const bool got = product_.eng.step();
    EXPECT_EQ(got, reference_.eng.step());
    return got;
  }

  void run_until(SimTime t) {
    const bool more = product_.eng.run_until(t);
    EXPECT_EQ(more, reference_.eng.run_until(t));
    EXPECT_EQ(product_.eng.now(), reference_.eng.now());
  }

  void drain() {
    while (step()) {
    }
  }

  void set_tie_break(SchedulePolicy* product, SchedulePolicy* reference) {
    product_.eng.set_tie_break(product);
    reference_.eng.set_tie_break(reference);
    product_policy_ = product;
    reference_policy_ = reference;
  }

  /// Everything both sides can observe, compared since the last checkpoint.
  void checkpoint(const char* phase) {
    SCOPED_TRACE(phase);
    ASSERT_EQ(product_.fired.size(), reference_.fired.size());
    for (std::size_t i = checked_; i < product_.fired.size(); ++i) {
      ASSERT_EQ(product_.fired[i], reference_.fired[i]) << "fire #" << i;
    }
    checked_ = product_.fired.size();
    ASSERT_EQ(product_.eng.now(), reference_.eng.now());
    ASSERT_EQ(product_.eng.executed_events(),
              reference_.eng.executed_events());
    ASSERT_EQ(product_.eng.cancelled_events(),
              reference_.eng.cancelled_events());
    ASSERT_EQ(product_.eng.pending_events(), reference_.eng.pending_events());
    ASSERT_EQ(product_.eng.pending_time_digest(),
              reference_.eng.pending_time_digest());
  }

  std::uint64_t next() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  /// Log-uniform delay in [1, 2^max_log2) ns.
  SimDuration delay(int max_log2) {
    const auto e = static_cast<int>(next() %
                                    static_cast<std::uint64_t>(max_log2));
    const std::uint64_t lo = std::uint64_t{1} << e;
    return SimDuration{static_cast<std::int64_t>(lo + next() % lo)};
  }

  // --- Phases ---

  /// Random mix with delays up to ~10 h: overflow-heap traffic and sparse
  /// windows that double the width up to its clamp.
  void sparse(int ops) {
    for (int i = 0; i < ops; ++i) {
      const std::uint64_t r = next() % 100;
      if (r < 55) {
        schedule(now() + delay(45), static_cast<std::uint32_t>(next() % 3));
      } else if (r < 70) {
        cancel_recent();
      } else if (r < 93) {
        step();
      } else {
        run_until(now() + delay(40));
      }
    }
  }

  /// `count` clusters of more than 8 x 512 entries at one timestamp, each
  /// drained to empty so the next window refill halves the width. Nothing
  /// else is pending: a sparse window in between would double it back.
  void clusters(int count) {
    drain();
    for (int c = 0; c < count; ++c) {
      const SimTime t =
          now() + SimDuration{1 + static_cast<std::int64_t>(next() % 1000)};
      const int size = 4097 + static_cast<int>(next() % 400);
      for (int i = 0; i < size; ++i) {
        schedule(t, i % 97 == 0 ? 2 : 0);
      }
      for (int i = 0; i < 8; ++i) {
        schedule(t + SimDuration{static_cast<std::int64_t>(next() % 16)});
      }
      for (int i = 0; i < 16; ++i) cancel_recent();
      run_until(t);
      drain();
    }
  }

  /// run_until lands in the gap before a window anchored at a lone far
  /// event; inserts then fall below the anchor, at now() and in between.
  void gaps(int rounds) {
    for (int g = 0; g < rounds; ++g) {
      drain();
      const SimDuration far = delay(36) + SimDuration{1 << 16};
      const SimTime anchor = now() + far;
      schedule(anchor);
      run_until(now() + SimDuration{far.ns() / 4});
      for (int i = 0; i < 40; ++i) {
        const std::int64_t span = (anchor - now()).ns();
        schedule(now() + SimDuration{static_cast<std::int64_t>(
                             next() % static_cast<std::uint64_t>(span))},
                 static_cast<std::uint32_t>(next() % 3));
      }
      schedule(now(), 3);
      schedule(anchor, 1);
      run_until(now() + SimDuration{(anchor - now()).ns() / 2});
      schedule(now(), 1);
      step();
      drain();
    }
  }

  /// Schedule a spread of events, then cancel most of them: the tombstone
  /// count passes half the pending set and compacts.
  void cancel_bursts(int rounds) {
    for (int b = 0; b < rounds; ++b) {
      const std::size_t first = scheduled();
      const int size = 200 + static_cast<int>(next() % 1800);
      for (int i = 0; i < size; ++i) schedule(now() + delay(30));
      for (std::size_t k = first; k < scheduled(); ++k) {
        if (next() % 10 < 7) cancel(k);
      }
      for (int i = 0; i < 50; ++i) step();
    }
  }

  /// Same-instant storms: bursts at now() and just after, nested wakes,
  /// and cancels of storm members before they fire.
  void storms(int rounds) {
    for (int s = 0; s < rounds; ++s) {
      const SimTime t =
          now() + SimDuration{static_cast<std::int64_t>(next() % 50)};
      for (int i = 0; i < 60; ++i) {
        schedule(next() % 4 == 0 ? now() : t,
                 static_cast<std::uint32_t>(next() % 5));
      }
      for (int i = 0; i < 6; ++i) cancel_recent();
      step();
      schedule(now(), 2);
      run_until(t + SimDuration{1});
    }
  }

  /// Same-instant masses. Wave w puts 10k-11k events on 1 + w % 4 instants,
  /// spaced about 2^(6 + 6 (w % 6)) ns apart so that, whatever the bucket
  /// width, some wave's later instants sit in buckets ahead of the cursor.
  /// Each instant's members append in (time, seq) order; inserts just
  /// before a later instant, made once the cursor is inside the first one,
  /// arrive out of order in a bucket it has not reached, which must then
  /// sort. Cancels hit wave members before and during the drain, and every
  /// 500th member wakes a nested chain. Under a tie-break policy only the
  /// first 64 pops of a wave ask it: a tied pop costs the reference
  /// O(n log n) over the instant, so a whole wave would dominate the suite.
  void masses(int waves) {
    const std::uint64_t sorts = product_.eng.bucket_sorts();
    for (int w = 0; w < waves; ++w) {
      const std::size_t first = scheduled();
      const int instants = 1 + w % 4;
      const int per = (10'000 + static_cast<int>(next() % 1000)) / instants;
      const std::int64_t gap = std::int64_t{1} << (6 + 6 * (w % 6));
      std::vector<SimTime> at;
      SimTime t = now() + delay(8);
      for (int i = 0; i < instants; ++i) {
        at.push_back(t);
        for (int k = 0; k < per; ++k) schedule(t, k % 500 == 0 ? 3 : 0);
        t = t + SimDuration{gap + static_cast<std::int64_t>(next() % 64)};
      }
      for (int i = 0; i < 40; ++i) {
        cancel(first + next() % (scheduled() - first));
      }
      for (int i = 0; i < 64; ++i) step();
      for (std::size_t i = 1; i < at.size(); ++i) {
        for (int k = 0; k < 8; ++k) {
          const SimTime before_instant =
              at[i] - SimDuration{1 + static_cast<std::int64_t>(next() % 32)};
          schedule(std::max(before_instant, now()),
                   static_cast<std::uint32_t>(next() % 3));
        }
      }
      for (int i = 0; i < 40; ++i) {
        cancel(first + next() % (scheduled() - first));
      }
      SchedulePolicy* const product = product_policy_;
      SchedulePolicy* const reference = reference_policy_;
      set_tie_break(nullptr, nullptr);
      drain();
      set_tie_break(product, reference);
    }
    // Out-of-order inserts reached an unsorted bucket at least once.
    EXPECT_GT(product_.eng.bucket_sorts(), sorts);
  }

  /// Near the end of time: the window end clamps to SimTime::max(), so
  /// entries past the last bucket's range share it.
  void end_of_time(int events) {
    drain();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    for (int i = 0; i < events; ++i) {
      const std::uint64_t span = next() % 2 == 0 ? std::uint64_t{1} << 20
                                                 : std::uint64_t{1} << 40;
      const std::uint64_t back = next() % span;
      schedule(SimTime{kMax - static_cast<std::int64_t>(back)},
               static_cast<std::uint32_t>(2 * (next() % 2)));
    }
    for (int i = 0; i < events / 4; ++i) step();
    for (int i = 0; i < 20; ++i) cancel_recent();
    drain();
  }

 private:
  std::uint64_t rng_;
  Side<Engine, EventId> product_;
  Side<ReferenceEngine, ReferenceEngine::Id> reference_;
  SchedulePolicy* product_policy_ = nullptr;
  SchedulePolicy* reference_policy_ = nullptr;
  std::size_t checked_ = 0;
};

void run_stream(std::uint64_t seed, bool rotate_ties) {
  Differential d{seed};
  for (int round = 0; round < 2; ++round) {
    d.sparse(3000);
    d.checkpoint("sparse");
    d.clusters(40);
    d.checkpoint("clusters");
    d.gaps(12);
    d.checkpoint("gaps");
    d.cancel_bursts(6);
    d.checkpoint("cancel bursts");
    d.storms(30);
    d.checkpoint("storms");
    d.masses(6);
    d.checkpoint("masses");

    // A policy installed and removed mid-run, with work pending across
    // both switches.
    RecordingPolicy product_policy{rotate_ties};
    RecordingPolicy reference_policy{rotate_ties};
    d.sparse(200);
    d.set_tie_break(&product_policy, &reference_policy);
    d.storms(20);
    // One cluster and one set of masses per stream: each tied pop costs
    // the reference O(n log n), so one per round would dominate the
    // suite's time.
    if (round == 0) {
      d.clusters(1);
      d.masses(6);
    }
    d.sparse(500);
    d.checkpoint("under policy");
    d.set_tie_break(nullptr, nullptr);
    EXPECT_EQ(product_policy.asked, reference_policy.asked);
    EXPECT_FALSE(product_policy.asked.empty());
    d.storms(10);
    d.sparse(1000);
    d.checkpoint("policy removed");
  }
  d.end_of_time(3000);
  d.checkpoint("end of time");
}

TEST(EngineOracleTest, SeededStreamMatchesHeapReference) {
  for (const std::uint64_t seed :
       {0x9e3779b97f4a7c15ull, 0x2545f4914f6cdd1dull}) {
    SCOPED_TRACE(seed);
    run_stream(seed, /*rotate_ties=*/false);
  }
}

TEST(EngineOracleTest, RotatingTieBreakMatchesHeapReference) {
  run_stream(0x853c49e6748fea9bull, /*rotate_ties=*/true);
}

// --- Same-instant storms (plain engine tests) --------------------------------

/// A future event whose callback schedules a same-instant storm with an
/// interleaved cancellation and a nested wake: the storm fires by (time,
/// seq), the cancelled member never fires, and the nested wake (scheduled
/// while draining) fires after every earlier-seq member of its instant.
template <typename E>
std::vector<int> storm_order() {
  E eng;
  std::vector<int> order;
  eng.schedule_at(SimTime{100}, [&] {
    eng.schedule_at(SimTime{100}, [&] { order.push_back(1); });
    const auto victim =
        eng.schedule_at(SimTime{100}, [&] { order.push_back(2); });
    eng.schedule_at(SimTime{100}, [&] {
      order.push_back(3);
      eng.schedule_at(SimTime{100}, [&] { order.push_back(5); });
    });
    eng.schedule_at(SimTime{200}, [&] { order.push_back(6); });
    eng.schedule_at(SimTime{100}, [&] { order.push_back(4); });
    eng.cancel(victim);
  });
  while (eng.step()) {
  }
  return order;
}

TEST(SameInstantLaneTest, MergePreservesTimeSeqOrderAndCancellation) {
  EXPECT_EQ(storm_order<Engine>(), (std::vector<int>{1, 3, 4, 5, 6}));
  EXPECT_EQ(storm_order<ReferenceEngine>(), (std::vector<int>{1, 3, 4, 5, 6}));
}

/// The pending digest, read inside a callback, counts an entry scheduled
/// at that same instant.
template <typename E>
std::uint64_t digest_with_same_instant_entry() {
  E eng;
  std::uint64_t digest = 0;
  eng.schedule_at(SimTime{50}, [&] {
    eng.schedule_at(SimTime{50}, [] {});
    digest = eng.pending_time_digest();
  });
  eng.step();
  return digest;
}

TEST(SameInstantLaneTest, PendingDigestSeesLaneEntries) {
  const std::uint64_t digest = digest_with_same_instant_entry<Engine>();
  EXPECT_EQ(digest, splitmix64(50));
  EXPECT_EQ(digest, digest_with_same_instant_entry<ReferenceEngine>());
}

}  // namespace
}  // namespace smilab
