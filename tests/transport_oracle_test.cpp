// Differential tests of the transport's matching stores against naive
// scans.
//
// UnexpectedQueue keeps each receiver's unmatched messages as intrusive
// lists under FlatKeyMap buckets, and NbHandleTable indexes posted
// receives by tag (sim/transport.h). Neither may change which message or
// handle a match picks, so each is driven by a seeded random stream next
// to the simplest structure with the same contract:
//   * the unexpected queue against one arrival-ordered list, scanned from
//     the front for a specific-source or kAnySource match (and, under a
//     policy, for the first message of each distinct source);
//   * the posted-receive index against an ascending scan over every
//     handle id.
// Small source, tag and id ranges keep the buckets colliding. FlatKeyMap
// itself is checked against std::unordered_map in FlatKeyMapTest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "smilab/sim/choice_hooks.h"
#include "smilab/sim/transport.h"

namespace smilab {
namespace {

class Xorshift {
 public:
  explicit Xorshift(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    return s_;
  }
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t s_;
};

/// Picks the last any-source candidate, so a wrong candidate set or order
/// changes the match.
class LastCandidatePolicy final : public SchedulePolicy {
 public:
  std::size_t choose(ChoiceKind kind, std::size_t n) override {
    EXPECT_EQ(kind, ChoiceKind::kAnySourceMatch);
    ++asked;
    return n - 1;
  }
  int asked = 0;
};

// --- UnexpectedQueue vs an arrival-ordered list ----------------------------

/// The reference queue: every queued message, oldest first.
class ArrivalList {
 public:
  void push(MsgHandle h) { list_.push_back(h); }

  /// First message with `tag` from `src` (any source for kAnySource).
  MsgHandle match(const MessagePool& pool, int src, int tag) {
    for (auto it = list_.begin(); it != list_.end(); ++it) {
      const MessageRec& rec = *pool.get(*it);
      if (rec.tag == tag && (src == kAnySource || rec.src_rank == src)) {
        const MsgHandle h = *it;
        list_.erase(it);
        return h;
      }
    }
    return MsgHandle{};
  }

  /// Any-source candidates under a policy: the first message of each
  /// distinct source with `tag`, in arrival order.
  std::vector<MsgHandle> candidates(const MessagePool& pool, int tag) const {
    std::vector<MsgHandle> out;
    std::vector<int> seen;
    for (const MsgHandle h : list_) {
      const MessageRec& rec = *pool.get(h);
      if (rec.tag != tag) continue;
      if (std::find(seen.begin(), seen.end(), rec.src_rank) != seen.end()) {
        continue;
      }
      seen.push_back(rec.src_rank);
      out.push_back(h);
    }
    return out;
  }

  void erase(MsgHandle h) {
    list_.erase(std::find(list_.begin(), list_.end(), h));
  }

  /// Release order of UnexpectedQueue::clear: ascending tag, arrival order
  /// within a tag.
  std::vector<std::uint32_t> clear_order(const MessagePool& pool) const {
    std::vector<MsgHandle> sorted = list_;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&pool](MsgHandle a, MsgHandle b) {
                       return pool.get(a)->tag < pool.get(b)->tag;
                     });
    std::vector<std::uint32_t> out;
    for (const MsgHandle h : sorted) out.push_back(h.index);
    return out;
  }

  [[nodiscard]] const std::vector<MsgHandle>& messages() const { return list_; }
  void clear() { list_.clear(); }

 private:
  std::vector<MsgHandle> list_;
};

/// Queue and reference agree on size, arrival order and structure.
void expect_same_queue(const MessagePool& pool, const UnexpectedQueue& queue,
                       const ArrivalList& ref) {
  queue.check_invariants(pool);
  pool.check_invariants();
  ASSERT_EQ(queue.size(), ref.messages().size());
  std::vector<MsgHandle> visited;
  queue.for_each_arrival(pool, [&](const MessageRec& rec) {
    for (const MsgHandle h : ref.messages()) {
      if (pool.get(h) == &rec) visited.push_back(h);
    }
  });
  ASSERT_EQ(visited, ref.messages());
}

MsgHandle arrive(MessagePool& pool, UnexpectedQueue& queue, ArrivalList& ref,
                 int src, int tag) {
  const MsgHandle h = pool.alloc();
  MessageRec& rec = pool.ref(h);
  rec.src_rank = src;
  rec.tag = tag;
  rec.arrived = true;
  queue.push(pool, h);
  ref.push(h);
  return h;
}

void unexpected_queue_stream(std::uint64_t seed, int sources, int tags) {
  Xorshift rng{seed};
  MessagePool pool;
  UnexpectedQueue queue;
  ArrivalList ref;
  LastCandidatePolicy policy;
  for (int op = 0; op < 40'000; ++op) {
    const int r = rng.below(100);
    const int tag = rng.below(tags);
    MsgHandle got;
    MsgHandle want;
    if (r < 50) {  // arrival
      arrive(pool, queue, ref, rng.below(sources), tag);
      continue;
    }
    if (r < 72) {  // specific-source receive
      const int src = rng.below(sources);
      want = ref.match(pool, src, tag);
      got = queue.match(pool, src, tag);
    } else if (r < 92) {  // wildcard receive
      want = ref.match(pool, kAnySource, tag);
      got = queue.match(pool, kAnySource, tag);
    } else if (r < 99) {  // wildcard receive under an exploring policy
      const std::vector<MsgHandle> cand = ref.candidates(pool, tag);
      if (!cand.empty()) {
        want = cand.back();
        ref.erase(want);
      }
      const int asked = policy.asked;
      got = queue.match(pool, kAnySource, tag, &policy);
      EXPECT_EQ(policy.asked - asked, cand.size() > 1 ? 1 : 0);
    } else {  // receiver killed: clear, then the free list hands slots back
      const std::vector<std::uint32_t> order = ref.clear_order(pool);
      queue.clear(pool);
      ref.clear();
      std::vector<MsgHandle> reuse;
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        reuse.push_back(pool.alloc());
        ASSERT_EQ(reuse.back().index, *it) << "op " << op;
      }
      for (const MsgHandle h : reuse) pool.release(h);
      continue;
    }
    ASSERT_EQ(got, want) << "op " << op;
    if (got.valid()) {
      EXPECT_EQ(pool.ref(got).state, MessageRec::State::kMatched);
      pool.release(got);  // copied out: the record recycles
    }
    if (op % 64 == 0) {
      SCOPED_TRACE(op);
      ASSERT_NO_FATAL_FAILURE(expect_same_queue(pool, queue, ref));
    }
  }
  EXPECT_GT(policy.asked, 0);
}

TEST(TransportOracleTest, UnexpectedQueueMatchesArrivalListScan) {
  unexpected_queue_stream(0x9e3779b97f4a7c15ull, /*sources=*/4, /*tags=*/3);
  unexpected_queue_stream(0xd1b54a32d192ed03ull, /*sources=*/8, /*tags=*/6);
  unexpected_queue_stream(0x2545f4914f6cdd1dull, /*sources=*/64, /*tags=*/2);
}

// A record that arrives into an empty queue waits in the inline slot. A
// second arrival from another source moves it into the buckets ahead of the
// newcomer, so a kAnySource receive still matches the earlier arrival, and
// under a policy both sources are candidates in arrival order.
TEST(TransportOracleTest, SecondArrivalSpillsTheInlineRecord) {
  for (const bool with_policy : {false, true}) {
    SCOPED_TRACE(with_policy);
    MessagePool pool;
    UnexpectedQueue queue;
    ArrivalList ref;
    LastCandidatePolicy policy;
    const MsgHandle early = arrive(pool, queue, ref, /*src=*/3, /*tag=*/7);
    expect_same_queue(pool, queue, ref);
    const MsgHandle late = arrive(pool, queue, ref, /*src=*/1, /*tag=*/7);
    expect_same_queue(pool, queue, ref);

    MsgHandle want = early;
    if (with_policy) {
      const std::vector<MsgHandle> cand = ref.candidates(pool, 7);
      ASSERT_EQ(cand, (std::vector<MsgHandle>{early, late}));
      want = cand.back();
      ref.erase(want);
    } else {
      ASSERT_EQ(ref.match(pool, kAnySource, 7), early);
    }
    const MsgHandle got =
        queue.match(pool, kAnySource, 7, with_policy ? &policy : nullptr);
    EXPECT_EQ(got, want);
    EXPECT_EQ(policy.asked, with_policy ? 1 : 0);
    EXPECT_EQ(pool.ref(got).state, MessageRec::State::kMatched);
    pool.release(got);
    expect_same_queue(pool, queue, ref);

    // The survivor stays in the buckets; a wrong-source receive misses it.
    EXPECT_FALSE(queue.match(pool, 2, 7).valid());
    const MsgHandle rest = ref.match(pool, kAnySource, 7);
    EXPECT_EQ(queue.match(pool, kAnySource, 7, with_policy ? &policy : nullptr),
              rest);
    EXPECT_EQ(policy.asked, with_policy ? 1 : 0);
    pool.release(rest);
    expect_same_queue(pool, queue, ref);
  }
}

// A killed receiver holding one inline record releases it, and the pool's
// free list hands its slot back first, as for a mapped record.
TEST(TransportOracleTest, KilledReceiverReleasesTheInlineRecord) {
  MessagePool pool;
  UnexpectedQueue queue;
  ArrivalList ref;
  const MsgHandle h = arrive(pool, queue, ref, /*src=*/0, /*tag=*/4);
  expect_same_queue(pool, queue, ref);
  EXPECT_FALSE(queue.match(pool, 0, 5).valid());
  EXPECT_FALSE(queue.match(pool, 1, 4).valid());
  ASSERT_EQ(ref.clear_order(pool), std::vector<std::uint32_t>{h.index});
  queue.clear(pool);
  ref.clear();
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.get(h), nullptr);
  expect_same_queue(pool, queue, ref);
  const MsgHandle reused = pool.alloc();
  EXPECT_EQ(reused.index, h.index);
  pool.release(reused);

  // The emptied queue takes an inline record again.
  const MsgHandle next = arrive(pool, queue, ref, /*src=*/2, /*tag=*/4);
  expect_same_queue(pool, queue, ref);
  ASSERT_EQ(ref.match(pool, kAnySource, 4), next);
  EXPECT_EQ(queue.match(pool, kAnySource, 4), next);
  pool.release(next);
  expect_same_queue(pool, queue, ref);
}

// --- NbHandleTable vs an ascending scan ------------------------------------

struct RefHandle {
  bool open = false;
  bool is_send = false;
  bool posted = false;  ///< open receive still awaiting its message
  int src = kAnySource;
  int tag = 0;
};

/// The reference match: the lowest id whose posted receive accepts
/// (src, tag).
int ascending_scan(const std::vector<RefHandle>& handles, int src, int tag) {
  for (std::size_t id = 0; id < handles.size(); ++id) {
    const RefHandle& h = handles[id];
    if (h.open && h.posted && h.tag == tag &&
        (h.src == kAnySource || h.src == src)) {
      return static_cast<int>(id);
    }
  }
  return -1;
}

void handle_table_stream(std::uint64_t seed, int ids, int sources, int tags) {
  Xorshift rng{seed};
  NbHandleTable table;
  std::vector<RefHandle> ref(static_cast<std::size_t>(ids));
  for (int op = 0; op < 40'000; ++op) {
    const int r = rng.below(100);
    const int id = rng.below(ids);
    RefHandle& h = ref[static_cast<std::size_t>(id)];
    if (r < 35) {  // irecv / isend on a free id
      if (h.open) continue;
      const bool is_send = rng.below(4) == 0;
      NbHandleTable::Entry& e = table.open_slot(id, is_send);
      h = RefHandle{true, is_send, !is_send, kAnySource, 0};
      if (!is_send) {
        h.src = rng.below(3) == 0 ? kAnySource : rng.below(sources);
        h.tag = rng.below(tags);
        e.src = h.src;
        e.tag = h.tag;
        table.post_recv(id);
      }
    } else if (r < 80) {  // an arrival looks for a posted receive
      const int src = rng.below(sources);
      const int tag = rng.below(tags);
      const int want = ascending_scan(ref, src, tag);
      ASSERT_EQ(table.match_posted(src, tag), want) << "op " << op;
      if (want >= 0) {
        table.unpost(want);
        table.find(want)->data_arrived = true;
        ref[static_cast<std::size_t>(want)].posted = false;
      }
    } else if (r < 99) {  // waitall completes: close
      if (!h.open) continue;
      table.close(id);
      h.open = false;
    } else {  // task killed
      table.clear();
      for (RefHandle& x : ref) x.open = false;
    }
    const auto open = static_cast<std::size_t>(std::count_if(
        ref.begin(), ref.end(), [](const RefHandle& x) { return x.open; }));
    ASSERT_EQ(table.open_count(), open);
  }
}

TEST(TransportOracleTest, PostedReceiveMatchesAscendingScan) {
  handle_table_stream(0x9e3779b97f4a7c15ull, /*ids=*/16, /*sources=*/3,
                      /*tags=*/2);
  handle_table_stream(0x853c49e6748fea9bull, /*ids=*/64, /*sources=*/8,
                      /*tags=*/5);
}

}  // namespace
}  // namespace smilab
