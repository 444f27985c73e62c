#include "smilab/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "smilab/core/fnv.h"
#include "smilab/sim/choice_hooks.h"

namespace smilab {

void Engine::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.seq = 0;  // retire the generation: stale EventIds can never match again
  s.cancelled = false;
  s.fn.reset();
  s.next_free = free_head_;
  free_head_ = slot;
}

void Engine::heap_push(SimTime t, std::uint64_t seq, std::uint32_t slot) {
  const Entry e{t, seq, slot};
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Engine::remove_root() {
  const Entry moved = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], moved)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moved;
}

EventId Engine::finish_schedule(SimTime t, std::uint32_t slot) {
  assert(t >= now_ && "cannot schedule in the past");
  Slot& s = slots_[slot];
  assert(s.fn);
  const std::uint64_t seq = next_seq_++;
  s.seq = seq;
  s.cancelled = false;
  if (t.ns() < win_hi_ns_) {
    ladder_insert(t, seq, slot);
  } else {
    heap_push(t, seq, slot);
    ++heap_spills_;
  }
  ++live_;
  return EventId{seq, slot};
}

EventId Engine::schedule_at(SimTime t, InlineCallback fn) {
  const std::uint32_t slot = acquire_slot();
  slots_[slot].fn = std::move(fn);
  return finish_schedule(t, slot);
}

EventId Engine::schedule_after(SimDuration d, InlineCallback fn) {
  assert(d >= SimDuration::zero() && "negative delay");
  return schedule_at(now_ + d, std::move(fn));
}

void Engine::cancel(EventId id) {
  if (!id.valid() || id.slot >= slots_.size()) return;
  Slot& s = slots_[id.slot];
  // Generation check: the slot only belongs to this id while its seq
  // matches. After the event fires (or a compaction reaps it) the slot is
  // retired or re-tenanted, so a late cancel cannot create a tombstone.
  if (s.seq != id.seq || s.cancelled) return;
  s.cancelled = true;
  s.fn.reset();  // release captured state eagerly
  --live_;
  ++cancelled_;
  ++tombstones_;
  // Keep tombstones a bounded fraction of the pending set so cancel-heavy
  // periodic sources (quantum timers raced by completions) cannot grow it
  // without limit between pops.
  if (tombstones_ > 64 && tombstones_ * 2 > heap_.size() + ladder_size_) {
    compact_tombstones();
  }
}

void Engine::compact_tombstones() {
  std::size_t out = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Entry& e = heap_[i];
    const Slot& s = slots_[e.slot];
    if (s.cancelled && s.seq == e.seq) {
      release_slot(e.slot);
      continue;
    }
    heap_[out++] = e;
  }
  heap_.resize(out);
  sweep_ladder_tombstones();
  tombstones_ = 0;
  // Floyd heap construction over the surviving entries.
  if (heap_.size() < 2) return;
  const std::size_t n = heap_.size();
  for (std::size_t start = (n - 2) / 4 + 1; start-- > 0;) {
    const Entry moved = heap_[start];
    std::size_t i = start;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], moved)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = moved;
  }
}

void Engine::drop_root_tombstones() {
  while (!heap_.empty()) {
    const Entry top = heap_[0];
    const Slot& s = slots_[top.slot];
    if (!(s.cancelled && s.seq == top.seq)) return;
    remove_root();
    release_slot(top.slot);
    --tombstones_;
  }
}

std::size_t Engine::bucket_index(SimTime t) const {
  // t may sit below win_lo_ when run_until advanced now_ into a gap before
  // the window anchor; those entries share bucket 0 (still the earliest
  // bucket, and within-bucket order is by (time, seq) regardless).
  const std::int64_t lo = win_lo_.ns();
  if (t.ns() <= lo) return 0;
  const auto idx = static_cast<std::size_t>(
      static_cast<std::uint64_t>(t.ns() - lo) >> width_shift_);
  return idx < kBucketCount ? idx : kBucketCount - 1;
}

void Engine::ladder_insert(SimTime t, std::uint64_t seq, std::uint32_t slot) {
  const Entry e{t, seq, slot};
  const std::size_t b = bucket_index(t);
  Bucket& bk = buckets_[b];
  if (!bk.sorted) {
    // Same-instant masses and refills from the heap append in (time, seq)
    // order; ladder_peek sorts only a bucket that saw an exception.
    if (t.ns() < bk.last_ns) bk.in_order = false;
    bk.last_ns = t.ns();
    bk.v.push_back(e);
  } else {
    // Keep the bucket sorted: new entries carry the largest seq, so the
    // insertion point is always at or after the drain cursor. A position
    // exactly at the cursor (the common now()+epsilon reschedule) reuses
    // the gap the cursor left at the front; otherwise shift whichever side
    // is shorter.
    auto pos = std::upper_bound(bk.v.begin() + static_cast<std::ptrdiff_t>(
                                                   bk.head),
                                bk.v.end(), e, Before{});
    const auto at = static_cast<std::size_t>(pos - bk.v.begin());
    if (at == bk.head && bk.head > 0) {
      bk.v[--bk.head] = e;
    } else if (at - bk.head < bk.v.size() - at && bk.head > 0) {
      std::move(bk.v.begin() + static_cast<std::ptrdiff_t>(bk.head),
                bk.v.begin() + static_cast<std::ptrdiff_t>(at),
                bk.v.begin() + static_cast<std::ptrdiff_t>(bk.head) - 1);
      --bk.head;
      bk.v[at - 1] = e;
    } else {
      bk.v.insert(pos, e);
    }
  }
  if (b < scan_hint_) scan_hint_ = b;
  ++ladder_size_;
  if (t.ns() != last_insert_ns_) {
    last_insert_ns_ = t.ns();
    ++win_inserted_;
  }
}

// Re-anchor the window at the heap root and pull every in-horizon heap
// entry into the buckets. The bucket width re-derives from the event-
// horizon statistics of the window just drained, counted in distinct
// instants (consecutive same-time inserts count once): more than ~8 per
// bucket halves the width (sorted-insert memmoves were getting long), under
// ~1/4 per bucket doubles it (pops were mostly scanning empty buckets and
// refilling). A same-instant mass lands in one bucket, appended in order,
// whatever the width, so counting its members would only shrink the window
// and spill the next wave into the heap. Deterministic: inputs are
// simulation state only.
bool Engine::refill_window() {
  if (tombstones_ != 0) drop_root_tombstones();
  if (heap_.empty()) {
    win_hi_ns_ = std::numeric_limits<std::int64_t>::min();
    return false;
  }
  if (buckets_.empty()) buckets_.resize(kBucketCount);
  if (win_inserted_ > kBucketCount * 8) {
    width_shift_ = std::max(kMinBucketWidthShift, width_shift_ - 1);
  } else if (win_inserted_ * 4 < kBucketCount) {
    width_shift_ = std::min(kMaxBucketWidthShift, width_shift_ + 1);
  }
  win_inserted_ = 0;
  ++refills_;
  const std::int64_t lo = heap_[0].time.ns();
  const std::int64_t span = static_cast<std::int64_t>(kBucketCount)
                            << width_shift_;
  win_lo_ = SimTime{lo};
  win_hi_ns_ = lo > std::numeric_limits<std::int64_t>::max() - span
                   ? std::numeric_limits<std::int64_t>::max()
                   : lo + span;
  scan_hint_ = 0;
  while (!heap_.empty() && heap_[0].time.ns() < win_hi_ns_) {
    const Entry e = heap_[0];
    remove_root();
    const Slot& s = slots_[e.slot];
    if (s.cancelled && s.seq == e.seq) {
      release_slot(e.slot);
      --tombstones_;
      continue;
    }
    ladder_insert(e.time, e.seq, e.slot);
  }
  return true;
}

const Engine::Entry* Engine::ladder_peek() {
  for (;;) {
    if (ladder_size_ != 0) {
      for (std::size_t b = scan_hint_; b < kBucketCount; ++b) {
        Bucket& bk = buckets_[b];
        while (bk.head < bk.v.size()) {
          if (!bk.sorted) {
            if (!bk.in_order) {
              std::sort(bk.v.begin(), bk.v.end(), Before{});
              ++bucket_sorts_;
            }
            bk.sorted = true;
          }
          const Entry& e = bk.v[bk.head];
          const Slot& s = slots_[e.slot];
          if (s.cancelled && s.seq == e.seq) {
            release_slot(e.slot);
            --tombstones_;
            --ladder_size_;
            ++bk.head;
            continue;
          }
          scan_hint_ = b;
          return &e;
        }
        bk.reset();
      }
    }
    // Window drained; pull the next horizon out of the overflow heap.
    if (!refill_window()) return nullptr;
  }
}

void Engine::ladder_pop_front() {
  Bucket& bk = buckets_[scan_hint_];
  --ladder_size_;
  if (++bk.head == bk.v.size()) bk.reset();
}

void Engine::sweep_ladder_tombstones() {
  if (ladder_size_ == 0) return;
  for (Bucket& bk : buckets_) {
    if (bk.v.empty()) continue;
    // Stable in-place removal from the cursor on preserves the drain
    // position, any established sort and the append order's flag.
    std::size_t out = bk.head;
    for (std::size_t i = bk.head; i < bk.v.size(); ++i) {
      const Entry& e = bk.v[i];
      const Slot& s = slots_[e.slot];
      if (s.cancelled && s.seq == e.seq) {
        release_slot(e.slot);
        --ladder_size_;
        continue;
      }
      bk.v[out++] = e;
    }
    bk.v.resize(out);
    if (bk.head == bk.v.size()) bk.reset();
  }
}

// With a tie-break policy installed (model checking only), the entries
// sharing the minimal instant are the candidates. Every live one sits in
// the current bucket from the cursor on, in (time, seq) order: equal times
// share a bucket, and the heap holds only entries past the window. They are
// presented in that order, so decision 0 is the entry the plain pop fires.
// The pick is rotated to the cursor, the entries it passes keep their
// order, and pop_next consumes the cursor before the callback runs, so the
// bucket is sorted again before anything is inserted.
void Engine::rotate_tie_pick() {
  Bucket& bk = buckets_[scan_hint_];
  const SimTime t0 = bk.v[bk.head].time;
  const auto live = [this](const Entry& e) {
    const Slot& s = slots_[e.slot];
    return !(s.cancelled && s.seq == e.seq);
  };
  std::size_t n = 0;
  for (std::size_t i = bk.head; i < bk.v.size() && bk.v[i].time == t0; ++i) {
    if (live(bk.v[i])) ++n;
  }
  if (n < 2) return;
  std::size_t pick = tie_break_->choose(ChoiceKind::kEventTie, n);
  assert(pick < n && "tie-break decision out of range");
  std::size_t at = bk.head;  // skip tombstones to the pick-th live entry
  while (!live(bk.v[at]) || pick-- != 0) ++at;
  const auto first = bk.v.begin() + static_cast<std::ptrdiff_t>(bk.head);
  const auto chosen = bk.v.begin() + static_cast<std::ptrdiff_t>(at);
  std::rotate(first, chosen, chosen + 1);
}

bool Engine::pop_next() {
  if (tombstones_ != 0) drop_root_tombstones();
  // The heap is the far-future tier: ladder_peek is the global minimum
  // (refilling the window from the heap as needed).
  const Entry* next = ladder_peek();
  if (next == nullptr) return false;
  if (tie_break_ != nullptr) rotate_tie_pick();
  const Entry top = *next;
  Slot& slot = slots_[top.slot];
  assert(slot.seq == top.seq);
  assert(top.time >= now_);
  now_ = top.time;
  // Move the callback out before executing: the callback may schedule
  // events (growing the slab) or cancel others (compacting the queue).
  InlineCallback fn = std::move(slot.fn);
  ladder_pop_front();
  release_slot(top.slot);
  --live_;
  ++executed_;
  fn();
  return true;
}

std::uint64_t Engine::pending_time_digest() const {
  // Sum of per-entry finalized hashes: independent of heap layout, seq
  // numbering, and tombstone positions — only live entry times count.
  std::uint64_t acc = 0;
  for (const Entry& e : heap_) {
    const Slot& s = slots_[e.slot];
    if (s.seq != e.seq || s.cancelled) continue;  // tombstone
    acc += splitmix64(static_cast<std::uint64_t>(e.time.ns()));
  }
  for (const Bucket& bk : buckets_) {
    for (std::size_t i = bk.head; i < bk.v.size(); ++i) {
      const Entry& e = bk.v[i];
      const Slot& s = slots_[e.slot];
      if (s.seq != e.seq || s.cancelled) continue;
      acc += splitmix64(static_cast<std::uint64_t>(e.time.ns()));
    }
  }
  return acc;
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_ && pop_next()) {
  }
}

bool Engine::run_until(SimTime t) {
  stopped_ = false;
  while (!stopped_) {
    // Peek through tombstones without executing.
    if (tombstones_ != 0) drop_root_tombstones();
    const Entry* next = ladder_peek();
    if (next == nullptr) break;
    if (next->time > t) {
      now_ = t;
      return true;
    }
    pop_next();
  }
  if (now_ < t) now_ = t;
  return live_ != 0;
}

}  // namespace smilab
