// Bounded sink for completed-action records.
//
// A whole-program build keeps every rank's full program alive for the
// whole run; streaming sources (mpi/streaming.h) drop that, but renderers
// and wait-for diagnostics still want recent per-action history. The
// ActionRing keeps a fixed-capacity window of the most recently completed
// actions — O(capacity) memory regardless of run length — which
// chrome_trace renders as the trailing slice window when enabled.
//
// Statistics never come from the ring: residency, per-phase timings and
// slowdown accumulate online in TaskStats/SmmAccounting/OnlineStats, so
// bounding the ring loses diagnostics depth only, never accuracy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "smilab/time/sim_time.h"

namespace smilab {

/// One finished action, as the trace renderer needs it.
struct CompletedAction {
  std::int64_t task = 0;  ///< TaskId value
  int kind = -1;          ///< Action variant index (std::variant::index())
  SimTime start;
  SimTime end;
};

/// Fixed-capacity ring of the most recent CompletedActions. Capacity 0
/// disables recording entirely (the default: zero cost on the hot path).
class ActionRing {
 public:
  ActionRing() = default;
  explicit ActionRing(std::size_t capacity) { set_capacity(capacity); }

  /// Resize and clear. Called before a run, not during one.
  void set_capacity(std::size_t capacity) {
    slots_.assign(capacity, CompletedAction{});
    head_ = 0;
    recorded_ = 0;
  }

  [[nodiscard]] bool enabled() const { return !slots_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// Total actions ever offered to the ring (exceeds size() once wrapped).
  [[nodiscard]] std::int64_t recorded() const { return recorded_; }
  [[nodiscard]] std::size_t size() const {
    return recorded_ < static_cast<std::int64_t>(slots_.size())
               ? static_cast<std::size_t>(recorded_)
               : slots_.size();
  }

  void record(const CompletedAction& a) {
    if (slots_.empty()) return;
    slots_[head_] = a;
    head_ = (head_ + 1) % slots_.size();
    ++recorded_;
  }

  /// i-th retained record, oldest first (i in [0, size())).
  [[nodiscard]] const CompletedAction& at(std::size_t i) const {
    const std::size_t base =
        recorded_ < static_cast<std::int64_t>(slots_.size()) ? 0 : head_;
    return slots_[(base + i) % slots_.size()];
  }

 private:
  std::vector<CompletedAction> slots_;
  std::size_t head_ = 0;
  std::int64_t recorded_ = 0;
};

}  // namespace smilab
