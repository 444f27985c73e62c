// SingleFlightMemo: a process-wide memo that computes each key's value once,
// however many threads ask for it at the same time. The NAS calibration memo
// (calibrate_nas_knob) and the SMI-free UnixBench baselines (run_unixbench)
// share it, so sweep cells and serve workers never repeat a computation
// whose result cannot differ.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <optional>

namespace smilab {

template <typename Key, typename Value>
class SingleFlightMemo {
 public:
  /// The value memoized under `key`. The first caller for a key installs a
  /// future under the mutex and runs `compute()` outside it; concurrent and
  /// later callers wait on that future. A failed computation reaches every
  /// waiter and leaves no entry, so a later caller computes it afresh.
  template <typename Compute>
  Value get(const Key& key, Compute&& compute) {
    std::shared_future<Value> value;
    std::optional<std::promise<Value>> fill;  // set for the first caller
    {
      const std::lock_guard<std::mutex> lock{mu_};
      auto [it, inserted] = memo_.try_emplace(key);
      if (inserted) it->second = fill.emplace().get_future().share();
      value = it->second;
    }
    if (fill) {
      computed_.fetch_add(1);
      try {
        fill->set_value(compute());
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock{mu_};
          memo_.erase(key);
        }
        fill->set_exception(std::current_exception());
      }
    }
    return value.get();
  }

  /// Computations started so far: first callers for a key, not memo hits.
  [[nodiscard]] std::uint64_t computed() const { return computed_.load(); }

 private:
  std::mutex mu_;
  std::map<Key, std::shared_future<Value>> memo_;  // guarded_by(mu_)
  std::atomic<std::uint64_t> computed_{0};
};

}  // namespace smilab
