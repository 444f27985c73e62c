// Parallel experiment sweep: every table and figure in the paper is a grid
// of independent (config, seed) simulations, so the grid — not the event
// loop — is the parallel axis. ExperimentSweep fans cell indices across
// threads; each cell owns its System/Engine/RNG (no shared mutable state),
// and results land in a pre-sized vector at the cell's own grid index, so
// output order is deterministic and byte-identical to the serial run
// regardless of jobs or interleaving.
//
// Determinism contract (DESIGN.md §8): a cell function must be a pure
// function of its index — derive every seed from the index, never from
// shared counters or the thread id. Under that contract, jobs=N and jobs=1
// produce identical bytes; jobs=1 runs every cell in order on the calling
// thread and starts no thread (exactly the historical serial path).
//
// One drain loop: the caller claims cells from a shared counter until none
// is left, and waits at the end only for cells another thread has already
// claimed. Helpers are at most jobs - 1 jobs on a SweepPool; each runs one
// cell and queues its next turn at the back of the pool while cells are
// left, so jobs queued meanwhile run between a sweep's cells.
// - Called on a SweepPool worker (a serve simulation job, or a cell of an
//   enclosing sweep), the sweep borrows that pool, with no more helpers
//   than its other workers. A helper queued behind busy workers may start
//   after the sweep returned; it then finds no cell and touches only the
//   shared batch state. So a sweep cannot deadlock on a busy or one-worker
//   pool, and nested sweeps compose: an inner sweep's helpers take turns
//   on the outer sweep's pool with the outer helpers.
// - Called from any other thread, it runs on a transient pool of jobs - 1
//   threads, which the caller's own cells borrow in turn.
//
// SweepPool is the persistent form of the same worker threads: they outlive
// any one batch, so a long-lived consumer like `smilab serve` keeps warm
// workers across thousands of requests.
#pragma once

#include <functional>
#include <memory>
#include <vector>

namespace smilab {

/// Resolve a --jobs request: n >= 1 is taken as-is, anything else (0 or
/// negative, the "default" sentinel) becomes hardware concurrency.
[[nodiscard]] int effective_jobs(int requested);

/// Persistent worker pool.
///
/// Jobs are drained FIFO; completion is observable via drain(). A job that
/// throws records the first exception, which drain() rethrows. Consumers
/// that must not lose a worker to an exception (the serve daemon, a sweep's
/// helper jobs) catch inside the job itself.
class SweepPool {
 public:
  explicit SweepPool(int workers);
  ~SweepPool();
  SweepPool(const SweepPool&) = delete;
  SweepPool& operator=(const SweepPool&) = delete;

  [[nodiscard]] int workers() const { return workers_; }

  /// Enqueue a job. Never blocks on job execution.
  void submit(std::function<void()> job);

  /// Block until every submitted job has completed. Rethrows the first
  /// exception thrown by a job since the last drain() (further jobs are
  /// not cancelled; cancellation policy belongs to the caller's jobs).
  void drain();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;  // guarded_by(internal): Impl locks its mu
  int workers_;                 // guarded_by(init): fixed at construction
};

class ExperimentSweep {
 public:
  explicit ExperimentSweep(int jobs = 1) : jobs_(effective_jobs(jobs)) {}

  [[nodiscard]] int jobs() const { return jobs_; }

  /// Invoke fn(i) for i in [0, cells) on the calling thread and at most
  /// min(jobs, cells) - 1 helpers (see the header comment for which pool
  /// they run on). Blocks until every claimed cell completes. The first
  /// exception thrown by a cell is rethrown here (unclaimed cells are
  /// abandoned); it never reaches a pool's drain().
  void for_each(int cells, const std::function<void(int)>& fn) const;

  /// for_each, collecting fn(i) into result[i] (deterministic grid order).
  template <typename Result>
  [[nodiscard]] std::vector<Result> map(
      int cells, const std::function<Result(int)>& fn) const {
    std::vector<Result> results(static_cast<std::size_t>(cells));
    for_each(cells, [&](int i) {
      results[static_cast<std::size_t>(i)] = fn(i);
    });
    return results;
  }

 private:
  int jobs_;
};

}  // namespace smilab
