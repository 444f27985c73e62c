#include "smilab/core/sweep.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

namespace smilab {

namespace {

/// The pool whose threads this thread's sweeps may borrow, and how many of
/// them are not this thread: a worker's own pool, or the transient pool of
/// the sweep this thread is draining.
struct Borrowable {
  SweepPool* pool = nullptr;
  int others = 0;
};
thread_local Borrowable borrowable;

/// One for_each's cells, shared by its caller and its helper jobs. Helpers
/// hold it by shared_ptr, so one that starts after the sweep returned still
/// finds it alive, claims nothing, and never reaches `fn`, which is
/// dereferenced only for a cell claimed while the caller waits.
struct Batch {
  Batch(int count, const std::function<void(int)>& body)
      : cells(count), fn(&body) {}

  const int cells;
  const std::function<void(int)>* const fn;
  std::mutex mu;
  std::condition_variable idle_cv;  // the caller waits for running == 0
  int next = 0;                     // guarded_by(mu) first unclaimed cell
  int running = 0;                  // guarded_by(mu) claimed, unfinished
  std::exception_ptr error;         // guarded_by(mu) first cell failure

  /// Claim the first unclaimed cell and count it as running, or return -1
  /// once none is left or one has failed.
  int claim() {
    const std::lock_guard<std::mutex> lock{mu};
    if (next >= cells || error) return -1;
    ++running;
    return next++;
  }

  /// Run claimed cell i and say whether unclaimed cells are left. Never
  /// throws: a cell's exception is kept for the caller and ends claims.
  bool run(int i) {
    std::exception_ptr failure;
    try {
      (*fn)(i);
    } catch (...) {
      failure = std::current_exception();
    }
    const std::lock_guard<std::mutex> lock{mu};
    if (failure && !error) error = failure;
    return next < cells && !error;
  }

  /// Count a claimed cell as finished, waking the caller at the last one.
  void finish() {
    const std::lock_guard<std::mutex> lock{mu};
    if (--running == 0) idle_cv.notify_all();
  }
};

/// One helper turn: run one cell, then queue the next turn at the back of
/// `pool` while cells are left. Jobs queued meanwhile (another request's
/// miss) thus run between this sweep's cells, not after all of them.
void help(const std::shared_ptr<Batch>& batch, SweepPool* pool) {
  const int i = batch->claim();
  if (i < 0) return;
  // Queued while cell i still counts as running, so the caller cannot
  // return, and its transient pool cannot stop, during submit().
  if (batch->run(i)) pool->submit([batch, pool] { help(batch, pool); });
  batch->finish();
}

}  // namespace

int effective_jobs(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

struct SweepPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;   // workers wait for jobs / stop
  std::condition_variable idle_cv;   // drain() waits for quiescence
  std::deque<std::function<void()>> queue;  // guarded_by(mu)
  std::exception_ptr first_error;           // guarded_by(mu)
  int running = 0;                          // guarded_by(mu) executing jobs
  bool stop = false;                        // guarded_by(mu)
  // Filled by the ctor before any worker runs, joined by the dtor after
  // stop; never touched while workers are live.
  std::vector<std::thread> threads;  // guarded_by(init)

  void worker(SweepPool* owner) {
    borrowable = {owner, owner->workers() - 1};
    std::unique_lock<std::mutex> lock{mu};
    for (;;) {
      work_cv.wait(lock, [&] { return stop || !queue.empty(); });
      if (queue.empty()) return;  // stop requested and nothing left
      std::function<void()> job = std::move(queue.front());
      queue.pop_front();
      ++running;
      lock.unlock();
      try {
        job();
      } catch (...) {
        const std::lock_guard<std::mutex> elock{mu};
        if (!first_error) first_error = std::current_exception();
      }
      lock.lock();
      --running;
      if (queue.empty() && running == 0) idle_cv.notify_all();
    }
  }
};

SweepPool::SweepPool(int workers)
    : impl_(std::make_unique<Impl>()), workers_(effective_jobs(workers)) {
  impl_->threads.reserve(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    impl_->threads.emplace_back([this] { impl_->worker(this); });
  }
}

SweepPool::~SweepPool() {
  {
    const std::lock_guard<std::mutex> lock{impl_->mu};
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->threads) t.join();
}

void SweepPool::submit(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock{impl_->mu};
    impl_->queue.push_back(std::move(job));
  }
  impl_->work_cv.notify_one();
}

void SweepPool::drain() {
  std::unique_lock<std::mutex> lock{impl_->mu};
  impl_->idle_cv.wait(lock, [&] {
    return impl_->queue.empty() && impl_->running == 0;
  });
  if (impl_->first_error) {
    std::exception_ptr error = impl_->first_error;
    impl_->first_error = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ExperimentSweep::for_each(int cells,
                               const std::function<void(int)>& fn) const {
  if (cells <= 0) return;
  const int helpers = std::min(jobs_, cells) - 1;
  const auto batch = std::make_shared<Batch>(cells, fn);
  // Declared before the wait below, so the transient pool joins its
  // threads only after the caller has released the batch lock.
  std::optional<SweepPool> transient;
  Borrowable pool = borrowable;
  if (pool.pool == nullptr && helpers > 0) {
    transient.emplace(helpers);
    pool = {&*transient, helpers};
  }
  SweepPool* const lender = pool.pool;
  for (int h = 0; h < std::min(helpers, pool.others); ++h) {
    lender->submit([batch, lender] { help(batch, lender); });
  }
  // The caller's own cells borrow the same pool. run() never throws, so
  // the previous value is always restored.
  const Borrowable saved = borrowable;
  borrowable = pool;
  for (int i = batch->claim(); i >= 0; i = batch->claim()) {
    batch->run(i);
    batch->finish();
  }
  borrowable = saved;
  std::unique_lock<std::mutex> lock{batch->mu};
  batch->idle_cv.wait(lock, [&] { return batch->running == 0; });
  if (batch->error) {
    const std::exception_ptr error = batch->error;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace smilab
