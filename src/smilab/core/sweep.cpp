#include "smilab/core/sweep.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

namespace smilab {

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

  void worker() {
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
    impl_->threads.emplace_back([this] { impl_->worker(); });
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
  const int workers = std::min(jobs_, cells);
  if (workers <= 1) {
    // The historical serial path: same thread, same order, no pool.
    for (int i = 0; i < cells; ++i) fn(i);
    return;
  }

  // One drainer job per worker, pulling cell indices from a shared atomic
  // counter — the same work-stealing structure the dedicated-thread
  // implementation used, now running on the shared SweepPool worker loop.
  std::atomic<int> next{0};
  std::atomic<bool> abort{false};
  SweepPool pool{workers};
  for (int w = 0; w < workers; ++w) {
    pool.submit([&] {
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= cells || abort.load(std::memory_order_relaxed)) return;
        try {
          fn(i);
        } catch (...) {
          abort.store(true, std::memory_order_relaxed);
          throw;  // SweepPool records the first exception for drain()
        }
      }
    });
  }
  pool.drain();
}

}  // namespace smilab
