#include "par/thread_pool.h"

#include <atomic>
#include <exception>

#include "util/telemetry.h"
#include "util/timer.h"

namespace omega::par {

struct ThreadPool::Batch {
  std::atomic<std::size_t> remaining{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  /// One slot per task, indexed by submission order. Each slot is written by
  /// at most one thread (the one that ran the task) before its finish_one(),
  /// and only read after `remaining` hits zero, so no lock is needed; the
  /// acq_rel decrement publishes the writes to the waiting caller.
  std::vector<std::exception_ptr> errors;

  void finish_one() {
    // Decrement under the lock: a waiter that sees zero has then already
    // waited for this thread to be done with the batch, which lives on the
    // waiter's stack and dies as soon as run_blocking returns.
    const std::lock_guard<std::mutex> lock(done_mutex);
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_cv.notify_all();
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) {
  // Base 1.0: queue depth is a small-integer distribution, so buckets are
  // <=1, <=2, <=4, ... instead of nanosecond-scaled bounds.
  queue_depth_hist_ = &util::telemetry::histogram("pool.queue_depth", 1.0);
  task_seconds_hist_ = &util::telemetry::histogram("pool.task_seconds");
  tasks_total_ = &util::telemetry::counter("pool.tasks_total");
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run_item(Item& item) {
  const util::Timer timer;
  if (item.batch == nullptr) {
    // submit() task: the wrapper owns its promise and never throws.
    item.task();
    task_seconds_hist_->record(timer.seconds());
    tasks_total_->add(1);
    return;
  }
  try {
    item.task();
  } catch (...) {
    item.batch->errors[item.index] = std::current_exception();
  }
  task_seconds_hist_->record(timer.seconds());
  tasks_total_->add(1);
  item.batch->finish_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    run_item(item);
  }
}

void ThreadPool::run_blocking(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  Batch batch;
  batch.remaining.store(tasks.size(), std::memory_order_relaxed);
  batch.errors.resize(tasks.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      queue_.push_back(Item{&batch, i, std::move(tasks[i])});
      queue_depth_hist_->record(static_cast<double>(queue_.size()));
    }
  }
  cv_.notify_all();

  // The caller drains tasks belonging to any batch; this keeps a 1-thread
  // pool (or a pool saturated by other callers) deadlock-free.
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (queue_.empty()) break;
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    run_item(item);
  }

  std::unique_lock<std::mutex> lock(batch.done_mutex);
  batch.done_cv.wait(lock, [&batch] {
    return batch.remaining.load(std::memory_order_acquire) == 0;
  });
  for (const std::exception_ptr& error : batch.errors) {
    if (error) std::rethrow_exception(error);
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  auto promise = std::make_shared<std::promise<void>>();
  std::future<void> future = promise->get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(Item{nullptr, 0, [promise, task = std::move(task)] {
                            try {
                              task();
                              promise->set_value();
                            } catch (...) {
                              promise->set_exception(std::current_exception());
                            }
                          }});
    queue_depth_hist_->record(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return future;
}

StealScheduler::StealScheduler(std::size_t workers) {
  queues_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
}

void StealScheduler::assign(std::size_t worker, std::vector<std::size_t> items) {
  Queue& queue = *queues_.at(worker);
  std::lock_guard<std::mutex> lock(queue.mutex);
  queue.items.insert(queue.items.end(), items.begin(), items.end());
}

std::optional<StealScheduler::Claim> StealScheduler::claim(std::size_t worker) {
  {
    Queue& own = *queues_.at(worker);
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.items.empty()) {
      const std::size_t item = own.items.front();
      own.items.pop_front();
      return Claim{item, false};
    }
  }
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    Queue& victim = *queues_[(worker + offset) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (victim.items.empty()) continue;
    const std::size_t item = victim.items.back();
    victim.items.pop_back();
    return Claim{item, true};
  }
  return std::nullopt;
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  std::size_t grain,
                  const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  auto next = std::make_shared<std::atomic<std::size_t>>(begin);
  const std::size_t lanes = pool.size() + 1;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    tasks.emplace_back([next, begin, end, grain, &body] {
      (void)begin;
      for (;;) {
        const std::size_t start = next->fetch_add(grain, std::memory_order_relaxed);
        if (start >= end) return;
        const std::size_t stop = std::min(end, start + grain);
        for (std::size_t i = start; i < stop; ++i) body(i);
      }
    });
  }
  pool.run_blocking(std::move(tasks));
}

void parallel_for_chunks(
    ThreadPool& pool, std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& chunk_body) {
  if (begin >= end) return;
  const std::size_t lanes = pool.size() + 1;
  const std::size_t total = end - begin;
  const std::size_t chunk = (total + lanes - 1) / lanes;
  std::vector<std::function<void()>> tasks;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::size_t lo = begin + lane * chunk;
    if (lo >= end) break;
    const std::size_t hi = std::min(end, lo + chunk);
    tasks.emplace_back([lo, hi, &chunk_body] { chunk_body(lo, hi); });
  }
  pool.run_blocking(std::move(tasks));
}

}  // namespace omega::par
