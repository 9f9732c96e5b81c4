#include "lmo/parallel/threadpool.hpp"

#include <algorithm>

#include "lmo/util/check.hpp"

namespace lmo::parallel {

ThreadPool::ThreadPool(int num_threads) {
  LMO_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  size_.store(num_threads, std::memory_order_release);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    LMO_CHECK_MSG(!stop_, "submit on stopped ThreadPool");
    queue_.push(std::move(packaged));
    ++in_flight_;
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

std::size_t ThreadPool::completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_;
}

bool ThreadPool::job_open() const {
  return job_ != nullptr && job_->joined < job_->lanes &&
         job_->next.load(std::memory_order_relaxed) < job_->n;
}

void ThreadPool::run_chunks(Job& job, int lane) {
  while (!job.failed.load(std::memory_order_relaxed)) {
    const std::int64_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return;
    try {
      job.fn(job.ctx, i, lane);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!job.error) job.error = std::current_exception();
      job.failed.store(true, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::run_job(std::int64_t n, int max_lanes, ChunkFn fn,
                         void* ctx) {
  if (n <= 0) return;
  int lanes = static_cast<int>(
      std::min<std::int64_t>(n, static_cast<std::int64_t>(size()) + 1));
  if (max_lanes > 0) lanes = std::min(lanes, max_lanes);
  Job job;
  job.n = n;
  job.lanes = lanes;
  job.fn = fn;
  job.ctx = ctx;
  bool posted = false;
  if (lanes > 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (job_ == nullptr && !stop_) {
      job_ = &job;
      posted = true;
    }
  }
  if (!posted) {
    // Serial: no idle lane, or the slot is taken (possibly by the job this
    // call is a chunk of).
    for (std::int64_t i = 0; i < n; ++i) fn(ctx, i, 0);
    return;
  }
  cv_.notify_all();
  run_chunks(job, 0);
  {
    // Close the slot to late joiners, then wait out the lanes still
    // running a chunk.
    std::unique_lock<std::mutex> lock(mutex_);
    job_ = nullptr;
    job_cv_.wait(lock, [&job] { return job.active == 0; });
  }
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::resize(int num_threads) {
  LMO_CHECK_GE(num_threads, 1);
  std::lock_guard<std::mutex> resize_lock(resize_mutex_);
  const int current = static_cast<int>(workers_.size());
  if (num_threads == current) return;

  if (num_threads > current) {
    workers_.reserve(static_cast<std::size_t>(num_threads));
    for (int i = current; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
    size_.store(num_threads, std::memory_order_release);
    return;
  }

  // Shrink: drain every task submitted so far, then mark the excess for
  // retirement. Tasks racing in after the drain are fine — a woken worker
  // only retires when the queue is empty, and `num_threads` workers always
  // survive to serve them.
  const std::size_t excess = static_cast<std::size_t>(current - num_threads);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
    retire_ += excess;
  }
  cv_.notify_all();

  std::vector<std::thread::id> exited;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    retire_cv_.wait(lock, [this, excess] { return retired_.size() >= excess; });
    exited.swap(retired_);
  }
  for (const std::thread::id id : exited) {
    const auto it =
        std::find_if(workers_.begin(), workers_.end(),
                     [id](const std::thread& w) { return w.get_id() == id; });
    LMO_CHECK(it != workers_.end());
    it->join();
    workers_.erase(it);
  }
  size_.store(num_threads, std::memory_order_release);
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] {
      return stop_ || retire_ > 0 || !queue_.empty() || job_open();
    });
    if (job_open()) {
      Job& job = *job_;
      const int lane = job.joined++;
      ++job.active;
      lock.unlock();
      run_chunks(job, lane);
      lock.lock();
      // The caller frees `job` once active reaches 0; touch it no more.
      if (--job.active == 0) job_cv_.notify_all();
      continue;
    }
    if (stop_ && queue_.empty()) return;
    if (queue_.empty()) {
      if (retire_ > 0) {
        --retire_;
        retired_.push_back(std::this_thread::get_id());
        retire_cv_.notify_all();
        return;
      }
      continue;  // spurious wake
    }
    {
      std::packaged_task<void()> task = std::move(queue_.front());
      queue_.pop();
      lock.unlock();
      task();  // packaged_task captures exceptions into the future
    }
    lock.lock();
    --in_flight_;
    ++completed_;
    if (in_flight_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace lmo::parallel
