// Resizable thread pool with a shared FIFO queue and one fork-join slot.
// This is the real execution substrate for the runtime's asynchronous
// offload tasks (submit) and its intra-op compute (parallel_for); its size
// is what LM-Offload's parallelism controller decides — statically at plan
// time, and online via resize() when the adaptive controller re-runs
// Algorithm 3 between decode blocks. Keep it boring and correct: mutex +
// condvar, no lock-free cleverness. submit() tasks are ≥ tens of
// microseconds; a parallel_for chunk is ~10 µs (a GEMM column panel range,
// an activation element range, a few attention heads), which is why the
// fork-join path allocates nothing and wakes workers with one notify.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace lmo::parallel {

class ThreadPool {
 public:
  /// Spawn `num_threads` workers (≥ 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_.load(std::memory_order_acquire); }

  /// Enqueue a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

  /// Block until every task submitted so far has finished.
  void wait_idle();

  /// Number of tasks executed since construction (parallel_for chunks are
  /// not tasks and are not counted).
  std::size_t completed() const;

  /// Fork-join: call fn(i, lane) once for every i in [0, n) and return when
  /// all calls have returned. The calling thread takes part as lane 0 and
  /// idle workers join as lanes 1, 2, …; a lane is always below
  /// min(n, size() + 1) and, when `max_lanes` > 0, below `max_lanes`, and no
  /// two concurrent calls share a lane — so fn may index caller-owned
  /// per-lane scratch by it. Chunks are claimed in ascending i. Nothing is
  /// allocated: the job lives on the caller's stack, and fn is called
  /// through a plain function pointer. If a chunk throws, chunks not yet
  /// started are skipped and the first exception is rethrown once every
  /// started chunk has finished. While another parallel_for holds the
  /// pool's one job slot (a second caller, or a chunk calling back into
  /// its own pool), this call runs every chunk on the calling thread.
  template <class Fn>
  void parallel_for(std::int64_t n, Fn&& fn, int max_lanes = 0) {
    using F = std::remove_reference_t<Fn>;
    run_job(n, max_lanes,
            [](void* f, std::int64_t i, int lane) {
              (*static_cast<F*>(f))(i, lane);
            },
            const_cast<void*>(static_cast<const void*>(&fn)));
  }

  /// Change the worker count to `num_threads` (≥ 1). Growing spawns the
  /// extra workers immediately. Shrinking drains first — the call blocks
  /// until every task submitted so far has run — then retires the excess
  /// workers; retiring workers still prefer executing any task a racing
  /// submit() enqueued (or any parallel_for chunk) over exiting, and the
  /// surviving workers outnumber the retirements, so no task is ever
  /// stranded. Safe to call concurrently with submit()/wait_idle()/
  /// parallel_for(); concurrent resize() calls serialize against each
  /// other.
  void resize(int num_threads);

 private:
  using ChunkFn = void (*)(void*, std::int64_t, int);

  /// One parallel_for call, on the caller's stack. `next` hands out chunk
  /// indices; the other fields are guarded by mutex_.
  struct Job {
    std::int64_t n = 0;
    int lanes = 1;    ///< lane cap
    int joined = 1;   ///< lanes handed out; the caller is lane 0
    int active = 0;   ///< workers still inside the job
    ChunkFn fn = nullptr;
    void* ctx = nullptr;
    std::atomic<std::int64_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
  };

  void run_job(std::int64_t n, int max_lanes, ChunkFn fn, void* ctx);
  /// Claim and run chunks of `job` as `lane` until none are left.
  void run_chunks(Job& job, int lane);
  /// True when a worker may join the posted job (mutex_ held).
  bool job_open() const;
  void worker_loop();

  /// Guards workers_ against concurrent resize(). Never held while waiting
  /// on cv_/idle_cv_.
  std::mutex resize_mutex_;
  std::vector<std::thread> workers_;
  std::atomic<int> size_{0};

  std::queue<std::packaged_task<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::condition_variable retire_cv_;
  std::condition_variable job_cv_;  ///< a worker left the posted job
  Job* job_ = nullptr;              ///< the one fork-join slot
  std::size_t in_flight_ = 0;
  std::size_t completed_ = 0;
  std::size_t retire_ = 0;  ///< workers asked to exit by a shrink
  std::vector<std::thread::id> retired_;  ///< exited, awaiting join
  bool stop_ = false;
};

}  // namespace lmo::parallel
