#include "lmo/parallel/interop.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "lmo/util/check.hpp"

namespace lmo::parallel {
namespace {

// Scheduler state shared by the waiting caller and every submitted task.
// Tasks hold it by shared_ptr: a worker still inside pump() when the last
// op completes (it drops the lock around submit) must find the mutex and
// counters alive after the caller has returned.
struct GraphRun {
  const model::OpGraph* graph = nullptr;
  ThreadPool* pool = nullptr;
  const std::function<void(model::OpId)>* body = nullptr;
  std::size_t limit = 0;

  std::mutex mutex;
  std::condition_variable done_cv;
  std::vector<int> remaining_deps;
  std::vector<model::OpId> ready;
  std::size_t in_flight = 0;
  std::size_t completed = 0;
  std::size_t peak = 0;
  std::exception_ptr first_error;
};

void pump(const std::shared_ptr<GraphRun>& run,
          std::unique_lock<std::mutex>& lock);

void run_op(const std::shared_ptr<GraphRun>& run, model::OpId id) {
  std::exception_ptr error;
  try {
    (*run->body)(id);
  } catch (...) {
    error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(run->mutex);
  --run->in_flight;
  ++run->completed;
  if (error && !run->first_error) run->first_error = error;
  if (!error) {
    for (model::OpId succ : run->graph->successors(id)) {
      if (--run->remaining_deps[static_cast<std::size_t>(succ)] == 0) {
        run->ready.push_back(succ);
      }
    }
  }
  pump(run, lock);
  run->done_cv.notify_all();
}

// Launches as many ready ops as the admission limit allows. Called with
// the mutex held; drops it around each submit.
void pump(const std::shared_ptr<GraphRun>& run,
          std::unique_lock<std::mutex>& lock) {
  while (!run->ready.empty() && run->in_flight < run->limit &&
         !run->first_error) {
    const model::OpId id = run->ready.back();
    run->ready.pop_back();
    ++run->in_flight;
    run->peak = std::max(run->peak, run->in_flight);
    lock.unlock();
    run->pool->submit([run, id] { run_op(run, id); });
    lock.lock();
  }
}

}  // namespace

InterOpStats run_graph(const model::OpGraph& graph, ThreadPool& pool,
                       int inter_op_parallelism,
                       const std::function<void(model::OpId)>& body) {
  LMO_CHECK_GE(inter_op_parallelism, 1);
  LMO_CHECK(graph.is_acyclic());
  const std::size_t n = graph.size();

  auto run = std::make_shared<GraphRun>();
  run->graph = &graph;
  run->pool = &pool;
  run->body = &body;
  run->limit = static_cast<std::size_t>(inter_op_parallelism);
  run->remaining_deps.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    run->remaining_deps[i] = static_cast<int>(
        graph.predecessors(static_cast<model::OpId>(i)).size());
    if (run->remaining_deps[i] == 0) {
      run->ready.push_back(static_cast<model::OpId>(i));
    }
  }

  InterOpStats stats;
  {
    std::unique_lock<std::mutex> lock(run->mutex);
    pump(run, lock);
    run->done_cv.wait(lock, [&] {
      return (run->completed == n && run->in_flight == 0) ||
             (run->first_error && run->in_flight == 0);
    });
    if (run->first_error) std::rethrow_exception(run->first_error);
    LMO_CHECK_EQ(run->completed, n);
    stats.peak_concurrency = run->peak;
  }
  stats.ops_executed = n;
  return stats;
}

}  // namespace lmo::parallel
