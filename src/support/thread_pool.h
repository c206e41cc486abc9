// A small fixed-size thread pool: TaskRunner::RunSuite fans a suite's
// (task, trial) runs out over one. Work items are enqueued with Submit() and
// return std::futures; the pool drains and joins on destruction.
//
// Concurrency contract (see DESIGN.md "Performance architecture"): the GUI
// simulator is single-threaded by design — one gsim::Application instance per
// worker, never shared. The pool itself is only a task queue; determinism is
// achieved by the *callers* fixing seeds and aggregation order up front, so
// results are independent of scheduling.
#ifndef SRC_SUPPORT_THREAD_POOL_H_
#define SRC_SUPPORT_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace support {

class ThreadPool {
 public:
  // Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t threads);

  // Waits for queued work to finish, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  // Hardware concurrency with a sane floor (hardware_concurrency() may be 0).
  static size_t DefaultThreads();

  // Enqueues a callable; the returned future yields its result (or rethrows
  // its exception). Each task reports pool.wait_ms (enqueue -> start) and
  // pool.task_ms to the metrics registry; queue depth is observed at submit
  // time under the queue lock already being held. The submitter's trace
  // context (run id + current span id) is captured here and reinstalled on
  // the worker around the task, so spans opened inside the task parent to
  // the span that submitted the work, not to the worker's previous task.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    const int64_t enqueue_us = NowUs();
    QueuedJob job;
    job.ctx = CaptureSubmitContext();
    job.fn = [task, enqueue_us]() {
      const int64_t start_us = NowUs();
      (*task)();
      NoteTaskDone(enqueue_us, start_us, NowUs());
    };
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(job));
      NoteSubmit(queue_.size());
    }
    cv_.notify_one();
    return future;
  }

 private:
  // Mirror of support::TraceContext, spelled out so this header stays free of
  // trace/metrics includes (the Submit template is instantiated widely).
  struct SubmitContext {
    uint64_t run_id = 0;
    uint64_t span_id = 0;
  };
  struct QueuedJob {
    std::function<void()> fn;
    SubmitContext ctx;
  };

  void WorkerLoop();

  // Metrics plumbing, defined in the .cc so the Submit template stays free of
  // trace/metrics includes. NowUs is the tracing monotonic clock.
  static int64_t NowUs();
  static SubmitContext CaptureSubmitContext();
  static void NoteSubmit(size_t queue_depth);
  static void NoteTaskDone(int64_t enqueue_us, int64_t start_us, int64_t end_us);

  std::vector<std::thread> workers_;
  std::deque<QueuedJob> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace support

#endif  // SRC_SUPPORT_THREAD_POOL_H_
