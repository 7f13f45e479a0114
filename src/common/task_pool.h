// Shared background executor: a fixed pool of worker threads that LSM trees
// submit flush/merge work to. One pool serves every partition of a cluster
// node (ROADMAP "Parallelism"), so background rewrites are bounded by the
// machine's core count instead of exploding thread-per-feed.
//
// Completion and cancellation are per-owner, not pool-wide: each owner (e.g.
// one LsmTree) funnels its submissions through a TaskGroup, which lets it
// wait for exactly its own tasks and skip the ones that have not started yet
// when it tears down. A TaskGroup without a pool is a caller-runs executor:
// the same submissions run on the submitting thread before Submit returns,
// which is how trees without a pool stay deterministic (unit tests, the
// figure benches, crash-recovery replay) on the one scheduling path.
#ifndef TC_COMMON_TASK_POOL_H_
#define TC_COMMON_TASK_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tc {

/// Two-lane scheduling: every worker drains the high lane before touching the
/// normal lane. Flush builds ride high (they gate writer admission — a full
/// memtable backlog stalls every ingest thread behind
/// max_pending_flush_builds); merges ride normal (they only amortize read
/// cost). Starvation the other way is not a concern: flush builds are short
/// and bounded by the pending cap, so the high lane always drains.
enum class TaskPriority { kNormal = 0, kHigh = 1 };

class TaskPool {
 public:
  /// `threads == 0` sizes the pool to the hardware (DefaultThreadCount).
  explicit TaskPool(size_t threads = 0);
  /// Runs every queued task to completion, then joins the workers. Submitted
  /// tasks must not outlive the state they capture: owners of that state
  /// (e.g. LsmTree) wait for their own tasks — via TaskGroup — before
  /// destruction.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueues `fn` for execution on some worker thread. Quiescence is the
  /// submitter's concern: owners track their own in-flight work (LsmTree
  /// submits through a TaskGroup), so the pool needs no idle tracking.
  void Submit(std::function<void()> fn,
              TaskPriority priority = TaskPriority::kNormal);

  size_t thread_count() const { return workers_.size(); }

  /// max(1, std::thread::hardware_concurrency()) — the nproc-aware default.
  static size_t DefaultThreadCount();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for tasks
  std::deque<std::function<void()>> queue_;       // normal lane
  std::deque<std::function<void()>> high_queue_;  // drained first
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// One owner's slice of a shared TaskPool: tracks the tasks this owner
/// submitted so it can wait for "all my work done" without a pool-wide
/// barrier, and cancel work that has not started yet.
///
/// Built on a null pool the group is caller-runs: Submit runs the task on the
/// calling thread through a per-thread trampoline. A task submitted by a
/// running task (of any caller-runs group on this thread) is queued and runs
/// after that task returns, in submission order, so the outermost Submit
/// returns only once the whole chain it started has run. Priorities are
/// ignored (there is no queue to jump), and Wait() returns at once: outside a
/// task nothing submitted by this thread is left, and inside one the queued
/// tasks cannot run before it returns.
///
/// Every task receives `canceled`: a task dequeued after Cancel() gets true
/// and should perform only its (cheap) completion bookkeeping — clearing a
/// scheduled flag, waking waiters — and skip its (expensive) payload. Running
/// tasks are never interrupted. Wait() returns once every submitted task has
/// executed, normally or as a cancel-skip, so state the tasks capture (e.g.
/// the owning tree) may be destroyed immediately after Cancel() + Wait().
class TaskGroup {
 public:
  explicit TaskGroup(TaskPool* pool);
  /// Waits for outstanding tasks (without canceling them).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `fn` on the pool (or runs it, caller-runs); `fn(true)` is
  /// invoked if the group was canceled before the task started.
  void Submit(std::function<void(bool canceled)> fn,
              TaskPriority priority = TaskPriority::kNormal);

  /// Marks the group canceled: tasks not yet started run as cancel-skips.
  /// Sticky; meant for owner teardown.
  void Cancel();

  /// Blocks until every task submitted so far (including tasks submitted by
  /// other tasks while waiting) has finished or been skipped. Returns at once
  /// in caller-runs mode.
  void Wait();

  size_t outstanding() const;

 private:
  // Shared with the wrapped tasks so a straggler finishing after the group
  // object is gone (never the case when owners Wait(), but cheap insurance)
  // touches live memory.
  struct Shared {
    mutable std::mutex mu;
    std::condition_variable cv;
    size_t outstanding = 0;
    bool canceled = false;
  };

  TaskPool* pool_;  // null = caller-runs
  std::shared_ptr<Shared> shared_;
};

}  // namespace tc

#endif  // TC_COMMON_TASK_POOL_H_
