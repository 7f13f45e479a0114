#include "common/task_pool.h"

namespace tc {
namespace {

// The caller-runs trampoline: while a caller-runs task executes on this
// thread, the tasks it (transitively) submits queue here and run after it
// returns, in submission order. Null when no such task is running.
thread_local std::deque<std::function<void()>>* tls_caller_queue = nullptr;

void RunOnCaller(std::function<void()> task) {
  if (tls_caller_queue != nullptr) {
    tls_caller_queue->push_back(std::move(task));
    return;
  }
  std::deque<std::function<void()>> queue;
  tls_caller_queue = &queue;
  task();
  while (!queue.empty()) {
    std::function<void()> next = std::move(queue.front());
    queue.pop_front();
    next();
  }
  tls_caller_queue = nullptr;
}

}  // namespace

size_t TaskPool::DefaultThreadCount() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

TaskPool::TaskPool(size_t threads) {
  if (threads == 0) threads = DefaultThreadCount();
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void TaskPool::Submit(std::function<void()> fn, TaskPriority priority) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (priority == TaskPriority::kHigh) {
      high_queue_.push_back(std::move(fn));
    } else {
      queue_.push_back(std::move(fn));
    }
  }
  work_cv_.notify_one();
}

void TaskPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] {
      return stop_ || !high_queue_.empty() || !queue_.empty();
    });
    // Drain both queues even when stopping: a discarded task would leave its
    // owner's TaskGroup outstanding count nonzero forever.
    std::deque<std::function<void()>>& q =
        !high_queue_.empty() ? high_queue_ : queue_;
    if (q.empty()) return;
    std::function<void()> task = std::move(q.front());
    q.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

TaskGroup::TaskGroup(TaskPool* pool)
    : pool_(pool), shared_(std::make_shared<Shared>()) {}

TaskGroup::~TaskGroup() { Wait(); }

void TaskGroup::Submit(std::function<void(bool)> fn, TaskPriority priority) {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    ++shared_->outstanding;
  }
  std::function<void()> task = [shared = shared_, fn = std::move(fn)] {
    bool canceled;
    {
      std::lock_guard<std::mutex> lock(shared->mu);
      canceled = shared->canceled;
    }
    fn(canceled);
    // Decrement AFTER the task body: Wait() returning guarantees no task is
    // still touching the state it captured.
    {
      std::lock_guard<std::mutex> lock(shared->mu);
      --shared->outstanding;
    }
    shared->cv.notify_all();
  };
  if (pool_ == nullptr) {
    RunOnCaller(std::move(task));
  } else {
    pool_->Submit(std::move(task), priority);
  }
}

void TaskGroup::Cancel() {
  std::lock_guard<std::mutex> lock(shared_->mu);
  shared_->canceled = true;
}

void TaskGroup::Wait() {
  if (pool_ == nullptr) return;
  std::unique_lock<std::mutex> lock(shared_->mu);
  shared_->cv.wait(lock, [this] { return shared_->outstanding == 0; });
}

size_t TaskGroup::outstanding() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->outstanding;
}

}  // namespace tc
