// Bounded blocking multi-producer/multi-consumer queue — the feed→writer
// handoff of the batched ingestion front end (alongside TaskPool, which plays
// the same role for background flush/merge work). Producers block while the
// queue is full, which is the backpressure that composes with the LSM layer's
// own pending-flush-build stall: a slow partition writer fills its queue, and
// the feeds producing for it wait instead of ballooning memory.
//
// Consumers can wait with a deadline (PopUntil) so a partially-formed commit
// group still flushes when the GroupCommitConfig time cap expires even if
// no further input arrives.
#ifndef TC_COMMON_MPMC_QUEUE_H_
#define TC_COMMON_MPMC_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>

namespace tc {

template <typename T>
class MpmcQueue {
 public:
  enum class PopResult { kItem, kTimeout, kClosed };

  explicit MpmcQueue(size_t capacity) : capacity_(capacity < 1 ? 1 : capacity) {}

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Blocks while the queue is full. Returns false (dropping `item`) if the
  /// queue was closed — producers racing a shutdown get a clean refusal
  /// instead of a hang.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] { return queue_.size() < capacity_ || closed_; });
    if (closed_) return false;
    queue_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty. Returns false only when the queue is
  /// closed AND drained — items pushed before Close() are always delivered.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return false;  // closed and drained
    *out = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return true;
  }

  /// Pop with a deadline: kItem on success, kTimeout when the deadline passes
  /// first, kClosed when the queue is closed and drained.
  PopResult PopUntil(T* out, std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    bool ready = not_empty_.wait_until(
        lock, deadline, [this] { return !queue_.empty() || closed_; });
    if (!ready) return PopResult::kTimeout;
    if (queue_.empty()) return PopResult::kClosed;
    *out = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return PopResult::kItem;
  }

  /// Marks the queue closed: pushes start failing, pops drain what remains.
  /// Idempotent; wakes every waiter.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  size_t capacity() const { return capacity_; }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;  // consumers wait for items (or close)
  std::condition_variable not_full_;   // producers wait for room (or close)
  std::deque<T> queue_;
  bool closed_ = false;
};

}  // namespace tc

#endif  // TC_COMMON_MPMC_QUEUE_H_
