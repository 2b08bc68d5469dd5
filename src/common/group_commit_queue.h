// Bounded multi-producer queue drained in groups by one consumer thread:
// the metric store's ingest dispatcher (docs/CONCURRENCY.md, "Group-commit
// queue").
//
// Producers push_all() a span of items under one mutex (push() is a span of
// one). The consumer thread wakes, moves every queued item into a reused
// batch vector and runs the owner's consumer on the batch with no lock
// held: one notification pass per batch for the store. One consumer thread
// means delivery order equals push order.
//
// Guarantees (regression-tested in common_group_commit_queue_test):
//   * kBlock never loses an item. A span larger than the free room is queued
//     in chunks: the producer waits for room as often as it needs to, so
//     the queue never holds more than `capacity` items.
//   * kDropOldest sheds only items still queued, never the batch in flight,
//     and counts every shed in dropped(). A span sheds exactly as its items
//     pushed one by one with the consumer idle would.
//   * flush() returns once every item pushed before the call has been
//     consumed or shed. It is a no-op on the consumer thread.
//   * await_inflight() returns once the batch in flight at the call (if any)
//     has been consumed. It counts batches, so a shed cannot end the wait
//     early. It is a no-op on the consumer thread.
//   * The destructor drains whatever is queued, then joins, in every state.
//
// Capacity bounds the queued items only. While a batch of up to `capacity`
// items is in flight, producers can queue `capacity` more, so up to twice
// the capacity can be in memory.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

namespace funnel::common {

/// What push() does when the queue is full.
enum class Backpressure {
  kBlock,      ///< producer waits for space — lossless, applies backpressure
  kDropOldest  ///< shed the oldest queued item — lossy, producers never wait
};

template <typename T>
class GroupCommitQueue {
 public:
  /// Runs on the consumer thread once per drained batch, with no lock held,
  /// and must not throw. The vector is reused: the consumer may move from
  /// its items, and the queue clears it afterwards.
  using Consumer = std::function<void(std::vector<T>&)>;

  /// What push_all() (or push()) did with its items.
  struct Admission {
    std::size_t shed = 0;   ///< queued items kDropOldest shed for room
    std::size_t depth = 0;  ///< items queued after the last push
  };

  /// Starts the consumer thread. `capacity` is clamped to >= 1.
  GroupCommitQueue(std::size_t capacity, Backpressure policy,
                   Consumer consumer)
      : capacity_(capacity == 0 ? 1 : capacity),
        policy_(policy),
        consumer_(std::move(consumer)),
        thread_([this] { run(); }),
        consumer_id_(thread_.get_id()) {}

  /// Drains everything queued, then joins the consumer thread.
  ~GroupCommitQueue() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    arrival_cv_.notify_one();
    space_cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  GroupCommitQueue(const GroupCommitQueue&) = delete;
  GroupCommitQueue& operator=(const GroupCommitQueue&) = delete;

  /// push_all() of one item.
  Admission push(T item) { return push_all(std::span<T>(&item, 1)); }

  /// Enqueue `items` in order (any thread, moving from them), blocking or
  /// shedding per the policy. A producer wakes the consumer only when a
  /// chunk lands in an empty queue, at most once per chunk: the consumer
  /// waits on nothing else.
  Admission push_all(std::span<T> items) {
    Admission a;
    std::unique_lock<std::mutex> lock(mutex_);
    bool wake = queue_.empty();  // the consumer may be waiting for work
    std::size_t queued = 0;
    for (T& item : items) {
      if (queue_.size() >= capacity_ && !stop_) {
        if (policy_ == Backpressure::kBlock) {
          // Hand the chunk over before waiting for the room it frees.
          if (wake) arrival_cv_.notify_one();
          space_cv_.wait(lock,
                         [&] { return queue_.size() < capacity_ || stop_; });
          wake = queue_.empty();
        } else {
          queue_.pop_front();
          ++removed_;
          ++dropped_;
          ++a.shed;
        }
      }
      if (stop_) break;
      ++pushed_;
      ++queued;
      queue_.push_back(std::move(item));
    }
    a.depth = queue_.size();
    lock.unlock();
    if (a.shed > 0) settled_cv_.notify_all();
    if (wake && queued > 0) arrival_cv_.notify_one();
    return a;
  }

  /// Barrier: returns once every item pushed before the call has been
  /// consumed or shed.
  void flush() {
    if (on_consumer_thread()) return;
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t target = pushed_;
    settled_cv_.wait(lock, [&] { return settled_below() >= target; });
  }

  /// Returns once the batch in flight at the call (if any) has been
  /// consumed.
  void await_inflight() {
    if (on_consumer_thread()) return;
    std::unique_lock<std::mutex> lock(mutex_);
    if (!in_batch_) return;
    const std::uint64_t target = batches_ + 1;
    settled_cv_.wait(lock, [&] { return batches_ >= target; });
  }

  /// Items queued and not yet drained into a batch.
  std::size_t depth() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }
  std::size_t capacity() const { return capacity_; }
  /// Items accepted by push_all() so far.
  std::uint64_t pushed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return pushed_;
  }
  /// Items passed to a consumer call that has returned.
  std::uint64_t consumed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return consumed_;
  }
  /// Items shed by kDropOldest.
  std::uint64_t dropped() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }

 private:
  // Every item pushed below this count has been consumed or shed. Items
  // leave the queue front in push order, so only the batch in flight can
  // hold back an item below removed_.
  std::uint64_t settled_below() const {
    return in_batch_ ? batch_begin_ : removed_;
  }

  bool on_consumer_thread() const {
    return std::this_thread::get_id() == consumer_id_;
  }

  void run() {
    std::vector<T> batch;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      arrival_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopped and drained
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
      const std::size_t n = batch.size();
      batch_begin_ = removed_;
      removed_ += n;
      in_batch_ = true;
      lock.unlock();
      space_cv_.notify_all();
      consumer_(batch);
      batch.clear();
      lock.lock();
      in_batch_ = false;
      consumed_ += n;
      ++batches_;
      settled_cv_.notify_all();
    }
  }

  const std::size_t capacity_;
  const Backpressure policy_;
  const Consumer consumer_;

  mutable std::mutex mutex_;
  std::condition_variable space_cv_;    ///< producers waiting for room
  std::condition_variable arrival_cv_;  ///< consumer waiting for work
  std::condition_variable settled_cv_;  ///< flush/await waiters
  std::deque<T> queue_;
  std::uint64_t pushed_ = 0;       ///< items accepted
  std::uint64_t removed_ = 0;      ///< items that left the queue front
  std::uint64_t batch_begin_ = 0;  ///< removed_ before the batch in flight
  std::uint64_t consumed_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t batches_ = 0;  ///< batches consumed
  bool in_batch_ = false;
  bool stop_ = false;

  std::thread thread_;  ///< started after everything above
  const std::thread::id consumer_id_;
};

}  // namespace funnel::common
