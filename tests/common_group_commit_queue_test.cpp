// Tests for common::GroupCommitQueue, the one bounded queue behind the
// metric store's ingest dispatcher and the verdict journal: FIFO delivery,
// lossless kBlock under concurrent producers, exact kDropOldest
// accounting, the flush() barrier, await_inflight(), drain-on-destroy, and
// push_all() batches (one lock per chunk, chunked waits under kBlock,
// exact sheds under kDropOldest).
// The FUNNEL_SANITIZE=thread job (scripts/tsan_concurrency.sh) runs this
// suite under ThreadSanitizer.
#include "common/group_commit_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <span>
#include <thread>
#include <vector>

namespace funnel::common {
namespace {

using Queue = GroupCommitQueue<int>;

// Holds the consumer inside its first batch until released, so a test can
// fill or overflow the queue behind a known batch in flight.
class Stall {
 public:
  // Call from the consumer: blocks on the first call only.
  void maybe_wait() {
    if (!first_.exchange(false)) return;
    entered_.set_value();
    released_.wait();
  }
  void wait_entered() { entered_future_.wait(); }
  void release() { release_.set_value(); }

 private:
  std::atomic<bool> first_{true};
  std::promise<void> entered_;
  std::future<void> entered_future_ = entered_.get_future();
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
};

// Let a thread that is about to block reach its wait. The assertions that
// follow only check it has not returned, so a slow start cannot fail them.
void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(50)); }

TEST(GroupCommitQueue, DeliversInPushOrder) {
  std::vector<int> seen;  // consumer thread only until flush()
  std::size_t batches = 0;
  Queue q(8, Backpressure::kBlock, [&](std::vector<int>& batch) {
    ++batches;
    seen.insert(seen.end(), batch.begin(), batch.end());
  });
  for (int i = 0; i < 1000; ++i) q.push(i);
  q.flush();
  ASSERT_EQ(seen.size(), 1000u);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(seen[i], i);
  EXPECT_GE(batches, 1u);
  EXPECT_LE(batches, 1000u);
  EXPECT_EQ(q.pushed(), 1000u);
  EXPECT_EQ(q.consumed(), 1000u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(GroupCommitQueue, BlockLosesNothingUnderFourProducers) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::vector<std::vector<int>> seen(kProducers);  // consumer thread only
  Queue q(2, Backpressure::kBlock, [&](std::vector<int>& batch) {
    for (int v : batch) seen[v / kPerProducer].push_back(v % kPerProducer);
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto a = q.push(p * kPerProducer + i);
        ASSERT_FALSE(a.shed);
        ASSERT_LE(a.depth, 2u);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.flush();
  EXPECT_EQ(q.consumed(), static_cast<std::uint64_t>(kProducers) *
                              kPerProducer);
  EXPECT_EQ(q.dropped(), 0u);
  // One consumer thread: each producer's items arrive in its push order.
  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(seen[p].size(), static_cast<std::size_t>(kPerProducer));
    for (int i = 0; i < kPerProducer; ++i) ASSERT_EQ(seen[p][i], i);
  }
}

TEST(GroupCommitQueue, DropOldestShedsOnlyQueuedItems) {
  // Item 0 is in flight; 1..4 fill the queue; 5..7 each shed the oldest
  // queued item (1, 2, 3). The batch in flight is never shed.
  Stall stall;
  std::vector<int> seen;
  Queue q(4, Backpressure::kDropOldest, [&](std::vector<int>& batch) {
    seen.insert(seen.end(), batch.begin(), batch.end());
    stall.maybe_wait();
  });
  q.push(0);
  stall.wait_entered();
  for (int i = 1; i <= 4; ++i) EXPECT_FALSE(q.push(i).shed);
  EXPECT_EQ(q.depth(), 4u);
  for (int i = 5; i <= 7; ++i) {
    const auto a = q.push(i);
    EXPECT_TRUE(a.shed);
    EXPECT_EQ(a.depth, 4u);
  }
  stall.release();
  q.flush();
  EXPECT_EQ(seen, (std::vector<int>{0, 4, 5, 6, 7}));
  EXPECT_EQ(q.dropped(), 3u);
  EXPECT_EQ(q.pushed(), 8u);
  EXPECT_EQ(q.consumed(), 5u);
}

TEST(GroupCommitQueue, DropOldestAccountsEveryShedUnderConcurrentLoad) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> sheds_seen{0};
  Queue q(4, Backpressure::kDropOldest, [&](std::vector<int>& batch) {
    delivered.fetch_add(batch.size(), std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (q.push(i).shed) sheds_seen.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.flush();
  const std::uint64_t total = std::uint64_t{kProducers} * kPerProducer;
  EXPECT_EQ(q.pushed(), total);
  EXPECT_EQ(delivered.load() + q.dropped(), total);
  EXPECT_EQ(q.consumed(), delivered.load());
  EXPECT_EQ(q.dropped(), sheds_seen.load());
  EXPECT_GT(q.dropped(), 0u);  // the overflow path really ran
}

TEST(GroupCommitQueue, FlushWaitsForTheBatchInFlightEvenWhenItemsAreShed) {
  Stall stall;
  Queue q(2, Backpressure::kDropOldest,
          [&](std::vector<int>&) { stall.maybe_wait(); });
  q.push(0);
  stall.wait_entered();
  std::atomic<bool> flushed{false};
  std::thread waiter([&] {
    q.flush();  // item 0 is in flight: must wait for it
    flushed.store(true);
  });
  settle();
  // Sheds settle items after the one in flight; they must not end the wait.
  for (int i = 1; i <= 6; ++i) q.push(i);
  EXPECT_EQ(q.dropped(), 4u);
  settle();
  EXPECT_FALSE(flushed.load());
  stall.release();
  waiter.join();
  EXPECT_TRUE(flushed.load());
}

TEST(GroupCommitQueue, FlushOnTheConsumerThreadIsANoOp) {
  std::atomic<int> seen{0};
  Queue* self = nullptr;
  Queue q(4, Backpressure::kBlock, [&](std::vector<int>& batch) {
    self->flush();  // would wait for itself forever if it were not a no-op
    self->await_inflight();
    seen.fetch_add(static_cast<int>(batch.size()));
  });
  self = &q;
  for (int i = 0; i < 10; ++i) q.push(i);
  q.flush();
  EXPECT_EQ(seen.load(), 10);
}

TEST(GroupCommitQueue, AwaitInflightCountsBatchesNotSettledItems) {
  Stall stall;
  std::atomic<int> seen{0};
  Queue q(2, Backpressure::kDropOldest, [&](std::vector<int>& batch) {
    stall.maybe_wait();
    seen.fetch_add(static_cast<int>(batch.size()));
  });
  q.await_inflight();  // idle: returns at once
  q.push(0);
  stall.wait_entered();
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    q.await_inflight();
    returned.store(true);
  });
  settle();
  for (int i = 1; i <= 6; ++i) q.push(i);  // four sheds
  EXPECT_EQ(q.dropped(), 4u);
  settle();
  EXPECT_FALSE(returned.load());
  stall.release();
  waiter.join();
  EXPECT_TRUE(returned.load());
  EXPECT_GE(seen.load(), 1);  // the batch it waited for had finished
  q.flush();
  EXPECT_EQ(seen.load(), 3);  // 0, then the two survivors 5 and 6
}

TEST(GroupCommitQueue, DestructorDrainsEverythingQueued) {
  Stall stall;
  std::vector<int> seen;
  {
    Queue q(16, Backpressure::kBlock, [&](std::vector<int>& batch) {
      seen.insert(seen.end(), batch.begin(), batch.end());
      stall.maybe_wait();
    });
    q.push(0);
    stall.wait_entered();
    for (int i = 1; i < 10; ++i) q.push(i);
    EXPECT_EQ(q.depth(), 9u);  // the batch in flight is not counted
    stall.release();
  }  // no flush(): the destructor drains, then joins
  ASSERT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen[i], i);
}

TEST(GroupCommitQueue, PushAllKeepsOrder) {
  std::vector<int> seen;  // consumer thread only until flush()
  Queue q(64, Backpressure::kBlock, [&](std::vector<int>& batch) {
    seen.insert(seen.end(), batch.begin(), batch.end());
  });
  std::vector<int> items(10);
  for (int i = 0; i < 10; ++i) items[i] = i;
  EXPECT_EQ(q.push_all(items).shed, 0u);
  for (int i = 0; i < 10; ++i) items[i] = 10 + i;
  q.push_all(items);
  q.flush();
  ASSERT_EQ(seen.size(), 20u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<int>(i));
  }
  EXPECT_EQ(q.pushed(), 20u);
  // An empty span is a no-op.
  q.push_all({});
  EXPECT_EQ(q.pushed(), 20u);
}

TEST(GroupCommitQueue, PushAllUnderBlockChunksABatchLargerThanTheCapacity) {
  constexpr std::size_t kCapacity = 4;
  constexpr int kItems = 3 * kCapacity;
  std::vector<int> seen;  // consumer thread only until flush()
  std::size_t largest = 0;
  Queue* self = nullptr;
  Queue q(kCapacity, Backpressure::kBlock, [&](std::vector<int>& batch) {
    largest = std::max(largest, batch.size());
    // The queue refilled behind the batch in flight stays within capacity.
    EXPECT_LE(self->depth(), kCapacity);
    seen.insert(seen.end(), batch.begin(), batch.end());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  self = &q;
  std::vector<int> items(kItems);
  for (int i = 0; i < kItems; ++i) items[i] = i;
  const auto a = q.push_all(items);
  EXPECT_EQ(a.shed, 0u);
  EXPECT_LE(a.depth, kCapacity);
  q.flush();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(seen[i], i);
  EXPECT_LE(largest, kCapacity);
  EXPECT_EQ(q.consumed(), static_cast<std::uint64_t>(kItems));
  EXPECT_EQ(q.dropped(), 0u);
}

TEST(GroupCommitQueue, PushAllUnderDropOldestShedsExactly) {
  // Item 0 is in flight and 1..2 are queued (capacity 4). A batch of 5
  // sheds as five single pushes would with the consumer idle: 1, 2 and the
  // batch's own first item, keeping the last four of 1..2 ++ 10..14.
  Stall stall;
  std::vector<int> seen;
  Queue q(4, Backpressure::kDropOldest, [&](std::vector<int>& batch) {
    seen.insert(seen.end(), batch.begin(), batch.end());
    stall.maybe_wait();
  });
  q.push(0);
  stall.wait_entered();
  q.push(1);
  q.push(2);
  std::vector<int> items{10, 11, 12, 13, 14};
  const auto a = q.push_all(items);
  EXPECT_EQ(a.shed, 3u);
  EXPECT_EQ(a.depth, 4u);
  EXPECT_EQ(q.dropped(), 3u);
  stall.release();
  q.flush();
  EXPECT_EQ(seen, (std::vector<int>{0, 11, 12, 13, 14}));
  EXPECT_EQ(q.pushed(), 8u);
  EXPECT_EQ(q.consumed() + q.dropped(), q.pushed());
}

TEST(GroupCommitQueue, ZeroCapacityIsClampedToOne) {
  std::atomic<int> seen{0};
  Queue q(0, Backpressure::kBlock, [&](std::vector<int>& batch) {
    seen.fetch_add(static_cast<int>(batch.size()));
  });
  EXPECT_EQ(q.capacity(), 1u);
  for (int i = 0; i < 20; ++i) q.push(i);
  q.flush();
  EXPECT_EQ(seen.load(), 20);
}

}  // namespace
}  // namespace funnel::common
