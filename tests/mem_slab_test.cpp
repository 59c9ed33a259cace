/// buffer_pool (src/emu/buffer_pool.hpp): the mutex-guarded LIFO
/// stack of recycled batch buffers that the ingest mesh's consumers
/// return drained batches to and its producers refill from.  Checks the
/// empty-pool miss, that a recycled buffer keeps its allocation, LIFO
/// order, cross-thread recycle→take visibility, and reuse under many
/// threads — the latter a TSan target (ctest -L mem).
#include "emu/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

namespace hdhash {
namespace {

TEST(BufferPoolTest, TakeFromEmptyPoolFails) {
  buffer_pool<std::vector<int>> pool;
  std::vector<int> buffer;
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_FALSE(pool.take(buffer));
}

TEST(BufferPoolTest, RecycledBufferKeepsItsAllocation) {
  buffer_pool<std::vector<int>> pool;
  std::vector<int> buffer;
  buffer.reserve(1024);
  const int* storage = buffer.data();
  pool.recycle(std::move(buffer));
  EXPECT_EQ(pool.size(), 1u);

  std::vector<int> reused;
  ASSERT_TRUE(pool.take(reused));
  EXPECT_EQ(reused.data(), storage);  // same allocation came back
  EXPECT_EQ(reused.capacity(), 1024u);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(BufferPoolTest, LifoReuseUnderManyThreads) {
  buffer_pool<std::vector<int>> pool;
  constexpr int kThreads = 4;
  constexpr int kRounds = 5'000;
  std::vector<std::thread> threads;
  std::atomic<int> takes{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        std::vector<int> buffer;
        if (pool.take(buffer)) {
          takes.fetch_add(1, std::memory_order_relaxed);
        }
        buffer.clear();
        pool.recycle(std::move(buffer));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // Every recycle stays in the pool, so at most kThreads buffers exist.
  EXPECT_LE(pool.size(), static_cast<std::size_t>(kThreads));
  EXPECT_GT(takes.load(), 0);
}

TEST(BufferPoolTest, IsASharedLifoStack) {
  buffer_pool<int> pool;
  int out = 0;
  EXPECT_FALSE(pool.take(out));  // empty pool: construct fresh
  pool.recycle(1);
  pool.recycle(2);
  pool.recycle(3);
  EXPECT_EQ(pool.size(), 3u);
  // LIFO: the warmest (most recently recycled) buffer comes back first.
  ASSERT_TRUE(pool.take(out));
  EXPECT_EQ(out, 3);
  ASSERT_TRUE(pool.take(out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(pool.take(out));
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(pool.take(out));
}

TEST(BufferPoolTest, RecycleFromAnotherThreadIsImmediatelyTakeable) {
  buffer_pool<std::vector<int>> pool;
  std::thread consumer([&] { pool.recycle(std::vector<int>(8, 3)); });
  consumer.join();
  std::vector<int> batch;
  ASSERT_TRUE(pool.take(batch));
  EXPECT_EQ(batch.size(), 8u);
  EXPECT_EQ(pool.size(), 0u);
}

}  // namespace
}  // namespace hdhash
