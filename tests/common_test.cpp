#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bit_packer.h"
#include "common/bytes.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/task_pool.h"

namespace tc {
namespace {

TEST(Bytes, FixedRoundTrip) {
  Buffer b;
  PutFixed16(&b, 0xBEEF);
  PutFixed32(&b, 0xDEADBEEF);
  PutFixed64(&b, 0x0123456789ABCDEFull);
  PutDouble(&b, 3.14159);
  PutFloat(&b, 2.5f);
  const uint8_t* p = b.data();
  EXPECT_EQ(GetFixed16(p), 0xBEEF);
  EXPECT_EQ(GetFixed32(p + 2), 0xDEADBEEF);
  EXPECT_EQ(GetFixed64(p + 6), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(GetDouble(p + 14), 3.14159);
  EXPECT_FLOAT_EQ(GetFloat(p + 22), 2.5f);
}

TEST(Bytes, OverwriteFixed32) {
  Buffer b(8, 0);
  OverwriteFixed32(&b, 2, 0xCAFEBABE);
  EXPECT_EQ(GetFixed32(b.data() + 2), 0xCAFEBABE);
}

TEST(Varint, RoundTripBoundaries) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                     0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}) {
    Buffer b;
    PutVarint64(&b, v);
    uint64_t out = 0;
    size_t n = GetVarint64(b.data(), b.data() + b.size(), &out);
    EXPECT_EQ(n, b.size());
    EXPECT_EQ(out, v);
  }
}

TEST(Varint, TruncatedInputFails) {
  Buffer b;
  PutVarint64(&b, 1ull << 40);
  uint64_t out = 0;
  EXPECT_EQ(GetVarint64(b.data(), b.data() + b.size() - 1, &out), 0u);
}

TEST(Varint, RandomRoundTrip) {
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.Next() >> rng.Uniform(64);
    Buffer b;
    PutVarint64(&b, v);
    uint64_t out = 0;
    ASSERT_EQ(GetVarint64(b.data(), b.data() + b.size(), &out), b.size());
    ASSERT_EQ(out, v);
  }
}

TEST(Zigzag, RoundTrip) {
  const int64_t cases[] = {0,         1,         -1,    2, -2, INT64_MAX,
                           INT64_MIN, 123456789, -987654321};
  for (int64_t v : cases) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
}

TEST(BitsFor, Values) {
  EXPECT_EQ(BitsFor(0), 0);
  EXPECT_EQ(BitsFor(1), 1);
  EXPECT_EQ(BitsFor(2), 2);
  EXPECT_EQ(BitsFor(3), 2);
  EXPECT_EQ(BitsFor(255), 8);
  EXPECT_EQ(BitsFor(256), 9);
}

TEST(BitPacker, RoundTripAllWidths) {
  for (int width = 0; width <= 57; ++width) {
    Buffer b;
    BitPacker packer(&b);
    Rng rng(width + 1);
    std::vector<uint64_t> values;
    for (int i = 0; i < 100; ++i) {
      uint64_t mask = width == 0 ? 0 : (width == 64 ? ~0ull : (1ull << width) - 1);
      uint64_t v = rng.Next() & mask;
      values.push_back(v);
      packer.Append(v, width);
    }
    packer.Finish();
    BitReader reader(b.data(), b.size());
    for (uint64_t v : values) {
      ASSERT_EQ(reader.Read(width), v) << "width=" << width;
    }
  }
}

TEST(BitPacker, MixedWidthsWithByteAlignment) {
  Buffer b;
  BitPacker packer(&b);
  packer.Append(5, 3);
  packer.Append(1000, 11);
  packer.Append(1, 1);
  packer.Finish();
  BitReader reader(b.data(), b.size());
  EXPECT_EQ(reader.Read(3), 5u);
  EXPECT_EQ(reader.Read(11), 1000u);
  EXPECT_EQ(reader.Read(1), 1u);
}

TEST(Crc32, KnownVector) {
  // CRC32-C("123456789") == 0xE3069283 (well-known check value).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

/// The byte-at-a-time definition of CRC32-C, bit by bit: what the sliced
/// table code must equal.
uint32_t ReferenceCrc32c(const uint8_t* p, size_t n, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
  }
  return ~crc;
}

TEST(Crc32, SlicedMatchesByteWiseAtEveryAlignment) {
  Rng rng(21);
  std::vector<uint8_t> buf(4096 + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (int iter = 0; iter < 400; ++iter) {
    size_t len = rng.Uniform(4097);
    for (size_t align = 0; align < 8; ++align) {
      const uint8_t* p = buf.data() + align;
      ASSERT_EQ(Crc32c(p, len), ReferenceCrc32c(p, len, 0))
          << "len=" << len << " align=" << align;
    }
  }
  for (size_t len = 0; len <= 64; ++len) {  // every tail length, exhaustively
    ASSERT_EQ(Crc32c(buf.data() + 3, len), ReferenceCrc32c(buf.data() + 3, len, 0));
  }
}

TEST(Crc32, SeededChainingEqualsOneChecksum) {
  Rng rng(22);
  std::vector<uint8_t> buf(4096);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (int iter = 0; iter < 200; ++iter) {
    size_t total = rng.Uniform(buf.size() + 1);
    size_t split = rng.Uniform(total + 1);
    uint32_t whole = Crc32c(buf.data(), total);
    ASSERT_EQ(Crc32c(buf.data() + split, total - split, Crc32c(buf.data(), split)),
              whole)
        << "total=" << total << " split=" << split;
    uint32_t seed = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Crc32c(buf.data(), total, seed), ReferenceCrc32c(buf.data(), total, seed));
  }
}

TEST(Crc32, DetectsCorruption) {
  std::string data = "hello world, this is a checksum test";
  uint32_t crc = Crc32c(data.data(), data.size());
  data[5] ^= 0x01;
  EXPECT_NE(Crc32c(data.data(), data.size()), crc);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, RangeBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

// ---------------------------------------------------------------------------
// TaskGroup: the per-owner completion/cancellation story of the shared pool.
// ---------------------------------------------------------------------------

TEST(TaskGroup, WaitCoversEverySubmittedTask) {
  TaskPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    group.Submit([&](bool canceled) {
      EXPECT_FALSE(canceled);
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(group.outstanding(), 0u);
}

TEST(TaskGroup, WaitCoversTasksSubmittedByTasks) {
  TaskPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  group.Submit([&](bool) {
    ran.fetch_add(1);
    group.Submit([&](bool) { ran.fetch_add(1); });
  });
  group.Wait();
  EXPECT_EQ(ran.load(), 2);
}

TEST(TaskGroup, CancelSkipsQueuedButNotStartedTasks) {
  TaskPool pool(1);  // single worker: deterministic queue order
  TaskGroup group(&pool);
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  std::atomic<bool> first_canceled{true};
  std::atomic<bool> second_canceled{false};
  // First task occupies the worker until released. The test waits for it to
  // START before canceling, so it must see canceled == false and run to
  // completion.
  group.Submit([&](bool canceled) {
    first_canceled.store(canceled);
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return started; });
  }
  // Second task is queued behind it and must observe the cancellation.
  group.Submit([&](bool canceled) { second_canceled.store(canceled); });
  group.Cancel();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  group.Wait();
  EXPECT_FALSE(first_canceled.load());
  EXPECT_TRUE(second_canceled.load());
}

TEST(TaskGroup, TwoGroupsOnOnePoolAreIndependent) {
  TaskPool pool(2);
  TaskGroup a(&pool);
  TaskGroup b(&pool);
  std::atomic<int> a_ran{0}, b_ran{0};
  a.Submit([&](bool canceled) {
    EXPECT_FALSE(canceled);
    a_ran.fetch_add(1);
  });
  b.Cancel();
  b.Submit([&](bool canceled) {
    EXPECT_TRUE(canceled);  // b's cancellation must not leak into a
    b_ran.fetch_add(1);
  });
  a.Wait();
  b.Wait();
  EXPECT_EQ(a_ran.load(), 1);
  EXPECT_EQ(b_ran.load(), 1);
}

// ---------------------------------------------------------------------------
// Caller-runs TaskGroup (null pool): what an LsmTree without a pool runs its
// flush builds and merges on.
// ---------------------------------------------------------------------------

TEST(TaskGroupCallerRuns, RunsOnTheSubmittingThreadBeforeSubmitReturns) {
  TaskGroup group(nullptr);
  std::thread::id ran_on;
  bool ran = false;
  group.Submit([&](bool canceled) {
    EXPECT_FALSE(canceled);
    ran_on = std::this_thread::get_id();
    ran = true;
  });
  EXPECT_TRUE(ran);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(group.outstanding(), 0u);
}

TEST(TaskGroupCallerRuns, TasksSubmittedByATaskRunAfterItInOrder) {
  TaskGroup group(nullptr);
  TaskGroup other(nullptr);  // the trampoline is per thread, not per group
  std::vector<std::string> log;
  group.Submit([&](bool) {
    log.push_back("a-begin");
    group.Submit([&](bool) {
      log.push_back("b");
      group.Submit([&](bool) { log.push_back("d"); });
    });
    other.Submit([&](bool) { log.push_back("c"); });
    // Queued, not run: both children wait for this task to return, and
    // they still count as outstanding in their groups.
    EXPECT_EQ(log.size(), 1u);
    EXPECT_EQ(group.outstanding(), 2u);
    EXPECT_EQ(other.outstanding(), 1u);
    log.push_back("a-end");
  });
  // The outermost Submit returns only once the whole chain has run, in
  // submission order (d was submitted by b, after c).
  EXPECT_EQ(log, (std::vector<std::string>{"a-begin", "a-end", "b", "c", "d"}));
  EXPECT_EQ(group.outstanding(), 0u);
  EXPECT_EQ(other.outstanding(), 0u);
}

TEST(TaskGroupCallerRuns, WaitReturnsAtOnce) {
  TaskGroup group(nullptr);
  int ran = 0;
  group.Submit([&](bool) { ++ran; });
  group.Wait();
  EXPECT_EQ(ran, 1);
  // Inside a task a queued child cannot run before the task returns, so a
  // blocking Wait would deadlock; it must return at once instead.
  group.Submit([&](bool) {
    group.Submit([&](bool) { ++ran; });
    group.Wait();
    EXPECT_EQ(ran, 1);
  });
  EXPECT_EQ(ran, 2);
}

TEST(TaskGroupCallerRuns, CancelTurnsLaterSubmissionsIntoSkips) {
  TaskGroup group(nullptr);
  std::vector<bool> canceled_flags;
  auto record = [&](bool canceled) { canceled_flags.push_back(canceled); };
  group.Submit(record);
  // A child queued by a running task has not started when the task cancels
  // the group, so it runs as a skip.
  group.Submit([&](bool canceled) {
    record(canceled);
    group.Submit(record);
    group.Cancel();
  });
  group.Submit(record);
  EXPECT_EQ(canceled_flags, (std::vector<bool>{false, false, true, true}));
  EXPECT_EQ(group.outstanding(), 0u);
}

}  // namespace
}  // namespace tc
