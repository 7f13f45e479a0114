#include <gtest/gtest.h>

#include "lsm/wal.h"

namespace tc {
namespace {

TEST(Wal, AppendAndReplay) {
  auto fs = MakeMemFileSystem();
  auto wal = WriteAheadLog::Open(fs, "log", 1).ValueOrDie();
  EXPECT_EQ(wal->Append(WalOp::kPut, BtreeKey{1, 0}, "hello").ValueOrDie(), 1u);
  EXPECT_EQ(wal->Append(WalOp::kDelete, BtreeKey{2, 0}, "").ValueOrDie(), 2u);
  EXPECT_EQ(wal->Append(WalOp::kPut, BtreeKey{3, 0}, "x").ValueOrDie(), 3u);

  std::vector<WalRecord> records;
  ASSERT_TRUE(wal->Replay([&](const WalRecord& r) {
                    records.push_back(r);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[0].op, WalOp::kPut);
  EXPECT_EQ(records[0].key.a, 1);
  EXPECT_EQ(std::string(records[0].payload.begin(), records[0].payload.end()),
            "hello");
  EXPECT_EQ(records[1].op, WalOp::kDelete);
}

TEST(Wal, ReopenContinuesLsns) {
  auto fs = MakeMemFileSystem();
  {
    auto wal = WriteAheadLog::Open(fs, "log", 1).ValueOrDie();
    (void)wal->Append(WalOp::kPut, BtreeKey{1, 0}, "a").ValueOrDie();
    (void)wal->Append(WalOp::kPut, BtreeKey{2, 0}, "b").ValueOrDie();
  }
  auto wal = WriteAheadLog::Open(fs, "log", 1).ValueOrDie();
  EXPECT_EQ(wal->next_lsn(), 3u);
  EXPECT_EQ(wal->Append(WalOp::kPut, BtreeKey{3, 0}, "c").ValueOrDie(), 3u);
}

TEST(Wal, TornTailIsIgnored) {
  auto fs = MakeMemFileSystem();
  auto wal = WriteAheadLog::Open(fs, "log", 1).ValueOrDie();
  (void)wal->Append(WalOp::kPut, BtreeKey{1, 0}, "good").ValueOrDie();
  (void)wal->Append(WalOp::kPut, BtreeKey{2, 0}, "torn-record").ValueOrDie();
  // Corrupt the tail record's payload byte -> crc mismatch.
  auto f = fs->Open("log").ValueOrDie();
  uint64_t size = f->Size();
  uint8_t b;
  ASSERT_TRUE(f->Read(size - 2, 1, &b).ok());
  b ^= 0xFF;
  ASSERT_TRUE(f->Write(size - 2, &b, 1).ok());

  size_t n = 0;
  ASSERT_TRUE(wal->Replay([&](const WalRecord& r) {
                    ++n;
                    EXPECT_EQ(r.key.a, 1);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(n, 1u);  // only the intact record replays
}

// ---------------------------------------------------------------------------
// Group commit (AppendBatch): one buffered write + at most one sync per
// batch, per-record LSNs, on-disk bytes indistinguishable from single
// appends.
// ---------------------------------------------------------------------------

TEST(WalGroupCommit, BatchRoundTripReplay) {
  auto fs = MakeMemFileSystem();
  auto wal = WriteAheadLog::Open(fs, "log", 1).ValueOrDie();
  std::vector<WalAppendOp> ops = {
      {WalOp::kPut, BtreeKey{1, 0}, "alpha"},
      {WalOp::kDelete, BtreeKey{2, 0}, ""},
      {WalOp::kPut, BtreeKey{3, 0}, "gamma"},
  };
  uint64_t first_lsn = 0;
  ASSERT_TRUE(wal->AppendBatch(ops, &first_lsn).ok());
  EXPECT_EQ(first_lsn, 1u);
  EXPECT_EQ(wal->next_lsn(), 4u);

  std::vector<WalRecord> records;
  ASSERT_TRUE(wal->Replay([&](const WalRecord& r) {
                    records.push_back(r);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(records.size(), 3u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, first_lsn + i);
    EXPECT_EQ(records[i].op, ops[i].op);
    EXPECT_EQ(records[i].key.a, ops[i].key.a);
    EXPECT_EQ(std::string(records[i].payload.begin(), records[i].payload.end()),
              std::string(ops[i].payload));
  }
}

// A torn write in the middle of group B must recover exactly the fully
// written groups before it: all of group A replays, nothing of group B does.
TEST(WalGroupCommit, TornTailMidBatchRecoversPrecedingGroups) {
  auto fs = MakeMemFileSystem();
  auto wal = WriteAheadLog::Open(fs, "log", 1).ValueOrDie();
  std::vector<WalAppendOp> group_a = {
      {WalOp::kPut, BtreeKey{1, 0}, "a1"},
      {WalOp::kPut, BtreeKey{2, 0}, "a2"},
  };
  ASSERT_TRUE(wal->AppendBatch(group_a, nullptr).ok());
  uint64_t group_a_end = wal->size_bytes();
  std::vector<WalAppendOp> group_b = {
      {WalOp::kPut, BtreeKey{3, 0}, "b1"},
      {WalOp::kPut, BtreeKey{4, 0}, "b2"},
  };
  ASSERT_TRUE(wal->AppendBatch(group_b, nullptr).ok());
  // Tear group B's FIRST record (flip a payload byte just past group A's
  // end): replay must stop there, before any of group B.
  auto f = fs->Open("log").ValueOrDie();
  uint8_t b;
  uint64_t torn_at = group_a_end + 8;  // inside record b1's header/body
  ASSERT_TRUE(f->Read(torn_at, 1, &b).ok());
  b ^= 0xFF;
  ASSERT_TRUE(f->Write(torn_at, &b, 1).ok());

  std::vector<WalRecord> records;
  ASSERT_TRUE(wal->Replay([&](const WalRecord& r) {
                    records.push_back(r);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(records.size(), 2u);  // group A exactly, none of group B
  EXPECT_EQ(records[0].key.a, 1);
  EXPECT_EQ(records[1].key.a, 2);
}

// Interleaving single appends and batches keeps LSNs contiguous, and batches
// report their first LSN.
TEST(WalGroupCommit, LsnMonotonicAcrossMixedAppends) {
  auto fs = MakeMemFileSystem();
  auto wal = WriteAheadLog::Open(fs, "log", 1).ValueOrDie();
  EXPECT_EQ(wal->Append(WalOp::kPut, BtreeKey{1, 0}, "single").ValueOrDie(), 1u);
  std::vector<WalAppendOp> batch = {
      {WalOp::kPut, BtreeKey{2, 0}, "b"},
      {WalOp::kPut, BtreeKey{3, 0}, "b"},
      {WalOp::kPut, BtreeKey{4, 0}, "b"},
  };
  uint64_t first_lsn = 0;
  ASSERT_TRUE(wal->AppendBatch(batch, &first_lsn).ok());
  EXPECT_EQ(first_lsn, 2u);
  EXPECT_EQ(wal->Append(WalOp::kPut, BtreeKey{5, 0}, "single").ValueOrDie(), 5u);
  // Empty batches consume no LSNs.
  ASSERT_TRUE(wal->AppendBatch(Span<const WalAppendOp>(), &first_lsn).ok());
  EXPECT_EQ(first_lsn, 6u);
  EXPECT_EQ(wal->next_lsn(), 6u);

  std::vector<uint64_t> lsns;
  ASSERT_TRUE(wal->Replay([&](const WalRecord& r) {
                    lsns.push_back(r.lsn);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(lsns.size(), 5u);
  for (size_t i = 0; i < lsns.size(); ++i) EXPECT_EQ(lsns[i], i + 1);
}

}  // namespace
}  // namespace tc
