// Write-ahead log (paper §2.2): no-steal/no-force buffer management means
// every ingested operation is logged before it is acknowledged; on a crash the
// memtable's unflushed tail is rebuilt by replaying the log. The tree logs
// each memtable generation to its own segment: a flush rotates to a fresh
// segment, and the sealed generation's segment is deleted once its component
// is marked VALID (the paper: "the tree manager can safely delete the logs
// for the flushed component").
#ifndef TC_LSM_WAL_H_
#define TC_LSM_WAL_H_

#include <functional>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/span.h"
#include "common/status.h"
#include "lsm/btree_component.h"
#include "storage/file.h"

namespace tc {

enum class WalOp : uint8_t {
  kPut = 1,
  kDelete = 2,
};

struct WalRecord {
  uint64_t lsn = 0;
  WalOp op = WalOp::kPut;
  BtreeKey key;
  Buffer payload;
};

/// One operation of a group-committed append. The payload is viewed, not
/// owned — it must stay alive until AppendBatch returns.
struct WalAppendOp {
  WalOp op = WalOp::kPut;
  BtreeKey key;
  std::string_view payload;
};

class WriteAheadLog {
 public:
  /// Opens (or creates) the log at `path`. `sync_every_n` batches fdatasync
  /// calls (1 == sync each append; 0 == never sync, for bulk loads).
  static Result<std::unique_ptr<WriteAheadLog>> Open(
      std::shared_ptr<FileSystem> fs, const std::string& path,
      size_t sync_every_n);

  /// Appends one operation; assigns and returns its LSN. A batch of one:
  /// delegates to AppendBatch so there is exactly one encode path.
  Result<uint64_t> Append(WalOp op, const BtreeKey& key, std::string_view payload);

  /// Group commit: encodes every record of the batch into ONE buffered write
  /// and issues at most one fdatasync for the whole group (the sync cadence
  /// counts records, so with sync_every_n == 1 an acked batch is durable as a
  /// unit — same guarantee as per-record syncing at a fraction of the cost).
  /// LSNs are still assigned per record, contiguously from the current
  /// next_lsn(); `first_lsn`, when non-null, receives the first one. Replay
  /// and per-generation segment rotation are unchanged — on disk a batch is
  /// indistinguishable from the same records appended singly.
  Status AppendBatch(Span<const WalAppendOp> ops, uint64_t* first_lsn = nullptr);

  /// Replays all records in LSN order. Corrupt tails (torn final record) stop
  /// replay silently, matching standard WAL semantics.
  Status Replay(const std::function<Status(const WalRecord&)>& fn) const;

  /// Forces buffered appends to the device — called before a log segment is
  /// frozen behind its generation's flush build, so the segment is as
  /// durable as the configured sync cadence ever made it.
  Status Sync();

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t size_bytes() const { return write_offset_; }
  const std::string& path() const { return path_; }

 private:
  WriteAheadLog() = default;

  std::shared_ptr<FileSystem> fs_;
  std::unique_ptr<File> file_;
  std::string path_;
  uint64_t next_lsn_ = 1;
  uint64_t write_offset_ = 0;
  size_t sync_every_n_ = 1;
  size_t appends_since_sync_ = 0;
  // Group encode buffer, reused across appends so a warm WAL allocates
  // nothing per call (single-record appends included).
  Buffer encode_buf_;
};

}  // namespace tc

#endif  // TC_LSM_WAL_H_
