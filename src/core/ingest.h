// Batched, group-committed ingestion front end (ROADMAP "Batched,
// group-committed ingestion front end"): data feeds hand whole batches to
// per-partition writer threads through bounded MPMC queues instead of calling
// the dataset record-at-a-time. Each writer accumulates queued chunks into a
// commit group until a size / record-count / time cap fires
// (GroupCommitConfig), then applies the whole group with ONE partition
// writer-lock acquisition and ONE WAL write + fdatasync — so
// records/sec scales with group size, not fsync latency, at unchanged
// durability for acknowledged work.
//
// Durability semantics of the ack token (IngestTicket): Wait() returning OK
// means every record of the submission was applied AND its WAL group was
// written (synced, at cadence 1) — a crash after the ack cannot lose those
// records. Records rejected per-record (bad primary or secondary key, encode
// failure, index maintenance) are reported with their submission index;
// records never acknowledged may vanish in a crash, exactly like un-synced
// single-record appends.
//
// Backpressure composes: a stalled partition (the LSM trees' flush-build
// backpressure, kDefaultMaxPendingFlushBuilds queued builds per tree) blocks
// its writer in DatasetPartition::Write, its queue fills, and Submit() blocks
// the producing feed — memory stays bounded end to end.
#ifndef TC_CORE_INGEST_H_
#define TC_CORE_INGEST_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/mpmc_queue.h"
#include "core/dataset.h"

namespace tc {

/// Group-formation caps for the per-partition writers. A group closes (and
/// commits) as soon as ANY cap is reached; the time cap bounds the latency a
/// trickle feed pays for batching.
struct GroupCommitConfig {
  size_t max_bytes = 1 << 20;  // encoded payload bytes per group
  size_t max_records = 1024;   // records per group
  int64_t max_usecs = 2000;    // age of the group's oldest chunk at commit
};

/// Completion token of one async submission. Value type; cheap to copy
/// (shared state). A default-constructed ticket is complete and OK.
class IngestTicket {
 public:
  IngestTicket() = default;

  /// Blocks until every record of the submission was applied or rejected;
  /// returns OK when all records landed, else the first error.
  Status Wait();

  /// After Wait(): the failed records as (index into the submitted batch,
  /// status), in no particular order. Empty when Wait() returned OK.
  std::vector<std::pair<size_t, Status>> errors() const;

 private:
  friend class IngestFrontEnd;

  struct State {
    std::mutex mu;
    std::condition_variable cv;
    size_t outstanding_chunks = 0;
    Status first_error;
    std::vector<std::pair<size_t, Status>> errors;
  };

  std::shared_ptr<State> state_;
};

class IngestFrontEnd {
 public:
  /// `queue_capacity` bounds the chunks queued per partition before Submit
  /// blocks (0 = default). The dataset must outlive the front end.
  explicit IngestFrontEnd(Dataset* dataset,
                          GroupCommitConfig config = GroupCommitConfig{},
                          size_t queue_capacity = 0);

  /// Drains every queue (remaining groups commit), then joins the writers.
  ~IngestFrontEnd();

  IngestFrontEnd(const IngestFrontEnd&) = delete;
  IngestFrontEnd& operator=(const IngestFrontEnd&) = delete;

  /// Routes and encodes `records` on the calling thread (Dataset::Route, so
  /// feed threads parallelize the CPU-bound encode), enqueues one chunk per
  /// touched partition, and returns the completion token. Records Route
  /// rejects are reported on the ticket at once. Blocks only when a target
  /// partition's queue is full (backpressure). Thread-safe. For
  /// WriteOp::kDelete each record only needs its primary-key field; no
  /// payload is encoded. A feed can interleave all three ops on one front
  /// end: chunks of different ops never share a commit group (the writer
  /// closes the open group when the op changes), so within a partition the
  /// submitted operation order is preserved.
  IngestTicket Submit(std::vector<AdmValue> records,
                      WriteOp op = WriteOp::kInsert);

  /// Blocks until every submitted chunk has been applied (the front end
  /// stays usable). Returns the first batch-level commit failure ever hit by
  /// a writer — per-record rejections are NOT errors here; read them from
  /// the tickets.
  Status Drain();

  const GroupCommitConfig& config() const { return config_; }

 private:
  // One partition's share of a submission: the encoded writes and the
  // ticket to complete.
  struct Chunk {
    std::vector<EncodedWrite> writes;
    size_t payload_bytes = 0;
    WriteOp op = WriteOp::kInsert;
    std::shared_ptr<IngestTicket::State> ticket;
  };

  void WriterLoop(size_t partition);
  void CommitGroup(size_t partition, std::vector<Chunk>* group);
  static void CompleteChunk(const std::shared_ptr<IngestTicket::State>& state,
                            std::vector<std::pair<size_t, Status>> errors);

  Dataset* dataset_;
  GroupCommitConfig config_;
  std::vector<std::unique_ptr<MpmcQueue<Chunk>>> queues_;  // one per partition
  std::vector<std::thread> writers_;

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  size_t inflight_chunks_ = 0;  // enqueued but not yet applied
  Status sticky_error_;         // first batch-level commit failure
};

}  // namespace tc

#endif  // TC_CORE_INGEST_H_
