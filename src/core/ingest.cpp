#include "core/ingest.h"

#include <algorithm>

namespace tc {

Status IngestTicket::Wait() {
  if (state_ == nullptr) return Status::OK();
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->outstanding_chunks == 0; });
  return state_->first_error;
}

std::vector<std::pair<size_t, Status>> IngestTicket::errors() const {
  if (state_ == nullptr) return {};
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->errors;
}

IngestFrontEnd::IngestFrontEnd(Dataset* dataset, GroupCommitConfig config,
                               size_t queue_capacity)
    : dataset_(dataset), config_(config) {
  if (queue_capacity == 0) queue_capacity = 8;
  size_t partitions = dataset_->partition_count();
  queues_.reserve(partitions);
  writers_.reserve(partitions);
  for (size_t p = 0; p < partitions; ++p) {
    queues_.push_back(std::make_unique<MpmcQueue<Chunk>>(queue_capacity));
  }
  for (size_t p = 0; p < partitions; ++p) {
    writers_.emplace_back([this, p] { WriterLoop(p); });
  }
}

IngestFrontEnd::~IngestFrontEnd() {
  for (auto& q : queues_) q->Close();  // queued chunks still drain
  for (auto& t : writers_) t.join();
}

void IngestFrontEnd::CompleteChunk(
    const std::shared_ptr<IngestTicket::State>& state,
    std::vector<std::pair<size_t, Status>> errors) {
  std::lock_guard<std::mutex> lock(state->mu);
  for (auto& e : errors) {
    if (state->first_error.ok()) state->first_error = e.second;
    state->errors.push_back(std::move(e));
  }
  if (--state->outstanding_chunks == 0) state->cv.notify_all();
}

IngestTicket IngestFrontEnd::Submit(std::vector<AdmValue> records, WriteOp op) {
  IngestTicket ticket;
  ticket.state_ = std::make_shared<IngestTicket::State>();
  // Rejected records never reach a queue: they are on the ticket before any
  // chunk is, so no writer races these assignments.
  Dataset::RoutedWrites routed;
  ticket.state_->first_error =
      dataset_->Route(op, Span<const AdmValue>(records), &routed,
                      &ticket.state_->errors);
  size_t outstanding = 0;
  for (const auto& writes : routed) outstanding += writes.empty() ? 0 : 1;
  ticket.state_->outstanding_chunks = outstanding;
  if (outstanding == 0) return ticket;  // everything rejected (or empty batch)
  for (size_t p = 0; p < routed.size(); ++p) {
    if (routed[p].empty()) continue;
    Chunk c;
    c.writes = std::move(routed[p]);
    for (const EncodedWrite& w : c.writes) {
      c.payload_bytes += op == WriteOp::kDelete ? sizeof(int64_t) : w.payload.size();
    }
    c.op = op;
    c.ticket = ticket.state_;
    {
      std::lock_guard<std::mutex> lock(drain_mu_);
      ++inflight_chunks_;
    }
    if (!queues_[p]->Push(std::move(c))) {
      // Shut down underneath us: the chunk never ran.
      {
        std::lock_guard<std::mutex> lock(drain_mu_);
        --inflight_chunks_;
        drain_cv_.notify_all();
      }
      std::lock_guard<std::mutex> lock(ticket.state_->mu);
      Status st = Status::Internal("ingest front end shut down during Submit");
      if (ticket.state_->first_error.ok()) ticket.state_->first_error = st;
      if (--ticket.state_->outstanding_chunks == 0)
        ticket.state_->cv.notify_all();
    }
  }
  return ticket;
}

void IngestFrontEnd::WriterLoop(size_t partition) {
  MpmcQueue<Chunk>& queue = *queues_[partition];
  std::vector<Chunk> group;
  size_t group_records = 0;
  size_t group_bytes = 0;
  std::chrono::steady_clock::time_point deadline{};
  bool closed = false;
  while (!closed) {
    Chunk c;
    bool got = false;
    if (group.empty()) {
      // Nothing pending: block indefinitely for the group's first chunk.
      if (!queue.Pop(&c)) break;
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::microseconds(config_.max_usecs);
      got = true;
    } else {
      switch (queue.PopUntil(&c, deadline)) {
        case MpmcQueue<Chunk>::PopResult::kItem:
          got = true;
          break;
        case MpmcQueue<Chunk>::PopResult::kTimeout:
          break;  // time cap: commit what we have
        case MpmcQueue<Chunk>::PopResult::kClosed:
          closed = true;  // commit the tail group, then exit
          break;
      }
    }
    if (got) {
      // Ops never mix within a commit group: a different op closes the open
      // group first, preserving per-partition operation order.
      if (!group.empty() && c.op != group.front().op) {
        CommitGroup(partition, &group);
        group_records = 0;
        group_bytes = 0;
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(config_.max_usecs);
      }
      group_records += c.writes.size();
      group_bytes += c.payload_bytes;
      group.push_back(std::move(c));
    }
    bool caps_hit = group_records >= config_.max_records ||
                    group_bytes >= config_.max_bytes;
    bool timed_out = !got && !closed;
    if (!group.empty() && (caps_hit || timed_out || closed)) {
      CommitGroup(partition, &group);
      group_records = 0;
      group_bytes = 0;
    }
  }
}

void IngestFrontEnd::CommitGroup(size_t partition, std::vector<Chunk>* group) {
  // Concatenate the chunks into one span — ONE DatasetPartition::Write call
  // is what turns N chunks into one WAL write + one fsync.
  std::vector<EncodedWrite>* writes;
  std::vector<EncodedWrite> combined;
  std::vector<size_t> chunk_of;  // position -> owning chunk (multi-chunk only)
  if (group->size() == 1) {
    writes = &(*group)[0].writes;
  } else {
    size_t total = 0;
    for (const Chunk& c : *group) total += c.writes.size();
    combined.reserve(total);
    chunk_of.reserve(total);
    for (size_t ci = 0; ci < group->size(); ++ci) {
      for (EncodedWrite& w : (*group)[ci].writes) {
        combined.push_back(std::move(w));
        chunk_of.push_back(ci);
      }
    }
    writes = &combined;
  }
  BatchErrors errors;
  bool batch_failed = false;
  Status st = dataset_->partition(partition)->Write((*group)[0].op, *writes,
                                                    &errors, &batch_failed);
  // Attribute per-record errors back to their tickets (positions are into the
  // combined span; EncodedWrite::index is the ticket-local submission index).
  std::vector<std::vector<std::pair<size_t, Status>>> per_chunk(group->size());
  for (auto& [pos, rec_st] : errors) {
    size_t ci = chunk_of.empty() ? 0 : chunk_of[pos];
    per_chunk[ci].emplace_back((*writes)[pos].index, rec_st);
  }
  for (size_t ci = 0; ci < group->size(); ++ci) {
    CompleteChunk((*group)[ci].ticket, std::move(per_chunk[ci]));
  }
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    inflight_chunks_ -= group->size();
    // Batch-level failures (WAL/LSM write errors) latch; per-record
    // rejections do not — they belong to the tickets.
    if (sticky_error_.ok() && batch_failed) sticky_error_ = st;
    drain_cv_.notify_all();
  }
  group->clear();
}

Status IngestFrontEnd::Drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] { return inflight_chunks_ == 0; });
  return sticky_error_;
}

}  // namespace tc
