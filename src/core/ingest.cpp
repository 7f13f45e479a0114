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

IngestTicket IngestFrontEnd::Submit(std::vector<AdmValue> records, IngestOp op) {
  IngestTicket ticket;
  ticket.state_ = std::make_shared<IngestTicket::State>();
  // Move the records behind a shared_ptr FIRST, then encode: the
  // EncodedWrites alias the AdmValues, so they must point at their final
  // resting place.
  auto owned = std::make_shared<std::vector<AdmValue>>(std::move(records));
  std::vector<Chunk> chunks(queues_.size());
  for (Chunk& c : chunks) c.op = op;
  for (size_t i = 0; i < owned->size(); ++i) {
    const AdmValue& rec = (*owned)[i];
    EncodedWrite w;
    w.index = i;
    w.record = &rec;
    auto pk = dataset_->PrimaryKeyOf(rec);
    Status st = pk.ok() ? Status::OK() : pk.status();
    size_t p = 0;
    if (st.ok()) {
      w.pk = pk.value();
      p = dataset_->PartitionOf(w.pk);
      if (op == IngestOp::kDelete) {
        // Deletes carry no payload; only the pk travels.
        w.record = nullptr;
      } else {
        st = dataset_->partition(p)->EncodeRecord(rec, &w.payload);
      }
    }
    if (!st.ok()) {
      // Rejected before it ever reaches a queue: report on the ticket now.
      std::lock_guard<std::mutex> lock(ticket.state_->mu);
      if (ticket.state_->first_error.ok()) ticket.state_->first_error = st;
      ticket.state_->errors.emplace_back(i, std::move(st));
      continue;
    }
    Chunk& c = chunks[p];
    c.payload_bytes += op == IngestOp::kDelete ? sizeof(int64_t) : w.payload.size();
    c.writes.push_back(std::move(w));
  }
  size_t outstanding = 0;
  for (const Chunk& c : chunks) outstanding += c.writes.empty() ? 0 : 1;
  ticket.state_->outstanding_chunks = outstanding;
  if (outstanding == 0) return ticket;  // everything rejected (or empty batch)
  for (size_t p = 0; p < chunks.size(); ++p) {
    if (chunks[p].writes.empty()) continue;
    Chunk c = std::move(chunks[p]);
    c.owned = owned;
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
  // Concatenate the chunks into one span — ONE InsertEncodedBatch call is
  // what turns N chunks into one WAL write + one fsync.
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
  Status st;
  switch ((*group)[0].op) {
    case IngestOp::kInsert:
      st = dataset_->partition(partition)->InsertEncodedBatch(*writes, &errors,
                                                              &batch_failed);
      break;
    case IngestOp::kUpsert:
      st = dataset_->partition(partition)->UpsertEncodedBatch(*writes, &errors,
                                                              &batch_failed);
      break;
    case IngestOp::kDelete: {
      std::vector<int64_t> pks;
      pks.reserve(writes->size());
      for (const EncodedWrite& w : *writes) pks.push_back(w.pk);
      // DeleteBatch error positions index into pks, which is position-aligned
      // with `writes` — the attribution loop below works unchanged.
      st = dataset_->partition(partition)->DeleteBatch(pks, &errors,
                                                       &batch_failed);
      break;
    }
  }
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
