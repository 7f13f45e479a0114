#include "lsm/lsm_tree.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

namespace tc {
namespace {

constexpr const char* kComponentSuffix = ".btree";

inline uint64_t ElapsedUsecs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

// RAII charge of a component build's scratch memory (builder page buffers +
// the bloom filter under construction) against the arbiter's read share.
// Background work always admits — denial would wedge the write path — but
// while the build runs, query scratch admission shrinks correspondingly, so
// TC_MEMORY_BUDGET tracks the node's real RSS.
class ScopedBackgroundCharge {
 public:
  ScopedBackgroundCharge(MemoryArbiter* arbiter, size_t bytes)
      : arbiter_(arbiter), bytes_(bytes) {
    if (arbiter_ != nullptr) arbiter_->ChargeBackground(bytes_);
  }
  ~ScopedBackgroundCharge() {
    if (arbiter_ != nullptr) arbiter_->ReleaseBackground(bytes_);
  }
  ScopedBackgroundCharge(const ScopedBackgroundCharge&) = delete;
  ScopedBackgroundCharge& operator=(const ScopedBackgroundCharge&) = delete;

 private:
  MemoryArbiter* arbiter_;
  size_t bytes_;
};

// Scratch estimate for building a component over `entries` keyed records:
// one page buffer plus the filter bits accumulated across every added key.
size_t EstimateBuildScratch(size_t page_size, uint64_t entries,
                            size_t bits_per_key) {
  return page_size + static_cast<size_t>(entries) * bits_per_key / 8;
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  return dir.back() == '/' ? dir + name : dir + "/" + name;
}

// Parses "<name>.c<min>-<max>.btree" into the component ID range.
bool ParseComponentName(const std::string& file, const std::string& name,
                        uint64_t* cid_min, uint64_t* cid_max) {
  std::string prefix = name + ".c";
  if (file.rfind(prefix, 0) != 0) return false;
  if (file.size() < prefix.size() + std::strlen(kComponentSuffix)) return false;
  if (file.compare(file.size() - std::strlen(kComponentSuffix),
                   std::strlen(kComponentSuffix), kComponentSuffix) != 0) {
    return false;
  }
  std::string middle = file.substr(
      prefix.size(), file.size() - prefix.size() - std::strlen(kComponentSuffix));
  return std::sscanf(middle.c_str(), "%" PRIu64 "-%" PRIu64, cid_min, cid_max) == 2;
}

}  // namespace

// ---------------------------------------------------------------------------
// ComponentReclaimer
// ---------------------------------------------------------------------------

void ComponentReclaimer::Retire(std::shared_ptr<BtreeComponent> comp) {
  std::lock_guard<std::mutex> lock(mu_);
  retired_.push_back(std::move(comp));
  pending_.store(true, std::memory_order_release);
}

Status ComponentReclaimer::Drain() {
  Status first = Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = retired_.begin(); it != retired_.end();) {
    // use_count() == 1 means only this list still references the component:
    // no new pins can appear (it left the tree's component vector when it was
    // retired), so deletion is safe. A concurrently-releasing view may make
    // us observe a stale >1 — that only defers deletion to the next drain.
    if (it->use_count() > 1) {
      ++it;
      continue;
    }
    std::shared_ptr<BtreeComponent> doomed = std::move(*it);
    it = retired_.erase(it);
    cache_->InvalidateFile(doomed->file_id());
    Status st = BtreeComponent::Destroy(fs_.get(), doomed->path());
    if (first.ok() && !st.ok()) first = st;
  }
  pending_.store(!retired_.empty(), std::memory_order_release);
  // Latch the first failure ever seen: drains run from merge jobs and view
  // destructors, which have no caller to report to; the owning tree surfaces
  // this through BackgroundError()/WaitForMerges().
  if (sticky_error_.ok() && !first.ok()) sticky_error_ = first;
  return first;
}

Status ComponentReclaimer::sticky_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sticky_error_;
}

size_t ComponentReclaimer::pending_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retired_.size();
}

// ---------------------------------------------------------------------------
// ReadView
// ---------------------------------------------------------------------------

LsmTree::ReadView::~ReadView() {
  if (reclaimer_ == nullptr) return;  // moved-from
  // Release the pins first so this view's references don't keep its own
  // retired components alive through the drain below.
  comps_.clear();
  mem_.reset();
  pending_mems_.clear();
  if (reclaimer_->has_pending()) {
    Status st = reclaimer_->Drain();  // failures latch in the reclaimer
    (void)st;
  }
}

Result<std::optional<Buffer>> LsmTree::ReadView::Get(const BtreeKey& key) const {
  counters_->point_lookups.fetch_add(1, std::memory_order_relaxed);
  // Generations newest first: the live one, then sealed generations whose
  // pooled flush build has not installed yet.
  std::optional<MemTable::ScanEntry> hit = mem_->Find(key);
  if (!hit.has_value()) {
    for (const auto& mem : pending_mems_) {
      hit = mem->Find(key);
      if (hit.has_value()) break;
    }
  }
  if (hit.has_value()) {
    if (hit->anti) return std::optional<Buffer>{};
    return std::optional<Buffer>{std::move(hit->payload)};
  }
  return GetDiskVersion(key);
}

Result<std::optional<Buffer>> LsmTree::ReadView::GetDiskVersion(
    const BtreeKey& key) const {
  // THE filter-aware disk search: every point-lookup entry point (Get,
  // GetDiskVersion, upsert/delete old-version capture, secondary-index pk
  // resolution) funnels through here, so fences, filters, and the counters
  // behave identically everywhere.
  for (const auto& comp : comps_) {
    if (!comp->KeyInFence(key)) continue;
    bool filtered = comp->has_filter();
    if (filtered) {
      counters_->filter_checks.fetch_add(1, std::memory_order_relaxed);
      if (!comp->MayContain(key)) {
        counters_->filter_negatives.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    }
    uint64_t pages = 0;
    TC_ASSIGN_OR_RETURN(auto hit, comp->Get(key, &pages));
    if (pages > 0) {
      counters_->lookup_pages_read.fetch_add(pages, std::memory_order_relaxed);
    }
    if (hit.has_value()) {
      if (hit->anti) return std::optional<Buffer>{};
      return std::optional<Buffer>{std::move(hit->payload)};
    }
    if (filtered) {
      counters_->filter_false_positives.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return std::optional<Buffer>{};
}

uint64_t LsmTree::ReadView::physical_bytes() const {
  uint64_t total = 0;
  for (const auto& c : comps_) total += c->physical_bytes();
  return total;
}

Buffer LsmTree::ReadView::newest_schema_blob() const {
  return comps_.empty() ? Buffer{} : comps_.front()->meta().schema_blob;
}

LsmTree::ReadView LsmTree::View() const {
  ReadView v;
  {
    std::lock_guard<std::mutex> lock(mu_);
    v.mem_ = mem_;
    if (!flush_queue_.empty()) {
      v.pending_mems_.reserve(flush_queue_.size());
      for (auto it = flush_queue_.rbegin(); it != flush_queue_.rend(); ++it) {
        v.pending_mems_.push_back(it->mem);
      }
    }
    v.comps_ = components_;
  }
  v.counters_ = counters_;
  v.reclaimer_ = reclaimer_;
  return v;
}

LsmTree::ReadViewRef LsmTree::AcquireView() const {
  return ReadViewRef(new ReadView(View()));
}

// ---------------------------------------------------------------------------
// Open / recovery
// ---------------------------------------------------------------------------

std::string LsmTree::ComponentPath(uint64_t cid_min, uint64_t cid_max) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ".c%08" PRIu64 "-%08" PRIu64 "%s", cid_min,
                cid_max, kComponentSuffix);
  return JoinPath(opts_.dir, opts_.name + buf);
}

std::string LsmTree::WalSegmentPath(uint64_t seq) const {
  std::string base = JoinPath(opts_.dir, opts_.name + ".wal");
  if (seq == 0) return base;
  char buf[32];
  std::snprintf(buf, sizeof(buf), ".%" PRIu64, seq);
  return base + buf;
}

Result<std::unique_ptr<LsmTree>> LsmTree::Open(LsmTreeOptions options) {
  auto tree = std::unique_ptr<LsmTree>(new LsmTree());
  tree->opts_ = std::move(options);
  // Null pool = caller-runs groups: the same jobs, run on the writer thread.
  tree->flush_jobs_ = std::make_unique<TaskGroup>(tree->opts_.merge_pool);
  tree->merge_jobs_ = std::make_unique<TaskGroup>(tree->opts_.merge_pool);
  TC_CHECK(tree->opts_.fs != nullptr && tree->opts_.cache != nullptr);
  TC_CHECK(tree->opts_.cache->page_size() == tree->opts_.page_size);
  if (tree->opts_.merge_policy == nullptr) {
    tree->opts_.merge_policy = MakePrefixMergePolicy(32ull << 20, 5);
  }
  tree->opts_.max_concurrent_merges =
      std::max<size_t>(1, tree->opts_.max_concurrent_merges);
  tree->opts_.max_pending_flush_builds =
      std::max<size_t>(1, tree->opts_.max_pending_flush_builds);
  tree->compressor_ = GetCompressor(tree->opts_.compression);
  tree->transformer_ = tree->opts_.transformer != nullptr ? tree->opts_.transformer
                                                          : &tree->identity_;
  tree->merge_transformer_ = tree->opts_.merge_transformer != nullptr
                                 ? tree->opts_.merge_transformer
                                 : &tree->identity_merge_;
  if (tree->opts_.merge_recompress != CompressionKind::kNone &&
      !CompressorAvailable(tree->opts_.merge_recompress)) {
    return Status::NotSupported(
        std::string("merge_recompress codec not compiled in: ") +
        CompressionKindName(tree->opts_.merge_recompress));
  }
  tree->mem_ = std::make_shared<MemTable>();
  tree->reclaimer_ = std::make_shared<ComponentReclaimer>(tree->opts_.fs,
                                                          tree->opts_.cache);
  tree->counters_ = std::make_shared<LsmReadCounters>();
  TC_RETURN_IF_ERROR(tree->opts_.fs->CreateDir(tree->opts_.dir));
  TC_RETURN_IF_ERROR(tree->RecoverComponents());
  // Reload the newest persisted schema BEFORE replaying the WAL: replayed
  // records must be compacted against the schema their on-disk siblings used,
  // keeping FieldNameIDs stable (§3.1.2).
  TC_RETURN_IF_ERROR(
      tree->transformer_->OnRecoveredSchema(tree->newest_schema_blob()));
  if (tree->opts_.use_wal) {
    TC_RETURN_IF_ERROR(tree->ReplayWal());
  }
  if (tree->opts_.arbiter != nullptr) {
    // Register AFTER recovery: the replay flush above ran unregistered, so a
    // replaying tree never dispatches cross-tree victims.
    LsmTree* raw = tree.get();
    tree->arbiter_reg_ = tree->opts_.arbiter->Register(
        tree->opts_.name, tree->opts_.arbiter_floor_bytes,
        [raw] { return raw->TryArbiterFlush(); });
  }
  return tree;
}

LsmTree::~LsmTree() {
  // Leave the arbiter FIRST: Unregister blocks until any in-flight
  // TryArbiterFlush dispatch on another writer's thread returns, so nothing
  // below tears state out from under it.
  if (arbiter_reg_ != nullptr) {
    opts_.arbiter->Unregister(arbiter_reg_);
    arbiter_reg_ = nullptr;
  }
  // Cancel merge jobs that have not started (cheap skips — their inputs stay
  // in the tree) and wait out the running ones; after the waits no pool
  // thread touches this tree. Flush builds are canceled only when a WAL
  // backs the tree: their sealed generations then survive as WAL segments
  // for the next Open to replay. WAL-less trees (the pk/secondary indexes)
  // instead DRAIN their queued builds, so a completed Flush() is never lost
  // on clean teardown — exactly the pre-pipeline guarantee.
  merge_jobs_->Cancel();
  if (opts_.use_wal) flush_jobs_->Cancel();
  // Drained flush builds may install and cascade-schedule merges; those land
  // in the canceled merge group and run as skips, so wait for the flush group
  // first and the merge group (which only ever shrinks after that) second.
  flush_jobs_->Wait();
  merge_jobs_->Wait();
  components_.clear();
  flush_queue_.clear();
  mem_.reset();
  if (reclaimer_ != nullptr) {
    Status st = reclaimer_->Drain();  // views still out keep their files alive
    (void)st;
  }
}

Status LsmTree::RecoverComponents() {
  TC_ASSIGN_OR_RETURN(auto files, opts_.fs->List(opts_.dir, opts_.name + ".c"));
  struct Found {
    uint64_t cid_min, cid_max;
    std::string path;
  };
  std::vector<Found> found;
  for (const auto& f : files) {
    uint64_t lo = 0, hi = 0;
    if (!ParseComponentName(f, opts_.name, &lo, &hi)) continue;
    std::string path = JoinPath(opts_.dir, f);
    if (!BtreeComponent::IsValid(opts_.fs.get(), path)) {
      // Crash mid-flush or mid-merge: remove the INVALID component (§3.1.2).
      TC_RETURN_IF_ERROR(BtreeComponent::Destroy(opts_.fs.get(), path));
      continue;
    }
    found.push_back({lo, hi, path});
  }
  // A crash after a merge was marked VALID but before the merged inputs were
  // deleted leaves components whose ID ranges are contained in the merged
  // one; drop the contained ones.
  std::vector<Found> keep;
  for (const auto& c : found) {
    bool contained = false;
    for (const auto& o : found) {
      if (&o == &c) continue;
      if (o.cid_min <= c.cid_min && c.cid_max <= o.cid_max &&
          (o.cid_max - o.cid_min) > (c.cid_max - c.cid_min)) {
        contained = true;
        break;
      }
    }
    if (contained) {
      TC_RETURN_IF_ERROR(BtreeComponent::Destroy(opts_.fs.get(), c.path));
    } else {
      keep.push_back(c);
    }
  }
  // Newest first == descending component IDs (IDs are monotonic, §2.2).
  std::sort(keep.begin(), keep.end(),
            [](const Found& x, const Found& y) { return x.cid_max > y.cid_max; });
  for (const auto& c : keep) {
    TC_ASSIGN_OR_RETURN(auto comp,
                        BtreeComponent::Open(opts_.fs, opts_.cache, c.path,
                                             opts_.page_size, compressor_,
                                             opts_.filter));
    components_.push_back(std::move(comp));
    next_cid_ = std::max(next_cid_, c.cid_max + 1);
  }
  stats_.component_count_high_water = std::max<uint64_t>(
      stats_.component_count_high_water, components_.size());
  return Status::OK();
}

Status LsmTree::ReplayWal() {
  std::lock_guard<std::mutex> wlock(write_mu_);
  // Collect the log segments: the base segment plus any rotated segments a
  // crashed (or torn-down) predecessor left behind pooled flush builds that
  // never installed. Replaying them in rotation order restores every
  // generation in write order.
  std::string base_name = opts_.name + ".wal";
  TC_ASSIGN_OR_RETURN(auto files, opts_.fs->List(opts_.dir, base_name));
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const auto& f : files) {
    if (f == base_name) {
      segments.emplace_back(0, JoinPath(opts_.dir, f));
    } else if (f.size() > base_name.size() + 1 &&
               f.compare(0, base_name.size(), base_name) == 0 &&
               f[base_name.size()] == '.') {
      // Accept only an all-digit suffix: a partial sscanf match would treat
      // a stray sibling file (t.wal.1.bak) as a segment — replaying junk and
      // then deleting the user's file below.
      uint64_t seq = 0;
      bool all_digits = true;
      for (size_t i = base_name.size() + 1; i < f.size(); ++i) {
        if (f[i] < '0' || f[i] > '9') {
          all_digits = false;
          break;
        }
        seq = seq * 10 + static_cast<uint64_t>(f[i] - '0');
      }
      if (all_digits && seq > 0) {
        segments.emplace_back(seq, JoinPath(opts_.dir, f));
      }
    }
  }
  std::sort(segments.begin(), segments.end());
  // The component structure cannot change during replay (no flush until the
  // loop ends), so one snapshot serves every old-version re-capture.
  ReadView disk_view = View();
  auto apply = [&](const WalRecord& r) -> Status {
    // Re-capture the old on-disk version exactly as the original operation
    // did; the pre-crash capture died with the in-memory component.
    std::optional<Buffer> old;
    if (opts_.capture_old_versions && !mem_->Contains(r.key)) {
      TC_ASSIGN_OR_RETURN(auto disk, disk_view.GetDiskVersion(r.key));
      if (disk.has_value()) old = std::move(disk);
    }
    if (r.op == WalOp::kPut) {
      mem_->Put(r.key, Buffer(r.payload.begin(), r.payload.end()), std::move(old));
    } else {
      mem_->Delete(r.key, std::move(old));
    }
    return Status::OK();
  };
  for (const auto& seg : segments) {
    TC_ASSIGN_OR_RETURN(auto wal, WriteAheadLog::Open(opts_.fs, seg.second, 0));
    TC_RETURN_IF_ERROR(wal->Replay(apply));
  }
  // Flush the restored in-memory component (paper §3.1.2) through the one
  // flush path, then wait for its build: every replayed segment must be
  // durable as a component before it is dropped and the fresh base segment
  // opens. No WAL is live yet, so the flush rotates nothing, and replay
  // takes no merge decision (the first one follows the next flush).
  {
    std::lock_guard<std::mutex> lock(mu_);
    replaying_ = true;
  }
  TC_RETURN_IF_ERROR(FlushLocked());
  flush_jobs_->Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    replaying_ = false;
    TC_RETURN_IF_ERROR(BackgroundErrorLocked());
  }
  for (const auto& seg : segments) {
    TC_RETURN_IF_ERROR(opts_.fs->Delete(seg.second));
  }
  wal_seq_ = 0;
  TC_ASSIGN_OR_RETURN(wal_, WriteAheadLog::Open(opts_.fs, WalSegmentPath(0),
                                                opts_.wal_sync_every));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

Status LsmTree::BackgroundErrorLocked() const {
  if (!background_error_.ok()) return background_error_;
  return reclaimer_->sticky_error();
}

Status LsmTree::BackgroundError() const {
  std::lock_guard<std::mutex> lock(mu_);
  return BackgroundErrorLocked();
}

std::optional<MemTable::ScanEntry> LsmTree::FindPendingFlushEntry(
    const BtreeKey& key) const {
  std::vector<std::shared_ptr<MemTable>> pending;  // newest first
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (flush_queue_.empty()) return std::nullopt;
    pending.reserve(flush_queue_.size());
    for (auto it = flush_queue_.rbegin(); it != flush_queue_.rend(); ++it) {
      pending.push_back(it->mem);
    }
  }
  for (const auto& mem : pending) {
    std::optional<MemTable::ScanEntry> hit = mem->Find(key);
    if (hit.has_value()) return hit;
  }
  return std::nullopt;
}

Result<std::optional<Buffer>> LsmTree::CaptureOldVersion(const BtreeKey& key) {
  std::optional<MemTable::ScanEntry> pending = FindPendingFlushEntry(key);
  if (pending.has_value()) {
    if (pending->anti || pending->payload.empty()) {
      return std::optional<Buffer>{};
    }
    return std::optional<Buffer>{std::move(pending->payload)};
  }
  // Every old-version capture consults the existence filter (the pk index):
  // a false answer proves there is no on-disk version, so the B-tree probes
  // are skipped on upserts AND deletes alike. Safe on delete because the
  // dataset removes the pk-index entry only after the primary delete.
  if (opts_.key_may_exist && !opts_.key_may_exist(key)) {
    return std::optional<Buffer>{};
  }
  counters_->old_version_lookups.fetch_add(1, std::memory_order_relaxed);
  return View().GetDiskVersion(key);
}

Status LsmTree::Insert(const BtreeKey& key, std::string_view payload) {
  MemPutOp one{key, payload};
  return InsertBatch(SingletonSpan<const MemPutOp>(one));
}

Status LsmTree::InsertBatch(Span<const MemPutOp> ops) {
  if (ops.empty()) return Status::OK();
  std::lock_guard<std::mutex> wlock(write_mu_);
  TC_RETURN_IF_ERROR(BackgroundError());
  if (wal_ != nullptr) {
    wal_batch_.clear();
    wal_batch_.reserve(ops.size());
    for (const MemPutOp& op : ops) {
      wal_batch_.push_back(WalAppendOp{WalOp::kPut, op.key, op.payload});
    }
    TC_RETURN_IF_ERROR(wal_->AppendBatch(wal_batch_));
  }
  mem_->InsertBatch(ops);
  return MaybeFlushPostWrite();
}

Status LsmTree::UpsertBatch(Span<const MemPutOp> ops,
                            std::vector<std::optional<Buffer>>* old_out) {
  if (old_out != nullptr) {
    old_out->clear();
    old_out->resize(ops.size());
  }
  if (ops.empty()) return Status::OK();
  std::lock_guard<std::mutex> wlock(write_mu_);
  TC_RETURN_IF_ERROR(BackgroundError());
  // One group-committed WAL append for the whole batch; the old-version
  // captures below are read-only and need no logging.
  if (wal_ != nullptr) {
    wal_batch_.clear();
    wal_batch_.reserve(ops.size());
    for (const MemPutOp& op : ops) {
      wal_batch_.push_back(WalAppendOp{WalOp::kPut, op.key, op.payload});
    }
    TC_RETURN_IF_ERROR(wal_->AppendBatch(wal_batch_));
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    const MemPutOp& op = ops[i];
    std::optional<Buffer> old;
    const MemTable::Entry* mem_hit = mem_->Get(op.key);  // writer-side, no copy
    if (mem_hit == nullptr) {
      if (opts_.capture_old_versions) {
        TC_ASSIGN_OR_RETURN(old, CaptureOldVersion(op.key));
      }
      if (old_out != nullptr && old.has_value()) (*old_out)[i] = old;
    } else if (old_out != nullptr && !mem_hit->anti && !mem_hit->payload.empty()) {
      (*old_out)[i] = mem_hit->payload;
    }
    mem_->Put(op.key, Buffer(op.payload.begin(), op.payload.end()),
              std::move(old));
  }
  return MaybeFlushPostWrite();
}

Status LsmTree::DeleteBatch(Span<const BtreeKey> keys,
                            std::vector<std::optional<Buffer>>* old_out) {
  if (old_out != nullptr) {
    old_out->clear();
    old_out->resize(keys.size());
  }
  if (keys.empty()) return Status::OK();
  std::lock_guard<std::mutex> wlock(write_mu_);
  TC_RETURN_IF_ERROR(BackgroundError());
  if (wal_ != nullptr) {
    wal_batch_.clear();
    wal_batch_.reserve(keys.size());
    for (const BtreeKey& key : keys) {
      wal_batch_.push_back(WalAppendOp{WalOp::kDelete, key, {}});
    }
    TC_RETURN_IF_ERROR(wal_->AppendBatch(wal_batch_));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    std::optional<Buffer> old;
    const MemTable::Entry* mem_hit = mem_->Get(keys[i]);
    if (mem_hit == nullptr) {
      if (opts_.capture_old_versions) {
        TC_ASSIGN_OR_RETURN(old, CaptureOldVersion(keys[i]));
      }
      // Delete's miss path ALWAYS assigns (nullopt included), as Delete does.
      if (old_out != nullptr) (*old_out)[i] = old;
    } else if (old_out != nullptr && !mem_hit->anti && !mem_hit->payload.empty()) {
      (*old_out)[i] = mem_hit->payload;
    }
    mem_->Delete(keys[i], std::move(old));
  }
  return MaybeFlushPostWrite();
}

Status LsmTree::Upsert(const BtreeKey& key, std::string_view payload,
                       std::optional<Buffer>* old_out) {
  std::lock_guard<std::mutex> wlock(write_mu_);
  TC_RETURN_IF_ERROR(BackgroundError());
  if (wal_ != nullptr) {
    auto lsn = wal_->Append(WalOp::kPut, key, payload);
    if (!lsn.ok()) return lsn.status();
  }
  std::optional<Buffer> old;
  // Writer-side pointer read (no copy): we hold write_mu_, so nothing else
  // mutates the live generation — the same reasoning the flush swap uses.
  const MemTable::Entry* mem_hit = mem_->Get(key);
  if (mem_hit == nullptr) {
    // Old-version capture is gated on capture_old_versions wherever the
    // previous version lives — pending flush queue or disk — so the old_out
    // contract does not depend on build timing. Trees that never capture
    // (e.g. the pk index) skip both probes entirely.
    if (opts_.capture_old_versions) {
      TC_ASSIGN_OR_RETURN(old, CaptureOldVersion(key));
    }
    if (old_out != nullptr && old.has_value()) *old_out = old;
  } else if (old_out != nullptr && !mem_hit->anti && !mem_hit->payload.empty()) {
    *old_out = mem_hit->payload;
  }
  mem_->Put(key, Buffer(payload.begin(), payload.end()), std::move(old));
  return MaybeFlushPostWrite();
}

Status LsmTree::Delete(const BtreeKey& key, std::optional<Buffer>* old_out) {
  std::lock_guard<std::mutex> wlock(write_mu_);
  TC_RETURN_IF_ERROR(BackgroundError());
  if (wal_ != nullptr) {
    auto lsn = wal_->Append(WalOp::kDelete, key, {});
    if (!lsn.ok()) return lsn.status();
  }
  std::optional<Buffer> old;
  const MemTable::Entry* mem_hit = mem_->Get(key);  // writer-side, no copy
  if (mem_hit == nullptr) {
    if (opts_.capture_old_versions) {
      TC_ASSIGN_OR_RETURN(old, CaptureOldVersion(key));
    }
    // Unlike Upsert, Delete's miss path ALWAYS assigns *old_out (nullopt
    // included) — the historical contract.
    if (old_out != nullptr) *old_out = old;
  } else if (old_out != nullptr && !mem_hit->anti && !mem_hit->payload.empty()) {
    *old_out = mem_hit->payload;
  }
  mem_->Delete(key, std::move(old));
  return MaybeFlushPostWrite();
}

Status LsmTree::MaybeFlushPostWrite() {
  if (arbiter_reg_ != nullptr) {
    // Global arbitration: report the live generation, flush only when this
    // tree is the node-wide victim. A cross-tree victim was already flushed
    // inside OnPostWrite (on this thread, via its TryArbiterFlush).
    if (opts_.arbiter->OnPostWrite(arbiter_reg_, mem_->approximate_bytes())) {
      return FlushLocked();
    }
    return Status::OK();
  }
  if (mem_->approximate_bytes() >= opts_.memtable_budget_bytes) {
    return FlushLocked();
  }
  return Status::OK();
}

bool LsmTree::TryArbiterFlush() {
  // Called on another tree's writer thread, which holds ITS write_mu_ — so
  // never block here: a writer of this tree could simultaneously be
  // dispatching a victim flush the other way (ABBA).
  std::unique_lock<std::mutex> wlock(write_mu_, std::try_to_lock);
  if (!wlock.owns_lock()) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!BackgroundErrorLocked().ok()) return false;
    if (mem_->empty()) return false;
    // Full flush queue: FlushLocked would block on the backpressure wait.
    // Checked here because the queue cannot GROW before FlushLocked's wait —
    // only writers push, and we hold write_mu_.
    if (flush_queue_.size() >= opts_.max_pending_flush_builds) return false;
  }
  Status st = FlushLocked();
  if (!st.ok()) {
    // No caller to report to (the dispatching writer belongs to another
    // tree): latch it where this tree's own writers will see it.
    std::lock_guard<std::mutex> lock(mu_);
    if (background_error_.ok()) background_error_ = st;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Reads (thin wrappers over one-shot snapshots)
// ---------------------------------------------------------------------------

Result<std::optional<Buffer>> LsmTree::Get(const BtreeKey& key) {
  return View().Get(key);
}

Result<std::optional<Buffer>> LsmTree::GetDiskVersion(const BtreeKey& key) {
  return View().GetDiskVersion(key);
}

LsmStats LsmTree::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  LsmStats s = stats_;
  s.point_lookups = counters_->point_lookups.load(std::memory_order_relaxed);
  s.old_version_lookups =
      counters_->old_version_lookups.load(std::memory_order_relaxed);
  s.filter_checks = counters_->filter_checks.load(std::memory_order_relaxed);
  s.filter_negatives =
      counters_->filter_negatives.load(std::memory_order_relaxed);
  s.filter_false_positives =
      counters_->filter_false_positives.load(std::memory_order_relaxed);
  s.lookup_pages_read =
      counters_->lookup_pages_read.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Flush
// ---------------------------------------------------------------------------

Status LsmTree::Flush() {
  std::lock_guard<std::mutex> wlock(write_mu_);
  TC_RETURN_IF_ERROR(BackgroundError());
  return FlushLocked();
}

Status LsmTree::FlushLocked() {
  if (!mem_->empty()) {
    {
      // Backpressure: a bounded queue of sealed generations. Break on ANY
      // latched error — build failures and reclaimer-drain failures alike —
      // because FlushBuildJob short-circuits on the same combined check, so
      // after either kind of error the queue would never shrink and this
      // wait would deadlock.
      std::unique_lock<std::mutex> lock(mu_);
      flush_cv_.wait(lock, [this] {
        return flush_queue_.size() < opts_.max_pending_flush_builds ||
               !BackgroundErrorLocked().ok();
      });
      TC_RETURN_IF_ERROR(BackgroundErrorLocked());
    }
    // Rotate the WAL: the sealed generation's segment must survive on disk
    // until its component is durable; new writes go to a fresh segment.
    std::string frozen_wal;
    if (wal_ != nullptr) {
      TC_RETURN_IF_ERROR(wal_->Sync());
      frozen_wal = wal_->path();
      TC_ASSIGN_OR_RETURN(
          auto next_wal, WriteAheadLog::Open(opts_.fs, WalSegmentPath(wal_seq_ + 1),
                                             opts_.wal_sync_every));
      ++wal_seq_;
      wal_ = std::move(next_wal);
    }
    uint64_t cid = next_cid_++;
    bool submit = false;
    size_t sealed_bytes = 0;
    {
      // The swap — all a pooled writer pays: seal the generation, queue it
      // for its build (views keep reading it from the queue), hand new
      // writes a fresh generation.
      std::lock_guard<std::mutex> lock(mu_);
      mem_->Seal();
      sealed_bytes = mem_->approximate_bytes();
      flush_queue_.push_back(PendingFlush{cid, mem_, std::move(frozen_wal)});
      stats_.flush_queue_high_water = std::max<uint64_t>(
          stats_.flush_queue_high_water, flush_queue_.size());
      mem_ = std::make_shared<MemTable>();
      if (!flush_build_running_) {
        flush_build_running_ = true;
        submit = true;
      }
    }
    if (arbiter_reg_ != nullptr) {
      // live -> sealed: the generation keeps counting against the write
      // share until its component installs, so a backlogged build pipeline
      // backpressures global victim selection.
      opts_.arbiter->OnSeal(arbiter_reg_, sealed_bytes);
    }
    if (submit) {
      // High lane: a flush build gates writer admission (TC_FLUSH_PENDING
      // backpressure), so it must never queue behind a storm of merges.
      // Caller-runs builds, installs and cascades every merge right here.
      flush_jobs_->Submit([this](bool canceled) { FlushBuildJob(canceled); },
                          TaskPriority::kHigh);
    }
  }
  std::vector<MergePlan> plans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    plans = ScheduleMergesLocked();
  }
  SubmitMerges(std::move(plans));
  // A caller-runs failure above happened during this call, so it is this
  // call's error; with a pool, whatever has latched so far.
  return BackgroundError();
}

Result<std::shared_ptr<BtreeComponent>> LsmTree::BuildFlushComponent(
    const MemTable& mem, uint64_t cid) {
  std::string path = ComponentPath(cid, cid);
  ScopedBackgroundCharge charge(
      opts_.arbiter,
      EstimateBuildScratch(opts_.page_size, mem.entry_count(),
                           opts_.filter.bits_per_key));
  TC_ASSIGN_OR_RETURN(auto builder,
                      BtreeComponentBuilder::Create(opts_.fs, path,
                                                    opts_.page_size, compressor_,
                                                    opts_.filter));
  TC_RETURN_IF_ERROR(transformer_->OnFlushBegin());
  // Iteration needs no lock: `mem` is a sealed generation nothing mutates.
  // Transformer calls are serialized in generation order — at most one
  // flush build per tree at a time — because schema inference is stateful
  // and order-dependent (§3.1.1).
  Buffer transformed;
  for (auto it = mem.begin(); it != mem.end(); ++it) {
    const MemTable::Entry& e = it->second;
    if (e.has_old) {
      TC_RETURN_IF_ERROR(transformer_->OnRemovedVersion(
          std::string_view(reinterpret_cast<const char*>(e.old_payload.data()),
                           e.old_payload.size())));
    }
    if (e.anti) {
      TC_RETURN_IF_ERROR(builder->Add(it->first, true, {}));
    } else {
      transformed.clear();
      TC_RETURN_IF_ERROR(transformer_->TransformLive(
          std::string_view(reinterpret_cast<const char*>(e.payload.data()),
                           e.payload.size()),
          &transformed));
      TC_RETURN_IF_ERROR(builder->Add(
          it->first, false,
          std::string_view(reinterpret_cast<const char*>(transformed.data()),
                           transformed.size())));
    }
  }
  Buffer schema_blob;
  TC_RETURN_IF_ERROR(transformer_->OnFlushEnd(&schema_blob));
  TC_RETURN_IF_ERROR(builder->Finish(cid, cid, schema_blob));
  TC_RETURN_IF_ERROR(builder->MarkValid());
  return BtreeComponent::Open(opts_.fs, opts_.cache, path, opts_.page_size,
                              compressor_, opts_.filter);
}

void LsmTree::FlushBuildJob(bool canceled) {
  PendingFlush work;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Short-circuit without building: teardown canceled us, or an error is
    // latched (the queued generations stay readable and their WAL segments
    // stay on disk for the next recovery).
    if (canceled || !BackgroundErrorLocked().ok() || flush_queue_.empty()) {
      flush_build_running_ = false;
      flush_cv_.notify_all();
      return;
    }
    work = flush_queue_.front();  // stays queued: views must keep pinning it
  }
  Result<std::shared_ptr<BtreeComponent>> built =
      BuildFlushComponent(*work.mem, work.cid);
  bool more = false;
  uint64_t phys = 0;
  std::vector<MergePlan> plans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!built.ok()) {
      if (background_error_.ok()) background_error_ = built.status();
      flush_build_running_ = false;
      flush_cv_.notify_all();  // wake backpressured writers into the error
      return;
    }
    // Install + dequeue in one atomic step: every snapshot sees the
    // generation's records exactly once. Builds run in generation order, so
    // this component is the newest the tree has ever installed.
    auto comp = std::move(built).value();
    TC_CHECK(!flush_queue_.empty() && flush_queue_.front().cid == work.cid);
    TC_CHECK(components_.empty() ||
             components_.front()->meta().cid_max < work.cid);
    phys = comp->physical_bytes();
    stats_.bytes_flushed += phys;
    ++stats_.flush_count;
    components_.insert(components_.begin(), std::move(comp));
    stats_.component_count_high_water = std::max<uint64_t>(
        stats_.component_count_high_water, components_.size());
    flush_queue_.pop_front();
    more = !flush_queue_.empty();
    if (!more) flush_build_running_ = false;
    plans = ScheduleMergesLocked();
    flush_cv_.notify_all();
  }
  SubmitMerges(std::move(plans));
  if (arbiter_reg_ != nullptr) {
    // Sealed accounting releases only now, when the memory is truly traded
    // for a durable component (approximate_bytes is lock-free once sealed).
    opts_.arbiter->OnFlushInstalled(arbiter_reg_, work.mem->approximate_bytes(),
                                    phys);
  }
  // The generation is durable as a component; its WAL segment can go.
  if (!work.wal_path.empty()) {
    Status st = opts_.fs->Delete(work.wal_path);
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (background_error_.ok()) background_error_ = st;
    }
  }
  if (more) {
    flush_jobs_->Submit([this](bool c) { FlushBuildJob(c); },
                        TaskPriority::kHigh);
  }
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

Result<LsmTree::MergePlan> LsmTree::DecideMergeLocked() {
  std::vector<uint64_t> sizes;
  sizes.reserve(components_.size());
  std::vector<bool> claimed;
  if (!claimed_.empty()) claimed.resize(components_.size(), false);
  for (size_t i = 0; i < components_.size(); ++i) {
    sizes.push_back(components_[i]->physical_bytes());
    if (!claimed.empty() && claimed_.count(components_[i].get()) > 0) {
      claimed[i] = true;
    }
  }
  MergeDecision d = opts_.merge_policy->Decide(sizes, claimed);
  MergePlan plan;
  if (!d.merge) return plan;
  // Harden against malformed decisions: an inverted range would underflow the
  // width check below, and an overlong one would walk off the vector.
  if (d.begin > d.end || d.end > components_.size()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "merge policy '%s' returned invalid range [%zu, %zu) over %zu "
                  "components",
                  opts_.merge_policy->name(), d.begin, d.end, components_.size());
    return Status::Internal(buf);
  }
  if (d.end - d.begin < 2) return plan;
  // A range overlapping an in-flight merge's claimed inputs would double-
  // merge (and double-retire) those components.
  for (size_t i = d.begin; i < d.end; ++i) {
    if (!claimed.empty() && claimed[i]) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "merge policy '%s' proposed range [%zu, %zu) overlapping a "
                    "claimed component",
                    opts_.merge_policy->name(), d.begin, d.end);
      return Status::Internal(buf);
    }
  }
  plan.inputs.assign(components_.begin() + static_cast<ptrdiff_t>(d.begin),
                     components_.begin() + static_cast<ptrdiff_t>(d.end));
  plan.drop_tombstones = (d.end == components_.size());
  plan.cid_min = plan.inputs.back()->meta().cid_min;
  plan.cid_max = plan.inputs.front()->meta().cid_max;
  return plan;
}

Result<std::shared_ptr<BtreeComponent>> LsmTree::BuildMergedComponent(
    const MergePlan& plan, MergePipelineCounters* counters) {
  std::string path = ComponentPath(plan.cid_min, plan.cid_max);
  // Cold-level recompression: a bottom merge (tombstones dropping means this
  // component has nothing beneath it) is the tree's coldest, most-read-stable
  // data, so it can afford a heavier codec than the flush path. Readers are
  // unaffected — the LAF v2 sidecar makes every component self-describing.
  std::shared_ptr<const Compressor> codec = compressor_;
  if (plan.drop_tombstones &&
      opts_.merge_recompress != CompressionKind::kNone &&
      opts_.merge_recompress != opts_.compression) {
    codec = GetCompressor(opts_.merge_recompress);
    TC_CHECK(codec != nullptr);  // validated at Open
    counters->recompressed = true;
  }
  uint64_t input_entries = 0;
  for (const auto& c : plan.inputs) {
    input_entries += c->meta().n_entries + c->meta().n_anti;
  }
  ScopedBackgroundCharge charge(
      opts_.arbiter, EstimateBuildScratch(opts_.page_size, input_entries,
                                          opts_.filter.bits_per_key));
  TC_ASSIGN_OR_RETURN(auto builder,
                      BtreeComponentBuilder::Create(opts_.fs, path,
                                                    opts_.page_size, codec,
                                                    opts_.filter));
  // Staged transformation pipeline over the k-way merge, newest component
  // winning on key ties: READ (cursor selection/advance) -> TRANSFORM (the
  // merge transformer re-compacts each surviving live record against the
  // newest inferred schema, §3.1.1) -> COMPRESS/WRITE (builder; the codec
  // share is the builder's compress_nanos, subtracted from write wall time).
  // Per-stage wall time feeds LsmStats so the merge-pipeline CPU share is
  // observable (paper fig. 17's compaction-overhead axis).
  struct Cursor {
    std::unique_ptr<BtreeComponent::Iterator> it;
    size_t rank;  // lower == newer
  };
  std::vector<Cursor> cursors;
  for (size_t i = 0; i < plan.inputs.size(); ++i) {
    auto it = std::make_unique<BtreeComponent::Iterator>(plan.inputs[i].get());
    TC_RETURN_IF_ERROR(it->SeekToFirst());
    if (it->Valid()) cursors.push_back({std::move(it), i});
  }
  Buffer transformed;
  uint64_t write_wall_usecs = 0;
  while (!cursors.empty()) {
    auto read_t0 = std::chrono::steady_clock::now();
    // Find the minimal key; among equals, the lowest rank (newest) wins.
    size_t best = 0;
    for (size_t i = 1; i < cursors.size(); ++i) {
      const BtreeKey& k = cursors[i].it->key();
      const BtreeKey& bk = cursors[best].it->key();
      if (k < bk || (k == bk && cursors[i].rank < cursors[best].rank)) best = i;
    }
    BtreeKey key = cursors[best].it->key();
    bool anti = cursors[best].it->anti();
    std::string_view payload = cursors[best].it->payload();
    counters->read_usecs += ElapsedUsecs(read_t0);
    if (anti && plan.drop_tombstones) {
      // Annihilated: the anti-matter entry and any older record both vanish.
    } else if (anti) {
      auto write_t0 = std::chrono::steady_clock::now();
      TC_RETURN_IF_ERROR(builder->Add(key, true, {}));
      write_wall_usecs += ElapsedUsecs(write_t0);
    } else {
      auto transform_t0 = std::chrono::steady_clock::now();
      bool rewritten = false;
      TC_RETURN_IF_ERROR(
          merge_transformer_->TransformMerged(payload, &transformed,
                                              &rewritten));
      counters->transform_usecs += ElapsedUsecs(transform_t0);
      if (rewritten) {
        ++counters->records_recompacted;
        counters->bytes_recompacted += payload.size();
      }
      auto write_t0 = std::chrono::steady_clock::now();
      TC_RETURN_IF_ERROR(builder->Add(
          key, false,
          std::string_view(reinterpret_cast<const char*>(transformed.data()),
                           transformed.size())));
      write_wall_usecs += ElapsedUsecs(write_t0);
    }
    auto adv_t0 = std::chrono::steady_clock::now();
    // Advance every cursor positioned at this key.
    for (size_t i = 0; i < cursors.size();) {
      if (cursors[i].it->key() == key) {
        TC_RETURN_IF_ERROR(cursors[i].it->Next());
        if (!cursors[i].it->Valid()) {
          cursors.erase(cursors.begin() + static_cast<ptrdiff_t>(i));
          continue;
        }
      }
      ++i;
    }
    counters->read_usecs += ElapsedUsecs(adv_t0);
  }
  // Persist the schema covering the merged set: by default the newest input's
  // (superset) blob, but a live transformer substitutes its current in-memory
  // schema so a full cascade leaves every component on the final schema even
  // when the newest INPUT predates the last evolution (§3.1.1).
  Buffer schema_blob;
  TC_RETURN_IF_ERROR(merge_transformer_->OnMergeEnd(
      plan.inputs.front()->meta().schema_blob, &schema_blob));
  auto finish_t0 = std::chrono::steady_clock::now();
  TC_RETURN_IF_ERROR(builder->Finish(plan.cid_min, plan.cid_max, schema_blob));
  TC_RETURN_IF_ERROR(builder->MarkValid());
  write_wall_usecs += ElapsedUsecs(finish_t0);
  // Split the builder's wall time into its codec share and the rest.
  counters->compress_usecs = builder->compress_nanos() / 1000;
  counters->write_usecs +=
      write_wall_usecs > counters->compress_usecs
          ? write_wall_usecs - counters->compress_usecs
          : 0;
  return BtreeComponent::Open(opts_.fs, opts_.cache, path, opts_.page_size,
                              codec, opts_.filter);
}

void LsmTree::InstallMergedLocked(const MergePlan& plan,
                                  std::shared_ptr<BtreeComponent> merged) {
  // Locate the inputs by IDENTITY, not position: flushes prepend and other
  // disjoint merges install while this one rewrote, so indexes have shifted
  // — but the claimed inputs themselves cannot move relative to each other
  // or leave the vector, so the merged component takes the slot of the
  // newest input.
  std::unordered_set<const BtreeComponent*> in_plan;
  for (const auto& c : plan.inputs) in_plan.insert(c.get());
  std::vector<std::shared_ptr<BtreeComponent>> rebuilt;
  rebuilt.reserve(components_.size() + 1 - plan.inputs.size());
  size_t idx = components_.size();
  size_t found = 0;
  for (const auto& c : components_) {
    if (in_plan.count(c.get()) > 0) {
      if (found == 0) idx = rebuilt.size();
      ++found;
      continue;
    }
    rebuilt.push_back(c);
  }
  TC_CHECK(found == plan.inputs.size());
  stats_.bytes_merged += merged->physical_bytes();
  ++stats_.merge_count;
  rebuilt.insert(rebuilt.begin() + static_cast<ptrdiff_t>(idx),
                 std::move(merged));
  components_.swap(rebuilt);
  // Swap complete: the inputs leave the tree. Views still referencing them
  // keep the files alive; the reclaimer deletes them on last release.
  for (const auto& c : plan.inputs) reclaimer_->Retire(c);
}

void LsmTree::FoldMergeCountersLocked(const MergePipelineCounters& counters,
                                      uint64_t merged_physical_bytes) {
  stats_.merge_read_usecs += counters.read_usecs;
  stats_.merge_transform_usecs += counters.transform_usecs;
  stats_.merge_compress_usecs += counters.compress_usecs;
  stats_.merge_write_usecs += counters.write_usecs;
  stats_.merge_records_recompacted += counters.records_recompacted;
  stats_.merge_bytes_recompacted += counters.bytes_recompacted;
  if (counters.recompressed) {
    ++stats_.merge_components_recompressed;
    stats_.merge_bytes_recompressed += merged_physical_bytes;
  }
}

void LsmTree::ReleaseMergePlanLocked(const MergePlan& plan) {
  for (const auto& c : plan.inputs) claimed_.erase(c.get());
  TC_CHECK(merges_inflight_ > 0);
  --merges_inflight_;
}

double EstimateMergeRewriteValue(uint64_t total_bytes,
                                 uint64_t stale_schema_bytes,
                                 uint64_t recompressible_bytes, size_t fan_in) {
  if (total_bytes == 0 || fan_in == 0) return 0.0;
  // Each term is the fraction of the rewritten bytes that the merge improves:
  // bytes re-encoded onto the newest schema, bytes moved to the heavier
  // codec, and the read-amplification payoff of collapsing fan_in components
  // into one (a 2-way merge halves the lookups over those bytes; an 8-way
  // merge nearly eliminates them). Summing deliberately over-weights plans
  // that win on several axes at once.
  double total = static_cast<double>(total_bytes);
  double stale = static_cast<double>(stale_schema_bytes);
  double recomp = static_cast<double>(recompressible_bytes);
  double collapse =
      total * (static_cast<double>(fan_in - 1) / static_cast<double>(fan_in));
  return (stale + recomp + collapse) / total;
}

double LsmTree::ScoreMergePlanLocked(const MergePlan& plan) const {
  uint64_t total = 0;
  uint64_t stale = 0;
  uint64_t recompressible = 0;
  // "Newest schema" = the newest component in the whole tree, not the plan:
  // a merge whose inputs agree with each other but lag the tree still
  // rewrites onto the in-memory schema via OnMergeEnd.
  const Buffer* newest_schema = components_.empty()
                                    ? nullptr
                                    : &components_.front()->meta().schema_blob;
  bool transforming = merge_transformer_ != &identity_merge_;
  bool recompressing = plan.drop_tombstones &&
                       opts_.merge_recompress != CompressionKind::kNone;
  for (const auto& c : plan.inputs) {
    uint64_t phys = c->physical_bytes();
    total += phys;
    if (transforming && newest_schema != nullptr &&
        c->meta().schema_blob != *newest_schema) {
      stale += phys;
    }
    if (recompressing && c->compression() != opts_.merge_recompress) {
      recompressible += phys;
    }
  }
  return EstimateMergeRewriteValue(total, stale, recompressible,
                                   plan.inputs.size());
}

std::vector<LsmTree::MergePlan> LsmTree::ScheduleMergesLocked() {
  // WAL replay takes no merge decision. Once an error is latched every
  // further merge is doomed work; stop cascading (the sticky error already
  // gates writers).
  if (replaying_ || !background_error_.ok()) return {};
  // Collect EVERY disjoint plan the policy proposes (claiming as we go so
  // each successive decision sees the previous ranges as taken), then order
  // by estimated rewrite value instead of proposal (FIFO) order. Plans past
  // the concurrency cap are unclaimed again — the cascade re-proposes (and
  // re-scores) them when a slot frees, so scoring stays fresh.
  std::vector<std::pair<double, MergePlan>> scored;
  while (true) {
    Result<MergePlan> plan_or = DecideMergeLocked();
    if (!plan_or.ok()) {
      for (const auto& sp : scored) {
        for (const auto& c : sp.second.inputs) claimed_.erase(c.get());
      }
      background_error_ = plan_or.status();
      flush_cv_.notify_all();
      return {};
    }
    MergePlan plan = std::move(plan_or).value();
    if (plan.inputs.empty()) break;
    for (const auto& c : plan.inputs) claimed_.insert(c.get());
    double score = ScoreMergePlanLocked(plan);
    scored.emplace_back(score, std::move(plan));
  }
  // Stable on ties so equal-value plans keep the policy's proposal order.
  std::stable_sort(
      scored.begin(), scored.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<MergePlan> launch;
  for (auto& sp : scored) {
    if (merges_inflight_ >= opts_.max_concurrent_merges) {
      // Over the cap: give the claim back. The next install's cascade will
      // re-decide, so nothing is lost — only deferred.
      for (const auto& c : sp.second.inputs) claimed_.erase(c.get());
      continue;
    }
    ++merges_inflight_;
    launch.push_back(std::move(sp.second));
  }
  return launch;
}

void LsmTree::SubmitMerges(std::vector<MergePlan> plans) {
  for (auto& plan : plans) {
    merge_jobs_->Submit([this, plan = std::move(plan)](bool canceled) mutable {
      MergeJob(std::move(plan), canceled);
    });
  }
}

void LsmTree::MergeJob(MergePlan plan, bool canceled) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Short-circuit without building: the tree is tearing down, or another
    // job latched a sticky error after this one was scheduled. Before this
    // check a sticky build failure kept the cascade scheduling doomed
    // merges forever.
    if (canceled || !BackgroundErrorLocked().ok()) {
      ReleaseMergePlanLocked(plan);
      flush_cv_.notify_all();
      return;
    }
    ++merges_building_;
    stats_.concurrent_merges_high_water = std::max<uint64_t>(
        stats_.concurrent_merges_high_water, merges_building_);
  }
  MergePipelineCounters counters;
  Result<std::shared_ptr<BtreeComponent>> merged =
      BuildMergedComponent(plan, &counters);
  uint64_t phys = merged.ok() ? merged.value()->physical_bytes() : 0;
  std::vector<MergePlan> cascade;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --merges_building_;
    if (!merged.ok()) {
      if (background_error_.ok()) background_error_ = merged.status();
      ReleaseMergePlanLocked(plan);
      flush_cv_.notify_all();  // wake backpressured writers into the error
      return;
    }
    InstallMergedLocked(plan, std::move(merged).value());
    FoldMergeCountersLocked(counters, phys);
    ReleaseMergePlanLocked(plan);
    // Cascade: the policy may want another merge on the new shape (e.g. a
    // tier completed by this rewrite) — and freeing a claim may unblock a
    // plan the concurrency cap deferred.
    cascade = ScheduleMergesLocked();
  }
  SubmitMerges(std::move(cascade));
  plan.inputs.clear();  // drop our pins so the drain can reclaim the inputs
  // Deferred-deletion sweep. Failures latch into the reclaimer's sticky
  // error — shared with every view and surfaced through BackgroundError()
  // and WaitForMerges() — instead of vanishing on the floor.
  Status st = reclaimer_->Drain();
  (void)st;
}

Status LsmTree::WaitForMerges() {
  // Flush installs schedule merges, so settle the flush group first; a
  // drained build that cascaded re-fills the flush group only via writers,
  // which callers have quiesced.
  flush_jobs_->Wait();
  merge_jobs_->Wait();
  std::lock_guard<std::mutex> lock(mu_);
  return BackgroundErrorLocked();
}

// ---------------------------------------------------------------------------
// Bulk load / teardown
// ---------------------------------------------------------------------------

Status LsmTree::BulkLoad(
    const std::function<Status(std::function<Status(const BtreeKey&,
                                                    std::string_view)>)>& feed) {
  std::lock_guard<std::mutex> wlock(write_mu_);
  TC_RETURN_IF_ERROR(BackgroundError());
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!mem_->empty() || !components_.empty() || !flush_queue_.empty()) {
      return Status::InvalidArgument("bulk load requires an empty dataset");
    }
  }
  uint64_t cid = next_cid_++;
  std::string path = ComponentPath(cid, cid);
  TC_ASSIGN_OR_RETURN(auto builder,
                      BtreeComponentBuilder::Create(opts_.fs, path,
                                                    opts_.page_size, compressor_,
                                                    opts_.filter));
  TC_RETURN_IF_ERROR(transformer_->OnFlushBegin());
  Buffer transformed;
  TC_RETURN_IF_ERROR(feed([&](const BtreeKey& key, std::string_view payload) {
    transformed.clear();
    TC_RETURN_IF_ERROR(transformer_->TransformLive(payload, &transformed));
    return builder->Add(
        key, false,
        std::string_view(reinterpret_cast<const char*>(transformed.data()),
                         transformed.size()));
  }));
  Buffer schema_blob;
  TC_RETURN_IF_ERROR(transformer_->OnFlushEnd(&schema_blob));
  TC_RETURN_IF_ERROR(builder->Finish(cid, cid, schema_blob));
  TC_RETURN_IF_ERROR(builder->MarkValid());
  TC_ASSIGN_OR_RETURN(auto comp,
                      BtreeComponent::Open(opts_.fs, opts_.cache, path,
                                           opts_.page_size, compressor_,
                                           opts_.filter));
  std::lock_guard<std::mutex> lock(mu_);
  // Bulk loads get their own stat: folding them into flush_count /
  // bytes_flushed inflated WriteAmplification() (and the fig17 policy axis)
  // for bulk-loaded datasets.
  stats_.bytes_bulk_loaded += comp->physical_bytes();
  ++stats_.bulk_load_count;
  components_.insert(components_.begin(), std::move(comp));
  stats_.component_count_high_water = std::max<uint64_t>(
      stats_.component_count_high_water, components_.size());
  return Status::OK();
}

Status LsmTree::DestroyAll() {
  std::lock_guard<std::mutex> wlock(write_mu_);
  // Settle background work first (no cancel: completed merges make teardown
  // deterministic); nothing new is scheduled while we hold write_mu_.
  flush_jobs_->Wait();
  merge_jobs_->Wait();
  std::vector<std::shared_ptr<BtreeComponent>> doomed;
  std::vector<std::string> wal_segments;
  {
    std::lock_guard<std::mutex> lock(mu_);
    doomed.swap(components_);
    for (const auto& pf : flush_queue_) {
      if (!pf.wal_path.empty()) wal_segments.push_back(pf.wal_path);
    }
    flush_queue_.clear();
    mem_ = std::make_shared<MemTable>();
  }
  for (auto& c : doomed) reclaimer_->Retire(std::move(c));
  doomed.clear();
  TC_RETURN_IF_ERROR(reclaimer_->Drain());
  for (const auto& seg : wal_segments) {
    if (opts_.fs->Exists(seg)) TC_RETURN_IF_ERROR(opts_.fs->Delete(seg));
  }
  if (wal_ != nullptr) {
    // Drop the live segment too, then restart at the base path so post-
    // destroy writes log into a file recovery will actually find.
    if (opts_.fs->Exists(wal_->path())) {
      TC_RETURN_IF_ERROR(opts_.fs->Delete(wal_->path()));
    }
    wal_seq_ = 0;
    TC_ASSIGN_OR_RETURN(wal_, WriteAheadLog::Open(opts_.fs, WalSegmentPath(0),
                                                  opts_.wal_sync_every));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Merged iterator
// ---------------------------------------------------------------------------

LsmTree::Iterator::Iterator(LsmTree* tree) : tree_(tree) {}

LsmTree::Iterator::Iterator(ReadViewRef view) : view_(std::move(view)) {}

Status LsmTree::Iterator::Position(const BtreeKey* seek_key) {
  // Tree-constructed iterators re-snapshot per seek (the historical
  // semantics); view-constructed iterators stay inside the given snapshot so
  // several cursors can share one coherent state.
  if (tree_ != nullptr) view_ = tree_->AcquireView();
  TC_CHECK(view_ != nullptr);
  // Copy the (budget-bounded) in-memory entries: the live generation may
  // still receive writes, and a private copy makes the scan a stable snapshot
  // of seek time. An upper-bound hint keeps narrow range scans O(range).
  // With pooled flush builds the view may pin several generations; merge
  // their snapshots newest-first (a newer generation's entry — anti-matter
  // included — shadows an older generation's under the same key).
  const BtreeKey* to = upper_bound_.has_value() ? &*upper_bound_ : nullptr;
  view_->memtable().Snapshot(seek_key, to, &mem_entries_);
  const auto& pending = view_->pending_memtables();
  if (!pending.empty()) {
    std::vector<MemTable::ScanEntry> older;
    std::vector<MemTable::ScanEntry> merged;
    for (const auto& gen : pending) {
      gen->Snapshot(seek_key, to, &older);
      if (older.empty()) continue;
      merged.clear();
      merged.reserve(mem_entries_.size() + older.size());
      size_t a = 0, b = 0;
      while (a < mem_entries_.size() || b < older.size()) {
        if (b >= older.size() ||
            (a < mem_entries_.size() && mem_entries_[a].key < older[b].key)) {
          merged.push_back(std::move(mem_entries_[a++]));
        } else if (a >= mem_entries_.size() ||
                   older[b].key < mem_entries_[a].key) {
          merged.push_back(std::move(older[b++]));
        } else {
          merged.push_back(std::move(mem_entries_[a++]));  // newer shadows
          ++b;
        }
      }
      mem_entries_.swap(merged);
    }
  }
  mem_pos_ = 0;
  cursors_.clear();
  for (const auto& c : view_->components()) {
    cursors_.push_back(std::make_unique<BtreeComponent::Iterator>(c.get()));
    if (seek_key != nullptr) {
      TC_RETURN_IF_ERROR(cursors_.back()->Seek(*seek_key));
    } else {
      TC_RETURN_IF_ERROR(cursors_.back()->SeekToFirst());
    }
  }
  return FindNext(/*include_current=*/true);
}

Status LsmTree::Iterator::SeekToFirst() { return Position(nullptr); }

Status LsmTree::Iterator::Seek(const BtreeKey& key) { return Position(&key); }

Status LsmTree::Iterator::Next() {
  TC_CHECK(valid_);
  return FindNext(/*include_current=*/false);
}

Status LsmTree::Iterator::FindNext(bool include_current) {
  // On each round: find the smallest key across the memtable snapshot and all
  // component cursors; the newest source (memtable, then components in order)
  // wins; anti-matter entries annihilate.
  if (!include_current) {
    // Skip past the previously returned key on all sources.
    BtreeKey prev = key_;
    if (mem_pos_ < mem_entries_.size() && mem_entries_[mem_pos_].key == prev) {
      ++mem_pos_;
    }
    for (auto& cur : cursors_) {
      if (cur->Valid() && cur->key() == prev) TC_RETURN_IF_ERROR(cur->Next());
    }
  }
  while (true) {
    bool have = false;
    BtreeKey min_key{};
    if (mem_pos_ < mem_entries_.size()) {
      min_key = mem_entries_[mem_pos_].key;
      have = true;
    }
    for (auto& cur : cursors_) {
      if (cur->Valid() && (!have || cur->key() < min_key)) {
        min_key = cur->key();
        have = true;
      }
    }
    if (!have) {
      valid_ = false;
      return Status::OK();
    }
    // Winner: memtable first, then components newest-first.
    bool anti = false;
    bool from_mem = false;
    std::string_view payload;
    if (mem_pos_ < mem_entries_.size() && mem_entries_[mem_pos_].key == min_key) {
      from_mem = true;
      anti = mem_entries_[mem_pos_].anti;
      payload = std::string_view(
          reinterpret_cast<const char*>(mem_entries_[mem_pos_].payload.data()),
          mem_entries_[mem_pos_].payload.size());
    } else {
      for (auto& cur : cursors_) {
        if (cur->Valid() && cur->key() == min_key) {
          anti = cur->anti();
          payload = cur->payload();
          break;  // cursors_ are ordered newest first
        }
      }
    }
    // The payload filter sees the surviving version only, while its bytes are
    // still pinned — rejected entries skip the copy below entirely.
    bool skip = anti;
    if (!skip && filter_ != nullptr) {
      TC_ASSIGN_OR_RETURN(bool keep, filter_(payload));
      skip = !keep;
    }
    if (!skip) {
      key_ = min_key;
      if (from_mem) {
        payload_ = payload;  // entry copy is owned by this iterator
      } else {
        // Copy: advancing sibling cursors below may release the pinned page.
        payload_copy_.assign(payload.begin(), payload.end());
        payload_ = std::string_view(
            reinterpret_cast<const char*>(payload_copy_.data()),
            payload_copy_.size());
      }
      valid_ = true;
      return Status::OK();
    }
    // Annihilated or filtered key: advance all sources past it and continue.
    if (mem_pos_ < mem_entries_.size() && mem_entries_[mem_pos_].key == min_key) {
      ++mem_pos_;
    }
    for (auto& cur : cursors_) {
      if (cur->Valid() && cur->key() == min_key) TC_RETURN_IF_ERROR(cur->Next());
    }
  }
}

}  // namespace tc
