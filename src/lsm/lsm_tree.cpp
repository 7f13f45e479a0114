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

inline uint64_t ElapsedNanos(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
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

// The single-record calls: a Write batch of one.
Status WriteOne(LsmTree* tree, WriteOp op, const BtreeKey& key,
                std::string_view payload, std::optional<Buffer>* old_out) {
  MemPutOp one{key, payload};
  std::vector<std::optional<Buffer>> olds;
  TC_RETURN_IF_ERROR(tree->Write(op, SingletonSpan<const MemPutOp>(one),
                                 old_out != nullptr ? &olds : nullptr));
  if (old_out != nullptr) *old_out = std::move(olds[0]);
  return Status::OK();
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
  // Validated before the tree exists: from construction to its arbiter
  // registration below nothing fails, so the destructor always unregisters.
  if (options.merge_recompress != CompressionKind::kNone &&
      !CompressorAvailable(options.merge_recompress)) {
    return Status::NotSupported(
        std::string("merge_recompress codec not compiled in: ") +
        CompressionKindName(options.merge_recompress));
  }
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
  tree->opts_.max_pending_flush_builds =
      std::max<size_t>(1, tree->opts_.max_pending_flush_builds);
  tree->compressor_ = GetCompressor(tree->opts_.compression);
  tree->mem_ = std::make_shared<MemTable>();
  tree->reclaimer_ = std::make_shared<ComponentReclaimer>(tree->opts_.fs,
                                                          tree->opts_.cache);
  tree->counters_ = std::make_shared<LsmReadCounters>();
  // Every tree flushes through an arbiter; without a shared one it owns one
  // of its own memtable budget. Registering before recovery accounts the
  // replay flush like any other; a cross-tree dispatch into the still-opening
  // tree finds its live generation empty (or its writer lock held by the
  // replay) and bails.
  if (tree->opts_.arbiter == nullptr) {
    tree->owned_arbiter_ =
        std::make_unique<MemoryArbiter>(tree->opts_.memtable_budget_bytes);
    tree->opts_.arbiter = tree->owned_arbiter_.get();
  }
  LsmTree* raw = tree.get();
  tree->arbiter_reg_ =
      tree->opts_.arbiter->Register([raw] { return raw->TryArbiterFlush(); });
  TC_RETURN_IF_ERROR(tree->opts_.fs->CreateDir(tree->opts_.dir));
  TC_RETURN_IF_ERROR(tree->RecoverComponents());
  // Reload the newest persisted schema BEFORE replaying the WAL: replayed
  // records must be compacted against the schema their on-disk siblings used,
  // keeping FieldNameIDs stable (§3.1.2).
  if (tree->opts_.transformer != nullptr) {
    TC_RETURN_IF_ERROR(
        tree->opts_.transformer->OnRecoveredSchema(tree->newest_schema_blob()));
  }
  if (tree->opts_.use_wal) {
    TC_RETURN_IF_ERROR(tree->ReplayWal());
  }
  return tree;
}

LsmTree::~LsmTree() {
  {
    // The writer lock is held through the drain and the unregister: a
    // cross-tree victim dispatch (TryArbiterFlush) try-locks it and bails,
    // so no flush build can be submitted behind the waits below.
    std::lock_guard<std::mutex> wlock(write_mu_);
    // Cancel merge jobs that have not started (cheap skips — their inputs
    // stay in the tree) and wait out the running ones; after the waits no
    // pool thread touches this tree. Flush builds are canceled only when a
    // WAL backs the tree: their sealed generations then survive as WAL
    // segments for the next Open to replay. WAL-less trees (the pk/secondary
    // indexes) instead DRAIN their queued builds, so a completed Flush() is
    // never lost on clean teardown — exactly the pre-pipeline guarantee.
    merge_jobs_->Cancel();
    if (opts_.use_wal) flush_jobs_->Cancel();
    // Drained flush builds may install and cascade-schedule merges; those
    // land in the canceled merge group and run as skips, so wait for the
    // flush group first and the merge group (which only ever shrinks after
    // that) second.
    flush_jobs_->Wait();
    merge_jobs_->Wait();
    // Leave the arbiter only now: a drained build reports its install
    // through arbiter_reg_. Unregister also waits out any dispatch still
    // inside TryArbiterFlush on another writer's thread.
    opts_.arbiter->Unregister(arbiter_reg_);
  }
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
                                             opts_.page_size));
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

Result<std::optional<Buffer>> LsmTree::CaptureOldVersion(const BtreeKey& key) {
  ReadView view = View();
  for (const auto& mem : view.pending_memtables()) {  // newest first
    std::optional<MemTable::ScanEntry> hit = mem->Find(key);
    if (!hit.has_value()) continue;
    if (hit->anti || hit->payload.empty()) return std::optional<Buffer>{};
    return std::optional<Buffer>{std::move(hit->payload)};
  }
  // Every old-version capture consults the existence filter (the pk index):
  // a false answer proves there is no on-disk version, so the B-tree probes
  // are skipped on upserts AND deletes alike. Safe on delete because the
  // dataset removes the pk-index entry only after the primary delete.
  if (opts_.key_may_exist && !opts_.key_may_exist(key)) {
    return std::optional<Buffer>{};
  }
  counters_->old_version_lookups.fetch_add(1, std::memory_order_relaxed);
  return view.GetDiskVersion(key);
}

Status LsmTree::Write(WriteOp op, Span<const MemPutOp> ops,
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
    for (const MemPutOp& m : ops) {
      wal_batch_.push_back(op == WriteOp::kDelete
                               ? WalAppendOp{WalOp::kDelete, m.key, {}}
                               : WalAppendOp{WalOp::kPut, m.key, m.payload});
    }
    TC_RETURN_IF_ERROR(wal_->AppendBatch(wal_batch_));
  }
  if (op == WriteOp::kInsert) {
    mem_->InsertBatch(ops);
    return MaybeFlushPostWrite();
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    const BtreeKey& key = ops[i].key;
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
      if (old_out != nullptr) (*old_out)[i] = old;
    } else if (old_out != nullptr && !mem_hit->anti && !mem_hit->payload.empty()) {
      (*old_out)[i] = mem_hit->payload;
    }
    if (op == WriteOp::kDelete) {
      mem_->Delete(key, std::move(old));
    } else {
      mem_->Put(key, Buffer(ops[i].payload.begin(), ops[i].payload.end()),
                std::move(old));
    }
  }
  return MaybeFlushPostWrite();
}

Status LsmTree::Insert(const BtreeKey& key, std::string_view payload) {
  return WriteOne(this, WriteOp::kInsert, key, payload, nullptr);
}

Status LsmTree::Upsert(const BtreeKey& key, std::string_view payload,
                       std::optional<Buffer>* old_out) {
  return WriteOne(this, WriteOp::kUpsert, key, payload, old_out);
}

Status LsmTree::Delete(const BtreeKey& key, std::optional<Buffer>* old_out) {
  return WriteOne(this, WriteOp::kDelete, key, {}, old_out);
}

Status LsmTree::MaybeFlushPostWrite() {
  // Report the live generation; flush only when this tree is the arbiter's
  // victim. A cross-tree victim was already flushed inside OnPostWrite (on
  // this thread, via its TryArbiterFlush).
  if (opts_.arbiter->OnPostWrite(arbiter_reg_, mem_->approximate_bytes())) {
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
    // live -> sealed: the generation stays accounted (as sealed) until its
    // component installs.
    opts_.arbiter->OnSeal(arbiter_reg_, sealed_bytes);
    if (submit) {
      // High lane: a flush build gates writer admission
      // (max_pending_flush_builds backpressure), so it must never queue
      // behind a storm of merges. Caller-runs builds, installs and cascades
      // every merge right here.
      flush_jobs_->Submit([this](bool canceled) { FlushBuildJob(canceled); },
                          TaskPriority::kHigh);
    }
  }
  std::optional<MergePlan> plan;
  {
    std::lock_guard<std::mutex> lock(mu_);
    plan = ScheduleMergeLocked();
  }
  SubmitMerge(std::move(plan));
  // A caller-runs failure above happened during this call, so it is this
  // call's error; with a pool, whatever has latched so far.
  return BackgroundError();
}

// The one way a component is written, shared by flush, bulk load and merge.
// Add passes each live payload through the tree's transformer (copying it
// through without one) into the builder; Finish persists the transformer's
// schema blob (`inherited_blob` without one), then finishes, marks valid and
// opens the component. The stage clocks feed `counters` — transform, compress
// and write; the merge times its own reads.
class LsmTree::ComponentWriter {
 public:
  ComponentWriter(const LsmTree* tree, std::shared_ptr<const Compressor> codec,
                  StageCounters* counters)
      : tree_(tree), codec_(std::move(codec)), counters_(counters) {}

  Status Start(uint64_t cid_min, uint64_t cid_max) {
    cid_min_ = cid_min;
    cid_max_ = cid_max;
    path_ = tree_->ComponentPath(cid_min, cid_max);
    TC_ASSIGN_OR_RETURN(builder_, BtreeComponentBuilder::Create(
                                      tree_->opts_.fs, path_,
                                      tree_->opts_.page_size, codec_,
                                      tree_->opts_.filter));
    return Status::OK();
  }

  Status Add(const BtreeKey& key, bool anti, std::string_view payload) {
    ComponentTransformer* transformer = tree_->opts_.transformer;
    if (anti) {
      payload = {};
    } else if (transformer != nullptr) {
      auto transform_t0 = std::chrono::steady_clock::now();
      bool rewritten = false;
      TC_RETURN_IF_ERROR(transformer->Transform(payload, &transformed_, &rewritten));
      counters_->transform_nanos += ElapsedNanos(transform_t0);
      if (rewritten) {
        ++counters_->records_recompacted;
        counters_->bytes_recompacted += payload.size();
      }
      payload = std::string_view(reinterpret_cast<const char*>(transformed_.data()),
                                 transformed_.size());
    }
    auto write_t0 = std::chrono::steady_clock::now();
    TC_RETURN_IF_ERROR(builder_->Add(key, anti, payload));
    write_wall_nanos_ += ElapsedNanos(write_t0);
    return Status::OK();
  }

  Result<std::shared_ptr<BtreeComponent>> Finish(const Buffer& inherited_blob) {
    Buffer schema_blob;
    if (tree_->opts_.transformer != nullptr) {
      TC_RETURN_IF_ERROR(tree_->opts_.transformer->SchemaBlob(&schema_blob));
    } else {
      schema_blob = inherited_blob;
    }
    auto finish_t0 = std::chrono::steady_clock::now();
    TC_RETURN_IF_ERROR(builder_->Finish(cid_min_, cid_max_, schema_blob));
    TC_RETURN_IF_ERROR(builder_->MarkValid());
    write_wall_nanos_ += ElapsedNanos(finish_t0);
    // Split the builder's wall time into its codec share and the rest.
    uint64_t compress_nanos = builder_->compress_nanos();
    counters_->compress_nanos += compress_nanos;
    counters_->write_nanos +=
        write_wall_nanos_ > compress_nanos ? write_wall_nanos_ - compress_nanos : 0;
    return BtreeComponent::Open(tree_->opts_.fs, tree_->opts_.cache, path_,
                                tree_->opts_.page_size);
  }

 private:
  const LsmTree* tree_;
  std::shared_ptr<const Compressor> codec_;
  StageCounters* counters_;
  uint64_t cid_min_ = 0;
  uint64_t cid_max_ = 0;
  std::string path_;
  std::unique_ptr<BtreeComponentBuilder> builder_;
  Buffer transformed_;
  uint64_t write_wall_nanos_ = 0;
};

Result<std::shared_ptr<BtreeComponent>> LsmTree::BuildFlushComponent(
    const MemTable& mem, uint64_t cid, StageCounters* counters) {
  ComponentWriter writer(this, compressor_, counters);
  TC_RETURN_IF_ERROR(writer.Start(cid, cid));
  // Iteration needs no lock: `mem` is a sealed generation nothing mutates.
  // Transformer calls are serialized in generation order — at most one
  // flush build per tree at a time — because schema inference is stateful
  // and order-dependent (§3.1.1).
  for (auto it = mem.begin(); it != mem.end(); ++it) {
    const MemTable::Entry& e = it->second;
    if (e.has_old && opts_.transformer != nullptr) {
      TC_RETURN_IF_ERROR(opts_.transformer->OnRemovedVersion(
          std::string_view(reinterpret_cast<const char*>(e.old_payload.data()),
                           e.old_payload.size())));
    }
    TC_RETURN_IF_ERROR(writer.Add(
        it->first, e.anti,
        std::string_view(reinterpret_cast<const char*>(e.payload.data()),
                         e.payload.size())));
  }
  return writer.Finish(/*inherited_blob=*/{});
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
  StageCounters counters;
  Result<std::shared_ptr<BtreeComponent>> built =
      BuildFlushComponent(*work.mem, work.cid, &counters);
  bool more = false;
  std::optional<MergePlan> plan;
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
    stats_.bytes_flushed += comp->physical_bytes();
    ++stats_.flush_count;
    FoldFlushCountersLocked(counters);
    components_.insert(components_.begin(), std::move(comp));
    stats_.component_count_high_water = std::max<uint64_t>(
        stats_.component_count_high_water, components_.size());
    flush_queue_.pop_front();
    more = !flush_queue_.empty();
    if (!more) flush_build_running_ = false;
    plan = ScheduleMergeLocked();
    flush_cv_.notify_all();
  }
  SubmitMerge(std::move(plan));
  // Sealed accounting releases only now, when the memory is truly traded
  // for a durable component (approximate_bytes is lock-free once sealed).
  opts_.arbiter->OnFlushInstalled(arbiter_reg_, work.mem->approximate_bytes());
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
  for (const auto& c : components_) sizes.push_back(c->physical_bytes());
  MergeDecision d = opts_.merge_policy->Decide(sizes);
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
  plan.inputs.assign(components_.begin() + static_cast<ptrdiff_t>(d.begin),
                     components_.begin() + static_cast<ptrdiff_t>(d.end));
  plan.drop_tombstones = (d.end == components_.size());
  plan.cid_min = plan.inputs.back()->meta().cid_min;
  plan.cid_max = plan.inputs.front()->meta().cid_max;
  return plan;
}

Result<std::shared_ptr<BtreeComponent>> LsmTree::BuildMergedComponent(
    const MergePlan& plan, StageCounters* counters) {
  // Cold-level recompression: a bottom merge (tombstones dropping means this
  // component has nothing beneath it) is the tree's coldest, most-read-stable
  // data, so it can afford a heavier codec than the flush path. Readers are
  // unaffected — the LAF sidecar makes every component self-describing.
  std::shared_ptr<const Compressor> codec = compressor_;
  if (plan.drop_tombstones &&
      opts_.merge_recompress != CompressionKind::kNone &&
      opts_.merge_recompress != opts_.compression) {
    codec = GetCompressor(opts_.merge_recompress);
    TC_CHECK(codec != nullptr);  // validated at Open
    counters->recompressed = true;
  }
  ComponentWriter writer(this, codec, counters);
  TC_RETURN_IF_ERROR(writer.Start(plan.cid_min, plan.cid_max));
  // Staged transformation pipeline over the newest-version cursor: READ
  // (positioning and advancing it) -> TRANSFORM (the transformer re-compacts
  // each surviving live record against the newest inferred schema, §3.1.1)
  // -> COMPRESS/WRITE (builder; the codec share is the builder's
  // compress_nanos, subtracted from write wall time). Per-stage wall time
  // feeds LsmStats so the merge-pipeline CPU share is observable (paper fig.
  // 17's compaction-overhead axis).
  Cursor cursor({}, plan.inputs, std::nullopt);
  auto read_t0 = std::chrono::steady_clock::now();
  TC_RETURN_IF_ERROR(cursor.SeekToFirst());
  counters->read_nanos += ElapsedNanos(read_t0);
  while (cursor.Valid()) {
    // Dropping tombstones annihilates the anti-matter entry and any older
    // record alike.
    if (!(cursor.anti() && plan.drop_tombstones)) {
      TC_RETURN_IF_ERROR(writer.Add(cursor.key(), cursor.anti(), cursor.payload()));
    }
    auto next_t0 = std::chrono::steady_clock::now();
    TC_RETURN_IF_ERROR(cursor.Next());
    counters->read_nanos += ElapsedNanos(next_t0);
  }
  // The schema covering the merged set: the transformer's live schema, so a
  // full cascade leaves every component on the final schema even when the
  // newest INPUT predates the last evolution (§3.1.1); without a transformer
  // the newest input's (superset) blob.
  return writer.Finish(plan.inputs.front()->meta().schema_blob);
}

void LsmTree::InstallMergedLocked(const MergePlan& plan,
                                  std::shared_ptr<BtreeComponent> merged) {
  // Flushes prepend while the merge rewrites, so the inputs have shifted
  // toward the old end — but nothing else touches them (this is the tree's
  // only merge), so they are still one contiguous run, found by its newest
  // input. The merged component takes the run's place.
  auto first = std::find(components_.begin(), components_.end(),
                         plan.inputs.front());
  size_t n = plan.inputs.size();
  TC_CHECK(static_cast<size_t>(components_.end() - first) >= n &&
           std::equal(plan.inputs.begin(), plan.inputs.end(), first));
  stats_.bytes_merged += merged->physical_bytes();
  ++stats_.merge_count;
  *first = std::move(merged);
  components_.erase(first + 1, first + static_cast<ptrdiff_t>(n));
  // Swap complete: the inputs leave the tree. Views still referencing them
  // keep the files alive; the reclaimer deletes them on last release.
  for (const auto& c : plan.inputs) reclaimer_->Retire(c);
}

void LsmTree::FoldMergeCountersLocked(const StageCounters& counters,
                                      uint64_t merged_physical_bytes) {
  stats_.merge_read_usecs += counters.read_nanos / 1000;
  stats_.merge_transform_usecs += counters.transform_nanos / 1000;
  stats_.merge_compress_usecs += counters.compress_nanos / 1000;
  stats_.merge_write_usecs += counters.write_nanos / 1000;
  stats_.merge_records_recompacted += counters.records_recompacted;
  stats_.merge_bytes_recompacted += counters.bytes_recompacted;
  if (counters.recompressed) {
    ++stats_.merge_components_recompressed;
    stats_.merge_bytes_recompressed += merged_physical_bytes;
  }
}

void LsmTree::FoldFlushCountersLocked(const StageCounters& counters) {
  stats_.flush_transform_usecs += counters.transform_nanos / 1000;
  stats_.flush_compress_usecs += counters.compress_nanos / 1000;
  stats_.flush_write_usecs += counters.write_nanos / 1000;
}

std::optional<LsmTree::MergePlan> LsmTree::ScheduleMergeLocked() {
  // One merge per tree at a time: while one is scheduled, its completion's
  // cascade is what decides next. WAL replay takes no merge decision. Once
  // an error is latched every further merge is doomed work; stop cascading
  // (the sticky error already gates writers).
  if (merge_scheduled_ || replaying_ || !background_error_.ok()) {
    return std::nullopt;
  }
  Result<MergePlan> plan = DecideMergeLocked();
  if (!plan.ok()) {
    background_error_ = plan.status();
    flush_cv_.notify_all();
    return std::nullopt;
  }
  if (plan.value().inputs.empty()) return std::nullopt;
  merge_scheduled_ = true;
  return std::move(plan).value();
}

void LsmTree::SubmitMerge(std::optional<MergePlan> plan) {
  if (!plan.has_value()) return;
  merge_jobs_->Submit([this, plan = std::move(*plan)](bool canceled) mutable {
    MergeJob(std::move(plan), canceled);
  });
}

void LsmTree::MergeJob(MergePlan plan, bool canceled) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Short-circuit without building: the tree is tearing down, or another
    // job latched a sticky error after this one was scheduled. Before this
    // check a sticky build failure kept the cascade scheduling doomed
    // merges forever.
    if (canceled || !BackgroundErrorLocked().ok()) {
      merge_scheduled_ = false;
      flush_cv_.notify_all();
      return;
    }
  }
  StageCounters counters;
  Result<std::shared_ptr<BtreeComponent>> merged =
      BuildMergedComponent(plan, &counters);
  uint64_t phys = merged.ok() ? merged.value()->physical_bytes() : 0;
  std::optional<MergePlan> cascade;
  {
    std::lock_guard<std::mutex> lock(mu_);
    merge_scheduled_ = false;
    if (!merged.ok()) {
      if (background_error_.ok()) background_error_ = merged.status();
      flush_cv_.notify_all();  // wake backpressured writers into the error
      return;
    }
    InstallMergedLocked(plan, std::move(merged).value());
    FoldMergeCountersLocked(counters, phys);
    // Cascade: the policy may want another merge on the new shape (e.g. a
    // tier completed by this rewrite, or flushes that installed meanwhile).
    cascade = ScheduleMergeLocked();
  }
  SubmitMerge(std::move(cascade));
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
  StageCounters counters;
  ComponentWriter writer(this, compressor_, &counters);
  TC_RETURN_IF_ERROR(writer.Start(cid, cid));
  TC_RETURN_IF_ERROR(feed([&](const BtreeKey& key, std::string_view payload) {
    return writer.Add(key, /*anti=*/false, payload);
  }));
  TC_ASSIGN_OR_RETURN(auto comp, writer.Finish(/*inherited_blob=*/{}));
  std::lock_guard<std::mutex> lock(mu_);
  // Bulk loads get their own stat: folding them into flush_count /
  // bytes_flushed inflated WriteAmplification() (and the fig17 policy axis)
  // for bulk-loaded datasets.
  stats_.bytes_bulk_loaded += comp->physical_bytes();
  ++stats_.bulk_load_count;
  FoldFlushCountersLocked(counters);
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
// Newest-version cursor and the merged iterator
// ---------------------------------------------------------------------------

LsmTree::Cursor::Cursor(const std::vector<const MemTable*>& mems,
                        const std::vector<std::shared_ptr<BtreeComponent>>& comps,
                        const std::optional<BtreeKey>& upper)
    : sources_(mems.size() + comps.size()), upper_(upper) {
  for (size_t i = 0; i < mems.size(); ++i) sources_[i].mem = mems[i];
  for (size_t i = 0; i < comps.size(); ++i) {
    sources_[mems.size() + i].it =
        std::make_unique<BtreeComponent::Iterator>(comps[i].get());
  }
}

void LsmTree::Cursor::Source::Load() {
  if (mem != nullptr) {
    if (pos == run.size()) {
      key = nullptr;
      return;
    }
    const MemTable::ScanEntry& e = run[pos];
    key = &e.key;
    anti = e.anti;
    payload = std::string_view(reinterpret_cast<const char*>(e.payload.data()),
                               e.payload.size());
  } else if (it->Valid()) {
    key = &it->key();
    anti = it->anti();
    payload = it->payload();
  } else {
    key = nullptr;
  }
}

Status LsmTree::Cursor::Source::Advance() {
  if (mem != nullptr) {
    ++pos;
  } else {
    TC_RETURN_IF_ERROR(it->Next());
  }
  Load();
  return Status::OK();
}

Status LsmTree::Cursor::Position(const BtreeKey* from) {
  // The live generation may still receive writes: a private copy of each
  // (budget-bounded) generation makes the scan a stable snapshot of seek
  // time, and the upper-bound hint keeps narrow range scans O(range).
  const BtreeKey* to = upper_.has_value() ? &*upper_ : nullptr;
  for (Source& s : sources_) {
    if (s.mem != nullptr) {
      s.mem->Snapshot(from, to, &s.run);
      s.pos = 0;
    } else if (from != nullptr) {
      TC_RETURN_IF_ERROR(s.it->Seek(*from));
    } else {
      TC_RETURN_IF_ERROR(s.it->SeekToFirst());
    }
    s.Load();
  }
  Settle();
  return Status::OK();
}

Status LsmTree::Cursor::Next() {
  BtreeKey at = key();
  for (Source& s : sources_) {
    if (s.key != nullptr && *s.key == at) TC_RETURN_IF_ERROR(s.Advance());
  }
  Settle();
  return Status::OK();
}

void LsmTree::Cursor::Settle() {
  top_ = nullptr;
  for (Source& s : sources_) {
    if (s.key != nullptr && (top_ == nullptr || *s.key < *top_->key)) top_ = &s;
  }
}

LsmTree::Iterator::Iterator(LsmTree* tree) : tree_(tree) {}

LsmTree::Iterator::Iterator(ReadViewRef view) : view_(std::move(view)) {}

Status LsmTree::Iterator::Position(const BtreeKey* seek_key) {
  // Tree-constructed iterators re-snapshot per seek (the historical
  // semantics); view-constructed iterators stay inside the given snapshot so
  // several cursors can share one coherent state.
  if (tree_ != nullptr) view_ = tree_->AcquireView();
  TC_CHECK(view_ != nullptr);
  // Every pinned generation is one source: the live one, then the sealed
  // ones queued for their pooled flush builds.
  std::vector<const MemTable*> mems{&view_->memtable()};
  for (const auto& gen : view_->pending_memtables()) mems.push_back(gen.get());
  cursor_ = Cursor(mems, view_->components(), upper_bound_);
  TC_RETURN_IF_ERROR(seek_key != nullptr ? cursor_.Seek(*seek_key)
                                         : cursor_.SeekToFirst());
  return SkipRejected();
}

Status LsmTree::Iterator::SeekToFirst() { return Position(nullptr); }

Status LsmTree::Iterator::Seek(const BtreeKey& key) { return Position(&key); }

Status LsmTree::Iterator::Next() {
  TC_CHECK(Valid());
  TC_RETURN_IF_ERROR(cursor_.Next());
  return SkipRejected();
}

Status LsmTree::Iterator::SkipRejected() {
  // Anti-matter annihilates the key; the payload filter sees the surviving
  // version only, while its bytes are still pinned.
  while (cursor_.Valid()) {
    if (!cursor_.anti()) {
      if (filter_ == nullptr) return Status::OK();
      TC_ASSIGN_OR_RETURN(bool keep, filter_(cursor_.payload()));
      if (keep) return Status::OK();
    }
    TC_RETURN_IF_ERROR(cursor_.Next());
  }
  return Status::OK();
}

}  // namespace tc
