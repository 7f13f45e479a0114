#include "common/memory_arbiter.h"

#include <algorithm>

#include "common/status.h"
#include "storage/buffer_cache.h"

namespace tc {
namespace {

int ClampPct(int pct, int lo, int hi) { return std::min(hi, std::max(lo, pct)); }

}  // namespace

MemoryArbiter::MemoryArbiter(Options opts) : opts_(opts) {
  opts_.min_write_pct = ClampPct(opts_.min_write_pct, 1, 99);
  opts_.max_write_pct = ClampPct(opts_.max_write_pct, opts_.min_write_pct, 99);
  opts_.adapt_interval_flushes = std::max<size_t>(1, opts_.adapt_interval_flushes);
  write_pct_ = ClampPct(opts_.write_pct, opts_.min_write_pct, opts_.max_write_pct);
  write_share_bytes_ = opts_.total_budget_bytes / 100 * write_pct_;
  if (opts_.cache != nullptr) {
    // The arbiter owns the cache's size from here on: make the initial split
    // real, whatever capacity the cache was constructed with.
    size_t cache_bytes = opts_.total_budget_bytes - write_share_bytes_;
    opts_.cache->SetCapacity(
        std::max<size_t>(1, cache_bytes / opts_.cache->page_size()));
  }
  split_history_.push_back(SplitEvent{0, write_pct_});
}

MemoryArbiter::~MemoryArbiter() {
  // Trees unregister in their destructors; a survivor here means the arbiter
  // was destroyed before a tree it governs — a use-after-free in waiting.
  TC_CHECK(regs_.empty());
}

MemoryArbiter::Registration* MemoryArbiter::Register(
    std::string name, size_t floor_bytes, std::function<bool()> flush_fn) {
  auto reg = std::make_unique<Registration>();
  reg->name = std::move(name);
  reg->floor_bytes = floor_bytes;
  reg->flush_fn = std::move(flush_fn);
  Registration* raw = reg.get();
  std::lock_guard<std::mutex> lock(mu_);
  regs_.push_back(std::move(reg));
  return raw;
}

void MemoryArbiter::Unregister(Registration* reg) {
  std::unique_lock<std::mutex> lock(mu_);
  // A dispatch may be mid-flight on another thread (it selected this tree as
  // victim and is inside its flush_fn); wait it out so the caller may destroy
  // the tree the moment this returns.
  unregister_cv_.wait(lock, [reg] { return !reg->callback_inflight; });
  for (auto it = regs_.begin(); it != regs_.end(); ++it) {
    if (it->get() == reg) {
      regs_.erase(it);
      return;
    }
  }
}

MemoryArbiter::Registration* MemoryArbiter::PickVictimLocked() {
  Registration* best = nullptr;
  for (const auto& r : regs_) {
    // One dispatch per tree at a time, and nothing below its floor — when the
    // node is over budget but every tree is tiny, waiting for the sealed
    // backlog to drain beats flushing crumbs.
    if (r->flush_requested || r->callback_inflight) continue;
    if (r->live_bytes < std::max<size_t>(1, r->floor_bytes)) continue;
    if (best == nullptr || r->live_bytes > best->live_bytes) best = r.get();
  }
  return best;
}

MemoryArbiter::Registration* MemoryArbiter::SuggestFlushVictim() {
  std::lock_guard<std::mutex> lock(mu_);
  return PickVictimLocked();
}

bool MemoryArbiter::OnPostWrite(Registration* reg, size_t live_bytes) {
  Registration* victim = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    reg->live_bytes = live_bytes;
    // The trigger compares LIVE bytes only. Sealed generations are tracked
    // (stats, adaptation) but deliberately excluded here: counting them would
    // shrink the effective live budget while a build drains, cascading tiny
    // flushes — and with a full flush queue, parking writers on flush_cv_ —
    // exactly when the pipeline is busiest. The sealed backlog is already
    // hard-bounded by max_pending_flush_builds backpressure.
    size_t live_total = 0;
    for (const auto& r : regs_) live_total += r->live_bytes;
    if (live_total < write_share_bytes_) return false;
    victim = PickVictimLocked();
    if (victim == nullptr) return false;
    if (victim == reg) {
      // The caller is the right victim and already holds its own writer
      // lock — let it flush itself (no flush_requested latch needed: it
      // flushes before releasing the lock, so no re-trigger window exists).
      ++self_flushes_;
      return true;
    }
    victim->flush_requested = true;
    victim->callback_inflight = true;
  }
  // The dispatch runs WITHOUT the arbiter lock (flush_fn seals via OnSeal,
  // which takes it). Unregister waits on callback_inflight, so the victim
  // tree — and its flush_fn — stay alive for the duration.
  bool sealed = victim->flush_fn();
  bool flush_self = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    victim->callback_inflight = false;
    if (sealed) {
      ++global_flushes_;  // flush_requested was cleared by OnSeal
    } else {
      ++victim_skips_;
      victim->flush_requested = false;  // stays a candidate for the next write
      // Hard ceiling: skips let live memory drift past the share (the victim's
      // writer may be stalled mid-write for arbitrarily long), so past 2x the
      // share every writer that clears its own floor drains ITSELF instead of
      // retrying the stuck victim. This is what makes the budget a bound and
      // not a suggestion; under normal scheduling the soft trigger fires long
      // before anyone gets here.
      size_t live_total = 0;
      for (const auto& r : regs_) live_total += r->live_bytes;
      if (live_total >= 2 * write_share_bytes_ &&
          reg->live_bytes >= std::max<size_t>(1, reg->floor_bytes)) {
        flush_self = true;
        ++self_flushes_;
      }
    }
  }
  unregister_cv_.notify_all();
  return flush_self;
}

void MemoryArbiter::OnSeal(Registration* reg, size_t sealed_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  reg->sealed_bytes += sealed_bytes;
  reg->live_bytes = 0;
  reg->flush_requested = false;
}

void MemoryArbiter::OnFlushInstalled(Registration* reg, size_t mem_bytes,
                                     uint64_t /*physical_bytes*/) {
  std::lock_guard<std::mutex> lock(mu_);
  reg->sealed_bytes -= std::min(reg->sealed_bytes, mem_bytes);
  ++flushes_installed_;
  flush_samples_.push_back(mem_bytes);
  if (opts_.adaptive && opts_.cache != nullptr &&
      flush_samples_.size() >= opts_.adapt_interval_flushes) {
    AdaptLocked();
  }
  if (flush_samples_.size() >= opts_.adapt_interval_flushes) {
    flush_samples_.clear();
  }
}

void MemoryArbiter::AdaptLocked() {
  // Two observed signals decide the shift (paper: tune the write/read split
  // from workload behaviour, not configuration):
  //   * cache traffic + miss rate since the last decision — misses climbing
  //     means the read working set outgrew the cache;
  //   * mean flush size vs the per-tree share a STATIC split would grant —
  //     flushes running tiny (or a cache nobody reads) mean write memory is
  //     the scarce half.
  uint64_t hits = opts_.cache->hits();
  uint64_t misses = opts_.cache->misses();
  uint64_t dh = hits - last_cache_hits_;
  uint64_t dm = misses - last_cache_misses_;
  last_cache_hits_ = hits;
  last_cache_misses_ = misses;
  uint64_t traffic = dh + dm;
  size_t avg_flush = 0;
  for (size_t s : flush_samples_) avg_flush += s;
  avg_flush /= flush_samples_.size();
  size_t trees = std::max<size_t>(1, regs_.size());
  size_t static_share = write_share_bytes_ / trees;
  int pct = write_pct_;
  // Enough traffic to trust the miss rate: >= 64 accesses per window.
  if (traffic >= 64 && dm * 5 >= traffic * 2) {
    pct -= 5;  // miss rate >= 40%: give the cache memory back
  } else if (traffic < 64 || avg_flush < static_share / 2) {
    pct += 5;  // idle cache or tiny flushes: write memory is starved
  }
  ApplyWritePctLocked(pct);
}

void MemoryArbiter::ApplyWritePctLocked(int pct) {
  pct = ClampPct(pct, opts_.min_write_pct, opts_.max_write_pct);
  if (pct == write_pct_) return;
  write_pct_ = pct;
  write_share_bytes_ = opts_.total_budget_bytes / 100 * static_cast<size_t>(pct);
  size_t cache_bytes = opts_.total_budget_bytes - write_share_bytes_;
  opts_.cache->SetCapacity(
      std::max<size_t>(1, cache_bytes / opts_.cache->page_size()));
  ++adapt_shifts_;
  if (split_history_.size() < 256) {
    split_history_.push_back(SplitEvent{flushes_installed_, pct});
  }
}

void MemoryArbiter::MaybeAdaptFromTraffic() {
  if (!opts_.adaptive || opts_.cache == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto now = std::chrono::steady_clock::now();
  if (opts_.traffic_adapt_interval_ms > 0 &&
      last_traffic_adapt_.time_since_epoch().count() != 0 &&
      now - last_traffic_adapt_ <
          std::chrono::milliseconds(opts_.traffic_adapt_interval_ms)) {
    return;
  }
  uint64_t hits = opts_.cache->hits();
  uint64_t misses = opts_.cache->misses();
  uint64_t dh = hits - last_cache_hits_;
  uint64_t dm = misses - last_cache_misses_;
  uint64_t traffic = dh + dm;
  // Below the signal floor the window is left UNCONSUMED — a flush-driven
  // AdaptLocked may still read the accumulating deltas, and a later tick
  // gets the full picture. Only a real decision consumes hit/miss state.
  if (traffic < 64) return;
  last_traffic_adapt_ = now;
  last_cache_hits_ = hits;
  last_cache_misses_ = misses;
  ++traffic_adapt_ticks_;
  // Only the toward-the-cache signal: tiny-flush/idle-cache starvation is
  // judged from flush samples, which this flush-free path has none of.
  if (dm * 5 >= traffic * 2) ApplyWritePctLocked(write_pct_ - 5);
}

bool MemoryArbiter::TryChargeQuery(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t read_share = opts_.total_budget_bytes - write_share_bytes_;
  // Background rewrite scratch occupies real memory right now: query scratch
  // only gets what's left of the read share.
  size_t occupied = query_bytes_charged_ + background_bytes_charged_;
  if (occupied + bytes > read_share) {
    ++query_charge_denials_;
    return false;
  }
  query_bytes_charged_ += bytes;
  return true;
}

void MemoryArbiter::ReleaseQuery(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  query_bytes_charged_ -= std::min(query_bytes_charged_, bytes);
}

void MemoryArbiter::ChargeBackground(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  background_bytes_charged_ += bytes;
  ++background_charges_;
}

void MemoryArbiter::ReleaseBackground(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  background_bytes_charged_ -= std::min(background_bytes_charged_, bytes);
}

MemoryArbiter::Stats MemoryArbiter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.total_budget_bytes = opts_.total_budget_bytes;
  s.write_share_bytes = write_share_bytes_;
  for (const auto& r : regs_) {
    s.write_bytes_live += r->live_bytes;
    s.write_bytes_sealed += r->sealed_bytes;
  }
  if (opts_.cache != nullptr) {
    s.cache_capacity_bytes =
        opts_.cache->capacity_pages() * opts_.cache->page_size();
  }
  s.registered_trees = regs_.size();
  s.write_pct = write_pct_;
  s.flushes_installed = flushes_installed_;
  s.global_flushes_triggered = global_flushes_;
  s.self_flushes_triggered = self_flushes_;
  s.victim_skips = victim_skips_;
  s.adapt_shifts = adapt_shifts_;
  s.query_bytes_charged = query_bytes_charged_;
  s.query_charge_denials = query_charge_denials_;
  s.background_bytes_charged = background_bytes_charged_;
  s.background_charges = background_charges_;
  s.traffic_adapt_ticks = traffic_adapt_ticks_;
  s.split_history = split_history_;
  return s;
}

size_t MemoryArbiter::write_share_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_share_bytes_;
}

size_t MemoryArbiter::read_share_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return opts_.total_budget_bytes - write_share_bytes_;
}

}  // namespace tc
