#include "common/memory_arbiter.h"

#include <algorithm>

#include "common/status.h"

namespace tc {

MemoryArbiter::MemoryArbiter(size_t write_budget_bytes)
    : write_budget_bytes_(write_budget_bytes),
      floor_bytes_(std::max<size_t>(
          1, std::min(kFlushFloorBytes, write_budget_bytes))) {}

MemoryArbiter::~MemoryArbiter() {
  // Trees unregister in their destructors; a survivor here means the arbiter
  // was destroyed before a tree it governs — a use-after-free in waiting.
  TC_CHECK(regs_.empty());
}

MemoryArbiter::Registration* MemoryArbiter::Register(
    std::function<bool()> flush_fn) {
  auto reg = std::make_unique<Registration>();
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
    // One dispatch per tree at a time, and nothing below the floor — when
    // the budget is exceeded but every tree is tiny, waiting for the sealed
    // backlog to drain beats flushing crumbs.
    if (r->flush_requested || r->callback_inflight) continue;
    if (r->live_bytes < floor_bytes_) continue;
    if (best == nullptr || r->live_bytes > best->live_bytes) best = r.get();
  }
  return best;
}

size_t MemoryArbiter::LiveTotalLocked() const {
  size_t total = 0;
  for (const auto& r : regs_) total += r->live_bytes;
  return total;
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
    // (stats) but deliberately excluded here: counting them would shrink the
    // effective live budget while a build drains, cascading tiny flushes —
    // and with a full flush queue, parking writers on flush_cv_ — exactly
    // when the pipeline is busiest. The sealed backlog is already
    // hard-bounded by max_pending_flush_builds backpressure.
    if (LiveTotalLocked() < write_budget_bytes_) return false;
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
      // Hard ceiling: skips let live memory drift past the budget (the
      // victim's writer may be stalled mid-write for arbitrarily long), so
      // past 2x the budget every writer that clears the floor drains ITSELF
      // instead of retrying the stuck victim. This is what makes the budget
      // a bound and not a suggestion; under normal scheduling the soft
      // trigger fires long before anyone gets here.
      if (LiveTotalLocked() >= 2 * write_budget_bytes_ &&
          reg->live_bytes >= floor_bytes_) {
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

void MemoryArbiter::OnFlushInstalled(Registration* reg, size_t mem_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  reg->sealed_bytes -= std::min(reg->sealed_bytes, mem_bytes);
  ++flushes_installed_;
}

MemoryArbiter::Stats MemoryArbiter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  for (const auto& r : regs_) {
    s.write_bytes_live += r->live_bytes;
    s.write_bytes_sealed += r->sealed_bytes;
  }
  s.registered_trees = regs_.size();
  s.flushes_installed = flushes_installed_;
  s.global_flushes_triggered = global_flushes_;
  s.self_flushes_triggered = self_flushes_;
  s.victim_skips = victim_skips_;
  return s;
}

}  // namespace tc
