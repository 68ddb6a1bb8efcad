// obs wait-state attribution — the header-only instrumentation layer the
// synchronization primitives drop spans into.
//
// The PGAS pitch of the paper is that one-sided communication shrinks the
// *exposed* synchronization cost at scale; this layer measures exactly
// that. Every blocking primitive on the distributed tiers — barrier
// arrival (shmem::Barrier), collective reductions (all_gather /
// all_reduce / PeerSpace::reduce_sum), block transfers (Ctx::get/put,
// broadcast) and two-sided receives (coarse Mailbox::recv) — wraps itself
// in a WaitScope. Scopes record into a thread-bound per-PE WaitTrack;
// per-PE compute time is then derived as (PE busy window − PE wait time),
// which makes the compute/comm/wait breakdown sum to each PE's wall time
// by construction. obs/aggregate clock-aligns the tracks and folds them
// into the cross-PE profile (imbalance, straggler, critical path).
//
// Layering: this header is included by src/shmem (which cannot link the
// obs library — svsim_obs itself links svsim_shmem), so everything here
// is inline/header-only and the microsecond clock lives here too;
// obs/trace.cpp forwards trace_now_us() to the same epoch so wait spans
// and Chrome-trace gate spans share one timeline.
//
// Cost discipline: only *synchronization-frequency* paths are
// instrumented (per gate / per collective, never per amplitude — the
// SHMEM scalar g/p stay untouched), and an unbound thread pays one
// thread_local load and a predictable branch per scope. Nested scopes
// are suppressed so a reduction built from barriers records one
// kReduction span, not three kBarrier ones.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "obs/progress.hpp" // inline slot hook only; no obs-library linkage

namespace svsim::obs {

/// Microseconds since the process observability epoch (steady clock).
/// One epoch program-wide: the function-local static in this inline
/// function is shared across every TU, including shmem and obs.
inline double wait_now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

/// The wait-state taxonomy (DESIGN.md §8): time a PE spends blocked, by
/// cause. Everything else inside the PE's busy window is compute.
enum class WaitKind : int {
  kBarrier = 0,   // blocked at a global barrier (straggler exposure)
  kReduction = 1, // blocked inside a collective reduction/gather
  kTransfer = 2,  // blocked on data movement (block get/put, recv)
};
inline constexpr int kNumWaitKinds = 3;

inline const char* wait_kind_name(WaitKind k) {
  switch (k) {
    case WaitKind::kBarrier: return "barrier";
    case WaitKind::kReduction: return "reduction";
    case WaitKind::kTransfer: return "transfer";
  }
  return "?";
}

/// One completed wait span on one PE's timeline. `phase` points at static
/// storage (an op name or a fixed literal) naming the compute phase the
/// PE was executing when it blocked.
struct WaitSpan {
  double t0_us = 0;
  double t1_us = 0;
  WaitKind kind = WaitKind::kBarrier;
  const char* phase = "run";
};

/// Per-PE wait accumulator; cacheline-padded so PEs never share a line.
/// Spans are capped — a pathological run degrades to totals-only (the
/// `truncated` flag survives into the report) instead of unbounded memory.
struct alignas(64) WaitTrack {
  static constexpr std::size_t kMaxSpans = 1u << 20;

  std::array<double, kNumWaitKinds> seconds{};
  std::array<std::uint64_t, kNumWaitKinds> count{};
  double t0_us = 0; // PE busy window (bound .. unbound)
  double t1_us = 0;
  bool collect_spans = true;
  bool truncated = false;
  std::vector<WaitSpan> spans;

  void record(WaitKind k, double t0, double t1, const char* phase) {
    const auto i = static_cast<std::size_t>(k);
    seconds[i] += (t1 - t0) * 1e-6;
    ++count[i];
    if (collect_spans) {
      if (spans.size() < kMaxSpans) {
        spans.push_back(WaitSpan{t0, t1, k, phase});
      } else {
        truncated = true;
      }
    }
  }
};

/// Thread-local binding state: which WaitTrack (if any) the current
/// thread records into, the current compute-phase label, and the scope
/// nesting depth (for suppressing inner scopes).
class WaitTracker {
public:
  static WaitTrack*& current() {
    thread_local WaitTrack* t = nullptr;
    return t;
  }
  static const char*& phase() {
    thread_local const char* p = "run";
    return p;
  }
  static int& depth() {
    thread_local int d = 0;
    return d;
  }

  /// Label the compute phase subsequent waits are attributed to. `name`
  /// must be static storage (op names qualify). A single store — cheap
  /// enough for the per-gate loop even when nothing is bound.
  static void set_phase(const char* name) { phase() = name; }
};

/// RAII wait span. Active when the thread is bound to a WaitTrack (full
/// wait-state attribution) and/or a live ProgressSlot (the /progress
/// per-PE wait column), and not already inside another scope — a
/// reduction that internally barriers records one kReduction span and
/// the inner barrier scopes no-op, so wait seconds never double count.
class WaitScope {
public:
  explicit WaitScope(WaitKind kind) : kind_(kind) {
    WaitTrack* t = WaitTracker::current();
    const bool live = bound_progress_slot() != nullptr;
    if ((t == nullptr && !live) || WaitTracker::depth() != 0) return;
    track_ = t;
    timing_ = true;
    ++WaitTracker::depth();
    t0_us_ = wait_now_us();
  }
  ~WaitScope() {
    if (!timing_) return;
    --WaitTracker::depth();
    const double t1_us = wait_now_us();
    progress_publish_wait_us(t1_us - t0_us_);
    if (track_ != nullptr) {
      track_->record(kind_, t0_us_, t1_us, WaitTracker::phase());
    }
  }
  WaitScope(const WaitScope&) = delete;
  WaitScope& operator=(const WaitScope&) = delete;

private:
  WaitKind kind_;
  WaitTrack* track_ = nullptr;
  bool timing_ = false;
  double t0_us_ = 0;
};

/// Owns the per-PE WaitTracks of one run. Created per run by a
/// partitioned backend when wait statistics are on; each PE thread binds
/// itself for the duration of its SPMD body via WaitBind.
class WaitRecorder {
public:
  explicit WaitRecorder(int n_workers)
      : tracks_(static_cast<std::size_t>(n_workers)) {}

  int n_workers() const { return static_cast<int>(tracks_.size()); }
  WaitTrack& track(int w) { return tracks_[static_cast<std::size_t>(w)]; }
  const WaitTrack& track(int w) const {
    return tracks_[static_cast<std::size_t>(w)];
  }

private:
  std::vector<WaitTrack> tracks_;
};

/// RAII thread→track binding for one PE body. Also stamps the PE's busy
/// window (t0 at bind, t1 at unbind), which is the per-PE wall time the
/// breakdown sums to. Null recorder = fully inert.
class WaitBind {
public:
  WaitBind(WaitRecorder* rec, int worker) {
    if (rec == nullptr) return;
    track_ = &rec->track(worker);
    track_->t0_us = wait_now_us();
    WaitTracker::current() = track_;
    WaitTracker::phase() = "run";
  }
  ~WaitBind() {
    if (track_ == nullptr) return;
    track_->t1_us = wait_now_us();
    WaitTracker::current() = nullptr;
    WaitTracker::phase() = "run";
  }
  WaitBind(const WaitBind&) = delete;
  WaitBind& operator=(const WaitBind&) = delete;

private:
  WaitTrack* track_ = nullptr;
};

/// SVSIM_WAITSTATS: -1 unset, 0 force-off, 1 force-on. Read once.
inline int env_waitstats() {
  static const int v = [] {
    const char* e = std::getenv("SVSIM_WAITSTATS");
    if (e == nullptr || *e == '\0') return -1;
    return std::atoi(e) != 0 ? 1 : 0;
  }();
  return v;
}

} // namespace svsim::obs
