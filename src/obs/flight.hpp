// obs::FlightRecorder — a crash-surviving record of the last moments of a
// run.
//
// Every worker/PE owns one fixed-size lock-free ring of FlightEvents
// (gate id, op kind, qubits, timestamp, event kind); the gate loops push
// one event per gate — a few plain stores, cheap enough to stay on by
// default. On a clean run the rings are drained into the RunReport; on a
// crash the SIGSEGV/SIGFPE/SIGABRT handlers (and a std::set_terminate
// hook) dump the rings plus a POD snapshot of the in-flight run to
// stderr with raw write(2), so the post-mortem story survives buffered
// stdio and partial teardown.
//
// Concurrency contract: each ring has exactly one writer (its worker);
// the crash handler and the drain path are readers. Entries read while a
// writer is mid-store can be torn — acceptable for forensics, and the
// monotonic `seq` makes torn tails recognizable.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "ir/op.hpp"

namespace svsim::obs {

/// One recorded moment. POD so the signal handler can format it with
/// nothing but snprintf over plain memory.
struct FlightEvent {
  enum Kind : std::uint8_t {
    kGate = 0,       // a gate application is starting
    kComm = 1,       // a coarse-grained exchange/message op
    kCheckpoint = 2, // a health-monitor checkpoint completed
    kRunBegin = 3,   // a backend entered its gate loop
  };

  std::uint64_t seq = 0;  // per-worker monotonic event number
  double ts_us = 0;       // trace_now_us() timestamp
  std::uint64_t gate_id = 0;
  std::uint16_t kind = kGate;
  std::uint16_t op = 0;   // OP enum value (kGate/kComm)
  std::int16_t worker = 0;
  std::int32_t qb0 = -1;
  std::int32_t qb1 = -1;
};

const char* flight_kind_name(FlightEvent::Kind kind);

/// Single-writer ring of the most recent kCap events for one worker.
struct alignas(64) FlightRing {
  static constexpr std::size_t kCap = 256; // power of two
  static_assert((kCap & (kCap - 1)) == 0, "ring capacity must be pow2");

  std::atomic<std::uint64_t> head{0}; // total events ever pushed
  FlightEvent ev[kCap];

  void push(const FlightEvent& e) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    FlightEvent& slot = ev[h & (kCap - 1)];
    slot = e;
    slot.seq = h;
    head.store(h + 1, std::memory_order_release);
  }

  /// Oldest-first copy of the currently retained events.
  std::vector<FlightEvent> snapshot() const;
};

class FlightRecorder {
public:
  static constexpr int kMaxWorkers = 64;

  static FlightRecorder& global();

  /// Honors SVSIM_FLIGHT ("0" disables; default on). Read once.
  static bool env_enabled();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Called by a backend before its gate loop starts: stamps the active-run
  /// snapshot the crash dump prints, installs the crash handlers on first
  /// use, and pushes a kRunBegin event on worker 0's ring. Rings are NOT
  /// cleared — events from earlier runs age out naturally, which is
  /// exactly what a flight recorder wants.
  void begin_run(const char* backend, IdxType n_qubits, int n_workers);

  /// The ring worker `w` should push to, or nullptr when the recorder is
  /// disabled or w >= kMaxWorkers (extra workers simply go unrecorded).
  FlightRing* ring(int worker) {
    if (!enabled() || worker < 0 || worker >= kMaxWorkers) return nullptr;
    return &rings_[worker];
  }

  /// Oldest-first merge of the first `n_workers` rings (for the report).
  std::vector<FlightEvent> drain(int n_workers) const;

  /// Async-signal-safe dump of the active-run snapshot and all non-empty
  /// rings to file descriptor `fd` (raw write(2), no stdio buffering).
  void dump(int fd) const;

  /// Install SIGSEGV/SIGFPE/SIGABRT handlers and a std::set_terminate
  /// hook that dump() to stderr, flush, then re-raise the default
  /// behavior. Idempotent; called automatically by begin_run().
  static void install_crash_handlers();

private:
  FlightRecorder();

  // POD snapshot of the in-flight run for the crash header.
  struct ActiveRun {
    char backend[24] = {0};
    long long n_qubits = 0;
    int n_workers = 0;
  };

  std::atomic<bool> enabled_;
  ActiveRun active_;
  FlightRing rings_[kMaxWorkers];
};

/// Install SIGINT/SIGTERM handlers for graceful shutdown: mark the live
/// progress run `"interrupted": true`, write a partial svsim-progress-v1
/// document (to the interrupt-report path when set, stderr otherwise),
/// best-effort rewrite the Chrome trace (Trace::try_write), and _exit
/// with the conventional status (130 for SIGINT, 143 for SIGTERM).
/// SA_RESETHAND: a second Ctrl-C kills the process immediately.
/// Idempotent; called by FlightRecorder::begin_run and the telemetry
/// endpoint activation.
void install_shutdown_handlers();

/// File the interrupt flush writes its partial progress document to
/// ("" = stderr). Must be called before the signal can arrive; the path
/// is copied into static storage the handler can read without locking.
void set_interrupt_report_path(const char* path);

} // namespace svsim::obs
