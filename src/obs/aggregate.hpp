// obs::aggregate — cross-PE timeline aggregation and the run-ledger.
//
// Input: one PeTimeline per PE (busy window + wait totals + time-ordered
// wait spans, all on the shared obs::wait_now_us() clock, with an optional
// per-PE clock offset for timelines recorded against different epochs —
// e.g. traces merged from separate processes). Output: the WaitProfile
// stored in RunReport — per-PE compute/comm/wait seconds that sum to each
// PE's wall time by construction, the load-imbalance factor (max/avg
// compute), the straggler PE, and the distributed critical path.
//
// Critical path model: global barriers are team-wide rendezvous, so the
// k-th barrier span on every PE belongs to the same collective (the SPMD
// gate loop guarantees an identical barrier sequence per PE — reductions
// record a single kReduction span on every PE alike, preserving
// alignment). The interval between consecutive barriers is a *phase*; the
// PE that arrives last (largest busy time within the phase) bounds the
// team's wall clock for that phase, and everyone else's barrier wait is
// exposure to that straggler. Summing bound time per (PE, phase label)
// names which PE's which compute phase the run is limited by.
//
// The ledger half is the cross-run telemetry store: an append-only JSONL
// file of report summaries keyed by circuit hash + config + CPU
// provenance, compared across runs by tools/svsim_analyze.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/jsonlite.hpp"
#include "obs/waitstate.hpp"

namespace svsim {
class Circuit;
}

namespace svsim::obs {

struct RunReport;

/// One PE's observed timeline, ready for aggregation. Timestamps are in
/// microseconds; `clock_offset_us` is added to every timestamp before
/// folding (0 when all PEs share the process epoch, as in-process runs
/// do).
struct PeTimeline {
  double t0_us = 0;
  double t1_us = 0;
  double clock_offset_us = 0;
  std::array<double, kNumWaitKinds> wait_seconds{};
  std::array<std::uint64_t, kNumWaitKinds> wait_count{};
  bool truncated = false;
  std::vector<WaitSpan> spans; // time-ordered
};

/// The cross-PE wait-state breakdown of one run. Defaults (enabled ==
/// false) when wait statistics were off or the backend has no PE team.
struct WaitProfile {
  bool enabled = false;

  struct PerPe {
    double wall_s = 0;      // PE busy window (bind .. unbind)
    double compute_s = 0;   // wall − waits (clamped at 0)
    double barrier_s = 0;
    double reduction_s = 0;
    double transfer_s = 0;
    std::uint64_t barrier_n = 0;
    std::uint64_t reduction_n = 0;
    std::uint64_t transfer_n = 0;

    double wait_s() const { return barrier_s + reduction_s + transfer_s; }
    double wait_fraction() const {
      return wall_s > 0 ? wait_s() / wall_s : 0;
    }
  };
  std::vector<PerPe> per_pe;

  double imbalance = 0;     // max/avg compute seconds across PEs
  int straggler = -1;       // PE with the most compute time
  double wait_fraction = 0; // total wait / total PE busy time
  bool truncated = false;   // some PE hit the span cap (totals still exact)

  /// One critical-path contributor: `seconds` of team wall-clock bounded
  /// by `pe` executing `phase` (the gate/op label active at the barrier).
  struct Critical {
    int pe = -1;
    std::string phase;
    double seconds = 0;
    std::uint64_t phases = 0; // barrier intervals attributed
  };
  std::vector<Critical> critical; // top contributors, descending seconds
  double critical_s = 0;          // total phase wall-clock accounted
  int critical_pe = -1;           // PE bounding the most wall-clock
  std::string critical_phase;     // its dominant phase label

  /// Aligned per-PE heatmap table for terminal display (shade = wait
  /// fraction relative to the worst PE).
  std::string table() const;
};

/// Fold per-PE timelines into the cross-PE profile. Consumes `pes`.
WaitProfile aggregate_timelines(std::vector<PeTimeline> pes);

/// Fold a run's WaitRecorder into `rep.waitstate` and, when tracing is
/// active, flush the wait spans onto the per-PE tracks of `process` (they
/// nest under the gate spans already there).
void fold_waitstate(RunReport& rep, WaitRecorder& rec,
                    const std::string& process);

/// "model name" from /proc/cpuinfo, or "unknown-cpu". Cached.
const std::string& cpu_model();

/// 64-bit word-wise FNV-1a over a circuit-shape digest (ops, operand
/// qubits, angle bits, width) — the run-ledger key component that
/// identifies "the same circuit" across runs and processes.
std::uint64_t hash_circuit(const Circuit& circuit);

/// Format a 64-bit hash the way the report/ledger JSON carries it.
std::string hash_hex(std::uint64_t h);

// ---------------------------------------------------------------------------
// Run ledger: append-only JSONL of report summaries ("svsim-ledger-v1").
// ---------------------------------------------------------------------------
namespace ledger {

inline constexpr const char* kSchema = "svsim-ledger-v1";

/// One ledger line: the durable summary of one run, keyed so that runs of
/// the same circuit + backend + team size + machine compare directly.
struct Entry {
  std::string key;          // circuit_hash:backend:wN:cpu-digest
  std::string circuit_hash; // hex
  std::string backend;
  long long n_qubits = 0;
  int n_workers = 0;
  std::uint64_t total_gates = 0;
  std::string cpu;
  long long unix_time = 0; // seconds; 0 = unknown
  double wall_seconds = 0;
  double compute_s = 0; // summed over PEs (0 when waitstats were off)
  double wait_s = 0;
  double imbalance = 0;
  std::string critical; // "PE 2 / cx" or ""
  std::uint64_t remote_bytes = 0;
  // Memory plane (additive svsim-ledger-v1 fields; 0 = plane off or a
  // pre-memory ledger line).
  std::uint64_t peak_rss_bytes = 0;    // max(VmHWM, last VmRSS) sampled
  std::uint64_t tracked_peak_bytes = 0; // registry high-water mark
  double est_err_pct = 0; // (estimate − tracked peak)/peak, percent
  // Communication-avoiding remap (additive; 0 = pass off or an older
  // ledger line).
  std::uint64_t remap_swaps = 0;

  /// Derive `key` from the identity fields.
  void rekey();
  /// One JSONL line (no trailing newline).
  std::string line() const;
};

/// Build an entry from a parsed svsim-report-v1 document. False (with
/// *err set) when the document lacks the schema marker or core fields.
bool entry_from_report(const jsonlite::Value& report, Entry* out,
                       std::string* err);

/// Parse one ledger line. False (with *err set) on invalid JSON, wrong
/// schema, or missing fields — the corrupt-line detection `svsim_analyze
/// --compare` reports.
bool parse_line(const std::string& line, Entry* out, std::string* err);

/// Human-readable cross-run comparison: entries grouped by key, each
/// group's runs in time order with wall-clock deltas vs the previous run
/// and the group best.
std::string compare(std::vector<Entry> entries);

} // namespace ledger
} // namespace svsim::obs
