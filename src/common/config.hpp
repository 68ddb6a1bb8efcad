// Runtime configuration shared by simulator backends.
#pragma once

#include <string>

#include "common/types.hpp"

namespace svsim {

/// Which arithmetic path the single-device kernels use. Scalar is the
/// portable reference; Avx2/Avx512 are the architecture-specialized paths
/// described in §3.2.1 of the paper (Listing 2 shows the AVX-512 T gate).
enum class SimdLevel { kScalar, kAvx2, kAvx512 };

/// Highest SIMD level this binary/CPU supports (compile-time + cpuid).
SimdLevel max_simd_level();

/// Parse/format helpers used by bench/example command lines.
const char* to_string(SimdLevel level);
SimdLevel simd_level_from_string(const std::string& name);

/// Configuration for a simulator instance.
struct SimConfig {
  SimdLevel simd = SimdLevel::kScalar;
  /// Seed for measurement sampling.
  std::uint64_t seed = 42;
  /// Record per-gate communication counters (scale-up/scale-out backends).
  bool count_traffic = true;
  /// Collect per-gate timing into the RunReport (and, when a trace path
  /// is configured via SVSIM_PROFILE or obs::Trace::set_path, Chrome
  /// trace events). Setting SVSIM_PROFILE also turns profiling on without
  /// this flag; default off keeps the gate loop free of timer calls.
  bool profile = false;
  /// Numerical-health checkpoint cadence: check ‖ψ‖² and scan for
  /// non-finite amplitudes every n gates (0 = off). SVSIM_HEALTH=<n> also
  /// enables monitoring without this field.
  int health_every_n = 0;
  /// |‖ψ‖² − 1| above this logs WARN and counts in HealthStats::warns.
  double health_warn_drift = 1e-6;
  /// Drift above this aborts the run (0 = never). SVSIM_HEALTH_ABORT=<d>
  /// sets it from the environment (and implies abort_on_nan).
  double health_abort_drift = 0;
  /// Abort the run as soon as any non-finite amplitude is seen.
  bool health_abort_on_nan = false;
  /// Push per-gate events into the crash flight recorder (a few plain
  /// stores per gate). SVSIM_FLIGHT=0 disables it globally.
  bool flight = true;
  /// Cache-blocked gate-window execution (ir/schedule + kernels/blocked):
  /// group consecutive gates whose non-diagonal action lies below block
  /// exponent b and apply each whole window to one 2^b-amplitude
  /// cache-resident block at a time — one memory sweep per window instead
  /// of per gate. -1 = auto (on, b sized to L2), 0 = off (the classic
  /// per-gate loop, bit-for-bit), >= 2 = explicit b. SVSIM_SCHED=<v>
  /// overrides when this field is left at auto (0 off, 1 auto, n >= 2
  /// explicit).
  int sched_window = -1;
  /// Communication-avoiding qubit remapping (ir/remap): before executing
  /// on a partitioned backend, greedily swap logical qubits that are
  /// about to be used out of the remote (cross-PE) index range so gates
  /// run PE-local, and virtually permute readout instead of physically
  /// restoring the layout — measurement operands and sampled bitstrings
  /// are reindexed through the final logical→physical layout, so cbits
  /// and samples match the unremapped run. -1 = auto (on for multi-PE
  /// partitioned backends), 0 = off, 1 = on. SVSIM_REMAP=<0|1> overrides
  /// when this field is left at auto.
  int remap = -1;
  /// Roofline attribution (obs/perfmodel + obs/counters): price the run's
  /// expected bytes/flops analytically, sample hardware counters around
  /// the gate loop (perf_event_open; degrades to model-only where
  /// denied), and join both against the machine-model peak bandwidth in
  /// RunReport::roofline. SVSIM_ROOFLINE=1 also enables it.
  bool roofline = false;
  /// Cross-PE wait-state attribution (obs/waitstate + obs/aggregate):
  /// wrap every blocking synchronization primitive (barrier arrival,
  /// collective reductions, block transfers, mailbox receives) in a wait
  /// span and fold the per-PE timelines into RunReport::waitstate —
  /// compute/comm/wait per PE, imbalance factor, straggler, distributed
  /// critical path. -1 = auto (on for multi-PE backends; the instrumented
  /// paths run at synchronization frequency, not per amplitude), 0 = off,
  /// 1 = on. SVSIM_WAITSTATS=<0|1> overrides auto.
  int waitstats = -1;
  /// Resident-memory admission limit in bytes (obs/capacity): every
  /// backend constructor prices its footprint analytically and throws a
  /// clear Error instead of OOM-killing mid-circuit when the estimate
  /// exceeds the limit. 0 = no limit from the config; SVSIM_MEM_LIMIT
  /// (bytes, "16G"-style suffixed size, or `auto` = MemAvailable) is the
  /// environment fallback.
  std::uint64_t mem_limit = 0;
  /// Embedded telemetry endpoint (obs/httpd + obs/progress): bind
  /// 127.0.0.1:<port> (0 = kernel-assigned) and serve GET /metrics,
  /// /healthz, /progress, /report while the process runs; also turns on
  /// the lock-free per-PE progress publishers and the perfmodel-based
  /// ETA. -1 = off unless SVSIM_HTTP=<port> is set in the environment.
  int http_port = -1;
  /// SingleSim's thread team (DESIGN.md §15): T host threads run the gate
  /// loop over the one shared state vector, each owning a contiguous 1/T
  /// slice. 0 = auto: the largest power of two <= min(the CPUs in this
  /// process's affinity mask, 2^n >> default_block_exponent()), so a state
  /// that fits one cache block runs on the calling thread alone. Otherwise
  /// a power of two <= 2^n. Resolved once at construction; every other
  /// backend ignores it.
  int threads = 0;
};

} // namespace svsim
