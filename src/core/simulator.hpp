// Simulator: the backend-neutral public interface.
//
// All five backends implement it:
//   SingleSim      — one device (scalar or SIMD kernels)
//   PeerSim        — single-node scale-up over the peer pointer array
//   ShmemSim       — multi-node scale-out over the SHMEM runtime
//   GeneralizedSim — generic-matrix baseline (Aer/qsim-style, Fig 14)
//   CoarseMsgSim   — MPI-style coarse-grained message-passing baseline
// so every test, example, bench and VQA driver is backend-agnostic.
#pragma once

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "core/space.hpp"
#include "core/state_vector.hpp"
#include "ir/circuit.hpp"
#include "ir/fusion.hpp"
#include "ir/remap.hpp"
#include "obs/capacity.hpp"
#include "obs/health.hpp"
#include "obs/httpd.hpp"
#include "obs/memtrack.hpp"
#include "obs/perfmodel.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace svsim {

template <class Space>
struct RunSpec; // core/pipeline.hpp

class Simulator {
public:
  virtual ~Simulator() = default;

  virtual const char* name() const = 0;
  virtual IdxType n_qubits() const = 0;

  /// Return the register to |0...0> and clear classical bits.
  virtual void reset_state() = 0;

  /// Execute all gates of `circuit` against the current state.
  /// May be called repeatedly (the VQA iteration pattern).
  virtual void run(const Circuit& circuit) = 0;

  /// Gather the full state into host memory.
  virtual StateVector state() const = 0;

  /// Load an arbitrary state (must be normalized to the usual tolerance;
  /// width must match). Supported by every backend — used to resume work,
  /// inject prepared states, and by the kernel-vs-reference tests.
  virtual void load_state(const StateVector& sv) = 0;

  /// Classical register contents after the last run().
  virtual const std::vector<IdxType>& cbits() const = 0;

  /// Sample `shots` basis-state outcomes from the current state without
  /// collapsing it (the paper's measure-all path).
  virtual std::vector<IdxType> sample(IdxType shots) = 0;

  // --- convenience built on the virtual surface ---

  std::vector<ValType> probabilities() const { return state().probabilities(); }
  ValType prob_of_qubit(IdxType q) const { return state().prob_of_qubit(q); }

  /// reset_state + run: the one-shot evaluation used per VQA iteration.
  void run_fresh(const Circuit& circuit) {
    reset_state();
    run(circuit);
  }

  /// Fuse the circuit, run it, and record the fusion stats in the report.
  void run_fused(const Circuit& circuit) {
    FusionStats st;
    const Circuit fused = fuse_gates(circuit, &st);
    run(fused);
    report_.fusion = st;
  }

  // --- observability (non-virtual; backends fill report_ per run()) ---

  /// Instrumentation record of the most recent run()/sample(): gate
  /// counts by kind, per-gate-kind time (when profiling), fusion stats,
  /// unified local/remote communication totals, health results, the
  /// PE×PE traffic matrix, and the flight-recorder events. The flight
  /// drain is deferred to here: copying up to 256 events per worker on
  /// every run() would dominate single-gate circuits.
  const obs::RunReport& last_report() const {
    if (flight_workers_ > 0) {
      report_.flight = obs::FlightRecorder::global().drain(flight_workers_);
      flight_workers_ = 0;
    }
    // Memory is folded lazily like the flight drain: the registry
    // snapshot + one synchronous RSS sample per report request, never
    // per run().
    if (!report_.backend.empty()) obs::fold_memory(report_);
    return report_;
  }

protected:
  /// The run lifecycle shared by SingleSim, PeerSim and ShmemSim, defined
  /// in core/pipeline.hpp: tally, remap, upload, arm the hooks, launch the
  /// team, fold. `launch(body)` runs `body(sp)` once per worker with that
  /// worker's Space; `fold_comm(report)` merges the backend's traffic.
  template <class Space, class Launch, class FoldComm>
  void run_pipeline(const Circuit& circuit, const RunSpec<Space>& spec,
                    Launch&& launch, FoldComm&& fold_comm);

  /// sample() for a backend whose measure_all kernel writes its shots
  /// through `mctx`: run one measure_all circuit.
  std::vector<IdxType> sample_via_run(IdxType shots, MeasureCtx* mctx) {
    std::vector<IdxType> results(static_cast<std::size_t>(shots), 0);
    struct Unbind {
      MeasureCtx* m;
      ~Unbind() {
        m->results = nullptr;
        m->n_shots = 0;
      }
    } unbind{mctx};
    mctx->results = results.data();
    mctx->n_shots = shots;
    Circuit c(n_qubits());
    c.measure_all();
    run(c);
    return results;
  }

  /// Reset and stamp the report at the top of a run(). The caller times
  /// the gate loop into report.wall_seconds and merges its traffic
  /// counters at the end.
  obs::RunReport& begin_report(const Circuit& circuit, int n_workers) {
    report_ = obs::RunReport{};
    flight_workers_ = 0;
    report_.backend = name();
    report_.n_qubits = n_qubits();
    report_.n_workers = n_workers;
    obs::tally_gates(report_, circuit);
    return report_;
  }

  /// Communication-avoiding remap (ir/remap) for a partitioned backend.
  /// Call after begin_report(). When the pass resolves on (SimConfig::
  /// remap / SVSIM_REMAP / auto multi-PE) and is applicable (more than
  /// one PE, at least two node-local index bits), runs it seeded with the
  /// persistent `layout` (empty = identity — it survives across runs so
  /// sample()'s internal measure-all circuit sees the permutation the
  /// previous circuit left behind), stores the final layout back, fills
  /// report_.remap, and returns the rewritten circuit. Null = execute
  /// the input unchanged.
  std::unique_ptr<RemapResult> maybe_remap(const Circuit& circuit,
                                           const SimConfig& cfg,
                                           int n_workers, IdxType local_bits,
                                           std::vector<IdxType>* layout) {
    if (!remap_on(cfg, n_workers)) return nullptr;
    obs::RemapStats& st = report_.remap;
    st.enabled = true;
    if (n_workers <= 1 || local_bits < 2) return nullptr;
    auto rm = std::make_unique<RemapResult>(remap_for_partition(
        circuit, local_bits, 64, layout->empty() ? nullptr : layout));
    *layout = rm->layout;
    st.active = true;
    st.local_bits = static_cast<int>(local_bits);
    st.swaps_inserted = static_cast<std::uint64_t>(rm->swaps_inserted);
    st.modeled_remote_bytes_before = rm->modeled_remote_bytes_before;
    st.modeled_remote_bytes_after = rm->modeled_remote_bytes_after;
    return rm;
  }

  /// Per-run profiling decision: the config flag, or SVSIM_PROFILE set.
  static bool profiling_on(const SimConfig& cfg) {
    return cfg.profile || !obs::env_profile_path().empty();
  }

  /// Per-run roofline decision: SVSIM_ROOFLINE wins when set (1 on,
  /// 0 force-off, mirroring SVSIM_SCHED); otherwise the config flag.
  static bool roofline_on(const SimConfig& cfg) {
    const int env = obs::env_roofline();
    if (env >= 0) return env == 1;
    return cfg.roofline;
  }

  /// Per-run wait-state decision: SVSIM_WAITSTATS wins when set (1 on,
  /// 0 force-off); then SimConfig::waitstats; -1 auto means on — the
  /// instrumented paths run at synchronization frequency, so the spans
  /// cost nothing measurable (bounded by bench_smoke's obs pair).
  static bool waitstats_on(const SimConfig& cfg) {
    const int env = obs::env_waitstats();
    if (env >= 0) return env == 1;
    if (cfg.waitstats >= 0) return cfg.waitstats == 1;
    return true;
  }

  /// A HealthMonitor for this run, or nullptr when monitoring is off
  /// (neither SimConfig::health_every_n nor SVSIM_HEALTH set).
  static std::unique_ptr<obs::HealthMonitor> make_health(const SimConfig& cfg) {
    const obs::HealthMonitor::Options o = obs::HealthMonitor::options(cfg);
    if (o.every_n <= 0) return nullptr;
    return std::make_unique<obs::HealthMonitor>(o);
  }

  /// The process flight recorder, or nullptr when the config or
  /// SVSIM_FLIGHT=0 turned it off.
  static obs::FlightRecorder* flight_on(const SimConfig& cfg) {
    if (!cfg.flight) return nullptr;
    obs::FlightRecorder& fr = obs::FlightRecorder::global();
    return fr.enabled() ? &fr : nullptr;
  }

  /// The live progress board, or nullptr when publishing is off. Also the
  /// activation point for the embedded telemetry endpoint: the first call
  /// with SimConfig::http_port >= 0 or SVSIM_HTTP set starts the global
  /// httpd (which enables the board); SVSIM_PROGRESS=1 enables the board
  /// without a server.
  static obs::ProgressBoard* progress_on(const SimConfig& cfg) {
    if (!obs::maybe_start_httpd(cfg.http_port)) return nullptr;
    return &obs::ProgressBoard::global();
  }

  /// Record that this run's flight events should be drained into the
  /// report at the next last_report() call (instead of eagerly, which
  /// would put a multi-KB copy on the per-run() path).
  void set_flight_pending(int n_workers) const { flight_workers_ = n_workers; }

  mutable obs::RunReport report_;

private:
  mutable int flight_workers_ = 0;
};

} // namespace svsim
