// The run pipeline: one run() lifecycle for SingleSim, PeerSim and
// ShmemSim.
//
// Every dispatch backend runs a circuit through the same fixed steps, so
// every one of them emits the same report, health checkpoints, flight
// events, progress and roofline data:
//   1. tally the run (runs counter, begin_report);
//   2. remap the circuit and wire the readout layouts (partitioned only);
//   3. upload it (resolve the kernel pointers);
//   4. arm the hooks: profiling recorder, health monitor, flight recorder,
//      schedule, wait recorder (partitioned only), progress board,
//      roofline model and hardware counters;
//   5. launch the worker team, timed into the report's wall_seconds;
//   6. fold the hooks into the report, outside the timed region;
//   7. fold the backend's communication counters;
//   8. close the run on the progress board.
// A backend supplies only its team launcher, which builds each worker's
// Space and calls the per-worker body, and its communication fold.
// SingleSim and PeerSim start their teams with launch_team; ShmemSim's
// runtime starts its own PEs.
#pragma once

#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "core/dispatch.hpp"
#include "core/kernels/blocked.hpp"
#include "core/simulator.hpp"
#include "machine/model.hpp"
#include "obs/aggregate.hpp"
#include "obs/counters.hpp"
#include "obs/registry.hpp"
#include "obs/waitstate.hpp"

namespace svsim {

/// Run `fn(w)` for every worker w in [0, n) on a team of n host threads
/// and join them: the paper's `omp parallel num_threads(n)` launcher.
/// Worker 0 runs on the calling thread; each worker's log lines carry its
/// id. A team of one is a plain call: no thread, no log tag. The gate loop
/// does not throw: an exception escaping a worker ends the program (the
/// flight recorder dumps on SIGABRT) instead of leaving its teammates
/// blocked at a barrier.
template <class Fn>
void launch_team(int n, Fn&& fn) {
  if (n == 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(n - 1));
  for (int w = 1; w < n; ++w) {
    team.emplace_back([&fn, w] {
      set_log_pe(w);
      fn(w);
    });
  }
  set_log_pe(0);
  fn(0);
  for (auto& t : team) t.join();
  set_log_pe(-1);
}

/// What a backend hands the run pipeline besides its launcher and its
/// communication fold.
template <class Space>
struct RunSpec {
  const SimConfig& cfg;
  obs::Counter& runs; // "runs.<backend>"
  int n_workers = 1;
  IdxType lg_part = 0; // log2(amplitudes per worker): blocks stay inside
  // Partitioned backends only: the remap state (see Simulator::maybe_remap)
  // — the persistent layout, the storage behind MeasureCtx::ma_layouts,
  // and the MeasureCtx that reads them.
  std::vector<IdxType>* layout = nullptr;
  std::vector<IdxType>* ma_layouts = nullptr;
  MeasureCtx* mctx = nullptr;
};

template <class Space, class Launch, class FoldComm>
void Simulator::run_pipeline(const Circuit& circuit,
                             const RunSpec<Space>& spec, Launch&& launch,
                             FoldComm&& fold_comm) {
  const SimConfig& cfg = spec.cfg;
  const int nw = spec.n_workers;
  spec.runs.add();
  obs::RunReport& rep = begin_report(circuit, nw);

  // Communication-avoiding remap (ir/remap): hot qubits move below
  // lg_part so their gates run PE-local; readout is virtually permuted
  // through the layout snapshots. The report keeps the ORIGINAL circuit's
  // tally/hash so ledger keys stay comparable across remap on/off.
  std::unique_ptr<RemapResult> rm;
  if constexpr (kPartitioned<Space>) {
    rm = maybe_remap(circuit, cfg, nw, spec.lg_part, spec.layout);
    *spec.ma_layouts = rm ? std::move(rm->ma_layouts) : std::vector<IdxType>{};
    spec.mctx->ma_layouts =
        spec.ma_layouts->empty() ? nullptr : spec.ma_layouts->data();
    spec.mctx->n_qubits = n_qubits();
  }
  const Circuit& exec = rm ? rm->circuit : circuit;

  const auto device_circuit =
      upload_circuit<Space>(exec, KernelTable<Space>::get(), spec.lg_part);

  std::unique_ptr<obs::GateRecorder> rec;
  if (profiling_on(cfg)) {
    rec = std::make_unique<obs::GateRecorder>(nw,
                                              obs::Trace::global().enabled());
  }
  const std::unique_ptr<obs::HealthMonitor> health = make_health(cfg);
  obs::FlightRecorder* flight = flight_on(cfg);
  if (flight != nullptr) flight->begin_run(name(), n_qubits(), nw);
  // Built once outside the team and shared read-only by every worker.
  const auto sched = kernels::prepare_sched<Space>(
      exec, device_circuit, cfg, spec.lg_part, rec != nullptr,
      health ? health->every_n() : 0);
  if (sched.enabled) {
    fold_sched_stats(rep, sched.sched.stats, sched.active,
                     pow2(n_qubits()));
  }
  const Schedule* blocked = sched.active ? &sched.sched : nullptr;
  std::unique_ptr<obs::WaitRecorder> wrec;
  if constexpr (kPartitioned<Space>) {
    if (waitstats_on(cfg)) wrec = std::make_unique<obs::WaitRecorder>(nw);
  }
  obs::ProgressBoard* progress = progress_on(cfg);
  if (progress != nullptr) {
    progress->begin_run(name(), n_qubits(), nw, exec, blocked);
  }
  const bool roofline = roofline_on(cfg);
  const obs::RunModel model =
      roofline ? obs::model_run(exec, blocked) : obs::RunModel{};
  // The sampler inherits into the team's threads, which join before it
  // is read, so the counts cover the whole team.
  obs::CounterSampler counters(roofline);
  const RunHooks hooks{rec.get(), health.get(), flight, progress};

  const double loop_t0 = obs::trace_now_us();
  counters.start();
  {
    Timer::ScopedAccum wall(rep.wall_seconds);
    launch([&](const Space& sp) {
      // Bound only around the gate loop: a backend's setup/reset jobs run
      // the same barriers uninstrumented.
      obs::WaitBind bind(wrec.get(), sp.worker());
      simulation_kernel_sched(device_circuit, sched, sp, hooks);
    });
  }
  counters.stop();

  // The recorder's finish may rewrite the trace file: never timed.
  if (rec) rec->finish(rep, name());
  if (wrec) obs::fold_waitstate(rep, *wrec, name());
  if (roofline) {
    obs::fold_roofline(rep, model, counters.sample(),
                       machine::host_peak_gbps(nw), name(), loop_t0,
                       obs::trace_now_us());
  }
  if (health) health->finish(rep);
  if (flight != nullptr) set_flight_pending(nw);
  fold_comm(rep);
  if (progress != nullptr) progress->end_run(obs::to_json(rep));
}

} // namespace svsim
