#include "core/shmem_sim.hpp"

#include <memory>

#include "common/timer.hpp"
#include "core/kernels/blocked.hpp"
#include "machine/model.hpp"
#include "obs/aggregate.hpp"
#include "obs/counters.hpp"
#include "obs/registry.hpp"

namespace svsim {

namespace {
std::size_t default_heap_bytes(IdxType n_qubits, int n_pes) {
  // Two ValType arrays of 2^n / n_pes amplitudes each, plus slack for
  // alignment.
  const std::size_t per_pe =
      static_cast<std::size_t>(pow2(n_qubits)) / static_cast<std::size_t>(n_pes);
  return per_pe * 2 * sizeof(ValType) + (1u << 16);
}
} // namespace

ShmemSim::ShmemSim(IdxType n_qubits, int n_pes, SimConfig cfg,
                   std::size_t heap_bytes)
    : n_(n_qubits),
      dim_(obs::admit_dim("shmem", n_qubits, n_pes, 1, cfg.mem_limit)),
      n_pes_(n_pes),
      cfg_(cfg),
      local_table_(&local_kernel_table(cfg.simd)),
      runtime_(n_pes, heap_bytes != 0 ? heap_bytes
                                      : default_heap_bytes(n_qubits, n_pes)),
      cbits_(static_cast<std::size_t>(n_qubits), 0) {
  SVSIM_CHECK(dim_ >= n_pes, "more PEs than amplitudes");
  lg_part_ = n_ - log2_exact(n_pes);

  // The state planes live inside the symmetric-heap arenas; register
  // each PE's whole arena (the shmem layer itself cannot link obs).
  mem_ids_.reserve(static_cast<std::size_t>(n_pes_));
  for (int pe = 0; pe < n_pes_; ++pe) {
    mem_ids_.push_back(obs::MemRegistry::global().track(
        obs::MemTag::kShmemHeap, runtime_.arena_base(pe),
        runtime_.heap_bytes(), pe));
  }

  real_sym_.assign(static_cast<std::size_t>(n_pes_), nullptr);
  imag_sym_.assign(static_cast<std::size_t>(n_pes_), nullptr);
  mctx_.cbits = cbits_.data();
  rngs_.assign(static_cast<std::size_t>(n_pes_), Rng(cfg.seed));

  // Setup "job": symmetric allocation of the partitioned state vector
  // (Listing 5 lines 23-24) and |0...0> initialization.
  const IdxType per_pe = pow2(lg_part_);
  runtime_.run([&](shmem::Ctx& ctx) {
    ValType* r = ctx.malloc_sym<ValType>(static_cast<std::size_t>(per_pe));
    ValType* i = ctx.malloc_sym<ValType>(static_cast<std::size_t>(per_pe));
    real_sym_[static_cast<std::size_t>(ctx.pe())] = r;
    imag_sym_[static_cast<std::size_t>(ctx.pe())] = i;
    if (ctx.pe() == 0) r[0] = 1.0;
    ctx.barrier_all();
  });
}

ShmemSim::~ShmemSim() {
  for (const std::uint64_t id : mem_ids_) {
    obs::MemRegistry::global().untrack(id);
  }
}

void ShmemSim::reset_state() {
  const IdxType per_pe = pow2(lg_part_);
  runtime_.run([&](shmem::Ctx& ctx) {
    ValType* r = real_sym_[static_cast<std::size_t>(ctx.pe())];
    ValType* i = imag_sym_[static_cast<std::size_t>(ctx.pe())];
    for (IdxType k = 0; k < per_pe; ++k) {
      r[k] = 0;
      i[k] = 0;
    }
    if (ctx.pe() == 0) r[0] = 1.0;
    ctx.barrier_all();
  });
  std::fill(cbits_.begin(), cbits_.end(), 0);
  layout_.clear();
  for (auto& rng : rngs_) rng.reseed(cfg_.seed);
}

void ShmemSim::execute(const Circuit& circuit) {
  static obs::Counter& runs = obs::Registry::global().counter("runs.shmem");
  runs.add();
  obs::RunReport& rep = begin_report(circuit, n_pes_);

  // Communication-avoiding remap (ir/remap): rewrite the circuit so hot
  // qubits live below lg_part_ (PE-local); readout is virtually permuted
  // through the layout snapshots instead of physically restored. The
  // report keeps the ORIGINAL circuit's tally/hash so ledger keys stay
  // comparable across remap on/off.
  const std::unique_ptr<RemapResult> rm =
      maybe_remap(circuit, cfg_, n_pes_, lg_part_, &layout_);
  ma_layouts_ = rm ? std::move(rm->ma_layouts) : std::vector<IdxType>{};
  mctx_.ma_layouts = ma_layouts_.empty() ? nullptr : ma_layouts_.data();
  mctx_.n_qubits = n_;
  const Circuit& exec = rm ? rm->circuit : circuit;

  const auto device_circuit = upload_circuit<ShmemSpace>(
      exec, KernelTable<ShmemSpace>::get(), local_table_, lg_part_);

  std::unique_ptr<obs::GateRecorder> rec;
  if (profiling_on(cfg_)) {
    rec = std::make_unique<obs::GateRecorder>(n_pes_,
                                              obs::Trace::global().enabled());
  }
  const std::unique_ptr<obs::HealthMonitor> health = make_health(cfg_);
  obs::FlightRecorder* flight = flight_on(cfg_);
  if (flight != nullptr) flight->begin_run(name(), n_, n_pes_);

  // Built once outside the PE team; shared read-only. b <= lg_part keeps
  // every block inside one PE's symmetric partition.
  const auto sched = kernels::prepare_sched<ShmemSpace>(
      exec, device_circuit, cfg_, lg_part_, rec != nullptr,
      health ? health->every_n() : 0);
  if (sched.enabled) fold_sched_stats(rep, sched.sched.stats, sched.active, dim_);

  // runtime_.run spawns the PE threads below and joins them before the
  // sampler is read, so inherited child counts cover the whole team.
  const bool roofline = roofline_on(cfg_);
  const obs::RunModel model =
      roofline ? obs::model_run(exec, sched.active ? &sched.sched : nullptr)
               : obs::RunModel{};
  obs::CounterSampler counters(roofline);
  std::unique_ptr<obs::WaitRecorder> wrec;
  if (waitstats_on(cfg_)) wrec = std::make_unique<obs::WaitRecorder>(n_pes_);
  obs::ProgressBoard* progress = progress_on(cfg_);
  if (progress != nullptr) {
    progress->begin_run(name(), n_, n_pes_, exec,
                        sched.active ? &sched.sched : nullptr);
  }
  const double loop_t0 = obs::trace_now_us();
  counters.start();
  {
    Timer::ScopedAccum wall(rep.wall_seconds);
    runtime_.run([&](shmem::Ctx& ctx) {
      // Bind only for the gate loop: the setup/reset jobs above run the
      // same Barrier uninstrumented (no bound track on those threads).
      obs::WaitBind bind(wrec.get(), ctx.pe());
      ShmemSpace sp;
      sp.ctx = &ctx;
      sp.real_sym = real_sym_[static_cast<std::size_t>(ctx.pe())];
      sp.imag_sym = imag_sym_[static_cast<std::size_t>(ctx.pe())];
      sp.lg_part = lg_part_;
      sp.dim = dim_;
      sp.mctx = &mctx_;
      sp.rng = &rngs_[static_cast<std::size_t>(ctx.pe())];
      if (sched.active) {
        simulation_kernel_sched(device_circuit, sched, sp, rec.get(),
                                health.get(), flight, progress);
      } else {
        simulation_kernel(device_circuit, sp, rec.get(), health.get(), flight,
                          progress);
      }
    });
  }
  counters.stop();
  last_traffic_ = runtime_.aggregate_traffic();
  if (rec) rec->finish(rep, name());
  if (wrec) obs::fold_waitstate(rep, *wrec, name());
  if (roofline) {
    obs::fold_roofline(rep, model, counters.sample(),
                       machine::host_peak_gbps(n_pes_), name(), loop_t0,
                       obs::trace_now_us());
  }
  if (health) health->finish(rep);
  if (flight != nullptr) set_flight_pending(n_pes_);
  rep.comm.add_shmem(last_traffic_);
  rep.matrix.n = n_pes_;
  rep.matrix.bytes = runtime_.traffic_matrix();
  if (progress != nullptr) progress->end_run(obs::to_json(rep));
}

void ShmemSim::run(const Circuit& circuit) {
  SVSIM_CHECK(circuit.n_qubits() == n_, "circuit width != simulator width");
  execute(circuit);
}

StateVector ShmemSim::state() const {
  StateVector sv(n_);
  const IdxType per_pe = pow2(lg_part_);
  // Undo the remap layout virtually: physical amplitude index p holds
  // logical basis state permute_bits(p, inverse, n).
  std::vector<IdxType> inv;
  if (!layout_.empty()) {
    inv.resize(static_cast<std::size_t>(n_));
    for (IdxType l = 0; l < n_; ++l) {
      inv[static_cast<std::size_t>(layout_[static_cast<std::size_t>(l)])] = l;
    }
  }
  for (int pe = 0; pe < n_pes_; ++pe) {
    const ValType* r = real_sym_[static_cast<std::size_t>(pe)];
    const ValType* i = imag_sym_[static_cast<std::size_t>(pe)];
    const IdxType base = static_cast<IdxType>(pe) * per_pe;
    for (IdxType k = 0; k < per_pe; ++k) {
      const IdxType phys = base + k;
      const IdxType logical =
          inv.empty() ? phys : permute_bits(phys, inv.data(), n_);
      sv.amps[static_cast<std::size_t>(logical)] = Complex{r[k], i[k]};
    }
  }
  return sv;
}

void ShmemSim::load_state(const StateVector& sv) {
  SVSIM_CHECK(sv.n_qubits == n_, "state width mismatch");
  layout_.clear(); // loaded amplitudes are in natural (logical) order
  const IdxType per_pe = pow2(lg_part_);
  for (int pe = 0; pe < n_pes_; ++pe) {
    ValType* r = real_sym_[static_cast<std::size_t>(pe)];
    ValType* i = imag_sym_[static_cast<std::size_t>(pe)];
    const IdxType base = static_cast<IdxType>(pe) * per_pe;
    for (IdxType k = 0; k < per_pe; ++k) {
      r[k] = sv.amps[static_cast<std::size_t>(base + k)].real();
      i[k] = sv.amps[static_cast<std::size_t>(base + k)].imag();
    }
  }
}

std::vector<IdxType> ShmemSim::sample(IdxType shots) {
  results_.assign(static_cast<std::size_t>(shots), 0);
  mctx_.results = results_.data();
  mctx_.n_shots = shots;
  Circuit c(n_);
  c.measure_all();
  execute(c);
  mctx_.results = nullptr;
  mctx_.n_shots = 0;
  return results_;
}

} // namespace svsim
