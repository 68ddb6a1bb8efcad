#include "core/peer_sim.hpp"

#include <memory>
#include <thread>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "core/kernels/blocked.hpp"
#include "machine/model.hpp"
#include "obs/aggregate.hpp"
#include "obs/counters.hpp"
#include "obs/registry.hpp"
#include "shmem/barrier.hpp"

namespace svsim {

PeerSim::PeerSim(IdxType n_qubits, int n_devices, SimConfig cfg)
    : n_(n_qubits),
      dim_(obs::admit_dim("peer", n_qubits, n_devices, 1, cfg.mem_limit)),
      n_dev_(n_devices),
      cfg_(cfg),
      local_table_(&local_kernel_table(cfg.simd)),
      cbits_(static_cast<std::size_t>(n_qubits), 0) {
  SVSIM_CHECK(n_devices >= 1 && is_pow2(n_devices),
              "device count must be a power of two");
  SVSIM_CHECK(dim_ >= n_devices, "more devices than amplitudes");
  lg_part_ = n_ - log2_exact(n_devices);

  const auto per_dev = static_cast<std::size_t>(pow2(lg_part_));
  real_parts_.reserve(static_cast<std::size_t>(n_dev_));
  imag_parts_.reserve(static_cast<std::size_t>(n_dev_));
  for (int d = 0; d < n_dev_; ++d) {
    real_parts_.emplace_back(per_dev, obs::MemTag::kState, d);
    imag_parts_.emplace_back(per_dev, obs::MemTag::kState, d);
    // The shared pointer array (Listing 4 lines 17-34).
    real_ptrs_.push_back(real_parts_.back().data());
    imag_ptrs_.push_back(imag_parts_.back().data());
  }
  real_parts_[0][0] = 1.0; // |0...0>

  mctx_.cbits = cbits_.data();
  rngs_.assign(static_cast<std::size_t>(n_dev_), Rng(cfg.seed));
  scratch_.assign(static_cast<std::size_t>(n_dev_), 0);
  traffic_.assign(static_cast<std::size_t>(n_dev_), PeerTraffic{});
}

void PeerSim::reset_state() {
  for (int d = 0; d < n_dev_; ++d) {
    real_parts_[static_cast<std::size_t>(d)].zero();
    imag_parts_[static_cast<std::size_t>(d)].zero();
  }
  real_parts_[0][0] = 1.0;
  std::fill(cbits_.begin(), cbits_.end(), 0);
  layout_.clear();
  for (auto& rng : rngs_) rng.reseed(cfg_.seed);
}

void PeerSim::execute(const Circuit& circuit) {
  static obs::Counter& runs = obs::Registry::global().counter("runs.peer");
  runs.add();
  obs::RunReport& rep = begin_report(circuit, n_dev_);

  // Communication-avoiding remap (ir/remap): hot qubits move below
  // lg_part_ so gates run device-local; readout is virtually permuted.
  // The report keeps the ORIGINAL circuit's tally/hash.
  const std::unique_ptr<RemapResult> rm =
      maybe_remap(circuit, cfg_, n_dev_, lg_part_, &layout_);
  ma_layouts_ = rm ? std::move(rm->ma_layouts) : std::vector<IdxType>{};
  mctx_.ma_layouts = ma_layouts_.empty() ? nullptr : ma_layouts_.data();
  mctx_.n_qubits = n_;
  const Circuit& exec = rm ? rm->circuit : circuit;

  const auto device_circuit = upload_circuit<PeerSpace>(
      exec, KernelTable<PeerSpace>::get(), local_table_, lg_part_);

  shmem::Barrier grid(n_dev_); // the multi-device grid (grid.sync())
  traffic_.assign(static_cast<std::size_t>(n_dev_), PeerTraffic{});
  const auto n_dev = static_cast<std::size_t>(n_dev_);
  constexpr std::size_t kLine = kBufferAlign / sizeof(std::uint64_t);
  const std::size_t stride = (n_dev + kLine - 1) / kLine * kLine;
  dest_counts_.allocate(n_dev * stride); // zero-filled
  if (cfg_.count_traffic) {
    for (std::size_t d = 0; d < n_dev; ++d) {
      traffic_[d].per_dest = dest_counts_.data() + d * stride;
    }
  }

  std::unique_ptr<obs::GateRecorder> rec;
  if (profiling_on(cfg_)) {
    rec = std::make_unique<obs::GateRecorder>(n_dev_,
                                              obs::Trace::global().enabled());
  }
  const std::unique_ptr<obs::HealthMonitor> health = make_health(cfg_);
  obs::FlightRecorder* flight = flight_on(cfg_);
  if (flight != nullptr) flight->begin_run(name(), n_, n_dev_);

  // Built once on the calling thread; shared read-only by every device
  // thread. Blocks must not straddle a partition, so b <= lg_part.
  const auto sched = kernels::prepare_sched<PeerSpace>(
      exec, device_circuit, cfg_, lg_part_, rec != nullptr,
      health ? health->every_n() : 0);
  if (sched.enabled) fold_sched_stats(rep, sched.sched.stats, sched.active, dim_);

  std::unique_ptr<obs::WaitRecorder> wrec;
  if (waitstats_on(cfg_)) wrec = std::make_unique<obs::WaitRecorder>(n_dev_);

  obs::ProgressBoard* progress = progress_on(cfg_);
  if (progress != nullptr) {
    progress->begin_run(name(), n_, n_dev_, exec,
                        sched.active ? &sched.sched : nullptr);
  }

  auto device_main = [&](int d) {
    set_log_pe(d);
    obs::WaitBind bind(wrec.get(), d);
    PeerSpace sp;
    sp.real_parts = real_ptrs_.data();
    sp.imag_parts = imag_ptrs_.data();
    sp.lg_part = lg_part_;
    sp.dim = dim_;
    sp.mctx = &mctx_;
    sp.rng = &rngs_[static_cast<std::size_t>(d)];
    sp.worker_id = d;
    sp.num_workers = n_dev_;
    sp.barrier = &grid;
    sp.scratch = scratch_.data();
    sp.traffic = cfg_.count_traffic ? &traffic_[static_cast<std::size_t>(d)]
                                    : nullptr;
    if (sched.active) {
      simulation_kernel_sched(device_circuit, sched, sp, rec.get(),
                              health.get(), flight, progress);
    } else {
      simulation_kernel(device_circuit, sp, rec.get(), health.get(), flight,
                        progress);
    }
  };

  // The sampler inherits into the device threads spawned below and they
  // join before it is read, so the counts cover the whole team.
  const bool roofline = roofline_on(cfg_);
  const obs::RunModel model =
      roofline ? obs::model_run(exec, sched.active ? &sched.sched : nullptr)
               : obs::RunModel{};
  obs::CounterSampler counters(roofline);
  const double loop_t0 = obs::trace_now_us();
  counters.start();
  {
    Timer::ScopedAccum wall(rep.wall_seconds);
    // One host thread per device (the paper's `omp parallel num_threads
    // (n_gpus)` launcher); device 0 runs on the calling thread.
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(n_dev_ - 1));
    for (int d = 1; d < n_dev_; ++d) workers.emplace_back(device_main, d);
    device_main(0);
    for (auto& t : workers) t.join();
  }
  counters.stop();
  set_log_pe(-1); // the calling thread ran device 0

  if (rec) rec->finish(rep, name());
  if (wrec) obs::fold_waitstate(rep, *wrec, name());
  if (roofline) {
    obs::fold_roofline(rep, model, counters.sample(),
                       machine::host_peak_gbps(n_dev_), name(), loop_t0,
                       obs::trace_now_us());
  }
  if (health) health->finish(rep);
  if (flight != nullptr) set_flight_pending(n_dev_);
  const PeerTraffic total = traffic();
  rep.comm.add_peer(total.local_access, total.remote_access);
  if (cfg_.count_traffic) {
    // Element accesses -> bytes: every peer access moves one ValType.
    rep.matrix.n = n_dev_;
    rep.matrix.bytes.assign(n_dev * n_dev, 0);
    for (std::size_t d = 0; d < n_dev; ++d) {
      for (std::size_t j = 0; j < n_dev; ++j) {
        rep.matrix.bytes[d * n_dev + j] =
            dest_counts_[d * stride + j] * sizeof(ValType);
      }
    }
  }
  if (progress != nullptr) progress->end_run(obs::to_json(rep));
}

void PeerSim::run(const Circuit& circuit) {
  SVSIM_CHECK(circuit.n_qubits() == n_, "circuit width != simulator width");
  execute(circuit);
}

StateVector PeerSim::state() const {
  StateVector sv(n_);
  const IdxType per = pow2(lg_part_);
  // Undo the remap layout virtually: physical amplitude index k holds
  // logical basis state permute_bits(k, inverse, n).
  std::vector<IdxType> inv;
  if (!layout_.empty()) {
    inv.resize(static_cast<std::size_t>(n_));
    for (IdxType l = 0; l < n_; ++l) {
      inv[static_cast<std::size_t>(layout_[static_cast<std::size_t>(l)])] = l;
    }
  }
  for (IdxType k = 0; k < dim_; ++k) {
    const auto d = static_cast<std::size_t>(k >> lg_part_);
    const auto off = static_cast<std::size_t>(k & (per - 1));
    const IdxType logical =
        inv.empty() ? k : permute_bits(k, inv.data(), n_);
    sv.amps[static_cast<std::size_t>(logical)] =
        Complex{real_parts_[d][off], imag_parts_[d][off]};
  }
  return sv;
}

void PeerSim::load_state(const StateVector& sv) {
  SVSIM_CHECK(sv.n_qubits == n_, "state width mismatch");
  layout_.clear(); // loaded amplitudes are in natural (logical) order
  const IdxType per = pow2(lg_part_);
  for (IdxType k = 0; k < dim_; ++k) {
    const auto d = static_cast<std::size_t>(k >> lg_part_);
    const auto off = static_cast<std::size_t>(k & (per - 1));
    real_parts_[d][off] = sv.amps[static_cast<std::size_t>(k)].real();
    imag_parts_[d][off] = sv.amps[static_cast<std::size_t>(k)].imag();
  }
}

std::vector<IdxType> PeerSim::sample(IdxType shots) {
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

PeerTraffic PeerSim::traffic() const {
  PeerTraffic total;
  for (const auto& t : traffic_) {
    total.local_access += t.local_access;
    total.remote_access += t.remote_access;
  }
  return total;
}

} // namespace svsim
