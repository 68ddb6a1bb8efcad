#include "core/peer_sim.hpp"

#include "core/pipeline.hpp"
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

void PeerSim::run(const Circuit& circuit) {
  SVSIM_CHECK(circuit.n_qubits() == n_, "circuit width != simulator width");
  static obs::Counter& runs = obs::Registry::global().counter("runs.peer");
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

  // One host thread per device (the paper's `omp parallel num_threads
  // (n_gpus)` launcher).
  auto launch = [&](auto&& body) {
    launch_team(n_dev_, [&](int d) {
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
      body(sp);
    });
  };

  auto fold_comm = [&](obs::RunReport& rep) {
    const PeerTraffic total = traffic();
    rep.comm.add_peer(total.local_access, total.remote_access);
    if (!cfg_.count_traffic) return;
    // Element accesses -> bytes: every peer access moves one ValType.
    rep.matrix.n = n_dev_;
    rep.matrix.bytes.assign(n_dev * n_dev, 0);
    for (std::size_t d = 0; d < n_dev; ++d) {
      for (std::size_t j = 0; j < n_dev; ++j) {
        rep.matrix.bytes[d * n_dev + j] =
            dest_counts_[d * stride + j] * sizeof(ValType);
      }
    }
  };

  run_pipeline(circuit,
               RunSpec<PeerSpace>{.cfg = cfg_,
                                  .runs = runs,
                                  .n_workers = n_dev_,
                                  .lg_part = lg_part_,
                                  .table = KernelTable<PeerSpace>::get(),
                                  .local_table = local_table_,
                                  .layout = &layout_,
                                  .ma_layouts = &ma_layouts_,
                                  .mctx = &mctx_},
               launch, fold_comm);
}

StateVector PeerSim::state() const {
  return gather_parts(n_, lg_part_, real_ptrs_.data(), imag_ptrs_.data(),
                      layout_);
}

void PeerSim::load_state(const StateVector& sv) {
  SVSIM_CHECK(sv.n_qubits == n_, "state width mismatch");
  layout_.clear(); // loaded amplitudes are in natural (logical) order
  scatter_parts(sv, lg_part_, real_ptrs_.data(), imag_ptrs_.data());
}

std::vector<IdxType> PeerSim::sample(IdxType shots) {
  return sample_via_run(shots, &mctx_);
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
