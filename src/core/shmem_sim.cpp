#include "core/shmem_sim.hpp"

#include "core/pipeline.hpp"

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

void ShmemSim::run(const Circuit& circuit) {
  SVSIM_CHECK(circuit.n_qubits() == n_, "circuit width != simulator width");
  static obs::Counter& runs = obs::Registry::global().counter("runs.shmem");
  auto launch = [&](auto&& body) {
    runtime_.run([&](shmem::Ctx& ctx) {
      ShmemSpace sp;
      sp.ctx = &ctx;
      sp.real_sym = real_sym_[static_cast<std::size_t>(ctx.pe())];
      sp.imag_sym = imag_sym_[static_cast<std::size_t>(ctx.pe())];
      sp.lg_part = lg_part_;
      sp.dim = dim_;
      sp.mctx = &mctx_;
      sp.rng = &rngs_[static_cast<std::size_t>(ctx.pe())];
      body(sp);
    });
  };
  auto fold_comm = [&](obs::RunReport& rep) {
    last_traffic_ = runtime_.aggregate_traffic();
    rep.comm.add_shmem(last_traffic_);
    rep.matrix.n = n_pes_;
    rep.matrix.bytes = runtime_.traffic_matrix();
  };
  run_pipeline(circuit,
               RunSpec<ShmemSpace>{.cfg = cfg_,
                                   .runs = runs,
                                   .n_workers = n_pes_,
                                   .lg_part = lg_part_,
                                   .layout = &layout_,
                                   .ma_layouts = &ma_layouts_,
                                   .mctx = &mctx_},
               launch, fold_comm);
}

StateVector ShmemSim::state() const {
  return gather_parts(n_, lg_part_, real_sym_.data(), imag_sym_.data(),
                      layout_);
}

void ShmemSim::load_state(const StateVector& sv) {
  SVSIM_CHECK(sv.n_qubits == n_, "state width mismatch");
  layout_.clear(); // loaded amplitudes are in natural (logical) order
  scatter_parts(sv, lg_part_, real_sym_.data(), imag_sym_.data());
}

std::vector<IdxType> ShmemSim::sample(IdxType shots) {
  return sample_via_run(shots, &mctx_);
}

} // namespace svsim
