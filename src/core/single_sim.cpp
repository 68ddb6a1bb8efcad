#include "core/single_sim.hpp"

#include "core/pipeline.hpp"

namespace svsim {

SingleSim::SingleSim(IdxType n_qubits, SimConfig cfg)
    : n_(n_qubits),
      dim_(obs::admit_dim("single", n_qubits, 1, 1, cfg.mem_limit)),
      cfg_(cfg),
      real_(static_cast<std::size_t>(dim_), obs::MemTag::kState, 0),
      imag_(static_cast<std::size_t>(dim_), obs::MemTag::kState, 0),
      cbits_(static_cast<std::size_t>(n_qubits), 0),
      rng_(cfg.seed),
      table_(&local_kernel_table(cfg.simd)) {
  SVSIM_CHECK(cfg.simd <= max_simd_level(),
              "requested SIMD level not supported by this CPU/build");
  real_[0] = 1.0; // |0...0>
  mctx_.cbits = cbits_.data();
}

void SingleSim::reset_state() {
  real_.zero();
  imag_.zero();
  real_[0] = 1.0;
  std::fill(cbits_.begin(), cbits_.end(), 0);
  rng_.reseed(cfg_.seed);
}

LocalSpace SingleSim::make_space() {
  LocalSpace sp;
  sp.real = real_.data();
  sp.imag = imag_.data();
  sp.dim = dim_;
  sp.mctx = &mctx_;
  sp.rng = &rng_;
  return sp;
}

void SingleSim::run(const Circuit& circuit) {
  SVSIM_CHECK(circuit.n_qubits() == n_, "circuit width != simulator width");
  static obs::Counter& runs = obs::Registry::global().counter("runs.single");
  // One worker owns the whole register: blocks may span all n bits.
  run_pipeline(circuit,
               RunSpec<LocalSpace>{.cfg = cfg_,
                                   .runs = runs,
                                   .n_workers = 1,
                                   .lg_part = n_,
                                   .table = *table_},
               [&](auto&& body) { body(make_space()); },
               [](obs::RunReport&) {});
}

StateVector SingleSim::state() const {
  const ValType* r = real_.data();
  const ValType* i = imag_.data();
  return gather_parts(n_, n_, &r, &i, {});
}

void SingleSim::load_state(const StateVector& sv) {
  SVSIM_CHECK(sv.n_qubits == n_, "state width mismatch");
  ValType* r = real_.data();
  ValType* i = imag_.data();
  scatter_parts(sv, n_, &r, &i);
}

std::vector<IdxType> SingleSim::sample(IdxType shots) {
  return sample_via_run(shots, &mctx_);
}

} // namespace svsim
