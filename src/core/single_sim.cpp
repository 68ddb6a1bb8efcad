#include "core/single_sim.hpp"

#include <sched.h>

#include <algorithm>

#include "core/pipeline.hpp"
#include "ir/schedule.hpp"

namespace svsim {

namespace {

/// SimConfig::threads resolved for a `dim`-amplitude state (see there).
int resolve_threads(int requested, IdxType dim) {
  if (requested == 0) {
    const IdxType blocks = dim >> default_block_exponent();
    if (blocks < 2) return 1;
    cpu_set_t set;
    CPU_ZERO(&set);
    const int cpus =
        sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
    const IdxType cap = std::min<IdxType>(cpus, blocks);
    int t = 1;
    while (2 * static_cast<IdxType>(t) <= cap) t *= 2;
    return t;
  }
  SVSIM_CHECK(requested > 0 && is_pow2(requested) && requested <= dim,
              "SimConfig::threads must be 0 (auto) or a power of two <= 2^n");
  return requested;
}

} // namespace

SingleSim::SingleSim(IdxType n_qubits, SimConfig cfg)
    : n_(n_qubits),
      dim_(obs::admit_dim("single", n_qubits, 1, 1, cfg.mem_limit)),
      cfg_(cfg),
      threads_(resolve_threads(cfg.threads, dim_)),
      real_(static_cast<std::size_t>(dim_), obs::MemTag::kState, 0),
      imag_(static_cast<std::size_t>(dim_), obs::MemTag::kState, 0),
      cbits_(static_cast<std::size_t>(n_qubits), 0),
      rngs_(static_cast<std::size_t>(threads_), Rng(cfg.seed)),
      scratch_(static_cast<std::size_t>(threads_), 0) {
  real_[0] = 1.0; // |0...0>
  mctx_.cbits = cbits_.data();
}

void SingleSim::reset_state() {
  real_.zero();
  imag_.zero();
  real_[0] = 1.0;
  std::fill(cbits_.begin(), cbits_.end(), 0);
  for (auto& rng : rngs_) rng.reseed(cfg_.seed);
}

void SingleSim::run(const Circuit& circuit) {
  SVSIM_CHECK(circuit.n_qubits() == n_, "circuit width != simulator width");
  static obs::Counter& runs = obs::Registry::global().counter("runs.single");
  shmem::Barrier grid(threads_); // the device-wide grid.sync()
  auto launch = [&](auto&& body) {
    launch_team(threads_, [&](int w) {
      LocalSpace sp;
      sp.real = real_.data();
      sp.imag = imag_.data();
      sp.dim = dim_;
      sp.mctx = &mctx_;
      sp.rng = &rngs_[static_cast<std::size_t>(w)];
      sp.worker_id = w;
      sp.num_workers = threads_;
      sp.barrier = threads_ > 1 ? &grid : nullptr; // one worker never waits
      sp.scratch = scratch_.data();
      body(sp);
    });
  };
  // Each worker owns a 1/T slice: blocks stay inside it.
  run_pipeline(circuit,
               RunSpec<LocalSpace>{.cfg = cfg_,
                                   .runs = runs,
                                   .n_workers = threads_,
                                   .lg_part = n_ - log2_exact(threads_)},
               launch, [](obs::RunReport&) {});
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
