// Batched variational evaluation — the paper's stated future work
// (§5/§7: "building a variational algorithm specific simulator by
// further parallelizing the variational optimization loop ... batched
// simulation").
//
// vqa::BatchedSim is the ansatz-facing adapter over the core SPMD
// batched engine (core/batched_sim.hpp): it binds one ParamCircuit to B
// parameter vectors and evolves the B members in lockstep through the
// batched kernels — one upload per sweep, batch-innermost layout, the
// vector lanes across members. Since the engine carries the
// full kernel family including exec-masked measure and reset, ansatze
// are no longer restricted to unitary gates: mid-circuit measurement
// diverges per member on member-b's own RNG stream (seed cfg.seed + b).
// Nelder-Mead simplex evaluations and SPSA probe pairs are natural
// batches (vqa/optimizer.hpp's BatchObjective drives this).
#pragma once

#include <vector>

#include "common/config.hpp"
#include "core/batched_sim.hpp"
#include "core/state_vector.hpp"
#include "vqa/ansatz.hpp"
#include "vqa/optimizer.hpp"
#include "vqa/pauli.hpp"

namespace svsim::vqa {

class BatchedSim {
public:
  BatchedSim(IdxType n_qubits, int batch, SimConfig cfg = {});

  IdxType n_qubits() const { return engine_.n_qubits(); }
  int batch() const { return static_cast<int>(engine_.batch()); }

  /// Reset every member to |0...0> (and reseed the member RNG streams).
  void reset_all() { engine_.reset_state(); }

  /// Execute `ansatz` bound to params[b] on member b (params.size() must
  /// equal batch()). Measure/reset gates are allowed: they run through
  /// the engine's exec-masked kernels and diverge per member.
  void run_fresh(const ParamCircuit& ansatz,
                 const std::vector<std::vector<ValType>>& params);

  /// Snapshot one member's state.
  StateVector state(int member) const {
    return engine_.state(static_cast<IdxType>(member));
  }

  /// <H> for every member (one sweep over the batched amplitudes per
  /// Pauli term).
  std::vector<ValType> expectations(const Hamiltonian& h) const;

  /// The underlying SPMD engine (reports, sampling, direct state access).
  svsim::BatchedSim& engine() { return engine_; }
  const svsim::BatchedSim& engine() const { return engine_; }

private:
  svsim::BatchedSim engine_;
};

/// Convenience: evaluate <H> for many parameter vectors of one ansatz in
/// batches of `batch` (the drop-in accelerator for simplex/population
/// optimizers).
std::vector<ValType> batched_energy_sweep(
    IdxType n_qubits, const ParamCircuit& ansatz, const Hamiltonian& h,
    const std::vector<std::vector<ValType>>& param_sets, int batch = 8);

/// The batched VQE objective: a BatchObjective computing <H> of `ansatz`
/// through the SPMD engine, `batch` members per lockstep pass. Hand it to
/// NelderMead/Spsa minimize(BatchObjective, ...) and the simplex init,
/// shrink steps, and SPSA probe pairs each collapse into one sweep.
BatchObjective energy_objective(IdxType n_qubits, ParamCircuit ansatz,
                                Hamiltonian h, int batch = 8);

} // namespace svsim::vqa
