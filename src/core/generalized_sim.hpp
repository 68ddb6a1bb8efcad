// GeneralizedSim: the generic-unitary baseline (§3.2.1's description of
// Aer/qsim and the stand-in for the Qiskit/Cirq/Q# default simulators in
// Figure 14).
//
// Two deliberate contrasts with SingleSim:
//  1. Every gate — even T or Z — is applied as a dense 2x2 (or full 4x4)
//     complex matrix multiply, touching all amplitudes of every pair or
//     quadruple.
//  2. Dispatch is a runtime switch on the gate kind *per gate* (the
//     "parsing & branching" cost SV-Sim's function-pointer design avoids),
//     including rebuilding the matrix from parameters on every execution.
// It doubles as the correctness reference for every specialized kernel.
#pragma once

#include "common/aligned.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/simulator.hpp"
#include "core/space.hpp"
#include "ir/matrices.hpp"

namespace svsim {

class GeneralizedSim final : public Simulator {
public:
  explicit GeneralizedSim(IdxType n_qubits, SimConfig cfg = {});

  const char* name() const override { return "generalized"; }
  IdxType n_qubits() const override { return n_; }
  void reset_state() override;
  void run(const Circuit& circuit) override;
  StateVector state() const override;
  const std::vector<IdxType>& cbits() const override { return cbits_; }
  std::vector<IdxType> sample(IdxType shots) override;

  /// Load an arbitrary (normalized) state — used by kernel-vs-matrix
  /// property tests.
  void load_state(const StateVector& sv) override;

  /// Apply one dense 1-qubit matrix / 2-qubit matrix directly (public so
  /// tests can check kernels against arbitrary random unitaries).
  void apply_matrix(const Mat2& m, IdxType q);
  void apply_matrix(const Mat4& m, IdxType q0, IdxType q1);

private:
  void apply_gate(const Gate& g);
  LocalSpace make_space();

  IdxType n_;
  IdxType dim_;
  SimConfig cfg_;
  obs::TrackedBuffer<ValType> real_;
  obs::TrackedBuffer<ValType> imag_;
  std::vector<IdxType> cbits_;
  MeasureCtx mctx_;
  Rng rng_;
};

} // namespace svsim
