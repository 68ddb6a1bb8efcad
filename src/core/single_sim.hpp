// SingleSim: the single-device backend (§3.2.1).
//
// Homogeneous execution: the whole circuit runs as one simulation-kernel
// loop of preloaded function pointers, with a specialized kernel per gate
// whose contiguous-run walks the compiler vectorizes for the build's
// -march (the role of Listing 2's hand-written AVX-512). The loop runs on a team of
// SimConfig::threads host threads that share the one state vector — the
// CPU analogue of the paper's grid-stride kernel over every SM, with a
// team barrier for grid.sync() (DESIGN.md §15). Each worker owns a
// contiguous 1/T slice for blocked windows and health scans; sampling
// stays one sequential sweep.
#pragma once

#include <vector>

#include "common/aligned.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/dispatch.hpp"
#include "core/simulator.hpp"
#include "core/space.hpp"

namespace svsim {

class SingleSim final : public Simulator {
public:
  explicit SingleSim(IdxType n_qubits, SimConfig cfg = {});

  const char* name() const override { return "single"; }
  IdxType n_qubits() const override { return n_; }
  void reset_state() override;
  void run(const Circuit& circuit) override;
  StateVector state() const override;
  void load_state(const StateVector& sv) override;
  const std::vector<IdxType>& cbits() const override { return cbits_; }
  std::vector<IdxType> sample(IdxType shots) override;

  /// Direct (mutable) access to the amplitude arrays — used by tests that
  /// prepare arbitrary states and by the micro-benchmarks.
  ValType* real() { return real_.data(); }
  ValType* imag() { return imag_.data(); }
  IdxType dim() const { return dim_; }

  /// The resolved team size T (SimConfig::threads).
  int threads() const { return threads_; }

private:
  IdxType n_;
  IdxType dim_;
  SimConfig cfg_;
  int threads_;
  obs::TrackedBuffer<ValType> real_;
  obs::TrackedBuffer<ValType> imag_;
  std::vector<IdxType> cbits_;
  MeasureCtx mctx_;
  std::vector<Rng> rngs_;        // per-worker replicas, same seed (lockstep)
  std::vector<ValType> scratch_; // one reduction slot per worker
};

} // namespace svsim
