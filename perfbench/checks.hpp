// Output checks, run outside the timed region of every item.
//
// Each check takes the outputs a user would read (sampled shots, the
// state, an energy) and returns whether they are right plus the largest
// amplitude error it saw. They are plain functions of their arguments so
// the self-test can hand them perturbed outputs and watch them fail.
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/state_vector.hpp"
#include "workloads.hpp"

namespace perfbench {

struct CheckResult {
  bool ok = true;
  double max_err = 0;  // largest amplitude / energy error examined
  std::string why;     // first failure, empty when ok

  void fail(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
  void err(double e, double tol, const std::string& what);
};

/// Amplitude of basis index k of the state under test.
using AmpFn = std::function<std::complex<double>(std::uint64_t)>;

/// Closed-form check of a deep-workload circuit (ghz | bv | qft): every
/// sampled shot, plus the amplitudes at the closed form's support and at
/// `probes` (seeded basis indices), within `tol`.
CheckResult check_closed_form(const CircuitInput& in,
                              const std::vector<svsim::IdxType>& shots,
                              const AmpFn& amp,
                              const std::vector<std::uint64_t>& probes,
                              double tol = 1e-10);

/// Partitioned backend against a SingleSim reference at the same seed:
/// shots bit for bit, the state within `tol` up to global phase.
CheckResult check_against_reference(const std::vector<svsim::IdxType>& shots,
                                    const std::vector<svsim::IdxType>& ref_shots,
                                    const svsim::StateVector& state,
                                    const svsim::StateVector& ref_state,
                                    double tol = 1e-10);

/// A VQE evaluation against the dense oracle: energy within `tol_energy`,
/// state within `tol_state` up to global phase.
CheckResult check_energy(double energy, double oracle_energy,
                         const svsim::StateVector& state,
                         const svsim::StateVector& oracle_state,
                         double tol_energy = 1e-9, double tol_state = 1e-10);

/// `count` seeded basis indices below 2^n.
std::vector<std::uint64_t> probe_indices(int n, std::uint64_t seed,
                                         int count = 64);

} // namespace perfbench
