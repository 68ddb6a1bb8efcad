// StateVector: a host-side snapshot of simulator amplitudes, plus the
// analysis helpers tests, examples and the VQA layer use.
#pragma once

#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace svsim {

struct StateVector {
  IdxType n_qubits = 0;
  std::vector<Complex> amps;

  StateVector() = default;
  explicit StateVector(IdxType n)
      : n_qubits(n), amps(static_cast<std::size_t>(pow2(n))) {}

  IdxType dim() const { return static_cast<IdxType>(amps.size()); }

  /// Squared 2-norm; 1 for any valid quantum state.
  ValType norm() const {
    ValType s = 0;
    for (const Complex& a : amps) s += std::norm(a);
    return s;
  }

  /// |amp_k|^2 for every basis state.
  std::vector<ValType> probabilities() const {
    std::vector<ValType> p(amps.size());
    for (std::size_t k = 0; k < amps.size(); ++k) p[k] = std::norm(amps[k]);
    return p;
  }

  ValType prob_of(IdxType basis) const {
    SVSIM_CHECK(basis >= 0 && basis < dim(), "basis index out of range");
    return std::norm(amps[static_cast<std::size_t>(basis)]);
  }

  /// Marginal probability of measuring |1> on qubit q.
  ValType prob_of_qubit(IdxType q) const {
    SVSIM_CHECK(q >= 0 && q < n_qubits, "qubit out of range");
    ValType p = 0;
    for (IdxType k = 0; k < dim(); ++k) {
      if (qubit_set(k, q)) p += std::norm(amps[static_cast<std::size_t>(k)]);
    }
    return p;
  }

  /// |<this|other>| — 1 iff the states are equal up to global phase.
  ValType fidelity(const StateVector& other) const {
    SVSIM_CHECK(n_qubits == other.n_qubits, "qubit counts differ");
    Complex ip = 0;
    for (std::size_t k = 0; k < amps.size(); ++k) {
      ip += std::conj(amps[k]) * other.amps[k];
    }
    return std::abs(ip);
  }

  /// Max |amp_a - amp_b| — exact (phase-sensitive) comparison.
  ValType max_diff(const StateVector& other) const {
    SVSIM_CHECK(n_qubits == other.n_qubits, "qubit counts differ");
    ValType m = 0;
    for (std::size_t k = 0; k < amps.size(); ++k) {
      const ValType d = std::abs(amps[k] - other.amps[k]);
      if (d > m) m = d;
    }
    return m;
  }

  /// Max |amp_a - e^{iγ}amp_b| with γ chosen from <other|this>. Global
  /// phase is unobservable, and rewrites that re-synthesize u3 gates from
  /// matrix products (1-qubit fusion) preserve the state only up to one;
  /// differential checks against an unfused reference must compare with
  /// this rather than max_diff.
  ValType max_diff_up_to_phase(const StateVector& other) const {
    SVSIM_CHECK(n_qubits == other.n_qubits, "qubit counts differ");
    Complex ip = 0;
    for (std::size_t k = 0; k < amps.size(); ++k) {
      ip += std::conj(other.amps[k]) * amps[k];
    }
    const ValType norm_ip = std::abs(ip);
    const Complex phase = norm_ip > 1e-300 ? ip / norm_ip : Complex{1, 0};
    ValType m = 0;
    for (std::size_t k = 0; k < amps.size(); ++k) {
      const ValType d = std::abs(amps[k] - phase * other.amps[k]);
      if (d > m) m = d;
    }
    return m;
  }
};

/// Gather a state split in natural index order into parts of 2^lg_part
/// amplitudes (part d holds [d·2^lg_part, (d+1)·2^lg_part)). A non-empty
/// remap `layout` (logical→physical qubit) is undone virtually: physical
/// index k holds logical basis state permute_bits(k, inverse, n).
inline StateVector gather_parts(IdxType n, IdxType lg_part,
                                const ValType* const* real,
                                const ValType* const* imag,
                                const std::vector<IdxType>& layout) {
  StateVector sv(n);
  std::vector<IdxType> inv(layout.size());
  for (std::size_t l = 0; l < layout.size(); ++l) {
    inv[static_cast<std::size_t>(layout[l])] = static_cast<IdxType>(l);
  }
  const IdxType per = pow2(lg_part);
  for (IdxType k = 0; k < sv.dim(); ++k) {
    const auto d = static_cast<std::size_t>(k >> lg_part);
    const IdxType off = k & (per - 1);
    const IdxType logical = inv.empty() ? k : permute_bits(k, inv.data(), n);
    sv.amps[static_cast<std::size_t>(logical)] =
        Complex{real[d][off], imag[d][off]};
  }
  return sv;
}

/// Scatter `sv` in natural order into parts laid out as in gather_parts.
inline void scatter_parts(const StateVector& sv, IdxType lg_part,
                          ValType* const* real, ValType* const* imag) {
  const IdxType per = pow2(lg_part);
  for (IdxType k = 0; k < sv.dim(); ++k) {
    const auto d = static_cast<std::size_t>(k >> lg_part);
    const IdxType off = k & (per - 1);
    real[d][off] = sv.amps[static_cast<std::size_t>(k)].real();
    imag[d][off] = sv.amps[static_cast<std::size_t>(k)].imag();
  }
}

} // namespace svsim
