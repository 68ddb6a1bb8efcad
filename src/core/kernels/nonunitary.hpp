// Non-unitary kernels: measure, measure-all (sampling), reset.
//
// These run inside the same single simulation kernel as the unitary gates
// (so a circuit with mid-circuit measurement still executes in one launch)
// but use the Space's SPMD protocol: sum-reduction for probabilities, a
// collective uniform draw (identical on every worker — the per-worker RNG
// replicas advance in lockstep), and barriers between phases.
//
// Determinism: given the same seed, every backend (single / peer / shmem /
// baselines) produces identical measurement outcomes, which the
// backend-equivalence property tests rely on.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "core/space.hpp"
#include "ir/gate.hpp"

namespace svsim::kernels {

/// measure q -> c : project onto the sampled outcome and renormalize.
/// Work range [begin, end) indexes amplitude pairs over q.
template <class Space>
void kern_measure(const Gate& g, const Space& sp, IdxType begin,
                  IdxType end) {
  const IdxType q = g.qb0;
  const IdxType stride = pow2(q);

  // Phase 1: probability of reading |1>.
  ValType local = 0;
  for (IdxType i = begin; i < end; ++i) {
    const IdxType p1 = pair_base(i, q) + stride;
    const ValType r = sp.get_real(p1);
    const ValType im = sp.get_imag(p1);
    local += r * r + im * im;
  }
  // Accumulated FP drift (and distributed-reduction rounding) can push
  // the reduced probability marginally outside [0,1]; clamp before the
  // draw so the branch cannot be biased past certainty and `keep` cannot
  // go negative into the sqrt below.
  const ValType prob1 =
      std::clamp(sp.reduce_sum(local), ValType{0}, ValType{1});

  // Phase 2: collective draw — same value on every worker.
  const ValType u = sp.collective_uniform();
  const bool one = u < prob1;
  const ValType keep = one ? prob1 : (1.0 - prob1);
  const ValType scale = keep > 0 ? 1.0 / std::sqrt(keep) : 0.0;

  // Phase 3: collapse + renormalize this worker's slice.
  for (IdxType i = begin; i < end; ++i) {
    const IdxType p0 = pair_base(i, q);
    const IdxType p1 = p0 + stride;
    if (one) {
      sp.set_real(p0, 0);
      sp.set_imag(p0, 0);
      sp.set_real(p1, sp.get_real(p1) * scale);
      sp.set_imag(p1, sp.get_imag(p1) * scale);
    } else {
      sp.set_real(p0, sp.get_real(p0) * scale);
      sp.set_imag(p0, sp.get_imag(p0) * scale);
      sp.set_real(p1, 0);
      sp.set_imag(p1, 0);
    }
  }
  if (sp.worker() == 0 && sp.mctx->cbits != nullptr && g.cbit >= 0) {
    sp.mctx->cbits[g.cbit] = one ? 1 : 0;
  }
  // The simulation-kernel loop issues the closing sync.
}

/// The cumulative-distribution walk behind measure_all: visit logical
/// basis states k = 0, 1, ... in order, accumulating `norm2(k)` = |amp|²
/// of state k, and hand each sorted draw the first k whose running sum
/// exceeds it. Stops once every draw is placed.
template <class Norm2>
void sweep_cdf(const std::vector<std::pair<ValType, IdxType>>& draws,
               IdxType dim, IdxType* results, Norm2&& norm2) {
  ValType cum = 0;
  IdxType k = 0;
  std::size_t d = 0;
  while (d < draws.size() && k < dim) {
    cum += norm2(k);
    while (d < draws.size() && draws[d].first < cum) {
      results[draws[d].second] = k;
      ++d;
    }
    ++k;
  }
  // Numerical tail: norm may be marginally below the largest draw.
  for (; d < draws.size(); ++d) results[draws[d].second] = dim - 1;
}

/// measure_all: sample mctx->n_shots basis states into mctx->results
/// WITHOUT collapsing the state (sampling semantics, like the paper's MA
/// used for the repeated-shot workloads). Work range indexes amplitudes.
template <class Space>
void kern_measure_all(const Gate& g, const Space& sp, IdxType, IdxType) {
  const IdxType shots = sp.mctx->n_shots;
  // All workers draw the same uniforms to stay in RNG lockstep; only
  // worker 0 materializes the outcomes (it can reach every amplitude
  // one-sidedly — the whole point of the PGAS model).
  std::vector<std::pair<ValType, IdxType>> draws;
  draws.reserve(static_cast<std::size_t>(shots));
  for (IdxType s = 0; s < shots; ++s) {
    draws.emplace_back(sp.collective_uniform(), s);
  }
  if (sp.worker() != 0) return;
  // Virtual readout permutation (ir/remap): when the circuit was
  // remapped, this MA carries a layout-snapshot row index in its cbit;
  // sweep the cumulative distribution in LOGICAL order — reading the
  // amplitude of logical basis state k at its physical home — and report
  // logical bitstrings. The sweep order is what ties each sorted draw to
  // its outcome, so it must match the unremapped run.
  const IdxType* row = nullptr;
  if (sp.mctx->ma_layouts != nullptr && g.cbit >= 0) {
    row = sp.mctx->ma_layouts + g.cbit * sp.mctx->n_qubits;
    bool identity = true;
    for (IdxType b = 0; b < sp.mctx->n_qubits; ++b) {
      if (row[b] != b) { identity = false; break; }
    }
    if (identity) row = nullptr;
  }
  std::optional<BitPermuter> perm;
  if (row != nullptr) perm.emplace(row, sp.mctx->n_qubits);
  const auto phys_of = [&](IdxType k) { return perm ? (*perm)(k) : k; };
  std::sort(draws.begin(), draws.end());
  if constexpr (kPartitioned<Space>) {
    // Owner-computes sweep: resolve every partition once (shmem_ptr) and
    // read through plain loads, tallying reads per owner; the tallies
    // fold into the traffic counters afterwards, exactly as per-element
    // gets would have counted them.
    const auto nw = static_cast<std::size_t>(sp.n_workers());
    std::vector<const ValType*> re(nw);
    std::vector<const ValType*> im(nw);
    std::vector<std::uint64_t> reads(nw, 0);
    for (std::size_t w = 0; w < nw; ++w) {
      re[w] = sp.part_real(static_cast<int>(w));
      im[w] = sp.part_imag(static_cast<int>(w));
    }
    const IdxType mask = pow2(sp.lg_part) - 1;
    sweep_cdf(draws, sp.dim, sp.mctx->results, [&](IdxType k) {
      const IdxType phys = phys_of(k);
      const auto w = static_cast<std::size_t>(phys >> sp.lg_part);
      const auto off = static_cast<std::size_t>(phys & mask);
      ++reads[w];
      return re[w][off] * re[w][off] + im[w][off] * im[w][off];
    });
    for (std::size_t w = 0; w < nw; ++w) {
      if (reads[w] != 0) sp.count_reads(static_cast<int>(w), 2 * reads[w]);
    }
  } else {
    sweep_cdf(draws, sp.dim, sp.mctx->results, [&](IdxType k) {
      const IdxType phys = phys_of(k);
      const ValType r = sp.get_real(phys);
      const ValType i = sp.get_imag(phys);
      return r * r + i * i;
    });
  }
}

/// reset q: project onto |0> (renormalizing) or, if the qubit is
/// deterministically |1>, swap the halves — matching Qiskit's reset.
template <class Space>
void kern_reset(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  const IdxType q = g.qb0;
  const IdxType stride = pow2(q);

  ValType local = 0;
  for (IdxType i = begin; i < end; ++i) {
    const IdxType p0 = pair_base(i, q);
    const ValType r = sp.get_real(p0);
    const ValType im = sp.get_imag(p0);
    local += r * r + im * im;
  }
  // Same clamp as kern_measure: drift must not leak through the
  // renormalization scale.
  const ValType prob0 =
      std::clamp(sp.reduce_sum(local), ValType{0}, ValType{1});

  if (prob0 > 1e-12) {
    const ValType scale = 1.0 / std::sqrt(prob0);
    for (IdxType i = begin; i < end; ++i) {
      const IdxType p0 = pair_base(i, q);
      const IdxType p1 = p0 + stride;
      sp.set_real(p0, sp.get_real(p0) * scale);
      sp.set_imag(p0, sp.get_imag(p0) * scale);
      sp.set_real(p1, 0);
      sp.set_imag(p1, 0);
    }
  } else {
    // Qubit is |1> with certainty: move the |1> half into the |0> half.
    for (IdxType i = begin; i < end; ++i) {
      const IdxType p0 = pair_base(i, q);
      const IdxType p1 = p0 + stride;
      sp.set_real(p0, sp.get_real(p1));
      sp.set_imag(p0, sp.get_imag(p1));
      sp.set_real(p1, 0);
      sp.set_imag(p1, 0);
    }
  }
}

} // namespace svsim::kernels
