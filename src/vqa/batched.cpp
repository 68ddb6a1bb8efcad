#include "vqa/batched.hpp"

#include <algorithm>
#include <memory>

#include "common/bits.hpp"

namespace svsim::vqa {

BatchedSim::BatchedSim(IdxType n_qubits, int batch, SimConfig cfg)
    : engine_(n_qubits, static_cast<IdxType>(batch), cfg) {
  SVSIM_CHECK(batch >= 1, "batch must be positive");
}

void BatchedSim::run_fresh(const ParamCircuit& ansatz,
                           const std::vector<std::vector<ValType>>& params) {
  SVSIM_CHECK(static_cast<int>(params.size()) == batch(),
              "one parameter vector per batch member required");
  SVSIM_CHECK(ansatz.n_qubits() == n_qubits(), "ansatz width mismatch");

  // Bind once per member; the slot structure is identical across members
  // (same ansatz), so gate i of every member shares op and operands — the
  // congruence the engine's per-member coefficient rows rely on.
  std::vector<Circuit> bound;
  bound.reserve(params.size());
  for (const auto& p : params) bound.push_back(ansatz.bind(p));
  engine_.run_fresh(bound);
}

std::vector<ValType> BatchedSim::expectations(const Hamiltonian& h) const {
  SVSIM_CHECK(h.n_qubits() <= n_qubits(),
              "Hamiltonian is wider than the register");
  const IdxType B = engine_.batch();
  const IdxType dim = engine_.dim();
  std::vector<ValType> out(static_cast<std::size_t>(B), h.constant);
  std::vector<ValType> acc(static_cast<std::size_t>(B));
  const ValType* __restrict re = engine_.real_data();
  const ValType* __restrict im = engine_.imag_data();
  ValType* __restrict a = acc.data();
  for (const PauliTerm& term : h.terms) {
    // A Pauli string acts on basis states by a bit flip plus a phase that
    // is a power of i: target = k ^ x_mask, phase = i^nY * (-1)^parity(k
    // & zy_mask) — so the per-k work collapses to an XOR and a popcount,
    // and the member loop below is a pure FMA over contiguous lanes.
    IdxType x_mask = 0, zy_mask = 0;
    int n_y = 0;
    for (std::size_t q = 0; q < term.ops.size(); ++q) {
      switch (term.ops[q]) {
        case Pauli::I: break;
        case Pauli::X: x_mask |= pow2(static_cast<IdxType>(q)); break;
        case Pauli::Y:
          x_mask |= pow2(static_cast<IdxType>(q));
          zy_mask |= pow2(static_cast<IdxType>(q));
          ++n_y;
          break;
        case Pauli::Z: zy_mask |= pow2(static_cast<IdxType>(q)); break;
      }
    }
    // i^nY folded into (pr, pi); conj(i)^popcount(k & y) over the Y bits
    // is what the qubit-set branch in the scalar path computed — it
    // reduces to the same global i^nY once the (-1) parts join zy_mask.
    const int quarter = ((n_y % 4) + 4) % 4;
    const ValType pr = (quarter == 0) ? 1 : (quarter == 2) ? -1 : 0;
    const ValType pi = (quarter == 1) ? 1 : (quarter == 3) ? -1 : 0;
    std::fill(acc.begin(), acc.end(), ValType{0});
    for (IdxType k = 0; k < dim; ++k) {
      const ValType sign =
          (std::popcount(static_cast<std::uint64_t>(k & zy_mask)) & 1)
              ? ValType{-1}
              : ValType{1};
      const IdxType kb = k * B;
      const IdxType tb = (k ^ x_mask) * B;
      if (pi == 0) {
        // Re( conj(t) * (s*pr) * k ) = s*pr * (tr*kr + ti*ki).
        const ValType s = sign * pr;
        for (IdxType b = 0; b < B; ++b) {
          a[b] += s * (re[tb + b] * re[kb + b] + im[tb + b] * im[kb + b]);
        }
      } else {
        // Re( conj(t) * (s*pi*i) * k ) = -s*pi * (tr*ki - ti*kr).
        const ValType s = -sign * pi;
        for (IdxType b = 0; b < B; ++b) {
          a[b] += s * (re[tb + b] * im[kb + b] - im[tb + b] * re[kb + b]);
        }
      }
    }
    for (IdxType b = 0; b < B; ++b) {
      out[static_cast<std::size_t>(b)] += term.coeff * a[b];
    }
  }
  return out;
}

std::vector<ValType> batched_energy_sweep(
    IdxType n_qubits, const ParamCircuit& ansatz, const Hamiltonian& h,
    const std::vector<std::vector<ValType>>& param_sets, int batch) {
  std::vector<ValType> energies;
  energies.reserve(param_sets.size());
  // One engine serves every full-width chunk (run_fresh re-initializes the
  // state, so the allocation and kernel-table setup amortize across the
  // sweep); only a ragged tail needs a second, narrower engine.
  std::unique_ptr<BatchedSim> full;
  std::size_t done = 0;
  while (done < param_sets.size()) {
    const int this_batch = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(batch),
                              param_sets.size() - done));
    BatchedSim* sim;
    std::unique_ptr<BatchedSim> tail;
    if (this_batch == batch) {
      if (!full) full = std::make_unique<BatchedSim>(n_qubits, batch);
      sim = full.get();
    } else {
      tail = std::make_unique<BatchedSim>(n_qubits, this_batch);
      sim = tail.get();
    }
    std::vector<std::vector<ValType>> chunk(
        param_sets.begin() + static_cast<long>(done),
        param_sets.begin() + static_cast<long>(done + static_cast<std::size_t>(this_batch)));
    sim->run_fresh(ansatz, chunk);
    for (const ValType e : sim->expectations(h)) energies.push_back(e);
    done += static_cast<std::size_t>(this_batch);
  }
  return energies;
}

BatchObjective energy_objective(IdxType n_qubits, ParamCircuit ansatz,
                                Hamiltonian h, int batch) {
  SVSIM_CHECK(batch >= 1, "batch must be positive");
  return [n_qubits, ansatz = std::move(ansatz), h = std::move(h),
          batch](const std::vector<std::vector<ValType>>& pts) {
    return batched_energy_sweep(n_qubits, ansatz, h, pts, batch);
  };
}

} // namespace svsim::vqa
