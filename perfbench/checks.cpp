#include "checks.hpp"

#include <cmath>

#include "common/rng.hpp"

namespace perfbench {

namespace {

using cplx = std::complex<double>;

// Expected amplitude of the closed form at basis index k.
cplx expected(const CircuitInput& in, std::uint64_t k) {
  const std::uint64_t all = (1ULL << in.n_qubits) - 1;
  const double r = 1.0 / std::sqrt(2.0);
  if (in.family == "ghz") return (k == 0 || k == all) ? cplx(r) : cplx(0);
  if (in.family == "bv") {
    // Data qubits hold the secret; the ancilla stays in |->.
    const std::uint64_t anc = 1ULL << in.ancilla;
    if ((k & ~anc) != in.value) return 0;
    return (k & anc) ? cplx(-r) : cplx(r);
  }
  return qft_amplitude(in.n_qubits, in.qft_k, in.value, k);
}

// Basis indices where the closed form is non-zero (all of them for ghz/bv;
// a seeded handful for qft, whose support has 2^k entries).
std::vector<std::uint64_t> support(const CircuitInput& in,
                                   const std::vector<std::uint64_t>& probes) {
  const std::uint64_t all = (1ULL << in.n_qubits) - 1;
  if (in.family == "ghz") return {0, all};
  if (in.family == "bv") {
    return {in.value, in.value | (1ULL << in.ancilla)};
  }
  const int base = in.n_qubits - in.qft_k;
  const std::uint64_t low = (1ULL << base) - 1;
  std::vector<std::uint64_t> out;
  for (std::uint64_t p : probes) out.push_back((p & ~low) | (in.value & low));
  return out;
}

bool shot_ok(const CircuitInput& in, std::uint64_t s) {
  const std::uint64_t all = (1ULL << in.n_qubits) - 1;
  if (in.family == "ghz") return s == 0 || s == all;
  if (in.family == "bv") return (s & ~(1ULL << in.ancilla)) == in.value;
  const std::uint64_t low = (1ULL << (in.n_qubits - in.qft_k)) - 1;
  return (s & low) == (in.value & low);
}

} // namespace

void CheckResult::err(double e, double tol, const std::string& what) {
  if (!(e <= tol)) fail(what + " error " + std::to_string(e));
  if (e > max_err || std::isnan(e)) max_err = e;
}

CheckResult check_closed_form(const CircuitInput& in,
                              const std::vector<svsim::IdxType>& shots,
                              const AmpFn& amp,
                              const std::vector<std::uint64_t>& probes,
                              double tol) {
  CheckResult r;
  if (shots.empty()) r.fail("no shots");
  for (svsim::IdxType s : shots) {
    if (!shot_ok(in, static_cast<std::uint64_t>(s))) {
      r.fail(in.family + ": shot " + std::to_string(s) +
             " outside the closed form's support");
      break;
    }
  }
  std::vector<std::uint64_t> idx = support(in, probes);
  idx.insert(idx.end(), probes.begin(), probes.end());
  for (std::uint64_t k : idx) {
    r.err(std::abs(amp(k) - expected(in, k)), tol, in.family + " amplitude");
  }
  return r;
}

CheckResult check_against_reference(const std::vector<svsim::IdxType>& shots,
                                    const std::vector<svsim::IdxType>& ref_shots,
                                    const svsim::StateVector& state,
                                    const svsim::StateVector& ref_state,
                                    double tol) {
  CheckResult r;
  if (shots != ref_shots) r.fail("samples differ from the SingleSim reference");
  if (state.n_qubits != ref_state.n_qubits) {
    r.fail("state width differs from the reference");
    return r;
  }
  r.err(state.max_diff_up_to_phase(ref_state), tol, "state vs reference");
  return r;
}

CheckResult check_energy(double energy, double oracle_energy,
                         const svsim::StateVector& state,
                         const svsim::StateVector& oracle_state,
                         double tol_energy, double tol_state) {
  CheckResult r;
  r.err(std::abs(energy - oracle_energy), tol_energy, "energy vs oracle");
  if (state.n_qubits != oracle_state.n_qubits) {
    r.fail("state width differs from the oracle");
    return r;
  }
  r.err(state.max_diff_up_to_phase(oracle_state), tol_state,
        "state vs oracle");
  return r;
}

std::vector<std::uint64_t> probe_indices(int n, std::uint64_t seed,
                                         int count) {
  svsim::Rng rng(seed ^ 0xa0761d6478bd642fULL);
  std::vector<std::uint64_t> out;
  for (int i = 0; i < count; ++i) out.push_back(rng.next_below(1ULL << n));
  return out;
}

} // namespace perfbench
