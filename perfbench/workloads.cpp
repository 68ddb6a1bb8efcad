#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "vqa/uccsd.hpp"

namespace perfbench {

namespace {

constexpr double kPi = 3.14159265358979323846;

// peer4_n20 runs by name but is not listed in BENCHMARK.json: on a shared
// 4-vCPU host its run-to-run spread is far wider than any usable bound.
// shmem runs at n=21 rather than 20 so per-gate work, not barrier wake-up
// latency, sets its time: at n=20 the 10-run spread reached 0.26.
const std::vector<WorkloadSpec>& table() {
  static const std::vector<WorkloadSpec> t = {
      {"deep_n24", "single", 24, 1, Kind::kCircuits, 7, 50,
       {"ghz", "bv", "qft"}, {16, 24}, 5},
      {"shmem4_n21", "shmem", 21, 4, Kind::kCircuits, 41, 50,
       {"ghz", "bv", "dense"}, {16, 19, 21}},
      {"peer4_n20", "peer", 20, 4, Kind::kCircuits, 41, 50,
       {"ghz", "bv", "dense"}, {16, 18, 20}},
      {"vqe_uccsd_n8", "single", 8, 1, Kind::kVqe, 41, 95, {}, {}, 0},
  };
  return t;
}

std::string header(int n) {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n", n);
  return buf;
}

void gate1(std::string& s, const char* g, int q) {
  s += g;
  s += " q[" + std::to_string(q) + "];\n";
}

void cx(std::string& s, int c, int t) {
  s += "cx q[" + std::to_string(c) + "],q[" + std::to_string(t) + "];\n";
}

void shuffle(std::vector<int>::iterator first, std::vector<int>::iterator last,
             svsim::Rng& rng) {
  for (auto n = last - first; n > 1; --n) {
    const auto j = static_cast<std::ptrdiff_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    std::swap(first[n - 1], first[j]);
  }
}

std::vector<int> permutation(int n, svsim::Rng& rng) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  shuffle(p.begin(), p.end(), rng);
  return p;
}

// Qubit order shuffled within each cost class [classes[c-1], classes[c]).
std::vector<int> class_order(const std::vector<int>& classes, svsim::Rng& rng) {
  std::vector<int> p(static_cast<std::size_t>(classes.back()));
  std::iota(p.begin(), p.end(), 0);
  int lo = 0;
  for (int hi : classes) {
    shuffle(p.begin() + lo, p.begin() + hi, rng);
    lo = hi;
  }
  return p;
}

// A bitmask with half (rounded down) of each class's qubits below `limit`.
std::uint64_t half_of_each_class(const std::vector<int>& classes, int limit,
                                 svsim::Rng& rng) {
  std::uint64_t mask = 0;
  int lo = 0;
  for (int hi : classes) {
    std::vector<int> q;
    for (int i = lo; i < std::min(hi, limit); ++i) q.push_back(i);
    shuffle(q.begin(), q.end(), rng);
    for (std::size_t i = 0; i < q.size() / 2; ++i) mask |= 1ULL << q[i];
    lo = hi;
  }
  return mask;
}

// GHZ: H on the first qubit, then a CX chain in class order.
CircuitInput ghz(const WorkloadSpec& w, svsim::Rng& rng) {
  CircuitInput in{"ghz", w.n_qubits, header(w.n_qubits)};
  const std::vector<int> p = class_order(w.classes, rng);
  gate1(in.qasm, "h", p[0]);
  for (std::size_t i = 1; i < p.size(); ++i) cx(in.qasm, p[i - 1], p[i]);
  return in;
}

// Bernstein-Vazirani: ancilla on the top qubit, the secret is half of
// each class's data qubits.
CircuitInput bv(const WorkloadSpec& w, svsim::Rng& rng) {
  const int n = w.n_qubits;
  CircuitInput in{"bv", n, header(n)};
  in.ancilla = n - 1;
  in.value = half_of_each_class(w.classes, n - 1, rng);
  gate1(in.qasm, "x", in.ancilla);
  for (int q = 0; q < n; ++q) gate1(in.qasm, "h", q);
  for (int q = 0; q < n; ++q) {
    if ((in.value >> q) & 1ULL) cx(in.qasm, q, in.ancilla);
  }
  for (int q = 0; q < n - 1; ++q) gate1(in.qasm, "h", q);
  return in;
}

// A basis state |x> (half of each class set) followed by the textbook QFT,
// without the final swaps, on the top k qubits.
CircuitInput qft(const WorkloadSpec& w, svsim::Rng& rng) {
  const int n = w.n_qubits;
  const int k = w.qft_k;
  CircuitInput in{"qft", n, header(n)};
  in.qft_k = k;
  in.value = half_of_each_class(w.classes, n, rng);
  for (int q = 0; q < n; ++q) {
    if ((in.value >> q) & 1ULL) gate1(in.qasm, "x", q);
  }
  const int base = n - k;
  for (int j = k - 1; j >= 0; --j) {
    gate1(in.qasm, "h", base + j);
    for (int m = j - 1; m >= 0; --m) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "cu1(%.17g) q[%d],q[%d];\n",
                    kPi / std::ldexp(1.0, j - m), base + m, base + j);
      in.qasm += buf;
    }
  }
  return in;
}

// One dense random layer: a seeded u3 on every qubit, then CX over a
// seeded perfect matching within each class.
CircuitInput dense(const WorkloadSpec& w, svsim::Rng& rng) {
  const int n = w.n_qubits;
  CircuitInput in{"dense", n, header(n)};
  for (int q = 0; q < n; ++q) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "u3(%.17g,%.17g,%.17g) q[%d];\n",
                  rng.uniform(0, kPi), rng.uniform(-kPi, kPi),
                  rng.uniform(-kPi, kPi), q);
    in.qasm += buf;
  }
  const std::vector<int> p = class_order(w.classes, rng);
  int lo = 0;
  for (int hi : w.classes) {
    for (int i = lo; i + 1 < hi; i += 2) {
      cx(in.qasm, p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(i + 1)]);
    }
    lo = hi;
  }
  return in;
}

void fnv(std::uint64_t& h, const void* data, std::size_t len) {
  const auto* b = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
}

} // namespace

const WorkloadSpec& workload(const std::string& name) {
  for (const WorkloadSpec& w : table()) {
    if (w.name == name) return w;
  }
  throw svsim::Error("unknown workload: " + name);
}

std::vector<CircuitInput> make_circuit_inputs(const WorkloadSpec& spec,
                                              std::uint64_t seed) {
  svsim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5851f42d4c957f2dULL);
  std::vector<CircuitInput> out;
  for (const std::string& f : spec.families) {
    if (f == "ghz") {
      out.push_back(ghz(spec, rng));
    } else if (f == "bv") {
      out.push_back(bv(spec, rng));
    } else if (f == "qft") {
      out.push_back(qft(spec, rng));
    } else if (f == "dense") {
      out.push_back(dense(spec, rng));
    } else {
      throw svsim::Error("unknown circuit family: " + f);
    }
  }
  return out;
}

VqeInputs make_vqe_inputs(int n, std::uint64_t seed) {
  svsim::Rng rng(seed * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  VqeInputs in;
  in.n_qubits = n;
  const auto n_params =
      static_cast<std::size_t>(svsim::vqa::uccsd_gate_count(n).n_parameters);
  constexpr int kPool = 32;
  for (int i = 0; i < kPool; ++i) {
    std::vector<double> p(n_params);
    for (double& v : p) v = rng.uniform(-kPi, kPi);
    in.params.push_back(std::move(p));
  }
  static const char kOps[] = "IXYZ";
  in.constant = rng.uniform(-1, 1);
  for (int t = 0; t < 2 * n; ++t) {
    std::string s(static_cast<std::size_t>(n), 'I');
    for (char& c : s) c = kOps[rng.next_below(4)];
    in.terms.emplace_back(rng.uniform(-1, 1), s);
  }
  std::vector<int> p = permutation(kPool, rng);
  in.checked.assign(p.begin(), p.begin() + 8);
  std::sort(in.checked.begin(), in.checked.end());
  return in;
}

std::uint64_t digest(const std::vector<CircuitInput>& inputs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const CircuitInput& in : inputs) fnv(h, in.qasm.data(), in.qasm.size());
  return h;
}

std::uint64_t digest(const VqeInputs& inputs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& p : inputs.params) fnv(h, p.data(), p.size() * sizeof(double));
  fnv(h, &inputs.constant, sizeof(double));
  for (const auto& [coeff, ops] : inputs.terms) {
    fnv(h, &coeff, sizeof(double));
    fnv(h, ops.data(), ops.size());
  }
  return h;
}

svsim::vqa::Hamiltonian build_hamiltonian(const VqeInputs& in) {
  svsim::vqa::Hamiltonian h;
  h.constant = in.constant;
  for (const auto& [coeff, ops] : in.terms) {
    h.terms.push_back(svsim::vqa::PauliTerm::parse(coeff, ops));
  }
  return h;
}

std::complex<double> qft_amplitude(int n, int k, std::uint64_t x,
                                   std::uint64_t y) {
  const int base = n - k;
  const std::uint64_t low = (1ULL << base) - 1;
  if ((x & low) != (y & low)) return 0;
  double phase = 0; // in turns
  for (int j = 0; j < k; ++j) {
    if (!((y >> (base + j)) & 1ULL)) continue;
    for (int m = 0; m <= j; ++m) {
      if ((x >> (base + m)) & 1ULL) phase += std::ldexp(1.0, m - j - 1);
    }
  }
  phase -= std::floor(phase);
  return std::polar(std::pow(2.0, -0.5 * k), 2 * kPi * phase);
}

} // namespace perfbench
