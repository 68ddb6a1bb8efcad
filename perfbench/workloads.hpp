// Workload catalogue and seeded input generation.
//
// The simulator only ever sees what these functions produce: OpenQASM
// text for the circuit workloads, and bound UCCSD parameter vectors plus a
// Pauli-sum Hamiltonian for the VQE workload. Each generator is a pure
// function of (workload, seed). Seeds only move gates within cost
// classes of qubits (see WorkloadSpec::classes), so every seed parses to
// the same gate count and costs the same amount of work.
#pragma once

#include <complex>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "vqa/pauli.hpp"

namespace perfbench {

enum class Kind { kCircuits, kVqe };

struct WorkloadSpec {
  std::string name;
  std::string backend; // single | peer | shmem
  int n_qubits = 0;
  int pes = 1;         // devices / PEs of the backend
  Kind kind = Kind::kCircuits;
  int setup_reps = 5;  // constructions timed for setup_s (median)
  // Percentile eval_ms_tail reports. Fixed per workload so the metric
  // means the same thing in every run; chosen as the highest one the
  // percentile rule (>= 10 items beyond) allows at the benchmark's run
  // length: p50 for the 20-50 items of a circuit workload, p95 for vqe.
  double tail_q = 50;
  // Circuit workloads: the families one round runs, in order, and the
  // upper bounds of the qubit cost classes (the last is n_qubits). Seeded
  // choices permute qubits only within a class: below the L2-sized block
  // exponent (16 on a 2 MiB L2), above it, and the PE-selecting top bits.
  std::vector<std::string> families;
  std::vector<int> classes;
  int qft_k = 0; // qft family: transform width (top k qubits)
};

/// The workload table; throws svsim::Error for an unknown name.
const WorkloadSpec& workload(const std::string& name);

/// One circuit input: QASM text plus what the closed-form checks need.
struct CircuitInput {
  std::string family; // ghz | bv | qft | dense
  int n_qubits = 0;
  std::string qasm;
  /// ghz: unused. bv: secret bitmask over the data qubits (index bits).
  /// qft: the prepared basis state x.
  std::uint64_t value = 0;
  int ancilla = -1;   // bv: ancilla qubit (the top one)
  int qft_k = 0;      // qft: transform width (acts on the top k qubits)
};

/// The circuit inputs of one round of `spec`, in execution order.
std::vector<CircuitInput> make_circuit_inputs(const WorkloadSpec& spec,
                                              std::uint64_t seed);

struct VqeInputs {
  int n_qubits = 0;
  std::vector<std::vector<double>> params; // cycled pool of bound vectors
  double constant = 0;                     // Hamiltonian identity term
  std::vector<std::pair<double, std::string>> terms; // 2n Pauli strings
  std::vector<int> checked;                // pool indices oracle-checked
};

VqeInputs make_vqe_inputs(int n_qubits, std::uint64_t seed);

/// Assemble the Hamiltonian through the library's Pauli-string parser.
svsim::vqa::Hamiltonian build_hamiltonian(const VqeInputs& in);

/// FNV-1a digest of everything the simulator is fed (for determinism
/// checks: same seed, same digest).
std::uint64_t digest(const std::vector<CircuitInput>& inputs);
std::uint64_t digest(const VqeInputs& inputs);

/// Closed-form amplitude of the top-k QFT (no final swaps) applied to the
/// basis state |x> of `n` qubits, at basis index y.
std::complex<double> qft_amplitude(int n, int k, std::uint64_t x,
                                   std::uint64_t y);

} // namespace perfbench
