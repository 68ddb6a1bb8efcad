// perfbench_selftest: pins the benchmark's own arithmetic and checks.
//
//   python3 perfbench/run.py --self-test
//
// - metric math: the percentile rule, span self time on a hand-built tree,
//   gate·amp/s counting parsed input gates rather than executed ones;
// - every output check passes on a real output and fails on a perturbed
//   one (closed forms, SingleSim reference, oracle energy);
// - determinism: one seed gives the same input digest and the same exact
//   counts (comm, remap, schedule) on every run; another seed changes the
//   inputs.
// Exits 0 when every case passes.
#include <cstdio>
#include <memory>
#include <string>

#include "checks.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "metrics.hpp"
#include "qasm/parser.hpp"
#include "testing/oracle.hpp"
#include "vqa/uccsd.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using svsim::IdxType;
using svsim::StateVector;

int g_failed = 0;
int g_passed = 0;

#define EXPECT(cond)                                                      \
  do {                                                                    \
    if (cond) {                                                           \
      ++g_passed;                                                         \
    } else {                                                              \
      ++g_failed;                                                         \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);         \
    }                                                                     \
  } while (0)

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

// A small circuit workload: n qubits, one family per name.
WorkloadSpec small(int n, std::vector<std::string> families) {
  WorkloadSpec w = workload("deep_n24");
  w.n_qubits = n;
  w.families = std::move(families);
  w.classes = {n / 2, n};
  w.qft_k = n / 2;
  return w;
}

void percentile_rule() {
  EXPECT(tail_percentile_for(100000) == 95);
  EXPECT(tail_percentile_for(200) == 95);
  EXPECT(tail_percentile_for(199) == 90);
  EXPECT(tail_percentile_for(100) == 90);
  EXPECT(tail_percentile_for(40) == 75);
  EXPECT(tail_percentile_for(39) == 50);
  EXPECT(tail_percentile_for(3) == 50);
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  EXPECT(near(percentile(v, 99), 100));
  EXPECT(near(median({4, 1, 3, 2}), 2.5));
  EXPECT(near(median({}), 0));
}

void self_time() {
  // root [0,100] > a [10,40], b [50,90] > c [60,70]
  std::vector<Span> s = {{"root", 0, 100, -1, 0},
                         {"a", 10, 40, 0, 0},
                         {"b", 50, 90, 0, 0},
                         {"c", 60, 70, 2, 0}};
  const std::vector<double> self = self_times_us(s);
  EXPECT(near(self[0], 30));
  EXPECT(near(self[1], 30));
  EXPECT(near(self[2], 30));
  EXPECT(near(self[3], 10));
  EXPECT(near(self[0] + self[1] + self[2] + self[3], s[0].dur_us()));

  // The live log nests by stack discipline.
  SpanLog log;
  {
    Scope r(&log, "root", 7);
    Scope k(&log, "kid", 7);
  }
  EXPECT(log.spans().size() == 2);
  EXPECT(log.spans()[1].parent == 0 && log.spans()[1].item == 7);
  EXPECT(log.chrome_json().find("\"ph\":\"X\"") != std::string::npos);
}

void gate_amps() {
  EXPECT(near(gate_amps_per_s({{10, 4, 1.0}, {6, 3, 1.0}}), (160.0 + 48.0) / 2));
  // On a remapped 4-PE run the backend executes more gates than were
  // parsed (inserted swaps); the throughput counts only the parsed ones.
  const CircuitInput in = make_circuit_inputs(small(12, {"dense"}), 5)[0];
  const svsim::Circuit c = svsim::qasm::parse_qasm(in.qasm);
  svsim::ShmemSim sim(12, 4);
  sim.run(c);
  EXPECT(sim.last_report().remap.swaps_inserted > 0);
  const double parsed_rate = gate_amps_per_s(
      {{static_cast<std::uint64_t>(c.n_gates()), 12, 2.0}});
  EXPECT(near(parsed_rate, c.n_gates() * 4096.0 / 2.0));
}

void closed_forms() {
  const int n = 10;
  const std::vector<CircuitInput> inputs =
      make_circuit_inputs(small(n, {"ghz", "bv", "qft"}), 3);
  svsim::SingleSim sim(n);
  for (const CircuitInput& in : inputs) {
    sim.reset_state();
    sim.run(svsim::qasm::parse_qasm(in.qasm));
    std::vector<IdxType> shots = sim.sample(256);
    const auto probes = probe_indices(n, 9);
    double bump = 0;
    std::uint64_t bump_at = 0;
    const AmpFn amp = [&](std::uint64_t k) {
      return std::complex<double>(sim.real()[k] + (k == bump_at ? bump : 0),
                                  sim.imag()[k]);
    };
    const CheckResult ok = check_closed_form(in, shots, amp, probes);
    EXPECT(ok.ok);
    EXPECT(ok.max_err < 1e-12);

    // A shot outside the support fails.
    // (bit 0 is a data bit unless it is the BV ancilla; for the QFT it is
    // below the transformed qubits, so fixed by x)
    std::vector<IdxType> bad = shots;
    bad[17] ^= IdxType{1} << (in.family == "bv" && in.ancilla == 0 ? 1 : 0);
    EXPECT(!check_closed_form(in, bad, amp, probes).ok);

    // An amplitude off by 1e-6 at a checked index fails.
    bump = 1e-6;
    bump_at = in.family == "qft" ? probes[0] : 0;
    if (in.family == "bv") bump_at = in.value;
    EXPECT(!check_closed_form(in, shots, amp, probes).ok);
  }
  // The closed-form QFT agrees with the dense oracle everywhere.
  const CircuitInput q10 = make_circuit_inputs(small(10, {"qft"}), 11)[0];
  svsim::testing::OracleSim o10(10);
  o10.run(svsim::qasm::parse_qasm(q10.qasm));
  double err10 = 0;
  for (std::uint64_t y = 0; y < 1024; ++y) {
    err10 = std::max(err10, std::abs(o10.state().amps[y] -
                                     qft_amplitude(10, q10.qft_k, q10.value, y)));
  }
  EXPECT(err10 < 1e-12);
}

void reference_check() {
  const int n = 12;
  const CircuitInput in = make_circuit_inputs(small(n, {"dense"}), 4)[0];
  const svsim::Circuit c = svsim::qasm::parse_qasm(in.qasm);
  svsim::SingleSim ref(n);
  ref.run(c);
  const auto ref_shots = ref.sample(512);
  const StateVector ref_state = ref.state();
  std::unique_ptr<svsim::Simulator> sims[] = {
      std::make_unique<svsim::PeerSim>(n, 4),
      std::make_unique<svsim::ShmemSim>(n, 4)};
  for (auto& sim : sims) {
    sim->reset_state();
    sim->run(c);
    const auto shots = sim->sample(512);
    const StateVector st = sim->state();
    EXPECT(check_against_reference(shots, ref_shots, st, ref_state).ok);
    auto bad = shots;
    bad[3] ^= 1;
    EXPECT(!check_against_reference(bad, ref_shots, st, ref_state).ok);
    StateVector off = st;
    off.amps[5] += 1e-7;
    EXPECT(!check_against_reference(shots, ref_shots, off, ref_state).ok);
  }
}

void energy_check() {
  const VqeInputs in = make_vqe_inputs(4, 2);
  const svsim::vqa::Hamiltonian h = build_hamiltonian(in);
  const svsim::Circuit c = svsim::vqa::build_uccsd(4, in.params[0]);
  svsim::SingleSim sim(4);
  sim.run_fresh(c);
  const StateVector sv = sim.state();
  svsim::testing::OracleSim o(4);
  o.run(c);
  const double e = h.expectation(sv);
  const double eo = h.expectation(o.state());
  EXPECT(check_energy(e, eo, sv, o.state()).ok);
  EXPECT(!check_energy(e + 1e-6, eo, sv, o.state()).ok);
  StateVector off = sv;
  off.amps[1] += 1e-7;
  EXPECT(!check_energy(e, eo, off, o.state()).ok);
}

struct Counts {
  std::uint64_t remote_ops, bytes, barriers, swaps, before, after, windows,
      windowed, passes_saved;
  bool operator==(const Counts&) const = default;
};

Counts run_counts(const std::string& backend, std::uint64_t seed) {
  const int n = 12;
  Counts sum{};
  std::unique_ptr<svsim::Simulator> sim;
  if (backend == "peer") sim = std::make_unique<svsim::PeerSim>(n, 4);
  else sim = std::make_unique<svsim::ShmemSim>(n, 4);
  WorkloadSpec w = workload(backend == "peer" ? "peer4_n20" : "shmem4_n21");
  w.n_qubits = n;
  w.classes = {8, 10, 12};
  for (const CircuitInput& in : make_circuit_inputs(w, seed)) {
    sim->reset_state();
    sim->run(svsim::qasm::parse_qasm(in.qasm));
    const auto& r = sim->last_report();
    sum.remote_ops += r.comm.remote_ops;
    sum.bytes += r.comm.bytes;
    sum.barriers += r.comm.barriers;
    sum.swaps += r.remap.swaps_inserted;
    sum.before += r.remap.modeled_remote_bytes_before;
    sum.after += r.remap.modeled_remote_bytes_after;
    sum.windows += r.sched.windows;
    sum.windowed += r.sched.windowed_gates;
    sum.passes_saved += r.sched.passes_saved;
  }
  return sum;
}

void determinism() {
  const WorkloadSpec& deep = workload("deep_n24");
  EXPECT(digest(make_circuit_inputs(deep, 7)) == digest(make_circuit_inputs(deep, 7)));
  EXPECT(digest(make_circuit_inputs(deep, 7)) != digest(make_circuit_inputs(deep, 8)));
  EXPECT(digest(make_vqe_inputs(8, 7)) == digest(make_vqe_inputs(8, 7)));
  EXPECT(digest(make_vqe_inputs(8, 7)) != digest(make_vqe_inputs(8, 8)));
  // Fixed work per seed: every seed parses to the same gate count.
  for (const char* w : {"deep_n24", "shmem4_n21"}) {
    const WorkloadSpec& spec = workload(w);
    long g7 = 0, g8 = 0;
    for (const auto& in : make_circuit_inputs(spec, 7)) {
      g7 += svsim::qasm::parse_qasm(in.qasm).n_gates();
    }
    for (const auto& in : make_circuit_inputs(spec, 8)) {
      g8 += svsim::qasm::parse_qasm(in.qasm).n_gates();
    }
    EXPECT(g7 == g8);
  }
  for (const char* b : {"peer", "shmem"}) {
    const Counts a = run_counts(b, 7);
    EXPECT(a == run_counts(b, 7));
    std::printf("%s counts: remote_ops=%llu bytes=%llu barriers=%llu swaps=%llu\n", b,
                (unsigned long long)a.remote_ops, (unsigned long long)a.bytes,
                (unsigned long long)a.barriers, (unsigned long long)a.swaps);
    EXPECT(a.remote_ops > 0 && a.swaps > 0);
  }
}

} // namespace

int main() {
  percentile_rule();
  self_time();
  gate_amps();
  closed_forms();
  reference_check();
  energy_check();
  determinism();
  std::printf("perfbench_selftest: %d passed, %d failed\n", g_passed, g_failed);
  return g_failed ? 1 : 0;
}
