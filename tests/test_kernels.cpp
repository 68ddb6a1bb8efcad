// Kernel correctness: every specialized gate kernel — scalar and each
// SIMD level — must act identically to the dense-matrix reference
// (GeneralizedSim) on random states, for every operand qubit position
// (including the strided low qubits and the high qubits that straddle
// partition boundaries in the distributed tiers).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>

#include "common/rng.hpp"
#include "core/generalized_sim.hpp"
#include "core/single_sim.hpp"

namespace svsim {
namespace {

constexpr IdxType kN = 7; // 128 amplitudes: covers >8-lane SIMD + tails

StateVector random_state(IdxType n, std::uint64_t seed) {
  Rng rng(seed);
  StateVector sv(n);
  ValType norm = 0;
  for (auto& a : sv.amps) {
    a = Complex{rng.next_gaussian(), rng.next_gaussian()};
    norm += std::norm(a);
  }
  const ValType inv = 1.0 / std::sqrt(norm);
  for (auto& a : sv.amps) a *= inv;
  return sv;
}

void load(SingleSim& sim, const StateVector& sv) {
  for (IdxType k = 0; k < sim.dim(); ++k) {
    sim.real()[k] = sv.amps[static_cast<std::size_t>(k)].real();
    sim.imag()[k] = sv.amps[static_cast<std::size_t>(k)].imag();
  }
}

std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (max_simd_level() >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  if (max_simd_level() >= SimdLevel::kAvx512) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

class Kernel1QTest : public ::testing::TestWithParam<OP> {};

TEST_P(Kernel1QTest, MatchesDenseMatrixEverywhere) {
  const OP op = GetParam();
  const StateVector init = random_state(kN, 7777);
  for (const SimdLevel level : available_levels()) {
    for (IdxType q = 0; q < kN; ++q) {
      for (const ValType t : {0.0, 0.777, -2.1}) {
        Gate g = make_gate(op, q);
        g.theta = t;
        g.phi = 0.3 * t;
        g.lam = -0.2 + t;

        SimConfig cfg;
        cfg.simd = level;
        SingleSim sim(kN, cfg);
        load(sim, init);
        Circuit c(kN);
        c.append(g);
        sim.run(c);

        GeneralizedSim ref(kN);
        ref.load_state(init);
        ref.apply_matrix(matrix_1q(g), q);

        EXPECT_LT(sim.state().max_diff(ref.state()), 1e-12)
            << op_name(op) << " q=" << q << " t=" << t << " simd "
            << to_string(level);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, Kernel1QTest,
                         ::testing::Values(OP::ID, OP::X, OP::Y, OP::Z, OP::H,
                                           OP::S, OP::SDG, OP::T, OP::TDG,
                                           OP::RX, OP::RY, OP::RZ, OP::U1,
                                           OP::U2, OP::U3));

class Kernel2QTest : public ::testing::TestWithParam<OP> {};

TEST_P(Kernel2QTest, MatchesDenseMatrixEverywhere) {
  const OP op = GetParam();
  const StateVector init = random_state(kN, 31415);
  for (const SimdLevel level : available_levels()) {
    for (auto [a, b] :
         {std::pair<IdxType, IdxType>{0, 1}, {1, 0}, {0, kN - 1},
          {kN - 1, 0}, {2, 5}, {5, 2}, {kN - 2, kN - 1}}) {
      Gate g = make_gate(op, a, b);
      g.theta = 0.613;
      g.phi = -0.35;
      g.lam = 1.2;

      SimConfig cfg;
      cfg.simd = level;
      SingleSim sim(kN, cfg);
      load(sim, init);
      Circuit c(kN);
      c.append(g);
      sim.run(c);

      GeneralizedSim ref(kN);
      ref.load_state(init);
      ref.apply_matrix(matrix_2q(g), a, b);

      EXPECT_LT(sim.state().max_diff(ref.state()), 1e-12)
          << op_name(op) << " (" << a << "," << b << ") simd "
          << to_string(level);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, Kernel2QTest,
                         ::testing::Values(OP::CX, OP::CY, OP::CZ, OP::CH,
                                           OP::SWAP, OP::CRX, OP::CRY,
                                           OP::CRZ, OP::CU1, OP::CU3, OP::RXX,
                                           OP::RZZ));

// Sub-range calls: a worker's slice, a blocked window's block and a SIMD
// kernel's scalar tail all start mid-run, where a contiguous run of 2^q
// pairs (2^p quadruples) is split between two calls. Every kernel of the
// default table, at every operand position, split at cuts that fall
// mid-run (also for q in {0, 1, 2}, where a run is shorter than a
// vector) must leave the state bit-for-bit equal to one whole-range call.
// A SIMD table's own kernels are held to 1e-15 instead: their 8-lane
// bodies use explicit FMAs and their tails the default kernel, so a cut
// that moves an item from lanes to tail may change its last bit.
class KernelSubRangeTest : public ::testing::TestWithParam<OP> {};

TEST_P(KernelSubRangeTest, SplitCallsMatchOneWholeRangeCall) {
  const OP op = GetParam();
  const StateVector init = random_state(kN, 2718);
  std::vector<std::pair<IdxType, IdxType>> operands;
  for (IdxType a = 0; a < kN; ++a) {
    if (op_info(op).n_qubits == 1) {
      operands.emplace_back(a, -1);
      continue;
    }
    for (IdxType b = 0; b < kN; ++b) {
      if (b != a) operands.emplace_back(a, b);
    }
  }
  const auto apply = [&](KernelFn<LocalSpace> fn, const Gate& g,
                         const std::vector<IdxType>& bounds) {
    std::vector<ValType> re, im;
    for (const Complex& amp : init.amps) {
      re.push_back(amp.real());
      im.push_back(amp.imag());
    }
    const LocalSpace sp{re.data(), im.data(), pow2(kN)};
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
      fn(g, sp, bounds[k], bounds[k + 1]);
    }
    re.insert(re.end(), im.begin(), im.end());
    return re;
  };
  const KernelFn<LocalSpace> default_fn =
      KernelTable<LocalSpace>::get()[static_cast<std::size_t>(op)];
  for (const SimdLevel level : available_levels()) {
    const KernelFn<LocalSpace> fn =
        local_kernel_table(level)[static_cast<std::size_t>(op)];
    ASSERT_NE(fn, nullptr);
    for (const auto& [a, b] : operands) {
      Gate g = b < 0 ? make_gate(op, a) : make_gate(op, a, b);
      g.theta = 0.613;
      g.phi = -0.35;
      g.lam = 1.2;
      const IdxType work = gate_work_items(g, kN);
      const std::vector<ValType> whole = apply(fn, g, {0, work});
      const std::vector<ValType> split =
          apply(fn, g, {0, 1, 3, 5, work / 2 + 1, work});
      const std::string where = std::string(op_name(op)) + " (" +
                                std::to_string(a) + "," + std::to_string(b) +
                                ") simd " + to_string(level);
      if (fn == default_fn) {
        EXPECT_EQ(std::memcmp(whole.data(), split.data(),
                              whole.size() * sizeof(ValType)),
                  0)
            << where;
      } else {
        for (std::size_t k = 0; k < whole.size(); ++k) {
          ASSERT_NEAR(whole[k], split[k], 1e-15) << where << " at " << k;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, KernelSubRangeTest,
    ::testing::Values(OP::ID, OP::X, OP::Y, OP::Z, OP::H, OP::S, OP::SDG,
                      OP::T, OP::TDG, OP::RX, OP::RY, OP::RZ, OP::U1, OP::U2,
                      OP::U3, OP::CX, OP::CY, OP::CZ, OP::CH, OP::SWAP,
                      OP::CRX, OP::CRY, OP::CRZ, OP::CU1, OP::CU3, OP::RXX,
                      OP::RZZ),
    [](const ::testing::TestParamInfo<OP>& info) {
      return std::string(op_name(info.param));
    });

// The accessor path of the walks: worker 0 of a 2-device PeerSpace runs
// its per-gate slice (the first half of the work items) of one gate of
// each walk shape, and every touched amplitude costs exactly two gets
// and two sets, counted local (partition 0, amplitudes 0..15) or remote
// (partition 1, amplitudes 16..31).
TEST(KernelSubRange, PeerAccessCountsMatchHandCounts) {
  constexpr IdxType kQubits = 5; // partition bit 4
  std::vector<ValType> re0(16, 0.25), im0(16, 0), re1(16, 0.25), im1(16, 0);
  ValType* const re[2] = {re0.data(), re1.data()};
  ValType* const im[2] = {im0.data(), im1.data()};
  struct Case {
    Gate g;
    std::uint64_t local, remote;
  };
  const Case cases[] = {
      // Pair walk, 8 pairs: q = 1 pairs lie in partition 0; q = 4 pairs
      // straddle it, one member each side.
      {make_gate(OP::H, 1), 8 * 8, 0},
      {make_gate(OP::H, 4), 8 * 4, 8 * 4},
      // One-position walk, 8 pairs: only the |1> member.
      {make_gate(OP::T, 1), 8 * 4, 0},
      {make_gate(OP::T, 4), 0, 8 * 4},
      // Quadruple pair walk, 4 quadruples: control 4 puts both touched
      // members in partition 1; target 4 puts one on each side.
      {make_gate(OP::CX, 4, 0), 0, 4 * 8},
      {make_gate(OP::CX, 0, 4), 4 * 4, 4 * 4},
      // One-position quadruple walk: |11> only.
      {make_gate(OP::CZ, 0, 4), 0, 4 * 4},
      // Two quadruple pair walks: all four members, two per side.
      {make_gate(OP::RXX, 0, 4), 4 * 8, 4 * 8},
  };
  for (const Case& c : cases) {
    PeerTraffic traffic;
    const PeerSpace sp{re, im, 4, pow2(kQubits), nullptr, nullptr, 0, 2,
                       nullptr, nullptr, &traffic};
    const IdxType work = gate_work_items(c.g, kQubits);
    KernelTable<PeerSpace>::get()[static_cast<std::size_t>(c.g.op)](
        c.g, sp, 0, work / 2);
    EXPECT_EQ(traffic.local_access, c.local) << c.g.str();
    EXPECT_EQ(traffic.remote_access, c.remote) << c.g.str();
  }
}

// Norm preservation under long random unitary circuits — per SIMD level.
class NormPreservationTest : public ::testing::TestWithParam<int> {};

TEST_P(NormPreservationTest, RandomCircuitKeepsNormOne) {
  const auto levels = available_levels();
  const SimdLevel level =
      levels[static_cast<std::size_t>(GetParam()) % levels.size()];
  SimConfig cfg;
  cfg.simd = level;
  SingleSim sim(8, cfg);
  Rng rng(1234 + static_cast<std::uint64_t>(GetParam()));

  Circuit c(8);
  const OP pool[] = {OP::H,  OP::X,  OP::T,   OP::S,   OP::RX, OP::RY,
                     OP::RZ, OP::U3, OP::CX,  OP::CZ,  OP::CU1, OP::SWAP,
                     OP::RXX, OP::RZZ, OP::CRY, OP::U1};
  for (int i = 0; i < 300; ++i) {
    const OP op = pool[rng.next_below(16)];
    const auto q0 = static_cast<IdxType>(rng.next_below(8));
    auto q1 = static_cast<IdxType>(rng.next_below(8));
    while (q1 == q0) q1 = static_cast<IdxType>(rng.next_below(8));
    Gate g = op_info(op).n_qubits == 1 ? make_gate(op, q0)
                                       : make_gate(op, q0, q1);
    g.theta = rng.uniform(-PI, PI);
    g.phi = rng.uniform(-PI, PI);
    g.lam = rng.uniform(-PI, PI);
    c.append(g);
  }
  sim.run(c);
  EXPECT_NEAR(sim.state().norm(), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormPreservationTest, ::testing::Range(0, 6));

// Circuit followed by its inverse returns to the initial state exactly.
TEST(KernelProperties, CircuitTimesInverseIsIdentity) {
  SingleSim sim(6);
  Rng rng(99);
  Circuit c(6);
  const OP pool[] = {OP::H, OP::T, OP::S, OP::RX, OP::RY, OP::U3,
                     OP::CX, OP::CZ, OP::CU3, OP::SWAP, OP::CRZ, OP::U2};
  for (int i = 0; i < 120; ++i) {
    const OP op = pool[rng.next_below(12)];
    const auto q0 = static_cast<IdxType>(rng.next_below(6));
    auto q1 = static_cast<IdxType>(rng.next_below(6));
    while (q1 == q0) q1 = static_cast<IdxType>(rng.next_below(6));
    Gate g = op_info(op).n_qubits == 1 ? make_gate(op, q0)
                                       : make_gate(op, q0, q1);
    g.theta = rng.uniform(-PI, PI);
    g.phi = rng.uniform(-PI, PI);
    g.lam = rng.uniform(-PI, PI);
    c.append(g);
  }
  sim.run(c);
  sim.run(c.inverse());
  const StateVector sv = sim.state();
  EXPECT_NEAR(sv.prob_of(0), 1.0, 1e-9);
  EXPECT_NEAR(std::abs(sv.amps[0] - Complex{1, 0}), 0.0, 1e-7);
}

// The dispatch path: uploading a circuit resolves every gate to a non-null
// kernel pointer and MA/measure work through the same loop.
TEST(Dispatch, UploadResolvesAllKernelOps) {
  const auto& table = KernelTable<LocalSpace>::get();
  for (int i = 0; i < kNumOps; ++i) {
    const OP op = static_cast<OP>(i);
    if (is_kernel_op(op) || op == OP::M || op == OP::MA || op == OP::RESET ||
        op == OP::BARRIER) {
      EXPECT_NE(table[static_cast<std::size_t>(i)], nullptr) << op_name(op);
    }
  }
}

} // namespace
} // namespace svsim
