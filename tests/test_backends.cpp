// Backend equivalence: the same circuit, seed, and width must produce the
// same final state (exact amplitudes) on every backend and partitioning —
// single-device, peer scale-up (2/4/8 devices), SHMEM scale-out (2/4/8
// PEs), coarse-message baseline (2/4 ranks), and the generalized-matrix
// reference. Also checks the communication counters behave as the PGAS
// model predicts (low qubits = no remote traffic; high qubits = heavy).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "core/coarse_msg_sim.hpp"
#include "core/generalized_sim.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "ir/remap.hpp"

namespace svsim {
namespace {

Circuit random_circuit(IdxType n, int n_gates, std::uint64_t seed) {
  Rng rng(seed);
  Circuit c(n, CompoundMode::kNative);
  const OP pool[] = {OP::H,   OP::X,   OP::Y,  OP::Z,   OP::T,   OP::S,
                     OP::RX,  OP::RY,  OP::RZ, OP::U1,  OP::U2,  OP::U3,
                     OP::CX,  OP::CZ,  OP::CY, OP::SWAP, OP::CU1, OP::CU3,
                     OP::RXX, OP::RZZ, OP::CRY, OP::CH};
  for (int i = 0; i < n_gates; ++i) {
    const OP op = pool[rng.next_below(22)];
    const auto q0 = static_cast<IdxType>(rng.next_below(static_cast<std::uint64_t>(n)));
    auto q1 = static_cast<IdxType>(rng.next_below(static_cast<std::uint64_t>(n)));
    while (q1 == q0) {
      q1 = static_cast<IdxType>(rng.next_below(static_cast<std::uint64_t>(n)));
    }
    Gate g = op_info(op).n_qubits == 1 ? make_gate(op, q0)
                                       : make_gate(op, q0, q1);
    g.theta = rng.uniform(-PI, PI);
    g.phi = rng.uniform(-PI, PI);
    g.lam = rng.uniform(-PI, PI);
    c.append(g);
  }
  return c;
}

class BackendEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BackendEquivalenceTest, AllBackendsAgreeOnRandomCircuits) {
  const IdxType n = 8;
  const Circuit c = random_circuit(n, 150, GetParam());

  SingleSim ref(n);
  ref.run(c);
  const StateVector truth = ref.state();
  EXPECT_NEAR(truth.norm(), 1.0, 1e-9);

  for (const int k : {2, 4, 8}) {
    PeerSim peer(n, k);
    peer.run(c);
    EXPECT_LT(peer.state().max_diff(truth), 1e-11) << "peer x" << k;

    ShmemSim shm(n, k);
    shm.run(c);
    EXPECT_LT(shm.state().max_diff(truth), 1e-11) << "shmem x" << k;
  }
  for (const int k : {2, 4}) {
    CoarseMsgSim msg(n, k);
    msg.run(c);
    EXPECT_LT(msg.state().max_diff(truth), 1e-11) << "coarse x" << k;
  }
  GeneralizedSim gen(n);
  gen.run(c);
  EXPECT_LT(gen.state().max_diff(truth), 1e-11) << "generalized";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalenceTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// Decompose-mode circuits (basic+standard gates only) agree with native
// mode up to global phase on every backend.
TEST(BackendEquivalence, NativeVsDecomposedMode) {
  const IdxType n = 6;
  Rng rng(2024);
  Circuit native(n, CompoundMode::kNative);
  Circuit lowered(n, CompoundMode::kDecompose);
  const OP pool[] = {OP::H, OP::T, OP::CX, OP::CZ, OP::SWAP, OP::CU1,
                     OP::CRZ, OP::CRY, OP::RZZ, OP::CH};
  for (int i = 0; i < 80; ++i) {
    const OP op = pool[rng.next_below(10)];
    const auto q0 = static_cast<IdxType>(rng.next_below(6));
    auto q1 = static_cast<IdxType>(rng.next_below(6));
    while (q1 == q0) q1 = static_cast<IdxType>(rng.next_below(6));
    Gate g = op_info(op).n_qubits == 1 ? make_gate(op, q0)
                                       : make_gate(op, q0, q1);
    g.theta = rng.uniform(-PI, PI);
    native.append(g);
    lowered.append(g);
  }
  EXPECT_GT(lowered.n_gates(), native.n_gates());

  SingleSim s1(n), s2(n);
  s1.run(native);
  s2.run(lowered);
  EXPECT_NEAR(s1.state().fidelity(s2.state()), 1.0, 1e-10);
}

// --- functional algorithm checks across backends ---------------------------

std::vector<std::unique_ptr<Simulator>> all_backends(IdxType n) {
  std::vector<std::unique_ptr<Simulator>> v;
  v.push_back(std::make_unique<SingleSim>(n));
  v.push_back(std::make_unique<PeerSim>(n, 4));
  v.push_back(std::make_unique<ShmemSim>(n, 4));
  v.push_back(std::make_unique<CoarseMsgSim>(n, 4));
  v.push_back(std::make_unique<GeneralizedSim>(n));
  return v;
}

TEST(BackendFunctional, GhzStateHasTwoPeaks) {
  const IdxType n = 6;
  Circuit c(n);
  c.h(0);
  for (IdxType q = 1; q < n; ++q) c.cx(q - 1, q);
  for (auto& sim : all_backends(n)) {
    sim->run(c);
    const StateVector sv = sim->state();
    EXPECT_NEAR(sv.prob_of(0), 0.5, 1e-9) << sim->name();
    EXPECT_NEAR(sv.prob_of(pow2(n) - 1), 0.5, 1e-9) << sim->name();
  }
}

TEST(BackendFunctional, BernsteinVaziraniRecoversSecret) {
  const IdxType n = 7; // 6 data qubits + 1 ancilla
  const IdxType secret = 0b101101;
  Circuit c(n);
  c.x(n - 1);
  for (IdxType q = 0; q < n; ++q) c.h(q);
  for (IdxType q = 0; q < n - 1; ++q) {
    if (qubit_set(secret, q)) c.cx(q, n - 1);
  }
  for (IdxType q = 0; q < n - 1; ++q) c.h(q);
  for (auto& sim : all_backends(n)) {
    sim->run(c);
    const StateVector sv = sim->state();
    // Data register must read the secret with probability 1 (ancilla in
    // |-> contributes a fixed 0/1 split on the top qubit).
    ValType p_secret = 0;
    for (IdxType anc = 0; anc <= 1; ++anc) {
      p_secret += sv.prob_of(secret | (anc << (n - 1)));
    }
    EXPECT_NEAR(p_secret, 1.0, 1e-9) << sim->name();
  }
}

TEST(BackendFunctional, QftOfBasisStateHasFlatSpectrum) {
  const IdxType n = 5;
  Circuit c(n, CompoundMode::kNative);
  c.x(1); // |00010>
  for (IdxType q = n; q-- > 0;) {
    c.h(q);
    for (IdxType j = 0; j < q; ++j) {
      c.cu1(PI / static_cast<ValType>(pow2(q - j)), j, q);
    }
  }
  for (auto& sim : all_backends(n)) {
    sim->run(c);
    const auto probs = sim->state().probabilities();
    for (const ValType p : probs) {
      EXPECT_NEAR(p, 1.0 / static_cast<ValType>(pow2(n)), 1e-9)
          << sim->name();
    }
  }
}

// --- traffic model sanity ----------------------------------------------------

TEST(PeerTrafficCounters, LowQubitGatesStayLocal) {
  PeerSim sim(8, 4); // 2 partition bits: qubits 6,7 are remote
  Circuit local(8);
  local.h(0).h(3).cx(1, 2);
  sim.run(local);
  EXPECT_EQ(sim.traffic().remote_access, 0u);

  PeerSim sim2(8, 4);
  Circuit remote(8);
  remote.h(7); // pairs straddle partitions
  sim2.run(remote);
  EXPECT_GT(sim2.traffic().remote_access, 0u);
}

TEST(ShmemTrafficCounters, HighQubitGatesGoRemote) {
  ShmemSim sim(8, 4);
  Circuit c(8);
  c.h(0);
  sim.run(c);
  const auto local_only = sim.traffic();
  EXPECT_EQ(local_only.remote_gets + local_only.remote_puts, 0u);

  ShmemSim sim2(8, 4);
  Circuit c2(8);
  c2.h(7);
  sim2.run(c2);
  const auto remote = sim2.traffic();
  EXPECT_GT(remote.remote_gets + remote.remote_puts, 0u);
}

TEST(CoarseMsgCounters, ExchangeOnlyForHighQubits) {
  // Pin remap off: this test asserts the *unavoided* exchange counts the
  // coarse baseline pays; the remap pass would localize h(7)/cx(6,7).
  SimConfig cfg;
  cfg.remap = 0;
  CoarseMsgSim sim(8, 4, cfg);
  Circuit c(8);
  c.h(0).cx(1, 2).h(7).cx(6, 7);
  sim.run(c);
  const MsgStats s = sim.stats();
  EXPECT_EQ(s.local_gates, 2u);
  EXPECT_EQ(s.exchange_gates, 2u);
  EXPECT_GT(s.bytes, 0u);
}

// --- owner-computes execution (DESIGN.md §13) ---------------------------
//
// Gates whose operands all lie below the partition bits, and blocked
// windows, run on each worker's own partition and issue no one-sided
// access; gates on a partition qubit keep the per-element path, and the
// measure-all sweep accounts its reads in bulk.

/// Every element access the last run issued through the Space accessors:
/// shmem one-sided gets + puts, peer pointer-array accesses.
std::uint64_t one_sided_ops(const ShmemSim& sim) {
  const shmem::TrafficStats t = sim.traffic();
  return t.local_gets + t.remote_gets + t.local_puts + t.remote_puts;
}
std::uint64_t one_sided_ops(const PeerSim& sim) {
  const PeerTraffic t = sim.traffic();
  return t.local_access + t.remote_access;
}

/// The partitioned-backend configuration grid: 2 and 4 workers, blocked
/// schedule (b = 2, many blocks per worker) and remap each on and off.
template <typename Fn>
void for_each_partitioned_config(Fn&& fn) {
  for (const int workers : {2, 4}) {
    for (const int sched : {0, 2}) {
      for (const int remap : {0, 1}) {
        SimConfig cfg;
        cfg.sched_window = sched;
        cfg.remap = remap;
        SCOPED_TRACE(::testing::Message() << "workers=" << workers
                                          << " sched=" << sched
                                          << " remap=" << remap);
        fn(workers, cfg);
      }
    }
  }
}

/// A circuit whose every operand is below `lg_part`, with adjacent
/// diagonal runs so the blocked schedule collapses some of them.
Circuit local_only_circuit(IdxType n, IdxType lg_part) {
  Circuit c(n, CompoundMode::kNative);
  for (IdxType q = 0; q < lg_part; ++q) c.h(q);
  for (IdxType q = 0; q + 1 < lg_part; ++q) c.cx(q, q + 1);
  c.t(0).rz(0.3, 1).cz(0, lg_part - 1).cu1(0.7, 2, 0).rzz(0.4, 1, 3);
  c.u3(0.1, 0.2, 0.3, lg_part - 1).swap(1, lg_part - 2).ry(0.9, 2);
  c.crz(0.5, 3, 1).s(lg_part - 1).tdg(0).h(1);
  return c;
}

TEST(OwnerComputes, LocalOnlyCircuitIssuesNoOneSidedAccess) {
  const IdxType n = 8;
  for_each_partitioned_config([&](int workers, const SimConfig& cfg) {
    const IdxType lg_part = n - log2_exact(workers);
    const Circuit c = local_only_circuit(n, lg_part);
    SingleSim ref(n, cfg);
    ShmemSim shmem(n, workers, cfg);
    PeerSim peer(n, workers, cfg);
    ref.run(c);
    shmem.run(c);
    peer.run(c);
    EXPECT_EQ(one_sided_ops(shmem), 0u);
    EXPECT_EQ(one_sided_ops(peer), 0u);
    EXPECT_EQ(shmem.last_report().matrix.total(), 0u);
    EXPECT_EQ(peer.last_report().matrix.total(), 0u);
    EXPECT_EQ(shmem.last_report().remap.swaps_inserted, 0u);
    EXPECT_LT(shmem.state().max_diff(ref.state()), 1e-12);
    EXPECT_LT(peer.state().max_diff(ref.state()), 1e-12);
  });
}

// Diagonal gates on a partition qubit join blocked windows: the collapsed
// run picks its phases from the block's GLOBAL base while touching only
// the worker's own partition.
TEST(OwnerComputes, BlockedWindowWithPartitionDiagonalsStaysLocal) {
  const IdxType n = 7;
  for (const int workers : {2, 4}) {
    SimConfig cfg;
    cfg.sched_window = 2;
    cfg.remap = 0;
    Circuit c(n);
    for (IdxType q = 0; q < n; ++q) c.h(q);               // per-gate
    c.h(0).cz(0, n - 1).rz(0.4, n - 1).cu1(0.3, n - 2, 1); // one window
    c.t(1).crz(0.8, n - 1, 0).cz(n - 2, n - 1).h(1);
    SingleSim ref(n, cfg);
    ShmemSim shmem(n, workers, cfg);
    PeerSim peer(n, workers, cfg);
    ref.run(c);
    shmem.run(c);
    peer.run(c);
    ASSERT_TRUE(shmem.last_report().sched.active);
    // Only the n leading H gates on partition qubits went one-sided.
    const std::uint64_t top = static_cast<std::uint64_t>(log2_exact(workers));
    EXPECT_EQ(one_sided_ops(shmem), top * 8u * pow2(n - 1)) << workers;
    EXPECT_EQ(one_sided_ops(peer), top * 8u * pow2(n - 1)) << workers;
    EXPECT_LT(shmem.state().max_diff(ref.state()), 1e-12) << workers;
    EXPECT_LT(peer.state().max_diff(ref.state()), 1e-12) << workers;
  }
}

/// Hand count of one-sided traffic for `c` as executed: gates with every
/// operand below `lg_part` are free; X, CX and SWAP otherwise read and
/// write each amplitude they touch once per plane (2 gets + 2 puts, or 4
/// peer accesses). Returns ops[worker][owner].
std::vector<std::vector<std::uint64_t>> hand_count(const Circuit& c,
                                                   int workers,
                                                   IdxType lg_part) {
  const auto W = static_cast<std::size_t>(workers);
  std::vector<std::vector<std::uint64_t>> ops(W,
                                              std::vector<std::uint64_t>(W));
  const IdxType n = c.n_qubits();
  for (const Gate& g : c.gates()) {
    if (g.qb0 < lg_part && g.qb1 < lg_part) continue; // owner-computes
    const bool one_q = g.qb1 < 0;
    const IdxType per = (one_q ? pow2(n - 1) : pow2(n - 2)) / workers;
    const IdxType p = one_q ? g.qb0 : std::min(g.qb0, g.qb1);
    const IdxType q = one_q ? g.qb0 : std::max(g.qb0, g.qb1);
    for (std::size_t w = 0; w < W; ++w) {
      for (IdxType i = per * static_cast<IdxType>(w);
           i < per * static_cast<IdxType>(w + 1); ++i) {
        IdxType a = 0;
        IdxType b = 0;
        if (g.op == OP::X) {
          a = pair_base(i, q);
          b = a + pow2(q);
        } else if (g.op == OP::CX) {
          a = quad_base(i, p, q) + pow2(g.qb0);
          b = a + pow2(g.qb1);
        } else if (g.op == OP::SWAP) {
          a = quad_base(i, p, q) + pow2(p);
          b = quad_base(i, p, q) + pow2(q);
        } else {
          ADD_FAILURE() << "no hand count for " << op_name(g.op);
        }
        ops[w][static_cast<std::size_t>(a >> lg_part)] += 4;
        ops[w][static_cast<std::size_t>(b >> lg_part)] += 4;
      }
    }
  }
  return ops;
}

TEST(OwnerComputes, MixedCircuitMatchesHandCountedTraffic) {
  const IdxType n = 8;
  for_each_partitioned_config([&](int workers, const SimConfig& cfg) {
    const IdxType lg_part = n - log2_exact(workers);
    const IdxType top = n - 1;
    // Local gates (free) around X on the top qubit and CX controlled by
    // it: the only one-sided work, plus whatever swaps remap inserts.
    Circuit c = local_only_circuit(n, lg_part);
    c.x(top).cx(top, 0);
    c.append(local_only_circuit(n, lg_part));
    const Circuit executed =
        cfg.remap == 1 ? remap_for_partition(c, lg_part).circuit : c;
    const auto ops = hand_count(executed, workers, lg_part);
    std::uint64_t remote = 0;
    std::uint64_t all = 0;
    for (std::size_t w = 0; w < ops.size(); ++w) {
      for (std::size_t o = 0; o < ops.size(); ++o) {
        all += ops[w][o];
        if (o != w) remote += ops[w][o];
      }
    }
    ASSERT_GT(remote, 0u);

    SingleSim ref(n, cfg);
    ShmemSim shmem(n, workers, cfg);
    PeerSim peer(n, workers, cfg);
    ref.run(c);
    shmem.run(c);
    peer.run(c);
    const shmem::TrafficStats t = shmem.traffic();
    EXPECT_EQ(t.remote_gets, remote / 2);
    EXPECT_EQ(t.remote_puts, remote / 2);
    EXPECT_EQ(one_sided_ops(shmem), all);
    EXPECT_EQ(peer.traffic().remote_access, remote);
    EXPECT_EQ(one_sided_ops(peer), all);
    for (const Simulator* sim : {static_cast<const Simulator*>(&shmem),
                                 static_cast<const Simulator*>(&peer)}) {
      const obs::TrafficMatrix& m = sim->last_report().matrix;
      for (int w = 0; w < workers; ++w) {
        for (int o = 0; o < workers; ++o) {
          EXPECT_EQ(m.at(w, o), ops[static_cast<std::size_t>(w)]
                                   [static_cast<std::size_t>(o)] *
                                    sizeof(ValType))
              << sim->name() << " " << w << "->" << o;
        }
      }
    }
    EXPECT_LT(shmem.state().max_diff(ref.state()), 1e-12);
    EXPECT_LT(peer.state().max_diff(ref.state()), 1e-12);
  });
}

// The measure-all sweep reads partitions through resolved pointers and
// folds per-owner tallies in bulk: the counts must equal what per-element
// reads of the logical prefix [0, k] the sweep visits would give.
TEST(OwnerComputes, MeasureAllBulkTalliesEqualPerElementCount) {
  const IdxType n = 6;
  for_each_partitioned_config([&](int workers, const SimConfig& cfg) {
    const IdxType lg_part = n - log2_exact(workers);
    const IdxType part = pow2(lg_part);
    // Basis state |k0> (remap off: physical = logical): the sweep stops at
    // k0, having read amplitudes 0..k0. GHZ: the last draw needs the last
    // amplitude, so the sweep reads all 2^n whatever the layout.
    const IdxType k0 = part + 3; // inside partition 1
    Circuit basis(n);
    for (IdxType q = 0; q < n; ++q) {
      if ((k0 >> q) & 1) basis.x(q);
    }
    Circuit ghz(n);
    ghz.h(0);
    for (IdxType q = 1; q < n; ++q) ghz.cx(q - 1, q);

    struct Case {
      const Circuit* c;
      IdxType last_read;
    };
    std::vector<Case> cases{{&ghz, pow2(n) - 1}};
    if (cfg.remap == 0) cases.push_back({&basis, k0});
    for (const Case& cs : cases) {
      std::vector<std::uint64_t> expect(static_cast<std::size_t>(workers), 0);
      for (IdxType k = 0; k <= cs.last_read; ++k) {
        expect[static_cast<std::size_t>(k >> lg_part)] += 2; // real + imag
      }
      ShmemSim shmem(n, workers, cfg);
      PeerSim peer(n, workers, cfg);
      shmem.run(*cs.c);
      peer.run(*cs.c);
      const auto shots_s = shmem.sample(64);
      const auto shots_p = peer.sample(64);
      EXPECT_EQ(shots_s, shots_p);

      const auto& per_pe = shmem.per_pe_traffic();
      EXPECT_EQ(per_pe[0].local_gets, expect[0]);
      std::uint64_t remote = 0;
      for (int w = 1; w < workers; ++w) {
        remote += expect[static_cast<std::size_t>(w)];
        EXPECT_EQ(per_pe[static_cast<std::size_t>(w)].local_gets +
                      per_pe[static_cast<std::size_t>(w)].remote_gets,
                  0u);
      }
      EXPECT_EQ(per_pe[0].remote_gets, remote);
      EXPECT_EQ(shmem.traffic().local_puts + shmem.traffic().remote_puts, 0u);
      EXPECT_EQ(peer.per_device_traffic()[0].local_access, expect[0]);
      EXPECT_EQ(peer.traffic().remote_access, remote);
      for (const Simulator* sim : {static_cast<const Simulator*>(&shmem),
                                   static_cast<const Simulator*>(&peer)}) {
        const obs::TrafficMatrix& m = sim->last_report().matrix;
        for (int o = 0; o < workers; ++o) {
          EXPECT_EQ(m.at(0, o),
                    expect[static_cast<std::size_t>(o)] * sizeof(ValType))
              << sim->name() << " owner " << o;
        }
        EXPECT_EQ(m.total(), 2 * sizeof(ValType) * (cs.last_read + 1))
            << sim->name();
      }
    }
  });
}

// lg_part = 1 (n = 3 on 4 workers): only qubit 0 is PE-local, so no
// 2-qubit gate can run owner-computes and no schedule can block.
TEST(OwnerComputes, OneLocalQubitEdgeCase) {
  const IdxType n = 3;
  SimConfig cfg;
  cfg.seed = 99;
  for (const int remap : {0, 1}) {
    cfg.remap = remap;
    ShmemSim shmem(n, 4, cfg);
    PeerSim peer(n, 4, cfg);
    Circuit local(n);
    local.h(0).t(0).rx(0.3, 0);
    shmem.run(local);
    peer.run(local);
    EXPECT_EQ(one_sided_ops(shmem), 0u);
    EXPECT_EQ(one_sided_ops(peer), 0u);

    Circuit two(n);
    two.cx(0, 1);
    shmem.run(two);
    peer.run(two);
    if (remap == 0) {
      EXPECT_GT(one_sided_ops(shmem), 0u);
      EXPECT_GT(one_sided_ops(peer), 0u);
    }

    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const Circuit c = random_circuit(n, 40, seed);
      SingleSim ref(n, cfg);
      ShmemSim s(n, 4, cfg);
      PeerSim p(n, 4, cfg);
      ref.run(c);
      s.run(c);
      p.run(c);
      EXPECT_LT(s.state().max_diff(ref.state()), 1e-10) << seed;
      EXPECT_LT(p.state().max_diff(ref.state()), 1e-10) << seed;
      const auto want = ref.sample(32);
      EXPECT_EQ(s.sample(32), want) << seed;
      EXPECT_EQ(p.sample(32), want) << seed;
    }
  }
}

// Measurement determinism: same seed -> same outcomes on all backends.
TEST(BackendDeterminism, MeasureOutcomesMatchAcrossBackends) {
  const IdxType n = 5;
  Circuit c(n);
  for (IdxType q = 0; q < n; ++q) c.h(q);
  for (IdxType q = 0; q < n; ++q) c.measure(q, q);

  SimConfig cfg;
  cfg.seed = 777;
  SingleSim a(n, cfg);
  PeerSim b(n, 4, cfg);
  ShmemSim d(n, 4, cfg);
  CoarseMsgSim e(n, 4, cfg);
  a.run(c);
  b.run(c);
  d.run(c);
  e.run(c);
  EXPECT_EQ(a.cbits(), b.cbits());
  EXPECT_EQ(a.cbits(), d.cbits());
  EXPECT_EQ(a.cbits(), e.cbits());
}

TEST(BackendDeterminism, SamplesMatchAcrossBackends) {
  const IdxType n = 6;
  Circuit c(n);
  c.h(0);
  for (IdxType q = 1; q < n; ++q) c.cx(q - 1, q);

  SimConfig cfg;
  cfg.seed = 31337;
  SingleSim a(n, cfg);
  ShmemSim d(n, 4, cfg);
  a.run(c);
  d.run(c);
  const auto sa = a.sample(64);
  const auto sd = d.sample(64);
  EXPECT_EQ(sa, sd);
  for (const IdxType outcome : sa) {
    EXPECT_TRUE(outcome == 0 || outcome == pow2(n) - 1) << outcome;
  }
}

// SingleSim's thread team (DESIGN.md §15): T workers share the one state
// vector, each owning a contiguous 1/T slice. Unitary kernels are
// elementwise and sampling is one sequential sweep, so the team must
// reproduce the one-thread run exactly; measure/reset reduce per-worker
// partials, whose summation order may move the state by an ulp.
SimConfig team_config(int threads, int window) {
  SimConfig cfg;
  cfg.threads = threads;
  cfg.sched_window = window;
  return cfg;
}

template <class Check>
void for_each_team_config(Check&& check) {
  for (const IdxType n : {3, 6, 10}) {
    for (const int window : {0, -1, 2}) {
      for (const int t : {2, 4}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " sched_window=" +
                     std::to_string(window) + " threads=" +
                     std::to_string(t));
        check(n, window, t);
      }
    }
  }
}

void expect_team_report(const SingleSim& sim, IdxType n, int t) {
  const obs::RunReport& rep = sim.last_report();
  EXPECT_EQ(rep.n_workers, t);
  EXPECT_LE(rep.sched.block_exp, n - log2_exact(t));
}

/// The sched_window a one-thread run needs to execute `team`'s schedule.
/// A team clamps the block exponent to its slice (n − log2 T), so at
/// small n auto resolves to a smaller b than one thread would, and a
/// different windowing rounds collapsed diagonal runs differently.
int same_schedule_window(const SingleSim& team) {
  const obs::SchedulerStats& st = team.last_report().sched;
  return st.enabled ? st.block_exp : 0;
}

TEST(SingleTeam, UnitaryCircuitsMatchOneThreadBitForBit) {
  for_each_team_config([](IdxType n, int window, int t) {
    const Circuit c =
        random_circuit(n, 120, 1000 + static_cast<std::uint64_t>(n));
    SingleSim team(n, team_config(t, window));
    ASSERT_EQ(team.threads(), t);
    team.run(c);
    expect_team_report(team, n, t);
    SingleSim one(n, team_config(1, same_schedule_window(team)));
    one.run(c);
    EXPECT_EQ(team.state().amps, one.state().amps);
    EXPECT_EQ(team.sample(256), one.sample(256));
  });
}

TEST(SingleTeam, MidCircuitMeasureAndResetMatchOneThread) {
  for_each_team_config([](IdxType n, int window, int t) {
    Circuit c = random_circuit(n, 40, 2000 + static_cast<std::uint64_t>(n));
    for (IdxType q = 0; q < n; ++q) {
      c.measure(q, q);
      c.append(make_gate(OP::H, q));
      if (q % 2 == 1) c.reset(q - 1);
    }
    c.append(random_circuit(n, 40, 3000 + static_cast<std::uint64_t>(n)));
    SingleSim team(n, team_config(t, window));
    team.run(c);
    expect_team_report(team, n, t);
    SingleSim one(n, team_config(1, same_schedule_window(team)));
    one.run(c);
    EXPECT_EQ(team.cbits(), one.cbits());
    EXPECT_LT(team.state().max_diff(one.state()), 1e-12);
  });
}

TEST(SingleTeam, ThreadCountIsResolvedAtConstruction) {
  EXPECT_THROW(SingleSim(6, team_config(3, -1)), Error);
  EXPECT_THROW(SingleSim(6, team_config(-2, -1)), Error);
  EXPECT_THROW(SingleSim(3, team_config(16, -1)), Error);
  EXPECT_EQ(SingleSim(3, team_config(8, -1)).threads(), 8);
  // Auto: one thread while the state fits one cache block.
  EXPECT_EQ(SingleSim(8).threads(), 1);
}

} // namespace
} // namespace svsim
