// Gate-window scheduling: build_schedule partitioning invariants, the
// diagonal fast path, and blocked-vs-per-gate equivalence across backends.
//
// The schedule must cover every gate exactly once in circuit order, treat
// measurement/reset/barrier as window barriers, and blocked execution
// (SimConfig::sched_window >= 2) must reproduce the per-gate loop
// (sched_window = 0) to 1e-12 on every backend and partitioning.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "ir/schedule.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"

namespace svsim {
namespace {

// --- partitioning invariants ---------------------------------------------

/// Every gate appears in exactly one window, windows are contiguous and
/// ordered, and blocked windows hold only qualifying gates.
void check_partition(const Circuit& c, const Schedule& s, IdxType b) {
  IdxType next = 0;
  IdxType blocked_windows = 0;
  IdxType windowed = 0;
  IdxType saved = 0;
  for (const Window& w : s.windows) {
    EXPECT_EQ(w.first_gate, next) << "windows must tile the circuit";
    EXPECT_GE(w.n_gates, 1);
    if (w.blocked) {
      EXPECT_GE(w.n_gates, 2) << "a lone gate saves no passes";
      ++blocked_windows;
      windowed += w.n_gates;
      saved += w.n_gates - 1;
      for (IdxType k = w.first_gate; k < w.first_gate + w.n_gates; ++k) {
        const Gate& g = c.gates()[static_cast<std::size_t>(k)];
        EXPECT_TRUE(is_kernel_op(g.op) && is_unitary_op(g.op) &&
                    g.op != OP::BARRIER)
            << "barrier op inside a blocked window: " << op_name(g.op);
        if (!is_diagonal_gate(g.op)) {
          EXPECT_LT(g.qb0, b);
          if (g.qb1 >= 0) {
            EXPECT_LT(g.qb1, b);
          }
        }
        // The mask covers exactly the low operand qubits.
        if (g.qb0 < b) {
          EXPECT_NE(w.qubit_mask & pow2(g.qb0), 0u);
        }
        if (g.qb1 >= 0 && g.qb1 < b) {
          EXPECT_NE(w.qubit_mask & pow2(g.qb1), 0u);
        }
      }
    }
    next = w.first_gate + w.n_gates;
  }
  EXPECT_EQ(next, c.n_gates()) << "schedule must cover every gate";
  EXPECT_EQ(s.stats.windows, blocked_windows);
  EXPECT_EQ(s.stats.windowed_gates, windowed);
  EXPECT_EQ(s.stats.passes_saved, saved);
  EXPECT_EQ(s.stats.block_exp, b);
}

TEST(Schedule, WindowsTileTheCircuitInOrder) {
  Circuit c(10);
  c.h(0).cx(0, 1).t(2).h(9).cz(3, 9).measure(0, 0).h(1).h(2).reset(3).x(4);
  const Schedule s = build_schedule(c, 6);
  check_partition(c, s, 6);
}

TEST(Schedule, BarrierOpsAreWindowBarriers) {
  Circuit c(8);
  c.h(0).h(1).measure(0, 0).h(2).h(3).barrier().h(4).h(5);
  const Schedule s = build_schedule(c, 6);
  check_partition(c, s, 6);
  // h h | M | h h | BARRIER | h h -> three blocked windows split by the
  // non-unitary/barrier gates, each its own per-gate window.
  ASSERT_EQ(s.windows.size(), 5u);
  EXPECT_TRUE(s.windows[0].blocked);
  EXPECT_FALSE(s.windows[1].blocked);
  EXPECT_TRUE(s.windows[2].blocked);
  EXPECT_FALSE(s.windows[3].blocked);
  EXPECT_TRUE(s.windows[4].blocked);
  EXPECT_EQ(s.stats.passes_saved, 3u);
}

TEST(Schedule, HighNonDiagonalGatesBreakWindowsButHighDiagonalsJoin) {
  Circuit c(12);
  c.h(0).h(1).h(10) /* breaks: non-diag above b */ .h(2).cz(3, 11).h(3);
  const Schedule s = build_schedule(c, 8);
  check_partition(c, s, 8);
  // [h0 h1] | [h10] | [h2 cz(3,11) h3] — the high CZ is diagonal and
  // joins; the high H cannot.
  ASSERT_EQ(s.windows.size(), 3u);
  EXPECT_TRUE(s.windows[0].blocked);
  EXPECT_FALSE(s.windows[1].blocked);
  EXPECT_TRUE(s.windows[2].blocked);
  EXPECT_TRUE(s.windows[2].has_high_diagonal);
  EXPECT_EQ(s.windows[2].qubit_mask, pow2(2) | pow2(3));
}

TEST(Schedule, CheckpointCadenceSplitsWindows) {
  Circuit c(8);
  for (int i = 0; i < 8; ++i) c.h(i % 4);
  const Schedule uncapped = build_schedule(c, 6);
  ASSERT_EQ(uncapped.windows.size(), 1u);
  EXPECT_EQ(uncapped.windows[0].n_gates, 8);
  // every=3: windows must end at gates 3, 6 (1-based) so health
  // checkpoints fire at exactly the classic per-gate ids.
  const Schedule capped = build_schedule(c, 6, 3);
  check_partition(c, capped, 6);
  ASSERT_EQ(capped.windows.size(), 3u);
  EXPECT_EQ(capped.windows[0].n_gates, 3);
  EXPECT_EQ(capped.windows[1].n_gates, 3);
  EXPECT_EQ(capped.windows[2].n_gates, 2);
}

TEST(Schedule, ResolutionConfigWinsOverDefaults) {
  SimConfig cfg;
  cfg.sched_window = 0;
  EXPECT_EQ(resolved_block_exponent(cfg), 0);
  cfg.sched_window = 12;
  EXPECT_EQ(resolved_block_exponent(cfg), 12);
  cfg.sched_window = -1; // auto: on, with a sane L2-sized exponent
  const IdxType b = resolved_block_exponent(cfg);
  EXPECT_GE(b, 8);
  EXPECT_LE(b, 20);
}

// --- equivalence ---------------------------------------------------------

StateVector run_single(const Circuit& c, int sched_window) {
  SimConfig cfg;
  cfg.sched_window = sched_window;
  SingleSim sim(c.n_qubits(), cfg);
  sim.run(c);
  return sim.state();
}

void expect_states_close(const StateVector& a, const StateVector& b,
                         double tol, const char* what) {
  ASSERT_EQ(a.amps.size(), b.amps.size());
  double max_err = 0;
  for (std::size_t k = 0; k < a.amps.size(); ++k) {
    max_err = std::max(max_err, std::abs(a.amps[k] - b.amps[k]));
  }
  EXPECT_LE(max_err, tol) << what;
}

/// All twelve diagonal ops in one long run between H walls, spanning both
/// low and high qubits, so every collapse path runs (scalar, low table,
/// high-group patterns, gating).
TEST(ScheduleDiag, DiagonalFastPathMatchesPerGate) {
  const IdxType n = 12;
  Circuit c(n, CompoundMode::kNative);
  for (IdxType q = 0; q < n; ++q) c.h(q);
  c.id(0).z(1).s(2).sdg(3).t(4).tdg(5);
  c.rz(0.3, 1).u1(0.7, 2);
  c.cz(0, 3).cu1(0.9, 1, 11).crz(0.5, 10, 2).rzz(0.4, 9, 11);
  c.z(10).s(11).rz(1.1, 9).cu1(-0.6, 4, 5);
  for (IdxType q = 0; q < n; ++q) c.h(q);
  const StateVector ref = run_single(c, 0);
  for (const int b : {6, 8}) {
    expect_states_close(run_single(c, b), ref, 1e-12, "diag fast path");
  }
}

Circuit random_circuit(IdxType n, int n_gates, std::uint64_t seed) {
  Rng rng(seed);
  Circuit c(n, CompoundMode::kNative);
  const OP pool[] = {OP::H,  OP::X,  OP::Z,   OP::S,   OP::T,   OP::RX,
                     OP::RY, OP::RZ, OP::U1,  OP::U3,  OP::CX,  OP::CZ,
                     OP::CU1, OP::CRZ, OP::RZZ, OP::SWAP};
  for (int i = 0; i < n_gates; ++i) {
    const OP op = pool[rng.next_below(16)];
    const auto q0 =
        static_cast<IdxType>(rng.next_below(static_cast<std::uint64_t>(n)));
    auto q1 =
        static_cast<IdxType>(rng.next_below(static_cast<std::uint64_t>(n)));
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

class ScheduleEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleEquivalenceTest, BlockedMatchesPerGateOnEveryBackend) {
  const std::uint64_t seed = GetParam();
  const IdxType n = 10 + static_cast<IdxType>(seed % 7); // 10..16 qubits
  const Circuit c = random_circuit(n, 120, seed);

  const StateVector ref = run_single(c, 0);
  EXPECT_NEAR(ref.norm(), 1.0, 1e-9);

  for (const int b : {6, 8}) {
    SimConfig cfg;
    cfg.sched_window = b;

    SingleSim single(n, cfg);
    single.run(c);
    expect_states_close(single.state(), ref, 1e-12, "SingleSim blocked");
    EXPECT_TRUE(single.last_report().sched.enabled);

    PeerSim peer(n, 4, cfg);
    peer.run(c);
    expect_states_close(peer.state(), ref, 1e-12, "PeerSim blocked");

    ShmemSim shmem(n, 4, cfg);
    shmem.run(c);
    expect_states_close(shmem.state(), ref, 1e-12, "ShmemSim blocked");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleEquivalenceTest,
                         ::testing::Values(1u, 7u, 23u, 99u));

// --- config-off and reporting --------------------------------------------

TEST(ScheduleReport, SchedZeroIsBitForBitPerGate) {
  const Circuit c = random_circuit(11, 80, 5);
  SimConfig cfg;
  cfg.sched_window = 0;
  SingleSim a(11, cfg), b(11, cfg);
  a.run(c);
  b.run(c);
  const StateVector sa = a.state(), sb = b.state();
  for (std::size_t k = 0; k < sa.amps.size(); ++k) {
    EXPECT_EQ(sa.amps[k], sb.amps[k]); // deterministic, bit-for-bit
  }
  EXPECT_FALSE(a.last_report().sched.enabled);
  EXPECT_EQ(a.last_report().sched.passes_saved, 0u);
}

TEST(ScheduleReport, StatsAndJsonCarryWindowCounts) {
  Circuit c(10);
  for (int r = 0; r < 3; ++r) {
    for (IdxType q = 0; q < 10; ++q) c.h(q);
  }
  SimConfig cfg;
  cfg.sched_window = 6;
  SingleSim sim(10, cfg);
  sim.run(c);
  const obs::SchedulerStats& s = sim.last_report().sched;
  EXPECT_TRUE(s.enabled);
  EXPECT_TRUE(s.active);
  EXPECT_EQ(s.block_exp, 6);
  EXPECT_GT(s.windows, 0u);
  EXPECT_GT(s.passes_saved, 0u);
  EXPECT_EQ(s.traffic_avoided_bytes, s.passes_saved * 16u * pow2(10));
  const std::string json = obs::to_json(sim.last_report());
  EXPECT_NE(json.find("\"sched\":{\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"passes_saved\":"), std::string::npos);
}

/// A dispatch backend of the single / peer (2 devices) / shmem (2 PEs)
/// axis.
std::unique_ptr<Simulator> make_backend(const std::string& kind, IdxType n,
                                        const SimConfig& cfg) {
  if (kind == "peer") return std::make_unique<PeerSim>(n, 2, cfg);
  if (kind == "shmem") return std::make_unique<ShmemSim>(n, 2, cfg);
  SimConfig single = cfg;
  if (kind == "single x2") single.threads = 2; // a team over one state
  return std::make_unique<SingleSim>(n, single);
}

/// Health checkpoints must fire at the same gate ids as the per-gate loop
/// even when the circuit windows (the blocked loop checks per window), on
/// every dispatch backend and on SingleSim's thread team. The profiled
/// per-op counts and each worker's last gate published to the progress
/// board do not depend on the schedule either.
TEST(ScheduleHealth, CheckpointCountMatchesPerGateLoop) {
  Circuit c(10);
  for (int i = 0; i < 10; ++i) c.h(i);
  obs::ProgressBoard& board = obs::ProgressBoard::global();
  board.set_enabled(true);
  for (const char* backend : {"single", "single x2", "peer", "shmem"}) {
    std::vector<obs::RunReport> reports;
    for (const int window : {0, 6}) {
      SCOPED_TRACE(std::string(backend) + " sched_window=" +
                   std::to_string(window));
      SimConfig cfg;
      cfg.health_every_n = 4;
      cfg.sched_window = window;
      cfg.profile = true;
      cfg.remap = 0; // gate ids are the submitted circuit's
      const auto sim = make_backend(backend, 10, cfg);
      sim->run(c); // checkpoints at gates 4, 8, 10
      const obs::RunReport& rep = sim->last_report();
      EXPECT_EQ(rep.sched.active, window != 0);
      EXPECT_EQ(rep.health.checks, 3u);
      EXPECT_FALSE(rep.health.tripped());
      // Each worker scans only its own slice: a view of the whole state
      // per worker would sum to a norm of n_workers.
      EXPECT_NEAR(rep.health.last_norm2, 1.0, 1e-12);
      EXPECT_TRUE(rep.profiled);
      EXPECT_GT(rep.of(OP::H).seconds, 0);
      const obs::ProgressSnapshot snap = board.snapshot();
      ASSERT_EQ(snap.pes.size(), static_cast<std::size_t>(rep.n_workers));
      for (const obs::ProgressSnapshot::Pe& pe : snap.pes) {
        EXPECT_EQ(pe.gates_done, static_cast<std::uint64_t>(c.n_gates()));
      }
      reports.push_back(rep);
    }
    for (std::size_t i = 0; i < reports[0].by_op.size(); ++i) {
      EXPECT_EQ(reports[0].by_op[i].count, reports[1].by_op[i].count)
          << backend << " op " << i;
    }
  }
  board.set_enabled(false);
}

} // namespace
} // namespace svsim
