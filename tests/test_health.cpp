// Health/forensics tier: SIMD amplitude scanning, HealthMonitor trip
// behavior (NaN, norm drift, abort escalation) on every backend, PE×PE
// traffic-matrix marginals vs. the existing per-PE counters, the flight
// recorder's ring semantics under concurrent writers, and the crash dump
// path (SIGFPE death test).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/coarse_msg_sim.hpp"
#include "core/generalized_sim.hpp"
#include "core/peer_sim.hpp"
#include "core/shmem_sim.hpp"
#include "core/single_sim.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/jsonlite.hpp"
#include "obs/progress.hpp"

namespace svsim {
namespace {

Circuit ghz(IdxType n) {
  Circuit c(n);
  c.h(0);
  for (IdxType q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  return c;
}

/// Normalized state with the mass on |0...0> and |1...1>.
StateVector ghz_state(IdxType n) {
  StateVector sv(n);
  const ValType amp = 1.0 / std::sqrt(2.0);
  sv.amps[0] = amp;
  sv.amps[sv.amps.size() - 1] = amp;
  return sv;
}

enum class Backend { kSingle, kPeer, kShmem, kCoarse, kGeneralized };

constexpr Backend kAllBackends[] = {Backend::kSingle, Backend::kPeer,
                                    Backend::kShmem, Backend::kCoarse,
                                    Backend::kGeneralized};

std::unique_ptr<Simulator> make_sim(Backend b, IdxType n, SimConfig cfg) {
  switch (b) {
    case Backend::kSingle: return std::make_unique<SingleSim>(n, cfg);
    case Backend::kPeer: return std::make_unique<PeerSim>(n, 4, cfg);
    case Backend::kShmem: return std::make_unique<ShmemSim>(n, 4, cfg);
    case Backend::kCoarse: return std::make_unique<CoarseMsgSim>(n, 4, cfg);
    case Backend::kGeneralized:
      return std::make_unique<GeneralizedSim>(n, cfg);
  }
  return nullptr;
}

// --- scan_amplitudes -----------------------------------------------------

TEST(HealthScan, NormAndNonFiniteAcrossVectorAndTailLengths) {
  // Lengths straddling the AVX-512 (8) and AVX2 (4) strides plus tails.
  for (const IdxType count : {1, 3, 4, 7, 8, 9, 15, 16, 33, 67}) {
    std::vector<ValType> re(static_cast<std::size_t>(count), 0.5);
    std::vector<ValType> im(static_cast<std::size_t>(count), -0.25);
    double norm2 = 0;
    std::uint64_t bad = 0;
    obs::scan_amplitudes(re.data(), im.data(), count, &norm2, &bad);
    EXPECT_EQ(bad, 0u) << count;
    EXPECT_NEAR(norm2, static_cast<double>(count) * (0.25 + 0.0625), 1e-9)
        << count;
  }
}

TEST(HealthScan, CountsNaNAndInfAtAnyPosition) {
  constexpr IdxType kCount = 37; // SIMD body + scalar tail
  for (IdxType pos = 0; pos < kCount; ++pos) {
    std::vector<ValType> re(static_cast<std::size_t>(kCount), 0.1);
    std::vector<ValType> im(static_cast<std::size_t>(kCount), 0.0);
    re[static_cast<std::size_t>(pos)] =
        std::numeric_limits<ValType>::quiet_NaN();
    im[static_cast<std::size_t>((pos * 7) % kCount)] =
        std::numeric_limits<ValType>::infinity();
    double norm2 = 0;
    std::uint64_t bad = 0;
    obs::scan_amplitudes(re.data(), im.data(), kCount, &norm2, &bad);
    EXPECT_EQ(bad, 2u) << "pos " << pos;
  }
}

TEST(HealthScan, NegativeInfinityAndDenormalsClassifiedCorrectly) {
  std::vector<ValType> re = {-std::numeric_limits<ValType>::infinity(),
                             std::numeric_limits<ValType>::denorm_min(),
                             -0.0, 1.0};
  std::vector<ValType> im = {0, 0, 0, 0};
  double norm2 = 0;
  std::uint64_t bad = 0;
  obs::scan_amplitudes(re.data(), im.data(), 4, &norm2, &bad);
  EXPECT_EQ(bad, 1u); // only -inf; denormals and -0.0 are finite
}

// --- HealthMonitor on every backend --------------------------------------

TEST(HealthMonitor, HealthyGhzRunTripsNothingOnEveryBackend) {
  SimConfig cfg;
  cfg.health_every_n = 1;
  cfg.remap = 0; // check count asserts the exact submitted gate count
  for (const Backend b : kAllBackends) {
    auto sim = make_sim(b, 8, cfg);
    sim->run(ghz(8));
    const obs::HealthStats& h = sim->last_report().health;
    EXPECT_TRUE(h.enabled) << sim->name();
    EXPECT_EQ(h.every_n, 1) << sim->name();
    EXPECT_EQ(h.checks, 8u) << sim->name();
    EXPECT_EQ(h.nan_checks, 0u) << sim->name();
    EXPECT_EQ(h.warns, 0u) << sim->name();
    EXPECT_FALSE(h.aborted) << sim->name();
    EXPECT_FALSE(h.tripped()) << sim->name();
    EXPECT_LT(h.max_drift, 1e-9) << sim->name();
    EXPECT_NEAR(h.last_norm2, 1.0, 1e-9) << sim->name();
  }
}

TEST(HealthMonitor, InjectedNaNTripsEveryBackend) {
  SimConfig cfg;
  cfg.health_every_n = 1;
  for (const Backend b : kAllBackends) {
    auto sim = make_sim(b, 8, cfg);
    StateVector sv = ghz_state(8);
    sv.amps[3] = Complex{std::numeric_limits<ValType>::quiet_NaN(), 0.0};
    sim->load_state(sv);
    sim->run(ghz(8));
    const obs::HealthStats& h = sim->last_report().health;
    EXPECT_GT(h.nan_checks, 0u) << sim->name();
    EXPECT_GT(h.non_finite, 0u) << sim->name();
    EXPECT_TRUE(h.tripped()) << sim->name();
  }
}

TEST(HealthMonitor, NormDriftTripsWarnOnEveryBackend) {
  SimConfig cfg;
  cfg.health_every_n = 1;
  for (const Backend b : kAllBackends) {
    auto sim = make_sim(b, 8, cfg);
    StateVector sv = ghz_state(8);
    for (auto& a : sv.amps) a *= 1.05; // norm² ≈ 1.1025: drift ≈ 0.1
    sim->load_state(sv);
    sim->run(ghz(8));
    const obs::HealthStats& h = sim->last_report().health;
    EXPECT_GT(h.warns, 0u) << sim->name();
    EXPECT_NEAR(h.max_drift, 1.05 * 1.05 - 1.0, 1e-6) << sim->name();
    EXPECT_GE(h.drift_gate_hi, h.drift_gate_lo) << sim->name();
    EXPECT_TRUE(h.tripped()) << sim->name();
    EXPECT_FALSE(h.aborted) << sim->name(); // warn-only by default
  }
}

TEST(HealthMonitor, AbortThresholdStopsTheRunInLockstepOnEveryBackend) {
  SimConfig cfg;
  cfg.health_every_n = 1;
  cfg.health_abort_drift = 1e-3;
  for (const Backend b : kAllBackends) {
    auto sim = make_sim(b, 8, cfg);
    StateVector sv = ghz_state(8);
    for (auto& a : sv.amps) a *= 1.05;
    sim->load_state(sv);
    // Must terminate (no deadlocked barrier, no std::terminate from a
    // throwing worker thread) and stop at the first checkpoint.
    sim->run(ghz(8));
    const obs::HealthStats& h = sim->last_report().health;
    EXPECT_TRUE(h.aborted) << sim->name();
    EXPECT_EQ(h.checks, 1u) << sim->name();
    EXPECT_TRUE(h.tripped()) << sim->name();
  }
}

TEST(HealthMonitor, AbortOnNanStopsAtFirstCheckpoint) {
  SimConfig cfg;
  cfg.health_every_n = 1;
  cfg.health_abort_on_nan = true;
  for (const Backend b : {Backend::kSingle, Backend::kShmem}) {
    auto sim = make_sim(b, 8, cfg);
    StateVector sv = ghz_state(8);
    sv.amps[1] = Complex{std::numeric_limits<ValType>::infinity(), 0.0};
    sim->load_state(sv);
    sim->run(ghz(8));
    const obs::HealthStats& h = sim->last_report().health;
    EXPECT_TRUE(h.aborted) << sim->name();
    EXPECT_EQ(h.checks, 1u) << sim->name();
  }
}

TEST(HealthMonitor, CadenceCountsCheckpointsIncludingFinalGate) {
  SimConfig cfg;
  cfg.health_every_n = 3;
  SingleSim sim(8, cfg);
  sim.run(ghz(8)); // 8 gates: checkpoints at 3, 6 and the final gate 8
  EXPECT_EQ(sim.last_report().health.checks, 3u);
  EXPECT_EQ(sim.last_report().health.every_n, 3);
}

TEST(HealthMonitor, OffByDefaultLeavesReportUntouched) {
  SingleSim sim(6);
  sim.run(ghz(6));
  const obs::HealthStats& h = sim.last_report().health;
  EXPECT_FALSE(h.enabled);
  EXPECT_EQ(h.checks, 0u);
  EXPECT_FALSE(h.tripped());
}

// --- traffic matrices ----------------------------------------------------

TEST(TrafficMatrix, ShmemRowSumsMatchPerPeByteTotals) {
  ShmemSim sim(8, 4);
  sim.run(ghz(8));
  const obs::TrafficMatrix& m = sim.last_report().matrix;
  ASSERT_EQ(m.n, 4);
  ASSERT_EQ(m.bytes.size(), 16u);
  const auto& per_pe = sim.per_pe_traffic();
  for (int pe = 0; pe < 4; ++pe) {
    EXPECT_EQ(m.row_sum(pe),
              per_pe[static_cast<std::size_t>(pe)].bytes_got +
                  per_pe[static_cast<std::size_t>(pe)].bytes_put)
        << "pe " << pe;
  }
  EXPECT_EQ(m.total(), sim.last_report().comm.bytes);
  EXPECT_GT(m.remote_total(), 0u); // GHZ crosses every partition cut
}

TEST(TrafficMatrix, PeerRowSumsMatchPerDeviceAccessCounts) {
  PeerSim sim(8, 4);
  sim.run(ghz(8));
  const obs::TrafficMatrix& m = sim.last_report().matrix;
  ASSERT_EQ(m.n, 4);
  const auto& per_dev = sim.per_device_traffic();
  for (int d = 0; d < 4; ++d) {
    const auto& t = per_dev[static_cast<std::size_t>(d)];
    EXPECT_EQ(m.row_sum(d),
              (t.local_access + t.remote_access) * sizeof(ValType))
        << "device " << d;
    // Diagonal = local accesses.
    EXPECT_EQ(m.at(d, d), t.local_access * sizeof(ValType)) << "device " << d;
  }
  EXPECT_EQ(m.total(), sim.last_report().comm.bytes);
}

TEST(TrafficMatrix, CoarseMatrixMatchesMessageBytesWithEmptyDiagonal) {
  CoarseMsgSim sim(8, 4);
  sim.run(ghz(8));
  const obs::TrafficMatrix& m = sim.last_report().matrix;
  ASSERT_EQ(m.n, 4);
  const MsgStats total = sim.stats();
  EXPECT_EQ(m.total(), total.bytes);
  EXPECT_EQ(m.total(), sim.last_report().comm.bytes);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(m.at(r, r), 0u) << "rank " << r; // no self-sends
  }
  // Column marginals: bytes landing on each rank match the aggregate
  // per-destination counters.
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(m.col_sum(d), total.per_dest_bytes[static_cast<std::size_t>(d)])
        << "dst " << d;
  }
}

TEST(TrafficMatrix, ImbalanceAndTableReportTheBusiestLink) {
  obs::TrafficMatrix m;
  m.n = 3;
  m.bytes = {10, 100, 0,  //
             20, 5, 300,  //
             0, 40, 0};
  const auto im = m.imbalance();
  EXPECT_EQ(im.busiest_src, 1);
  EXPECT_EQ(im.busiest_dst, 2);
  EXPECT_EQ(im.busiest_bytes, 300u);
  // Off-diagonal non-zero links: 100, 20, 300, 40 -> mean 115.
  EXPECT_NEAR(im.max_mean_ratio, 300.0 / 115.0, 1e-9);
  EXPECT_EQ(m.row_sum(1), 325u);
  EXPECT_EQ(m.col_sum(2), 300u);
  EXPECT_EQ(m.remote_total(), 460u);
  const std::string table = m.table();
  EXPECT_NE(table.find("busiest link 1 -> 2"), std::string::npos);
  EXPECT_NE(table.find("dst"), std::string::npos);
}

TEST(TrafficMatrix, SingleBackendLeavesMatrixEmpty) {
  SingleSim sim(6);
  sim.run(ghz(6));
  EXPECT_TRUE(sim.last_report().matrix.empty());
}

// --- report JSON ---------------------------------------------------------

TEST(ReportJson, ValidJsonWithHealthMatrixAndFlightOnEveryBackend) {
  SimConfig cfg;
  cfg.health_every_n = 2;
  for (const Backend b : kAllBackends) {
    auto sim = make_sim(b, 8, cfg);
    sim->run(ghz(8));
    const std::string json = obs::to_json(sim->last_report());
    std::size_t err = 0;
    EXPECT_TRUE(obs::jsonlite::valid(json, &err))
        << sim->name() << ": JSON error at byte " << err << "\n"
        << json;
    EXPECT_NE(json.find("\"schema\":\"svsim-report-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"health\":{\"enabled\":true"), std::string::npos)
        << sim->name();
  }
}

TEST(ReportJson, NonFiniteNumbersBecomeNull) {
  obs::RunReport r;
  r.backend = "test";
  r.health.enabled = true;
  r.health.last_norm2 = std::numeric_limits<double>::quiet_NaN();
  r.health.max_drift = std::numeric_limits<double>::infinity();
  const std::string json = obs::to_json(r);
  std::size_t err = 0;
  EXPECT_TRUE(obs::jsonlite::valid(json, &err)) << "byte " << err;
  EXPECT_NE(json.find("\"last_norm2\":null"), std::string::npos);
  EXPECT_NE(json.find("\"max_drift\":null"), std::string::npos);
}

// --- flight recorder -----------------------------------------------------

TEST(FlightRing, WrapsKeepingTheMostRecentEvents) {
  obs::FlightRing ring;
  constexpr std::uint64_t kPushes = 1000;
  for (std::uint64_t i = 0; i < kPushes; ++i) {
    obs::FlightEvent e;
    e.gate_id = i;
    ring.push(e);
  }
  EXPECT_EQ(ring.head.load(), kPushes);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), obs::FlightRing::kCap);
  // Oldest retained event is push kPushes - kCap; seq stamps are the
  // monotonic push index.
  EXPECT_EQ(events.front().seq, kPushes - obs::FlightRing::kCap);
  EXPECT_EQ(events.back().seq, kPushes - 1);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  EXPECT_EQ(events.back().gate_id, kPushes - 1);
}

TEST(FlightRing, ConcurrentPerWorkerWritersWrapIndependently) {
  // One writer per ring (the recorder's contract): all workers hammer
  // their own ring concurrently; each ring must wrap correctly.
  constexpr int kWorkers = 8;
  constexpr std::uint64_t kPushes = 40000;
  std::array<obs::FlightRing, kWorkers> rings;
  std::vector<std::thread> writers;
  writers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    writers.emplace_back([&rings, w] {
      for (std::uint64_t i = 0; i < kPushes; ++i) {
        obs::FlightEvent e;
        e.gate_id = i;
        e.worker = static_cast<std::int16_t>(w);
        rings[static_cast<std::size_t>(w)].push(e);
      }
    });
  }
  for (auto& t : writers) t.join();
  for (int w = 0; w < kWorkers; ++w) {
    const auto events = rings[static_cast<std::size_t>(w)].snapshot();
    ASSERT_EQ(events.size(), obs::FlightRing::kCap) << "worker " << w;
    EXPECT_EQ(events.back().seq, kPushes - 1) << "worker " << w;
    EXPECT_EQ(events.back().gate_id, kPushes - 1) << "worker " << w;
    for (std::size_t i = 1; i < events.size(); ++i) {
      ASSERT_EQ(events[i].seq, events[i - 1].seq + 1)
          << "worker " << w << " at " << i;
    }
  }
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

/// On every dispatch backend and on SingleSim's thread team, with and
/// without the blocked schedule, each worker's ring ends with this run's
/// gates in circuit order and a final health checkpoint, and each
/// worker's last gate published to the progress board is the circuit's
/// last.
TEST(FlightRecorder, RunDrainsGateEventsIntoTheReport) {
  if (!obs::FlightRecorder::global().enabled()) {
    GTEST_SKIP() << "SVSIM_FLIGHT=0 in the environment";
  }
  const Circuit c = ghz(6);
  const auto n_gates = static_cast<std::size_t>(c.n_gates());
  obs::ProgressBoard& board = obs::ProgressBoard::global();
  board.set_enabled(true);
  for (const char* backend : {"single", "single x2", "peer", "shmem"}) {
    for (const int window : {0, 6}) {
      SCOPED_TRACE(std::string(backend) + " sched_window=" +
                   std::to_string(window));
      SimConfig cfg; // flight on by default
      cfg.sched_window = window;
      cfg.remap = 0; // gate ids are the submitted circuit's
      cfg.health_every_n = static_cast<int>(n_gates); // one final checkpoint
      const auto sim = make_backend(backend, 6, cfg);
      sim->run(c);
      const obs::RunReport& rep = sim->last_report();
      EXPECT_EQ(rep.sched.active, window != 0);
      // Each worker scans only its own slice: a view of the whole state
      // per worker would sum to a norm of n_workers.
      EXPECT_EQ(rep.health.checks, 1u);
      EXPECT_NEAR(rep.health.last_norm2, 1.0, 1e-12);
      const auto& flight = rep.flight;
      ASSERT_GE(flight.size(), n_gates);
      // The tail of the drained stream is this run's final checkpoint,
      // right after its last gate.
      EXPECT_EQ(flight.back().kind, obs::FlightEvent::kCheckpoint);
      EXPECT_EQ(flight.back().gate_id, n_gates);
      const auto last = std::find_if(
          flight.rbegin(), flight.rend(), [](const obs::FlightEvent& e) {
            return e.kind == obs::FlightEvent::kGate;
          });
      ASSERT_NE(last, flight.rend());
      EXPECT_EQ(static_cast<OP>(last->op), OP::CX);
      EXPECT_EQ(last->gate_id, n_gates);
      for (int w = 0; w < rep.n_workers; ++w) {
        std::vector<obs::FlightEvent> gates;
        for (const obs::FlightEvent& e : flight) {
          if (e.worker == w && e.kind == obs::FlightEvent::kGate) {
            gates.push_back(e);
          }
        }
        ASSERT_GE(gates.size(), n_gates) << "worker " << w;
        for (std::size_t k = 0; k < n_gates; ++k) {
          const obs::FlightEvent& e = gates[gates.size() - n_gates + k];
          const Gate& g = c.gates()[k];
          EXPECT_EQ(e.gate_id, k + 1) << "worker " << w;
          EXPECT_EQ(static_cast<OP>(e.op), g.op) << "worker " << w;
          EXPECT_EQ(e.qb0, g.qb0) << "worker " << w;
          EXPECT_EQ(e.qb1, g.qb1) << "worker " << w;
        }
      }
      const obs::ProgressSnapshot snap = board.snapshot();
      EXPECT_EQ(snap.total_gates, n_gates);
      ASSERT_EQ(snap.pes.size(), static_cast<std::size_t>(rep.n_workers));
      for (const obs::ProgressSnapshot::Pe& pe : snap.pes) {
        EXPECT_EQ(pe.gates_done, n_gates);
      }
    }
  }
  board.set_enabled(false);
}

TEST(FlightRecorder, DisabledViaConfigRecordsNothing) {
  SimConfig cfg;
  cfg.flight = false;
  SingleSim sim(4, cfg);
  sim.run(ghz(4));
  EXPECT_TRUE(sim.last_report().flight.empty());
}

// --- crash dump (death test) ---------------------------------------------

TEST(FlightCrashDeathTest, SigfpeProducesAFlightDumpAndDiesBySignal) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        obs::FlightRecorder& fr = obs::FlightRecorder::global();
        fr.set_enabled(true);
        fr.begin_run("deathtest", 4, 1);
        obs::FlightEvent e;
        e.gate_id = 42;
        e.kind = obs::FlightEvent::kGate;
        fr.ring(0)->push(e);
        std::raise(SIGFPE);
      },
      ::testing::KilledBySignal(SIGFPE), "flight recorder dump");
}

TEST(FlightCrashDeathTest, SigsegvHandlerAlsoDumps) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        obs::FlightRecorder& fr = obs::FlightRecorder::global();
        fr.set_enabled(true);
        fr.begin_run("deathtest", 4, 1);
        std::raise(SIGSEGV);
      },
      ::testing::KilledBySignal(SIGSEGV), "flight recorder dump");
}

} // namespace
} // namespace svsim
