// exit_check: a profiled process that exits while the memtrack sampler
// thread is still running. A TrackedBuffer is leaked on purpose, so the
// sampler — which rewrites the trace file with an rss_mb counter every
// fourth tick — runs until ~MemRegistry joins it during static
// destruction, after every function-local static built later (the trace
// sink is first used at the end of the run below) would already be gone.
// The run records a few thousand gate spans so each of those rewrites
// takes long enough to overlap the exit. Driven by exit_smoke.cmake under
// SVSIM_PROFILE and SVSIM_MEMTRACK_MS=1; exit 0 is the only pass.
#include <chrono>
#include <cstdio>
#include <thread>

#include "core/single_sim.hpp"
#include "obs/memtrack.hpp"

// Never released; a global keeps it reachable for leak checkers.
svsim::obs::TrackedBuffer<double>* kept = nullptr;

int main() {
  using namespace svsim;
  kept = new obs::TrackedBuffer<double>(1 << 16);
  constexpr IdxType kQubits = 6;
  SimConfig cfg;
  cfg.sched_window = 0; // one trace span per gate
  SingleSim sim(kQubits, cfg);
  Circuit c(kQubits);
  for (int r = 0; r < 4000; ++r) {
    for (IdxType q = 0; q < kQubits; ++q) c.h(q);
  }
  sim.run(c);
  // Let the 1 ms sampler reach a trace flush before main returns.
  std::this_thread::sleep_for(std::chrono::milliseconds(6));
  std::printf("exit_check: ran %lld gates\n",
              static_cast<long long>(c.n_gates()));
  return 0;
}
