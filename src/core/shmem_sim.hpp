// ShmemSim: multi-node scale-out backend (§3.2.3, Listing 5).
//
// Each SHMEM processing element owns one simulator partition: the state
// vector is allocated in the symmetric heap (nvshmem_malloc), partitioned
// evenly by natural array order, and a gate on a partition-selecting
// qubit reaches amplitudes through one-sided fine-grained get/put
// ("double_g"/"double_p"), with a barrier_all after each gate. Gates on
// PE-local qubits and blocked windows run owner-computes on the PE's own
// partition (DESIGN.md §13). The PE team is provided by the
// svsim::shmem runtime (DESIGN.md explains the substitution for
// OpenSHMEM/NVSHMEM); traffic counters record the exact local/remote
// communication volume the machine model prices for Figures 12-13.
#pragma once

#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/dispatch.hpp"
#include "core/simulator.hpp"
#include "core/space.hpp"
#include "shmem/shmem.hpp"

namespace svsim {

class ShmemSim final : public Simulator {
public:
  /// `heap_bytes` is the per-PE symmetric heap size; the default fits the
  /// partition of a state vector up to 2^26 amplitudes on 1 PE.
  ShmemSim(IdxType n_qubits, int n_pes, SimConfig cfg = {},
           std::size_t heap_bytes = 0);
  ~ShmemSim() override;

  const char* name() const override { return "shmem"; }
  IdxType n_qubits() const override { return n_; }
  int n_pes() const { return n_pes_; }
  void reset_state() override;
  void run(const Circuit& circuit) override;
  StateVector state() const override;
  void load_state(const StateVector& sv) override;
  const std::vector<IdxType>& cbits() const override { return cbits_; }
  std::vector<IdxType> sample(IdxType shots) override;

  /// Aggregate one-sided traffic of the last run() across PEs.
  shmem::TrafficStats traffic() const { return last_traffic_; }
  /// Per-PE counters of the last run() (index = PE id).
  const std::vector<shmem::TrafficStats>& per_pe_traffic() const {
    return runtime_.per_pe_traffic();
  }

private:
  IdxType n_;
  IdxType dim_;
  int n_pes_;
  IdxType lg_part_;
  SimConfig cfg_;
  // Owner-computes kernels for PE-local gates, resolved at construction.
  const KernelTable<LocalSpace>::Table* local_table_;

  shmem::Runtime runtime_;
  // Per-PE pointers into the symmetric allocation (valid for the lifetime
  // of the runtime arenas; allocated once in the constructor).
  std::vector<ValType*> real_sym_;
  std::vector<ValType*> imag_sym_;

  std::vector<IdxType> cbits_;
  /// Live logical→physical qubit layout (ir/remap). Empty = identity;
  /// persists across run() calls so sample()'s internal measure-all
  /// run sees the permutation the previous circuit left behind.
  std::vector<IdxType> layout_;
  /// Flattened per-measure-all layout snapshots of the current run()
  /// (storage behind MeasureCtx::ma_layouts).
  std::vector<IdxType> ma_layouts_;
  MeasureCtx mctx_;
  std::vector<Rng> rngs_; // per-PE replicas, same seed
  shmem::TrafficStats last_traffic_;
  // Memory-registry ids of the per-PE arenas (registered externally:
  // the shmem layer itself cannot link the obs library).
  std::vector<std::uint64_t> mem_ids_;
};

} // namespace svsim
