// PeerSim: single-node scale-up backend (§3.2.2, Listing 4).
//
// The state vector is partitioned evenly across n_devices "devices"
// following natural array order; each device owns one partition with a
// unique pointer, and the pointers are collected in a pointer array shared
// by all devices — the manual PGAS construction the paper builds on
// GPUDirect peer access / Infinity Fabric. One worker thread drives each
// device (the paper's one-OpenMP-thread-per-GPU runtime); every gate is a
// grid-stride slice per device followed by a multi-device grid sync.
// Gates on device-local qubits and blocked windows run owner-computes on
// the device's own partition (DESIGN.md §13); only gates on a
// partition-selecting qubit, and measure/reset, go through the pointer
// array.
#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "core/dispatch.hpp"
#include "core/simulator.hpp"
#include "core/space.hpp"

namespace svsim {

class PeerSim final : public Simulator {
public:
  PeerSim(IdxType n_qubits, int n_devices, SimConfig cfg = {});

  const char* name() const override { return "peer"; }
  IdxType n_qubits() const override { return n_; }
  int n_devices() const { return n_dev_; }
  void reset_state() override;
  void run(const Circuit& circuit) override;
  StateVector state() const override;
  void load_state(const StateVector& sv) override;
  const std::vector<IdxType>& cbits() const override { return cbits_; }
  std::vector<IdxType> sample(IdxType shots) override;

  /// Aggregate local/remote access counts from the last run().
  PeerTraffic traffic() const;
  const std::vector<PeerTraffic>& per_device_traffic() const {
    return traffic_;
  }

private:
  IdxType n_;
  IdxType dim_;
  int n_dev_;
  IdxType lg_part_; // log2(amplitudes per device)
  SimConfig cfg_;
  // Owner-computes kernels for PE-local gates, resolved at construction.
  const KernelTable<LocalSpace>::Table* local_table_;

  // One partition per device — "SAFE_ALOC_GPU(sv_real_ptr[d], ...)".
  std::vector<obs::TrackedBuffer<ValType>> real_parts_;
  std::vector<obs::TrackedBuffer<ValType>> imag_parts_;
  // The shared pointer arrays broadcast to all devices.
  std::vector<ValType*> real_ptrs_;
  std::vector<ValType*> imag_ptrs_;

  std::vector<IdxType> cbits_;
  /// Live logical→physical qubit layout (ir/remap). Empty = identity;
  /// persists across run() calls so sample()'s internal measure-all
  /// run sees the permutation the previous circuit left behind.
  std::vector<IdxType> layout_;
  /// Flattened per-measure-all layout snapshots of the current run()
  /// (storage behind MeasureCtx::ma_layouts).
  std::vector<IdxType> ma_layouts_;
  MeasureCtx mctx_;
  std::vector<Rng> rngs_; // per-worker replicas, same seed (lockstep)
  std::vector<ValType> scratch_;
  std::vector<PeerTraffic> traffic_; // one cache line per device
  // n_dev rows of element-access counts (row d = device d's accesses by
  // owning partition), each padded to whole cache lines so no two devices
  // share one; each PeerTraffic::per_dest points at its row.
  AlignedBuffer<std::uint64_t> dest_counts_;
};

} // namespace svsim
