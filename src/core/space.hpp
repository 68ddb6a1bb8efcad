// Address-space policies: the one abstraction that turns a single kernel
// source into the paper's three deployment tiers.
//
//  * LocalSpace  — single device: raw pointers into one partition
//                  (§3.2.1, Listing 3's scalar loop body).
//  * PeerSpace   — single-node scale-up: the state vector is partitioned
//                  across devices and remote partitions are reached through
//                  a shared pointer array, exactly the GPUDirect peer-access
//                  construction of Listing 4 (pos / sv_num_per_dev selects
//                  the owner, pos % sv_num_per_dev the local offset).
//  * ShmemSpace  — multi-node scale-out: the state vector lives in the
//                  SHMEM symmetric heap and an element access through the
//                  policy is a one-sided get/put, Listing 5's
//                  nvshmem_double_g / nvshmem_double_p pattern.
//  * BatchedSpace — B state vectors batch-innermost: the unitary kernels
//                  run each gate body over the B members of an amplitude.
//
// Owner-computes (DESIGN.md §13): every solo policy exposes local_view(),
// a LocalSpace over the worker's own partition. The gate loop runs gates
// whose operands are all below the partition bits, and blocked windows,
// on that view with partition-relative indices, so only gates on a
// partition-selecting qubit and measure/reset (which need the
// collectives) pay the per-element one-sided access above. Sweeps that
// read other partitions wholesale resolve them once through part_real /
// part_imag (the shmem_ptr / nvshmem_ptr idiom) and account the reads in
// bulk with count_reads, leaving the traffic counters exactly as
// per-element access would.
//
// Besides element access, the policy carries the small SPMD protocol the
// non-unitary kernels (measure/reset) need: worker identity, a barrier, a
// sum-reduction, and a collective uniform draw that returns the same value
// on every worker (each worker holds a replica of the same-seeded RNG and
// advances it only inside collective draws, so the replicas stay in
// lockstep). LocalSpace carries it too: SingleSim runs its gate loop on a
// team of host threads over the one shared state vector (DESIGN.md §15),
// and each worker's local_view() is its contiguous 1/T slice.
#pragma once

#include <type_traits>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "shmem/barrier.hpp"
#include "shmem/shmem.hpp"

namespace svsim {

/// Shared mutable context for measurement-style kernels. One instance per
/// simulator; all workers see the same object.
struct MeasureCtx {
  IdxType* cbits = nullptr;      // classical register (size n_cbits)
  IdxType* results = nullptr;    // MA shot outcomes (size n_shots)
  IdxType n_shots = 0;
  /// Virtual-readout permutation table (ir/remap): flattened n_qubits-wide
  /// logical→physical layout rows, indexed by the snapshot id an OP::MA
  /// gate carries in its cbit field. Null when the circuit was not
  /// remapped — kern_measure_all then sweeps physical order directly.
  const IdxType* ma_layouts = nullptr;
  IdxType n_qubits = 0;
};

/// The team sum-reduction shared by LocalSpace and PeerSpace: every
/// worker posts its partial to its scratch slot, and after a barrier each
/// one sums the slots in worker order, so all workers return the same
/// value. One kReduction wait span covers both barriers (inner kBarrier
/// scopes are nesting-suppressed), mirroring shmem's all_gather.
inline ValType team_reduce_sum(shmem::Barrier* barrier, ValType* scratch,
                               int worker, int n_workers, ValType v) {
  obs::WaitScope wait(obs::WaitKind::kReduction);
  scratch[worker] = v;
  barrier->arrive_and_wait();
  ValType total = 0;
  for (int w = 0; w < n_workers; ++w) total += scratch[w];
  barrier->arrive_and_wait(); // scratch reusable afterwards
  return total;
}

// ---------------------------------------------------------------------------
// LocalSpace: one device owns the full state vector; SingleSim's thread
// team shares it.
// ---------------------------------------------------------------------------
struct LocalSpace {
  ValType* real = nullptr;
  ValType* imag = nullptr;
  IdxType dim = 0; // 2^n amplitudes
  MeasureCtx* mctx = nullptr;
  Rng* rng = nullptr; // per-worker replica, same seed on every worker

  // SingleSim's thread team; the defaults are a team of one, which needs
  // no barrier or scratch.
  int worker_id = 0;
  int num_workers = 1;
  shmem::Barrier* barrier = nullptr; // the device "grid.sync()"
  ValType* scratch = nullptr;        // n_workers slots for reductions

  // --- element access ---
  ValType get_real(IdxType i) const { return real[i]; }
  ValType get_imag(IdxType i) const { return imag[i]; }
  void set_real(IdxType i, ValType v) const { real[i] = v; }
  void set_imag(IdxType i, ValType v) const { imag[i] = v; }

  // --- SPMD protocol ---
  int worker() const { return worker_id; }
  int n_workers() const { return num_workers; }
  void sync() const {
    if (barrier != nullptr) barrier->arrive_and_wait();
  }
  ValType reduce_sum(ValType v) const {
    if (num_workers == 1) return v;
    return team_reduce_sum(barrier, scratch, worker_id, num_workers, v);
  }
  ValType collective_uniform() const { return rng->next_double(); }

  // --- the worker's own contiguous 1/n_workers slice of the state ---
  LocalSpace local_view() const {
    if (num_workers == 1) return *this;
    const IdxType part = dim / num_workers;
    const IdxType first = part * worker_id;
    return LocalSpace{real + first, imag + first, part, mctx, rng};
  }
};

// ---------------------------------------------------------------------------
// BatchedSpace: BatchedSim's B state vectors, batch-innermost. Not run by
// the gate loop: BatchedSim calls the unitary kernels on it directly, and
// the walks run each body over the B contiguous members of an amplitude
// (core/kernels/apply.hpp).
// ---------------------------------------------------------------------------
struct BatchedSpace {
  ValType* real = nullptr; // (amp k, member b) at [k*batch + b]
  ValType* imag = nullptr;
  IdxType dim = 0;
  IdxType batch = 0;
  /// The running gate's coefficient rows: member b's row r at
  /// coef[r*batch + b], written at upload from the gate's body.
  const ValType* coef = nullptr;
  Rng* rngs = nullptr;        // batch streams, member b seeded base+b
  IdxType* cbits = nullptr;   // [cbit*batch + b]
  IdxType* results = nullptr; // measure-all: [b*n_shots + s]
  IdxType n_shots = 0;
};

/// A partitioned Space (PeerSpace, ShmemSpace): the gate loop runs
/// owner-computes work on its local_view().
template <class Space>
inline constexpr bool kPartitioned = !std::is_same_v<Space, LocalSpace>;

/// Per-device communication counters for the peer tier (local vs
/// remote-partition element accesses through the pointer array). When
/// `per_dest` points at an n_workers-sized array, every access is also
/// attributed to the partition it touched — the raw data for the run
/// report's PE×PE traffic matrix. One cache line per device, so the
/// devices' counters never share a line.
struct alignas(64) PeerTraffic {
  std::uint64_t local_access = 0;
  std::uint64_t remote_access = 0;
  std::uint64_t* per_dest = nullptr; // element accesses by owning device
};

// ---------------------------------------------------------------------------
// PeerSpace: partitions behind a shared pointer array (Listing 4).
// ---------------------------------------------------------------------------
struct PeerSpace {
  ValType* const* real_parts = nullptr; // pointer array, one per device
  ValType* const* imag_parts = nullptr;
  IdxType lg_part = 0; // log2(amplitudes per device)
  IdxType dim = 0;
  MeasureCtx* mctx = nullptr;
  Rng* rng = nullptr; // per-worker replica, same seed on every worker

  int worker_id = 0;
  int num_workers = 1;
  shmem::Barrier* barrier = nullptr;  // device "grid.sync()"
  ValType* scratch = nullptr;         // n_workers slots for reductions
  PeerTraffic* traffic = nullptr;     // this worker's counters (optional)

  IdxType part_mask() const { return pow2(lg_part) - 1; }

  // Peer counts reads and writes alike, so one access = one "read".
  void count(IdxType i) const {
    count_reads(static_cast<int>(i >> lg_part), 1);
  }

  /// Account `n` accesses to device `dest`'s partition (bulk form of
  /// count(), for sweeps that read through part_real / part_imag).
  void count_reads(int dest, std::uint64_t n) const {
    if (traffic != nullptr) {
      if (dest == worker_id) {
        traffic->local_access += n;
      } else {
        traffic->remote_access += n;
      }
      if (traffic->per_dest != nullptr) traffic->per_dest[dest] += n;
    }
  }
  const ValType* part_real(int w) const { return real_parts[w]; }
  const ValType* part_imag(int w) const { return imag_parts[w]; }

  ValType get_real(IdxType i) const {
    count(i);
    return real_parts[i >> lg_part][i & part_mask()];
  }
  ValType get_imag(IdxType i) const {
    count(i);
    return imag_parts[i >> lg_part][i & part_mask()];
  }
  void set_real(IdxType i, ValType v) const {
    count(i);
    real_parts[i >> lg_part][i & part_mask()] = v;
  }
  void set_imag(IdxType i, ValType v) const {
    count(i);
    imag_parts[i >> lg_part][i & part_mask()] = v;
  }

  int worker() const { return worker_id; }
  int n_workers() const { return num_workers; }
  void sync() const { barrier->arrive_and_wait(); }

  ValType reduce_sum(ValType v) const {
    return team_reduce_sum(barrier, scratch, worker_id, num_workers, v);
  }

  ValType collective_uniform() const { return rng->next_double(); }

  // --- owner-computes view of this device's partition ---
  LocalSpace local_view() const {
    return LocalSpace{real_parts[worker_id], imag_parts[worker_id],
                      pow2(lg_part), mctx, rng};
  }
};

// ---------------------------------------------------------------------------
// ShmemSpace: symmetric-heap partitions behind one-sided get/put
// (Listing 5).
// ---------------------------------------------------------------------------
struct ShmemSpace {
  shmem::Ctx* ctx = nullptr;
  ValType* real_sym = nullptr; // my partition of the symmetric allocation
  ValType* imag_sym = nullptr;
  IdxType lg_part = 0; // log2(amplitudes per PE)
  IdxType dim = 0;
  MeasureCtx* mctx = nullptr;
  Rng* rng = nullptr; // per-PE replica, same seed on every PE

  IdxType part_mask() const { return pow2(lg_part) - 1; }
  int owner(IdxType i) const { return static_cast<int>(i >> lg_part); }

  ValType get_real(IdxType i) const {
    return ctx->g(real_sym + (i & part_mask()), owner(i));
  }
  ValType get_imag(IdxType i) const {
    return ctx->g(imag_sym + (i & part_mask()), owner(i));
  }
  void set_real(IdxType i, ValType v) const {
    ctx->p(real_sym + (i & part_mask()), v, owner(i));
  }
  void set_imag(IdxType i, ValType v) const {
    ctx->p(imag_sym + (i & part_mask()), v, owner(i));
  }

  int worker() const { return ctx->pe(); }
  int n_workers() const { return ctx->n_pes(); }
  void sync() const { ctx->barrier_all(); }
  ValType reduce_sum(ValType v) const { return ctx->all_reduce_sum(v); }
  ValType collective_uniform() const { return rng->next_double(); }

  // --- partition pointers for bulk sweeps (shmem_ptr) ---
  const ValType* part_real(int pe) const {
    return ctx->translate(real_sym, pe);
  }
  const ValType* part_imag(int pe) const {
    return ctx->translate(imag_sym, pe);
  }
  void count_reads(int pe, std::uint64_t n) const {
    ctx->account_gets(pe, n, sizeof(ValType));
  }

  // --- owner-computes view of this PE's partition ---
  LocalSpace local_view() const {
    return LocalSpace{real_sym, imag_sym, pow2(lg_part), mctx, rng};
  }
};

} // namespace svsim
