// Function-pointer gate dispatch — the paper's Listing 1 design.
//
// CUDA/HIP lack polymorphism, and parsing/branching on the gate kind
// inside the device kernel is costly, so SV-Sim gives every gate object a
// *function pointer* selected once when the circuit is "uploaded" to a
// backend. The pointers come from a dispatch table preloaded at simulator
// construction (the paper's optimization that reduces
// cudaMemcpyFromSymbol calls from #gates to #supported-ops); uploading a
// dynamically synthesized circuit is then a pure table lookup per gate —
// no JIT, no recompilation, no runtime parsing. The simulation kernel is a
// single loop of indirect calls (Listing 1 lines 21-26).
//
// Here the same structure is realized per address-space policy: each
// instantiation of KernelTable<Space> is "the device's constant-memory
// function table" and DeviceGate<Space> is the uploaded gate. The single
// launched kernel, simulation_kernel_sched<Space>, walks the uploaded
// gates through a schedule (core/kernels/blocked.hpp); the per-gate loop
// is its trivial schedule.
#pragma once

#include <array>
#include <type_traits>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "core/kernels/gates1q.hpp"
#include "core/kernels/gates2q.hpp"
#include "core/kernels/nonunitary.hpp"
#include "core/space.hpp"
#include "ir/circuit.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace svsim {

template <class Space>
using KernelFn = void (*)(const Gate&, const Space&, IdxType, IdxType);

/// The preloaded op -> kernel table for one address space.
template <class Space>
class KernelTable {
public:
  using Fn = KernelFn<Space>;
  using Table = std::array<Fn, kNumOps>;

  /// Built exactly once per Space instantiation.
  static const Table& get() {
    static const Table table = build();
    return table;
  }

private:
  static Table build() {
    namespace k = kernels;
    Table t{};
    t[static_cast<int>(OP::U3)] = &k::kern_u3<Space>;
    t[static_cast<int>(OP::U2)] = &k::kern_u2<Space>;
    t[static_cast<int>(OP::U1)] = &k::kern_u1<Space>;
    t[static_cast<int>(OP::CX)] = &k::kern_cx<Space>;
    t[static_cast<int>(OP::ID)] = &k::kern_id<Space>;
    t[static_cast<int>(OP::X)] = &k::kern_x<Space>;
    t[static_cast<int>(OP::Y)] = &k::kern_y<Space>;
    t[static_cast<int>(OP::Z)] = &k::kern_z<Space>;
    t[static_cast<int>(OP::H)] = &k::kern_h<Space>;
    t[static_cast<int>(OP::S)] = &k::kern_s<Space>;
    t[static_cast<int>(OP::SDG)] = &k::kern_sdg<Space>;
    t[static_cast<int>(OP::T)] = &k::kern_t<Space>;
    t[static_cast<int>(OP::TDG)] = &k::kern_tdg<Space>;
    t[static_cast<int>(OP::RX)] = &k::kern_rx<Space>;
    t[static_cast<int>(OP::RY)] = &k::kern_ry<Space>;
    t[static_cast<int>(OP::RZ)] = &k::kern_rz<Space>;
    t[static_cast<int>(OP::CZ)] = &k::kern_cz<Space>;
    t[static_cast<int>(OP::CY)] = &k::kern_cy<Space>;
    t[static_cast<int>(OP::CH)] = &k::kern_ch<Space>;
    t[static_cast<int>(OP::SWAP)] = &k::kern_swap<Space>;
    t[static_cast<int>(OP::CRX)] = &k::kern_crx<Space>;
    t[static_cast<int>(OP::CRY)] = &k::kern_cry<Space>;
    t[static_cast<int>(OP::CRZ)] = &k::kern_crz<Space>;
    t[static_cast<int>(OP::CU1)] = &k::kern_cu1<Space>;
    t[static_cast<int>(OP::CU3)] = &k::kern_cu3<Space>;
    t[static_cast<int>(OP::RXX)] = &k::kern_rxx<Space>;
    t[static_cast<int>(OP::RZZ)] = &k::kern_rzz<Space>;
    t[static_cast<int>(OP::M)] = &k::kern_measure<Space>;
    t[static_cast<int>(OP::MA)] = &k::kern_measure_all<Space>;
    t[static_cast<int>(OP::RESET)] = &k::kern_reset<Space>;
    t[static_cast<int>(OP::BARRIER)] = &k::kern_barrier<Space>;
    return t;
  }
};

/// Kernel table for LocalSpace at a given SIMD level: the scalar table
/// with vectorized entries patched in where an implementation exists
/// (defined in simd_kernels.cpp). Throws when the level is not built in.
const KernelTable<LocalSpace>::Table& local_kernel_table(SimdLevel level);

/// Stands in for DeviceGate::local_fn on LocalSpace, which has no
/// partition to run owner-computes on.
struct NoLocalFn {};

/// A gate after upload: the frontend Gate plus its resolved kernel pointer
/// and total work-item count (pairs for 1-qubit ops, quadruples for
/// 2-qubit ops, amplitudes for measure_all). On a partitioned Space,
/// `local_fn` is also bound for a unitary gate whose operands all lie
/// below the partition bits: each worker's slice of such a gate is
/// exactly its own partition, so it runs owner-computes on local_view().
/// On LocalSpace the member is empty and takes no space: a wider
/// uploaded gate measurably slowed SingleSim's many short VQE runs.
template <class Space>
struct DeviceGate {
  KernelFn<Space> fn;
  Gate g;
  IdxType work;
  [[no_unique_address]] std::conditional_t<kPartitioned<Space>,
                                           KernelFn<LocalSpace>, NoLocalFn>
      local_fn{};
};

/// Work items a gate contributes for an n-qubit register.
inline IdxType gate_work_items(const Gate& g, IdxType n) {
  switch (g.op) {
    case OP::BARRIER: return 0;
    case OP::MA: return pow2(n);
    case OP::M:
    case OP::RESET: return half_dim(n);
    default:
      return op_info(g.op).n_qubits == 1 ? half_dim(n) : quarter_dim(n);
  }
}

/// "Upload" a circuit: resolve every gate's kernel pointer from the
/// preloaded table. Pure CPU-side table lookups (the paper's point: the
/// cost is O(#ops) symbol fetches at init + O(#gates) pointer copies here).
/// Partitioned backends pass `local_table` and their partition exponent
/// `lg_part` to also bind DeviceGate::local_fn for PE-local gates.
template <class Space>
std::vector<DeviceGate<Space>> upload_circuit(
    const Circuit& circuit, const typename KernelTable<Space>::Table& table,
    const KernelTable<LocalSpace>::Table* local_table = nullptr,
    IdxType lg_part = 0) {
  std::vector<DeviceGate<Space>> out;
  out.reserve(circuit.gates().size());
  const IdxType n = circuit.n_qubits();
  for (const Gate& g : circuit.gates()) {
    auto fn = table[static_cast<int>(g.op)];
    SVSIM_CHECK(fn != nullptr,
                std::string("no kernel for op ") + op_name(g.op) +
                    " (compound ops must be lowered before upload)");
    DeviceGate<Space> dg{fn, g, gate_work_items(g, n)};
    if constexpr (kPartitioned<Space>) {
      if (local_table != nullptr && is_unitary_op(g.op) &&
          g.op != OP::BARRIER && g.qb0 < lg_part && g.qb1 < lg_part) {
        dg.local_fn = (*local_table)[static_cast<int>(g.op)];
      }
    }
    out.push_back(dg);
  }
  return out;
}

namespace detail {

/// Push one per-gate event onto this worker's flight ring (no-op ring ==
/// nullptr).
inline void flight_gate_event(obs::FlightRing* ring, std::uint64_t gate_id,
                              const Gate& g) {
  if (ring == nullptr) return;
  obs::FlightEvent e;
  e.ts_us = obs::trace_now_us();
  e.gate_id = gate_id;
  e.kind = obs::FlightEvent::kGate;
  e.op = static_cast<std::uint16_t>(g.op);
  e.qb0 = static_cast<std::int32_t>(g.qb0);
  e.qb1 = static_cast<std::int32_t>(g.qb1);
  ring->push(e);
}

/// One collective health checkpoint: every worker SIMD-scans its local
/// partition, the partials combine through the Space's own reduce_sum (so
/// workers stay lockstep), worker 0 records the result, and the returned
/// abort verdict is a pure function of the reduced values — identical on
/// every worker, so gate loops break together.
template <class Space>
inline bool health_checkpoint(const Space& sp, obs::HealthMonitor* health,
                              obs::FlightRing* ring, std::uint64_t gate_id) {
  double norm2 = 0;
  std::uint64_t bad = 0;
  const LocalSpace own = sp.local_view();
  obs::scan_amplitudes(own.real, own.imag, own.dim, &norm2, &bad);
  const double g_norm2 =
      static_cast<double>(sp.reduce_sum(static_cast<ValType>(norm2)));
  // Counts are far below 2^53, so the ValType reduction is exact.
  const std::uint64_t g_bad = static_cast<std::uint64_t>(
      sp.reduce_sum(static_cast<ValType>(bad)) + 0.5);
  if (sp.worker() == 0) health->observe(gate_id, g_norm2, g_bad);
  if (ring != nullptr) {
    obs::FlightEvent e;
    e.ts_us = obs::trace_now_us();
    e.gate_id = gate_id;
    e.kind = obs::FlightEvent::kCheckpoint;
    ring->push(e);
  }
  return health->should_abort(g_norm2, g_bad);
}

/// Run work items [begin, end) of `dg` on this worker, where `own_first`
/// is the first work item inside the worker's own partition. A gate bound
/// to a local kernel touches only that partition (owner-computes), so it
/// runs on local_view() with partition-relative items; anything else, and
/// every gate on LocalSpace, goes through the Space's own accessors.
template <class Space>
inline void run_items(const DeviceGate<Space>& dg, const Space& sp,
                      IdxType begin, IdxType end, IdxType own_first) {
  if constexpr (kPartitioned<Space>) {
    if (dg.local_fn != nullptr) {
      dg.local_fn(dg.g, sp.local_view(), begin - own_first,
                  end - own_first);
      return;
    }
  }
  dg.fn(dg.g, sp, begin, end);
}

/// Amplitudes one work item of `g` touches (progress accounting).
inline std::uint64_t amps_per_work_item(const Gate& g) {
  if (g.op == OP::MA) return 1; // measure_all iterates amplitudes
  return g.qb1 >= 0 ? 4 : 2;    // quadruples vs pairs
}

} // namespace detail

/// The optional observability hooks of one run, handed to every worker's
/// gate loop. Null members are off.
struct RunHooks {
  obs::GateRecorder* rec = nullptr;
  obs::HealthMonitor* health = nullptr;
  obs::FlightRecorder* flight = nullptr;
  obs::ProgressBoard* progress = nullptr;
};

} // namespace svsim
