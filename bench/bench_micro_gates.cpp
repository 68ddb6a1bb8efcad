// Micro-benchmarks (google-benchmark): per-gate kernel throughput for the
// specialized kernels, and the specialized-vs-dense per-gate gap that
// underlies Fig 14. Run with --benchmark_filter=... to narrow.
//
// On an AVX-512 build, BM_T_kernel_listing2_avx512 is the ablation row for
// the paper's Listing 2: its AVX-512 gather/scatter T gate, timed against
// the library's T kernel (the contiguous-run walk the compiler vectorizes)
// called the same way, BM_T_kernel_walk.
#include <benchmark/benchmark.h>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "core/generalized_sim.hpp"
#include "core/single_sim.hpp"

namespace {

using namespace svsim;

constexpr IdxType kQubits = 16;

/// Superposed state so every kernel does representative work.
void prepare(Simulator& sim) {
  Circuit prep(kQubits);
  for (IdxType q = 0; q < kQubits; ++q) prep.h(q);
  sim.run(prep);
}

Gate bench_gate(OP op) {
  Gate g = op_info(op).n_qubits == 1 ? make_gate(op, 5)
                                     : make_gate(op, 5, 11);
  g.theta = 0.7;
  g.phi = 0.3;
  g.lam = -0.4;
  return g;
}

void run_gate(benchmark::State& state, OP op) {
  SingleSim sim(kQubits);
  prepare(sim);
  Circuit c(kQubits);
  c.append(bench_gate(op));

  for (auto _ : state) {
    sim.run(c);
    benchmark::DoNotOptimize(sim.real()[0]);
  }
  state.SetItemsProcessed(state.iterations() * pow2(kQubits));
}

void run_generic_gate(benchmark::State& state, OP op) {
  GeneralizedSim sim(kQubits);
  prepare(sim);
  Circuit c(kQubits);
  c.append(bench_gate(op));
  for (auto _ : state) {
    sim.run(c);
  }
  state.SetItemsProcessed(state.iterations() * pow2(kQubits));
}

#define GATE_BENCH(opname)                                                   \
  void BM_##opname(benchmark::State& s) { run_gate(s, OP::opname); }        \
  BENCHMARK(BM_##opname);                                                    \
  void BM_##opname##_generic(benchmark::State& s) {                         \
    run_generic_gate(s, OP::opname);                                        \
  }                                                                          \
  BENCHMARK(BM_##opname##_generic);

GATE_BENCH(H)
GATE_BENCH(T)
GATE_BENCH(X)
GATE_BENCH(Z)
GATE_BENCH(RY)
GATE_BENCH(U3)
GATE_BENCH(CX)
GATE_BENCH(CZ)
GATE_BENCH(CU1)
GATE_BENCH(RZZ)

/// One T gate on qubit 5 through `kernel`, called directly on the state
/// arrays over every pair.
template <class Kernel>
void run_t_kernel(benchmark::State& state, Kernel kernel) {
  SingleSim sim(kQubits);
  prepare(sim);
  const LocalSpace sp{sim.real(), sim.imag(), sim.dim()};
  const Gate g = bench_gate(OP::T);
  for (auto _ : state) {
    kernel(g, sp, 0, half_dim(kQubits));
    benchmark::DoNotOptimize(sp.real);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * pow2(kQubits));
}

void BM_T_kernel_walk(benchmark::State& s) {
  run_t_kernel(s, &kernels::kern_t<LocalSpace>);
}
BENCHMARK(BM_T_kernel_walk);

#if defined(__AVX512F__)
/// Listing 2: the T gate on 8 pairs per step — Eq. (1)'s pair_base for 8
/// consecutive pair indices in vector registers, then a gather of the |1>
/// members, the (1+i)/sqrt(2) multiply, and a scatter back. The tail of
/// fewer than 8 pairs runs the library kernel.
void kern_t_listing2(const Gate& g, const LocalSpace& sp, IdxType begin,
                     IdxType end) {
  const IdxType q = g.qb0;
  const __m512i qv = _mm512_set1_epi64(q);
  const __m512i q1v = _mm512_set1_epi64(q + 1);
  const __m512i maskv = _mm512_set1_epi64(pow2(q) - 1);
  const __m512i stridev = _mm512_set1_epi64(pow2(q));
  const __m512i inc = _mm512_set1_epi64(8);
  const __m512d s2i = _mm512_set1_pd(S2I);
  __m512i iv = _mm512_add_epi64(_mm512_set1_epi64(begin),
                                _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
  IdxType i = begin;
  for (; i + 8 <= end; i += 8, iv = _mm512_add_epi64(iv, inc)) {
    const __m512i hi = _mm512_sllv_epi64(_mm512_srlv_epi64(iv, qv), q1v);
    const __m512i pos0 = _mm512_or_si512(hi, _mm512_and_si512(iv, maskv));
    const __m512i pos1 = _mm512_add_epi64(pos0, stridev);
    const __m512d r = _mm512_i64gather_pd(pos1, sp.real, 8);
    const __m512d im = _mm512_i64gather_pd(pos1, sp.imag, 8);
    _mm512_i64scatter_pd(sp.real, pos1,
                         _mm512_mul_pd(s2i, _mm512_sub_pd(r, im)), 8);
    _mm512_i64scatter_pd(sp.imag, pos1,
                         _mm512_mul_pd(s2i, _mm512_add_pd(r, im)), 8);
  }
  if (i < end) kernels::kern_t<LocalSpace>(g, sp, i, end);
}

void BM_T_kernel_listing2_avx512(benchmark::State& s) {
  run_t_kernel(s, &kern_t_listing2);
}
BENCHMARK(BM_T_kernel_listing2_avx512);
#endif

} // namespace

BENCHMARK_MAIN();
