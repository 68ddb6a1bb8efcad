// SPMD batch-parallel kernels: K state vectors evolved in lockstep.
//
// Layout is batch-innermost (element (amplitude k, member b) lives at
// [k*B + b]), so the per-gate index arithmetic of Eq. (1)/(2) is computed
// ONCE per pair/quadruple and amortized over all B members, and every
// member access is a contiguous run of B doubles — a vector lane carries
// a different batch member, never a different amplitude. That sidesteps
// the classic low-qubit problem of amplitude-wise vectorization: a gate
// on qubit 0 is exactly as vectorizable as a gate on qubit 20.
//
// The unitary gates need no kernels here: BatchedSim runs the solo
// kernels of gates1q.hpp/gates2q.hpp on BatchedSpace, whose walks run
// each gate's one body in a plain loop over the B members that the
// compiler vectorizes (core/kernels/apply.hpp). Members differ only in
// their coefficient rows, which the upload writes from each member's gate
// through the same body constructors (batched_fill_coef).
//
// Divergence (the CppSPMD idiom): mid-circuit measure/reset is where
// members truly diverge: each member draws from its OWN RNG stream and
// may collapse in a different direction. Those kernels build an
// exec-mask over the batch and run the collapse loop masked (a select per
// member), with all-members-on / all-members-off fast paths that skip the
// selects entirely when the batch happens to agree — which for strongly
// polarized qubits is the common case.
//
// Determinism contract (the diffcheck `batched` axis pins this): member b
// of a batched run with base seed s reproduces a solo run with seed s+b
// bit-for-bit in classical outcomes — cbits and sampled shots — because
// (a) member b's RNG stream consumes draws at exactly the solo schedule
// (one per M, none per RESET, `shots` per MA), and (b) every probability
// sum accumulates in the solo kernel's pair order, member-wise.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "core/kernels/blocked.hpp"
#include "core/kernels/gates2q.hpp"
#include "ir/gate.hpp"

namespace svsim::kernels {

/// Calls f.template operator()<Body>() for the body type whose
/// coefficient rows `op`'s kernel reads on BatchedSpace (the one its
/// kern_* passes to gate_body); 0 for constant and non-unitary ops, whose
/// divergence is runtime state, not parameters.
template <class F>
inline int visit_coef_body(OP op, F&& f) {
  switch (op) {
    case OP::U1:
    case OP::CU1:
      return f.template operator()<U1Body>();
    case OP::RZ:
    case OP::CRZ:
      return f.template operator()<RzBody>();
    case OP::RX:
    case OP::RXX:
      return f.template operator()<RxBody>();
    case OP::RY:
      return f.template operator()<RyBody>();
    case OP::RZZ:
      return f.template operator()<RzzBody>();
    case OP::U3:
    case OP::U2:
    case OP::CU3:
    case OP::CH:
    case OP::CRX:
    case OP::CRY:
      return f.template operator()<U3Body>();
    default:
      return 0;
  }
}

/// Coefficient rows a batched kernel reads for `op`.
inline int batched_coef_rows(OP op) {
  return visit_coef_body(op, []<class Body>() { return kBodyRows<Body>; });
}

/// Fill member b's coefficient column for gate `g` from its body's `of` —
/// the coefficients the solo kernel builds for the same gate.
inline void batched_fill_coef(const Gate& g, ValType* coef, IdxType stride,
                              IdxType b) {
  visit_coef_body(g.op, [&]<class Body>() {
    store_rows(Body::of(g), coef, stride, b);
    return 0;
  });
}

/// Dense 1-qubit unitaries eligible for the execute-level combining pass
/// (same-qubit runs collapse to one 2x2 product, adjacent distinct-qubit
/// units fuse into one bk_pair1q pass). Non-unitary ops and barriers are
/// excluded by construction — they are where members diverge.
inline bool batched_dense_1q(OP op) {
  switch (op) {
    case OP::X:
    case OP::Y:
    case OP::Z:
    case OP::H:
    case OP::S:
    case OP::SDG:
    case OP::T:
    case OP::TDG:
    case OP::U1:
    case OP::U2:
    case OP::U3:
    case OP::RX:
    case OP::RY:
    case OP::RZ:
      return true;
    default:
      return false;
  }
}

/// Estimated full-state passes of running `op` standalone: the phase
/// gates touch only the qubit-set half of the slab, everything else
/// streams all of it. The combining pass only fuses when the fused
/// single pass beats this estimate.
inline double batched_pass_weight(OP op) {
  switch (op) {
    case OP::Z:
    case OP::S:
    case OP::SDG:
    case OP::T:
    case OP::TDG:
    case OP::U1:
      return 0.5;
    default:
      return 1.0;
  }
}

/// A purely real dense 2x2 (m00, m01, m10, m11): it acts on the real and
/// imaginary planes independently, with half the multiplies of U3Body.
/// The combining pass routes RX-free rotation layers (RY, H, X, Z, ...)
/// here; its rows are the real rows 0, 2, 4, 6 of the U3Body layout.
struct RealU3Body {
  ValType m00, m01, m10, m11;
  AmpPair operator()(ValType r0, ValType i0, ValType r1, ValType i1) const {
    return AmpPair{m00 * r0 + m01 * r1, m00 * i0 + m01 * i1,
                   m10 * r0 + m11 * r1, m10 * i0 + m11 * i1};
  }
};

/// Two independent dense 1q gates in ONE pass over the slab: gate P on
/// qubit qb0 (low) and gate Q on qubit qb1 (high), with 16 U3Body
/// coefficient rows (P's rows 0-7, Q's rows 8-15). Each quadruple is
/// loaded once, P is applied to its qubit-p pairs and Q to its qubit-q
/// pairs in registers, then stored — the same arithmetic as two
/// sequential passes at half the memory traffic. That matters here and
/// not in the solo engine: a solo state at bench sizes lives in L1, but
/// the B-wide slab streams from L2, so batched gate cost is traffic, not
/// flops. The combining pass in BatchedSim::execute builds these, with
/// Body = U3Body, or RealU3Body when both matrices are purely real.
template <class Body>
void bk_pair1q(const Gate& g, const BatchedSpace& sp, IdxType begin,
               IdxType end) {
  const IdxType p = g.qb0;
  const IdxType q = g.qb1;
  const IdxType B = sp.batch;
  const IdxType row_stride = B * (kBodyRows<U3Body> / kBodyRows<Body>);
  const MemberRows<Body> pm{sp.coef, row_stride};
  const MemberRows<Body> qm{sp.coef + 8 * B, row_stride};
  const IdxType offp = pow2(p) * B;
  const IdxType offq = pow2(q) * B;
  for (IdxType i = begin; i < end; ++i) {
    const IdxType s = quad_base(i, p, q) * B;
    ValType* __restrict r0 = sp.real + s;
    ValType* __restrict i0 = sp.imag + s;
    ValType* __restrict r1 = sp.real + s + offp;
    ValType* __restrict i1 = sp.imag + s + offp;
    ValType* __restrict r2 = sp.real + s + offq;
    ValType* __restrict i2 = sp.imag + s + offq;
    ValType* __restrict r3 = sp.real + s + offp + offq;
    ValType* __restrict i3 = sp.imag + s + offp + offq;
#pragma GCC ivdep
    for (IdxType b = 0; b < B; ++b) {
      const Body pb = member_body(pm, b);
      const Body qb = member_body(qm, b);
      const AmpPair lo = pb(r0[b], i0[b], r1[b], i1[b]);
      const AmpPair hi = pb(r2[b], i2[b], r3[b], i3[b]);
      const AmpPair x0 = qb(lo.r0, lo.i0, hi.r0, hi.i0);
      const AmpPair x1 = qb(lo.r1, lo.i1, hi.r1, hi.i1);
      r0[b] = x0.r0;
      i0[b] = x0.i0;
      r2[b] = x0.r1;
      i2[b] = x0.i1;
      r1[b] = x1.r0;
      i1[b] = x1.i0;
      r3[b] = x1.r1;
      i3[b] = x1.i1;
    }
  }
}

// ---------------------------------------------------------------------------
// Divergent kernels: measure / reset with a per-member exec-mask, and the
// per-member sampling measure-all. These are where batch members stop
// agreeing — each draws on its own RNG stream and may collapse in its own
// direction — so the collapse loops select per member, with all-on/all-off
// fast paths that skip every select when the whole batch went the same way.
// ---------------------------------------------------------------------------

namespace batched_detail {

/// Per-member |amplitude|² summed over the pairs' `off` members in the
/// solo kernel's pair order, so each member's sum reproduces its solo run.
inline std::vector<ValType> member_probs(const BatchedSpace& sp, IdxType q,
                                         IdxType off, IdxType begin,
                                         IdxType end) {
  const IdxType B = sp.batch;
  std::vector<ValType> acc(static_cast<std::size_t>(B), 0);
  ValType* __restrict a = acc.data();
  for (IdxType i = begin; i < end; ++i) {
    const ValType* r = sp.real + pair_base(i, q) * B + off;
    const ValType* im = sp.imag + pair_base(i, q) * B + off;
#pragma GCC ivdep
    for (IdxType b = 0; b < B; ++b) a[b] += r[b] * r[b] + im[b] * im[b];
  }
  return acc;
}

} // namespace batched_detail

inline void bk_measure(const Gate& g, const BatchedSpace& sp, IdxType begin,
                       IdxType end) {
  const IdxType q = g.qb0;
  const IdxType B = sp.batch;
  const IdxType stride = pow2(q) * B;

  // Phase 1: per-member P(|1>).
  const std::vector<ValType> prob =
      batched_detail::member_probs(sp, q, stride, begin, end);

  // Phase 2: per-member draw on that member's own stream; build the
  // exec-mask (1 = outcome |1>), scales, and classical bits.
  std::vector<std::int64_t> mask(static_cast<std::size_t>(B));
  std::vector<ValType> scale(static_cast<std::size_t>(B));
  IdxType n_one = 0;
  for (IdxType b = 0; b < B; ++b) {
    const auto ub = static_cast<std::size_t>(b);
    const ValType prob1 = std::clamp(prob[ub], ValType{0}, ValType{1});
    const bool one = sp.rngs[b].next_double() < prob1;
    const ValType keep = one ? prob1 : (1.0 - prob1);
    scale[ub] = keep > 0 ? 1.0 / std::sqrt(keep) : 0.0;
    mask[ub] = one ? 1 : 0;
    if (one) ++n_one;
    if (sp.cbits != nullptr && g.cbit >= 0) {
      sp.cbits[g.cbit * B + b] = one ? 1 : 0;
    }
  }
  const std::int64_t* m = mask.data();
  const ValType* sc = scale.data();

  // Phase 3: collapse + renormalize. The uniform fast paths are the solo
  // kernel's two branches; the divergent path selects per member.
  for (IdxType i = begin; i < end; ++i) {
    ValType* __restrict r0 = sp.real + pair_base(i, q) * B;
    ValType* __restrict i0 = sp.imag + pair_base(i, q) * B;
    ValType* __restrict r1 = r0 + stride;
    ValType* __restrict i1 = i0 + stride;
    if (n_one == B) {
#pragma GCC ivdep
      for (IdxType b = 0; b < B; ++b) {
        r0[b] = 0;
        i0[b] = 0;
        r1[b] = r1[b] * sc[b];
        i1[b] = i1[b] * sc[b];
      }
    } else if (n_one == 0) {
#pragma GCC ivdep
      for (IdxType b = 0; b < B; ++b) {
        r0[b] = r0[b] * sc[b];
        i0[b] = i0[b] * sc[b];
        r1[b] = 0;
        i1[b] = 0;
      }
    } else {
      // outcome |1>: p0 <- 0,        p1 <- p1*scale
      // outcome |0>: p0 <- p0*scale, p1 <- 0
#pragma GCC ivdep
      for (IdxType b = 0; b < B; ++b) {
        const bool one = m[b] != 0;
        r0[b] = one ? 0 : r0[b] * sc[b];
        i0[b] = one ? 0 : i0[b] * sc[b];
        r1[b] = one ? r1[b] * sc[b] : 0;
        i1[b] = one ? i1[b] * sc[b] : 0;
      }
    }
  }
}

inline void bk_reset(const Gate& g, const BatchedSpace& sp, IdxType begin,
                     IdxType end) {
  const IdxType q = g.qb0;
  const IdxType B = sp.batch;
  const IdxType stride = pow2(q) * B;

  // Per-member P(|0>), solo pair order.
  const std::vector<ValType> prob =
      batched_detail::member_probs(sp, q, 0, begin, end);

  // Exec-mask: set = project-onto-|0> path (prob0 > 1e-12), clear = the
  // qubit is deterministically |1> and its halves swap. No RNG draw —
  // reset is deterministic, matching the solo kernel's stream position.
  std::vector<std::int64_t> mask(static_cast<std::size_t>(B));
  std::vector<ValType> scale(static_cast<std::size_t>(B));
  IdxType n_keep = 0;
  for (IdxType b = 0; b < B; ++b) {
    const auto ub = static_cast<std::size_t>(b);
    const ValType prob0 = std::clamp(prob[ub], ValType{0}, ValType{1});
    const bool keep = prob0 > 1e-12;
    mask[ub] = keep ? 1 : 0;
    scale[ub] = keep ? 1.0 / std::sqrt(prob0) : 0.0;
    if (keep) ++n_keep;
  }
  const std::int64_t* m = mask.data();
  const ValType* sc = scale.data();

  for (IdxType i = begin; i < end; ++i) {
    ValType* __restrict r0 = sp.real + pair_base(i, q) * B;
    ValType* __restrict i0 = sp.imag + pair_base(i, q) * B;
    ValType* __restrict r1 = r0 + stride;
    ValType* __restrict i1 = i0 + stride;
    if (n_keep == B) {
#pragma GCC ivdep
      for (IdxType b = 0; b < B; ++b) {
        r0[b] = r0[b] * sc[b];
        i0[b] = i0[b] * sc[b];
      }
    } else if (n_keep == 0) {
#pragma GCC ivdep
      for (IdxType b = 0; b < B; ++b) {
        r0[b] = r1[b];
        i0[b] = i1[b];
      }
    } else {
#pragma GCC ivdep
      for (IdxType b = 0; b < B; ++b) {
        const bool keep = m[b] != 0;
        r0[b] = keep ? r0[b] * sc[b] : r1[b];
        i0[b] = keep ? i0[b] * sc[b] : i1[b];
      }
    }
#pragma GCC ivdep
    for (IdxType b = 0; b < B; ++b) {
      r1[b] = 0;
      i1[b] = 0;
    }
  }
}

/// Per-member measure-all: each member samples n_shots outcomes from its
/// own distribution with its own draws (the solo kern_measure_all loop,
/// member-wise), without collapsing. The per-member column scan is
/// strided, but sampling runs once per circuit — not worth a transpose.
inline void bk_measure_all(const Gate&, const BatchedSpace& sp, IdxType,
                           IdxType) {
  const IdxType shots = sp.n_shots;
  const IdxType B = sp.batch;
  for (IdxType b = 0; b < B; ++b) {
    std::vector<std::pair<ValType, IdxType>> draws;
    draws.reserve(static_cast<std::size_t>(shots));
    for (IdxType s = 0; s < shots; ++s) {
      draws.emplace_back(sp.rngs[b].next_double(), s);
    }
    if (sp.results == nullptr) continue; // stream-advance only
    IdxType* out = sp.results + b * shots;
    std::sort(draws.begin(), draws.end());
    ValType cum = 0;
    IdxType k = 0;
    std::size_t d = 0;
    while (d < draws.size() && k < sp.dim) {
      const ValType r = sp.real[k * B + b];
      const ValType im = sp.imag[k * B + b];
      cum += r * r + im * im;
      while (d < draws.size() && draws[d].first < cum) {
        out[draws[d].second] = k;
        ++d;
      }
      ++k;
    }
    for (; d < draws.size(); ++d) {
      out[draws[d].second] = sp.dim - 1;
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked-scheduler support: a high-qubit diagonal gate has no block-local
// work-item range, so inside a blocked window it is applied as per-member
// phase rows selected by the (block-constant-free) amplitude index.
// ---------------------------------------------------------------------------

/// A diagonal gate lifted to the batch: per-member phase rows indexed by
/// the operand bit pattern k (as DiagTerm) — pattern k's U1Body rows are
/// rows 2k (real) and 2k+1 (imag), `batch` members each.
struct BDiagGate {
  IdxType qa = -1;
  IdxType qb = -1;
  const ValType* rows = nullptr; // 8 rows of `batch` members
  bool identity[4] = {true, true, true, true}; // all members trivial at k
};

/// Fill member b's column of a BDiagGate from its DiagTerm, and clear the
/// identity flag for any pattern with a non-trivial phase.
inline void bdiag_fill(const DiagTerm& t, ValType* rows, IdxType stride,
                       IdxType b, bool identity[4]) {
  for (int k = 0; k < 4; ++k) {
    rows[(2 * k) * stride + b] = t.pr[k];
    rows[(2 * k + 1) * stride + b] = t.pi[k];
    if (!(t.pr[k] == 1 && t.pi[k] == 0)) identity[k] = false;
  }
}

/// Apply one batched diagonal gate to amplitudes [base, base+len): the
/// phase pattern k depends only on the amplitude index (same for every
/// member), so each amplitude is one row-select plus the U1 phase across
/// the batch. Patterns that are identity for every member skip the sweep
/// — the usual case for control-like gates on half their range.
inline void bapply_diag(const BDiagGate& d, const BatchedSpace& sp,
                        IdxType base, IdxType len) {
  const IdxType B = sp.batch;
  for (IdxType t = 0; t < len; ++t) {
    const IdxType idx = base + t;
    int k = static_cast<int>((idx >> d.qa) & 1);
    if (d.qb >= 0) k |= static_cast<int>((idx >> d.qb) & 1) << 1;
    if (d.identity[k]) continue;
    const MemberRows<U1Body> phase{d.rows + 2 * k * B, B};
    ValType* __restrict r = sp.real + idx * B;
    ValType* __restrict im = sp.imag + idx * B;
#pragma GCC ivdep
    for (IdxType b = 0; b < B; ++b) {
      const Amp o = member_body(phase, b)(r[b], im[b]);
      r[b] = o.re;
      im[b] = o.im;
    }
  }
}

/// The batched op -> kernel table: the solo unitary kernels on
/// BatchedSpace, plus the divergent measure, reset and measure-all.
inline const std::array<KernelFn<BatchedSpace>, kNumOps>&
batched_kernel_table() {
  static const std::array<KernelFn<BatchedSpace>, kNumOps> t = [] {
    auto t = unitary_kernels<BatchedSpace>();
    t[static_cast<int>(OP::M)] = &bk_measure;
    t[static_cast<int>(OP::MA)] = &bk_measure_all;
    t[static_cast<int>(OP::RESET)] = &bk_reset;
    return t;
  }();
  return t;
}

} // namespace svsim::kernels
