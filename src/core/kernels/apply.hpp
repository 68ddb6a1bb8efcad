// Shared kernel helpers: the amplitude walks every specialized gate runs
// on, and the dense 2x2 body the parameterized rotations share.
//
// A kernel is a pure per-item body — old amplitudes in, new amplitudes
// out — handed to one of four walks: a pair (s, s+2^q) of Eq. (1), the
// |1> member s+2^q alone, two positions of an Eq. (2) quadruple, or one
// position of it. The specialized gates (X, Z, H, T, ...) touch only the
// amplitudes they must (the paper's "specialized gate implementation");
// the parameterized rotations (u2/u3, ch/crx/cry/cu3) share the dense
// 2x2 body with its entries precomputed outside the loop.
//
// On LocalSpace a walk splits [begin, end) into the contiguous runs the
// index maps leave — 2^q consecutive pairs share one pair_base step,
// 2^p consecutive quadruples one quad_base step — and runs the body over
// raw real/imag pointers in a loop GCC vectorizes; `begin` may fall
// mid-run. Everywhere else — PeerSpace/ShmemSpace, and runs too short to
// vectorize — it reads and writes each touched amplitude through the
// accessors, two gets and two sets per position, so the traffic counters
// see exactly the accesses they always did.
#pragma once

#include <algorithm>
#include <type_traits>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "core/space.hpp"

namespace svsim::kernels {

/// One amplitude, and the two amplitudes of a pair, as a body returns
/// them.
struct Amp {
  ValType re, im;
};
struct AmpPair {
  ValType r0, i0, r1, i1;
};

namespace detail {

/// Shortest run the LocalSpace walk vectorizes; below it (q or p < 2) the
/// per-run setup costs more than the lanes save, and the per-item loop,
/// whose accessors compile to plain loads and stores, is faster.
inline constexpr IdxType kMinRunBits = 2;

/// Run `body` on work items [begin, end). Item i touches base(i) + off0,
/// and base(i) + off1 as well when kPair; base advances by one inside
/// each aligned run of 2^run_bits items. The offsets of a pair are at
/// least 2^run_bits apart, so the four run pointers never overlap.
template <bool kPair, class Space, class Base, class Body>
inline void walk(const Space& sp, IdxType run_bits, Base base, IdxType off0,
                 IdxType off1, IdxType begin, IdxType end, Body body) {
  if constexpr (std::is_same_v<Space, LocalSpace>) {
    if (run_bits >= kMinRunBits) {
      const IdxType run_mask = pow2(run_bits) - 1;
      for (IdxType i = begin; i < end;) {
        const IdxType len = std::min(end, (i | run_mask) + 1) - i;
        const IdxType s = base(i);
        ValType* __restrict r0 = sp.real + s + off0;
        ValType* __restrict i0 = sp.imag + s + off0;
        if constexpr (kPair) {
          ValType* __restrict r1 = sp.real + s + off1;
          ValType* __restrict i1 = sp.imag + s + off1;
#pragma GCC ivdep
          for (IdxType j = 0; j < len; ++j) {
            const AmpPair o = body(r0[j], i0[j], r1[j], i1[j]);
            r0[j] = o.r0;
            i0[j] = o.i0;
            r1[j] = o.r1;
            i1[j] = o.i1;
          }
        } else {
#pragma GCC ivdep
          for (IdxType j = 0; j < len; ++j) {
            const Amp o = body(r0[j], i0[j]);
            r0[j] = o.re;
            i0[j] = o.im;
          }
        }
        i += len;
      }
      return;
    }
  }
  for (IdxType i = begin; i < end; ++i) {
    const IdxType s = base(i);
    const IdxType p0 = s + off0;
    const ValType r0 = sp.get_real(p0);
    const ValType i0 = sp.get_imag(p0);
    if constexpr (kPair) {
      const IdxType p1 = s + off1;
      const ValType r1 = sp.get_real(p1);
      const ValType i1 = sp.get_imag(p1);
      const AmpPair o = body(r0, i0, r1, i1);
      sp.set_real(p0, o.r0);
      sp.set_imag(p0, o.i0);
      sp.set_real(p1, o.r1);
      sp.set_imag(p1, o.i1);
    } else {
      const Amp o = body(r0, i0);
      sp.set_real(p0, o.re);
      sp.set_imag(p0, o.im);
    }
  }
}

} // namespace detail

/// Pair walk: body(r0, i0, r1, i1) -> AmpPair on (s, s + 2^q),
/// s = pair_base(i, q), for pair index i in [begin, end).
template <class Space, class Body>
inline void walk_pairs(const Space& sp, IdxType q, IdxType begin, IdxType end,
                       Body body) {
  detail::walk<true>(
      sp, q, [q](IdxType i) { return pair_base(i, q); }, 0, pow2(q), begin,
      end, body);
}

/// One-position pair walk: body(r, i) -> Amp on the |1> member s + 2^q
/// only.
template <class Space, class Body>
inline void walk_ones(const Space& sp, IdxType q, IdxType begin, IdxType end,
                      Body body) {
  detail::walk<false>(
      sp, q, [q](IdxType i) { return pair_base(i, q); }, pow2(q), 0, begin,
      end, body);
}

/// Quadruple walk on operands a, b (either order): body(r0, i0, r1, i1)
/// -> AmpPair on (s + off0, s + off1), s = quad_base(i, min, max), for
/// quadruple index i in [begin, end). off0 and off1 are two distinct
/// members of {0, 2^a, 2^b, 2^a + 2^b}.
template <class Space, class Body>
inline void walk_quads(const Space& sp, IdxType a, IdxType b, IdxType off0,
                       IdxType off1, IdxType begin, IdxType end, Body body) {
  const IdxType p = std::min(a, b);
  const IdxType q = std::max(a, b);
  detail::walk<true>(
      sp, p, [p, q](IdxType i) { return quad_base(i, p, q); }, off0, off1,
      begin, end, body);
}

/// One-position quadruple walk: body(r, i) -> Amp on s + off only.
template <class Space, class Body>
inline void walk_quad_ones(const Space& sp, IdxType a, IdxType b, IdxType off,
                           IdxType begin, IdxType end, Body body) {
  const IdxType p = std::min(a, b);
  const IdxType q = std::max(a, b);
  detail::walk<false>(
      sp, p, [p, q](IdxType i) { return quad_base(i, p, q); }, off, 0, begin,
      end, body);
}

/// Real/imag split of a 2x2 complex matrix, precomputed per gate.
struct Entries2x2 {
  ValType r00, i00, r01, i01, r10, i10, r11, i11;
};

/// The dense 2x2 as a pair body.
inline auto dense_2x2(const Entries2x2& m) {
  return [m](ValType r0, ValType i0, ValType r1, ValType i1) {
    return AmpPair{m.r00 * r0 - m.i00 * i0 + m.r01 * r1 - m.i01 * i1,
                   m.r00 * i0 + m.i00 * r0 + m.r01 * i1 + m.i01 * r1,
                   m.r10 * r0 - m.i10 * i0 + m.r11 * r1 - m.i11 * i1,
                   m.r10 * i0 + m.i10 * r0 + m.r11 * i1 + m.i11 * r1};
  };
}

/// Apply a dense 2x2 to every pair (s, s+2^q) for pair index i in
/// [begin, end).
template <class Space>
inline void apply_2x2(const Space& sp, IdxType q, IdxType begin, IdxType end,
                      const Entries2x2& m) {
  walk_pairs(sp, q, begin, end, dense_2x2(m));
}

/// Apply a dense 2x2 to the target qubit t in the subspace where control c
/// is |1>: quadruple index i in [begin, end) enumerates Eq. (2) blocks over
/// (min,max) of (c,t); only the two control-set positions are touched —
/// half the memory traffic of a generic 4x4 application.
template <class Space>
inline void apply_ctrl_2x2(const Space& sp, IdxType c, IdxType t,
                           IdxType begin, IdxType end, const Entries2x2& m) {
  walk_quads(sp, c, t, pow2(c), pow2(c) + pow2(t), begin, end, dense_2x2(m));
}

} // namespace svsim::kernels
