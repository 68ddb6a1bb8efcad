// Shared kernel helpers: the amplitude walks every specialized gate runs
// on, and the gate bodies they share.
//
// A kernel is a pure per-item body — old amplitudes in, new amplitudes
// out — handed to one of four walks: a pair (s, s+2^q) of Eq. (1), the
// |1> member s+2^q alone, two positions of an Eq. (2) quadruple, or one
// position of it. A body is a small type (core/kernels/gates1q.hpp,
// gates2q.hpp) whose fields are its coefficients, built from the Gate by
// its `of`; the specialized gates (X, Z, H, T, ...) touch only the
// amplitudes they must (the paper's "specialized gate implementation").
//
// On LocalSpace a walk splits [begin, end) into the contiguous runs the
// index maps leave — 2^q consecutive pairs share one pair_base step,
// 2^p consecutive quadruples one quad_base step — and runs the body over
// raw real/imag pointers in a loop GCC vectorizes; `begin` may fall
// mid-run. On BatchedSpace it takes the base once per item and runs the
// body over the B contiguous members of each touched amplitude, member b
// rebuilding its body from its own coefficient rows — the same loop shape
// and the same body, so the batched engine needs no arithmetic of its
// own. Everywhere else — PeerSpace/ShmemSpace, and runs too short to
// vectorize — it reads and writes each touched amplitude through the
// accessors, two gets and two sets per position, so the traffic counters
// see exactly the accesses they always did.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <type_traits>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "core/space.hpp"
#include "ir/gate.hpp"

namespace svsim::kernels {

/// One amplitude, and the two amplitudes of a pair, as a body returns
/// them.
struct Amp {
  ValType re, im;
};
struct AmpPair {
  ValType r0, i0, r1, i1;
};

/// Coefficients a body carries: its ValType fields, in declaration order.
/// A constant body (H, X, ...) is empty and carries none.
template <class Body>
inline constexpr int kBodyRows =
    std::is_empty_v<Body> ? 0 : static_cast<int>(sizeof(Body) / sizeof(ValType));

/// A body's coefficients as per-member rows: member b's row r is at
/// coef[r*stride + b].
template <class Body>
struct MemberRows {
  const ValType* coef;
  IdxType stride;
};

/// Member b's body: the one body every member shares, or member b's own,
/// rebuilt from its rows.
template <class Body>
inline Body member_body(const Body& shared, IdxType) {
  return shared;
}
template <class Body>
inline Body member_body(const MemberRows<Body>& m, IdxType b) {
  static_assert(std::is_trivially_copyable_v<Body> &&
                sizeof(Body) == kBodyRows<Body> * sizeof(ValType));
  std::array<ValType, kBodyRows<Body>> c;
  for (int r = 0; r < kBodyRows<Body>; ++r) c[r] = m.coef[r * m.stride + b];
  return std::bit_cast<Body>(c);
}

/// Write `body`'s coefficients as member b's rows.
template <class Body>
inline void store_rows(const Body& body, ValType* coef, IdxType stride,
                       IdxType b) {
  if constexpr (kBodyRows<Body> > 0) {
    const auto c = std::bit_cast<std::array<ValType, kBodyRows<Body>>>(body);
    for (int r = 0; r < kBodyRows<Body>; ++r) coef[r * stride + b] = c[r];
  }
}

/// The body a kernel hands its walk: built from the gate on the solo
/// Spaces; on BatchedSpace, the rows the upload wrote from each member's
/// gate through the same `Body::of`.
template <class Body, class Space>
inline auto gate_body(const Gate& g, const Space& sp) {
  if constexpr (std::is_same_v<Space, BatchedSpace>) {
    return MemberRows<Body>{sp.coef, sp.batch};
  } else {
    (void)sp;
    return Body::of(g);
  }
}

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

/// The BatchedSpace walk: base(i) once per item, then the body over the
/// B contiguous members of each touched amplitude, member b's body built
/// from its own coefficient rows.
template <bool kPair, class Base, class Body>
inline void walk(const BatchedSpace& sp, IdxType, Base base, IdxType off0,
                 IdxType off1, IdxType begin, IdxType end, Body body) {
  const IdxType B = sp.batch;
  for (IdxType i = begin; i < end; ++i) {
    const IdxType s = base(i);
    ValType* __restrict r0 = sp.real + (s + off0) * B;
    ValType* __restrict i0 = sp.imag + (s + off0) * B;
    if constexpr (kPair) {
      ValType* __restrict r1 = sp.real + (s + off1) * B;
      ValType* __restrict i1 = sp.imag + (s + off1) * B;
#pragma GCC ivdep
      for (IdxType b = 0; b < B; ++b) {
        const AmpPair o = member_body(body, b)(r0[b], i0[b], r1[b], i1[b]);
        r0[b] = o.r0;
        i0[b] = o.i0;
        r1[b] = o.r1;
        i1[b] = o.i1;
      }
    } else {
#pragma GCC ivdep
      for (IdxType b = 0; b < B; ++b) {
        const Amp o = member_body(body, b)(r0[b], i0[b]);
        r0[b] = o.re;
        i0[b] = o.im;
      }
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

} // namespace svsim::kernels
