// Specialized 2-qubit gate kernels.
//
// Each kernel hands a body to a quadruple walk of core/kernels/apply.hpp;
// bounds [begin, end) index amplitude quadruples per Eq. (2) over
// (p, q) = (min, max) of the two operand qubits. Controlled gates run
// their 1-qubit body (gates1q.hpp) on the control-set half of each
// quadruple; diagonal gates (cz, cu1, crz, rzz) never move amplitudes at
// all — this is where specialization buys the most over a generic 4x4
// multiply.
#pragma once

#include <cmath>

#include "core/kernels/apply.hpp"
#include "core/kernels/gates1q.hpp"

namespace svsim::kernels {

/// RZZ (qelib1 semantics, diag(1, e^{it}, e^{it}, 1)): the U1 phase on
/// both middle amplitudes of a quadruple.
struct RzzBody {
  U1Body phase;
  static RzzBody of(const Gate& g) { return {U1Body::of(g)}; }
  AmpPair operator()(ValType r0, ValType i0, ValType r1, ValType i1) const {
    const Amp a = phase(r0, i0);
    const Amp b = phase(r1, i1);
    return AmpPair{a.re, a.im, b.re, b.im};
  }
};

/// Walk `body` over the control-set pair (control 1 / target 0, control 1
/// / target 1) of each quadruple.
template <class Space, class Body>
inline void walk_ctrl(const Gate& g, const Space& sp, IdxType begin,
                      IdxType end, Body body) {
  const IdxType coff = pow2(g.qb0);
  walk_quads(sp, g.qb0, g.qb1, coff, coff + pow2(g.qb1), begin, end, body);
}

template <class Space>
void kern_cx(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_ctrl(g, sp, begin, end, XBody{});
}

template <class Space>
void kern_cy(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_ctrl(g, sp, begin, end, YBody{});
}

template <class Space>
void kern_cz(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // Diagonal: negate only the |11> amplitude — a quarter of the data.
  walk_quad_ones(sp, g.qb0, g.qb1, pow2(g.qb0) + pow2(g.qb1), begin, end,
                 ZBody{});
}

template <class Space>
void kern_ch(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_ctrl(g, sp, begin, end, gate_body<U3Body>(g, sp));
}

template <class Space>
void kern_swap(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // Exchange |01> and |10>; the diagonal corners never move.
  walk_quads(sp, g.qb0, g.qb1, pow2(g.qb0), pow2(g.qb1), begin, end,
             XBody{});
}

template <class Space>
void kern_crx(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_ctrl(g, sp, begin, end, gate_body<U3Body>(g, sp));
}

template <class Space>
void kern_cry(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_ctrl(g, sp, begin, end, gate_body<U3Body>(g, sp));
}

template <class Space>
void kern_crz(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // Diagonal on the control-set half: |10> *= e^{-i t/2}, |11> *= e^{+i t/2}.
  walk_ctrl(g, sp, begin, end, gate_body<RzBody>(g, sp));
}

template <class Space>
void kern_cu1(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // Diagonal: only |11> *= e^{i lam} — one amplitude per quadruple.
  walk_quad_ones(sp, g.qb0, g.qb1, pow2(g.qb0) + pow2(g.qb1), begin, end,
                 gate_body<U1Body>(g, sp));
}

template <class Space>
void kern_cu3(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_ctrl(g, sp, begin, end, gate_body<U3Body>(g, sp));
}

template <class Space>
void kern_rxx(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // exp(-i t/2 X@X) couples (|00>,|11>) and (|01>,|10>) independently,
  // each by the RX body, so each pair is its own walk.
  const IdxType aoff = pow2(g.qb0);
  const IdxType boff = pow2(g.qb1);
  const auto body = gate_body<RxBody>(g, sp);
  walk_quads(sp, g.qb0, g.qb1, 0, aoff + boff, begin, end, body);
  walk_quads(sp, g.qb0, g.qb1, aoff, boff, begin, end, body);
}

template <class Space>
void kern_rzz(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // Touches only the middle two amplitudes of each quadruple.
  walk_quads(sp, g.qb0, g.qb1, pow2(g.qb0), pow2(g.qb1), begin, end,
             gate_body<RzzBody>(g, sp));
}

} // namespace svsim::kernels
