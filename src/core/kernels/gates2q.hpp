// Specialized 2-qubit gate kernels.
//
// Each kernel is a body handed to a quadruple walk of
// core/kernels/apply.hpp; bounds [begin, end) index amplitude quadruples
// per Eq. (2) over (p, q) = (min, max) of the two operand qubits.
// Controlled gates touch only the control-set half of each quadruple;
// diagonal gates (cz, cu1, crz, rzz) never move amplitudes at all — this
// is where specialization buys the most over a generic 4x4 multiply.
#pragma once

#include <cmath>

#include "core/kernels/apply.hpp"
#include "core/kernels/gates1q.hpp"

namespace svsim::kernels {

template <class Space>
void kern_cx(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // Swap control 1 / target 0 with control 1 / target 1.
  const IdxType coff = pow2(g.qb0);
  walk_quads(sp, g.qb0, g.qb1, coff, coff + pow2(g.qb1), begin, end,
             [](ValType ra, ValType ia, ValType rb, ValType ib) {
               return AmpPair{rb, ib, ra, ia};
             });
}

template <class Space>
void kern_cy(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // new(10) = -i * old(11), new(11) = +i * old(10).
  const IdxType coff = pow2(g.qb0);
  walk_quads(sp, g.qb0, g.qb1, coff, coff + pow2(g.qb1), begin, end,
             [](ValType ra, ValType ia, ValType rb, ValType ib) {
               return AmpPair{ib, -rb, -ia, ra};
             });
}

template <class Space>
void kern_cz(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // Diagonal: negate only the |11> amplitude — a quarter of the data.
  walk_quad_ones(sp, g.qb0, g.qb1, pow2(g.qb0) + pow2(g.qb1), begin, end,
                 [](ValType rb, ValType ib) { return Amp{-rb, -ib}; });
}

template <class Space>
void kern_ch(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  apply_ctrl_2x2(sp, g.qb0, g.qb1, begin, end,
                 Entries2x2{S2I, 0, S2I, 0, S2I, 0, -S2I, 0});
}

template <class Space>
void kern_swap(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // Exchange |01> and |10>; the diagonal corners never move.
  walk_quads(sp, g.qb0, g.qb1, pow2(g.qb0), pow2(g.qb1), begin, end,
             [](ValType r0, ValType i0, ValType r1, ValType i1) {
               return AmpPair{r1, i1, r0, i0};
             });
}

template <class Space>
void kern_crx(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  const ValType c = std::cos(g.theta / 2);
  const ValType s = std::sin(g.theta / 2);
  apply_ctrl_2x2(sp, g.qb0, g.qb1, begin, end,
                 Entries2x2{c, 0, 0, -s, 0, -s, c, 0});
}

template <class Space>
void kern_cry(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  const ValType c = std::cos(g.theta / 2);
  const ValType s = std::sin(g.theta / 2);
  apply_ctrl_2x2(sp, g.qb0, g.qb1, begin, end,
                 Entries2x2{c, 0, -s, 0, s, 0, c, 0});
}

template <class Space>
void kern_crz(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // Diagonal on the control-set half: |10> *= e^{-i t/2}, |11> *= e^{+i t/2}.
  const IdxType coff = pow2(g.qb0);
  const ValType cr = std::cos(g.theta / 2);
  const ValType si = std::sin(g.theta / 2);
  walk_quads(sp, g.qb0, g.qb1, coff, coff + pow2(g.qb1), begin, end,
             [cr, si](ValType ra, ValType ia, ValType rb, ValType ib) {
               return AmpPair{cr * ra + si * ia, cr * ia - si * ra,
                              cr * rb - si * ib, cr * ib + si * rb};
             });
}

template <class Space>
void kern_cu1(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // Diagonal: only |11> *= e^{i lam} — one amplitude per quadruple.
  const ValType cr = std::cos(g.theta);
  const ValType ci = std::sin(g.theta);
  walk_quad_ones(sp, g.qb0, g.qb1, pow2(g.qb0) + pow2(g.qb1), begin, end,
                 [cr, ci](ValType rb, ValType ib) {
                   return Amp{cr * rb - ci * ib, cr * ib + ci * rb};
                 });
}

template <class Space>
void kern_cu3(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  apply_ctrl_2x2(sp, g.qb0, g.qb1, begin, end,
                 detail::u3_entries(g.theta, g.phi, g.lam));
}

template <class Space>
void kern_rxx(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // exp(-i t/2 X@X) couples (|00>,|11>) and (|01>,|10>) independently:
  // new_u = c*u - i*s*v, new_v = c*v - i*s*u for each coupled pair, so
  // each pair is its own walk (and the body is symmetric in u, v).
  const IdxType aoff = pow2(g.qb0);
  const IdxType boff = pow2(g.qb1);
  const ValType c = std::cos(g.theta / 2);
  const ValType s = std::sin(g.theta / 2);
  const auto body = [c, s](ValType ru, ValType iu, ValType rv, ValType iv) {
    return AmpPair{c * ru + s * iv, c * iu - s * rv, c * rv + s * iu,
                   c * iv - s * ru};
  };
  walk_quads(sp, g.qb0, g.qb1, 0, aoff + boff, begin, end, body);
  walk_quads(sp, g.qb0, g.qb1, aoff, boff, begin, end, body);
}

template <class Space>
void kern_rzz(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // qelib1 semantics: diag(1, e^{it}, e^{it}, 1) — touches only the
  // middle two amplitudes of each quadruple.
  const ValType cr = std::cos(g.theta);
  const ValType ci = std::sin(g.theta);
  walk_quads(sp, g.qb0, g.qb1, pow2(g.qb0), pow2(g.qb1), begin, end,
             [cr, ci](ValType r0, ValType i0, ValType r1, ValType i1) {
               return AmpPair{cr * r0 - ci * i0, cr * i0 + ci * r0,
                              cr * r1 - ci * i1, cr * i1 + ci * r1};
             });
}

} // namespace svsim::kernels
