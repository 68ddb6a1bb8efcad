// Specialized 1-qubit gate kernels, templated over the address-space
// policy (single-device / peer scale-up / SHMEM scale-out).
//
// Each kernel exploits the gate's structure the way §3.2.1 of the paper
// describes: a T gate multiplies only the |1> amplitude by (1+i)/sqrt(2)
// (Listing 2/3), Z and the phase gates never touch the |0> half, X swaps
// without arithmetic, etc. Each kernel is a per-pair body handed to a walk
// of core/kernels/apply.hpp; bounds [begin, end) index amplitude pairs per
// Eq. (1), and the caller distributes them over workers.
#pragma once

#include <cmath>

#include "core/kernels/apply.hpp"
#include "ir/gate.hpp"

namespace svsim::kernels {

template <class Space>
void kern_id(const Gate&, const Space&, IdxType, IdxType) {}

template <class Space>
void kern_barrier(const Gate&, const Space&, IdxType, IdxType) {
  // The inter-gate sync is issued by the simulation kernel loop; barrier
  // has no per-amplitude work.
}

template <class Space>
void kern_x(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_pairs(sp, g.qb0, begin, end,
             [](ValType r0, ValType i0, ValType r1, ValType i1) {
               return AmpPair{r1, i1, r0, i0};
             });
}

template <class Space>
void kern_y(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // Y = [[0,-i],[i,0]]: new0 = -i*old1, new1 = i*old0.
  walk_pairs(sp, g.qb0, begin, end,
             [](ValType r0, ValType i0, ValType r1, ValType i1) {
               return AmpPair{i1, -r1, -i0, r0};
             });
}

template <class Space>
void kern_z(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // Touches only the |1> half: half the traffic of a generic 2x2.
  walk_ones(sp, g.qb0, begin, end,
            [](ValType r1, ValType i1) { return Amp{-r1, -i1}; });
}

template <class Space>
void kern_h(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_pairs(sp, g.qb0, begin, end,
             [](ValType r0, ValType i0, ValType r1, ValType i1) {
               return AmpPair{S2I * (r0 + r1), S2I * (i0 + i1),
                              S2I * (r0 - r1), S2I * (i0 - i1)};
             });
}

template <class Space>
void kern_s(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // alpha1 *= i.
  walk_ones(sp, g.qb0, begin, end,
            [](ValType r1, ValType i1) { return Amp{-i1, r1}; });
}

template <class Space>
void kern_sdg(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // alpha1 *= -i.
  walk_ones(sp, g.qb0, begin, end,
            [](ValType r1, ValType i1) { return Amp{i1, -r1}; });
}

template <class Space>
void kern_t(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // alpha1 *= (1+i)/sqrt(2): the Listing 2/3 kernel.
  walk_ones(sp, g.qb0, begin, end, [](ValType r1, ValType i1) {
    return Amp{S2I * (r1 - i1), S2I * (r1 + i1)};
  });
}

template <class Space>
void kern_tdg(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // alpha1 *= (1-i)/sqrt(2).
  walk_ones(sp, g.qb0, begin, end, [](ValType r1, ValType i1) {
    return Amp{S2I * (r1 + i1), S2I * (i1 - r1)};
  });
}

template <class Space>
void kern_u1(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // alpha1 *= e^{i lam}; |0> half untouched.
  const ValType cr = std::cos(g.theta);
  const ValType ci = std::sin(g.theta);
  walk_ones(sp, g.qb0, begin, end, [cr, ci](ValType r1, ValType i1) {
    return Amp{cr * r1 - ci * i1, cr * i1 + ci * r1};
  });
}

template <class Space>
void kern_rz(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // Diagonal: alpha0 *= e^{-i t/2}, alpha1 *= e^{+i t/2}. No pairing
  // communication is actually required, but we keep the pair loop shape so
  // work partitioning is uniform.
  const ValType c = std::cos(g.theta / 2);
  const ValType s = std::sin(g.theta / 2);
  walk_pairs(sp, g.qb0, begin, end,
             [c, s](ValType r0, ValType i0, ValType r1, ValType i1) {
               return AmpPair{c * r0 + s * i0, c * i0 - s * r0,
                              c * r1 - s * i1, c * i1 + s * r1};
             });
}

template <class Space>
void kern_rx(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // RX = [[c, -is],[-is, c]] — purely real/imag cross terms.
  const ValType c = std::cos(g.theta / 2);
  const ValType s = std::sin(g.theta / 2);
  walk_pairs(sp, g.qb0, begin, end,
             [c, s](ValType r0, ValType i0, ValType r1, ValType i1) {
               return AmpPair{c * r0 + s * i1, c * i0 - s * r1,
                              c * r1 + s * i0, c * i1 - s * r0};
             });
}

template <class Space>
void kern_ry(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // RY = [[c, -s],[s, c]] — all-real rotation.
  const ValType c = std::cos(g.theta / 2);
  const ValType s = std::sin(g.theta / 2);
  walk_pairs(sp, g.qb0, begin, end,
             [c, s](ValType r0, ValType i0, ValType r1, ValType i1) {
               return AmpPair{c * r0 - s * r1, c * i0 - s * i1,
                              s * r0 + c * r1, s * i0 + c * i1};
             });
}

namespace detail {
inline Entries2x2 u3_entries(ValType theta, ValType phi, ValType lam) {
  const ValType c = std::cos(theta / 2);
  const ValType s = std::sin(theta / 2);
  return Entries2x2{
      c,
      0,
      -std::cos(lam) * s,
      -std::sin(lam) * s,
      std::cos(phi) * s,
      std::sin(phi) * s,
      std::cos(phi + lam) * c,
      std::sin(phi + lam) * c,
  };
}
} // namespace detail

template <class Space>
void kern_u3(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  apply_2x2(sp, g.qb0, begin, end, detail::u3_entries(g.theta, g.phi, g.lam));
}

template <class Space>
void kern_u2(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  apply_2x2(sp, g.qb0, begin, end,
            detail::u3_entries(PI / 2, g.phi, g.lam));
}

} // namespace svsim::kernels
