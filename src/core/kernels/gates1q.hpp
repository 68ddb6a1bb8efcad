// Specialized 1-qubit gate kernels, templated over the address-space
// policy (single-device / peer scale-up / SHMEM scale-out / the batched
// engine's B members).
//
// Each kernel exploits the gate's structure the way §3.2.1 of the paper
// describes: a T gate multiplies only the |1> amplitude by (1+i)/sqrt(2)
// (Listing 2/3), Z and the phase gates never touch the |0> half, X swaps
// without arithmetic, etc. Each gate's arithmetic is one body type below
// — its coefficients as fields, built from the Gate by `of` — handed to
// a walk of core/kernels/apply.hpp; bounds [begin, end) index amplitude
// pairs per Eq. (1), and the caller distributes them over workers. The
// 2-qubit kernels (gates2q.hpp) reuse these bodies on the control-set
// half of a quadruple.
#pragma once

#include <cmath>

#include "core/kernels/apply.hpp"
#include "ir/gate.hpp"

namespace svsim::kernels {

// --- bodies ----------------------------------------------------------------

/// X (and CX, SWAP): exchange the two amplitudes, no arithmetic.
struct XBody {
  AmpPair operator()(ValType r0, ValType i0, ValType r1, ValType i1) const {
    return AmpPair{r1, i1, r0, i0};
  }
};

/// Y = [[0,-i],[i,0]] (and CY): new0 = -i*old1, new1 = i*old0.
struct YBody {
  AmpPair operator()(ValType r0, ValType i0, ValType r1, ValType i1) const {
    return AmpPair{i1, -r1, -i0, r0};
  }
};

/// Z (and CZ) on the |1> member: negate.
struct ZBody {
  Amp operator()(ValType r1, ValType i1) const { return Amp{-r1, -i1}; }
};

struct HBody {
  AmpPair operator()(ValType r0, ValType i0, ValType r1, ValType i1) const {
    return AmpPair{S2I * (r0 + r1), S2I * (i0 + i1), S2I * (r0 - r1),
                   S2I * (i0 - i1)};
  }
};

/// S on the |1> member: alpha1 *= i.
struct SBody {
  Amp operator()(ValType r1, ValType i1) const { return Amp{-i1, r1}; }
};

/// SDG on the |1> member: alpha1 *= -i.
struct SdgBody {
  Amp operator()(ValType r1, ValType i1) const { return Amp{i1, -r1}; }
};

/// T on the |1> member: alpha1 *= (1+i)/sqrt(2) — the Listing 2/3 kernel.
struct TBody {
  Amp operator()(ValType r1, ValType i1) const {
    return Amp{S2I * (r1 - i1), S2I * (r1 + i1)};
  }
};

/// TDG on the |1> member: alpha1 *= (1-i)/sqrt(2).
struct TdgBody {
  Amp operator()(ValType r1, ValType i1) const {
    return Amp{S2I * (r1 + i1), S2I * (i1 - r1)};
  }
};

/// U1 (and CU1) on the |1> member: alpha1 *= e^{i lam}.
struct U1Body {
  ValType cr, ci;
  static U1Body of(const Gate& g) {
    return {std::cos(g.theta), std::sin(g.theta)};
  }
  Amp operator()(ValType r1, ValType i1) const {
    return Amp{cr * r1 - ci * i1, cr * i1 + ci * r1};
  }
};

/// RZ (and CRZ): alpha0 *= e^{-i t/2}, alpha1 *= e^{+i t/2}.
struct RzBody {
  ValType c, s;
  static RzBody of(const Gate& g) {
    return {std::cos(g.theta / 2), std::sin(g.theta / 2)};
  }
  AmpPair operator()(ValType r0, ValType i0, ValType r1, ValType i1) const {
    return AmpPair{c * r0 + s * i0, c * i0 - s * r0, c * r1 - s * i1,
                   c * i1 + s * r1};
  }
};

/// RX = [[c, -is],[-is, c]] — purely real/imag cross terms. RXX applies
/// it to each of its two coupled pairs.
struct RxBody {
  ValType c, s;
  static RxBody of(const Gate& g) {
    return {std::cos(g.theta / 2), std::sin(g.theta / 2)};
  }
  AmpPair operator()(ValType r0, ValType i0, ValType r1, ValType i1) const {
    return AmpPair{c * r0 + s * i1, c * i0 - s * r1, c * r1 + s * i0,
                   c * i1 - s * r0};
  }
};

/// RY = [[c, -s],[s, c]] — all-real rotation.
struct RyBody {
  ValType c, s;
  static RyBody of(const Gate& g) {
    return {std::cos(g.theta / 2), std::sin(g.theta / 2)};
  }
  AmpPair operator()(ValType r0, ValType i0, ValType r1, ValType i1) const {
    return AmpPair{c * r0 - s * r1, c * i0 - s * i1, s * r0 + c * r1,
                   s * i0 + c * i1};
  }
};

/// The dense 2x2 as real/imag entries: U3 and U2, and on the control-set
/// pair CU3, CH, CRX and CRY.
struct U3Body {
  ValType r00, i00, r01, i01, r10, i10, r11, i11;

  static U3Body u3(ValType theta, ValType phi, ValType lam) {
    const ValType c = std::cos(theta / 2);
    const ValType s = std::sin(theta / 2);
    return {c,
            0,
            -std::cos(lam) * s,
            -std::sin(lam) * s,
            std::cos(phi) * s,
            std::sin(phi) * s,
            std::cos(phi + lam) * c,
            std::sin(phi + lam) * c};
  }
  static U3Body of(const Gate& g) {
    switch (g.op) {
      case OP::U2: return u3(PI / 2, g.phi, g.lam);
      case OP::CH: return {S2I, 0, S2I, 0, S2I, 0, -S2I, 0};
      case OP::CRX:
      case OP::CRY: {
        const ValType c = std::cos(g.theta / 2);
        const ValType s = std::sin(g.theta / 2);
        return g.op == OP::CRX ? U3Body{c, 0, 0, -s, 0, -s, c, 0}
                               : U3Body{c, 0, -s, 0, s, 0, c, 0};
      }
      default: return u3(g.theta, g.phi, g.lam); // U3, CU3
    }
  }
  AmpPair operator()(ValType r0, ValType i0, ValType r1, ValType i1) const {
    return AmpPair{r00 * r0 - i00 * i0 + r01 * r1 - i01 * i1,
                   r00 * i0 + i00 * r0 + r01 * i1 + i01 * r1,
                   r10 * r0 - i10 * i0 + r11 * r1 - i11 * i1,
                   r10 * i0 + i10 * r0 + r11 * i1 + i11 * r1};
  }
};

// --- kernels ---------------------------------------------------------------

template <class Space>
void kern_id(const Gate&, const Space&, IdxType, IdxType) {}

template <class Space>
void kern_barrier(const Gate&, const Space&, IdxType, IdxType) {
  // The inter-gate sync is issued by the simulation kernel loop; barrier
  // has no per-amplitude work.
}

template <class Space>
void kern_x(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_pairs(sp, g.qb0, begin, end, XBody{});
}

template <class Space>
void kern_y(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_pairs(sp, g.qb0, begin, end, YBody{});
}

template <class Space>
void kern_z(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // Touches only the |1> half: half the traffic of a generic 2x2.
  walk_ones(sp, g.qb0, begin, end, ZBody{});
}

template <class Space>
void kern_h(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_pairs(sp, g.qb0, begin, end, HBody{});
}

template <class Space>
void kern_s(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_ones(sp, g.qb0, begin, end, SBody{});
}

template <class Space>
void kern_sdg(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_ones(sp, g.qb0, begin, end, SdgBody{});
}

template <class Space>
void kern_t(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_ones(sp, g.qb0, begin, end, TBody{});
}

template <class Space>
void kern_tdg(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_ones(sp, g.qb0, begin, end, TdgBody{});
}

template <class Space>
void kern_u1(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // |0> half untouched.
  walk_ones(sp, g.qb0, begin, end, gate_body<U1Body>(g, sp));
}

template <class Space>
void kern_rz(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  // Diagonal, so no pairing is actually required, but we keep the pair
  // loop shape so work partitioning is uniform.
  walk_pairs(sp, g.qb0, begin, end, gate_body<RzBody>(g, sp));
}

template <class Space>
void kern_rx(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_pairs(sp, g.qb0, begin, end, gate_body<RxBody>(g, sp));
}

template <class Space>
void kern_ry(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_pairs(sp, g.qb0, begin, end, gate_body<RyBody>(g, sp));
}

template <class Space>
void kern_u3(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_pairs(sp, g.qb0, begin, end, gate_body<U3Body>(g, sp));
}

template <class Space>
void kern_u2(const Gate& g, const Space& sp, IdxType begin, IdxType end) {
  walk_pairs(sp, g.qb0, begin, end, gate_body<U3Body>(g, sp));
}

} // namespace svsim::kernels
