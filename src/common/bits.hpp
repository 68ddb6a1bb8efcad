// Bit/index arithmetic for state-vector addressing.
//
// These implement the strided index maps of the paper's Eq. (1) and
// Eq. (2): for a 1-qubit gate on qubit q, the i-th amplitude *pair* lives
// at (s_i, s_i + 2^q); for a 2-qubit gate on p < q, the i-th quadruple
// lives at (s_i, s_i+2^p, s_i+2^q, s_i+2^p+2^q). Every backend (single
// device, peer scale-up, SHMEM scale-out) uses the same maps — only the
// address space behind the index differs.
#pragma once

#include <bit>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace svsim {

/// log2 of a power-of-two value.
inline constexpr IdxType log2_exact(IdxType v) {
  return static_cast<IdxType>(std::countr_zero(static_cast<std::uint64_t>(v)));
}

inline constexpr bool is_pow2(IdxType v) {
  return v > 0 && (v & (v - 1)) == 0;
}

/// 2^e as an IdxType.
inline constexpr IdxType pow2(IdxType e) { return IdxType{1} << e; }

/// Eq. (1): base index of the i-th amplitude pair for a 1-qubit gate on
/// qubit q. i ranges over [0, 2^(n-1)); the pair is (s, s + 2^q).
///   s_i = floor(i / 2^q) * 2^(q+1) + (i mod 2^q)
inline constexpr IdxType pair_base(IdxType i, IdxType q) {
  const IdxType mask = pow2(q) - 1;
  return ((i >> q) << (q + 1)) | (i & mask);
}

/// Eq. (2): base index of the i-th amplitude quadruple for a 2-qubit gate
/// on qubits p < q. i ranges over [0, 2^(n-2)); the quadruple is
/// (s, s+2^p, s+2^q, s+2^p+2^q).
///   s_i = floor(floor(i/2^p) / 2^(q-p-1)) * 2^(q+1)
///       + (floor(i/2^p) mod 2^(q-p-1)) * 2^(p+1)
///       + (i mod 2^p)
inline constexpr IdxType quad_base(IdxType i, IdxType p, IdxType q) {
  const IdxType ip = i >> p;                   // floor(i / 2^p)
  const IdxType low = i & (pow2(p) - 1);       // i mod 2^p
  const IdxType midbits = q - p - 1;
  const IdxType hi = ip >> midbits;            // floor(ip / 2^(q-p-1))
  const IdxType mid = ip & (pow2(midbits) - 1);
  return (hi << (q + 1)) | (mid << (p + 1)) | low;
}

/// True if amplitude index `idx` has qubit `q` set (i.e. the basis state
/// has |1> on that qubit).
inline constexpr bool qubit_set(IdxType idx, IdxType q) {
  return ((idx >> q) & 1) != 0;
}

/// Insert a 0 bit at position q into an (n-1)-bit index: the inverse view
/// of pair_base as "enumerate all indices with qubit q clear".
inline constexpr IdxType insert_zero_bit(IdxType i, IdxType q) {
  return pair_base(i, q);
}

/// Number of amplitude pairs a 1-qubit gate touches in an n-qubit register.
inline constexpr IdxType half_dim(IdxType n) { return pow2(n - 1); }

/// Scatter the bits of an n-bit index through a qubit permutation:
/// bit b of `index` lands at position layout[b] of the result. With
/// layout[logical] = physical this maps a logical basis state to the
/// physical amplitude index that holds it.
inline constexpr IdxType permute_bits(IdxType index, const IdxType* layout,
                                      IdxType n) {
  IdxType out = 0;
  for (IdxType b = 0; b < n; ++b) {
    if ((index >> b) & 1) out |= pow2(layout[b]);
  }
  return out;
}

/// permute_bits for one fixed layout, as two half-width lookup tables:
/// the permutation is an OR of per-bit contributions, so the low h bits
/// and the high n-h bits of `index` map independently and
/// `lo[index & (2^h-1)] | hi[index >> h]` is exactly permute_bits. Each
/// table has at most 2^ceil(n/2) entries (256 KiB at n = 30), so a sweep
/// over 2^n indices does two cached loads instead of an n-step loop.
class BitPermuter {
public:
  BitPermuter(const IdxType* layout, IdxType n)
      : h_(n / 2), lo_(table(layout, 0, n / 2)),
        hi_(table(layout, n / 2, n - n / 2)) {}

  IdxType operator()(IdxType index) const {
    return lo_[static_cast<std::size_t>(index & (pow2(h_) - 1))] |
           hi_[static_cast<std::size_t>(index >> h_)];
  }

private:
  /// Image of every `width`-bit value placed at bit `shift`: each entry
  /// adds its lowest set bit's target to the entry without that bit.
  static std::vector<IdxType> table(const IdxType* layout, IdxType shift,
                                    IdxType width) {
    std::vector<IdxType> t(static_cast<std::size_t>(pow2(width)), 0);
    for (std::size_t j = 1; j < t.size(); ++j) {
      const int low = std::countr_zero(j);
      t[j] = t[j & (j - 1)] | pow2(layout[shift + low]);
    }
    return t;
  }

  IdxType h_;
  std::vector<IdxType> lo_, hi_;
};

/// Number of amplitude quadruples a 2-qubit gate touches.
inline constexpr IdxType quarter_dim(IdxType n) { return pow2(n - 2); }

} // namespace svsim
