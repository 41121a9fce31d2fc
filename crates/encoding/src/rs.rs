//! Generalized Reed–Solomon erasure codec over GF(2^8): `m` parity
//! stripes per slot tolerate any `m` simultaneous erasures in the slot's
//! codeword, for arbitrary `m ≥ 1`.
//!
//! # Construction
//!
//! The generator matrix is **Cauchy** rather than plain Vandermonde: the
//! coefficient of data position `pos` in parity role `role` is
//!
//! ```text
//! c[role][pos] = 1 / (x_role ⊕ y_pos),   x_role = role,  y_pos = m + pos
//! ```
//!
//! The x-coordinates (roles `0..m`) and y-coordinates (`m..m+k`) are
//! drawn from disjoint byte ranges, so every denominator is nonzero, and
//! *every square submatrix of a Cauchy matrix is nonsingular*. That last
//! property is what makes the decode unconditional: whichever `e ≤ m`
//! codeword positions are erased and whichever `e` parity roles survive,
//! the `e×e` system is invertible. (Row-subsets of a plain Vandermonde
//! matrix over GF(2^8) do not have this guarantee.)
//!
//! # Distributed encode
//!
//! Encoding stays one reduce per parity role: a rank's contribution to
//! role `role` is its data stripe pre-scaled by `c[role][pos]` locally
//! (one fused [`kernels::gf_mul`] pass into a fresh wire buffer), and
//! the wire combine is plain bitwise XOR ([`Wire::Bits`]), exactly
//! like the P+Q codec. The reduce result *is* the parity.
//!
//! # Decode
//!
//! [`ErasureCodec::solve`] picks the first `e` surviving role syndromes,
//! inverts the `e×e` Cauchy submatrix with
//! [`gf256::invert_matrix`] (Gauss–Jordan over the field), and rebuilds
//! each erased stripe as a [`kernels::gf_mac`] combination of the
//! syndromes — so the heavy lifting runs on the same chunked,
//! SIMD-dispatched kernel engine as encoding.

use crate::codec::{ErasureCodec, Wire};
use crate::gf256;
use crate::kernels::{self, KernelConfig};

/// Reed–Solomon codec with `m` parity roles (see module docs).
pub struct RsCodec {
    m: usize,
    name: &'static str,
}

impl RsCodec {
    /// A codec tolerating `m` erasures per group. `m` must be at least 1
    /// and small enough that the Cauchy coordinates fit the field; data
    /// positions are then limited to `pos < 256 - m`.
    #[must_use]
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "RS needs at least one parity role");
        assert!(m < 128, "RS over GF(2^8): parity count must stay below 128");
        RsCodec {
            m,
            name: Box::leak(format!("RS(m={m})").into_boxed_str()),
        }
    }

    /// The Cauchy generator coefficient of data position `pos` in parity
    /// role `role`: `1 / (role ⊕ (m + pos))`.
    #[must_use]
    pub fn coeff(&self, role: usize, pos: usize) -> u8 {
        assert!(role < self.m, "role {role} out of range for m={}", self.m);
        assert!(
            self.m + pos < 256,
            "RS over GF(2^8): codeword position {pos} exceeds the field (m={})",
            self.m
        );
        gf256::inv((role as u8) ^ ((self.m + pos) as u8))
    }

    /// The `erased.len() × erased.len()` decode submatrix for the given
    /// erased positions and surviving roles.
    fn submatrix(&self, roles: &[usize], erased: &[usize]) -> Vec<Vec<u8>> {
        roles
            .iter()
            .map(|&r| erased.iter().map(|&x| self.coeff(r, x)).collect())
            .collect()
    }
}

impl ErasureCodec for RsCodec {
    fn parity_count(&self) -> usize {
        self.m
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn wire(&self) -> Wire {
        Wire::Bits
    }

    fn contrib(&self, role: usize, pos: usize, stripe: &[f64], cfg: KernelConfig) -> Vec<f64> {
        kernels::gf_mul(stripe, self.coeff(role, pos), cfg)
    }

    fn cancel_contrib(
        &self,
        role: usize,
        pos: usize,
        stripe: &[f64],
        cfg: KernelConfig,
    ) -> Vec<f64> {
        // XOR wire: cancelling is re-contributing.
        self.contrib(role, pos, stripe, cfg)
    }

    fn solve(
        &self,
        erased: &[usize],
        syndromes: &[(usize, Vec<f64>)],
        cfg: KernelConfig,
    ) -> Vec<Vec<f64>> {
        let e = erased.len();
        assert!(
            e <= self.m,
            "{} corrects at most {} erasures, got {e}",
            self.name,
            self.m
        );
        if e == 0 {
            return Vec::new();
        }
        assert!(
            syndromes.len() >= e,
            "{}: need {e} surviving roles, have {}",
            self.name,
            syndromes.len()
        );
        // Any e surviving roles suffice (every Cauchy submatrix is
        // invertible); take the first e.
        let chosen = &syndromes[..e];
        let roles: Vec<usize> = chosen.iter().map(|(r, _)| *r).collect();
        let a = self.submatrix(&roles, erased);
        let a_inv =
            gf256::invert_matrix(&a).expect("Cauchy submatrices are nonsingular by construction");
        let len = chosen[0].1.len();
        a_inv
            .iter()
            .map(|row| {
                let mut d = kernels::zeroed(len);
                for (c, (_, s)) in row.iter().zip(chosen) {
                    kernels::gf_mac(&mut d, s, *c, cfg);
                }
                d
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodecSpec;

    fn stripe(pos: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|j| ((pos * 37 + j * 11) as f64).cos() * 512.0)
            .collect()
    }

    fn encode(codec: &dyn ErasureCodec, data: &[Vec<f64>], len: usize) -> Vec<Vec<f64>> {
        (0..codec.parity_count())
            .map(|role| {
                let mut acc = kernels::zeroed(len);
                for (pos, d) in data.iter().enumerate() {
                    let c = codec.contrib(role, pos, d, KernelConfig::serial());
                    kernels::xor_accumulate(&mut acc, &c, KernelConfig::serial());
                }
                acc
            })
            .collect()
    }

    /// Syndrome of `role` with the stripes in `erased` missing.
    fn syndrome(
        codec: &dyn ErasureCodec,
        data: &[Vec<f64>],
        parity: &[f64],
        role: usize,
        erased: &[usize],
        len: usize,
    ) -> Vec<f64> {
        let cfg = KernelConfig::serial();
        let mut acc = kernels::zeroed(len);
        kernels::xor_accumulate(&mut acc, parity, cfg);
        for (pos, d) in data.iter().enumerate() {
            if !erased.contains(&pos) {
                let c = codec.cancel_contrib(role, pos, d, cfg);
                kernels::xor_accumulate(&mut acc, &c, cfg);
            }
        }
        acc
    }

    fn subsets(n: usize, m: usize) -> Vec<Vec<usize>> {
        if m == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for first in 0..n {
            for mut rest in subsets(n, m - 1) {
                if rest.iter().all(|&r| r > first) {
                    let mut s = vec![first];
                    s.append(&mut rest);
                    out.push(s);
                }
            }
        }
        out
    }

    #[test]
    fn rs3_round_trips_every_erasure_triple_with_every_role_subset() {
        let codec = CodecSpec::rs(3).resolve();
        assert_eq!(codec.parity_count(), 3);
        assert_eq!(codec.wire(), Wire::Bits);
        let (k, len) = (5, 9);
        let data: Vec<Vec<f64>> = (0..k).map(|p| stripe(p, len)).collect();
        let parity = encode(codec, &data, len);
        for e in 1..=3usize {
            for erased in subsets(k, e) {
                // every e-subset of surviving roles must decode
                for roles in subsets(3, e) {
                    let syn: Vec<(usize, Vec<f64>)> = roles
                        .iter()
                        .map(|&r| (r, syndrome(codec, &data, &parity[r], r, &erased, len)))
                        .collect();
                    let got = codec.solve(&erased, &syn, KernelConfig::serial());
                    for (g, &x) in got.iter().zip(&erased) {
                        assert!(
                            g.iter()
                                .zip(&data[x])
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                            "erased {erased:?} roles {roles:?} pos {x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rs_m_scales_to_larger_parity_counts() {
        for m in [1usize, 2, 4, 5] {
            let codec = CodecSpec::rs(m).resolve();
            let (k, len) = (6, 5);
            let data: Vec<Vec<f64>> = (0..k).map(|p| stripe(p, len)).collect();
            let parity = encode(codec, &data, len);
            let erased: Vec<usize> = (0..m.min(k)).collect();
            let syn: Vec<(usize, Vec<f64>)> = (0..erased.len())
                .map(|r| (r, syndrome(codec, &data, &parity[r], r, &erased, len)))
                .collect();
            let got = codec.solve(&erased, &syn, KernelConfig::serial());
            for (g, &x) in got.iter().zip(&erased) {
                assert!(
                    g.iter()
                        .zip(&data[x])
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "m={m} pos {x}"
                );
            }
        }
    }

    #[test]
    fn resolve_caches_one_instance_per_m() {
        let a = CodecSpec::rs(3).resolve();
        let b = CodecSpec::rs(3).resolve();
        assert!(std::ptr::eq(
            a as *const dyn ErasureCodec as *const u8,
            b as *const dyn ErasureCodec as *const u8
        ));
        assert_eq!(a.name(), "RS(m=3)");
        assert_eq!(CodecSpec::rs(7).name(), "RS(m=7)");
    }

    #[test]
    #[should_panic(expected = "corrects at most 3 erasures")]
    fn rs3_refuses_four_erasures() {
        let codec = CodecSpec::rs(3).resolve();
        codec.solve(
            &[0, 1, 2, 3],
            &[(0, vec![0.0]), (1, vec![0.0]), (2, vec![0.0])],
            KernelConfig::serial(),
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Invertibility of the decode system for arbitrary erased
            /// positions and surviving roles — the Cauchy property the
            /// whole codec rests on.
            #[test]
            fn every_decode_submatrix_is_invertible(
                m in 1usize..9,
                seed in any::<u64>(),
            ) {
                let codec = RsCodec::new(m);
                let k = 12usize;
                // sample e, then e distinct erased positions and e roles
                let mut s = seed;
                let mut next = || {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (s >> 33) as usize
                };
                let e = 1 + next() % m;
                let mut erased: Vec<usize> = Vec::new();
                while erased.len() < e.min(k) {
                    let p = next() % k;
                    if !erased.contains(&p) {
                        erased.push(p);
                    }
                }
                erased.sort_unstable();
                let mut roles: Vec<usize> = Vec::new();
                while roles.len() < erased.len() {
                    let r = next() % m;
                    if !roles.contains(&r) {
                        roles.push(r);
                    }
                }
                let mat = codec.submatrix(&roles, &erased);
                prop_assert!(
                    gf256::invert_matrix(&mat).is_some(),
                    "singular submatrix: m={} roles={:?} erased={:?}", m, roles, erased
                );
            }

            /// All generator coefficients are nonzero (x/y ranges are
            /// disjoint) and distinct roles give distinct rows.
            #[test]
            fn coefficients_are_nonzero_and_rows_distinct(
                m in 2usize..9,
                pos in 0usize..64,
            ) {
                let codec = RsCodec::new(m);
                for role in 0..m {
                    prop_assert_ne!(codec.coeff(role, pos), 0);
                }
                for r1 in 0..m {
                    for r2 in (r1 + 1)..m {
                        prop_assert_ne!(codec.coeff(r1, pos), codec.coeff(r2, pos));
                    }
                }
            }
        }
    }
}
