//! The pluggable erasure-codec layer: one trait the whole checkpoint
//! stack programs against, with the paper's single-parity codes
//! ([`Code::Xor`] / [`Code::Sum`], `m = 1`) and the RAID-6-style
//! [`DualParity`](crate::dualparity::DualParity) P+Q code (`m = 2`) as
//! implementations.
//!
//! The protocol's encoding stays *distributed*: parities are built by
//! reduce collectives, one per parity role per slot. A codec therefore
//! only supplies local math —
//!
//! * [`ErasureCodec::contrib`]: what a rank feeds into the reduce for
//!   one parity role (for the Q role of the dual code, the data stripe
//!   pre-scaled by `g^pos` in GF(2^8), so the reduce itself stays a
//!   plain bitwise XOR);
//! * [`ErasureCodec::cancel_contrib`]: the contribution that *removes*
//!   a previously encoded stripe from a parity accumulation — recovery
//!   builds per-role syndromes this way;
//! * [`ErasureCodec::solve`]: the local solve turning surviving-role
//!   syndromes into the erased data stripes.
//!
//! All buffer loops run on the chunked [`crate::kernels`] engine.
//! Configuration enters through [`CodecSpec`], the plain-data selector
//! carried by checkpoint configs.

use crate::code::Code;
use crate::gf256;
use crate::kernels::{self, KernelConfig};

/// How a codec's reduce contributions travel and combine on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// Combine IEEE-754 bit patterns with bitwise XOR (`MPI_BXOR` on
    /// `u64` words). Exact and self-inverse.
    Bits,
    /// Combine numerically (`MPI_SUM` on `f64`). Recovery subtracts, so
    /// rebuilt values can differ by floating-point rounding.
    Floats,
}

/// An erasure code over the group's stripe/slot geometry.
///
/// `m = parity_count()` parity stripes per slot tolerate any `m`
/// erasures among one slot's codeword (its data stripes plus its parity
/// stripes). Implementations are stateless — geometry (the codeword
/// position `pos` and stripe length) comes in per call, which is what
/// lets one `&'static` instance serve every group size.
pub trait ErasureCodec: Sync + Send {
    /// Number of parity stripes per slot — the erasures per group this
    /// codec can repair.
    fn parity_count(&self) -> usize;

    /// Short human name (shows up in stats and bench labels).
    fn name(&self) -> &'static str;

    /// Wire representation of the reduce contributions.
    fn wire(&self) -> Wire;

    /// The contribution of the data stripe at codeword position `pos`
    /// to parity role `role` of its slot, built in one pass into a fresh
    /// buffer that the reduce then owns (it travels by value).
    fn contrib(&self, role: usize, pos: usize, stripe: &[f64], cfg: KernelConfig) -> Vec<f64>;

    /// The contribution that cancels `stripe` back *out* of parity role
    /// `role` (syndrome building during recovery). For [`Wire::Bits`]
    /// codecs XOR is self-inverse, so this equals [`Self::contrib`].
    fn cancel_contrib(
        &self,
        role: usize,
        pos: usize,
        stripe: &[f64],
        cfg: KernelConfig,
    ) -> Vec<f64>;

    /// Solve for the erased codeword positions `erased` (ascending)
    /// given the syndromes of the surviving parity roles. A syndrome is
    /// the role's parity combined with the cancel-contributions of every
    /// *surviving* data stripe, so it equals the combination of the
    /// erased stripes' contributions alone. Returns one rebuilt stripe
    /// per entry of `erased`, in the same order.
    ///
    /// # Panics
    ///
    /// If `erased.len() > parity_count()` or the surviving roles cannot
    /// determine the erased stripes — callers rule that out from group
    /// membership before recovery.
    fn solve(
        &self,
        erased: &[usize],
        syndromes: &[(usize, Vec<f64>)],
        cfg: KernelConfig,
    ) -> Vec<Vec<f64>>;
}

/// Which erasure codec a checkpoint uses — the plain-data selector
/// carried by `CkptConfig` / `SktConfig` and resolved once at init.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "a codec spec does nothing until resolved into a codec"]
pub enum CodecSpec {
    /// One parity stripe per slot (`m = 1`): the paper's XOR or SUM
    /// reduce. Tolerates one loss per group.
    Single(Code),
    /// RAID-6-style P+Q over GF(2^8) (`m = 2`). Tolerates any two
    /// losses per group; requires groups of at least 3.
    Dual,
    /// Generalized Reed–Solomon over GF(2^8) with `m` parity roles
    /// (Cauchy construction, see [`crate::rs`]). Tolerates any `m`
    /// losses per group; requires groups of at least `m + 1`.
    Rs {
        /// Parity stripes per slot — the erasures tolerated per group.
        m: usize,
    },
}

impl Default for CodecSpec {
    /// The paper's default: single parity via bitwise XOR.
    fn default() -> Self {
        CodecSpec::Single(Code::Xor)
    }
}

impl CodecSpec {
    /// Single-parity spec over the given reduce code.
    pub fn single(code: Code) -> Self {
        CodecSpec::Single(code)
    }

    /// Dual-parity (P+Q) spec.
    pub fn dual() -> Self {
        CodecSpec::Dual
    }

    /// Generalized Reed–Solomon spec with `m` parity roles.
    pub fn rs(m: usize) -> Self {
        CodecSpec::Rs { m }
    }

    /// Parity stripes per slot, `m`.
    #[must_use]
    pub fn parity_count(self) -> usize {
        self.resolve().parity_count()
    }

    /// The codec instance. Codecs are stateless, so one static each;
    /// the RS family is leak-allocated once per distinct `m` and cached.
    #[must_use]
    pub fn resolve(self) -> &'static dyn ErasureCodec {
        static XOR: SingleCodec = SingleCodec(Code::Xor);
        static SUM: SingleCodec = SingleCodec(Code::Sum);
        static DUAL: DualCodec = DualCodec;
        match self {
            CodecSpec::Single(Code::Xor) => &XOR,
            CodecSpec::Single(Code::Sum) => &SUM,
            CodecSpec::Dual => &DUAL,
            CodecSpec::Rs { m } => resolve_rs(m),
        }
    }

    /// The codec's display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.resolve().name()
    }
}

/// One leaked [`RsCodec`](crate::rs::RsCodec) per distinct `m`, cached
/// so repeated resolves hand back the same `&'static` instance (specs
/// are resolved once per checkpoint init, so the lock is cold).
fn resolve_rs(m: usize) -> &'static dyn ErasureCodec {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static REGISTRY: OnceLock<Mutex<HashMap<usize, &'static crate::rs::RsCodec>>> = OnceLock::new();
    let mut map = REGISTRY
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("RS codec registry poisoned");
    let codec: &'static crate::rs::RsCodec = map
        .entry(m)
        .or_insert_with(|| Box::leak(Box::new(crate::rs::RsCodec::new(m))));
    codec
}

/// `m = 1`: the paper's single-parity code over one reduce operator.
struct SingleCodec(Code);

impl ErasureCodec for SingleCodec {
    fn parity_count(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn wire(&self) -> Wire {
        match self.0 {
            Code::Xor => Wire::Bits,
            Code::Sum => Wire::Floats,
        }
    }

    fn contrib(&self, role: usize, _pos: usize, stripe: &[f64], _cfg: KernelConfig) -> Vec<f64> {
        assert_eq!(role, 0, "single parity has one role");
        stripe.to_vec()
    }

    fn cancel_contrib(
        &self,
        role: usize,
        _pos: usize,
        stripe: &[f64],
        cfg: KernelConfig,
    ) -> Vec<f64> {
        assert_eq!(role, 0, "single parity has one role");
        match self.0 {
            Code::Xor => stripe.to_vec(),
            Code::Sum => kernels::negated(stripe, cfg),
        }
    }

    fn solve(
        &self,
        erased: &[usize],
        syndromes: &[(usize, Vec<f64>)],
        _cfg: KernelConfig,
    ) -> Vec<Vec<f64>> {
        match erased {
            [] => Vec::new(),
            [_] => {
                let (role, s) = syndromes
                    .first()
                    .expect("single parity: the parity role must survive");
                assert_eq!(*role, 0);
                vec![s.clone()]
            }
            _ => panic!("single parity can rebuild only one erasure"),
        }
    }
}

/// `m = 2`: RAID-6-style P+Q over GF(2^8). Contributions for the Q role
/// are pre-scaled locally by `g^pos`, so the distributed reduce is a
/// plain XOR of bit patterns for both roles and the reduce result *is*
/// the parity.
struct DualCodec;

impl ErasureCodec for DualCodec {
    fn parity_count(&self) -> usize {
        2
    }

    fn name(&self) -> &'static str {
        "P+Q"
    }

    fn wire(&self) -> Wire {
        Wire::Bits
    }

    fn contrib(&self, role: usize, pos: usize, stripe: &[f64], cfg: KernelConfig) -> Vec<f64> {
        let c = match role {
            0 => 1,
            1 => gf256::gpow(pos),
            _ => panic!("dual parity has roles 0 (P) and 1 (Q)"),
        };
        kernels::gf_mul(stripe, c, cfg)
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
        let s_of = |role: usize| {
            syndromes
                .iter()
                .find(|(r, _)| *r == role)
                .map(|(_, s)| s.as_slice())
        };
        match erased {
            [] => Vec::new(),
            [x] => {
                if let Some(s0) = s_of(0) {
                    // P survives: the syndrome is the stripe.
                    vec![s0.to_vec()]
                } else {
                    // Only Q survives: S1 = g^x · D_x.
                    let s1 = s_of(1).expect("dual parity: no surviving role");
                    vec![kernels::gf_mul(s1, gf256::inv(gf256::gpow(*x)), cfg)]
                }
            }
            [x, y] => {
                // S0 = Dx ⊕ Dy ; S1 = g^x Dx ⊕ g^y Dy
                // => Dy = (S1 ⊕ g^x·S0) / (g^x ⊕ g^y); Dx = S0 ⊕ Dy
                let s0 = s_of(0).expect("dual parity: P needed for a double erasure");
                let s1 = s_of(1).expect("dual parity: Q needed for a double erasure");
                let gx = gf256::gpow(*x);
                let gy = gf256::gpow(*y);
                let mut dy = s1.to_vec();
                kernels::gf_mac(&mut dy, s0, gx, cfg);
                kernels::gf_scale(&mut dy, gf256::inv(gx ^ gy), cfg);
                let mut dx = s0.to_vec();
                kernels::xor_accumulate(&mut dx, &dy, cfg);
                vec![dx, dy]
            }
            _ => panic!("dual parity corrects at most two erasures"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripe(pos: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|j| ((pos * 37 + j * 11) as f64).cos() * 512.0)
            .collect()
    }

    /// Combine contributions the way the wire does — the local stand-in
    /// for the distributed reduce.
    fn combine(wire: Wire, parts: &[Vec<f64>], len: usize) -> Vec<f64> {
        let mut acc = vec![0.0f64; len];
        for p in parts {
            match wire {
                Wire::Bits => kernels::xor_accumulate(&mut acc, p, KernelConfig::serial()),
                Wire::Floats => kernels::sum_accumulate(&mut acc, p, KernelConfig::serial()),
            }
        }
        acc
    }

    fn encode(codec: &dyn ErasureCodec, data: &[Vec<f64>], len: usize) -> Vec<Vec<f64>> {
        (0..codec.parity_count())
            .map(|role| {
                let parts: Vec<Vec<f64>> = data
                    .iter()
                    .enumerate()
                    .map(|(pos, d)| codec.contrib(role, pos, d, KernelConfig::serial()))
                    .collect();
                combine(codec.wire(), &parts, len)
            })
            .collect()
    }

    /// Erase `erased` data stripes (and no parity), rebuild through the
    /// syndrome path every layer above uses.
    fn rebuild(
        codec: &dyn ErasureCodec,
        data: &[Vec<f64>],
        parity: &[Vec<f64>],
        erased: &[usize],
        len: usize,
    ) -> Vec<Vec<f64>> {
        let cfg = KernelConfig::serial();
        let syndromes: Vec<(usize, Vec<f64>)> = (0..codec.parity_count())
            .map(|role| {
                let mut parts = vec![parity[role].clone()];
                for (pos, d) in data.iter().enumerate() {
                    if !erased.contains(&pos) {
                        parts.push(codec.cancel_contrib(role, pos, d, cfg));
                    }
                }
                (role, combine(codec.wire(), &parts, len))
            })
            .collect();
        codec.solve(erased, &syndromes, cfg)
    }

    #[test]
    fn xor_codec_round_trips_one_erasure() {
        let codec = CodecSpec::default().resolve();
        assert_eq!(codec.parity_count(), 1);
        assert_eq!(codec.wire(), Wire::Bits);
        let data: Vec<Vec<f64>> = (0..4).map(|p| stripe(p, 9)).collect();
        let parity = encode(codec, &data, 9);
        for x in 0..4 {
            let got = rebuild(codec, &data, &parity, &[x], 9);
            assert_eq!(got.len(), 1);
            assert!(got[0]
                .iter()
                .zip(&data[x])
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn sum_codec_round_trips_one_erasure() {
        let codec = CodecSpec::single(Code::Sum).resolve();
        assert_eq!(codec.wire(), Wire::Floats);
        let data: Vec<Vec<f64>> = (0..3).map(|p| stripe(p, 6)).collect();
        let parity = encode(codec, &data, 6);
        for x in 0..3 {
            let got = rebuild(codec, &data, &parity, &[x], 6);
            for (a, b) in got[0].iter().zip(&data[x]) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn dual_codec_round_trips_every_pair_of_erasures() {
        let codec = CodecSpec::dual().resolve();
        assert_eq!(codec.parity_count(), 2);
        let k = 5;
        let len = 17;
        let data: Vec<Vec<f64>> = (0..k).map(|p| stripe(p, len)).collect();
        let parity = encode(codec, &data, len);
        for x in 0..k {
            for y in x + 1..k {
                let got = rebuild(codec, &data, &parity, &[x, y], len);
                for (g, want) in got.iter().zip([&data[x], &data[y]]) {
                    assert!(
                        g.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()),
                        "({x},{y})"
                    );
                }
            }
        }
        for x in 0..k {
            let got = rebuild(codec, &data, &parity, &[x], len);
            assert!(got[0]
                .iter()
                .zip(&data[x])
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn dual_codec_matches_dualparity_reference() {
        // The distributed contrib/reduce formulation must produce the
        // exact P and Q of the direct DualParity encoder.
        let k = 6;
        let len = 13;
        let data: Vec<Vec<f64>> = (0..k).map(|p| stripe(p, len)).collect();
        let codec = CodecSpec::dual().resolve();
        let parity = encode(codec, &data, len);
        let dp = crate::dualparity::DualParity::new(k, len);
        let refs: Vec<&[f64]> = data.iter().map(|s| s.as_slice()).collect();
        let (p, q) = dp.encode_with(&refs, KernelConfig::serial());
        assert!(parity[0]
            .iter()
            .zip(&p)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(parity[1]
            .iter()
            .zip(&q)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn dual_solves_with_only_q_surviving() {
        let codec = CodecSpec::dual().resolve();
        let len = 8;
        let data: Vec<Vec<f64>> = (0..4).map(|p| stripe(p, len)).collect();
        let parity = encode(codec, &data, len);
        let cfg = KernelConfig::serial();
        for x in 0..4 {
            // only role 1 (Q) syndrome available — as when P's owner died
            let mut parts = vec![parity[1].clone()];
            for (pos, d) in data.iter().enumerate() {
                if pos != x {
                    parts.push(codec.cancel_contrib(1, pos, d, cfg));
                }
            }
            let syn = vec![(1usize, combine(Wire::Bits, &parts, len))];
            let got = codec.solve(&[x], &syn, cfg);
            assert!(got[0]
                .iter()
                .zip(&data[x])
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn spec_names_and_counts() {
        assert_eq!(CodecSpec::default(), CodecSpec::Single(Code::Xor));
        assert_eq!(CodecSpec::default().name(), "BXOR");
        assert_eq!(CodecSpec::single(Code::Sum).name(), "SUM");
        assert_eq!(CodecSpec::dual().name(), "P+Q");
        assert_eq!(CodecSpec::default().parity_count(), 1);
        assert_eq!(CodecSpec::dual().parity_count(), 2);
    }

    #[test]
    #[should_panic(expected = "only one erasure")]
    fn single_codec_refuses_two_erasures() {
        let codec = CodecSpec::default().resolve();
        codec.solve(&[0, 1], &[(0, vec![0.0])], KernelConfig::serial());
    }
}
