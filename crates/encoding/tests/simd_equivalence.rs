//! SIMD/scalar kernel-equivalence properties: every accelerated backend
//! of the GF(2^8) scale/fused-multiply/axpy and CRC-32C kernels must produce bytes
//! identical to the scalar reference for arbitrary lengths, values and
//! (mis)alignments — including the sub-vector tails the `pshufb` and
//! 8-byte-stride paths hand to their scalar remainders.
//!
//! Buffers are generated from sampled `(len, offset, seed)` primitives
//! (splitmix64 fill), and misalignment is exercised by slicing at a
//! sampled byte offset so the vector loops start off any 16/32-byte
//! boundary. The same properties drive the f64-level kernels through
//! forced [`SimdMode`]s, covering the dispatch plumbing end to end.

use proptest::prelude::*;
use skt_encoding::kernels::{self, KernelConfig};
use skt_encoding::simd::{
    crc32c_update, gf_mac_bytes, gf_mul_into_bytes, gf_scale_bytes, CrcBackend, GfBackend, SimdMode,
};
use skt_encoding::{crc32c_f64, gf256};
use std::mem::MaybeUninit;

fn bytes(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| {
            let mut z = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z >> 56) as u8
        })
        .collect()
}

fn floats(len: usize, seed: u64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let z = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(0xD134_2543_DE82_EF95);
            f64::from_bits(z >> 2) // finite
        })
        .collect()
}

proptest! {
    /// `buf[i] := c·buf[i]`: every available backend equals the scalar
    /// reference at any length, offset and scalar — including c = 0 / 1
    /// (the memset / no-op fast paths) and lengths below one vector.
    #[test]
    fn gf_scale_backends_match_scalar(
        len in 0usize..600,
        offset in 0usize..33,
        c in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let base = bytes(len + offset, seed);
        let mut want = base[offset..].to_vec();
        gf_scale_bytes(&mut want, c, GfBackend::Scalar);
        for backend in GfBackend::available() {
            let mut got = base.clone();
            gf_scale_bytes(&mut got[offset..], c, backend);
            prop_assert_eq!(
                &got[offset..], want.as_slice(),
                "scale: len={} offset={} c={} backend={:?}", len, offset, c, backend
            );
            prop_assert_eq!(&got[..offset], &base[..offset], "prefix untouched");
        }
    }

    /// `dst[i] := c·src[i]` into uninitialised memory: every available
    /// backend writes exactly the bytes of a copy scaled on the scalar
    /// reference, with independently mis-aligned input and output, and
    /// nothing outside `dst`.
    #[test]
    fn gf_mul_into_backends_match_scalar_scale(
        len in 0usize..600,
        d_off in 0usize..33,
        s_off in 0usize..33,
        c in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let src = bytes(len + s_off, seed);
        let mut want = src[s_off..].to_vec();
        gf_scale_bytes(&mut want, c, GfBackend::Scalar);
        for backend in GfBackend::available() {
            // a guard byte on each side catches any stray write
            let mut out = vec![MaybeUninit::new(0xA5u8); d_off + len + 1];
            gf_mul_into_bytes(&mut out[d_off..d_off + len], &src[s_off..], c, backend);
            // SAFETY: every byte was initialised, by the fill or the kernel.
            let got: Vec<u8> = out.iter().map(|b| unsafe { b.assume_init() }).collect();
            prop_assert_eq!(
                &got[d_off..d_off + len], want.as_slice(),
                "mul: len={} d_off={} s_off={} c={} backend={:?}", len, d_off, s_off, c, backend
            );
            prop_assert!(got[..d_off].iter().all(|&b| b == 0xA5), "prefix untouched");
            prop_assert_eq!(got[d_off + len], 0xA5, "suffix untouched");
        }
    }

    /// `acc[i] ^= c·x[i]`: every available backend equals the scalar
    /// reference, with independently mis-aligned accumulator and input.
    #[test]
    fn gf_mac_backends_match_scalar(
        len in 0usize..600,
        a_off in 0usize..33,
        x_off in 0usize..33,
        c in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let acc0 = bytes(len + a_off, seed);
        let x = bytes(len + x_off, seed ^ 0xABCD);
        let mut want = acc0[a_off..].to_vec();
        gf_mac_bytes(&mut want, &x[x_off..], c, GfBackend::Scalar);
        for backend in GfBackend::available() {
            let mut got = acc0.clone();
            gf_mac_bytes(&mut got[a_off..], &x[x_off..], c, backend);
            prop_assert_eq!(
                &got[a_off..], want.as_slice(),
                "mac: len={} a_off={} x_off={} c={} backend={:?}", len, a_off, x_off, c, backend
            );
        }
    }

    /// The split-table identity the vector kernels are built on:
    /// `c·b = LO[b & 0xF] ⊕ HI[b >> 4]` for every (c, b) pair sampled.
    #[test]
    fn nibble_decomposition_matches_field_multiply(c in any::<u8>(), b in any::<u8>()) {
        let (lo, hi) = skt_encoding::simd::nibble_tables(c);
        prop_assert_eq!(lo[(b & 0x0F) as usize] ^ hi[(b >> 4) as usize], gf256::mul(c, b));
    }

    /// CRC-32C: every available backend advances an arbitrary in-flight
    /// state over arbitrary bytes identically to the table walk.
    #[test]
    fn crc_backends_match_table(
        len in 0usize..600,
        offset in 0usize..33,
        state in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let d = bytes(len + offset, seed);
        let want = crc32c_update(state, &d[offset..], CrcBackend::Table);
        for backend in CrcBackend::available() {
            prop_assert_eq!(
                crc32c_update(state, &d[offset..], backend), want,
                "crc: len={} offset={} backend={:?}", len, offset, backend
            );
        }
    }

    /// CRC state composes over an arbitrary split point on every
    /// backend: update(update(s, a), b) == update(s, a ‖ b). This is
    /// what the <8-byte and <16-byte tails rely on.
    #[test]
    fn crc_update_composes_across_splits(
        len in 0usize..400,
        split_frac in 0usize..101,
        seed in any::<u64>(),
    ) {
        let d = bytes(len, seed);
        let split = len * split_frac / 100;
        for backend in CrcBackend::available() {
            let whole = crc32c_update(!0, &d, backend);
            let stitched = crc32c_update(crc32c_update(!0, &d[..split], backend), &d[split..], backend);
            prop_assert_eq!(whole, stitched, "split={} backend={:?}", split, backend);
        }
    }

    /// The f64-level GF kernels through the `KernelConfig` dispatch:
    /// forced-scalar, forced-SIMD and auto produce identical bits for
    /// arbitrary lengths, scalars and thread/chunk policies, and the
    /// fused `gf_mul` equals copy-then-`gf_scale` on the scalar path.
    #[test]
    fn f64_gf_kernels_are_mode_invariant(
        len in 0usize..300,
        c in any::<u8>(),
        threads in 1usize..5,
        chunk in 1usize..80,
        seed in any::<u64>(),
    ) {
        let base = floats(len, seed);
        let x = floats(len, seed ^ 0x5555);
        let reference = KernelConfig::serial().with_simd(SimdMode::ForceScalar);
        let mut want_scale = base.clone();
        kernels::gf_scale(&mut want_scale, c, reference);
        let mut want_mac = base.clone();
        kernels::gf_mac(&mut want_mac, &x, c, reference);
        for mode in [SimdMode::Auto, SimdMode::ForceScalar, SimdMode::ForceSimd] {
            let cfg = KernelConfig::new(threads, chunk).with_simd(mode);
            let got = kernels::gf_mul(&base, c, cfg);
            prop_assert!(
                got.iter().zip(&want_scale).all(|(a, b)| a.to_bits() == b.to_bits())
                    && got.len() == len,
                "gf_mul: len={} c={} cfg={:?}", len, c, cfg
            );
            let mut got = base.clone();
            kernels::gf_scale(&mut got, c, cfg);
            prop_assert!(
                got.iter().zip(&want_scale).all(|(a, b)| a.to_bits() == b.to_bits()),
                "gf_scale: len={} c={} cfg={:?}", len, c, cfg
            );
            let mut got = base.clone();
            kernels::gf_mac(&mut got, &x, c, cfg);
            prop_assert!(
                got.iter().zip(&want_mac).all(|(a, b)| a.to_bits() == b.to_bits()),
                "gf_mac: len={} c={} cfg={:?}", len, c, cfg
            );
        }
    }

    /// The f64-level CRC through the `KernelConfig` dispatch: identical
    /// across modes and thread/chunk policies (combine-stitched).
    #[test]
    fn f64_crc_is_mode_invariant(
        len in 0usize..300,
        threads in 1usize..5,
        chunk in 1usize..80,
        seed in any::<u64>(),
    ) {
        let d = floats(len, seed);
        let want = crc32c_f64(&d, KernelConfig::serial().with_simd(SimdMode::ForceScalar));
        for mode in [SimdMode::Auto, SimdMode::ForceScalar, SimdMode::ForceSimd] {
            let cfg = KernelConfig::new(threads, chunk).with_simd(mode);
            prop_assert_eq!(crc32c_f64(&d, cfg), want, "len={} cfg={:?}", len, cfg);
        }
    }
}
