//! Runtime-dispatched byte-level backends for the GF(2^8) and CRC-32C
//! hot loops.
//!
//! The erasure codecs spend almost all of their time in two byte
//! streams — `buf[i] = c·buf[i]` / `dst[i] = c·src[i]` /
//! `acc[i] ^= c·x[i]` over GF(2^8) for the Reed–Solomon parities, and
//! the CRC-32C walk of the scrub patrol.
//! Both have well-known data-parallel formulations, so this module keeps
//! one *reference* implementation (the full 256-entry multiplication row
//! / the byte-at-a-time CRC table) and a set of accelerated backends:
//!
//! * **GF(2^8)**: the 4-bit split-table trick — `c·b` for any byte `b`
//!   is `LO[b & 0xF] ⊕ HI[b >> 4]` with two 16-entry tables, which is
//!   exactly one `pshufb` pair per 16 (SSSE3) or 32 (AVX2) bytes. The
//!   portable variant runs the same split-table math byte-wise, so every
//!   backend computes the identical function.
//! * **CRC-32C**: slice-by-8 (eight interleaved tables, one 64-bit load
//!   per step) and the SSE4.2 `crc32` instruction, which implements this
//!   exact (Castagnoli, reflected) polynomial in hardware.
//!
//! Dispatch is *data-independent*: a backend is chosen once per kernel
//! call from [`SimdMode`] (carried by `KernelConfig`, defaulted from the
//! `SKT_KERNEL_SIMD` environment variable) plus one-time CPU feature
//! detection. All backends are bit-for-bit equivalent — the equivalence
//! proptests drive every available backend against the scalar reference
//! over arbitrary lengths, values and (mis)alignments, and CI runs the
//! whole suite once per forced path.

use crate::gf256;
use std::mem::MaybeUninit;

/// How the byte-level kernels pick their implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// Probe the CPU once and use the fastest available backend.
    #[default]
    Auto,
    /// Force the scalar reference path (`SKT_KERNEL_SIMD=0`).
    ForceScalar,
    /// Force the accelerated path (`SKT_KERNEL_SIMD=1`): `pshufb` /
    /// hardware CRC where the CPU has them, the portable split-table and
    /// slice-by-8 variants otherwise.
    ForceSimd,
}

impl SimdMode {
    /// Parse the `SKT_KERNEL_SIMD` convention: `0`/`off` forces scalar,
    /// `1`/`on` forces SIMD, anything else (or unset) is [`SimdMode::Auto`].
    #[must_use]
    pub fn from_env_str(v: &str) -> SimdMode {
        match v.trim() {
            "0" | "off" | "false" => SimdMode::ForceScalar,
            "1" | "on" | "true" => SimdMode::ForceSimd,
            _ => SimdMode::Auto,
        }
    }
}

/// A GF(2^8) scale / multiply-accumulate implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GfBackend {
    /// Full 256-entry multiplication row, one lookup per byte — the
    /// reference the accelerated paths are diffed against.
    Scalar,
    /// 4-bit split tables (two 16-entry lookups + XOR per byte); no CPU
    /// features needed.
    Portable,
    /// SSSE3 `pshufb`: 16 bytes per shuffle pair.
    Ssse3,
    /// AVX2 `vpshufb`: 32 bytes per shuffle pair.
    Avx2,
}

impl GfBackend {
    /// The backend [`SimdMode`] resolves to on this machine.
    #[must_use]
    pub fn select(mode: SimdMode) -> GfBackend {
        match mode {
            SimdMode::ForceScalar => GfBackend::Scalar,
            SimdMode::Auto | SimdMode::ForceSimd => GfBackend::best_accelerated(),
        }
    }

    /// The fastest accelerated backend the CPU supports (never
    /// [`GfBackend::Scalar`]; the portable split-table at worst).
    #[must_use]
    pub fn best_accelerated() -> GfBackend {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return GfBackend::Avx2;
            }
            if std::arch::is_x86_feature_detected!("ssse3") {
                return GfBackend::Ssse3;
            }
        }
        GfBackend::Portable
    }

    /// Every backend runnable on this machine (the equivalence tests
    /// sweep all of them against [`GfBackend::Scalar`]).
    #[must_use]
    pub fn available() -> Vec<GfBackend> {
        let mut v = vec![GfBackend::Scalar, GfBackend::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("ssse3") {
                v.push(GfBackend::Ssse3);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(GfBackend::Avx2);
            }
        }
        v
    }
}

/// A CRC-32C implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrcBackend {
    /// Byte-at-a-time table walk — the reference.
    Table,
    /// Slice-by-8: one 64-bit load and eight interleaved table lookups
    /// per step; no CPU features needed.
    SliceBy8,
    /// SSE4.2 `crc32` instruction (the polynomial is the instruction's).
    Hardware,
}

impl CrcBackend {
    /// The backend [`SimdMode`] resolves to on this machine.
    #[must_use]
    pub fn select(mode: SimdMode) -> CrcBackend {
        match mode {
            SimdMode::ForceScalar => CrcBackend::Table,
            SimdMode::Auto | SimdMode::ForceSimd => CrcBackend::best_accelerated(),
        }
    }

    /// The fastest accelerated CRC backend the CPU supports.
    #[must_use]
    pub fn best_accelerated() -> CrcBackend {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("sse4.2") {
                return CrcBackend::Hardware;
            }
        }
        CrcBackend::SliceBy8
    }

    /// Every CRC backend runnable on this machine.
    #[must_use]
    pub fn available() -> Vec<CrcBackend> {
        let mut v = vec![CrcBackend::Table, CrcBackend::SliceBy8];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("sse4.2") {
                v.push(CrcBackend::Hardware);
            }
        }
        v
    }
}

/// Little-endian-order byte view of an `f64` buffer. GF(2^8) operates
/// on every byte independently, so the view is endian-agnostic for the
/// GF kernels; the CRC walk additionally needs true LE order and guards
/// itself with `cfg!(target_endian)`.
#[must_use]
pub fn f64_bytes(buf: &[f64]) -> &[u8] {
    // Safety: f64 has no padding and every byte pattern is a valid u8;
    // alignment only decreases.
    unsafe { std::slice::from_raw_parts(buf.as_ptr().cast(), std::mem::size_of_val(buf)) }
}

/// Mutable byte view of an `f64` buffer (see [`f64_bytes`]).
#[must_use]
pub fn f64_bytes_mut(buf: &mut [f64]) -> &mut [u8] {
    // Safety: as in `f64_bytes`; every byte pattern is also a valid f64.
    unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast(), std::mem::size_of_val(buf)) }
}

/// Byte view of a possibly-uninitialised `f64` buffer (the spare
/// capacity a fused kernel writes its output into).
#[must_use]
pub fn uninit_f64_bytes_mut(buf: &mut [MaybeUninit<f64>]) -> &mut [MaybeUninit<u8>] {
    // SAFETY: `MaybeUninit<u8>` has no validity invariant and alignment
    // only decreases; the byte length is the buffer's size.
    unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast(), std::mem::size_of_val(buf)) }
}

/// The two 16-entry split tables of `c`: `LO[i] = c·i`,
/// `HI[i] = c·(i << 4)`, so `c·b = LO[b & 0xF] ⊕ HI[b >> 4]` by the
/// distributive law over the nibble decomposition `b = hi·16 ⊕ lo`.
#[must_use]
pub fn nibble_tables(c: u8) -> ([u8; 16], [u8; 16]) {
    let mut lo = [0u8; 16];
    let mut hi = [0u8; 16];
    for i in 0..16u8 {
        lo[i as usize] = gf256::mul(c, i);
        hi[i as usize] = gf256::mul(c, i << 4);
    }
    (lo, hi)
}

fn scale_scalar(buf: &mut [u8], c: u8) {
    let row = gf256::mul_table(c);
    for b in buf.iter_mut() {
        *b = row[*b as usize];
    }
}

fn mul_scalar(dst: &mut [MaybeUninit<u8>], src: &[u8], c: u8) {
    let row = gf256::mul_table(c);
    for (d, s) in dst.iter_mut().zip(src) {
        d.write(row[*s as usize]);
    }
}

fn mac_scalar(acc: &mut [u8], x: &[u8], c: u8) {
    let row = gf256::mul_table(c);
    for (a, b) in acc.iter_mut().zip(x) {
        *a ^= row[*b as usize];
    }
}

fn scale_portable(buf: &mut [u8], lo: &[u8; 16], hi: &[u8; 16]) {
    for b in buf.iter_mut() {
        *b = lo[(*b & 0x0F) as usize] ^ hi[(*b >> 4) as usize];
    }
}

fn mul_portable(dst: &mut [MaybeUninit<u8>], src: &[u8], lo: &[u8; 16], hi: &[u8; 16]) {
    for (d, s) in dst.iter_mut().zip(src) {
        d.write(lo[(*s & 0x0F) as usize] ^ hi[(*s >> 4) as usize]);
    }
}

fn mac_portable(acc: &mut [u8], x: &[u8], lo: &[u8; 16], hi: &[u8; 16]) {
    for (a, b) in acc.iter_mut().zip(x) {
        *a ^= lo[(*b & 0x0F) as usize] ^ hi[(*b >> 4) as usize];
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::nibble_tables;
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    #[target_feature(enable = "ssse3")]
    pub unsafe fn scale_ssse3(buf: &mut [u8], c: u8) {
        let (lo, hi) = nibble_tables(c);
        let tlo = _mm_loadu_si128(lo.as_ptr().cast());
        let thi = _mm_loadu_si128(hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let mut chunks = buf.chunks_exact_mut(16);
        for ch in &mut chunks {
            let v = _mm_loadu_si128(ch.as_ptr().cast());
            let ln = _mm_and_si128(v, mask);
            let hn = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
            let r = _mm_xor_si128(_mm_shuffle_epi8(tlo, ln), _mm_shuffle_epi8(thi, hn));
            _mm_storeu_si128(ch.as_mut_ptr().cast(), r);
        }
        super::scale_portable(chunks.into_remainder(), &lo, &hi);
    }

    /// # Safety
    ///
    /// The CPU must support SSSE3.
    #[target_feature(enable = "ssse3")]
    pub unsafe fn mul_ssse3(dst: &mut [MaybeUninit<u8>], src: &[u8], c: u8) {
        let (lo, hi) = nibble_tables(c);
        let tlo = _mm_loadu_si128(lo.as_ptr().cast());
        let thi = _mm_loadu_si128(hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let mut d16 = dst.chunks_exact_mut(16);
        let mut s16 = src.chunks_exact(16);
        for (d, s) in (&mut d16).zip(&mut s16) {
            let v = _mm_loadu_si128(s.as_ptr().cast());
            let ln = _mm_and_si128(v, mask);
            let hn = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
            let r = _mm_xor_si128(_mm_shuffle_epi8(tlo, ln), _mm_shuffle_epi8(thi, hn));
            _mm_storeu_si128(d.as_mut_ptr().cast(), r);
        }
        super::mul_portable(d16.into_remainder(), s16.remainder(), &lo, &hi);
    }

    #[target_feature(enable = "ssse3")]
    pub unsafe fn mac_ssse3(acc: &mut [u8], x: &[u8], c: u8) {
        let (lo, hi) = nibble_tables(c);
        let tlo = _mm_loadu_si128(lo.as_ptr().cast());
        let thi = _mm_loadu_si128(hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let mut a16 = acc.chunks_exact_mut(16);
        let mut x16 = x.chunks_exact(16);
        for (a, b) in (&mut a16).zip(&mut x16) {
            let v = _mm_loadu_si128(b.as_ptr().cast());
            let ln = _mm_and_si128(v, mask);
            let hn = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
            let prod = _mm_xor_si128(_mm_shuffle_epi8(tlo, ln), _mm_shuffle_epi8(thi, hn));
            let cur = _mm_loadu_si128(a.as_ptr().cast());
            _mm_storeu_si128(a.as_mut_ptr().cast(), _mm_xor_si128(cur, prod));
        }
        super::mac_portable(a16.into_remainder(), x16.remainder(), &lo, &hi);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_avx2(buf: &mut [u8], c: u8) {
        let (lo, hi) = nibble_tables(c);
        let tlo = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
        let thi = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let mut chunks = buf.chunks_exact_mut(32);
        for ch in &mut chunks {
            let v = _mm256_loadu_si256(ch.as_ptr().cast());
            let ln = _mm256_and_si256(v, mask);
            let hn = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
            let r = _mm256_xor_si256(_mm256_shuffle_epi8(tlo, ln), _mm256_shuffle_epi8(thi, hn));
            _mm256_storeu_si256(ch.as_mut_ptr().cast(), r);
        }
        super::scale_portable(chunks.into_remainder(), &lo, &hi);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_avx2(dst: &mut [MaybeUninit<u8>], src: &[u8], c: u8) {
        let (lo, hi) = nibble_tables(c);
        let tlo = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
        let thi = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let mut d32 = dst.chunks_exact_mut(32);
        let mut s32 = src.chunks_exact(32);
        for (d, s) in (&mut d32).zip(&mut s32) {
            let v = _mm256_loadu_si256(s.as_ptr().cast());
            let ln = _mm256_and_si256(v, mask);
            let hn = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
            let r = _mm256_xor_si256(_mm256_shuffle_epi8(tlo, ln), _mm256_shuffle_epi8(thi, hn));
            _mm256_storeu_si256(d.as_mut_ptr().cast(), r);
        }
        super::mul_portable(d32.into_remainder(), s32.remainder(), &lo, &hi);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn mac_avx2(acc: &mut [u8], x: &[u8], c: u8) {
        let (lo, hi) = nibble_tables(c);
        let tlo = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
        let thi = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let mut a32 = acc.chunks_exact_mut(32);
        let mut x32 = x.chunks_exact(32);
        for (a, b) in (&mut a32).zip(&mut x32) {
            let v = _mm256_loadu_si256(b.as_ptr().cast());
            let ln = _mm256_and_si256(v, mask);
            let hn = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
            let prod = _mm256_xor_si256(_mm256_shuffle_epi8(tlo, ln), _mm256_shuffle_epi8(thi, hn));
            let cur = _mm256_loadu_si256(a.as_ptr().cast());
            _mm256_storeu_si256(a.as_mut_ptr().cast(), _mm256_xor_si256(cur, prod));
        }
        super::mac_portable(a32.into_remainder(), x32.remainder(), &lo, &hi);
    }

    #[target_feature(enable = "sse4.2")]
    pub unsafe fn crc32c_hw(crc: u32, bytes: &[u8]) -> u32 {
        let mut c = u64::from(crc);
        let mut chunks = bytes.chunks_exact(8);
        for ch in &mut chunks {
            c = _mm_crc32_u64(c, u64::from_le_bytes(ch.try_into().unwrap()));
        }
        let mut c = c as u32;
        for &b in chunks.remainder() {
            c = _mm_crc32_u8(c, b);
        }
        c
    }
}

/// `buf[i] := c · buf[i]` over GF(2^8), on the chosen backend.
pub fn gf_scale_bytes(buf: &mut [u8], c: u8, backend: GfBackend) {
    if c == 1 {
        return;
    }
    if c == 0 {
        buf.fill(0);
        return;
    }
    match backend {
        GfBackend::Scalar => scale_scalar(buf, c),
        GfBackend::Portable => {
            let (lo, hi) = nibble_tables(c);
            scale_portable(buf, &lo, &hi);
        }
        GfBackend::Ssse3 | GfBackend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // Safety: `select`/`available` only surface these backends
            // after `is_x86_feature_detected!` confirmed the feature.
            unsafe {
                if backend == GfBackend::Avx2 {
                    x86::scale_avx2(buf, c);
                } else {
                    x86::scale_ssse3(buf, c);
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                let (lo, hi) = nibble_tables(c);
                scale_portable(buf, &lo, &hi);
            }
        }
    }
}

/// `dst[i] := c · src[i]` over GF(2^8), on the chosen backend: the
/// fused copy-and-scale that writes every byte of `dst` exactly once,
/// so `dst` may be uninitialised (fresh spare capacity).
pub fn gf_mul_into_bytes(dst: &mut [MaybeUninit<u8>], src: &[u8], c: u8, backend: GfBackend) {
    assert_eq!(dst.len(), src.len(), "gf_mul_into_bytes: length mismatch");
    match (c, backend) {
        (0, _) => dst.fill(MaybeUninit::new(0)),
        (1, _) => {
            dst.write_copy_of_slice(src);
        }
        (_, GfBackend::Scalar) => mul_scalar(dst, src, c),
        (_, GfBackend::Portable) => {
            let (lo, hi) = nibble_tables(c);
            mul_portable(dst, src, &lo, &hi);
        }
        (_, GfBackend::Ssse3 | GfBackend::Avx2) => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `select`/`available` only surface these backends
            // after `is_x86_feature_detected!` confirmed the feature.
            unsafe {
                if backend == GfBackend::Avx2 {
                    x86::mul_avx2(dst, src, c);
                } else {
                    x86::mul_ssse3(dst, src, c);
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                let (lo, hi) = nibble_tables(c);
                mul_portable(dst, src, &lo, &hi);
            }
        }
    }
}

/// `acc[i] ^= c · x[i]` over GF(2^8), on the chosen backend.
pub fn gf_mac_bytes(acc: &mut [u8], x: &[u8], c: u8, backend: GfBackend) {
    assert_eq!(acc.len(), x.len(), "gf_mac_bytes: length mismatch");
    if c == 0 {
        return;
    }
    match backend {
        GfBackend::Scalar => mac_scalar(acc, x, c),
        GfBackend::Portable => {
            let (lo, hi) = nibble_tables(c);
            mac_portable(acc, x, &lo, &hi);
        }
        GfBackend::Ssse3 | GfBackend::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // Safety: backend presence implies the detected CPU feature.
            unsafe {
                if backend == GfBackend::Avx2 {
                    x86::mac_avx2(acc, x, c);
                } else {
                    x86::mac_ssse3(acc, x, c);
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                let (lo, hi) = nibble_tables(c);
                mac_portable(acc, x, &lo, &hi);
            }
        }
    }
}

/// The eight interleaved slice-by-8 tables; `CRC_TABLES[0]` is the plain
/// byte-at-a-time table, `CRC_TABLES[k][v]` advances `v` through `k`
/// additional zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ crate::crc::POLY
            } else {
                crc >> 1
            };
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

fn crc32c_table(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

fn crc32c_slice8(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let low = crc ^ u32::from_le_bytes(ch[0..4].try_into().unwrap());
        crc = CRC_TABLES[7][(low & 0xFF) as usize]
            ^ CRC_TABLES[6][((low >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((low >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(low >> 24) as usize]
            ^ CRC_TABLES[3][ch[4] as usize]
            ^ CRC_TABLES[2][ch[5] as usize]
            ^ CRC_TABLES[1][ch[6] as usize]
            ^ CRC_TABLES[0][ch[7] as usize];
    }
    crc32c_table(crc, chunks.remainder())
}

/// Advance an in-flight (pre-inverted) CRC-32C state over `bytes` on the
/// chosen backend. All backends implement the identical polynomial, so
/// the result is backend-independent bit-for-bit.
#[must_use]
pub fn crc32c_update(crc: u32, bytes: &[u8], backend: CrcBackend) -> u32 {
    match backend {
        CrcBackend::Table => crc32c_table(crc, bytes),
        CrcBackend::SliceBy8 => crc32c_slice8(crc, bytes),
        CrcBackend::Hardware => {
            #[cfg(target_arch = "x86_64")]
            // Safety: backend presence implies SSE4.2 was detected.
            unsafe {
                x86::crc32c_hw(crc, bytes)
            }
            #[cfg(not(target_arch = "x86_64"))]
            crc32c_slice8(crc, bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(len: usize, salt: u64) -> Vec<u8> {
        (0..len)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(salt.wrapping_mul(0xD134_2543_DE82_EF95));
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn nibble_tables_reassemble_the_full_row() {
        for c in [0u8, 1, 2, 29, 143, 255] {
            let (lo, hi) = nibble_tables(c);
            for b in 0..=255u8 {
                assert_eq!(
                    lo[(b & 0x0F) as usize] ^ hi[(b >> 4) as usize],
                    gf256::mul(c, b),
                    "c={c} b={b}"
                );
            }
        }
    }

    fn mul_vec(src: &[u8], c: u8, backend: GfBackend) -> Vec<u8> {
        let mut out = Vec::with_capacity(src.len());
        gf_mul_into_bytes(&mut out.spare_capacity_mut()[..src.len()], src, c, backend);
        // SAFETY: the kernel wrote each of the first `src.len()` bytes.
        unsafe { out.set_len(src.len()) };
        out
    }

    #[test]
    fn every_gf_backend_matches_scalar_at_awkward_lengths() {
        // 0, sub-16-byte tails, exactly one vector, vector+tail, large.
        for len in [0usize, 1, 7, 15, 16, 17, 31, 32, 33, 63, 64, 65, 1000] {
            let base = bytes(len, 1);
            let x = bytes(len, 2);
            for c in [0u8, 1, 2, 29, 254, 255] {
                let mut want_scale = base.clone();
                gf_scale_bytes(&mut want_scale, c, GfBackend::Scalar);
                let mut want_mac = base.clone();
                gf_mac_bytes(&mut want_mac, &x, c, GfBackend::Scalar);
                for backend in GfBackend::available() {
                    let mut got = base.clone();
                    gf_scale_bytes(&mut got, c, backend);
                    assert_eq!(got, want_scale, "scale len={len} c={c} {backend:?}");
                    let mut got = base.clone();
                    gf_mac_bytes(&mut got, &x, c, backend);
                    assert_eq!(got, want_mac, "mac len={len} c={c} {backend:?}");
                    let got = mul_vec(&base, c, backend);
                    assert_eq!(got, want_scale, "mul len={len} c={c} {backend:?}");
                }
            }
        }
    }

    #[test]
    fn every_crc_backend_matches_table_at_awkward_lengths() {
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000] {
            let d = bytes(len, 3);
            let want = crc32c_update(!0, &d, CrcBackend::Table);
            for backend in CrcBackend::available() {
                assert_eq!(
                    crc32c_update(!0, &d, backend),
                    want,
                    "len={len} {backend:?}"
                );
            }
        }
    }

    #[test]
    fn selection_honours_the_mode() {
        assert_eq!(GfBackend::select(SimdMode::ForceScalar), GfBackend::Scalar);
        assert_ne!(GfBackend::select(SimdMode::ForceSimd), GfBackend::Scalar);
        assert_eq!(CrcBackend::select(SimdMode::ForceScalar), CrcBackend::Table);
        assert_ne!(CrcBackend::select(SimdMode::ForceSimd), CrcBackend::Table);
        assert_eq!(
            GfBackend::select(SimdMode::Auto),
            GfBackend::best_accelerated()
        );
    }

    #[test]
    fn env_convention_parses() {
        assert_eq!(SimdMode::from_env_str("0"), SimdMode::ForceScalar);
        assert_eq!(SimdMode::from_env_str("off"), SimdMode::ForceScalar);
        assert_eq!(SimdMode::from_env_str(" 1 "), SimdMode::ForceSimd);
        assert_eq!(SimdMode::from_env_str("on"), SimdMode::ForceSimd);
        assert_eq!(SimdMode::from_env_str("auto"), SimdMode::Auto);
    }

    #[test]
    fn f64_byte_views_round_trip() {
        let mut buf: Vec<f64> = (0..9).map(|i| (i as f64).exp()).collect();
        let orig = buf.clone();
        let view = f64_bytes(&buf);
        assert_eq!(view.len(), 72);
        let copy: Vec<u8> = view.to_vec();
        let view_mut = f64_bytes_mut(&mut buf);
        view_mut.copy_from_slice(&copy);
        assert!(buf
            .iter()
            .zip(&orig)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
