//! Cache-blocked, multi-threaded accumulate / copy kernels.
//!
//! Every hot loop of the checkpoint path — the stripe reduces behind
//! `MPI_Reduce`, the fused copy-and-scale that builds each reduce
//! contribution, and the `work → B` / `D → C` flush copies — is a
//! streaming element-wise pass over large `f64` buffers. This module
//! gives them one shared engine:
//!
//! * buffers are walked in [`KernelConfig::chunk_len`]-element blocks so
//!   a block stays cache-resident while an operator runs over it;
//! * when a buffer spans more than one block and
//!   [`KernelConfig::threads`] allows it, the blocks are divided into
//!   contiguous per-thread spans and processed by scoped OS threads;
//! * the XOR operator works on 64-bit bit patterns in an 8-wide unrolled
//!   main loop with a scalar tail, so the compiler can keep it in vector
//!   registers.
//!
//! All operators are *element-wise* (no cross-element reassociation), so
//! the parallel result is bit-identical to the serial one for XOR / copy
//! and rounding-identical for SUM regardless of the partitioning.
//!
//! The process-wide default configuration comes from the environment:
//! `SKT_KERNEL_THREADS` (default: `available_parallelism`),
//! `SKT_KERNEL_CHUNK_LEN` in elements (default [`DEFAULT_CHUNK_LEN`]),
//! and `SKT_KERNEL_SIMD` (`0` forces the scalar reference kernels, `1`
//! forces the accelerated ones, unset probes the CPU — see
//! [`SimdMode`]). With the default chunk length, buffers of ≤ 512 KiB
//! always run serial — thread spawn costs more than it saves there.

use crate::simd::{self, GfBackend, SimdMode};
use std::mem::{ManuallyDrop, MaybeUninit};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default cache block, in `f64` elements: 64 Ki elements = 512 KiB,
/// sized to fit a typical per-core L2 alongside the second operand.
pub const DEFAULT_CHUNK_LEN: usize = 1 << 16;

/// Execution policy for the kernels: how many threads may be used and
/// how large one cache block is (in elements).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelConfig {
    /// Maximum worker threads (including the caller). `1` = serial.
    pub threads: usize,
    /// Cache-block length in elements; also the granularity of the
    /// per-thread span split.
    pub chunk_len: usize,
    /// How the byte-level GF(2^8)/CRC kernels pick their implementation.
    pub simd: SimdMode,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self::global()
    }
}

// 0 means "not initialised yet"; both values are always >= 1 once set.
static G_THREADS: AtomicUsize = AtomicUsize::new(0);
static G_CHUNK: AtomicUsize = AtomicUsize::new(0);
// 0 = uninitialised, then 1 + the SimdMode discriminant.
static G_SIMD: AtomicUsize = AtomicUsize::new(0);

fn simd_to_raw(mode: SimdMode) -> usize {
    match mode {
        SimdMode::Auto => 1,
        SimdMode::ForceScalar => 2,
        SimdMode::ForceSimd => 3,
    }
}

fn simd_from_raw(raw: usize) -> SimdMode {
    match raw {
        2 => SimdMode::ForceScalar,
        3 => SimdMode::ForceSimd,
        _ => SimdMode::Auto,
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

impl KernelConfig {
    /// Explicit policy; both parameters are clamped to at least 1. The
    /// kernel dispatch defaults to [`SimdMode::Auto`]; use
    /// [`KernelConfig::with_simd`] to force a path.
    #[must_use]
    pub fn new(threads: usize, chunk_len: usize) -> Self {
        KernelConfig {
            threads: threads.max(1),
            chunk_len: chunk_len.max(1),
            simd: SimdMode::Auto,
        }
    }

    /// Single-threaded policy with the default cache block.
    #[must_use]
    pub const fn serial() -> Self {
        KernelConfig {
            threads: 1,
            chunk_len: DEFAULT_CHUNK_LEN,
            simd: SimdMode::Auto,
        }
    }

    /// The same policy with a forced/auto kernel dispatch mode.
    #[must_use]
    pub fn with_simd(self, simd: SimdMode) -> Self {
        KernelConfig { simd, ..self }
    }

    /// The process-wide policy: `SKT_KERNEL_THREADS` /
    /// `SKT_KERNEL_CHUNK_LEN` / `SKT_KERNEL_SIMD` when set, otherwise
    /// `available_parallelism`, [`DEFAULT_CHUNK_LEN`] and
    /// [`SimdMode::Auto`].
    #[must_use]
    pub fn global() -> Self {
        let mut threads = G_THREADS.load(Ordering::Relaxed);
        if threads == 0 {
            threads = env_usize("SKT_KERNEL_THREADS")
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
                .max(1);
            G_THREADS.store(threads, Ordering::Relaxed);
        }
        let mut chunk_len = G_CHUNK.load(Ordering::Relaxed);
        if chunk_len == 0 {
            chunk_len = env_usize("SKT_KERNEL_CHUNK_LEN")
                .unwrap_or(DEFAULT_CHUNK_LEN)
                .max(1);
            G_CHUNK.store(chunk_len, Ordering::Relaxed);
        }
        let mut simd_raw = G_SIMD.load(Ordering::Relaxed);
        if simd_raw == 0 {
            let mode = std::env::var("SKT_KERNEL_SIMD")
                .map_or(SimdMode::Auto, |v| SimdMode::from_env_str(&v));
            simd_raw = simd_to_raw(mode);
            G_SIMD.store(simd_raw, Ordering::Relaxed);
        }
        KernelConfig {
            threads,
            chunk_len,
            simd: simd_from_raw(simd_raw),
        }
    }

    /// Install `self` as the process-wide policy returned by
    /// [`KernelConfig::global`] (used by benchmarks to A/B variants).
    pub fn set_global(self) {
        G_THREADS.store(self.threads.max(1), Ordering::Relaxed);
        G_CHUNK.store(self.chunk_len.max(1), Ordering::Relaxed);
        G_SIMD.store(simd_to_raw(self.simd), Ordering::Relaxed);
    }

    /// Whether a buffer of `len` elements runs multi-threaded under this
    /// policy: more than one thread allowed *and* more than one block to
    /// hand out.
    #[must_use]
    pub fn is_parallel_for(self, len: usize) -> bool {
        self.threads > 1 && len.div_ceil(self.chunk_len) > 1
    }
}

/// Apply `op` to matching cache blocks of `dst` / `src`.
fn run_span<A, B>(chunk_len: usize, dst: &mut [A], src: &[B], op: impl Fn(&mut [A], &[B])) {
    for (d, s) in dst.chunks_mut(chunk_len).zip(src.chunks(chunk_len)) {
        op(d, s);
    }
}

/// The shared driver: run `op` over equal-length `dst` / `src` in cache
/// blocks, fanning contiguous block spans out to scoped threads when the
/// policy allows. `op` must be element-wise (block-boundary free).
fn par_zip<A, B, F>(cfg: KernelConfig, dst: &mut [A], src: &[B], op: F)
where
    A: Send,
    B: Sync,
    F: Fn(&mut [A], &[B]) + Copy + Send + Sync,
{
    assert_eq!(dst.len(), src.len(), "kernel: length mismatch");
    if !cfg.is_parallel_for(dst.len()) {
        run_span(cfg.chunk_len, dst, src, op);
        return;
    }
    let n_chunks = dst.len().div_ceil(cfg.chunk_len);
    let workers = cfg.threads.min(n_chunks);
    // Per-thread spans are whole numbers of blocks so block boundaries
    // (and thus the op's traversal) are identical to the serial walk.
    let span = n_chunks.div_ceil(workers) * cfg.chunk_len;
    std::thread::scope(|scope| {
        for (d, s) in dst.chunks_mut(span).zip(src.chunks(span)) {
            scope.spawn(move || run_span(cfg.chunk_len, d, s, op));
        }
    });
}

/// In-place variant of [`par_zip`]: run `op` over `buf` alone in cache
/// blocks, fanning block spans out to scoped threads when allowed.
fn par_inplace<A, F>(cfg: KernelConfig, buf: &mut [A], op: F)
where
    A: Send,
    F: Fn(&mut [A]) + Copy + Send + Sync,
{
    if !cfg.is_parallel_for(buf.len()) {
        for b in buf.chunks_mut(cfg.chunk_len) {
            op(b);
        }
        return;
    }
    let n_chunks = buf.len().div_ceil(cfg.chunk_len);
    let workers = cfg.threads.min(n_chunks);
    let span = n_chunks.div_ceil(workers) * cfg.chunk_len;
    std::thread::scope(|scope| {
        for d in buf.chunks_mut(span) {
            scope.spawn(move || {
                for b in d.chunks_mut(cfg.chunk_len) {
                    op(b);
                }
            });
        }
    });
}

/// 8-wide unrolled XOR over `u64` words with a scalar tail.
fn xor_block_u64(acc: &mut [u64], x: &[u64]) {
    let mut a8 = acc.chunks_exact_mut(8);
    let mut x8 = x.chunks_exact(8);
    for (a, b) in (&mut a8).zip(&mut x8) {
        a[0] ^= b[0];
        a[1] ^= b[1];
        a[2] ^= b[2];
        a[3] ^= b[3];
        a[4] ^= b[4];
        a[5] ^= b[5];
        a[6] ^= b[6];
        a[7] ^= b[7];
    }
    for (a, b) in a8.into_remainder().iter_mut().zip(x8.remainder()) {
        *a ^= *b;
    }
}

/// 8-wide unrolled XOR over `f64` bit patterns with a scalar tail.
fn xor_block_f64(acc: &mut [f64], x: &[f64]) {
    let mut a8 = acc.chunks_exact_mut(8);
    let mut x8 = x.chunks_exact(8);
    for (a, b) in (&mut a8).zip(&mut x8) {
        a[0] = f64::from_bits(a[0].to_bits() ^ b[0].to_bits());
        a[1] = f64::from_bits(a[1].to_bits() ^ b[1].to_bits());
        a[2] = f64::from_bits(a[2].to_bits() ^ b[2].to_bits());
        a[3] = f64::from_bits(a[3].to_bits() ^ b[3].to_bits());
        a[4] = f64::from_bits(a[4].to_bits() ^ b[4].to_bits());
        a[5] = f64::from_bits(a[5].to_bits() ^ b[5].to_bits());
        a[6] = f64::from_bits(a[6].to_bits() ^ b[6].to_bits());
        a[7] = f64::from_bits(a[7].to_bits() ^ b[7].to_bits());
    }
    for (a, b) in a8.into_remainder().iter_mut().zip(x8.remainder()) {
        *a = f64::from_bits(a.to_bits() ^ b.to_bits());
    }
}

/// `acc ^= x` over `f64` bit patterns (the XOR code's accumulate).
pub fn xor_accumulate(acc: &mut [f64], x: &[f64], cfg: KernelConfig) {
    par_zip(cfg, acc, x, xor_block_f64);
}

/// `acc ^= x` over raw words (the `MPI_BXOR` reduce on `U64` payloads).
pub fn xor_accumulate_u64(acc: &mut [u64], x: &[u64], cfg: KernelConfig) {
    par_zip(cfg, acc, x, xor_block_u64);
}

/// `acc += x` element-wise (the `MPI_SUM` reduce / SUM-code accumulate).
pub fn sum_accumulate(acc: &mut [f64], x: &[f64], cfg: KernelConfig) {
    par_zip(cfg, acc, x, |a, b| {
        for (p, q) in a.iter_mut().zip(b) {
            *p += *q;
        }
    });
}

/// `acc -= x` element-wise (the SUM code's recovery direction).
pub fn sub_accumulate(acc: &mut [f64], x: &[f64], cfg: KernelConfig) {
    par_zip(cfg, acc, x, |a, b| {
        for (p, q) in a.iter_mut().zip(b) {
            *p -= *q;
        }
    });
}

/// `dst := src` (the checkpoint flush copies).
pub fn copy(dst: &mut [f64], src: &[f64], cfg: KernelConfig) {
    par_zip(cfg, dst, src, |d, s| d.copy_from_slice(s));
}

/// A fresh all-zero buffer (the codes' identity element). Left to the
/// allocator on purpose: `vec![0.0; len]` comes straight from zeroed
/// pages, which no thread fan-out can beat.
#[must_use]
pub fn zeroed(len: usize) -> Vec<f64> {
    vec![0.0; len]
}

/// The IEEE-754 bit patterns of `v`, reusing its allocation: the
/// zero-copy move of a stripe onto the `MPI_BXOR` wire.
#[must_use]
pub fn into_bits(v: Vec<f64>) -> Vec<u64> {
    let mut v = ManuallyDrop::new(v);
    // SAFETY: `f64` and `u64` have the same size and alignment and every
    // bit pattern is valid for both, so the allocation's layout is
    // unchanged; `v` is never dropped, so the buffer has one owner.
    unsafe { Vec::from_raw_parts(v.as_mut_ptr().cast(), v.len(), v.capacity()) }
}

/// The `f64` values of bit patterns `v`, reusing its allocation (the
/// inverse of [`into_bits`]).
#[must_use]
pub fn into_floats(v: Vec<u64>) -> Vec<f64> {
    let mut v = ManuallyDrop::new(v);
    // SAFETY: as in `into_bits`.
    unsafe { Vec::from_raw_parts(v.as_mut_ptr().cast(), v.len(), v.capacity()) }
}

/// Byte-wise GF(256) scale of the byte view of `buf` by the scalar `c`,
/// in place (the `D := c·D` steps of the parity solves). GF(2^8) acts on
/// every byte independently, so the operation is element-wise,
/// endian-agnostic, and bit-identical under any chunk/thread partition
/// and any [`SimdMode`] backend.
pub fn gf_scale(buf: &mut [f64], c: u8, cfg: KernelConfig) {
    if c == 1 {
        return;
    }
    if c == 0 {
        buf.fill(0.0);
        return;
    }
    let backend = GfBackend::select(cfg.simd);
    par_inplace(cfg, buf, move |b| {
        simd::gf_scale_bytes(simd::f64_bytes_mut(b), c, backend);
    });
}

/// Byte-wise GF(256) product into a fresh buffer: `dst := c·src`, every
/// element of `dst` written exactly once, so `dst` may be uninitialised
/// spare capacity. Bit-identical to a copy followed by [`gf_scale`]
/// under any partition and backend; `c = 1` is a plain bit copy.
pub fn gf_mul_into(dst: &mut [MaybeUninit<f64>], src: &[f64], c: u8, cfg: KernelConfig) {
    let backend = GfBackend::select(cfg.simd);
    par_zip(cfg, dst, src, move |d, s| {
        simd::gf_mul_into_bytes(
            simd::uninit_f64_bytes_mut(d),
            simd::f64_bytes(s),
            c,
            backend,
        );
    });
}

/// `c·src` in one allocation and one pass (see [`gf_mul_into`]): how the
/// codecs build a reduce contribution.
#[must_use]
pub fn gf_mul(src: &[f64], c: u8, cfg: KernelConfig) -> Vec<f64> {
    let mut out = Vec::with_capacity(src.len());
    gf_mul_into(&mut out.spare_capacity_mut()[..src.len()], src, c, cfg);
    // SAFETY: `gf_mul_into` initialised each of the first `src.len()`
    // elements.
    unsafe { out.set_len(src.len()) };
    out
}

/// Byte-wise GF(256) multiply-accumulate over byte views: `acc ^= c·x`
/// (the parity accumulates of the RS/dual codes). Element-wise per byte,
/// so bit-identical under any partition and backend (see [`gf_scale`]).
pub fn gf_mac(acc: &mut [f64], x: &[f64], c: u8, cfg: KernelConfig) {
    if c == 0 {
        return;
    }
    let backend = GfBackend::select(cfg.simd);
    par_zip(cfg, acc, x, move |a, b| {
        simd::gf_mac_bytes(simd::f64_bytes_mut(a), simd::f64_bytes(b), c, backend);
    });
}

/// Element-wise negation of `src` (the SUM code's cancel-by-reduce trick).
#[must_use]
pub fn negated(src: &[f64], cfg: KernelConfig) -> Vec<f64> {
    let mut out = vec![0.0f64; src.len()];
    par_zip(cfg, &mut out, src, |d, s| {
        for (p, q) in d.iter_mut().zip(s) {
            *p = -q;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256;

    fn data(len: usize, salt: u64) -> Vec<f64> {
        // Deterministic mixed-magnitude values incl. negatives and zeros.
        (0..len)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(salt);
                f64::from_bits(x >> 2) // exponent < 0x7FF: finite values
            })
            .collect()
    }

    fn configs() -> Vec<KernelConfig> {
        vec![
            KernelConfig::serial(),
            KernelConfig::new(1, 7),
            KernelConfig::new(2, 13),
            KernelConfig::new(4, 64),
            KernelConfig::new(8, 1),
            KernelConfig::new(3, 1 << 20), // chunk larger than any test buffer
            KernelConfig::serial().with_simd(SimdMode::ForceScalar),
            KernelConfig::serial().with_simd(SimdMode::ForceSimd),
            KernelConfig::new(2, 13).with_simd(SimdMode::ForceSimd),
        ]
    }

    #[test]
    fn xor_matches_scalar_reference_for_every_policy() {
        for len in [0usize, 1, 7, 8, 9, 1023, 4096, 10_000] {
            let base = data(len, 1);
            let x = data(len, 2);
            let mut reference = base.clone();
            for (a, b) in reference.iter_mut().zip(&x) {
                *a = f64::from_bits(a.to_bits() ^ b.to_bits());
            }
            for cfg in configs() {
                let mut acc = base.clone();
                xor_accumulate(&mut acc, &x, cfg);
                for (i, (a, r)) in acc.iter().zip(&reference).enumerate() {
                    assert_eq!(a.to_bits(), r.to_bits(), "len {len} cfg {cfg:?} idx {i}");
                }
            }
        }
    }

    #[test]
    fn sum_is_bit_identical_across_policies() {
        // Element-wise add has no reassociation: every policy must agree
        // bit-for-bit, not just within rounding.
        let len = 5000;
        let base = data(len, 3);
        let x = data(len, 4);
        let mut reference = base.clone();
        for (a, b) in reference.iter_mut().zip(&x) {
            *a += *b;
        }
        for cfg in configs() {
            let mut acc = base.clone();
            sum_accumulate(&mut acc, &x, cfg);
            assert!(
                acc.iter()
                    .zip(&reference)
                    .all(|(a, r)| a.to_bits() == r.to_bits()),
                "cfg {cfg:?}"
            );
        }
    }

    #[test]
    fn sub_then_sum_round_trips() {
        let len = 777;
        let base = data(len, 5);
        let x = data(len, 6);
        let cfg = KernelConfig::new(4, 100);
        let mut acc = base.clone();
        sum_accumulate(&mut acc, &x, cfg);
        sub_accumulate(&mut acc, &x, cfg);
        // +x then -x is exact when no overflow to inf occurs... it is not
        // in general; compare against the serial walk instead.
        let mut reference = base;
        sum_accumulate(&mut reference, &x, KernelConfig::serial());
        sub_accumulate(&mut reference, &x, KernelConfig::serial());
        assert!(acc
            .iter()
            .zip(&reference)
            .all(|(a, r)| a.to_bits() == r.to_bits()));
    }

    #[test]
    fn copy_and_u64_xor_match_serial() {
        let len = 3001;
        let src = data(len, 7);
        for cfg in configs() {
            let mut dst = vec![0.0; len];
            copy(&mut dst, &src, cfg);
            assert!(dst
                .iter()
                .zip(&src)
                .all(|(a, b)| a.to_bits() == b.to_bits()));

            let mut w: Vec<u64> = src.iter().map(|v| v.to_bits()).collect();
            let key: Vec<u64> = data(len, 8).iter().map(|v| v.to_bits()).collect();
            xor_accumulate_u64(&mut w, &key, cfg);
            xor_accumulate_u64(&mut w, &key, cfg);
            assert!(
                w.iter().zip(&src).all(|(a, b)| *a == b.to_bits()),
                "self-inverse"
            );
        }
    }

    #[test]
    fn conversions_round_trip() {
        let src = data(999, 9);
        let v = src.clone();
        let ptr = v.as_ptr() as usize;
        let bits = into_bits(v);
        assert_eq!(bits.as_ptr() as usize, ptr, "no copy onto the wire");
        assert!(bits.iter().zip(&src).all(|(w, b)| *w == b.to_bits()));
        let back = into_floats(bits);
        assert_eq!(back.as_ptr() as usize, ptr, "no copy off the wire");
        assert!(back
            .iter()
            .zip(&src)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        for cfg in configs() {
            let neg = negated(&src, cfg);
            assert!(neg
                .iter()
                .zip(&src)
                .all(|(a, b)| *a == -*b || (a.is_nan() && b.is_nan())));
        }
    }

    #[test]
    fn parallel_decision_rules() {
        assert!(!KernelConfig::serial().is_parallel_for(usize::MAX));
        let cfg = KernelConfig::new(4, 100);
        assert!(!cfg.is_parallel_for(0));
        assert!(!cfg.is_parallel_for(100), "single block stays serial");
        assert!(cfg.is_parallel_for(101));
        // clamping
        assert_eq!(KernelConfig::new(0, 0), KernelConfig::new(1, 1));
    }

    #[test]
    fn global_config_is_settable() {
        // Don't assert the ambient default (env-dependent); assert that
        // set_global round-trips and clamps.
        let prev = KernelConfig::global();
        KernelConfig::new(3, 77).set_global();
        assert_eq!(KernelConfig::global(), KernelConfig::new(3, 77));
        KernelConfig {
            threads: 0,
            chunk_len: 0,
            simd: SimdMode::Auto,
        }
        .set_global();
        assert_eq!(KernelConfig::global(), KernelConfig::new(1, 1));
        KernelConfig::serial()
            .with_simd(SimdMode::ForceScalar)
            .set_global();
        assert_eq!(KernelConfig::global().simd, SimdMode::ForceScalar);
        prev.set_global();
    }

    #[test]
    fn gf_kernels_match_byte_reference_for_every_policy() {
        let len = 2049;
        let base = data(len, 11);
        let x = data(len, 12);
        for c in [0u8, 1, 2, 29, 255] {
            // byte-level reference via the scalar gf256 ops
            let mut scale_ref: Vec<u8> = base.iter().flat_map(|v| v.to_le_bytes()).collect();
            gf256::scale_slice(&mut scale_ref, c);
            let mut mac_ref: Vec<u8> = base.iter().flat_map(|v| v.to_le_bytes()).collect();
            let xb: Vec<u8> = x.iter().flat_map(|v| v.to_le_bytes()).collect();
            gf256::mac_slice(&mut mac_ref, &xb, c);
            for cfg in configs() {
                let mut acc = base.clone();
                gf_scale(&mut acc, c, cfg);
                let got: Vec<u8> = acc.iter().flat_map(|v| v.to_le_bytes()).collect();
                assert_eq!(got, scale_ref, "scale c={c} cfg {cfg:?}");

                let mut acc = base.clone();
                gf_mac(&mut acc, &x, c, cfg);
                let got: Vec<u8> = acc.iter().flat_map(|v| v.to_le_bytes()).collect();
                assert_eq!(got, mac_ref, "mac c={c} cfg {cfg:?}");

                let got: Vec<u8> = gf_mul(&base, c, cfg)
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect();
                assert_eq!(got, scale_ref, "mul c={c} cfg {cfg:?}");
            }
        }
    }

    #[test]
    fn gf_scale_is_invertible() {
        let mut buf = data(513, 13);
        let orig = buf.clone();
        let cfg = KernelConfig::new(4, 64);
        gf_scale(&mut buf, 37, cfg);
        gf_scale(&mut buf, gf256::inv(37), cfg);
        assert!(buf
            .iter()
            .zip(&orig)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn zeroed_is_identity_for_xor_and_sum() {
        let z = zeroed(33);
        assert!(z.iter().all(|v| v.to_bits() == 0));
        let src = data(33, 10);
        let mut acc = src.clone();
        xor_accumulate(&mut acc, &z, KernelConfig::serial());
        assert_eq!(acc, src);
    }
}
