//! The host every result is recorded with, and process resource usage.
//!
//! CPU model and cache sizes come from `cpuid`, and resource usage from
//! `getrusage`, so the benchmark reads no file outside its checkout.

use self_checkpoint::encoding::{CrcBackend, GfBackend, KernelConfig, SimdMode};
use std::time::Duration;

/// Variables that change the kernel policy process-wide. Every number the
/// benchmark prints is for the default program, so it refuses to run when
/// one is set.
pub const KERNEL_ENV: [&str; 3] = [
    "SKT_KERNEL_THREADS",
    "SKT_KERNEL_CHUNK_LEN",
    "SKT_KERNEL_SIMD",
];

/// The kernel-policy variables that are set, if any.
pub fn kernel_env_overrides() -> Vec<&'static str> {
    KERNEL_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub l2_kib: u64,
    pub l3_kib: u64,
    pub kernel_threads: usize,
    pub gf_backend: GfBackend,
    pub crc_backend: CrcBackend,
}

impl Host {
    pub fn probe() -> Host {
        let (l2_kib, l3_kib) = cache_kib();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            l2_kib,
            l3_kib,
            kernel_threads: KernelConfig::global().threads,
            gf_backend: GfBackend::select(SimdMode::Auto),
            crc_backend: CrcBackend::select(SimdMode::Auto),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":\"{}\",\"l2_kib\":{},\"l3_kib\":{},\"kernel_threads\":{},\"gf_backend\":\"{:?}\",\"crc_backend\":\"{:?}\"}}",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], ""),
            self.l2_kib,
            self.l3_kib,
            self.kernel_threads,
            self.gf_backend,
            self.crc_backend
        )
    }
}

#[cfg(target_arch = "x86_64")]
fn cpuid(leaf: u32, sub: u32) -> [u32; 4] {
    let r = std::arch::x86_64::__cpuid_count(leaf, sub);
    [r.eax, r.ebx, r.ecx, r.edx]
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    if cpuid(0x8000_0000, 0)[0] < 0x8000_0004 {
        return "unknown".into();
    }
    let bytes: Vec<u8> = (0x8000_0002..=0x8000_0004)
        .flat_map(|leaf| cpuid(leaf, 0))
        .flat_map(u32::to_le_bytes)
        .collect();
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

/// L2 and L3 size of one cache instance from the deterministic cache
/// parameters leaf (4); zero where the CPU does not report it.
#[cfg(target_arch = "x86_64")]
fn cache_kib() -> (u64, u64) {
    let (mut l2, mut l3) = (0, 0);
    if cpuid(0, 0)[0] < 4 {
        return (0, 0);
    }
    for sub in 0..16 {
        let [eax, ebx, ecx, _] = cpuid(4, sub);
        if eax & 0x1f == 0 {
            break;
        }
        let level = (eax >> 5) & 0x7;
        let ways = u64::from((ebx >> 22) + 1);
        let parts = u64::from(((ebx >> 12) & 0x3ff) + 1);
        let line = u64::from((ebx & 0xfff) + 1);
        let sets = u64::from(ecx) + 1;
        let kib = ways * parts * line * sets / 1024;
        match level {
            2 => l2 = kib,
            3 => l3 = kib,
            _ => {}
        }
    }
    (l2, l3)
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

#[cfg(not(target_arch = "x86_64"))]
fn cache_kib() -> (u64, u64) {
    (0, 0)
}

/// Process-wide CPU times and peak resident set.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user: Duration,
    pub sys: Duration,
    pub max_rss_kib: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` of 64-bit Linux: two timevals and fourteen longs,
    /// the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `r` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let tv = |t: &Timeval| {
        Duration::from_secs(u64::try_from(t.sec).unwrap_or(0))
            + Duration::from_micros(u64::try_from(t.usec).unwrap_or(0))
    };
    Usage {
        user: tv(&r.utime),
        sys: tv(&r.stime),
        max_rss_kib: u64::try_from(r.maxrss).unwrap_or(0),
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn usage() -> Usage {
    panic!("the benchmark reads resource usage through 64-bit Linux getrusage");
}
