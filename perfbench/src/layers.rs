//! Per-layer probes of the traced run: each times one public call of one
//! crate at the shape a workload uses it, repeated, and reports the
//! median. The kernel ceilings are measured in the same process as the
//! engine ratio that divides by them.

use crate::check::fill;
use crate::stats::median;
use crate::trace::{timed, timed_under};
use crate::{Report, Sizes, RANKS};
use self_checkpoint::cluster::{Cluster, ClusterConfig, Ranklist, SimRuntime, TenantId};
use self_checkpoint::core::{encode_parity, reconstruct_multi};
use self_checkpoint::encoding::{crc, kernels, CodecSpec, GroupLayout, KernelConfig};
use self_checkpoint::ftsim::{PolicySpec, SchedState, TenantSched};
use self_checkpoint::linalg::{dgemm, dgetf2, Trans};
use self_checkpoint::mps::{run_on_cluster, Ctx, Fault, Payload, ReduceOp};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// World sizes of the simulator handoff probe.
const SIM_WORLDS: [usize; 3] = [8, 64, 132];
/// World size of the simulated barrier probe.
const SIM_BARRIER_WORLD: usize = 64;
/// Ready tenants handed to the slice policy.
const POLICY_TENANTS: usize = 64;

/// How often each probe repeats its call. The shapes are the workloads':
/// the `protect` workspace fixes the stripes, `hpl-ft`'s order and panel
/// width the dgemm, dgetf2 and broadcast shapes.
#[derive(Clone, Copy, Debug)]
pub struct ProbeReps {
    /// Repetitions of each kernel, codec and engine call.
    pub reps: usize,
    /// Repetitions of the microsecond-scale calls (barriers, yields,
    /// launches, policy decisions).
    pub small_reps: usize,
    /// Handoffs timed per simulated world size.
    pub sim_handoffs: usize,
    /// Simulated barriers timed.
    pub sim_barriers: usize,
}

/// The layout of one `protect` rank's checkpoint under `m` parities.
fn layout(s: &Sizes, m: usize) -> GroupLayout {
    let b2_words = 1 + crate::protect::A2_CAP.div_ceil(8);
    GroupLayout::new_with_parity(RANKS, m, s.ws_elems + b2_words)
}

fn median_of(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let v: Vec<f64> = (0..reps.max(1)).map(|_| f().as_secs_f64()).collect();
    median(&v).expect("at least one repetition")
}

/// `encoding`: kernel ceilings on one `protect` stripe, and the RS(m=2)
/// codec's `contrib` and `solve`. Returns the GF-MAC rate in bytes/s for
/// the engine ratio, and whether the solve rebuilt its input exactly.
pub fn encoding(s: &Sizes, r: &mut Report) -> (f64, bool) {
    let cfg = KernelConfig::global();
    let xl = layout(s, 1).stripe_len();
    let rl = layout(s, 2).stripe_len();
    let mut a = vec![0.0; xl.max(rl)];
    let mut b = vec![0.0; xl.max(rl)];
    fill(&mut a, 1);
    fill(&mut b, 2);
    let rate = |len: usize, t: f64| (len * 8) as f64 / t;
    let t = median_of(s.probes.reps, || {
        timed("encoding.kernels.xor_accumulate", || {
            kernels::xor_accumulate(&mut a[..xl], &b[..xl], cfg)
        })
        .1
    });
    r.layer("encoding.xor_gbps", rate(xl, t) / 1e9, "GB/s");
    let t = median_of(s.probes.reps, || {
        timed("encoding.kernels.gf_mac", || {
            kernels::gf_mac(&mut a[..rl], &b[..rl], 0x53, cfg)
        })
        .1
    });
    let gf_rate = rate(rl, t);
    r.layer("encoding.gf_mac_gbps", gf_rate / 1e9, "GB/s");
    let t = median_of(s.probes.reps, || {
        timed("encoding.kernels.copy", || {
            kernels::copy(&mut a[..xl], &b[..xl], cfg)
        })
        .1
    });
    r.layer("encoding.copy_gbps", rate(xl, t) / 1e9, "GB/s");
    let t = median_of(s.probes.reps, || {
        timed("encoding.crc.stripe_crcs", || {
            black_box(crc::stripe_crcs(&b[..xl], xl, cfg))
        })
        .1
    });
    r.layer("encoding.crc_gbps", rate(xl, t) / 1e9, "GB/s");

    let codec = CodecSpec::Rs { m: 2 }.resolve();
    fill(&mut a, 3);
    let (s0, s1) = (&a[..rl], &b[..rl]);
    let t = median_of(s.probes.reps, || {
        timed("encoding.codec.contrib", || {
            black_box(codec.contrib(1, 0, s0, cfg))
        })
        .1
    });
    r.layer("encoding.rs2_contrib_ms", t * 1e3, "ms");
    // syndromes of both roles with data positions 0 and 1 erased: the
    // combination of their contributions (XOR on the bit patterns)
    let syndromes: Vec<(usize, Vec<f64>)> = (0..2)
        .map(|role| {
            let mut acc = codec.contrib(role, 0, s0, cfg);
            let other = codec.contrib(role, 1, s1, cfg);
            kernels::xor_accumulate(&mut acc, &other, cfg);
            (role, acc)
        })
        .collect();
    let mut exact = true;
    let t = median_of(s.probes.reps, || {
        let (out, d) = timed("encoding.codec.solve", || {
            codec.solve(&[0, 1], &syndromes, cfg)
        });
        exact &= bits_eq(&out[0], s0) && bits_eq(&out[1], s1);
        d
    });
    r.layer("encoding.rs2_solve_ms", t * 1e3, "ms");
    (gf_rate, exact)
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[derive(Default)]
struct EngineOut {
    encode_s: [f64; 2],
    rebuild_s: f64,
    reduce_s: f64,
    barrier_s: f64,
    bcast_s: f64,
    exact: bool,
}

fn engine_rank(ctx: &Ctx, s: &Sizes, parent: Option<u64>) -> Result<EngineOut, Fault> {
    let comm = ctx.world();
    let me = comm.rank();
    let mut out = EngineOut {
        exact: true,
        ..EngineOut::default()
    };
    let rank_timed = |name: &str, f: &mut dyn FnMut() -> Result<(), Fault>| -> Result<f64, Fault> {
        let mut v = Vec::with_capacity(s.probes.reps);
        for _ in 0..s.probes.reps.max(1) {
            comm.barrier()?;
            let (res, d) = timed_under(parent, name, &mut *f);
            res?;
            v.push(d.as_secs_f64());
        }
        Ok(median(&v).expect("at least one repetition"))
    };
    for (i, m) in [1usize, 2].into_iter().enumerate() {
        let lay = layout(s, m);
        let codec = if m == 1 {
            CodecSpec::default()
        } else {
            CodecSpec::Rs { m }
        }
        .resolve();
        let mut data = vec![0.0; lay.padded_len()];
        fill(&mut data, 10 + me as u64);
        let mut parity = Vec::new();
        out.encode_s[i] = rank_timed(&format!("core.engine.encode_parity.m{m}"), &mut || {
            parity = encode_parity(&comm, &lay, codec, &data, None)?;
            Ok(())
        })?;
        if m == 2 {
            let lost = [1, 2];
            let truth = data.clone();
            if lost.contains(&me) {
                data.iter_mut().for_each(|v| *v = 0.0);
                parity.iter_mut().for_each(|v| *v = 0.0);
            }
            let mut exact = true;
            out.rebuild_s = rank_timed("core.engine.reconstruct_multi", &mut || {
                if let Some((d, _)) = reconstruct_multi(&comm, &lay, codec, &lost, &data, &parity)?
                {
                    exact &= bits_eq(&d, &truth);
                }
                Ok(())
            })?;
            out.exact = exact;
        }
    }
    let stripe = layout(s, 1).stripe_len();
    let mut words = vec![0.0; stripe];
    fill(&mut words, 20 + me as u64);
    let bits: Vec<u64> = words.iter().map(|v| v.to_bits()).collect();
    // payloads are built before the clock starts: only the collective is timed
    let collective = |name: &str,
                      make: &dyn Fn() -> Payload,
                      f: &dyn Fn(Payload) -> Result<(), Fault>|
     -> Result<f64, Fault> {
        let mut v = Vec::with_capacity(s.probes.reps);
        for _ in 0..s.probes.reps.max(1) {
            let p = make();
            comm.barrier()?;
            let (res, d) = timed_under(parent, name, || f(p));
            res?;
            v.push(d.as_secs_f64());
        }
        Ok(median(&v).expect("at least one repetition"))
    };
    out.reduce_s = collective("mps.comm.reduce", &|| Payload::U64(bits.clone()), &|p| {
        comm.reduce(ReduceOp::Xor, 0, p).map(drop)
    })?;
    let panel = vec![1.0; s.hpl.n * s.hpl.nb];
    let root_panel = || {
        if me == 0 {
            Payload::F64(panel.clone())
        } else {
            Payload::Empty
        }
    };
    out.bcast_s = collective("mps.comm.bcast", &root_panel, &|p| {
        comm.bcast(0, p).map(drop)
    })?;
    comm.barrier()?;
    let (res, d) = timed_under(parent, "mps.comm.barrier", || {
        (0..s.probes.small_reps).try_for_each(|_| comm.barrier())
    });
    res?;
    out.barrier_s = d.as_secs_f64() / s.probes.small_reps.max(1) as f64;
    Ok(out)
}

/// `core.engine` and `mps` under the real runtime, four ranks on four
/// nodes. Returns whether the RS(m=2) rebuild was exact.
pub fn engine_and_mps(s: &Sizes, gf_rate: f64, r: &mut Report) -> bool {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(RANKS, 0)));
    let rl = Ranklist::round_robin(RANKS, RANKS);
    let (outs, _) = timed("mps.run_on_cluster", || {
        let parent = crate::trace::current();
        run_on_cluster(cluster, &rl, |ctx| engine_rank(ctx, s, parent))
    });
    let Ok(outs) = outs else { return false };
    let o = &outs[0];
    let xl = layout(s, 1).stripe_len();
    let rs = layout(s, 2);
    r.layer("core.engine.encode_xor_ms", o.encode_s[0] * 1e3, "ms");
    r.layer("core.engine.encode_rs2_ms", o.encode_s[1] * 1e3, "ms");
    // rank 0 contributes each of its data stripes to both parity roles
    let gf_bytes = (rs.stripes_per_rank() * 2 * rs.stripe_len() * 8) as f64;
    r.layer(
        "core.engine.encode_rs2_over_kernel",
        o.encode_s[1] / (gf_bytes / gf_rate),
        "ratio",
    );
    r.layer("core.engine.rebuild_rs2_ms", o.rebuild_s * 1e3, "ms");
    r.layer(
        "mps.reduce_xor_gbps",
        (xl * 8) as f64 / o.reduce_s / 1e9,
        "GB/s",
    );
    r.layer("mps.barrier_us", o.barrier_s * 1e6, "us");
    r.layer("mps.bcast_panel_ms", o.bcast_s * 1e3, "ms");

    let rl = Ranklist::round_robin(RANKS, RANKS);
    let launch = median_of(s.probes.small_reps / 20, || {
        let cluster = Arc::new(Cluster::new(ClusterConfig::new(RANKS, 0)));
        timed("mps.run_on_cluster", || {
            run_on_cluster(cluster, &rl, |_| Ok(()))
        })
        .1
    });
    r.layer("mps.launch_ms", launch * 1e3, "ms");
    outs.iter().all(|o| o.exact)
}

/// Wall time per call of `per_rank` repeated `reps` times on each of `w`
/// simulated ranks, as rank 0 sees it.
fn sim_world(
    w: usize,
    seed: u64,
    name: &str,
    reps: usize,
    per_rank: impl Fn(&Ctx) -> Result<(), Fault> + Sync,
) -> Option<f64> {
    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(w, 0),
        SimRuntime::new(seed),
    ));
    let rl = Ranklist::round_robin(w, w);
    let (outs, _) = timed("mps.run_on_cluster", || {
        let parent = crate::trace::current();
        run_on_cluster(cluster, &rl, |ctx| {
            let (res, d) = timed_under(parent, name, || (0..reps).try_for_each(|_| per_rank(ctx)));
            res.map(|()| d)
        })
    });
    Some(outs.ok()?[0].as_secs_f64() / reps.max(1) as f64)
}

/// `sim` handoffs and the simulated barrier.
pub fn sim(s: &Sizes, seed: u64, r: &mut Report) -> bool {
    let mut ok = true;
    for w in SIM_WORLDS {
        let reps = (s.probes.sim_handoffs / w).max(1);
        let per_yield = sim_world(
            w,
            seed,
            &format!("sim.runtime.yield_now.w{w}"),
            reps,
            |ctx| {
                ctx.cluster().runtime().yield_now("perfbench");
                Ok(())
            },
        );
        ok &= per_yield.is_some();
        // one round of `w` yields is `w` handoffs
        r.layer(
            &format!("sim.handoff_us.w{w}"),
            per_yield.unwrap_or(0.0) * 1e6 / w as f64,
            "us",
        );
    }
    let w = SIM_BARRIER_WORLD;
    let per_barrier = sim_world(
        w,
        seed,
        &format!("mps.comm.barrier.sim.w{w}"),
        s.probes.sim_barriers,
        |ctx| ctx.world().barrier(),
    );
    ok &= per_barrier.is_some();
    r.layer(
        &format!("mps.barrier_sim_us.w{w}"),
        per_barrier.unwrap_or(0.0) * 1e6,
        "us",
    );
    ok
}

/// `linalg` at `hpl-ft`'s shapes: the first panel's trailing update on
/// one rank, and the factorization of a full-height panel.
pub fn linalg(s: &Sizes, r: &mut Report) -> bool {
    let (m, n, k) = (s.hpl.n - s.hpl.nb, s.hpl.n / RANKS, s.hpl.nb);
    let mut a = vec![0.0; m * k];
    let mut b = vec![0.0; k * n];
    let mut c = vec![0.0; m * n];
    fill(&mut a, 30);
    fill(&mut b, 31);
    let t = median_of(s.probes.reps.min(9), || {
        timed("linalg.dgemm", || {
            dgemm(Trans::No, m, n, k, -1.0, &a, m, &b, k, 1.0, &mut c, m)
        })
        .1
    });
    r.layer(
        "linalg.dgemm_gflops",
        2.0 * (m * n * k) as f64 / t / 1e9,
        "GFLOP/s",
    );
    let mut panel = vec![0.0; s.hpl.n * s.hpl.nb];
    fill(&mut panel, 32);
    let mut work = panel.clone();
    let mut piv = vec![0usize; s.hpl.nb];
    let mut ok = true;
    let t = median_of(s.probes.reps.min(9), || {
        work.copy_from_slice(&panel);
        let (res, d) = timed("linalg.dgetf2", || {
            dgetf2(s.hpl.n, s.hpl.nb, &mut work, s.hpl.n, &mut piv)
        });
        ok &= res.is_ok();
        d
    });
    r.layer("linalg.dgetf2_ms", t * 1e3, "ms");
    ok
}

/// `ftsim`: one round-robin decision over [`POLICY_TENANTS`] ready rows.
pub fn policy(s: &Sizes, r: &mut Report) -> bool {
    let rows: Vec<TenantSched> = (0..POLICY_TENANTS)
        .map(|i| TenantSched {
            tenant: TenantId(i as u32),
            class: 0,
            deadline: None,
            enqueued_at: Duration::from_micros((i as u64 * 7919) % 1000),
            ready_seq: i as u64,
            slices: i % 5,
            failures: 0,
            last_slice: Duration::from_micros(300),
        })
        .collect();
    let state = SchedState {
        now: Duration::from_millis(5),
        default_budget: 2,
        last: Some(TenantId(3)),
        ready: &rows,
    };
    let pol = PolicySpec::RoundRobin.resolve();
    let reps = s.probes.small_reps;
    let (picked, d) = timed("ftsim.policy.next", || {
        (0..reps)
            .filter(|_| black_box(pol.next(black_box(&state))).is_some())
            .count()
    });
    r.layer(
        &format!("ftsim.policy_next_us.t{POLICY_TENANTS}"),
        d.as_secs_f64() * 1e6 / reps.max(1) as f64,
        "us",
    );
    picked == reps
}
