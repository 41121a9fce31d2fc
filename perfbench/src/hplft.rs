//! `hpl-ft`: SKT-HPL under the restart daemon, the paper's own scenario.
//! Four ranks in one XOR group checkpoint every few panels; node 1 is
//! powered off at a fixed panel, and the daemon heals the job from the
//! one spare. The fault-free control that fixes the expected residual
//! runs outside the timed region.

use crate::check::{healed_once, solve_matches_control};
use crate::stats::median;
use crate::trace::timed;
use crate::{Pass, Report, RANKS};
use self_checkpoint::cluster::{Cluster, ClusterConfig, FailurePlan, Ranklist};
use self_checkpoint::ftsim::run_with_daemon;
use self_checkpoint::hpl::{run_plain, run_skt, HplConfig, SktConfig, ITER_PROBE};
use self_checkpoint::mps::{run_local, run_on_cluster};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Node the daemon loses in every solve.
pub const VICTIM: usize = 1;
/// Modeled failure detection. It is charged to the runtime clock, which
/// under the real runtime costs no wall time.
pub const DETECT: Duration = Duration::from_secs(63);
/// Cluster builds per `setup_s` sample, one sample after every solve: a
/// build (and its drop) takes about a microsecond, so one alone would time
/// mostly the clock and the allocator.
const SETUP_BATCH: u32 = 4000;
/// Timed fault-free SKT-HPL, plain 4-rank and plain 1-rank solves behind
/// the traced run's `hpl.*` baselines, after one untimed round of each.
const BASELINE_REPS: usize = 3;

#[derive(Clone, Copy, Debug)]
pub struct HplSizes {
    pub n: usize,
    pub nb: usize,
    pub ckpt_every: usize,
    /// The victim dies at its `kill_nth` panel probe, which fires after
    /// that many panels are complete.
    pub kill_nth: u64,
}

#[derive(Clone, Debug, Default)]
pub struct HplSamples {
    pub setup_s: Vec<f64>,
    pub solve_s: Vec<f64>,
    pub resumed_from: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
}

pub fn skt_cfg(sizes: HplSizes, matrix_seed: u64, name: &str) -> SktConfig {
    let mut cfg = SktConfig::new(
        HplConfig::new(sizes.n, sizes.nb, matrix_seed),
        RANKS,
        sizes.ckpt_every,
    );
    cfg.name = name.to_string();
    cfg
}

/// Cluster (four nodes and one spare) and ranklist build.
fn build() -> (Arc<Cluster>, Ranklist) {
    (
        Arc::new(Cluster::new(ClusterConfig::new(RANKS, 1))),
        Ranklist::round_robin(RANKS, RANKS),
    )
}

/// Seconds per build, over a batch of [`SETUP_BATCH`] builds (each one
/// dropped before the next).
fn time_builds() -> f64 {
    let (_, d) = timed("perfbench.setup.hpl-ft", || {
        (0..SETUP_BATCH).for_each(|_| drop(black_box(build())))
    });
    d.as_secs_f64() / f64::from(SETUP_BATCH)
}

/// Fault-free SKT-HPL on four ranks: `(residual, passed, wall seconds)`.
pub fn control(sizes: HplSizes, matrix_seed: u64) -> Option<(f64, bool, f64)> {
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(RANKS, 0)));
    let rl = Ranklist::round_robin(RANKS, RANKS);
    let cfg = skt_cfg(sizes, matrix_seed, "hpl-control");
    let (outs, d) = timed("hpl.run_skt", || {
        run_on_cluster(cluster, &rl, |ctx| run_skt(ctx, &cfg))
    });
    let out = outs.ok()?.into_iter().next()?;
    Some((out.hpl.residual, out.hpl.passed, d.as_secs_f64()))
}

/// Plain (not fault-tolerant) HPL on `ranks` ranks: wall seconds, `None`
/// when it fails verification.
pub fn plain(sizes: HplSizes, matrix_seed: u64, ranks: usize) -> Option<f64> {
    let cfg = HplConfig::new(sizes.n, sizes.nb, matrix_seed);
    let (outs, d) = timed(&format!("hpl.run_plain.r{ranks}"), || {
        run_local(ranks, |ctx| run_plain(ctx, &cfg))
    });
    outs.ok()?.first()?.passed.then_some(d.as_secs_f64())
}

/// The `hpl-ft` loop: one solve per operation, after a fault-free control
/// fixed the expected residual.
pub struct HplFt {
    sizes: HplSizes,
    matrix_seed: u64,
    cfg: SktConfig,
    control_residual: Option<f64>,
    pub samples: HplSamples,
}

impl HplFt {
    pub fn new(sizes: HplSizes, matrix_seed: u64) -> HplFt {
        let mut h = HplFt {
            sizes,
            matrix_seed,
            cfg: skt_cfg(sizes, matrix_seed, "hpl-ft"),
            control_residual: None,
            samples: HplSamples::default(),
        };
        h.samples.attempted += 1;
        match control(sizes, matrix_seed) {
            Some((residual, true, _)) => h.control_residual = Some(residual),
            _ => h.samples.failed += 1,
        }
        h
    }
}

impl Pass for HplFt {
    fn unit(&mut self) -> bool {
        let Some(control_residual) = self.control_residual else {
            return false;
        };
        let s = &mut self.samples;
        let (cluster, rl) = build();
        cluster.arm_failure(FailurePlan::new(ITER_PROBE, self.sizes.kill_nth, VICTIM));
        let (rep, d) = timed("ftsim.run_with_daemon", || {
            run_with_daemon(cluster, &rl, &self.cfg, 3, DETECT)
        });
        let ok = rep.is_ok_and(|rep| {
            let out = &rep.output;
            s.resumed_from.push(out.resumed_from_panel);
            healed_once(
                rep.failures,
                out.hpl.passed,
                out.hpl.residual,
                control_residual,
            )
        });
        s.attempted += 1;
        if ok {
            s.solve_s.push(d.as_secs_f64());
        } else {
            s.failed += 1;
        }
        // one set-up sample per solve, so the median spans the whole run
        s.setup_s.push(time_builds());
        ok
    }

    fn counts(&self) -> (u64, u64) {
        (self.samples.attempted, self.samples.failed)
    }

    fn setup_s(&self) -> &[f64] {
        &self.samples.setup_s
    }

    fn end_to_end(&self, r: &mut Report) {
        r.e2e("solve_s", median(&self.samples.solve_s), "s");
        r.note("solve_samples", self.samples.solve_s.len());
    }

    /// Also runs the baselines: fault-free SKT-HPL and plain HPL on four
    /// ranks, and plain HPL on one, each checked.
    fn per_layer(&self, r: &mut Report) {
        let (s, sz, seed) = (&self.samples, self.sizes, self.matrix_seed);
        let (mut clean, mut plain4, mut plain1) = (Vec::new(), Vec::new(), Vec::new());
        for round in 0..=BASELINE_REPS {
            let c = control(sz, seed).filter(|&(residual, passed, _)| {
                let want = self.control_residual.unwrap_or(f64::NAN);
                solve_matches_control(passed, residual, want)
            });
            let (p4, p1) = (plain(sz, seed, RANKS), plain(sz, seed, 1));
            r.check(c.is_some() && p4.is_some() && p1.is_some());
            if round > 0 {
                clean.extend(c.map(|c| c.2));
                plain4.extend(p4);
                plain1.extend(p1);
            }
        }
        let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
        let (clean, plain4, plain1) = (med(&clean), med(&plain4), med(&plain1));
        let solve = median(&s.solve_s).unwrap_or(f64::NAN);
        let panels = (sz.n / sz.nb) as f64;
        let done_before_kill = sz.kill_nth as f64;
        let resumed: Vec<f64> = s.resumed_from.iter().map(|&x| x as f64).collect();
        let resumed = median(&resumed).unwrap_or(f64::NAN);
        r.layer("hpl.plain1_s", plain1, "s");
        r.layer("hpl.plain4_s", plain4, "s");
        r.layer("hpl.skt_clean_s", clean, "s");
        r.layer("hpl.ckpt_overhead_frac", (clean - plain4) / plain4, "frac");
        r.layer("hpl.fail_cycle_s", solve - clean, "s");
        r.layer("hpl.redo_panels", done_before_kill - resumed, "count");
        let useful = panels / (done_before_kill + panels - resumed);
        r.layer("hpl.useful_panel_frac", useful, "frac");
    }
}
