//! `service-storm`: the multi-tenant checkpoint service on a simulated
//! cluster. Sixteen tenants of small SKT-HPL jobs, half XOR and half
//! RS(m=2), time-share one `SimRuntime` in two-panel round-robin slices
//! while a seeded storm kills nodes and flips checkpoint bits. Only one
//! rank thread runs at a time, so the simulator's handoffs and the
//! service's bookkeeping dominate, not the kernels.

use crate::check::{fingerprint_repeats, hash_bytes, storm_clean};
use crate::host::usage;
use crate::stats::median;
use crate::trace::timed;
use crate::{Pass, Report};
use self_checkpoint::cluster::{Admission, Cluster, ClusterConfig, NodeId, SimRuntime};
use self_checkpoint::encoding::CodecSpec;
use self_checkpoint::ftsim::{
    CheckpointService, PolicySpec, RetryPolicy, ServiceConfig, ServiceReport, StormPlan,
};
use self_checkpoint::hpl::{HplConfig, SktConfig};
use std::sync::Arc;
use std::time::Duration;

/// Nodes of one tenant's shard.
const SHARD: usize = 4;
/// Panel width, checkpoint interval (panels) and slice length (panels)
/// of every tenant.
const NB: usize = 4;
const CKPT_EVERY: usize = 4;
const SLICE_PANELS: usize = 2;

#[derive(Clone, Copy, Debug)]
pub struct StormSizes {
    pub tenants: usize,
    /// Spare nodes beside the tenants' shards.
    pub spares: usize,
    /// HPL order of every tenant.
    pub n: usize,
    /// Node kills and checkpoint bit flips of the seeded storm.
    pub kills: usize,
    pub flips: usize,
}

#[derive(Clone, Debug, Default)]
pub struct StormSamples {
    pub setup_s: Vec<f64>,
    pub register_s: Vec<f64>,
    pub storm_s: Vec<f64>,
    pub makespan_s: Vec<f64>,
    pub launches: Vec<f64>,
    pub slices: Vec<f64>,
    pub user_s: f64,
    pub sys_s: f64,
    pub fingerprint: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
}

/// A service with every tenant registered, and the admitted shards in
/// registration order; `None` when a tenant was not admitted.
type Built = Option<(CheckpointService, Vec<Vec<NodeId>>)>;

/// Cluster, runtime, service and every tenant registration, timed.
fn build(
    sizes: StormSizes,
    sim_seed: u64,
    matrix_seed: u64,
    register_s: &mut Vec<f64>,
) -> (Built, Duration) {
    timed("perfbench.setup.service-storm", || {
        let cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(sizes.tenants * SHARD, sizes.spares),
            SimRuntime::new(sim_seed),
        ));
        let mut cfg = ServiceConfig::new(RetryPolicy::new(3, Duration::from_secs(5)));
        cfg.slice_panels = SLICE_PANELS;
        cfg.schedule = PolicySpec::RoundRobin;
        let mut svc = CheckpointService::new(cluster, cfg);
        let mut shards = Vec::with_capacity(sizes.tenants);
        for i in 0..sizes.tenants {
            let hpl = HplConfig::new(sizes.n, NB, matrix_seed.wrapping_add(i as u64));
            let mut t = SktConfig::new(hpl, SHARD, CKPT_EVERY);
            t.name = format!("tenant{i:02}");
            if i % 2 == 1 {
                t.codec = CodecSpec::Rs { m: 2 };
            }
            let (adm, d) = timed("ftsim.register", || svc.register(t, SHARD, 0));
            register_s.push(d.as_secs_f64());
            match adm {
                Ok(Admission::Admitted { nodes, .. }) => shards.push(nodes),
                _ => return None,
            }
        }
        Some((svc, shards))
    })
}

/// The `service-storm` loop: one whole storm per operation, always the
/// same plan and simulator seed, so every storm of a run must end with the
/// same report fingerprint.
pub struct Storm {
    sizes: StormSizes,
    sim_seed: u64,
    storm_seed: u64,
    matrix_seed: u64,
    pub samples: StormSamples,
}

impl Storm {
    pub fn new(sizes: StormSizes, sim_seed: u64, storm_seed: u64, matrix_seed: u64) -> Storm {
        Storm {
            sizes,
            sim_seed,
            storm_seed,
            matrix_seed,
            samples: StormSamples::default(),
        }
    }
}

impl Pass for Storm {
    fn unit(&mut self) -> bool {
        let (sizes, s) = (self.sizes, &mut self.samples);
        let (built, d) = build(sizes, self.sim_seed, self.matrix_seed, &mut s.register_s);
        s.setup_s.push(d.as_secs_f64());
        s.attempted += 1;
        let Some((svc, shards)) = built else {
            s.failed += 1;
            return false;
        };
        let plan = StormPlan::seeded(self.storm_seed, &shards, sizes.kills, sizes.flips);
        let u0 = usage();
        let (rep, d): (ServiceReport, _) = timed("ftsim.service_run", || svc.run(&plan));
        let u1 = usage();
        s.user_s += (u1.user - u0.user).as_secs_f64();
        s.sys_s += (u1.sys - u0.sys).as_secs_f64();
        s.storm_s.push(d.as_secs_f64());
        let makespan = rep
            .tenants
            .iter()
            .map(|t| t.finished_at)
            .max()
            .unwrap_or_default();
        s.makespan_s.push(makespan.as_secs_f64());
        s.launches
            .push(rep.tenants.iter().map(|t| t.launches).sum::<usize>() as f64);
        s.slices
            .push(rep.tenants.iter().map(|t| t.slices).sum::<usize>() as f64);
        let fp = rep.fingerprint(false);
        let ok = storm_clean(&rep, sizes.tenants) && fingerprint_repeats(s.fingerprint, &fp);
        s.fingerprint.get_or_insert(hash_bytes(fp.as_bytes()));
        if !ok {
            s.failed += 1;
        }
        ok
    }

    fn counts(&self) -> (u64, u64) {
        (self.samples.attempted, self.samples.failed)
    }

    fn setup_s(&self) -> &[f64] {
        &self.samples.setup_s
    }

    fn end_to_end(&self, r: &mut Report) {
        let s = &self.samples;
        r.e2e("storm_s", median(&s.storm_s), "s");
        r.e2e("makespan_virtual_s", median(&s.makespan_s), "virtual_s");
        r.note("storm_samples", s.storm_s.len());
    }

    fn per_layer(&self, r: &mut Report) {
        let s = &self.samples;
        let launches = median(&s.launches).unwrap_or(f64::NAN);
        r.layer("sim.sys_per_user", s.sys_s / s.user_s, "ratio");
        let register_us = median(&s.register_s).map_or(f64::NAN, |v| v * 1e6);
        r.layer("ftsim.register_us", register_us, "us");
        r.layer("ftsim.launches", launches, "count");
        r.layer(
            "ftsim.slices",
            median(&s.slices).unwrap_or(f64::NAN),
            "count",
        );
        r.layer(
            "ftsim.launches_per_tenant",
            launches / self.sizes.tenants as f64,
            "count",
        );
    }
}
