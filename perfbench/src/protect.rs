//! `protect`: four ranks on four nodes protect their workspaces with the
//! self-checkpoint method, alternating an XOR and an RS(m=2) checkpointer.
//! The whole workspace is rewritten from the seed before every make, so
//! no dirty-region shortcut applies. After every few rounds the benchmark
//! powers a seeded node off, repairs the ranklist from the spare pool and
//! relaunches, and every rank recovers both checkpointers.

use crate::check::{fill, hash_f64, restored_exactly, split_within_make};
use crate::stats::{median, tail};
use crate::trace::{timed, timed_under};
use crate::RANKS;
use crate::{Pass, Report};
use self_checkpoint::cluster::{Cluster, ClusterConfig, Ranklist};
use self_checkpoint::core::{Checkpointer, CkptConfig, Method, RecoverError};
use self_checkpoint::encoding::{Code, CodecSpec};
use self_checkpoint::mps::{run_on_cluster, Ctx, Fault};
use self_checkpoint::sim::SplitMix64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Make rounds (one make per codec each) between two node losses.
pub const ROUNDS: usize = 2;
/// Spare nodes of a job: one is spent per cycle.
const SPARES: usize = 64;
/// Makes per codec that `make_*_tail_ms` is taken over: the last this
/// many of the run, so the tail is the same percentile (p79.2, ten makes
/// beyond it) however many makes a run of fixed length gets through.
pub const TAIL_MAKES: usize = 48;
/// Bytes of small state (`A2`) per checkpoint: the epoch counter.
pub const A2_CAP: usize = 16;
/// The two checkpointers every rank runs, in make order.
pub const CODECS: [(&str, CodecSpec); 2] = [
    ("xor", CodecSpec::Single(Code::Xor)),
    ("rs2", CodecSpec::Rs { m: 2 }),
];

/// What one `protect` pass measured. Durations are rank 0's, in seconds;
/// index 0 is XOR and 1 is RS(m=2).
#[derive(Clone, Debug, Default)]
pub struct ProtectSamples {
    pub setup_s: Vec<f64>,
    pub make_s: [Vec<f64>; 2],
    pub encode_s: [Vec<f64>; 2],
    pub flush_s: [Vec<f64>; 2],
    pub recover_s: [Vec<f64>; 2],
    pub init_s: Vec<f64>,
    pub repair_s: Vec<f64>,
    pub rebuilt_bytes: Vec<f64>,
    pub shm_per_ws: [f64; 2],
    pub attempted: u64,
    pub failed: u64,
}

/// Rank 0's timings from one launch, plus every rank's check results.
#[derive(Default)]
struct RankOut {
    hashes: [u64; 2],
    failed: u64,
    attempted: u64,
    make_s: [Vec<f64>; 2],
    encode_s: [Vec<f64>; 2],
    flush_s: [Vec<f64>; 2],
    recover_s: [Vec<f64>; 2],
    init_s: Vec<f64>,
    rebuilt_bytes: Vec<f64>,
    shm_per_ws: [f64; 2],
}

struct Rig {
    cluster: Arc<Cluster>,
    rl: Ranklist,
    /// Workspace length per rank and codec, in `f64` elements.
    ws_elems: usize,
    data_seed: u64,
    /// Epoch both checkpointers last committed.
    epoch: u64,
    /// Per rank and codec: workspace hash at that epoch.
    hashes: Vec<[u64; 2]>,
}

fn a2_of(epoch: u64) -> [u8; 8] {
    epoch.to_le_bytes()
}

/// Rank 0 records spans (its timings are the ones reported); the other
/// ranks only time their calls, for their own checks.
fn rank_timed<R>(
    rank0: bool,
    parent: Option<u64>,
    name: &str,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    if rank0 {
        timed_under(parent, name, f)
    } else {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed())
    }
}

impl Rig {
    /// One job launch: init both checkpointers, recover them when
    /// `recovering`, then `rounds` rounds of rewrite + make per codec.
    fn launch(&mut self, recovering: bool, rounds: usize) -> Result<Vec<RankOut>, Fault> {
        let (epoch, ws, seed) = (self.epoch, self.ws_elems, self.data_seed);
        let hashes = self.hashes.clone();
        let (res, _) = timed("mps.run_on_cluster", || {
            let parent = crate::trace::current();
            run_on_cluster(Arc::clone(&self.cluster), &self.rl, |ctx: &Ctx| {
                rank_body(ctx, parent, recovering, rounds, epoch, ws, seed, &hashes)
            })
        });
        let outs = res?;
        self.epoch += rounds as u64;
        self.hashes = outs.iter().map(|o| o.hashes).collect();
        Ok(outs)
    }
}

#[allow(clippy::too_many_arguments)]
fn rank_body(
    ctx: &Ctx,
    parent: Option<u64>,
    recovering: bool,
    rounds: usize,
    epoch: u64,
    ws_elems: usize,
    data_seed: u64,
    hashes: &[[u64; 2]],
) -> Result<RankOut, Fault> {
    let me = ctx.world_rank();
    let rank0 = me == 0;
    let mut out = RankOut::default();
    let mut cks = Vec::with_capacity(CODECS.len());
    for (name, codec) in CODECS {
        let cfg = CkptConfig::new(
            format!("protect-{name}"),
            Method::SelfCkpt,
            ws_elems,
            A2_CAP,
        )
        .with_codec(codec);
        let ((ck, _), d) = rank_timed(rank0, parent, "core.protocol.init", || {
            Checkpointer::init(ctx.world(), cfg)
        });
        if rank0 && recovering {
            out.init_s.push(d.as_secs_f64());
        }
        cks.push(ck);
    }
    for (i, ck) in cks.iter_mut().enumerate().filter(|_| recovering) {
        let name = CODECS[i].0;
        let (rec, d) = rank_timed(
            rank0,
            parent,
            &format!("core.protocol.recover.{name}"),
            || ck.recover(),
        );
        out.attempted += 1;
        let rec = match rec {
            Ok(r) => r,
            Err(RecoverError::Fault(f)) => return Err(f),
            Err(_) => {
                out.failed += 1;
                continue;
            }
        };
        let (h, _) = rank_timed(rank0, parent, "perfbench.hash", || {
            hash_f64(&ck.workspace().read().as_f64()[..ws_elems])
        });
        if !restored_exactly(&rec, epoch, &a2_of(epoch), hashes[me][i], h) {
            out.failed += 1;
        }
        if rank0 {
            out.recover_s[i].push(d.as_secs_f64());
            if let Some(rep) = ck.last_report() {
                out.rebuilt_bytes.push(rep.rebuilt_bytes as f64);
            }
        }
    }
    for round in 0..rounds as u64 {
        let e = epoch + round + 1;
        for (i, ck) in cks.iter_mut().enumerate() {
            let name = CODECS[i].0;
            let seg = ck.workspace();
            rank_timed(rank0, parent, "perfbench.fill", || {
                let s = data_seed ^ (e << 20) ^ ((me as u64) << 4) ^ i as u64;
                fill(&mut seg.write().as_f64_mut()[..ws_elems], s);
            });
            let (stats, d) =
                rank_timed(rank0, parent, &format!("core.protocol.make.{name}"), || {
                    ck.make(&a2_of(e))
                });
            let stats = stats?;
            out.attempted += 1;
            let (enc, fl, mk) = (
                stats.encode.as_secs_f64(),
                stats.flush.as_secs_f64(),
                d.as_secs_f64(),
            );
            if !split_within_make(enc, fl, mk) || stats.epoch != e {
                out.failed += 1;
            }
            if rank0 {
                out.make_s[i].push(mk);
                out.encode_s[i].push(enc);
                out.flush_s[i].push(fl);
            }
        }
    }
    for (i, ck) in cks.iter().enumerate() {
        let (h, _) = rank_timed(rank0, parent, "perfbench.hash", || {
            hash_f64(&ck.workspace().read().as_f64()[..ws_elems])
        });
        out.hashes[i] = h;
        out.shm_per_ws[i] = ck.shm_bytes() as f64 / (ws_elems * 8) as f64;
    }
    Ok(out)
}

fn absorb(s: &mut ProtectSamples, outs: Vec<RankOut>) {
    for o in outs {
        s.attempted += o.attempted;
        s.failed += o.failed;
        for i in 0..2 {
            s.make_s[i].extend(&o.make_s[i]);
            s.encode_s[i].extend(&o.encode_s[i]);
            s.flush_s[i].extend(&o.flush_s[i]);
            s.recover_s[i].extend(&o.recover_s[i]);
        }
        s.init_s.extend(&o.init_s);
        s.rebuilt_bytes.extend(&o.rebuilt_bytes);
        if o.shm_per_ws[0] > 0.0 && s.shm_per_ws[0] == 0.0 {
            s.shm_per_ws = o.shm_per_ws;
        }
    }
}

/// Cluster build, `init` of both checkpointers and the first
/// (page-faulting) make of each codec.
fn setup(ws_elems: usize, data_seed: u64) -> Result<(Rig, Duration), Fault> {
    let (rig, d) = timed("perfbench.setup.protect", || {
        let mut rig = Rig {
            cluster: Arc::new(Cluster::new(ClusterConfig::new(RANKS, SPARES))),
            rl: Ranklist::round_robin(RANKS, RANKS),
            ws_elems,
            data_seed,
            epoch: 0,
            hashes: vec![[0; 2]; RANKS],
        };
        rig.launch(false, 1).map(|_| rig)
    });
    Ok((rig?, d))
}

/// A `protect` job on its cluster, between two cycles.
pub struct Protect {
    rig: Option<Rig>,
    rng: SplitMix64,
    /// Ranks whose node dies next, drawn as seeded permutations of all
    /// ranks so that every rank is the victim equally often.
    victims: Vec<usize>,
    pub samples: ProtectSamples,
}

impl Protect {
    /// `setups` timed set-ups (the last job is kept), then one warm-up
    /// cycle whose timings are dropped: the first cycle after set-up pays
    /// for page faults and allocator growth that later cycles do not.
    pub fn new(ws_elems: usize, seed: u64, setups: usize) -> Protect {
        let mut p = Protect {
            rig: None,
            rng: SplitMix64::new(seed ^ 0x005e_ed0f_7157),
            victims: Vec::new(),
            samples: ProtectSamples::default(),
        };
        for _ in 0..setups.max(1) {
            p.set_up(ws_elems, seed);
        }
        if p.cycle() {
            let s = &p.samples;
            p.samples = ProtectSamples {
                setup_s: s.setup_s.clone(),
                attempted: s.attempted,
                failed: s.failed,
                ..ProtectSamples::default()
            };
        }
        p
    }

    /// Build a fresh job in place of the current one (freed first), and
    /// time it.
    fn set_up(&mut self, ws_elems: usize, seed: u64) {
        self.rig = None;
        self.samples.attempted += 1;
        match setup(ws_elems, seed.rotate_left(17) ^ 0xda7a) {
            Ok((r, d)) => {
                self.samples.setup_s.push(d.as_secs_f64());
                self.rig = Some(r);
            }
            Err(_) => self.samples.failed += 1,
        }
    }

    /// Power a seeded node off, repair the ranklist, relaunch: every rank
    /// recovers both checkpointers and runs its rounds of makes.
    fn cycle(&mut self) -> bool {
        let Some(rig) = self.rig.as_mut() else {
            return false;
        };
        if self.victims.is_empty() {
            self.victims = (0..RANKS).collect();
            for i in (1..RANKS).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.victims.swap(i, j);
            }
        }
        let s = &mut self.samples;
        let failed_before = s.failed;
        let victim = rig.rl.node_of(self.victims.pop().expect("refilled above"));
        let (repaired, d) = timed("cluster.kill_repair", || {
            rig.cluster.kill_node(victim);
            rig.cluster.reset_abort();
            rig.rl.repair(&rig.cluster)
        });
        s.repair_s.push(d.as_secs_f64());
        let ok = repaired.is_ok()
            && match rig.launch(true, ROUNDS) {
                Ok(outs) => {
                    absorb(s, outs);
                    true
                }
                Err(_) => false,
            };
        if !ok {
            s.attempted += 1;
            s.failed += 1;
        }
        ok && s.failed == failed_before
    }
}

impl Pass for Protect {
    fn unit(&mut self) -> bool {
        self.cycle()
    }

    fn capacity(&self) -> usize {
        self.rig.as_ref().map_or(0, |r| r.cluster.spares_left())
    }

    fn counts(&self) -> (u64, u64) {
        (self.samples.attempted, self.samples.failed)
    }

    fn setup_s(&self) -> &[f64] {
        &self.samples.setup_s
    }

    fn end_to_end(&self, r: &mut Report) {
        let s = &self.samples;
        for (i, (codec, _)) in CODECS.into_iter().enumerate() {
            r.e2e(
                &format!("make_{codec}_ms"),
                median(&s.make_s[i]).map(|v| v * 1e3),
                "ms",
            );
            let makes = &s.make_s[i];
            let tail = makes
                .len()
                .checked_sub(TAIL_MAKES)
                .and_then(|k| tail(&makes[k..]));
            r.e2e(
                &format!("make_{codec}_tail_ms"),
                tail.map(|t| t.1 * 1e3),
                "ms",
            );
            r.note(&format!("make_{codec}_samples"), makes.len());
            r.note(&format!("make_{codec}_tail_samples"), TAIL_MAKES);
            if let Some((pct, _)) = tail {
                r.note(
                    &format!("make_{codec}_tail_percentile"),
                    format!("{pct:.1}"),
                );
            }
            r.e2e(
                &format!("recover_{codec}_ms"),
                median(&s.recover_s[i]).map(|v| v * 1e3),
                "ms",
            );
            r.note(&format!("recover_{codec}_samples"), s.recover_s[i].len());
            r.e2e(
                &format!("shm_per_ws_{codec}"),
                Some(s.shm_per_ws[i]).filter(|v| *v > 0.0),
                "ratio",
            );
        }
    }

    fn per_layer(&self, r: &mut Report) {
        let s = &self.samples;
        let ms = |v: &[f64]| median(v).map_or(f64::NAN, |x| x * 1e3);
        for (i, (codec, _)) in CODECS.into_iter().enumerate() {
            let rest: Vec<f64> = (0..s.make_s[i].len())
                .map(|k| s.make_s[i][k] - s.encode_s[i][k] - s.flush_s[i][k])
                .collect();
            r.layer(
                &format!("core.protocol.make_encode_ms.{codec}"),
                ms(&s.encode_s[i]),
                "ms",
            );
            r.layer(
                &format!("core.protocol.make_flush_ms.{codec}"),
                ms(&s.flush_s[i]),
                "ms",
            );
            r.layer(
                &format!("core.protocol.make_rest_ms.{codec}"),
                ms(&rest),
                "ms",
            );
        }
        r.layer("core.protocol.init_ms", ms(&s.init_s), "ms");
        let mib = median(&s.rebuilt_bytes).map_or(f64::NAN, |v| v / f64::from(1 << 20));
        r.layer("core.protocol.rebuilt_mib", mib, "MiB");
        r.layer("cluster.repair_ms", ms(&s.repair_s), "ms");
    }
}
