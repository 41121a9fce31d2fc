//! Property-based tests (proptest) on the core data structures and
//! invariants: stripe geometry, parity codes, dual parity, the parallel
//! kernels, the deterministic generator, memory equations, and the
//! efficiency model.

use proptest::prelude::*;
use self_checkpoint::cluster::{
    Admission, Cluster, ClusterConfig, CorruptPlan, FailurePlan, FaultPlan, GrayPlan, Ranklist,
    Region, SimRuntime,
};
use self_checkpoint::core::{
    available_fraction, Checkpointer, CkptConfig, MemoryBreakdown, Method, Phase, RecoverError,
    Recovery, RestoreSource,
};
use self_checkpoint::encoding::{kernels, Code, CodecSpec, DualParity, GroupLayout, KernelConfig};
use self_checkpoint::ftsim::{
    run_with_daemon, CheckpointService, PolicySpec, RetryPolicy, ServiceConfig, StormPlan,
    SuspicionOutcome, TenantOutcome, TenantReport,
};
use self_checkpoint::hpl::{HplConfig, SktConfig, ITER_PROBE};
use self_checkpoint::linalg::{dgemm, solve_ref, MatGen, Matrix, Trans};
use self_checkpoint::models::{fit_ab, hpl_efficiency, scaled_efficiency_bound};
use self_checkpoint::mps::run_on_cluster;
use std::sync::Arc;
use std::time::Duration;

/// Workspace length for the simulated checkpoint cycles below.
const SIM_A1: usize = 64;

fn sim_pattern(rank: usize, epoch: u64) -> Vec<f64> {
    (0..SIM_A1)
        .map(|i| (rank * 6007 + i) as f64 * 0.5 + epoch as f64)
        .collect()
}

/// What a simulated fault cycle produced, job-wide.
enum SimOutcome {
    NeverFired,
    Torn(String),
    Recovered(Vec<(Recovery, Vec<f64>, bool)>),
}

/// One full checkpoint/fail/recover cycle on a fresh [`SimRuntime`]:
/// arm `phase` on node `victim` of an `n`-rank group, write five epochs,
/// then repair and collectively recover. Pure in `(n, phase, victim,
/// seed)`.
fn sim_cycle(seed: u64, n: usize, method: Method, phase: Phase, victim: usize) -> SimOutcome {
    let nth = if phase == Phase::Encode {
        2 * n as u64 + 1
    } else {
        3
    };
    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(n, 1),
        SimRuntime::new(seed),
    ));
    let mut rl = Ranklist::round_robin(n, n);
    cluster.arm_failure(FailurePlan::new(phase, nth, victim));
    let cfg = CkptConfig::new("prop-sim", method, SIM_A1, 16);
    let first = run_on_cluster(Arc::clone(&cluster), &rl, |ctx| {
        let (mut ck, _) = Checkpointer::init(ctx.world(), cfg.clone());
        for e in 1..=5u64 {
            {
                let ws = ck.workspace();
                ws.write().as_f64_mut()[..SIM_A1]
                    .copy_from_slice(&sim_pattern(ctx.world_rank(), e));
            }
            ctx.failpoint("computing")?;
            ck.make(&e.to_le_bytes())?;
        }
        Ok(())
    });
    if first.is_ok() {
        return SimOutcome::NeverFired;
    }
    assert_eq!(cluster.dead_nodes(), vec![victim], "only the victim dies");
    cluster.reset_abort();
    rl.repair(&cluster).unwrap();
    let torn = std::sync::Mutex::new(None);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let (mut ck, _) = Checkpointer::init(ctx.world(), cfg.clone());
        match ck.recover() {
            Ok(rec) => {
                let ok = ck.verify_integrity()?;
                let data = {
                    let ws = ck.workspace();
                    let g = ws.read();
                    g.as_f64()[..SIM_A1].to_vec()
                };
                Ok(Some((rec, data, ok)))
            }
            Err(RecoverError::Unrecoverable(msg)) => {
                *torn.lock().unwrap() = Some(msg);
                Ok(None)
            }
            Err(RecoverError::Fault(f)) => Err(f),
            Err(other) => panic!("unexpected recovery error: {other}"),
        }
    })
    .unwrap();
    if let Some(msg) = torn.into_inner().unwrap() {
        return SimOutcome::Torn(msg);
    }
    SimOutcome::Recovered(outs.into_iter().map(|o| o.unwrap()).collect())
}

/// Two clean checkpoint epochs, a normal exit, the given bit flips while
/// the job is down, then a restart recovery. `Ok` carries per-rank
/// `(recovery, workspace, parity-verified)`; `Err` the job-wide
/// unrecoverable verdict. Pure in `(seed, n, plans)`.
fn corrupted_restart(
    seed: u64,
    n: usize,
    plans: &[CorruptPlan],
) -> Result<Vec<(Recovery, Vec<f64>, bool)>, String> {
    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(n, 0),
        SimRuntime::new(seed),
    ));
    let rl = Ranklist::round_robin(n, n);
    let cfg = CkptConfig::new("prop-corrupt", Method::SelfCkpt, SIM_A1, 16);
    run_on_cluster(Arc::clone(&cluster), &rl, |ctx| {
        let (mut ck, _) = Checkpointer::init(ctx.world(), cfg.clone());
        for e in 1..=2u64 {
            {
                let ws = ck.workspace();
                ws.write().as_f64_mut()[..SIM_A1]
                    .copy_from_slice(&sim_pattern(ctx.world_rank(), e));
            }
            ck.make(&e.to_le_bytes())?;
        }
        Ok(())
    })
    .unwrap();
    for p in plans {
        assert!(cluster.corrupt_now(p), "corruption must land: {p:?}");
    }
    let failed = std::sync::Mutex::new(None);
    let outs = run_on_cluster(cluster, &rl, |ctx| {
        let (mut ck, _) = Checkpointer::init(ctx.world(), cfg.clone());
        match ck.recover() {
            Ok(rec) => {
                let ok = ck.verify_integrity()?;
                let data = {
                    let ws = ck.workspace();
                    let g = ws.read();
                    g.as_f64()[..SIM_A1].to_vec()
                };
                Ok(Some((rec, data, ok)))
            }
            Err(RecoverError::Unrecoverable(msg)) => {
                *failed.lock().unwrap() = Some(msg);
                Ok(None)
            }
            Err(RecoverError::Fault(f)) => Err(f),
            Err(other) => panic!("unexpected recovery error: {other}"),
        }
    })
    .unwrap();
    match failed.into_inner().unwrap() {
        Some(msg) => Err(msg),
        None => Ok(outs.into_iter().map(|o| o.unwrap()).collect()),
    }
}

/// The self method's corruptible regions (it has no second pair).
const SELF_REGIONS: [Region; 5] = [
    Region::Work,
    Region::CopyB,
    Region::ParityC,
    Region::ChecksumD,
    Region::Header,
];

proptest! {
    #[test]
    fn layout_slots_partition_everything(n in 2usize..12, len in 1usize..500) {
        let l = GroupLayout::new(n, len);
        prop_assert!(l.padded_len() >= len);
        prop_assert!(l.padded_len() < len + n); // minimal padding
        prop_assert_eq!(l.stripe_len() * (n - 1), l.padded_len());
        for r in 0..n {
            let mut slots: Vec<usize> = (0..n - 1).map(|k| l.slot_of_stripe(r, k)).collect();
            slots.sort_unstable();
            let expect: Vec<usize> = (0..n).filter(|&s| s != r).collect();
            prop_assert_eq!(slots, expect, "rank {}'s stripes fill exactly the non-parity slots", r);
        }
    }

    #[test]
    fn xor_parity_reconstructs_any_lost_stripe(
        n in 2usize..8,
        len in 1usize..64,
        seed in any::<u64>(),
        lost in 0usize..8,
    ) {
        let lost = lost % n;
        let gen = MatGen::new(seed);
        let stripes: Vec<Vec<f64>> = (0..n)
            .map(|r| (0..len).map(|i| gen.entry(r as u64, i as u64) * 1e6).collect())
            .collect();
        let parity = Code::Xor.parity(len, &stripes);
        let survivors: Vec<&Vec<f64>> =
            stripes.iter().enumerate().filter(|(i, _)| *i != lost).map(|(_, s)| s).collect();
        let rec = Code::Xor.reconstruct(&parity, survivors);
        for (a, b) in rec.iter().zip(&stripes[lost]) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sum_parity_reconstructs_within_tolerance(
        n in 2usize..8,
        len in 1usize..64,
        seed in any::<u64>(),
    ) {
        let gen = MatGen::new(seed);
        let stripes: Vec<Vec<f64>> = (0..n)
            .map(|r| (0..len).map(|i| gen.entry(r as u64, i as u64) * 100.0).collect())
            .collect();
        let parity = Code::Sum.parity(len, &stripes);
        let survivors: Vec<&Vec<f64>> = stripes.iter().skip(1).collect();
        let rec = Code::Sum.reconstruct(&parity, survivors);
        for (a, b) in rec.iter().zip(&stripes[0]) {
            prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
        }
    }

    #[test]
    fn dual_parity_fixes_every_pair_of_erasures(
        k in 1usize..8,
        len in 1usize..32,
        seed in any::<u64>(),
    ) {
        // Exhaustive over the erasure space: for a random payload, EVERY
        // pair among {D_0..D_{k-1}, P, Q} is erased in turn and recovery
        // must be bit-exact — two data stripes (P+Q solve), data+P
        // (Q-only solve), data+Q (XOR), and both parities (re-encode).
        let gen = MatGen::new(seed);
        let data: Vec<Vec<f64>> = (0..k)
            .map(|r| (0..len).map(|i| gen.entry(r as u64, i as u64) * 1e9).collect())
            .collect();
        let dp = DualParity::new(k, len);
        let refs: Vec<&[f64]> = data.iter().map(|s| s.as_slice()).collect();
        let (p, q) = dp.encode(&refs);
        // indices 0..k are data stripes, k is P, k+1 is Q
        for x in 0..k + 2 {
            for y in x + 1..k + 2 {
                let stripes: Vec<Option<&[f64]>> = data
                    .iter()
                    .enumerate()
                    .map(|(i, s)| if i == x || i == y { None } else { Some(s.as_slice()) })
                    .collect();
                let pp = if x == k || y == k { None } else { Some(&p[..]) };
                let qq = if x == k + 1 || y == k + 1 { None } else { Some(&q[..]) };
                let rec = dp.recover(&stripes, pp, qq);
                for (i, d) in data.iter().enumerate() {
                    for (j, (a, b)) in rec[i].iter().zip(d).enumerate() {
                        prop_assert_eq!(
                            a.to_bits(), b.to_bits(),
                            "erasures ({},{}) stripe {} word {}", x, y, i, j
                        );
                    }
                }
                // a lost parity is re-derivable from the restored stripes
                let rrefs: Vec<&[f64]> = rec.iter().map(|s| s.as_slice()).collect();
                let (p2, q2) = dp.encode(&rrefs);
                for (a, b) in p2.iter().zip(&p) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "P re-encode ({},{})", x, y);
                }
                for (a, b) in q2.iter().zip(&q) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "Q re-encode ({},{})", x, y);
                }
            }
        }
    }

    #[test]
    fn parallel_xor_kernel_is_bit_identical_to_scalar(
        len in 0usize..20_000,
        chunk in 1usize..40_000,   // deliberately allows chunk_len > len
        threads in 1usize..9,      // includes the serial threads=1 case
        seed in any::<u64>(),
    ) {
        let gen = MatGen::new(seed);
        let base: Vec<f64> = (0..len).map(|i| gen.entry(0, i as u64) * 1e9).collect();
        let x: Vec<f64> = (0..len).map(|i| gen.entry(1, i as u64) * 1e-9).collect();
        let mut reference = base.clone();
        for (a, b) in reference.iter_mut().zip(&x) {
            *a = f64::from_bits(a.to_bits() ^ b.to_bits());
        }
        let cfg = KernelConfig::new(threads, chunk);
        let mut acc = base.clone();
        kernels::xor_accumulate(&mut acc, &x, cfg);
        for (a, r) in acc.iter().zip(&reference) {
            prop_assert_eq!(a.to_bits(), r.to_bits());
        }
        // and the raw-word variant used by the U64 reduce path
        let mut w: Vec<u64> = base.iter().map(|v| v.to_bits()).collect();
        let key: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
        kernels::xor_accumulate_u64(&mut w, &key, cfg);
        for (a, r) in w.iter().zip(&reference) {
            prop_assert_eq!(*a, r.to_bits());
        }
    }

    #[test]
    fn parallel_sum_kernel_stays_within_an_ulp_of_serial(
        len in 0usize..20_000,
        chunk in 1usize..40_000,
        threads in 1usize..9,
        seed in any::<u64>(),
    ) {
        let gen = MatGen::new(seed);
        let base: Vec<f64> = (0..len).map(|i| gen.entry(2, i as u64) * 1e6).collect();
        let x: Vec<f64> = (0..len).map(|i| gen.entry(3, i as u64)).collect();
        let cfg = KernelConfig::new(threads, chunk);
        let mut serial_add = base.clone();
        kernels::sum_accumulate(&mut serial_add, &x, KernelConfig::serial());
        let mut par_add = base.clone();
        kernels::sum_accumulate(&mut par_add, &x, cfg);
        // The partitioning never reorders additions *within* an element,
        // so the tolerance (≤ 1 ulp per addend) is met with equality.
        for (a, r) in par_add.iter().zip(&serial_add) {
            prop_assert!(
                a.to_bits() == r.to_bits()
                    || a.to_bits().abs_diff(r.to_bits()) <= 1,
                "{} vs {}", a, r
            );
        }
        let mut serial_sub = par_add.clone();
        kernels::sub_accumulate(&mut serial_sub, &x, KernelConfig::serial());
        let mut par_sub = par_add;
        kernels::sub_accumulate(&mut par_sub, &x, cfg);
        for (a, r) in par_sub.iter().zip(&serial_sub) {
            prop_assert_eq!(a.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn parallel_copy_and_conversions_round_trip(
        len in 0usize..20_000,
        chunk in 1usize..40_000,
        threads in 1usize..9,
        seed in any::<u64>(),
    ) {
        let gen = MatGen::new(seed);
        let src: Vec<f64> = (0..len).map(|i| gen.entry(4, i as u64) * 1e12).collect();
        let cfg = KernelConfig::new(threads, chunk);
        let mut dst = kernels::zeroed(len);
        kernels::copy(&mut dst, &src, cfg);
        for (a, b) in dst.iter().zip(&src) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let back = kernels::into_floats(kernels::into_bits(src.clone()));
        for (a, b) in back.iter().zip(&src) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let neg = kernels::negated(&src, cfg);
        for (a, b) in neg.iter().zip(&src) {
            prop_assert_eq!(a.to_bits(), (-b).to_bits());
        }
    }

    #[test]
    fn code_accumulate_with_any_policy_matches_global(
        len in 0usize..10_000,
        chunk in 1usize..20_000,
        threads in 1usize..9,
        seed in any::<u64>(),
    ) {
        let gen = MatGen::new(seed);
        let base: Vec<f64> = (0..len).map(|i| gen.entry(5, i as u64)).collect();
        let x: Vec<f64> = (0..len).map(|i| gen.entry(6, i as u64)).collect();
        let cfg = KernelConfig::new(threads, chunk);
        for code in [Code::Xor, Code::Sum] {
            let mut serial = base.clone();
            code.accumulate_with(&mut serial, &x, KernelConfig::serial());
            code.cancel_with(&mut serial, &x, KernelConfig::serial());
            let mut par = base.clone();
            code.accumulate_with(&mut par, &x, cfg);
            code.cancel_with(&mut par, &x, cfg);
            for (a, r) in par.iter().zip(&serial) {
                prop_assert_eq!(a.to_bits(), r.to_bits());
            }
        }
    }

    #[test]
    fn memory_equations_match_breakdowns(m in 100usize..100_000, n in 2usize..64) {
        // round m to a stripe multiple so the closed forms are exact
        let m = m.div_ceil(n - 1) * (n - 1);
        for method in [Method::Single, Method::Double, Method::SelfCkpt] {
            let b = MemoryBreakdown::new(method, m, n);
            let expect = available_fraction(method, n);
            prop_assert!((b.available() - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn availability_is_monotone_in_group_size(n in 2usize..100) {
        for method in [Method::Single, Method::Double, Method::SelfCkpt] {
            prop_assert!(available_fraction(method, n + 1) > available_fraction(method, n));
        }
    }

    #[test]
    fn efficiency_model_fit_roundtrips(
        a in 1.01f64..3.0,
        b in 1.0f64..1e5,
        n0 in 100.0f64..10_000.0,
    ) {
        let pts: Vec<(f64, f64)> =
            (1..=6).map(|i| { let n = n0 * i as f64; (n, hpl_efficiency(n, a, b)) }).collect();
        let fit = fit_ab(&pts);
        prop_assert!((fit.a - a).abs() < 1e-6 * a, "a: {} vs {}", fit.a, a);
        prop_assert!((fit.b - b).abs() < 1e-4 * b.max(1.0), "b: {} vs {}", fit.b, b);
    }

    #[test]
    fn scaled_bound_never_exceeds_original(e1 in 0.01f64..0.99, k in 0.05f64..1.0) {
        let e2 = scaled_efficiency_bound(e1, k);
        prop_assert!(e2 <= e1 + 1e-12);
        prop_assert!(e2 > 0.0);
    }

    #[test]
    fn generator_is_pure_and_bounded(seed in any::<u64>(), i in any::<u32>(), j in any::<u32>()) {
        let g = MatGen::new(seed);
        let v = g.entry(i as u64, j as u64);
        prop_assert!((-0.5..0.5).contains(&v));
        prop_assert_eq!(v, MatGen::new(seed).entry(i as u64, j as u64));
    }

    #[test]
    fn dgemm_agrees_with_reference(m in 1usize..24, n in 1usize..24, k in 1usize..24, seed in any::<u64>()) {
        let g = MatGen::new(seed);
        let a = Matrix::from_gen(m, k, &g);
        let b = Matrix::from_gen(k, n, &MatGen::new(seed ^ 1));
        let mut c = Matrix::zeros(m, n);
        let (lda, ldb, ldc) = (a.ld(), b.ld(), c.ld());
        dgemm(Trans::No, m, n, k, 1.0, a.as_slice(), lda, b.as_slice(), ldb, 0.0, c.as_mut_slice(), ldc);
        let r = a.matmul_ref(&b);
        prop_assert!(c.max_abs_diff(&r) < 1e-12 * k as f64);
    }

    #[test]
    fn sim_fault_cycle_recovers_bit_exactly_or_reports_torn_update(
        seed in any::<u64>(),
        n in 2usize..9,
        victim in 0usize..8,
        phase_idx in 0usize..7,
        method_idx in 0usize..3,
    ) {
        let victim = victim % n;
        let phase = Phase::ALL[phase_idx];
        let method = [Method::SelfCkpt, Method::Single, Method::Double][method_idx];
        let cc = RestoreSource::CheckpointAndChecksum;
        let wd = RestoreSource::WorkspaceAndChecksum;
        // The paper's case analysis, for a failure in epoch 3's make.
        // CommitD and Done are commit edges: the victim dies with its
        // marker written while the survivors' header writes race the
        // abort, so recovery lands on whichever consistent state the
        // surviving markers prove — and the single method, whose only
        // checkpoint is updated in place, must conservatively give up
        // when no survivor can prove the final commit (Edge torn_ok).
        enum Want {
            Never,
            /// (allowed epochs, pinned source, torn give-up also allowed)
            Rec(&'static [u64], Option<RestoreSource>, bool),
        }
        let want = match (method, phase) {
            (m, p) if !p.fires_in(m) => Want::Never,
            // Figure 2 CASE 2: inside the update window the only
            // checkpoint is presumed torn — unless every survivor was
            // still parked at the gate barrier (dirty marker unwritten,
            // B untouched), in which case the old pair is provably
            // intact and still serves epoch 2.
            (Method::Single, Phase::CopyB | Phase::Encode) => Want::Rec(&[2], Some(cc), true),
            (Method::SelfCkpt, Phase::Serialize | Phase::Encode) => Want::Rec(&[2], Some(cc), false),
            (Method::SelfCkpt, Phase::CommitD) => Want::Rec(&[2, 3], None, false),
            (Method::SelfCkpt, Phase::FlushB | Phase::FlushC) => Want::Rec(&[3], Some(wd), false),
            (Method::SelfCkpt, Phase::Done) => Want::Rec(&[3], None, false),
            (Method::Single, Phase::Done) => Want::Rec(&[3], None, true),
            (Method::Double, Phase::Done) => Want::Rec(&[2, 3], None, false),
            _ => Want::Rec(&[2], Some(cc), false),
        };
        let tag = format!("{method:?}/{phase}/n{n}/victim{victim}/seed{seed}");
        match (want, sim_cycle(seed, n, method, phase, victim)) {
            (Want::Never, SimOutcome::NeverFired) => {}
            (Want::Rec(_, _, true), SimOutcome::Torn(msg)) => {
                prop_assert!(msg.contains("inconsistent"), "{}: wrong reason: {}", tag, msg);
            }
            (Want::Rec(epochs, source, _), SimOutcome::Recovered(outs)) => {
                prop_assert_eq!(outs.len(), n, "{}: all ranks report", &tag);
                let e0 = match &outs[0].0 {
                    Recovery::Restored { epoch, .. } => *epoch,
                    other => panic!("{tag}: rank 0 got {other:?}"),
                };
                prop_assert!(epochs.contains(&e0), "{}: epoch {} not in {:?}", tag, e0, epochs);
                for (rank, (rec, data, intact)) in outs.iter().enumerate() {
                    match rec {
                        Recovery::Restored { epoch, a2, source: got } => {
                            prop_assert_eq!(*epoch, e0, "{}: rank {} epoch", &tag, rank);
                            prop_assert_eq!(a2.as_slice(), e0.to_le_bytes(), "{}: rank {} A2", &tag, rank);
                            if let Some(want_src) = source {
                                prop_assert_eq!(*got, want_src, "{}: rank {} source", &tag, rank);
                            }
                        }
                        other => panic!("{tag}: rank {rank} got {other:?}"),
                    }
                    prop_assert!(*intact, "{}: rank {} parity check", tag, rank);
                    // bit-exact: XOR-parity recovery must not perturb a ulp
                    let expect = sim_pattern(rank, e0);
                    for (i, (a, b)) in data.iter().zip(&expect).enumerate() {
                        prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: rank {} word {}", &tag, rank, i);
                    }
                }
            }
            (_, got) => {
                let d = match got {
                    SimOutcome::NeverFired => "never fired".into(),
                    SimOutcome::Torn(m) => format!("torn: {m}"),
                    SimOutcome::Recovered(o) => format!("recovered: {:?}", o[0].0),
                };
                panic!("{tag}: outcome {d} does not match the case analysis");
            }
        }
    }

    #[test]
    fn any_single_bit_corruption_is_repaired_bit_exactly(
        seed in any::<u64>(),
        n in 2usize..7,
        victim in 0usize..8,
        region_idx in 0usize..5,
        offset in any::<usize>(),
        bit in any::<u8>(),
    ) {
        // One silent bit flip anywhere in one rank's checkpoint state is
        // within the code's correction power: either the CRCs catch it
        // and the erasure rebuild repairs it, or the flip lands in state
        // the restore overwrites anyway (workspace, checksum D, header
        // padding). Both ways the restart must restore every rank's
        // workspace bit-exactly and leave a parity-clean checkpoint.
        let victim = victim % n;
        let region = SELF_REGIONS[region_idx];
        let plan = CorruptPlan::new("restart", 1, victim, region, offset, bit);
        let tag = format!("n{n}/victim{victim}/{region:?}/off{offset}/bit{bit}/seed{seed}");
        let outs = match corrupted_restart(seed, n, &[plan]) {
            Ok(outs) => outs,
            Err(msg) => panic!("{tag}: single flip must be repairable, got: {msg}"),
        };
        for (rank, (rec, data, intact)) in outs.iter().enumerate() {
            match rec {
                Recovery::Restored { epoch: 2, a2, source } => {
                    prop_assert_eq!(a2.as_slice(), 2u64.to_le_bytes(), "{}: rank {}", &tag, rank);
                    prop_assert_eq!(
                        *source, RestoreSource::CheckpointAndChecksum,
                        "{}: rank {}", &tag, rank
                    );
                }
                other => panic!("{tag}: rank {rank} got {other:?}"),
            }
            prop_assert!(*intact, "{}: rank {} parity check", tag, rank);
            let expect = sim_pattern(rank, 2);
            for (i, (a, b)) in data.iter().zip(&expect).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: rank {} word {}", &tag, rank, i);
            }
        }
    }

    #[test]
    fn double_corruption_of_one_pair_names_the_exact_ranks(
        seed in any::<u64>(),
        n in 3usize..7,
        v1 in 0usize..8,
        v2 in 0usize..8,
        r1 in 0usize..2,
        r2 in 0usize..2,
        offset in any::<usize>(),
        bit in any::<u8>(),
    ) {
        // Two damaged members of the same (B, C) pair exceed single
        // parity: recovery must refuse with a verdict naming exactly the
        // damaged ranks — never restore silently wrong data.
        let (v1, v2) = (v1 % n, v2 % n);
        prop_assume!(v1 != v2);
        let pair = [Region::CopyB, Region::ParityC];
        let plans = [
            CorruptPlan::new("restart", 1, v1, pair[r1], offset, bit),
            CorruptPlan::new("restart", 1, v2, pair[r2], offset.wrapping_add(3), bit ^ 1),
        ];
        let tag = format!("n{n}/v{v1}+v{v2}/seed{seed}");
        match corrupted_restart(seed, n, &plans) {
            Err(msg) => {
                let mut bad = [v1, v2];
                bad.sort_unstable();
                prop_assert!(
                    msg.contains("single parity can rebuild only one"),
                    "{}: wrong reason: {}", tag, msg
                );
                prop_assert!(
                    msg.contains(&format!("ranks [{}, {}]", bad[0], bad[1])),
                    "{}: wrong ranks named: {}", tag, msg
                );
            }
            Ok(outs) => panic!("{tag}: double damage restored silently: {:?}", outs[0].0),
        }
    }

    #[test]
    fn lu_solve_has_small_residual(n in 2usize..40, seed in any::<u64>()) {
        let g = MatGen::new(seed);
        let a = Matrix::from_gen(n, n, &g);
        let b: Vec<f64> = (0..n).map(|i| g.rhs(i as u64)).collect();
        // random matrices are almost surely nonsingular; skip the rest
        if let Ok(x) = solve_ref(&a, &b, 8) {
            let r = self_checkpoint::linalg::norms::hpl_residual(&a, &x, &b);
            prop_assert!(r < 16.0, "residual {}", r);
        }
    }
}

/// One tenant's shape in the multi-tenant service property: HPL size
/// index (32 or 48) and parity count `m` (1 = XOR, 2 = P+Q; an `m = 2`
/// tenant gets a 3-node shard so its groups are large enough).
type TenantShape = (usize, usize);

fn service_tenant_cfg(i: usize, &(n_idx, m): &TenantShape) -> (SktConfig, usize) {
    let n = [32, 48][n_idx];
    let shard = if m == 2 { 3 } else { 2 };
    let mut cfg = SktConfig::new(HplConfig::new(n, 4, 23 + i as u64), shard, 2);
    cfg.name = format!("prop{i}");
    if m == 2 {
        cfg.codec = CodecSpec::Dual;
    }
    (cfg, shard)
}

/// Run the service over `shapes` with an optional kill of the victim
/// tenant's last shard node at panel probe `nth`; returns per-tenant
/// `(name, outcome)` with the residual bits of completed solves.
fn service_storm_run(
    seed: u64,
    shapes: &[TenantShape],
    spares: usize,
    kill: Option<(usize, u64)>,
) -> Vec<(String, Result<u64, String>)> {
    let compute: usize = shapes
        .iter()
        .map(|&(_, m)| if m == 2 { 3 } else { 2 })
        .sum();
    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(compute, spares),
        SimRuntime::new(seed),
    ));
    let cfg = ServiceConfig::new(RetryPolicy::new(3, std::time::Duration::from_secs(5)));
    let mut svc = CheckpointService::new(cluster, cfg);
    let mut shards = Vec::new();
    for (i, shape) in shapes.iter().enumerate() {
        let (cfg, shard) = service_tenant_cfg(i, shape);
        match svc.register(cfg, shard, 0).unwrap() {
            Admission::Admitted { nodes, .. } => shards.push(nodes),
            other => panic!("disjoint shards always fit: {other:?}"),
        }
    }
    let storm = match kill {
        Some((victim, nth)) => StormPlan::none().kill(*shards[victim].last().unwrap(), nth),
        None => StormPlan::none(),
    };
    svc.run(&storm)
        .tenants
        .into_iter()
        .map(|t| {
            let out = match t.outcome {
                TenantOutcome::Completed(out) => {
                    assert!(out.hpl.passed, "{} must verify", t.name);
                    Ok(out.hpl.residual.to_bits())
                }
                TenantOutcome::Refused(r) => Err(r.label().to_string()),
            };
            assert!(t.foreign_on_shard.is_empty(), "{}: isolation", t.name);
            assert!(t.leaked_elsewhere.is_empty(), "{}: isolation", t.name);
            (t.name, out)
        })
        .collect()
}

proptest! {
    /// For any mix of tenants (count, problem size, parity count), any
    /// victim, any kill phase, and any spare supply: non-victim tenants
    /// solve bit-identically to a storm-free control run, and the victim
    /// either heals bit-exactly too or is refused with a typed verdict
    /// (out of spares — nobody held a reservation to starve).
    #[test]
    fn service_kill_is_invisible_outside_the_victim_tenant(
        seed in any::<u64>(),
        shapes_seed in any::<u64>(),
        count in 2usize..7,
        victim in 0usize..6,
        nth in 1u64..7,
        spares in 0usize..3,
    ) {
        let mut rng = self_checkpoint::cluster::SplitMix64::new(shapes_seed);
        let shapes: Vec<TenantShape> = (0..count)
            .map(|_| ((rng.next_u64() % 2) as usize, 1 + (rng.next_u64() % 2) as usize))
            .collect();
        let victim = victim % shapes.len();
        let control = service_storm_run(seed, &shapes, spares, None);
        let stormed = service_storm_run(seed, &shapes, spares, Some((victim, nth)));
        prop_assert_eq!(control.len(), shapes.len());
        prop_assert_eq!(stormed.len(), shapes.len());
        for (i, ((name_c, res_c), (name_s, res_s))) in
            control.iter().zip(&stormed).enumerate()
        {
            prop_assert_eq!(name_c, name_s);
            let tag = format!("{name_s}/seed{seed}/victim{victim}/nth{nth}/spares{spares}");
            let bits_c = res_c.as_ref().expect("control run sees no faults");
            if i == victim {
                match res_s {
                    // a healed victim replays the elimination from its
                    // restored checkpoint: the residual is bit-identical
                    Ok(bits_s) => prop_assert_eq!(bits_s, bits_c, "{}", tag),
                    Err(label) => {
                        prop_assert_eq!(label.as_str(), "out-of-spares", "{}", tag);
                        prop_assert_eq!(spares, 0, "{}: refusal only when dry", tag);
                    }
                }
            } else {
                let bits_s = res_s.as_ref().expect(&tag);
                prop_assert_eq!(bits_s, bits_c, "{}: foreign fault must be invisible", tag);
            }
        }
    }
}

/// Daemon shape for the gray-failure properties: one 4-member group over
/// four nodes plus one spare, a small HPL so the case sweep stays fast.
fn gray_prop_cfg() -> SktConfig {
    SktConfig::new(HplConfig::new(32, 4, 7), 4, 2)
}

/// Residual bits of a fault-free daemon run of [`gray_prop_cfg`] — the
/// bit-exactness anchor for exonerated runs. Computed once: the residual
/// is a property of the problem, not of the scheduler seed.
fn gray_prop_reference() -> u64 {
    static BITS: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *BITS.get_or_init(|| {
        let cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(4, 1),
            SimRuntime::new(0),
        ));
        let rl = Ranklist::round_robin(4, 4);
        let rep = run_with_daemon(cluster, &rl, &gray_prop_cfg(), 3, Duration::from_secs(5))
            .expect("fault-free reference must complete");
        assert!(rep.output.hpl.passed);
        rep.output.hpl.residual.to_bits()
    })
}

/// Run the service over `shapes` with a non-healing 64× straggler on the
/// victim tenant's last shard node. Returns the tenant reports (in
/// registration order), the straggling node, and the cluster so the
/// caller can inspect fencing.
fn service_gray_run(
    seed: u64,
    shapes: &[TenantShape],
    spares: usize,
    victim: usize,
    nth: u64,
) -> (Vec<TenantReport>, usize, Arc<Cluster>) {
    let compute: usize = shapes
        .iter()
        .map(|&(_, m)| if m == 2 { 3 } else { 2 })
        .sum();
    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(compute, spares),
        SimRuntime::new(seed),
    ));
    let cfg = ServiceConfig::new(RetryPolicy::new(3, Duration::from_secs(5)));
    let mut svc = CheckpointService::new(Arc::clone(&cluster), cfg);
    let mut shards = Vec::new();
    for (i, shape) in shapes.iter().enumerate() {
        let (cfg, shard) = service_tenant_cfg(i, shape);
        match svc.register(cfg, shard, 0).unwrap() {
            Admission::Admitted { nodes, .. } => shards.push(nodes),
            other => panic!("disjoint shards always fit: {other:?}"),
        }
    }
    let zombie = *shards[victim].last().unwrap();
    let storm = StormPlan::none().gray(GrayPlan::slow(ITER_PROBE, nth, zombie, 64));
    (svc.run(&storm).tenants, zombie, cluster)
}

proptest! {
    /// A straggler that heals before the daemon's probe is a FALSE
    /// suspicion: for any scheduler seed, victim, injection point, and
    /// slowdown factor, the suspicion ladder must exonerate — verdict
    /// cleared, nobody fenced, no spare spent — and the resumed solve
    /// must be bit-exact with the fault-free reference.
    #[test]
    fn false_suspicion_exonerates_bit_exactly(
        seed in any::<u64>(),
        victim in 0usize..4,
        nth in 1u64..6,
        factor in 48u32..200,
    ) {
        let reference = gray_prop_reference();
        let tag = format!("seed{seed}/victim{victim}/nth{nth}/x{factor}");
        let cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(4, 1),
            SimRuntime::new(seed),
        ));
        let rl = Ranklist::round_robin(4, 4);
        // declaration needs one slow sample (factor/4 > 8); the heal
        // lands after it but well inside the daemon's 5 s detect latency
        cluster.arm_fault(FaultPlan::Gray(
            GrayPlan::slow(ITER_PROBE, nth, victim, factor)
                .heal_after(Duration::from_millis(50)),
        ));
        let rep = run_with_daemon(
            Arc::clone(&cluster),
            &rl,
            &gray_prop_cfg(),
            3,
            Duration::from_secs(5),
        )
        .unwrap_or_else(|e| panic!("{tag}: daemon gave up: {e}"));
        prop_assert!(rep.output.hpl.passed, "{}: residual failed", tag);
        prop_assert_eq!(
            rep.history.suspicions.len(), 1,
            "{}: exactly one suspicion adjudicated: {:?}", tag, rep.history.suspicions
        );
        let sr = &rep.history.suspicions[0];
        prop_assert_eq!(sr.node, victim, "{}: wrong suspect", tag);
        prop_assert_eq!(sr.probe, "responsive", "{}: probe must see the heal", tag);
        prop_assert_eq!(sr.outcome, SuspicionOutcome::Exonerated, "{}", tag);
        prop_assert!(!cluster.node_fenced(victim), "{}: exoneration never fences", tag);
        prop_assert_eq!(cluster.spares_left(), 1, "{}: no spare spent", tag);
        prop_assert_eq!(
            rep.output.hpl.residual.to_bits(), reference,
            "{}: exonerated resume must be bit-exact with the fault-free run", tag
        );
    }

    /// A non-healing straggler inside one tenant's shard is fenced and
    /// the shard migrated to a spare; the zombie stays alive but every
    /// write it makes lands in its frozen store. For any tenant mix,
    /// victim, injection point, and spare supply: no tenant sees foreign
    /// segments, nothing leaks off-shard, the quarantined leftovers are
    /// confined to the zombie node, and every tenant — the victim
    /// included — solves bit-identically to a storm-free control run.
    #[test]
    fn fenced_zombie_writes_are_invisible_to_every_tenant(
        seed in any::<u64>(),
        shapes_seed in any::<u64>(),
        count in 2usize..6,
        victim in 0usize..6,
        nth in 1u64..6,
        spares in 1usize..3,
    ) {
        let mut rng = self_checkpoint::cluster::SplitMix64::new(shapes_seed);
        let shapes: Vec<TenantShape> = (0..count)
            .map(|_| ((rng.next_u64() % 2) as usize, 1 + (rng.next_u64() % 2) as usize))
            .collect();
        let victim = victim % shapes.len();
        let control = service_storm_run(seed, &shapes, spares, None);
        let (reports, zombie, cluster) = service_gray_run(seed, &shapes, spares, victim, nth);
        prop_assert_eq!(reports.len(), shapes.len());
        prop_assert!(cluster.node_fenced(zombie), "the straggler must be fenced");
        prop_assert!(cluster.node_alive(zombie), "fenced, not killed");
        for (i, (t, (name_c, res_c))) in reports.iter().zip(&control).enumerate() {
            prop_assert_eq!(&t.name, name_c);
            let tag = format!("{}/seed{seed}/victim{victim}/nth{nth}/spares{spares}", t.name);
            let bits_c = *res_c.as_ref().expect("control run sees no faults");
            let out = match &t.outcome {
                TenantOutcome::Completed(out) => out,
                TenantOutcome::Refused(r) => {
                    return Err(TestCaseError::Fail(format!(
                        "{tag}: one spare always covers one migration, got refused {}",
                        r.label()
                    )));
                }
            };
            prop_assert!(out.hpl.passed, "{}: residual failed", tag);
            prop_assert_eq!(
                out.hpl.residual.to_bits(), bits_c,
                "{}: must be bit-exact with the storm-free control", tag
            );
            prop_assert!(
                t.foreign_on_shard.is_empty(),
                "{}: foreign segments {:?}", tag, t.foreign_on_shard
            );
            prop_assert!(
                t.leaked_elsewhere.is_empty(),
                "{}: leaked {:?}", tag, t.leaked_elsewhere
            );
            if i == victim {
                prop_assert_eq!(
                    t.history.suspicions.len(), 1,
                    "{}: exactly one suspicion: {:?}", tag, t.history.suspicions
                );
                let sr = &t.history.suspicions[0];
                prop_assert_eq!(sr.node, zombie, "{}: wrong suspect", tag);
                prop_assert_eq!(sr.probe, "slow", "{}: probe verdict", tag);
                prop_assert!(
                    matches!(sr.outcome, SuspicionOutcome::Migrated { .. }),
                    "{}: unhealed straggler must migrate, got {:?}", tag, sr.outcome
                );
                prop_assert!(
                    t.fenced_stale.iter().all(|&n| n == zombie),
                    "{}: quarantine confined to the zombie: {:?}", tag, t.fenced_stale
                );
            } else {
                prop_assert!(
                    t.history.suspicions.is_empty(),
                    "{}: bystander suspected nobody: {:?}", tag, t.history.suspicions
                );
                prop_assert!(
                    t.fenced_stale.is_empty(),
                    "{}: bystander has no quarantine: {:?}", tag, t.fenced_stale
                );
            }
        }
    }
}

/// Fault-free, unresized control at `nranks` ranks for the elasticity
/// property: the residual anchor. Per-column elimination is
/// rank-count-invariant but the final verify's reductions are not, so a
/// resized run must be compared against a control at its *final* rank
/// count. Cached per count — the residual is a property of the problem,
/// not of the scheduler seed.
fn resize_prop_cfg(nranks: usize) -> SktConfig {
    // 12 panels at nb=4; whole-world grouping, so under XOR parity any
    // resize target >= 2 keeps a legal group size
    let mut cfg = SktConfig::new(HplConfig::new(48, 4, 31), nranks, 2);
    cfg.name = "elastic".into();
    cfg
}

fn resize_prop_control(nranks: usize) -> u64 {
    use std::collections::HashMap;
    static BITS: std::sync::OnceLock<std::sync::Mutex<HashMap<usize, u64>>> =
        std::sync::OnceLock::new();
    let cache = BITS.get_or_init(|| std::sync::Mutex::new(HashMap::new()));
    let mut g = cache.lock().unwrap();
    *g.entry(nranks).or_insert_with(|| {
        let cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(nranks, 0),
            SimRuntime::new(0),
        ));
        let cfg = ServiceConfig::new(RetryPolicy::new(3, Duration::from_secs(5)));
        let mut svc = CheckpointService::new(cluster, cfg);
        svc.register(resize_prop_cfg(nranks), nranks, 0).unwrap();
        match &svc
            .run(&StormPlan::none())
            .tenant("elastic")
            .unwrap()
            .outcome
        {
            TenantOutcome::Completed(out) => {
                assert!(out.hpl.passed, "control must verify");
                out.hpl.residual.to_bits()
            }
            other => panic!("fault-free control must complete, got {other:?}"),
        }
    })
}

proptest! {
    /// For any scheduler seed, any grow/shrink sequence, any scheduling
    /// policy, and any (optional) node kill inside the first slice: the
    /// elastic tenant ends at the last requested rank count with every
    /// resize committed through boundary checkpoints, and its residual
    /// is bit-exact with a fault-free, *unresized* control run at that
    /// final rank count.
    #[test]
    fn resized_tenant_is_bit_exact_with_unresized_control(
        seed in any::<u64>(),
        shape_seed in any::<u64>(),
        nsteps in 1usize..4,
        policy_idx in 0usize..4,
        kill_code in 0u64..7,
    ) {
        let mut rng = self_checkpoint::cluster::SplitMix64::new(shape_seed);
        // grow/shrink sequence over 2..=6 ranks (XOR parity keeps every
        // whole-world group size >= 2 legal)
        let targets: Vec<usize> =
            (0..nsteps).map(|_| 2 + (rng.next_u64() % 5) as usize).collect();
        let policy = match policy_idx {
            0 => PolicySpec::Batched,
            1 => PolicySpec::RoundRobin,
            2 => PolicySpec::Priority { aging_us: 1 + rng.next_u64() % 500 },
            _ => PolicySpec::Deadline { default_slack_us: 1 + rng.next_u64() % 500 },
        };
        // 0 = fault-free; else victim node in {0,1}, panel nth in 1..=3
        let kill = (kill_code != 0)
            .then(|| (((kill_code - 1) % 2) as usize, 1 + (kill_code - 1) / 2));
        let cluster = Arc::new(Cluster::new_with_runtime(
            ClusterConfig::new(6, 1),
            SimRuntime::new(seed),
        ));
        let mut cfg = ServiceConfig::new(RetryPolicy::new(3, Duration::from_secs(5)));
        cfg.slice_panels = 3;
        cfg.schedule = policy;
        let mut svc = CheckpointService::new(cluster, cfg);
        // 4 ranks on nodes {0..3}; one reserved spare covers the kill
        svc.register(resize_prop_cfg(4), 4, 1).unwrap();
        for (i, &t) in targets.iter().enumerate() {
            // delivered before the first boundary, applied FIFO at
            // successive clean boundaries (panels 3, 6, 9)
            svc.schedule_resize("elastic", Duration::from_micros(1 + i as u64), t);
        }
        let storm = match kill {
            // nodes 0 and 1 are in the shard at every size; probe
            // counts are per launch, so nth <= 3 fires inside slice 1
            Some((victim, nth)) => StormPlan::none().kill(victim, nth),
            None => StormPlan::none(),
        };
        let rep = svc.run(&storm);
        let t = rep.tenant("elastic").unwrap();
        let tag = format!("seed{seed}/targets{targets:?}/{}/kill{kill:?}",
            policy.resolve().name());
        let out = match &t.outcome {
            TenantOutcome::Completed(out) => out,
            TenantOutcome::Refused(r) => {
                return Err(TestCaseError::Fail(format!(
                    "{tag}: elastic run must complete, refused {}", r.label()
                )));
            }
        };
        prop_assert!(out.hpl.passed, "{}: residual failed", tag);
        let finale = *targets.last().unwrap();
        prop_assert_eq!(
            out.hpl.residual.to_bits(),
            resize_prop_control(finale),
            "{}: must be bit-exact with the unresized control at {} ranks",
            tag, finale
        );
        // every request resolved through a boundary image: committed or
        // an explicit no-op, never refused, never lost
        prop_assert_eq!(t.resizes.len(), targets.len(), "{}: {:?}", tag, t.resizes);
        let mut at = 4usize;
        for (r, &want) in t.resizes.iter().zip(&targets) {
            prop_assert_eq!(r.from, at, "{}: {:?}", tag, t.resizes);
            prop_assert_eq!(r.to, want, "{}: {:?}", tag, t.resizes);
            prop_assert!(
                r.outcome == "committed" || r.outcome == "cold",
                "{}: unexpected outcome {:?}", tag, r
            );
            at = want;
        }
        match kill {
            Some(_) => prop_assert!(t.failures >= 1, "{}: the kill must be charged", tag),
            None => prop_assert_eq!(t.failures, 0, "{}: fault-free run", tag),
        }
        prop_assert!(t.foreign_on_shard.is_empty(), "{}: {:?}", tag, t.foreign_on_shard);
        prop_assert!(t.leaked_elsewhere.is_empty(), "{}: {:?}", tag, t.leaked_elsewhere);
    }
}
