//! The benchmark at tiny sizes: every metric `BENCHMARK.json` names is
//! printed by every workload, traced and untraced, and every check passes
//! on the real program.

use perfbench::{run, InProcess, Plan, Report, Sizes, Workload};

/// Metric names of one section of `BENCHMARK.json`, in file order.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the root of the repository");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = text[start..].find(']').expect("section closes") + start;
    text[start..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn names(r: &Report, traced: bool) -> Vec<String> {
    r.printed(traced).iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_prints_every_declared_metric_and_passes_its_checks() {
    for w in Workload::ALL {
        for traced in [false, true] {
            let plan = Plan {
                workload: w,
                seed: 7,
                seconds: 0.2,
                trace: traced,
                sizes: Sizes::tiny(),
            };
            let r = run(&plan, &mut InProcess::new(&plan));
            let section = if traced { "per_layer" } else { "end_to_end" };
            let mut want = declared(section);
            let mut got = names(&r, traced);
            want.sort();
            got.sort();
            assert_eq!(got, want, "{} trace={traced}", w.name());
            assert!(
                r.correct(traced),
                "{} trace={traced}: {}",
                w.name(),
                r.result_json(traced)
            );
            assert!(r.attempted > 0 && r.failed == 0);
            let line = r.result_json(traced);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}

#[test]
fn the_storm_check_refuses_a_foreign_segment_and_a_refused_tenant() {
    use perfbench::check::storm_clean;
    use self_checkpoint::cluster::{Cluster, ClusterConfig, SimRuntime};
    use self_checkpoint::ftsim::{
        CheckpointService, Refusal, RetryPolicy, ServiceConfig, StormPlan, TenantOutcome,
    };
    use self_checkpoint::hpl::{HplConfig, SktConfig};
    use std::sync::Arc;
    use std::time::Duration;

    let cluster = Arc::new(Cluster::new_with_runtime(
        ClusterConfig::new(4, 0),
        SimRuntime::new(3),
    ));
    let mut svc = CheckpointService::new(
        cluster,
        ServiceConfig::new(RetryPolicy::new(1, Duration::from_secs(1))),
    );
    for i in 0..2 {
        let mut cfg = SktConfig::new(HplConfig::new(16, 4, 5 + i), 2, 2);
        cfg.name = format!("t{i}");
        svc.register(cfg, 2, 0)
            .expect("two 2-node tenants fit 4 nodes");
    }
    let rep = svc.run(&StormPlan::none());
    assert!(storm_clean(&rep, 2));
    assert!(!storm_clean(&rep, 3), "a tenant is missing");

    use perfbench::check::{fingerprint_repeats, hash_bytes};
    let first = Some(hash_bytes(rep.fingerprint(false).as_bytes()));
    assert!(fingerprint_repeats(first, &rep.fingerprint(false)));
    let mut relaunched = rep.clone();
    relaunched.tenants[0].launches += 1;
    assert!(!fingerprint_repeats(first, &relaunched.fingerprint(false)));

    let mut foreign = rep.clone();
    foreign.tenants[1]
        .foreign_on_shard
        .push("t0/r0/work".into());
    assert!(!storm_clean(&foreign, 2));

    let mut refused = rep;
    refused.tenants[0].outcome = TenantOutcome::Refused(Refusal::TooManyFailures);
    assert!(!storm_clean(&refused, 2));
}

#[test]
fn a_reference_report_survives_its_lines() {
    use perfbench::{reference_pass, reference_report};
    for traced in [false, true] {
        let plan = Plan {
            workload: Workload::ServiceStorm,
            seed: 3,
            seconds: 1.0,
            trace: traced,
            sizes: Sizes::tiny(),
        };
        let mut pass = reference_pass(&plan);
        assert!(pass.unit());
        let sent = reference_report(pass.as_ref(), traced);
        let got = Report::from_lines(&sent.to_lines(traced), traced).unwrap();
        assert_eq!((got.attempted, got.failed), (sent.attempted, sent.failed));
        assert_eq!(got.notes, sent.notes);
        let pairs = |r: &Report| -> Vec<(String, u64, &'static str)> {
            let ms = r.printed(traced).iter();
            ms.map(|m| (m.name.clone(), m.value.to_bits(), m.unit))
                .collect()
        };
        assert_eq!(pairs(&got), pairs(&sent));
        assert!(Report::from_lines("metric x furlongs 1.0", traced).is_err());
    }
}
