//! End-to-end and per-layer benchmark of the self-checkpoint workspace.
//!
//! Three closed-loop workloads run from one main thread, each issuing
//! its next operation only when the previous one has returned:
//!
//! * `protect` — checkpoint makes and node-loss recoveries of a 4-rank
//!   job (encoding, core, mps and cluster do the work);
//! * `hpl-ft` — SKT-HPL healed by the restart daemon (linalg and hpl do
//!   the work, the protocol and the daemon sit on its blocking path);
//! * `service-storm` — the multi-tenant service under a seeded fault storm
//!   on the simulator (sim and ftsim do the work).
//!
//! Every run prints every end-to-end metric. The named workload runs
//! alone in the run's process for the measured time, which also fixes its
//! set-up time and peak memory; the other two then run a reference pass of
//! fixed length, each in a fresh process, so their metrics are present
//! too. A traced run prints the per-layer metrics instead, from spans the
//! benchmark records around its own calls into each crate; no tracing
//! code is inside the crates.

pub mod check;
pub mod host;
pub mod hplft;
pub mod layers;
pub mod protect;
pub mod stats;
pub mod storm;
pub mod trace;

use self_checkpoint::sim::SplitMix64;
use stats::median;
use trace::timed;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Protect,
    HplFt,
    ServiceStorm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Protect, Workload::HplFt, Workload::ServiceStorm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Protect => "protect",
            Workload::HplFt => "hpl-ft",
            Workload::ServiceStorm => "service-storm",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One workload's closed loop: each call issues one operation and
/// returns once it has completed and been checked.
pub trait Pass {
    /// Run one operation; false when it failed its checks.
    fn unit(&mut self) -> bool;

    /// Operations the pass can still run (a `protect` cycle spends a
    /// spare node).
    fn capacity(&self) -> usize {
        usize::MAX
    }

    /// Checked operations so far: `(attempted, failed)`.
    fn counts(&self) -> (u64, u64);

    /// Timed set-ups, in seconds.
    fn setup_s(&self) -> &[f64];

    /// This workload's end-to-end metrics, but for `setup_s` and
    /// `peak_rss_mib`.
    fn end_to_end(&self, r: &mut Report);

    /// This workload's per-layer metrics.
    fn per_layer(&self, r: &mut Report);
}

/// Ranks of the `protect` job, of SKT-HPL in `hpl-ft`, and of the probes
/// that time the calls those two make.
pub const RANKS: usize = 4;

/// Operations of `protect`, `hpl-ft` and `service-storm` when it is the
/// named workload, which then runs for at least the measured time. 24
/// `protect` cycles give the [`protect::TAIL_MAKES`] makes per codec that
/// its tail metric is taken over; two storms show whether the fingerprint
/// repeats.
const MIN_UNITS: [usize; 3] = [protect::TAIL_MAKES / protect::ROUNDS, 1, 2];

/// The sizes that differ between the benchmark and its smoke test;
/// every other size is a constant of the module that uses it.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Workspace length per `protect` rank and codec, in `f64` elements;
    /// also fixes the stripes of the kernel, codec and engine probes.
    pub ws_elems: usize,
    /// `hpl-ft`'s solve; also the dgemm, dgetf2 and broadcast shapes.
    pub hpl: hplft::HplSizes,
    pub storm: storm::StormSizes,
    pub probes: layers::ProbeReps,
    /// Operations of `hpl-ft` and `service-storm` in a reference pass (a
    /// `protect` reference pass runs its [`MIN_UNITS`] cycles).
    pub ref_units: [usize; 2],
}

impl Sizes {
    /// The benchmark's sizes. Working sets, next to the 300 MiB L3 and
    /// 2 MiB per-core L2 of the host they were tuned on: `protect` holds
    /// 4 ranks x (XOR: 8 MiB workspace + 8 MiB copy + 5.3 MiB parity,
    /// RS(2): 8 + 8 + 16 MiB) = 213 MiB of SHM; `hpl-ft` a 32 MiB matrix
    /// plus its copy and XOR parity, 85 MiB; `service-storm` 16 matrices
    /// of 33 KiB; the kernel probes two 2.7 MiB XOR or 4 MiB RS(2) stripes.
    pub fn full() -> Sizes {
        Sizes {
            ws_elems: 1 << 20, // 8 MiB of f64
            hpl: hplft::HplSizes {
                n: 2048,
                nb: 64,
                ckpt_every: 8,
                kill_nth: 16,
            },
            storm: storm::StormSizes {
                tenants: 16,
                spares: 4,
                n: 64,
                kills: 3,
                flips: 2,
            },
            probes: layers::ProbeReps {
                reps: 15,
                small_reps: 2000,
                sim_handoffs: 4000,
                sim_barriers: 4,
            },
            ref_units: [4, 3],
        }
    }

    /// Sizes for the smoke test: every code path, every metric, seconds.
    pub fn tiny() -> Sizes {
        Sizes {
            ws_elems: 4096,
            hpl: hplft::HplSizes {
                n: 128,
                nb: 8,
                ckpt_every: 4,
                kill_nth: 6,
            },
            storm: storm::StormSizes {
                tenants: 4,
                spares: 2,
                n: 32,
                kills: 1,
                flips: 1,
            },
            probes: layers::ProbeReps {
                reps: 3,
                small_reps: 200,
                sim_handoffs: 400,
                sim_barriers: 1,
            },
            ref_units: [1, 2],
        }
    }

    /// Operations of a reference pass of `w`.
    fn ref_units(&self, w: Workload) -> usize {
        match w {
            Workload::Protect => MIN_UNITS[0],
            Workload::HplFt => self.ref_units[0],
            Workload::ServiceStorm => self.ref_units[1],
        }
    }
}

/// One run of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// Every input is derived from the workload seed; the program receives
/// only the generated values.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    /// Workspace fill and kill victims of `protect`.
    pub protect: u64,
    /// HPL matrix of `hpl-ft` (and, offset per tenant, of the storm).
    pub matrix: u64,
    pub storm_plan: u64,
    pub sim: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Seeds {
        let mut r = SplitMix64::new(seed ^ 0x00c0_ffee_5eed);
        Seeds {
            protect: r.next_u64(),
            matrix: 1 + r.next_u64() % 1_000_000,
            storm_plan: r.next_u64(),
            sim: r.next_u64(),
        }
    }
}

/// Every unit a metric is reported in.
const UNITS: [&str; 10] = [
    "ms",
    "s",
    "us",
    "ratio",
    "virtual_s",
    "MiB",
    "frac",
    "count",
    "GB/s",
    "GFLOP/s",
];

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Sample counts and other facts printed beside the result.
    pub notes: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Spans, when the run was traced.
    pub spans: Vec<trace::Span>,
}

impl Report {
    fn e2e(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value: value.unwrap_or(f64::NAN),
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Count one checked operation.
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The metrics a run prints: per-layer when traced, else end-to-end.
    pub fn printed(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Correct when every operation passed its check and every printed
    /// value is a finite number.
    pub fn correct(&self, traced: bool) -> bool {
        self.failed == 0 && self.printed(traced).iter().all(|m| m.value.is_finite())
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .printed(traced)
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(traced),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The printed metrics, check counts and notes, one per line: how a
    /// reference pass hands its results to the run that started it.
    pub fn to_lines(&self, traced: bool) -> String {
        let mut out = format!("checks {} {}\n", self.attempted, self.failed);
        for m in self.printed(traced) {
            out += &format!("metric {} {} {:?}\n", m.name, m.unit, m.value);
        }
        for (k, v) in &self.notes {
            out += &format!("note {k} {v}\n");
        }
        out
    }

    /// Parse [`Report::to_lines`] output.
    pub fn from_lines(text: &str, traced: bool) -> Result<Report, String> {
        let mut r = Report::default();
        let bad = |l: &str| format!("malformed reference line {l:?}");
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["checks", a, b] => {
                    r.attempted = a.parse().map_err(|_| bad(line))?;
                    r.failed = b.parse().map_err(|_| bad(line))?;
                }
                ["metric", name, unit, value] => {
                    let unit = UNITS.iter().find(|u| *u == unit).ok_or_else(|| bad(line))?;
                    let value = value.parse().map_err(|_| bad(line))?;
                    let list = if traced {
                        &mut r.per_layer
                    } else {
                        &mut r.end_to_end
                    };
                    list.push(Metric {
                        name: name.to_string(),
                        value,
                        unit,
                    });
                }
                ["note", k, v] => r.note(k, v),
                _ => return Err(bad(line)),
            }
        }
        Ok(r)
    }

    pub fn notes_json(&self) -> String {
        let v: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        format!("{{{}}}", v.join(", "))
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Wall time of the traced operations over that of the untraced ones
/// they alternated with, minus one.
fn overhead(cycles: &[(f64, bool)]) -> f64 {
    let pairs = cycles.len() / 2;
    let (mut on, mut off) = (0.0, 0.0);
    for (wall, traced) in &cycles[..pairs * 2] {
        if *traced {
            on += wall;
        } else {
            off += wall;
        }
    }
    on / off - 1.0
}

/// Timed set-ups of the named workload where one set-up is one job
/// (`protect`), for the median: a set-up faults in fresh memory, whose
/// cost on a virtual machine swings with the host.
const SETUPS: usize = 5;

fn make_pass(plan: &Plan, setups: usize) -> Box<dyn Pass> {
    let (sz, seeds) = (plan.sizes, Seeds::derive(plan.seed));
    match plan.workload {
        Workload::Protect => Box::new(protect::Protect::new(sz.ws_elems, seeds.protect, setups)),
        Workload::HplFt => Box::new(hplft::HplFt::new(sz.hpl, seeds.matrix)),
        Workload::ServiceStorm => Box::new(storm::Storm::new(
            sz.storm,
            seeds.sim,
            seeds.storm_plan,
            seeds.matrix,
        )),
    }
}

fn index(w: Workload) -> usize {
    Workload::ALL
        .iter()
        .position(|x| *x == w)
        .expect("a known workload")
}

/// Where the other workloads' reference operations run. The binary runs
/// each workload's pass in a process of its own, so that it shares no
/// threads or heap with the named workload; the tests run them in-process.
pub trait References {
    /// Run one reference operation of `w`. An error means the pass could
    /// not be reached; a failed check shows in its final report.
    fn unit(&mut self, w: Workload) -> Result<(), String>;

    /// End `w`'s pass and return its report.
    fn finish(&mut self, w: Workload) -> Result<Report, String>;
}

/// The reference pass of `plan.workload`: one untimed set-up, then the
/// operations its caller asks for.
pub fn reference_pass(plan: &Plan) -> Box<dyn Pass> {
    make_pass(plan, 1)
}

/// A reference pass's report: its checks, and its end-to-end metrics or,
/// when traced, its per-layer ones (set-up time and peak memory belong to
/// the named workload's process and are left out).
pub fn reference_report(pass: &dyn Pass, traced: bool) -> Report {
    let mut r = Report::default();
    (r.attempted, r.failed) = pass.counts();
    if traced {
        pass.per_layer(&mut r);
    } else {
        pass.end_to_end(&mut r);
    }
    r
}

/// [`References`] that run in this process.
pub struct InProcess {
    plan: Plan,
    passes: Vec<(Workload, Box<dyn Pass>)>,
}

impl InProcess {
    pub fn new(plan: &Plan) -> InProcess {
        InProcess {
            plan: *plan,
            passes: Vec::new(),
        }
    }

    fn pass(&mut self, w: Workload) -> &mut Box<dyn Pass> {
        let i = match self.passes.iter().position(|(x, _)| *x == w) {
            Some(i) => i,
            None => {
                let plan = Plan {
                    workload: w,
                    ..self.plan
                };
                self.passes.push((w, reference_pass(&plan)));
                self.passes.len() - 1
            }
        };
        &mut self.passes[i].1
    }
}

impl References for InProcess {
    fn unit(&mut self, w: Workload) -> Result<(), String> {
        self.pass(w).unit();
        Ok(())
    }

    fn finish(&mut self, w: Workload) -> Result<Report, String> {
        let traced = self.plan.trace;
        Ok(reference_report(self.pass(w).as_ref(), traced))
    }
}

/// The other workloads' reference operations in the order they run: each
/// one's operations spread evenly over the sequence.
fn reference_order(plan: &Plan) -> Vec<Workload> {
    let mut slots: Vec<(f64, usize, Workload)> = Vec::new();
    for w in Workload::ALL.into_iter().filter(|w| *w != plan.workload) {
        let k = plan.sizes.ref_units(w);
        slots.extend((0..k).map(|j| ((j as f64 + 0.5) / k as f64, index(w), w)));
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    slots.into_iter().map(|(_, _, w)| w).collect()
}

/// Run `plan` and return everything it measured.
///
/// The named workload runs in this process, its operations back to back
/// until they have taken `plan.seconds`; its set-up time and peak resident
/// set are this process's. Every run prints every metric, so the other two
/// workloads run reference passes of fixed length through `refs`, their
/// operations spread between the named workload's over the whole run: the
/// host's speed drifts over tens of seconds, and a metric whose samples
/// span the run reads steadier than one taken in a single stretch.
pub fn run(plan: &Plan, refs: &mut dyn References) -> Report {
    let mut r = Report::default();
    trace::set_recording(plan.trace);
    let mut pass = make_pass(plan, SETUPS);
    let order = reference_order(plan);
    let due = |j: usize| plan.seconds * (j + 1) as f64 / (order.len() + 1) as f64;
    let mut next = 0;
    // (wall seconds, traced) of each operation; a traced run alternates
    // untraced and traced operations, for the tracing overhead
    let mut ops: Vec<(f64, bool)> = Vec::new();
    let mut roots = Vec::new();
    let mut spent = 0.0;
    loop {
        let n = ops.len();
        let more = n < MIN_UNITS[index(plan.workload)]
            || spent < plan.seconds
            || (plan.trace && n % 2 == 1);
        if !more || pass.capacity() == 0 {
            break;
        }
        let traced = plan.trace && n % 2 == 1;
        trace::set_recording(traced);
        let (ok, d) = timed(&format!("perfbench.op.{}", plan.workload.name()), || {
            roots.extend(trace::current());
            pass.unit()
        });
        trace::set_recording(plan.trace);
        ops.push((d.as_secs_f64(), traced));
        spent += d.as_secs_f64();
        if !ok {
            break;
        }
        while next < order.len() && spent >= due(next) {
            let ok = refs.unit(order[next]).is_ok();
            r.check(ok);
            next += 1;
        }
    }
    for &w in &order[next..] {
        let ok = refs.unit(w).is_ok();
        r.check(ok);
    }
    let peak_rss_mib = host::usage().max_rss_kib as f64 / 1024.0;
    let (attempted, failed) = pass.counts();
    r.attempted += attempted;
    r.failed += failed;
    pass.end_to_end(&mut r);
    r.e2e("setup_s", median(pass.setup_s()), "s");
    r.note("setup_samples", pass.setup_s().len());
    r.e2e("peak_rss_mib", Some(peak_rss_mib), "MiB");
    r.note(&format!("{}_operations", plan.workload.name()), ops.len());

    if plan.trace {
        trace::set_recording(true);
        pass.per_layer(&mut r);
        probes(plan, &mut r);
        trace::set_recording(false);
        r.spans = trace::take();
        let escaping = trace::escaping_children(&r.spans);
        r.check(escaping.is_empty());
        let (selfs, total) = trace::layer_self_times(&r.spans, &roots);
        for (layer, d) in selfs {
            r.layer(
                &format!("self_frac.{layer}"),
                d.as_secs_f64() / total.as_secs_f64(),
                "frac",
            );
        }
        r.layer("trace.overhead_frac", overhead(&ops), "frac");
    }
    drop(pass);

    for w in Workload::ALL.into_iter().filter(|w| *w != plan.workload) {
        match refs.finish(w) {
            Ok(child) => {
                r.attempted += child.attempted;
                r.failed += child.failed;
                r.notes.extend(child.notes);
                r.end_to_end.extend(child.end_to_end);
                r.per_layer.extend(child.per_layer);
            }
            Err(e) => {
                eprintln!("perfbench: reference pass of {} failed: {e}", w.name());
                r.check(false);
            }
        }
    }
    r
}

/// Probes of the layers no workload pass reports: kernels, codec and
/// engine, collectives, simulator handoffs, BLAS, the slice policy.
fn probes(plan: &Plan, r: &mut Report) {
    let sz = &plan.sizes;
    let (gf_rate, exact) = layers::encoding(sz, r);
    r.check(exact);
    let exact = layers::engine_and_mps(sz, gf_rate, r);
    r.check(exact);
    let ok = layers::sim(sz, Seeds::derive(plan.seed).sim, r);
    r.check(ok);
    let ok = layers::linalg(sz, r);
    r.check(ok);
    let ok = layers::policy(sz, r);
    r.check(ok);
}
