//! Spans recorded by the benchmark around its calls into the workspace
//! crates. Nothing here reaches into the crates: a span covers exactly one
//! public call (or one benchmark operation that groups several), so the
//! layer a span belongs to is the prefix of its name before the first `.`.
//!
//! Spans are kept in memory and written out when the run ends. Timing is
//! taken once per call by [`timed`]: the same `Instant` pair gives both
//! the duration the caller uses for its metrics and the span's interval,
//! whether or not recording is on.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Layers a span name can start with, in report order. `perfbench` is the
/// benchmark's own code (input generation, hashing, checks).
pub const LAYERS: [&str; 9] = [
    "perfbench",
    "encoding",
    "core",
    "mps",
    "cluster",
    "sim",
    "linalg",
    "hpl",
    "ftsim",
];

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    fn len(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

struct Tracer {
    on: AtomicBool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        on: AtomicBool::new(false),
        origin: Instant::now(),
        next: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Turn span recording on or off for spans started from now on.
pub fn set_recording(on: bool) {
    tracer().on.store(on, Ordering::SeqCst);
}

/// The innermost open span on this thread, to hand to work that runs on
/// other threads (rank threads of a launch).
pub fn current() -> Option<u64> {
    CURRENT.with(Cell::get)
}

/// Run `f` inside a span named `name` whose parent is the innermost open
/// span of this thread, and return its result with the span's duration.
pub fn timed<R>(name: &str, f: impl FnOnce() -> R) -> (R, Duration) {
    timed_under(current(), name, f)
}

/// [`timed`] with an explicit parent, for a span opened on a rank thread
/// whose parent is the launch span of the main thread.
pub fn timed_under<R>(parent: Option<u64>, name: &str, f: impl FnOnce() -> R) -> (R, Duration) {
    let t = tracer();
    let rec = t.on.load(Ordering::SeqCst);
    let id = if rec {
        t.next.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    };
    let saved = CURRENT.with(|c| c.replace(rec.then_some(id)));
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    CURRENT.with(|c| c.set(saved));
    if rec {
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            start: start - t.origin,
            end: end - t.origin,
        };
        t.spans.lock().expect("span store poisoned").push(span);
    }
    (out, end - start)
}

/// Every span recorded so far, in start order.
pub fn take() -> Vec<Span> {
    let mut v = std::mem::take(&mut *tracer().spans.lock().expect("span store poisoned"));
    v.sort_by_key(|s| (s.start, s.id));
    v
}

/// Spans whose interval is not inside their parent's: the recorder's own
/// invariant, checked before any self time is reported.
pub fn escaping_children(spans: &[Span]) -> Vec<u64> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    spans
        .iter()
        .filter(|s| {
            s.parent
                .and_then(|p| by_id.get(&p))
                .is_some_and(|p| s.start < p.start || s.end > p.end)
        })
        .map(|s| s.id)
        .collect()
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children, as on parallel
/// rank threads, are counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, Duration> {
    let mut children: HashMap<u64, Vec<(Duration, Duration)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = children.remove(&s.id).unwrap_or_default();
            iv.sort();
            let mut covered = Duration::ZERO;
            let mut open: Option<(Duration, Duration)> = None;
            for (a, b) in iv {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if b <= a {
                    continue;
                }
                match open {
                    Some((oa, ob)) if a <= ob => open = Some((oa, ob.max(b))),
                    Some((oa, ob)) => {
                        covered += ob - oa;
                        open = Some((a, b));
                    }
                    None => open = Some((a, b)),
                }
            }
            if let Some((oa, ob)) = open {
                covered += ob - oa;
            }
            (s.id, s.len().saturating_sub(covered))
        })
        .collect()
}

/// Per-layer self time summed over the trees rooted at `roots` (span ids),
/// together with the roots' total duration.
pub fn layer_self_times(
    spans: &[Span],
    roots: &[u64],
) -> (BTreeMap<&'static str, Duration>, Duration) {
    let selfs = self_times(spans);
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let root_set: std::collections::HashSet<u64> = roots.iter().copied().collect();
    fn under_root<'a>(
        mut s: &'a Span,
        by_id: &HashMap<u64, &'a Span>,
        roots: &std::collections::HashSet<u64>,
    ) -> bool {
        loop {
            if roots.contains(&s.id) {
                return true;
            }
            match s.parent.and_then(|p| by_id.get(&p)) {
                Some(p) => s = p,
                None => return false,
            }
        }
    }
    let mut out: BTreeMap<&'static str, Duration> =
        LAYERS.iter().map(|l| (*l, Duration::ZERO)).collect();
    for s in spans.iter().filter(|s| under_root(s, &by_id, &root_set)) {
        if let Some(layer) = LAYERS.iter().find(|l| **l == s.layer()) {
            *out.get_mut(layer).expect("every layer has an entry") += selfs[&s.id];
        }
    }
    let total = roots
        .iter()
        .filter_map(|r| by_id.get(r))
        .map(|s| s.len())
        .sum();
    (out, total)
}

/// JSON lines, one per span, with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let selfs = self_times(spans);
    let mut s = String::new();
    for sp in spans {
        let _ = writeln!(
            s,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
            sp.id,
            sp.parent.map_or("null".to_string(), |p| p.to_string()),
            sp.name,
            sp.start.as_secs_f64() * 1e6,
            sp.end.as_secs_f64() * 1e6,
            selfs[&sp.id].as_secs_f64() * 1e6,
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, name: &str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start: Duration::from_micros(a),
            end: Duration::from_micros(b),
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            sp(1, None, "mps.launch", 0, 100),
            sp(2, Some(1), "core.make", 10, 40),
            sp(3, Some(1), "core.make", 30, 60),
            sp(4, Some(2), "perfbench.fill", 10, 20),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], Duration::from_micros(50));
        assert_eq!(s[&2], Duration::from_micros(20));
        let (layers, total) = layer_self_times(&spans, &[1]);
        assert_eq!(total, Duration::from_micros(100));
        assert_eq!(layers["core"], Duration::from_micros(50));
        assert_eq!(layers["perfbench"], Duration::from_micros(10));
        assert!(escaping_children(&spans).is_empty());
    }

    #[test]
    fn a_child_outside_its_parent_is_reported() {
        let spans = vec![
            sp(1, None, "mps.launch", 0, 100),
            sp(2, Some(1), "core.make", 90, 110),
        ];
        assert_eq!(escaping_children(&spans), vec![2]);
    }
}
