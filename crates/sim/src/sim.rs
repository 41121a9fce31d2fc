//! The deterministic simulation runtime.
//!
//! One OS thread still backs each rank, but only one runs at a time: a
//! task executes until its next yield point (probe, send, blocking
//! receive), where it draws the next runnable task from a seeded RNG and
//! hands the token straight to it, waking that task's thread and no
//! other. The interleaving — and with it every race the protocol could
//! see — is therefore a pure function of the seed.
//!
//! ## Virtual time
//!
//! The clock advances by a fixed [`QUANTUM`] per scheduling step, plus
//! whatever modeled costs the stack charges through
//! [`Runtime::advance`] (network transfer per send, the daemon's modeled
//! detection latency). No duration anywhere in a simulated run comes
//! from the wall clock, which is what makes reports byte-identical
//! across runs.
//!
//! ## Yield-point kills
//!
//! [`SimRuntime::arm_yield_kill`] kills a node's task at the `nth`
//! kill-capable yield inside a label's window — where a yield is "inside"
//! when either the task's current phase span (tracked from
//! `PhaseEnter`/`PhaseExit` marks) or the yield's own probe label matches.
//! Counts are also recorded on unarmed runs, so an explorer can first
//! measure how many yield points a phase has, then kill at each in turn
//! (see [`crate::explore_yield_kills`]).

use crate::rng::SplitMix64;
use crate::runtime::{Runtime, YieldOutcome};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Virtual time charged per scheduling step. Big enough that every
/// simulated duration is visibly nonzero, small enough that simulated
/// runs stay in the milliseconds.
pub const QUANTUM: Duration = Duration::from_micros(1);

thread_local! {
    /// The rank whose task the current thread is running, if any.
    static CURRENT_RANK: Cell<Option<usize>> = const { Cell::new(None) };
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    /// Thread not yet registered via `task_enter`.
    Spawned,
    /// Runnable, waiting for the token.
    Ready,
    /// Holds the token.
    Running,
    /// Blocked in a receive; needs `notify` to become runnable.
    Parked,
    /// Returned or unwound.
    Done,
}

struct Task {
    state: TaskState,
    /// This task's wake slot (used with the `sched` mutex): signalled
    /// only when the token is granted to it or the scheduler is poisoned.
    wake: Arc<Condvar>,
    node: usize,
    /// Current phase window (label of the innermost `PhaseEnter` not yet
    /// exited), used for targeted kills.
    phase: Option<&'static str>,
    /// Label of the most recent yield — the deadlock report's best clue.
    last_yield: String,
}

struct YieldKill {
    node: usize,
    label: String,
    nth: u64,
}

struct Sched {
    rng: SplitMix64,
    tasks: Vec<Task>,
    kill: Option<YieldKill>,
    /// Kill-capable yields seen, keyed label → node → count. Every yield
    /// is recorded under its own probe label and (when different) under
    /// the enclosing phase window's label.
    yields: HashMap<String, HashMap<usize, u64>>,
    steps: u64,
    /// Set when the scheduler panics (deadlock): parked tasks must wake
    /// and bail out instead of waiting forever.
    poisoned: bool,
    /// Gray-fault stall policy: when every live task is parked, advance
    /// the clock by this step and wake them (bounded by
    /// [`STALL_WAKE_LIMIT`]) instead of panicking. `None` keeps the
    /// strict deadlock panic.
    stall_wake: Option<Duration>,
    /// Stall-wakes taken in the current world (reset by `begin_world`).
    stalls: u64,
}

/// Upper bound on stall-wakes per world. A hung node's peers resolve the
/// stall via suspicion within a handful of heartbeat intervals; a genuine
/// deadlock that nothing can resolve hits this bound and still panics
/// with the task dump instead of spinning the virtual clock forever.
const STALL_WAKE_LIMIT: u64 = 100_000;

/// The deterministic cooperative scheduler. Construct with
/// [`SimRuntime::new`], hand to
/// `Cluster::new_with_runtime`, and run the world exactly as under real
/// threads — `run_on_cluster` routes spawning, receives, probes, and the
/// clock through here.
pub struct SimRuntime {
    sched: Mutex<Sched>,
    /// The driver's wake slot: signalled when the last task checks in,
    /// when no task is ready to take the token, and by a `notify` from
    /// outside the rank world.
    driver: Condvar,
    clock_ns: AtomicU64,
    seed: u64,
}

impl SimRuntime {
    /// A simulation scheduled by `seed`.
    pub fn new(seed: u64) -> Arc<Self> {
        Arc::new(SimRuntime {
            sched: Mutex::new(Sched {
                rng: SplitMix64::new(seed),
                tasks: Vec::new(),
                kill: None,
                yields: HashMap::new(),
                steps: 0,
                poisoned: false,
                stall_wake: None,
                stalls: 0,
            }),
            driver: Condvar::new(),
            clock_ns: AtomicU64::new(0),
            seed,
        })
    }

    /// The seed this simulation runs under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Scheduling steps taken so far.
    pub fn steps(&self) -> u64 {
        self.lock().steps
    }

    /// Kill `node`'s task at the `nth` kill-capable yield whose probe
    /// label or enclosing phase window matches `label` (1-based, counted
    /// over the runtime's whole life, across relaunches). One-shot.
    pub fn arm_yield_kill(&self, node: usize, label: impl Into<String>, nth: u64) {
        let mut s = self.lock();
        s.kill = Some(YieldKill {
            node,
            label: label.into(),
            nth: nth.max(1),
        });
    }

    /// How many kill-capable yields `node`'s tasks have hit inside
    /// `label`'s window so far. Run the scenario once unarmed, read this,
    /// and you know the exact number of kill candidates a targeted
    /// explorer must cover.
    pub fn yield_count(&self, node: usize, label: &str) -> u64 {
        self.lock()
            .yields
            .get(label)
            .and_then(|per| per.get(&node))
            .copied()
            .unwrap_or(0)
    }

    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().expect("sim scheduler lock poisoned")
    }

    fn tick(&self) {
        self.clock_ns
            .fetch_add(QUANTUM.as_nanos() as u64, Ordering::SeqCst);
    }

    /// Record a kill-capable yield of `rank` and decide whether the armed
    /// kill (if any) fires on it.
    fn note_yield(s: &mut Sched, rank: usize, label: &str) -> bool {
        let node = s.tasks[rank].node;
        let phase = s.tasks[rank].phase;
        let c_label = Self::count_yield(&mut s.yields, label, node);
        let c_phase = match phase {
            Some(p) if p != label => Some(Self::count_yield(&mut s.yields, p, node)),
            _ => None,
        };
        if let Some(k) = &s.kill {
            if k.node == node {
                let count = if k.label == label {
                    Some(c_label)
                } else if phase == Some(k.label.as_str()) {
                    c_phase
                } else {
                    None
                };
                if count == Some(k.nth) {
                    s.kill = None;
                    return true;
                }
            }
        }
        false
    }

    /// Bump `node`'s yield count under `label` and return it. The label
    /// is copied into the map only the first time it is seen.
    fn count_yield(
        yields: &mut HashMap<String, HashMap<usize, u64>>,
        label: &str,
        node: usize,
    ) -> u64 {
        if let Some(per) = yields.get_mut(label) {
            let c = per.entry(node).or_insert(0);
            *c += 1;
            return *c;
        }
        yields.insert(label.to_string(), HashMap::from([(node, 1)]));
        1
    }

    /// The seeded pick. Only when no task holds the token and every task
    /// has checked in (the start barrier), draw one Ready task — scanned
    /// in ascending rank order, one draw per grant — make it the holder
    /// and charge one step. Returns the new holder; `None` when a task is
    /// running or spawned, or none is ready.
    fn grant(&self, s: &mut Sched) -> Option<usize> {
        let mut ready = 0;
        for t in &s.tasks {
            match t.state {
                TaskState::Running | TaskState::Spawned => return None,
                TaskState::Ready => ready += 1,
                TaskState::Parked | TaskState::Done => {}
            }
        }
        if ready == 0 {
            return None;
        }
        let nth = s.rng.below(ready) as usize;
        let (pick, _) = s
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == TaskState::Ready)
            .nth(nth)?;
        s.tasks[pick].state = TaskState::Running;
        s.steps += 1;
        self.tick();
        Some(pick)
    }

    /// Pass on the token `rank` just gave up: grant it and wake only the
    /// new holder (nobody, when `rank` drew itself), or wake the driver
    /// when no task is ready — every live task parked, or all done.
    fn hand_off(&self, s: &mut Sched, rank: usize) {
        match self.grant(s) {
            Some(next) if next == rank => {}
            Some(next) => s.tasks[next].wake.notify_one(),
            None => self.driver.notify_one(),
        }
    }

    /// Give up `rank`'s token at yield `label`, becoming `state` (Ready or
    /// Parked), hand it on, and block until it comes back.
    fn step_down(&self, mut s: MutexGuard<'_, Sched>, rank: usize, state: TaskState, label: &str) {
        let t = &mut s.tasks[rank];
        t.state = state;
        t.last_yield.clear();
        t.last_yield.push_str(label);
        self.hand_off(&mut s, rank);
        let _s = self.wait_for_token(s, rank);
    }

    /// Block the calling task until it holds the token.
    fn wait_for_token<'a>(
        &'a self,
        mut s: MutexGuard<'a, Sched>,
        rank: usize,
    ) -> MutexGuard<'a, Sched> {
        while s.tasks[rank].state != TaskState::Running {
            if s.poisoned {
                // release the lock first so this task can still exit
                drop(s);
                panic!("sim scheduler poisoned (deadlock elsewhere)");
            }
            let wake = Arc::clone(&s.tasks[rank].wake);
            s = wake.wait(s).expect("sim scheduler lock poisoned");
        }
        s
    }

    fn dump(s: &Sched) -> String {
        s.tasks
            .iter()
            .enumerate()
            .map(|(r, t)| {
                format!(
                    "  rank {r} (node {}): {:?}, phase {:?}, last yield '{}'",
                    t.node, t.state, t.phase, t.last_yield
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl Runtime for SimRuntime {
    fn is_sim(&self) -> bool {
        true
    }

    fn now(&self) -> Duration {
        Duration::from_nanos(self.clock_ns.load(Ordering::SeqCst))
    }

    fn advance(&self, d: Duration) {
        self.clock_ns.fetch_add(
            d.as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::SeqCst,
        );
    }

    fn begin_world(&self, nodes: &[usize]) {
        let mut s = self.lock();
        assert!(
            s.tasks.iter().all(|t| t.state == TaskState::Done),
            "begin_world while a previous world still has live tasks"
        );
        s.tasks = nodes
            .iter()
            .map(|&node| Task {
                state: TaskState::Spawned,
                wake: Arc::new(Condvar::new()),
                node,
                phase: None,
                last_yield: String::new(),
            })
            .collect();
        s.stalls = 0;
    }

    fn task_enter(&self, rank: usize) {
        CURRENT_RANK.with(|c| c.set(Some(rank)));
        let mut s = self.lock();
        assert_eq!(s.tasks[rank].state, TaskState::Spawned, "double task_enter");
        s.tasks[rank].state = TaskState::Ready;
        if s.tasks.iter().all(|t| t.state != TaskState::Spawned) {
            // the last thread checked in: the first pick is the driver's
            self.driver.notify_one();
        }
        let _s = self.wait_for_token(s, rank);
    }

    fn task_exit(&self, rank: usize) {
        CURRENT_RANK.with(|c| c.set(None));
        let mut s = self.lock();
        s.tasks[rank].state = TaskState::Done;
        if !s.poisoned {
            self.hand_off(&mut s, rank);
        }
    }

    fn drive(&self) {
        let mut s = self.lock();
        loop {
            if s.tasks.iter().all(|t| t.state == TaskState::Done) {
                return;
            }
            if s.tasks
                .iter()
                .any(|t| matches!(t.state, TaskState::Running | TaskState::Spawned))
            {
                // a running task hands the token on by itself; a spawned
                // one holds the start barrier: the set of arrived tasks
                // is timing-dependent, the full world is not
                s = self.driver.wait(s).expect("sim scheduler lock poisoned");
                continue;
            }
            if let Some(next) = self.grant(&mut s) {
                s.tasks[next].wake.notify_one();
                continue;
            }
            // Every live task is parked. Under a gray-fault stall policy
            // this is the hung-node case: let virtual time pass and wake
            // the waiters so they can poll suspicion.
            if let Some(step) = s.stall_wake {
                if s.stalls < STALL_WAKE_LIMIT {
                    s.stalls += 1;
                    self.advance(step);
                    for t in &mut s.tasks {
                        if t.state == TaskState::Parked {
                            t.state = TaskState::Ready;
                        }
                    }
                    continue;
                }
            }
            // nothing can wake them: a genuine deadlock. Release every
            // parked task (and the lock) so their threads unwind and join.
            s.poisoned = true;
            for t in &s.tasks {
                t.wake.notify_one();
            }
            let dump = Self::dump(&s);
            drop(s);
            panic!(
                "sim deadlock (seed {}): all tasks parked\n{dump}",
                self.seed
            );
        }
    }

    fn yield_now(&self, label: &str) -> YieldOutcome {
        let Some(rank) = CURRENT_RANK.with(|c| c.get()) else {
            return YieldOutcome::Continue;
        };
        let mut s = self.lock();
        if Self::note_yield(&mut s, rank, label) {
            // keep the token: the dying task must kill its node and
            // unwind atomically, exactly like a probe kill
            return YieldOutcome::Killed;
        }
        self.step_down(s, rank, TaskState::Ready, label);
        YieldOutcome::Continue
    }

    fn park_blocked(&self) -> Option<YieldOutcome> {
        let rank = CURRENT_RANK.with(|c| c.get())?;
        let mut s = self.lock();
        if Self::note_yield(&mut s, rank, "recv-park") {
            return Some(YieldOutcome::Killed);
        }
        self.step_down(s, rank, TaskState::Parked, "recv-park");
        Some(YieldOutcome::Continue)
    }

    fn set_stall_wake(&self, step: Option<Duration>) {
        self.lock().stall_wake = step;
    }

    fn notify(&self) {
        let mut s = self.lock();
        let mut running = false;
        for t in &mut s.tasks {
            match t.state {
                TaskState::Parked => t.state = TaskState::Ready,
                TaskState::Running => running = true,
                _ => {}
            }
        }
        if !running {
            // called from outside the rank world (the launching or a
            // service thread): no task will hand the token on, so the
            // driver must make the next pick
            self.driver.notify_one();
        }
    }

    fn phase_mark(&self, label: &'static str, enter: bool) {
        let Some(rank) = CURRENT_RANK.with(|c| c.get()) else {
            return;
        };
        let mut s = self.lock();
        if enter {
            s.tasks[rank].phase = Some(label);
        } else if s.tasks[rank].phase == Some(label) {
            s.tasks[rank].phase = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a world left behind: the order in which `(rank, i)` pairs
    /// were logged (each task logs once per time slice it is granted),
    /// the scheduling steps taken, and the virtual clock in quanta.
    type Schedule = (Vec<(usize, usize)>, u64, u64);

    /// Drive `n` tasks running `body(rt, rank, log)` between `task_enter`
    /// and `task_exit` on a fresh runtime under `seed`.
    fn run_tasks<F>(seed: u64, n: usize, body: F) -> Schedule
    where
        F: Fn(&SimRuntime, usize, &dyn Fn(usize)) + Sync,
    {
        let rt = SimRuntime::new(seed);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            rt.begin_world(&(0..n).collect::<Vec<_>>());
            for rank in 0..n {
                let rt = Arc::clone(&rt);
                let (order, body) = (&order, &body);
                scope.spawn(move || {
                    rt.task_enter(rank);
                    body(&rt, rank, &|i| order.lock().unwrap().push((rank, i)));
                    rt.task_exit(rank);
                });
            }
            rt.drive();
        });
        let quanta = (rt.now().as_nanos() / QUANTUM.as_nanos()) as u64;
        (order.into_inner().unwrap(), rt.steps(), quanta)
    }

    /// `n` tasks that each yield `"step"` `yields` times.
    fn run_world(seed: u64, n: usize, yields: usize) -> Schedule {
        run_tasks(seed, n, |rt, _, log| {
            for i in 0..yields {
                log(i);
                assert_eq!(rt.yield_now("step"), YieldOutcome::Continue);
            }
        })
    }

    #[test]
    fn same_seed_same_interleaving() {
        assert_eq!(run_world(3, 4, 8), run_world(3, 4, 8));
    }

    #[test]
    fn different_seeds_interleave_differently() {
        let runs: Vec<_> = (0..16).map(|s| run_world(s, 4, 8)).collect();
        assert!(
            runs.windows(2).any(|w| w[0] != w[1]),
            "16 seeds, 4 tasks, 8 yields: some pair must differ"
        );
    }

    /// A pinned schedule: grant log, steps, quanta.
    type Golden = (&'static [(usize, usize)], u64, u64);

    fn assert_golden(got: Schedule, want: Golden) {
        assert_eq!(got, (want.0.to_vec(), want.1, want.2));
    }

    /// `(seed, n, yields)` worlds and their schedules, recorded on the
    /// shared-condvar scheduler this one replaced. Any change to the pick
    /// (scan order, draws per grant, steps or ticks per grant) breaks them.
    #[rustfmt::skip]
    const GOLDEN_WORLDS: &[(u64, usize, usize, Golden)] = &[
        (3, 4, 3, (&[(1, 0), (1, 1), (1, 2), (3, 0), (2, 0), (3, 1), (0, 0), (2, 1), (2, 2),
                     (0, 1), (0, 2), (3, 2)], 16, 16)),
        (42, 6, 2, (&[(1, 0), (1, 1), (0, 0), (0, 1), (4, 0), (2, 0), (3, 0), (4, 1), (5, 0),
                      (5, 1), (3, 1), (2, 1)], 18, 18)),
        (1234, 2, 5, (&[(1, 0), (0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (0, 2), (1, 4), (0, 3),
                        (0, 4)], 12, 12)),
    ];
    #[rustfmt::skip]
    const GOLDEN_PARK_NOTIFY: Golden = (&[(0, 0), (1, 0), (1, 1), (0, 1), (1, 2), (2, 0), (1, 3),
                                          (2, 1), (2, 2), (2, 3), (0, 2)], 13, 13);
    #[rustfmt::skip]
    const GOLDEN_EARLY_EXIT: Golden = (&[(2, 0), (2, 1), (2, 2), (0, 0), (3, 0), (0, 1), (0, 2),
                                         (0, 3)], 12, 12);

    #[test]
    fn golden_schedules_are_pinned() {
        for &(seed, n, yields, want) in GOLDEN_WORLDS {
            assert_golden(run_world(seed, n, yields), want);
        }
    }

    #[test]
    fn golden_schedule_with_park_and_notify() {
        // rank 0 parks until both senders have delivered (under seed 7 it
        // parks twice); ranks 1 and 2 yield, deliver (notify), yield again
        let sent = Mutex::new(0);
        let got = run_tasks(7, 3, |rt, rank, log| {
            if rank == 0 {
                for i in 0.. {
                    log(i);
                    if *sent.lock().unwrap() == 2 {
                        break;
                    }
                    assert_eq!(rt.park_blocked(), Some(YieldOutcome::Continue));
                }
            } else {
                for i in 0..4 {
                    log(i);
                    if i == rank {
                        *sent.lock().unwrap() += 1;
                        rt.notify();
                    }
                    rt.yield_now("send");
                }
            }
        });
        assert_golden(got, GOLDEN_PARK_NOTIFY);
    }

    #[test]
    fn golden_schedule_with_early_exit() {
        // rank 1 exits on its first slice, rank 3 after one yield
        let yields = [4, 0, 3, 1];
        let got = run_tasks(8, 4, |rt, rank, log| {
            for i in 0..yields[rank] {
                log(i);
                rt.yield_now("step");
            }
        });
        assert_golden(got, GOLDEN_EARLY_EXIT);
    }

    #[test]
    fn virtual_clock_advances_per_step_and_by_advance() {
        let rt = SimRuntime::new(0);
        assert_eq!(rt.now(), Duration::ZERO);
        rt.advance(Duration::from_millis(5));
        assert_eq!(rt.now(), Duration::from_millis(5));
        std::thread::scope(|scope| {
            rt.begin_world(&[0]);
            let r = Arc::clone(&rt);
            scope.spawn(move || {
                r.task_enter(0);
                r.yield_now("a");
                r.task_exit(0);
            });
            rt.drive();
        });
        // two grants (enter + one yield) -> two quanta on top
        assert_eq!(rt.now(), Duration::from_millis(5) + 2 * QUANTUM);
    }

    #[test]
    fn armed_kill_fires_at_exact_yield() {
        let rt = SimRuntime::new(9);
        rt.arm_yield_kill(0, "probe", 3);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            rt.begin_world(&[0]);
            let r = Arc::clone(&rt);
            let seen = &seen;
            scope.spawn(move || {
                r.task_enter(0);
                for i in 1..=10 {
                    let out = r.yield_now("probe");
                    seen.lock().unwrap().push((i, out));
                    if out == YieldOutcome::Killed {
                        break;
                    }
                }
                r.task_exit(0);
            });
            rt.drive();
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[2], (3, YieldOutcome::Killed));
        assert_eq!(rt.yield_count(0, "probe"), 3);
    }

    #[test]
    fn phase_window_attributes_yields_to_enclosing_phase() {
        let rt = SimRuntime::new(1);
        std::thread::scope(|scope| {
            rt.begin_world(&[7]);
            let r = Arc::clone(&rt);
            scope.spawn(move || {
                r.task_enter(0);
                r.yield_now("outside");
                r.phase_mark("win", true);
                r.yield_now("inner-a");
                r.yield_now("inner-b");
                r.phase_mark("win", false);
                r.yield_now("outside");
                r.task_exit(0);
            });
            rt.drive();
        });
        assert_eq!(rt.yield_count(7, "win"), 2, "two yields inside the window");
        assert_eq!(rt.yield_count(7, "inner-a"), 1);
        assert_eq!(rt.yield_count(7, "outside"), 2);
    }

    #[test]
    fn parked_task_wakes_on_notify() {
        let rt = SimRuntime::new(5);
        let got = Mutex::new(None);
        std::thread::scope(|scope| {
            rt.begin_world(&[0, 1]);
            let r0 = Arc::clone(&rt);
            let got = &got;
            scope.spawn(move || {
                r0.task_enter(0);
                // park until rank 1 notifies
                assert_eq!(r0.park_blocked(), Some(YieldOutcome::Continue));
                *got.lock().unwrap() = Some("woke");
                r0.task_exit(0);
            });
            let r1 = Arc::clone(&rt);
            scope.spawn(move || {
                r1.task_enter(1);
                r1.yield_now("spin");
                r1.notify();
                r1.task_exit(1);
            });
            rt.drive();
        });
        assert_eq!(got.into_inner().unwrap(), Some("woke"));
    }

    #[test]
    fn deadlock_panics_with_task_dump() {
        let err = std::panic::catch_unwind(|| {
            let rt = SimRuntime::new(0);
            std::thread::scope(|scope| {
                rt.begin_world(&[0]);
                let r = Arc::clone(&rt);
                scope.spawn(move || {
                    r.task_enter(0);
                    // park with nobody left to notify
                    let _ =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.park_blocked()));
                    r.task_exit(0);
                });
                rt.drive();
            });
        })
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
        assert!(msg.contains("sim deadlock"), "{msg}");
    }

    #[test]
    fn deadlock_with_several_parked_tasks_panics_and_releases_all() {
        let released = Mutex::new(0);
        let err = std::panic::catch_unwind(|| {
            let rt = SimRuntime::new(4);
            std::thread::scope(|scope| {
                rt.begin_world(&[0, 1, 2]);
                for rank in 0..3 {
                    let r = Arc::clone(&rt);
                    let released = &released;
                    scope.spawn(move || {
                        r.task_enter(rank);
                        // park with nobody to notify; only the poison can
                        // release this thread, or the scope never joins
                        let parked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            r.park_blocked()
                        }));
                        assert!(
                            parked.is_err(),
                            "rank {rank} must be released by the poison"
                        );
                        *released.lock().unwrap() += 1;
                        r.task_exit(rank);
                    });
                }
                rt.drive();
            });
        })
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
        assert!(msg.contains("sim deadlock"), "{msg}");
        for rank in 0..3 {
            assert!(
                msg.contains(&format!("rank {rank} (node {rank}): Parked")),
                "{msg}"
            );
        }
        assert_eq!(released.into_inner().unwrap(), 3);
    }

    #[test]
    fn notify_from_outside_the_world_wakes_parked_tasks() {
        // Both tasks park until a non-task thread posts and notifies, as
        // `kill_node` does from a service thread. Its notify lands while
        // no task holds the token, so no task will hand the token on: the
        // driver must pick. A stall policy keeps the world alive until
        // the post arrives.
        let rt = SimRuntime::new(2);
        rt.set_stall_wake(Some(QUANTUM));
        let parked = AtomicU64::new(0);
        let posted = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            rt.begin_world(&[0, 1]);
            for rank in 0..2 {
                let r = Arc::clone(&rt);
                let (parked, posted) = (&parked, &posted);
                scope.spawn(move || {
                    r.task_enter(rank);
                    parked.fetch_add(1, Ordering::SeqCst);
                    while !posted.load(Ordering::SeqCst) {
                        assert_eq!(r.park_blocked(), Some(YieldOutcome::Continue));
                    }
                    r.task_exit(rank);
                });
            }
            let r = Arc::clone(&rt);
            let (parked, posted) = (&parked, &posted);
            scope.spawn(move || {
                while parked.load(Ordering::SeqCst) < 2 {
                    std::thread::yield_now();
                }
                posted.store(true, Ordering::SeqCst);
                r.notify();
            });
            rt.drive();
        });
        assert!(rt.lock().tasks.iter().all(|t| t.state == TaskState::Done));
    }

    #[test]
    fn stall_wake_advances_clock_instead_of_deadlocking() {
        let rt = SimRuntime::new(0);
        let step = Duration::from_micros(200);
        rt.set_stall_wake(Some(step));
        let woke = Mutex::new(0u32);
        std::thread::scope(|scope| {
            rt.begin_world(&[0]);
            let r = Arc::clone(&rt);
            let woke = &woke;
            scope.spawn(move || {
                r.task_enter(0);
                // park repeatedly with nobody to notify: each wake must
                // be a stall-wake that advanced the virtual clock
                for _ in 0..3 {
                    assert_eq!(r.park_blocked(), Some(YieldOutcome::Continue));
                    *woke.lock().unwrap() += 1;
                }
                r.task_exit(0);
            });
            rt.drive();
        });
        assert_eq!(woke.into_inner().unwrap(), 3);
        assert!(
            rt.now() >= 3 * step,
            "stall-wakes advance time: {:?}",
            rt.now()
        );
    }
}
