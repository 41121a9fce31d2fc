//! The [`Runtime`] abstraction: where rank tasks get scheduled and where
//! time comes from.
//!
//! The rank world spawns one OS thread per rank. Under the default
//! [`RealRuntime`] those threads run genuinely in parallel and time is
//! the wall clock — today's behavior, untouched. Under
//! [`SimRuntime`](crate::SimRuntime) the same threads become cooperative
//! *tasks*: only one runs at a time, a seeded RNG picks which, and time
//! is a virtual clock advanced by the scheduler — so a whole
//! checkpoint/fail/recover cycle is a pure function of `(config, seed)`.
//!
//! Every hook has a no-op (or wall-clock) default so `RealRuntime` is the
//! trivial implementation and real-path overhead stays at one virtual
//! call per hook.

use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a kill-capable yield point should do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum YieldOutcome {
    /// Keep running.
    Continue,
    /// An armed simulation kill fired on this task: the caller must kill
    /// its own node and return `Fault::NodeDead`, exactly like an armed
    /// `FailurePlan` firing at a probe.
    Killed,
}

/// Scheduling and time source for one cluster's rank world.
///
/// Implementations must be shareable across rank threads; all state is
/// behind `&self`. The contract for the task-side hooks
/// ([`Self::task_enter`] / [`Self::yield_now`] / [`Self::park_blocked`] /
/// [`Self::task_exit`]) is that they are called on the rank's own thread,
/// between [`Self::begin_world`] and the end of [`Self::drive`] on the
/// launching thread.
pub trait Runtime: Send + Sync {
    /// True for the deterministic simulation runtime.
    fn is_sim(&self) -> bool {
        false
    }

    /// Monotonic time since the runtime was created. Wall clock for the
    /// real runtime, the virtual clock under simulation.
    fn now(&self) -> Duration;

    /// Charge modeled time (network transfer, detection latency) to the
    /// clock. No-op in real time — modeled costs there are reported, not
    /// waited out — which keeps today's behavior.
    fn advance(&self, _d: Duration) {}

    /// Announce a world launch: `nodes[rank]` is the node hosting `rank`.
    /// Must be called on the launching thread before any task starts.
    fn begin_world(&self, _nodes: &[usize]) {}

    /// Register the calling thread as `rank`'s task. Under simulation
    /// this blocks until the scheduler grants the first time slice.
    fn task_enter(&self, _rank: usize) {}

    /// The task is done (normal return, fault, or unwinding panic).
    fn task_exit(&self, _rank: usize) {}

    /// Run the scheduler loop until every task of the current world is
    /// done. No-op in real time (the OS is the scheduler); under
    /// simulation the launching thread lends itself out here, to make the
    /// first pick once every task has checked in and to step in whenever
    /// no task is left to pass the token to.
    fn drive(&self) {}

    /// Kill-capable yield point, labeled for the yield-point map (probe
    /// labels like `"ckpt-flush-b"`, or `"send"`). Under simulation the
    /// task gives up its slice and blocks until rescheduled; the return
    /// value says whether an armed kill chose this exact yield.
    fn yield_now(&self, _label: &str) -> YieldOutcome {
        YieldOutcome::Continue
    }

    /// A blocking receive found no message. Under simulation the task
    /// parks until [`Self::notify`] and reports `Some(outcome)`; the real
    /// runtime returns `None` and the caller falls back to its timed
    /// `recv_timeout` poll.
    fn park_blocked(&self) -> Option<YieldOutcome> {
        None
    }

    /// Make every parked task runnable again (a message was delivered, or
    /// the job aborted). Under simulation this only changes task states:
    /// the running task keeps the token and hands it on at its next yield,
    /// where a woken task may be picked. Called while no task runs — from
    /// outside the rank world, like a service thread's `kill_node` — it
    /// also wakes the driver, since no task would pass the token on.
    /// Cheap no-op in real time.
    fn notify(&self) {}

    /// Configure the stall policy for gray faults: when every live task
    /// is parked and `Some(step)` is set, the simulation scheduler
    /// advances the virtual clock by `step` and wakes the parked tasks —
    /// modeling the passage of time a hung node imposes on its waiting
    /// peers — instead of declaring deadlock. `None` (the default)
    /// restores the strict deadlock panic. No-op in real time, where the
    /// OS clock never stalls.
    fn set_stall_wake(&self, _step: Option<Duration>) {}

    /// A protocol phase boundary crossed on the calling task (forwarded
    /// from `Event::PhaseEnter`/`PhaseExit` by the cluster's bus
    /// observer). Defines the phase *window* targeted kills aim into.
    fn phase_mark(&self, _label: &'static str, _enter: bool) {}
}

/// Real threads, real time: the production runtime. Rank threads run
/// preemptively in parallel and every hook is a no-op.
pub struct RealRuntime {
    origin: Instant,
}

impl RealRuntime {
    /// A real-time runtime; `now()` counts from this call.
    pub fn new() -> Arc<Self> {
        Arc::new(RealRuntime {
            origin: Instant::now(),
        })
    }
}

impl Runtime for RealRuntime {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A started clock bound to a [`Runtime`] — the `Instant::now()` of the
/// runtime world. Layers that report durations (phase spans, recovery,
/// HPL compute time) use this so their reports are wall-clock under the
/// real runtime and bit-for-bit reproducible under simulation.
#[derive(Clone)]
pub struct Stopwatch {
    rt: Arc<dyn Runtime>,
    t0: Duration,
}

impl Stopwatch {
    /// Start a stopwatch on `rt`'s clock.
    pub fn start(rt: &Arc<dyn Runtime>) -> Self {
        Stopwatch {
            rt: Arc::clone(rt),
            t0: rt.now(),
        }
    }

    /// Time elapsed since [`Self::start`].
    pub fn elapsed(&self) -> Duration {
        self.rt.now().saturating_sub(self.t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_runtime_tracks_wall_time() {
        let rt = RealRuntime::new();
        let a = rt.now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(rt.now() > a);
        assert!(!rt.is_sim());
    }

    #[test]
    fn real_hooks_are_inert() {
        let rt = RealRuntime::new();
        rt.begin_world(&[0, 1]);
        rt.task_enter(0);
        assert_eq!(rt.yield_now("x"), YieldOutcome::Continue);
        assert_eq!(rt.park_blocked(), None);
        rt.notify();
        rt.set_stall_wake(Some(Duration::from_micros(100)));
        rt.advance(Duration::from_secs(5));
        rt.task_exit(0);
        rt.drive();
    }

    #[test]
    fn stopwatch_measures_on_the_runtime_clock() {
        let rt: Arc<dyn Runtime> = RealRuntime::new();
        let sw = Stopwatch::start(&rt);
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed() >= Duration::from_millis(2));
    }
}
