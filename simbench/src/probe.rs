//! Probes around each layer's public entry points, built only from types
//! the public traits already allow: a [`Monitor`] wrapper (collector
//! layer, and the per-machine stream digest), a [`Scheduler`] wrapper
//! registered under the planner's own name (kernel layer, and the
//! machine-epoch span), a [`SchedulerPolicy`] wrapper (reactive layer) and
//! a [`ClusterFrameSink`] wrapper (sink layer, screen count and the merge
//! order digest).
//!
//! Spans land in per-thread accumulators: each thread owns one
//! [`ThreadAcc`] and is its only writer, so recording a span is two clock
//! reads and a few plain stores — no lock and no shared cache line on the
//! hot path. [`snapshot`] folds every accumulator once, after a run, when
//! the run's threads have been joined.
//!
//! The machine-epoch span has no hook of its own: it starts when
//! [`Scheduler::plan`] returns on a thread and ends at that thread's next
//! `plan` or [`Monitor::observe`] — the machine's `execute_epoch` plus the
//! kernel's charge folding. A thread only switches machines after an
//! observation, so every closed span belongs to one machine.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, ThreadId};
use std::time::Instant;

use tiptop_core::batch::FrameBatch;
use tiptop_core::cluster::{ClusterFrame, ClusterFrameSink};
use tiptop_core::monitor::Monitor;
use tiptop_core::reactive::{MigrationDecision, SchedulerPolicy};
use tiptop_core::render::Frame;
use tiptop_kernel::kernel::Kernel;
use tiptop_kernel::sched::{CfsLike, EpochPlan, SchedCtx, Scheduler, SchedulerSelect};
use tiptop_machine::time::{SimDuration, SimTime};

use crate::digest::{Fnv, StreamDigest};

/// Nanoseconds since the first call in this process.
fn now_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One thread's span totals. Only the owning thread writes; readers fold
/// after the run's threads have been joined, which orders every store.
#[derive(Default)]
pub struct ThreadAcc {
    driver: bool,
    first_ns: AtomicU64,
    last_ns: AtomicU64,
    /// Start of the open machine-epoch span, plus one (0: none open).
    open_epoch: AtomicU64,
    machine_ns: AtomicU64,
    plan_ns: AtomicU64,
    plans: AtomicU64,
    slices: AtomicU64,
    observe_ns: AtomicU64,
    observes: AtomicU64,
    rows: AtomicU64,
    sink_ns: AtomicU64,
    sink_frames: AtomicU64,
    policy_ns: AtomicU64,
    policy_observes: AtomicU64,
    decisions: AtomicU64,
}

fn add(a: &AtomicU64, v: u64) {
    a.store(a.load(Relaxed) + v, Relaxed);
}

impl ThreadAcc {
    fn touch(&self, t: u64) {
        if self.first_ns.load(Relaxed) == 0 {
            self.first_ns.store(t, Relaxed);
        }
        self.last_ns.store(t, Relaxed);
    }

    /// Close this thread's open machine-epoch span at `t`, if any.
    fn close_epoch(&self, t: u64) {
        let open = self.open_epoch.swap(0, Relaxed);
        if open != 0 {
            add(&self.machine_ns, t.saturating_sub(open - 1));
        }
    }

    fn zero(&self) {
        for a in [
            &self.first_ns,
            &self.last_ns,
            &self.open_epoch,
            &self.machine_ns,
            &self.plan_ns,
            &self.plans,
            &self.slices,
            &self.observe_ns,
            &self.observes,
            &self.rows,
            &self.sink_ns,
            &self.sink_frames,
            &self.policy_ns,
            &self.policy_observes,
            &self.decisions,
        ] {
            a.store(0, Relaxed);
        }
    }
}

static MAIN: OnceLock<ThreadId> = OnceLock::new();
static REGISTRY: Mutex<Vec<Arc<ThreadAcc>>> = Mutex::new(Vec::new());

thread_local! {
    static ACC: Arc<ThreadAcc> = {
        let acc = Arc::new(ThreadAcc {
            driver: MAIN.get() == Some(&thread::current().id()),
            ..ThreadAcc::default()
        });
        REGISTRY
            .lock()
            .expect("trace registry poisoned")
            .push(Arc::clone(&acc));
        acc
    };
}

fn with_acc(f: impl FnOnce(&ThreadAcc)) {
    ACC.with(|acc| f(acc));
}

/// Mark the calling thread as the driving thread and zero every
/// accumulator. Call between runs only, while no cluster thread is alive.
pub fn reset() {
    MAIN.get_or_init(|| thread::current().id());
    now_ns();
    with_acc(|_| {});
    let mut reg = REGISTRY.lock().expect("trace registry poisoned");
    // Accumulators of exited threads are only held by the registry.
    reg.retain(|acc| Arc::strong_count(acc) > 1);
    for acc in reg.iter() {
        acc.zero();
    }
}

/// Span totals of one run, folded over every thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct Snapshot {
    pub machine_s: f64,
    pub plan_s: f64,
    pub plans: u64,
    pub slices: u64,
    pub observe_s: f64,
    pub observes: u64,
    pub rows: u64,
    pub sink_s: f64,
    pub sink_frames: u64,
    pub policy_s: f64,
    pub policy_observes: u64,
    pub decisions: u64,
    /// Worker threads' wall time (first to last span), summed.
    pub worker_wall_s: f64,
    /// Worker threads' machine, kernel and collector spans, summed.
    pub worker_span_s: f64,
    /// Layer spans (of any layer) recorded on the driving thread.
    pub driver_span_s: f64,
}

impl Snapshot {
    /// Scale every span total by `k`; counts stay.
    pub fn rescale(&mut self, k: f64) {
        for t in [
            &mut self.machine_s,
            &mut self.plan_s,
            &mut self.observe_s,
            &mut self.sink_s,
            &mut self.policy_s,
            &mut self.worker_wall_s,
            &mut self.worker_span_s,
            &mut self.driver_span_s,
        ] {
            *t *= k;
        }
    }
}

/// Fold every thread's accumulator. Call after the run returned.
pub fn snapshot() -> Snapshot {
    let s = |ns: u64| ns as f64 * 1e-9;
    let reg = REGISTRY.lock().expect("trace registry poisoned");
    let mut out = Snapshot::default();
    for acc in reg.iter() {
        let get = |a: &AtomicU64| a.load(Relaxed);
        let layer_ns = get(&acc.machine_ns) + get(&acc.plan_ns) + get(&acc.observe_ns);
        out.machine_s += s(get(&acc.machine_ns));
        out.plan_s += s(get(&acc.plan_ns));
        out.plans += get(&acc.plans);
        out.slices += get(&acc.slices);
        out.observe_s += s(get(&acc.observe_ns));
        out.observes += get(&acc.observes);
        out.rows += get(&acc.rows);
        out.sink_s += s(get(&acc.sink_ns));
        out.sink_frames += get(&acc.sink_frames);
        out.policy_s += s(get(&acc.policy_ns));
        out.policy_observes += get(&acc.policy_observes);
        out.decisions += get(&acc.decisions);
        if acc.driver {
            out.driver_span_s += s(layer_ns + get(&acc.sink_ns) + get(&acc.policy_ns));
        } else if get(&acc.first_ns) != 0 {
            out.worker_wall_s += s(get(&acc.last_ns) - get(&acc.first_ns));
            out.worker_span_s += s(layer_ns);
        }
    }
    out
}

/// The default CFS-like planner with a timer around `plan`, registered
/// under the planner's own name so nothing the kernel reports changes.
struct TimedPlanner(CfsLike);

impl Scheduler for TimedPlanner {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn plan(&mut self, ctx: &SchedCtx<'_>) -> EpochPlan {
        let t0 = now_ns();
        let plan = self.0.plan(ctx);
        let t1 = now_ns();
        let running = plan.num_running() as u64;
        with_acc(|acc| {
            acc.close_epoch(t0);
            acc.touch(t1);
            add(&acc.plan_ns, t1 - t0);
            add(&acc.plans, 1);
            add(&acc.slices, running);
            acc.open_epoch.store(t1 + 1, Relaxed);
        });
        plan
    }
}

/// The kernel planner for a traced run.
pub fn timed_planner() -> SchedulerSelect {
    let name = CfsLike.name();
    SchedulerSelect::custom(name, || Box::new(TimedPlanner(CfsLike)))
}

/// Per-machine outcome a [`ProbeMonitor`] hands back when it is dropped.
#[derive(Debug)]
pub struct MachineStream {
    pub index: usize,
    pub digest: u64,
    /// `(sim ns, host ns)` of every frame, as produced.
    pub produced: Vec<(u64, u64)>,
}

pub type StreamBoard = Arc<Mutex<Vec<MachineStream>>>;

/// A monitor wrapper: digests every frame of its machine's stream and,
/// when tracing, times `observe`.
pub struct ProbeMonitor {
    inner: Box<dyn Monitor + Send>,
    index: usize,
    trace: bool,
    stream: StreamDigest,
    produced: Vec<(u64, u64)>,
    board: StreamBoard,
}

impl ProbeMonitor {
    pub fn new(
        inner: Box<dyn Monitor + Send>,
        index: usize,
        trace: bool,
        board: StreamBoard,
    ) -> Self {
        ProbeMonitor {
            inner,
            index,
            trace,
            stream: StreamDigest::default(),
            produced: Vec::new(),
            board,
        }
    }
}

impl Monitor for ProbeMonitor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn interval(&self) -> SimDuration {
        self.inner.interval()
    }

    fn prime(&mut self, k: &mut Kernel) {
        if self.trace {
            with_acc(|acc| acc.touch(now_ns()));
        }
        self.inner.prime(k);
    }

    fn observe(&mut self, k: &mut Kernel) -> Frame {
        let t0 = self.trace.then(now_ns);
        let frame = self.inner.observe(k);
        let t1 = now_ns();
        if let Some(t0) = t0 {
            let rows = frame.rows.len() as u64;
            with_acc(|acc| {
                acc.close_epoch(t0);
                acc.touch(t1);
                add(&acc.observe_ns, t1 - t0);
                add(&acc.observes, 1);
                add(&acc.rows, rows);
            });
        }
        self.produced.push((frame.time.as_nanos(), t1));
        self.stream.frame(&frame);
        frame
    }

    fn teardown(&mut self, k: &mut Kernel) {
        self.inner.teardown(k);
    }
}

impl Drop for ProbeMonitor {
    fn drop(&mut self) {
        let stream = MachineStream {
            index: self.index,
            digest: self.stream.finish(),
            produced: std::mem::take(&mut self.produced),
        };
        // Never panic in drop: a poisoned board only loses this record,
        // which then shows as a digest mismatch.
        if let Ok(mut board) = self.board.lock() {
            board.push(stream);
        }
    }
}

/// A policy wrapper timing `observe` on the driving thread.
pub struct TimedPolicy(pub Box<dyn SchedulerPolicy>);

impl SchedulerPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn observe(&mut self, frame: &ClusterFrame) -> Vec<MigrationDecision> {
        let t0 = now_ns();
        let out = self.0.observe(frame);
        let t1 = now_ns();
        let decided = out.len() as u64;
        with_acc(|acc| {
            add(&acc.policy_ns, t1 - t0);
            add(&acc.policy_observes, 1);
            add(&acc.decisions, decided);
        });
        out
    }
}

/// A sink wrapper: counts fleet screens (distinct sim instants), digests
/// the merged `(time, machine)` order and, when tracing, times delivery.
pub struct ProbeSink<'a> {
    inner: &'a mut dyn ClusterFrameSink,
    trace: bool,
    order: Fnv,
    instant: Option<SimTime>,
    pub screens: u64,
}

impl<'a> ProbeSink<'a> {
    pub fn new(inner: &'a mut dyn ClusterFrameSink, trace: bool) -> Self {
        ProbeSink {
            inner,
            trace,
            order: Fnv::default(),
            instant: None,
            screens: 0,
        }
    }

    fn note(&mut self, time: SimTime, machine: usize) {
        self.order.u64(time.as_nanos()).u64(machine as u64);
        if self.instant != Some(time) {
            self.instant = Some(time);
            self.screens += 1;
        }
    }

    /// The merge-order digest.
    pub fn order(&self) -> u64 {
        self.order.get()
    }

    fn timed(&mut self, frames: usize, deliver: impl FnOnce(&mut dyn ClusterFrameSink)) {
        if !self.trace {
            deliver(self.inner);
            return;
        }
        let t0 = now_ns();
        deliver(self.inner);
        let t1 = now_ns();
        with_acc(|acc| {
            add(&acc.sink_ns, t1 - t0);
            add(&acc.sink_frames, frames as u64);
        });
    }
}

impl ClusterFrameSink for ProbeSink<'_> {
    fn on_frame(&mut self, frame: ClusterFrame) {
        self.note(frame.frame.time, frame.machine_index);
        self.timed(1, |sink| sink.on_frame(frame));
    }

    fn on_batch(&mut self, batch: &mut FrameBatch, range: Range<usize>) {
        for i in range.clone() {
            self.note(batch.time(i), batch.machine_index(i));
        }
        let frames = range.len();
        self.timed(frames, |sink| sink.on_batch(batch, range));
    }
}

/// Host seconds between consecutive completed fleet screens. Screen `T`
/// completes when the last machine's monitor has produced its frame for
/// `T` and every earlier screen has completed. Completion is taken where
/// frames are produced, not where they reach the sink: the pool transport
/// delivers frames in lane batches, so sink arrival would time batches
/// (a one-machine run delivers 32 screens at once).
pub fn screen_gaps(streams: &[MachineStream]) -> Vec<f64> {
    let mut done: BTreeMap<u64, u64> = BTreeMap::new();
    for s in streams {
        for &(sim, host) in &s.produced {
            let t = done.entry(sim).or_insert(host);
            *t = (*t).max(host);
        }
    }
    let mut gaps = Vec::with_capacity(done.len());
    let mut prev: Option<u64> = None;
    for host in done.into_values() {
        let host = prev.map_or(host, |p| p.max(host));
        if let Some(p) = prev {
            gaps.push((host - p) as f64 * 1e-9);
        }
        prev = Some(host);
    }
    gaps
}
