//! The three seeded workloads, each built mostly on a different layer:
//!
//! * `dc_burst` — the Figure 10 data-center burst on one E5640: nearly all
//!   host time is `machine` cache sampling.
//! * `fleet_frames` — 100 light machines on the free-running pool: the
//!   `collector` observe path, `kernel` planning, lane transport, merge
//!   and sink; cache sampling short-circuits (no loads or stores).
//! * `fleet_reactive` — 16 light machines, four of them carrying a phased
//!   canary watched by a live policy: the `core::cluster` round driver
//!   with checkpoint/resume migrations, one machine per round.
//!
//! [`setup`] builds the scenario, the cluster, the policies and the
//! monitors (the `setup_s` span); [`run`] drives the cluster (the `wall_s`
//! span) and then digests its outputs.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use tiptop_core::app::{Tiptop, TiptopOptions};
use tiptop_core::cluster::{ClusterScenario, ClusterSession, ClusterWindowSink, RunStats};
use tiptop_core::config::ScreenConfig;
use tiptop_core::monitor::Monitor;
use tiptop_core::reactive::{Balanced, IpcFloor, MigrationMode, SchedulerPolicy};
use tiptop_core::render::Frame;
use tiptop_core::scenario::Scenario;
use tiptop_kernel::program::{Phase, Program};
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_machine::config::MachineConfig;
use tiptop_machine::exec::ExecProfile;
use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_workloads::datacenter::{fig10_script, users};

use crate::digest::{self, Fnv};
use crate::probe::{self, ProbeMonitor, ProbeSink, StreamBoard, TimedPolicy};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DcBurst,
    FleetFrames,
    FleetReactive,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DcBurst,
        Workload::FleetFrames,
        Workload::FleetReactive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DcBurst => "dc_burst",
            Workload::FleetFrames => "fleet_frames",
            Workload::FleetReactive => "fleet_reactive",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Worker threads the cluster driver is asked for. One: with the driving
/// thread that makes two busy threads, as many as the 2-CPU measuring host
/// runs at once. A second worker would oversubscribe it, and the tail of
/// the refresh gaps would time the host's scheduler.
pub const WORKER_THREADS: usize = 1;

/// Run size: `Full` is the benchmark, `Tiny` the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    pub fn parse(s: &str) -> Option<Size> {
        [Size::Full, Size::Tiny].into_iter().find(|z| z.name() == s)
    }
}

/// Time compression of the Figure 10 script (1.0 = the paper's hour).
fn dc_scale(size: Size) -> f64 {
    match size {
        Size::Full => 0.002,
        Size::Tiny => 0.001,
    }
}
const DC_DELAY_S: f64 = 2.0;
/// Refreshes observed after the last burst job leaves.
const DC_RECOVERY_FRAMES: usize = 8;

/// `(machines, refreshes per machine)`.
fn fleet_frames_shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (100, 2000),
        Size::Tiny => (8, 50),
    }
}
const FLEET_DELAY_MS: u64 = 20;
const LIGHT_JOBS: usize = 3;

fn fleet_reactive_shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (16, 6000),
        Size::Tiny => (8, 40),
    }
}
const REACTIVE_DELAY_MS: u64 = 100;
/// Machine `i` refreshes every `REACTIVE_DELAY_MS` + (`i`+1) of these, so
/// no two machines share a sim instant within the run's 6000 refreshes
/// and each round advances one machine inline. With every machine due at
/// once, each round spawned and joined a worker thread, and the run timed
/// how fast the host woke its idle second CPU more than the round driver.
const REACTIVE_STAGGER_US: u64 = 1;
/// Every `CANARY_EVERY`-th machine carries a canary and a co-runner.
const CANARY_EVERY: usize = 4;
const CANARY_FLOOR_IPC: f64 = 1.0;
const CANARY_PATIENCE_MS: u64 = 200;
/// Each canary phase lasts about this long on the 3.07 GHz W3550.
const CANARY_PHASE_S: f64 = 0.6;
const W3550_HZ: f64 = 3.07e9;

const WINDOW: usize = 256;
const USER1: Uid = Uid(1);
const USER2: Uid = Uid(2);

/// Everything a run needs, built before the clock starts.
pub struct Setup {
    workload: Workload,
    size: Size,
    trace: bool,
    cluster: ClusterSession,
    monitors: Vec<Option<Box<dyn Monitor + Send>>>,
    policies: Vec<Box<dyn SchedulerPolicy>>,
    board: StreamBoard,
    /// Host seconds of `ClusterScenario::build` alone.
    build_s: f64,
    /// `dc_burst` only: when user2's burst arrives (sim seconds).
    arrival: f64,
}

fn tiptop(delay: SimDuration) -> Box<dyn Monitor + Send> {
    Box::new(Tiptop::new(
        TiptopOptions::default().observer(Uid::ROOT).delay(delay),
        ScreenConfig::default_screen(),
    ))
}

fn profile(name: &str, cpi: f64) -> ExecProfile {
    ExecProfile::builder(name)
        .base_cpi(cpi)
        .loads_per_insn(0.0)
        .stores_per_insn(0.0)
        .build()
}

/// splitmix64: one well-mixed draw per input.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A light machine: three endless compute jobs with no memory traffic,
/// each with a seed-drawn CPI in [0.7, 1.3).
fn light_machine(machine: &Arc<MachineConfig>, seed: u64) -> Scenario {
    let mut sc = Scenario::new(Arc::clone(machine))
        .seed(seed)
        .user(USER1, "user1")
        .user(USER2, "user2");
    for j in 0..LIGHT_JOBS {
        let draw = mix(seed.wrapping_mul(31).wrapping_add(j as u64));
        let cpi = 0.7 + 0.6 * (draw >> 11) as f64 / (1u64 << 53) as f64;
        let spec =
            SpawnSpec::new("light", USER1, Program::endless(profile("light", cpi))).seed(draw);
        sc = sc.spawn(format!("light-{j}"), spec);
    }
    sc
}

/// Build the workload's cluster, policies and monitors for `seed`.
pub fn setup(workload: Workload, size: Size, seed: u64, trace: bool) -> Setup {
    let mut cluster = ClusterScenario::new();
    let mut policies: Vec<Box<dyn SchedulerPolicy>> = Vec::new();
    let mut arrival = 0.0;
    let mut stagger = SimDuration::ZERO;
    let (machines, delay) = match workload {
        Workload::DcBurst => {
            let script = fig10_script(dc_scale(size));
            arrival = script.arrival.as_secs_f64();
            let machine = MachineConfig::datacenter_e5640()
                .noiseless()
                .with_samples(4096);
            let mut sc = Scenario::new(machine).seed(seed);
            for (uid, name) in users() {
                sc = sc.user(uid, name);
            }
            for job in script.jobs {
                // The script fixes each job's address-stream seed; mixing in
                // the workload seed gives every seed its own access streams.
                let stream = job.seed ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let spec = SpawnSpec::new(job.comm.clone(), job.uid, job.program).seed(stream);
                sc = sc.spawn_at(SimTime::ZERO + job.start, job.comm, spec);
            }
            cluster = cluster.machine("dc-node", sc);
            (1, SimDuration::from_secs_f64(DC_DELAY_S))
        }
        Workload::FleetFrames => {
            let machine = Arc::new(MachineConfig::nehalem_w3550().noiseless());
            let (n, _) = fleet_frames_shape(size);
            for i in 0..n {
                let s = seed.wrapping_mul(1000).wrapping_add(i as u64 + 1);
                cluster = cluster.machine(format!("m{i:03}"), light_machine(&machine, s));
            }
            (n, SimDuration::from_millis(FLEET_DELAY_MS))
        }
        Workload::FleetReactive => {
            let machine = Arc::new(MachineConfig::nehalem_w3550().noiseless());
            let (n, _) = fleet_reactive_shape(size);
            let fast = (CANARY_PHASE_S * W3550_HZ / 0.8) as u64;
            let slow = (CANARY_PHASE_S * W3550_HZ / 3.0) as u64;
            for i in 0..n {
                let s = seed.wrapping_mul(1000).wrapping_add(i as u64 + 1);
                let id = format!("m{i:02}");
                let mut sc = light_machine(&machine, s);
                if i % CANARY_EVERY == 0 {
                    let canary = format!("canary-{i:02}");
                    let program = Program::looping(vec![
                        Phase::compute(profile(&canary, 0.8), fast),
                        Phase::compute(profile(&canary, 3.0), slow),
                    ]);
                    sc = sc.spawn(
                        canary.clone(),
                        SpawnSpec::new(canary.clone(), USER1, program).seed(s ^ 0xc0),
                    );
                    let corun = format!("corun-{i:02}");
                    let program = Program::endless(profile(&corun, 1.1));
                    sc = sc.spawn(
                        corun.clone(),
                        SpawnSpec::new(corun, USER2, program).seed(s ^ 0xc1),
                    );
                    let relief = format!("m{:02}", (i + 1) % n);
                    let floor = IpcFloor::new(
                        id.clone(),
                        canary,
                        CANARY_FLOOR_IPC,
                        SimDuration::from_millis(CANARY_PATIENCE_MS),
                        relief,
                    )
                    .mode(MigrationMode::Resume);
                    let policy: Box<dyn SchedulerPolicy> = Box::new(Balanced::new(floor));
                    policies.push(if trace {
                        Box::new(TimedPolicy(policy))
                    } else {
                        policy
                    });
                }
                cluster = cluster.machine(id, sc);
            }
            stagger = SimDuration::from_micros(REACTIVE_STAGGER_US);
            (n, SimDuration::from_millis(REACTIVE_DELAY_MS))
        }
    };
    if trace {
        cluster = cluster.scheduler(probe::timed_planner());
    }
    let t0 = Instant::now();
    let cluster = cluster.build().expect("workload scenarios are valid");
    let build_s = t0.elapsed().as_secs_f64();
    let board: StreamBoard = Arc::new(Mutex::new(Vec::with_capacity(machines)));
    let monitors = (0..machines)
        .map(|index| {
            let m: Box<dyn Monitor + Send> = Box::new(ProbeMonitor::new(
                tiptop(delay + stagger * (index as u64 + 1)),
                index,
                trace,
                Arc::clone(&board),
            ));
            Some(m)
        })
        .collect();
    Setup {
        workload,
        size,
        trace,
        cluster,
        monitors,
        policies,
        board,
        build_s,
        arrival,
    }
}

/// One measured run's outcome.
pub struct Rep {
    pub wall_s: f64,
    pub build_s: f64,
    /// Simulated machine-seconds advanced, summed over machines.
    pub sim_machine_s: f64,
    /// Host seconds between consecutive completed fleet screens.
    pub gaps: Vec<f64>,
    pub screens: u64,
    /// Digest of every output: per-machine streams, exit records, applied
    /// decisions, sink windows and merge order.
    pub digest: u64,
    /// Per-machine stream digests, by machine index (0: no stream).
    pub streams: Vec<u64>,
    pub error: Option<String>,
    /// `None` for the round-barrier driver, which fills no `RunStats`.
    pub run_stats: Option<RunStats>,
    pub decisions: usize,
    pub epochs: u64,
    pub l3_hits: u64,
    pub l3_misses: u64,
    pub trace: probe::Snapshot,
    /// Host seconds of this repetition's set-ups (filled by the caller).
    pub setups: Vec<f64>,
    /// Reference over measured host speed around this repetition (filled
    /// by the caller; see `host::speed_probe`).
    pub scale: f64,
    /// MiB the repetition's set-up and run added to the process's peak
    /// resident set (filled by the caller).
    pub peak_rss_mib: f64,
}

impl Rep {
    /// Scale every host time of the repetition to the reference host
    /// speed. Call once.
    pub fn rescale(&mut self) {
        let k = self.scale;
        self.wall_s *= k;
        self.build_s *= k;
        for x in self.gaps.iter_mut().chain(self.setups.iter_mut()) {
            *x *= k;
        }
        self.trace.rescale(k);
    }
}

/// Drive the cluster, timing only the driver call.
pub fn run(mut s: Setup) -> Rep {
    let threads = WORKER_THREADS;
    let mut windows = ClusterWindowSink::new(WINDOW);
    let mut sink = ProbeSink::new(&mut windows, s.trace);
    let mut monitors = std::mem::take(&mut s.monitors);
    let machines = monitors.len();
    let mut take = |index: usize| monitors[index].take().expect("one monitor set per machine");
    if s.trace {
        probe::reset();
    }
    let mut applied = Vec::new();
    let t0 = Instant::now();
    let result = match s.workload {
        Workload::DcBurst => {
            let arrival = s.arrival;
            s.cluster.run_each(
                threads,
                1_000_000,
                |m| take(m.index),
                |_| {
                    let mut stop_at: Option<f64> = None;
                    Box::new(move |f: &Frame| {
                        let t = f.time.as_secs_f64();
                        if stop_at.is_none()
                            && t > arrival + DC_DELAY_S
                            && !f.rows.iter().any(|r| r.user == "user2")
                        {
                            stop_at = Some(t + DC_RECOVERY_FRAMES as f64 * DC_DELAY_S);
                        }
                        stop_at.is_some_and(|end| t >= end)
                    })
                },
                &mut sink,
            )
        }
        Workload::FleetFrames => {
            let (_, refreshes) = fleet_frames_shape(s.size);
            s.cluster
                .run_all(threads, refreshes, |m| vec![take(m.index)], &mut sink)
        }
        Workload::FleetReactive => {
            let (_, refreshes) = fleet_reactive_shape(s.size);
            s.cluster
                .run_reactive(
                    threads,
                    refreshes,
                    |m| vec![take(m.index)],
                    &mut s.policies,
                    &mut sink,
                )
                .map(|a| applied = a)
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let trace = if s.trace {
        probe::snapshot()
    } else {
        probe::Snapshot::default()
    };
    let order = sink.order();
    let screens = sink.screens;

    let produced = std::mem::take(&mut *s.board.lock().expect("stream board poisoned"));
    let gaps = probe::screen_gaps(&produced);
    let mut streams = vec![0u64; machines];
    for m in &produced {
        streams[m.index] = m.digest;
    }

    let mut h = Fnv::default();
    h.str(s.workload.name()).str(s.size.name());
    let mut sim_machine_s = 0.0;
    let (mut epochs, mut l3_hits, mut l3_misses) = (0, 0, 0);
    let ids: Vec<String> = s.cluster.machines().map(|m| m.id.to_string()).collect();
    for (index, id) in ids.iter().enumerate() {
        h.str(id).u64(streams[index]);
        let Some(session) = s.cluster.session(id) else {
            continue;
        };
        let now = session.now();
        h.u64(now.as_nanos());
        sim_machine_s += now.as_secs_f64();
        let k = session.kernel();
        for r in k.exit_records() {
            digest::exit_record(&mut h, r);
        }
        let machine = k.machine();
        epochs += machine.epochs_executed();
        for socket in 0..machine.topology().sockets() {
            let (hits, misses) = machine.l3_stats(socket);
            l3_hits += hits;
            l3_misses += misses;
        }
    }
    for d in &applied {
        digest::decision(&mut h, d);
    }
    for w in windows.finish() {
        digest::window(&mut h, &w);
    }
    h.u64(order);

    Rep {
        wall_s,
        build_s: s.build_s,
        sim_machine_s,
        gaps,
        screens,
        digest: h.get(),
        streams,
        error: result.err().map(|e| e.to_string()),
        run_stats: (s.workload != Workload::FleetReactive).then(|| s.cluster.last_run_stats()),
        decisions: applied.len(),
        epochs,
        l3_hits,
        l3_misses,
        trace,
        setups: Vec::new(),
        scale: 1.0,
        peak_rss_mib: 0.0,
    }
}
