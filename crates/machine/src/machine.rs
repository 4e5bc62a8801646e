//! The machine itself: topology + caches + the slice execution engine.
//!
//! The kernel drives the machine in *epochs*: it picks, per processing unit,
//! the task to run and a cycle budget, and calls [`Machine::execute_epoch`]
//! with all concurrently-running slices at once. Executing them *jointly* is
//! what makes contention real: every slice's sampled address stream is
//! interleaved — in proportion to its access rate — through the same L1/L2
//! (per physical core, shared by SMT siblings) and L3 (per socket, shared by
//! all its cores) before any CPI is computed.
//!
//! The interleave is a merge on virtual epoch time: slice `i`'s `j`-th of
//! `q_i` sampled accesses happens at `(j + ½) / q_i`. `Interleave` runs it
//! with no division and no heap in the per-access loop — integer keys
//! advanced by a fixed step plus a carried remainder, and an argmin over the
//! handful of co-running slices — and its order is provably the one the
//! earlier `BinaryHeap` over f64 times produced (see `Interleave`). Each
//! slice's core and socket are looked up once per epoch, not per access.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::access::TaskStream;
use crate::cache::SetAssocCache;
use crate::config::MachineConfig;
use crate::exec::{ExecOutcome, ExecProfile, FpUnit};
use crate::pmu::{EventCounts, HwEvent};
use crate::topology::{PuId, Topology};

/// One task's share of an epoch on one PU.
pub struct SliceRequest<'a> {
    pub pu: PuId,
    pub profile: &'a ExecProfile,
    pub stream: &'a mut TaskStream,
    /// Cycle budget for this slice.
    pub cycles: u64,
    /// Stop early after retiring this many instructions (used by the kernel
    /// to respect phase boundaries).
    pub max_instructions: Option<u64>,
    /// CPI observed for this task in its previous slice; used to estimate
    /// relative access rates for stream interleaving. `0.0` = unknown.
    pub cpi_hint: f64,
}

impl<'a> SliceRequest<'a> {
    pub fn new(pu: PuId, profile: &'a ExecProfile, stream: &'a mut TaskStream) -> Self {
        SliceRequest {
            pu,
            profile,
            stream,
            cycles: 0,
            max_instructions: None,
            cpi_hint: 0.0,
        }
    }

    pub fn cycles(mut self, c: u64) -> Self {
        self.cycles = c;
        self
    }

    pub fn max_instructions(mut self, n: u64) -> Self {
        self.max_instructions = Some(n);
        self
    }

    pub fn cpi_hint(mut self, cpi: f64) -> Self {
        self.cpi_hint = cpi;
        self
    }
}

/// Number of co-running slices beyond which the joint cache-sampling budget
/// stops growing: an epoch's total samples are
/// `cache_samples_per_slice * min(slices, JOINT_SAMPLE_SLICES)`, split
/// proportionally to each slice's estimated access rate.
pub const JOINT_SAMPLE_SLICES: usize = 4;

/// Largest per-slice sample quota the interleave accepts: `16 ×`
/// [`MachineConfig::MAX_SAMPLES_PER_SLICE`], the most the quota clamp in
/// `sample_caches` can hand one slice. Up to this bound the integer merge
/// is exactly the f64 merge it replaced.
pub(crate) const MAX_QUOTA: u64 = 1 << 19;

/// Fixed point of the merge's virtual time: `[0, 1)` maps to `[0, 2^40)`.
const TIME_BITS: u32 = 40;
/// Low bits of a packed merge key that hold the slice index.
const SLOT_BITS: u32 = 16;
/// Packed key of a slice whose quota is spent: above every live key.
const DONE: u64 = u64::MAX;

/// Division-free merge of per-slice access streams on virtual epoch time.
///
/// Slice `i`'s `j`-th access (`0 ≤ j < q_i`) is keyed by
/// `floor((2j+1)·2^40 / (2q_i))`, i.e. `floor(t·2^40)` for the exact
/// rational time `t = (j + ½)/q_i`, and the merge yields slice indices in
/// increasing `(key, i)` order, so equal times go to the lower index. Each
/// key is `(numerator div 2q_i)`; consecutive numerators differ by `2^41`,
/// so a key advances by `2^41 div 2q_i` plus a carry out of a remainder
/// that grows by `2^41 mod 2q_i` — Bresenham's line, all integer adds and
/// one compare. Keys are packed as `key << 16 | i` so a plain `min` over
/// the co-running slices (at most 16 on the shipped machines) is the
/// lexicographic argmin.
///
/// **Equal to the former f64 order for every quota ≤ [`MAX_QUOTA`] =
/// 2^19.** The heap it replaces ordered by
/// `(floor(fl((j + 0.5) / q) · 2^40), i)`, `fl` being IEEE division.
/// * Two distinct times differ by at least `1/(2 q_a q_b) ≥ 2^-39`: their
///   difference is a non-zero integer over `2 q_a q_b`. Scaled by `2^40`
///   they are at least 2 apart, so their exact floors differ, in the same
///   direction.
/// * IEEE division is correctly rounded: for `t < 1`, `|fl(t) − t| ≤
///   2^-54`, which is `≤ 2^-14` after scaling (`j + 0.5` and the product
///   by `2^40` are exact). Two scaled times at least 2 apart stay more than
///   1 apart, so their f64 floors differ in the same direction too.
/// * Equal times have equal keys under both schemes, and both break the tie
///   by slice index.
///
/// Hence the two merges emit the same sequence, though an individual key
/// may differ by one between them. Keys stay below `2^40` (`t < 1`), so a
/// packed key fits in 56 bits and never reaches `DONE`.
pub(crate) struct Interleave {
    /// Packed `key << SLOT_BITS | slice` of each slice's next access, or
    /// `DONE`.
    keys: Vec<u64>,
    lanes: Vec<Lane>,
}

/// Per-slice state of an `Interleave`.
struct Lane {
    /// Accesses still to emit.
    left: u64,
    /// The key's denominator, `2q`.
    den: u64,
    /// Numerator remainder, `< den`.
    rem: u64,
    /// `2^41 div 2q`, pre-shifted into packed position.
    step: u64,
    /// `2^41 mod 2q`.
    step_rem: u64,
}

impl Interleave {
    /// A merge of `quotas[i]` accesses of each slice `i`.
    ///
    /// # Panics
    /// Panics on a quota of 0 or above [`MAX_QUOTA`], or on more than
    /// `2^16` slices.
    pub(crate) fn new(quotas: &[u64]) -> Self {
        assert!(quotas.len() <= 1 << SLOT_BITS, "too many slices to merge");
        let one = 1u64 << TIME_BITS;
        let (keys, lanes) = quotas
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                assert!(
                    (1..=MAX_QUOTA).contains(&q),
                    "sample quota {q} outside 1..={MAX_QUOTA}, where the interleave is exact"
                );
                let den = 2 * q;
                let key = (one / den) << SLOT_BITS | i as u64;
                let lane = Lane {
                    left: q,
                    den,
                    rem: one % den,
                    step: (2 * one / den) << SLOT_BITS,
                    step_rem: 2 * one % den,
                };
                (key, lane)
            })
            .unzip();
        Interleave { keys, lanes }
    }
}

impl Iterator for Interleave {
    type Item = usize;

    /// The slice whose next access comes first.
    #[inline]
    fn next(&mut self) -> Option<usize> {
        let packed = self.keys.iter().copied().min().filter(|&k| k != DONE)?;
        let i = (packed & ((1 << SLOT_BITS) - 1)) as usize;
        let lane = &mut self.lanes[i];
        lane.left -= 1;
        let rem = lane.rem + lane.step_rem;
        let carry = (rem >= lane.den) as u64;
        lane.rem = rem - carry * lane.den;
        let next = packed + lane.step + (carry << SLOT_BITS);
        self.keys[i] = if lane.left == 0 { DONE } else { next };
        Some(i)
    }
}

/// Per-slice cache sampling tallies.
#[derive(Clone, Copy, Default)]
struct SampleStats {
    sampled: u64,
    l1_miss: u64,
    l2_miss: u64,
    l3_miss: u64,
    penalty_sum: f64,
}

/// The simulated machine.
///
/// The configuration is held behind an [`Arc`]: a fleet of identical
/// simulated machines (the cluster bench instantiates 1000) shares one
/// `MachineConfig` allocation — topology tree, uarch tables and all —
/// instead of deep-copying it per machine.
pub struct Machine {
    cfg: Arc<MachineConfig>,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    l3: Vec<SetAssocCache>,
    noise_rng: SmallRng,
    epochs_executed: u64,
}

impl Machine {
    pub fn new(cfg: impl Into<Arc<MachineConfig>>, seed: u64) -> Self {
        let cfg = cfg.into();
        let cores = cfg.topology.num_cores();
        let sockets = cfg.topology.sockets();
        Machine {
            l1: (0..cores)
                .map(|_| SetAssocCache::new(cfg.uarch.l1d))
                .collect(),
            l2: (0..cores)
                .map(|_| SetAssocCache::new(cfg.uarch.l2))
                .collect(),
            l3: (0..sockets)
                .map(|_| SetAssocCache::new(cfg.uarch.l3))
                .collect(),
            noise_rng: SmallRng::seed_from_u64(seed ^ 0x6d61_6368_696e_6531),
            cfg,
            epochs_executed: 0,
        }
    }

    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The shared configuration handle (a clone is a refcount bump).
    pub fn shared_config(&self) -> Arc<MachineConfig> {
        Arc::clone(&self.cfg)
    }

    pub fn topology(&self) -> &Topology {
        &self.cfg.topology
    }

    /// hwloc-style rendering (the paper's Fig 11 (c)).
    pub fn render_topology(&self) -> String {
        let u = &self.cfg.uarch;
        self.cfg
            .topology
            .render(u.l1d.size_kib(), u.l2.size_kib(), u.l3.size_kib())
    }

    pub fn epochs_executed(&self) -> u64 {
        self.epochs_executed
    }

    /// Lifetime (hits, misses) of a socket's shared L3 — for tests and
    /// ablations.
    pub fn l3_stats(&self, socket: usize) -> (u64, u64) {
        self.l3[socket].stats()
    }

    /// Drop all cache contents (used between independent experiments sharing
    /// one machine).
    pub fn flush_caches(&mut self) {
        for c in self
            .l1
            .iter_mut()
            .chain(self.l2.iter_mut())
            .chain(self.l3.iter_mut())
        {
            c.flush();
        }
    }

    /// Execute one epoch: all slices run concurrently on their PUs.
    ///
    /// # Panics
    /// Panics if two slices name the same PU, or a PU is out of range.
    pub fn execute_epoch(&mut self, slices: &mut [SliceRequest<'_>]) -> Vec<ExecOutcome> {
        self.epochs_executed += 1;
        let n = slices.len();
        if n == 0 {
            return Vec::new();
        }
        // Refcount bump, not a deep copy: keeps the config borrowable
        // alongside the `&mut self` cache sampling below.
        let cfg = Arc::clone(&self.cfg);
        let topo = &cfg.topology;

        // --- sanity: one slice per PU ---
        {
            let mut seen = vec![false; topo.num_pus()];
            for s in slices.iter() {
                assert!(s.pu.0 < topo.num_pus(), "PU {} out of range", s.pu.0);
                assert!(!seen[s.pu.0], "two slices on PU {}", s.pu.0);
                seen[s.pu.0] = true;
            }
        }

        // --- which physical cores have both SMT siblings busy? ---
        let mut busy_on_core = vec![0u32; topo.num_cores()];
        for s in slices.iter() {
            busy_on_core[topo.core_of(s.pu).0] += 1;
        }

        // --- phase 1: jointly sample the cache hierarchy ---
        let stats = self.sample_caches(slices, topo);

        // --- phase 2: analytic CPI and event accounting per slice ---
        let mut out = Vec::with_capacity(n);
        for (i, s) in slices.iter_mut().enumerate() {
            let st = &stats[i];
            let u = &cfg.uarch;
            let p = s.profile;

            let smt_busy = busy_on_core[topo.core_of(s.pu).0] > 1;
            let mut base = p.base_cpi.max(u.min_cpi());
            if smt_busy {
                base /= u.smt_share;
            }

            let apc = p.accesses_per_insn();
            let avg_penalty = if st.sampled > 0 {
                st.penalty_sum / st.sampled as f64
            } else {
                0.0
            };
            let mem_cpi = apc * avg_penalty / p.mlp.max(0.25);
            let branch_cpi = p.branches_per_insn * p.branch_miss_rate * u.branch_penalty;
            let assist_frac = assist_fraction(p, &u.assists);
            let assist_cpi = p.fp_per_insn * assist_frac * u.fp_assist_cost;

            let mut cpi = base + mem_cpi + branch_cpi + assist_cpi;
            if cfg.cpi_noise > 0.0 {
                // Cheap symmetric noise: mean 0, bounded, deterministic.
                let g: f64 = self.noise_rng.random::<f64>() + self.noise_rng.random::<f64>()
                    - self.noise_rng.random::<f64>()
                    - self.noise_rng.random::<f64>();
                cpi *= (1.0 + cfg.cpi_noise * g).max(0.2);
            }

            let mut instructions = (s.cycles as f64 / cpi).floor() as u64;
            let mut cycles_used = s.cycles;
            if let Some(cap) = s.max_instructions {
                if instructions > cap {
                    instructions = cap;
                    cycles_used = ((instructions as f64 * cpi).ceil() as u64).min(s.cycles);
                }
            }

            out.push(build_outcome(
                p,
                st,
                instructions,
                cycles_used,
                assist_frac,
                mem_cpi,
            ));
        }
        out
    }

    /// Interleave every slice's sampled address stream through the shared
    /// hierarchy, in proportion to its estimated access rate, and collect
    /// per-slice hit/miss tallies.
    ///
    /// The joint sample budget grows with the number of co-running slices
    /// only up to [`JOINT_SAMPLE_SLICES`]: contention fidelity comes from
    /// *interleaving* the streams, not from the raw sample count, and past
    /// a few co-runners the per-epoch estimates are already averaged over
    /// many epochs by the seconds-scale observation granularity. Capping
    /// the budget makes heavily co-scheduled epochs (the Fig 10 data-center
    /// burst runs 7 jobs at once) proportionally cheaper instead of
    /// linearly more expensive.
    fn sample_caches(
        &mut self,
        slices: &mut [SliceRequest<'_>],
        topo: &Topology,
    ) -> Vec<SampleStats> {
        let n = slices.len();
        let k_base = self.cfg.cache_samples_per_slice as f64;
        let u = &self.cfg.uarch;

        // Expected accesses per slice, for proportional sample allocation.
        let weights: Vec<f64> = slices
            .iter()
            .map(|s| {
                let cpi = if s.cpi_hint > 0.0 {
                    s.cpi_hint
                } else {
                    s.profile.base_cpi.max(0.1)
                };
                let apc = s.profile.accesses_per_insn();
                (s.cycles as f64 / cpi * apc).max(0.0)
            })
            .collect();
        let total_w: f64 = weights.iter().sum();
        if total_w <= 0.0 {
            return vec![SampleStats::default(); n];
        }
        let k_total = k_base * (n as f64).min(JOINT_SAMPLE_SLICES as f64);
        let quotas: Vec<u64> = weights
            .iter()
            .map(|w| ((k_total * w / total_w).round() as u64).clamp(16, (k_total * 4.0) as u64))
            .collect();

        // Placement and per-level cost, resolved once per epoch.
        let cores: Vec<usize> = slices.iter().map(|s| topo.core_of(s.pu).0).collect();
        let sockets: Vec<usize> = slices.iter().map(|s| topo.socket_of(s.pu).0).collect();
        // Indexed by the level that served the access: L1, L2, L3, memory.
        // An L1 hit adds +0.0, which leaves the (non-negative) sum's bits
        // unchanged.
        let penalty = [0.0, u.lat_l2, u.lat_l3, u.lat_mem];
        let mut stats = vec![SampleStats::default(); n];

        for i in Interleave::new(&quotas) {
            let s = &mut slices[i];
            let addr = s.stream.next_addr(&s.profile.mem);
            let core = cores[i];
            let level = if self.l1[core].access(addr) {
                0
            } else if self.l2[core].access(addr) {
                1
            } else if self.l3[sockets[i]].access(addr) {
                2
            } else {
                3
            };

            let st = &mut stats[i];
            st.sampled += 1;
            st.l1_miss += (level >= 1) as u64;
            st.l2_miss += (level >= 2) as u64;
            st.l3_miss += (level >= 3) as u64;
            st.penalty_sum += penalty[level];
        }
        stats
    }
}

/// Fraction of this profile's FP ops that take a micro-code assist on a
/// machine with the given triggers.
fn assist_fraction(p: &ExecProfile, t: &crate::config::AssistTriggers) -> f64 {
    let nonfinite = match p.fp_unit {
        FpUnit::X87 => {
            if t.x87_nonfinite {
                p.nonfinite_frac
            } else {
                0.0
            }
        }
        FpUnit::Sse | FpUnit::Generic => {
            if t.sse_nonfinite {
                p.nonfinite_frac
            } else {
                0.0
            }
        }
    };
    let denormal = if t.denormal { p.denormal_frac } else { 0.0 };
    (nonfinite + denormal).min(1.0)
}

fn build_outcome(
    p: &ExecProfile,
    st: &SampleStats,
    instructions: u64,
    cycles: u64,
    assist_frac: f64,
    mem_cpi: f64,
) -> ExecOutcome {
    let insn_f = instructions as f64;
    let rate = |num: u64| {
        if st.sampled == 0 {
            0.0
        } else {
            num as f64 / st.sampled as f64
        }
    };
    let accesses = p.accesses_per_insn() * insn_f;

    let mut ev = EventCounts::ZERO;
    ev.set(HwEvent::Cycles, cycles);
    ev.set(HwEvent::Instructions, instructions);
    ev.set(HwEvent::RefCycles, cycles);

    let loads = (p.loads_per_insn * insn_f).round() as u64;
    let stores = (p.stores_per_insn * insn_f).round() as u64;
    ev.set(HwEvent::Loads, loads);
    ev.set(HwEvent::Stores, stores);

    // Hierarchy-consistent miss counts: L3 misses ⊆ L2 misses ⊆ L1 misses ⊆ accesses.
    let l1m = (rate(st.l1_miss) * accesses).round() as u64;
    let l2m = ((rate(st.l2_miss) * accesses).round() as u64).min(l1m);
    let l3m = ((rate(st.l3_miss) * accesses).round() as u64).min(l2m);
    ev.set(HwEvent::L1dMisses, l1m);
    ev.set(HwEvent::L2Misses, l2m);
    ev.set(HwEvent::CacheReferences, l2m); // accesses that reach the LLC
    ev.set(HwEvent::CacheMisses, l3m);

    let branches = (p.branches_per_insn * insn_f).round() as u64;
    ev.set(HwEvent::BranchInstructions, branches);
    ev.set(
        HwEvent::BranchMisses,
        ((p.branch_miss_rate * branches as f64).round() as u64).min(branches),
    );

    let fp = (p.fp_per_insn * insn_f).round() as u64;
    ev.set(HwEvent::FpOps, fp);
    ev.set(
        HwEvent::FpAssists,
        ((assist_frac * fp as f64).round() as u64).min(fp),
    );

    ev.set(
        HwEvent::StallCyclesMem,
        ((mem_cpi * insn_f).round() as u64).min(cycles),
    );

    ExecOutcome {
        cycles,
        instructions,
        events: ev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::MemoryBehavior;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The merge `Interleave` replaced: a min-heap on
    /// `((j + 0.5) / q · 2^40) as u64` in f64, ties to the lower index.
    fn heap_merge(quotas: &[u64]) -> Vec<usize> {
        let scale = 1u64 << 40;
        let mut heap = BinaryHeap::new();
        for (i, &q) in quotas.iter().enumerate() {
            if q > 0 {
                heap.push(Reverse(((0.5 / q as f64 * scale as f64) as u64, i)));
            }
        }
        let mut emitted = vec![0u64; quotas.len()];
        let mut order = Vec::new();
        while let Some(Reverse((_, i))) = heap.pop() {
            order.push(i);
            emitted[i] += 1;
            if emitted[i] < quotas[i] {
                let t = ((emitted[i] as f64 + 0.5) / quotas[i] as f64 * scale as f64) as u64;
                heap.push(Reverse((t, i)));
            }
        }
        order
    }

    #[test]
    fn interleave_matches_the_f64_heap_merge() {
        let mut rng = SmallRng::seed_from_u64(0x6d_6572_6765); // "merge"
        for case in 0..500 {
            let slices = rng.random_range(1..17) as usize;
            // Quotas are log-uniform over [16, 2^top], `top` itself uniform
            // up to 16: every scale up to 65,536 is covered without every
            // case merging a million accesses.
            let top = rng.random_range(4..17);
            let draw = |rng: &mut SmallRng| {
                let bits = rng.random_range(4..top + 1);
                rng.random_range(1 << (bits - 1)..(1 << bits) + 1).max(16)
            };
            let quotas: Vec<u64> = match case % 4 {
                // Equal quotas: every access time ties across all slices.
                0 => vec![draw(&mut rng); slices],
                // Integer multiples of one base: the base's times recur in
                // every multiple.
                1 => {
                    let base = draw(&mut rng);
                    (0..slices)
                        .map(|_| base * rng.random_range(1..(1 << top) / base + 1))
                        .collect()
                }
                _ => (0..slices).map(|_| draw(&mut rng)).collect(),
            };
            let merged: Vec<usize> = Interleave::new(&quotas).collect();
            assert!(
                merged == heap_merge(&quotas),
                "case {case}: quotas {quotas:?}"
            );
        }
    }

    #[test]
    fn interleave_handles_no_slices_and_extreme_quotas() {
        assert_eq!(Interleave::new(&[]).count(), 0);
        let quotas = [MAX_QUOTA, 1, MAX_QUOTA - 1];
        let merged: Vec<usize> = Interleave::new(&quotas).collect();
        assert_eq!(merged.len() as u64, 2 * MAX_QUOTA);
        assert!(merged == heap_merge(&quotas));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn interleave_rejects_a_quota_past_the_exact_bound() {
        Interleave::new(&[16, MAX_QUOTA + 1]);
    }

    fn machine() -> Machine {
        Machine::new(MachineConfig::nehalem_w3550().noiseless(), 7)
    }

    fn small_profile(name: &str, footprint: u64) -> ExecProfile {
        ExecProfile::builder(name)
            .base_cpi(0.75)
            .branches(0.18, 0.0) // no mispredictions: isolate memory effects
            .memory(MemoryBehavior::uniform(footprint))
            .build()
    }

    /// Epochs needed to stream a footprint through sampled warmup, with slack.
    fn warm_epochs(m: &Machine, footprint: u64, co_runners: u64) -> u64 {
        let lines = footprint / 64;
        let per_epoch = m.config().cache_samples_per_slice as u64;
        (lines * co_runners * 8 / per_epoch).max(4)
    }

    /// Run `profile` alone on PU `pu` for `cycles`, warming first.
    fn run_alone(m: &mut Machine, pu: usize, profile: &ExecProfile, cycles: u64) -> ExecOutcome {
        let mut stream = TaskStream::new(pu as u64 + 1, 1234 + pu as u64);
        for _ in 0..warm_epochs(m, profile.mem.footprint(), 1) {
            let mut req = [SliceRequest::new(PuId(pu), profile, &mut stream).cycles(cycles)];
            m.execute_epoch(&mut req);
        }
        let mut req = [SliceRequest::new(PuId(pu), profile, &mut stream).cycles(cycles)];
        m.execute_epoch(&mut req)[0]
    }

    #[test]
    fn cache_resident_workload_hits_near_base_cpi() {
        let mut m = machine();
        let p = small_profile("tiny", 16 * 1024); // fits L1
        let o = run_alone(&mut m, 0, &p, 10_000_000);
        let ipc = o.ipc();
        assert!(
            (1.25..=1.34).contains(&ipc),
            "L1-resident workload should run at ~1/base_cpi = 1.33, got {ipc}"
        );
        // Consistency of the event vector.
        assert_eq!(o.events.get(HwEvent::Cycles), o.cycles);
        assert_eq!(o.events.get(HwEvent::Instructions), o.instructions);
        assert!(o.events.get(HwEvent::CacheMisses) <= o.events.get(HwEvent::CacheReferences));
        assert!(o.events.get(HwEvent::L1dMisses) >= o.events.get(HwEvent::L2Misses));
    }

    #[test]
    fn bigger_footprints_mean_lower_ipc() {
        let mut m = machine();
        let small = run_alone(&mut m, 0, &small_profile("s", 16 << 10), 10_000_000);
        m.flush_caches();
        let medium = run_alone(&mut m, 0, &small_profile("m", 2 << 20), 10_000_000);
        m.flush_caches();
        let huge = run_alone(&mut m, 0, &small_profile("h", 256 << 20), 10_000_000);
        assert!(
            small.ipc() > medium.ipc() && medium.ipc() > huge.ipc(),
            "IPC must degrade with footprint: {} > {} > {}",
            small.ipc(),
            medium.ipc(),
            huge.ipc()
        );
        assert!(huge.events.get(HwEvent::CacheMisses) > medium.events.get(HwEvent::CacheMisses));
    }

    #[test]
    fn max_instructions_caps_the_slice() {
        let mut m = machine();
        let p = small_profile("capped", 16 << 10);
        let mut stream = TaskStream::new(1, 5);
        let mut req = [SliceRequest::new(PuId(0), &p, &mut stream)
            .cycles(1_000_000)
            .max_instructions(1000)];
        let o = m.execute_epoch(&mut req)[0];
        assert_eq!(o.instructions, 1000);
        assert!(
            o.cycles < 1_000_000,
            "cycles {} should shrink with the cap",
            o.cycles
        );
        assert!(
            o.cycles >= 500,
            "1000 insns can't take fewer than min_cpi cycles"
        );
    }

    #[test]
    fn smt_siblings_slow_each_other_down() {
        let mut m = machine();
        let p = small_profile("smt", 16 << 10);
        let alone = run_alone(&mut m, 0, &p, 10_000_000);

        // Same workload on PUs 0 and 4 (SMT siblings on core 0).
        let mut s0 = TaskStream::new(10, 1);
        let mut s1 = TaskStream::new(11, 2);
        for _ in 0..warm_epochs(&m, 2 * p.mem.footprint(), 2) {
            let mut reqs = [
                SliceRequest::new(PuId(0), &p, &mut s0).cycles(10_000_000),
                SliceRequest::new(PuId(4), &p, &mut s1).cycles(10_000_000),
            ];
            m.execute_epoch(&mut reqs);
        }
        let mut reqs = [
            SliceRequest::new(PuId(0), &p, &mut s0).cycles(10_000_000),
            SliceRequest::new(PuId(4), &p, &mut s1).cycles(10_000_000),
        ];
        let both = m.execute_epoch(&mut reqs);
        let ratio = both[0].ipc() / alone.ipc();
        assert!(
            (0.5..0.8).contains(&ratio),
            "SMT sibling should retain ~smt_share of solo IPC, got {ratio}"
        );
    }

    #[test]
    fn different_cores_no_smt_penalty_for_small_sets() {
        let mut m = machine();
        let p = small_profile("pair", 16 << 10);
        let alone = run_alone(&mut m, 0, &p, 10_000_000);
        let mut s0 = TaskStream::new(10, 1);
        let mut s1 = TaskStream::new(11, 2);
        // PUs 0 and 1 are different physical cores; L1-resident sets don't
        // contend in L3.
        for _ in 0..8 {
            let mut reqs = [
                SliceRequest::new(PuId(0), &p, &mut s0).cycles(10_000_000),
                SliceRequest::new(PuId(1), &p, &mut s1).cycles(10_000_000),
            ];
            m.execute_epoch(&mut reqs);
        }
        let mut reqs = [
            SliceRequest::new(PuId(0), &p, &mut s0).cycles(10_000_000),
            SliceRequest::new(PuId(1), &p, &mut s1).cycles(10_000_000),
        ];
        let both = m.execute_epoch(&mut reqs);
        let ratio = both[0].ipc() / alone.ipc();
        assert!(
            ratio > 0.95,
            "no SMT penalty across cores, got ratio {ratio}"
        );
    }

    #[test]
    fn shared_l3_contention_emerges() {
        // Two tasks whose warm tier is ~60% of L3 each: alone it fits,
        // together they thrash — the paper's Fig 11 (a)/(b) mechanism.
        let cfg = MachineConfig::nehalem_w3550().noiseless();
        let warm = (cfg.uarch.l3.size_bytes as f64 * 0.6) as u64;
        let p = ExecProfile::builder("mcf-ish")
            .base_cpi(0.9)
            .loads_per_insn(0.35)
            .stores_per_insn(0.1)
            .memory(MemoryBehavior::uniform(warm))
            .mlp(1.5)
            .build();

        let mut m = Machine::new(cfg, 3);
        let alone = run_alone(&mut m, 0, &p, 50_000_000);

        m.flush_caches();
        let mut s0 = TaskStream::new(20, 1);
        let mut s1 = TaskStream::new(21, 2);
        let run_pair = |m: &mut Machine, s0: &mut TaskStream, s1: &mut TaskStream| {
            let mut reqs = [
                SliceRequest::new(PuId(0), &p, s0).cycles(50_000_000),
                SliceRequest::new(PuId(1), &p, s1).cycles(50_000_000),
            ];
            m.execute_epoch(&mut reqs)
        };
        for _ in 0..warm_epochs(&m, 2 * warm, 2) {
            run_pair(&mut m, &mut s0, &mut s1);
        }
        let both = run_pair(&mut m, &mut s0, &mut s1);

        let solo_missrate = alone.events.get(HwEvent::CacheMisses) as f64
            / alone.events.get(HwEvent::Instructions) as f64;
        let pair_missrate = both[0].events.get(HwEvent::CacheMisses) as f64
            / both[0].events.get(HwEvent::Instructions) as f64;
        assert!(
            pair_missrate > solo_missrate * 1.5,
            "shared-L3 thrash: pair LLC missrate {pair_missrate} vs solo {solo_missrate}"
        );
        assert!(
            both[0].ipc() < alone.ipc() * 0.97,
            "co-runner must cost IPC"
        );
    }

    #[test]
    fn x87_assists_collapse_ipc_but_sse_does_not() {
        let mut m = machine();
        let mk = |unit: FpUnit, nonfinite: f64| {
            ExecProfile::builder("fp")
                .base_cpi(0.75)
                .loads_per_insn(0.0)
                .stores_per_insn(0.0)
                .branches(0.25, 0.0)
                .fp(0.25, unit)
                .operand_classes(nonfinite, 0.0)
                .memory(MemoryBehavior::uniform(4096))
                .build()
        };
        let x87_fin = run_alone(&mut m, 0, &mk(FpUnit::X87, 0.0), 10_000_000);
        let x87_inf = run_alone(&mut m, 1, &mk(FpUnit::X87, 1.0), 10_000_000);
        let sse_inf = run_alone(&mut m, 2, &mk(FpUnit::Sse, 1.0), 10_000_000);
        let slowdown = x87_fin.ipc() / x87_inf.ipc();
        assert!(slowdown > 50.0, "x87 assist slowdown was only {slowdown}x");
        assert!(
            (sse_inf.ipc() / x87_fin.ipc()) > 0.95,
            "SSE must not assist on Inf/NaN (Table 1)"
        );
        assert!(x87_inf.events.get(HwEvent::FpAssists) > 0);
        assert_eq!(sse_inf.events.get(HwEvent::FpAssists), 0);
    }

    #[test]
    fn ppc970_has_no_assist_collapse() {
        let mut m = Machine::new(MachineConfig::ppc970_machine().noiseless(), 9);
        let p = ExecProfile::builder("fp")
            .base_cpi(0.9)
            .branches(0.18, 0.0)
            .fp(0.25, FpUnit::Generic)
            .operand_classes(1.0, 0.0)
            .memory(MemoryBehavior::uniform(4096))
            .build();
        let o = run_alone(&mut m, 0, &p, 10_000_000);
        assert_eq!(o.events.get(HwEvent::FpAssists), 0);
        assert!(
            o.ipc() > 0.9,
            "PPC970 IPC should be unaffected, got {}",
            o.ipc()
        );
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = || {
            let mut m = Machine::new(MachineConfig::nehalem_w3550(), 1234);
            let p = small_profile("d", 1 << 20);
            let mut s = TaskStream::new(1, 42);
            let mut total = EventCounts::ZERO;
            for _ in 0..5 {
                let mut req = [SliceRequest::new(PuId(0), &p, &mut s).cycles(5_000_000)];
                let o = m.execute_epoch(&mut req)[0];
                total.accumulate(&o.events);
            }
            total
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "two slices on PU")]
    fn duplicate_pu_rejected() {
        let mut m = machine();
        let p = small_profile("dup", 4096);
        let mut s0 = TaskStream::new(1, 1);
        let mut s1 = TaskStream::new(2, 2);
        let mut reqs = [
            SliceRequest::new(PuId(0), &p, &mut s0).cycles(1000),
            SliceRequest::new(PuId(0), &p, &mut s1).cycles(1000),
        ];
        m.execute_epoch(&mut reqs);
    }

    #[test]
    fn zero_cycles_zero_outcome() {
        let mut m = machine();
        let p = small_profile("z", 4096);
        let mut s = TaskStream::new(1, 1);
        let mut req = [SliceRequest::new(PuId(0), &p, &mut s).cycles(0)];
        let o = m.execute_epoch(&mut req)[0];
        assert_eq!(o.instructions, 0);
        assert_eq!(o.cycles, 0);
    }
}
