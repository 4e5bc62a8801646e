//! Machine configuration: micro-architecture parameter sets and presets for
//! the three processor families the paper evaluates on.
//!
//! The presets are calibrated to the published characteristics of the actual
//! evaluation machines:
//!
//! * **Nehalem** — Intel Xeon W3550 (3.07 GHz, 4 cores, SMT, 8 MB L3) used in
//!   §2.5/§3.1–3.3 and the quad-core of Fig 11; Xeon E5640 (2.67 GHz, 2×4
//!   cores, SMT, 12 MB L3) is the data-center node of Fig 1/Fig 10. Nehalem
//!   x87 takes a micro-code assist on non-finite operands — the 87× anomaly
//!   of §3.1/Table 1 — while SSE scalar arithmetic does not.
//! * **Core** — the older Core-2-class machine of Figs 6–8: lower clock,
//!   narrower effective issue, smaller shared LLC.
//! * **PPC970** — 1.8 GHz PowerPC 970: lower clock and IPC, and *no* x87-style
//!   assist behaviour (Fig 3(d) shows the R workload does not collapse there).

use serde::{Deserialize, Serialize};

use crate::cache::CacheGeometry;
use crate::pmu::PmuCapabilities;
use crate::time::Freq;
use crate::topology::Topology;

/// Which family a parameter set belongs to (used for reporting only; all
/// behaviour is carried by the numeric parameters).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CpuModelKind {
    Nehalem,
    Core2,
    Ppc970,
    Custom,
}

/// Which FP operand classes trigger a micro-code assist on this machine, per
/// FP unit. On Nehalem, x87 assists on non-finite (Inf/NaN) and denormal
/// operands; SSE assists only on denormals; PPC970 handles everything in
/// hardware.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AssistTriggers {
    /// x87 ops on Inf/NaN operands take an assist.
    pub x87_nonfinite: bool,
    /// SSE ops on Inf/NaN operands take an assist.
    pub sse_nonfinite: bool,
    /// Denormal operands take an assist (either unit).
    pub denormal: bool,
}

impl AssistTriggers {
    pub fn nehalem() -> Self {
        AssistTriggers {
            x87_nonfinite: true,
            sse_nonfinite: false,
            denormal: true,
        }
    }

    pub fn none() -> Self {
        AssistTriggers {
            x87_nonfinite: false,
            sse_nonfinite: false,
            denormal: false,
        }
    }
}

/// The numeric soul of a CPU model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UarchParams {
    pub kind: CpuModelKind,
    pub name: String,
    /// Core clock.
    pub clock: Freq,
    /// Sustainable issue width (used to clamp absurdly low CPIs).
    pub issue_width: f64,
    /// Cache geometries. L1/L2 are private per physical core; L3 is shared
    /// per socket.
    pub l1d: CacheGeometry,
    pub l2: CacheGeometry,
    pub l3: CacheGeometry,
    /// Load-to-use penalties *beyond* the L1 hit latency already folded into
    /// a profile's `base_cpi`, in cycles, for an access served by each level.
    pub lat_l2: f64,
    pub lat_l3: f64,
    pub lat_mem: f64,
    /// Pipeline refill cost of a mispredicted branch, in cycles.
    pub branch_penalty: f64,
    /// Cost of one micro-code FP assist, in cycles. Calibrated so the §3.1
    /// x87 micro-benchmark slows down by the paper's 87×: a 4-instruction
    /// loop at IPC 1.33 costs 3 cycles/iteration; with every fadd assisted,
    /// IPC 0.015 means ≈267 cycles/iteration, i.e. an assist costs ≈264.
    pub fp_assist_cost: f64,
    pub assists: AssistTriggers,
    /// Throughput retained by *each* SMT sibling when both hardware threads
    /// of a core are busy (1.0 = perfect sharing is impossible; Nehalem HT
    /// keeps roughly 60–65% per thread on compute-bound code).
    pub smt_share: f64,
    /// PMU counter resources.
    pub pmu: PmuCapabilities,
}

/// Serde `Serialize`/`Deserialize` for [`Freq`] lives here to keep `time.rs`
/// dependency-free in spirit; it is just a `u64` in hertz.
impl serde::Serialize for Freq {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_u64(self.0)
    }
}

impl<'de> serde::Deserialize<'de> for Freq {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        u64::deserialize(d).map(Freq)
    }
}

impl UarchParams {
    /// Nehalem (Intel Xeon W3550-class): the workhorse of the evaluation.
    pub fn nehalem() -> Self {
        UarchParams {
            kind: CpuModelKind::Nehalem,
            name: "Nehalem (Xeon W3550)".to_string(),
            clock: Freq::ghz(3.07),
            issue_width: 4.0,
            l1d: CacheGeometry::kib(32, 8, 64),
            l2: CacheGeometry::kib(256, 8, 64),
            l3: CacheGeometry::kib(8192, 16, 64),
            lat_l2: 8.0,
            lat_l3: 32.0,
            lat_mem: 180.0,
            branch_penalty: 17.0,
            fp_assist_cost: 264.0,
            assists: AssistTriggers::nehalem(),
            smt_share: 0.62,
            pmu: PmuCapabilities::nehalem_wide(),
        }
    }

    /// Westmere variant used in the dual-socket E5640 data-center node
    /// (2.67 GHz, 12 MB L3).
    pub fn westmere_e5640() -> Self {
        let mut p = Self::nehalem();
        p.name = "Westmere (Xeon E5640)".to_string();
        p.clock = Freq::ghz(2.67);
        p.l3 = CacheGeometry::kib(12 * 1024, 16, 64);
        p
    }

    /// Core-2-class machine ("Core" in Figs 6–8): older, slower clock,
    /// shared 4 MB LLC, no SMT, higher memory latency in cycles.
    pub fn core2() -> Self {
        UarchParams {
            kind: CpuModelKind::Core2,
            name: "Core (Core2-class)".to_string(),
            clock: Freq::ghz(2.4),
            issue_width: 3.0,
            l1d: CacheGeometry::kib(32, 8, 64),
            l2: CacheGeometry::kib(256, 8, 64),
            l3: CacheGeometry::kib(4096, 16, 64),
            lat_l2: 10.0,
            lat_l3: 14.0,
            lat_mem: 220.0,
            branch_penalty: 15.0,
            fp_assist_cost: 200.0,
            assists: AssistTriggers::nehalem(),
            smt_share: 1.0,
            pmu: PmuCapabilities {
                fixed_counters: 3,
                programmable_counters: 2,
            },
        }
    }

    /// PowerPC 970 at 1.8 GHz: no micro-code FP assist, lower sustained IPC,
    /// small LLC.
    pub fn ppc970() -> Self {
        UarchParams {
            kind: CpuModelKind::Ppc970,
            name: "PowerPC 970".to_string(),
            clock: Freq::ghz(1.8),
            issue_width: 2.5,
            l1d: CacheGeometry::kib(32, 2, 128),
            l2: CacheGeometry::kib(512, 8, 128),
            l3: CacheGeometry::kib(2048, 8, 128),
            lat_l2: 12.0,
            lat_l3: 40.0,
            lat_mem: 300.0,
            branch_penalty: 13.0,
            fp_assist_cost: 0.0,
            assists: AssistTriggers::none(),
            smt_share: 1.0,
            pmu: PmuCapabilities {
                fixed_counters: 1,
                programmable_counters: 6,
            },
        }
    }

    /// Lowest CPI this machine can sustain.
    pub fn min_cpi(&self) -> f64 {
        1.0 / self.issue_width
    }
}

/// Complete machine description: micro-architecture × topology × sampling
/// fidelity knobs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    pub uarch: UarchParams,
    pub topology: Topology,
    /// Number of memory accesses sampled through the cache hierarchy per
    /// task and scheduling slice. Larger = smoother miss-rate estimates,
    /// slower simulation. 512 is plenty for the paper's coarse (seconds)
    /// observation granularity.
    pub cache_samples_per_slice: u32,
    /// Relative jitter applied to counter-derived CPI per slice (models the
    /// run-to-run variability the paper measures at ~1.4% across full SPEC
    /// runs). 0 disables.
    pub cpi_noise: f64,
}

impl MachineConfig {
    /// Single-socket quad-core Nehalem with SMT — the Xeon W3550 workstation
    /// (Figs 3, 9, 11; Tables of §2.4–2.6).
    pub fn nehalem_w3550() -> Self {
        MachineConfig {
            uarch: UarchParams::nehalem(),
            topology: Topology::new(1, 4, 2, 5965),
            cache_samples_per_slice: 512,
            cpi_noise: 0.015,
        }
    }

    /// Dual-socket quad-core Westmere with SMT — the data-center node
    /// bi-Xeon E5640 (Figs 1, 10): 16 logical cores.
    pub fn datacenter_e5640() -> Self {
        MachineConfig {
            uarch: UarchParams::westmere_e5640(),
            topology: Topology::new(2, 4, 2, 24_000),
            cache_samples_per_slice: 512,
            cpi_noise: 0.02,
        }
    }

    /// The "Core" machine of Figs 6–8.
    pub fn core2_machine() -> Self {
        MachineConfig {
            uarch: UarchParams::core2(),
            topology: Topology::new(1, 2, 1, 4096),
            cache_samples_per_slice: 512,
            cpi_noise: 0.015,
        }
    }

    /// The PowerPC 970 machine of Figs 3(d), 6–8.
    pub fn ppc970_machine() -> Self {
        MachineConfig {
            uarch: UarchParams::ppc970(),
            topology: Topology::new(1, 2, 1, 2048),
            cache_samples_per_slice: 512,
            cpi_noise: 0.015,
        }
    }

    /// Deterministic variant: no CPI noise. Used by validation tests where
    /// analytic counts must match exactly.
    pub fn noiseless(mut self) -> Self {
        self.cpi_noise = 0.0;
        self
    }

    /// The same silicon with hyper-threading disabled in the BIOS: every
    /// physical core exposes a single PU. The §3.4 interference matrix uses
    /// this to separate SMT pipeline sharing from shared-cache contention.
    pub fn without_smt(mut self) -> Self {
        self.topology = Topology::new(
            self.topology.sockets(),
            self.topology.cores_per_socket(),
            1,
            self.topology.memory_mb(),
        );
        self
    }

    /// Override the per-sibling SMT throughput share (ablation knob for the
    /// interference experiments; the Nehalem default is 0.62).
    pub fn with_smt_share(mut self, share: f64) -> Self {
        assert!(share > 0.0 && share <= 1.0, "bad smt share {share}");
        self.uarch.smt_share = share;
        self
    }

    /// Override the shared-L3 capacity, keeping associativity and line size
    /// (the shared-cache knob of the interference experiments).
    pub fn with_l3_kib(mut self, kib: u64) -> Self {
        self.uarch.l3 = CacheGeometry::kib(kib, self.uarch.l3.ways, self.uarch.l3.line_bytes);
        self
    }

    /// Most cache samples per slice [`MachineConfig::with_samples`]
    /// accepts. An epoch hands one slice at most 16× this many samples,
    /// 2^19, the bound below which the machine's integer stream interleave
    /// provably keeps the order of the f64 merge it replaced.
    pub const MAX_SAMPLES_PER_SLICE: u32 = 1 << 15;

    /// Override sampling fidelity.
    ///
    /// # Panics
    /// Panics above [`MachineConfig::MAX_SAMPLES_PER_SLICE`].
    pub fn with_samples(mut self, n: u32) -> Self {
        assert!(
            n <= Self::MAX_SAMPLES_PER_SLICE,
            "{n} cache samples per slice, above the maximum {}",
            Self::MAX_SAMPLES_PER_SLICE
        );
        self.cache_samples_per_slice = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "above the maximum")]
    fn with_samples_rejects_more_than_the_exact_merge_bound() {
        MachineConfig::nehalem_w3550().with_samples(MachineConfig::MAX_SAMPLES_PER_SLICE + 1);
    }

    #[test]
    fn with_samples_accepts_the_bound() {
        let cfg = MachineConfig::nehalem_w3550().with_samples(MachineConfig::MAX_SAMPLES_PER_SLICE);
        assert_eq!(cfg.cache_samples_per_slice, 1 << 15);
    }

    #[test]
    fn presets_are_self_consistent() {
        for cfg in [
            MachineConfig::nehalem_w3550(),
            MachineConfig::datacenter_e5640(),
            MachineConfig::core2_machine(),
            MachineConfig::ppc970_machine(),
        ] {
            // Geometry must be constructible.
            assert!(cfg.uarch.l1d.num_sets() > 0);
            assert!(cfg.uarch.l2.num_sets() > 0);
            assert!(cfg.uarch.l3.num_sets() > 0);
            // Latencies must be ordered.
            assert!(cfg.uarch.lat_l2 < cfg.uarch.lat_l3);
            assert!(cfg.uarch.lat_l3 < cfg.uarch.lat_mem);
            assert!(cfg.uarch.min_cpi() > 0.0);
            assert!(cfg.uarch.smt_share > 0.0 && cfg.uarch.smt_share <= 1.0);
        }
    }

    #[test]
    fn w3550_matches_paper_headline_numbers() {
        let cfg = MachineConfig::nehalem_w3550();
        assert_eq!(cfg.uarch.clock, Freq::ghz(3.07));
        assert_eq!(cfg.topology.num_pus(), 8);
        // "supports up to sixteen simultaneous events" (§2.6)
        assert_eq!(
            cfg.uarch.pmu.fixed_counters + cfg.uarch.pmu.programmable_counters,
            16
        );
    }

    #[test]
    fn datacenter_node_has_16_logical_cores() {
        assert_eq!(MachineConfig::datacenter_e5640().topology.num_pus(), 16);
    }

    #[test]
    fn ppc970_has_no_assists() {
        let p = UarchParams::ppc970();
        assert!(!p.assists.x87_nonfinite && !p.assists.sse_nonfinite && !p.assists.denormal);
    }

    #[test]
    fn assist_cost_reproduces_87x_slowdown() {
        // §3.1: 4-instruction loop, IPC 1.33 normal → 3 cycles/iter.
        // With assist on the single fadd: (3 + cost) cycles for 4 insns.
        let p = UarchParams::nehalem();
        let slow_ipc = 4.0 / (3.0 + p.fp_assist_cost);
        let slowdown = 1.33 / slow_ipc;
        assert!(
            (80.0..95.0).contains(&slowdown),
            "slowdown {slowdown} should be ≈87×"
        );
    }

    #[test]
    fn smt_and_cache_knobs() {
        let cfg = MachineConfig::nehalem_w3550().without_smt();
        assert_eq!(cfg.topology.num_pus(), 4, "HT off: one PU per core");
        assert_eq!(cfg.topology.num_cores(), 4, "same silicon");

        let cfg = MachineConfig::nehalem_w3550().with_smt_share(0.9);
        assert_eq!(cfg.uarch.smt_share, 0.9);

        let cfg = MachineConfig::nehalem_w3550().with_l3_kib(4096);
        assert_eq!(cfg.uarch.l3.size_kib(), 4096);
        assert_eq!(cfg.uarch.l3.ways, 16, "associativity preserved");
        assert!(cfg.uarch.l3.num_sets() > 0, "geometry stays constructible");
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = MachineConfig::nehalem_w3550();
        let s = serde_json_like(&cfg);
        assert!(s.contains("Nehalem"));
    }

    /// serde smoke test without pulling serde_json: use the Debug formatting
    /// of a Serialize-derived struct plus a token assertion via bincode-like
    /// manual check. We only assert the derive compiles and names survive.
    fn serde_json_like(cfg: &MachineConfig) -> String {
        format!("{cfg:?}")
    }
}
