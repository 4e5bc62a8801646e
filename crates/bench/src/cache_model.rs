//! The `cache_model` micro-bench: what one sampled memory access costs the
//! simulator, by how deep into the hierarchy it goes.
//!
//! Every cache-bound experiment spends nearly all its host time in the
//! machine's joint cache sampling, so its per-access cost is the number a
//! cache-model change moves. This bench drives three single-slice streams
//! through one Fig 10 node (the bi-Xeon E5640: 8-way L1 and L2, 16-way
//! 12,288-set L3), each warmed first and then timed over whole epochs:
//!
//! * `l1_resident` — a 16 KiB working set: hits L1;
//! * `l3_resident` — 4 MiB: misses L2, hits the L3;
//! * `thrashing` — 512 MiB: misses every level.
//!
//! A lone slice draws exactly `cache_samples_per_slice` accesses per epoch,
//! so the access count is exact and the timed span covers the whole
//! per-access path (merge, address draw, L1/L2/L3 update, tallies) plus one
//! epoch's CPI bookkeeping per 4096 accesses.

use std::time::Instant;

use tiptop_machine::access::{MemoryBehavior, TaskStream};
use tiptop_machine::config::MachineConfig;
use tiptop_machine::exec::{ExecOutcome, ExecProfile};
use tiptop_machine::machine::{Machine, SliceRequest};
use tiptop_machine::pmu::{EventCounts, HwEvent};
use tiptop_machine::topology::PuId;

use crate::report::TableReport;

/// Accesses sampled per epoch: the Fig 10 experiments' oversampling.
const SAMPLES: u32 = 4096;
/// Cycle budget of every epoch (one 10 ms slice at ~2.7 GHz).
const EPOCH_CYCLES: u64 = 26_600_000;

/// One stream's measured cost.
pub struct StreamCost {
    pub name: &'static str,
    pub footprint_bytes: u64,
    /// Timed accesses.
    pub accesses: u64,
    pub ns_per_access: f64,
    /// Of the timed accesses' estimated totals: L1 misses per access.
    pub l1_miss_ratio: f64,
    /// L3 misses per access.
    pub l3_miss_ratio: f64,
}

pub struct CacheModelResult {
    pub streams: Vec<StreamCost>,
}

/// Time `epochs` epochs of each stream after warming it for as many epochs
/// as it takes to touch its working set ~4 times over.
pub fn run(seed: u64, epochs: u64) -> CacheModelResult {
    let cfg = MachineConfig::datacenter_e5640()
        .noiseless()
        .with_samples(SAMPLES);
    let mut machine = Machine::new(cfg, seed);
    let streams = [
        ("l1_resident", 16 << 10),
        ("l3_resident", 4 << 20),
        ("thrashing", 512 << 20),
    ]
    .into_iter()
    .enumerate()
    .map(|(k, (name, footprint))| {
        machine.flush_caches();
        let profile = ExecProfile::builder(name)
            .memory(MemoryBehavior::uniform(footprint))
            .build();
        let mut stream = TaskStream::new(k as u64 + 1, seed);
        let mut epoch = |m: &mut Machine| -> ExecOutcome {
            let mut req = [SliceRequest::new(PuId(0), &profile, &mut stream).cycles(EPOCH_CYCLES)];
            m.execute_epoch(&mut req)[0]
        };
        let warm = (footprint / 64 * 4 / SAMPLES as u64).clamp(4, 64);
        for _ in 0..warm {
            epoch(&mut machine);
        }
        let mut events = EventCounts::ZERO;
        let t0 = Instant::now();
        for _ in 0..epochs {
            events.accumulate(&epoch(&mut machine).events);
        }
        let dt = t0.elapsed().as_secs_f64();
        let accesses = epochs * SAMPLES as u64;
        let refs = (events.get(HwEvent::Loads) + events.get(HwEvent::Stores)).max(1) as f64;
        StreamCost {
            name,
            footprint_bytes: footprint,
            accesses,
            ns_per_access: dt * 1e9 / accesses as f64,
            l1_miss_ratio: events.get(HwEvent::L1dMisses) as f64 / refs,
            l3_miss_ratio: events.get(HwEvent::CacheMisses) as f64 / refs,
        }
    })
    .collect();
    CacheModelResult { streams }
}

impl CacheModelResult {
    pub fn report(&self) -> String {
        let mut t = TableReport::new(
            "cache_model: host cost of one sampled access (E5640 hierarchy)",
            &[
                "stream",
                "footprint",
                "accesses",
                "ns/access",
                "L1 miss",
                "L3 miss",
            ],
        );
        for s in &self.streams {
            t.row(vec![
                s.name.to_string(),
                format!("{} KiB", s.footprint_bytes >> 10),
                s.accesses.to_string(),
                format!("{:.1}", s.ns_per_access),
                format!("{:.3}", s.l1_miss_ratio),
                format!("{:.3}", s.l3_miss_ratio),
            ]);
        }
        t.render()
    }

    /// `{"l1_resident": ns, ...}`, hand-written (the offline serde stub has
    /// no serializer).
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .streams
            .iter()
            .map(|s| format!("\"{}\": {:.2}", s.name, s.ns_per_access))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_land_in_the_levels_they_are_named_for() {
        let r = run(5, 2);
        let [l1, l3, thrash] = &r.streams[..] else {
            panic!("three streams");
        };
        assert_eq!(
            [l1.name, l3.name, thrash.name],
            ["l1_resident", "l3_resident", "thrashing"]
        );
        assert_eq!(l1.accesses, 2 * SAMPLES as u64);
        assert!(
            l1.l1_miss_ratio < 0.01,
            "L1-resident misses L1: {}",
            l1.l1_miss_ratio
        );
        assert!(
            l3.l1_miss_ratio > 0.9,
            "L3-resident hits L1: {}",
            l3.l1_miss_ratio
        );
        assert!(
            l3.l3_miss_ratio < 0.05,
            "L3-resident misses L3: {}",
            l3.l3_miss_ratio
        );
        assert!(
            thrash.l3_miss_ratio > 0.9,
            "thrashing hits L3: {}",
            thrash.l3_miss_ratio
        );
        assert!(r.report().contains("ns/access"));
        assert!(r.to_json().starts_with("{\"l1_resident\": "));
    }
}
