//! Seeded, per-task memory address-stream generators.
//!
//! Each task's memory behaviour is a mixture of *working-set tiers*: e.g.
//! 429.mcf touches a small hot region almost every access, a multi-megabyte
//! warm region often, and a gigabyte-scale cold arena rarely. The tier sizes
//! relative to the (shared) cache capacities are what make the paper's
//! contention experiments work: one mcf's warm tier fits the 8 MB L3, three
//! don't.
//!
//! Streams are deterministic: a task's addresses depend only on its stream
//! seed and the number of addresses drawn so far.

use rand::rngs::SmallRng;
use rand::{RngCore, RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// How addresses are drawn within one tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Consecutive lines, wrapping at the tier end (streaming).
    Sequential,
    /// Fixed stride in bytes, wrapping at the tier end.
    Strided(u64),
    /// Uniformly random byte offsets (pointer-chasing-like footprints).
    Random,
}

/// One tier of a task's working set.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkingSetTier {
    /// Tier size in bytes (≥ one cache line).
    pub bytes: u64,
    /// Relative probability an access lands in this tier.
    pub weight: f64,
    pub pattern: AccessPattern,
}

impl WorkingSetTier {
    pub fn new(bytes: u64, weight: f64, pattern: AccessPattern) -> Self {
        assert!(bytes >= 64, "tier smaller than a cache line");
        assert!(weight > 0.0, "tier weight must be positive");
        WorkingSetTier {
            bytes,
            weight,
            pattern,
        }
    }
}

/// A task's complete memory behaviour: its working-set tiers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemoryBehavior {
    tiers: Vec<WorkingSetTier>,
    /// Cumulative normalized weights, same length as `tiers`.
    cdf: Vec<f64>,
    /// Byte offset of each tier in the task's virtual address space.
    bases: Vec<u64>,
}

impl MemoryBehavior {
    /// Build from tiers. Tiers are laid out contiguously from address 0.
    ///
    /// # Panics
    /// Panics if `tiers` is empty.
    pub fn new(tiers: Vec<WorkingSetTier>) -> Self {
        assert!(!tiers.is_empty(), "at least one working-set tier required");
        let total: f64 = tiers.iter().map(|t| t.weight).sum();
        let mut acc = 0.0;
        let cdf = tiers
            .iter()
            .map(|t| {
                acc += t.weight / total;
                acc
            })
            .collect();
        let mut base = 0u64;
        let bases = tiers
            .iter()
            .map(|t| {
                let b = base;
                // Page-align tier starts so strides never straddle tiers.
                base += (t.bytes + 4095) & !4095;
                b
            })
            .collect();
        MemoryBehavior { tiers, cdf, bases }
    }

    /// Single uniformly-random working set of `bytes` — the simplest model.
    pub fn uniform(bytes: u64) -> Self {
        MemoryBehavior::new(vec![WorkingSetTier::new(bytes, 1.0, AccessPattern::Random)])
    }

    /// Pure streaming over `bytes`.
    pub fn streaming(bytes: u64) -> Self {
        MemoryBehavior::new(vec![WorkingSetTier::new(
            bytes,
            1.0,
            AccessPattern::Sequential,
        )])
    }

    pub fn tiers(&self) -> &[WorkingSetTier] {
        &self.tiers
    }

    /// Total footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.tiers.iter().map(|t| t.bytes).sum()
    }

    fn pick_tier(&self, u: f64) -> usize {
        self.cdf
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.tiers.len() - 1)
    }
}

/// Mixed into every stream seed ("tiptop_s").
const STREAM_SEED_SALT: u64 = 0x7469_7074_6f70_5f73;

/// Per-task mutable stream state: RNG + per-tier cursors + the address-space
/// id that namespaces this task's lines in the shared caches.
#[derive(Clone, Debug)]
pub struct TaskStream {
    asid: u64,
    rng: SmallRng,
    cursors: Vec<u64>,
    drawn: u64,
}

impl TaskStream {
    /// `asid` must be unique per task (the kernel uses the pid); `seed`
    /// determines the random tier/offset choices.
    pub fn new(asid: u64, seed: u64) -> Self {
        TaskStream {
            asid,
            rng: SmallRng::seed_from_u64(seed ^ STREAM_SEED_SALT),
            cursors: Vec::new(),
            drawn: 0,
        }
    }

    pub fn asid(&self) -> u64 {
        self.asid
    }

    /// Re-namespace the stream under a new address-space id, preserving the
    /// RNG state, tier cursors, and draw count. Used when a checkpointed task
    /// is resumed under a fresh pid: the access *sequence* continues exactly
    /// where it left off, but its lines must not alias another task's.
    pub fn with_asid(mut self, asid: u64) -> Self {
        self.asid = asid;
        self
    }

    /// Number of addresses drawn so far.
    pub fn drawn(&self) -> u64 {
        self.drawn
    }

    /// Draw the next byte address, qualified with the address-space id in the
    /// high bits (bit 40 upward), ready to feed to the cache hierarchy.
    pub fn next_addr(&mut self, mem: &MemoryBehavior) -> u64 {
        if self.cursors.len() != mem.tiers.len() {
            self.cursors = vec![0; mem.tiers.len()];
        }
        self.drawn += 1;
        let u: f64 = self.rng.random();
        let ti = mem.pick_tier(u);
        let tier = &mem.tiers[ti];
        let offset = match tier.pattern {
            AccessPattern::Sequential => {
                let o = self.cursors[ti];
                self.cursors[ti] = (o + 64) % tier.bytes;
                o
            }
            AccessPattern::Strided(stride) => {
                let o = self.cursors[ti];
                self.cursors[ti] = (o + stride) % tier.bytes;
                o
            }
            // The draw `random_range(0..bytes)` makes, without its `%` when
            // the tier size is a power of two.
            AccessPattern::Random => {
                let r = self.rng.next_u64();
                if tier.bytes.is_power_of_two() {
                    r & (tier.bytes - 1)
                } else {
                    r % tier.bytes
                }
            }
        };
        (self.asid << 40) | (mem.bases[ti] + offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_addresses_stay_in_footprint() {
        let mem = MemoryBehavior::uniform(1 << 20);
        let mut s = TaskStream::new(3, 99);
        for _ in 0..1000 {
            let a = s.next_addr(&mem);
            assert_eq!(a >> 40, 3, "asid in high bits");
            assert!((a & ((1 << 40) - 1)) < (1 << 20));
        }
        assert_eq!(s.drawn(), 1000);
    }

    #[test]
    fn sequential_walks_lines_in_order() {
        let mem = MemoryBehavior::streaming(64 * 10);
        let mut s = TaskStream::new(0, 1);
        let addrs: Vec<u64> = (0..12).map(|_| s.next_addr(&mem)).collect();
        assert_eq!(addrs[0], 0);
        assert_eq!(addrs[1], 64);
        assert_eq!(addrs[9], 64 * 9);
        assert_eq!(addrs[10], 0, "wraps at tier end");
    }

    #[test]
    fn strided_wraps() {
        let mem = MemoryBehavior::new(vec![WorkingSetTier::new(
            4096,
            1.0,
            AccessPattern::Strided(1024),
        )]);
        let mut s = TaskStream::new(0, 1);
        let offs: Vec<u64> = (0..5).map(|_| s.next_addr(&mem)).collect();
        assert_eq!(offs, vec![0, 1024, 2048, 3072, 0]);
    }

    #[test]
    fn tiers_are_disjoint_in_address_space() {
        let mem = MemoryBehavior::new(vec![
            WorkingSetTier::new(128 * 1024, 0.8, AccessPattern::Random),
            WorkingSetTier::new(5 << 20, 0.2, AccessPattern::Random),
        ]);
        let mut s = TaskStream::new(1, 7);
        let mut hot = 0;
        let n = 20_000;
        for _ in 0..n {
            let a = s.next_addr(&mem) & ((1 << 40) - 1);
            if a < 128 * 1024 {
                hot += 1;
            } else {
                assert!(a >= 128 * 1024, "cold tier starts after hot tier");
                assert!(a < mem.footprint() + 8192);
            }
        }
        // ~80% of accesses hit the hot tier.
        let frac = hot as f64 / n as f64;
        assert!((0.77..0.83).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mem = MemoryBehavior::uniform(1 << 24);
        let mut a = TaskStream::new(1, 42);
        let mut b = TaskStream::new(1, 42);
        let mut c = TaskStream::new(1, 43);
        let va: Vec<u64> = (0..100).map(|_| a.next_addr(&mem)).collect();
        let vb: Vec<u64> = (0..100).map(|_| b.next_addr(&mem)).collect();
        let vc: Vec<u64> = (0..100).map(|_| c.next_addr(&mem)).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    /// `next_addr` as it was written against `random_range`: the reference
    /// its mask/`%` draw must reproduce.
    fn reference_addrs(mem: &MemoryBehavior, asid: u64, seed: u64, n: usize) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed ^ STREAM_SEED_SALT);
        let mut cursors = vec![0u64; mem.tiers.len()];
        (0..n)
            .map(|_| {
                let ti = mem.pick_tier(rng.random());
                let tier = &mem.tiers[ti];
                let offset = match tier.pattern {
                    AccessPattern::Sequential => {
                        let o = cursors[ti];
                        cursors[ti] = (o + 64) % tier.bytes;
                        o
                    }
                    AccessPattern::Strided(stride) => {
                        let o = cursors[ti];
                        cursors[ti] = (o + stride) % tier.bytes;
                        o
                    }
                    AccessPattern::Random => rng.random_range(0..tier.bytes),
                };
                (asid << 40) | (mem.bases[ti] + offset)
            })
            .collect()
    }

    #[test]
    fn next_addr_matches_random_range_on_every_tier_size() {
        let behaviours = [
            // Power-of-two random tiers: the masked draw.
            MemoryBehavior::uniform(1 << 20),
            MemoryBehavior::uniform(64),
            // Non-power-of-two random tiers: the `%` draw.
            MemoryBehavior::uniform(5 * 1024 * 1024 + 192),
            MemoryBehavior::uniform(12 * 1024 * 1024),
            // Mixed: both kinds of random tier beside the cursor patterns.
            MemoryBehavior::new(vec![
                WorkingSetTier::new(32 * 1024, 0.5, AccessPattern::Random),
                WorkingSetTier::new(3 * 1024 * 1024, 0.3, AccessPattern::Random),
                WorkingSetTier::new(640, 0.1, AccessPattern::Sequential),
                WorkingSetTier::new(1 << 20, 0.1, AccessPattern::Strided(4160)),
            ]),
        ];
        for (k, mem) in behaviours.iter().enumerate() {
            for seed in [0u64, 1, 104_729] {
                let mut s = TaskStream::new(k as u64 + 1, seed);
                let got: Vec<u64> = (0..20_000).map(|_| s.next_addr(mem)).collect();
                let want = reference_addrs(mem, k as u64 + 1, seed, 20_000);
                assert_eq!(got, want, "behaviour {k}, seed {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_tiers_panic() {
        MemoryBehavior::new(vec![]);
    }

    #[test]
    fn with_asid_preserves_sequence_under_new_namespace() {
        let mem = MemoryBehavior::uniform(1 << 24);
        let mut a = TaskStream::new(1, 42);
        let mut b = TaskStream::new(1, 42);
        // Advance both identically, then move `b` to a new address space.
        for _ in 0..50 {
            a.next_addr(&mem);
            b.next_addr(&mem);
        }
        let mut b = b.with_asid(9);
        assert_eq!(b.asid(), 9);
        assert_eq!(b.drawn(), 50);
        let va: Vec<u64> = (0..100)
            .map(|_| a.next_addr(&mem) & ((1 << 40) - 1))
            .collect();
        let vb: Vec<u64> = (0..100)
            .map(|_| {
                let addr = b.next_addr(&mem);
                assert_eq!(addr >> 40, 9, "remapped asid in high bits");
                addr & ((1 << 40) - 1)
            })
            .collect();
        assert_eq!(va, vb, "offsets continue identically after the remap");
    }
}
