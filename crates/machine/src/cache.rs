//! Set-associative cache model.
//!
//! The interference phenomena the paper studies (Section 3.4: multiple copies
//! of 429.mcf degrading each other through the shared L3, SMT siblings
//! thrashing a shared L2) require caches with real capacity and replacement
//! behaviour — a miss-rate formula per task cannot exhibit *cross-task*
//! contention. This module implements a classic set-associative LRU cache and
//! the three-level hierarchy lookup used by [`crate::Machine`].
//!
//! Tags carry the full (address-space-qualified) line address, so two tasks
//! touching the same virtual addresses still conflict only through capacity,
//! never through aliasing.
//!
//! # The hot path
//!
//! [`SetAssocCache::access`] runs once per sampled access per level, so it
//! is written to do no division and no data-dependent branch:
//!
//! * **Set index.** A power-of-two set count (every L1 and L2, most L3s) is
//!   a mask; only a non-power-of-two count (the E5640's 12,288-set L3) pays
//!   a `%`, and the branch choosing between them is fixed per cache.
//! * **Find-and-shift.** Each set stays an MRU-ordered tag array — no
//!   per-way stamps, so the tag array is the cache's whole memory. One pass
//!   of a fixed trip count (the associativity) compares every way against
//!   the line and, with selects rather than branches, shifts the ways in
//!   front of the match (or every way, on a miss) down by one and writes
//!   the line at MRU. A hit at way `p` and a miss leave exactly the order
//!   `position` + `rotate_right` used to leave, so every hit/miss sequence
//!   is unchanged.

use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheGeometry {
    /// Convenience constructor with sizes in KiB.
    pub fn kib(size_kib: u64, ways: u32, line_bytes: u32) -> Self {
        CacheGeometry {
            size_bytes: size_kib * 1024,
            ways,
            line_bytes,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// Set counts need not be powers of two (the 12 MB L3 of the Xeon E5640
    /// has 12288 sets); lines are mapped to sets by modulo.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero ways/line, a non-power-of-
    /// two line size, or capacity not a multiple of `ways * line_bytes`).
    pub fn num_sets(&self) -> u64 {
        assert!(
            self.ways > 0 && self.line_bytes > 0,
            "degenerate cache geometry"
        );
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let per_set = self.ways as u64 * self.line_bytes as u64;
        assert!(
            self.size_bytes.is_multiple_of(per_set),
            "capacity {} not a multiple of ways*line {}",
            self.size_bytes,
            per_set
        );
        self.size_bytes / per_set
    }

    pub fn size_kib(&self) -> u64 {
        self.size_bytes / 1024
    }
}

/// Which level of the hierarchy an access was served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CacheLevel {
    L1,
    L2,
    L3,
    Memory,
}

/// Result of one address walked through a [`crate::machine::Machine`]
/// hierarchy: the level that finally supplied the data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    pub served_by: CacheLevel,
}

impl AccessOutcome {
    pub fn missed_l1(&self) -> bool {
        self.served_by > CacheLevel::L1
    }
    pub fn missed_l2(&self) -> bool {
        self.served_by > CacheLevel::L2
    }
    pub fn missed_l3(&self) -> bool {
        self.served_by > CacheLevel::L3
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Stores 64-bit *line* tags (already shifted by the line size and qualified
/// with the owning task's address-space id by the caller). `u64::MAX` is
/// reserved as the invalid tag.
///
/// The tag array is allocated **lazily, on the first access**: a machine
/// whose workload never touches memory (the cluster bench's pure-compute
/// jobs, any `loads_per_insn == 0` profile) carries the geometry but none
/// of the `sets × ways × 8` bytes — at fleet scale that is hundreds of KiB
/// per simulated machine that is never paid. An untouched cache behaves
/// exactly like an all-invalid one: every probe misses, no lines resident.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    line_shift: u32,
    num_sets: u64,
    /// `num_sets - 1` when the set count is a power of two: the set index
    /// is then a mask instead of a `%`.
    set_mask: Option<u64>,
    ways: usize,
    /// `sets * ways` tags, LRU-ordered within each set: index 0 is MRU.
    /// Empty until the first [`SetAssocCache::access`].
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

const INVALID: u64 = u64::MAX;

/// Move `line` to the MRU end (index 0) of one set, filling it on a miss.
/// Returns `true` on hit.
///
/// A hit at way `p` shifts ways `0..p` down by one; a miss shifts every way
/// down, evicting the LRU (last) way. Both are the same single pass: every
/// way takes its predecessor's old tag (way 0 takes `line`) until the pass
/// has seen the match, and keeps its own afterwards. Tags within a set are
/// distinct, so at most one way matches. The trip count is the set's
/// associativity, the per-way choice is a select, not a branch, and the
/// only value carried from way to way is the one-bit "seen the match".
#[inline(always)]
fn touch(slots: &mut [u64], line: u64) -> bool {
    let mut prev = line;
    let mut found = false;
    for slot in slots.iter_mut() {
        let tag = *slot;
        *slot = if found { tag } else { prev };
        found |= tag == line;
        prev = tag;
    }
    found
}

impl SetAssocCache {
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.num_sets();
        let ways = geometry.ways as usize;
        SetAssocCache {
            geometry,
            line_shift: geometry.line_bytes.trailing_zeros(),
            num_sets: sets,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            ways,
            tags: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Translate a byte address to its line address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Index of the set holding `line`.
    #[inline]
    fn set_of(&self, line: u64) -> usize {
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.num_sets) as usize,
        }
    }

    /// Access the line containing `addr` (byte address); on miss, fill it.
    /// Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        debug_assert_ne!(line, INVALID, "reserved tag");
        if self.tags.is_empty() {
            // First touch: materialize the tag array.
            self.tags = vec![INVALID; self.num_sets as usize * self.ways];
        }
        let base = self.set_of(line) * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        let hit = touch(slots, line);
        self.hits += hit as u64;
        self.misses += !hit as u64;
        hit
    }

    /// Is `addr`'s line currently resident? Does not touch LRU state.
    pub fn probe(&self, addr: u64) -> bool {
        if self.tags.is_empty() {
            return false;
        }
        let line = self.line_of(addr);
        let base = self.set_of(line) * self.ways;
        self.tags[base..base + self.ways].contains(&line)
    }

    /// Lifetime (hits, misses) over all accesses.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of valid (filled) lines — useful for warmup assertions.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }

    /// Drop all contents and statistics — including the tag array itself,
    /// returning the cache to its unallocated (lazy) state.
    pub fn flush(&mut self) {
        self.tags = Vec::new();
        self.hits = 0;
        self.misses = 0;
    }

    /// Heap bytes currently held by the tag array (0 until first access).
    pub fn allocated_bytes(&self) -> usize {
        self.tags.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::VecDeque;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        SetAssocCache::new(CacheGeometry {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn geometry_sets() {
        assert_eq!(CacheGeometry::kib(32, 8, 64).num_sets(), 64); // Nehalem L1D
        assert_eq!(CacheGeometry::kib(256, 8, 64).num_sets(), 512); // Nehalem L2
        assert_eq!(CacheGeometry::kib(8192, 16, 64).num_sets(), 8192); // Nehalem L3
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn bad_geometry_panics() {
        CacheGeometry {
            size_bytes: 1000,
            ways: 2,
            line_bytes: 64,
        }
        .num_sets();
    }

    #[test]
    fn non_power_of_two_set_count_is_allowed() {
        // The E5640's 12 MB L3: 12288 sets.
        let g = CacheGeometry::kib(12 * 1024, 16, 64);
        assert_eq!(g.num_sets(), 12288);
        let mut c = SetAssocCache::new(g);
        assert!(!c.access(0));
        assert!(c.access(0));
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats(), (2, 2));
    }

    #[test]
    #[allow(clippy::erasing_op)] // 0 * 64 spells out the line-address arithmetic
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0: line addresses 0, 4, 8 (set = line & 3).
        let a = 0u64 * 64;
        let b = 4u64 * 64;
        let d = 8u64 * 64;
        c.access(a); // [a]
        c.access(b); // [b, a]
        c.access(a); // [a, b]  — a is MRU now
        c.access(d); // evicts b → [d, a]
        assert!(c.probe(a), "a was MRU, must survive");
        assert!(!c.probe(b), "b was LRU, must be evicted");
        assert!(c.probe(d));
    }

    #[test]
    fn capacity_working_set_fits() {
        let mut c = tiny();
        // 8 distinct lines = exactly capacity; a second sweep in the same
        // order hits only if each set holds its 2 lines (true for uniform
        // mapping 0..8 over 4 sets × 2 ways).
        for i in 0..8u64 {
            c.access(i * 64);
        }
        for i in 0..8u64 {
            assert!(c.access(i * 64), "line {i} should be resident");
        }
        assert_eq!(c.resident_lines(), 8);
    }

    #[test]
    fn oversized_working_set_thrashes() {
        let mut c = tiny();
        // 12 lines -> 3 lines per 2-way set, cyclic sweep = 100% miss under LRU.
        for _ in 0..4 {
            for i in 0..12u64 {
                c.access(i * 64);
            }
        }
        let (hits, misses) = c.stats();
        assert_eq!(hits, 0, "cyclic over-capacity sweep never hits under LRU");
        assert_eq!(misses, 48);
    }

    #[test]
    #[allow(clippy::identity_op)] // `asid | 0` spells out the tag composition
    fn distinct_address_spaces_conflict_not_alias() {
        let mut c = tiny();
        let asid0 = 0u64 << 40;
        let asid1 = 1u64 << 40;
        c.access(asid0 | 0);
        // Same virtual line in another address space is a different tag...
        assert!(!c.access(asid1 | 0));
        // ...but both can be resident at once (2-way set).
        assert!(c.probe(asid0 | 0));
        assert!(c.probe(asid1 | 0));
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert_eq!(c.stats(), (0, 0));
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.probe(0));
    }

    #[test]
    fn tags_allocate_lazily_on_first_access() {
        let mut c = tiny();
        assert_eq!(c.allocated_bytes(), 0, "untouched cache owns no tags");
        assert!(!c.probe(0));
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(0), "first access is a cold miss");
        assert_eq!(c.allocated_bytes(), 8 * 8, "4 sets x 2 ways x 8 bytes");
        assert!(c.probe(0));
        c.flush();
        assert_eq!(c.allocated_bytes(), 0, "flush deallocates, not just fills");
    }

    /// The obvious true-LRU cache: one MRU-first queue per set, `%` set
    /// index, linear search, remove-and-push-front.
    struct NaiveLru {
        line_bytes: u64,
        ways: usize,
        sets: Vec<VecDeque<u64>>,
    }

    impl NaiveLru {
        fn new(g: CacheGeometry) -> Self {
            NaiveLru {
                line_bytes: g.line_bytes as u64,
                ways: g.ways as usize,
                sets: (0..g.num_sets()).map(|_| VecDeque::new()).collect(),
            }
        }

        fn set(&self, line: u64) -> usize {
            (line % self.sets.len() as u64) as usize
        }

        fn access(&mut self, addr: u64) -> bool {
            let line = addr / self.line_bytes;
            let ways = self.ways;
            let set = self.set(line);
            let q = &mut self.sets[set];
            let hit = match q.iter().position(|&t| t == line) {
                Some(pos) => {
                    q.remove(pos);
                    true
                }
                None => {
                    if q.len() == ways {
                        q.pop_back();
                    }
                    false
                }
            };
            q.push_front(line);
            hit
        }

        fn probe(&self, addr: u64) -> bool {
            let line = addr / self.line_bytes;
            self.sets[self.set(line)].contains(&line)
        }

        fn resident_lines(&self) -> usize {
            self.sets.iter().map(VecDeque::len).sum()
        }
    }

    #[test]
    fn matches_naive_lru_on_every_geometry() {
        let geometries = [
            (
                "4x2",
                CacheGeometry {
                    size_bytes: 512,
                    ways: 2,
                    line_bytes: 64,
                },
            ),
            ("64x8", CacheGeometry::kib(32, 8, 64)),
            ("12288x16", CacheGeometry::kib(12 * 1024, 16, 64)),
            (
                "1-set",
                CacheGeometry {
                    size_bytes: 16 * 64,
                    ways: 16,
                    line_bytes: 64,
                },
            ),
            (
                "1-set-3way",
                CacheGeometry {
                    size_bytes: 3 * 128,
                    ways: 3,
                    line_bytes: 128,
                },
            ),
            (
                "1-way",
                CacheGeometry {
                    size_bytes: 32 * 64,
                    ways: 1,
                    line_bytes: 64,
                },
            ),
            (
                "3x2",
                CacheGeometry {
                    size_bytes: 3 * 2 * 64,
                    ways: 2,
                    line_bytes: 64,
                },
            ),
        ];
        for (name, g) in geometries {
            let capacity = g.size_bytes;
            for seed in [1u64, 2, 3] {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut fast = SetAssocCache::new(g);
                let mut naive = NaiveLru::new(g);
                // A hot region re-touched often, a region twice the capacity,
                // and a second address space over the same virtual range.
                for n in 0..60_000u64 {
                    let addr = match rng.random_range(0..4) {
                        0 => rng.random_range(0..capacity / 4 + 64),
                        1 => rng.random_range(0..2 * capacity),
                        2 => (1 << 40) | rng.random_range(0..capacity),
                        _ => (n * g.line_bytes as u64) % (3 * capacity),
                    };
                    assert_eq!(
                        fast.access(addr),
                        naive.access(addr),
                        "{name} seed {seed}: access {n} at {addr:#x}"
                    );
                }
                for k in 0..4_000u64 {
                    let addr = (k % 2) << 40 | rng.random_range(0..2 * capacity);
                    assert_eq!(
                        fast.probe(addr),
                        naive.probe(addr),
                        "{name}: probe {addr:#x}"
                    );
                }
                assert_eq!(fast.resident_lines(), naive.resident_lines(), "{name}");
                let (hits, misses) = fast.stats();
                assert_eq!(hits + misses, 60_000, "{name}");
            }
        }
    }
}
