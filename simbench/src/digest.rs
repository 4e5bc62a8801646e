//! Output digests: FNV-1a over the simulated results, so a run's
//! correctness is one number per seed. Floats enter as `to_bits()`, so a
//! digest only holds when every simulated statistic is bit-identical.

use std::sync::Arc;

use tiptop_core::cluster::ClusterWindow;
use tiptop_core::reactive::AppliedDecision;
use tiptop_core::render::Frame;
use tiptop_kernel::kernel::ExitRecord;

/// 64-bit FNV-1a.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Length-prefixed, so `("ab", "c")` and `("a", "bc")` differ.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Digest of one machine's frame stream: every field a rendered frame is
/// made from — time, header, and each row's pid, user, command, `%CPU`
/// and metric values in column order.
#[derive(Default)]
pub struct StreamDigest {
    hash: Fnv,
    header: Option<Arc<[(String, usize)]>>,
}

impl StreamDigest {
    pub fn frame(&mut self, f: &Frame) {
        // Monitors share one header slice across frames; hash it when it
        // changes rather than per frame.
        if !self
            .header
            .as_ref()
            .is_some_and(|h| Arc::ptr_eq(h, &f.headers))
        {
            for (name, width) in f.headers.iter() {
                self.hash.str(name).u64(*width as u64);
            }
            self.header = Some(Arc::clone(&f.headers));
        }
        self.hash.u64(f.time.as_nanos()).u64(f.unobservable as u64);
        for row in &f.rows {
            self.hash
                .u64(u64::from(row.pid.0))
                .str(&row.user)
                .str(&row.comm)
                .f64(row.cpu_pct);
            for (_, v) in &row.values {
                self.hash.f64(*v);
            }
        }
    }

    pub fn finish(&self) -> u64 {
        self.hash.get()
    }
}

pub fn exit_record(h: &mut Fnv, r: &ExitRecord) {
    h.u64(u64::from(r.pid.0))
        .str(&r.comm)
        .u64(u64::from(r.uid.0))
        .u64(r.start_time.as_nanos())
        .u64(r.end_time.as_nanos())
        .u64(r.utime.as_nanos())
        .u64(r.total_instructions);
    for (_, count) in r.ground_truth.iter() {
        h.u64(count);
    }
}

pub fn decision(h: &mut Fnv, d: &AppliedDecision) {
    h.str(&d.policy)
        .str(&d.tag)
        .str(&d.from)
        .str(&d.to)
        .str(d.mode.label())
        .u64(d.decided_at.as_nanos())
        .u64(d.applied_at.as_nanos());
}

pub fn window(h: &mut Fnv, w: &ClusterWindow) {
    h.u64(w.index as u64)
        .u64(w.start.as_nanos())
        .u64(w.end.as_nanos())
        .u64(w.frames as u64);
    for ((machine, monitor), stats) in &w.sources {
        h.str(machine)
            .str(monitor)
            .u64(stats.frames as u64)
            .u64(stats.rows as u64)
            .u64(stats.handover_rows as u64);
        for column in stats.columns() {
            h.str(&column).f64(stats.mean(&column).unwrap_or(f64::NAN));
        }
    }
}
