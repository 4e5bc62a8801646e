//! Columnar frame batches: the unit of transport between the cluster's
//! free-running workers and their merge.
//!
//! Rather than one channel message per observed frame, each carrying
//! freshly allocated `String` labels, a [`FrameBatch`] accumulates an observation round's frames in columns — one flat
//! row column plus per-frame metadata keyed by interned [`SymId`]s
//! (machine id, monitor name, per-row command) — and is sent once. Batch
//! shells are recycled through a pool once the merge has delivered them,
//! so a steady-state run allocates no transport memory per round at all.
//!
//! Consumers that understand the columnar layout
//! ([`crate::cluster::ClusterWindowSink`]) fold straight from the columns;
//! everything else materializes [`ClusterFrame`]s via
//! [`FrameBatch::take_frame`], which moves the rows out without copying.

use std::sync::{Arc, Mutex};

use tiptop_machine::time::SimTime;

use crate::cluster::ClusterFrame;
use crate::render::{Frame, Row};
use crate::symbols::{self, SymId};

/// Per-frame metadata inside a [`FrameBatch`]; rows live in the batch's
/// flat row column.
#[derive(Debug)]
struct FrameMeta {
    machine: SymId,
    machine_index: usize,
    source: SymId,
    seq: usize,
    time: SimTime,
    unobservable: usize,
    headers: Arc<[(String, usize)]>,
    rows_start: usize,
    rows_end: usize,
}

/// A batch of consecutive frames from one merge queue, stored columnar:
/// frame metadata (interned labels, times, row ranges) in one vector, all
/// rows flattened into another, with each row's command interned alongside.
/// Frames in a batch are ordered by `(time, machine_index)` — the producing
/// worker emits them that way — so the merge can deliver whole runs of a
/// batch with one sink call.
#[derive(Debug)]
pub struct FrameBatch {
    queue: usize,
    metas: Vec<FrameMeta>,
    rows: Vec<Row>,
    /// Interned command per row, parallel to `rows` — the id-based dedupe
    /// key for window aggregation.
    comms: Vec<SymId>,
    /// Running estimate of the row payload's heap footprint.
    row_bytes: usize,
}

impl FrameBatch {
    /// An empty batch bound to merge queue `queue`.
    pub fn new(queue: usize) -> Self {
        FrameBatch {
            queue,
            metas: Vec::new(),
            rows: Vec::new(),
            comms: Vec::new(),
            row_bytes: 0,
        }
    }

    pub fn queue(&self) -> usize {
        self.queue
    }

    /// Re-bind a recycled shell to a (possibly different) queue.
    pub fn set_queue(&mut self, queue: usize) {
        self.queue = queue;
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Append one frame, moving its rows into the flat column and interning
    /// each row's command.
    pub fn push(
        &mut self,
        machine: SymId,
        machine_index: usize,
        source: SymId,
        seq: usize,
        frame: Frame,
    ) {
        let Frame {
            time,
            headers,
            rows,
            unobservable,
        } = frame;
        let rows_start = self.rows.len();
        for row in rows {
            self.comms.push(symbols::intern(&row.comm));
            self.row_bytes += row_heap_estimate(&row);
            self.rows.push(row);
        }
        self.metas.push(FrameMeta {
            machine,
            machine_index,
            source,
            seq,
            time,
            unobservable,
            headers,
            rows_start,
            rows_end: self.rows.len(),
        });
    }

    /// Forget the contents, keeping every allocation for reuse.
    pub fn clear(&mut self) {
        self.metas.clear();
        self.rows.clear();
        self.comms.clear();
        self.row_bytes = 0;
    }

    /// Rough heap footprint of the buffered frames (the merge's
    /// peak-buffered-bytes statistic).
    pub fn approx_bytes(&self) -> usize {
        self.row_bytes
            + self.metas.capacity() * std::mem::size_of::<FrameMeta>()
            + self.rows.capacity() * std::mem::size_of::<Row>()
            + self.comms.capacity() * std::mem::size_of::<SymId>()
    }

    /// Observation time of frame `i`.
    pub fn time(&self, i: usize) -> SimTime {
        self.metas[i].time
    }

    /// Machine declaration index of frame `i` (the merge tie-breaker).
    pub fn machine_index(&self, i: usize) -> usize {
        self.metas[i].machine_index
    }

    /// Merge key of the first frame, if any.
    pub fn first_key(&self) -> Option<(SimTime, usize)> {
        self.metas.first().map(|m| (m.time, m.machine_index))
    }

    /// Interned `(machine, source)` labels of frame `i`.
    pub fn labels(&self, i: usize) -> (SymId, SymId) {
        (self.metas[i].machine, self.metas[i].source)
    }

    /// Rows of frame `i`, in place.
    pub fn rows_of(&self, i: usize) -> &[Row] {
        let m = &self.metas[i];
        &self.rows[m.rows_start..m.rows_end]
    }

    /// Interned command per row of frame `i`, parallel to
    /// [`FrameBatch::rows_of`].
    pub fn comms_of(&self, i: usize) -> &[SymId] {
        let m = &self.metas[i];
        &self.comms[m.rows_start..m.rows_end]
    }

    /// Materialize frame `i` as a labelled [`ClusterFrame`], moving its
    /// rows out of the column (each row is taken once; taking a frame twice
    /// yields empty rows). Labels resolve through the process-wide symbol
    /// table.
    pub fn take_frame(&mut self, i: usize) -> ClusterFrame {
        let m = &self.metas[i];
        let rows = self.rows[m.rows_start..m.rows_end]
            .iter_mut()
            .map(take_row)
            .collect();
        ClusterFrame {
            machine: symbols::resolve(m.machine).into(),
            machine_index: m.machine_index,
            source: symbols::resolve(m.source).into(),
            seq: m.seq,
            frame: Frame {
                time: m.time,
                headers: m.headers.clone(),
                rows,
                unobservable: m.unobservable,
            },
        }
    }
}

/// The bounded pool of recycled [`FrameBatch`] shells shared between the
/// merge thread (which returns spent shells) and the shard workers (which
/// take them to fill the next round). The bound matters: a bursty run —
/// many small flushes racing one slow merge — would otherwise let returned
/// shells accumulate without limit, each one pinning its grown row and
/// metadata capacity. At the cap, [`ShellPool::put`] drops the shell
/// instead, so idle transport memory is `O(cap)` no matter how long or
/// bursty the run.
#[derive(Debug)]
pub struct ShellPool {
    shells: Mutex<Vec<FrameBatch>>,
    cap: usize,
}

impl ShellPool {
    /// A pool holding at most `cap` idle shells.
    pub fn new(cap: usize) -> Self {
        ShellPool {
            shells: Mutex::new(Vec::new()),
            cap,
        }
    }

    /// The bound: idle shells beyond this are dropped, not hoarded.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Idle shells currently pooled.
    pub fn len(&self) -> usize {
        self.shells.lock().expect("shell pool poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty shell bound to `queue`: a recycled one when available,
    /// freshly allocated otherwise.
    pub fn take(&self, queue: usize) -> FrameBatch {
        match self.shells.lock().expect("shell pool poisoned").pop() {
            Some(mut shell) => {
                shell.set_queue(queue);
                shell
            }
            None => FrameBatch::new(queue),
        }
    }

    /// Clear a spent batch and return its allocations to the pool —
    /// unless the pool already holds [`ShellPool::cap`] shells, in which
    /// case the batch is dropped.
    pub fn put(&self, mut batch: FrameBatch) {
        batch.clear();
        let mut shells = self.shells.lock().expect("shell pool poisoned");
        if shells.len() < self.cap {
            shells.push(batch);
        }
    }
}

fn take_row(row: &mut Row) -> Row {
    std::mem::replace(
        row,
        Row::new(
            tiptop_kernel::task::Pid(0),
            String::new(),
            String::new(),
            0.0,
            Vec::new(),
            Vec::new(),
        ),
    )
}

fn row_heap_estimate(row: &Row) -> usize {
    let cells = row
        .materialized_cells()
        .map(|cs| std::mem::size_of_val(cs) + cs.iter().map(|c| c.capacity()).sum::<usize>())
        .unwrap_or(0);
    std::mem::size_of::<Row>()
        + row.user.capacity()
        + row.comm.capacity()
        + cells
        + row.values.capacity() * std::mem::size_of::<(SymId, f64)>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::values_of;
    use tiptop_kernel::task::Pid;

    fn frame(t: u64, comms: &[&str]) -> Frame {
        let rows = comms
            .iter()
            .enumerate()
            .map(|(i, c)| {
                Row::new(
                    Pid(i as u32 + 1),
                    "u",
                    *c,
                    50.0,
                    vec![c.to_string()],
                    values_of([("IPC", 1.5)]),
                )
            })
            .collect();
        Frame {
            time: SimTime::from_secs(t),
            headers: vec![("COMMAND".to_string(), 12)].into(),
            rows,
            unobservable: 0,
        }
    }

    #[test]
    fn batch_roundtrips_frames_in_order() {
        let m = symbols::intern("batch-test-m0");
        let src = symbols::intern("tiptop");
        let mut b = FrameBatch::new(0);
        b.push(m, 0, src, 0, frame(1, &["a", "b"]));
        b.push(m, 0, src, 1, frame(2, &["a"]));
        assert_eq!(b.len(), 2);
        assert_eq!(b.first_key(), Some((SimTime::from_secs(1), 0)));
        assert_eq!(b.rows_of(0).len(), 2);
        assert_eq!(b.comms_of(1), &[symbols::intern("a")]);
        assert!(b.approx_bytes() > 0);

        let f0 = b.take_frame(0);
        assert_eq!(f0.machine, "batch-test-m0");
        assert_eq!(f0.source, "tiptop");
        assert_eq!(f0.seq, 0);
        assert_eq!(f0.frame.rows.len(), 2);
        assert_eq!(f0.frame.rows[1].comm, "b");
        let f1 = b.take_frame(1);
        assert_eq!(f1.frame.time, SimTime::from_secs(2));
        assert_eq!(f1.frame.rows[0].cells(), vec!["a".to_string()]);

        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.first_key(), None);
    }

    #[test]
    fn shell_pool_recycles_and_rebinds() {
        let pool = ShellPool::new(4);
        assert!(pool.is_empty());
        let mut shell = pool.take(3);
        assert_eq!(shell.queue(), 3);
        let m = symbols::intern("pool-test-m0");
        let src = symbols::intern("tiptop");
        shell.push(m, 0, src, 0, frame(1, &["a"]));
        pool.put(shell);
        assert_eq!(pool.len(), 1);
        let recycled = pool.take(7);
        assert!(recycled.is_empty(), "put clears before pooling");
        assert_eq!(recycled.queue(), 7, "take re-binds the shell's queue");
        assert!(pool.is_empty());
    }

    #[test]
    fn shell_pool_is_bounded() {
        let pool = ShellPool::new(2);
        for _ in 0..10 {
            pool.put(FrameBatch::new(0));
        }
        assert_eq!(pool.len(), 2, "idle shells beyond the cap are dropped");
        assert_eq!(pool.cap(), 2);
        // Draining and refilling keeps honouring the bound.
        let a = pool.take(0);
        let b = pool.take(1);
        let c = pool.take(2);
        pool.put(a);
        pool.put(b);
        pool.put(c);
        assert_eq!(pool.len(), 2);
    }
}
