//! The traced run's span recorder and the timing wrappers it places at the
//! layer boundaries reachable through public generic parameters.
//!
//! Spans stay in memory while the run measures and are written out as
//! NDJSON when it ends. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover.

use cqc_data::Structure;
use cqc_dlm::EdgeFreeOracle;
use cqc_hom::{HomDecider, HybridDecider};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Boolean outcome of the call (`Hom` positive, `EdgeFree` edge-free).
    pub flag: bool,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Time `f` as a span named `name` under `parent`. `f` receives the
    /// span's id, so it can hang children off it; returns `f`'s result and
    /// the span's duration in milliseconds.
    pub fn time<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> (R, f64) {
        let id = self.new_id();
        let start_ns = self.now();
        let out = f(id);
        let end_ns = self.now();
        self.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            flag: false,
        });
        (out, (end_ns - start_ns) as f64 / 1e6)
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock"))
    }
}

/// Per-name totals over a set of spans, with each span's self time
/// (duration minus the union of its children's intervals).
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub flagged: u64,
    pub ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map(|c| union_ns(c)).unwrap_or(0);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.flagged += s.flag as u64;
        t.ns += s.ns();
        t.self_ns += s.ns().saturating_sub(covered);
    }
    out
}

/// Total length of the union of intervals (parallel children overlap).
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map(|(s, e)| e - s).unwrap_or(0)
}

/// Write the spans as NDJSON under `perfbench/out/`.
pub fn write_out(file: &str, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all("perfbench/out")?;
    let mut w = std::io::BufWriter::new(std::fs::File::create(format!("perfbench/out/{file}"))?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"flag\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.flag
        )?;
    }
    w.flush()
}

/// A `Hom` decider that records one span per decision around
/// `HybridDecider`, parented to the `EdgeFree` call that issued it.
pub struct TimedDecider<'r> {
    inner: HybridDecider,
    rec: &'r Recorder,
    parent: AtomicU64,
}

impl<'r> TimedDecider<'r> {
    pub fn new(rec: &'r Recorder) -> Self {
        TimedDecider {
            inner: HybridDecider::new(),
            rec,
            parent: AtomicU64::new(0),
        }
    }
}

impl HomDecider for TimedDecider<'_> {
    fn decide(&self, a: &Structure, b: &Structure) -> bool {
        let id = self.rec.new_id();
        let start_ns = self.rec.now();
        let positive = self.inner.decide(a, b);
        let end_ns = self.rec.now();
        self.rec.push(Span {
            id,
            parent: self.parent.load(Ordering::Relaxed),
            name: "hom",
            start_ns,
            end_ns,
            flag: positive,
        });
        positive
    }
}

/// An `EdgeFree` oracle that records one span per call around the
/// colour-coding oracle, parented to the DLM span of the op.
pub struct TimedOracle<'a, 'r, O> {
    pub inner: O,
    pub decider: &'a TimedDecider<'r>,
    pub parent: u64,
}

impl<O: EdgeFreeOracle> EdgeFreeOracle for TimedOracle<'_, '_, O> {
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn class_size(&self, i: usize) -> usize {
        self.inner.class_size(i)
    }

    fn edge_free(&mut self, parts: &[BTreeSet<usize>]) -> bool {
        let rec = self.decider.rec;
        let id = rec.new_id();
        self.decider.parent.store(id, Ordering::Relaxed);
        let start_ns = rec.now();
        let free = self.inner.edge_free(parts);
        let end_ns = rec.now();
        rec.push(Span {
            id,
            parent: self.parent,
            name: "edge_free",
            start_ns,
            end_ns,
            flag: free,
        });
        free
    }

    fn calls(&self) -> u64 {
        self.inner.calls()
    }
}
