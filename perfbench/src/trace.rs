//! In-memory spans recorded around calls into each layer, with parent
//! links, self-time attribution, and a JSON-lines dump at the end.
//!
//! Spans are recorded only from the benchmark's own code: around a
//! public call into a layer, or reconstructed from a layer's own
//! callback (a pass observer reports its elapsed time when the pass
//! ends). Nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed interval of one layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one (`None` for a client-level root).
    pub parent: Option<u64>,
    /// The layer this span is charged to (`engine`, `core`, `sim`, ...).
    pub layer: &'static str,
    /// A finer label (pass name, circuit, request class).
    pub name: String,
    /// Interval start.
    pub start: Instant,
    /// Interval end.
    pub end: Instant,
}

/// A thread-safe span sink. Disabled tracers record nothing, so the
/// untraced path pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: Mutex<u64>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: Mutex::new(1),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves an id for a span whose interval is recorded later (a
    /// parent whose children are recorded first).
    pub fn reserve(&self) -> u64 {
        let mut next = self.next_id.lock().expect("span id lock poisoned");
        let id = *next;
        *next += 1;
        id
    }

    /// Records a finished span under a reserved id.
    pub fn record_as(
        &self,
        id: u64,
        parent: Option<u64>,
        layer: &'static str,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.lock().expect("span lock poisoned").push(Span {
            id,
            parent,
            layer,
            name: name.into(),
            start,
            end,
        });
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn record(
        &self,
        parent: Option<u64>,
        layer: &'static str,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.reserve();
        self.record_as(id, parent, layer, name, start, end);
        id
    }

    /// Takes the recorded spans.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock poisoned"))
    }

    /// The instant span offsets are written relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(lo: Instant, hi: Instant, intervals: &mut [(Instant, Instant)]) -> Duration {
    intervals.sort_by_key(|&(s, _)| s);
    let mut total = Duration::ZERO;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time per layer: each span's duration minus the part of it its
/// child spans cover. Root spans (no parent) are the client-observed
/// totals; their self time is the unattributed remainder, reported under
/// the layer name `unattributed`. Also returns the summed root duration.
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, Duration>, Duration) {
    let mut children: BTreeMap<u64, Vec<(Instant, Instant)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut by_layer: BTreeMap<&'static str, Duration> = BTreeMap::new();
    let mut total = Duration::ZERO;
    for s in spans {
        let dur = s.end.saturating_duration_since(s.start);
        let cov = children
            .get_mut(&s.id)
            .map(|c| covered(s.start, s.end, c))
            .unwrap_or_default();
        let layer = if s.parent.is_none() {
            total += dur;
            "unattributed"
        } else {
            s.layer
        };
        *by_layer.entry(layer).or_default() += dur.saturating_sub(cov);
    }
    (by_layer, total)
}

/// Writes spans as JSON lines (offsets in microseconds from `epoch`).
pub fn write_jsonl(path: &std::path::Path, epoch: Instant, spans: &[Span]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let name = caqr_wire::Value::str(s.name.clone()).encode();
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
            s.id,
            parent,
            s.layer,
            name,
            us(s.start),
            us(s.end)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_union_of_children() {
        let t = Tracer::new(true);
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let root = t.record(None, "client", "round", ms(0), ms(100));
        let eng = t.record(Some(root), "engine", "run", ms(10), ms(90));
        // Two overlapping jobs cover 20..70 of the engine span.
        t.record(Some(eng), "engine.job", "a", ms(20), ms(60));
        t.record(Some(eng), "engine.job", "b", ms(30), ms(70));
        let (layers, total) = self_times(&t.take());
        assert_eq!(total, Duration::from_millis(100));
        assert_eq!(layers["unattributed"], Duration::from_millis(20));
        assert_eq!(layers["engine"], Duration::from_millis(30));
        assert_eq!(layers["engine.job"], Duration::from_millis(80));
    }
}
