//! In-memory span recording for the traced run. Spans carry a name
//! (`<layer>.<operation>`), start, end, parent span and request id; they
//! are kept in memory and written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span measures blocking (on a lock, a device or a schedule)
    /// rather than work.
    pub wait: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
        wait: bool,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span list lock");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            wait,
        });
        id
    }

    /// Runs `f` inside a span and returns its result and the span's
    /// duration in seconds.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        self.time_as(name, parent, request, false, f)
    }

    pub fn time_as<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        wait: bool,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, request, start, end, wait);
        (out, (end - start).as_secs_f64())
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span list lock").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"wait\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.name,
                s.start_ns,
                s.end_ns,
                s.wait
            )?;
        }
        out.flush()
    }
}

/// What one layer's spans add up to.
#[derive(Default, Debug)]
pub struct LayerTotals {
    pub count: u64,
    pub busy_ns: u64,
    /// Busy time minus the durations of each span's children, matched by
    /// parent id (children are replays of the span's work and need not
    /// lie inside its interval), never below zero per span.
    pub self_ns: u64,
    pub wait_ns: u64,
}

/// Summed duration of each span's children, by parent id.
fn children_ns(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *sums.entry(parent).or_default() += s.duration_ns();
        }
    }
    sums
}

/// Count, busy, self and wait time per layer.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<String, LayerTotals> {
    let children_ns = children_ns(spans);
    let mut totals: BTreeMap<String, LayerTotals> = BTreeMap::new();
    for s in spans {
        let children = children_ns.get(&s.id).copied().unwrap_or(0);
        let t = totals.entry(s.layer().to_string()).or_default();
        t.count += 1;
        t.busy_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(children);
        if s.wait {
            t.wait_ns += s.duration_ns();
        }
    }
    totals
}

/// Share of the root spans' time that their children account for, over
/// the roots whose name is `root` and that have children; each root's
/// children count up to its own duration. `None` without such roots.
pub fn attributed_share(spans: &[Span], root: &str) -> Option<f64> {
    let children_ns = children_ns(spans);
    let (mut covered, mut total) = (0u64, 0u64);
    for s in spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
    {
        if let Some(&children) = children_ns.get(&s.id) {
            covered += children.min(s.duration_ns());
            total += s.duration_ns();
        }
    }
    (total > 0).then(|| covered as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: name.into(),
            start_ns,
            end_ns,
            wait: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_matched_by_parent_id() {
        // Children replay the parent's work elsewhere in time.
        let spans = vec![
            span(1, None, "client.ingest", 0, 100),
            span(2, Some(1), "ingest.segment", 200, 250),
            span(3, Some(2), "parse.lines", 300, 330),
            span(4, Some(1), "store.sync", 400, 420),
            span(5, None, "client.ingest", 500, 540),
            span(6, Some(5), "store.sync", 600, 700),
        ];
        let totals = layer_totals(&spans);
        assert_eq!(totals["client"].busy_ns, 140);
        assert_eq!(totals["client"].self_ns, 100 - 50 - 20);
        assert_eq!(totals["ingest"].self_ns, 50 - 30);
        assert_eq!(totals["store"].count, 2);
        assert_eq!(totals["store"].self_ns, 120);
        assert_eq!(
            attributed_share(&spans, "client.ingest"),
            Some((70.0 + 40.0) / 140.0)
        );
        assert_eq!(attributed_share(&spans, "client.scrape"), None);
    }
}
