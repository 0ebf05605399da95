//! In-memory spans recorded by the benchmark around its calls into the
//! program's public functions. A span's self time is its duration minus
//! the time its child spans cover; spans are written out only when the
//! caller names a file.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span: a call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The grid cell (or pass) the span belongs to.
    pub cell: u32,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, cell: u32) -> SpanId {
        let start_ns = self.now_ns();
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            cell,
        });
        id
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id.0 as usize].end_ns = now;
    }

    /// Records a closed span whose ends were observed elsewhere.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, cell: u32) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            cell,
        });
    }

    /// Number of spans recorded so far; a mark for [`Tracer::self_times`].
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time (ns) and call count per span name over the spans from
    /// index `from` on.
    pub fn self_times(&self, from: usize) -> BTreeMap<&'static str, (u64, u64)> {
        let spans = &self.spans[from..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                if let Some(i) = (p as usize).checked_sub(from) {
                    child_ns[i] += s.end_ns - s.start_ns;
                }
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child);
            e.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id": {i}, "name": "{}", "start_ns": {}, "end_ns": {}, "parent": {parent}, "cell": {}}}"#,
                s.name, s.start_ns, s.end_ns, s.cell
            )?;
        }
        w.flush()
    }
}
