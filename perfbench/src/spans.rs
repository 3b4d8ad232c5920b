//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a layer call's name, start, end, parent span and the
//! unit it belongs to. Spans live in memory for the whole traced run
//! and are written out as JSON lines when it ends. A disabled tracer
//! records nothing and reads no clock.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    unit: u32,
}

/// Open-span handle returned by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<usize>);

/// Per-name totals from [`Tracer::self_times`].
#[derive(Debug, Clone, Default)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    unit: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (open spans must all be closed).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggled with open spans");
        self.enabled = enabled;
    }

    /// Tags the spans that follow with a unit id.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            unit: self.unit,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span; returns its duration in ns (0 when disabled).
    pub fn end(&mut self, open: Open) -> u64 {
        let Some(id) = open.0 else { return 0 };
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Total and self time per span name. A span's self time is its
    /// duration minus the durations of its direct children (children
    /// nest strictly inside their parent).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let row = out.entry(s.name).or_default();
            row.count += 1;
            row.total_ns += dur;
            row.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Renders the per-layer self-time table (layer = the span name's
    /// prefix before the first `.`).
    pub fn render_self_times(&self) -> String {
        let rows = self.self_times();
        let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
        let mut total_self = 0u64;
        for (name, row) in &rows {
            let layer = name.split('.').next().unwrap_or(name);
            *layers.entry(layer).or_default() += row.self_ns;
            total_self += row.self_ns;
        }
        let mut out = String::from("per-layer self time (traced passes and layer probes)\n");
        out += &format!(
            "  {:<24} {:>10} {:>12} {:>12} {:>7}\n",
            "span", "count", "total_ms", "self_ms", "self%"
        );
        for (name, row) in &rows {
            out += &format!(
                "  {:<24} {:>10} {:>12.3} {:>12.3} {:>6.1}%\n",
                name,
                row.count,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6,
                100.0 * row.self_ns as f64 / total_self.max(1) as f64
            );
        }
        out += "  by layer:";
        for (layer, ns) in &layers {
            out += &format!(
                " {layer} {:.1}%",
                100.0 * *ns as f64 / total_self.max(1) as f64
            );
        }
        out
    }

    /// Writes every recorded span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}",
                s.name, s.start_ns, s.end_ns, s.unit
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("a.outer");
        let inner = t.begin("b.inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let rows = t.self_times();
        let (o, i) = (&rows["a.outer"], &rows["b.inner"]);
        assert_eq!(o.total_ns, o.self_ns + i.total_ns);
        assert!(i.self_ns >= 2_000_000);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x.y");
        assert_eq!(t.end(s), 0);
        assert!(t.self_times().is_empty());
    }
}
