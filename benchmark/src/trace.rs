//! In-memory span recorder for the traced run.
//!
//! One span per layer boundary, recorded from the benchmark's side of
//! the call (the program under test is not instrumented): name, start,
//! end, the span that caused it, and counts taken at the same
//! boundary. Spans of one operation share an `op_id`. Everything stays
//! in memory until [`Tracer::write_jsonl`] at the end of the run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle of a recorded span (its index in the tracer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    op_id: u64,
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    counts: Vec<(&'static str, u64)>,
}

/// Records spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for `workload`; span times are nanoseconds since now.
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, op_id: u64, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op_id,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Close a span.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Time `f` as a child span of `parent`.
    pub fn scoped<T>(
        &mut self,
        op_id: u64,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let id = self.begin(op_id, name, parent);
        let out = f();
        self.end(id);
        (id, out)
    }

    /// Attach a count taken at this span's boundary.
    pub fn count(&mut self, id: SpanId, key: &'static str, value: u64) {
        self.spans[id.0].counts.push((key, value));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Wall time of a span in nanoseconds.
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id.0];
        s.end_ns - s.start_ns
    }

    /// A span's self time: its duration minus the part of its interval
    /// its direct children cover (overlapping children count once).
    pub fn self_time_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id.0];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns, c.end_ns))
            .collect();
        (span.end_ns - span.start_ns) - covered_ns(span.start_ns, span.end_ns, children)
    }

    /// Over all root spans called `root`: the share of their wall time
    /// no child span accounts for.
    pub fn unaccounted_share(&self, root: &str) -> f64 {
        let (mut wall, mut own) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root && s.parent.is_none() {
                wall += s.end_ns - s.start_ns;
                own += self.self_time_ns(SpanId(i));
            }
        }
        if wall == 0 {
            0.0
        } else {
            own as f64 / wall as f64
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => p.0.to_string(),
                None => "null".to_string(),
            };
            let counts = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect::<Vec<_>>()
                .join(",");
            writeln!(
                w,
                "{{\"workload\":\"{}\",\"op_id\":{},\"span_id\":{i},\"span\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"counts\":{{{counts}}}}}",
                self.workload,
                s.op_id,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_time_ns(SpanId(i)),
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans, so the arithmetic is exact.
    fn fixed(spans: &[(&'static str, Option<usize>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new("unit");
        for &(name, parent, start_ns, end_ns) in spans {
            t.spans.push(Span {
                op_id: 0,
                name,
                parent: parent.map(SpanId),
                start_ns,
                end_ns,
                counts: Vec::new(),
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_child_cover() {
        let t = fixed(&[
            ("op", None, 0, 100),
            ("sampler", Some(0), 5, 25),
            ("density", Some(0), 25, 85),
            ("bfs", Some(2), 30, 80),
        ]);
        assert_eq!(t.self_time_ns(SpanId(0)), 100 - 20 - 60);
        assert_eq!(t.self_time_ns(SpanId(1)), 20);
        // Grandchildren only reduce their own parent.
        assert_eq!(t.self_time_ns(SpanId(2)), 10);
        assert_eq!(t.self_time_ns(SpanId(3)), 50);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let t = fixed(&[
            ("op", None, 0, 100),
            ("worker", Some(0), 10, 60),
            ("worker", Some(0), 40, 90),
        ]);
        assert_eq!(t.self_time_ns(SpanId(0)), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(covered_ns(10, 20, vec![(0, 12), (18, 40)]), 4);
        assert_eq!(covered_ns(10, 20, vec![(0, 5), (25, 30)]), 0);
        assert_eq!(covered_ns(10, 20, vec![(0, 100)]), 10);
    }

    #[test]
    fn unaccounted_share_pools_root_spans() {
        let t = fixed(&[
            ("op", None, 0, 100),
            ("density", Some(0), 0, 90),
            ("op", None, 100, 200),
            ("density", Some(2), 100, 190),
            ("other", None, 200, 300),
        ]);
        assert!((t.unaccounted_share("op") - 0.1).abs() < 1e-12);
        assert_eq!(t.unaccounted_share("missing"), 0.0);
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_parent_links() {
        let mut t = Tracer::new("unit");
        let root = t.begin(7, "op", None);
        let (child, _) = t.scoped(7, "sampler", Some(root), || ());
        t.count(child, "sampled_refs", 400);
        t.end(root);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("unit-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"span\":\"op\"") && lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"sampled_refs\":400"));
        assert!(t.duration_ns(root) >= t.duration_ns(child));
    }
}
