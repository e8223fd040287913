//! In-memory span tracing around the calls the benchmark makes into a
//! layer. Spans are recorded only while the tracer is enabled (the
//! traced rounds of a `--trace 1` run), kept in memory, aggregated and
//! written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// "No span": the parent of a root span, and what [`Tracer::begin`]
/// returns while tracing is off.
pub const NO_SPAN: u32 = u32::MAX;

/// One timed call: which layer boundary, caused by which span, for which
/// request (tick index or session cycle).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub req: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals: a span's self time is its duration minus the part
/// its child spans cover.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A disabled tracer with room for `capacity` spans, so recording
    /// never reallocates inside a measured round.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str, parent: u32, req: u32) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns: now,
            end_ns: now,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        if id != NO_SPAN {
            self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<u32> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns).min(u64::from(u32::MAX)) as u32)
            .collect()
    }

    /// Spans recorded so far: a slice's spans are the ones recorded
    /// between its two cuts.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn aggregates(&self) -> BTreeMap<&'static str, Aggregate> {
        self.aggregates_in(std::iter::once(0..self.spans.len()))
    }

    /// The aggregates of the spans in `ranges` (of recording order).
    pub fn aggregates_in(
        &self,
        ranges: impl IntoIterator<Item = Range<usize>>,
    ) -> BTreeMap<&'static str, Aggregate> {
        let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
        for s in ranges.into_iter().flat_map(|r| &self.spans[r]) {
            let dur = s.end_ns - s.start_ns;
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur;
            if s.parent != NO_SPAN {
                let parent = out.entry(self.spans[s.parent as usize].name).or_default();
                parent.self_ns = parent.self_ns.saturating_sub(dur);
            }
        }
        out
    }

    /// Writes the aggregates and the first `max_spans` spans as JSON.
    pub fn write_json(&self, path: &Path, workload: &str, max_spans: usize) -> io::Result<()> {
        let mut s = String::new();
        let _ = writeln!(s, "{{\"workload\": \"{workload}\",");
        let _ = writeln!(s, " \"spans_recorded\": {},", self.spans.len());
        let _ = writeln!(s, " \"aggregates\": {{");
        let aggs = self.aggregates();
        for (i, (name, a)) in aggs.iter().enumerate() {
            let comma = if i + 1 < aggs.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{comma}",
                a.count, a.total_ns, a.self_ns
            );
        }
        let _ = writeln!(s, " }},");
        let _ = writeln!(s, " \"spans\": [");
        let shown = self.spans.len().min(max_spans);
        for (i, sp) in self.spans[..shown].iter().enumerate() {
            let comma = if i + 1 < shown { "," } else { "" };
            let parent = if sp.parent == NO_SPAN {
                -1
            } else {
                i64::from(sp.parent)
            };
            let _ = writeln!(
                s,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"req\": {}, \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                sp.name, sp.req, sp.start_ns, sp.end_ns
            );
        }
        let _ = writeln!(s, " ]\n}}");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut tr = Tracer::new(8);
        assert_eq!(tr.begin("x", NO_SPAN, 0), NO_SPAN);
        tr.set_enabled(true);
        let round = tr.begin("round", NO_SPAN, 0);
        tr.time("tick", round, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.end(round);
        let aggs = tr.aggregates();
        assert_eq!(aggs["tick"].count, 1);
        assert_eq!(
            aggs["round"].self_ns,
            aggs["round"].total_ns - aggs["tick"].total_ns
        );
        assert_eq!(tr.durations_ns("tick").len(), 1);

        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}.json", std::process::id()));
        tr.write_json(&path, "unit", 1)
            .expect("trace file is written");
        let text = std::fs::read_to_string(&path).expect("and read back");
        std::fs::remove_file(&path).expect("and removed");
        assert!(text.contains("\"spans_recorded\": 2"));
        assert_eq!(text.matches("\"id\":").count(), 1, "capped at one span");
    }
}
