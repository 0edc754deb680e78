//! In-memory spans recorded around calls into each layer's public
//! functions during a traced run's replay. A span has a name, a start
//! and end, a parent, and the request id (`proto::span_id`) of the
//! request it served. Spans are written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    base: Instant,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { base: Instant::now(), list: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.list.push(Span { name, request, parent, start_ns, end_ns: start_ns });
        self.list.len() - 1
    }

    pub fn close(&mut self, index: usize) {
        self.list[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.open(name, request, parent);
        let out = std::hint::black_box(f());
        self.close(index);
        out
    }

    /// Each span's self time: its duration minus its children's. The
    /// replay times a layer's inner calls separately on the same inputs,
    /// so a child's interval need not lie inside its parent's; self time
    /// subtracts durations, not covered intervals.
    pub fn self_ns(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.list.iter().map(|s| s.dur_ns() as f64).collect();
        for span in &self.list {
            if let Some(parent) = span.parent {
                own[parent] -= span.dur_ns() as f64;
            }
        }
        own
    }

    /// Durations in ns of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.list.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
    }

    /// Writes the spans as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.list.len() * 96);
        for (index, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"request\":\"{:016x}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
