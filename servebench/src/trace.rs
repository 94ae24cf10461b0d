//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records its name, layer, start, end, parent span and request id.
//! Spans are kept in memory during the run and written out when it ends.
//! They wrap only calls made from this package: spans inside the program
//! are a separate change.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span that is a child of `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let request = self.spans[parent].request;
        let id = self.open(name, layer, Some(parent), request);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span called `name`.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Self time in µs per (request, layer): each span's duration minus the
    /// part of it its children cover.
    pub fn self_time(&self) -> BTreeMap<(u64, &'static str), f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry((span.request, span.layer)).or_insert(0.0) += own as f64 / 1e3;
        }
        out
    }
}

/// Writes every tracer's spans as tab-separated lines:
/// `tracer  id  parent  request  layer  name  start_ns  end_ns`.
pub fn write_tsv(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "tracer\tid\tparent\trequest\tlayer\tname\tstart_ns\tend_ns"
    )?;
    for (t, tracer) in tracers.iter().enumerate() {
        for (id, s) in tracer.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{t}\t{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.request, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("request", "bench", None, 7);
        t.span("child", "core", root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let own = t.self_time();
        let core = own[&(7, "core")];
        let bench = own[&(7, "bench")];
        assert!(core >= 2_000.0);
        assert!(bench < core, "the root's own time excludes its child");
        assert_eq!(t.micros_of("child").len(), 1);
    }
}
