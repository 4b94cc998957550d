//! In-memory spans for the traced replay.
//!
//! A span records a layer's name, its start and end relative to the
//! recorder's origin, the span that contains it and the tick it belongs
//! to. Spans stay in memory until the benchmark writes them out at exit.
//! A disabled recorder reads no clock and keeps nothing, so the replay can
//! run with spans off to measure their overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks a span without a parent, or a span outside any tick.
pub const NONE: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer boundary the span times.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the containing span, or [`NONE`].
    pub parent: u32,
    /// The replayed tick, or [`NONE`].
    pub tick: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; does nothing when disabled.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans (`enabled`) or ignores them.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (meaningless when disabled).
    pub fn open(&mut self, name: &'static str, parent: u32, tick: u32) -> u32 {
        if !self.enabled {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            tick,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes the span `index` opened.
    pub fn close(&mut self, index: u32) {
        if self.enabled {
            let end_ns = self.now_ns();
            self.spans[index as usize].end_ns = end_ns;
        }
    }

    /// Times `work` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        tick: u32,
        work: impl FnOnce() -> R,
    ) -> R {
        let index = self.open(name, parent, tick);
        let result = work();
        self.close(index);
        result
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: how many spans, their summed duration and their
    /// summed self time (duration minus the time their children cover),
    /// in nanoseconds.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NONE {
                child_ns[span.parent as usize] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = totals.entry(span.name).or_default();
            total.count += 1;
            total.total_ns += span.duration_ns();
            total.self_ns += span.duration_ns().saturating_sub(children);
        }
        totals
    }

    /// Writes every span as a tab-separated line:
    /// `id parent tick name start_ns end_ns` (`-` for no parent or tick).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\ttick\tname\tstart_ns\tend_ns")?;
        let field = |value: u32| {
            if value == NONE {
                "-".to_string()
            } else {
                value.to_string()
            }
        };
        for (id, span) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}",
                field(span.parent),
                field(span.tick),
                span.name,
                span.start_ns,
                span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Aggregate of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Number of spans.
    pub count: u64,
    /// Summed duration (ns).
    pub total_ns: u64,
    /// Summed self time (ns).
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new(true);
        tracer.spans = vec![
            Span {
                name: "tick",
                start_ns: 0,
                end_ns: 100,
                parent: NONE,
                tick: 0,
            },
            Span {
                name: "route",
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                tick: 0,
            },
            Span {
                name: "flush",
                start_ns: 50,
                end_ns: 90,
                parent: 0,
                tick: 0,
            },
        ];
        let totals = tracer.totals();
        assert_eq!(totals["tick"].self_ns, 30);
        assert_eq!(totals["tick"].total_ns, 100);
        assert_eq!(totals["route"].self_ns, 30);
        assert_eq!(totals["flush"].count, 1);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.span("work", NONE, NONE, || 7);
        assert_eq!(value, 7);
        assert!(tracer.spans().is_empty());
        assert!(tracer.totals().is_empty());
    }
}
