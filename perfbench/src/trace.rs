//! In-memory span recorder for the traced run. Spans are stamped by
//! the benchmark around its calls into each layer's public functions,
//! kept in memory, and written as CSV when the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed interval: which layer, when, under which span, and the
/// request (or quantum, point, replica) it covers.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The nanosecond stamp of an instant taken elsewhere.
    pub fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start: u64,
        end: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end.max(start),
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        let now = self.now();
        self.record(name, parent, req, now, now)
    }

    /// Close a span opened with [`Tracer::open`]; returns its duration,
    /// ns.
    pub fn close(&mut self, id: u32) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as `id,name,start_ns,end_ns,parent,req`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,req")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}
