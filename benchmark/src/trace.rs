//! Spans recorded from the benchmark's side of every layer boundary.
//!
//! A span is `(name, start, end, parent, round)`: requests of one segment
//! share their segment span as parent, spans of one round share its id.
//! Spans stay in memory and are written once, when the run ends. Recording
//! is off in an untraced run; the traced run's gap to the untraced numbers
//! is itself a metric (`trace.overhead_pct`).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Spans`].
pub type SpanId = u32;

/// One recorded interval, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What ran: a segment, a request kind, or a layer function.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The round (or walk pass) all spans of one request tree share.
    pub round: u32,
}

/// The in-memory span log of one run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A log that records only when `on`.
    pub fn new(on: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switch recording (the traced run measures some rounds with it off
    /// to price the recording itself).
    pub fn set(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record one span; returns its id (0 when recording is off).
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        round: u32,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        self.spans.push(Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            round,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Open a span whose end is not known yet (a segment that will parent
    /// its requests); close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, start: Instant, round: u32) -> Option<SpanId> {
        self.on.then(|| self.push(name, start, start, None, round))
    }

    /// Set the end of a span from [`open`](Self::open).
    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            let ns = self.ns(end);
            self.spans[id as usize].end = ns;
        }
    }

    /// Every span recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self times by span name: each span's duration minus the part of it
    /// its children cover (ns), in recording order.
    pub fn self_times(&self) -> Vec<(&'static str, Vec<u64>)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let overlap = s
                    .end
                    .min(parent.end)
                    .saturating_sub(s.start.max(parent.start));
                covered[p as usize] += overlap;
            }
        }
        let mut by_name: Vec<(&'static str, Vec<u64>)> = Vec::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            let own = (s.end - s.start).saturating_sub(covered);
            match by_name.iter_mut().find(|(name, _)| *name == s.name) {
                Some((_, times)) => times.push(own),
                None => by_name.push((s.name, vec![own])),
            }
        }
        by_name
    }

    /// Write the log as one JSON document: `{"spans":[{"id":…,"name":…,
    /// "start_ns":…,"end_ns":…,"parent":…,"round":…},…]}`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"spans\":[\n")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{}}}{comma}",
                s.name, s.start, s.end, s.round
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_a_span_minus_its_children() {
        let mut spans = Spans::new(true);
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let segment = spans.open("segment", at(0), 1);
        spans.push("request", at(10), at(40), segment, 1);
        spans.push("request", at(50), at(70), segment, 1);
        spans.close(segment, at(100));
        let rows = spans.self_times();
        assert_eq!(rows[0], ("segment", vec![50_000]));
        assert_eq!(rows[1], ("request", vec![30_000, 20_000]));
    }

    #[test]
    fn recording_off_keeps_nothing() {
        let mut spans = Spans::new(false);
        let now = Instant::now();
        let segment = spans.open("segment", now, 0);
        spans.push("request", now, now, segment, 0);
        spans.close(segment, now);
        assert!(spans.all().is_empty());
    }
}
