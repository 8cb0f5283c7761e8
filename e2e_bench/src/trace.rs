//! Span recording for the traced run. The harness may not edit the
//! crates it measures, so spans are recorded from outside, around each
//! call the bench makes into a layer: `{name, request_id, parent,
//! start_ns, end_ns}` kept in a preallocated vector and written out when
//! the run ends. Spans of one request share `request_id`; an inner
//! boundary's replay of a request points at the outer boundary's span of
//! the same request through `parent`.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<module>.<call>` of the boundary the span wraps.
    pub name: &'static str,
    /// The script step the span belongs to.
    pub request_id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// The span sink. A disabled tracer records nothing and costs one
/// branch per call, so the untraced run pays nothing measurable.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A tracer that drops everything.
    pub fn disabled() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled: false,
        }
    }

    /// A recording tracer with room for `capacity` spans.
    pub fn recording(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            enabled: true,
        }
    }

    /// True if spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserve the slot of a span whose children are recorded before it
    /// ends; complete it with [`fill`](Self::fill).
    pub fn reserve(&mut self) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: "",
            request_id: 0,
            parent: None,
            start_ns: 0,
            end_ns: 0,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Complete a reserved span.
    pub fn fill(
        &mut self,
        slot: Option<u32>,
        name: &'static str,
        request_id: u64,
        start: Instant,
        end: Instant,
    ) {
        if let Some(slot) = slot {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            let span = &mut self.spans[slot as usize];
            span.name = name;
            span.request_id = request_id;
            span.start_ns = start_ns;
            span.end_ns = end_ns;
        }
    }

    /// Record one finished span.
    pub fn span(
        &mut self,
        name: &'static str,
        request_id: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let span = Span {
                name,
                request_id,
                parent,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.push(span);
        }
    }

    /// Move another tracer's spans in (a client thread's, after it is
    /// joined), rebasing their times and parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len() as u32;
        let shift = other.epoch.duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span index of the first `name` span of each request id, for
    /// parenting an inner boundary's replay of the same requests.
    pub fn index_of(&self, name: &str) -> HashMap<u64, u32> {
        let mut found = HashMap::new();
        for (at, span) in self.spans.iter().enumerate() {
            if span.name == name {
                found.entry(span.request_id).or_insert(at as u32);
            }
        }
        found
    }

    /// Write the spans as one JSON document:
    /// `{"workload":…,"seed":…,"spans":[{"name":…,"request_id":…,"parent":…,"start_ns":…,"end_ns":…},…]}`.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        )?;
        for (at, span) in self.spans.iter().enumerate() {
            if at > 0 {
                out.write_all(b",")?;
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"name\":\"{}\",\"request_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.request_id, span.start_ns, span.end_ns
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn reserved_parent_precedes_children_and_absorb_rebases() {
        let mut main = Tracer::recording(8);
        let t0 = Instant::now();
        main.span("outer", 0, None, t0, t0 + Duration::from_nanos(10));

        let mut thread = Tracer::recording(8);
        let parent = thread.reserve();
        thread.span("child", 7, parent, t0, t0);
        thread.fill(parent, "call", 7, t0, t0);
        main.absorb(thread);

        let spans = main.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].name, "call");
        assert_eq!(
            spans[2].parent,
            Some(1),
            "parent index rebased past `outer`"
        );
        assert_eq!(main.index_of("call").get(&7), Some(&1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::disabled();
        let now = Instant::now();
        assert_eq!(tracer.reserve(), None);
        tracer.span("x", 0, None, now, now);
        assert!(tracer.spans().is_empty());
    }
}
