//! In-memory spans recorded around the library's public calls.
//!
//! Every timed call goes through [`Tracer::open`] / [`Tracer::close`], so
//! the end-to-end timings and the spans share one clock read. With tracing
//! off only the clock reads remain; with tracing on each call also leaves a
//! [`Span`]. Layers below a public call cannot be timed from outside, so
//! durations the library already reports (setup phases, engine update time,
//! publish time, fence span) are attached as *derived* child spans of the
//! call that produced them. A span's self time is its duration minus its
//! children's.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, `<layer>.<call>`.
    pub name: &'static str,
    /// Layer the span's self time is charged to.
    pub layer: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Duration in seconds.
    pub secs: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Whether the duration came from a library report instead of a clock.
    pub derived: bool,
    /// Request ids this span served: a solve's submit and the drain that
    /// answered it carry the same id.
    pub requests: Vec<u64>,
}

/// A closed span: its clock readings, and its index when recorded.
#[derive(Debug, Clone, Copy)]
pub struct Closed {
    /// Index into [`Tracer::spans`]; `None` with tracing off.
    pub id: Option<usize>,
    /// When the span opened.
    pub start: Instant,
    /// When the span closed.
    pub end: Instant,
    /// `end - start` in seconds.
    pub secs: f64,
}

/// Span recorder; a no-op apart from the clock when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<(Option<usize>, Instant)>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, layer: &'static str) {
        let id = if self.enabled {
            let parent = self.stack.last().and_then(|&(id, _)| id);
            self.spans.push(Span {
                name,
                layer,
                start: 0.0,
                secs: 0.0,
                parent,
                derived: false,
                requests: Vec::new(),
            });
            Some(self.spans.len() - 1)
        } else {
            None
        };
        self.stack.push((id, Instant::now()));
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) -> Closed {
        self.close_for(&[])
    }

    /// Closes the innermost open span, tagging it with request ids.
    pub fn close_for(&mut self, requests: &[u64]) -> Closed {
        let end = Instant::now();
        let (id, start) = self.stack.pop().expect("close without a matching open");
        let secs = (end - start).as_secs_f64();
        if let Some(i) = id {
            let span = &mut self.spans[i];
            span.start = (start - self.origin).as_secs_f64();
            span.secs = secs;
            span.requests.extend_from_slice(requests);
        }
        Closed {
            id,
            start,
            end,
            secs,
        }
    }

    /// Attaches a child of `parent` whose duration a library report gave.
    /// Returns a handle so derived spans can nest.
    pub fn derived(
        &mut self,
        parent: Closed,
        name: &'static str,
        layer: &'static str,
        secs: f64,
    ) -> Closed {
        let id = parent.id.map(|p| {
            self.spans.push(Span {
                name,
                layer,
                start: self.spans[p].start,
                secs,
                parent: Some(p),
                derived: true,
                requests: Vec::new(),
            });
            self.spans.len() - 1
        });
        Closed { id, secs, ..parent }
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the children's durations.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs;
            }
        }
        own
    }

    /// Summed self time and span count per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (f64, usize)> {
        self.aggregate(|s| s.name)
    }

    /// Summed self time and span count per layer.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, (f64, usize)> {
        self.aggregate(|s| s.layer)
    }

    fn aggregate(
        &self,
        key: impl Fn(&Span) -> &'static str,
    ) -> BTreeMap<&'static str, (f64, usize)> {
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(key(s)).or_default();
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Summed duration of the top-level spans: the traced wall.
    pub fn root_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.secs)
            .sum()
    }

    /// Checks the span trees under every span named `root`: no self time
    /// below `-tolerance` seconds (a child reported longer than its
    /// parent). Returns the summed self time of those trees, which must add
    /// back up to the roots' summed wall.
    pub fn accounting(&self, root: &str, tolerance: f64) -> Result<f64, String> {
        let own = self.self_times();
        let mut total_self = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            let mut top = i;
            while let Some(p) = self.spans[top].parent {
                if self.spans[top].name == root {
                    break;
                }
                top = p;
            }
            if self.spans[top].name != root {
                continue;
            }
            if own[i] < -tolerance {
                return Err(format!(
                    "span {} under {root} has negative self time {:.3e} s",
                    s.name, own[i]
                ));
            }
            total_self += own[i];
        }
        Ok(total_self)
    }

    /// Writes every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let requests: Vec<String> = s.requests.iter().map(u64::to_string).collect();
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"derived\":{},\"requests\":[{}]}}",
                s.name,
                s.layer,
                s.start,
                s.start + s.secs,
                s.derived,
                requests.join(",")
            )?;
        }
        out.flush()
    }
}

/// Extra seconds one recorded open/close pair costs over an unrecorded one,
/// measured on this process.
pub fn span_cost_secs() -> f64 {
    const PAIRS: usize = 20_000;
    let pair_secs = |enabled: bool| {
        let mut tr = Tracer::new(enabled);
        let started = Instant::now();
        for _ in 0..PAIRS {
            tr.open("trace.calibrate", "trace");
            std::hint::black_box(tr.close());
        }
        started.elapsed().as_secs_f64() / PAIRS as f64
    };
    // Warm both paths once, then take the lower of two readings each.
    let on = pair_secs(true).min(pair_secs(true));
    let off = pair_secs(false).min(pair_secs(false));
    (on - off).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_derived_spans() {
        let mut tr = Tracer::new(true);
        tr.open("store.apply_batch", "store");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.open("inner.call", "engine");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = tr.close();
        let outer = tr.close();
        tr.derived(outer, "snapshot.publish", "snapshot", 0.0005);
        let own = tr.self_times();
        assert!((own[0] - (outer.secs - inner.secs - 0.0005)).abs() < 1e-12);
        assert_eq!(own[1], inner.secs);
        let summed = tr.accounting("store.apply_batch", 1e-6).unwrap();
        assert!((summed - outer.secs).abs() < 1e-12);
    }

    #[test]
    fn accounting_rejects_a_child_longer_than_its_parent() {
        let mut tr = Tracer::new(true);
        tr.open("store.apply_batch", "store");
        let c = tr.close();
        tr.derived(c, "engine.update", "engine", c.secs + 1.0);
        assert!(tr.accounting("store.apply_batch", 1e-3).is_err());
    }

    #[test]
    fn disabled_tracer_only_times() {
        let mut tr = Tracer::new(false);
        tr.open("a", "x");
        let c = tr.close();
        tr.derived(c, "b", "y", 1.0);
        assert!(tr.spans().is_empty());
        assert!(c.id.is_none() && c.secs >= 0.0);
    }
}
