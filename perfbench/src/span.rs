//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions, and the per-layer self-time report built
//! from them.
//!
//! Nothing inside the simulator is instrumented: a span covers exactly one
//! call the benchmark makes (`prepare_app`, `Machine::run`, a client
//! request, ...). Spans nest on a stack, so a layer's self time is its
//! span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use isrf_serve::Json;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `apps.prepare`.
    pub name: &'static str,
    /// Identifier shared by the spans of one point or job.
    pub group: u64,
    /// Start and end, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// A span recorder. When disabled every call is a no-op, so the untraced
/// end-to-end run pays nothing for it.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u64,
}

impl Spans {
    pub fn new(on: bool, origin: Instant) -> Spans {
        Spans {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            group: 0,
        }
    }

    /// Set the group identifier stamped on spans opened from now on.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Open a span; close it with [`Spans::exit`]. Returns `usize::MAX`
    /// when disabled.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            group: self.group,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id` and any span left open inside it (a panic unwinding
    /// through a layer call leaves its span open).
    pub fn exit(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Move every span of `other` into this recorder, re-basing parents.
    pub fn absorb(&mut self, other: Spans) {
        let off = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + off);
            s
        }));
    }

    /// Per-name totals over the spans whose root ancestor is named `root`.
    pub fn layers(&self, root: &str) -> LayerReport {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        let mut root_ns = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if self.root_name(i) != root {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            if s.parent.is_none() {
                root_ns += dur;
            }
            let row = rows.entry(s.name).or_default();
            row.count += 1;
            row.total_s += dur as f64 * 1e-9;
            row.self_s += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        LayerReport {
            root_s: root_ns as f64 * 1e-9,
            rows,
        }
    }

    /// Every span as a Chrome trace-event document (open it in
    /// `chrome://tracing` or Perfetto); one track per point or job.
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("ph".into(), Json::str("X")),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Json::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".into(), Json::u64(0)),
                    ("tid".into(), Json::u64(s.group)),
                ])
            })
            .collect();
        Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]).render()
    }

    fn root_name(&self, mut i: usize) -> &'static str {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        self.spans[i].name
    }
}

/// Self time, total time and count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerRow {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Per-layer totals under one root span name.
#[derive(Debug, Clone, Default)]
pub struct LayerReport {
    /// Summed duration of the root spans.
    pub root_s: f64,
    pub rows: BTreeMap<&'static str, LayerRow>,
}

impl LayerReport {
    /// Self time of `name`, 0 when no such span was recorded.
    pub fn self_s(&self, name: &str) -> f64 {
        self.rows.get(name).map_or(0.0, |r| r.self_s)
    }

    /// One line per layer: self time, count and share of the root spans.
    pub fn lines(&self, title: &str) -> Vec<String> {
        let mut out = vec![
            format!("  {title}: {:.4} s in root spans", self.root_s),
            format!(
                "    {:<24} {:>10} {:>12} {:>8}",
                "layer", "count", "self_s", "share"
            ),
        ];
        for (name, r) in &self.rows {
            out.push(format!(
                "    {:<24} {:>10} {:>12.6} {:>7.2}%",
                name,
                r.count,
                r.self_s,
                100.0 * r.self_s / self.root_s.max(1e-12)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true, Instant::now());
        let root = s.enter("pass");
        s.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        s.exit(root);
        let r = s.layers("pass");
        let inner = r.rows["inner"];
        let outer = r.rows["pass"];
        assert_eq!(inner.count, 1);
        assert!(inner.self_s >= 0.005);
        assert!(outer.self_s < outer.total_s);
        assert!((outer.self_s + inner.self_s - r.root_s).abs() < 1e-9);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut s = Spans::new(false, Instant::now());
        let id = s.enter("x");
        s.exit(id);
        assert_eq!(s.time("y", || 7), 7);
        assert!(s.layers("x").rows.is_empty());
    }
}
