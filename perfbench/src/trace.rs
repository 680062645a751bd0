//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span holds its layer, name, start, end, parent and a request id
//! (shared by every span of one served request; 0 elsewhere). A layer's
//! self time is its spans' durations minus the parts their child spans
//! cover. Spans stay in memory until the run ends, then [`Tracer::write`]
//! dumps them as JSON. A disabled tracer records nothing, so the untraced
//! and traced runs execute the same code.

use std::collections::BTreeMap;
use std::time::Instant;

use memcomm_util::json::Json;

/// Layer name of the benchmark's own code (the root spans).
pub const BENCH: &str = "bench";

#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    name: String,
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span; pass it back to [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be closed"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder whose times count from `origin` (share one origin
    /// between threads so their spans line up).
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant this recorder's times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, layer: &'static str, name: &str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::open`] (spans close innermost
    /// first).
    pub fn close(&mut self, span: Open) {
        if let Some(index) = span.0 {
            let popped = self.open.pop();
            assert_eq!(popped, Some(index), "spans must close innermost first");
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        let s = self.open(layer, name, 0);
        let out = f();
        self.close(s);
        out
    }

    /// Records an already-timed span (a measurement taken elsewhere, such
    /// as an in-process replay of a served request) as a root span.
    pub fn record(&mut self, layer: &'static str, name: &str, id: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                layer,
                name: name.to_string(),
                id,
                parent: None,
                start_ns,
                end_ns,
            });
        }
    }

    /// Nanoseconds since this tracer's origin.
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Moves another thread's spans into this recorder; its root spans
    /// become children of the innermost open span here.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map_or(parent, |p| Some(p + base));
            s
        }));
    }

    /// Self time per layer in seconds, over every recorded span.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Writes every span as a JSON array to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let doc = Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("index", (i as u64).into()),
                        ("layer", Json::str(s.layer)),
                        ("name", Json::str(&s.name)),
                        ("id", s.id.into()),
                        ("parent", s.parent.map_or(Json::Null, |p| (p as u64).into())),
                        ("start_ns", s.start_ns.into()),
                        ("end_ns", s.end_ns.into()),
                    ])
                })
                .collect(),
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.open(BENCH, "root", 0);
        let child = t.open("engine", "run", 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.close(child);
        t.close(root);
        let by_layer = t.self_time_by_layer();
        assert!(by_layer["engine"] >= 0.005);
        assert!(by_layer[BENCH] < by_layer["engine"]);
    }

    #[test]
    fn absorbed_roots_nest_under_the_open_span() {
        let origin = Instant::now();
        let mut main = Tracer::new(true, origin);
        let wait = main.open(BENCH, "wait", 0);
        let mut worker = Tracer::new(true, origin);
        worker.span("service", "call", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        main.absorb(worker);
        main.close(wait);
        let by_layer = main.self_time_by_layer();
        assert!(by_layer["service"] >= 0.005);
        assert!(by_layer[BENCH] < 0.001);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.span("engine", "run", || ());
        assert!(t.self_time_by_layer().is_empty());
    }
}
