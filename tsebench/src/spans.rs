//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps calls into each layer's public functions in a
//! span (name, start, end, parent, thread). Spans stay in memory and are
//! written out once, when the run ends. Nothing inside the measured
//! crates is instrumented.
//!
//! A span's parent is the innermost span open on the same thread, so a
//! parent's children run one after another inside it. Its *self time*,
//! its duration minus its children's, can therefore never be negative.
//! Spans recorded on other threads (pool workers) have no parent.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based) within the tracer.
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `store.open`.
    pub name: &'static str,
    /// Recording thread (a small per-process counter).
    pub thread: u64,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Open spans on this thread, as (tracer address, span id).
    static OPEN: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Records spans while enabled; a disabled tracer only times the call.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off (spans already open are unaffected).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether new spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the call's duration in seconds. The duration is measured whether
    /// or not the tracer records.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.enabled() {
            let t0 = Instant::now();
            let r = f();
            return (r, t0.elapsed().as_secs_f64());
        }
        let me = self as *const Tracer as usize;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.iter().rev().find(|(t, _)| *t == me).map(|(_, id)| *id);
            open.push((me, id));
            parent
        });
        let start = self.now();
        let r = f();
        let end = self.now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|e| *e == (me, id)) {
                open.remove(pos);
            }
        });
        let thread = THREAD.with(|t| *t);
        self.spans.lock().expect("span lock").push(Span {
            id,
            parent,
            name,
            thread,
            start,
            end,
        });
        (r, (end - start) as f64 / 1e9)
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.thread, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, in nanoseconds, keyed by span id: duration
/// minus the durations of its children.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children.entry(p).or_default() += s.dur();
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get(&s.id).copied().unwrap_or(0);
            let own = s
                .dur()
                .checked_sub(covered)
                .expect("same-thread children run inside their parent");
            (s.id, own)
        })
        .collect()
}

/// Ids of `root` and every span below it.
pub fn subtree(spans: &[Span], root: u64) -> Vec<u64> {
    let mut ids = vec![root];
    let mut i = 0;
    while i < ids.len() {
        let id = ids[i];
        ids.extend(spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.id));
        i += 1;
    }
    ids
}

/// Self time per layer (seconds) over the subtree of `root`.
pub fn layer_self_times(spans: &[Span], root: u64) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    for id in subtree(spans, root) {
        let span = spans
            .iter()
            .find(|s| s.id == id)
            .expect("subtree ids exist");
        *layers.entry(span.layer()).or_default() += selfs[&id] as f64 / 1e9;
    }
    layers
}

/// Total duration (seconds) of every span called `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e9)
        .sum()
}

/// Durations (seconds) of every span called `name`, in completion order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e9)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t.x",
            thread: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 15, 25),
            span(4, Some(1), 50, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 30 - 40);
        assert_eq!(selfs[&2], 30 - 10);
        assert_eq!(selfs[&3], 10);
        assert_eq!(selfs[&4], 40);
    }

    #[test]
    fn self_times_never_go_negative_and_sum_to_the_root() {
        let tracer = Arc::new(Tracer::new(true));
        let t = Arc::clone(&tracer);
        tracer.span("root.r", || {
            for _ in 0..3 {
                t.span("a.child", || {
                    t.span("b.grandchild", || {
                        std::thread::sleep(std::time::Duration::from_millis(2))
                    });
                });
            }
            // Spans on other threads overlap each other and the root's
            // own work; they are not its children.
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let t = Arc::clone(&t);
                    std::thread::spawn(move || {
                        t.span("c.worker", || {
                            std::thread::sleep(std::time::Duration::from_millis(3))
                        })
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let spans = tracer.spans();
        let root = spans.iter().find(|s| s.name == "root.r").unwrap();
        let selfs = self_times(&spans);
        for s in &spans {
            assert!(selfs[&s.id] <= s.dur(), "{s:?}");
        }
        // The tree's self times add up to the root's duration exactly.
        let layers = layer_self_times(&spans, root.id);
        let sum: f64 = layers.values().sum();
        assert!((sum - root.dur() as f64 / 1e9).abs() < 1e-9);
        assert_eq!(durations(&spans, "a.child").len(), 3);
        assert_eq!(durations(&spans, "c.worker").len(), 4);
        // Worker-thread spans have no parent on this thread.
        assert!(spans
            .iter()
            .filter(|s| s.name == "c.worker")
            .all(|s| s.parent.is_none()));
    }

    #[test]
    fn disabled_tracer_times_without_recording() {
        let tracer = Tracer::new(false);
        let (v, secs) = tracer.span("x.y", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tracer.spans().is_empty());
    }
}
