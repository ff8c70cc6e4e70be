//! The hierarchical span tracer.
//!
//! Entering a span ([`span`]) pushes a frame onto a thread-local stack and
//! extends the thread's current path string; dropping the returned RAII
//! guard pops the frame and appends a completed [`SpanRecord`] to a
//! thread-local buffer. Buffers flush into one bounded process-wide
//! collector when the thread's span stack empties (or on thread exit), so
//! the hot path never takes a lock. [`take_spans`] drains the collector.
//!
//! Worker threads attach their spans under a parent recorded on another
//! thread with [`span_under`], passing the parent's [`current_path`]; the
//! merged tree then has no orphans as long as every worker span is opened
//! under a live parent span.

use crate::metrics::{registry, Counter};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default cap on buffered completed spans process-wide. Beyond it new
/// spans are counted in [`spans_dropped`] instead of stored, which bounds
/// tracer memory in long-running servers between drains.
pub const DEFAULT_MAX_SPANS: usize = 1 << 18;

/// Thread-local buffers flush to the global collector at this size even
/// if the span stack has not emptied (deep recursions, long phases).
const FLUSH_THRESHOLD: usize = 512;

static ENABLED: AtomicBool = AtomicBool::new(true);
static MAX_SPANS: AtomicUsize = AtomicUsize::new(DEFAULT_MAX_SPANS);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static COLLECTOR: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Tracer configuration, applied process-wide by [`init`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Whether spans are recorded at all. Disabled spans cost one relaxed
    /// atomic load.
    pub tracing: bool,
    /// Cap on buffered completed spans (see [`DEFAULT_MAX_SPANS`]).
    pub max_spans: usize,
}

impl ObsConfig {
    /// The always-on default: tracing enabled, default buffer cap.
    pub fn enabled() -> ObsConfig {
        ObsConfig { tracing: true, max_spans: DEFAULT_MAX_SPANS }
    }

    /// Tracing off; used by benchmarks to measure tracer overhead.
    pub fn disabled() -> ObsConfig {
        ObsConfig { tracing: false, max_spans: DEFAULT_MAX_SPANS }
    }
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig::enabled()
    }
}

/// Applies a tracer configuration process-wide.
pub fn init(config: &ObsConfig) {
    ENABLED.store(config.tracing, Ordering::Relaxed);
    MAX_SPANS.store(config.max_spans.max(1), Ordering::Relaxed);
}

/// Turns span recording on or off without touching the buffer cap.
pub fn set_tracing(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently being recorded.
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The registry counter for spans discarded at collector capacity
/// (`maras_obs_dropped_total{kind="spans"}`), so drops are visible to a
/// Prometheus scrape and not only in-process.
fn dropped_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        registry().counter_with(
            crate::log::DROPPED_SERIES,
            crate::log::DROPPED_HELP,
            &[("kind", "spans")],
        )
    })
}

/// Spans discarded because the collector was at capacity, since process
/// start.
pub fn spans_dropped() -> u64 {
    dropped_counter().get()
}

/// Nanoseconds since the process-wide tracing epoch (first span ever).
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Full `/`-joined path, e.g. `ingest/parse/DRUG`.
    pub path: Box<str>,
    /// Start, nanoseconds since the tracing epoch.
    pub start_ns: u64,
    /// Wall duration in nanoseconds.
    pub dur_ns: u64,
    /// Small dense id of the recording thread (stable within a process).
    pub tid: u64,
}

impl SpanRecord {
    /// The span's own name: the last path segment.
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// Nesting depth (number of path segments, 1-based).
    pub fn depth(&self) -> usize {
        self.path.split('/').count()
    }
}

struct Frame {
    /// Length to truncate the thread path back to on exit.
    prev_len: usize,
    start_ns: u64,
}

struct LocalBuf {
    tid: u64,
    path: String,
    stack: Vec<Frame>,
    buf: Vec<SpanRecord>,
}

impl LocalBuf {
    fn new() -> LocalBuf {
        LocalBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            path: String::new(),
            stack: Vec::new(),
            buf: Vec::new(),
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        flush_into_global(&mut self.buf);
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf::new());
}

fn flush_into_global(buf: &mut Vec<SpanRecord>) {
    if buf.is_empty() {
        return;
    }
    let mut global = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    let room = MAX_SPANS.load(Ordering::Relaxed).saturating_sub(global.len());
    if buf.len() > room {
        dropped_counter().add((buf.len() - room) as u64);
        buf.truncate(room);
    }
    global.append(buf);
}

/// RAII guard for an open span; the span closes (and is recorded) when
/// the guard drops. Created by [`span`] / [`span_under`].
#[must_use = "a span measures the scope of its guard; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(frame) = l.stack.pop() else { return };
            let record = SpanRecord {
                path: l.path.as_str().into(),
                start_ns: frame.start_ns,
                dur_ns: end.saturating_sub(frame.start_ns),
                tid: l.tid,
            };
            l.path.truncate(frame.prev_len);
            l.buf.push(record);
            if l.stack.is_empty() || l.buf.len() >= FLUSH_THRESHOLD {
                let mut buf = std::mem::take(&mut l.buf);
                flush_into_global(&mut buf);
                l.buf = buf;
            }
        });
    }
}

fn enter(name: &str, base: Option<&str>) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { armed: false };
    }
    let start_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let prev_len = if l.stack.is_empty() {
            // Thread-root span: adopt the caller-provided ambient parent
            // path (cross-thread attachment) and reset fully on exit.
            l.path.clear();
            if let Some(parent) = base.filter(|p| !p.is_empty()) {
                l.path.push_str(parent);
                l.path.push('/');
            }
            l.path.push_str(name);
            0
        } else {
            let prev_len = l.path.len();
            l.path.push('/');
            l.path.push_str(name);
            prev_len
        };
        l.stack.push(Frame { prev_len, start_ns });
    });
    SpanGuard { armed: true }
}

/// Opens a span named `name` nested under the thread's current span (or
/// as a thread root). Names must not contain `/`.
pub fn span(name: &str) -> SpanGuard {
    enter(name, None)
}

/// Opens a thread-root span attached under `parent` — a path obtained
/// from [`current_path`] on the spawning thread. If this thread already
/// has open spans the parent is ignored and the span nests normally.
pub fn span_under(parent: &str, name: &str) -> SpanGuard {
    enter(name, Some(parent))
}

/// The calling thread's current span path, if any span is open. Capture
/// this before spawning workers and pass it to [`span_under`].
pub fn current_path() -> Option<String> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    LOCAL.with(|l| {
        let l = l.borrow();
        if l.stack.is_empty() {
            None
        } else {
            Some(l.path.clone())
        }
    })
}

/// Drains every completed span collected so far, sorted by start time
/// (ties broken by path for determinism). The calling thread's own buffer
/// is flushed first; other threads' unflushed buffers are included once
/// their span stacks empty or they exit — both of which have happened by
/// the time a pipeline run returns.
pub fn take_spans() -> Vec<SpanRecord> {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let mut buf = std::mem::take(&mut l.buf);
        flush_into_global(&mut buf);
    });
    let mut spans = std::mem::take(&mut *COLLECTOR.lock().unwrap_or_else(|e| e.into_inner()));
    spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then_with(|| a.path.cmp(&b.path)));
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The tracer is process-global; serialize tests that drain it.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn nesting_builds_paths_and_parent_outlives_children() {
        let _g = lock();
        init(&ObsConfig::enabled());
        let _ = take_spans();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                let _leaf = span("leaf");
            }
            let _sibling = span("sibling");
        }
        let spans = take_spans();
        let paths: Vec<&str> = spans.iter().map(|s| &*s.path).collect();
        assert!(paths.contains(&"outer"));
        assert!(paths.contains(&"outer/inner"));
        assert!(paths.contains(&"outer/inner/leaf"));
        assert!(paths.contains(&"outer/sibling"));
        let outer = spans.iter().find(|s| &*s.path == "outer").unwrap();
        let leaf = spans.iter().find(|s| &*s.path == "outer/inner/leaf").unwrap();
        assert!(outer.dur_ns >= leaf.dur_ns, "parent spans its children");
        assert!(outer.start_ns <= leaf.start_ns);
        assert_eq!(leaf.name(), "leaf");
        assert_eq!(leaf.depth(), 3);
    }

    #[test]
    fn span_under_attaches_worker_threads() {
        let _g = lock();
        init(&ObsConfig::enabled());
        let _ = take_spans();
        {
            let _parent = span("parent");
            let path = current_path().expect("parent is open");
            assert_eq!(path, "parent");
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    let path = path.clone();
                    scope.spawn(move || {
                        let _w = span_under(&path, "worker");
                        let _c = span("chunk");
                    });
                }
            });
        }
        let spans = take_spans();
        let count = |p: &str| spans.iter().filter(|s| &*s.path == p).count();
        assert_eq!(count("parent"), 1);
        assert_eq!(count("parent/worker"), 2);
        assert_eq!(count("parent/worker/chunk"), 2);
        // Worker tids differ from the parent's.
        let parent_tid = spans.iter().find(|s| &*s.path == "parent").unwrap().tid;
        assert!(spans.iter().filter(|s| &*s.path == "parent/worker").all(|s| s.tid != parent_tid));
    }

    #[test]
    fn disabled_records_nothing_and_reenabling_resumes() {
        let _g = lock();
        init(&ObsConfig::disabled());
        let _ = take_spans();
        {
            let _s = span("invisible");
        }
        assert!(take_spans().is_empty());
        assert_eq!(current_path(), None);
        init(&ObsConfig::enabled());
        {
            let _s = span("visible");
        }
        let spans = take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(&*spans[0].path, "visible");
    }

    #[test]
    fn collector_cap_drops_and_counts() {
        let _g = lock();
        init(&ObsConfig { tracing: true, max_spans: 8 });
        let _ = take_spans();
        let dropped_before = spans_dropped();
        for _ in 0..40 {
            let _s = span("one");
        }
        let spans = take_spans();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans_dropped() - dropped_before, 32);
        init(&ObsConfig::enabled());
    }
}
