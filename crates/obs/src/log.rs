//! The structured-log flight recorder.
//!
//! Every layer emits leveled key-value events through one process-wide
//! recorder with two independent outputs:
//!
//! * a **bounded in-memory ring** that always records (the flight
//!   recorder proper) — the newest [`DEFAULT_RING_CAPACITY`] events are
//!   retained, older ones are evicted and counted in [`logs_dropped`],
//!   the same drop-accounting discipline as the span collector. The ring
//!   is what `GET /debug/logs` and the panic hook read.
//! * an optional **JSON-lines sink** (stderr and/or a file) gated by a
//!   minimum level, configured from `--log-level` / `MARAS_LOG`.
//!
//! Unlike the span collector — which batches in thread-local buffers
//! because spans arrive at kernel granularity — events here are
//! request- and phase-granular (orders of magnitude rarer), and the
//! most recent events are exactly the ones a crash dump or a live
//! `/debug/logs` probe needs. So the recorder renders through a
//! thread-local scratch buffer but publishes each event to the ring
//! immediately; the ring push is a short mutex hold on a preallocated
//! deque, kept affordable by the low event rate (see the log-recording
//! guard in `make bench`'s `bench_kernels`). Eviction keeps the *newest* events, the
//! opposite bias from the span collector, because a flight recorder
//! that forgets the crash and remembers the boot is useless.
//!
//! Event names are dotted lowercase paths (`serve.request`,
//! `pipeline.mine`); the keys `ts_ms`, `level`, `event`, and `seq` are
//! reserved for the envelope and must not be used as field names.

use crate::metrics::{registry, Counter};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Default cap on ring-buffered events. Beyond it the oldest events are
/// evicted and counted in [`logs_dropped`], bounding recorder memory in
/// long-running servers.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Events written by the panic hook's flight-recorder dump.
const PANIC_DUMP_EVENTS: usize = 64;

/// Name of the Prometheus series counting discarded observability
/// records (spans at collector capacity, log events evicted from the
/// ring), labeled by `kind`.
pub const DROPPED_SERIES: &str = "maras_obs_dropped_total";

/// Help text for [`DROPPED_SERIES`].
pub const DROPPED_HELP: &str = "observability records discarded at capacity, by kind";

/// Sentinel byte meaning "no emission" in the emit-level atomic.
const EMIT_OFF: u8 = u8::MAX;

static EMIT_LEVEL: AtomicU8 = AtomicU8::new(EMIT_OFF);
static RING_ENABLED: AtomicBool = AtomicBool::new(true);
static RING_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static SEQ: AtomicU64 = AtomicU64::new(0);
static RING: Mutex<VecDeque<LogEvent>> = Mutex::new(VecDeque::new());
static FILE_SINK: Mutex<Option<File>> = Mutex::new(None);

/// Severity of a log event, ordered `Trace < Debug < Info < Warn <
/// Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Per-request chatter; ring-only in any sane configuration.
    Trace,
    /// Detail useful when reconstructing one request or phase.
    Debug,
    /// Normal operational milestones (phase complete, reload done).
    Info,
    /// Degraded but handled: sheds, timeouts, malformed requests.
    Warn,
    /// Failures: panics, reload errors, 5xx responses.
    Error,
}

impl Level {
    /// All levels, ascending.
    pub const ALL: [Level; 5] =
        [Level::Trace, Level::Debug, Level::Info, Level::Warn, Level::Error];

    /// Parses a level name (`trace|debug|info|warn|error`,
    /// case-insensitive). `None` for anything else — callers treat
    /// `off` and friends themselves.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }

    /// The lowercase level name, as rendered in JSON lines.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    fn byte(self) -> u8 {
        match self {
            Level::Trace => 0,
            Level::Debug => 1,
            Level::Info => 2,
            Level::Warn => 3,
            Level::Error => 4,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One typed field value on an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string value, JSON-escaped on render.
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float; non-finite values render as `null`.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl FieldValue {
    fn render_into(&self, out: &mut String) {
        match self {
            FieldValue::Str(s) => {
                out.push('"');
                escape_json_into(out, s);
                out.push('"');
            }
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(_) => out.push_str("null"),
            FieldValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
        }
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(u64::from(v))
    }
}
impl From<u16> for FieldValue {
    fn from(v: u16) -> FieldValue {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

/// One recorded event: envelope (sequence number, wall-clock
/// timestamp, level, name) plus its key-value fields.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEvent {
    /// Process-wide sequence number, monotonically increasing.
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub ts_ms: u64,
    /// Severity.
    pub level: Level,
    /// Dotted event name, e.g. `serve.request`.
    pub name: Box<str>,
    /// Key-value fields in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl LogEvent {
    /// Renders the event as one JSON object on a single line (no
    /// trailing newline).
    pub fn json_line(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 16);
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        let _ = write!(out, "{{\"ts_ms\":{},\"level\":\"{}\",\"event\":\"", self.ts_ms, self.level);
        escape_json_into(out, &self.name);
        let _ = write!(out, "\",\"seq\":{}", self.seq);
        for (key, value) in &self.fields {
            out.push_str(",\"");
            escape_json_into(out, key);
            out.push_str("\":");
            value.render_into(out);
        }
        out.push('}');
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Looks up a string field by key.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        match self.field(key) {
            Some(FieldValue::Str(s)) => Some(s),
            _ => None,
        }
    }
}

fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Builder for one event; terminate with [`Event::emit`].
///
/// ```
/// use maras_obs::log::{Event, Level};
/// Event::new(Level::Info, "pipeline.mine").field("patterns", 42_u64).emit();
/// ```
#[must_use = "an event records nothing until .emit() is called"]
pub struct Event {
    level: Level,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Starts an event named `name` at `level`.
    pub fn new(level: Level, name: &'static str) -> Event {
        Event { level, name, fields: Vec::new() }
    }

    /// Attaches a key-value field. Keys are static and must avoid the
    /// reserved envelope keys (`ts_ms`, `level`, `event`, `seq`).
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Event {
        self.fields.push((key, value.into()));
        self
    }

    /// Records the event: into the ring unconditionally (while
    /// recording is on) and onto the JSON-lines sinks when the level
    /// clears the configured emission threshold.
    pub fn emit(self) {
        let record = RING_ENABLED.load(Ordering::Relaxed);
        let emit = self.level.byte() >= EMIT_LEVEL.load(Ordering::Relaxed);
        if !record && !emit {
            return;
        }
        let event = LogEvent {
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
            ts_ms: unix_ms(),
            level: self.level,
            name: self.name.into(),
            fields: self.fields,
        };
        if emit {
            emit_line(&event);
        }
        if record {
            push_ring(event);
        }
    }
}

thread_local! {
    /// Per-thread render scratch so emission does not allocate a fresh
    /// line buffer per event.
    static SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

fn emit_line(event: &LogEvent) {
    SCRATCH.with(|scratch| {
        let mut line = scratch.borrow_mut();
        line.clear();
        event.render_into(&mut line);
        line.push('\n');
        let _ = std::io::stderr().write_all(line.as_bytes());
        let mut sink = FILE_SINK.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(file) = sink.as_mut() {
            let _ = file.write_all(line.as_bytes());
        }
    });
}

fn push_ring(event: LogEvent) {
    let cap = RING_CAP.load(Ordering::Relaxed).max(1);
    let mut ring = RING.lock().unwrap_or_else(|e| e.into_inner());
    while ring.len() >= cap {
        ring.pop_front();
        dropped_logs_counter().inc();
    }
    ring.push_back(event);
}

fn unix_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

/// The registry counter for log events evicted from the ring
/// (`maras_obs_dropped_total{kind="logs"}`).
fn dropped_logs_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER
        .get_or_init(|| registry().counter_with(DROPPED_SERIES, DROPPED_HELP, &[("kind", "logs")]))
}

/// Recorder configuration, applied process-wide by [`init_logging`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogConfig {
    /// Minimum level written to the JSON-lines sinks; `None` disables
    /// emission entirely (the ring still records).
    pub emit_level: Option<Level>,
    /// Optional JSON-lines file sink (appended), in addition to stderr.
    pub file: Option<PathBuf>,
    /// Ring capacity (see [`DEFAULT_RING_CAPACITY`]).
    pub ring_capacity: usize,
    /// Whether the ring records at all; benchmarks turn this off to
    /// measure recorder overhead.
    pub recording: bool,
    /// Install a panic hook that dumps the ring tail to stderr.
    pub panic_hook: bool,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig {
            emit_level: None,
            file: None,
            ring_capacity: DEFAULT_RING_CAPACITY,
            recording: true,
            panic_hook: false,
        }
    }
}

impl LogConfig {
    /// The default configuration with the emission threshold taken from
    /// the `MARAS_LOG` environment variable (`trace|debug|info|warn|
    /// error`; anything else, including unset and `off`, leaves
    /// emission disabled).
    pub fn from_env() -> LogConfig {
        let emit_level = std::env::var("MARAS_LOG").ok().and_then(|s| Level::parse(&s));
        LogConfig { emit_level, ..LogConfig::default() }
    }
}

/// Applies a recorder configuration process-wide. Opens the file sink
/// if one is configured (errors propagate; the rest of the
/// configuration is already applied by then).
pub fn init_logging(config: &LogConfig) -> std::io::Result<()> {
    set_emit_level(config.emit_level);
    RING_CAP.store(config.ring_capacity.max(1), Ordering::Relaxed);
    RING_ENABLED.store(config.recording, Ordering::Relaxed);
    // Touch both drop counters so a scrape shows them at zero instead
    // of omitting them until the first drop.
    dropped_logs_counter();
    crate::span::spans_dropped();
    let file = match &config.file {
        Some(path) => Some(File::options().create(true).append(true).open(path)?),
        None => None,
    };
    *FILE_SINK.lock().unwrap_or_else(|e| e.into_inner()) = file;
    if config.panic_hook {
        install_panic_hook();
    }
    Ok(())
}

/// Changes the JSON-lines emission threshold without touching the
/// ring; `None` disables emission.
pub fn set_emit_level(level: Option<Level>) {
    EMIT_LEVEL.store(level.map_or(EMIT_OFF, Level::byte), Ordering::Relaxed);
}

/// Turns ring recording on or off without touching emission.
pub fn set_recording(on: bool) {
    RING_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the ring is currently recording events.
pub fn recording_enabled() -> bool {
    RING_ENABLED.load(Ordering::Relaxed)
}

/// Log events evicted from the ring at capacity, since process start.
pub fn logs_dropped() -> u64 {
    dropped_logs_counter().get()
}

/// Events recorded (sequence numbers handed out) since process start.
pub fn log_events_seen() -> u64 {
    SEQ.load(Ordering::Relaxed)
}

/// The newest `limit` ring events at or above `min_level`, oldest
/// first. Non-draining: the ring keeps its contents.
pub fn log_tail(limit: usize, min_level: Level) -> Vec<LogEvent> {
    let ring = RING.lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<LogEvent> =
        ring.iter().rev().filter(|e| e.level >= min_level).take(limit).cloned().collect();
    out.reverse();
    out
}

/// Empties the ring without counting evictions. Test isolation helper:
/// the ring is process-global, and suites that assert on its contents
/// need a known-empty starting point.
pub fn clear_log_ring() {
    RING.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Writes the newest `limit` ring events to `w` as JSON lines, oldest
/// first — the panic hook's crash dump, usable directly too.
pub fn dump_log_tail(w: &mut dyn Write, limit: usize) -> std::io::Result<()> {
    for event in log_tail(limit, Level::Trace) {
        writeln!(w, "{}", event.json_line())?;
    }
    Ok(())
}

/// Installs a process-wide panic hook (once; later calls are no-ops)
/// that records the panic as an `error`-level event and dumps the ring
/// tail to stderr before delegating to the previously installed hook —
/// so an abort leaves the flight recorder's last words on stderr.
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            let location = info.location().map_or_else(String::new, |l| l.to_string());
            Event::new(Level::Error, "panic")
                .field("message", message)
                .field("location", location)
                .emit();
            prev(info);
            let stderr = std::io::stderr();
            let mut w = stderr.lock();
            let _ = writeln!(w, "--- flight recorder tail ({PANIC_DUMP_EVENTS} newest events) ---");
            let _ = dump_log_tail(&mut w, PANIC_DUMP_EVENTS);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The recorder is process-global; serialize tests that reconfigure
    // or inspect it.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn level_parsing_and_ordering() {
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("off"), None);
        assert_eq!(Level::parse(""), None);
        assert!(Level::Trace < Level::Debug);
        assert!(Level::Warn < Level::Error);
        for level in Level::ALL {
            assert_eq!(Level::parse(level.as_str()), Some(level));
        }
    }

    #[test]
    fn ring_retains_newest_and_accounts_evictions() {
        let _g = lock();
        init_logging(&LogConfig { ring_capacity: 4, ..LogConfig::default() }).unwrap();
        clear_log_ring();
        let dropped_before = logs_dropped();
        for i in 0..10_u64 {
            Event::new(Level::Info, "test.ring").field("i", i).emit();
        }
        let tail = log_tail(100, Level::Trace);
        let ours: Vec<u64> = tail
            .iter()
            .filter(|e| &*e.name == "test.ring")
            .map(|e| match e.field("i") {
                Some(FieldValue::U64(v)) => *v,
                other => panic!("unexpected field {other:?}"),
            })
            .collect();
        assert_eq!(ours, vec![6, 7, 8, 9], "ring keeps the newest events");
        assert_eq!(logs_dropped() - dropped_before, 6, "evictions are drop-accounted");
        init_logging(&LogConfig::default()).unwrap();
    }

    #[test]
    fn tail_filters_by_level_and_limits() {
        let _g = lock();
        init_logging(&LogConfig::default()).unwrap();
        clear_log_ring();
        Event::new(Level::Debug, "test.filter").field("k", "low").emit();
        Event::new(Level::Warn, "test.filter").field("k", "mid").emit();
        Event::new(Level::Error, "test.filter").field("k", "high").emit();
        let warns = log_tail(100, Level::Warn);
        let kinds: Vec<&str> = warns.iter().filter_map(|e| e.field_str("k")).collect();
        assert_eq!(kinds, vec!["mid", "high"]);
        let last = log_tail(1, Level::Trace);
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].field_str("k"), Some("high"));
        let mut seqs: Vec<u64> = log_tail(100, Level::Trace).iter().map(|e| e.seq).collect();
        let sorted = seqs.clone();
        seqs.sort_unstable();
        assert_eq!(seqs, sorted, "tail is chronological");
    }

    #[test]
    fn json_line_escapes_and_types_fields() {
        let event = LogEvent {
            seq: 7,
            ts_ms: 1234,
            level: Level::Warn,
            name: "test.\"json\"".into(),
            fields: vec![
                ("s", FieldValue::Str("a\"b\\c\nd".into())),
                ("n", FieldValue::U64(42)),
                ("neg", FieldValue::I64(-3)),
                ("f", FieldValue::F64(1.5)),
                ("nan", FieldValue::F64(f64::NAN)),
                ("ok", FieldValue::Bool(true)),
            ],
        };
        assert_eq!(
            event.json_line(),
            "{\"ts_ms\":1234,\"level\":\"warn\",\"event\":\"test.\\\"json\\\"\",\"seq\":7,\
             \"s\":\"a\\\"b\\\\c\\nd\",\"n\":42,\"neg\":-3,\"f\":1.5,\"nan\":null,\"ok\":true}"
        );
    }

    #[test]
    fn file_sink_gates_on_emit_level() {
        let _g = lock();
        let dir = std::env::temp_dir().join(format!("maras-log-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sink.jsonl");
        init_logging(&LogConfig {
            emit_level: Some(Level::Warn),
            file: Some(path.clone()),
            ..LogConfig::default()
        })
        .unwrap();
        Event::new(Level::Info, "test.sink").field("visible", false).emit();
        Event::new(Level::Warn, "test.sink").field("visible", true).emit();
        init_logging(&LogConfig::default()).unwrap(); // close the sink
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written.lines().count(), 1, "below-threshold event must not be written");
        assert!(written.contains("\"event\":\"test.sink\""), "{written}");
        assert!(written.contains("\"visible\":true"), "{written}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recording_off_records_nothing() {
        let _g = lock();
        init_logging(&LogConfig { recording: false, ..LogConfig::default() }).unwrap();
        clear_log_ring();
        Event::new(Level::Error, "test.off").emit();
        assert!(log_tail(100, Level::Trace).is_empty());
        init_logging(&LogConfig::default()).unwrap();
        Event::new(Level::Error, "test.on").emit();
        assert!(log_tail(100, Level::Trace).iter().any(|e| &*e.name == "test.on"));
    }
}
