//! Zero-dependency instrumentation core for the DeepBurning pipeline.
//!
//! The generator and its simulators are instrumented against this crate:
//! compiler passes open hierarchical *spans*, the simulators bump
//! *counters* and *gauges*, and the timing simulator lays its phases out on
//! a *virtual timeline*. A [`Tracer`] collects everything thread-safely and
//! exports it through three sinks:
//!
//! * [`Tracer::summary`] — a human-readable aggregate table;
//! * [`Tracer::chrome_trace`] — Chrome trace-event JSON, loadable in
//!   Perfetto / `chrome://tracing`;
//! * [`Tracer::metrics`] — a machine-readable metrics document.
//!
//! Instrumented code never takes a `Tracer` parameter: a tracer is
//! *installed* on the current thread ([`install`]) and the free functions
//! ([`span`], [`counter`], [`gauge`], …) record into whichever tracer is
//! installed, or do nothing. The same `Tracer` (it is `Clone` + `Send` +
//! `Sync`) can be installed on several threads; every event carries the
//! recording thread's id.
//!
//! # Examples
//!
//! ```
//! use deepburning_trace as trace;
//!
//! let tracer = trace::Tracer::new();
//! {
//!     let _session = trace::install(&tracer);
//!     {
//!         let _span = trace::span("compiler", "compiler.folding");
//!         trace::counter("compiler", "compiler.phases", 3.0);
//!     }
//! }
//! let metrics = tracer.metrics();
//! assert_eq!(
//!     metrics.get("counters").and_then(|c| c.get("compiler.phases")).and_then(|v| v.as_f64()),
//!     Some(3.0)
//! );
//! assert!(tracer.chrome_trace().contains("compiler.folding"));
//! ```

pub mod hist;
pub mod json;

pub use hist::Histogram;

use json::Json;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What an [`Event`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened (`ph: "B"`).
    SpanBegin,
    /// A span closed (`ph: "E"`).
    SpanEnd,
    /// A monotonically accumulated quantity; the chrome sink renders the
    /// running total as a counter track (`ph: "C"`).
    Counter {
        /// Increment contributed by this event.
        delta: f64,
    },
    /// A sampled value; the last write wins in the metrics sink.
    Gauge {
        /// The sampled value.
        value: f64,
    },
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// An event on a *virtual* timeline (simulated cycles rather than wall
    /// time), rendered as a complete event (`ph: "X"`) in its own process
    /// group so Perfetto shows it on a separate track.
    Virtual {
        /// Track (thread row) name within the virtual process group.
        track: String,
        /// Start timestamp in virtual microseconds.
        ts_us: f64,
        /// Duration in virtual microseconds.
        dur_us: f64,
    },
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name (span name, counter name, …).
    pub name: String,
    /// Category tag (`compiler`, `core`, `sim`, `rtl`, …).
    pub category: &'static str,
    /// Wall-clock microseconds since the tracer was created (virtual
    /// events carry their own timestamps in [`EventKind::Virtual`]).
    pub ts_us: f64,
    /// Recording thread id (stable small integer per thread).
    pub tid: u64,
    /// Payload.
    pub kind: EventKind,
    /// Extra key/value arguments.
    pub args: Vec<(String, Json)>,
}

/// Bounded event storage: a ring of the newest `cap` events plus a count
/// of how many older events were evicted. Tracing a ~1.4e8-cycle full
/// RTL run can therefore never OOM the host — the newest window survives
/// and [`Tracer::events_dropped`] reports the loss honestly.
struct Ring {
    events: VecDeque<Event>,
    cap: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, event: Event) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

struct Inner {
    enabled: AtomicBool,
    start: Instant,
    events: Mutex<Ring>,
}

/// Default event-ring capacity (see [`Tracer::with_capacity`]): roughly
/// 40 MB of events, far above any per-layer run, small enough that an
/// unattended full-network trace stays bounded.
pub const DEFAULT_EVENT_CAPACITY: usize = 262_144;

/// A thread-safe event collector. Cloning is cheap and shares the buffer.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field(
                "events",
                &self
                    .inner
                    .events
                    .lock()
                    .map(|r| r.events.len())
                    .unwrap_or(0),
            )
            .field("dropped", &self.events_dropped())
            .finish()
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static CURRENT: RefCell<Vec<Tracer>> = const { RefCell::new(Vec::new()) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

impl Tracer {
    /// Creates an enabled tracer with an empty buffer bounded at
    /// [`DEFAULT_EVENT_CAPACITY`] events.
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Creates an enabled tracer whose event ring keeps at most `cap`
    /// events; older events are evicted (and counted in
    /// [`Tracer::events_dropped`]) once the ring is full.
    pub fn with_capacity(cap: usize) -> Tracer {
        Tracer {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(true),
                start: Instant::now(),
                events: Mutex::new(Ring {
                    events: VecDeque::new(),
                    cap: cap.max(1),
                    dropped: 0,
                }),
            }),
        }
    }

    /// Pauses / resumes recording (events are dropped while disabled).
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    fn now_us(&self) -> f64 {
        self.inner.start.elapsed().as_secs_f64() * 1e6
    }

    fn record(&self, event: Event) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        if let Ok(mut ring) = self.inner.events.lock() {
            ring.push(event);
        }
    }

    fn record_now(&self, category: &'static str, name: String, kind: EventKind) {
        let ts_us = self.now_us();
        self.record(Event {
            name,
            category,
            ts_us,
            tid: thread_id(),
            kind,
            args: Vec::new(),
        });
    }

    /// Snapshot of every event still in the ring.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .events
            .lock()
            .map(|r| r.events.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of events currently in the ring.
    pub fn len(&self) -> usize {
        self.inner
            .events
            .lock()
            .map(|r| r.events.len())
            .unwrap_or(0)
    }

    /// Events evicted from the ring because it was full. Non-zero means
    /// the exports below describe only the newest window of the run.
    pub fn events_dropped(&self) -> u64 {
        self.inner.events.lock().map(|r| r.dropped).unwrap_or(0)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // -- sinks --------------------------------------------------------------

    /// Chrome trace-event JSON (the `{"traceEvents": [...]}` object form),
    /// loadable in Perfetto and `chrome://tracing`.
    ///
    /// Wall-clock spans/counters/instants live in process 1; virtual
    /// timelines (simulated cycles) live in process 2 with one named
    /// thread row per track.
    pub fn chrome_trace(&self) -> String {
        let events = self.events();
        let mut out: Vec<Json> = Vec::with_capacity(events.len() + 8);
        let entry = |name: &str,
                     cat: &str,
                     ph: &str,
                     ts: f64,
                     pid: u64,
                     tid: u64,
                     extra: Vec<(String, Json)>| {
            let mut pairs = vec![
                ("name".to_string(), Json::str(name)),
                ("cat".to_string(), Json::str(cat)),
                ("ph".to_string(), Json::str(ph)),
                ("ts".to_string(), Json::num(ts)),
                ("pid".to_string(), Json::num(pid as f64)),
                ("tid".to_string(), Json::num(tid as f64)),
            ];
            pairs.extend(extra);
            Json::Obj(pairs)
        };
        // Name the two process groups so Perfetto labels the tracks.
        for (pid, label) in [(1u64, "deepburning"), (2, "simulated-time")] {
            out.push(Json::obj([
                ("name", Json::str("process_name")),
                ("ph", Json::str("M")),
                ("pid", Json::num(pid as f64)),
                ("tid", Json::num(0.0)),
                ("args", Json::obj([("name", Json::str(label))])),
            ]));
        }
        // Virtual tracks get stable small tids within pid 2.
        let mut track_tids: Vec<String> = Vec::new();
        let mut counters: std::collections::BTreeMap<String, f64> = Default::default();
        // Per-tid open-span depth: when the ring evicted a SpanBegin, its
        // orphaned SpanEnd must be skipped or the trace would be
        // unbalanced (spans nest per thread, so eviction only ever
        // removes a prefix — an end with no open span has lost its begin).
        let mut open_depth: std::collections::BTreeMap<u64, u64> = Default::default();
        for e in &events {
            let args_json = |extra: Vec<(String, Json)>| {
                let mut pairs = e.args.clone();
                pairs.extend(extra);
                if pairs.is_empty() {
                    Vec::new()
                } else {
                    vec![("args".to_string(), Json::Obj(pairs))]
                }
            };
            match &e.kind {
                EventKind::SpanBegin => {
                    *open_depth.entry(e.tid).or_insert(0) += 1;
                    out.push(entry(
                        &e.name,
                        e.category,
                        "B",
                        e.ts_us,
                        1,
                        e.tid,
                        args_json(vec![]),
                    ));
                }
                EventKind::SpanEnd => {
                    let depth = open_depth.entry(e.tid).or_insert(0);
                    if *depth == 0 {
                        continue; // begin was evicted from the ring
                    }
                    *depth -= 1;
                    out.push(entry(
                        &e.name,
                        e.category,
                        "E",
                        e.ts_us,
                        1,
                        e.tid,
                        args_json(vec![]),
                    ));
                }
                EventKind::Counter { delta } => {
                    let total = counters.entry(e.name.clone()).or_insert(0.0);
                    *total += delta;
                    let args = vec![(
                        "args".to_string(),
                        Json::obj([("value", Json::num(*total))]),
                    )];
                    out.push(entry(&e.name, e.category, "C", e.ts_us, 1, e.tid, args));
                }
                EventKind::Gauge { value } => {
                    let args = vec![(
                        "args".to_string(),
                        Json::obj([("value", Json::num(*value))]),
                    )];
                    out.push(entry(&e.name, e.category, "C", e.ts_us, 1, e.tid, args));
                }
                EventKind::Instant => {
                    let mut extra = args_json(vec![]);
                    extra.push(("s".to_string(), Json::str("t")));
                    out.push(entry(&e.name, e.category, "i", e.ts_us, 1, e.tid, extra));
                }
                EventKind::Virtual {
                    track,
                    ts_us,
                    dur_us,
                } => {
                    let tid = match track_tids.iter().position(|t| t == track) {
                        Some(i) => i as u64 + 1,
                        None => {
                            track_tids.push(track.clone());
                            let tid = track_tids.len() as u64;
                            out.push(Json::obj([
                                ("name", Json::str("thread_name")),
                                ("ph", Json::str("M")),
                                ("pid", Json::num(2.0)),
                                ("tid", Json::num(tid as f64)),
                                ("args", Json::obj([("name", Json::str(track.clone()))])),
                            ]));
                            tid
                        }
                    };
                    let mut extra = args_json(vec![]);
                    extra.push(("dur".to_string(), Json::num(*dur_us)));
                    out.push(entry(&e.name, e.category, "X", *ts_us, 2, tid, extra));
                }
            }
        }
        Json::obj([("traceEvents", Json::Arr(out))]).render()
    }

    /// Machine-readable metrics document: aggregated span durations,
    /// counter totals and last-written gauge values.
    pub fn metrics(&self) -> Json {
        let events = self.events();
        // Span aggregation: match B/E per (tid, name) as a stack.
        #[derive(Default)]
        struct SpanAgg {
            count: u64,
            total_us: f64,
        }
        let mut open: std::collections::BTreeMap<(u64, String), Vec<f64>> = Default::default();
        let mut spans: Vec<(String, SpanAgg)> = Vec::new();
        let mut counters: Vec<(String, f64)> = Vec::new();
        let mut gauges: Vec<(String, f64)> = Vec::new();
        for e in &events {
            match &e.kind {
                EventKind::SpanBegin => {
                    open.entry((e.tid, e.name.clone()))
                        .or_default()
                        .push(e.ts_us);
                }
                EventKind::SpanEnd => {
                    if let Some(begin) = open
                        .get_mut(&(e.tid, e.name.clone()))
                        .and_then(std::vec::Vec::pop)
                    {
                        let agg = match spans.iter_mut().find(|(n, _)| *n == e.name) {
                            Some((_, a)) => a,
                            None => {
                                spans.push((e.name.clone(), SpanAgg::default()));
                                &mut spans.last_mut().expect("just pushed").1
                            }
                        };
                        agg.count += 1;
                        agg.total_us += e.ts_us - begin;
                    }
                }
                EventKind::Counter { delta } => {
                    match counters.iter_mut().find(|(n, _)| *n == e.name) {
                        Some((_, total)) => *total += delta,
                        None => counters.push((e.name.clone(), *delta)),
                    }
                }
                EventKind::Gauge { value } => match gauges.iter_mut().find(|(n, _)| *n == e.name) {
                    Some((_, v)) => *v = *value,
                    None => gauges.push((e.name.clone(), *value)),
                },
                EventKind::Instant | EventKind::Virtual { .. } => {}
            }
        }
        Json::obj([
            (
                "spans",
                Json::Arr(
                    spans
                        .into_iter()
                        .map(|(name, a)| {
                            Json::obj([
                                ("name", Json::str(name)),
                                ("count", Json::num(a.count as f64)),
                                ("total_us", Json::num(a.total_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                Json::Obj(
                    counters
                        .into_iter()
                        .map(|(n, v)| (n, Json::num(v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(gauges.into_iter().map(|(n, v)| (n, Json::num(v))).collect()),
            ),
            ("events_dropped", Json::num(self.events_dropped() as f64)),
        ])
    }

    /// Human-readable aggregate summary: spans by total time, then counter
    /// totals and gauge values.
    pub fn summary(&self) -> String {
        let metrics = self.metrics();
        let mut out = String::new();
        out.push_str("spans (aggregated):\n");
        let mut rows: Vec<(&str, f64, f64)> = metrics
            .get("spans")
            .and_then(Json::as_arr)
            .map(|spans| {
                spans
                    .iter()
                    .filter_map(|s| {
                        Some((
                            s.get("name")?.as_str()?,
                            s.get("count")?.as_f64()?,
                            s.get("total_us")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
        rows.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        for (name, count, total_us) in rows {
            out.push_str(&format!("  {name:<32} {count:>6}x {:>12.1} us\n", total_us));
        }
        for (section, key) in [("counters", "counters"), ("gauges", "gauges")] {
            if let Some(pairs) = metrics.get(key).and_then(Json::as_obj) {
                if !pairs.is_empty() {
                    out.push_str(&format!("{section}:\n"));
                    for (name, value) in pairs {
                        out.push_str(&format!("  {name:<32} {:>20}\n", value.render()));
                    }
                }
            }
        }
        let dropped = self.events_dropped();
        if dropped > 0 {
            out.push_str(&format!(
                "events dropped: {dropped} (ring full — oldest events evicted)\n"
            ));
        }
        out
    }
}

/// Restores the previously installed tracer (if any) on drop.
pub struct InstallGuard {
    _private: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Installs `tracer` as the current thread's recording target until the
/// returned guard drops. Installations nest; the innermost wins.
pub fn install(tracer: &Tracer) -> InstallGuard {
    CURRENT.with(|c| c.borrow_mut().push(tracer.clone()));
    InstallGuard { _private: () }
}

fn current() -> Option<Tracer> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// RAII span: records `SpanBegin` on creation (when a tracer is installed)
/// and `SpanEnd` on drop. Arguments added with [`SpanGuard::arg`] are
/// attached to the end event.
pub struct SpanGuard {
    live: Option<(Tracer, &'static str, String)>,
    args: Vec<(String, Json)>,
}

impl SpanGuard {
    /// Attaches a key/value argument reported on the span's end event.
    pub fn arg(&mut self, key: impl Into<String>, value: Json) {
        if self.live.is_some() {
            self.args.push((key.into(), value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((tracer, category, name)) = self.live.take() {
            let ts_us = tracer.now_us();
            tracer.record(Event {
                name,
                category,
                ts_us,
                tid: thread_id(),
                kind: EventKind::SpanEnd,
                args: std::mem::take(&mut self.args),
            });
        }
    }
}

/// Opens a span on the current thread's tracer; a no-op guard when no
/// tracer is installed.
pub fn span(category: &'static str, name: impl Into<String>) -> SpanGuard {
    match current() {
        Some(tracer) => {
            let name = name.into();
            tracer.record_now(category, name.clone(), EventKind::SpanBegin);
            SpanGuard {
                live: Some((tracer, category, name)),
                args: Vec::new(),
            }
        }
        None => SpanGuard {
            live: None,
            args: Vec::new(),
        },
    }
}

/// Accumulates `delta` into the named counter.
pub fn counter(category: &'static str, name: impl Into<String>, delta: f64) {
    if let Some(tracer) = current() {
        tracer.record_now(category, name.into(), EventKind::Counter { delta });
    }
}

/// Samples the named gauge (last write wins in the metrics sink).
pub fn gauge(category: &'static str, name: impl Into<String>, value: f64) {
    if let Some(tracer) = current() {
        tracer.record_now(category, name.into(), EventKind::Gauge { value });
    }
}

/// Records a point-in-time marker.
pub fn instant(category: &'static str, name: impl Into<String>) {
    if let Some(tracer) = current() {
        tracer.record_now(category, name.into(), EventKind::Instant);
    }
}

/// Records an event on a virtual timeline (e.g. simulated cycles; by
/// convention one virtual microsecond per cycle).
pub fn virtual_event(
    category: &'static str,
    track: impl Into<String>,
    name: impl Into<String>,
    ts_us: f64,
    dur_us: f64,
    args: Vec<(String, Json)>,
) {
    if let Some(tracer) = current() {
        tracer.record(Event {
            name: name.into(),
            category,
            ts_us: 0.0,
            tid: thread_id(),
            kind: EventKind::Virtual {
                track: track.into(),
                ts_us,
                dur_us,
            },
            args,
        });
    }
}

/// True when a tracer is installed on the current thread (lets hot code
/// skip preparing event arguments entirely).
pub fn active() -> bool {
    CURRENT.with(|c| !c.borrow().is_empty())
}

/// Validates a chrome-trace document: parses, checks `traceEvents` is a
/// non-empty array, and that every `ph:"B"` has a matching `ph:"E"` per
/// (pid, tid), properly nested. Returns the number of events.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<String>> = Default::default();
    for e in events {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or("event without ph")?;
        let name = e.get("name").and_then(Json::as_str).unwrap_or("");
        let pid = e.get("pid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let tid = e.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        match ph {
            "B" => stacks.entry((pid, tid)).or_default().push(name.to_string()),
            "E" => {
                let top = stacks.entry((pid, tid)).or_default().pop();
                if top.as_deref() != Some(name) {
                    return Err(format!(
                        "unbalanced span: E `{name}` closes `{}`",
                        top.unwrap_or_default()
                    ));
                }
            }
            "X" => {
                if e.get("dur").and_then(Json::as_f64).is_none() {
                    return Err(format!("complete event `{name}` without dur"));
                }
            }
            "C" | "i" | "M" => {}
            other => return Err(format!("unknown phase `{other}`")),
        }
    }
    for ((pid, tid), stack) in stacks {
        if !stack.is_empty() {
            return Err(format!(
                "unclosed span `{}` on pid {pid} tid {tid}",
                stack.last().expect("non-empty")
            ));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let tracer = Tracer::new();
        let _session = install(&tracer);
        {
            let _outer = span("t", "outer");
            {
                let _inner = span("t", "inner");
            }
            {
                let _inner = span("t", "inner");
            }
        }
        let metrics = tracer.metrics();
        let spans = metrics.get("spans").and_then(Json::as_arr).expect("spans");
        let find = |n: &str| {
            spans
                .iter()
                .find(|s| s.get("name").and_then(Json::as_str) == Some(n))
                .expect("span present")
        };
        assert_eq!(find("inner").get("count").and_then(Json::as_f64), Some(2.0));
        assert_eq!(find("outer").get("count").and_then(Json::as_f64), Some(1.0));
        let outer_us = find("outer")
            .get("total_us")
            .and_then(Json::as_f64)
            .expect("us");
        assert!(outer_us >= 0.0);
    }

    #[test]
    fn no_tracer_installed_is_a_noop() {
        // Must not panic or record anywhere.
        let _span = span("t", "ghost");
        counter("t", "ghost.counter", 1.0);
        assert!(!active());
    }

    #[test]
    fn counters_accumulate_gauges_overwrite() {
        let tracer = Tracer::new();
        let _session = install(&tracer);
        counter("t", "c", 2.0);
        counter("t", "c", 3.0);
        gauge("t", "g", 7.0);
        gauge("t", "g", 9.0);
        let m = tracer.metrics();
        assert_eq!(
            m.get("counters")
                .and_then(|c| c.get("c"))
                .and_then(Json::as_f64),
            Some(5.0)
        );
        assert_eq!(
            m.get("gauges")
                .and_then(|g| g.get("g"))
                .and_then(Json::as_f64),
            Some(9.0)
        );
    }

    #[test]
    fn chrome_trace_validates() {
        let tracer = Tracer::new();
        {
            let _session = install(&tracer);
            let _a = span("t", "a");
            let _b = span("t", "b");
            counter("t", "c", 1.0);
            instant("t", "marker");
            virtual_event("t", "timing", "phase0", 0.0, 100.0, vec![]);
        }
        let text = tracer.chrome_trace();
        let n = validate_chrome_trace(&text).expect("valid");
        assert!(n >= 5, "expected >= 5 events, got {n}");
    }

    #[test]
    fn validator_rejects_unbalanced() {
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":0,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(text).is_err());
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":0,"pid":1,"tid":1},
            {"name":"b","ph":"E","ts":1,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(text).is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
    }

    #[test]
    fn shared_across_threads() {
        let tracer = Tracer::new();
        let mut handles = Vec::new();
        for i in 0..4 {
            let t = tracer.clone();
            handles.push(std::thread::spawn(move || {
                let _session = install(&t);
                let _s = span("t", format!("worker{i}"));
                counter("t", "work", 1.0);
            }));
        }
        for h in handles {
            h.join().expect("joins");
        }
        let m = tracer.metrics();
        assert_eq!(
            m.get("counters")
                .and_then(|c| c.get("work"))
                .and_then(Json::as_f64),
            Some(4.0)
        );
        validate_chrome_trace(&tracer.chrome_trace()).expect("valid with many tids");
    }

    #[test]
    fn disabled_tracer_drops_events() {
        let tracer = Tracer::new();
        tracer.set_enabled(false);
        let _session = install(&tracer);
        counter("t", "c", 1.0);
        assert!(tracer.is_empty());
        tracer.set_enabled(true);
        counter("t", "c", 1.0);
        assert_eq!(tracer.len(), 1);
    }

    #[test]
    fn install_nests_and_restores() {
        let outer = Tracer::new();
        let inner = Tracer::new();
        let _o = install(&outer);
        {
            let _i = install(&inner);
            counter("t", "x", 1.0);
        }
        counter("t", "y", 1.0);
        assert_eq!(inner.len(), 1);
        assert_eq!(outer.len(), 1);
        assert_eq!(outer.events()[0].name, "y");
    }

    #[test]
    fn span_args_attach_to_end_event() {
        let tracer = Tracer::new();
        let _session = install(&tracer);
        {
            let mut s = span("t", "work");
            s.arg("items", Json::num(12.0));
        }
        let events = tracer.events();
        let end = events
            .iter()
            .find(|e| e.kind == EventKind::SpanEnd)
            .expect("end event");
        assert_eq!(end.args[0].0, "items");
        let text = tracer.chrome_trace();
        assert!(text.contains("\"items\":12"), "{text}");
    }

    #[test]
    fn ring_bounds_storage_and_counts_drops() {
        let tracer = Tracer::with_capacity(8);
        let _session = install(&tracer);
        for i in 0..20 {
            counter("t", format!("c{i}"), 1.0);
        }
        assert_eq!(tracer.len(), 8, "ring keeps only the newest cap events");
        assert_eq!(tracer.events_dropped(), 12);
        assert_eq!(tracer.events()[0].name, "c12", "oldest evicted first");
        let m = tracer.metrics();
        assert_eq!(
            m.get("events_dropped").and_then(Json::as_f64),
            Some(12.0),
            "metrics reports the loss"
        );
        assert!(tracer.summary().contains("events dropped: 12"));
    }

    #[test]
    fn orphaned_span_ends_are_skipped_after_eviction() {
        // Capacity 3: the SpanBegin of `outer` is evicted by the churn,
        // leaving its SpanEnd orphaned in the ring. chrome_trace must
        // still validate and metrics must not invent a duration.
        let tracer = Tracer::with_capacity(3);
        let _session = install(&tracer);
        {
            let _outer = span("t", "outer");
            {
                let _inner = span("t", "inner");
            }
        }
        assert!(tracer.events_dropped() > 0);
        let text = tracer.chrome_trace();
        validate_chrome_trace(&text).expect("orphan ends skipped");
        let m = tracer.metrics();
        let spans = m.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(
            !spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some("outer")),
            "outer lost its begin, so it must not aggregate"
        );
    }

    #[test]
    fn summary_lists_spans_and_counters() {
        let tracer = Tracer::new();
        {
            let _session = install(&tracer);
            let _s = span("t", "slow.pass");
            counter("t", "ops", 42.0);
        }
        let s = tracer.summary();
        assert!(s.contains("slow.pass"), "{s}");
        assert!(s.contains("ops"), "{s}");
        assert!(s.contains("42"), "{s}");
    }
}
