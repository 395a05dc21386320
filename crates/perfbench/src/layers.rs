//! Per-layer attribution of a traced run: span self times and counter
//! totals folded out of the tracer's event list.

use crate::metrics::PER_LAYER;
use deepburning_trace::{Event, EventKind};
use std::collections::BTreeMap;

/// Aggregate of every span instance with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Completed instances.
    pub calls: u64,
    /// Σ (duration − time covered by direct child spans), µs.
    pub self_us: f64,
    /// Σ duration, µs (nested instances of one name count each time).
    pub total_us: f64,
}

/// Span and counter totals of a traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Span aggregates by name.
    pub spans: BTreeMap<String, SpanStat>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, f64>,
    /// Events the tracer's ring evicted (their spans are missing here).
    pub events_dropped: u64,
    /// Events folded.
    pub events: u64,
}

struct Open {
    name: String,
    begin_us: f64,
    child_us: f64,
}

impl Profile {
    /// Folds an event list. Spans nest per recording thread; an end event
    /// whose begin is missing (evicted from the ring) is skipped.
    pub fn from_events(events: &[Event], events_dropped: u64) -> Profile {
        let mut profile = Profile {
            events_dropped,
            events: events.len() as u64,
            ..Profile::default()
        };
        let mut stacks: BTreeMap<u64, Vec<Open>> = BTreeMap::new();
        for e in events {
            match &e.kind {
                EventKind::SpanBegin => stacks.entry(e.tid).or_default().push(Open {
                    name: e.name.clone(),
                    begin_us: e.ts_us,
                    child_us: 0.0,
                }),
                EventKind::SpanEnd => {
                    let stack = stacks.entry(e.tid).or_default();
                    if stack.last().is_none_or(|o| o.name != e.name) {
                        continue;
                    }
                    let open = stack.pop().expect("checked non-empty");
                    let dur = e.ts_us - open.begin_us;
                    if let Some(parent) = stack.last_mut() {
                        parent.child_us += dur;
                    }
                    let stat = profile.spans.entry(open.name).or_default();
                    stat.calls += 1;
                    stat.self_us += dur - open.child_us;
                    stat.total_us += dur;
                }
                EventKind::Counter { delta } => {
                    *profile.counters.entry(e.name.clone()).or_default() += delta;
                }
                EventKind::Gauge { .. } | EventKind::Instant | EventKind::Virtual { .. } => {}
            }
        }
        profile
    }

    fn span(&self, name: &str) -> SpanStat {
        self.spans.get(name).copied().unwrap_or_default()
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Value of one [`PER_LAYER`] metric over the whole profile. `rounds`
    /// traced rounds were folded: times and counts are divided by it,
    /// ratios are not. `overhead_ratio` is measured by the caller.
    pub fn layer_value(&self, name: &str, rounds: f64, overhead_ratio: f64) -> f64 {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        match name {
            "core.fit_ratio" => ratio(
                self.span("core.generate").calls as f64,
                self.counter("core.constraint_iterations"),
            ),
            "sim.full_rtl.ns_per_cycle" => ratio(
                self.span("sim.full_rtl").total_us * 1e3,
                self.counter("fullrtl.cycles"),
            ),
            "rtl.evals_per_edge" => {
                ratio(self.counter("rtl.evals"), self.counter("rtl.clock_edges"))
            }
            "trace.overhead_ratio" => overhead_ratio,
            "trace.events_dropped" => self.events_dropped as f64,
            "trace.events" => self.events as f64 / rounds,
            "bench.op.ms" => self.span("bench.op").total_us / 1e3 / rounds,
            "bench.glue.self_ms" => self.span("bench.op").self_us / 1e3 / rounds,
            _ => {
                let value = if let Some(span) = name.strip_suffix(".self_ms") {
                    self.span(span).self_us / 1e3
                } else if let Some(span) = name.strip_suffix(".calls") {
                    self.span(span).calls as f64
                } else {
                    self.counter(name)
                };
                value / rounds
            }
        }
    }

    /// Every [`PER_LAYER`] metric, in registry order.
    pub fn layer_metrics(&self, rounds: f64, overhead_ratio: f64) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.layer_value(m.name, rounds, overhead_ratio)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, tid: u64, ts_us: f64, kind: EventKind) -> Event {
        Event {
            name: name.to_string(),
            category: "t",
            ts_us,
            tid,
            kind,
            args: Vec::new(),
        }
    }

    fn begin(name: &str, ts: f64) -> Event {
        ev(name, 1, ts, EventKind::SpanBegin)
    }

    fn end(name: &str, ts: f64) -> Event {
        ev(name, 1, ts, EventKind::SpanEnd)
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100] ⊃ generate [10,70] ⊃ compile [20,50] ⊃ folding [25,35];
        // op ⊃ energy [80,90].
        let events = vec![
            begin("bench.op", 0.0),
            begin("core.generate", 10.0),
            begin("compiler.compile", 20.0),
            begin("compiler.folding", 25.0),
            end("compiler.folding", 35.0),
            end("compiler.compile", 50.0),
            end("core.generate", 70.0),
            begin("sim.energy", 80.0),
            end("sim.energy", 90.0),
            end("bench.op", 100.0),
        ];
        let p = Profile::from_events(&events, 0);
        let s = |n: &str| p.spans[n];
        assert_eq!(s("compiler.folding").self_us, 10.0);
        assert_eq!(s("compiler.compile").self_us, 20.0);
        assert_eq!(s("core.generate").self_us, 30.0);
        assert_eq!(s("sim.energy").self_us, 10.0);
        assert_eq!(s("bench.op").self_us, 30.0);
        assert_eq!(s("bench.op").total_us, 100.0);
        // Self times partition the root span exactly.
        let sum: f64 = p.spans.values().map(|v| v.self_us).sum();
        assert_eq!(sum, 100.0);
        assert_eq!(p.layer_value("bench.glue.self_ms", 1.0, 0.0), 0.03);
        assert_eq!(p.layer_value("core.generate.calls", 1.0, 0.0), 1.0);
    }

    #[test]
    fn repeated_spans_and_threads_aggregate_separately() {
        let mut events = vec![
            begin("a", 0.0),
            begin("b", 1.0),
            end("b", 3.0),
            begin("b", 4.0),
            end("b", 8.0),
            end("a", 10.0),
        ];
        // A second thread interleaves its own span; it must not nest
        // under thread 1's `a`.
        events.insert(2, ev("c", 2, 1.5, EventKind::SpanBegin));
        events.insert(5, ev("c", 2, 6.0, EventKind::SpanEnd));
        let p = Profile::from_events(&events, 0);
        assert_eq!(p.spans["b"].calls, 2);
        assert_eq!(p.spans["b"].self_us, 6.0);
        assert_eq!(p.spans["a"].self_us, 4.0);
        assert_eq!(p.spans["c"].self_us, 4.5);
    }

    #[test]
    fn orphan_ends_are_skipped_and_counters_sum() {
        let events = vec![
            end("lost", 1.0),
            ev("c", 1, 2.0, EventKind::Counter { delta: 2.0 }),
            ev("c", 1, 3.0, EventKind::Counter { delta: 5.0 }),
            ev("rtl.evals", 1, 3.0, EventKind::Counter { delta: 30.0 }),
            ev(
                "rtl.clock_edges",
                1,
                3.0,
                EventKind::Counter { delta: 10.0 },
            ),
        ];
        let p = Profile::from_events(&events, 4);
        assert!(p.spans.is_empty());
        assert_eq!(p.counters["c"], 7.0);
        assert_eq!(p.layer_value("c", 7.0, 0.0), 1.0, "counts are per round");
        assert_eq!(p.layer_value("rtl.evals_per_edge", 7.0, 0.0), 3.0);
        assert_eq!(p.layer_value("trace.events_dropped", 2.0, 0.0), 4.0);
        assert_eq!(p.layer_value("core.fit_ratio", 1.0, 0.0), 0.0);
    }

    #[test]
    fn every_registered_layer_metric_evaluates() {
        let p = Profile::default();
        let all = p.layer_metrics(1.0, 0.25);
        assert_eq!(all.len(), PER_LAYER.len());
        assert!(all.iter().all(|(_, v)| v.is_finite()));
        assert_eq!(
            all.iter().find(|(n, _)| *n == "trace.overhead_ratio"),
            Some(&("trace.overhead_ratio", 0.25))
        );
    }
}
