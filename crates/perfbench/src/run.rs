//! One measured run of one workload: set-up, a closed loop of ops on one
//! thread, correctness checks, and the metrics of the run.
//!
//! Untraced runs report the end-to-end metrics. Traced runs alternate an
//! untraced and a traced round and report the per-layer metrics of the
//! traced rounds, plus the traced/untraced round-time ratio as the
//! tracing overhead; end-to-end numbers never come from a traced run.

use crate::digest::Fnv1a;
use crate::layers::Profile;
use crate::metrics::{find, EXACT};
use crate::stats;
use crate::workload::{Fixture, Scale, Workload};
use deepburning_trace as trace;
use deepburning_trace::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Most set-ups per round. A round repeats its set-up while the round's
/// set-ups have taken under [`SETUP_BUDGET_S`], so a sub-millisecond
/// set-up still yields enough samples for a steady median.
const SETUP_REPEATS: usize = 5;
/// Set-up time per round after which a round stops repeating its set-up.
const SETUP_BUDGET_S: f64 = 0.1;
/// Timed ops an untraced full-scale run reaches before it may stop, so the
/// best-round metrics pick from several rounds even where a round is long
/// (three 35-op `gen-zoo` rounds, nine 12-op `rtl-fullrun` rounds).
const MIN_TIMED_OPS: u64 = 100;
/// Event capacity of the traced run's tracer: far above the ~10^4 events
/// a traced round records, so `trace.events_dropped` stays 0.
const TRACE_CAPACITY: usize = 1 << 21;
/// Failure messages kept for the report.
const KEPT_FAILURES: usize = 8;

/// Whether and where a run traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceMode {
    /// Untraced: end-to-end metrics.
    Off,
    /// Traced: per-layer metrics.
    On,
    /// Traced, and `trace.json` plus `layers.json` written to the directory.
    Dir(PathBuf),
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// Minimum measuring time; whole rounds run until it has passed.
    pub seconds: f64,
    /// Tracing.
    pub trace: TraceMode,
    /// Op-set size.
    pub scale: Scale,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The workload.
    workload: Workload,
    /// Input seed.
    seed: u64,
    /// True for a traced run.
    traced: bool,
    /// Timed ops.
    attempted: u64,
    /// Timed ops that errored, were not clean, or differed from their
    /// first execution.
    failed: u64,
    /// Rounds run (traced runs: traced plus untraced).
    rounds: usize,
    /// Ops per round: the samples each round's percentiles rest on.
    round_ops: usize,
    /// FNV-1a over the records of the first round's ops.
    sim_digest: String,
    /// Reported metrics: end-to-end plus exact when untraced, per-layer
    /// when traced.
    metrics: Vec<(&'static str, f64)>,
    /// The first few failures, `label: why`.
    failures: Vec<String>,
}

impl RunReport {
    /// Whether every op passed its checks.
    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result object, printed last: exactly `correct`, `attempted`, `failed`
    /// and the `BENCHMARK.json` metrics of this mode.
    pub fn result_json(&self) -> Json {
        let exact = |name: &str| EXACT.iter().any(|m| m.name == name);
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            (
                "metrics",
                metrics_json(self.metrics.iter().filter(|(n, _)| !exact(n))),
            ),
        ])
    }

    /// The full record `dbbench compare` reads: the result plus workload,
    /// seed, `sim_digest` and the exact metrics.
    pub fn record_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::num(self.seed as f64)),
            ("trace", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("rounds", Json::num(self.rounds as f64)),
            ("round_ops", Json::num(self.round_ops as f64)),
            ("sim_digest", Json::str(&self.sim_digest)),
            ("metrics", metrics_json(self.metrics.iter())),
        ])
    }

    /// Human-readable lines: one per metric, then the failures.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "dbbench {} seed {}{}: {} ops in {} rounds of {} ({} beyond a round's p90), {} failed, sim_digest {}\n",
            self.workload.name(),
            self.seed,
            if self.traced { " (traced)" } else { "" },
            self.attempted,
            self.rounds,
            self.round_ops,
            stats::samples_beyond(self.round_ops, 90.0),
            self.failed,
            self.sim_digest
        );
        for (name, value) in &self.metrics {
            let unit = find(name).map_or("", |m| m.unit);
            out.push_str(&format!("  {name:<34} {value:>16.6} {unit}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("  FAILED {f}\n"));
        }
        out
    }
}

/// `{name: {"value": v, "unit": u}}`, in the given order.
fn metrics_json<'a>(metrics: impl Iterator<Item = &'a (&'static str, f64)>) -> Json {
    Json::Obj(
        metrics
            .map(|(name, value)| {
                let unit = find(name).map_or("", |m| m.unit);
                (
                    (*name).to_string(),
                    Json::obj([("value", Json::num(*value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    )
}

/// Peak resident set of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// Fails where `/proc/self/status` is unreadable (non-Linux hosts).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb: reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("peak_rss_mb: no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Per-op bookkeeping shared by both modes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Digest of each op's first execution, to check later executions.
    first: BTreeMap<usize, u64>,
    digest: Fnv1a,
    model_cycles: Vec<f64>,
    model_energy_uj: Vec<f64>,
}

impl Tally {
    fn fail(&mut self, label: &str, why: &str) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(format!("{label}: {why}"));
        }
    }

    /// Times op `i` and checks what it returned. Returns the op's time in
    /// milliseconds.
    fn op(&mut self, fixture: &Fixture, i: usize, first_round: bool) -> f64 {
        let start = Instant::now();
        let out = {
            let _op = trace::span("bench", "bench.op");
            fixture.run_op(i)
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.attempted += 1;
        let label = fixture.label(i);
        let digest = match out {
            Err(e) => {
                self.fail(label, &e);
                Fnv1a::default().str(label).str(&e).finish()
            }
            Ok(out) => {
                let rec = out.record(label);
                if let Some(why) = &rec.problem {
                    self.fail(label, why);
                }
                if first_round {
                    self.model_cycles.extend(rec.model_cycles.map(|c| c as f64));
                    self.model_energy_uj.extend(rec.model_energy_uj);
                }
                rec.digest
            }
        };
        match self.first.get(&i) {
            Some(&seen) if seen != digest => {
                self.fail(label, "output differs from the op's first execution");
            }
            Some(_) => {}
            None => {
                self.first.insert(i, digest);
            }
        }
        if first_round {
            self.digest.u64(digest);
        }
        ms
    }
}

/// One round: its set-up times and op times.
struct Round {
    traced: bool,
    setup_s: Vec<f64>,
    op_ms: Vec<f64>,
}

impl Round {
    fn busy_s(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / 1e3
    }

    fn ops_per_s(&self) -> f64 {
        self.op_ms.len() as f64 / self.busy_s()
    }

    fn percentile(&self, p: f64) -> f64 {
        stats::percentile(&stats::sorted(&self.op_ms), p).unwrap_or(0.0)
    }
}

/// The best of `rounds` by `key`: the lowest value, or the highest when
/// `highest`.
fn best(rounds: &[&Round], key: impl Fn(&Round) -> f64, highest: bool) -> f64 {
    let values = rounds.iter().map(|r| key(r));
    if highest {
        values.fold(f64::NEG_INFINITY, f64::max)
    } else {
        values.fold(f64::INFINITY, f64::min)
    }
}

/// Runs one workload.
///
/// Every round sets the workload up afresh (repeating a set-up that takes
/// under 0.1 s, up to five times), then runs its op set once (for `random-small`, the
/// next 100 nets). `setup_s` is the median of every set-up in the run, so
/// its samples spread across the run rather than landing in one burst.
/// The other host-time metrics come from the least-disturbed round: the
/// highest round throughput, and the lowest round p50 and p90 (nearest
/// rank over the round's ops). The host this runs on drifts by about ±10%
/// over tens of seconds, and a slow stretch hits whole rounds; the best
/// round is the steadiest estimate across runs.
///
/// # Errors
///
/// Returns a message on a harness error: a set-up that cannot build its
/// inputs, an unreadable peak RSS, or an unwritable trace directory. A
/// failing op is counted in the report, not returned.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let traced = cfg.trace != TraceMode::Off;
    // A smoke run is one round (two when traced), whatever `seconds` says.
    let (seconds, min_ops) = match cfg.scale {
        Scale::Full if traced => (cfg.seconds, 0),
        Scale::Full => (cfg.seconds, MIN_TIMED_OPS),
        Scale::Smoke => (0.0, 0),
    };
    let tracer = trace::Tracer::with_capacity(TRACE_CAPACITY);
    let mut tally = Tally::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured_s = 0.0;
    for index in 0.. {
        let mut setup_s = Vec::new();
        let fixture = loop {
            let start = Instant::now();
            let fixture = Fixture::setup(cfg.workload, cfg.seed, cfg.scale)?;
            setup_s.push(start.elapsed().as_secs_f64());
            if setup_s.len() == SETUP_REPEATS || setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S {
                break fixture;
            }
        };
        if index == 0 {
            // Untimed warm-up; its outcome is checked when op 0 runs timed.
            drop(fixture.run_op(0));
        }
        // Traced runs alternate: even rounds untraced, odd rounds traced.
        let traced_round = traced && index % 2 == 1;
        let start = Instant::now();
        let session = traced_round.then(|| trace::install(&tracer));
        let op_ms = fixture
            .round(index)
            .into_iter()
            .map(|i| tally.op(&fixture, i, index == 0))
            .collect();
        drop(session);
        measured_s += start.elapsed().as_secs_f64();
        rounds.push(Round {
            traced: traced_round,
            setup_s,
            op_ms,
        });
        let both_kinds = rounds.iter().any(|r| r.traced) && rounds.iter().any(|r| !r.traced);
        if measured_s >= seconds && tally.attempted >= min_ops && (!traced || both_kinds) {
            break;
        }
    }
    let (traced_rounds, plain_rounds): (Vec<&Round>, Vec<&Round>) =
        rounds.iter().partition(|r| r.traced);
    let metrics = if traced {
        let busy =
            |rs: &[&Round]| stats::median(&rs.iter().map(|r| r.busy_s()).collect::<Vec<_>>());
        let overhead = match (busy(&traced_rounds), busy(&plain_rounds)) {
            (Some(t), Some(p)) if p > 0.0 => t / p - 1.0,
            _ => 0.0,
        };
        let profile = Profile::from_events(&tracer.events(), tracer.events_dropped());
        let metrics = profile.layer_metrics(traced_rounds.len() as f64, overhead);
        if let TraceMode::Dir(dir) = &cfg.trace {
            write_trace_dir(dir, cfg, &tracer, &profile, traced_rounds.len(), &metrics)?;
        }
        metrics
    } else {
        let mut m = vec![
            (
                "setup_s",
                stats::median(
                    &plain_rounds
                        .iter()
                        .flat_map(|r| r.setup_s.iter().copied())
                        .collect::<Vec<_>>(),
                )
                .unwrap_or(0.0),
            ),
            ("ops_per_s", best(&plain_rounds, Round::ops_per_s, true)),
            (
                "op_ms_p50",
                best(&plain_rounds, |r| r.percentile(50.0), false),
            ),
            (
                "op_ms_p90",
                best(&plain_rounds, |r| r.percentile(90.0), false),
            ),
            ("peak_rss_mb", peak_rss_mb()?),
            (
                "ops_failed_ratio",
                tally.failed as f64 / tally.attempted.max(1) as f64,
            ),
        ];
        m.extend(stats::geomean(&tally.model_cycles).map(|g| ("model_cycles_geomean", g)));
        m.extend(stats::geomean(&tally.model_energy_uj).map(|g| ("model_energy_uj_geomean", g)));
        m
    };
    Ok(RunReport {
        workload: cfg.workload,
        seed: cfg.seed,
        traced,
        attempted: tally.attempted,
        failed: tally.failed,
        rounds: rounds.len(),
        round_ops: rounds[0].op_ms.len(),
        sim_digest: tally.digest.hex(),
        metrics,
        failures: tally.failures,
    })
}

/// Writes `trace.json` (Perfetto) and `layers.json` (per-layer metrics per
/// traced round, then span and counter totals over every traced round).
fn write_trace_dir(
    dir: &Path,
    cfg: &RunConfig,
    tracer: &trace::Tracer,
    profile: &Profile,
    traced_rounds: usize,
    metrics: &[(&'static str, f64)],
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("writing trace to {}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    std::fs::write(dir.join("trace.json"), tracer.chrome_trace()).map_err(io)?;
    let mut spans: Vec<_> = profile.spans.iter().collect();
    spans.sort_by(|a, b| b.1.self_us.total_cmp(&a.1.self_us));
    let layers = Json::obj([
        ("workload", Json::str(cfg.workload.name())),
        ("seed", Json::num(cfg.seed as f64)),
        ("traced_rounds", Json::num(traced_rounds as f64)),
        ("metrics", metrics_json(metrics.iter())),
        (
            "spans",
            Json::Arr(
                spans
                    .into_iter()
                    .map(|(name, s)| {
                        Json::obj([
                            ("name", Json::str(name.clone())),
                            ("calls", Json::num(s.calls as f64)),
                            ("self_ms", Json::num(s.self_us / 1e3)),
                            ("total_ms", Json::num(s.total_us / 1e3)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "counters",
            Json::Obj(
                profile
                    .counters
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::num(*v)))
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(dir.join("layers.json"), layers.render()).map_err(io)
}
