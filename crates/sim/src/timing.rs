//! Transaction-level cycle-accurate timing simulation.
//!
//! This replaces the paper's Vivado RTL simulation of forward propagation:
//! each coordinator phase is simulated as overlapping compute / DRAM /
//! buffer streams (double buffering), and the phase latency is the slowest
//! stream plus the pipeline fill/drain and reconfiguration overhead.

use deepburning_compiler::{CompiledNetwork, Phase, PhaseKind};
use deepburning_core::AcceleratorDesign;

/// Tunable micro-architecture timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingParams {
    /// Effective DRAM bandwidth in bytes per accelerator cycle.
    /// (Zynq DDR3-1066, 32-bit @ 533 MHz ≈ 4.2 GB/s ≈ 42 B/cycle at the
    /// accelerator's 100 MHz.)
    pub dram_bytes_per_cycle: f64,
    /// Bytes per DRAM burst.
    pub burst_bytes: u64,
    /// Extra cycles charged per burst (row activation, AXI handshake).
    pub burst_overhead_cycles: u64,
    /// Aux-unit operations retired per cycle (pooling/LRN stream width).
    pub aux_ops_per_cycle: u64,
    /// Approx-LUT evaluations per cycle (parallel table banks).
    pub lut_ops_per_cycle: u64,
    /// Fixed cycles per phase: datapath fill/drain plus the coordinator's
    /// producer-consumer reconnection.
    pub phase_overhead_cycles: u64,
    /// Whether fetch of fold *i+1* overlaps compute of fold *i*.
    pub double_buffering: bool,
    /// Hand-tuned designs map their dataflow so every lane stays busy;
    /// generated designs waste the remainder lanes when a layer's
    /// parallelism does not match the lane count (the paper's hardware/
    /// parameter "mis-match").
    pub assume_full_lane_utilization: bool,
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams {
            dram_bytes_per_cycle: 42.0,
            burst_bytes: 256,
            burst_overhead_cycles: 1,
            aux_ops_per_cycle: 8,
            lut_ops_per_cycle: 4,
            phase_overhead_cycles: 32,
            double_buffering: true,
            assume_full_lane_utilization: false,
        }
    }
}

/// Cycle breakdown of one simulated phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTiming {
    /// Phase id.
    pub phase: usize,
    /// Cycles the datapath (lanes / aux / LUT / sorter) needs.
    pub compute_cycles: u64,
    /// Cycles the DRAM traffic needs.
    pub dram_cycles: u64,
    /// Cycles the on-chip buffer traffic needs.
    pub buffer_cycles: u64,
    /// The phase's contribution to total latency.
    pub latency_cycles: u64,
}

/// The analytic performance-counter set — one field per register of the
/// generated `perf_counters` RTL block, in register-map order (DESIGN.md
/// §10). [`simulate_timing`]/[`simulate_folding`] derive it from the
/// folding plan; the differential harness replays the same schedule into
/// the RTL block and checks the deterministic fields bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSet {
    /// Total cycles the accelerator is busy (free-running counter).
    pub cycles: u64,
    /// Cycles the neuron array / aux datapath is actively retiring work.
    pub active_cycles: u64,
    /// Cycles stalled on DRAM transfers beyond compute/buffer overlap.
    pub stall_cycles: u64,
    /// MAC operations retired (deterministic).
    pub mac_ops: u64,
    /// Words read from the on-chip buffers (deterministic).
    pub buffer_reads: u64,
    /// Words written into the on-chip buffers (deterministic).
    pub buffer_writes: u64,
    /// DRAM bursts issued by the main AGU (deterministic).
    pub agu_bursts: u64,
    /// Peak single-phase buffer fill in words (deterministic).
    pub buffer_peak_words: u64,
}

/// The outcome of a timing simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimingReport {
    /// Per-phase breakdown in schedule order.
    pub phases: Vec<PhaseTiming>,
    /// End-to-end latency in cycles.
    pub total_cycles: u64,
    /// The analytic performance-counter set for the whole run.
    pub counters: CounterSet,
}

impl TimingReport {
    /// Latency in seconds at `clock_hz`.
    pub fn seconds(&self, clock_hz: u64) -> f64 {
        self.total_cycles as f64 / clock_hz as f64
    }

    /// Total cycles spent waiting on DRAM beyond compute (memory-bound
    /// slack) — used by the ablation analyses.
    pub fn memory_bound_cycles(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| {
                p.dram_cycles
                    .saturating_sub(p.compute_cycles.max(p.buffer_cycles))
            })
            .fold(0u64, u64::saturating_add)
    }
}

/// Cycles the link needs to stream `bytes` at `dram_bytes_per_cycle`.
fn stream_cycles(bytes: u64, p: &TimingParams) -> u64 {
    // Saturate rather than wrap: a zero-bandwidth link never finishes.
    if p.dram_bytes_per_cycle > 0.0 {
        let c = (bytes as f64 / p.dram_bytes_per_cycle).ceil();
        if c >= u64::MAX as f64 {
            u64::MAX
        } else {
            c as u64
        }
    } else {
        u64::MAX
    }
}

fn dram_cycles(bytes: u64, p: &TimingParams) -> u64 {
    if bytes == 0 {
        return 0;
    }
    let bursts = dram_bursts(bytes, p);
    stream_cycles(bytes, p).saturating_add(bursts.saturating_mul(p.burst_overhead_cycles))
}

/// The DRAM beat model as a cycle-by-cycle handshake: the same
/// [`TimingParams`] terms `dram_cycles` charges in closed form, applied
/// to a stream of row transactions so a simulated memory can drive a
/// `ready` line with them.
///
/// While a row is pending the link earns `dram_bytes_per_cycle` of
/// credit per cycle, and a row is accepted once the stream's credit
/// covers every byte moved so far, itself included. Before that, each
/// `burst_bytes` boundary the row crosses costs `burst_overhead_cycles`
/// in which no credit is earned. The link takes at most one row per
/// cycle, so rows narrower than a cycle's bandwidth move at one per
/// cycle. A cycle without a pending row ends the stream: the next row
/// starts a fresh one.
///
/// For a stream whose rows are each at least `dram_bytes_per_cycle`
/// wide, accepting the last row takes exactly `dram_cycles(total
/// bytes)` cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramPacer {
    params: TimingParams,
    /// Credit-earning cycles since the stream started.
    earned: u64,
    /// Bytes accepted since the stream started.
    moved: u64,
    /// Overhead cycles the pending row still owes, once known.
    owed: Option<u64>,
}

impl DramPacer {
    /// A pacer idle at the start of a stream.
    pub fn new(params: &TimingParams) -> Self {
        DramPacer {
            params: *params,
            earned: 0,
            moved: 0,
            owed: None,
        }
    }

    /// One cycle with a `bytes`-byte row pending: whether the link
    /// accepts it this cycle. The same row is offered every cycle until
    /// it is accepted.
    pub fn offer(&mut self, bytes: u64) -> bool {
        let total = self.moved.saturating_add(bytes);
        let owed = self.owed.get_or_insert_with(|| {
            let opened = dram_bursts(total, &self.params) - dram_bursts(self.moved, &self.params);
            opened.saturating_mul(self.params.burst_overhead_cycles)
        });
        if *owed > 0 {
            *owed -= 1;
            return false;
        }
        self.earned += 1;
        if self.earned < stream_cycles(total, &self.params) {
            return false;
        }
        self.moved = total;
        self.owed = None;
        true
    }

    /// A cycle with no row pending: the stream ends.
    pub fn idle(&mut self) {
        *self = DramPacer::new(&self.params);
    }

    /// Cycles a fresh stream of these rows (bytes each, in order) takes,
    /// up to and including the cycle that accepts the last row: what
    /// [`DramPacer::offer`] spends on them, in closed form per row.
    pub fn cycles(params: &TimingParams, rows: impl IntoIterator<Item = u64>) -> u64 {
        let (mut earned, mut moved, mut cycles) = (0u64, 0u64, 0u64);
        for bytes in rows {
            let total = moved.saturating_add(bytes);
            let opened = dram_bursts(total, params) - dram_bursts(moved, params);
            let need = stream_cycles(total, params).max(earned.saturating_add(1));
            cycles = cycles
                .saturating_add(opened.saturating_mul(params.burst_overhead_cycles))
                .saturating_add(need - earned);
            earned = need;
            moved = total;
        }
        cycles
    }
}

fn dram_bursts(bytes: u64, p: &TimingParams) -> u64 {
    bytes.div_ceil(p.burst_bytes.max(1))
}

fn compute_cycles(phase: &Phase, lanes: u32, p: &TimingParams) -> u64 {
    match phase.kind {
        PhaseKind::Compute => {
            let effective = if p.assume_full_lane_utilization {
                lanes
            } else {
                phase.active_lanes.min(lanes)
            };
            phase.work.macs.div_ceil(u64::from(effective.max(1)))
        }
        PhaseKind::Aux => phase.work.aux_ops.div_ceil(p.aux_ops_per_cycle.max(1)),
        PhaseKind::Lut => phase.work.lut_ops.div_ceil(p.lut_ops_per_cycle.max(1)),
        PhaseKind::Sort => phase.work.aux_ops.max(1),
    }
}

/// Simulates the schedule of a compiled network.
pub fn simulate_timing(compiled: &CompiledNetwork, params: &TimingParams) -> TimingReport {
    simulate_folding(&compiled.folding, compiled.config.lanes, params)
}

/// Simulates an arbitrary folding plan (used for training-iteration plans
/// produced by [`deepburning_compiler::plan_training`]).
pub fn simulate_folding(
    folding: &deepburning_compiler::FoldingPlan,
    lanes: u32,
    params: &TimingParams,
) -> TimingReport {
    use deepburning_trace as trace;
    use deepburning_trace::json::Json;
    let _span = trace::span("sim", "sim.timing");
    let mut phases = Vec::with_capacity(folding.phases.len());
    let mut total = 0u64;
    let mut counters = CounterSet::default();
    for phase in &folding.phases {
        let compute = compute_cycles(phase, lanes, params);
        let dram_bytes = phase.work.dram_read_bytes + phase.work.dram_write_bytes;
        let dram = dram_cycles(dram_bytes, params);
        // The buffer bus moves `lanes` words per cycle into the datapath.
        let buffer = (phase.work.buffer_read_words + phase.work.buffer_write_words)
            .div_ceil(u64::from(lanes.max(1)));
        let latency = if params.double_buffering {
            compute
                .max(dram)
                .max(buffer)
                .saturating_add(params.phase_overhead_cycles)
        } else {
            compute
                .saturating_add(dram)
                .saturating_add(buffer)
                .saturating_add(params.phase_overhead_cycles)
        };
        counters.active_cycles = counters.active_cycles.saturating_add(compute);
        counters.stall_cycles = counters
            .stall_cycles
            .saturating_add(dram.saturating_sub(compute.max(buffer)));
        counters.mac_ops += phase.work.macs;
        counters.buffer_reads += phase.work.buffer_read_words;
        counters.buffer_writes += phase.work.buffer_write_words;
        counters.agu_bursts += if dram_bytes == 0 {
            0
        } else {
            dram_bursts(dram_bytes, params)
        };
        counters.buffer_peak_words = counters
            .buffer_peak_words
            .max(phase.work.buffer_write_words);
        if trace::active() {
            // One virtual microsecond per simulated cycle; each phase is a
            // complete event on the "timing" track with its cycle
            // attribution attached.
            trace::virtual_event(
                "sim",
                "timing",
                format!("{}#{}", phase.layer, phase.id),
                total as f64,
                latency as f64,
                vec![
                    ("compute_cycles".to_string(), Json::num(compute as f64)),
                    ("dram_cycles".to_string(), Json::num(dram as f64)),
                    ("buffer_cycles".to_string(), Json::num(buffer as f64)),
                ],
            );
        }
        total = total.saturating_add(latency);
        phases.push(PhaseTiming {
            phase: phase.id,
            compute_cycles: compute,
            dram_cycles: dram,
            buffer_cycles: buffer,
            latency_cycles: latency,
        });
    }
    if trace::active() {
        trace::counter("sim", "sim.timing.phases", phases.len() as f64);
        trace::counter("sim", "sim.timing.total_cycles", total as f64);
        trace::counter(
            "sim",
            "sim.timing.compute_cycles",
            phases.iter().map(|p| p.compute_cycles).sum::<u64>() as f64,
        );
        trace::counter(
            "sim",
            "sim.timing.dram_cycles",
            phases.iter().map(|p| p.dram_cycles).sum::<u64>() as f64,
        );
        trace::counter(
            "sim",
            "sim.timing.buffer_cycles",
            phases.iter().map(|p| p.buffer_cycles).sum::<u64>() as f64,
        );
    }
    counters.cycles = total;
    TimingReport {
        phases,
        total_cycles: total,
        counters,
    }
}

/// Aggregates a timing report's phase latencies by layer, descending —
/// the per-layer profile behind the folding ablations.
pub fn aggregate_by_layer(
    folding: &deepburning_compiler::FoldingPlan,
    report: &TimingReport,
) -> Vec<(String, u64)> {
    let mut totals: Vec<(String, u64)> = Vec::new();
    for (phase, timing) in folding.phases.iter().zip(&report.phases) {
        match totals.iter_mut().find(|(name, _)| *name == phase.layer) {
            Some((_, t)) => *t += timing.latency_cycles,
            None => totals.push((phase.layer.clone(), timing.latency_cycles)),
        }
    }
    totals.sort_by_key(|e| std::cmp::Reverse(e.1));
    totals
}

/// Convenience: simulate a generated design and return the forward-pass
/// latency in seconds at the design's clock.
pub fn forward_latency(design: &AcceleratorDesign, params: &TimingParams) -> f64 {
    simulate_timing(&design.compiled, params).seconds(design.clock_hz())
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_compiler::{compile, CompilerConfig};
    use deepburning_model::parse_network;

    const SRC: &str = r#"
    layers { name: "data" type: INPUT top: "data"
             input_param { channels: 1 height: 28 width: 28 } }
    layers { name: "conv" type: CONVOLUTION bottom: "data" top: "conv"
             param { num_output: 64 kernel_size: 5 stride: 1 } }
    layers { name: "pool" type: POOLING bottom: "conv" top: "pool"
             pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
    layers { name: "fc" type: FC bottom: "pool" top: "fc"
             param { num_output: 10 } }
    "#;

    fn compiled(lanes: u32) -> CompiledNetwork {
        let net = parse_network(SRC).expect("parses");
        compile(
            &net,
            &CompilerConfig {
                lanes,
                ..CompilerConfig::default()
            },
        )
        .expect("compiles")
    }

    #[test]
    fn more_lanes_fewer_cycles() {
        let p = TimingParams::default();
        let small = simulate_timing(&compiled(16), &p).total_cycles;
        let large = simulate_timing(&compiled(128), &p).total_cycles;
        assert!(
            large < small,
            "128 lanes ({large}) should beat 16 lanes ({small})"
        );
    }

    #[test]
    fn lane_scaling_sublinear_due_to_memory() {
        let p = TimingParams::default();
        let t16 = simulate_timing(&compiled(16), &p).total_cycles as f64;
        let t256 = simulate_timing(&compiled(256), &p).total_cycles as f64;
        let speedup = t16 / t256;
        assert!(speedup > 2.0, "speedup {speedup}");
        assert!(speedup < 16.0, "memory should cap scaling, got {speedup}");
    }

    #[test]
    fn double_buffering_helps() {
        let c = compiled(64);
        let with = simulate_timing(&c, &TimingParams::default()).total_cycles;
        let without = simulate_timing(
            &c,
            &TimingParams {
                double_buffering: false,
                ..TimingParams::default()
            },
        )
        .total_cycles;
        assert!(with < without);
    }

    #[test]
    fn phase_count_matches_plan() {
        let c = compiled(16);
        let report = simulate_timing(&c, &TimingParams::default());
        assert_eq!(report.phases.len(), c.folding.phases.len());
        let sum: u64 = report.phases.iter().map(|p| p.latency_cycles).sum();
        assert_eq!(sum, report.total_cycles);
    }

    #[test]
    fn aggregation_sums_to_total() {
        let c = compiled(32);
        let report = simulate_timing(&c, &TimingParams::default());
        let layers = aggregate_by_layer(&c.folding, &report);
        let sum: u64 = layers.iter().map(|(_, t)| t).sum();
        assert_eq!(sum, report.total_cycles);
        // Descending order.
        for w in layers.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn seconds_at_100mhz() {
        let report = TimingReport {
            phases: vec![],
            total_cycles: 1_000_000,
            counters: CounterSet::default(),
        };
        assert!((report.seconds(100_000_000) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn counter_set_is_consistent_with_plan() {
        let c = compiled(32);
        let report = simulate_timing(&c, &TimingParams::default());
        let k = &report.counters;
        assert_eq!(k.cycles, report.total_cycles);
        assert_eq!(k.mac_ops, c.folding.total_work().macs);
        assert_eq!(k.stall_cycles, report.memory_bound_cycles());
        assert_eq!(
            k.active_cycles,
            report.phases.iter().map(|p| p.compute_cycles).sum::<u64>()
        );
        let reads: u64 = c
            .folding
            .phases
            .iter()
            .map(|p| p.work.buffer_read_words)
            .sum();
        let writes: u64 = c
            .folding
            .phases
            .iter()
            .map(|p| p.work.buffer_write_words)
            .sum();
        assert_eq!(k.buffer_reads, reads);
        assert_eq!(k.buffer_writes, writes);
        assert!(k.agu_bursts > 0, "DRAM traffic must issue bursts");
        assert!(k.buffer_peak_words > 0);
        assert!(k.active_cycles <= k.cycles);
    }

    #[test]
    fn memory_bound_cycles_empty_report_is_zero() {
        assert_eq!(TimingReport::default().memory_bound_cycles(), 0);
        assert_eq!(TimingReport::default().counters, CounterSet::default());
    }

    #[test]
    fn zero_bandwidth_saturates_instead_of_panicking() {
        let c = compiled(16);
        let report = simulate_timing(
            &c,
            &TimingParams {
                dram_bytes_per_cycle: 0.0,
                ..TimingParams::default()
            },
        );
        // Every DRAM-touching phase saturates; the totals must too, and
        // the deterministic counters stay finite and exact.
        assert_eq!(report.total_cycles, u64::MAX);
        assert!(report.memory_bound_cycles() > 0);
        assert_eq!(report.counters.mac_ops, c.folding.total_work().macs);
    }

    #[test]
    fn aggregate_by_layer_empty_plan() {
        let folding = deepburning_compiler::FoldingPlan {
            lanes: 8,
            phases: vec![],
        };
        let report = simulate_folding(&folding, 8, &TimingParams::default());
        assert_eq!(report.total_cycles, 0);
        assert!(aggregate_by_layer(&folding, &report).is_empty());
    }

    #[test]
    fn aggregate_by_layer_single_phase_network() {
        let net = parse_network(
            r#"
            layers { name: "data" type: INPUT top: "data"
                     input_param { channels: 4 height: 1 width: 1 } }
            layers { name: "fc" type: FC bottom: "data" top: "fc"
                     param { num_output: 3 } }
            "#,
        )
        .expect("parses");
        let c = compile(
            &net,
            &CompilerConfig {
                lanes: 64,
                ..CompilerConfig::default()
            },
        )
        .expect("compiles");
        assert_eq!(c.folding.phases.len(), 1, "expected a single-phase plan");
        let report = simulate_timing(&c, &TimingParams::default());
        let layers = aggregate_by_layer(&c.folding, &report);
        assert_eq!(layers.len(), 1);
        assert_eq!(layers[0].0, "fc");
        assert_eq!(layers[0].1, report.total_cycles);
    }

    #[test]
    fn dram_cycles_include_burst_overhead() {
        let p = TimingParams::default();
        let small = dram_cycles(64, &p);
        let large = dram_cycles(64 * 100, &p);
        assert!(large > small * 50, "{large} vs {small}");
        assert_eq!(dram_cycles(0, &p), 0);
    }

    /// A 172-byte row (86 lanes of 16-bit words) at 42 B/cycle in 256-B
    /// bursts: five credit cycles, plus one overhead cycle for the burst
    /// it opens; the second row opens the next burst too.
    #[test]
    fn pacer_charges_credit_and_burst_overhead() {
        let p = TimingParams::default();
        let mut pacer = DramPacer::new(&p);
        let accepted: Vec<bool> = (0..6).map(|_| pacer.offer(172)).collect();
        assert_eq!(accepted, [false, false, false, false, false, true]);
        // 344 bytes: 9 credit cycles and 2 bursts = dram_cycles(344).
        assert_eq!(DramPacer::cycles(&p, [172, 172]), 11);
        assert_eq!(dram_cycles(344, &p), 11);
        // Narrow rows move at one per cycle at most (after the one
        // overhead cycle of the burst they share).
        assert_eq!(DramPacer::cycles(&p, [2; 10]), 11);
        // A cycle without a row ends the stream: the next row starts over.
        pacer.idle();
        assert!(!pacer.offer(2), "a fresh stream pays its burst overhead");
        assert!(pacer.offer(2));
        assert_eq!(DramPacer::cycles(&p, []), 0);
    }

    fn arb_params() -> impl proptest::strategy::Strategy<Value = TimingParams> {
        use proptest::strategy::Strategy;
        (1u32..=640, 1u64..600, 0u64..4).prop_map(|(tenths, burst, overhead)| TimingParams {
            dram_bytes_per_cycle: f64::from(tenths) / 10.0,
            burst_bytes: burst,
            burst_overhead_cycles: overhead,
            ..TimingParams::default()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The closed form is what cycle-by-cycle offering spends.
        #[test]
        fn pacer_closed_form_matches_offers(
            params in arb_params(),
            rows in proptest::collection::vec(1u64..700, 0..40),
        ) {
            let mut pacer = DramPacer::new(&params);
            let mut cycles = 0u64;
            for &bytes in &rows {
                cycles += 1;
                while !pacer.offer(bytes) {
                    cycles += 1;
                }
            }
            proptest::prop_assert_eq!(cycles, DramPacer::cycles(&params, rows.iter().copied()));
        }

        /// How the two DRAM terms relate: pacing rows costs what
        /// `dram_cycles` charges for their total bytes, to within one
        /// row's wait, whenever each row needs at least a cycle of
        /// bandwidth. Narrower rows only add the one-row-per-cycle limit.
        #[test]
        fn pacer_tracks_dram_cycles_within_one_row_wait(
            params in arb_params(),
            rows in proptest::collection::vec(1u64..700, 1..40),
        ) {
            let total: u64 = rows.iter().sum();
            let paced = DramPacer::cycles(&params, rows.iter().copied());
            let closed = dram_cycles(total, &params);
            let bpc = params.dram_bytes_per_cycle;
            if rows.iter().all(|&b| b as f64 >= bpc) {
                let wait = rows
                    .iter()
                    .map(|&b| (b as f64 / bpc).ceil() as u64)
                    .max()
                    .unwrap_or(0);
                proptest::prop_assert!(
                    paced.abs_diff(closed) <= wait,
                    "paced {} vs dram_cycles {} (wait {})", paced, closed, wait
                );
            }
            proptest::prop_assert!(paced >= closed, "paced {} < closed {}", paced, closed);
            proptest::prop_assert!(
                paced < closed + rows.len() as u64,
                "paced {} vs closed {} + {} rows", paced, closed, rows.len()
            );
        }
    }

    #[test]
    fn slower_dram_increases_latency() {
        let c = compiled(64);
        let fast = simulate_timing(&c, &TimingParams::default()).total_cycles;
        let slow = simulate_timing(
            &c,
            &TimingParams {
                dram_bytes_per_cycle: 4.2,
                ..TimingParams::default()
            },
        )
        .total_cycles;
        assert!(slow > fast);
    }
}
