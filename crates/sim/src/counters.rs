//! The fourth differential view: analytic vs RTL performance counters.
//!
//! [`verify_counters`] replays a compiled schedule into the design's own
//! `perf_counters` RTL block on the compiled RTL engine and checks the
//! readback against the timing simulator's [`CounterSet`]:
//!
//! * **Deterministic counters** (MAC ops, buffer reads/writes, AGU bursts,
//!   peak occupancy) must match **bit-for-bit** — the replay drives each
//!   phase's exact event totals through the increment buses, so any
//!   difference is a counter-RTL bug (width truncation, mux decode,
//!   accumulator carry).
//! * **Cycle counters** (cycles, active, stall) match within a computed
//!   slack: long phases are compressed to at most `beat_cap` simulated
//!   beats, so the RTL may under-count by exactly the compressed cycles.
//!   The documented bound is `analytic - rtl <= Σ max(0, latency_p -
//!   beat_cap)` with `rtl <= analytic`; with `beat_cap` at or above the
//!   longest phase the comparison is exact.

use crate::diff::{DiffError, Divergence, View};
use crate::timing::{simulate_folding, CounterSet, TimingParams};
use deepburning_compiler::CompiledNetwork;
use deepburning_components::{
    PERF_SEL_ACTIVE, PERF_SEL_BUF_READS, PERF_SEL_BUF_WRITES, PERF_SEL_BURSTS, PERF_SEL_CYCLES,
    PERF_SEL_MACS, PERF_SEL_PEAK, PERF_SEL_STALL,
};
use deepburning_trace as trace;
use deepburning_verilog::{CompiledSim, Design, Simulator};

/// Default per-phase beat cap used by `diff_design`. Bounds simulation
/// work per phase while keeping short phases cycle-exact.
pub const DEFAULT_BEAT_CAP: u64 = 256;

/// The outcome of a counter cross-check.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterCheck {
    /// The timing simulator's counter set.
    pub analytic: CounterSet,
    /// The counters read back from the RTL register map.
    pub rtl: CounterSet,
    /// RTL beats actually driven (Σ min(latency, cap) per phase).
    pub replayed_cycles: u64,
    /// Allowed cycle-counter shortfall: Σ max(0, latency − cap).
    pub cycle_slack: u64,
    /// Counter comparisons that failed their rule.
    pub divergences: Vec<Divergence>,
}

impl CounterCheck {
    /// True when every deterministic counter matched exactly and every
    /// cycle counter landed within the slack bound.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Splits `total` into `beats` per-beat increments (first `total % beats`
/// beats carry one extra), so the driven sum is exactly `total`.
fn split_inc(total: u64, beats: u64, beat: u64) -> u64 {
    let q = total / beats;
    let r = total % beats;
    if beat < r {
        q + 1
    } else {
        q
    }
}

/// Replays the compiled schedule into the design's `perf_counters` block
/// and cross-checks the readback against the analytic [`CounterSet`].
///
/// # Errors
///
/// Returns [`DiffError::Rtl`] if the design carries no `perf_counters`
/// module or the RTL simulation fails.
pub fn verify_counters(
    design: &Design,
    compiled: &CompiledNetwork,
    params: &TimingParams,
    beat_cap: u64,
) -> Result<CounterCheck, DiffError> {
    let _span = trace::span("sim", "sim.verify_counters");
    let module = design
        .modules
        .iter()
        .find(|m| m.name.starts_with("perf_counters"))
        .ok_or_else(|| DiffError::Rtl("design has no perf_counters module".into()))?;
    let inc_width = module
        .find_port("mac_inc")
        .map(|p| p.width)
        .ok_or_else(|| DiffError::Rtl("perf_counters has no mac_inc port".into()))?;
    let inc_max = if inc_width >= 64 {
        u64::MAX
    } else {
        (1u64 << inc_width) - 1
    };
    let mut it = CompiledSim::compile(design, &module.name)?;

    let report = simulate_folding(&compiled.folding, compiled.config.lanes, params);
    let cap = beat_cap.max(1);

    it.poke("rst", 1)?;
    it.clock()?;
    it.poke("rst", 0)?;
    it.poke("en", 1)?;
    // The per-beat ports, resolved once for the replay loop.
    let active = it.signal("active")?;
    let stall_in = it.signal("stall")?;
    let mac_inc = it.signal("mac_inc")?;
    let rd_inc = it.signal("rd_inc")?;
    let wr_inc = it.signal("wr_inc")?;
    let burst_inc = it.signal("burst_inc")?;
    let occupancy_in = it.signal("occupancy")?;

    let mut replayed = 0u64;
    let mut slack = 0u64;
    for (phase, timing) in compiled.folding.phases.iter().zip(&report.phases) {
        let latency = timing.latency_cycles.max(1);
        let stall = timing
            .dram_cycles
            .saturating_sub(timing.compute_cycles.max(timing.buffer_cycles));
        let dram_bytes = phase.work.dram_read_bytes + phase.work.dram_write_bytes;
        let bursts = if dram_bytes == 0 {
            0
        } else {
            dram_bytes.div_ceil(params.burst_bytes.max(1))
        };
        let totals = [
            phase.work.macs,
            phase.work.buffer_read_words,
            phase.work.buffer_write_words,
            bursts,
        ];
        // Enough beats that every per-beat increment fits the bus.
        let needed = totals
            .iter()
            .map(|t| t.div_ceil(inc_max))
            .max()
            .unwrap_or(0);
        let beats = latency.min(cap).max(needed).max(1);
        replayed += beats;
        slack += latency - latency.min(beats);
        let active_beats = timing.compute_cycles.min(beats);
        let stall_beats = stall.min(beats);
        let mut occupancy = 0u64;
        for beat in 0..beats {
            let wr = split_inc(totals[2], beats, beat);
            occupancy += wr;
            it.set(active, u64::from(beat < active_beats))?;
            it.set(stall_in, u64::from(beat < stall_beats))?;
            it.set(mac_inc, split_inc(totals[0], beats, beat))?;
            it.set(rd_inc, split_inc(totals[1], beats, beat))?;
            it.set(wr_inc, wr)?;
            it.set(burst_inc, split_inc(totals[3], beats, beat))?;
            it.set(occupancy_in, occupancy.min(inc_max))?;
            it.clock()?;
        }
    }

    // Freeze and read the register map.
    it.poke("en", 0)?;
    let mut read = |sel: u64| -> Result<u64, DiffError> {
        it.poke("sel", sel)?;
        it.clock()?;
        Ok(it.read("rdata")?)
    };
    let rtl = CounterSet {
        cycles: read(PERF_SEL_CYCLES)?,
        active_cycles: read(PERF_SEL_ACTIVE)?,
        stall_cycles: read(PERF_SEL_STALL)?,
        mac_ops: read(PERF_SEL_MACS)?,
        buffer_reads: read(PERF_SEL_BUF_READS)?,
        buffer_writes: read(PERF_SEL_BUF_WRITES)?,
        agu_bursts: read(PERF_SEL_BURSTS)?,
        buffer_peak_words: read(PERF_SEL_PEAK)?,
    };
    let analytic = report.counters;

    let mut divergences = Vec::new();
    let mut diverge = |name: &'static str, sel: u64, a: u64, r: u64, tol: u64, detail: String| {
        divergences.push(Divergence {
            layer: "perf_counters".into(),
            kind: "counter".into(),
            views: (View::Timing, View::Rtl),
            index: sel as usize,
            lhs: a as f64,
            rhs: r as f64,
            tolerance: tol as f64,
            detail: format!("{name}: {detail}"),
        });
    };
    for (name, sel, a, r) in [
        ("mac_ops", PERF_SEL_MACS, analytic.mac_ops, rtl.mac_ops),
        (
            "buffer_reads",
            PERF_SEL_BUF_READS,
            analytic.buffer_reads,
            rtl.buffer_reads,
        ),
        (
            "buffer_writes",
            PERF_SEL_BUF_WRITES,
            analytic.buffer_writes,
            rtl.buffer_writes,
        ),
        (
            "agu_bursts",
            PERF_SEL_BURSTS,
            analytic.agu_bursts,
            rtl.agu_bursts,
        ),
        (
            "buffer_peak",
            PERF_SEL_PEAK,
            analytic.buffer_peak_words,
            rtl.buffer_peak_words,
        ),
    ] {
        if a != r {
            diverge(
                name,
                sel,
                a,
                r,
                0,
                "deterministic counter must match bit-for-bit".into(),
            );
        }
    }
    for (name, sel, a, r) in [
        ("cycles", PERF_SEL_CYCLES, analytic.cycles, rtl.cycles),
        (
            "active_cycles",
            PERF_SEL_ACTIVE,
            analytic.active_cycles,
            rtl.active_cycles,
        ),
        (
            "stall_cycles",
            PERF_SEL_STALL,
            analytic.stall_cycles,
            rtl.stall_cycles,
        ),
    ] {
        if r > a {
            diverge(
                name,
                sel,
                a,
                r,
                slack,
                "RTL cycle counter exceeds the analytic value".into(),
            );
        } else if a - r > slack {
            diverge(
                name,
                sel,
                a,
                r,
                slack,
                format!("shortfall {} exceeds replay slack", a - r),
            );
        }
    }

    if trace::active() {
        trace::counter("sim", "sim.counters.replayed_beats", replayed as f64);
        trace::counter("sim", "sim.counters.divergences", divergences.len() as f64);
    }
    Ok(CounterCheck {
        analytic,
        rtl,
        replayed_cycles: replayed,
        cycle_slack: slack,
        divergences,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_core::{generate, Budget};
    use deepburning_model::parse_network;

    const SRC: &str = r#"
    name: "ctr"
    layers { name: "data" type: INPUT top: "data"
             input_param { channels: 1 height: 10 width: 10 } }
    layers { name: "conv" type: CONVOLUTION bottom: "data" top: "conv"
             param { num_output: 6 kernel_size: 3 stride: 1 } }
    layers { name: "sig" type: SIGMOID bottom: "conv" top: "conv" }
    layers { name: "fc" type: FC bottom: "conv" top: "fc"
             param { num_output: 4 } }
    "#;

    #[test]
    fn counters_cross_check_clean() {
        let net = parse_network(SRC).expect("parses");
        let design = generate(&net, &Budget::Small).expect("generates");
        let check = verify_counters(
            &design.design,
            &design.compiled,
            &TimingParams::default(),
            DEFAULT_BEAT_CAP,
        )
        .expect("replays");
        assert!(
            check.is_clean(),
            "{:#?} vs {:#?}: {:?}",
            check.analytic,
            check.rtl,
            check.divergences
        );
        assert!(check.replayed_cycles > 0);
        // Deterministic counters are bit-exact regardless of slack.
        assert_eq!(check.analytic.mac_ops, check.rtl.mac_ops);
        assert_eq!(check.analytic.agu_bursts, check.rtl.agu_bursts);
    }

    #[test]
    fn uncapped_replay_is_cycle_exact() {
        let net = parse_network(SRC).expect("parses");
        let design = generate(&net, &Budget::Small).expect("generates");
        let check = verify_counters(
            &design.design,
            &design.compiled,
            &TimingParams::default(),
            u64::MAX,
        )
        .expect("replays");
        assert_eq!(check.cycle_slack, 0);
        assert_eq!(check.analytic, check.rtl, "uncapped replay must be exact");
    }

    #[test]
    fn tight_cap_stays_within_documented_slack() {
        let net = parse_network(SRC).expect("parses");
        let design = generate(&net, &Budget::Small).expect("generates");
        let check = verify_counters(
            &design.design,
            &design.compiled,
            &TimingParams::default(),
            4,
        )
        .expect("replays");
        assert!(check.is_clean(), "{:?}", check.divergences);
        assert!(check.cycle_slack > 0, "cap 4 must compress some phase");
        assert!(check.rtl.cycles <= check.analytic.cycles);
    }

    #[test]
    fn missing_counter_module_is_an_error() {
        use deepburning_components::{Block, Coordinator};
        use deepburning_verilog::Design;
        let net = parse_network(SRC).expect("parses");
        let design = generate(&net, &Budget::Small).expect("generates");
        let bare = Design::new(Coordinator { phases: 2 }.generate());
        let err = verify_counters(
            &bare,
            &design.compiled,
            &TimingParams::default(),
            DEFAULT_BEAT_CAP,
        );
        assert!(matches!(err, Err(DiffError::Rtl(_))));
    }

    #[test]
    fn split_inc_sums_back_to_total() {
        for (total, beats) in [(0u64, 5u64), (7, 3), (100, 7), (5, 5), (3, 8)] {
            let sum: u64 = (0..beats).map(|b| split_inc(total, beats, b)).sum();
            assert_eq!(sum, total, "total={total} beats={beats}");
        }
    }
}
