//! Differential verification across the three execution views.
//!
//! Every generated accelerator can be executed three ways:
//!
//! * **Tensor** — the `f32` software reference (`deepburning_tensor`), the
//!   "CPU-based NN" of paper Fig. 10;
//! * **Functional** — the bit-true fixed-point simulator
//!   ([`functional_forward`](crate::functional_forward)), quantised
//!   operands through wide accumulators and Approx-LUT images;
//! * **RTL** — the generated, linted Verilog blocks executed on the
//!   compiled RTL engine (`deepburning_verilog::CompiledSim`).
//!
//! This module runs one input through all three views layer by layer and
//! cross-checks them under per-view-pair tolerance rules:
//!
//! * Functional ↔ RTL must agree **bit-exactly**: both claim to be the
//!   datapath, so a single differing raw word is a generator bug.
//! * Tensor ↔ Functional must agree within a **derived error bound**
//!   propagated through the layer graph from the [`QFormat`] resolution
//!   and each table's [`ApproxLut::max_error`] — quantisation is allowed
//!   to drift, but only as far as arithmetic says it can.
//!
//! The RTL view drives the same block generators the RTL assembler
//! instantiates (synergy neurons, pooling units, Approx-LUT interpolators,
//! LRN units, K-sorters, connection boxes, buffers), compiled after a
//! structural lint. Because the wide accumulator is order-insensitive,
//! the lane count is capped so every bus fits the 64-bit signal limit of
//! hierarchy flattening; large layers are checked at a
//! deterministic sample of output positions (the harness marshals data
//! between blocks exactly as the coordinator/AGUs would).

use crate::counters::{verify_counters, CounterCheck};
use crate::functional::{eval_fx_layer, fx, layer_weights, FunctionalError, FxBlob, QuantWeights};
use crate::timing::{CounterSet, TimingParams};
use deepburning_compiler::LutImages;
use deepburning_components::{
    ApproxLutBlock, Block, BufferBlock, ConnectionBox, KSorter, LrnUnit, PoolingUnit, SynergyNeuron,
};
use deepburning_core::AcceleratorDesign;
use deepburning_fixed::{ApproxLut, Fx, QFormat};
use deepburning_lint::{analyze_ranges, AnalysisReport, LayerNorms, RangeProof, WeightNorms};
use deepburning_model::{Activation, Layer, LayerKind, Network, PoolMethod};
use deepburning_tensor::{cmac_index, eval_layer, LayerWeights, Tensor, WeightSet};
use deepburning_trace as trace;
use deepburning_trace::json::Json;
use deepburning_verilog::{lint_design, CompiledSim, Design, SignalId, SimulateError, Simulator};
use std::collections::BTreeMap;
use std::fmt;

/// One of the four execution views.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// The `f32` software reference.
    Tensor,
    /// The bit-true fixed-point simulator.
    Functional,
    /// The generated RTL on the compiled RTL engine.
    Rtl,
    /// The analytic timing model (performance-counter comparisons).
    Timing,
    /// The full-network RTL run: the control-only top executes every
    /// phase in one continuous simulation, with activations marshalled
    /// through the real `input`/`spill`/`output` DRAM segments at the
    /// addresses the coordinator/AGU fabric emits.
    FullRtl,
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            View::Tensor => "tensor",
            View::Functional => "functional",
            View::Rtl => "rtl",
            View::Timing => "timing",
            View::FullRtl => "full-rtl",
        })
    }
}

/// A single element where two views disagree beyond their tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Layer where the views first part ways.
    pub layer: String,
    /// Layer kind tag (for the report).
    pub kind: String,
    /// The two views compared (lhs is the more-reference-like view).
    pub views: (View, View),
    /// Flat element index within the layer's output blob.
    pub index: usize,
    /// Value in the first view.
    pub lhs: f64,
    /// Value in the second view.
    pub rhs: f64,
    /// Allowed tolerance (0 for the bit-exact pair).
    pub tolerance: f64,
    /// Human-readable context.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}) [{}]: {} {} vs {} {} (tol {:.3e}) {}",
            self.layer,
            self.kind,
            self.index,
            self.views.0,
            self.lhs,
            self.views.1,
            self.rhs,
            self.tolerance,
            self.detail
        )
    }
}

/// Per-layer audit of what was compared and how tight it was.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerAudit {
    /// Layer name.
    pub layer: String,
    /// Layer kind tag.
    pub kind: String,
    /// Output elements checked functional↔RTL (bit-exact).
    pub rtl_checked: usize,
    /// Output elements checked tensor↔functional (bounded).
    pub ref_checked: usize,
    /// Elements skipped in the bounded comparison (saturated values,
    /// index-discretisation artifacts, poisoned upstream).
    pub ref_skipped: usize,
    /// The derived tensor↔functional bound (worst element bound for
    /// per-element rules).
    pub tolerance: f64,
    /// Largest tensor↔functional error actually observed.
    pub max_ref_error: f64,
    /// Why the bounded comparison was skipped wholesale, if it was.
    pub skip_reason: Option<&'static str>,
    /// The static range analysis chain-proved this layer free of
    /// saturation, so the bounded comparison drops its dynamic
    /// near-the-rail skip guard and audits every element.
    pub range_proven: bool,
}

/// RTL engine work attributed to one RTL block of the bank — makes the
/// diffcheck hotspot visible (settle passes over continuous assigns
/// dominate the wall time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtlModuleStats {
    /// Block tag (`neuron`, `pool_max`, `lut:sigmoid`, …).
    pub module: String,
    /// Clock edges driven into the block.
    pub clock_edges: u64,
    /// Settle passes run over the block's continuous assigns.
    pub settle_passes: u64,
    /// Expression evaluations (assign re-evaluations + NBA commits).
    pub evals: u64,
}

/// The outcome of a three-view differential run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Network name.
    pub network: String,
    /// Budget tag if the run came from a generated design (`DB`, …).
    pub budget: String,
    /// Per-layer audits, in execution order.
    pub layers: Vec<LayerAudit>,
    /// Every divergence found (capped per layer; see audits for counts).
    pub divergences: Vec<Divergence>,
    /// Per-RTL-block engine work, descending by evaluation count.
    pub rtl_modules: Vec<RtlModuleStats>,
    /// The fourth-view counter cross-check (populated by [`diff_design`];
    /// `None` for plain [`diff_network`] runs, which have no generated
    /// `perf_counters` block to read).
    pub counters: Option<CounterCheck>,
    /// Per-layer static range proofs from the analyzer (what justified
    /// each audit's `range_proven` flag).
    pub range_proofs: Vec<RangeProof>,
    /// The full static-analysis report (populated by [`diff_design`],
    /// which has the compiled artifacts and netlist the passes need;
    /// `None` for plain [`diff_network`] runs). Divergence bundles carry
    /// it so a failing run ships its lint context alongside waveforms.
    pub lint: Option<AnalysisReport>,
    /// The fifth-view full-network RTL run (populated by [`diff_design`]
    /// when [`DiffOptions::full_rtl`] is set): the coordinator FSM and
    /// AGU programs drive one continuous simulation across every layer,
    /// with activations flowing through the real `input`/`spill` memory
    /// segments instead of per-layer re-marshalling.
    pub full_run: Option<crate::fullrun::FullRunReport>,
}

impl DiffReport {
    /// True when no view pair diverged anywhere.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// The first diverging layer/element, if any.
    pub fn first_divergence(&self) -> Option<&Divergence> {
        self.divergences.first()
    }

    /// Total elements checked bit-exactly against the RTL.
    pub fn rtl_checked(&self) -> usize {
        self.layers.iter().map(|l| l.rtl_checked).sum()
    }

    /// Layers whose bounded tensor↔functional comparison checked nothing
    /// at all — every element was skipped. These are the audit's blind
    /// spots; the static range analysis exists to shrink this list.
    pub fn skip_audited(&self) -> Vec<&LayerAudit> {
        self.layers
            .iter()
            .filter(|l| l.ref_checked == 0 && l.ref_skipped > 0)
            .collect()
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "differential report: {}{}{}",
            self.network,
            if self.budget.is_empty() { "" } else { " @ " },
            self.budget
        )?;
        for l in &self.layers {
            writeln!(
                f,
                "  {:<12} {:<12} rtl {:>5} exact | ref {:>5} cmp {:>4} skip | err {:.3e} <= tol {:.3e}{}",
                l.layer,
                l.kind,
                l.rtl_checked,
                l.ref_checked,
                l.ref_skipped,
                l.max_ref_error,
                l.tolerance,
                match (l.range_proven, l.skip_reason) {
                    (true, _) => " [range-proven]".to_string(),
                    (false, Some(r)) => format!(" ({r})"),
                    (false, None) => String::new(),
                }
            )?;
        }
        let blind = self.skip_audited();
        if !blind.is_empty() {
            writeln!(
                f,
                "  {} layers skip-audited ({})",
                blind.len(),
                blind
                    .iter()
                    .map(|l| format!(
                        "{}: {}",
                        l.layer,
                        l.skip_reason.unwrap_or("all elements near saturation")
                    ))
                    .collect::<Vec<_>>()
                    .join("; ")
            )?;
        }
        if self.divergences.is_empty() {
            writeln!(f, "  no divergences")?;
        }
        for d in &self.divergences {
            writeln!(f, "  DIVERGED: {d}")?;
        }
        if !self.rtl_modules.is_empty() {
            writeln!(f, "  rtl interpreter work:")?;
            for m in &self.rtl_modules {
                writeln!(
                    f,
                    "    {:<16} {:>8} edges {:>9} settles {:>12} evals",
                    m.module, m.clock_edges, m.settle_passes, m.evals
                )?;
            }
        }
        if let Some(c) = &self.counters {
            writeln!(
                f,
                "  perf counters: {} | cycles rtl {} vs analytic {} (slack {}) | macs {} reads {} writes {} bursts {}",
                if c.is_clean() { "clean" } else { "DIVERGED" },
                c.rtl.cycles,
                c.analytic.cycles,
                c.cycle_slack,
                c.rtl.mac_ops,
                c.rtl.buffer_reads,
                c.rtl.buffer_writes,
                c.rtl.agu_bursts,
            )?;
        }
        if let Some(lint) = &self.lint {
            let errors = lint.count_at(deepburning_lint::Severity::Error);
            let warnings = lint.count_at(deepburning_lint::Severity::Warning) - errors;
            writeln!(
                f,
                "  static analysis: {} error(s) {} warning(s) | {} range proofs",
                errors,
                warnings,
                lint.proofs.len()
            )?;
        }
        Ok(())
    }
}

/// Error raised while setting up or executing a differential run.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffError {
    /// The fixed-point simulator failed.
    Functional(FunctionalError),
    /// The `f32` reference failed.
    Reference(String),
    /// Elaborating or stepping block RTL failed.
    Rtl(String),
    /// A block failed the structural lint before interpretation.
    Lint(String),
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::Functional(e) => write!(f, "functional view: {e}"),
            DiffError::Reference(m) => write!(f, "tensor view: {m}"),
            DiffError::Rtl(m) => write!(f, "rtl view: {m}"),
            DiffError::Lint(m) => write!(f, "rtl lint: {m}"),
        }
    }
}

impl std::error::Error for DiffError {}

impl From<FunctionalError> for DiffError {
    fn from(e: FunctionalError) -> Self {
        DiffError::Functional(e)
    }
}

impl From<SimulateError> for DiffError {
    fn from(e: SimulateError) -> Self {
        DiffError::Rtl(e.message)
    }
}

/// Knobs for a differential run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffOptions {
    /// Maximum output positions per layer executed through the RTL view
    /// (positions are spread deterministically across the blob; layers at
    /// or under the cap are checked exhaustively).
    pub max_rtl_samples: usize,
    /// Cap on probes used for [`ApproxLut::max_error`] when deriving
    /// activation-table bounds.
    pub lut_error_probes: usize,
    /// Testing hook: flip the LSB of every RTL readback for the layer at
    /// this index in execution order, forcing a functional↔RTL divergence
    /// (exercises the divergence-artifact path end to end).
    pub inject_rtl_fault: Option<usize>,
    /// Per-phase beat cap for the performance-counter replay run by
    /// [`diff_design`] (see [`verify_counters`]). Larger caps tighten the
    /// cycle-counter slack at simulation cost.
    pub counter_beat_cap: u64,
    /// Run the fifth view: the full-network RTL execution
    /// ([`crate::full_network_run`]) that chains the coordinator and AGU
    /// programs across every layer in one continuous simulation and
    /// cross-checks it against the chained per-layer views bit-exactly.
    /// Off by default — it simulates the whole network a second time.
    pub full_rtl: bool,
    /// Enable the engine hot-spot profiler on the full-network run
    /// (requires `full_rtl`): per-level/per-opcode attribution comes
    /// back as [`crate::FullRunReport::profile`]. The counting engine
    /// loop is only entered when enabled, so this is free when off.
    pub profile: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            max_rtl_samples: 96,
            lut_error_probes: 1024,
            inject_rtl_fault: None,
            counter_beat_cap: crate::counters::DEFAULT_BEAT_CAP,
            full_rtl: false,
            profile: false,
        }
    }
}

/// Deterministic spread of up to `cap` indices over `0..n`.
fn sample_indices(n: usize, cap: usize) -> Vec<usize> {
    if n <= cap {
        (0..n).collect()
    } else {
        (0..cap).map(|i| i * n / cap).collect()
    }
}

pub(crate) fn kind_tag(kind: &LayerKind) -> &'static str {
    match kind {
        LayerKind::Input { .. } => "input",
        LayerKind::Convolution(_) => "conv",
        LayerKind::Pooling(_) => "pool",
        LayerKind::FullConnection(_) => "fc",
        LayerKind::Activation(_) => "act",
        LayerKind::Lrn(_) => "lrn",
        LayerKind::Dropout { .. } => "dropout",
        LayerKind::Memory { .. } => "memory",
        LayerKind::Recurrent { .. } => "recurrent",
        LayerKind::Associative { .. } => "assoc",
        LayerKind::Classifier { .. } => "classifier",
        LayerKind::Inception(_) => "inception",
        LayerKind::Concat => "concat",
        LayerKind::Eltwise => "eltwise",
    }
}

// ---------------------------------------------------------------------------
// The RTL view: generated blocks on the compiled RTL engine.
// ---------------------------------------------------------------------------

/// The streaming pooling units' ports, in [`BlockSim`] order.
const POOL_PORTS: [&str; 4] = ["en", "clear", "din", "dout"];

/// A bank of elaborated block RTL shared across layers of one run.
///
/// Every module is linted before elaboration; interpretation then *is* the
/// execution of the generated design's arithmetic, with the harness doing
/// the data marshalling the AGUs/coordinator perform in hardware.
struct RtlBank {
    fmt: QFormat,
    w: u32,
    mask: u64,
    lanes: u32,
    neuron: BlockSim<5>,
    relu: BlockSim<2>,
    pool_max: BlockSim<4>,
    pool_avg: BlockSim<4>,
    cbox: BlockSim<4>,
    sorter_inputs: u32,
    sorter: BlockSim<2>,
    /// Approx-LUT interpolators keyed by image tag (`sigmoid`, `tanh`,
    /// `lrn:<layer>`).
    act_luts: BTreeMap<String, BlockSim<2>>,
    /// LRN units keyed by layer name.
    lrn_units: BTreeMap<String, BlockSim<5>>,
    /// Associative tables keyed by layer name.
    assoc_tables: BTreeMap<String, BlockSim<2>>,
    /// When set, every simulator (including lazily elaborated ones)
    /// records a VCD waveform.
    vcd_enabled: bool,
}

/// One elaborated block and the ports its harness drives and reads,
/// resolved once so the per-beat pokes skip the name lookup.
struct BlockSim<const N: usize> {
    sim: CompiledSim,
    ports: [SignalId; N],
}

/// Lints and elaborates the design's top, resolving `ports` in order.
fn elaborate_block<const N: usize>(
    design: &Design,
    ports: [&str; N],
) -> Result<BlockSim<N>, DiffError> {
    let _span = trace::span("sim", "sim.rtl_elaborate");
    let top = &design.top;
    let lint = lint_design(design);
    if !lint.is_clean() {
        return Err(DiffError::Lint(format!("{top}: {lint}")));
    }
    let sim = CompiledSim::compile(design, top)?;
    let ids = ports
        .iter()
        .map(|p| sim.signal(p))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(BlockSim {
        ports: ids.try_into().expect("one id per port"),
        sim,
    })
}

impl RtlBank {
    fn new(fmt: QFormat, design_lanes: u32) -> Result<Self, DiffError> {
        let w = fmt.total_bits();
        // Bus widths must fit 64-bit simulated signals; the wide
        // accumulator makes the dot product independent of lane grouping,
        // so a narrower bank computes the identical raw stream.
        let lanes = design_lanes.clamp(1, (64 / w).max(1));
        let neuron = SynergyNeuron {
            width: w,
            frac_bits: fmt.frac_bits(),
            lanes,
        };
        let relu = deepburning_components::ActivationUnit { width: w };
        let pmax = PoolingUnit {
            width: w,
            method: PoolMethod::Max,
        };
        let pavg = PoolingUnit {
            width: w,
            method: PoolMethod::Average,
        };
        let cbox = ConnectionBox {
            width: w,
            inputs: 1,
            outputs: 1,
        };
        let sorter_inputs = (64 / w).max(2);
        let sorter = KSorter {
            width: w,
            inputs: sorter_inputs,
        };
        let mut bank = RtlBank {
            fmt,
            w,
            mask: if w >= 64 { u64::MAX } else { (1u64 << w) - 1 },
            lanes,
            neuron: elaborate_block(
                &Design::new(neuron.generate()),
                ["en", "clear", "din", "weight", "sum_out"],
            )?,
            relu: elaborate_block(&Design::new(relu.generate()), ["din", "dout"])?,
            pool_max: elaborate_block(&Design::new(pmax.generate()), POOL_PORTS)?,
            pool_avg: elaborate_block(&Design::new(pavg.generate()), POOL_PORTS)?,
            cbox: elaborate_block(
                &Design::new(cbox.generate()),
                ["din", "sel", "shift", "dout"],
            )?,
            sorter_inputs,
            sorter: elaborate_block(&Design::new(sorter.generate()), ["din", "idx_out"])?,
            act_luts: BTreeMap::new(),
            lrn_units: BTreeMap::new(),
            assoc_tables: BTreeMap::new(),
            vcd_enabled: false,
        };
        for sim in [
            &mut bank.neuron.sim,
            &mut bank.pool_max.sim,
            &mut bank.pool_avg.sim,
        ] {
            sim.poke("rst", 1)?;
            sim.clock()?;
            sim.poke("rst", 0)?;
            sim.poke("en", 0)?;
            sim.poke("clear", 0)?;
        }
        Ok(bank)
    }

    /// Every block simulator, tagged. Lazily elaborated blocks appear
    /// once created.
    fn modules_mut(&mut self) -> Vec<(String, &mut CompiledSim)> {
        let mut mods = vec![
            ("neuron".to_string(), &mut self.neuron.sim),
            ("relu".to_string(), &mut self.relu.sim),
            ("pool_max".to_string(), &mut self.pool_max.sim),
            ("pool_avg".to_string(), &mut self.pool_avg.sim),
            ("cbox".to_string(), &mut self.cbox.sim),
            ("sorter".to_string(), &mut self.sorter.sim),
        ];
        mods.extend(
            self.act_luts
                .iter_mut()
                .map(|(k, v)| (format!("lut:{k}"), &mut v.sim)),
        );
        mods.extend(
            self.lrn_units
                .iter_mut()
                .map(|(k, v)| (format!("lrn:{k}"), &mut v.sim)),
        );
        mods.extend(
            self.assoc_tables
                .iter_mut()
                .map(|(k, v)| (format!("assoc:{k}"), &mut v.sim)),
        );
        mods
    }

    /// Turns on VCD recording for every block (existing and future).
    fn enable_vcd(&mut self) {
        self.vcd_enabled = true;
        for (name, sim) in self.modules_mut() {
            sim.vcd_begin(&name.replace(':', "_"));
        }
    }

    /// Ends recording and returns `(tag, vcd text)` for every block that
    /// was actually exercised (more than the initial dump).
    fn collect_vcds(&mut self) -> Vec<(String, String)> {
        self.modules_mut()
            .into_iter()
            .filter_map(|(name, sim)| {
                let exercised = sim.vcd_timesteps() > 1;
                sim.vcd_end().filter(|_| exercised).map(|text| (name, text))
            })
            .collect()
    }

    /// RTL engine work per block, descending by evaluation count; idle
    /// blocks are omitted.
    fn module_stats(&mut self) -> Vec<RtlModuleStats> {
        let mut out: Vec<RtlModuleStats> = self
            .modules_mut()
            .into_iter()
            .map(|(module, sim)| {
                let s = sim.stats();
                RtlModuleStats {
                    module,
                    clock_edges: s.clock_edges,
                    settle_passes: s.settle_passes,
                    evals: s.evals(),
                }
            })
            .filter(|m| m.evals > 0)
            .collect();
        out.sort_by_key(|m| std::cmp::Reverse(m.evals));
        out
    }

    fn to_fx(&self, bus: u64) -> Fx {
        let raw = bus & self.mask;
        let signed = if self.w < 64 && raw >> (self.w - 1) & 1 == 1 {
            raw as i64 - (1i64 << self.w)
        } else {
            raw as i64
        };
        Fx::from_raw(signed, self.fmt)
    }

    /// Streams `(feature, weight)` pairs through the synergy-neuron bank
    /// and returns the resolved, saturated dot product.
    fn dot(&mut self, pairs: &[(Fx, Fx)]) -> Result<Fx, DiffError> {
        let BlockSim { sim, ports } = &mut self.neuron;
        let [en, clear, din, weight, sum_out] = *ports;
        sim.set(en, 0)?;
        sim.set(clear, 1)?;
        sim.clock()?;
        sim.set(clear, 0)?;
        sim.set(en, 1)?;
        for beat in pairs.chunks(self.lanes as usize) {
            let mut fbus = 0u64;
            let mut wbus = 0u64;
            for (lane, (fv, wv)) in beat.iter().enumerate() {
                fbus |= (fv.raw() as u64 & self.mask) << (lane as u32 * self.w);
                wbus |= (wv.raw() as u64 & self.mask) << (lane as u32 * self.w);
            }
            sim.set(din, fbus)?;
            sim.set(weight, wbus)?;
            sim.clock()?;
        }
        sim.set(en, 0)?;
        let out = sim.get(sum_out);
        Ok(self.to_fx(out))
    }

    /// Fixed-point saturating add through a two-beat neuron pass
    /// (`a*1 + b*1`), mirroring the eltwise merge.
    fn add(&mut self, a: Fx, b: Fx) -> Result<Fx, DiffError> {
        let one = Fx::one(self.fmt);
        self.dot(&[(a, one), (b, one)])
    }

    fn relu_eval(&mut self, x: Fx) -> Result<Fx, DiffError> {
        let BlockSim { sim, ports } = &mut self.relu;
        let [din, dout] = *ports;
        sim.set(din, x.raw() as u64 & self.mask)?;
        let out = sim.get(dout);
        sim.vcd_sample_now();
        Ok(self.to_fx(out))
    }

    /// Reduces a window through the streaming pooling unit. For `Max` the
    /// result is the pooled value; for `Average` it is the saturated sum
    /// (division happens downstream, as in hardware).
    fn pool_reduce(&mut self, method: PoolMethod, window: &[Fx]) -> Result<Fx, DiffError> {
        let mask = self.mask;
        let BlockSim { sim, ports } = match method {
            PoolMethod::Max => &mut self.pool_max,
            PoolMethod::Average => &mut self.pool_avg,
        };
        let [en, clear, din, dout] = *ports;
        sim.set(en, 0)?;
        sim.set(clear, 1)?;
        sim.clock()?;
        sim.set(clear, 0)?;
        sim.set(en, 1)?;
        for v in window {
            sim.set(din, v.raw() as u64 & mask)?;
            sim.clock()?;
        }
        sim.set(en, 0)?;
        let out = sim.get(dout);
        Ok(self.to_fx(out))
    }

    /// Arithmetic right shift through the connection box's shifting latch
    /// (the power-of-two average divider).
    fn shift_div(&mut self, x: Fx, shift: u32) -> Result<Fx, DiffError> {
        debug_assert!(shift < 16, "shift field is 4 bits");
        let BlockSim { sim, ports } = &mut self.cbox;
        let [din, sel, shift_by, dout] = *ports;
        sim.set(din, x.raw() as u64 & self.mask)?;
        sim.set(sel, 0)?;
        sim.set(shift_by, u64::from(shift))?;
        sim.clock()?;
        let out = sim.get(dout);
        Ok(self.to_fx(out))
    }

    /// Evaluates an Approx-LUT image through the generated interpolator.
    fn lut_eval(&mut self, tag: &str, image: &ApproxLut, x: Fx) -> Result<Fx, DiffError> {
        if !self.act_luts.contains_key(tag) {
            let block = ApproxLutBlock::new(self.w, image.clone());
            let mut lut = elaborate_block(&Design::new(block.generate()), ["din", "dout"])?;
            let (keys, vals) = block.rom_words();
            lut.sim.load_memory("key_rom", &keys)?;
            lut.sim.load_memory("val_rom", &vals)?;
            if self.vcd_enabled {
                lut.sim.vcd_begin(&format!("lut_{tag}").replace(':', "_"));
            }
            self.act_luts.insert(tag.to_string(), lut);
        }
        let BlockSim { sim, ports } = self.act_luts.get_mut(tag).expect("just inserted");
        let [din, dout] = *ports;
        sim.set(din, x.raw() as u64 & self.mask)?;
        let out = sim.get(dout);
        sim.vcd_sample_now();
        Ok(self.to_fx(out))
    }

    /// Runs the LRN unit: stream the squared-energy window, then present
    /// the centre value and read the normalised output.
    fn lrn_eval(
        &mut self,
        layer: &str,
        image: &ApproxLut,
        local_size: usize,
        centre: Fx,
        window: &[Fx],
    ) -> Result<Fx, DiffError> {
        if !self.lrn_units.contains_key(layer) {
            let unit = LrnUnit {
                width: self.w,
                local_size,
                factor_lut: image.clone(),
            };
            let lut_block = ApproxLutBlock::new(self.w, image.clone());
            let mut d = Design::new(unit.generate());
            d.add_module(lut_block.generate());
            let mut lrn = elaborate_block(&d, ["rst", "en", "din", "centre", "dout"])?;
            let (keys, vals) = lut_block.rom_words();
            lrn.sim.load_memory("u_factor_lut.key_rom", &keys)?;
            lrn.sim.load_memory("u_factor_lut.val_rom", &vals)?;
            if self.vcd_enabled {
                lrn.sim.vcd_begin("lrn_unit");
            }
            self.lrn_units.insert(layer.to_string(), lrn);
        }
        let BlockSim { sim, ports } = self.lrn_units.get_mut(layer).expect("just inserted");
        let [rst, en, din, centre_in, dout] = *ports;
        sim.set(rst, 1)?;
        sim.clock()?;
        sim.set(rst, 0)?;
        sim.set(en, 1)?;
        for v in window {
            sim.set(din, v.raw() as u64 & self.mask)?;
            sim.clock()?;
        }
        sim.set(en, 0)?;
        sim.set(centre_in, centre.raw() as u64 & self.mask)?;
        let out = sim.get(dout);
        sim.vcd_sample_now();
        Ok(self.to_fx(out))
    }

    /// Reads one word of an associative table through buffer RTL.
    fn assoc_lookup(&mut self, layer: &str, table: &[Fx], index: usize) -> Result<Fx, DiffError> {
        if !self.assoc_tables.contains_key(layer) {
            let block = BufferBlock {
                width: self.w,
                depth: table.len().max(2),
            };
            let mut table_rtl =
                elaborate_block(&Design::new(block.generate()), ["raddr", "rdata"])?;
            let sim = &mut table_rtl.sim;
            let words: Vec<u64> = table.iter().map(|v| v.raw() as u64 & self.mask).collect();
            sim.load_memory("mem", &words)?;
            sim.poke("we", 0)?;
            sim.poke("waddr", 0)?;
            sim.poke("wdata", 0)?;
            if self.vcd_enabled {
                sim.vcd_begin("assoc_table");
            }
            self.assoc_tables.insert(layer.to_string(), table_rtl);
        }
        let BlockSim { sim, ports } = self.assoc_tables.get_mut(layer).expect("just inserted");
        let [raddr, rdata] = *ports;
        sim.set(raddr, index as u64)?;
        sim.clock()?;
        let out = sim.get(rdata);
        Ok(self.to_fx(out))
    }

    /// Argmax over `(global index, raw)` candidates via a K-sorter
    /// tournament; strict comparisons keep the earliest index on ties.
    fn argmax(&mut self, values: &[(usize, i64)]) -> Result<usize, DiffError> {
        assert!(!values.is_empty(), "argmax of empty candidate set");
        let mut cands: Vec<(usize, i64)> = values.to_vec();
        while cands.len() > 1 {
            let mut next = Vec::with_capacity(cands.len().div_ceil(self.sorter_inputs as usize));
            for chunk in cands.chunks(self.sorter_inputs as usize) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                    continue;
                }
                let mut bus = 0u64;
                for (slot, v) in (0..self.sorter_inputs as usize)
                    // Pad slots repeat the first element: a strict compare
                    // can never pick the duplicate over the original.
                    .map(|i| chunk.get(i).unwrap_or(&chunk[0]))
                    .enumerate()
                {
                    bus |= (v.1 as u64 & self.mask) << (slot as u32 * self.w);
                }
                let BlockSim { sim, ports } = &mut self.sorter;
                let [din, idx_out] = *ports;
                sim.set(din, bus)?;
                let local = sim.get(idx_out) as usize;
                sim.vcd_sample_now();
                next.push(chunk[local.min(chunk.len() - 1)]);
            }
            cands = next;
        }
        Ok(cands[0].0)
    }

    /// Top-k indices, repeating the selection network and withdrawing each
    /// winner — the scheduled classifier.
    fn topk(&mut self, raws: &[i64], k: usize) -> Result<Vec<usize>, DiffError> {
        let mut cands: Vec<(usize, i64)> = raws.iter().copied().enumerate().collect();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k.min(cands.len()) {
            let win = self.argmax(&cands)?;
            out.push(win);
            cands.retain(|(i, _)| *i != win);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Per-layer RTL execution.
// ---------------------------------------------------------------------------

/// Executes `layer` through block RTL at sampled output positions and
/// compares bit-exactly against the functional output. Returns the number
/// of positions checked; divergences are appended to `divs`.
#[allow(clippy::too_many_arguments)]
fn rtl_check_layer(
    bank: &mut RtlBank,
    layer: &Layer,
    bottoms: &[&FxBlob],
    fx_out: &FxBlob,
    lw: Option<&LayerWeights>,
    qw: Option<&QuantWeights>,
    luts: &LutImages,
    opts: &DiffOptions,
    inject_fault: bool,
    divs: &mut Vec<Divergence>,
) -> Result<usize, DiffError> {
    let fmt = bank.fmt;
    let one = Fx::one(fmt);
    let cap = opts.max_rtl_samples.max(1);
    let mut checked = 0usize;
    let mut mismatches = 0usize;
    let mut check = |idx: usize, got: Fx, want: Fx, divs: &mut Vec<Divergence>| {
        // The fault-injection hook corrupts the RTL readback's LSB so the
        // divergence-artifact machinery can be exercised on demand.
        let got = if inject_fault {
            Fx::from_raw(got.raw() ^ 1, fmt)
        } else {
            got
        };
        checked += 1;
        if got.raw() != want.raw() {
            mismatches += 1;
            if mismatches <= 4 {
                divs.push(Divergence {
                    layer: layer.name.clone(),
                    kind: kind_tag(&layer.kind).to_string(),
                    views: (View::Functional, View::Rtl),
                    index: idx,
                    lhs: want.to_f64(),
                    rhs: got.to_f64(),
                    tolerance: 0.0,
                    detail: format!("raw {:#x} vs {:#x}", want.raw(), got.raw()),
                });
            }
        }
    };
    let missing = || {
        DiffError::Functional(FunctionalError {
            layer: layer.name.clone(),
            detail: "weights missing".into(),
        })
    };
    let quantised = || qw.ok_or_else(missing);
    match &layer.kind {
        // Pure data movement: nothing to execute.
        LayerKind::Input { .. }
        | LayerKind::Concat
        | LayerKind::Dropout { .. }
        | LayerKind::Memory { .. } => {}
        LayerKind::Activation(Activation::Identity) => {}
        LayerKind::Convolution(p) => {
            let src = bottoms[0];
            let QuantWeights { w, b } = quantised()?;
            let cig = src.shape.channels / p.group;
            let cog = p.num_output / p.group;
            let (oh, ow) = (fx_out.shape.height, fx_out.shape.width);
            for idx in sample_indices(fx_out.data.len(), cap) {
                let co = idx / (oh * ow);
                let oy = idx / ow % oh;
                let ox = idx % ow;
                let g = co / cog;
                let mut pairs = Vec::with_capacity(cig * p.kernel_size * p.kernel_size + 1);
                if let Some(&bias) = b.get(co) {
                    pairs.push((fx(bias, fmt), one));
                }
                for icg in 0..cig {
                    let ic = g * cig + icg;
                    for ky in 0..p.kernel_size {
                        for kx in 0..p.kernel_size {
                            let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                            let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                            let wv =
                                w[((co * cig + icg) * p.kernel_size + ky) * p.kernel_size + kx];
                            pairs.push((src.get_padded(fmt, ic, iy, ix), fx(wv, fmt)));
                        }
                    }
                }
                let got = bank.dot(&pairs)?;
                check(idx, got, fx_out.data[idx], divs);
            }
        }
        LayerKind::FullConnection(p) => {
            let src = bottoms[0];
            let lw = lw.ok_or_else(missing)?;
            let n = src.data.len();
            // Quantise only the sampled rows: materialising the full
            // matrix costs more than every sampled dot product combined
            // on the large FC layers (see `layer_weights`).
            for o in sample_indices(p.num_output, cap) {
                let mut pairs = Vec::with_capacity(n + 1);
                if let Some(bias) = lw.b.get(o) {
                    pairs.push((Fx::from_f64(f64::from(*bias), fmt), one));
                }
                for (x, wv) in src.data.iter().zip(&lw.w[o * n..(o + 1) * n]) {
                    pairs.push((*x, Fx::from_f64(f64::from(*wv), fmt)));
                }
                let got = bank.dot(&pairs)?;
                check(o, got, fx_out.data[o], divs);
            }
        }
        LayerKind::Activation(a) => {
            let src = bottoms[0];
            for idx in sample_indices(fx_out.data.len(), cap) {
                let x = src.data[idx];
                let got = match a {
                    Activation::Relu => bank.relu_eval(x)?,
                    Activation::Sigmoid => {
                        let image = luts.get("sigmoid").expect("checked by functional view");
                        bank.lut_eval("sigmoid", image, x)?
                    }
                    Activation::Tanh => {
                        let image = luts.get("tanh").expect("checked by functional view");
                        bank.lut_eval("tanh", image, x)?
                    }
                    Activation::Identity => unreachable!("identity handled above"),
                };
                check(idx, got, fx_out.data[idx], divs);
            }
        }
        LayerKind::Pooling(p) => {
            let src = bottoms[0];
            let (oh, ow) = (fx_out.shape.height, fx_out.shape.width);
            let window = p.kernel_size * p.kernel_size;
            let recip = Fx::from_f64(1.0 / window as f64, fmt);
            for idx in sample_indices(fx_out.data.len(), cap) {
                let c = idx / (oh * ow);
                let oy = idx / ow % oh;
                let ox = idx % ow;
                let mut vals = Vec::with_capacity(window);
                for ky in 0..p.kernel_size {
                    for kx in 0..p.kernel_size {
                        vals.push(src.get(c, oy * p.stride + ky, ox * p.stride + kx));
                    }
                }
                let reduced = bank.pool_reduce(p.method, &vals)?;
                let got = match p.method {
                    PoolMethod::Max => reduced,
                    PoolMethod::Average => {
                        if window.is_power_of_two() {
                            bank.shift_div(reduced, window.trailing_zeros())?
                        } else {
                            // Reciprocal multiply on a single neuron lane.
                            bank.dot(&[(reduced, recip)])?
                        }
                    }
                };
                check(idx, got, fx_out.data[idx], divs);
            }
        }
        LayerKind::Lrn(p) => {
            let src = bottoms[0];
            let image = luts
                .get(&format!("lrn:{}", layer.name))
                .expect("checked by functional view");
            let s = src.shape;
            let half = p.local_size / 2;
            for idx in sample_indices(fx_out.data.len(), cap) {
                let c = idx / (s.height * s.width);
                let y = idx / s.width % s.height;
                let x = idx % s.width;
                let lo = c.saturating_sub(half);
                let hi = (c + half).min(s.channels - 1);
                let window: Vec<Fx> = (lo..=hi).map(|cc| src.get(cc, y, x)).collect();
                let got =
                    bank.lrn_eval(&layer.name, image, p.local_size, src.get(c, y, x), &window)?;
                check(idx, got, fx_out.data[idx], divs);
            }
        }
        LayerKind::Recurrent { num_output, steps } => {
            let src = bottoms[0];
            let QuantWeights { w, b } = quantised()?;
            let tanh = luts.get("tanh").expect("checked by functional view");
            let n_in = src.data.len();
            let mut h = vec![Fx::zero(fmt); *num_output];
            for _ in 0..(*steps).max(1) {
                let mut next = vec![Fx::zero(fmt); *num_output];
                for (o, slot) in next.iter_mut().enumerate() {
                    let row = &w[o * (n_in + num_output)..(o + 1) * (n_in + num_output)];
                    let mut pairs = Vec::with_capacity(n_in + num_output + 1);
                    if let Some(&bias) = b.get(o) {
                        pairs.push((fx(bias, fmt), one));
                    }
                    for (x, &wv) in src.data.iter().zip(&row[..n_in]) {
                        pairs.push((*x, fx(wv, fmt)));
                    }
                    for (hv, &wv) in h.iter().zip(&row[n_in..]) {
                        pairs.push((*hv, fx(wv, fmt)));
                    }
                    let s = bank.dot(&pairs)?;
                    *slot = bank.lut_eval("tanh", tanh, s)?;
                }
                h = next;
            }
            for (o, v) in h.iter().enumerate() {
                check(o, *v, fx_out.data[o], divs);
            }
        }
        LayerKind::Associative {
            table_size,
            active_cells,
        } => {
            let src = bottoms[0];
            let table: Vec<Fx> = quantised()?.w.iter().map(|&v| fx(v, fmt)).collect();
            let x: Vec<f32> = src.data.iter().map(|v| v.to_f64() as f32).collect();
            for slot in 0..*active_cells {
                let idx = cmac_index(&x, slot, *active_cells, *table_size);
                let got = bank.assoc_lookup(&layer.name, &table, idx)?;
                check(slot, got, fx_out.data[slot], divs);
            }
        }
        LayerKind::Classifier { top_k } => {
            let raws: Vec<i64> = bottoms[0].data.iter().map(|v| v.raw()).collect();
            let winners = bank.topk(&raws, *top_k)?;
            for (i, win) in winners.iter().enumerate() {
                let got = Fx::from_f64(*win as f64, fmt);
                check(i, got, fx_out.data[i], divs);
            }
        }
        LayerKind::Inception(p) => {
            let src = bottoms[0];
            let ci = src.shape.channels;
            let QuantWeights { w, b } = quantised()?;
            let w1_end = p.c1x1 * ci;
            let w3_end = w1_end + p.c3x3 * ci * 9;
            let w5_end = w3_end + p.c5x5 * ci * 25;
            let (h, wd) = (src.shape.height, src.shape.width);
            for idx in sample_indices(fx_out.data.len(), cap) {
                let co = idx / (h * wd);
                let y = idx / wd % h;
                let x = idx % wd;
                // Which branch owns this output channel?
                let (kernel, pad, local_co, wofs, bofs, pooled) = if co < p.c1x1 {
                    (1usize, 0usize, co, 0usize, 0usize, false)
                } else if co < p.c1x1 + p.c3x3 {
                    (3, 1, co - p.c1x1, w1_end, p.c1x1, false)
                } else if co < p.c1x1 + p.c3x3 + p.c5x5 {
                    (5, 2, co - p.c1x1 - p.c3x3, w3_end, p.c1x1 + p.c3x3, false)
                } else {
                    (
                        1,
                        0,
                        co - p.c1x1 - p.c3x3 - p.c5x5,
                        w5_end,
                        p.c1x1 + p.c3x3 + p.c5x5,
                        true,
                    )
                };
                let mut pairs = Vec::with_capacity(ci * kernel * kernel + 1);
                if let Some(&bias) = b.get(bofs + local_co) {
                    pairs.push((fx(bias, fmt), one));
                }
                for ic in 0..ci {
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let iy = (y + ky) as isize - pad as isize;
                            let ix = (x + kx) as isize - pad as isize;
                            let wv = w[wofs + ((local_co * ci + ic) * kernel + ky) * kernel + kx];
                            let xv = if pooled {
                                // Pool branch: clamped 3x3 max around the
                                // position, reduced through pooling RTL.
                                let mut vals = Vec::with_capacity(9);
                                for dy in -1isize..=1 {
                                    for dx in -1isize..=1 {
                                        let yy = y as isize + dy;
                                        let xx = x as isize + dx;
                                        if yy >= 0
                                            && xx >= 0
                                            && (yy as usize) < h
                                            && (xx as usize) < wd
                                        {
                                            vals.push(src.get(ic, yy as usize, xx as usize));
                                        }
                                    }
                                }
                                bank.pool_reduce(PoolMethod::Max, &vals)?
                            } else {
                                src.get_padded(fmt, ic, iy, ix)
                            };
                            pairs.push((xv, fx(wv, fmt)));
                        }
                    }
                }
                let got = bank.dot(&pairs)?;
                check(idx, got, fx_out.data[idx], divs);
            }
        }
        LayerKind::Eltwise => {
            for idx in sample_indices(fx_out.data.len(), cap) {
                let mut acc = bottoms[0].data[idx];
                for bottom in &bottoms[1..] {
                    acc = bank.add(acc, bottom.data[idx])?;
                }
                check(idx, acc, fx_out.data[idx], divs);
            }
        }
    }
    Ok(checked)
}

// ---------------------------------------------------------------------------
// Tensor ↔ functional: derived error bounds.
// ---------------------------------------------------------------------------

fn absmax(t: &Tensor) -> f64 {
    t.as_slice()
        .iter()
        .map(|v| f64::from(v.abs()))
        .fold(0.0, f64::max)
}

/// The bound a MAC reduction adds: `terms` products of `|x| <= xmax`
/// against quantised weights, plus bias quantisation and readout
/// truncation.
///
/// Per product, `|ŵx̂ − wx| <= (|w| + q)·tol_in + |x|·q`. Summed over a
/// row, the weight-magnitude factor is the row's L1 norm, so the input
/// error amplifies by `min(w1, terms·wmax)` — `w1` (the worst per-row L1
/// norm) is never larger than `terms·wmax` and is drastically tighter
/// for layers whose weights are not all at the maximum. Callers without
/// the row layout pass `f64::INFINITY` to fall back to the per-term
/// product bound.
fn mac_bound(terms: usize, xmax: f64, wmax: f64, w1: f64, tol_in: f64, fmt: QFormat) -> f64 {
    let ulp = fmt.resolution();
    let q = ulp / 2.0;
    let gain = w1.min(terms as f64 * wmax);
    terms as f64 * (xmax + tol_in) * q + gain * tol_in + q + ulp
}

/// Largest absolute stored value of a LUT image — interpolation never
/// exceeds the endpoint samples, so this bounds the LUT output for *any*
/// input. `INFINITY` when the image is absent (no cap available).
fn lut_cap(luts: &LutImages, tag: &str) -> f64 {
    luts.get(tag)
        .map(|img| {
            img.values()
                .iter()
                .map(|v| v.to_f64().abs())
                .fold(0.0f64, f64::max)
        })
        .unwrap_or(f64::INFINITY)
}

/// How the tensor↔functional comparison treats a layer.
enum RefRule {
    /// Compare every element against a scalar bound.
    Scalar(f64),
    /// Compare with per-element bounds (f64::INFINITY skips the element).
    PerElement(Vec<f64>),
    /// Skip the whole layer and poison its tops (index-valued outputs).
    Skip(&'static str),
}

/// Derives the tensor↔functional bound for one layer from the format
/// resolution, the layer's fan-in/weight magnitudes (measured once per
/// diff in `norms`) and the Approx-LUT image errors.
#[allow(clippy::too_many_arguments)]
fn derive_ref_rule(
    layer: &Layer,
    ref_ins: &[&Tensor],
    ref_out: &Tensor,
    fx_ins: &[&FxBlob],
    norms: Option<&LayerNorms>,
    luts: &LutImages,
    fmt: QFormat,
    tol_in: f64,
    opts: &DiffOptions,
) -> RefRule {
    let ulp = fmt.resolution();
    let q = ulp / 2.0;
    let xmax = ref_ins.first().map(|t| absmax(t)).unwrap_or(0.0);
    let wmax = norms.map_or(0.0, LayerNorms::w_abs_max);
    // Worst raw per-row L1 norm; `INFINITY` falls back to the per-term
    // product bound.
    let w1 = norms.map_or(f64::INFINITY, LayerNorms::raw_row_l1);
    match &layer.kind {
        LayerKind::Input { .. } => RefRule::Scalar(q),
        LayerKind::Dropout { .. } | LayerKind::Memory { .. } => RefRule::Scalar(tol_in),
        LayerKind::Concat => RefRule::Scalar(tol_in),
        LayerKind::Eltwise => RefRule::Scalar(ref_ins.len() as f64 * tol_in),
        LayerKind::Convolution(p) => {
            let src = &ref_ins[0];
            let cig = src.shape().channels / p.group;
            let row = cig * p.kernel_size * p.kernel_size;
            RefRule::Scalar(mac_bound(row + 1, xmax, wmax, w1, tol_in, fmt))
        }
        LayerKind::FullConnection(_) => {
            let n = ref_ins[0].shape().elements();
            RefRule::Scalar(mac_bound(n + 1, xmax, wmax, w1, tol_in, fmt))
        }
        LayerKind::Inception(_) => {
            // The per-bank row layouts are heterogeneous, so `w1` is
            // unknown here: the per-term product bound applies.
            let ci = ref_ins[0].shape().channels;
            let terms = (ci * 25).max(ci * 9).max(ci) + 1;
            RefRule::Scalar(mac_bound(terms, xmax, wmax, w1, tol_in, fmt))
        }
        LayerKind::Pooling(p) => {
            let n = p.kernel_size * p.kernel_size;
            match p.method {
                PoolMethod::Max => RefRule::Scalar(tol_in),
                PoolMethod::Average => {
                    if n.is_power_of_two() {
                        RefRule::Scalar(tol_in + 2.0 * ulp)
                    } else {
                        // Quantised-reciprocal multiply: the sum magnitude
                        // scales the reciprocal's quantisation error.
                        let smax = (n as f64 * (xmax + tol_in)).min(fmt.max_value());
                        RefRule::Scalar(tol_in + smax * q + 2.0 * ulp)
                    }
                }
            }
        }
        LayerKind::Activation(a) => match a {
            Activation::Relu | Activation::Identity => RefRule::Scalar(tol_in),
            Activation::Sigmoid | Activation::Tanh => {
                let tag = if *a == Activation::Sigmoid {
                    "sigmoid"
                } else {
                    "tanh"
                };
                let act = *a;
                let lut_err = luts
                    .get(tag)
                    .map(|img| img.max_error(move |x| act.eval(x), opts.lut_error_probes))
                    .unwrap_or(0.0);
                // Both activations are 1-Lipschitz (sigmoid tighter),
                // and both outputs are bounded: the reference by 1, the
                // quantised view by the LUT's largest stored sample. The
                // error can never exceed their sum, which stops upstream
                // tolerance from compounding through squashing layers.
                let cap = 1.0 + lut_cap(luts, tag);
                RefRule::Scalar((tol_in + lut_err + ulp).min(cap))
            }
        },
        LayerKind::Lrn(p) => {
            let src = &ref_ins[0];
            let fx_src = fx_ins[0];
            let image = match luts.get(&format!("lrn:{}", layer.name)) {
                Some(i) => i,
                None => return RefRule::Skip("lrn lut missing"),
            };
            let (alpha, beta, n) = (p.alpha, p.beta, p.local_size as f64);
            let lut_err = image.max_error(
                move |s| (1.0 + alpha / n * s).powf(-beta),
                opts.lut_error_probes,
            );
            let lut_hi = image.keys()[image.entries() - 1].to_f64();
            // Max |d/ds (1 + a/n s)^-b| is at s = 0.
            let slope = beta * alpha / n;
            let s = src.shape();
            let half = p.local_size / 2;
            let data = src.as_slice();
            let mut bounds = vec![0.0f64; ref_out.shape().elements()];
            for c in 0..s.channels {
                let lo = c.saturating_sub(half);
                let hi = (c + half).min(s.channels - 1);
                for y in 0..s.height {
                    for x in 0..s.width {
                        let at = (c * s.height + y) * s.width + x;
                        let mut energy = 0.0f64;
                        for cc in lo..=hi {
                            let v = f64::from(data[(cc * s.height + y) * s.width + x]);
                            energy += v * v;
                        }
                        let m = (hi - lo + 1) as f64;
                        let tol_e = m * tol_in * (2.0 * xmax + tol_in) + ulp;
                        // Near or past the table's top key the functional
                        // energy clamps; the factor there is tail-flat but
                        // not bounded by local analysis — skip.
                        let fx_energy_rail =
                            fx_ins.first().is_some_and(|_| energy + tol_e >= lut_hi);
                        bounds[at] = if fx_energy_rail {
                            f64::INFINITY
                        } else {
                            let factor_err = lut_err + slope * tol_e + ulp;
                            let centre = f64::from(data[at]).abs();
                            centre * factor_err + (1.0 + factor_err) * tol_in + ulp
                        };
                        // (fx_src is only used to keep the signature
                        // honest; the rail test is on the reference
                        // energy, which dominates the clamped one.)
                        let _ = fx_src;
                    }
                }
            }
            RefRule::PerElement(bounds)
        }
        LayerKind::Recurrent { num_output, steps } => {
            let n_in = ref_ins[0].shape().elements();
            let tanh_err = luts
                .get("tanh")
                .map(|img| img.max_error(|x| x.tanh(), opts.lut_error_probes))
                .unwrap_or(0.0);
            // Every step squashes the state through the tanh LUT: the
            // reference state is bounded by 1 and the quantised one by
            // the LUT's largest stored sample, so the per-step error is
            // capped and cannot compound exponentially across steps.
            let cap = 1.0 + lut_cap(luts, "tanh");
            let mut tol_h = 0.0f64;
            for _ in 0..(*steps).max(1) {
                let pre = mac_bound(n_in, xmax, wmax, w1, tol_in, fmt)
                    + mac_bound(*num_output, 1.0, wmax, w1, tol_h, fmt);
                tol_h = (pre + tanh_err + ulp).min(cap);
            }
            RefRule::Scalar(tol_h)
        }
        LayerKind::Associative { .. } => {
            RefRule::Skip("table addressing is discretisation-sensitive")
        }
        LayerKind::Classifier { .. } => RefRule::Skip("rank order is discretisation-sensitive"),
    }
}

// ---------------------------------------------------------------------------
// The walk.
// ---------------------------------------------------------------------------

/// Runs one input through all three execution views layer by layer and
/// cross-checks them.
///
/// `design_lanes` scales the RTL neuron bank (capped so buses fit 64-bit
/// signals); pass the compiled configuration's lane count.
///
/// # Errors
///
/// Returns [`DiffError`] if any view fails to *execute* (missing weights
/// or LUTs, lint or RTL simulation errors). Divergences between views are
/// reported in the returned [`DiffReport`], not as errors.
pub fn diff_network(
    net: &Network,
    weights: &WeightSet,
    input: &Tensor,
    luts: &LutImages,
    fmt: QFormat,
    design_lanes: u32,
    opts: &DiffOptions,
) -> Result<DiffReport, DiffError> {
    let norms = WeightNorms::measure(net, weights, fmt);
    diff_measured(net, weights, &norms, input, luts, design_lanes, opts)
}

/// [`diff_network`] on weights already measured in the format to check
/// (`norms`): the range proofs and the reference bounds read the
/// measurement instead of rescanning the weights.
fn diff_measured(
    net: &Network,
    weights: &WeightSet,
    norms: &WeightNorms,
    input: &Tensor,
    luts: &LutImages,
    design_lanes: u32,
    opts: &DiffOptions,
) -> Result<DiffReport, DiffError> {
    if input.shape() != net.input_shape() {
        return Err(DiffError::Reference("input shape mismatch".into()));
    }
    let fmt = norms.format();
    let mut bank = RtlBank::new(fmt, design_lanes)?;
    let mut ref_blobs: BTreeMap<String, Tensor> = BTreeMap::new();
    let mut fx_blobs: BTreeMap<String, FxBlob> = BTreeMap::new();
    let mut tol: BTreeMap<String, f64> = BTreeMap::new();
    let mut poisoned: BTreeMap<String, bool> = BTreeMap::new();
    // Static range analysis over the actual stimulus bound: chain-proven
    // layers provably never saturate, so their bounded comparison can
    // audit every element instead of skipping values near the rail.
    let input_bound = absmax(input) + fmt.resolution();
    let (range_proofs, _) = analyze_ranges(net, norms, Some(luts), input_bound);
    let chain_proven: std::collections::BTreeSet<&str> = range_proofs
        .iter()
        .filter(|p| p.chain_proven)
        .map(|p| p.layer.as_str())
        .collect();
    let mut report = DiffReport {
        network: net.name().to_string(),
        budget: String::new(),
        layers: Vec::new(),
        divergences: Vec::new(),
        rtl_modules: Vec::new(),
        counters: None,
        range_proofs: Vec::new(),
        lint: None,
        full_run: None,
    };
    let _span = trace::span("sim", "sim.diff");
    for (layer_idx, layer) in net.layers().iter().enumerate() {
        // Functional view first: it defines the quantised truth the RTL
        // must match bit-for-bit. The layer's weights are quantised once
        // for both views and dropped with the layer.
        let (lw, qw, fx_out) = {
            let _s = trace::span("sim", "sim.diff.fx");
            let (lw, qw) = layer_weights(layer, weights, fmt);
            let out = eval_fx_layer(layer, &fx_blobs, lw, qw.as_ref(), input, luts, fmt)?;
            (lw, qw, out)
        };
        // Tensor reference.
        let ref_ins: Vec<&Tensor> = if matches!(layer.kind, LayerKind::Input { .. }) {
            vec![input]
        } else {
            layer
                .bottoms
                .iter()
                .map(|b| {
                    ref_blobs
                        .get(b)
                        .ok_or_else(|| DiffError::Reference(format!("blob `{b}` not computed")))
                })
                .collect::<Result<_, _>>()?
        };
        let ref_out = {
            let _s = trace::span("sim", "sim.diff.ref");
            eval_layer(layer, &ref_ins, weights).map_err(|e| DiffError::Reference(e.to_string()))?
        };
        let fx_ins: Vec<&FxBlob> = layer
            .bottoms
            .iter()
            .filter_map(|b| fx_blobs.get(b))
            .collect();
        // RTL view at sampled positions, bit-exact against functional.
        let rtl_checked = {
            let _s = trace::span("sim", "sim.diff.rtl");
            rtl_check_layer(
                &mut bank,
                layer,
                &fx_ins,
                &fx_out,
                lw,
                qw.as_ref(),
                luts,
                opts,
                opts.inject_rtl_fault == Some(layer_idx),
                &mut report.divergences,
            )?
        };
        drop(qw);
        // Bounded tensor↔functional comparison.
        let tol_in = layer
            .bottoms
            .iter()
            .map(|b| tol.get(b).copied().unwrap_or(0.0))
            .fold(0.0, f64::max);
        let upstream_poison = layer.bottoms.iter().any(|b| poisoned.get(b) == Some(&true));
        let rule = {
            let _s = trace::span("sim", "sim.diff.rule");
            derive_ref_rule(
                layer,
                &ref_ins,
                &ref_out,
                &fx_ins,
                norms.layer(layer_idx),
                luts,
                fmt,
                tol_in,
                opts,
            )
        };
        let compare = trace::span("sim", "sim.diff.ref");
        let fx_tensor = fx_out.to_tensor();
        let mut audit = LayerAudit {
            layer: layer.name.clone(),
            kind: kind_tag(&layer.kind).to_string(),
            rtl_checked,
            ref_checked: 0,
            ref_skipped: 0,
            tolerance: 0.0,
            max_ref_error: 0.0,
            skip_reason: None,
            range_proven: chain_proven.contains(layer.name.as_str()),
        };
        let mut poison_out = upstream_poison;
        if ref_out.shape() != fx_tensor.shape() {
            report.divergences.push(Divergence {
                layer: layer.name.clone(),
                kind: audit.kind.clone(),
                views: (View::Tensor, View::Functional),
                index: 0,
                lhs: ref_out.shape().elements() as f64,
                rhs: fx_tensor.shape().elements() as f64,
                tolerance: 0.0,
                detail: format!("shape {} vs {}", ref_out.shape(), fx_tensor.shape()),
            });
        } else {
            match rule {
                RefRule::Skip(reason) => {
                    audit.ref_skipped = ref_out.shape().elements();
                    audit.skip_reason = Some(reason);
                    poison_out = true;
                }
                _ if upstream_poison => {
                    audit.ref_skipped = ref_out.shape().elements();
                    audit.skip_reason = Some("upstream blob is index-valued");
                }
                RefRule::Scalar(bound) => {
                    audit.tolerance = bound;
                    compare_bounded(
                        layer,
                        &ref_out,
                        &fx_out,
                        fmt,
                        |_| bound,
                        &mut audit,
                        &mut report.divergences,
                    );
                }
                RefRule::PerElement(bounds) => {
                    audit.tolerance = bounds
                        .iter()
                        .copied()
                        .filter(|b| b.is_finite())
                        .fold(0.0, f64::max);
                    compare_bounded(
                        layer,
                        &ref_out,
                        &fx_out,
                        fmt,
                        |i| bounds[i],
                        &mut audit,
                        &mut report.divergences,
                    );
                }
            }
        }
        drop(compare);
        // The comparison bound becomes the downstream input tolerance.
        let tol_out = match &layer.kind {
            // Index/table outputs restart the error budget (they are
            // exact quantised values when comparable at all).
            LayerKind::Associative { .. } | LayerKind::Classifier { .. } => fmt.resolution() / 2.0,
            _ => audit.tolerance.max(tol_in),
        };
        report.layers.push(audit);
        for top in &layer.tops {
            ref_blobs.insert(top.clone(), ref_out.clone());
            fx_blobs.insert(top.clone(), fx_out.clone());
            tol.insert(top.clone(), tol_out);
            poisoned.insert(top.clone(), poison_out);
        }
    }
    report.rtl_modules = bank.module_stats();
    report.range_proofs = range_proofs;
    if trace::active() {
        trace::counter("rtl", "rtl.checked", report.rtl_checked() as f64);
        for agg in &report.rtl_modules {
            trace::counter("rtl", "rtl.clock_edges", agg.clock_edges as f64);
            trace::counter("rtl", "rtl.settle_passes", agg.settle_passes as f64);
            trace::counter("rtl", "rtl.evals", agg.evals as f64);
            trace::counter("rtl", format!("rtl.evals.{}", agg.module), agg.evals as f64);
        }
    }
    Ok(report)
}

/// Elementwise tensor↔functional check under a per-element bound,
/// skipping saturated values (the fixed-point view clips by design).
/// When the static range analysis chain-proved the layer, the
/// near-the-rail reference guard is dropped — the quantised value
/// provably never clips, so every finite element is audited.
fn compare_bounded(
    layer: &Layer,
    ref_out: &Tensor,
    fx_out: &FxBlob,
    fmt: QFormat,
    bound: impl Fn(usize) -> f64,
    audit: &mut LayerAudit,
    divs: &mut Vec<Divergence>,
) {
    let mut mismatches = 0usize;
    for (i, (r, v)) in ref_out.as_slice().iter().zip(&fx_out.data).enumerate() {
        let b = bound(i);
        let r = f64::from(*r);
        let saturated = v.raw() >= fmt.max_raw()
            || v.raw() <= fmt.min_raw()
            || (!audit.range_proven && r.abs() >= fmt.max_value() - b);
        if !r.is_finite() || !b.is_finite() || saturated {
            audit.ref_skipped += 1;
            continue;
        }
        audit.ref_checked += 1;
        let err = (r - v.to_f64()).abs();
        audit.max_ref_error = audit.max_ref_error.max(err);
        if err > b {
            mismatches += 1;
            if mismatches <= 4 {
                divs.push(Divergence {
                    layer: layer.name.clone(),
                    kind: audit.kind.clone(),
                    views: (View::Tensor, View::Functional),
                    index: i,
                    lhs: r,
                    rhs: v.to_f64(),
                    tolerance: b,
                    detail: "quantisation drift exceeds derived bound".into(),
                });
            }
        }
    }
}

/// Differential run against a generated [`AcceleratorDesign`]: uses the
/// design's compiled LUT images, format and lane count, and stamps the
/// budget tag into the report.
///
/// Beyond the three per-layer views of [`diff_network`], this also runs
/// the fourth view: the design's own `perf_counters` RTL block is replayed
/// from the compiled schedule and cross-checked against the analytic
/// [`crate::CounterSet`] (deterministic counters bit-for-bit, cycle
/// counters within the documented slack — DESIGN.md §10). Counter
/// divergences are appended to the report's divergence list.
///
/// # Errors
///
/// See [`diff_network`]; additionally fails if the design lacks a
/// `perf_counters` module or the counter replay cannot elaborate.
pub fn diff_design(
    design: &AcceleratorDesign,
    net: &Network,
    weights: &WeightSet,
    input: &Tensor,
    opts: &DiffOptions,
) -> Result<DiffReport, DiffError> {
    let cfg = &design.compiled.config;
    // One measurement of every weight serves the range proofs of both the
    // diff and the analyzer, and the reference bounds.
    let norms = WeightNorms::measure(net, weights, cfg.format);
    let mut report = diff_measured(
        net,
        weights,
        &norms,
        input,
        &design.compiled.luts,
        cfg.lanes,
        opts,
    )?;
    report.budget = design.budget.tag().to_string();
    let check = verify_counters(
        &design.design,
        &design.compiled,
        &TimingParams::default(),
        opts.counter_beat_cap,
    )?;
    report.divergences.extend(check.divergences.iter().cloned());
    report.counters = Some(check);
    if opts.full_rtl {
        // Fifth view: one continuous coordinator-driven run across every
        // layer, activations flowing through the real memory segments.
        // Whole-run waveforms stay off (a clean run on a large network
        // spans 10^8 cycles); the flight recorder inside the run keeps a
        // bounded ring of the control signals (phase_w, fire_w, AGU
        // valids, DRAM strobes) and freezes the window around the first
        // divergence, so the bundle ships waveforms from this single run.
        let base = crate::fullrun::FullRunOptions {
            // A per-layer view already diverged: a bundle will ship, so
            // keep the control-top's final window even if the full run
            // itself stays clean.
            flight_force: !report.divergences.is_empty(),
            profile: opts.profile,
            ..crate::fullrun::FullRunOptions::default()
        };
        let full = crate::fullrun::full_network_run(design, net, weights, input, &base)?;
        report.divergences.extend(full.divergences.iter().cloned());
        report.full_run = Some(full);
    }
    // Attach the full static-analysis report so a divergence bundle
    // ships its lint context (structural/comb/fsm/agu/sched findings
    // plus range proofs) alongside the waveforms.
    report.lint = Some(deepburning_lint::analyze(design, net, Some(&norms)));
    Ok(report)
}

/// Re-executes a single layer through the RTL view with VCD waveform
/// recording on every block simulator, returning `(block tag, vcd
/// text)` pairs for the blocks the layer exercised. This is the
/// divergence-bundle capture path: after [`diff_network`] flags a layer,
/// the harness replays just that layer and dumps the waveforms a hardware
/// engineer would inspect.
///
/// The functional view is walked (without comparisons) up to `layer_name`
/// to reconstruct the layer's quantised inputs.
///
/// # Errors
///
/// Returns [`DiffError`] if the layer does not exist or any view fails to
/// execute.
#[allow(clippy::too_many_arguments)]
pub fn capture_layer_vcd(
    net: &Network,
    weights: &WeightSet,
    input: &Tensor,
    luts: &LutImages,
    fmt: QFormat,
    design_lanes: u32,
    opts: &DiffOptions,
    layer_name: &str,
) -> Result<Vec<(String, String)>, DiffError> {
    if input.shape() != net.input_shape() {
        return Err(DiffError::Reference("input shape mismatch".into()));
    }
    let _span = trace::span("sim", "sim.capture_vcd");
    let mut bank = RtlBank::new(fmt, design_lanes)?;
    bank.enable_vcd();
    let mut fx_blobs: BTreeMap<String, FxBlob> = BTreeMap::new();
    for (layer_idx, layer) in net.layers().iter().enumerate() {
        let (lw, qw) = layer_weights(layer, weights, fmt);
        let fx_out = eval_fx_layer(layer, &fx_blobs, lw, qw.as_ref(), input, luts, fmt)?;
        if layer.name == layer_name {
            let fx_ins: Vec<&FxBlob> = layer
                .bottoms
                .iter()
                .filter_map(|b| fx_blobs.get(b))
                .collect();
            let mut divs = Vec::new();
            rtl_check_layer(
                &mut bank,
                layer,
                &fx_ins,
                &fx_out,
                lw,
                qw.as_ref(),
                luts,
                opts,
                opts.inject_rtl_fault == Some(layer_idx),
                &mut divs,
            )?;
            return Ok(bank.collect_vcds());
        }
        for top in &layer.tops {
            fx_blobs.insert(top.clone(), fx_out.clone());
        }
    }
    Err(DiffError::Rtl(format!("layer `{layer_name}` not found")))
}

/// Renders a [`DiffReport`] as a machine-readable JSON document (the
/// layer-audit half of a divergence artifact bundle).
pub fn diff_report_json(report: &DiffReport) -> Json {
    Json::obj([
        ("network", Json::str(report.network.clone())),
        ("budget", Json::str(report.budget.clone())),
        ("clean", Json::Bool(report.is_clean())),
        (
            "skip_audited",
            Json::num(report.skip_audited().len() as f64),
        ),
        (
            "layers",
            Json::Arr(
                report
                    .layers
                    .iter()
                    .map(|l| {
                        Json::obj([
                            ("layer", Json::str(l.layer.clone())),
                            ("kind", Json::str(l.kind.clone())),
                            ("rtl_checked", Json::num(l.rtl_checked as f64)),
                            ("ref_checked", Json::num(l.ref_checked as f64)),
                            ("ref_skipped", Json::num(l.ref_skipped as f64)),
                            ("tolerance", Json::num(l.tolerance)),
                            ("max_ref_error", Json::num(l.max_ref_error)),
                            (
                                "skip_reason",
                                match l.skip_reason {
                                    Some(r) => Json::str(r),
                                    None => Json::Null,
                                },
                            ),
                            ("range_proven", Json::Bool(l.range_proven)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "divergences",
            Json::Arr(
                report
                    .divergences
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("layer", Json::str(d.layer.clone())),
                            ("kind", Json::str(d.kind.clone())),
                            (
                                "views",
                                Json::Arr(vec![
                                    Json::str(d.views.0.to_string()),
                                    Json::str(d.views.1.to_string()),
                                ]),
                            ),
                            ("index", Json::num(d.index as f64)),
                            ("lhs", Json::num(d.lhs)),
                            ("rhs", Json::num(d.rhs)),
                            ("tolerance", Json::num(d.tolerance)),
                            ("detail", Json::str(d.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "rtl_modules",
            Json::Arr(
                report
                    .rtl_modules
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("module", Json::str(m.module.clone())),
                            ("clock_edges", Json::num(m.clock_edges as f64)),
                            ("settle_passes", Json::num(m.settle_passes as f64)),
                            ("evals", Json::num(m.evals as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "counters",
            match &report.counters {
                Some(c) => Json::obj([
                    ("clean", Json::Bool(c.is_clean())),
                    ("cycle_slack", Json::num(c.cycle_slack as f64)),
                    ("replayed_cycles", Json::num(c.replayed_cycles as f64)),
                    ("analytic", counter_set_json(&c.analytic)),
                    ("rtl", counter_set_json(&c.rtl)),
                ]),
                None => Json::Null,
            },
        ),
        (
            "range_proofs",
            Json::arr(report.range_proofs.iter().map(RangeProof::to_json)),
        ),
        (
            "lint",
            match &report.lint {
                Some(l) => l.to_json(),
                None => Json::Null,
            },
        ),
        (
            "full_run",
            match &report.full_run {
                Some(f) => Json::obj([
                    ("clean", Json::Bool(f.is_clean())),
                    ("cycles", Json::num(f.cycles as f64)),
                    ("predicted_cycles", Json::num(f.predicted_cycles as f64)),
                    ("cycle_slack", Json::num(f.cycle_slack as f64)),
                    ("output_words", Json::num(f.output_words as f64)),
                    (
                        "refed_layers",
                        Json::Arr(
                            f.refed_layers
                                .iter()
                                .map(|l| Json::str(l.clone()))
                                .collect(),
                        ),
                    ),
                    ("rtl", counter_set_json(&f.rtl_counters)),
                ]),
                None => Json::Null,
            },
        ),
    ])
}

/// JSON image of a [`CounterSet`], keyed by the register-map names of
/// DESIGN.md §10.
pub fn counter_set_json(c: &CounterSet) -> Json {
    Json::obj([
        ("cycles", Json::num(c.cycles as f64)),
        ("active_cycles", Json::num(c.active_cycles as f64)),
        ("stall_cycles", Json::num(c.stall_cycles as f64)),
        ("mac_ops", Json::num(c.mac_ops as f64)),
        ("buffer_reads", Json::num(c.buffer_reads as f64)),
        ("buffer_writes", Json::num(c.buffer_writes as f64)),
        ("agu_bursts", Json::num(c.agu_bursts as f64)),
        ("buffer_peak_words", Json::num(c.buffer_peak_words as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_compiler::{generate_luts, CompilerConfig};
    use deepburning_model::parse_network;
    use deepburning_tensor::Init;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run(src: &str, seed: u64) -> DiffReport {
        let net = parse_network(src).expect("parses");
        let mut rng = StdRng::seed_from_u64(seed);
        let ws = WeightSet::init(&net, Init::Xavier, &mut rng).expect("init");
        let cfg = CompilerConfig::default();
        let luts = generate_luts(&net, &cfg).expect("luts");
        let shape = net.input_shape();
        let input = Tensor::from_fn(shape, |_, _, _| rng.gen_range(-1.0..1.0f32));
        diff_network(
            &net,
            &ws,
            &input,
            &luts,
            cfg.format,
            cfg.lanes,
            &DiffOptions::default(),
        )
        .expect("diff runs")
    }

    #[test]
    fn mlp_three_views_agree() {
        let report = run(
            r#"
            layers { name: "data" type: INPUT top: "data"
                     input_param { channels: 6 height: 1 width: 1 } }
            layers { name: "h" type: FC bottom: "data" top: "h"
                     param { num_output: 12 } }
            layers { name: "sig" type: SIGMOID bottom: "h" top: "h" }
            layers { name: "o" type: FC bottom: "h" top: "o"
                     param { num_output: 4 } }
            "#,
            7,
        );
        assert!(report.is_clean(), "{report}");
        assert!(report.rtl_checked() > 0);
    }

    #[test]
    fn conv_pool_relu_three_views_agree() {
        let report = run(
            r#"
            layers { name: "data" type: INPUT top: "data"
                     input_param { channels: 2 height: 10 width: 10 } }
            layers { name: "conv" type: CONVOLUTION bottom: "data" top: "conv"
                     param { num_output: 6 kernel_size: 3 stride: 1 } }
            layers { name: "relu" type: RELU bottom: "conv" top: "conv" }
            layers { name: "pmax" type: POOLING bottom: "conv" top: "pmax"
                     pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
            layers { name: "pavg" type: POOLING bottom: "pmax" top: "pavg"
                     pooling_param { pool: AVE kernel_size: 2 stride: 2 } }
            layers { name: "fc" type: FC bottom: "pavg" top: "fc"
                     param { num_output: 5 } }
            "#,
            11,
        );
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn classifier_and_tanh_agree() {
        let report = run(
            r#"
            layers { name: "data" type: INPUT top: "data"
                     input_param { channels: 9 height: 1 width: 1 } }
            layers { name: "fc" type: FC bottom: "data" top: "fc"
                     param { num_output: 9 } }
            layers { name: "th" type: TANH bottom: "fc" top: "fc" }
            layers { name: "cls" type: CLASSIFIER bottom: "fc" top: "cls"
                     classifier_param { top_k: 3 } }
            "#,
            13,
        );
        assert!(report.is_clean(), "{report}");
        // Classifier indices are checked exactly against the RTL even
        // though the tensor comparison skips them.
        let cls = report
            .layers
            .iter()
            .find(|l| l.kind == "classifier")
            .expect("cls");
        assert_eq!(cls.rtl_checked, 3);
        assert_eq!(cls.ref_skipped, 3);
    }

    #[test]
    fn sampling_caps_rtl_work() {
        let net = parse_network(
            r#"
            layers { name: "data" type: INPUT top: "data"
                     input_param { channels: 1 height: 16 width: 16 } }
            layers { name: "conv" type: CONVOLUTION bottom: "data" top: "conv"
                     param { num_output: 8 kernel_size: 3 stride: 1 } }
            "#,
        )
        .expect("parses");
        let mut rng = StdRng::seed_from_u64(3);
        let ws = WeightSet::init(&net, Init::Xavier, &mut rng).expect("init");
        let cfg = CompilerConfig::default();
        let luts = generate_luts(&net, &cfg).expect("luts");
        let input = Tensor::from_fn(net.input_shape(), |_, _, _| rng.gen_range(-1.0..1.0f32));
        let opts = DiffOptions {
            max_rtl_samples: 10,
            ..DiffOptions::default()
        };
        let report =
            diff_network(&net, &ws, &input, &luts, cfg.format, cfg.lanes, &opts).expect("runs");
        assert!(report.is_clean(), "{report}");
        let conv = report
            .layers
            .iter()
            .find(|l| l.kind == "conv")
            .expect("conv");
        assert_eq!(conv.rtl_checked, 10);
    }

    #[test]
    fn saturating_dot_products_stay_bit_exact() {
        // Weights far outside Q8.8's comfortable range force clipping in
        // the accumulator readout; the RTL must clip identically and the
        // tensor comparison must skip the saturated elements.
        let net = parse_network(
            r#"
            layers { name: "data" type: INPUT top: "data"
                     input_param { channels: 8 height: 1 width: 1 } }
            layers { name: "fc" type: FC bottom: "data" top: "fc"
                     param { num_output: 4 } }
            "#,
        )
        .expect("parses");
        let mut ws = WeightSet::new();
        ws.insert(
            "fc",
            deepburning_tensor::LayerWeights {
                w: vec![60.0; 32],
                b: vec![0.5; 4],
            },
        );
        let input = Tensor::vector(&[3.0, 3.0, 3.0, 3.0, -3.0, 2.0, 1.0, 2.5]);
        let report = diff_network(
            &net,
            &ws,
            &input,
            &LutImages::new(),
            QFormat::Q8_8,
            4,
            &DiffOptions::default(),
        )
        .expect("runs");
        assert!(report.is_clean(), "{report}");
        let fc = report.layers.iter().find(|l| l.kind == "fc").expect("fc");
        assert_eq!(
            fc.ref_skipped, 4,
            "saturated outputs skip the bounded check"
        );
        assert!(
            !fc.range_proven,
            "a provably saturating layer must not be chain-proven"
        );
    }

    #[test]
    fn recurrent_layer_is_range_proven_and_fully_audited() {
        // Before the static range pass, the recurrent tolerance
        // compounded exponentially with step count: by step 8 the bound
        // exceeded the format maximum, the near-the-rail guard fired for
        // every element and the layer was skip-audited. The tanh output
        // cap plus the chain proof keep the bound small and audit every
        // element.
        let net = parse_network(
            r#"
            layers { name: "data" type: INPUT top: "data"
                     input_param { channels: 8 height: 1 width: 1 } }
            layers { name: "settle" type: RECURRENT bottom: "data" top: "settle"
                     recurrent_param { num_output: 8 steps: 8 } }
            "#,
        )
        .expect("parses");
        let mut rng = StdRng::seed_from_u64(5);
        let ws = WeightSet::init(&net, Init::Uniform(0.25), &mut rng).expect("init");
        let cfg = CompilerConfig::default();
        let luts = generate_luts(&net, &cfg).expect("luts");
        let input = Tensor::from_fn(net.input_shape(), |_, _, _| rng.gen_range(-1.0..1.0f32));
        let report = diff_network(
            &net,
            &ws,
            &input,
            &luts,
            cfg.format,
            cfg.lanes,
            &DiffOptions::default(),
        )
        .expect("runs");
        assert!(report.is_clean(), "{report}");
        let settle = report
            .layers
            .iter()
            .find(|l| l.layer == "settle")
            .expect("settle");
        assert!(settle.range_proven, "chain proof expected:\n{report}");
        assert!(
            settle.ref_checked > 0 && settle.ref_skipped == 0,
            "fully audited:\n{report}"
        );
        assert!(
            settle.tolerance < 3.0,
            "per-step cap must stop compounding, got {}",
            settle.tolerance
        );
        assert!(report.skip_audited().is_empty(), "{report}");
        let proof = report
            .range_proofs
            .iter()
            .find(|p| p.layer == "settle")
            .expect("proof row");
        assert!(proof.chain_proven && proof.w1 < 20.0, "{proof:?}");
    }

    #[test]
    fn divergence_reports_name_the_layer() {
        // Sabotage the functional view by handing diff_network a LUT set
        // whose sigmoid image is subtly wrong for the RTL view: easiest
        // robust trigger is a deliberately mismatched weight set between
        // what the views see. Instead, check the report plumbing directly.
        let d = Divergence {
            layer: "conv1".into(),
            kind: "conv".into(),
            views: (View::Functional, View::Rtl),
            index: 3,
            lhs: 1.0,
            rhs: 2.0,
            tolerance: 0.0,
            detail: "raw 0x100 vs 0x200".into(),
        };
        let r = DiffReport {
            network: "t".into(),
            budget: "DB".into(),
            layers: vec![],
            divergences: vec![d],
            rtl_modules: vec![],
            counters: None,
            range_proofs: vec![],
            lint: None,
            full_run: None,
        };
        assert!(!r.is_clean());
        assert_eq!(r.first_divergence().expect("one").layer, "conv1");
        let text = r.to_string();
        assert!(text.contains("DIVERGED"), "{text}");
        assert!(text.contains("conv1"), "{text}");
    }

    const MLP_SRC: &str = r#"
    layers { name: "data" type: INPUT top: "data"
             input_param { channels: 6 height: 1 width: 1 } }
    layers { name: "h" type: FC bottom: "data" top: "h"
             param { num_output: 12 } }
    layers { name: "sig" type: SIGMOID bottom: "h" top: "h" }
    layers { name: "o" type: FC bottom: "h" top: "o"
             param { num_output: 4 } }
    "#;

    fn mlp_fixture() -> (
        deepburning_model::Network,
        WeightSet,
        LutImages,
        Tensor,
        CompilerConfig,
    ) {
        let net = parse_network(MLP_SRC).expect("parses");
        let mut rng = StdRng::seed_from_u64(19);
        let ws = WeightSet::init(&net, Init::Xavier, &mut rng).expect("init");
        let cfg = CompilerConfig::default();
        let luts = generate_luts(&net, &cfg).expect("luts");
        let input = Tensor::from_fn(net.input_shape(), |_, _, _| rng.gen_range(-1.0..1.0f32));
        (net, ws, luts, input, cfg)
    }

    #[test]
    fn injected_fault_forces_rtl_divergence() {
        let (net, ws, luts, input, cfg) = mlp_fixture();
        let opts = DiffOptions {
            inject_rtl_fault: Some(1), // the "h" FC layer
            ..DiffOptions::default()
        };
        let report =
            diff_network(&net, &ws, &input, &luts, cfg.format, cfg.lanes, &opts).expect("runs");
        assert!(!report.is_clean());
        let d = report.first_divergence().expect("diverges");
        assert_eq!(d.layer, "h");
        assert_eq!(d.views, (View::Functional, View::Rtl));
        assert_eq!(d.tolerance, 0.0);
    }

    #[test]
    fn report_carries_rtl_module_stats() {
        let (net, ws, luts, input, cfg) = mlp_fixture();
        let report = diff_network(
            &net,
            &ws,
            &input,
            &luts,
            cfg.format,
            cfg.lanes,
            &DiffOptions::default(),
        )
        .expect("runs");
        assert!(!report.rtl_modules.is_empty());
        let neuron = report
            .rtl_modules
            .iter()
            .find(|m| m.module == "neuron")
            .expect("neuron worked");
        assert!(neuron.clock_edges > 0);
        assert!(neuron.evals > 0);
        // Descending by evals.
        for w in report.rtl_modules.windows(2) {
            assert!(w[0].evals >= w[1].evals);
        }
        let text = report.to_string();
        assert!(text.contains("rtl interpreter work"), "{text}");
    }

    #[test]
    fn capture_layer_vcd_dumps_exercised_blocks() {
        let (net, ws, luts, input, cfg) = mlp_fixture();
        let vcds = capture_layer_vcd(
            &net,
            &ws,
            &input,
            &luts,
            cfg.format,
            cfg.lanes,
            &DiffOptions::default(),
            "h",
        )
        .expect("captures");
        assert_eq!(vcds.len(), 1, "only the neuron ran: {vcds:?}");
        let (tag, text) = &vcds[0];
        assert_eq!(tag, "neuron");
        assert!(text.contains("$timescale 1 ns $end"), "{text}");
        assert!(text.contains("$dumpvars"), "{text}");
        assert!(text.contains("$enddefinitions $end"), "{text}");
        // The sigmoid layer additionally exercises the LUT interpolator.
        let vcds = capture_layer_vcd(
            &net,
            &ws,
            &input,
            &luts,
            cfg.format,
            cfg.lanes,
            &DiffOptions::default(),
            "sig",
        )
        .expect("captures");
        assert!(
            vcds.iter().any(|(t, _)| t == "lut:sigmoid"),
            "{:?}",
            vcds.iter().map(|(t, _)| t).collect::<Vec<_>>()
        );
        assert!(capture_layer_vcd(
            &net,
            &ws,
            &input,
            &luts,
            cfg.format,
            cfg.lanes,
            &DiffOptions::default(),
            "nonexistent",
        )
        .is_err());
    }

    #[test]
    fn report_json_round_trips() {
        let (net, ws, luts, input, cfg) = mlp_fixture();
        let opts = DiffOptions {
            inject_rtl_fault: Some(3),
            ..DiffOptions::default()
        };
        let report =
            diff_network(&net, &ws, &input, &luts, cfg.format, cfg.lanes, &opts).expect("runs");
        let doc = diff_report_json(&report);
        let text = doc.render();
        let parsed = Json::parse(&text).expect("valid json");
        assert!(
            matches!(parsed.get("clean"), Some(Json::Bool(false))),
            "{text}"
        );
        let layers = parsed.get("layers").and_then(Json::as_arr).expect("layers");
        assert_eq!(layers.len(), report.layers.len());
        let divs = parsed
            .get("divergences")
            .and_then(Json::as_arr)
            .expect("divs");
        assert!(!divs.is_empty());
        assert_eq!(
            divs[0].get("layer").and_then(Json::as_str),
            Some("o"),
            "{text}"
        );
        let modules = parsed
            .get("rtl_modules")
            .and_then(Json::as_arr)
            .expect("modules");
        assert!(!modules.is_empty());
    }

    #[test]
    fn diff_emits_rtl_counters_when_traced() {
        let (net, ws, luts, input, cfg) = mlp_fixture();
        let tracer = deepburning_trace::Tracer::new();
        {
            let _session = deepburning_trace::install(&tracer);
            diff_network(
                &net,
                &ws,
                &input,
                &luts,
                cfg.format,
                cfg.lanes,
                &DiffOptions::default(),
            )
            .expect("runs");
        }
        let metrics = tracer.metrics();
        let counters = metrics.get("counters").expect("counters");
        assert!(
            counters
                .get("rtl.evals")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                > 0.0
        );
        assert!(
            counters
                .get("fx.layers")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                == 0.0,
            "diff walks eval_fx_layer directly, not functional_forward_all"
        );
        deepburning_trace::validate_chrome_trace(&tracer.chrome_trace()).expect("valid trace");
    }

    #[test]
    fn diff_design_full_rtl_populates_fifth_view() {
        use deepburning_core::{generate, Budget};
        let net = parse_network(MLP_SRC).expect("parses");
        let mut rng = StdRng::seed_from_u64(23);
        let ws = WeightSet::init(&net, Init::Xavier, &mut rng).expect("init");
        let input = Tensor::from_fn(net.input_shape(), |_, _, _| rng.gen_range(-1.0..1.0f32));
        let design = generate(&net, &Budget::Small).expect("generates");
        let opts = DiffOptions {
            full_rtl: true,
            ..DiffOptions::default()
        };
        let report = diff_design(&design, &net, &ws, &input, &opts).expect("runs");
        assert!(report.is_clean(), "{report}");
        let full = report.full_run.as_ref().expect("fifth view ran");
        assert!(full.is_clean());
        assert!(full.cycles > 0);
        assert!(full.rtl_counters.cycles == full.cycles);
        assert!(
            full.vcd.is_none(),
            "clean runs skip waveform capture (it is re-run lazily for bundles)"
        );
        // The full-run outcome rides along in the bundle JSON.
        let doc = diff_report_json(&report);
        let parsed = Json::parse(&doc.render()).expect("valid json");
        let fr = parsed.get("full_run").expect("full_run key");
        assert!(matches!(fr.get("clean"), Some(Json::Bool(true))));
        assert!(fr.get("cycles").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
        // Without the flag the fifth view stays off.
        let report =
            diff_design(&design, &net, &ws, &input, &DiffOptions::default()).expect("runs");
        assert!(report.full_run.is_none());
    }
}
