//! Full-network RTL execution — the fifth verification view (DESIGN.md §13).
//!
//! [`full_network_run`] elaborates the control-only top
//! ([`deepburning_core::assemble_control_top`]) and lets the coordinator FSM
//! walk *every* phase of the compiled schedule in one continuous simulation:
//! the context ROMs are loaded through the testbench backdoor, `start` is
//! pulsed once, and the run ends when the coordinator drops `busy`. The
//! testbench memory accepts the fabric's row-wide DRAM commands through
//! `dram_ready`, paced by the [`DramPacer`] with the same beat parameters
//! the analytic timing model charges. Every accepted transaction —
//! address, write strobe and row length — is captured and replayed
//! against a software DRAM image laid out by the compiler's
//! [`MemoryMap`](deepburning_compiler::MemoryMap):
//! activations flow through the real `input`/`spill`/`output` segments at
//! the addresses the hardware computes, instead of being re-marshalled from
//! functional blobs per layer.
//!
//! Simulation caps signals at 64 bits, so the full datapath top cannot
//! elaborate whole; the control top (coordinator + three AGUs + context
//! ROMs + perf counters — all ≤ 64-bit) is the part whose chaining the
//! per-layer views never exercise, and the datapath arithmetic is emulated
//! bit-exactly by the functional view the per-layer RTL diff has already
//! certified against real block RTL.
//!
//! Three comparisons run against the chained per-layer views, all
//! bit-exact:
//!
//! 1. **Stream** — per phase, the captured `(addr, we, len)` sequence must
//!    equal the compiled program's patterns expanded into rows in hardware
//!    launch order (ascending trigger-bit slot).
//! 2. **Marshal** — the first time a layer fetches a bottom blob, the words
//!    read from the DRAM image are reassembled into a fixed-point blob and
//!    compared raw-for-raw against the functional value; this is where a
//!    wrong segment, stale spill slot or clobbered ping-pong surfaces
//!    *dynamically*.
//! 3. **Output** — after the run, the `output` segment must hold the final
//!    activation raw-for-raw (catches write-backs that never left `spill`).
//!
//! On divergence the run does not abort: the offending layer is recorded in
//! [`FullRunReport::refed_layers`] and downstream layers continue from the
//! functional (per-layer re-fed) values — the automatic bisection that
//! localises which layer's marshalling broke.

use std::collections::{BTreeMap, BTreeSet};

use deepburning_compiler::{plan_spill_slots, AguProgram, BlobPlace, CompiledNetwork, MemoryMap};
use deepburning_components::{
    AguBlock, AguClass, AguPattern, PERF_SEL_ACTIVE, PERF_SEL_BUF_READS, PERF_SEL_BUF_WRITES,
    PERF_SEL_BURSTS, PERF_SEL_CYCLES, PERF_SEL_MACS, PERF_SEL_PEAK, PERF_SEL_STALL,
};
use deepburning_core::{
    assemble_control_top, collect_main_patterns, collect_patterns, context_offsets, context_words,
    main_slots, AcceleratorDesign, MainPattern,
};
use deepburning_fixed::Fx;
use deepburning_model::Network;
use deepburning_tensor::{Tensor, WeightSet};
use deepburning_trace as trace;
use deepburning_trace::json::Json;
use deepburning_trace::Histogram;
use deepburning_verilog::{CompiledSim, FlightRecorder, FlightWindow, Simulator};

use crate::diff::{kind_tag, DiffError, Divergence, View};
use crate::functional::{eval_fx_layer, FxBlob, QuantWeights};
use crate::timing::{CounterSet, DramPacer, TimingParams};

/// Per-phase FSM overhead in cycles: the `fire` cycle in which the context
/// ROMs are presented to the AGUs, plus the cycle in which both `done`
/// registers are sampled by `phase_done`. Pinned against the RTL by
/// `cycles_match_fabric_prediction_exactly`.
pub const PHASE_HANDSHAKE_CYCLES: u64 = 2;

/// Documented slack on the fabric cycle prediction, per phase. The
/// prediction is exact for the current fabric; the slack absorbs future
/// retimings (an extra pipeline register per phase boundary) without
/// letting gross control bugs — a double-advancing coordinator halves the
/// cycle count — slip through.
pub const CYCLE_SLACK_PER_PHASE: u64 = 2;

/// Default flight-recorder depth (see [`FullRunOptions::flight_depth`]).
pub const DEFAULT_FLIGHT_DEPTH: usize = 256;

/// Knobs for a full-network run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullRunOptions {
    /// Record a VCD of the whole run (coordinator FSM state, segment
    /// addresses, AGU valids — the top-level context a divergence bundle
    /// ships), buffered in memory and returned in
    /// [`FullRunReport::vcd`]. For long runs prefer
    /// [`FullRunOptions::vcd_stream`].
    pub capture_vcd: bool,
    /// Stream the whole-run VCD incrementally to this file instead of
    /// buffering it: resident memory stays constant however many cycles
    /// the run spans (GoogleNet-scale runs dump to disk). Takes
    /// precedence over `capture_vcd`; the path lands in
    /// [`FullRunReport::vcd_path`].
    pub vcd_stream: Option<std::path::PathBuf>,
    /// Flight-recorder depth in cycles: the run keeps a ring of the last
    /// N cycles of the control signals (FSM phase, AGU valids, DRAM
    /// strobes) and freezes it at the first mismatching DRAM transaction,
    /// so a divergence bundle carries the window *before* the failure
    /// without re-running. `0` disables the recorder.
    pub flight_depth: usize,
    /// Freeze and render the flight window at end-of-run even when the
    /// run itself stayed clean — set by harnesses that already know a
    /// divergence bundle will ship (e.g. a per-layer view diverged) and
    /// want the control-top's final window as context.
    pub flight_force: bool,
    /// Hard cap on simulated cycles; `0` derives `4 * predicted + 1024`
    /// from the fabric model, so a hung coordinator terminates.
    pub cycle_cap: u64,
    /// Profile the simulation engine during the run (counter-based; see
    /// `deepburning_trace::prof`): evals and executed opcodes attributed
    /// per tape level and module, plus dirty-set occupancy. The snapshot
    /// lands in [`FullRunReport::profile`].
    pub profile: bool,
}

impl Default for FullRunOptions {
    fn default() -> Self {
        FullRunOptions {
            capture_vcd: false,
            vcd_stream: None,
            flight_depth: DEFAULT_FLIGHT_DEPTH,
            flight_force: false,
            cycle_cap: 0,
            profile: false,
        }
    }
}

/// One coordinator-FSM phase as observed on the wires: where it started,
/// how long it ran, how many DRAM transactions it issued and how many
/// cycles the main AGU spent stalled waiting on the data sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSlice {
    /// FSM phase index (`phase_w`).
    pub phase: u64,
    /// Layer the compiled schedule maps this phase to.
    pub layer: String,
    /// Cycle (since `start`) the coordinator entered the phase.
    pub start_cycle: u64,
    /// Cycles spent in the phase.
    pub cycles: u64,
    /// DRAM transactions (rows) the memory accepted during the phase.
    pub xacts: u64,
    /// Cycles the `perf_stall` wire was high (main traffic in flight
    /// while the datapath sweep was idle).
    pub stall_cycles: u64,
}

/// DRAM traffic attributed to one memory-map segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentTraffic {
    /// Segment name (`input`, `spill`, `output`, or a layer's weights).
    pub segment: String,
    /// Words read from the segment.
    pub reads: u64,
    /// Words written to the segment.
    pub writes: u64,
}

/// The phase timeline of a full-network run: per-phase slices, per-segment
/// traffic totals, and log-scale distributions of phase durations, DRAM
/// burst lengths and stall cycles. Built from per-cycle observations of
/// the control wires, so it is deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunTimeline {
    /// One slice per FSM phase, in execution order.
    pub phases: Vec<PhaseSlice>,
    /// Traffic per memory-map segment, sorted by segment name.
    pub segments: Vec<SegmentTraffic>,
    /// Distribution of per-phase durations (cycles).
    pub phase_cycles: Histogram,
    /// Distribution of DRAM burst lengths (maximal runs of consecutive
    /// `dram_req` cycles).
    pub burst_lengths: Histogram,
    /// Distribution of per-phase stall cycles.
    pub stall_cycles: Histogram,
}

impl RunTimeline {
    /// Busy cycles covered by the timeline.
    pub fn total_cycles(&self) -> u64 {
        self.phases.iter().map(|p| p.cycles).sum()
    }

    /// JSON image for reports: phase rows, segment totals and the three
    /// histograms with their bucket layouts.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("phase", Json::num(p.phase as f64)),
                                ("layer", Json::str(p.layer.clone())),
                                ("start_cycle", Json::num(p.start_cycle as f64)),
                                ("cycles", Json::num(p.cycles as f64)),
                                ("xacts", Json::num(p.xacts as f64)),
                                ("stall_cycles", Json::num(p.stall_cycles as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "segments",
                Json::Arr(
                    self.segments
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("segment", Json::str(s.segment.clone())),
                                ("reads", Json::num(s.reads as f64)),
                                ("writes", Json::num(s.writes as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("phase_cycles", self.phase_cycles.to_json()),
            ("burst_lengths", self.burst_lengths.to_json()),
            ("stall_cycles", self.stall_cycles.to_json()),
        ])
    }
}

/// The outcome of one full-network RTL execution.
#[derive(Debug, Clone, PartialEq)]
pub struct FullRunReport {
    /// Network name.
    pub network: String,
    /// Budget tag of the generated design.
    pub budget: String,
    /// Busy cycles measured by the RTL `perf_counters` block.
    pub cycles: u64,
    /// Fabric-model prediction: `Σ max(main, data stream) + handshake`
    /// per phase.
    pub predicted_cycles: u64,
    /// Slack the cycle check allowed (`CYCLE_SLACK_PER_PHASE` × phases).
    pub cycle_slack: u64,
    /// The full counter register map read back over `perf_sel`/
    /// `perf_rdata` after the run.
    pub rtl_counters: CounterSet,
    /// Every divergence between the full run and the chained per-layer
    /// views.
    pub divergences: Vec<Divergence>,
    /// Layers whose marshalling diverged and were re-fed from functional
    /// values so downstream comparisons stay meaningful (the bisection
    /// trail: the first entry is where the hardware stream broke).
    pub refed_layers: Vec<String>,
    /// Words of the `output` segment checked bit-exactly.
    pub output_words: usize,
    /// VCD text of the control top when requested.
    pub vcd: Option<String>,
    /// Where the streamed VCD went when [`FullRunOptions::vcd_stream`]
    /// was set.
    pub vcd_path: Option<std::path::PathBuf>,
    /// Flight-recorder window around the first mismatching DRAM
    /// transaction; `None` on clean runs or when the recorder is off.
    pub flight_window: Option<FlightWindow>,
    /// The phase timeline observed on the control wires.
    pub timeline: RunTimeline,
    /// Engine hot-spot profile, when [`FullRunOptions::profile`] was
    /// set: per-level/per-opcode attribution over the control top's
    /// instruction tape.
    pub profile: Option<deepburning_trace::prof::EngineProfile>,
}

impl FullRunReport {
    /// True when every comparison held.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Sign-extends a `bits`-wide DRAM word into the raw two's-complement value.
fn sign_extend(word: u64, bits: u32) -> i64 {
    let s = 64 - bits.clamp(1, 64);
    ((word << s) as i64) >> s
}

/// One DRAM transaction: the row's first word address, write strobe and
/// word count — what the control top presents on `dram_addr`/`dram_we`/
/// `dram_len` when the memory accepts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Xact {
    addr: u64,
    we: bool,
    len: u32,
}

impl Xact {
    /// The word addresses the transaction moves, in order.
    fn words(self) -> std::ops::Range<u64> {
        self.addr..self.addr + u64::from(self.len)
    }
}

/// Expands a phase's main program into the exact transaction sequence the
/// chained AGU emits: patterns sorted by hardware slot (the pending set
/// drains lowest trigger bit first), each expanded to its rows.
fn expected_xacts(prog: &AguProgram, set: &[MainPattern], lanes: u32) -> Vec<Xact> {
    let mut order: Vec<(usize, usize)> = main_slots(set, prog)
        .into_iter()
        .enumerate()
        .filter_map(|(i, slot)| slot.map(|slot| (slot, i)))
        .collect();
    order.sort_unstable();
    let mut out = Vec::new();
    for (_, i) in order {
        let we = prog.main_write.get(i).copied().unwrap_or(false);
        out.extend(
            prog.main_rows(i, lanes)
                .map(|(addr, len)| Xact { addr, we, len }),
        );
    }
    out
}

/// What a main-program pattern moves, recovered from its address range.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PatternRole {
    /// Fetch of the named bottom blob from `place`.
    Fetch(String, BlobPlace),
    /// This fold's weight slice.
    Weights,
    /// Output slice write-back to `place`.
    WriteBack(BlobPlace),
}

/// Word offset of a `place`'s segment base in the DRAM image.
fn seg_base(map: &MemoryMap, place: BlobPlace) -> u64 {
    let name = match place {
        BlobPlace::Input => "input",
        BlobPlace::Output => "output",
        BlobPlace::Spill(_) => "spill",
    };
    map.segment(name).map(|s| s.offset).unwrap_or_default()
}

/// Classifies each pattern of a phase's main program, mirroring the order
/// `synthesize_agus` emits them: bottom fetches (in spill-plan source
/// order), the weight slice, then the write-back.
fn classify_patterns(
    prog: &AguProgram,
    layer: &str,
    sources: &[(String, BlobPlace)],
    dest: BlobPlace,
    map: &MemoryMap,
) -> Vec<PatternRole> {
    let weight_off = map.segment(layer).map(|s| s.offset);
    let mut fetch_idx = 0usize;
    prog.main
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if prog.main_write.get(i).copied().unwrap_or(false) {
                PatternRole::WriteBack(dest)
            } else if weight_off == Some(p.start) {
                PatternRole::Weights
            } else {
                let role = sources
                    .get(fetch_idx)
                    .map(|(b, pl)| PatternRole::Fetch(b.clone(), *pl))
                    .unwrap_or(PatternRole::Weights);
                fetch_idx += 1;
                role
            }
        })
        .collect()
}

/// Fabric-model cycle count of one phase: the longer of the main stream
/// (its rows, in launch order, through the [`DramPacer`]) and the data
/// sweep (one address per cycle), plus the FSM handshake.
fn predicted_phase_cycles(
    prog: &AguProgram,
    set: &[MainPattern],
    lanes: u32,
    word_bytes: u64,
    params: &TimingParams,
) -> u64 {
    let rows = expected_xacts(prog, set, lanes);
    let main = DramPacer::cycles(params, rows.iter().map(|x| u64::from(x.len) * word_bytes));
    let data: u64 = prog.data.iter().map(AguPattern::footprint).sum();
    main.max(data) + PHASE_HANDSHAKE_CYCLES
}

/// Accumulates the [`RunTimeline`] from one per-cycle observation of the
/// control wires. Constant memory: open-slice state plus the bounded
/// phase list and three fixed-size histograms.
#[derive(Default)]
struct TimelineBuilder {
    timeline: RunTimeline,
    /// `(phase, start_cycle, xacts, stall_cycles)` of the open slice.
    open: Option<(u64, u64, u64, u64)>,
    /// `(start_cycle, length)` of the open DRAM burst.
    burst: Option<(u64, u64)>,
}

impl TimelineBuilder {
    fn close_slice(&mut self, cycle: u64) {
        if let Some((phase, start, xacts, stall)) = self.open.take() {
            let cycles = cycle - start;
            self.timeline.phase_cycles.record(cycles);
            self.timeline.stall_cycles.record(stall);
            self.timeline.phases.push(PhaseSlice {
                phase,
                layer: String::new(), // resolved in finish()
                start_cycle: start,
                cycles,
                xacts,
                stall_cycles: stall,
            });
        }
    }

    fn close_burst(&mut self, emit_trace: bool) {
        if let Some((start, len)) = self.burst.take() {
            self.timeline.burst_lengths.record(len);
            if emit_trace {
                trace::virtual_event(
                    "sim",
                    "fullrtl.dram",
                    format!("burst x{len}"),
                    start as f64,
                    len as f64,
                    vec![],
                );
            }
        }
    }

    /// One observed cycle: the FSM phase, whether a DRAM command was
    /// pending, whether the memory accepted it, and whether the stall
    /// wire was high.
    fn tick(
        &mut self,
        cycle: u64,
        phase: u64,
        req: bool,
        beat: bool,
        stall: bool,
        emit_trace: bool,
    ) {
        match &mut self.open {
            Some((p, ..)) if *p == phase => {}
            _ => {
                self.close_slice(cycle);
                self.open = Some((phase, cycle, 0, 0));
            }
        }
        if let Some((_, _, xacts, stalls)) = &mut self.open {
            if beat {
                *xacts += 1;
            }
            if stall {
                *stalls += 1;
            }
        }
        match (&mut self.burst, req) {
            (Some((_, len)), true) => *len += 1,
            (Some(_), false) => self.close_burst(emit_trace),
            (None, true) => self.burst = Some((cycle, 1)),
            (None, false) => {}
        }
    }

    /// Closes open state, resolves layer names, attributes the words of
    /// the captured transactions to memory-map segments, and emits the
    /// Perfetto view.
    fn finish(
        mut self,
        end_cycle: u64,
        compiled: &CompiledNetwork,
        captured: &[Xact],
        emit_trace: bool,
    ) -> RunTimeline {
        self.close_slice(end_cycle);
        self.close_burst(emit_trace);
        let phases = &compiled.folding.phases;
        for slice in &mut self.timeline.phases {
            slice.layer = phases
                .get(slice.phase as usize)
                .map(|p| p.layer.clone())
                .unwrap_or_default();
        }
        let mut traffic: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for x in captured {
            // A row lands in one segment unless it is out of bounds; split
            // it at segment ends so every word counts where it landed.
            let (mut addr, end) = (x.addr, x.words().end);
            while addr < end {
                let (seg, stop) = compiled
                    .memory_map
                    .segments
                    .iter()
                    .find(|s| addr >= s.offset && addr < s.offset + s.len_words)
                    .map_or(("unmapped", addr + 1), |s| {
                        (s.name.as_str(), end.min(s.offset + s.len_words))
                    });
                let e = traffic.entry(seg).or_insert((0, 0));
                if x.we {
                    e.1 += stop - addr;
                } else {
                    e.0 += stop - addr;
                }
                addr = stop;
            }
        }
        self.timeline.segments = traffic
            .into_iter()
            .map(|(segment, (reads, writes))| SegmentTraffic {
                segment: segment.to_string(),
                reads,
                writes,
            })
            .collect();
        if emit_trace {
            for slice in &self.timeline.phases {
                trace::virtual_event(
                    "sim",
                    "fullrtl.fsm",
                    format!("p{} {}", slice.phase, slice.layer),
                    slice.start_cycle as f64,
                    slice.cycles as f64,
                    vec![
                        ("xacts".to_string(), Json::num(slice.xacts as f64)),
                        ("stall".to_string(), Json::num(slice.stall_cycles as f64)),
                    ],
                );
            }
            for seg in &self.timeline.segments {
                trace::counter(
                    "sim",
                    format!("fullrtl.seg.{}.reads", seg.segment),
                    seg.reads as f64,
                );
                trace::counter(
                    "sim",
                    format!("fullrtl.seg.{}.writes", seg.segment),
                    seg.writes as f64,
                );
            }
        }
        self.timeline
    }
}

/// Lazily walks the compiled schedule's expected DRAM transaction stream,
/// one phase materialised at a time — the flight recorder's online
/// trigger cannot afford the whole stream of a GoogleNet-scale run.
struct ExpectedStream<'a> {
    compiled: &'a CompiledNetwork,
    main_set: &'a [MainPattern],
    phase: usize,
    buf: Vec<Xact>,
    pos: usize,
}

impl<'a> ExpectedStream<'a> {
    fn new(compiled: &'a CompiledNetwork, main_set: &'a [MainPattern]) -> ExpectedStream<'a> {
        ExpectedStream {
            compiled,
            main_set,
            phase: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn next(&mut self) -> Option<Xact> {
        while self.pos == self.buf.len() {
            let prog = self.compiled.agu_programs.get(self.phase)?;
            self.buf = expected_xacts(prog, self.main_set, self.compiled.config.lanes);
            self.pos = 0;
            self.phase += 1;
        }
        let x = self.buf[self.pos];
        self.pos += 1;
        Some(x)
    }
}

/// The quantised kernel weights of one segment in the order the weight
/// AGU streams them. A segment with weights must have a stream order of
/// exactly their length: anything else is a compiler/weight-set mismatch,
/// reported rather than papered over with the canonical order.
fn weight_stream<'q>(
    compiled: &CompiledNetwork,
    segment: &str,
    qw: &'q [i32],
) -> Result<impl Iterator<Item = i32> + 'q, DiffError> {
    let order = compiled.weight_layout.get(segment).ok_or_else(|| {
        DiffError::Rtl(format!(
            "weight segment `{segment}` has {} weights but no stream order",
            qw.len()
        ))
    })?;
    if order.len() != qw.len() {
        return Err(DiffError::Rtl(format!(
            "weight segment `{segment}`: stream order covers {} weights, the buffer holds {}",
            order.len(),
            qw.len()
        )));
    }
    Ok(order.indices().map(move |i| qw[i]))
}

/// Builds the DRAM image the host prepares: quantised input activations in
/// `input`, the reordered quantised weight stream plus biases per layer
/// segment, zeros elsewhere. Each segment's weights are quantised here,
/// once per run; the replay evaluates its layers from the returned copy.
fn build_dram_image(
    compiled: &CompiledNetwork,
    input: &Tensor,
    weights: &WeightSet,
    mask: u64,
) -> Result<(Vec<u64>, BTreeMap<String, QuantWeights>), DiffError> {
    let fmt = compiled.config.format;
    let map = &compiled.memory_map;
    let mut dram = vec![0u64; map.total_words() as usize];
    let in_seg = map
        .segment("input")
        .ok_or_else(|| DiffError::Rtl("memory map lacks an input segment".into()))?;
    let in_blob = FxBlob::from_tensor(input, fmt);
    for (i, v) in in_blob
        .data
        .iter()
        .take(in_seg.len_words as usize)
        .enumerate()
    {
        dram[in_seg.offset as usize + i] = (v.raw() as u64) & mask;
    }
    let mut quant = BTreeMap::new();
    for seg in &map.segments {
        if seg.kind != deepburning_compiler::SegmentKind::Weights {
            continue;
        }
        let Some(lw) = weights.get(&seg.name) else {
            continue;
        };
        let q = QuantWeights::new(lw, fmt);
        let words = seg.offset as usize..(seg.offset + seg.len_words) as usize;
        let stream = weight_stream(compiled, &seg.name, &q.w)?;
        for (slot, v) in dram[words]
            .iter_mut()
            .zip(stream.chain(q.b.iter().copied()))
        {
            *slot = (i64::from(v) as u64) & mask;
        }
        quant.insert(seg.name.clone(), q);
    }
    Ok((dram, quant))
}

/// Executes the whole network through the generated control fabric in one
/// continuous RTL simulation and cross-checks it bit-exactly against the
/// chained per-layer views (see the module docs for the three
/// comparisons).
///
/// # Errors
///
/// Returns [`DiffError`] if the control top fails to elaborate, the
/// coordinator exceeds the cycle cap, the memory map is missing a segment,
/// or the functional view cannot execute (missing weights/LUTs).
pub fn full_network_run(
    design: &AcceleratorDesign,
    net: &Network,
    weights: &WeightSet,
    input: &Tensor,
    opts: &FullRunOptions,
) -> Result<FullRunReport, DiffError> {
    let sink: Option<Box<dyn std::io::Write + Send>> = match &opts.vcd_stream {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| DiffError::Rtl(format!("cannot open VCD stream {path:?}: {e}")))?;
            Some(Box::new(std::io::BufWriter::new(file)))
        }
        None => None,
    };
    full_network_run_to_sink(design, net, weights, input, opts, sink)
}

/// [`full_network_run`] with the streaming-VCD sink supplied directly
/// instead of opened from [`FullRunOptions::vcd_stream`]. The waveform is
/// written incrementally into `vcd_sink` as the simulation advances —
/// never accumulated — so a byte-counting sink observes the run's true
/// peak buffering (the memory-bound CI test injects a capped writer
/// here). [`FullRunReport::vcd_path`] is only set when the sink came from
/// `opts.vcd_stream`.
///
/// # Errors
///
/// See [`full_network_run`].
pub fn full_network_run_to_sink(
    design: &AcceleratorDesign,
    net: &Network,
    weights: &WeightSet,
    input: &Tensor,
    opts: &FullRunOptions,
    vcd_sink: Option<Box<dyn std::io::Write + Send>>,
) -> Result<FullRunReport, DiffError> {
    let _span = trace::span("sim", "sim.full_rtl");
    let compiled = &design.compiled;
    let cfg = &compiled.config;
    let fmt = cfg.format;
    let wbits = cfg.word_bits.min(64);
    let mask = if wbits >= 64 {
        u64::MAX
    } else {
        (1u64 << wbits) - 1
    };
    let map = &compiled.memory_map;
    let phases = &compiled.folding.phases;
    if phases.is_empty() || compiled.agu_programs.len() != phases.len() {
        return Err(DiffError::Rtl(
            "compiled schedule has no phases to execute".into(),
        ));
    }
    // The run's host time splits into four child spans: the DRAM image,
    // elaboration, the cycle loop and the replay.
    let image_span = trace::span("sim", "sim.full_rtl.image");
    let spill = plan_spill_slots(net, cfg)
        .map_err(|e| DiffError::Rtl(format!("spill planning failed: {e}")))?;
    let (mut dram, quant) = build_dram_image(compiled, input, weights, mask)?;
    drop(image_span);

    // ---- drive the control top -------------------------------------------
    let elaborate_span = trace::span("sim", "sim.full_rtl.elaborate");
    let ctl = assemble_control_top(net, compiled);
    let mut sim = CompiledSim::compile(&ctl, &ctl.top)?;
    if opts.profile {
        sim.prof_enable();
    }
    let words = context_words(compiled);
    for (rom, idx) in [
        ("ctx_trig_main", 0),
        ("ctx_trig_data", 1),
        ("ctx_trig_weight", 2),
    ] {
        let image: Vec<u64> = words.iter().map(|w| w[idx]).collect();
        sim.load_memory(rom, &image)?;
    }
    let lanes: Vec<u64> = phases.iter().map(|p| u64::from(p.active_lanes)).collect();
    sim.load_memory("ctx_lanes", &lanes)?;
    let main_set = collect_main_patterns(compiled);
    let pw_main = AguBlock::new(
        AguClass::Main,
        32,
        collect_patterns(compiled, AguClass::Main),
    )
    .pattern_index_width();
    let mut off_image = vec![0u64; phases.len() << pw_main];
    for (p, offs) in context_offsets(compiled).iter().enumerate() {
        for (slot, &off) in offs.iter().enumerate() {
            off_image[(p << pw_main) | slot] = off;
        }
    }
    sim.load_memory("ctx_off_main", &off_image)?;
    let mut vcd_path = None;
    let streaming = vcd_sink.is_some();
    if let Some(sink) = vcd_sink {
        sim.vcd_begin_streaming(&ctl.top, sink);
        vcd_path = opts.vcd_stream.clone();
    } else if opts.capture_vcd {
        sim.vcd_begin(&ctl.top);
    }
    // Flight recorder: watch the coordinator FSM, the AGU valids and the
    // DRAM command and handshake wires; trigger on the first accepted
    // transaction that departs from the compiled schedule, so divergence
    // bundles carry the window *before* the failure without a second run.
    let mut flight = (opts.flight_depth > 0).then(|| {
        let watch: Vec<(String, u32)> = [
            "phase_w",
            "busy_w",
            "fire_w",
            "phase_done",
            "done",
            "dram_req",
            "dram_ready",
            "dram_addr",
            "dram_len",
            "dram_we",
            "agu_main_valid",
            "agu_data_valid",
            "agu_weight_valid",
        ]
        .iter()
        .filter_map(|n| sim.signal_width(n).map(|w| (n.to_string(), w)))
        .collect();
        FlightRecorder::new(&ctl.top, watch, opts.flight_depth)
    });
    // Resolve every signal the cycle loop touches once, up front.
    let watch_ids = match &flight {
        Some(fr) => fr
            .watched()
            .map(|n| sim.signal(n))
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    let mut row = Vec::with_capacity(watch_ids.len());
    let done = sim.signal("done")?;
    let dram_req = sim.signal("dram_req")?;
    let dram_addr = sim.signal("dram_addr")?;
    let dram_len = sim.signal("dram_len")?;
    let dram_ready = sim.signal("dram_ready")?;
    let dram_we = sim.signal("dram_we")?;
    let phase_w = sim.signal("phase_w")?;
    let perf_stall = sim.signal("perf_stall").ok();
    let mut expected_stream = ExpectedStream::new(compiled, &main_set);
    drop(elaborate_span);
    let cycles_span = trace::span("sim", "sim.full_rtl.cycles");
    sim.poke("rst", 1)?;
    sim.poke("start", 0)?;
    sim.poke("perf_sel", PERF_SEL_CYCLES)?;
    sim.clock()?;
    sim.poke("rst", 0)?;
    sim.poke("start", 1)?;
    sim.clock()?;
    sim.poke("start", 0)?;

    // The testbench memory and the fabric prediction pace rows with the
    // beat parameters the analytic timing model charges.
    let params = TimingParams::default();
    let word_bytes = cfg.word_bytes();
    let predicted_cycles: u64 = compiled
        .agu_programs
        .iter()
        .map(|prog| predicted_phase_cycles(prog, &main_set, cfg.lanes, word_bytes, &params))
        .sum();
    let cap = if opts.cycle_cap > 0 {
        opts.cycle_cap
    } else {
        predicted_cycles * 4 + 1024
    };
    let mut captured: Vec<Xact> = Vec::new();
    let mut spent = 0u64;
    let emit_trace = trace::active();
    let mut tl = TimelineBuilder::default();
    let mut pacer = DramPacer::new(&params);
    let mut ready = false;
    while sim.get(done) == 0 {
        let req = sim.get(dram_req) == 1;
        let beat = if req {
            let xact = Xact {
                addr: sim.get(dram_addr),
                we: sim.get(dram_we) == 1,
                len: sim.get(dram_len) as u32,
            };
            let accept = pacer.offer(u64::from(xact.len) * word_bytes);
            if accept != ready {
                ready = accept;
                sim.set(dram_ready, u64::from(ready))?;
            }
            if accept {
                captured.push(xact);
                // Online trigger: freeze the flight window at the first
                // transaction the compiled schedule did not predict.
                if let Some(fr) = flight.as_mut() {
                    if !fr.triggered() && expected_stream.next() != Some(xact) {
                        fr.trigger();
                    }
                }
            }
            accept
        } else {
            pacer.idle();
            false
        };
        tl.tick(
            spent,
            sim.get(phase_w),
            req,
            beat,
            perf_stall.is_some_and(|id| sim.get(id) == 1),
            emit_trace,
        );
        if let Some(fr) = flight.as_mut() {
            row.clear();
            row.extend(watch_ids.iter().map(|&id| sim.get(id)));
            fr.sample(&row);
        }
        sim.clock()?;
        spent += 1;
        if spent > cap {
            let at = sim.get(phase_w);
            return Err(DiffError::Rtl(format!(
                "coordinator never finished: {spent} cycles (cap {cap}), stuck at phase {at}"
            )));
        }
    }
    let timeline = tl.finish(spent, compiled, &captured, emit_trace);

    // ---- counter readback -------------------------------------------------
    // `en` follows `busy_w`, which has dropped, so these extra edges do not
    // disturb the counts.
    let mut read_reg = |sel: u64| -> Result<u64, DiffError> {
        sim.poke("perf_sel", sel)?;
        sim.clock()?;
        Ok(sim.read("perf_rdata")?)
    };
    let rtl_counters = CounterSet {
        cycles: read_reg(PERF_SEL_CYCLES)?,
        active_cycles: read_reg(PERF_SEL_ACTIVE)?,
        stall_cycles: read_reg(PERF_SEL_STALL)?,
        mac_ops: read_reg(PERF_SEL_MACS)?,
        buffer_reads: read_reg(PERF_SEL_BUF_READS)?,
        buffer_writes: read_reg(PERF_SEL_BUF_WRITES)?,
        agu_bursts: read_reg(PERF_SEL_BURSTS)?,
        buffer_peak_words: read_reg(PERF_SEL_PEAK)?,
    };
    // Buffered captures return the text; streamed captures flush their
    // sink and return `None` (the file at `vcd_path` has the document).
    let vcd = if streaming || opts.capture_vcd {
        sim.vcd_end()
    } else {
        None
    };
    drop(cycles_span);

    // ---- replay the captured stream against the software DRAM ------------
    let replay_span = trace::span("sim", "sim.full_rtl.replay");
    let mut divergences: Vec<Divergence> = Vec::new();
    let mut refed: Vec<String> = Vec::new();
    let mut outputs: BTreeMap<String, FxBlob> = BTreeMap::new();
    let mut blobs: BTreeMap<String, FxBlob> = BTreeMap::new();
    let mut marshal_checked: BTreeSet<(String, String)> = BTreeSet::new();
    let mut pos = 0usize;
    let empty_sources: Vec<(String, BlobPlace)> = Vec::new();
    // Layers without phases (Input, dropout at inference) still produce
    // blobs; the cursor evaluates them in network order as the phase walk
    // passes them by.
    let layer_list = net.layers();
    let mut cursor = 0usize;
    let eval_layer = |l: &deepburning_model::Layer,
                      blobs: &mut BTreeMap<String, FxBlob>,
                      outputs: &mut BTreeMap<String, FxBlob>|
     -> Result<(), DiffError> {
        let (lw, qw) = (weights.get(&l.name), quant.get(&l.name));
        let out = eval_fx_layer(l, blobs, lw, qw, input, &compiled.luts, fmt)?;
        for top in &l.tops {
            blobs.insert(top.clone(), out.clone());
        }
        outputs.insert(l.name.clone(), out);
        Ok(())
    };
    for phase in phases {
        let prog = &compiled.agu_programs[phase.id];
        let layer = net.layer(&phase.layer).ok_or_else(|| {
            DiffError::Rtl(format!("phase references unknown layer {}", phase.layer))
        })?;
        let expected = expected_xacts(prog, &main_set, cfg.lanes);
        let sources = spill.sources.get(&phase.layer).unwrap_or(&empty_sources);
        let dest = spill
            .dest
            .get(&phase.layer)
            .map(|(_, p)| *p)
            .unwrap_or(BlobPlace::Spill(0));
        let roles = classify_patterns(prog, &phase.layer, sources, dest, map);

        // 1. Stream comparison: the hardware must emit exactly the
        // compiled program, in launch order.
        let got = captured.get(pos..(pos + expected.len()).min(captured.len()));
        let mismatch = match got {
            Some(slice) if slice.len() == expected.len() => {
                expected.iter().zip(slice).position(|(e, g)| e != g)
            }
            _ => Some(got.map(<[Xact]>::len).unwrap_or(0)),
        };
        if let Some(k) = mismatch {
            let none = Xact {
                addr: 0,
                we: false,
                len: 0,
            };
            let got = captured.get(pos + k).copied().unwrap_or(none);
            let want = expected.get(k).copied().unwrap_or(none);
            divergences.push(Divergence {
                layer: phase.layer.clone(),
                kind: kind_tag(&layer.kind).to_string(),
                views: (View::Rtl, View::FullRtl),
                index: k,
                lhs: want.addr as f64,
                rhs: got.addr as f64,
                tolerance: 0.0,
                detail: format!(
                    "phase {} fold {}: DRAM transaction {k} expected addr {:#x} we={} len={}, got addr {:#x} we={} len={}",
                    phase.id,
                    phase.fold,
                    want.addr,
                    want.we as u8,
                    want.len,
                    got.addr,
                    got.we as u8,
                    got.len
                ),
            });
            if !refed.contains(&phase.layer) {
                refed.push(phase.layer.clone());
            }
        }
        pos = (pos + expected.len()).min(captured.len());

        // 2. Marshal comparison + functional evaluation, first phase of
        // the layer only (later folds refetch the same bottoms).
        let first_phase = !outputs.contains_key(&phase.layer);
        if first_phase {
            // Catch up on phase-less predecessors (Input first of all) so
            // this layer's bottoms exist before the marshal check reads
            // them.
            while cursor < layer_list.len() && layer_list[cursor].name != phase.layer {
                let l = &layer_list[cursor];
                if !outputs.contains_key(&l.name) {
                    eval_layer(l, &mut blobs, &mut outputs)?;
                }
                cursor += 1;
            }
            for (i, role) in roles.iter().enumerate() {
                let PatternRole::Fetch(blob, place) = role else {
                    continue;
                };
                let key = (phase.layer.clone(), blob.clone());
                if marshal_checked.contains(&key) {
                    continue;
                }
                marshal_checked.insert(key);
                let Some(want) = blobs.get(blob) else {
                    continue;
                };
                let base = seg_base(map, *place) + spill.place_offset(*place);
                let words = prog
                    .main_rows(i, cfg.lanes)
                    .flat_map(|(addr, len)| addr..addr + u64::from(len));
                for (j, addr) in words.enumerate() {
                    let got_raw = dram
                        .get(addr as usize)
                        .map(|&w| sign_extend(w, wbits))
                        .unwrap_or(i64::MIN);
                    let Some(wv) = want.data.get(j) else { break };
                    if wv.raw() != got_raw {
                        divergences.push(Divergence {
                            layer: phase.layer.clone(),
                            kind: kind_tag(&layer.kind).to_string(),
                            views: (View::Functional, View::FullRtl),
                            index: j,
                            lhs: wv.to_f64(),
                            rhs: Fx::from_raw(got_raw, fmt).to_f64(),
                            tolerance: 0.0,
                            detail: format!(
                                "bottom `{blob}` marshalled from {place:?} (segment word {}): raw {:#x} vs {:#x}",
                                addr.saturating_sub(base),
                                wv.raw(),
                                got_raw
                            ),
                        });
                        if !refed.contains(&phase.layer) {
                            refed.push(phase.layer.clone());
                        }
                        break;
                    }
                }
            }
            // Evaluate the layer from the (possibly re-fed) functional
            // bottoms *after* the marshal check — in-place layers
            // overwrite their bottom blob.
            eval_layer(layer, &mut blobs, &mut outputs)?;
            if cursor < layer_list.len() && layer_list[cursor].name == phase.layer {
                cursor += 1;
            }
        }

        // 3. Write-back emulation: land this fold's output slice in the
        // DRAM image at the compiled addresses, exactly as the datapath
        // behind the verified stream would.
        if let Some(out) = outputs.get(&phase.layer) {
            let wb_base = seg_base(map, dest) + spill.place_offset(dest);
            for addr in expected.iter().filter(|x| x.we).flat_map(|x| x.words()) {
                let idx = addr.saturating_sub(wb_base) as usize;
                if let (Some(slot), Some(v)) = (dram.get_mut(addr as usize), out.data.get(idx)) {
                    *slot = (v.raw() as u64) & mask;
                }
            }
        }
    }

    // Trailing traffic the schedule does not account for is a control bug.
    if pos < captured.len() {
        divergences.push(Divergence {
            layer: "coordinator".into(),
            kind: "control".into(),
            views: (View::Rtl, View::FullRtl),
            index: pos,
            lhs: 0.0,
            rhs: (captured.len() - pos) as f64,
            tolerance: 0.0,
            detail: format!(
                "{} DRAM transactions past the end of the compiled schedule",
                captured.len() - pos
            ),
        });
    }

    // Finish the functional walk past the last phased layer so the output
    // comparison has the final blob even when a phase-less layer closes
    // the network.
    while cursor < layer_list.len() {
        let l = &layer_list[cursor];
        if !outputs.contains_key(&l.name) {
            eval_layer(l, &mut blobs, &mut outputs)?;
        }
        cursor += 1;
    }

    // ---- output-segment comparison ----------------------------------------
    let mut output_words = 0usize;
    if let (Some(out_seg), Some(final_blob)) = (
        map.segment("output"),
        net.output_blobs().last().and_then(|b| blobs.get(b)),
    ) {
        for (i, v) in final_blob
            .data
            .iter()
            .take(out_seg.len_words as usize)
            .enumerate()
        {
            output_words += 1;
            let got_raw = dram
                .get(out_seg.offset as usize + i)
                .map(|&w| sign_extend(w, wbits))
                .unwrap_or(i64::MIN);
            if v.raw() != got_raw && divergences.len() < 64 {
                divergences.push(Divergence {
                    layer: "output".into(),
                    kind: "output".into(),
                    views: (View::Functional, View::FullRtl),
                    index: i,
                    lhs: v.to_f64(),
                    rhs: Fx::from_raw(got_raw, fmt).to_f64(),
                    tolerance: 0.0,
                    detail: format!(
                        "output segment word {i}: raw {:#x} vs {:#x}",
                        v.raw(),
                        got_raw
                    ),
                });
            }
        }
    }
    drop(replay_span);

    // ---- cycle cross-check -------------------------------------------------
    let cycle_slack = CYCLE_SLACK_PER_PHASE * phases.len() as u64;
    if rtl_counters.cycles.abs_diff(predicted_cycles) > cycle_slack {
        divergences.push(Divergence {
            layer: "coordinator".into(),
            kind: "control".into(),
            views: (View::Timing, View::FullRtl),
            index: 0,
            lhs: predicted_cycles as f64,
            rhs: rtl_counters.cycles as f64,
            tolerance: cycle_slack as f64,
            detail: format!(
                "full-run busy cycles {} vs fabric prediction {predicted_cycles} (slack {cycle_slack})",
                rtl_counters.cycles
            ),
        });
    }
    if trace::active() {
        trace::counter("sim", "fullrtl.cycles", rtl_counters.cycles as f64);
        trace::counter("sim", "fullrtl.xacts", captured.len() as f64);
    }

    // The stream trigger fires online at the first transaction departing
    // from the schedule. Marshal/output divergences replay against the
    // *scheduled* addresses and only surface here — for those the best
    // bounded evidence is the end-of-run window, so freeze it now.
    if let Some(fr) = flight.as_mut() {
        if (!divergences.is_empty() || opts.flight_force) && !fr.triggered() {
            fr.trigger();
        }
    }
    let flight_window = flight.as_ref().and_then(FlightRecorder::render_vcd);
    let profile = if opts.profile {
        sim.prof_profile()
    } else {
        None
    };

    Ok(FullRunReport {
        network: net.name().to_string(),
        budget: design.budget.tag().to_string(),
        cycles: rtl_counters.cycles,
        predicted_cycles,
        cycle_slack,
        rtl_counters,
        divergences,
        refed_layers: refed,
        output_words,
        vcd,
        vcd_path,
        flight_window,
        timeline,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_compiler::CompilerConfig;
    use deepburning_core::{generate_with_config, Budget};
    use deepburning_model::parse_network;
    use deepburning_tensor::Init;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const SRC: &str = r#"
    name: "fullrun-test"
    layers { name: "data" type: INPUT top: "data"
             input_param { channels: 1 height: 10 width: 10 } }
    layers { name: "conv" type: CONVOLUTION bottom: "data" top: "conv"
             param { num_output: 4 kernel_size: 3 stride: 1 } }
    layers { name: "relu" type: RELU bottom: "conv" top: "conv" }
    layers { name: "pool" type: POOLING bottom: "conv" top: "pool"
             pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
    layers { name: "fc" type: FC bottom: "pool" top: "fc"
             param { num_output: 6 } }
    "#;

    /// A feature buffer too small to keep the conv output resident, so
    /// mid-network activations genuinely round-trip through the `spill`
    /// segment — the traffic the full run exists to exercise.
    fn fixture() -> (Network, AcceleratorDesign, WeightSet, Tensor) {
        let net = parse_network(SRC).expect("parses");
        let cfg = CompilerConfig {
            lanes: 8,
            feature_buffer_bytes: 256,
            weight_buffer_bytes: 2048,
            ..CompilerConfig::default()
        };
        let design = generate_with_config(&net, &Budget::Small, &cfg).expect("generates");
        let mut rng = StdRng::seed_from_u64(7);
        let ws = WeightSet::init(&net, Init::Xavier, &mut rng).expect("init");
        let input = Tensor::from_fn(net.input_shape(), |_, _, _| rng.gen_range(-1.0..1.0f32));
        (net, design, ws, input)
    }

    #[test]
    fn full_network_run_is_clean_and_exact() {
        let (net, design, ws, input) = fixture();
        let report =
            full_network_run(&design, &net, &ws, &input, &FullRunOptions::default()).expect("runs");
        assert!(report.is_clean(), "divergences: {:?}", report.divergences);
        assert!(report.output_words > 0);
        assert!(report.refed_layers.is_empty());
        assert!(report.rtl_counters.mac_ops > 0);
    }

    /// Pins `PHASE_HANDSHAKE_CYCLES` against the RTL: the fabric model must
    /// predict the measured busy-cycle count exactly, not just within
    /// slack — any FSM retiming has to update the constant *and* the
    /// DESIGN.md §13 contract.
    #[test]
    fn cycles_match_fabric_prediction_exactly() {
        let (net, design, ws, input) = fixture();
        let report =
            full_network_run(&design, &net, &ws, &input, &FullRunOptions::default()).expect("runs");
        assert_eq!(
            report.cycles, report.predicted_cycles,
            "handshake constant drifted from the RTL"
        );
    }

    /// A stream order that disagrees with the weight buffer, or a weighted
    /// segment without one, is a typed error naming the segment — never a
    /// silent fallback to the canonical order.
    #[test]
    fn weight_order_mismatch_is_an_error() {
        let (net, mut design, ws, input) = fixture();
        let opts = FullRunOptions::default();
        let order = design
            .compiled
            .weight_layout
            .get_mut("fc")
            .expect("fc order");
        order.units += 1;
        let err = full_network_run(&design, &net, &ws, &input, &opts).expect_err("wrong length");
        assert!(
            matches!(&err, DiffError::Rtl(m) if m.contains("`fc`") && m.contains("covers")),
            "{err}"
        );
        design.compiled.weight_layout.remove("fc");
        let err = full_network_run(&design, &net, &ws, &input, &opts).expect_err("no order");
        assert!(
            matches!(&err, DiffError::Rtl(m) if m.contains("`fc`") && m.contains("no stream order")),
            "{err}"
        );
    }

    /// The PR 5 spill-segment AGU bug, re-injected *dynamically*: a
    /// mid-network layer's bottom fetch is pointed back at the `input`
    /// segment (the pre-fix behaviour). The static lint cannot see the
    /// defect here because the ROMs are rebuilt from the patched program —
    /// the full-network run must catch it as a marshalling divergence.
    #[test]
    fn spill_fetch_from_input_segment_is_caught() {
        let (net, mut design, ws, input) = fixture();
        let spill = plan_spill_slots(&net, &design.compiled.config).expect("plan");
        // Find a phase whose layer fetches a spilled (non-Input) bottom.
        let victim = design
            .compiled
            .folding
            .phases
            .iter()
            .find(|ph| {
                !ph.input_resident
                    && spill
                        .sources
                        .get(&ph.layer)
                        .is_some_and(|s| s.iter().any(|(_, p)| matches!(p, BlobPlace::Spill(_))))
            })
            .map(|ph| (ph.id, ph.layer.clone()))
            .expect("a mid-network phase fetches from spill");
        let input_off = design
            .compiled
            .memory_map
            .segment("input")
            .expect("input segment")
            .offset;
        // Every fetch of the victim layer that streams from `spill` is
        // redirected to the input segment at offset 0 — the pre-fix AGU
        // program, byte for byte.
        let spill_seg = design
            .compiled
            .memory_map
            .segment("spill")
            .expect("spill segment")
            .offset;
        let mut patched = 0;
        for prog in &mut design.compiled.agu_programs {
            if design.compiled.folding.phases[prog.phase].layer != victim.1 {
                continue;
            }
            for i in 0..prog.main.len() {
                if !prog.main_write[i] && prog.main[i].start == spill_seg {
                    prog.main[i].start = input_off;
                    prog.main[i].offset = 0;
                    patched += 1;
                }
            }
        }
        assert!(patched > 0, "victim layer has a spill fetch to patch");
        let report =
            full_network_run(&design, &net, &ws, &input, &FullRunOptions::default()).expect("runs");
        assert!(!report.is_clean(), "injected defect must be caught");
        assert!(
            report.refed_layers.contains(&victim.1),
            "bisection must localise the defect to `{}`: {:?}",
            victim.1,
            report.refed_layers
        );
        assert!(report
            .divergences
            .iter()
            .any(|d| d.layer == victim.1 && d.views == (View::Functional, View::FullRtl)));
    }

    /// The observed timeline must tile the run: one slice per FSM phase
    /// in order, slice cycles summing to the busy-cycle counter, DRAM
    /// traffic attributed to real memory-map segments, and the histograms
    /// covering every phase.
    #[test]
    fn timeline_tiles_the_run_exactly() {
        let (net, design, ws, input) = fixture();
        let report =
            full_network_run(&design, &net, &ws, &input, &FullRunOptions::default()).expect("runs");
        let tl = &report.timeline;
        assert_eq!(
            tl.phases.len(),
            design.compiled.folding.phases.len(),
            "one slice per scheduled phase"
        );
        for (i, slice) in tl.phases.iter().enumerate() {
            assert_eq!(slice.phase, i as u64, "phases observed in order");
            assert_eq!(
                slice.layer, design.compiled.folding.phases[i].layer,
                "slice maps back to its layer"
            );
            assert!(slice.cycles > 0);
        }
        // The FSM runs one idle cycle before `busy` rises; the slices
        // must cover the busy window the counter measured.
        assert!(
            tl.total_cycles() >= report.cycles && tl.total_cycles() <= report.cycles + 2,
            "slices ({}) must tile the busy window ({})",
            tl.total_cycles(),
            report.cycles
        );
        assert_eq!(tl.phase_cycles.count(), tl.phases.len() as u64);
        assert_eq!(tl.stall_cycles.count(), tl.phases.len() as u64);
        assert!(tl.burst_lengths.count() > 0, "the run moved DRAM words");
        let names: Vec<&str> = tl.segments.iter().map(|s| s.segment.as_str()).collect();
        assert!(names.contains(&"input"), "{names:?}");
        assert!(names.contains(&"output"), "{names:?}");
        assert!(
            !names.contains(&"unmapped"),
            "every transaction lands in a mapped segment: {names:?}"
        );
        // Phases count accepted rows, segments the words those rows move.
        let lanes = design.compiled.config.lanes;
        let (rows, words) = design
            .compiled
            .agu_programs
            .iter()
            .flat_map(|p| (0..p.main.len()).flat_map(move |i| p.main_rows(i, lanes)))
            .fold((0u64, 0u64), |(r, w), (_, len)| (r + 1, w + u64::from(len)));
        let total_words: u64 = tl.segments.iter().map(|s| s.reads + s.writes).sum();
        let per_phase: u64 = tl.phases.iter().map(|p| p.xacts).sum();
        assert_eq!(per_phase, rows, "phase view counts every row");
        assert_eq!(total_words, words, "segment view counts every word");
        assert!(rows < words, "rows carry several words each");
        let j = tl.to_json();
        assert!(j.get("phase_cycles").and_then(|h| h.get("p95")).is_some());
    }

    /// Clean runs carry no flight window; a diverging run freezes the
    /// window at the first bad transaction, pre-trigger cycles included.
    #[test]
    fn flight_recorder_freezes_on_stream_divergence() {
        let (net, mut design, ws, input) = fixture();
        let clean =
            full_network_run(&design, &net, &ws, &input, &FullRunOptions::default()).expect("runs");
        assert!(clean.flight_window.is_none(), "clean run must not trigger");
        // Corrupt one mid-stream fetch address (as in the spill test).
        let spill_seg = design
            .compiled
            .memory_map
            .segment("spill")
            .expect("spill segment")
            .offset;
        let mut patched = false;
        'outer: for prog in &mut design.compiled.agu_programs {
            for i in 0..prog.main.len() {
                if !prog.main_write[i] && prog.main[i].start == spill_seg {
                    prog.main[i].offset += 1;
                    patched = true;
                    break 'outer;
                }
            }
        }
        assert!(patched, "fixture must have a spill fetch to corrupt");
        let report =
            full_network_run(&design, &net, &ws, &input, &FullRunOptions::default()).expect("runs");
        assert!(!report.is_clean());
        let w = report
            .flight_window
            .expect("diverging run freezes a window");
        assert!(w.first_cycle <= w.trigger_cycle && w.trigger_cycle <= w.last_cycle);
        assert!(w.vcd.contains("phase_w"), "window shows the FSM: {}", w.vcd);
        assert!(w.vcd.contains("dram_addr"), "{}", w.vcd);
        assert!(
            w.last_cycle - w.first_cycle < DEFAULT_FLIGHT_DEPTH as u64 + 8,
            "window stays bounded"
        );
    }

    /// Streaming writes the same bytes to disk that the buffered capture
    /// returns, and the report records the path instead of the text.
    #[test]
    fn streamed_vcd_file_matches_buffered_capture() {
        let (net, design, ws, input) = fixture();
        let buffered = full_network_run(
            &design,
            &net,
            &ws,
            &input,
            &FullRunOptions {
                capture_vcd: true,
                ..FullRunOptions::default()
            },
        )
        .expect("buffered run");
        let text = buffered.vcd.as_deref().expect("buffered vcd text");
        let path = std::env::temp_dir().join(format!(
            "deepburning-fullrun-stream-{}.vcd",
            std::process::id()
        ));
        let streamed = full_network_run(
            &design,
            &net,
            &ws,
            &input,
            &FullRunOptions {
                vcd_stream: Some(path.clone()),
                ..FullRunOptions::default()
            },
        )
        .expect("streamed run");
        assert!(streamed.vcd.is_none(), "streamed run buffers nothing");
        assert_eq!(streamed.vcd_path.as_deref(), Some(path.as_path()));
        let bytes = std::fs::read(&path).expect("streamed file exists");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            String::from_utf8(bytes).expect("utf8"),
            text,
            "streamed file and buffered text must be byte-identical"
        );
    }

    /// A coordinator that double-advances (the `phase_done` gating bug)
    /// would halve the busy-cycle count and skip half the transfers — the
    /// cycle cross-check and the stream comparison both exist to catch
    /// that class. Simulate the symptom by predicting with a wrong
    /// handshake and confirm the check has teeth.
    #[test]
    fn cycle_check_is_tighter_than_a_double_advance() {
        let (net, design, ws, input) = fixture();
        let report =
            full_network_run(&design, &net, &ws, &input, &FullRunOptions::default()).expect("runs");
        // A double-advancing coordinator skips every other phase and
        // loses roughly half the predicted cycles; the documented slack
        // must stay well inside that.
        assert!(
            report.cycle_slack < report.predicted_cycles / 2,
            "slack {} too loose vs predicted {}",
            report.cycle_slack,
            report.predicted_cycles
        );
    }
}
