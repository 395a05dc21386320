//! Memory-map construction and AGU program synthesis.
//!
//! The compiler decides where every data set lives in off-chip memory,
//! then derives the deterministic address patterns each AGU class must
//! support for every phase. The pattern descriptors are handed to the
//! hardware generator, which reduces the template AGU (Fig. 6) to exactly
//! this pattern set.

use crate::config::CompilerConfig;
use crate::folding::{FoldingPlan, PhaseKind};
use crate::tiling::{plan_tiling, TilePlan};
use crate::CompileError;
use deepburning_components::AguPattern;
use deepburning_model::{LayerKind, Network, NetworkError, Shape};
use std::collections::BTreeMap;

/// Where a (versioned) activation blob lives in DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlobPlace {
    /// The network input segment.
    Input,
    /// The network output segment.
    Output,
    /// A slot inside the `spill` segment; the word offset within the
    /// segment is `slot × SpillPlan::slot_words`.
    Spill(u64),
}

/// Liveness-driven slot assignment for spilled inter-layer activations.
///
/// Every production of a blob is treated as a fresh version (in-place
/// layers read version *v* and write version *v+1*), and each spilled
/// version gets a slot that stays reserved until its last consumer has
/// run. This is what makes the spill segment's double buffering real:
/// a producer never writes into the slot a consumer (or its own input
/// refetch) is still reading. The final version of each network output
/// blob lives in the `output` segment instead — the last layer's
/// write-back used to land in `spill`, leaving `output` permanently
/// stale.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpillPlan {
    /// Words per slot (the largest blob, aligned to the port width).
    pub slot_words: u64,
    /// Number of slots the `spill` segment provides.
    pub slots: u64,
    /// Per layer: each bottom blob and where it is fetched from.
    pub sources: BTreeMap<String, Vec<(String, BlobPlace)>>,
    /// Per layer: the top blob and where its write-back lands.
    pub dest: BTreeMap<String, (String, BlobPlace)>,
}

impl SpillPlan {
    /// Word offset of `place` within its segment.
    pub fn place_offset(&self, place: BlobPlace) -> u64 {
        match place {
            BlobPlace::Input | BlobPlace::Output => 0,
            BlobPlace::Spill(slot) => slot * self.slot_words,
        }
    }
}

/// Computes the spill-slot plan for a network (see [`SpillPlan`]).
///
/// # Errors
///
/// Propagates shape-inference failures.
pub fn plan_spill_slots(net: &Network, cfg: &CompilerConfig) -> Result<SpillPlan, NetworkError> {
    let shapes = net.infer_shapes()?;
    let align = cfg.port_width_words.max(1) as u64;
    let largest = shapes
        .values()
        .map(|s| s.elements() as u64)
        .max()
        .unwrap_or(1);
    let slot_words = largest.max(1).div_ceil(align) * align;

    // Pass 1: version every blob production and record liveness.
    struct Rec {
        last_use: usize,
        place: Option<BlobPlace>,
    }
    let mut cur: BTreeMap<String, usize> = BTreeMap::new();
    let mut recs: BTreeMap<(String, usize), Rec> = BTreeMap::new();
    // Per layer: resolved (blob, version) keys for bottoms and top.
    let mut layer_bottoms: Vec<(String, Vec<(String, usize)>)> = Vec::new();
    let mut layer_top: Vec<(String, Option<(String, usize)>)> = Vec::new();
    for (idx, layer) in net.layers().iter().enumerate() {
        let is_input = matches!(layer.kind, LayerKind::Input { .. });
        let mut bots = Vec::new();
        if !is_input {
            for b in &layer.bottoms {
                let ver = cur.get(b).copied().unwrap_or(0);
                let rec = recs.entry((b.clone(), ver)).or_insert(Rec {
                    last_use: idx,
                    place: None,
                });
                rec.last_use = idx;
                bots.push((b.clone(), ver));
            }
        }
        let mut top_key = None;
        for t in &layer.tops {
            let ver = cur.get(t).map(|v| v + 1).unwrap_or(0);
            cur.insert(t.clone(), ver);
            recs.insert(
                (t.clone(), ver),
                Rec {
                    last_use: idx,
                    place: if is_input {
                        Some(BlobPlace::Input)
                    } else {
                        None
                    },
                },
            );
            if top_key.is_none() {
                top_key = Some((t.clone(), ver));
            }
        }
        layer_bottoms.push((layer.name.clone(), bots));
        layer_top.push((layer.name.clone(), if is_input { None } else { top_key }));
    }
    // The final version of each output blob lands in the output segment.
    for out in net.output_blobs() {
        if let Some(&ver) = cur.get(&out) {
            if let Some(rec) = recs.get_mut(&(out.clone(), ver)) {
                if rec.place.is_none() {
                    rec.place = Some(BlobPlace::Output);
                }
            }
        }
    }

    // Pass 2: greedy slot allocation in layer order; a slot frees once its
    // blob's last consumer has run.
    let mut active: Vec<(u64, usize)> = Vec::new(); // (slot, last_use)
    let mut free: Vec<u64> = Vec::new();
    let mut next_slot = 0u64;
    for (idx, layer) in net.layers().iter().enumerate() {
        active.retain(|&(slot, last_use)| {
            if last_use < idx {
                free.push(slot);
                false
            } else {
                true
            }
        });
        for t in &layer.tops {
            let ver = match layer_top[idx].1 {
                Some((ref name, ver)) if name == t => ver,
                _ => continue,
            };
            let rec = recs.get_mut(&(t.clone(), ver)).expect("recorded above");
            if rec.place.is_none() {
                free.sort_unstable();
                let slot = if let Some(s) = free.first().copied() {
                    free.remove(0);
                    s
                } else {
                    let s = next_slot;
                    next_slot += 1;
                    s
                };
                rec.place = Some(BlobPlace::Spill(slot));
                active.push((slot, rec.last_use));
            }
        }
    }
    let slots = active
        .iter()
        .map(|&(s, _)| s + 1)
        .chain(free.iter().map(|&s| s + 1))
        .max()
        .unwrap_or(0)
        .max(2);

    // Resolve per-layer source/dest places.
    let place_of = |key: &(String, usize)| -> BlobPlace {
        recs.get(key)
            .and_then(|r| r.place)
            .unwrap_or(BlobPlace::Spill(0))
    };
    let mut sources = BTreeMap::new();
    let mut dest = BTreeMap::new();
    for (i, (lname, bots)) in layer_bottoms.iter().enumerate() {
        sources.insert(
            lname.clone(),
            bots.iter()
                .map(|k| (k.0.clone(), place_of(k)))
                .collect::<Vec<_>>(),
        );
        if let (_, Some(top_key)) = &layer_top[i] {
            dest.insert(lname.clone(), (top_key.0.clone(), place_of(top_key)));
        }
    }
    Ok(SpillPlan {
        slot_words,
        slots,
        sources,
        dest,
    })
}

/// What a DRAM segment holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// The network's input feature data.
    Input,
    /// Trained weights of one layer.
    Weights,
    /// Spill space for inter-layer activations.
    Activations,
    /// The network output.
    Output,
}

/// One region of the off-chip memory map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Segment name (layer name for weights, `input`/`spill`/`output`).
    pub name: String,
    /// Word offset in DRAM.
    pub offset: u64,
    /// Length in words.
    pub len_words: u64,
    /// Content class.
    pub kind: SegmentKind,
}

/// The DRAM layout the ARM core prepares before starting the accelerator.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryMap {
    /// Segments in ascending address order.
    pub segments: Vec<Segment>,
}

impl MemoryMap {
    /// Finds a segment by name.
    pub fn segment(&self, name: &str) -> Option<&Segment> {
        self.segments.iter().find(|s| s.name == name)
    }

    /// Total mapped words.
    pub fn total_words(&self) -> u64 {
        self.segments.iter().map(|s| s.len_words).sum()
    }

    /// Whether segments are disjoint and sorted — the map's invariant.
    pub fn is_consistent(&self) -> bool {
        self.segments
            .windows(2)
            .all(|w| w[0].offset + w[0].len_words <= w[1].offset)
    }
}

/// Builds the memory map: input, per-layer weights, activation spill,
/// output — each aligned to the port width.
///
/// # Errors
///
/// Propagates shape-inference failures.
pub fn build_memory_map(net: &Network, cfg: &CompilerConfig) -> Result<MemoryMap, NetworkError> {
    let stats = deepburning_model::network_stats(net)?;
    let align = cfg.port_width_words.max(1) as u64;
    let round = |v: u64| v.div_ceil(align) * align;
    let mut segments = Vec::new();
    let mut cursor = 0u64;
    let mut push = |name: String, len: u64, kind: SegmentKind, cursor: &mut u64| {
        let len = round(len.max(1));
        segments.push(Segment {
            name,
            offset: *cursor,
            len_words: len,
            kind,
        });
        *cursor += len;
    };
    push(
        "input".into(),
        net.input_shape().elements() as u64,
        SegmentKind::Input,
        &mut cursor,
    );
    for layer in net.layers() {
        if layer.kind.has_weights() {
            let w = stats
                .layer(&layer.name)
                .map(|s| s.weights)
                .unwrap_or_default();
            push(layer.name.clone(), w, SegmentKind::Weights, &mut cursor);
        }
    }
    // Spill region: one slot per live inter-layer blob (at least two, so
    // a producer/consumer pair always ping-pongs), sized by the liveness
    // plan rather than a flat "largest × 2" guess.
    let spill = plan_spill_slots(net, cfg)?;
    push(
        "spill".into(),
        spill.slots * spill.slot_words,
        SegmentKind::Activations,
        &mut cursor,
    );
    let out_words = net.output_shape()?.elements() as u64;
    push("output".into(), out_words, SegmentKind::Output, &mut cursor);
    Ok(MemoryMap { segments })
}

/// The AGU programs of one phase: patterns per AGU class.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AguProgram {
    /// Phase id this program belongs to.
    pub phase: usize,
    /// Main AGU (DRAM ↔ buffer) patterns. They are row-granular: each
    /// address is the first word of one DRAM transaction that moves a
    /// whole lane row (`x_stride = lanes`), so a region of `w` words is
    /// `ceil(w / lanes)` transactions.
    pub main: Vec<AguPattern>,
    /// Transfer direction per `main` pattern: `true` for DRAM writes
    /// (spill/output write-back), `false` for fetches. The top level
    /// turns this into the per-pattern `dram_we` mask — without it every
    /// main transaction, reads included, strobed the DRAM write enable.
    pub main_write: Vec<bool>,
    /// Words the last transaction of each `main` pattern moves
    /// (`1..=lanes`): the region's remainder, so a transfer never touches
    /// a word past its region — a write-back would otherwise clobber the
    /// neighbouring slot.
    pub main_tail: Vec<u32>,
    /// Data AGU (feature buffer → datapath) patterns.
    pub data: Vec<AguPattern>,
    /// Weight AGU (weight buffer → datapath) patterns.
    pub weight: Vec<AguPattern>,
}

impl AguProgram {
    /// Appends one main pattern with its direction and last-row length.
    fn push_main(&mut self, (pattern, tail): (AguPattern, u32), write: bool) {
        self.main.push(pattern);
        self.main_write.push(write);
        self.main_tail.push(tail);
    }

    /// The DRAM transactions of `main[i]` as `(address, words)` pairs.
    pub fn main_rows(&self, i: usize, lanes: u32) -> impl Iterator<Item = (u64, u32)> + '_ {
        let tail = self.main_tail.get(i).copied().unwrap_or(lanes);
        self.main[i].rows(lanes, tail)
    }

    /// Total addresses issued by all patterns of this program.
    pub fn footprint(&self) -> u64 {
        self.main
            .iter()
            .chain(&self.data)
            .chain(&self.weight)
            .map(AguPattern::footprint)
            .sum()
    }
}

/// Per-layer tile plans for the layers that stream spatial windows.
pub fn plan_layer_tiling(
    net: &Network,
    cfg: &CompilerConfig,
) -> Result<BTreeMap<String, TilePlan>, NetworkError> {
    let shapes = net.infer_shapes()?;
    let mut plans = BTreeMap::new();
    for layer in net.layers() {
        let (k, s) = match &layer.kind {
            LayerKind::Convolution(p) => (p.kernel_size, p.stride),
            LayerKind::Pooling(p) => (p.kernel_size, p.stride),
            _ => continue,
        };
        let input: Shape = shapes[&layer.bottoms[0]];
        plans.insert(
            layer.name.clone(),
            plan_tiling(k, s, cfg.port_width_words, input.channels),
        );
    }
    Ok(plans)
}

/// Converts a stream length to the AGU's 32-bit `x_len` field, refusing
/// streams the hardware counter cannot express instead of silently
/// truncating the address program.
fn pattern_len(words: u64, phase: usize, stream: &'static str) -> Result<u32, CompileError> {
    u32::try_from(words).map_err(|_| CompileError::AguOverflow {
        phase,
        stream,
        words,
    })
}

/// A row-granular main pattern over `words` consecutive words from
/// `start + offset`: one transaction per lane row, stepping `lanes` words,
/// and the length of the last row (`1..=lanes`). Refuses regions whose
/// row count the AGU's 32-bit length counter cannot express.
fn row_pattern(
    start: u64,
    offset: u64,
    words: u64,
    lanes: u32,
    phase: usize,
    stream: &'static str,
) -> Result<(AguPattern, u32), CompileError> {
    let width = u64::from(lanes.max(1));
    let rows = words.div_ceil(width).max(1);
    let x_len = u32::try_from(rows).map_err(|_| CompileError::AguOverflow {
        phase,
        stream,
        words,
    })?;
    let tail = words.saturating_sub((rows - 1) * width).clamp(1, width) as u32;
    let pattern = AguPattern {
        start,
        offset,
        x_len,
        y_len: 1,
        x_stride: width,
        y_stride: 0,
    };
    Ok((pattern, tail))
}

/// Synthesises the per-phase AGU programs.
///
/// # Errors
///
/// Propagates shape-inference failures, and rejects networks whose
/// streams exceed the AGU's 32-bit length counters
/// ([`CompileError::AguOverflow`]).
pub fn synthesize_agus(
    net: &Network,
    plan: &FoldingPlan,
    map: &MemoryMap,
    tile_plans: &BTreeMap<String, TilePlan>,
    cfg: &CompilerConfig,
) -> Result<Vec<AguProgram>, CompileError> {
    let shapes = net.infer_shapes().map_err(CompileError::Network)?;
    let spill = plan_spill_slots(net, cfg).map_err(CompileError::Network)?;
    let seg_base = |place: BlobPlace| -> u64 {
        let name = match place {
            BlobPlace::Input => "input",
            BlobPlace::Output => "output",
            BlobPlace::Spill(_) => "spill",
        };
        map.segment(name).map(|s| s.offset).unwrap_or_default()
    };
    let mut programs = Vec::with_capacity(plan.phases.len());
    for phase in &plan.phases {
        let layer = net
            .layer(&phase.layer)
            .expect("plan references existing layers");
        let input: Shape = shapes[&layer.bottoms[0]];
        let output: Shape = shapes[&layer.tops[0]];
        let mut prog = AguProgram {
            phase: phase.id,
            ..AguProgram::default()
        };
        let in_words = input.elements() as u64;
        let out_words = output.elements() as u64;
        // Main AGU: fetch inputs (if not resident) and this fold's
        // weights; write back the output slice when it spills.
        if !phase.input_resident {
            // Each bottom streams from wherever its producing version
            // lives: the network input from `input`, anything else from
            // its spill slot. (Fetching everything from `input` used to
            // run mid-network fetches past the segment end into
            // unrelated weight segments; fetching everything from spill
            // offset 0 made every producer/consumer pair clobber the
            // same slot.)
            let fetches = spill.sources.get(&phase.layer).cloned().unwrap_or_default();
            for (blob, place) in fetches {
                let words = shapes
                    .get(&blob)
                    .map(|s| s.elements() as u64)
                    .unwrap_or(in_words);
                let fetch = row_pattern(
                    seg_base(place),
                    spill.place_offset(place),
                    words,
                    cfg.lanes,
                    phase.id,
                    "input fetch",
                )?;
                prog.push_main(fetch, false);
            }
        }
        if let Some(seg) = map.segment(&phase.layer) {
            // Round the per-fold slice up and clamp the final fold to the
            // segment end: a weight count that does not divide evenly by
            // the fold count must still be fetched completely (flooring
            // here used to drop the trailing words of the last fold).
            let fold_words = seg.len_words.div_ceil(phase.folds.max(1) as u64);
            let offset = fold_words * phase.fold as u64;
            let words = fold_words.min(seg.len_words.saturating_sub(offset));
            if words > 0 {
                let fetch = row_pattern(
                    seg.offset,
                    offset,
                    words,
                    cfg.lanes,
                    phase.id,
                    "weight fetch",
                )?;
                prog.push_main(fetch, false);
            }
        }
        if phase.output_to_dram {
            // Write back to wherever this layer's top lives: its spill
            // slot mid-network, the `output` segment for the network's
            // final activation. (The last layer used to write `spill`
            // too, leaving the output segment permanently stale.)
            let place = spill
                .dest
                .get(&phase.layer)
                .map(|(_, p)| *p)
                .unwrap_or(BlobPlace::Spill(0));
            // Same round-up-and-clamp as the weight fetch above, so the
            // write-back covers every output word.
            let slice = out_words.div_ceil(phase.folds.max(1) as u64);
            let offset = slice * phase.fold as u64;
            let words = slice.min(out_words.saturating_sub(offset));
            if words > 0 {
                let write_back = row_pattern(
                    seg_base(place),
                    spill.place_offset(place) + offset,
                    words,
                    cfg.lanes,
                    phase.id,
                    "spill write-back",
                )?;
                prog.push_main(write_back, true);
            }
        }
        // Data AGU: window walks for spatial layers, linear sweep otherwise.
        match &layer.kind {
            LayerKind::Convolution(p) => {
                let row = tile_plans
                    .get(&phase.layer)
                    .map(|t| t.port_width)
                    .unwrap_or(cfg.port_width_words) as u64;
                prog.data.push(AguPattern {
                    start: 0,
                    offset: 0,
                    x_len: p.kernel_size as u32,
                    y_len: p.kernel_size as u32,
                    x_stride: 1,
                    y_stride: row,
                });
            }
            LayerKind::Pooling(p) => {
                prog.data.push(AguPattern {
                    start: 0,
                    offset: 0,
                    x_len: p.kernel_size as u32,
                    y_len: p.kernel_size as u32,
                    x_stride: 1,
                    y_stride: input.width as u64,
                });
            }
            _ => {
                prog.data.push(AguPattern::linear(
                    0,
                    pattern_len(in_words, phase.id, "data sweep")?,
                ));
            }
        }
        // Weight AGU: one linear stream over the fold's weights.
        if phase.kind == PhaseKind::Compute {
            let words = phase.work.buffer_read_words.max(1);
            prog.weight.push(AguPattern::linear(
                0,
                pattern_len(words, phase.id, "weight sweep")?,
            ));
        }
        programs.push(prog);
    }
    Ok(programs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::folding::plan_folding;
    use deepburning_model::{ConvParam, FullParam, Layer, PoolMethod, PoolParam};

    fn net() -> Network {
        Network::from_layers(
            "t",
            vec![
                Layer::input("data", "data", 3, 16, 16),
                Layer::new(
                    "conv1",
                    LayerKind::Convolution(ConvParam::new(64, 3, 1)),
                    "data",
                    "conv1",
                ),
                Layer::new(
                    "pool1",
                    LayerKind::Pooling(PoolParam {
                        method: PoolMethod::Max,
                        kernel_size: 2,
                        stride: 2,
                    }),
                    "conv1",
                    "pool1",
                ),
                Layer::new(
                    "fc",
                    LayerKind::FullConnection(FullParam::dense(10)),
                    "pool1",
                    "fc",
                ),
            ],
        )
        .expect("valid")
    }

    /// Words a main pattern moves, summed over its transactions.
    fn region_words(prog: &AguProgram, i: usize, lanes: u32) -> u64 {
        prog.main_rows(i, lanes)
            .map(|(_, len)| u64::from(len))
            .sum()
    }

    #[test]
    fn memory_map_is_consistent() {
        let map = build_memory_map(&net(), &CompilerConfig::default()).expect("map");
        assert!(map.is_consistent());
        assert!(map.segment("input").is_some());
        assert!(map.segment("conv1").is_some());
        assert!(map.segment("fc").is_some());
        assert!(map.segment("spill").is_some());
        assert!(map.segment("output").is_some());
        assert!(map.segment("pool1").is_none(), "pooling has no weights");
    }

    #[test]
    fn memory_map_aligned_to_port() {
        let cfg = CompilerConfig {
            port_width_words: 16,
            ..CompilerConfig::default()
        };
        let map = build_memory_map(&net(), &cfg).expect("map");
        for seg in &map.segments {
            assert_eq!(seg.offset % 16, 0, "{} misaligned", seg.name);
            assert_eq!(seg.len_words % 16, 0, "{} length unaligned", seg.name);
        }
    }

    #[test]
    fn weight_segment_sizes_match_stats() {
        let map = build_memory_map(&net(), &CompilerConfig::default()).expect("map");
        let conv_w = 64 * 3 * 9 + 64; // weights + bias
        let seg = map.segment("conv1").expect("segment");
        assert!(seg.len_words >= conv_w && seg.len_words < conv_w + 16);
    }

    #[test]
    fn agu_programs_cover_every_phase() {
        let n = net();
        let cfg = CompilerConfig::default();
        let plan = plan_folding(&n, &cfg).expect("plan");
        let map = build_memory_map(&n, &cfg).expect("map");
        let tiles = plan_layer_tiling(&n, &cfg).expect("tiles");
        let programs = synthesize_agus(&n, &plan, &map, &tiles, &cfg).expect("agus");
        assert_eq!(programs.len(), plan.phases.len());
        for (prog, phase) in programs.iter().zip(&plan.phases) {
            assert_eq!(prog.phase, phase.id);
            assert!(
                !prog.data.is_empty(),
                "phase {} has no data pattern",
                phase.id
            );
        }
    }

    #[test]
    fn conv_data_pattern_is_window_walk() {
        let n = net();
        let cfg = CompilerConfig::default();
        let plan = plan_folding(&n, &cfg).expect("plan");
        let map = build_memory_map(&n, &cfg).expect("map");
        let tiles = plan_layer_tiling(&n, &cfg).expect("tiles");
        let programs = synthesize_agus(&n, &plan, &map, &tiles, &cfg).expect("agus");
        let conv_prog = &programs[0];
        let w = &conv_prog.data[0];
        assert_eq!(w.x_len, 3);
        assert_eq!(w.y_len, 3);
        assert_eq!(w.footprint(), 9);
    }

    #[test]
    fn weight_folds_advance_offset() {
        let n = net();
        let cfg = CompilerConfig {
            lanes: 32, // conv1 has 64 outputs -> 2 folds
            ..CompilerConfig::default()
        };
        let plan = plan_folding(&n, &cfg).expect("plan");
        let map = build_memory_map(&n, &cfg).expect("map");
        let tiles = plan_layer_tiling(&n, &cfg).expect("tiles");
        let programs = synthesize_agus(&n, &plan, &map, &tiles, &cfg).expect("agus");
        let fold0 = programs[0]
            .main
            .iter()
            .find(|p| p.start == map.segment("conv1").expect("seg").offset)
            .expect("weight fetch");
        let fold1 = programs[1]
            .main
            .iter()
            .find(|p| p.start == map.segment("conv1").expect("seg").offset)
            .expect("weight fetch");
        assert_eq!(fold0.offset, 0);
        assert!(fold1.offset > 0);
    }

    #[test]
    fn non_divisible_folds_cover_whole_weight_segment() {
        let n = net();
        // conv1 has 64 maps x 3x3 kernel x 3 channels = 576 parallel
        // units; 120 lanes -> 5 folds, and the conv1 weight segment
        // (1792 words before alignment) does not divide by 5.
        let cfg = CompilerConfig {
            lanes: 120,
            ..CompilerConfig::default()
        };
        let plan = plan_folding(&n, &cfg).expect("plan");
        let map = build_memory_map(&n, &cfg).expect("map");
        let tiles = plan_layer_tiling(&n, &cfg).expect("tiles");
        let programs = synthesize_agus(&n, &plan, &map, &tiles, &cfg).expect("agus");
        let seg = map.segment("conv1").expect("seg");
        let mut slices: Vec<(u64, u64)> = plan
            .phases
            .iter()
            .filter(|p| p.layer == "conv1")
            .flat_map(|p| {
                let prog = &programs[p.id];
                (0..prog.main.len())
                    .filter(|&i| prog.main[i].start == seg.offset)
                    .map(|i| (prog.main[i].offset, region_words(prog, i, cfg.lanes)))
            })
            .collect();
        assert!(slices.len() >= 2, "expected several weight folds");
        assert_ne!(
            seg.len_words % slices.len() as u64,
            0,
            "test needs a non-divisible fold count to bite"
        );
        slices.sort_unstable();
        let mut cursor = 0u64;
        for (offset, len) in &slices {
            assert_eq!(*offset, cursor, "fold slices must be contiguous");
            assert!(*len > 0);
            cursor += len;
        }
        assert_eq!(
            cursor, seg.len_words,
            "fold slices must cover the whole weight segment"
        );
    }

    #[test]
    fn oversized_stream_is_a_compile_error() {
        // 70000x70000 input: ~4.9G words, beyond the AGU's 32-bit
        // length counter. This used to silently cap at u32::MAX.
        let n = Network::from_layers(
            "huge",
            vec![
                Layer::input("data", "data", 1, 70_000, 70_000),
                Layer::new(
                    "fc",
                    LayerKind::FullConnection(FullParam::dense(4)),
                    "data",
                    "fc",
                ),
            ],
        )
        .expect("valid");
        let cfg = CompilerConfig::default();
        let plan = plan_folding(&n, &cfg).expect("plan");
        let map = build_memory_map(&n, &cfg).expect("map");
        let tiles = plan_layer_tiling(&n, &cfg).expect("tiles");
        let err = synthesize_agus(&n, &plan, &map, &tiles, &cfg)
            .expect_err("4.9G-word stream must be rejected");
        match err {
            CompileError::AguOverflow { words, .. } => {
                assert!(words > u64::from(u32::MAX));
            }
            other => panic!("expected AguOverflow, got {other}"),
        }
    }

    #[test]
    fn tile_plans_only_for_spatial_layers() {
        let tiles = plan_layer_tiling(&net(), &CompilerConfig::default()).expect("tiles");
        assert!(tiles.contains_key("conv1"));
        assert!(tiles.contains_key("pool1"));
        assert!(!tiles.contains_key("fc"));
    }

    #[test]
    fn spill_plan_separates_live_blobs_and_targets_output() {
        let n = net();
        let spill = plan_spill_slots(&n, &CompilerConfig::default()).expect("plan");
        assert!(spill.slots >= 2);
        // conv1's activation is still live while pool1 produces its own,
        // so the two must not share a slot (they used to: everything
        // landed at spill offset 0).
        let conv_dst = spill.dest.get("conv1").expect("conv1 dest").1;
        let pool_dst = spill.dest.get("pool1").expect("pool1 dest").1;
        assert_ne!(conv_dst, pool_dst);
        // pool1 fetches conv1's activation from where conv1 wrote it.
        let pool_src = &spill.sources.get("pool1").expect("pool1 src")[0];
        assert_eq!(pool_src.0, "conv1");
        assert_eq!(pool_src.1, conv_dst);
        // The network's final activation lands in the output segment.
        assert_eq!(spill.dest.get("fc").expect("fc dest").1, BlobPlace::Output);
        // Input fetches come from the input segment.
        let conv_src = &spill.sources.get("conv1").expect("conv1 src")[0];
        assert_eq!(conv_src.1, BlobPlace::Input);
    }

    #[test]
    fn in_place_layers_get_fresh_versions() {
        use deepburning_model::Activation;
        // conv -> relu (in place on "conv") -> fc: relu reads version 0
        // of "conv" and writes version 1, which must live in a different
        // slot — otherwise the element-wise pass overwrites words of its
        // own input mid-stream.
        let n = Network::from_layers(
            "inplace",
            vec![
                Layer::input("data", "data", 1, 8, 8),
                Layer::new(
                    "conv",
                    LayerKind::Convolution(ConvParam::new(4, 3, 1)),
                    "data",
                    "conv",
                ),
                Layer::new(
                    "relu",
                    LayerKind::Activation(Activation::Relu),
                    "conv",
                    "conv",
                ),
                Layer::new(
                    "fc",
                    LayerKind::FullConnection(FullParam::dense(4)),
                    "conv",
                    "fc",
                ),
            ],
        )
        .expect("valid");
        let spill = plan_spill_slots(&n, &CompilerConfig::default()).expect("plan");
        let conv_v0 = spill.dest.get("conv").expect("conv dest").1;
        let relu_src = spill.sources.get("relu").expect("relu src")[0].1;
        let relu_dst = spill.dest.get("relu").expect("relu dest").1;
        assert_eq!(relu_src, conv_v0, "relu reads the version conv wrote");
        assert_ne!(relu_dst, relu_src, "in-place write needs a fresh slot");
        // fc reads the *post-relu* version, not the raw conv output.
        assert_eq!(spill.sources.get("fc").expect("fc src")[0].1, relu_dst);
        assert_eq!(spill.dest.get("fc").expect("fc dest").1, BlobPlace::Output);
    }

    #[test]
    fn final_write_back_targets_output_segment() {
        let n = net();
        let cfg = CompilerConfig::default();
        let plan = plan_folding(&n, &cfg).expect("plan");
        let map = build_memory_map(&n, &cfg).expect("map");
        let tiles = plan_layer_tiling(&n, &cfg).expect("tiles");
        let programs = synthesize_agus(&n, &plan, &map, &tiles, &cfg).expect("agus");
        let out_seg = map.segment("output").expect("output segment");
        let last_fc_phase = plan
            .phases
            .iter()
            .rfind(|p| p.layer == "fc")
            .expect("fc phases");
        let prog = &programs[last_fc_phase.id];
        let (idx, wb) = prog
            .main
            .iter()
            .enumerate()
            .find(|(i, _)| prog.main_write[*i])
            .expect("fc write-back");
        assert_eq!(
            wb.start, out_seg.offset,
            "final activation must land in `output`, not `spill`"
        );
        assert!(wb.offset + region_words(prog, idx, cfg.lanes) <= out_seg.len_words);
    }

    /// Main patterns step one lane row per transaction, and each carries
    /// its last row's length next to its direction.
    #[test]
    fn main_patterns_are_row_granular() {
        let n = net();
        let cfg = CompilerConfig::default();
        let plan = plan_folding(&n, &cfg).expect("plan");
        let map = build_memory_map(&n, &cfg).expect("map");
        let tiles = plan_layer_tiling(&n, &cfg).expect("tiles");
        let programs = synthesize_agus(&n, &plan, &map, &tiles, &cfg).expect("agus");
        // The 3x16x16 input is 768 words: 24 rows of 32 lanes, no tail.
        let fetch = programs[0].main[0];
        assert_eq!((fetch.x_len, fetch.x_stride), (24, 32));
        assert_eq!(programs[0].main_tail[0], 32);
        for prog in &programs {
            assert_eq!(prog.main.len(), prog.main_tail.len());
            for (p, &tail) in prog.main.iter().zip(&prog.main_tail) {
                assert_eq!(p.x_stride, u64::from(cfg.lanes));
                assert!((1..=cfg.lanes).contains(&tail));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Regrouping a region into lane rows moves exactly the words the
        /// word-granular stream moved, in the same order, whatever the
        /// region length, row width, placement and direction — so a
        /// write-back never touches a word outside its region.
        #[test]
        fn row_expansion_equals_the_word_stream(
            words in 1u64..5_000,
            lanes in 1u32..160,
            start in 0u64..1 << 20,
            offset in 0u64..1 << 16,
            direction in 0u8..2,
        ) {
            let write = direction == 1;
            let mut prog = AguProgram::default();
            let pattern = row_pattern(start, offset, words, lanes, 0, "test").expect("fits");
            prog.push_main(pattern, write);
            let expanded: Vec<u64> = prog
                .main_rows(0, lanes)
                .flat_map(|(addr, len)| addr..addr + u64::from(len))
                .collect();
            let base = start + offset;
            let words_before: Vec<u64> = AguPattern::linear(0, words as u32)
                .addresses()
                .map(|a| base + a)
                .collect();
            proptest::prop_assert_eq!(&expanded, &words_before);
            proptest::prop_assert_eq!(prog.main_write[0], write);
            proptest::prop_assert_eq!(
                u64::from(prog.main[0].x_len),
                words.div_ceil(u64::from(lanes))
            );
        }
    }

    #[test]
    fn main_write_flags_parallel_main_patterns() {
        let n = net();
        let cfg = CompilerConfig::default();
        let plan = plan_folding(&n, &cfg).expect("plan");
        let map = build_memory_map(&n, &cfg).expect("map");
        let tiles = plan_layer_tiling(&n, &cfg).expect("tiles");
        let programs = synthesize_agus(&n, &plan, &map, &tiles, &cfg).expect("agus");
        let spill_seg = map.segment("spill").expect("spill");
        let out_seg = map.segment("output").expect("output");
        for prog in &programs {
            assert_eq!(prog.main.len(), prog.main_write.len());
            for (pat, &write) in prog.main.iter().zip(&prog.main_write) {
                if write {
                    assert!(
                        pat.start == spill_seg.offset || pat.start == out_seg.offset,
                        "writes only land in spill/output"
                    );
                }
            }
        }
    }
}
