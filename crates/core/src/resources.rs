//! Whole-accelerator resource estimation.
//!
//! NN-Gen instantiates a concrete set of building blocks for a compiled
//! network; this module enumerates that set and totals its cost, producing
//! the numbers reported in paper Table 3.

use deepburning_compiler::{AguProgram, CompiledNetwork, PhaseKind};
use deepburning_components::{
    AccumulatorBlock, ActivationUnit, AguBlock, AguClass, AguPattern, ApproxLutBlock, Block,
    BufferBlock, ConnectionBox, Coordinator, DropOutUnit, KSorter, LrnUnit, PerfCounters,
    PoolingUnit, ResourceCost, SynergyNeuron,
};
use deepburning_model::{LayerKind, Network, PoolMethod};

/// Per-block resource breakdown.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResourceReport {
    /// `(block description, cost)` pairs.
    pub items: Vec<(String, ResourceCost)>,
    /// Sum of all items.
    pub total: ResourceCost,
}

impl ResourceReport {
    fn push(&mut self, block: &dyn Block) {
        let cost = block.cost();
        self.items.push((block.describe(), cost));
        self.total += cost;
    }
}

/// Collects the deduplicated AGU patterns of one class across all phases.
///
/// Patterns differing only in `offset` are one hardware pattern: the
/// offset is a runtime field of the template AGU (Fig. 6), loaded from the
/// context buffer at each `layer{i}-fold{j}` event, so per-fold
/// displacements do not multiply the pattern ROM.
pub fn collect_patterns(compiled: &CompiledNetwork, class: AguClass) -> Vec<AguPattern> {
    if class == AguClass::Main {
        return collect_main_patterns(compiled)
            .into_iter()
            .map(|e| e.pattern)
            .collect();
    }
    let mut patterns: Vec<AguPattern> = Vec::new();
    for prog in &compiled.agu_programs {
        let source = match class {
            AguClass::Main => unreachable!("handled above"),
            AguClass::Data => &prog.data,
            AguClass::Weight => &prog.weight,
        };
        for p in source {
            let canon = AguPattern { offset: 0, ..*p };
            if !patterns.contains(&canon) {
                patterns.push(canon);
            }
        }
    }
    if patterns.is_empty() {
        patterns.push(AguPattern::linear(0, 1));
    }
    patterns
}

/// One hardware pattern of the main AGU: the canonical (offset-free)
/// pattern, its transfer direction and its last row's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MainPattern {
    /// The pattern with its runtime `offset` zeroed.
    pub pattern: AguPattern,
    /// Whether the pattern writes DRAM (write-back) rather than reads it.
    pub write: bool,
    /// Words its last transaction moves (`1..=lanes`).
    pub tail: u32,
}

impl MainPattern {
    /// The hardware pattern that runs `prog.main[i]`.
    fn of(prog: &AguProgram, i: usize) -> Self {
        MainPattern {
            pattern: AguPattern {
                offset: 0,
                ..prog.main[i]
            },
            write: prog.main_write.get(i).copied().unwrap_or(false),
            tail: prog.main_tail.get(i).copied().unwrap_or(1),
        }
    }
}

/// Collects the main AGU's hardware pattern set with transfer directions
/// and tail lengths.
///
/// The dedup key is the whole [`MainPattern`]: a fetch and a write-back
/// with the same shape must stay distinct hardware patterns because the
/// top level derives `dram_we` from the running pattern index — merging
/// them used to strobe the DRAM write enable on read traffic — and two
/// regions with the same row count but different lengths differ in the
/// tail the top level sizes their last transaction with. When one phase
/// needs the *same* key twice (two equally-shaped bottoms fetched from
/// different spill slots), the set keeps one copy per concurrent use so
/// each gets its own trigger bit and runtime offset.
pub fn collect_main_patterns(compiled: &CompiledNetwork) -> Vec<MainPattern> {
    let mut set: Vec<MainPattern> = Vec::new();
    for prog in &compiled.agu_programs {
        let mut occ: Vec<(MainPattern, usize)> = Vec::new();
        for i in 0..prog.main.len() {
            let key = MainPattern::of(prog, i);
            let n = bump_occurrence(&mut occ, key);
            let have = set.iter().filter(|e| **e == key).count();
            if have < n + 1 {
                set.push(key);
            }
        }
    }
    if set.is_empty() {
        set.push(MainPattern {
            pattern: AguPattern::linear(0, 1),
            write: false,
            tail: 1,
        });
    }
    set
}

/// Counts the occurrences of `key` so far (returning the previous count
/// and incrementing) — used to map a phase's i-th use of a hardware
/// pattern to the i-th copy in the deduplicated set.
fn bump_occurrence(occ: &mut Vec<(MainPattern, usize)>, key: MainPattern) -> usize {
    if let Some(e) = occ.iter_mut().find(|e| e.0 == key) {
        e.1 += 1;
        e.1 - 1
    } else {
        occ.push((key, 1));
        0
    }
}

/// The hardware slot (trigger bit) that runs each pattern of `prog.main`,
/// in program order: a phase's i-th use of a key maps to the i-th copy of
/// it in `set` (the output of [`collect_main_patterns`]).
pub fn main_slots(set: &[MainPattern], prog: &AguProgram) -> Vec<Option<usize>> {
    let mut occ: Vec<(MainPattern, usize)> = Vec::new();
    (0..prog.main.len())
        .map(|i| {
            let key = MainPattern::of(prog, i);
            let n = bump_occurrence(&mut occ, key);
            set.iter()
                .enumerate()
                .filter(|(_, e)| **e == key)
                .map(|(slot, _)| slot)
                .nth(n)
        })
        .collect()
}

/// The context-buffer images for the generated top: for every phase, the
/// trigger word of each AGU class — one bit per pattern the phase runs,
/// at that pattern's index in the deduplicated set of
/// [`collect_patterns`].
///
/// A phase's main word may have several bits set (input fetch, weight
/// fetch, write-back); the chained main AGU drains them lowest-first.
/// Encoding only the first pattern per class — as this table used to —
/// silently dropped the weight fetch and the write-back of every phase.
///
/// These are the words the `ctx_trig_*` ROMs hold; the full-network RTL
/// run and the RTL execution tests load them through the simulator
/// backdoor.
pub fn context_words(compiled: &CompiledNetwork) -> Vec<[u64; 3]> {
    let main_set = collect_main_patterns(compiled);
    let sets = [
        collect_patterns(compiled, AguClass::Data),
        collect_patterns(compiled, AguClass::Weight),
    ];
    compiled
        .agu_programs
        .iter()
        .map(|prog| {
            let mut words = [0u64; 3];
            for slot in main_slots(&main_set, prog).into_iter().flatten() {
                words[0] |= 1u64 << slot.min(63);
            }
            for (slot, source) in [&prog.data, &prog.weight].iter().enumerate() {
                for p in source.iter() {
                    let canon = AguPattern { offset: 0, ..*p };
                    if let Some(idx) = sets[slot].iter().position(|q| *q == canon) {
                        words[slot + 1] |= 1u64 << idx.min(63);
                    }
                }
            }
            words
        })
        .collect()
}

/// Per-phase runtime offsets for the main AGU's hardware patterns: entry
/// `[phase][slot]` is the offset the AGU must add when it launches
/// hardware pattern `slot` during `phase` (0 when the phase does not
/// trigger that pattern). These are the words of the `ctx_off_main` ROM,
/// indexed by `{phase, pat_next}` — they are what makes weight-fold
/// slices and spill-slot displacements real in hardware instead of
/// compile-time fictions canonicalised away by the pattern dedup.
pub fn context_offsets(compiled: &CompiledNetwork) -> Vec<Vec<u64>> {
    let set = collect_main_patterns(compiled);
    compiled
        .agu_programs
        .iter()
        .map(|prog| {
            let mut offs = vec![0u64; set.len()];
            for (p, slot) in prog.main.iter().zip(main_slots(&set, prog)) {
                if let Some(slot) = slot {
                    offs[slot] = p.offset;
                }
            }
            offs
        })
        .collect()
}

/// One bit per main hardware pattern, set when that pattern writes DRAM.
/// The top level indexes this constant with the running pattern
/// (`pat_cur`) to drive `dram_we` only during write-back traffic.
pub fn main_write_mask(compiled: &CompiledNetwork) -> u64 {
    collect_main_patterns(compiled)
        .iter()
        .enumerate()
        .fold(
            0u64,
            |m, (i, e)| {
                if e.write {
                    m | (1u64 << i.min(63))
                } else {
                    m
                }
            },
        )
}

/// Enumerates the block instances a compiled network needs and totals
/// their resource cost.
pub fn estimate_resources(net: &Network, compiled: &CompiledNetwork) -> ResourceReport {
    let cfg = &compiled.config;
    let w = cfg.word_bits;
    let mut report = ResourceReport::default();

    // Datapath.
    report.push(&SynergyNeuron::new(w, cfg.lanes));
    report.push(&AccumulatorBlock { width: w });
    report.push(&ActivationUnit { width: w });

    // Layer-driven blocks (one instance per distinct requirement —
    // temporal folding shares them across layers).
    let mut need_max_pool = false;
    let mut need_avg_pool = false;
    let mut need_dropout = false;
    let mut ksorter_inputs = 0u32;
    let mut lrn: Option<(usize, f64, f64)> = None;
    for layer in net.layers() {
        match &layer.kind {
            LayerKind::Pooling(p) => match p.method {
                PoolMethod::Max => need_max_pool = true,
                PoolMethod::Average => need_avg_pool = true,
            },
            LayerKind::Inception(_) => need_max_pool = true,
            LayerKind::Dropout { .. } => need_dropout = true,
            LayerKind::Classifier { .. } => {
                let inputs = net
                    .infer_shapes()
                    .ok()
                    .and_then(|s| layer.bottoms.first().map(|b| s[b].elements() as u32))
                    .unwrap_or(2);
                ksorter_inputs = ksorter_inputs.max(inputs.max(2));
            }
            LayerKind::Lrn(p) => lrn = Some((p.local_size, p.alpha, p.beta)),
            _ => {}
        }
    }
    if need_max_pool {
        report.push(&PoolingUnit {
            width: w,
            method: PoolMethod::Max,
        });
    }
    if need_avg_pool {
        report.push(&PoolingUnit {
            width: w,
            method: PoolMethod::Average,
        });
    }
    if need_dropout {
        report.push(&DropOutUnit { width: w });
    }
    if ksorter_inputs > 0 {
        report.push(&KSorter {
            width: w,
            inputs: ksorter_inputs,
        });
    }
    if let Some((n, alpha, beta)) = lrn {
        report.push(&LrnUnit::new(w, n, alpha, beta, cfg.format));
    }

    // Approx LUTs from the compiled images.
    for (tag, image) in &compiled.luts {
        let block = ApproxLutBlock::new(w, image.clone());
        let cost = block.cost();
        report.items.push((format!("approx LUT `{tag}`"), cost));
        report.total += cost;
    }

    // Connection box sized by the distinct crossbar configurations.
    let cb_ports = 4u32.max(compiled.schedule.distinct_configurations() as u32);
    report.push(&ConnectionBox {
        width: w,
        inputs: cb_ports,
        outputs: 2,
    });

    // Buffers: feature rows feed all lanes, weights likewise.
    let feature_words = (cfg.feature_buffer_bytes * 8 / u64::from(w * cfg.lanes)).max(2) as usize;
    report.push(&BufferBlock {
        width: w * cfg.lanes,
        depth: feature_words,
    });
    let weight_words = (cfg.weight_buffer_bytes * 8 / u64::from(w * cfg.lanes)).max(2) as usize;
    report.push(&BufferBlock {
        width: w * cfg.lanes,
        depth: weight_words,
    });

    // AGUs reduced to the patterns the compiler emitted.
    for class in [AguClass::Main, AguClass::Data, AguClass::Weight] {
        let patterns = collect_patterns(compiled, class);
        report.push(&AguBlock::new(class, 32, patterns));
    }

    // Coordinator.
    report.push(&Coordinator {
        phases: compiled.folding.phases.len().max(1) as u32,
    });

    // Performance counters (always instantiated by `assemble_top`).
    report.push(&PerfCounters::default());

    report
}

/// Whether the estimated design fits the given envelope; returns the
/// utilisation on the tightest axis.
pub fn check_fit(report: &ResourceReport, envelope: &ResourceCost) -> (bool, f64) {
    (
        report.total.fits_in(envelope),
        report.total.utilization(envelope),
    )
}

/// True when a compute phase exists — i.e. the network actually exercises
/// the synergy lanes (used by sanity checks).
pub fn uses_lanes(compiled: &CompiledNetwork) -> bool {
    compiled
        .folding
        .phases
        .iter()
        .any(|p| p.kind == PhaseKind::Compute)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_compiler::{compile, CompilerConfig};
    use deepburning_model::parse_network;

    const SRC: &str = r#"
    name: "t"
    layers { name: "data" type: INPUT top: "data"
             input_param { channels: 1 height: 16 width: 16 } }
    layers { name: "conv" type: CONVOLUTION bottom: "data" top: "conv"
             param { num_output: 8 kernel_size: 3 stride: 1 } }
    layers { name: "pool" type: POOLING bottom: "conv" top: "pool"
             pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
    layers { name: "sig" type: SIGMOID bottom: "pool" top: "pool" }
    layers { name: "fc" type: FC bottom: "pool" top: "fc"
             param { num_output: 10 } }
    layers { name: "cls" type: CLASSIFIER bottom: "fc" top: "cls" }
    "#;

    fn compiled(lanes: u32) -> (deepburning_model::Network, CompiledNetwork) {
        let net = parse_network(SRC).expect("parses");
        let cfg = CompilerConfig {
            lanes,
            ..CompilerConfig::default()
        };
        let c = compile(&net, &cfg).expect("compiles");
        (net, c)
    }

    #[test]
    fn report_contains_expected_blocks() {
        let (net, c) = compiled(16);
        let report = estimate_resources(&net, &c);
        let names: Vec<&str> = report.items.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names.iter().any(|n| n.contains("synergy neuron")),
            "{names:?}"
        );
        assert!(names.iter().any(|n| n.contains("pooling unit (MAX)")));
        assert!(names.iter().any(|n| n.contains("approx LUT `sigmoid`")));
        assert!(names.iter().any(|n| n.contains("K-sorter")));
        assert!(names.iter().any(|n| n.contains("main AGU")));
        assert!(names.iter().any(|n| n.contains("coordinator")));
    }

    #[test]
    fn total_is_sum_of_items() {
        let (net, c) = compiled(16);
        let report = estimate_resources(&net, &c);
        let sum: ResourceCost = report.items.iter().map(|(_, c)| *c).sum();
        assert_eq!(sum, report.total);
    }

    #[test]
    fn dsp_scales_with_lanes() {
        let (net_a, c_a) = compiled(8);
        let (net_b, c_b) = compiled(64);
        let a = estimate_resources(&net_a, &c_a).total;
        let b = estimate_resources(&net_b, &c_b).total;
        assert!(b.dsp > a.dsp);
        assert!(b.dsp - a.dsp >= 56, "lane DSPs dominate the delta");
    }

    #[test]
    fn pattern_collection_dedupes() {
        let (_, c) = compiled(16);
        let data = collect_patterns(&c, AguClass::Data);
        let total_raw: usize = c.agu_programs.iter().map(|p| p.data.len()).sum();
        assert!(data.len() <= total_raw);
        assert!(!data.is_empty());
    }

    #[test]
    fn fit_check_works() {
        let (net, c) = compiled(16);
        let report = estimate_resources(&net, &c);
        let generous = ResourceCost {
            dsp: 10_000,
            lut: 10_000_000,
            ff: 10_000_000,
            bram_bits: 1 << 40,
        };
        let (fits, util) = check_fit(&report, &generous);
        assert!(fits);
        assert!(util < 1.0);
        let tight = ResourceCost::logic(1, 10, 10);
        assert!(!check_fit(&report, &tight).0);
    }

    #[test]
    fn network_uses_lanes() {
        let (_, c) = compiled(16);
        assert!(uses_lanes(&c));
    }

    #[test]
    fn context_words_trigger_every_main_pattern() {
        let (_, c) = compiled(16);
        let words = context_words(&c);
        for (prog, w) in c.agu_programs.iter().zip(&words) {
            assert_eq!(
                w[0].count_ones() as usize,
                prog.main.len(),
                "phase {} main trigger word must cover all {} patterns",
                prog.phase,
                prog.main.len()
            );
        }
    }

    #[test]
    fn context_offsets_match_programs() {
        let (_, c) = compiled(16);
        let set = collect_main_patterns(&c);
        let offs = context_offsets(&c);
        assert_eq!(offs.len(), c.agu_programs.len());
        for (prog, po) in c.agu_programs.iter().zip(&offs) {
            assert_eq!(po.len(), set.len());
            // Every non-zero program offset must appear in the ROM row.
            for p in &prog.main {
                if p.offset != 0 {
                    assert!(
                        po.contains(&p.offset),
                        "phase {}: offset {} missing from ctx row {po:?}",
                        prog.phase,
                        p.offset
                    );
                }
            }
        }
    }

    #[test]
    fn write_mask_separates_fetches_from_write_backs() {
        let (_, c) = compiled(16);
        let set = collect_main_patterns(&c);
        let mask = main_write_mask(&c);
        assert!(mask != 0, "network spills, so some pattern writes DRAM");
        assert!(
            set.iter().any(|e| !e.write),
            "fetch patterns must exist too"
        );
        for (i, e) in set.iter().enumerate() {
            assert_eq!((mask >> i) & 1 == 1, e.write);
        }
    }
}
