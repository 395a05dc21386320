//! Pass 5: AGU bounds proof.
//!
//! Every AGU program is an affine address generator: `start + offset +
//! y·y_stride + x·x_stride` over a rectangular `x_len × y_len` trip
//! space. Because strides are non-negative, the stream's extent is just
//! the first and last corner — no replay needed. The pass proves, for
//! every fold slice of every phase:
//!
//! * **Main AGU** (DRAM side): every word the stream moves stays inside
//!   the memory map segment it starts in (`agu/oob-segment`, error — an
//!   out-of-bounds burst would read another layer's weights or clobber
//!   the spill region). Main streams move one lane row per address, so
//!   the last word is the last address plus the pattern's tail length
//!   minus one.
//! * **Data/weight AGUs** (on-chip side): streams that exceed the
//!   physical buffer depth are reported — a spatial window that cannot
//!   fit is a tiling bug (`agu/window-exceeds-buffer`, warning), while a
//!   long linear sweep wraps by design under the streaming double-buffer
//!   discipline (`agu/buffer-wrap`, info; the RTL truncates addresses to
//!   the buffer's address width).

use crate::{Diagnostic, Severity};
use deepburning_compiler::{CompiledNetwork, Segment};
use deepburning_components::AguPattern;
use std::collections::BTreeSet;

/// Inclusive `[lo, hi]` address extent of a pattern.
fn extent(p: &AguPattern) -> (u128, u128) {
    let lo = u128::from(p.start) + u128::from(p.offset);
    let hi = lo
        + u128::from(p.y_len.max(1) - 1) * u128::from(p.y_stride)
        + u128::from(p.x_len.max(1) - 1) * u128::from(p.x_stride);
    (lo, hi)
}

/// Inclusive `[lo, hi]` extent of the words a main pattern moves: its last
/// transaction starts at the stream's last address and moves `tail` words.
fn main_extent(p: &AguPattern, tail: u32) -> (u128, u128) {
    let (lo, last) = extent(p);
    (lo, last + u128::from(tail.max(1)) - 1)
}

fn segment_of(segments: &[Segment], addr: u128) -> Option<&Segment> {
    segments
        .iter()
        .find(|s| addr >= u128::from(s.offset) && addr < u128::from(s.offset + s.len_words))
}

fn check_main(
    phase: usize,
    layer: &str,
    idx: usize,
    p: &AguPattern,
    tail: u32,
    segments: &[Segment],
) -> Option<Diagnostic> {
    let (lo, hi) = main_extent(p, tail);
    let Some(seg) = segment_of(segments, lo) else {
        return Some(
            Diagnostic::new(
                "agu/oob-segment",
                Severity::Error,
                format!(
                    "phase {phase} ({layer}): main pattern {idx} starts at word {lo}, \
                     outside every DRAM segment"
                ),
            )
            .in_module(layer)
            .on_signal(format!("main[{idx}]"))
            .suggest("fix the segment base in the memory map or the pattern start"),
        );
    };
    let end = u128::from(seg.offset + seg.len_words);
    if hi >= end {
        return Some(
            Diagnostic::new(
                "agu/oob-segment",
                Severity::Error,
                format!(
                    "phase {phase} ({layer}): main pattern {idx} reaches word {hi}, \
                     beyond segment `{}` [{}, {end})",
                    seg.name, seg.offset
                ),
            )
            .in_module(layer)
            .on_signal(format!("main[{idx}]"))
            .suggest("clamp the fold slice so offset + extent stays inside the segment"),
        );
    }
    None
}

fn check_buffer(
    phase: usize,
    layer: &str,
    class: &str,
    idx: usize,
    p: &AguPattern,
    depth: u64,
) -> Option<Diagnostic> {
    let (_, hi) = extent(p);
    if hi < u128::from(depth) {
        return None;
    }
    let spatial = p.y_len > 1 && p.y_stride > 1;
    let (rule, severity, verdict) = if spatial {
        (
            "agu/window-exceeds-buffer",
            Severity::Warning,
            "spatial window does not fit the buffer — tiling must shrink the window",
        )
    } else {
        (
            "agu/buffer-wrap",
            Severity::Info,
            "linear stream wraps under streaming double-buffer semantics (addresses truncate)",
        )
    };
    Some(
        Diagnostic::new(
            rule,
            severity,
            format!(
                "phase {phase} ({layer}): {class} pattern {idx} reaches word {hi} of a \
                 {depth}-word buffer; {verdict}"
            ),
        )
        .in_module(layer)
        .on_signal(format!("{class}[{idx}]")),
    )
}

/// Statically checks every AGU program of the compiled network.
pub fn run(compiled: &CompiledNetwork) -> Vec<Diagnostic> {
    let _span = deepburning_trace::span("lint", "lint.agu");
    let word = compiled.config.word_bytes().max(1);
    let fbuf_depth = (compiled.config.feature_buffer_bytes / word).max(1);
    let wbuf_depth = (compiled.config.weight_buffer_bytes / word).max(1);
    let segments = &compiled.memory_map.segments;
    let mut diags = Vec::new();
    // A layer folded over thousands of phases repeats the same on-chip
    // stream shape every fold; one buffer finding per (rule, layer,
    // stream) carries all the information.
    let mut seen: BTreeSet<(String, String, String)> = BTreeSet::new();
    let mut push_buffer = |diags: &mut Vec<Diagnostic>, d: Option<Diagnostic>| {
        if let Some(d) = d {
            let key = (
                d.rule.clone(),
                d.module.clone().unwrap_or_default(),
                d.signal.clone().unwrap_or_default(),
            );
            if seen.insert(key) {
                diags.push(d);
            }
        }
    };
    for prog in &compiled.agu_programs {
        let layer = compiled
            .folding
            .phases
            .iter()
            .find(|ph| ph.id == prog.phase)
            .map_or("?", |ph| ph.layer.as_str());
        for (i, p) in prog.main.iter().enumerate() {
            let tail = prog.main_tail.get(i).copied().unwrap_or(1);
            diags.extend(check_main(prog.phase, layer, i, p, tail, segments));
        }
        for (i, p) in prog.data.iter().enumerate() {
            let d = check_buffer(prog.phase, layer, "data", i, p, fbuf_depth);
            push_buffer(&mut diags, d);
        }
        for (i, p) in prog.weight.iter().enumerate() {
            let d = check_buffer(prog.phase, layer, "weight", i, p, wbuf_depth);
            push_buffer(&mut diags, d);
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(start: u64, offset: u64, x_len: u32, y_len: u32, xs: u64, ys: u64) -> AguPattern {
        AguPattern {
            start,
            offset,
            x_len,
            y_len,
            x_stride: xs,
            y_stride: ys,
        }
    }

    #[test]
    fn extent_covers_both_loop_dimensions() {
        let p = pattern(100, 4, 3, 2, 1, 16);
        assert_eq!(extent(&p), (104, 104 + 16 + 2));
        let lin = AguPattern::linear(10, 5);
        assert_eq!(extent(&lin), (10, 14));
    }

    #[test]
    fn in_segment_pattern_is_clean() {
        let segs = vec![Segment {
            name: "input".into(),
            offset: 0,
            len_words: 64,
            kind: deepburning_compiler::SegmentKind::Input,
        }];
        assert!(check_main(0, "l", 0, &pattern(0, 0, 64, 1, 1, 0), 1, &segs).is_none());
    }

    /// Injected defect: an out-of-bounds AGU program — the pattern's last
    /// address crosses its segment end — must raise `agu/oob-segment`.
    #[test]
    fn oob_pattern_fires() {
        let segs = vec![Segment {
            name: "w".into(),
            offset: 32,
            len_words: 16,
            kind: deepburning_compiler::SegmentKind::Weights,
        }];
        let d = check_main(3, "fc", 1, &pattern(32, 8, 16, 1, 1, 0), 1, &segs)
            .expect("overrun detected");
        assert_eq!(d.rule, "agu/oob-segment");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("segment `w`"), "{}", d.message);
        // A pattern starting outside every segment also fires.
        let d2 = check_main(3, "fc", 0, &pattern(1000, 0, 4, 1, 1, 0), 1, &segs)
            .expect("stray start detected");
        assert_eq!(d2.rule, "agu/oob-segment");
    }

    /// A row stream proves its words, not just its addresses: 100 words
    /// in 32-lane rows are four rows whose last moves 4 words. Claiming a
    /// full last row reaches word 127 of the 100-word segment, although
    /// every row *address* (0, 32, 64, 96) lies inside it.
    #[test]
    fn row_stream_extent_ends_at_the_tail() {
        let segs = vec![Segment {
            name: "spill".into(),
            offset: 0,
            len_words: 100,
            kind: deepburning_compiler::SegmentKind::Activations,
        }];
        let rows = pattern(0, 0, 4, 1, 32, 0);
        assert_eq!(main_extent(&rows, 4), (0, 99));
        assert!(check_main(0, "fc", 0, &rows, 4, &segs).is_none());
        let d = check_main(0, "fc", 0, &rows, 32, &segs).expect("last row overruns");
        assert_eq!(d.rule, "agu/oob-segment");
        assert!(d.message.contains("reaches word 127"), "{}", d.message);
    }

    #[test]
    fn buffer_tiers_split_window_and_wrap() {
        // Spatial window beyond the buffer: warning.
        let d = check_buffer(0, "conv", "data", 0, &pattern(0, 0, 5, 5, 1, 64), 128)
            .expect("window flagged");
        assert_eq!(d.rule, "agu/window-exceeds-buffer");
        assert_eq!(d.severity, Severity::Warning);
        // Long linear sweep: info only.
        let d = check_buffer(0, "fc", "data", 0, &AguPattern::linear(0, 4096), 1024)
            .expect("wrap noted");
        assert_eq!(d.rule, "agu/buffer-wrap");
        assert_eq!(d.severity, Severity::Info);
        // Fits: clean.
        assert!(check_buffer(0, "fc", "data", 0, &AguPattern::linear(0, 64), 1024).is_none());
    }
}
