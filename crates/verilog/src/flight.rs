//! Flight recorder: a bounded pre-trigger waveform window.
//!
//! Hardware bring-up rarely needs the whole waveform — it needs the
//! cycles *leading up to* the first bad transaction. The
//! [`FlightRecorder`] keeps a ring buffer of the last N sampled cycles of
//! a watched signal set; when the harness detects a divergence it calls
//! [`FlightRecorder::trigger`], the recorder captures a short
//! post-trigger tail and freezes. [`FlightRecorder::render_vcd`] then
//! renders just that window as a standalone VCD document, so divergence
//! bundles carry the interesting cycles without a second full run and
//! without holding an unbounded dump in memory.
//!
//! Sampling is the caller's job (one [`FlightRecorder::sample`] per
//! clock edge, values read off a [`Simulator`](crate::Simulator)); the
//! recorder itself is engine-agnostic and deterministic, so two engines
//! fed identical samples freeze identical windows.

use std::collections::VecDeque;

use crate::vcd::VcdRecorder;

/// Ring buffer of the last N cycles of a watched signal set, with
/// pre-trigger capture semantics (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    top: String,
    signals: Vec<(String, u32)>,
    depth: usize,
    /// Sampled rows: `(cycle, values)` with `values` parallel to
    /// `signals`. Bounded at `depth` rows.
    ring: VecDeque<(u64, Vec<u64>)>,
    /// Cycle index of the next sample.
    cycle: u64,
    /// Cycle at which [`FlightRecorder::trigger`] fired, if it has.
    trigger_cycle: Option<u64>,
    /// Post-trigger samples still to accept before freezing.
    tail_remaining: u64,
}

/// A frozen flight-recorder capture: the window around the trigger,
/// rendered as VCD, plus its cycle bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightWindow {
    /// First cycle present in the window.
    pub first_cycle: u64,
    /// Cycle the trigger fired at (the first mismatching transaction).
    pub trigger_cycle: u64,
    /// Last cycle present in the window.
    pub last_cycle: u64,
    /// The window as a standalone VCD document.
    pub vcd: String,
}

impl FlightRecorder {
    /// Creates a recorder watching `signals` (name, width) under scope
    /// `top`, keeping the most recent `depth` cycles. A quarter of the
    /// depth is reserved for post-trigger tail capture so the window
    /// shows both the lead-up and the immediate aftermath.
    pub fn new(top: &str, signals: Vec<(String, u32)>, depth: usize) -> FlightRecorder {
        FlightRecorder {
            top: top.to_string(),
            signals,
            depth: depth.max(4),
            ring: VecDeque::new(),
            cycle: 0,
            trigger_cycle: None,
            tail_remaining: 0,
        }
    }

    /// Signal names the recorder expects, in sample order.
    pub fn watched(&self) -> impl Iterator<Item = &str> {
        self.signals.iter().map(|(n, _)| n.as_str())
    }

    /// Records one cycle. `values` must parallel the watched signal
    /// list. Before the trigger the ring keeps the newest `depth` rows;
    /// after the trigger it accepts the post-trigger tail then freezes.
    /// A full ring copies into the row it evicts, so steady-state
    /// sampling allocates nothing.
    pub fn sample(&mut self, values: &[u64]) {
        debug_assert_eq!(values.len(), self.signals.len());
        if self.trigger_cycle.is_some() {
            if self.tail_remaining == 0 {
                self.cycle += 1;
                return; // frozen
            }
            self.tail_remaining -= 1;
        }
        let mut row = if self.ring.len() == self.depth {
            self.ring
                .pop_front()
                .map(|(_, row)| row)
                .unwrap_or_default()
        } else {
            Vec::with_capacity(values.len())
        };
        row.clear();
        row.extend_from_slice(values);
        self.ring.push_back((self.cycle, row));
        self.cycle += 1;
    }

    /// Marks the current cycle as the trigger (first bad transaction).
    /// The recorder accepts `depth / 4` further samples as the
    /// post-trigger tail, then freezes. Only the first trigger counts.
    pub fn trigger(&mut self) {
        if self.trigger_cycle.is_none() {
            self.trigger_cycle = Some(self.cycle.saturating_sub(1));
            self.tail_remaining = (self.depth / 4) as u64;
        }
    }

    /// True once [`FlightRecorder::trigger`] has fired.
    pub fn triggered(&self) -> bool {
        self.trigger_cycle.is_some()
    }

    /// Renders the captured window. Returns `None` until the trigger has
    /// fired or if nothing was sampled.
    pub fn render_vcd(&self) -> Option<FlightWindow> {
        let trigger_cycle = self.trigger_cycle?;
        let (first_cycle, last_cycle) = match (self.ring.front(), self.ring.back()) {
            (Some(f), Some(b)) => (f.0, b.0),
            _ => return None,
        };
        let mut rec = VcdRecorder::new(&self.top, &self.signals, 10);
        for (_, values) in &self.ring {
            rec.sample(values);
        }
        Some(FlightWindow {
            first_cycle,
            trigger_cycle,
            last_cycle,
            vcd: rec.finish().expect("buffered recorder returns text"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn watch() -> Vec<(String, u32)> {
        vec![("phase".into(), 3), ("req".into(), 1)]
    }

    #[test]
    fn ring_keeps_only_the_newest_depth_rows() {
        let mut fr = FlightRecorder::new("ctl", watch(), 8);
        for c in 0..100u64 {
            fr.sample(&[c & 7, c & 1]);
        }
        assert!(!fr.triggered());
        assert!(fr.render_vcd().is_none(), "no window before the trigger");
        fr.trigger();
        // Freeze immediately (no tail samples offered).
        let w = fr.render_vcd().expect("window after trigger");
        assert_eq!(w.first_cycle, 92);
        assert_eq!(w.last_cycle, 99);
        assert_eq!(w.trigger_cycle, 99);
        assert!(w.vcd.contains("$enddefinitions $end"), "{}", w.vcd);
        assert!(w.vcd.contains("$dumpvars"), "{}", w.vcd);
    }

    #[test]
    fn post_trigger_tail_then_freeze() {
        let depth = 16;
        let mut fr = FlightRecorder::new("ctl", watch(), depth);
        for c in 0..40u64 {
            fr.sample(&[c & 7, 0]);
        }
        fr.trigger();
        for c in 40..80u64 {
            fr.sample(&[c & 7, 1]);
        }
        let w = fr.render_vcd().expect("window");
        assert_eq!(w.trigger_cycle, 39);
        // depth/4 = 4 tail samples accepted after the trigger.
        assert_eq!(w.last_cycle, 43);
        assert_eq!(w.first_cycle, 43 + 1 - depth as u64);
        // A second trigger is ignored.
        fr.trigger();
        assert_eq!(fr.render_vcd().expect("window").trigger_cycle, 39);
    }

    /// The ring wraps three times before the trigger, so every row
    /// rendered was recycled from an evicted one: the window must still
    /// hold exactly the newest samples.
    #[test]
    fn recycled_rows_render_the_newest_samples() {
        let mut fr = FlightRecorder::new("ctl", watch(), 4);
        for c in 0..14u64 {
            fr.sample(&[c & 7, c & 1]);
        }
        fr.trigger();
        fr.sample(&[6, 0]);
        fr.sample(&[7, 1]); // frozen: dropped
        let w = fr.render_vcd().expect("window");
        assert_eq!((w.first_cycle, w.trigger_cycle, w.last_cycle), (11, 13, 14));
        let (_, body) = w.vcd.split_once("$enddefinitions $end\n").expect("header");
        assert_eq!(
            body,
            "#0\n$dumpvars\nb011 !\n1\"\n$end\n#10\nb100 !\n0\"\n#20\nb101 !\n1\"\n#30\nb110 !\n0\"\n"
        );
    }

    #[test]
    fn identical_sample_streams_freeze_identical_windows() {
        let run = || {
            let mut fr = FlightRecorder::new("ctl", watch(), 8);
            for c in 0..30u64 {
                fr.sample(&[c % 5, (c / 3) & 1]);
                if c == 20 {
                    fr.trigger();
                }
            }
            fr.render_vcd().expect("window")
        };
        assert_eq!(run(), run());
    }
}
