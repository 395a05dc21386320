//! VCD (Value Change Dump) waveform recording for the interpreter.
//!
//! The paper verifies generated accelerators by inspecting Vivado
//! simulation waveforms; this module is the reproduction's equivalent —
//! attach a recorder to an [`Interpreter`](crate::Interpreter) with
//! [`Interpreter::vcd_begin`](crate::Interpreter::vcd_begin) and every
//! subsequent clock edge is captured as one VCD timestep. The dump is
//! loadable in GTKWave / Surfer and in Perfetto's VCD importer.
//!
//! Scalar signals (wires and registers up to 64 bits) are dumped;
//! memories are skipped — their word traffic shows up on the address/data
//! buses anyway. Hierarchical names (`u0.count`) become nested `$scope`
//! blocks, mirroring the pre-flattening module tree.
//!
//! The recorder writes *through a sink* rather than accumulating the
//! whole document: the header is emitted at construction (it depends only
//! on the signal list) and each sample appends its delta immediately.
//! With the default in-memory sink this renders the same bytes as the old
//! accumulate-then-render design; with a streaming sink
//! ([`VcdRecorder::streaming`]) a GoogleNet-scale run (~1.4e8 cycles) can
//! dump its waveform to disk at constant resident memory.

use std::fmt::Write as _;
use std::io;

/// One dumped variable.
#[derive(Debug, Clone)]
struct VcdVar {
    /// Flattened hierarchical name (dot-separated).
    name: String,
    width: u32,
    /// Short printable id code.
    code: String,
}

/// Where sampled deltas go: the convenience in-memory buffer (collected
/// by [`VcdRecorder::finish`]) or any [`io::Write`] for bounded-memory
/// streaming.
enum VcdSink {
    Buffer(String),
    Stream(Box<dyn io::Write + Send>),
}

/// Captures signal values cycle by cycle and writes a VCD document
/// through its sink.
pub struct VcdRecorder {
    timescale_ns: u64,
    vars: Vec<VcdVar>,
    last: Vec<Option<u64>>,
    sink: VcdSink,
    /// Reused per-sample text (timestep line and changes) so
    /// steady-state sampling does not allocate.
    scratch: String,
    timesteps: u64,
    bytes_written: u64,
    write_error: bool,
}

impl std::fmt::Debug for VcdRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VcdRecorder")
            .field("vars", &self.vars.len())
            .field("timesteps", &self.timesteps)
            .field("bytes_written", &self.bytes_written)
            .field(
                "sink",
                &match self.sink {
                    VcdSink::Buffer(_) => "buffer",
                    VcdSink::Stream(_) => "stream",
                },
            )
            .finish()
    }
}

/// Encodes an index as a printable VCD id code (base-94 over `!`..`~`).
fn id_code(mut index: usize) -> String {
    let mut code = String::new();
    loop {
        code.push((33 + (index % 94) as u8) as char);
        index /= 94;
        if index == 0 {
            break;
        }
    }
    code
}

fn value_change(var: &VcdVar, value: u64, out: &mut String) {
    if var.width == 1 {
        let _ = writeln!(out, "{}{}", value & 1, var.code);
    } else {
        let _ = write!(out, "b");
        for bit in (0..var.width).rev() {
            let _ = write!(out, "{}", (value >> bit) & 1);
        }
        let _ = writeln!(out, " {}", var.code);
    }
}

/// Renders the VCD header: date/version/timescale and the `$scope` tree
/// derived from the dotted signal names. Depends only on the signal list,
/// which is why the recorder can emit it up front and stream the body.
fn render_header(top: &str, vars: &[VcdVar]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "$date deepburning run $end");
    let _ = writeln!(out, "$version deepburning-verilog interpreter $end");
    let _ = writeln!(out, "$timescale 1 ns $end");
    // Build the scope tree from dotted names, emitting variables at
    // their owning scope. Walk in sorted-by-prefix order so each scope
    // opens once.
    let mut order: Vec<usize> = (0..vars.len()).collect();
    order.sort_by(|&a, &b| {
        let pa: Vec<&str> = vars[a].name.split('.').collect();
        let pb: Vec<&str> = vars[b].name.split('.').collect();
        (pa[..pa.len() - 1].to_vec(), pa.len(), vars[a].name.as_str()).cmp(&(
            pb[..pb.len() - 1].to_vec(),
            pb.len(),
            vars[b].name.as_str(),
        ))
    });
    let _ = writeln!(out, "$scope module {top} $end");
    let mut open: Vec<String> = Vec::new();
    for &i in &order {
        let var = &vars[i];
        let parts: Vec<&str> = var.name.split('.').collect();
        let scopes = &parts[..parts.len() - 1];
        let leaf = parts[parts.len() - 1];
        // Close scopes no longer on the path.
        let common = open
            .iter()
            .zip(scopes)
            .take_while(|(a, b)| a.as_str() == **b)
            .count();
        for _ in common..open.len() {
            let _ = writeln!(out, "$upscope $end");
            open.pop();
        }
        for scope in &scopes[common..] {
            let _ = writeln!(out, "$scope module {scope} $end");
            open.push((*scope).to_string());
        }
        let _ = writeln!(out, "$var wire {} {} {} $end", var.width, var.code, leaf);
    }
    for _ in 0..open.len() {
        let _ = writeln!(out, "$upscope $end");
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");
    out
}

impl VcdRecorder {
    fn build(
        top: &str,
        signals: &[(String, u32)],
        timescale_ns: u64,
        sink: VcdSink,
    ) -> VcdRecorder {
        let vars: Vec<VcdVar> = signals
            .iter()
            .enumerate()
            .map(|(i, (name, width))| VcdVar {
                name: name.clone(),
                width: *width,
                code: id_code(i),
            })
            .collect();
        let mut rec = VcdRecorder {
            timescale_ns: timescale_ns.max(1),
            last: vec![None; vars.len()],
            vars,
            sink,
            scratch: String::new(),
            timesteps: 0,
            bytes_written: 0,
            write_error: false,
        };
        let header = render_header(top, &rec.vars);
        rec.emit(&header);
        rec
    }

    /// Creates a recorder dumping into an in-memory buffer (collected by
    /// [`VcdRecorder::finish`]). `timescale_ns` is the duration of one
    /// interpreter cycle (10 ns at the paper's 100 MHz).
    pub(crate) fn new(top: &str, signals: &[(String, u32)], timescale_ns: u64) -> VcdRecorder {
        VcdRecorder::build(top, signals, timescale_ns, VcdSink::Buffer(String::new()))
    }

    /// Creates a recorder streaming into `sink`. Writes happen
    /// incrementally — one header at construction, then one small chunk
    /// per sampled timestep — so resident memory is independent of run
    /// length. Write failures are best-effort: the first error stops
    /// further output and is reported by [`VcdRecorder::write_error`].
    pub(crate) fn streaming(
        top: &str,
        signals: &[(String, u32)],
        timescale_ns: u64,
        sink: Box<dyn io::Write + Send>,
    ) -> VcdRecorder {
        VcdRecorder::build(top, signals, timescale_ns, VcdSink::Stream(sink))
    }

    fn emit(&mut self, text: &str) {
        if self.write_error {
            return;
        }
        match &mut self.sink {
            VcdSink::Buffer(buf) => buf.push_str(text),
            VcdSink::Stream(w) => {
                if w.write_all(text.as_bytes()).is_err() {
                    self.write_error = true;
                    return;
                }
            }
        }
        self.bytes_written += text.len() as u64;
    }

    /// Records one timestep. `values` must parallel the signal list the
    /// recorder was created with; only changed values are dumped.
    pub(crate) fn sample(&mut self, values: &[u64]) {
        // The timestep line goes first into the scratch buffer; it is
        // emitted only if some value changed after it (the first sample
        // is the $dumpvars block at #0, emitted unconditionally).
        let mut text = std::mem::take(&mut self.scratch);
        text.clear();
        if self.timesteps == 0 {
            text.push_str("#0\n$dumpvars\n");
        } else {
            let _ = writeln!(text, "#{}", self.timesteps * self.timescale_ns);
        }
        let head = text.len();
        for ((var, last), value) in self.vars.iter().zip(&mut self.last).zip(values) {
            if *last != Some(*value) {
                value_change(var, *value, &mut text);
                *last = Some(*value);
            }
        }
        if self.timesteps == 0 {
            text.push_str("$end\n");
            self.emit(&text);
        } else if text.len() > head {
            self.emit(&text);
        }
        self.scratch = text;
        self.timesteps += 1;
    }

    /// Number of timesteps recorded so far (including the initial dump).
    pub fn timesteps(&self) -> u64 {
        self.timesteps
    }

    /// Total bytes pushed through the sink (header plus all deltas).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// True once a streaming sink has failed a write; output stops at the
    /// first error, the run itself continues.
    pub fn write_error(&self) -> bool {
        self.write_error
    }

    /// Finalises the recording. Buffered recorders return the complete
    /// VCD document; streaming recorders flush their sink and return
    /// `None` — the document already lives wherever the sink wrote it.
    pub fn finish(self) -> Option<String> {
        match self.sink {
            VcdSink::Buffer(buf) => Some(buf),
            VcdSink::Stream(mut w) => {
                let _ = w.flush();
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_codes_unique_and_printable() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..500 {
            let code = id_code(i);
            assert!(code.bytes().all(|b| (33..=126).contains(&b)), "{code:?}");
            assert!(seen.insert(code));
        }
    }

    fn signals() -> Vec<(String, u32)> {
        vec![
            ("clk".into(), 1),
            ("u0.count".into(), 4),
            ("u0.q".into(), 4),
        ]
    }

    #[test]
    fn header_and_changes() {
        let mut r = VcdRecorder::new("top", &signals(), 10);
        r.sample(&[0, 0, 0]);
        r.sample(&[1, 3, 3]);
        r.sample(&[1, 3, 3]); // no change: no timestep body emitted
        assert_eq!(r.timesteps(), 3);
        let text = r.finish().expect("buffered recorder returns text");
        assert!(text.contains("$timescale 1 ns $end"), "{text}");
        assert!(text.contains("$scope module top $end"), "{text}");
        assert!(text.contains("$scope module u0 $end"), "{text}");
        assert!(text.contains("$enddefinitions $end"), "{text}");
        assert!(text.contains("$dumpvars"), "{text}");
        assert!(text.contains("#10"), "{text}");
        assert!(!text.contains("#20"), "unchanged step dumped: {text}");
        assert!(text.contains("b0011 "), "{text}");
    }

    /// The streaming sink receives byte-for-byte what the buffered sink
    /// accumulates: same header, same deltas, same order.
    #[test]
    fn streamed_bytes_match_buffered_text() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let samples: [[u64; 3]; 4] = [[0, 0, 0], [1, 5, 2], [0, 5, 2], [1, 6, 2]];
        let mut buffered = VcdRecorder::new("top", &signals(), 10);
        let captured = Shared(Arc::new(Mutex::new(Vec::new())));
        let mut streamed =
            VcdRecorder::streaming("top", &signals(), 10, Box::new(captured.clone()));
        for s in &samples {
            buffered.sample(s);
            streamed.sample(s);
        }
        let text = buffered.finish().expect("buffered text");
        assert_eq!(streamed.bytes_written(), text.len() as u64);
        assert!(!streamed.write_error());
        assert!(streamed.finish().is_none(), "streaming returns no text");
        let bytes = captured.0.lock().unwrap().clone();
        assert_eq!(String::from_utf8(bytes).expect("utf8"), text);
    }

    /// A failing sink stops output without panicking and flags the error.
    #[test]
    fn sink_errors_are_best_effort() {
        struct Broken;
        impl io::Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut r = VcdRecorder::streaming("top", &signals(), 10, Box::new(Broken));
        assert!(r.write_error(), "header write fails immediately");
        let before = r.bytes_written();
        r.sample(&[1, 2, 3]);
        r.sample(&[0, 2, 3]);
        assert_eq!(r.timesteps(), 2, "sampling continues despite the sink");
        assert_eq!(r.bytes_written(), before);
        assert!(r.finish().is_none());
    }
}
