//! A behavioural interpreter for the emitted Verilog subset.
//!
//! This is the reproduction's stand-in for "RTL-level simulation of
//! forward-propagation … conducted with Vivado to verify the timing and
//! function of the generated accelerators": generated modules are executed
//! cycle by cycle and cross-checked against the compiler's behavioural
//! models (see the AGU and coordinator tests in `deepburning-core`).
//!
//! Semantics implemented:
//! * two-state logic (no X/Z) on arbitrary-width vectors (≤ 64 bits);
//! * continuous assigns re-evaluated to a fixed point each step;
//! * `always @(posedge clk)` blocks with non-blocking assignment
//!   semantics (all RHS evaluated against pre-edge state);
//! * `reg` memories with word read/write;
//! * module instances flattened recursively at construction.

use crate::ast::*;
use crate::vcd::VcdRecorder;
use std::collections::BTreeMap;
use std::fmt;

/// Error raised while elaborating or simulating a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulateError {
    /// Explanation.
    pub message: String,
}

impl fmt::Display for SimulateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation error: {}", self.message)
    }
}

impl std::error::Error for SimulateError {}

fn err(message: impl Into<String>) -> SimulateError {
    SimulateError {
        message: message.into(),
    }
}

/// The error [`Simulator::poke`] and [`Simulator::set`] give for a
/// signal that is not a top-level input.
pub(crate) fn not_input(name: &str) -> SimulateError {
    err(format!("`{name}` is not a top-level input"))
}

/// A scalar signal resolved once by [`Simulator::signal`], so a hot loop
/// reads and drives it without a name lookup. A handle indexes the
/// issuing simulator's signal table and means nothing to any other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalId(u32);

impl SignalId {
    pub(crate) fn new(index: usize) -> Self {
        SignalId(index as u32)
    }

    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[derive(Debug, Clone)]
enum Value {
    Scalar(u64),
    Memory(Vec<u64>),
}

#[derive(Debug, Clone)]
struct Signal {
    width: u32,
    value: Value,
}

/// Execution counters for one interpreter instance — the attribution data
/// behind "where does the RTL view spend its time".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InterpStats {
    /// Rising clock edges executed.
    pub clock_edges: u64,
    /// Settle passes over the continuous assigns (each pass re-evaluates
    /// every assign once).
    pub settle_passes: u64,
    /// Continuous-assign right-hand sides evaluated.
    pub assign_evals: u64,
    /// Non-blocking assignments committed on clock edges.
    pub nba_writes: u64,
}

impl InterpStats {
    /// Total expression evaluations attributable to this instance (the
    /// assign fixed-point dominates interpreter cost).
    pub fn evals(&self) -> u64 {
        self.assign_evals + self.nba_writes
    }
}

/// The common testbench surface over both simulation engines: the
/// tree-walking [`Interpreter`] (the semantic reference) and the
/// levelized [`CompiledSim`](crate::CompiledSim). Everything downstream
/// of elaboration — the differential harness, the counter replay, the
/// VCD divergence bundles — drives a `dyn Simulator`, so the engines are
/// interchangeable behind [`SimEngine`](crate::SimEngine).
pub trait Simulator {
    /// Resolves a scalar signal (hierarchical names use `.`) to a handle
    /// for [`Simulator::get`] and [`Simulator::set`].
    ///
    /// # Errors
    ///
    /// The errors of [`Simulator::read`]: unknown signals and memories.
    fn signal(&self, name: &str) -> Result<SignalId, SimulateError>;

    /// A resolved signal's current value: exactly what
    /// [`Simulator::read`] returns for its name.
    fn get(&self, id: SignalId) -> u64;

    /// Drives a resolved top-level input, then settles the
    /// combinational nets: [`Simulator::poke`] without the name.
    ///
    /// # Errors
    ///
    /// Returns [`Simulator::poke`]'s error for a non-input signal.
    fn set(&mut self, id: SignalId, value: u64) -> Result<(), SimulateError>;

    /// Drives a top-level input, then settles the combinational nets.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown or non-input signals.
    fn poke(&mut self, name: &str, value: u64) -> Result<(), SimulateError> {
        let id = self.signal(name).map_err(|_| not_input(name))?;
        self.set(id, value)
    }

    /// Reads any signal's current value (hierarchical names use `.`).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown signals or whole-memory reads.
    fn read(&self, name: &str) -> Result<u64, SimulateError> {
        self.signal(name).map(|id| self.get(id))
    }

    /// Writes a memory word-for-word (testbench backdoor for ROM images).
    ///
    /// # Errors
    ///
    /// Returns an error if the signal is not a memory.
    fn load_memory(&mut self, name: &str, words: &[u64]) -> Result<(), SimulateError>;

    /// One rising edge of the clock named `clk`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    fn clock(&mut self) -> Result<(), SimulateError> {
        self.clock_named("clk")
    }

    /// One rising edge of a specific clock signal.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    fn clock_named(&mut self, clk: &str) -> Result<(), SimulateError>;

    /// Cycles executed so far.
    fn cycles(&self) -> u64;

    /// Execution counters accumulated so far. `clock_edges` and
    /// `nba_writes` are engine-independent; `settle_passes` and
    /// `assign_evals` count the engine's own work (the compiled engine
    /// evaluates only dirty fanout cones, so its counts are lower).
    fn stats(&self) -> InterpStats;

    /// Number of flattened signals (diagnostics).
    fn signal_count(&self) -> usize;

    /// Expression evaluations attributed to the flattened instance path
    /// that produced each instruction (`""` is the top module). Engines
    /// without per-instruction attribution return an empty list.
    fn evals_by_module(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    /// Starts VCD waveform recording (see [`Interpreter::vcd_begin`]).
    fn vcd_begin(&mut self, top: &str);

    /// Starts VCD recording that streams incrementally into `sink`
    /// instead of buffering in memory: the header is written immediately
    /// and every subsequent clock edge appends one small delta, so
    /// resident memory stays constant however long the run is.
    /// [`Simulator::vcd_end`] flushes the sink and returns `None` — the
    /// document lives wherever the sink wrote it.
    fn vcd_begin_streaming(&mut self, top: &str, sink: Box<dyn std::io::Write + Send>);

    /// Forces a sample outside a clock edge.
    fn vcd_sample_now(&mut self);

    /// Stops recording. Buffered recordings ([`Simulator::vcd_begin`])
    /// return the VCD document; streamed recordings return `None` after
    /// flushing their sink.
    fn vcd_end(&mut self) -> Option<String>;

    /// Timesteps recorded so far, or 0 when not recording.
    fn vcd_timesteps(&self) -> u64;

    /// Bytes the active VCD recording has pushed through its sink, or 0
    /// when not recording.
    fn vcd_bytes_written(&self) -> u64 {
        0
    }

    /// Width in bits of a scalar signal, or `None` for unknown signals
    /// and memories. Used by flight recorders to build watch lists.
    fn signal_width(&self, name: &str) -> Option<u32>;

    /// Starts hot-spot profiling (counter-based; see
    /// `deepburning_trace::prof`). Engines without a profiler ignore
    /// the call.
    fn prof_enable(&mut self) {}

    /// Snapshot of the accumulated profile, or `None` when profiling
    /// was never enabled (or the engine has no profiler).
    fn prof_profile(&self) -> Option<deepburning_trace::prof::EngineProfile> {
        None
    }
}

// ---------------------------------------------------------------------------
// Shared elaboration: hierarchy flattening.
// ---------------------------------------------------------------------------

/// One flattened signal declaration.
#[derive(Debug, Clone)]
pub(crate) struct FlatSignal {
    /// Hierarchical dot-separated name.
    pub name: String,
    /// Bit width.
    pub width: u32,
    /// `Some(depth)` for memories.
    pub depth: Option<usize>,
}

/// A [`Design`] flattened to executable primitives: every instance
/// inlined, every identifier rewritten to its hierarchical name. Both
/// engines elaborate from this.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatDesign {
    /// Signals in declaration order (top ports first).
    pub signals: Vec<FlatSignal>,
    /// Continuous assigns, flattened, in declaration order.
    pub assigns: Vec<(Expr, Expr)>,
    /// `(clock name, body)` for every flattened posedge block.
    pub clocked: Vec<(String, Vec<Stmt>)>,
    /// Top-level input port names (writable from the testbench).
    pub inputs: Vec<String>,
}

impl FlatDesign {
    fn declare(
        &mut self,
        name: &str,
        width: u32,
        depth: Option<usize>,
    ) -> Result<(), SimulateError> {
        if width > 64 {
            return Err(err(format!(
                "signal `{name}` is {width} bits; the interpreter handles at most 64"
            )));
        }
        self.signals.push(FlatSignal {
            name: name.to_string(),
            width,
            depth,
        });
        Ok(())
    }

    fn flatten(
        &mut self,
        design: &Design,
        module: &VModule,
        prefix: &str,
        binds: &BTreeMap<String, Expr>,
    ) -> Result<(), SimulateError> {
        for item in &module.items {
            match item {
                Item::Net(n) => {
                    self.declare(&prefixed(prefix, &n.name), n.width, n.depth)?;
                }
                Item::Assign { lhs, rhs } => {
                    self.assigns.push((
                        rewrite_expr(lhs, prefix, binds),
                        rewrite_expr(rhs, prefix, binds),
                    ));
                }
                Item::Always { sensitivity, body } => {
                    let clk = match sensitivity {
                        Sensitivity::PosEdge(c) => {
                            // Resolve the clock through the binds.
                            match binds.get(c) {
                                Some(Expr::Id(parent)) => parent.clone(),
                                Some(_) => return Err(err("clock bound to a non-identifier")),
                                None => prefixed(prefix, c),
                            }
                        }
                        Sensitivity::Combinational => {
                            return Err(err(
                                "combinational always blocks are not supported; use assigns",
                            ))
                        }
                    };
                    let body = body
                        .iter()
                        .map(|s| rewrite_stmt(s, prefix, binds))
                        .collect();
                    self.clocked.push((clk, body));
                }
                Item::Instance {
                    module: child_name,
                    name,
                    connections,
                    ..
                } => {
                    let child = design
                        .module(child_name)
                        .ok_or_else(|| err(format!("no module `{child_name}`")))?;
                    let child_prefix = prefixed(prefix, name);
                    let mut child_binds = BTreeMap::new();
                    for (port, expr) in connections {
                        child_binds.insert(port.clone(), rewrite_expr(expr, prefix, binds));
                    }
                    // Unconnected child ports become local nets.
                    for p in &child.ports {
                        if !child_binds.contains_key(&p.name) {
                            let local = prefixed(&child_prefix, &p.name);
                            self.declare(&local, p.width, None)?;
                            child_binds.insert(p.name.clone(), Expr::Id(local));
                        }
                    }
                    // Output ports drive the bound expression: model as a
                    // continuous assign parent_expr = child_port_signal.
                    for p in &child.ports {
                        let local = prefixed(&child_prefix, &p.name);
                        match p.dir {
                            PortDir::Output => {
                                self.declare(&local, p.width, None)?;
                                let parent = child_binds[&p.name].clone();
                                self.assigns.push((parent, Expr::Id(local.clone())));
                            }
                            PortDir::Input => {
                                // Inputs read the parent's expression
                                // directly through the bind map.
                            }
                        }
                    }
                    // Inside the child, output port writes go to the local
                    // signal; input port reads go through the bind.
                    let mut inner_binds = child_binds.clone();
                    for p in &child.ports {
                        if p.dir == PortDir::Output {
                            inner_binds
                                .insert(p.name.clone(), Expr::Id(prefixed(&child_prefix, &p.name)));
                        }
                    }
                    self.flatten(design, child, &child_prefix, &inner_binds)?;
                }
                Item::Comment(_) => {}
            }
        }
        Ok(())
    }
}

/// Flattens `design`'s module `top` (instantiating submodules
/// recursively) into executable primitives.
pub(crate) fn flatten_design(design: &Design, top: &str) -> Result<FlatDesign, SimulateError> {
    let module = design
        .module(top)
        .ok_or_else(|| err(format!("no module `{top}`")))?;
    let mut flat = FlatDesign::default();
    // Top ports become plain signals the testbench reads/writes.
    for p in &module.ports {
        flat.declare(&p.name, p.width, None)?;
        if p.dir == PortDir::Input {
            flat.inputs.push(p.name.clone());
        }
    }
    flat.flatten(design, module, "", &BTreeMap::new())?;
    Ok(flat)
}

/// A flattened, executable instance of a [`Design`]'s module.
///
/// # Examples
///
/// ```
/// use deepburning_verilog::*;
///
/// let mut m = VModule::new("toggler");
/// m.port(Port::input("clk", 1)).port(Port::output("q", 1));
/// m.item(Item::Net(NetDecl::reg("state", 1)));
/// m.item(Item::Always {
///     sensitivity: Sensitivity::PosEdge("clk".into()),
///     body: vec![Stmt::NonBlocking(
///         Expr::id("state"),
///         Expr::Unary(UnaryOp::BitNot, Box::new(Expr::id("state"))),
///     )],
/// });
/// m.item(Item::Assign { lhs: Expr::id("q"), rhs: Expr::id("state") });
///
/// let mut sim = Interpreter::elaborate(&Design::new(m), "toggler")?;
/// assert_eq!(sim.read("q")?, 0);
/// sim.clock()?;
/// assert_eq!(sim.read("q")?, 1);
/// sim.clock()?;
/// assert_eq!(sim.read("q")?, 0);
/// # Ok::<(), deepburning_verilog::SimulateError>(())
/// ```
#[derive(Debug)]
pub struct Interpreter {
    signals: BTreeMap<String, Signal>,
    /// Continuous assigns, flattened, in declaration order.
    assigns: Vec<(Expr, Expr)>,
    /// `(clock name, body)` for every flattened posedge block.
    clocked: Vec<(String, Vec<Stmt>)>,
    /// Signal names in `signals` order; a [`SignalId`] indexes this.
    names: Vec<String>,
    /// Whether each signal (indexed like `names`) is a top-level input.
    input: Vec<bool>,
    /// Cycles executed so far.
    cycles: u64,
    /// Execution counters.
    stats: InterpStats,
    /// Active waveform recorder (see [`Interpreter::vcd_begin`]) and the
    /// dumped signal names in recorder order.
    vcd: Option<Box<VcdRecorder>>,
    vcd_names: Vec<String>,
    /// Instance-path table and per-path eval counts — the Tree engine's
    /// coarse attribution, matching the compiled engine's
    /// `evals_by_module` semantics (assign evals plus NBA writes,
    /// attributed to the destination signal's instance path).
    module_paths: Vec<String>,
    module_evals: Vec<u64>,
    /// Per-assign module id (indexed like `assigns`).
    assign_module: Vec<u32>,
    /// Module id by instance path, for NBA-write attribution at runtime.
    module_of: BTreeMap<String, u32>,
    /// Assign evals whose destination value did not change — the Tree
    /// engine's analogue of the compiled engine's wasted wakeups.
    wasted_evals: u64,
}

/// Root identifier of an lvalue expression (`a.b.c[i]` → `a.b.c`).
fn lhs_root(e: &Expr) -> Option<&str> {
    match e {
        Expr::Id(n) => Some(n),
        Expr::Index(b, _) | Expr::Slice(b, _, _) => lhs_root(b),
        _ => None,
    }
}

fn prefixed(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

/// Rewrites every identifier in `e` with the instance prefix, and replaces
/// identifiers bound to parent expressions (port connections).
fn rewrite_expr(e: &Expr, prefix: &str, binds: &BTreeMap<String, Expr>) -> Expr {
    match e {
        Expr::Id(n) => {
            if let Some(bound) = binds.get(n) {
                bound.clone()
            } else {
                Expr::Id(prefixed(prefix, n))
            }
        }
        Expr::Lit { .. } => e.clone(),
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(rewrite_expr(a, prefix, binds))),
        Expr::Binary(op, l, r) => Expr::Binary(
            *op,
            Box::new(rewrite_expr(l, prefix, binds)),
            Box::new(rewrite_expr(r, prefix, binds)),
        ),
        Expr::Ternary(c, a, b) => Expr::Ternary(
            Box::new(rewrite_expr(c, prefix, binds)),
            Box::new(rewrite_expr(a, prefix, binds)),
            Box::new(rewrite_expr(b, prefix, binds)),
        ),
        Expr::Index(b, i) => Expr::Index(
            Box::new(rewrite_expr(b, prefix, binds)),
            Box::new(rewrite_expr(i, prefix, binds)),
        ),
        Expr::Slice(b, hi, lo) => Expr::Slice(Box::new(rewrite_expr(b, prefix, binds)), *hi, *lo),
        Expr::Concat(es) => {
            Expr::Concat(es.iter().map(|e| rewrite_expr(e, prefix, binds)).collect())
        }
    }
}

fn rewrite_stmt(s: &Stmt, prefix: &str, binds: &BTreeMap<String, Expr>) -> Stmt {
    match s {
        Stmt::NonBlocking(l, r) => Stmt::NonBlocking(
            rewrite_expr(l, prefix, binds),
            rewrite_expr(r, prefix, binds),
        ),
        Stmt::Blocking(l, r) => Stmt::Blocking(
            rewrite_expr(l, prefix, binds),
            rewrite_expr(r, prefix, binds),
        ),
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => Stmt::If {
            cond: rewrite_expr(cond, prefix, binds),
            then_body: then_body
                .iter()
                .map(|s| rewrite_stmt(s, prefix, binds))
                .collect(),
            else_body: else_body
                .iter()
                .map(|s| rewrite_stmt(s, prefix, binds))
                .collect(),
        },
        Stmt::Case {
            subject,
            arms,
            default,
        } => Stmt::Case {
            subject: rewrite_expr(subject, prefix, binds),
            arms: arms
                .iter()
                .map(|(m, body)| {
                    (
                        rewrite_expr(m, prefix, binds),
                        body.iter()
                            .map(|s| rewrite_stmt(s, prefix, binds))
                            .collect(),
                    )
                })
                .collect(),
            default: default
                .iter()
                .map(|s| rewrite_stmt(s, prefix, binds))
                .collect(),
        },
        Stmt::Comment(c) => Stmt::Comment(c.clone()),
    }
}

impl Interpreter {
    /// Flattens `top` (instantiating submodules recursively) into an
    /// executable state machine. All signals start at zero.
    ///
    /// # Errors
    ///
    /// Returns [`SimulateError`] on unknown modules, unbound output ports
    /// connected to non-identifiers, or signals wider than 64 bits.
    pub fn elaborate(design: &Design, top: &str) -> Result<Self, SimulateError> {
        let flat = flatten_design(design, top)?;
        let mut signals = BTreeMap::new();
        for sig in &flat.signals {
            let value = match sig.depth {
                Some(d) => Value::Memory(vec![0; d]),
                None => Value::Scalar(0),
            };
            signals.insert(
                sig.name.clone(),
                Signal {
                    width: sig.width,
                    value,
                },
            );
        }
        // Instance-path table keyed like the compiled engine's: module
        // id 0 is the top (`""`), others are flattened instance paths.
        let mut module_paths: Vec<String> = vec![String::new()];
        let mut module_of: BTreeMap<String, u32> = BTreeMap::new();
        module_of.insert(String::new(), 0);
        for sig in &flat.signals {
            let path = sig.name.rsplit_once('.').map_or("", |(p, _)| p);
            if !module_of.contains_key(path) {
                module_of.insert(path.to_string(), module_paths.len() as u32);
                module_paths.push(path.to_string());
            }
        }
        let assign_module: Vec<u32> = flat
            .assigns
            .iter()
            .map(|(lhs, _)| {
                let path = lhs_root(lhs)
                    .and_then(|root| root.rsplit_once('.'))
                    .map_or("", |(p, _)| p);
                module_of.get(path).copied().unwrap_or(0)
            })
            .collect();
        let module_evals = vec![0; module_paths.len()];
        let names: Vec<String> = signals.keys().cloned().collect();
        let input = names.iter().map(|n| flat.inputs.contains(n)).collect();
        let mut interp = Interpreter {
            signals,
            assigns: flat.assigns,
            clocked: flat.clocked,
            names,
            input,
            cycles: 0,
            stats: InterpStats::default(),
            vcd: None,
            vcd_names: Vec::new(),
            module_paths,
            module_evals,
            assign_module,
            module_of,
            wasted_evals: 0,
        };
        interp.settle()?;
        Ok(interp)
    }

    fn eval(&self, e: &Expr) -> Result<(u64, u32), SimulateError> {
        Ok(match e {
            Expr::Id(n) => {
                let s = self
                    .signals
                    .get(n)
                    .ok_or_else(|| err(format!("unknown signal `{n}`")))?;
                match &s.value {
                    Value::Scalar(v) => (*v & mask(s.width), s.width),
                    Value::Memory(_) => {
                        return Err(err(format!("memory `{n}` read without index")))
                    }
                }
            }
            Expr::Lit { width, value } => (*value & mask(*width), *width),
            Expr::Unary(op, a) => {
                let (v, w) = self.eval(a)?;
                match op {
                    UnaryOp::Not => (u64::from(v == 0), 1),
                    UnaryOp::BitNot => (!v & mask(w), w),
                    UnaryOp::Neg => (v.wrapping_neg() & mask(w), w),
                    UnaryOp::RedOr => (u64::from(v != 0), 1),
                    UnaryOp::RedAnd => (u64::from(v == mask(w)), 1),
                }
            }
            Expr::Binary(op, l, r) => {
                let (lv, lw) = self.eval(l)?;
                let (rv, rw) = self.eval(r)?;
                let w = lw.max(rw);
                let m = mask(w);
                let signed = |v: u64, w: u32| -> i64 {
                    let m = mask(w);
                    let v = v & m;
                    if w < 64 && v >> (w - 1) != 0 {
                        (v | !m) as i64
                    } else {
                        v as i64
                    }
                };
                match op {
                    BinaryOp::Add => (lv.wrapping_add(rv) & m, w),
                    BinaryOp::Sub => (lv.wrapping_sub(rv) & m, w),
                    BinaryOp::Mul => (lv.wrapping_mul(rv) & m, w),
                    BinaryOp::Div => {
                        // `$signed` division truncating toward zero. Division
                        // by zero yields 0 — the two-state stand-in for `x`.
                        let d = signed(rv, rw);
                        let q = if d == 0 {
                            0
                        } else {
                            signed(lv, lw).wrapping_div(d)
                        };
                        ((q as u64) & m, w)
                    }
                    BinaryOp::And => (lv & rv, w),
                    BinaryOp::Or => (lv | rv, w),
                    BinaryOp::Xor => (lv ^ rv, w),
                    // Shifting by 64 or more moves every bit out.
                    BinaryOp::Shl => ((if rv < 64 { lv << rv } else { 0 }) & mask(lw), lw),
                    BinaryOp::Shr => {
                        // Arithmetic shift on the left operand's width;
                        // 64 or more fills with the sign, as 63 does.
                        let sv = signed(lv, lw) >> rv.min(63);
                        ((sv as u64) & mask(lw), lw)
                    }
                    BinaryOp::Eq => (u64::from((lv & m) == (rv & m)), 1),
                    BinaryOp::Ne => (u64::from((lv & m) != (rv & m)), 1),
                    BinaryOp::Lt => (u64::from(lv < rv), 1),
                    BinaryOp::Slt => (u64::from(signed(lv, lw) < signed(rv, rw)), 1),
                    BinaryOp::Ge => (u64::from(lv >= rv), 1),
                    BinaryOp::LogAnd => (u64::from(lv != 0 && rv != 0), 1),
                    BinaryOp::LogOr => (u64::from(lv != 0 || rv != 0), 1),
                }
            }
            Expr::Ternary(c, a, b) => {
                let (cv, _) = self.eval(c)?;
                if cv != 0 {
                    self.eval(a)?
                } else {
                    self.eval(b)?
                }
            }
            Expr::Index(base, idx) => {
                let root = base
                    .lvalue_root()
                    .ok_or_else(|| err("index on a non-identifier"))?;
                let (i, _) = self.eval(idx)?;
                let s = self
                    .signals
                    .get(root)
                    .ok_or_else(|| err(format!("unknown signal `{root}`")))?;
                match &s.value {
                    Value::Memory(words) => {
                        let v = words.get(i as usize).copied().unwrap_or(0);
                        (v & mask(s.width), s.width)
                    }
                    // Two-state Verilog reads 0 past the width.
                    Value::Scalar(v) if i < u64::from(s.width) => ((v >> i) & 1, 1),
                    Value::Scalar(_) => (0, 1),
                }
            }
            Expr::Slice(base, hi, lo) => {
                let (v, _) = self.eval(base)?;
                let w = hi - lo + 1;
                ((v >> lo) & mask(w), w)
            }
            Expr::Concat(es) => {
                let mut acc = 0u64;
                let mut total = 0u32;
                for part in es {
                    let (v, w) = self.eval(part)?;
                    // A 64-bit part shifts every earlier bit out.
                    acc = acc.checked_shl(w).unwrap_or(0) | (v & mask(w));
                    total += w;
                }
                (acc & mask(total), total)
            }
        })
    }

    /// Writes `value` to `lhs`, returning `false` when the write is
    /// ignored: a bit or word index out of range, or a slice of a memory.
    fn write_signal(&mut self, lhs: &Expr, value: u64) -> Result<bool, SimulateError> {
        match lhs {
            Expr::Id(n) => {
                let s = self
                    .signals
                    .get_mut(n)
                    .ok_or_else(|| err(format!("unknown signal `{n}`")))?;
                let w = s.width;
                match &mut s.value {
                    Value::Scalar(slot) => *slot = value & mask(w),
                    Value::Memory(_) => {
                        return Err(err(format!("memory `{n}` written without index")))
                    }
                }
            }
            Expr::Index(base, idx) => {
                let root = base
                    .lvalue_root()
                    .ok_or_else(|| err("index write on a non-identifier"))?
                    .to_string();
                let (i, _) = self.eval(idx)?;
                let s = self
                    .signals
                    .get_mut(&root)
                    .ok_or_else(|| err(format!("unknown signal `{root}`")))?;
                let w = s.width;
                match &mut s.value {
                    Value::Memory(words) => match words.get_mut(i as usize) {
                        Some(slot) => *slot = value & mask(w),
                        None => return Ok(false),
                    },
                    // Two-state Verilog ignores a write past the width.
                    Value::Scalar(_) if i >= u64::from(w) => return Ok(false),
                    Value::Scalar(slot) => {
                        *slot = (*slot & !(1 << i)) | ((value & 1) << i);
                    }
                }
            }
            Expr::Slice(base, hi, lo) => {
                let root = base
                    .lvalue_root()
                    .ok_or_else(|| err("slice write on a non-identifier"))?
                    .to_string();
                let s = self
                    .signals
                    .get_mut(&root)
                    .ok_or_else(|| err(format!("unknown signal `{root}`")))?;
                match &mut s.value {
                    Value::Scalar(slot) => {
                        let field = mask(hi - lo + 1);
                        *slot = (*slot & !(field << lo)) | ((value & field) << lo);
                    }
                    Value::Memory(_) => return Ok(false),
                }
            }
            _ => return Err(err("assignment to a non-lvalue")),
        }
        Ok(true)
    }

    /// Re-evaluates continuous assigns until the net values stop changing.
    fn settle(&mut self) -> Result<(), SimulateError> {
        for _ in 0..(self.assigns.len() + 2) {
            let mut changed = false;
            let assigns = self.assigns.clone();
            self.stats.settle_passes += 1;
            self.stats.assign_evals += assigns.len() as u64;
            for (idx, (lhs, rhs)) in assigns.iter().enumerate() {
                let (v, _) = self.eval(rhs)?;
                self.module_evals[self.assign_module[idx] as usize] += 1;
                let before = self.eval_lhs_current(lhs)?;
                // An ignored write (index out of range) changes nothing,
                // as in the compiled engine.
                if before != Some(v) && self.write_signal(lhs, v)? {
                    changed = true;
                } else {
                    self.wasted_evals += 1;
                }
            }
            if !changed {
                return Ok(());
            }
        }
        Err(err("combinational loop: assigns did not settle"))
    }

    fn eval_lhs_current(&self, lhs: &Expr) -> Result<Option<u64>, SimulateError> {
        Ok(match lhs {
            Expr::Id(_) | Expr::Index(_, _) | Expr::Slice(_, _, _) => {
                Some(self.eval(lhs).map(|(v, _)| v).unwrap_or(0))
            }
            _ => None,
        })
    }

    fn run_stmts(&self, stmts: &[Stmt], nba: &mut Vec<(Expr, u64)>) -> Result<(), SimulateError> {
        for s in stmts {
            match s {
                Stmt::NonBlocking(lhs, rhs) => {
                    let (v, _) = self.eval(rhs)?;
                    nba.push((lhs.clone(), v));
                }
                Stmt::Blocking(lhs, rhs) => {
                    // Treated as NBA too: the generated code never relies
                    // on intra-block ordering.
                    let (v, _) = self.eval(rhs)?;
                    nba.push((lhs.clone(), v));
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let (c, _) = self.eval(cond)?;
                    if c != 0 {
                        self.run_stmts(then_body, nba)?;
                    } else {
                        self.run_stmts(else_body, nba)?;
                    }
                }
                Stmt::Case {
                    subject,
                    arms,
                    default,
                } => {
                    let (sv, sw) = self.eval(subject)?;
                    let mut hit = false;
                    for (m, body) in arms {
                        let (mv, _) = self.eval(m)?;
                        if (mv & mask(sw)) == sv {
                            self.run_stmts(body, nba)?;
                            hit = true;
                            break;
                        }
                    }
                    if !hit {
                        self.run_stmts(default, nba)?;
                    }
                }
                Stmt::Comment(_) => {}
            }
        }
        Ok(())
    }

    /// Writes a memory word directly (testbench backdoor for ROM images).
    ///
    /// # Errors
    ///
    /// Returns an error if the signal is not a memory.
    pub fn load_memory(&mut self, name: &str, words: &[u64]) -> Result<(), SimulateError> {
        let s = self
            .signals
            .get_mut(name)
            .ok_or_else(|| err(format!("unknown signal `{name}`")))?;
        let w = s.width;
        match &mut s.value {
            Value::Memory(slots) => {
                for (slot, word) in slots.iter_mut().zip(words) {
                    *slot = word & mask(w);
                }
                Ok(())
            }
            Value::Scalar(_) => Err(err(format!("`{name}` is not a memory"))),
        }
    }

    /// Advances every clock named `clk` by one rising edge, then settles
    /// the combinational nets.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn clock(&mut self) -> Result<(), SimulateError> {
        self.clock_named("clk")
    }

    /// One rising edge of a specific clock signal.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn clock_named(&mut self, clk: &str) -> Result<(), SimulateError> {
        let mut nba: Vec<(Expr, u64)> = Vec::new();
        let blocks = self.clocked.clone();
        for (block_clk, body) in &blocks {
            if block_clk == clk {
                self.run_stmts(body, &mut nba)?;
            }
        }
        self.stats.nba_writes += nba.len() as u64;
        for (lhs, v) in nba {
            let path = lhs_root(&lhs)
                .and_then(|root| root.rsplit_once('.'))
                .map_or("", |(p, _)| p);
            let module = self.module_of.get(path).copied().unwrap_or(0);
            self.module_evals[module as usize] += 1;
            self.write_signal(&lhs, v)?;
        }
        self.cycles += 1;
        self.stats.clock_edges += 1;
        self.settle()?;
        self.vcd_capture();
        Ok(())
    }

    /// Cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Execution counters accumulated so far.
    pub fn stats(&self) -> InterpStats {
        self.stats
    }

    /// Number of flattened signals (diagnostics).
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Evaluations attributed per flattened instance path (`""` is the
    /// top module), descending by count. Matches the compiled engine's
    /// attribution semantics (assign evals plus NBA writes keyed by
    /// destination), though absolute counts differ: the Tree engine
    /// re-evaluates every assign each settle pass while the compiled
    /// engine wakes only dirty fanout cones.
    pub fn evals_by_module(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .module_paths
            .iter()
            .zip(&self.module_evals)
            .filter(|(_, &n)| n > 0)
            .map(|(p, &n)| (p.clone(), n))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Coarse profile for engine comparability: per-module segments at
    /// level 0 with `ops == evals` (the Tree engine walks one AST node
    /// set per eval, so evals are the only cost proxy available), no
    /// per-opcode breakdown and no cut table. Always available — the
    /// Tree engine's attribution is unconditional.
    pub fn prof_profile(&self) -> Option<deepburning_trace::prof::EngineProfile> {
        use deepburning_trace::prof::{EngineProfile, SegmentProf, SweepProf};
        let mut assigns_per_module = vec![0u64; self.module_paths.len()];
        for &m in &self.assign_module {
            assigns_per_module[m as usize] += 1;
        }
        let total_evals: u64 = self.module_evals.iter().sum();
        let segments = self
            .module_paths
            .iter()
            .zip(&self.module_evals)
            .zip(&assigns_per_module)
            .filter(|((_, &evals), &instrs)| evals > 0 || instrs > 0)
            .map(|((path, &evals), &instrs)| SegmentProf {
                module: path.clone(),
                level: 0,
                instrs,
                evals,
                ops: evals,
            })
            .collect();
        Some(EngineProfile {
            engine: "tree".to_string(),
            total_evals,
            total_ops: total_evals,
            segments,
            opcodes: Vec::new(),
            sweeps: SweepProf {
                sweeps: self.stats.settle_passes,
                evals: total_evals,
                wasted_wakeups: self.wasted_evals,
                dirty_occupancy: deepburning_trace::Histogram::new(),
            },
            cuts: Vec::new(),
            clocked_ops: 0,
        })
    }

    // -- waveform recording -------------------------------------------------

    /// Starts VCD waveform recording: every subsequent clock edge becomes
    /// one 10 ns timestep (the paper's 100 MHz clock). Scalar signals are
    /// dumped; memories are skipped. The current state is captured as the
    /// `#0` initial dump.
    pub fn vcd_begin(&mut self, top: &str) {
        let signals = self.vcd_signal_list();
        self.vcd = Some(Box::new(VcdRecorder::new(top, &signals, 10)));
        self.vcd_capture();
    }

    /// Starts VCD recording that streams into `sink` instead of
    /// buffering: constant resident memory regardless of run length.
    /// [`Interpreter::vcd_end`] then flushes the sink and returns `None`.
    pub fn vcd_begin_streaming(&mut self, top: &str, sink: Box<dyn std::io::Write + Send>) {
        let signals = self.vcd_signal_list();
        self.vcd = Some(Box::new(VcdRecorder::streaming(top, &signals, 10, sink)));
        self.vcd_capture();
    }

    fn vcd_signal_list(&mut self) -> Vec<(String, u32)> {
        let signals: Vec<(String, u32)> = self
            .signals
            .iter()
            .filter(|(_, s)| matches!(s.value, Value::Scalar(_)))
            .map(|(name, s)| (name.clone(), s.width))
            .collect();
        self.vcd_names = signals.iter().map(|(n, _)| n.clone()).collect();
        signals
    }

    /// Forces a sample outside a clock edge (used for purely combinational
    /// blocks driven through pokes).
    pub fn vcd_sample_now(&mut self) {
        self.vcd_capture();
    }

    /// Stops recording and returns the VCD document, or `None` if
    /// [`Interpreter::vcd_begin`] was never called.
    pub fn vcd_end(&mut self) -> Option<String> {
        self.vcd_names.clear();
        self.vcd.take().and_then(|rec| rec.finish())
    }

    /// Timesteps recorded so far (including the initial dump), or 0 when
    /// not recording.
    pub fn vcd_timesteps(&self) -> u64 {
        self.vcd.as_ref().map(|r| r.timesteps()).unwrap_or(0)
    }

    /// Bytes the active recording has pushed through its sink.
    pub fn vcd_bytes_written(&self) -> u64 {
        self.vcd.as_ref().map(|r| r.bytes_written()).unwrap_or(0)
    }

    /// Width of a scalar signal, or `None` for unknowns and memories.
    pub fn signal_width(&self, name: &str) -> Option<u32> {
        self.signals
            .get(name)
            .filter(|s| matches!(s.value, Value::Scalar(_)))
            .map(|s| s.width)
    }

    fn vcd_capture(&mut self) {
        if let Some(mut rec) = self.vcd.take() {
            let values: Vec<u64> = self
                .vcd_names
                .iter()
                .map(|n| match self.signals.get(n).map(|s| (&s.value, s.width)) {
                    Some((Value::Scalar(v), w)) => *v & mask(w),
                    _ => 0,
                })
                .collect();
            rec.sample(&values);
            self.vcd = Some(rec);
        }
    }
}

impl Simulator for Interpreter {
    /// Ids index the sorted signal names.
    fn signal(&self, name: &str) -> Result<SignalId, SimulateError> {
        let i = self
            .names
            .binary_search_by(|n| n.as_str().cmp(name))
            .map_err(|_| err(format!("unknown signal `{name}`")))?;
        match self.signals[name].value {
            Value::Scalar(_) => Ok(SignalId::new(i)),
            Value::Memory(_) => Err(err(format!("memory `{name}` read without index"))),
        }
    }

    fn get(&self, id: SignalId) -> u64 {
        let s = &self.signals[&self.names[id.index()]];
        match s.value {
            Value::Scalar(v) => v & mask(s.width),
            Value::Memory(_) => 0,
        }
    }

    fn set(&mut self, id: SignalId, value: u64) -> Result<(), SimulateError> {
        let name = &self.names[id.index()];
        if !self.input[id.index()] {
            return Err(not_input(name));
        }
        let s = self.signals.get_mut(name).expect("ids name signals");
        s.value = Value::Scalar(value & mask(s.width));
        self.settle()
    }

    fn load_memory(&mut self, name: &str, words: &[u64]) -> Result<(), SimulateError> {
        Interpreter::load_memory(self, name, words)
    }

    fn clock_named(&mut self, clk: &str) -> Result<(), SimulateError> {
        Interpreter::clock_named(self, clk)
    }

    fn cycles(&self) -> u64 {
        Interpreter::cycles(self)
    }

    fn stats(&self) -> InterpStats {
        Interpreter::stats(self)
    }

    fn signal_count(&self) -> usize {
        Interpreter::signal_count(self)
    }

    fn vcd_begin(&mut self, top: &str) {
        Interpreter::vcd_begin(self, top);
    }

    fn vcd_begin_streaming(&mut self, top: &str, sink: Box<dyn std::io::Write + Send>) {
        Interpreter::vcd_begin_streaming(self, top, sink);
    }

    fn vcd_sample_now(&mut self) {
        Interpreter::vcd_sample_now(self);
    }

    fn vcd_end(&mut self) -> Option<String> {
        Interpreter::vcd_end(self)
    }

    fn vcd_timesteps(&self) -> u64 {
        Interpreter::vcd_timesteps(self)
    }

    fn vcd_bytes_written(&self) -> u64 {
        Interpreter::vcd_bytes_written(self)
    }

    fn signal_width(&self, name: &str) -> Option<u32> {
        Interpreter::signal_width(self, name)
    }

    fn evals_by_module(&self) -> Vec<(String, u64)> {
        Interpreter::evals_by_module(self)
    }

    fn prof_profile(&self) -> Option<deepburning_trace::prof::EngineProfile> {
        Interpreter::prof_profile(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(width: u32) -> VModule {
        let mut m = VModule::new("counter");
        m.port(Port::input("clk", 1))
            .port(Port::input("rst", 1))
            .port(Port::output("q", width));
        m.item(Item::Net(NetDecl::reg("count", width)));
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![Stmt::If {
                cond: Expr::id("rst"),
                then_body: vec![Stmt::NonBlocking(Expr::id("count"), Expr::lit(width, 0))],
                else_body: vec![Stmt::NonBlocking(
                    Expr::id("count"),
                    Expr::bin(BinaryOp::Add, Expr::id("count"), Expr::lit(width, 1)),
                )],
            }],
        });
        m.item(Item::Assign {
            lhs: Expr::id("q"),
            rhs: Expr::id("count"),
        });
        m
    }

    #[test]
    fn counter_counts_and_wraps() {
        let mut sim = Interpreter::elaborate(&Design::new(counter(3)), "counter").expect("elab");
        for expected in 1..=7u64 {
            sim.clock().expect("clock");
            assert_eq!(sim.read("q").expect("read"), expected);
        }
        sim.clock().expect("clock");
        assert_eq!(sim.read("q").expect("read"), 0, "3-bit counter wraps");
    }

    #[test]
    fn reset_dominates() {
        let mut sim = Interpreter::elaborate(&Design::new(counter(8)), "counter").expect("elab");
        sim.clock().expect("clock");
        sim.clock().expect("clock");
        sim.poke("rst", 1).expect("poke");
        sim.clock().expect("clock");
        assert_eq!(sim.read("q").expect("read"), 0);
        sim.poke("rst", 0).expect("poke");
        sim.clock().expect("clock");
        assert_eq!(sim.read("q").expect("read"), 1);
    }

    #[test]
    fn nonblocking_semantics_swap() {
        // a <= b; b <= a; must swap, not duplicate.
        let mut m = VModule::new("swap");
        m.port(Port::input("clk", 1))
            .port(Port::output("a_out", 4))
            .port(Port::output("b_out", 4));
        m.item(Item::Net(NetDecl::reg("a", 4)));
        m.item(Item::Net(NetDecl::reg("b", 4)));
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![
                Stmt::NonBlocking(Expr::id("a"), Expr::id("b")),
                Stmt::NonBlocking(Expr::id("b"), Expr::id("a")),
            ],
        });
        m.item(Item::Assign {
            lhs: Expr::id("a_out"),
            rhs: Expr::id("a"),
        });
        m.item(Item::Assign {
            lhs: Expr::id("b_out"),
            rhs: Expr::id("b"),
        });
        let mut sim = Interpreter::elaborate(&Design::new(m), "swap").expect("elab");
        // Backdoor: set a=3, b=9 through the registers directly.
        sim.signals.get_mut("a").expect("a").value = Value::Scalar(3);
        sim.signals.get_mut("b").expect("b").value = Value::Scalar(9);
        sim.settle().expect("settle");
        sim.clock().expect("clock");
        assert_eq!(sim.read("a_out").expect("read"), 9);
        assert_eq!(sim.read("b_out").expect("read"), 3);
    }

    #[test]
    fn memory_read_write() {
        let mut m = VModule::new("ram");
        m.port(Port::input("clk", 1))
            .port(Port::input("we", 1))
            .port(Port::input("addr", 4))
            .port(Port::input("din", 8))
            .port(Port::output("dout", 8));
        m.item(Item::Net(NetDecl::memory("mem", 8, 16)));
        m.item(Item::Net(NetDecl::reg("dout_r", 8)));
        m.item(Item::Always {
            sensitivity: Sensitivity::PosEdge("clk".into()),
            body: vec![
                Stmt::If {
                    cond: Expr::id("we"),
                    then_body: vec![Stmt::NonBlocking(
                        Expr::Index(Box::new(Expr::id("mem")), Box::new(Expr::id("addr"))),
                        Expr::id("din"),
                    )],
                    else_body: vec![],
                },
                Stmt::NonBlocking(
                    Expr::id("dout_r"),
                    Expr::Index(Box::new(Expr::id("mem")), Box::new(Expr::id("addr"))),
                ),
            ],
        });
        m.item(Item::Assign {
            lhs: Expr::id("dout"),
            rhs: Expr::id("dout_r"),
        });
        let mut sim = Interpreter::elaborate(&Design::new(m), "ram").expect("elab");
        sim.poke("we", 1).expect("poke");
        sim.poke("addr", 5).expect("poke");
        sim.poke("din", 0xAB).expect("poke");
        sim.clock().expect("clock");
        sim.poke("we", 0).expect("poke");
        sim.clock().expect("clock");
        assert_eq!(sim.read("dout").expect("read"), 0xAB);
    }

    #[test]
    fn hierarchy_flattens_and_connects() {
        // top wires two counters in series via an enable-less passthrough.
        let mut top = VModule::new("top");
        top.port(Port::input("clk", 1))
            .port(Port::input("rst", 1))
            .port(Port::output("total", 8));
        top.item(Item::Net(NetDecl::wire("q0", 8)));
        top.item(Item::Instance {
            module: "counter".into(),
            name: "u0".into(),
            params: vec![],
            connections: vec![
                ("clk".into(), Expr::id("clk")),
                ("rst".into(), Expr::id("rst")),
                ("q".into(), Expr::id("q0")),
            ],
        });
        top.item(Item::Assign {
            lhs: Expr::id("total"),
            rhs: Expr::bin(BinaryOp::Add, Expr::id("q0"), Expr::id("q0")),
        });
        let mut d = Design::new(top);
        d.add_module(counter(8));
        let mut sim = Interpreter::elaborate(&d, "top").expect("elab");
        sim.clock().expect("clock");
        sim.clock().expect("clock");
        sim.clock().expect("clock");
        assert_eq!(sim.read("q0").expect("read"), 3);
        assert_eq!(sim.read("total").expect("read"), 6);
        // Hierarchical read of the inner register.
        assert_eq!(sim.read("u0.count").expect("read"), 3);
    }

    #[test]
    fn load_memory_backdoor() {
        let mut m = VModule::new("rom");
        m.port(Port::input("addr", 2)).port(Port::output("data", 8));
        m.item(Item::Net(NetDecl::memory("content", 8, 4)));
        m.item(Item::Assign {
            lhs: Expr::id("data"),
            rhs: Expr::Index(Box::new(Expr::id("content")), Box::new(Expr::id("addr"))),
        });
        let mut sim = Interpreter::elaborate(&Design::new(m), "rom").expect("elab");
        sim.load_memory("content", &[10, 20, 30, 40]).expect("load");
        for (a, v) in [(0u64, 10u64), (1, 20), (2, 30), (3, 40)] {
            sim.poke("addr", a).expect("poke");
            assert_eq!(sim.read("data").expect("read"), v);
        }
    }

    #[test]
    fn arithmetic_shift_is_signed() {
        let mut m = VModule::new("shifter");
        m.port(Port::input("x", 8)).port(Port::output("y", 8));
        m.item(Item::Assign {
            lhs: Expr::id("y"),
            rhs: Expr::bin(BinaryOp::Shr, Expr::id("x"), Expr::lit(8, 1)),
        });
        let mut sim = Interpreter::elaborate(&Design::new(m), "shifter").expect("elab");
        sim.poke("x", 0b1000_0000).expect("poke"); // -128
        assert_eq!(sim.read("y").expect("read"), 0b1100_0000); // -64
        sim.poke("x", 8).expect("poke");
        assert_eq!(sim.read("y").expect("read"), 4);
    }

    #[test]
    fn stats_count_edges_and_evals() {
        let mut sim = Interpreter::elaborate(&Design::new(counter(8)), "counter").expect("elab");
        let after_elab = sim.stats();
        assert!(after_elab.settle_passes > 0, "elaboration settles once");
        for _ in 0..5 {
            sim.clock().expect("clock");
        }
        let s = sim.stats();
        assert_eq!(s.clock_edges, 5);
        assert_eq!(s.nba_writes, 5);
        assert!(s.assign_evals > after_elab.assign_evals);
        assert!(s.evals() >= s.assign_evals);
    }

    #[test]
    fn vcd_records_cycles_and_header() {
        let mut sim = Interpreter::elaborate(&Design::new(counter(4)), "counter").expect("elab");
        sim.vcd_begin("counter");
        for _ in 0..7 {
            sim.clock().expect("clock");
        }
        // Initial dump + one timestep per clock edge.
        assert_eq!(sim.vcd_timesteps(), 1 + sim.cycles());
        let vcd = sim.vcd_end().expect("recording was active");
        assert!(sim.vcd_end().is_none(), "recording stops after vcd_end");
        assert!(vcd.starts_with("$date"), "{vcd}");
        assert!(vcd.contains("$timescale 1 ns $end"), "{vcd}");
        assert!(vcd.contains("$scope module counter $end"), "{vcd}");
        assert!(vcd.contains("$enddefinitions $end"), "{vcd}");
        assert!(vcd.contains("$dumpvars"), "{vcd}");
        // 7 clocks at 10 ns: the last change stamp is #70.
        assert!(vcd.contains("\n#70\n"), "{vcd}");
        // The 4-bit count register is dumped as a binary vector.
        assert!(vcd.contains("b0111 "), "{vcd}");
    }

    #[test]
    fn vcd_hierarchy_scopes() {
        let mut top = VModule::new("top");
        top.port(Port::input("clk", 1))
            .port(Port::input("rst", 1))
            .port(Port::output("q", 8));
        top.item(Item::Instance {
            module: "counter".into(),
            name: "u0".into(),
            params: vec![],
            connections: vec![
                ("clk".into(), Expr::id("clk")),
                ("rst".into(), Expr::id("rst")),
                ("q".into(), Expr::id("q")),
            ],
        });
        let mut d = Design::new(top);
        d.add_module(counter(8));
        let mut sim = Interpreter::elaborate(&d, "top").expect("elab");
        sim.vcd_begin("top");
        sim.clock().expect("clock");
        let vcd = sim.vcd_end().expect("vcd");
        assert!(vcd.contains("$scope module u0 $end"), "{vcd}");
        assert!(vcd.contains("$var wire 8 "), "{vcd}");
    }

    #[test]
    fn unknown_signal_is_an_error() {
        let sim = Interpreter::elaborate(&Design::new(counter(4)), "counter").expect("elab");
        assert!(sim.read("ghost").is_err());
    }

    #[test]
    fn combinational_loop_detected() {
        let mut m = VModule::new("loopy");
        m.port(Port::output("y", 1));
        m.item(Item::Net(NetDecl::wire("a", 1)));
        m.item(Item::Assign {
            lhs: Expr::id("a"),
            rhs: Expr::Unary(UnaryOp::BitNot, Box::new(Expr::id("a"))),
        });
        m.item(Item::Assign {
            lhs: Expr::id("y"),
            rhs: Expr::id("a"),
        });
        assert!(Interpreter::elaborate(&Design::new(m), "loopy").is_err());
    }
}
