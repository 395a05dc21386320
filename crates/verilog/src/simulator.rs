//! The simulation surface shared by the compiled engine and its test
//! oracle: the [`Simulator`] trait, signal handles, execution counters,
//! the error type, and hierarchy flattening (`flatten_design`), which
//! turns a [`Design`] into the flat primitives an engine elaborates.
//!
//! Flattening inlines every instance and rewrites identifiers to their
//! hierarchical (dot-separated) names. Flattening accepts any width;
//! the engines hold two-state vectors of at most 64 bits and reject a
//! wider signal when they elaborate (`FlatDesign::check_widths`).

use crate::ast::*;
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

pub(crate) fn err(message: impl Into<String>) -> SimulateError {
    SimulateError {
        message: message.into(),
    }
}

/// All-ones in the low `width` bits (every bit at 64 or more).
pub(crate) fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
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

/// Execution counters for one simulator instance — the attribution data
/// behind "where does the RTL view spend its time".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InterpStats {
    /// Rising clock edges executed.
    pub clock_edges: u64,
    /// Settle passes over the continuous assigns.
    pub settle_passes: u64,
    /// Continuous-assign right-hand sides evaluated.
    pub assign_evals: u64,
    /// Non-blocking assignments committed on clock edges.
    pub nba_writes: u64,
}

impl InterpStats {
    /// Total expression evaluations attributable to this instance.
    pub fn evals(&self) -> u64 {
        self.assign_evals + self.nba_writes
    }
}

/// The testbench surface of an elaborated design: drive inputs, clock,
/// read signals and record a VCD. [`CompiledSim`](crate::CompiledSim)
/// implements it, and so does the crate's tree-walking test oracle, so
/// the equivalence proptest and the pinned-value tests drive both
/// through one surface.
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

    /// Starts VCD waveform recording: every subsequent clock edge becomes
    /// one 10 ns timestep (the paper's 100 MHz clock). Scalar signals are
    /// dumped in sorted-name order; memories are skipped. The current
    /// state is captured as the `#0` initial dump.
    fn vcd_begin(&mut self, top: &str);

    /// Stops recording and returns the VCD document, or `None` when no
    /// recording was active.
    fn vcd_end(&mut self) -> Option<String>;

    /// Timesteps recorded so far, or 0 when not recording.
    fn vcd_timesteps(&self) -> u64;
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
/// inlined, every identifier rewritten to its hierarchical name.
/// [`CompiledSim::compile`](crate::CompiledSim::compile) elaborates from
/// this.
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
    fn declare(&mut self, name: &str, width: u32, depth: Option<usize>) {
        self.signals.push(FlatSignal {
            name: name.to_string(),
            width,
            depth,
        });
    }

    /// Rejects the first signal, in declaration order, that an engine
    /// cannot hold in one `u64`. Flattening itself is width-agnostic,
    /// so name-level analyses (`find_comb_cycle`) see every design.
    pub(crate) fn check_widths(&self) -> Result<(), SimulateError> {
        match self.signals.iter().find(|s| s.width > 64) {
            Some(s) => Err(err(format!(
                "signal `{}` is {} bits; simulation handles at most 64",
                s.name, s.width
            ))),
            None => Ok(()),
        }
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
                    self.declare(&prefixed(prefix, &n.name), n.width, n.depth);
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
                            self.declare(&local, p.width, None);
                            child_binds.insert(p.name.clone(), Expr::Id(local));
                        }
                    }
                    // Output ports drive the bound expression: model as a
                    // continuous assign parent_expr = child_port_signal.
                    for p in &child.ports {
                        let local = prefixed(&child_prefix, &p.name);
                        match p.dir {
                            PortDir::Output => {
                                self.declare(&local, p.width, None);
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
        flat.declare(&p.name, p.width, None);
        if p.dir == PortDir::Input {
            flat.inputs.push(p.name.clone());
        }
    }
    flat.flatten(design, module, "", &BTreeMap::new())?;
    Ok(flat)
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
