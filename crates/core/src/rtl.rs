//! Top-level RTL assembly: NN-Gen connects "the reconfigurable RTL modules
//! from the library into a top-view of hardware NN structure".
//!
//! The emitted design instantiates the coordinator, the three AGU classes,
//! the buffers and the datapath blocks, and wires the context ROMs whose
//! contents (trigger words, crossbar selects) the compiler fills.

use crate::resources::{collect_patterns, main_write_mask};
use deepburning_compiler::CompiledNetwork;
use deepburning_components::{
    AccumulatorBlock, ActivationUnit, AguBlock, AguClass, ApproxLutBlock, Block, BufferBlock,
    ConnectionBox, Coordinator, KSorter, PerfCounters, PoolingUnit, SynergyNeuron,
};
use deepburning_model::{LayerKind, Network, PoolMethod};
use deepburning_verilog::{BinaryOp, Design, Expr, Item, NetDecl, Port, UnaryOp, VModule};

fn instance(top: &mut VModule, module: &str, name: &str, connections: Vec<(&str, Expr)>) {
    top.item(Item::Instance {
        module: module.to_string(),
        name: name.to_string(),
        params: vec![],
        connections: connections
            .into_iter()
            .map(|(p, e)| (p.to_string(), e))
            .collect(),
    });
}

fn zero_extend(expr: Expr, from: u32, to: u32) -> Expr {
    if to > from {
        Expr::Concat(vec![Expr::lit(to - from, 0), expr])
    } else {
        expr
    }
}

/// Wires the control fabric shared by [`assemble_top`] and
/// [`assemble_control_top`]: coordinator, context ROMs, the three AGUs,
/// phase sequencing, the DRAM command side and the performance counters.
/// `cbox_sel_width` adds the crossbar's `ctx_sel`/`ctx_shift` ROMs when
/// the caller instantiates a connection box; `occ_src_bits` is the
/// feature-buffer address width used for the occupancy proxy.
#[allow(clippy::too_many_arguments)]
fn wire_control_fabric(
    top: &mut VModule,
    compiled: &CompiledNetwork,
    coord: &Coordinator,
    agu_main: &AguBlock,
    agu_data: &AguBlock,
    agu_weight: &AguBlock,
    perf: &PerfCounters,
    cbox_sel_width: Option<u32>,
    occ_src_bits: u32,
) {
    let phases = coord.phases;
    let pw = coord.phase_width();
    for n in ["phase_w", "busy_w", "fire_w", "phase_done"] {
        top.item(Item::Net(NetDecl::wire(
            n,
            if n == "phase_w" { pw } else { 1 },
        )));
    }
    instance(
        top,
        &coord.module_name(),
        "u_coordinator",
        vec![
            ("clk", Expr::id("clk")),
            ("rst", Expr::id("rst")),
            ("start", Expr::id("start")),
            ("phase_done", Expr::id("phase_done")),
            ("phase", Expr::id("phase_w")),
            ("busy", Expr::id("busy_w")),
            ("fire", Expr::id("fire_w")),
        ],
    );
    top.item(Item::Comment(
        "context ROMs below are initialised from the compiler's schedule".into(),
    ));
    let pn_main = agu_main.patterns.len() as u32;
    let pn_data = agu_data.patterns.len() as u32;
    let pn_weight = agu_weight.patterns.len() as u32;
    let pw_main = agu_main.pattern_index_width();
    let mut roms = vec![
        ("ctx_trig_main", pn_main),
        ("ctx_trig_data", pn_data),
        ("ctx_trig_weight", pn_weight),
        ("ctx_lanes", perf.inc_width),
    ];
    if let Some(sel_w) = cbox_sel_width {
        roms.push(("ctx_sel", sel_w * 2));
        roms.push(("ctx_shift", 8u32));
    }
    for (rom, width) in roms {
        top.item(Item::Net(NetDecl::memory(rom, width, phases as usize)));
    }
    // Main-AGU runtime offsets, one word per {phase, hardware pattern}:
    // this ROM is what turns the compiler's per-fold weight slices and
    // spill-slot displacements into real addresses — the canonicalised
    // pattern set alone always replayed offset 0.
    top.item(Item::Net(NetDecl::memory(
        "ctx_off_main",
        32,
        (phases as usize) << pw_main,
    )));
    for (wire, rom, width) in [
        ("trig_main", "ctx_trig_main", pn_main),
        ("trig_data", "ctx_trig_data", pn_data),
        ("trig_weight", "ctx_trig_weight", pn_weight),
    ] {
        top.item(Item::Net(NetDecl::wire(wire, width)));
        top.item(Item::Assign {
            lhs: Expr::id(wire),
            rhs: Expr::Ternary(
                Box::new(Expr::id("fire_w")),
                Box::new(Expr::Index(
                    Box::new(Expr::id(rom)),
                    Box::new(Expr::id("phase_w")),
                )),
                Box::new(Expr::lit(width, 0)),
            ),
        });
    }

    // ---- AGUs ------------------------------------------------------------
    for class in ["main", "data", "weight"] {
        top.item(Item::Net(NetDecl::wire(format!("agu_{class}_addr"), 32)));
        top.item(Item::Net(NetDecl::wire(format!("agu_{class}_valid"), 1)));
        top.item(Item::Net(NetDecl::wire(format!("agu_{class}_done"), 1)));
    }
    top.item(Item::Net(NetDecl::wire("agu_main_pat_next", pw_main)));
    top.item(Item::Net(NetDecl::wire("agu_main_pat_cur", pw_main)));
    top.item(Item::Net(NetDecl::wire("agu_main_off", 32)));
    // The offset the main AGU latches at each launch: indexed by the
    // pattern it is about to run (`pat_next`), within the current phase.
    top.item(Item::Assign {
        lhs: Expr::id("agu_main_off"),
        rhs: Expr::Index(
            Box::new(Expr::id("ctx_off_main")),
            Box::new(Expr::Concat(vec![
                Expr::id("phase_w"),
                Expr::id("agu_main_pat_next"),
            ])),
        ),
    });
    for (agu, tag) in [
        (agu_main, "main"),
        (agu_data, "data"),
        (agu_weight, "weight"),
    ] {
        let mut conns = vec![
            ("clk", Expr::id("clk")),
            ("rst", Expr::id("rst")),
            ("trigger", Expr::id(format!("trig_{tag}"))),
        ];
        if agu.is_chained() {
            conns.push(("offset", Expr::id("agu_main_off")));
            conns.push(("pat_next", Expr::id("agu_main_pat_next")));
            conns.push(("pat_cur", Expr::id("agu_main_pat_cur")));
        }
        conns.push(("addr", Expr::id(format!("agu_{tag}_addr"))));
        conns.push(("valid", Expr::id(format!("agu_{tag}_valid"))));
        conns.push(("done", Expr::id(format!("agu_{tag}_done"))));
        instance(top, &agu.module_name(), &format!("u_agu_{tag}"), conns);
    }
    // A phase completes when its data sweep (and any DRAM traffic)
    // drains. Gated off during the fire cycle: the AGUs' `done`
    // registers still hold 1 from the previous phase on the cycle the
    // coordinator pulses `fire`, and sampling them then made the
    // coordinator advance two phases per boundary, skipping every other
    // phase's transfers.
    top.item(Item::Assign {
        lhs: Expr::id("phase_done"),
        rhs: Expr::bin(
            BinaryOp::LogAnd,
            Expr::Unary(UnaryOp::Not, Box::new(Expr::id("fire_w"))),
            Expr::bin(
                BinaryOp::LogAnd,
                Expr::id("agu_data_done"),
                Expr::bin(
                    BinaryOp::LogOr,
                    Expr::id("agu_main_done"),
                    Expr::Unary(UnaryOp::Not, Box::new(Expr::id("agu_main_valid"))),
                ),
            ),
        ),
    });

    // ---- DRAM command side ------------------------------------------------
    top.item(Item::Assign {
        lhs: Expr::id("dram_addr"),
        rhs: Expr::id("agu_main_addr"),
    });
    top.item(Item::Assign {
        lhs: Expr::id("dram_req"),
        rhs: Expr::id("agu_main_valid"),
    });
    // Write strobe only for write-back patterns: the per-pattern
    // direction mask, indexed by the running pattern. `valid && busy`
    // alone strobed writes for every fetch too, shredding the DRAM image
    // the fetches were reading.
    top.item(Item::Net(NetDecl::wire("main_wmask", pn_main)));
    top.item(Item::Assign {
        lhs: Expr::id("main_wmask"),
        rhs: Expr::lit(pn_main, main_write_mask(compiled)),
    });
    top.item(Item::Assign {
        lhs: Expr::id("dram_we"),
        rhs: Expr::bin(
            BinaryOp::LogAnd,
            Expr::bin(
                BinaryOp::LogAnd,
                Expr::id("agu_main_valid"),
                Expr::id("busy_w"),
            ),
            Expr::Index(
                Box::new(Expr::id("main_wmask")),
                Box::new(Expr::id("agu_main_pat_cur")),
            ),
        ),
    });
    top.item(Item::Assign {
        lhs: Expr::id("done"),
        rhs: Expr::Unary(UnaryOp::Not, Box::new(Expr::id("busy_w"))),
    });

    // ---- performance counters ---------------------------------------------
    // DRAM traffic in flight while the datapath sweep is idle = a transfer
    // stall; MACs retire at the phase's lane count (ctx_lanes ROM) on every
    // data-valid cycle; the feature-buffer write pointer is the occupancy
    // high-water proxy.
    let iw = perf.inc_width;
    let one_bit = |name: &str| zero_extend(Expr::id(name), 1, iw);
    top.item(Item::Net(NetDecl::wire("perf_stall", 1)));
    top.item(Item::Assign {
        lhs: Expr::id("perf_stall"),
        rhs: Expr::bin(
            BinaryOp::LogAnd,
            Expr::id("agu_main_valid"),
            Expr::Unary(UnaryOp::Not, Box::new(Expr::id("agu_data_valid"))),
        ),
    });
    top.item(Item::Net(NetDecl::wire("perf_mac_inc", iw)));
    top.item(Item::Assign {
        lhs: Expr::id("perf_mac_inc"),
        rhs: Expr::Ternary(
            Box::new(Expr::id("agu_data_valid")),
            Box::new(Expr::Index(
                Box::new(Expr::id("ctx_lanes")),
                Box::new(Expr::id("phase_w")),
            )),
            Box::new(Expr::lit(iw, 0)),
        ),
    });
    top.item(Item::Net(NetDecl::wire("perf_rd_inc", iw)));
    top.item(Item::Assign {
        lhs: Expr::id("perf_rd_inc"),
        rhs: Expr::bin(
            BinaryOp::Add,
            one_bit("agu_data_valid"),
            one_bit("agu_weight_valid"),
        ),
    });
    let occ_bits = occ_src_bits.min(iw);
    top.item(Item::Net(NetDecl::wire("perf_rdata_w", perf.width)));
    instance(
        top,
        &perf.module_name(),
        "u_perf_counters",
        vec![
            ("clk", Expr::id("clk")),
            ("rst", Expr::id("rst")),
            ("en", Expr::id("busy_w")),
            ("active", Expr::id("agu_data_valid")),
            ("stall", Expr::id("perf_stall")),
            ("mac_inc", Expr::id("perf_mac_inc")),
            ("rd_inc", Expr::id("perf_rd_inc")),
            ("wr_inc", one_bit("agu_main_valid")),
            ("burst_inc", one_bit("agu_main_valid")),
            (
                "occupancy",
                zero_extend(
                    Expr::Slice(Box::new(Expr::id("agu_main_addr")), occ_bits - 1, 0),
                    occ_bits,
                    iw,
                ),
            ),
            ("sel", Expr::id("perf_sel")),
            ("rdata", Expr::id("perf_rdata_w")),
        ],
    );
    top.item(Item::Assign {
        lhs: Expr::id("perf_rdata"),
        rhs: Expr::id("perf_rdata_w"),
    });
}

/// Assembles the accelerator top-level for a compiled network.
///
/// Returns a [`Design`] containing the top module plus every instantiated
/// building-block module; the result passes [`deepburning_verilog::lint_design`]
/// for all supported networks (checked by the generator's tests).
pub fn assemble_top(net: &Network, compiled: &CompiledNetwork) -> Design {
    let cfg = &compiled.config;
    let w = cfg.word_bits;
    let lanes = cfg.lanes;
    let bus = w * lanes;
    let phases = compiled.folding.phases.len().max(1) as u32;

    // Library block instances this network needs.
    let neuron = SynergyNeuron::new(w, lanes);
    let acc = AccumulatorBlock { width: w };
    let relu = ActivationUnit { width: w };
    let coord = Coordinator { phases };
    let cbox = ConnectionBox {
        width: w,
        inputs: 4,
        outputs: 2,
    };
    let feature_depth = (cfg.feature_buffer_bytes * 8 / u64::from(bus)).max(2) as usize;
    let weight_depth = (cfg.weight_buffer_bytes * 8 / u64::from(bus)).max(2) as usize;
    let fbuf = BufferBlock {
        width: bus,
        depth: feature_depth,
    };
    let wbuf = BufferBlock {
        width: bus,
        depth: weight_depth,
    };
    let agu_main = AguBlock::new(
        AguClass::Main,
        32,
        collect_patterns(compiled, AguClass::Main),
    );
    let agu_data = AguBlock::new(
        AguClass::Data,
        32,
        collect_patterns(compiled, AguClass::Data),
    );
    let agu_weight = AguBlock::new(
        AguClass::Weight,
        32,
        collect_patterns(compiled, AguClass::Weight),
    );
    let lut_block = compiled
        .luts
        .values()
        .next()
        .map(|image| ApproxLutBlock::new(w, image.clone()));
    let needs_pool = net
        .layers()
        .iter()
        .any(|l| matches!(l.kind, LayerKind::Pooling(_) | LayerKind::Inception(_)));
    let pool = PoolingUnit {
        width: w,
        method: PoolMethod::Max,
    };
    let shapes = net.infer_shapes().expect("validated network");
    let ksorter = net.layers().iter().find_map(|l| match l.kind {
        LayerKind::Classifier { .. } => {
            let inputs = l
                .bottoms
                .first()
                .map(|b| shapes[b].elements() as u32)
                .unwrap_or(2);
            Some(KSorter {
                width: w,
                inputs: inputs.clamp(2, lanes.max(2)),
            })
        }
        _ => None,
    });

    let mut top = VModule::new(format!("{}_accelerator", sanitize(net.name())));
    let perf = PerfCounters::default();
    top.port(Port::input("clk", 1))
        .port(Port::input("rst", 1))
        .port(Port::input("start", 1))
        .port(Port::output("done", 1))
        .port(Port::output("dram_addr", 32))
        .port(Port::input("dram_rdata", bus))
        .port(Port::output("dram_wdata", bus))
        .port(Port::output("dram_req", 1))
        .port(Port::output("dram_we", 1))
        .port(Port::input("perf_sel", perf.sel_width()))
        .port(Port::output("perf_rdata", perf.width));

    // ---- control fabric (coordinator, ROMs, AGUs, DRAM commands, perf) ---
    let f_aw = fbuf.addr_width();
    wire_control_fabric(
        &mut top,
        compiled,
        &coord,
        &agu_main,
        &agu_data,
        &agu_weight,
        &perf,
        Some(cbox.select_width()),
        f_aw,
    );

    // ---- buffers ----------------------------------------------------------
    top.item(Item::Net(NetDecl::wire("fbuf_rdata", bus)));
    top.item(Item::Net(NetDecl::wire("wbuf_rdata", bus)));
    top.item(Item::Net(NetDecl::wire("writeback", bus)));
    let w_aw = wbuf.addr_width();
    instance(
        &mut top,
        &fbuf.module_name(),
        "u_feature_buffer",
        vec![
            ("clk", Expr::id("clk")),
            ("we", Expr::id("agu_main_valid")),
            (
                "waddr",
                Expr::Slice(Box::new(Expr::id("agu_main_addr")), f_aw - 1, 0),
            ),
            ("wdata", Expr::id("dram_rdata")),
            (
                "raddr",
                Expr::Slice(Box::new(Expr::id("agu_data_addr")), f_aw - 1, 0),
            ),
            ("rdata", Expr::id("fbuf_rdata")),
        ],
    );
    instance(
        &mut top,
        &wbuf.module_name(),
        "u_weight_buffer",
        vec![
            ("clk", Expr::id("clk")),
            ("we", Expr::id("agu_main_valid")),
            (
                "waddr",
                Expr::Slice(Box::new(Expr::id("agu_main_addr")), w_aw - 1, 0),
            ),
            ("wdata", Expr::id("dram_rdata")),
            (
                "raddr",
                Expr::Slice(Box::new(Expr::id("agu_weight_addr")), w_aw - 1, 0),
            ),
            ("rdata", Expr::id("wbuf_rdata")),
        ],
    );

    // ---- datapath ----------------------------------------------------------
    top.item(Item::Net(NetDecl::wire("neuron_sum", w)));
    instance(
        &mut top,
        &neuron.module_name(),
        "u_synergy_neurons",
        vec![
            ("clk", Expr::id("clk")),
            ("rst", Expr::id("rst")),
            ("en", Expr::id("agu_data_valid")),
            ("clear", Expr::id("fire_w")),
            ("din", Expr::id("fbuf_rdata")),
            ("weight", Expr::id("wbuf_rdata")),
            ("sum_out", Expr::id("neuron_sum")),
        ],
    );
    top.item(Item::Net(NetDecl::wire("acc_out", w)));
    instance(
        &mut top,
        &acc.module_name(),
        "u_accumulators",
        vec![
            ("clk", Expr::id("clk")),
            ("rst", Expr::id("rst")),
            ("en", Expr::id("agu_data_valid")),
            ("din", Expr::id("neuron_sum")),
            ("acc_out", Expr::id("acc_out")),
        ],
    );
    top.item(Item::Net(NetDecl::wire("relu_out", w)));
    instance(
        &mut top,
        &relu.module_name(),
        "u_relu",
        vec![("din", Expr::id("acc_out")), ("dout", Expr::id("relu_out"))],
    );
    top.item(Item::Net(NetDecl::wire("lut_out", w)));
    if let Some(lut) = &lut_block {
        instance(
            &mut top,
            &lut.module_name(),
            "u_approx_lut",
            vec![
                ("clk", Expr::id("clk")),
                ("din", Expr::id("acc_out")),
                ("dout", Expr::id("lut_out")),
            ],
        );
    } else {
        top.item(Item::Assign {
            lhs: Expr::id("lut_out"),
            rhs: Expr::id("acc_out"),
        });
    }
    top.item(Item::Net(NetDecl::wire("pool_out", w)));
    if needs_pool {
        instance(
            &mut top,
            &pool.module_name(),
            "u_pooling_unit",
            vec![
                ("clk", Expr::id("clk")),
                ("rst", Expr::id("rst")),
                ("en", Expr::id("agu_data_valid")),
                ("clear", Expr::id("fire_w")),
                (
                    "din",
                    Expr::Slice(Box::new(Expr::id("fbuf_rdata")), w - 1, 0),
                ),
                ("dout", Expr::id("pool_out")),
            ],
        );
    } else {
        top.item(Item::Assign {
            lhs: Expr::id("pool_out"),
            rhs: Expr::id("acc_out"),
        });
    }

    // ---- connection box -----------------------------------------------------
    top.item(Item::Net(NetDecl::wire("cbox_out", w * 2)));
    instance(
        &mut top,
        &cbox.module_name(),
        "u_connection_box",
        vec![
            ("clk", Expr::id("clk")),
            (
                "din",
                Expr::Concat(vec![
                    Expr::id("pool_out"),
                    Expr::id("lut_out"),
                    Expr::id("relu_out"),
                    Expr::id("acc_out"),
                ]),
            ),
            (
                "sel",
                Expr::Index(Box::new(Expr::id("ctx_sel")), Box::new(Expr::id("phase_w"))),
            ),
            (
                "shift",
                Expr::Index(
                    Box::new(Expr::id("ctx_shift")),
                    Box::new(Expr::id("phase_w")),
                ),
            ),
            ("dout", Expr::id("cbox_out")),
        ],
    );
    top.item(Item::Assign {
        lhs: Expr::id("writeback"),
        rhs: zero_extend(
            Expr::Slice(Box::new(Expr::id("cbox_out")), w - 1, 0),
            w,
            bus,
        ),
    });

    // ---- classifier ----------------------------------------------------------
    if let Some(ks) = &ksorter {
        let iw = ks.index_width();
        top.item(Item::Net(NetDecl::wire("class_idx", iw)));
        top.item(Item::Net(NetDecl::wire("class_val", w)));
        instance(
            &mut top,
            &ks.module_name(),
            "u_ksorter",
            vec![
                (
                    "din",
                    Expr::Slice(Box::new(Expr::id("fbuf_rdata")), w * ks.inputs - 1, 0),
                ),
                ("idx_out", Expr::id("class_idx")),
                ("val_out", Expr::id("class_val")),
            ],
        );
    }

    // ---- DRAM write data (commands live in the control fabric) ---------------
    top.item(Item::Assign {
        lhs: Expr::id("dram_wdata"),
        rhs: Expr::id("writeback"),
    });

    // ---- collect the module set -------------------------------------------------
    let mut design = Design::new(top);
    let mut added: Vec<String> = Vec::new();
    let mut add = |design: &mut Design, block: &dyn Block| {
        let name = block.module_name();
        if !added.contains(&name) {
            design.add_module(block.generate());
            added.push(name);
        }
    };
    add(&mut design, &coord);
    add(&mut design, &perf);
    add(&mut design, &agu_main);
    add(&mut design, &agu_data);
    add(&mut design, &agu_weight);
    add(&mut design, &fbuf);
    add(&mut design, &wbuf);
    add(&mut design, &neuron);
    add(&mut design, &acc);
    add(&mut design, &relu);
    add(&mut design, &cbox);
    if let Some(lut) = &lut_block {
        add(&mut design, lut);
    }
    if needs_pool {
        add(&mut design, &pool);
    }
    if let Some(ks) = &ksorter {
        add(&mut design, ks);
    }
    design
}

/// Assembles the control-only top for a compiled network: coordinator,
/// the three AGUs, context ROMs and performance counters — no datapath,
/// no buffers. Every signal is 64 bits or narrower, so the RTL engine
/// can execute the *entire network* in one continuous simulation (the
/// full datapath's `word_bits × lanes` bus exceeds the engine's
/// 64-bit signal cap). The full-network RTL run drives this top, follows
/// its DRAM command stream word-for-word, and the captured VCD exposes
/// the coordinator FSM (`phase_w`, `busy_w`, `fire_w`), the AGU valids
/// and the running main pattern (`agu_main_pat_cur`) for divergence
/// bundles.
pub fn assemble_control_top(net: &Network, compiled: &CompiledNetwork) -> Design {
    let cfg = &compiled.config;
    let bus = cfg.word_bits * cfg.lanes;
    let phases = compiled.folding.phases.len().max(1) as u32;
    let coord = Coordinator { phases };
    let perf = PerfCounters::default();
    let agu_main = AguBlock::new(
        AguClass::Main,
        32,
        collect_patterns(compiled, AguClass::Main),
    );
    let agu_data = AguBlock::new(
        AguClass::Data,
        32,
        collect_patterns(compiled, AguClass::Data),
    );
    let agu_weight = AguBlock::new(
        AguClass::Weight,
        32,
        collect_patterns(compiled, AguClass::Weight),
    );
    // Same occupancy proxy width as the full top's feature buffer.
    let f_aw = BufferBlock {
        width: bus,
        depth: (cfg.feature_buffer_bytes * 8 / u64::from(bus)).max(2) as usize,
    }
    .addr_width();

    let mut top = VModule::new(format!("{}_control", sanitize(net.name())));
    top.port(Port::input("clk", 1))
        .port(Port::input("rst", 1))
        .port(Port::input("start", 1))
        .port(Port::output("done", 1))
        .port(Port::output("dram_addr", 32))
        .port(Port::output("dram_req", 1))
        .port(Port::output("dram_we", 1))
        .port(Port::input("perf_sel", perf.sel_width()))
        .port(Port::output("perf_rdata", perf.width));
    wire_control_fabric(
        &mut top,
        compiled,
        &coord,
        &agu_main,
        &agu_data,
        &agu_weight,
        &perf,
        None,
        f_aw,
    );

    let mut design = Design::new(top);
    let mut added: Vec<String> = Vec::new();
    let mut add = |design: &mut Design, block: &dyn Block| {
        let name = block.module_name();
        if !added.contains(&name) {
            design.add_module(block.generate());
            added.push(name);
        }
    };
    add(&mut design, &coord);
    add(&mut design, &perf);
    add(&mut design, &agu_main);
    add(&mut design, &agu_data);
    add(&mut design, &agu_weight);
    design
}

fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, 'n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_compiler::{compile, CompilerConfig};
    use deepburning_model::parse_network;
    use deepburning_verilog::{emit_design, lint_design};

    const SRC: &str = r#"
    name: "lenet-ish"
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

    fn design() -> Design {
        let net = parse_network(SRC).expect("parses");
        let compiled = compile(
            &net,
            &CompilerConfig {
                lanes: 8,
                ..CompilerConfig::default()
            },
        )
        .expect("compiles");
        assemble_top(&net, &compiled)
    }

    #[test]
    fn top_lints_clean() {
        let d = design();
        let report = lint_design(&d);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn top_contains_expected_instances() {
        let d = design();
        let text = emit_design(&d);
        for inst in [
            "u_coordinator",
            "u_agu_main",
            "u_agu_data",
            "u_agu_weight",
            "u_feature_buffer",
            "u_weight_buffer",
            "u_synergy_neurons",
            "u_accumulators",
            "u_connection_box",
            "u_perf_counters",
            "u_approx_lut",
            "u_pooling_unit",
            "u_ksorter",
        ] {
            assert!(text.contains(inst), "missing {inst}");
        }
    }

    #[test]
    fn module_set_deduplicated() {
        let d = design();
        let mut names: Vec<&str> = d.modules.iter().map(|m| m.name.as_str()).collect();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn sanitize_names() {
        assert_eq!(sanitize("LeNet-5"), "lenet_5");
        assert_eq!(sanitize("5net"), "n5net");
    }

    #[test]
    fn control_top_lints_clean_and_is_interpreter_sized() {
        let net = parse_network(SRC).expect("parses");
        let compiled = compile(
            &net,
            &CompilerConfig {
                lanes: 8,
                ..CompilerConfig::default()
            },
        )
        .expect("compiles");
        let d = assemble_control_top(&net, &compiled);
        let report = lint_design(&d);
        assert!(report.is_clean(), "{report}");
        // Every net fits the engine's 64-bit signal cap — this is
        // the property that lets the full network run in one simulation.
        for m in &d.modules {
            for item in &m.items {
                if let Item::Net(n) = item {
                    assert!(n.width <= 64, "{}.{} is {} bits", m.name, n.name, n.width);
                }
            }
        }
        let text = emit_design(&d);
        for inst in ["u_coordinator", "u_agu_main", "u_perf_counters"] {
            assert!(text.contains(inst), "missing {inst}");
        }
        assert!(
            !text.contains("u_synergy_neurons"),
            "control top has no datapath"
        );
    }

    #[test]
    fn full_top_wires_offset_rom_and_write_mask() {
        let d = design();
        let text = emit_design(&d);
        assert!(text.contains("ctx_off_main"));
        assert!(text.contains("main_wmask"));
        assert!(text.contains("agu_main_pat_cur"));
    }

    #[test]
    fn network_without_luts_or_pool_still_assembles() {
        let src = r#"
        layers { name: "data" type: INPUT top: "data"
                 input_param { channels: 4 height: 1 width: 1 } }
        layers { name: "fc" type: FC bottom: "data" top: "fc"
                 param { num_output: 4 } }
        layers { name: "r" type: RELU bottom: "fc" top: "fc" }
        "#;
        let net = parse_network(src).expect("parses");
        let compiled = compile(&net, &CompilerConfig::default()).expect("compiles");
        let d = assemble_top(&net, &compiled);
        let report = lint_design(&d);
        assert!(report.is_clean(), "{report}");
        let text = emit_design(&d);
        assert!(!text.contains("u_approx_lut"));
        assert!(!text.contains("u_pooling_unit"));
    }
}
