//! Executes a whole generated accelerator top on the compiled RTL engine:
//! context ROMs loaded with the compiler's schedule, start pulsed, DRAM
//! traffic observed, completion reached. This is the closest stand-in for
//! the paper's Vivado forward-propagation simulation.

use deepburning::baselines::all_benchmarks;
use deepburning::core::{assemble_control_top, context_words, generate, Budget};
use deepburning::model::parse_network;
use deepburning::verilog::{emit_module, CompiledSim, Simulator};

/// A network small enough that the datapath bus fits the 64-bit signal
/// limit of hierarchy flattening (lanes are capped by the widest layer: 2).
const SRC: &str = r#"
name: "tiny"
layers { name: "data" type: INPUT top: "data"
         input_param { channels: 4 height: 1 width: 1 } }
layers { name: "fc1" type: FC bottom: "data" top: "fc1"
         param { num_output: 2 } }
layers { name: "relu" type: RELU bottom: "fc1" top: "fc1" }
layers { name: "fc2" type: FC bottom: "fc1" top: "fc2"
         param { num_output: 2 } }
"#;

#[test]
fn generated_top_runs_to_completion() {
    let net = parse_network(SRC).expect("parses");
    let design = generate(&net, &Budget::Medium).expect("generates");
    assert!(
        design.config.lanes * design.config.word_bits <= 64,
        "bus fits 64-bit signals"
    );

    let mut sim = CompiledSim::compile(&design.design, &design.design.top).expect("elaborates");

    // Fill the context ROMs with the compiler's real trigger words.
    let ctx = context_words(&design.compiled);
    sim.load_memory(
        "ctx_trig_main",
        &ctx.iter().map(|w| w[0]).collect::<Vec<_>>(),
    )
    .expect("ctx main");
    sim.load_memory(
        "ctx_trig_data",
        &ctx.iter().map(|w| w[1]).collect::<Vec<_>>(),
    )
    .expect("ctx data");
    sim.load_memory(
        "ctx_trig_weight",
        &ctx.iter().map(|w| w[2]).collect::<Vec<_>>(),
    )
    .expect("ctx weight");

    // Reset and start.
    sim.poke("rst", 1).expect("poke");
    sim.clock().expect("clock");
    sim.poke("rst", 0).expect("poke");
    assert_eq!(sim.read("done").expect("read"), 1, "idle before start");
    sim.poke("start", 1).expect("poke");
    sim.clock().expect("clock");
    sim.poke("start", 0).expect("poke");
    assert_eq!(sim.read("done").expect("read"), 0, "busy after start");

    // Run; collect DRAM request addresses.
    let mut dram_addrs = Vec::new();
    let mut completed_at = None;
    for cycle in 0..20_000u64 {
        if sim.read("dram_req").expect("read") == 1 {
            dram_addrs.push(sim.read("dram_addr").expect("read"));
        }
        if sim.read("done").expect("read") == 1 {
            completed_at = Some(cycle);
            break;
        }
        sim.clock().expect("clock");
    }
    let completed_at = completed_at.expect("accelerator must raise done");
    assert!(completed_at > 2, "completion cannot be instant");
    assert!(
        !dram_addrs.is_empty(),
        "the main AGU must issue DRAM traffic"
    );
    // The first fetch targets the input segment at offset 0.
    assert_eq!(dram_addrs[0], 0, "first fetch reads the input segment");
    // Addresses within one burst are consecutive.
    let consecutive = dram_addrs.windows(2).filter(|w| w[1] == w[0] + 1).count();
    assert!(
        consecutive >= dram_addrs.len() / 2,
        "main AGU bursts should be mostly sequential"
    );
}

#[test]
fn top_coordinator_walks_all_phases() {
    let net = parse_network(SRC).expect("parses");
    let design = generate(&net, &Budget::Medium).expect("generates");
    let mut sim = CompiledSim::compile(&design.design, &design.design.top).expect("elaborates");
    let phases = design.compiled.folding.phases.len() as u64;
    let ctx = context_words(&design.compiled);
    for (slot, rom) in ["ctx_trig_main", "ctx_trig_data", "ctx_trig_weight"]
        .iter()
        .enumerate()
    {
        let words: Vec<u64> = ctx.iter().map(|w| w[slot]).collect();
        sim.load_memory(rom, &words).expect("ctx");
    }
    sim.poke("rst", 1).expect("poke");
    sim.clock().expect("clock");
    sim.poke("rst", 0).expect("poke");
    sim.poke("start", 1).expect("poke");
    sim.clock().expect("clock");
    sim.poke("start", 0).expect("poke");

    let mut max_phase = 0u64;
    for _ in 0..20_000u64 {
        // Hierarchical read into the coordinator instance.
        max_phase = max_phase.max(sim.read("phase_w").expect("read"));
        if sim.read("done").expect("read") == 1 {
            break;
        }
        sim.clock().expect("clock");
    }
    assert_eq!(
        max_phase,
        phases - 1,
        "the coordinator must visit every phase"
    );
}

/// The full-network RTL run elaborates `assemble_control_top`, not the
/// emitted top, so the claim that it executes the emitted blocks rests on
/// the two tops instantiating the same modules: every block of the
/// control top must emit byte-identical Verilog to its namesake in the
/// emitted design, and the coordinator and all three AGUs must be among
/// them.
#[test]
fn control_top_runs_the_emitted_blocks() {
    for bench in all_benchmarks() {
        for budget in [Budget::Small, Budget::Medium, Budget::Large] {
            let design = generate(&bench.network, &budget).expect("generates");
            let label = format!("{} on {}", bench.name, budget.tag());
            let control = assemble_control_top(&bench.network, &design.compiled);
            let blocks: Vec<_> = control
                .modules
                .iter()
                .filter(|m| m.name != control.top)
                .collect();
            for m in &blocks {
                let emitted = design
                    .design
                    .module(&m.name)
                    .unwrap_or_else(|| panic!("{label}: `{}` is not emitted", m.name));
                assert_eq!(
                    emit_module(m),
                    emit_module(emitted),
                    "{label}: `{}` differs",
                    m.name
                );
            }
            for prefix in ["coordinator_p", "agu_main_", "agu_data_", "agu_weight_"] {
                assert!(
                    blocks.iter().any(|m| m.name.starts_with(prefix)),
                    "{label}: control top has no `{prefix}*` block"
                );
            }
        }
    }
}
