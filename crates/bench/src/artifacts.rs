//! Divergence artifact bundles.
//!
//! When a differential run flags a layer, the sweep binaries write a
//! bundle a hardware engineer can open directly: the full layer-audit
//! report as JSON plus VCD waveforms of every RTL block the diverging
//! layer exercised (loadable in GTKWave / Surfer). CI uploads the bundle
//! directory when the `deepburning diff` step fails.

use deepburning_compiler::LutImages;
use deepburning_fixed::QFormat;
use deepburning_model::Network;
use deepburning_sim::{capture_layer_vcd, diff_report_json, DiffOptions, DiffReport};
use deepburning_tensor::{Tensor, WeightSet};
use std::path::{Path, PathBuf};

/// Makes a label safe as a file-name stem.
fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes a divergence bundle for `report` under `dir` and returns the
/// paths written. Does nothing (and writes nothing) when the report is
/// clean.
///
/// The bundle holds `<label>-audit.json` (the machine-readable report,
/// see [`diff_report_json`]) and one `<label>-<layer>-<block>.vcd` per
/// RTL block the first diverging layer exercised. A failed waveform
/// replay degrades to a `<label>-capture-error.txt` note instead of
/// aborting the sweep. When the report carries a full-network run, the
/// flight recorder's frozen window — the last cycles of the control-top
/// (coordinator `phase_w`/`fire_w`/`busy_w`, AGU `valid` streams, DRAM
/// strobes) around the first divergence — lands as
/// `<label>-flight-window.vcd`, a fully captured control-top run lands
/// as `<label>-control-top.vcd`, and a streamed full-run VCD on disk is
/// referenced from `<label>-stream-vcd.txt`.
///
/// # Errors
///
/// Returns any filesystem error raised while creating `dir` or writing
/// the bundle files.
#[allow(clippy::too_many_arguments)]
pub fn write_divergence_bundle(
    dir: &Path,
    label: &str,
    net: &Network,
    weights: &WeightSet,
    input: &Tensor,
    luts: &LutImages,
    fmt: QFormat,
    lanes: u32,
    opts: &DiffOptions,
    report: &DiffReport,
) -> std::io::Result<Vec<PathBuf>> {
    let div = match report.first_divergence() {
        Some(d) => d,
        None => return Ok(Vec::new()),
    };
    std::fs::create_dir_all(dir)?;
    let label = slug(label);
    let mut written = Vec::new();
    let audit_path = dir.join(format!("{label}-audit.json"));
    std::fs::write(&audit_path, diff_report_json(report).render())?;
    written.push(audit_path);
    if let Some(full) = report.full_run.as_ref() {
        if let Some(vcd) = full.vcd.as_ref() {
            let path = dir.join(format!("{label}-control-top.vcd"));
            std::fs::write(&path, vcd)?;
            written.push(path);
        }
        if let Some(window) = full.flight_window.as_ref() {
            let path = dir.join(format!("{label}-flight-window.vcd"));
            std::fs::write(&path, &window.vcd)?;
            written.push(path);
        }
        if let Some(stream) = full.vcd_path.as_ref() {
            let path = dir.join(format!("{label}-stream-vcd.txt"));
            std::fs::write(&path, format!("{}\n", stream.display()))?;
            written.push(path);
        }
    }
    match capture_layer_vcd(net, weights, input, luts, fmt, lanes, opts, &div.layer) {
        Ok(vcds) => {
            for (tag, text) in vcds {
                let path = dir.join(format!("{label}-{}-{}.vcd", slug(&div.layer), slug(&tag)));
                std::fs::write(&path, text)?;
                written.push(path);
            }
        }
        Err(e) => {
            let path = dir.join(format!("{label}-capture-error.txt"));
            std::fs::write(&path, e.to_string())?;
            written.push(path);
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepburning_compiler::{generate_luts, CompilerConfig};
    use deepburning_model::parse_network;
    use deepburning_sim::diff_network;
    use deepburning_tensor::Init;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn clean_report_writes_nothing() {
        let r = DiffReport {
            network: "t".into(),
            budget: String::new(),
            layers: vec![],
            divergences: vec![],
            rtl_modules: vec![],
            counters: None,
            range_proofs: vec![],
            lint: None,
            full_run: None,
        };
        let net = parse_network(
            r#"layers { name: "data" type: INPUT top: "data"
                       input_param { channels: 1 height: 1 width: 1 } }"#,
        )
        .expect("parses");
        let dir = std::env::temp_dir().join("db-bundle-clean-test");
        let written = write_divergence_bundle(
            &dir,
            "clean",
            &net,
            &WeightSet::new(),
            &Tensor::vector(&[0.0]),
            &LutImages::new(),
            QFormat::Q8_8,
            1,
            &DiffOptions::default(),
            &r,
        )
        .expect("writes");
        assert!(written.is_empty());
    }

    #[test]
    fn forced_divergence_writes_audit_and_vcd() {
        let net = parse_network(
            r#"
            layers { name: "data" type: INPUT top: "data"
                     input_param { channels: 4 height: 1 width: 1 } }
            layers { name: "fc" type: FC bottom: "data" top: "fc"
                     param { num_output: 3 } }
            "#,
        )
        .expect("parses");
        let mut rng = StdRng::seed_from_u64(23);
        let ws = WeightSet::init(&net, Init::Xavier, &mut rng).expect("init");
        let cfg = CompilerConfig::default();
        let luts = generate_luts(&net, &cfg).expect("luts");
        let input = Tensor::from_fn(net.input_shape(), |_, _, _| rng.gen_range(-1.0..1.0f32));
        let opts = DiffOptions {
            inject_rtl_fault: Some(1),
            ..DiffOptions::default()
        };
        let report = diff_network(&net, &ws, &input, &luts, cfg.format, cfg.lanes, &opts)
            .expect("diff runs");
        assert!(!report.is_clean());
        let dir = std::env::temp_dir().join(format!("db-bundle-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let written = write_divergence_bundle(
            &dir, "fc @ DB", &net, &ws, &input, &luts, cfg.format, cfg.lanes, &opts, &report,
        )
        .expect("writes");
        assert!(written.len() >= 2, "audit + at least one vcd: {written:?}");
        let audit = written
            .iter()
            .find(|p| p.extension().is_some_and(|e| e == "json"))
            .expect("audit json");
        let text = std::fs::read_to_string(audit).expect("readable");
        let doc = deepburning_trace::json::Json::parse(&text).expect("valid json");
        assert!(matches!(
            doc.get("clean"),
            Some(deepburning_trace::json::Json::Bool(false))
        ));
        let vcd = written
            .iter()
            .find(|p| p.extension().is_some_and(|e| e == "vcd"))
            .expect("vcd file");
        let wave = std::fs::read_to_string(vcd).expect("readable");
        assert!(wave.contains("$enddefinitions $end"), "{wave}");
        assert!(wave.contains("$dumpvars"), "{wave}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_rtl_bundle_carries_control_top_waveform() {
        let net = parse_network(
            r#"
            layers { name: "data" type: INPUT top: "data"
                     input_param { channels: 4 height: 1 width: 1 } }
            layers { name: "fc" type: FC bottom: "data" top: "fc"
                     param { num_output: 3 } }
            "#,
        )
        .expect("parses");
        let mut rng = StdRng::seed_from_u64(29);
        let ws = WeightSet::init(&net, Init::Xavier, &mut rng).expect("init");
        let input = Tensor::from_fn(net.input_shape(), |_, _, _| rng.gen_range(-1.0..1.0f32));
        let design =
            deepburning_core::generate(&net, &deepburning_core::Budget::Small).expect("generates");
        let opts = DiffOptions {
            full_rtl: true,
            inject_rtl_fault: Some(1),
            ..DiffOptions::default()
        };
        let report =
            deepburning_sim::diff_design(&design, &net, &ws, &input, &opts).expect("diff runs");
        assert!(!report.is_clean());
        assert!(report.full_run.is_some());
        let dir = std::env::temp_dir().join(format!("db-bundle-full-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = design.compiled.config;
        let written = write_divergence_bundle(
            &dir,
            "fc-full",
            &net,
            &ws,
            &input,
            &design.compiled.luts,
            cfg.format,
            cfg.lanes,
            &opts,
            &report,
        )
        .expect("writes");
        let window = written
            .iter()
            .find(|p| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().ends_with("-flight-window.vcd"))
            })
            .expect("flight-recorder window in bundle");
        let wave = std::fs::read_to_string(window).expect("readable");
        for signal in ["phase_w", "fire_w", "busy_w", "dram_addr"] {
            assert!(wave.contains(signal), "coordinator signal {signal} dumped");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
