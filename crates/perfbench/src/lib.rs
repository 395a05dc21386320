//! `dbbench`: the end-to-end benchmark of the DeepBurning reproduction.
//!
//! One command runs four workloads through the public API of the pipeline
//! crates — generation from prototxt text, the three-view differential
//! check, full-network RTL runs, and thousands of tiny random nets — in a
//! closed loop on one thread, checks every op's outputs, and reports host
//! time (set-up, throughput, latency percentiles, peak memory), the exact
//! modelled cycles and energy of the generated designs, and a digest of
//! everything the ops produced. A separate traced run breaks each
//! workload's op time down by layer. See `README.md` in this crate for the
//! workloads, the metrics and how to read them.

pub mod compare;
mod digest;
mod layers;
pub mod metrics;
mod netgen;
pub mod run;
mod stats;
pub mod workload;

/// Measuring time of one run when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;

#[cfg(test)]
mod tests {
    use super::metrics::{END_TO_END, PER_LAYER};
    use super::workload::Workload;
    use deepburning_trace::json::Json;

    /// `BENCHMARK.json` must describe this code: the same workloads, run
    /// length, and end-to-end and per-layer metrics with the same units
    /// and directions.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(super::DEFAULT_SECONDS)
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, m) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
            }
        }
    }
}
