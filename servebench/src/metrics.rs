//! Metric names and units — the single list the output is built from,
//! checked against `BENCHMARK.json` by the tests.

/// End-to-end metrics (printed with `--trace 0`), in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("cpu_ms_per_job", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("sim_cycles_total", "cycles"),
];

/// Per-layer metrics (printed with `--trace 1`), in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("isa.parse_us", "us"),
    ("cfg.build_us", "us"),
    ("transform.seal_us", "us"),
    ("transform.images_sealed", "count"),
    ("transform.cache_hit_ratio", "ratio"),
    ("crypto.refill_keystream_ns", "ns"),
    ("crypto.cbc_mac_ns", "ns"),
    ("crypto.bulk_keystream_ns_per_block", "ns"),
    ("crypto.ctr_ops", "count"),
    ("crypto.cbc_ops", "count"),
    ("cpu.exec_ns_per_instr", "ns"),
    ("core.run_ns_per_instr", "ns"),
    ("core.fetch_ns_per_block", "ns"),
    ("core.blocks", "count"),
    ("core.vcache_hit_ratio", "ratio"),
    ("core.machine_new_us", "us"),
    ("core.snapshot_capture_us", "us"),
    ("core.snapshot_encode_us", "us"),
    ("core.snapshot_decode_us", "us"),
    ("core.restore_us", "us"),
    ("core.snapshot_bytes", "bytes"),
    ("fleet.tick_us_p50", "us"),
    ("fleet.tick_us_p99", "us"),
    ("fleet.ticks", "count"),
    ("fleet.quanta", "count"),
    ("fleet.parks", "count"),
    ("fleet.revives", "count"),
    ("fleet.admitted", "count"),
    ("fleet.rejected", "count"),
    ("fleet.peak_resident_machines", "count"),
    ("fleet.queue_wait_ms_p50", "ms"),
    ("fleet.submit_us", "us"),
    ("fleet.drain_us", "us"),
    ("fleet.unattributed_ms", "ms"),
    ("gen.lag_ms_p99", "ms"),
    ("self.isa_ms", "ms"),
    ("self.cfg_ms", "ms"),
    ("self.transform_ms", "ms"),
    ("self.crypto_ms", "ms"),
    ("self.cpu_ms", "ms"),
    ("self.core_ms", "ms"),
    ("trace.busy_ms_per_job", "ms"),
    ("trace.untraced_busy_ms_per_job", "ms"),
    ("trace.overhead_ms_per_job", "ms"),
    ("trace.reconcile_gap", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.reconciled", "flag"),
    ("trace.dominant_ok", "flag"),
];

/// Looks up a metric's unit in `table`.
pub fn unit(table: &[(&str, &'static str)], name: &str) -> Option<&'static str> {
    table.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one array of `BENCHMARK.json`, read with
    /// whitespace stripped (names and units hold no spaces).
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json sits at the repository root")
            .split_whitespace()
            .collect();
        let start = text
            .find(&format!("\"{section}\":["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} array"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("{\"name\":\"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().expect("name string");
                let unit = entry
                    .split("\"unit\":\"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .expect("unit string");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n, "metric names repeat");
    }
}
