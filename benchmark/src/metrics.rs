//! The metric registry — names, units, direction and regression bound
//! of everything the benchmark reports. `BENCHMARK.json` at the
//! repository root carries the same tables for the driver; a unit test
//! keeps the two identical.

use std::collections::BTreeMap;

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "single-test-sweep",
        "distinct pairs, nothing shared: BFS-kernel and sampler changes show here, fusion and cache changes must not",
    ),
    (
        "rank-shared-dblp",
        "276 pairs over 24 shared events: planner dedupe, fused density pass and the warm cache carry the load",
    ),
    (
        "rank-skewed-twitter",
        "200 private-event pairs on a hub-heavy graph: no sharing, density BFS dominates, anytime pays off",
    ),
    (
        "serve-mixed",
        "real tesc-serve over loopback: open-loop reads beside durable commits and top-k, then kill -9 recovery",
    ),
];

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, measured with tracing off. Every workload
/// reports every one of them on its own dataset (README, "Metrics").
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("test_p50_ms", "ms", "lower", 0.20),
    e2e("test_p90_ms", "ms", "lower", 0.25),
    e2e("tests_per_s", "1/s", "higher", 0.25),
    e2e("rank_p50_ms", "ms", "lower", 0.25),
    e2e("rank_warm_p50_ms", "ms", "lower", 0.25),
    e2e("anytime_p50_ms", "ms", "lower", 0.25),
    e2e("topk_p50_ms", "ms", "lower", 0.25),
    e2e("commit_p50_ms", "ms", "lower", 0.25),
    e2e("restart_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("data_dir_mb", "MB", "lower", 0.05),
];

/// Per-layer metrics of the traced run: (name, unit, better).
pub const PER_LAYER: [(&str, &str, &str); 55] = [
    ("sampler.ms_per_op", "ms", "lower"),
    ("sampler.sampled_refs", "count", "lower"),
    ("sampler.distinct_refs", "count", "lower"),
    ("sampler.sharing_factor", "ratio", "higher"),
    ("density.ms_per_op", "ms", "lower"),
    ("density.bfs_run", "count", "lower"),
    ("density.traversals", "count", "lower"),
    ("density.kernel_ns_per_ref.scalar", "ns", "lower"),
    ("density.kernel_ns_per_ref.bitset", "ns", "lower"),
    ("density.kernel_ns_per_ref.multi", "ns", "lower"),
    ("density.kernel_ns_per_ref.auto", "ns", "lower"),
    ("density.auto_regret", "ratio", "lower"),
    ("density.edges_scanned_per_ref", "count", "lower"),
    ("correlate.ms_per_op", "ms", "lower"),
    ("correlate.kendall_ns_n300", "ns", "lower"),
    ("anytime.rounds", "count", "lower"),
    ("anytime.mean_samples_per_pair", "count", "lower"),
    ("anytime.recall_at_10", "ratio", "higher"),
    ("anytime.speedup_vs_exact", "ratio", "higher"),
    ("rank.pruned", "count", "higher"),
    ("rank.mt_p50_ms", "ms", "lower"),
    ("rank.thread_speedup", "ratio", "higher"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.bfs_invocations", "count", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.resident_bytes", "bytes", "lower"),
    ("context.add_edges_ms", "ms", "lower"),
    ("context.snapshot_pin_ns", "ns", "lower"),
    ("persist.wal_append_ms", "ms", "lower"),
    ("persist.checkpoint_ms", "ms", "lower"),
    ("persist.open_dir_ms", "ms", "lower"),
    ("persist.snapshot_bytes", "bytes", "lower"),
    ("persist.wal_bytes", "bytes", "lower"),
    ("serve.handler_us_p50.test", "us", "lower"),
    ("serve.handler_us_p50.top_k", "us", "lower"),
    ("serve.handler_us_p50.commit", "us", "lower"),
    ("serve.transport_us_p50", "us", "lower"),
    ("serve.json_parse_us", "us", "lower"),
    ("serve.json_encode_us", "us", "lower"),
    ("serve.queue_wait_us_p50", "us", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.timeouts", "count", "lower"),
    ("serve.degraded", "count", "lower"),
    ("serve.test_p99_ms", "ms", "lower"),
    ("serve.gen_late_ms_p99", "ms", "lower"),
    ("vicinity.build_ms", "ms", "lower"),
    ("container.encode_ms", "ms", "lower"),
    ("container.decode_ms", "ms", "lower"),
    ("container.bytes_per_edge", "bytes", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unaccounted_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("error_share", "ratio", "lower"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Sample count behind each timing metric.
    pub samples: BTreeMap<&'static str, usize>,
    /// Operations attempted (correctness checks included).
    pub attempted: u64,
    /// Operations that failed: an error, a non-2xx, a refusal, a
    /// degraded answer or a failed correctness check.
    pub failed: u64,
    /// What failed, for the human report.
    pub failures: Vec<String>,
}

impl RunResult {
    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a timing metric with its sample count.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// Count one attempted operation; `ok = false` records `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Count `n` attempted operations that succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Failed share of attempted operations.
    pub fn error_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The driver's result line: `correct`, `attempted`, `failed` and
    /// the metrics of this mode — every end-to-end metric for an
    /// untraced run, every per-layer metric (0 where a layer did not
    /// run) for a traced one.
    pub fn to_json_line(&self, traced: bool) -> String {
        let metric = |name: &str, unit: &str, value: f64| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        };
        let metrics: Vec<String> = if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| {
                    metric(name, unit, self.values.get(name).copied().unwrap_or(0.0))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let value = *self
                        .values
                        .get(m.name)
                        .unwrap_or_else(|| panic!("workload did not report {}", m.name));
                    assert!(
                        value.is_finite() && value > 0.0,
                        "{} must be positive and finite, got {value}",
                        m.name
                    );
                    metric(m.name, m.unit, value)
                })
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Json;

    fn manifest() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn field<'j>(j: &'j Json, key: &str) -> &'j str {
        j.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    #[test]
    fn manifest_matches_the_registry() {
        let m = manifest();
        let workloads = m.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!((field(j, "name"), field(j, "why")), (name, why));
            assert!(why.len() <= 200);
        }
        let e = m.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(e.len(), END_TO_END.len());
        for (j, reg) in e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name"), reg.name);
            assert_eq!(field(j, "unit"), reg.unit);
            assert_eq!(field(j, "better"), reg.better);
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(reg.bound));
            assert!(reg.bound <= 0.25);
        }
        let p = m.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(p.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in p.iter().zip(PER_LAYER) {
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (name, unit, better)
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut r = RunResult::default();
        for m in END_TO_END {
            r.set(m.name, 1.5);
        }
        r.passed(9);
        r.check(false, || "boom".into());
        let line = Json::parse(&r.to_json_line(false)).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(10));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
        let metrics = line.get("metrics").unwrap();
        for m in END_TO_END {
            let v = metrics.get(m.name).unwrap();
            assert_eq!(v.get("value").and_then(Json::as_f64), Some(1.5));
            assert_eq!(field(v, "unit"), m.unit);
        }
        assert!((r.error_share() - 0.1).abs() < 1e-12);
        // A traced line carries every per-layer metric, 0 when unset.
        let traced = Json::parse(&RunResult::default().to_json_line(true)).unwrap();
        let metrics = traced.get("metrics").unwrap();
        assert!(PER_LAYER.iter().all(|m| metrics.get(m.0).is_some()));
    }
}
