//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the root of
//! the repository is this table rendered by [`benchmark_json`]; `--check`
//! fails when the two differ.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

/// Seconds one run measures for.
pub const RUN_SECONDS: u32 = 10;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "walk_gen",
        why: "sampler and walker do all the work (node2vec then deepwalk, M-H sampler); trainer, ingest and server do none",
    },
    Workload {
        name: "batch_train",
        why: "one Engine::train per round, what a batch user waits for; the trainer is nearly all of it, so a walker change must not move it",
    },
    Workload {
        name: "stream_ingest",
        why: "the write path end to end (lines, queue, WAL, apply, refresh, online SGD, publish) with churn and no readers, then recovery",
    },
    Workload {
        name: "serve_topk",
        why: "the read path over a real socket on a quiescent engine: open-loop Poisson traffic, then a closed loop; ingest does nothing",
    },
    Workload {
        name: "serve_under_ingest",
        why: "reads beside writes: stream_ingest's stream with serve_topk's open-loop traffic, so a gain for one use that costs the other shows",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// Every workload reports every one of these (see README.md for what each
/// means on each workload).
pub const END_TO_END: &[Metric] = &[
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("quality", "ratio", Better::Higher, 0.10),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Layer = crate name. A workload that does not exercise a layer reports 0
/// for that layer's metrics.
pub const PER_LAYER: &[Metric] = &[
    layer("graph.build_s", "s", Lower),
    layer("graph.has_edge_ns", "ns", Lower),
    layer("sampler.mh.init_s", "s", Lower),
    layer("sampler.mh.sample_ns", "ns", Lower),
    layer("sampler.mh.memory_bytes", "bytes", Lower),
    layer("sampler.mh.kl", "nats", Lower),
    layer("sampler.alias.init_s", "s", Lower),
    layer("sampler.alias.memory_bytes", "bytes", Lower),
    layer("walker.node2vec.steps_per_s", "1/s", Higher),
    layer("walker.deepwalk.steps_per_s", "1/s", Higher),
    layer("walker.node2vec_alias.steps_per_s", "1/s", Higher),
    layer("walker.invalid_step_ratio", "ratio", Lower),
    layer("embedding.train.tokens_per_s", "1/s", Higher),
    layer("embedding.train.pairs_per_s", "1/s", Higher),
    layer("embedding.online_sgd.tokens_per_s", "1/s", Higher),
    layer("embedding.online_sgd.busy_share", "ratio", Lower),
    layer("embedding.publish.norms_ms", "ms", Lower),
    layer("embedding.publish.ann_build_ms", "ms", Lower),
    layer("embedding.publish.ann_reinserted_ratio", "ratio", Lower),
    layer("embedding.store.top_k_ann_us", "us", Lower),
    layer("embedding.store.top_k_exact_us", "us", Lower),
    layer("embedding.store.bytes", "bytes", Lower),
    layer("embedding.kernels.dot_ns", "ns", Lower),
    layer("embedding.kernels.cosine_ns", "ns", Lower),
    layer("embedding.ann.fallback_ratio", "ratio", Lower),
    layer("dyngraph.refresh.dirty_ratio", "ratio", Lower),
    layer("dyngraph.refresh.walks_per_batch", "count", Lower),
    layer("dyngraph.refresh.busy_share", "ratio", Lower),
    layer("dyngraph.compaction.count", "count", Lower),
    layer("dyngraph.compaction.ms", "ms", Lower),
    layer("dyngraph.apply.rejected_ratio", "ratio", Lower),
    layer("ingest.parse.lines_per_s", "1/s", Higher),
    layer("ingest.apply.us_per_batch", "us", Lower),
    layer("ingest.maintain.us_per_batch", "us", Lower),
    layer("ingest.queue.stall_share", "ratio", Lower),
    layer("ingest.queue.peak_depth", "count", Lower),
    layer("persist.wal_append.us_per_batch", "us", Lower),
    layer("persist.wal.bytes_per_update", "bytes", Lower),
    layer("persist.wal.fsyncs", "count", Lower),
    layer("persist.snapshot_write_ms", "ms", Lower),
    layer("persist.snapshot_bytes", "bytes", Lower),
    layer("persist.recover.load_ms", "ms", Lower),
    layer("persist.recover.replay_ms", "ms", Lower),
    layer("core.train.overhead_share", "ratio", Lower),
    layer("core.stream.unattributed_share", "ratio", Lower),
    layer("core.stream.replay_over_engine", "ratio", Lower),
    layer("core.stream.publish_gap_p50_ms", "ms", Lower),
    layer("core.stream.publish_gap_p99_ms", "ms", Lower),
    layer("core.recover.first_answer_s", "s", Lower),
    layer("server.wire_overhead_us", "us", Lower),
    layer("server.proto.codec_ns", "ns", Lower),
    layer("server.op.top_k_ann.p50_us", "us", Lower),
    layer("server.op.top_k_exact.p50_us", "us", Lower),
    layer("server.op.cosine.p50_us", "us", Lower),
    layer("server.op.vector.p50_us", "us", Lower),
    layer("server.coalesce.queries_per_slab", "count", Higher),
    layer("server.rejected_overload_ratio", "ratio", Lower),
    layer("server.query_p95_us", "us", Lower),
    layer("server.query_p99_us", "us", Lower),
    layer("server.loadgen.lateness_p99_us", "us", Lower),
    layer("eval.linkpred.wall_s", "s", Lower),
    layer("metrics.trace_overhead_ratio", "ratio", Lower),
    layer("failed_ratio", "ratio", Lower),
];

/// The command the driver runs from the root of a checkout.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

const PATHS: &[&str] = &["benchmark"];

fn quoted_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

/// `BENCHMARK.json`, exactly as committed.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics have a bound")
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted_list(COMMAND),
        quoted_list(PATHS),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn valid_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

/// Checks the table against the limits the driver enforces; the first
/// violation is the error.
pub fn validate() -> Result<(), String> {
    if !(2..=8).contains(&WORKLOADS.len()) {
        return Err(format!("{} workloads, need 2 to 8", WORKLOADS.len()));
    }
    if !(1..=16).contains(&END_TO_END.len()) {
        return Err(format!(
            "{} end-to-end metrics, need 1 to 16",
            END_TO_END.len()
        ));
    }
    if !(1..=128).contains(&PER_LAYER.len()) {
        return Err(format!(
            "{} per-layer metrics, need 1 to 128",
            PER_LAYER.len()
        ));
    }
    if !(1..=60).contains(&RUN_SECONDS) {
        return Err(format!("run_seconds {RUN_SECONDS} outside 1..=60"));
    }
    let mut names = std::collections::BTreeSet::new();
    for w in WORKLOADS {
        if !valid_name(w.name) || !names.insert(w.name) {
            return Err(format!(
                "workload name {:?} is malformed or repeated",
                w.name
            ));
        }
        if w.why.is_empty() || w.why.len() > 200 || w.why.contains(['\n', '"', '\\']) {
            return Err(format!(
                "workload {}: `why` must be one plain line of at most 200 characters",
                w.name
            ));
        }
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        if !valid_name(m.name) || !names.insert(m.name) {
            return Err(format!("metric name {:?} is malformed or repeated", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("metric {}: unit {:?} is malformed", m.name, m.unit));
        }
    }
    for m in END_TO_END {
        match m.bound {
            Some(b) if (0.0..=0.25).contains(&b) => {}
            other => {
                return Err(format!(
                    "metric {}: bound {other:?} outside 0..=0.25",
                    m.name
                ))
            }
        }
    }
    if let Some(m) = PER_LAYER.iter().find(|m| m.bound.is_some()) {
        return Err(format!("per-layer metric {} has a bound", m.name));
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
    if !setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower) {
        return Err("end_to_end needs `setup_s` in s, lower is better".to_string());
    }
    if benchmark_json().len() > 64 * 1024 {
        return Err("BENCHMARK.json is larger than 64 KiB".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_within_the_limits() {
        validate().unwrap();
    }

    #[test]
    fn names_and_units_are_checked() {
        assert!(valid_name("server.op.top_k_ann.p50_us"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("MiB") && valid_unit("%"));
        assert!(!valid_unit("per second") && !valid_unit(""));
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json());
    }
}
