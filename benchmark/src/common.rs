//! What every workload shares: its arguments, its result, and small helpers.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use uninet_core::{EdgeSamplerKind, InitStrategy, UniNetConfig};
use uninet_graph::Graph;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Engine threads, load-generator threads and connections; never above
    /// the machine's hardware threads.
    pub threads: usize,
    /// Tiny sizes, for `check.sh`.
    pub smoke: bool,
    /// Scratch directory inside the checkout (WAL, snapshots, span dumps).
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Picks the full or the smoke size.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// A fresh, empty directory for this run's files.
    pub fn scratch(&self, name: &str) -> PathBuf {
        let dir = self.out_dir.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the scratch directory can be created");
        dir
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines for the human reader: sample counts, sizes, what a generic
    /// metric means on this workload.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts `checked` operations of which `bad` were wrong.
    pub fn check(&mut self, checked: u64, bad: u64) {
        self.attempted += checked;
        self.failed += bad;
    }
}

/// The paper's sampler with its default initialisation.
pub fn mh_sampler() -> EdgeSamplerKind {
    EdgeSamplerKind::MetropolisHastings(InitStrategy::high_weight_exact())
}

/// Pipeline configuration shared by the engine-backed workloads.
pub fn engine_config(
    ctx: &Ctx,
    num_walks: usize,
    walk_length: usize,
    dim: usize,
    window: usize,
) -> UniNetConfig {
    let mut cfg = UniNetConfig::default();
    cfg.walk.num_walks = num_walks;
    cfg.walk.walk_length = walk_length;
    cfg.walk.num_threads = ctx.threads;
    cfg.walk.seed = ctx.seed;
    cfg.walk.sampler = mh_sampler();
    cfg.embedding.dim = dim;
    cfg.embedding.window = window;
    cfg.embedding.negative = 5;
    cfg.embedding.epochs = 1;
    cfg.embedding.num_threads = ctx.threads;
    cfg.embedding.seed = ctx.seed;
    cfg
}

/// Runs `setup` at least `times` times, and for a cheap set-up until a
/// quarter of a second has gone into it (at most 25 times), keeps the last
/// result, and returns the median wall time in seconds.
pub fn timed_setups<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let begun = Instant::now();
    let mut walls = Vec::new();
    let mut last = None;
    while walls.len() < times.max(1)
        || (walls.len() < 25 && begun.elapsed() < Duration::from_millis(250))
    {
        // The previous result is dropped first so that set-ups never overlap
        // in memory and inflate the peak.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        walls.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up ran"),
        crate::stats::median(&walls),
    )
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Link-prediction AUC of `score` on `graph`: 4000 positive and 4000
/// negative pairs drawn with a fixed evaluation seed.
pub fn linkpred_auc(graph: &Graph, score: impl Fn(u32, u32) -> f64) -> (f64, Duration) {
    let t = Instant::now();
    let edges: Vec<(u32, u32)> = graph
        .all_edges()
        .filter(|&(u, v, _)| u < v)
        .map(|(u, v, _)| (u, v))
        .collect();
    let auc = uninet_eval::link_prediction_auc(
        graph.num_nodes(),
        &edges,
        |u, v| graph.has_edge(u, v),
        score,
        &uninet_eval::LinkPredictionConfig {
            num_pairs: 4_000,
            seed: 0x5EED,
        },
    );
    (auc, t.elapsed())
}

/// Waits until `deadline`: sleeps until `spin` before it and spins through
/// the rest, so that an open-loop generator sends close to when it is due.
pub fn sleep_until(deadline: Instant, spin: Duration) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > spin {
            std::thread::sleep(left - spin);
        } else {
            std::hint::spin_loop();
        }
    }
}
