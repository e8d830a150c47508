//! `serve_topk`: the read path. A briefly trained, then quiescent engine is
//! served by `uninet_server::serve` on a real TCP socket and driven through
//! `uninet_server::Client`: first an open loop (Poisson arrivals at a fixed
//! rate, latency timed from the due time), then a closed loop. The load
//! generator here also drives `serve_under_ingest`.

use std::collections::HashSet;
use std::hint::black_box;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use uninet_core::{kernels, EmbeddingSnapshot, Engine, ModelSpec, QueryMode, StreamingConfig};
use uninet_graph::NodeId;
use uninet_server::{
    serve, Client, ClientError, Request, Response, ServeAddr, ServerConfig, ServerHandle,
};

use crate::batch_train::exact_top_k_is_right;
use crate::common::{engine_config, peak_rss_mb, sleep_until, timed_setups, Ctx, Outcome};
use crate::gen::{barabasi_albert, build_graph, poisson_schedule, queries, Prng, Query, ZipfKeys};
use crate::stats::{self, OpenLoopSample};
use crate::trace::Tracer;

pub const K: u32 = 10;
const DIM: usize = 64;

/// Total open-loop request rate of `serve_topk`, frozen at about a quarter of
/// what the closed loop completes on the two-thread reference machine. Each
/// connection is a blocking client, so at half of that rate it is busy half
/// the time and the queueing made the tail differ by 14 to 20% between runs.
const OPEN_LOOP_RATE: f64 = 3_500.0;

/// How long before a request is due `serve_topk`'s generators stop sleeping
/// and spin: long enough to hide the timer's slack, short enough that the
/// generator threads leave the two cores to the server.
const OPEN_LOOP_SPIN: Duration = Duration::from_micros(200);

/// Share of the run the open loop takes; the closed loop takes the rest.
const OPEN_LOOP_SHARE: f64 = 0.5;

impl Query {
    fn kind(self) -> usize {
        match self {
            Query::TopKAnn(_) => 0,
            Query::TopKExact(_) => 1,
            Query::Cosine(..) => 2,
            Query::Vector(_) => 3,
        }
    }
}

/// What one connection of the load generator saw.
#[derive(Debug, Default)]
pub struct WireStats {
    pub sample: OpenLoopSample,
    /// Service time (send to answer) per op kind, in microseconds.
    pub per_kind_us: [Vec<f64>; 4],
    pub attempted: u64,
    pub failed: u64,
}

impl WireStats {
    pub fn merge(&mut self, other: WireStats) {
        self.sample.latency_us.extend(other.sample.latency_us);
        self.sample.lateness_us.extend(other.sample.lateness_us);
        for (mine, theirs) in self.per_kind_us.iter_mut().zip(other.per_kind_us) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Sends one query and judges the answer. A typed `RetiredNode` refusal is
/// correct exactly when the stream being ingested retires that id.
fn issue(
    client: &mut Client<TcpStream>,
    query: Query,
    retired: &HashSet<u32>,
) -> Result<(), ClientError> {
    let refused_rightly = |e: ClientError, ids: &[u32]| {
        if e.is_retired_node() && ids.iter().any(|id| retired.contains(id)) {
            Ok(())
        } else {
            Err(e)
        }
    };
    let wrong = |what: &str| Err(ClientError::Protocol(format!("wrong answer: {what}")));
    match query {
        Query::TopKAnn(node) | Query::TopKExact(node) => {
            let mode = if matches!(query, Query::TopKAnn(_)) {
                QueryMode::Ann
            } else {
                QueryMode::Exact
            };
            match client.top_k(node, K, mode) {
                Ok((_, hits)) => {
                    let sorted = hits.windows(2).all(|w| w[0].1 >= w[1].1);
                    let clean = hits.iter().all(|&(v, s)| v != node && s.is_finite());
                    if hits.is_empty() || hits.len() > K as usize || !sorted || !clean {
                        return wrong("top_k");
                    }
                    Ok(())
                }
                Err(e) => refused_rightly(e, &[node]),
            }
        }
        Query::Cosine(a, b) => match client.cosine(a, b) {
            Ok((_, Some(c))) if (-1.001..=1.001).contains(&c) => Ok(()),
            Ok(_) => wrong("cosine"),
            Err(e) => refused_rightly(e, &[a, b]),
        },
        Query::Vector(node) => match client.vector(node) {
            Ok((_, Some(v))) if v.len() == DIM && v.iter().all(|x| x.is_finite()) => Ok(()),
            Ok(_) => wrong("vector"),
            Err(e) => refused_rightly(e, &[node]),
        },
    }
}

fn connect(addr: &str) -> Client<TcpStream> {
    Client::connect(addr).expect("the benchmark's own server accepts connections")
}

/// One open-loop connection: sends `plan[i]` when `due_ns[i]` after `start`
/// has come, whether or not earlier answers were slow, and stops early when
/// `stop` is raised. It sleeps between requests up to `spin` before the next
/// is due.
pub fn open_loop(
    addr: &str,
    start: Instant,
    plan: &[Query],
    due_ns: &[u64],
    spin: Duration,
    stop: &AtomicBool,
    retired: &HashSet<u32>,
) -> WireStats {
    let mut client = connect(addr);
    let mut stats = WireStats::default();
    for (&query, &due) in plan.iter().zip(due_ns) {
        sleep_until(start + Duration::from_nanos(due), spin);
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let sent = start.elapsed().as_nanos() as u64;
        let result = issue(&mut client, query, retired);
        let done = start.elapsed().as_nanos() as u64;
        stats.sample.record(due, sent, done);
        stats.per_kind_us[query.kind()].push((done - sent) as f64 / 1e3);
        stats.attempted += 1;
        if let Err(e) = result {
            stats.failed += 1;
            if matches!(e, ClientError::Io(_)) {
                client = connect(addr);
            }
        }
    }
    stats
}

/// One closed-loop connection: the next request goes out when the previous
/// answer is in. Returns when each request completed (seconds after `begun`)
/// and how many failed.
fn closed_loop(addr: &str, begun: Instant, plan: &[Query], seconds: f64) -> (Vec<f64>, u64) {
    let mut client = connect(addr);
    let none = HashSet::new();
    let (mut done, mut failed) = (Vec::with_capacity(plan.len()), 0u64);
    for &query in plan.iter().cycle() {
        if begun.elapsed().as_secs_f64() >= seconds {
            break;
        }
        match issue(&mut client, query, &none) {
            Ok(()) => done.push(begun.elapsed().as_secs_f64()),
            Err(_) => failed += 1,
        }
    }
    (done, failed)
}

/// ANN against exact `top_k` on one snapshot, over `count` sampled keys.
pub fn ann_recall(snapshot: &EmbeddingSnapshot, count: usize, rng: &mut Prng) -> f64 {
    let n = snapshot.num_nodes();
    let (mut found, mut wanted) = (0usize, 0usize);
    let mut asked = 0;
    while asked < count {
        let node = rng.below(n) as NodeId;
        if !snapshot.is_live(node) {
            continue;
        }
        asked += 1;
        let exact = snapshot.top_k_mode(node, K as usize, QueryMode::Exact);
        let ann = snapshot.top_k_mode(node, K as usize, QueryMode::Ann);
        wanted += exact.len();
        found += exact
            .iter()
            .filter(|(v, _)| ann.iter().any(|(a, _)| a == v))
            .count();
    }
    found as f64 / wanted.max(1) as f64
}

/// The per-layer metrics any open-loop sample gives: service-time medians
/// per op, the tail percentiles that were demoted from the end-to-end set,
/// how late the generator ran, and the server's own counters.
pub fn set_wire_metrics(out: &mut Outcome, wire: &WireStats, engine: &Engine) {
    for (kind, name) in [
        "server.op.top_k_ann.p50_us",
        "server.op.top_k_exact.p50_us",
        "server.op.cosine.p50_us",
        "server.op.vector.p50_us",
    ]
    .into_iter()
    .enumerate()
    {
        if !wire.per_kind_us[kind].is_empty() {
            out.set(name, stats::median(&wire.per_kind_us[kind]));
        }
    }
    out.set(
        "server.query_p95_us",
        stats::quantile(&wire.sample.latency_us, 0.95),
    );
    out.set(
        "server.query_p99_us",
        stats::quantile(&wire.sample.latency_us, 0.99),
    );
    out.set(
        "server.loadgen.lateness_p99_us",
        stats::quantile(&wire.sample.lateness_us, 0.99),
    );
    let counters = engine.metrics();
    let count = |name: &str| counters.counter(name).unwrap_or(0) as f64;
    out.set(
        "server.coalesce.queries_per_slab",
        count("server.coalesced_queries") / count("server.coalesced_slabs").max(1.0),
    );
    out.set(
        "server.rejected_overload_ratio",
        count("server.rejected_overload") / count("server.requests").max(1.0),
    );
}

pub fn start_server(engine: &Engine) -> (ServerHandle, String) {
    let server = serve(
        engine,
        &ServeAddr::parse("127.0.0.1:0"),
        ServerConfig::default(),
    )
    .expect("a loopback port can be bound");
    let addr = server.addr().to_string();
    (server, addr)
}

struct Served {
    engine: Engine,
    server: ServerHandle,
    addr: String,
}

/// Graph, brief training (publishes the only epoch, with its ANN index),
/// server start.
fn setup(ctx: &Ctx) -> Served {
    let n = ctx.size(10_000, 1_000);
    let graph = build_graph(&barabasi_albert(n, 5, ctx.seed));
    let engine = Engine::builder()
        .graph(graph)
        .model(ModelSpec::DeepWalk)
        .config(engine_config(ctx, 1, 20, DIM, 5))
        .streaming(StreamingConfig {
            ann_index: true,
            ..StreamingConfig::default()
        })
        .build()
        .expect("the benchmark's engine configuration is valid");
    engine.train().expect("a fresh engine is idle");
    let (server, addr) = start_server(&engine);
    Served {
        engine,
        server,
        addr,
    }
}

/// The open-loop phase over `connections` connections sharing `rate`.
fn open_phase(ctx: &Ctx, addr: &str, keys: &ZipfKeys, rate: f64, seconds: f64) -> WireStats {
    let connections = ctx.threads;
    let plans: Vec<(Vec<Query>, Vec<u64>)> = (0..connections)
        .map(|c| {
            let mut rng = Prng::fork(ctx.seed, 100 + c as u64);
            let due = poisson_schedule(rate / connections as f64, seconds, &mut rng);
            (queries(keys, due.len(), &mut rng), due)
        })
        .collect();
    let stop = AtomicBool::new(false);
    let none = HashSet::new();
    let start = Instant::now() + Duration::from_millis(20);
    let mut total = WireStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|(plan, due)| {
                let (stop, none) = (&stop, &none);
                scope.spawn(move || open_loop(addr, start, plan, due, OPEN_LOOP_SPIN, stop, none))
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("a load-generator thread panicked"));
        }
    });
    total
}

/// Width of the windows over which closed-loop throughput is counted. The
/// reported rate is the 90th percentile of the windows: with clients and
/// server on the same two cores a disturbed window only ever counts fewer
/// requests, and whole-phase averages differed by 12% between runs.
const QPS_WINDOW_S: f64 = 0.1;

/// The closed-loop phase: completed requests per second in each full
/// window, over all connections, and failed requests.
fn closed_phase(ctx: &Ctx, addr: &str, keys: &ZipfKeys, seconds: f64) -> (Vec<f64>, u64) {
    let plans: Vec<Vec<Query>> = (0..ctx.threads)
        .map(|c| queries(keys, 50_000, &mut Prng::fork(ctx.seed, 200 + c as u64)))
        .collect();
    let windows = (seconds / QPS_WINDOW_S).floor().max(1.0) as usize;
    let mut per_window = vec![0.0f64; windows];
    let mut failed = 0u64;
    let begun = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| scope.spawn(move || closed_loop(addr, begun, plan, seconds)))
            .collect();
        for h in handles {
            let (done, bad) = h.join().expect("a load-generator thread panicked");
            failed += bad;
            for at in done {
                if let Some(w) = per_window.get_mut((at / QPS_WINDOW_S) as usize) {
                    *w += 1.0 / QPS_WINDOW_S;
                }
            }
        }
    });
    (per_window, failed)
}

/// Wire `top_k` exact must equal the in-process exact answer on the same
/// (only) snapshot, and that answer must be the true top-k.
fn check_wire_against_engine(ctx: &Ctx, served: &Served, out: &mut Outcome) {
    let mut client = connect(&served.addr);
    let snapshot = served.engine.snapshot();
    let mut rng = Prng::fork(ctx.seed, 9);
    for i in 0..50 {
        let node = rng.below(snapshot.num_nodes()) as NodeId;
        let local = served.engine.top_k_mode(node, K as usize, QueryMode::Exact);
        let same =
            matches!(client.top_k(node, K, QueryMode::Exact), Ok((_, wire)) if wire == local);
        // The full reference scan is O(n) per key; ten keys are enough.
        let right =
            i >= 10 || exact_top_k_is_right(snapshot.embeddings(), node, K as usize, &local);
        out.check(1, u64::from(!same || !right));
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (served, setup_s) = timed_setups(3, || setup(ctx));
    let keys = ZipfKeys::new(served.engine.num_nodes(), 1.0, ctx.seed);

    let open = open_phase(
        ctx,
        &served.addr,
        &keys,
        OPEN_LOOP_RATE,
        ctx.seconds * OPEN_LOOP_SHARE,
    );
    let closed_seconds = ctx.seconds * (1.0 - OPEN_LOOP_SHARE);
    let (qps, closed_failed) = closed_phase(ctx, &served.addr, &keys, closed_seconds);
    let done = (qps.iter().sum::<f64>() * QPS_WINDOW_S) as u64;
    out.check(open.attempted, open.failed);
    out.check(done + closed_failed, closed_failed);
    check_wire_against_engine(ctx, &served, &mut out);
    let recall = ann_recall(
        &served.engine.snapshot(),
        200,
        &mut Prng::fork(ctx.seed, 10),
    );

    out.set("work_per_s", stats::quantile(&qps, 0.9));
    out.set("latency_p50_us", stats::median(&open.sample.latency_us));
    out.set("quality", recall);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("setup_s", setup_s);
    out.note(format!(
        "engine: BA n={} deepwalk K=1 L=20 dim {DIM}, ANN on, quiescent; {} connections; Zipf(1.0) keys; 85% top_k ANN k={K}, 2% top_k exact, 8% cosine, 5% vector",
        served.engine.num_nodes(),
        ctx.threads
    ));
    out.note(format!(
        "work_per_s = serve_qps: closed loop, {} connections, {closed_seconds:.1} s, {done} requests; p90 of the rates counted in {QPS_WINDOW_S} s windows (mean {:.0}/s)",
        ctx.threads,
        done as f64 / closed_seconds
    ));
    out.note(format!(
        "latency_p50_us = query_p50_us from the due time: open loop, Poisson {OPEN_LOOP_RATE}/s over {} connections; {}",
        ctx.threads,
        open.sample.describe()
    ));
    out.note(format!(
        "quality = ann_recall_at_10 = {recall:.4} (ANN vs exact on one snapshot, 200 keys)"
    ));
    served.server.shutdown();
    out
}

/// Times `call` on each key, one span per call, and returns the median in
/// microseconds.
fn probe(
    tracer: &mut Tracer,
    name: &'static str,
    keys: &[NodeId],
    mut call: impl FnMut(NodeId),
) -> f64 {
    for (i, &k) in keys.iter().enumerate() {
        tracer.time(name, i as u64, || call(k));
    }
    stats::median(&tracer.durations_ns(name)) / 1e3
}

pub fn run_traced(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let served = setup(ctx);
    let keys = ZipfKeys::new(served.engine.num_nodes(), 1.0, ctx.seed);
    let half = ctx.seconds / 2.0;

    // First half: the same open loop as the untraced run, for per-op service
    // times, generator lateness and the server's own counters.
    let open = open_phase(ctx, &served.addr, &keys, OPEN_LOOP_RATE, half);
    out.check(open.attempted, open.failed);
    check_wire_against_engine(ctx, &served, &mut out);
    set_wire_metrics(&mut out, &open, &served.engine);
    let counters = served.engine.metrics();
    let count = |name: &str| counters.counter(name).unwrap_or(0) as f64;

    // Second half: the same sampled keys timed at each depth, one caller, so
    // each layer's self time is a difference of medians.
    let mut rng = Prng::fork(ctx.seed, 11);
    let sample: Vec<NodeId> = (0..ctx.size(2_000, 200))
        .map(|_| keys.draw(&mut rng))
        .collect();
    let snapshot = served.engine.snapshot();
    let emb = snapshot.embeddings();
    let begun = Instant::now();
    let t = Instant::now();
    for pair in sample.windows(2) {
        black_box(kernels::dot(emb.vector(pair[0]), emb.vector(pair[1])));
    }
    out.set(
        "embedding.kernels.dot_ns",
        t.elapsed().as_nanos() as f64 / (sample.len() - 1) as f64,
    );
    let t = Instant::now();
    for pair in sample.windows(2) {
        black_box(kernels::cosine(emb.vector(pair[0]), emb.vector(pair[1])));
    }
    out.set(
        "embedding.kernels.cosine_ns",
        t.elapsed().as_nanos() as f64 / (sample.len() - 1) as f64,
    );

    let store_ann_us = probe(&mut tracer, "embedding.snapshot.top_k_ann", &sample, |k| {
        black_box(snapshot.top_k_mode(k, K as usize, QueryMode::Ann));
    });
    let store_exact_us = probe(
        &mut tracer,
        "embedding.snapshot.top_k_exact",
        &sample[..sample.len() / 10],
        |k| {
            black_box(snapshot.top_k_mode(k, K as usize, QueryMode::Exact));
        },
    );
    let fallbacks_before = count("query.ann_fallbacks");
    let engine_ann_us = probe(&mut tracer, "core.engine.top_k_ann", &sample, |k| {
        black_box(served.engine.top_k_mode(k, K as usize, QueryMode::Ann));
    });
    let mut client = connect(&served.addr);
    let wire_ann_us = probe(&mut tracer, "server.wire.top_k_ann", &sample, |k| {
        black_box(client.top_k(k, K, QueryMode::Ann).is_ok());
    });
    let codec_request = Request::TopK {
        node: sample[0],
        k: K,
        mode: QueryMode::Ann,
    };
    let codec_response = Response::TopK {
        epoch: 1,
        neighbors: served.engine.top_k(sample[0], K as usize),
    };
    let codec_rounds = sample.len() * 10;
    let t = Instant::now();
    for _ in 0..codec_rounds {
        let bytes = black_box(&codec_request).encode();
        black_box(Request::decode(&bytes).is_ok());
        let bytes = black_box(&codec_response).encode();
        black_box(Response::decode(&bytes).is_ok());
    }
    out.set(
        "server.proto.codec_ns",
        t.elapsed().as_nanos() as f64 / codec_rounds as f64,
    );
    let depth_wall = begun.elapsed().as_secs_f64();

    let after = served.engine.metrics();
    let fallbacks = after.counter("query.ann_fallbacks").unwrap_or(0) as f64 - fallbacks_before;
    out.set(
        "embedding.ann.fallback_ratio",
        fallbacks / (2 * sample.len()) as f64,
    );
    out.set("embedding.store.top_k_ann_us", store_ann_us);
    out.set("embedding.store.top_k_exact_us", store_exact_us);
    out.set(
        "embedding.store.bytes",
        std::mem::size_of_val(emb.as_flat()) as f64,
    );
    out.set("server.wire_overhead_us", wire_ann_us - engine_ann_us);
    // Nothing inside the wire path is traced, so the ratio only shows what
    // one caller at a time, instead of the open loop, does to the same op.
    out.set(
        "metrics.trace_overhead_ratio",
        wire_ann_us / stats::median(&open.per_kind_us[0]).max(1e-9),
    );
    out.note(format!(
        "top_k ANN medians by depth over {} keys: snapshot {store_ann_us:.1} us, engine {engine_ann_us:.1} us, wire {wire_ann_us:.1} us; depth probes took {depth_wall:.2} s",
        sample.len()
    ));
    crate::write_spans(ctx, "serve_topk", &tracer);
    served.server.shutdown();
    out
}
