//! `uninet` — command-line front end of the engine: read an edge list (or
//! generate a synthetic graph), run one of the five NRL models, and write the
//! embeddings in word2vec text format. With `--wal-dir` the run is durable
//! (write-ahead logged and snapshotted); with `--recover` it restarts from
//! that state; with `--serve` it answers the wire protocol until stdin
//! closes.
//!
//! ```text
//! uninet --model node2vec --p 0.25 --q 4.0 --input graph.edges --output emb.txt
//! uninet --model deepwalk --updates stream.txt --wal-dir ./wal --output emb.txt
//! uninet --recover --wal-dir ./wal --serve 127.0.0.1:7878
//! ```
//!
//! Run `uninet --help` for the full flag list. The flag parser is hand-rolled
//! (no external CLI dependency is allowed in this workspace); every failure
//! path surfaces a typed [`UniNetError`] with the offending flag or the
//! file/line of a malformed input.

use std::io::Read;
use std::process::ExitCode;

use uninet_core::{
    EdgeSamplerKind, Engine, EngineBuilder, FsyncPolicy, InitStrategy, ModelSpec, StreamingConfig,
    UniNetError,
};
use uninet_dyngraph::{read_update_stream_file, read_update_stream_validated_file};
use uninet_embedding::io::save_embeddings;
use uninet_graph::generators::{barabasi_albert, rmat, RmatConfig};
use uninet_graph::Graph;
use uninet_server::{serve, ServeAddr, ServerConfig};

const HELP: &str = "\
uninet — unified random-walk network representation learning

USAGE:
  uninet [OPTIONS] --output <FILE>
  uninet [OPTIONS] --serve <ADDR>

INPUT (choose one):
  --input <FILE>          edge list: `src dst [weight] [edge_type]` per line
  --synthetic <rmat|ba>   generate a synthetic graph instead (default rmat)
  --nodes <N>             synthetic graph size                 [default: 10000]
  --mean-degree <D>       synthetic mean degree                [default: 10]
  --recover               rebuild graph + embeddings from --wal-dir instead of
                          any other input source

MODEL:
  --model <NAME>          deepwalk | node2vec | metapath2vec | edge2vec | fairwalk
                                                               [default: deepwalk]
  --p <F>  --q <F>        node2vec/edge2vec/fairwalk parameters [default: 1.0]
  --metapath <T,T,..>     metapath node types for metapath2vec  [default: 0,1,0]

WALKS & TRAINING:
  --num-walks <K>         walks per node                        [default: 10]
  --walk-length <L>       nodes per walk                        [default: 80]
  --dim <D>               embedding dimensionality              [default: 128]
  --epochs <E>            word2vec epochs                       [default: 1]
  --threads <T>           worker threads                        [default: 16]
  --sampler <NAME>        mh-weight | mh-random | mh-burnin | alias | direct |
                          rejection | knightking | memory-aware [default: mh-weight]
  --seed <S>              RNG seed                              [default: 42]

STREAMING UPDATES (dynamic-graph mode):
  --updates <FILE>        edge-update stream replayed after the initial walks:
                          `add u v [w]` / `del u v` / `w u v <weight>` per line
                          (aliases: + / - / ~). Affected walks are refreshed
                          incrementally and embeddings retrained at the end.
  --update-batch-size <N> mutations per maintenance batch     [default: 256]
  --compaction-threshold <N>
                          pending overlay edges that trigger CSR compaction
                                                              [default: 1024]
  --directed-updates      do not mirror mutations onto the reverse edge
  --ingest-threads <T>    worker threads for sharded update application,
                          sampler maintenance and walk refresh
                                                       [default: --threads]
  --queue-capacity <N>    update batches buffered by the intake queue before
                          back-pressure blocks the reader      [default: 8]
  --incremental-train     update embeddings online on regenerated walks
                          instead of a full retrain at end-of-stream

OPEN-WORLD CHURN (node arrival & departure):
  --allow-churn           accept `addnode <v>` / `rmnode <v>` events in the
                          update stream: the universe grows (new embedding
                          rows, cold-start initialised from neighbours) and
                          retired ids become unqueryable everywhere (walks,
                          snapshots, ANN index, wire protocol) but are never
                          recycled for a different identity. The stream is
                          validated up front: duplicate arrivals, retirements
                          of unknown ids and edge ops naming retired
                          endpoints are typed errors with line context
  --cold-start-burn-in <N>
                          boosted online-SGD passes over the seeded walks of
                          each arrival cohort                  [default: 2]
  --cold-start-boost <F>  learning-rate multiplier during burn-in
                                                              [default: 2.0]

DURABILITY (write-ahead log + snapshots):
  --wal-dir <DIR>         append every applied update batch to a WAL in DIR
                          and cut binary snapshots of graph + embeddings +
                          sampler state; survives kill -9
  --snapshot-every <N>    also cut a snapshot every N logged batches (initial
                          and final snapshots are always written)
  --wal-fsync <POLICY>    always | never | <N> (fsync every N appends)
                                                              [default: always]
  --recover               load the newest valid snapshot in --wal-dir, replay
                          the WAL suffix, truncate any torn tail, and continue
                          from that state

QUERY SERVICE (ANN):
  --ann                   build an HNSW index into every published embedding
                          snapshot, so top-k queries run in ~O(log n * d)
                          instead of a full scan
  --ann-m <M>             HNSW links per node and layer (layer 0: 2M)
                                                              [default: 16]
  --ann-ef-construction <N>
                          HNSW construction beam width        [default: 100]
  --ann-ef-search <N>     HNSW query beam width (recall knob) [default: 64]
  --ann-quantize          rank top-k candidates through int8 codes (4x less
                          scan bandwidth), re-scoring the best k*rerank in
                          f32 so reported scores stay exact; requires --ann
  --ann-rerank <N>        f32 re-rank budget per requested result under
                          --ann-quantize                      [default: 4]
  --ann-full-rebuild      rebuild the HNSW index from scratch every publish
                          instead of grafting the previous epoch's graph and
                          re-inserting only drifted/new nodes
  --ann-drift-threshold <X>
                          L2 drift (between normalized vectors) above which
                          an incremental publish re-inserts a node
                                                              [default: 0.05]

SERVING (wire protocol):
  --serve <ADDR>          after training/recovery, serve vector / cosine /
                          top_k / top_k_batch / metrics / epoch over a
                          length-prefixed binary protocol until stdin closes.
                          ADDR is host:port, or unix:<path> for a Unix socket
  --serve-max-inflight <N>
                          data-plane admission bound; excess requests get a
                          typed Overloaded reply              [default: 64]

OUTPUT:
  --output <FILE>         embeddings in word2vec text format (required unless
                          --serve is given)
  --metrics-json <FILE>   dump the engine telemetry snapshot (counters, gauges
                          and latency quantiles for the ingest, engine, query
                          and serving planes) as JSON after the run
  --help                  print this help
";

struct Args {
    map: std::collections::HashMap<String, String>,
}

impl Args {
    fn parse() -> Result<Self, UniNetError> {
        let mut map = std::collections::HashMap::new();
        let mut iter = std::env::args().skip(1).peekable();
        while let Some(arg) = iter.next() {
            if arg == "--help" || arg == "-h" {
                map.insert("help".to_string(), "1".to_string());
                continue;
            }
            if let Some(flag) = [
                "directed-updates",
                "incremental-train",
                "allow-churn",
                "ann",
                "ann-quantize",
                "ann-full-rebuild",
                "recover",
            ]
            .iter()
            .find(|f| arg == format!("--{f}"))
            {
                map.insert(flag.to_string(), "1".to_string());
                continue;
            }
            let Some(key) = arg.strip_prefix("--") else {
                return Err(UniNetError::invalid_argument(
                    arg.clone(),
                    "unexpected positional argument (flags start with --)",
                ));
            };
            let value = iter.next().ok_or_else(|| {
                UniNetError::invalid_argument(key.to_string(), "the flag expects a value")
            })?;
            map.insert(key.to_string(), value);
        }
        Ok(Args { map })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, UniNetError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                UniNetError::invalid_argument(
                    key.to_string(),
                    format!(
                        "cannot parse {v:?} as {}",
                        std::any::type_name::<T>()
                            .rsplit("::")
                            .next()
                            .unwrap_or("number")
                    ),
                )
            }),
        }
    }
}

/// Builds the synthetic graph; `--input` files are loaded by the engine
/// builder itself so their errors carry file context.
fn build_graph(args: &Args) -> Result<Graph, UniNetError> {
    let nodes: usize = args.parse_or("nodes", 10_000)?;
    let mean_degree: f64 = args.parse_or("mean-degree", 10.0)?;
    let seed: u64 = args.parse_or("seed", 42u64)?;
    match args.get("synthetic").unwrap_or("rmat") {
        "ba" => Ok(barabasi_albert(
            nodes,
            (mean_degree / 2.0).max(1.0) as usize,
            true,
            seed,
        )),
        "rmat" => Ok(rmat(&RmatConfig {
            num_nodes: nodes,
            num_edges: ((nodes as f64 * mean_degree) / 2.0) as usize,
            weighted: true,
            seed,
            ..Default::default()
        })),
        other => Err(UniNetError::invalid_argument(
            "synthetic",
            format!("unknown generator {other:?} (expected rmat or ba)"),
        )),
    }
}

fn build_spec(args: &Args) -> Result<ModelSpec, UniNetError> {
    let p: f32 = args.parse_or("p", 1.0f32)?;
    let q: f32 = args.parse_or("q", 1.0f32)?;
    match args.get("model").unwrap_or("deepwalk") {
        "deepwalk" => Ok(ModelSpec::DeepWalk),
        "node2vec" => Ok(ModelSpec::Node2Vec { p, q }),
        "edge2vec" => Ok(ModelSpec::Edge2Vec { p, q }),
        "fairwalk" => Ok(ModelSpec::FairWalk { p, q }),
        "metapath2vec" => {
            let metapath: Vec<u16> = args
                .get("metapath")
                .unwrap_or("0,1,0")
                .split(',')
                .map(|t| {
                    t.trim().parse().map_err(|_| {
                        UniNetError::invalid_argument(
                            "metapath",
                            format!("bad node-type entry {t:?} (expected a small integer)"),
                        )
                    })
                })
                .collect::<Result<_, _>>()?;
            Ok(ModelSpec::MetaPath2Vec { metapath })
        }
        other => Err(UniNetError::invalid_argument(
            "model",
            format!(
                "unknown model {other:?} (expected deepwalk, node2vec, metapath2vec, \
                 edge2vec or fairwalk)"
            ),
        )),
    }
}

fn build_sampler(args: &Args) -> Result<EdgeSamplerKind, UniNetError> {
    Ok(match args.get("sampler").unwrap_or("mh-weight") {
        "mh-weight" => EdgeSamplerKind::MetropolisHastings(InitStrategy::high_weight_exact()),
        "mh-random" => EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
        "mh-burnin" => {
            EdgeSamplerKind::MetropolisHastings(InitStrategy::BurnIn { iterations: 100 })
        }
        "alias" => EdgeSamplerKind::Alias,
        "direct" => EdgeSamplerKind::Direct,
        "rejection" => EdgeSamplerKind::Rejection,
        "knightking" => EdgeSamplerKind::KnightKing,
        "memory-aware" => EdgeSamplerKind::MemoryAware,
        other => {
            return Err(UniNetError::invalid_argument(
                "sampler",
                format!("unknown sampler {other:?}"),
            ))
        }
    })
}

fn parse_fsync(args: &Args) -> Result<Option<FsyncPolicy>, UniNetError> {
    match args.get("wal-fsync") {
        None => Ok(None),
        Some("always") => Ok(Some(FsyncPolicy::Always)),
        Some("never") => Ok(Some(FsyncPolicy::Never)),
        Some(n) => match n.parse::<u32>() {
            Ok(every) if every > 0 => Ok(Some(FsyncPolicy::EveryN(every))),
            _ => Err(UniNetError::invalid_argument(
                "wal-fsync",
                format!("expected always, never or a positive integer, got {n:?}"),
            )),
        },
    }
}

/// Validates the CLI-level flag combinations around durability and serving:
/// typed errors, no panics.
fn validate(args: &Args) -> Result<(), UniNetError> {
    if args.get("recover").is_some() {
        if args.get("wal-dir").is_none() {
            return Err(UniNetError::invalid_argument(
                "recover",
                "requires --wal-dir <DIR> pointing at the log to recover from",
            ));
        }
        if args.get("input").is_some() {
            return Err(UniNetError::invalid_argument(
                "recover",
                "conflicts with --input; the graph is rebuilt from the WAL directory",
            ));
        }
    }
    if let Some(dir) = args.get("wal-dir") {
        // Surface an unusable directory as a CLI error before any training
        // work starts; the engine builder re-probes as a backstop.
        let path = std::path::Path::new(dir);
        std::fs::create_dir_all(path).map_err(|e| {
            UniNetError::invalid_argument("wal-dir", format!("cannot create {dir:?}: {e}"))
        })?;
        let probe = path.join(".uninet-write-probe");
        std::fs::write(&probe, b"probe")
            .and_then(|()| std::fs::remove_file(&probe))
            .map_err(|e| {
                UniNetError::invalid_argument("wal-dir", format!("{dir:?} is not writable: {e}"))
            })?;
    }
    if args.get("output").is_none() && args.get("serve").is_none() {
        return Err(UniNetError::invalid_argument(
            "output",
            "the flag is required unless --serve is given (see --help)",
        ));
    }
    if args.get("allow-churn").is_none() {
        for flag in ["cold-start-burn-in", "cold-start-boost"] {
            if args.get(flag).is_some() {
                return Err(UniNetError::invalid_argument(
                    flag.to_string(),
                    "cold-start knobs require --allow-churn (the closed-world \
                     stream has no arrivals to burn in)",
                ));
            }
        }
    }
    Ok(())
}

fn build_engine(args: &Args) -> Result<Engine, UniNetError> {
    let mut builder: EngineBuilder = Engine::builder()
        .model(build_spec(args)?)
        .num_walks(args.parse_or("num-walks", 10usize)?)
        .walk_length(args.parse_or("walk-length", 80usize)?)
        .threads(args.parse_or("threads", 16usize)?)
        .seed(args.parse_or("seed", 42u64)?)
        .sampler(build_sampler(args)?)
        .dim(args.parse_or("dim", 128usize)?)
        .epochs(args.parse_or("epochs", 1usize)?)
        .update_batch_size(args.parse_or("update-batch-size", 256usize)?)
        .compaction_threshold(args.parse_or("compaction-threshold", 1024usize)?)
        .symmetric_updates(args.get("directed-updates").is_none())
        // 0 = follow --threads, so ingestion, maintenance and walk refresh
        // honor the same worker count as walk generation.
        .ingest_threads(args.parse_or("ingest-threads", 0usize)?)
        .queue_capacity(args.parse_or("queue-capacity", 8usize)?)
        .incremental_train(args.get("incremental-train").is_some())
        .allow_churn(args.get("allow-churn").is_some())
        .cold_start_burn_in(args.parse_or("cold-start-burn-in", 2usize)?)
        .cold_start_boost(args.parse_or("cold-start-boost", 2.0f32)?)
        .ann_index(args.get("ann").is_some())
        .ann_m(args.parse_or("ann-m", 16usize)?)
        .ann_ef_construction(args.parse_or("ann-ef-construction", 100usize)?)
        .ann_ef_search(args.parse_or("ann-ef-search", 64usize)?)
        .ann_quantize(args.get("ann-quantize").is_some())
        .ann_rerank(args.parse_or("ann-rerank", 4usize)?)
        .ann_incremental(args.get("ann-full-rebuild").is_none())
        .ann_drift_threshold(args.parse_or("ann-drift-threshold", 0.05f32)?);
    if let Some(dir) = args.get("wal-dir") {
        if args.get("recover").is_some() {
            builder = builder.recover(dir);
        } else {
            builder = builder.wal(dir);
        }
        if args.get("snapshot-every").is_some() {
            builder = builder.snapshot_every(args.parse_or("snapshot-every", 0usize)?);
        }
        if let Some(policy) = parse_fsync(args)? {
            builder = builder.wal_fsync(policy);
        }
    } else if args.get("snapshot-every").is_some() || args.get("wal-fsync").is_some() {
        return Err(UniNetError::invalid_argument(
            "snapshot-every",
            "durability flags require --wal-dir <DIR>",
        ));
    }
    if args.get("recover").is_none() {
        builder = match args.get("input") {
            Some(path) => builder.graph_from_edge_list(path),
            None => builder.graph(build_graph(args)?),
        };
    }
    builder.build()
}

fn run() -> Result<(), UniNetError> {
    let args = Args::parse()?;
    if args.get("help").is_some() {
        print!("{HELP}");
        return Ok(());
    }
    validate(&args)?;

    let engine = build_engine(&args)?;
    eprintln!(
        "graph: {} nodes; model: {}; sampler: {:?}",
        engine.num_nodes(),
        engine.spec().name(),
        engine.config().walk.sampler,
    );
    if engine.streaming_config().ann_index {
        let s = engine.streaming_config();
        eprintln!(
            "query service: HNSW ANN per snapshot (M={}, ef_construction={}, ef_search={}, \
             {} publish, {} scoring, kernels={})",
            s.ann_m,
            s.ann_ef_construction,
            s.ann_ef_search,
            if s.ann_incremental {
                "incremental"
            } else {
                "full-rebuild"
            },
            if s.ann_quantize {
                "int8+f32-rerank"
            } else {
                "f32"
            },
            uninet_core::kernels::backend_name(),
        );
    }
    let mut recovered_ready = false;
    if let Some(summary) = engine.recovery() {
        recovered_ready = summary.restored_embeddings;
        eprintln!(
            "recovery: epoch {} restored in {:.1} ms (wal seq {}, {} batches / {} mutations \
             replayed, {} torn bytes truncated, {} corrupt snapshots skipped, embeddings {})",
            summary.epoch,
            summary.recovery_time.as_secs_f64() * 1e3,
            summary.last_wal_seq,
            summary.replayed_batches,
            summary.replayed_mutations,
            summary.truncated_tail_bytes,
            summary.snapshots_skipped,
            if summary.restored_embeddings {
                "restored"
            } else {
                "absent (will retrain)"
            },
        );
        if let Some((nodes, links)) = engine.snapshot().ann().map(|index| index.graph_size()) {
            eprintln!(
                "recovery: index {} ({nodes} nodes, {links} links)",
                if summary.restored_index {
                    "restored"
                } else {
                    "rebuilt"
                },
            );
        }
    }

    if let Some(updates_path) = args.get("updates") {
        // Under --allow-churn the stream is validated against the id
        // lifecycle up front (duplicate arrivals, retirements of unknown
        // ids, edge ops naming retired endpoints are typed errors with
        // line context); the closed-world reader stays lenient and lets
        // the engine reject any node op it encounters.
        let mutations = if args.get("allow-churn").is_some() {
            read_update_stream_validated_file(updates_path, engine.num_nodes())?
        } else {
            read_update_stream_file(updates_path)?
        };
        let streaming: &StreamingConfig = engine.streaming_config();
        eprintln!(
            "streaming mode: {} mutations in batches of {} (compaction threshold {}, \
             {} ingest threads, queue capacity {}, {} training)",
            mutations.len(),
            streaming.batch_size,
            streaming.compaction_threshold,
            if streaming.ingest_threads == 0 {
                engine.config().walk.num_threads
            } else {
                streaming.ingest_threads
            },
            streaming.queue_capacity,
            if streaming.incremental_train {
                "incremental"
            } else {
                "full-retrain"
            },
        );
        let outcome = engine.stream_blocking(mutations)?;
        let report = &outcome.report;
        eprintln!(
            "updates: {} weight + {} topology applied, {} rejected over {} batches \
             ({:.0} updates/s, {} compactions)",
            report.weight_mutations,
            report.topology_mutations,
            report.rejected_mutations,
            report.batches,
            report.update_throughput,
            report.compactions,
        );
        eprintln!(
            "maintenance: {} states rebuilt ({} bytes), {} M-H chains preserved, {} reset; \
             refresh: {} walks regenerated; queue: peak depth {}, {:.1} ms back-pressure",
            report.maintenance.states_rebuilt,
            report.maintenance.bytes_rebuilt,
            report.maintenance.chains_preserved,
            report.maintenance.chains_reset,
            report.refresh.walks_refreshed,
            report.queue.peak_depth,
            report.queue.producer_wait.as_secs_f64() * 1e3,
        );
        if report.queue.stalls > 0 {
            eprintln!(
                "back-pressure: producer stalled {} times waiting for queue slots \
                 (raise --queue-capacity or --ingest-threads to absorb bursts)",
                report.queue.stalls,
            );
        }
        if report.arrivals > 0 || report.retirements > 0 {
            eprintln!(
                "open world: {} arrivals ({} cold-started), {} retirements; \
                 universe now {} rows",
                report.arrivals,
                report.cold_starts,
                report.retirements,
                engine.snapshot().num_nodes(),
            );
        }
        if report.incremental_passes > 0 {
            eprintln!(
                "incremental training: {} passes over {} regenerated walks \
                 ({} snapshots served)",
                report.incremental_passes,
                report.incremental_walks_trained,
                report.snapshots_published,
            );
        }
        if let Some(durability) = &report.durability {
            eprintln!(
                "durability: {} batches logged ({} WAL bytes, last seq {}), {} snapshots{}",
                durability.batches_logged,
                durability.wal_bytes,
                durability.last_wal_seq,
                durability.snapshots_written,
                match &durability.wal_error {
                    Some(e) => format!("; DEGRADED: {e}"),
                    None => String::new(),
                },
            );
        }
        eprintln!(
            "walks: {} sequences, {} tokens; timing: {}",
            outcome.result.corpus.num_walks(),
            outcome.result.corpus.total_tokens(),
            outcome.result.timing,
        );
    } else if recovered_ready {
        eprintln!(
            "serving the recovered state as-is (epoch {}); pass --updates to keep streaming",
            engine.snapshot().epoch(),
        );
    } else {
        let report = engine.train()?;
        eprintln!(
            "walks: {} sequences, {} tokens; timing: {}",
            report.corpus.num_walks(),
            report.corpus.total_tokens(),
            report.timing,
        );
    }

    if let Some(output) = args.get("output") {
        save_embeddings(engine.snapshot().embeddings(), output)?;
        eprintln!("embeddings written to {output}");
    }

    if let Some(spec) = args.get("serve") {
        if engine.store().epoch() == 0 {
            return Err(UniNetError::invalid_argument(
                "serve",
                "the engine has no published embeddings to serve; train, stream or \
                 recover a state that includes embeddings first",
            ));
        }
        let addr = ServeAddr::parse(spec);
        let config = ServerConfig {
            max_inflight: args.parse_or("serve-max-inflight", 64usize)?,
        };
        let server = serve(&engine, &addr, config).map_err(|e| {
            UniNetError::invalid_argument("serve", format!("cannot bind {addr}: {e}"))
        })?;
        eprintln!(
            "serving on {} (epoch {}); close stdin or send EOF to stop",
            server.addr(),
            engine.store().epoch(),
        );
        // Block until the operator closes stdin (or the process is killed —
        // the WAL makes that survivable).
        let mut drain = [0u8; 4096];
        let mut stdin = std::io::stdin().lock();
        while matches!(stdin.read(&mut drain), Ok(n) if n > 0) {}
        eprintln!("stdin closed; shutting down the server");
        server.shutdown();
    }

    if let Some(path) = args.get("metrics-json") {
        std::fs::write(path, engine.metrics().to_json())?;
        eprintln!("telemetry snapshot written to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}
