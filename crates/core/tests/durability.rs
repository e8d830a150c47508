//! Engine-level durability: a durable engine's state survives process death.
//!
//! The persist crate's property tests pin down `restart == no-restart` at
//! the WAL/snapshot layer; these tests pin it down at the `Engine` facade —
//! stream with a WAL, throw the engine away (the moral equivalent of
//! `kill -9`), rebuild via [`EngineBuilder::recover`] and demand the same
//! serving state — plus the builder-validation surface around it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use uninet_core::{
    Engine, EngineBuilder, FsyncPolicy, GraphMutation, ModelSpec, QueryMode, UniNetError,
};
use uninet_graph::generators::{rmat, RmatConfig};
use uninet_graph::Graph;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "uninet-engine-dur-{}-{}-{tag}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_graph() -> Graph {
    rmat(&RmatConfig {
        num_nodes: 120,
        num_edges: 900,
        weighted: true,
        seed: 19,
        ..Default::default()
    })
}

fn mutation_stream(graph: &Graph, count: usize) -> Vec<GraphMutation> {
    let n = graph.num_nodes() as u32;
    (0..count as u32)
        .map(|i| match i % 3 {
            0 => GraphMutation::AddEdge {
                src: i % n,
                dst: (i * 7 + 1) % n,
                weight: 1.0 + (i % 5) as f32 * 0.5,
            },
            1 => GraphMutation::UpdateWeight {
                src: i % n,
                dst: (i * 7 + 1) % n,
                weight: 2.0,
            },
            _ => GraphMutation::RemoveEdge {
                src: (i * 3) % n,
                dst: (i * 11 + 2) % n,
            },
        })
        .collect()
}

fn durable_engine(dir: &PathBuf) -> Engine {
    Engine::builder()
        .graph(test_graph())
        .model(ModelSpec::DeepWalk)
        .num_walks(1)
        .walk_length(8)
        .dim(16)
        .threads(2)
        .seed(11)
        .incremental_train(true)
        .update_batch_size(16)
        .wal(dir)
        .snapshot_every(4)
        .wal_fsync(FsyncPolicy::Never)
        .build()
        .expect("valid durable configuration")
}

#[test]
fn recovered_engine_serves_the_pre_crash_state() {
    let dir = wal_dir("restart");
    let engine = durable_engine(&dir);
    let outcome = engine
        .stream_blocking(mutation_stream(&test_graph(), 120))
        .expect("stream");
    let durability = outcome
        .report
        .durability
        .as_ref()
        .expect("durable session must report durability accounting");
    assert!(durability.wal_error.is_none(), "{:?}", durability.wal_error);
    assert_eq!(durability.batches_logged, outcome.report.batches);
    assert!(
        durability.snapshots_written >= 2,
        "initial + final at minimum, got {}",
        durability.snapshots_written
    );
    assert!(durability.wal_bytes > 0);

    let epoch = outcome.epoch;
    let reference: Vec<Option<Vec<f32>>> = (0..engine.num_nodes() as u32)
        .map(|v| engine.vector(v))
        .collect();
    drop(engine); // the crash: nothing survives but the WAL directory

    let recovered = Engine::builder()
        .model(ModelSpec::DeepWalk)
        .dim(16)
        .seed(11)
        .recover(&dir)
        .build()
        .expect("recovery");
    let summary = recovered.recovery().expect("recovery summary");
    assert_eq!(summary.epoch, epoch);
    assert!(summary.restored_embeddings);
    assert_eq!(
        summary.replayed_batches, 0,
        "a clean shutdown ends on a snapshot, nothing to replay"
    );
    assert_eq!(recovered.snapshot().epoch(), epoch);
    for (v, expected) in reference.iter().enumerate() {
        assert_eq!(
            &recovered.vector(v as u32),
            expected,
            "vector of node {v} must survive the restart bit-for-bit"
        );
    }

    // The recovered engine is a full engine: it can keep streaming onto the
    // same WAL, and a second recovery then reflects the newer state.
    let outcome2 = recovered
        .stream_blocking(mutation_stream(&test_graph(), 40))
        .expect("stream after recovery");
    assert!(outcome2.report.durability.is_some());
    let epoch2 = outcome2.epoch;
    drop(recovered);
    let recovered2 = Engine::builder()
        .recover(&dir)
        .build()
        .expect("second recovery");
    assert_eq!(recovered2.snapshot().epoch(), epoch2);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Ids the churn stream retires and the ids it adds.
const RETIRED: [u32; 3] = [5, 17, 40];
const ARRIVALS: u32 = 4;

/// Edge churn, then arrivals wired into the graph and retirements, then more
/// edge churn among ids that stayed.
fn churn_stream(graph: &Graph) -> Vec<GraphMutation> {
    let n = graph.num_nodes() as u32;
    let mut out = mutation_stream(graph, 60);
    for v in n..n + ARRIVALS {
        out.push(GraphMutation::AddNode { node: v });
        out.push(GraphMutation::AddEdge {
            src: v,
            dst: v % 7,
            weight: 1.0,
        });
        out.push(GraphMutation::AddEdge {
            src: v,
            dst: 50 + v % 11,
            weight: 2.0,
        });
    }
    out.extend(RETIRED.map(|node| GraphMutation::RemoveNode { node }));
    out.extend(mutation_stream(graph, 45).into_iter().filter(|m| {
        !m.is_node_op() && {
            let (src, dst) = m.endpoints();
            !RETIRED.contains(&src) && !RETIRED.contains(&dst)
        }
    }));
    out
}

/// The durable configuration of these tests with churn and an ANN index,
/// short of its thread count.
fn ann_builder(snapshot_every: usize) -> EngineBuilder {
    Engine::builder()
        .model(ModelSpec::DeepWalk)
        .num_walks(1)
        .walk_length(8)
        .dim(16)
        .seed(11)
        .incremental_train(true)
        .allow_churn(true)
        .ann_index(true)
        .ann_m(6)
        .ann_ef_construction(24)
        .update_batch_size(16)
        .snapshot_every(snapshot_every)
        .wal_fsync(FsyncPolicy::Never)
}

/// [`ann_builder`] on two threads; `graph` `None` recovers from `dir`
/// instead.
fn ann_engine(dir: &PathBuf, graph: Option<Graph>, snapshot_every: usize) -> Engine {
    let builder = ann_builder(snapshot_every).threads(2);
    match graph {
        Some(graph) => builder.graph(graph).wal(dir),
        None => builder.recover(dir),
    }
    .build()
    .expect("valid durable configuration")
}

/// What a reader can see of an engine: every vector, and every live node's
/// ANN answer down to the score bits.
type Served = (Vec<Option<Vec<f32>>>, Vec<Vec<(u32, u32)>>);

fn served(engine: &Engine) -> Served {
    let rows = engine.snapshot().num_nodes() as u32;
    let vectors = (0..rows).map(|v| engine.vector(v)).collect();
    let answers = (0..rows)
        .map(|v| {
            engine
                .top_k_mode(v, 8, QueryMode::Ann)
                .into_iter()
                .map(|(u, s)| (u, s.to_bits()))
                .collect()
        })
        .collect();
    (vectors, answers)
}

fn assert_retired_unreachable(engine: &Engine) {
    for v in RETIRED {
        assert_eq!(engine.vector(v), None, "retired id {v} served a vector");
        assert!(engine.top_k(v, 4).is_empty(), "retired id {v} answered");
    }
    for v in 0..engine.snapshot().num_nodes() as u32 {
        for mode in [QueryMode::Ann, QueryMode::Exact] {
            for (u, _) in engine.top_k_mode(v, 30, mode) {
                assert!(
                    !RETIRED.contains(&u),
                    "retired id {u} in {mode:?} top_k({v})"
                );
            }
        }
    }
}

/// A complete churn session in a fresh directory, and what it served.
fn churn_session(tag: &str, snapshot_every: usize) -> (PathBuf, u64, Served) {
    let dir = wal_dir(tag);
    let engine = ann_engine(&dir, Some(test_graph()), snapshot_every);
    let outcome = engine
        .stream_blocking(churn_stream(&test_graph()))
        .expect("stream");
    assert_eq!(outcome.report.arrivals, ARRIVALS as usize);
    assert_eq!(outcome.report.retirements, RETIRED.len());
    assert_retired_unreachable(&engine);
    let before = served(&engine);
    (dir, outcome.epoch, before)
}

#[test]
fn restart_answers_ann_queries_exactly_as_before() {
    let (dir, epoch, before) = churn_session("ann-restart", 4);
    let recovered = ann_engine(&dir, None, 4);
    let summary = recovered.recovery().expect("recovery summary");
    assert!(summary.restored_embeddings);
    assert!(
        summary.restored_index,
        "a clean shutdown's snapshot carries the index that was serving"
    );
    assert_eq!(summary.replayed_batches, 0);
    assert_eq!(recovered.snapshot().epoch(), epoch);
    // Same ids, same score bits, for every node — the pre-restart index was
    // grafted batch by batch, so a rebuilt one would answer differently.
    assert_eq!(served(&recovered), before);
    assert_retired_unreachable(&recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_index_built_on_one_thread_restores_on_two() {
    let dir = wal_dir("ann-threads");
    let writer = ann_builder(4)
        .threads(1)
        .graph(test_graph())
        .wal(&dir)
        .build()
        .expect("valid durable configuration");
    let epoch = writer
        .stream_blocking(churn_stream(&test_graph()))
        .expect("stream")
        .epoch;
    let before = served(&writer);
    drop(writer);
    let recovered = ann_builder(4)
        .threads(2)
        .recover(&dir)
        .build()
        .expect("recovery");
    assert!(
        recovered.recovery().unwrap().restored_index,
        "the thread count is not part of a graph's identity"
    );
    assert_eq!(recovered.snapshot().epoch(), epoch);
    assert_eq!(served(&recovered), before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_training_snapshots_carry_their_index_too() {
    let dir = wal_dir("ann-train");
    let engine = ann_engine(&dir, Some(test_graph()), 0);
    let epoch = engine.train().expect("engine is idle").epoch;
    let before = served(&engine);
    drop(engine);
    let recovered = ann_engine(&dir, None, 0);
    assert!(recovered.recovery().unwrap().restored_index);
    assert_eq!(recovered.snapshot().epoch(), epoch);
    assert_eq!(served(&recovered), before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_suffix_that_changes_the_universe_grafts_the_snapshot_index() {
    // Session-boundary snapshots only; losing the final one is a crash right
    // before it: the initial snapshot (whose index holds every original id)
    // plus the whole WAL, arrivals and retirements included.
    let (dir, _, _) = churn_session("ann-suffix", 0);
    let snapshots = uninet_persist::list_snapshots(&dir).unwrap();
    assert_eq!(snapshots.len(), 2, "initial + final");
    std::fs::remove_file(&snapshots[0]).unwrap();

    let recovered = ann_engine(&dir, None, 0);
    let summary = recovered.recovery().expect("recovery summary");
    assert!(summary.replayed_batches > 0);
    assert!(summary.restored_embeddings);
    assert!(
        !summary.restored_index,
        "the index predates the retirements: it is grafted, not installed as is"
    );
    assert_eq!(recovered.snapshot().epoch(), 1, "the initial model's epoch");
    let n = test_graph().num_nodes();
    assert_eq!(recovered.num_nodes(), n + ARRIVALS as usize);
    assert_eq!(
        recovered.snapshot().num_nodes(),
        n,
        "arrivals replayed from the WAL have no vector until the next session"
    );
    assert_eq!(recovered.vector(n as u32), None);
    assert!(recovered.snapshot().ann().is_some());
    assert_retired_unreachable(&recovered);
    let live = (0..n as u32).filter(|v| !RETIRED.contains(v)).count();
    assert_eq!(recovered.snapshot().live_count(), live);
    assert_eq!(recovered.top_k_mode(0, 8, QueryMode::Ann).len(), 8);

    // The recovered engine keeps streaming and a further restart is exact.
    let outcome = recovered
        .stream_blocking(mutation_stream(&test_graph(), 6))
        .expect("stream after a grafted recovery");
    let before = served(&recovered);
    drop(recovered);
    let again = ann_engine(&dir, None, 0);
    assert_eq!(again.snapshot().epoch(), outcome.epoch);
    assert!(again.recovery().unwrap().restored_index);
    assert_eq!(served(&again), before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_unusable_index_recovers_by_rebuilding() {
    let (dir, epoch, (vectors, _)) = churn_session("ann-fallbacks", 4);
    let check = |recovered: &Engine, what: &str| {
        let summary = recovered.recovery().expect("recovery summary");
        assert!(!summary.restored_index, "{what}");
        assert!(summary.restored_embeddings, "{what}");
        assert_eq!(recovered.snapshot().epoch(), epoch, "{what}");
        assert_eq!(
            served(recovered).0,
            vectors,
            "{what}: vectors must be byte-equal"
        );
        assert_retired_unreachable(recovered);
    };

    // An index built under another seed (the level hash differs).
    let other_seed = Engine::builder()
        .seed(12)
        .ann_index(true)
        .ann_m(6)
        .ann_ef_construction(24)
        .recover(&dir)
        .build()
        .expect("recovery");
    check(&other_seed, "different seed");
    assert!(
        other_seed.snapshot().ann().is_some(),
        "rebuilt under its own config"
    );
    // Another `m`: lists would overflow their cap.
    let other_m = Engine::builder()
        .seed(11)
        .ann_index(true)
        .ann_m(4)
        .ann_ef_construction(24)
        .recover(&dir)
        .build()
        .expect("recovery");
    check(&other_m, "different m");

    // An engine that serves exact scans has no use for the section.
    let exact = Engine::builder()
        .seed(11)
        .recover(&dir)
        .build()
        .expect("recovery");
    check(&exact, "no ann_index");
    assert!(exact.snapshot().ann().is_none());

    // A checksum-valid file whose index section is not a graph at all.
    let loaded = uninet_persist::latest_valid_snapshot(&dir)
        .unwrap()
        .unwrap();
    assert!(
        loaded.index.is_some(),
        "the session wrote a v3 index section"
    );
    uninet_persist::write_snapshot_with_index(&dir, &loaded.snapshot, Some(b"not a graph"))
        .unwrap();
    check(&ann_engine(&dir, None, 4), "garbage index section");

    // The same state as a file with no index section (what v2 held).
    uninet_persist::write_snapshot(&dir, &loaded.snapshot).unwrap();
    let reloaded = uninet_persist::latest_valid_snapshot(&dir)
        .unwrap()
        .unwrap();
    assert!(reloaded.index.is_none());
    check(&ann_engine(&dir, None, 4), "no index section");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_recovers_to_the_durable_prefix() {
    let dir = wal_dir("torn");
    let engine = durable_engine(&dir);
    engine
        .stream_blocking(mutation_stream(&test_graph(), 120))
        .expect("stream");
    drop(engine);

    // Simulate a mid-append crash: chop the WAL mid-record.
    let wal = uninet_persist::wal_path(&dir);
    let len = std::fs::metadata(&wal).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    let recovered = Engine::builder().recover(&dir).build().expect("recovery");
    let summary = recovered.recovery().expect("summary");
    assert!(
        summary.truncated_tail_bytes > 0,
        "the torn record must be truncated, not treated as corruption"
    );
    assert!(recovered.num_nodes() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persist_flags_without_a_wal_dir_are_rejected() {
    let err = Engine::builder()
        .graph(test_graph())
        .snapshot_every(8)
        .build()
        .unwrap_err();
    assert!(
        matches!(
            err,
            UniNetError::InvalidConfig {
                field: "persist.snapshot_every",
                ..
            }
        ),
        "{err}"
    );
    let err = Engine::builder()
        .graph(test_graph())
        .wal_fsync(FsyncPolicy::Never)
        .build()
        .unwrap_err();
    assert!(
        matches!(
            err,
            UniNetError::InvalidConfig {
                field: "persist.wal_fsync",
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn recover_conflicts_with_an_explicit_graph_source() {
    let dir = wal_dir("conflict");
    let err = Engine::builder()
        .graph(test_graph())
        .recover(&dir)
        .build()
        .unwrap_err();
    assert!(
        matches!(err, UniNetError::InvalidConfig { field: "graph", .. }),
        "{err}"
    );
}

#[test]
fn unwritable_wal_dir_is_a_build_error() {
    // A regular file where the directory should be: create_dir_all fails.
    let blocker =
        std::env::temp_dir().join(format!("uninet-engine-dur-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    let err = Engine::builder()
        .graph(test_graph())
        .wal(blocker.join("wal"))
        .build()
        .unwrap_err();
    assert!(
        matches!(
            err,
            UniNetError::InvalidConfig {
                field: "persist.wal_dir",
                ..
            }
        ),
        "{err}"
    );
    let _ = std::fs::remove_file(&blocker);
}

#[test]
fn recovering_an_empty_dir_reports_no_state() {
    let dir = wal_dir("empty");
    let err = Engine::builder().recover(&dir).build().unwrap_err();
    assert!(
        matches!(
            &err,
            UniNetError::Persist(uninet_persist::PersistError::NoState { .. })
        ),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
