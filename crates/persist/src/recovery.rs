//! Crash recovery: newest valid snapshot + WAL suffix replay.
//!
//! Recovery is the inverse of the durable write path. It loads the newest
//! snapshot whose checksum validates (falling back to older ones), truncates
//! any torn tail off the WAL, then replays exactly the records with
//! `seq > snapshot.wal_seq` through a [`DynamicGraph`] overlay — the same
//! apply semantics the live ingest path uses — and compacts the result.
//!
//! The recovered state therefore equals the state a process that never
//! crashed would have reached after applying the same durable prefix: the
//! property the `restart == no-restart` proptest pins down.

use std::path::{Path, PathBuf};

use uninet_dyngraph::DynamicGraph;
use uninet_embedding::Embeddings;
use uninet_graph::Graph;

use crate::snapshot::{latest_valid_snapshot, SamplerState};
use crate::wal::{read_wal, wal_path};
use crate::PersistError;

/// Everything recovered from a WAL directory.
#[derive(Debug)]
pub struct RecoveredState {
    /// The graph after replaying the durable WAL suffix onto the snapshot.
    pub graph: Graph,
    /// The last published embedding matrix, when the snapshot carried one.
    pub embeddings: Option<Embeddings>,
    /// The exported graph of the index that was serving `embeddings` when
    /// the snapshot was cut (`None` for v1/v2 snapshots and for sessions
    /// without an index). It predates the replayed WAL suffix: node ops in
    /// that suffix show in `live`, not here.
    pub index: Option<Vec<u8>>,
    /// Open-world live mask over the recovered graph's rows (`None` = fully
    /// live). Reflects the snapshot's mask plus every node op replayed from
    /// the WAL suffix, so retired ids stay unreachable across a restart.
    pub live: Option<Vec<bool>>,
    /// Embedding-store epoch at the time of the recovered snapshot.
    pub epoch: u64,
    /// Sampler strategy + seed to rebuild chains deterministically.
    pub sampler: SamplerState,
    /// Whether updates were applied symmetrically (undirected).
    pub symmetric: bool,
    /// Sequence number of the last durable WAL record folded into `graph`.
    pub last_wal_seq: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed_batches: usize,
    /// Individual mutations replayed.
    pub replayed_mutations: usize,
    /// Bytes of torn WAL tail truncated during recovery.
    pub truncated_tail_bytes: u64,
    /// Snapshot file the recovery started from.
    pub snapshot_path: PathBuf,
    /// Newer snapshot files skipped because they failed validation.
    pub snapshots_skipped: usize,
}

/// Recovers engine state from a WAL directory.
///
/// Fails with [`PersistError::NoState`] when the directory holds no valid
/// snapshot (the durable write path always writes an initial snapshot before
/// the first WAL append, so a bare WAL is unrecoverable by construction) and
/// with [`PersistError::Corrupt`] when the WAL is damaged anywhere other
/// than a torn tail.
pub fn recover(dir: &Path) -> Result<RecoveredState, PersistError> {
    let loaded = latest_valid_snapshot(dir)?.ok_or_else(|| PersistError::NoState {
        dir: dir.to_path_buf(),
    })?;
    let snap = loaded.snapshot;

    let path = wal_path(dir);
    let scan = read_wal(&path)?;
    if scan.torn_bytes > 0 {
        // Truncate the torn tail so subsequent appends continue cleanly.
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| PersistError::Io {
                path: path.clone(),
                source: e,
            })?;
        f.set_len(scan.valid_len).map_err(|e| PersistError::Io {
            path: path.clone(),
            source: e,
        })?;
        let _ = f.sync_all();
    }

    let mut dg = match snap.live {
        Some(live) => DynamicGraph::with_universe(snap.graph, snap.symmetric, live),
        None => DynamicGraph::new(snap.graph, snap.symmetric),
    };
    let mut replayed_batches = 0;
    let mut replayed_mutations = 0;
    let mut last_wal_seq = snap.wal_seq;
    for (seq, batch) in &scan.records {
        if *seq <= snap.wal_seq {
            continue;
        }
        for m in batch.mutations() {
            dg.apply(*m);
        }
        replayed_batches += 1;
        replayed_mutations += batch.len();
        last_wal_seq = *seq;
    }
    // Records the snapshot already covers may legitimately be missing from a
    // rotated log, but a gap *after* the snapshot means lost acknowledged
    // writes.
    if scan.last_seq > snap.wal_seq
        && scan
            .records
            .first()
            .is_some_and(|(s, _)| *s > snap.wal_seq + 1)
    {
        return Err(PersistError::Corrupt {
            path,
            offset: 0,
            reason: format!(
                "WAL starts at seq {} but snapshot covers only up to {}",
                scan.records.first().map(|(s, _)| *s).unwrap_or(0),
                snap.wal_seq
            ),
        });
    }

    // An all-live mask is canonicalized to `None` so closed-world recoveries
    // keep their original shape.
    let live_mask = dg.live_mask().to_vec();
    let live = live_mask.iter().any(|&l| !l).then_some(live_mask);

    Ok(RecoveredState {
        graph: dg.into_base(),
        embeddings: snap.embeddings,
        index: loaded.index,
        live,
        epoch: snap.epoch,
        sampler: snap.sampler,
        symmetric: snap.symmetric,
        last_wal_seq,
        replayed_batches,
        replayed_mutations,
        truncated_tail_bytes: scan.torn_bytes,
        snapshot_path: loaded.path,
        snapshots_skipped: loaded.skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{write_snapshot, Snapshot};
    use crate::wal::{FsyncPolicy, WalWriter};
    use uninet_dyngraph::UpdateBatch;
    use uninet_graph::GraphBuilder;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("uninet-rec-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn base_graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.set_num_nodes(5);
        b.symmetric(true);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(2, 3, 1.0);
        b.build()
    }

    #[test]
    fn empty_dir_is_no_state() {
        let dir = tmp_dir("nostate");
        assert!(matches!(recover(&dir), Err(PersistError::NoState { .. })));
    }

    #[test]
    fn snapshot_plus_wal_suffix_replays() {
        let dir = tmp_dir("replay");
        let graph = base_graph();
        write_snapshot(
            &dir,
            &Snapshot {
                wal_seq: 0,
                epoch: 5,
                symmetric: true,
                sampler: SamplerState::default(),
                graph: graph.clone(),
                embeddings: None,
                live: None,
            },
        )
        .unwrap();
        let mut w = WalWriter::open(&dir, FsyncPolicy::Always).unwrap();
        let mut b = UpdateBatch::new();
        b.add_edge(3, 4, 2.0);
        w.append(&b).unwrap();
        let mut b2 = UpdateBatch::new();
        b2.remove_edge(0, 1);
        w.append(&b2).unwrap();
        drop(w);

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.epoch, 5);
        assert_eq!(rec.last_wal_seq, 2);
        assert_eq!(rec.replayed_batches, 2);
        assert_eq!(rec.replayed_mutations, 2);
        assert!(rec.graph.has_edge(3, 4), "replayed insert");
        assert!(rec.graph.has_edge(4, 3), "symmetric mirror");
        assert!(!rec.graph.has_edge(0, 1), "replayed removal");
        assert!(!rec.graph.has_edge(1, 0), "symmetric removal");
    }

    #[test]
    fn newer_snapshot_short_circuits_replay() {
        let dir = tmp_dir("newer");
        let mut w = WalWriter::open(&dir, FsyncPolicy::Always).unwrap();
        let mut b = UpdateBatch::new();
        b.add_edge(0, 4, 9.0);
        w.append(&b).unwrap();
        drop(w);
        // Snapshot taken AFTER that record: replay must skip it.
        let mut dg = DynamicGraph::new(base_graph(), true);
        dg.apply(uninet_dyngraph::GraphMutation::AddEdge {
            src: 0,
            dst: 4,
            weight: 9.0,
        });
        write_snapshot(
            &dir,
            &Snapshot {
                wal_seq: 1,
                epoch: 2,
                symmetric: true,
                sampler: SamplerState::default(),
                graph: dg.into_base(),
                embeddings: None,
                live: None,
            },
        )
        .unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.replayed_batches, 0);
        assert_eq!(rec.last_wal_seq, 1);
        assert!(rec.graph.has_edge(0, 4));
    }

    #[test]
    fn node_ops_replay_into_the_live_mask() {
        let dir = tmp_dir("churn");
        write_snapshot(
            &dir,
            &Snapshot {
                wal_seq: 0,
                epoch: 1,
                symmetric: true,
                sampler: SamplerState::default(),
                graph: base_graph(),
                embeddings: None,
                live: None,
            },
        )
        .unwrap();
        let mut w = WalWriter::open(&dir, FsyncPolicy::Always).unwrap();
        // Node 5 arrives and connects; node 1 retires.
        let mut b = UpdateBatch::new();
        b.add_node(5);
        b.add_edge(5, 0, 2.0);
        b.remove_node(1);
        w.append(&b).unwrap();
        drop(w);

        let rec = recover(&dir).unwrap();
        assert_eq!(rec.graph.num_nodes(), 6, "universe grew to include 5");
        assert!(rec.graph.has_edge(5, 0) && rec.graph.has_edge(0, 5));
        assert_eq!(rec.graph.degree(1), 0, "retired node lost its edges");
        let live = rec.live.expect("churn produces a live mask");
        assert_eq!(live, vec![true, false, true, true, true, true]);

        assert_eq!(rec.index, None, "the snapshot had no index section");

        // Recovering a dir whose snapshot carries the mask round-trips it,
        // and hands the index section through untouched.
        crate::snapshot::write_snapshot_with_index(
            &dir,
            &Snapshot {
                wal_seq: 1,
                epoch: 2,
                symmetric: true,
                sampler: SamplerState::default(),
                graph: rec.graph.clone(),
                embeddings: None,
                live: Some(live.clone()),
            },
            Some(b"index bytes"),
        )
        .unwrap();
        let rec2 = recover(&dir).unwrap();
        assert_eq!(rec2.live, Some(live));
        assert_eq!(rec2.replayed_batches, 0);
        assert_eq!(rec2.index.as_deref(), Some(b"index bytes".as_slice()));
    }
}
