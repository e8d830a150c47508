//! Durability wiring between the engine and the `uninet-persist` plane.
//!
//! The engine's durability contract is deliberately one-directional: the
//! live path never *depends* on the disk. Every applied [`UpdateBatch`] is
//! appended to the WAL before its effects become observable, and snapshots
//! are cut on a batch cadence, but a failing disk only degrades durability —
//! it never takes down ingestion. The first WAL or snapshot error disables
//! further persistence for the session, emits a single warning, and is
//! surfaced in the [`DurabilityReport`] so callers can see the run was not
//! fully durable.

use std::path::PathBuf;
use std::time::Duration;

use uninet_dyngraph::UpdateBatch;
use uninet_embedding::{EmbeddingStore, Embeddings};
use uninet_graph::Graph;
use uninet_persist::{
    write_snapshot_with_index, FsyncPolicy, PersistError, RecoveredState, SamplerState, Snapshot,
    WalWriter,
};

/// Engine-level durability options, set through
/// [`EngineBuilder::wal`](crate::EngineBuilder::wal) and friends.
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// Directory holding the WAL and its snapshots.
    pub wal_dir: PathBuf,
    /// Cut a snapshot every `n` applied batches during streaming
    /// (0 = only the session-start and session-end snapshots).
    pub snapshot_every: usize,
    /// When WAL appends reach the disk.
    pub fsync: FsyncPolicy,
}

impl PersistOptions {
    /// Durability rooted at `wal_dir` with the safe defaults: fsync on every
    /// append, snapshots only at session boundaries.
    pub fn new(wal_dir: impl Into<PathBuf>) -> Self {
        PersistOptions {
            wal_dir: wal_dir.into(),
            snapshot_every: 0,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// Durability accounting of one streaming session (in
/// [`StreamingReport::durability`](crate::StreamingReport)).
#[derive(Debug, Clone, Default)]
pub struct DurabilityReport {
    /// Batches appended to the WAL.
    pub batches_logged: usize,
    /// Bytes this session appended to the WAL.
    pub wal_bytes: u64,
    /// Highest WAL sequence number written.
    pub last_wal_seq: u64,
    /// Snapshots written (initial + periodic + final).
    pub snapshots_written: usize,
    /// Torn bytes truncated from the WAL tail when the session opened it.
    pub truncated_tail_bytes: u64,
    /// First persistence error, if the session degraded to non-durable.
    pub wal_error: Option<String>,
}

/// What [`EngineBuilder::recover`](crate::EngineBuilder::recover) rebuilt,
/// exposed via [`Engine::recovery`](crate::Engine::recovery).
#[derive(Debug, Clone)]
pub struct RecoverySummary {
    /// Embedding-store epoch restored from the chosen snapshot.
    pub epoch: u64,
    /// Highest durable WAL sequence number.
    pub last_wal_seq: u64,
    /// WAL batches replayed on top of the snapshot.
    pub replayed_batches: usize,
    /// Mutations inside those batches.
    pub replayed_mutations: usize,
    /// Torn bytes dropped from the WAL tail.
    pub truncated_tail_bytes: u64,
    /// Damaged snapshots skipped before one validated.
    pub snapshots_skipped: usize,
    /// Whether an embedding matrix was restored into the serving store.
    pub restored_embeddings: bool,
    /// Whether the serving index came out of the snapshot as it was, so the
    /// restart built nothing and answers ANN queries exactly as the process
    /// that wrote the snapshot did. `false` when the index was rebuilt (no
    /// index section, one the importer refused, a different
    /// `(m, ef_construction, seed)`), grafted onto a universe the WAL suffix
    /// changed, or not wanted (the engine serves exact scans only).
    pub restored_index: bool,
    /// Wall-clock time of the recovery (snapshot load + WAL replay).
    pub recovery_time: Duration,
}

impl RecoverySummary {
    pub(crate) fn from_state(state: &RecoveredState, recovery_time: Duration) -> Self {
        RecoverySummary {
            epoch: state.epoch,
            last_wal_seq: state.last_wal_seq,
            replayed_batches: state.replayed_batches,
            replayed_mutations: state.replayed_mutations,
            truncated_tail_bytes: state.truncated_tail_bytes,
            snapshots_skipped: state.snapshots_skipped,
            restored_embeddings: state.embeddings.is_some(),
            restored_index: false,
            recovery_time,
        }
    }
}

/// The per-session durability writer: owns the WAL handle and cuts
/// snapshots. Created by [`Engine::stream`](crate::Engine::stream) before
/// the session thread spawns (so open errors surface synchronously) and
/// driven from the consumer thread inside `run_streaming_session`.
pub(crate) struct SessionPersist {
    wal: WalWriter,
    dir: PathBuf,
    snapshot_every: usize,
    symmetric: bool,
    sampler: SamplerState,
    batches_since_snapshot: usize,
    report: DurabilityReport,
    degraded: bool,
}

impl SessionPersist {
    /// Opens (or resumes) the WAL under `opts.wal_dir`, truncating any torn
    /// tail a previous crash left behind.
    pub(crate) fn begin(
        opts: &PersistOptions,
        symmetric: bool,
        sampler: SamplerState,
    ) -> Result<Self, PersistError> {
        let wal = WalWriter::open(&opts.wal_dir, opts.fsync)?;
        let report = DurabilityReport {
            last_wal_seq: wal.last_seq(),
            truncated_tail_bytes: wal.truncated_tail(),
            ..DurabilityReport::default()
        };
        Ok(SessionPersist {
            wal,
            dir: opts.wal_dir.clone(),
            snapshot_every: opts.snapshot_every,
            symmetric,
            sampler,
            batches_since_snapshot: 0,
            report,
            degraded: false,
        })
    }

    /// Disables further persistence for this session. Warns once; the error
    /// is kept in the report so the caller can see the run degraded.
    fn degrade(&mut self, e: PersistError) {
        if !self.degraded {
            eprintln!("warning: durability degraded — disabling WAL/snapshot writes: {e}");
            self.report.wal_error = Some(e.to_string());
        }
        self.degraded = true;
    }

    /// Appends one batch to the WAL (called before the batch is applied).
    pub(crate) fn log_batch(&mut self, batch: &UpdateBatch) {
        if self.degraded {
            return;
        }
        match self.wal.append(batch) {
            Ok(seq) => {
                self.report.batches_logged += 1;
                self.report.last_wal_seq = seq;
                self.report.wal_bytes = self.wal.bytes_written();
                self.batches_since_snapshot += 1;
            }
            Err(e) => self.degrade(e),
        }
    }

    /// Whether the periodic snapshot cadence has elapsed.
    pub(crate) fn snapshot_due(&self) -> bool {
        !self.degraded
            && self.snapshot_every > 0
            && self.batches_since_snapshot >= self.snapshot_every
    }

    /// Cuts a snapshot of the given state, consistent with the WAL position
    /// of the last logged batch. The WAL is synced first so a snapshot never
    /// claims a `wal_seq` the log might lose. `live` is the open-world
    /// universe mask (`None` = fully live), persisted so retired ids stay
    /// retired across a crash.
    ///
    /// `serving` is the store these embeddings were published to. Its index
    /// goes into the snapshot when, and only when, its current snapshot is
    /// the epoch being written and holds exactly these vectors — anything
    /// else (a throttled publish, a foreign publisher) would persist a graph
    /// built for a different matrix. A snapshot without an index recovers by
    /// rebuilding one.
    pub(crate) fn write_state(
        &mut self,
        graph: Graph,
        embeddings: Option<Embeddings>,
        epoch: u64,
        live: Option<Vec<bool>>,
        serving: Option<&EmbeddingStore>,
    ) {
        if self.degraded {
            return;
        }
        if let Err(e) = self.wal.sync() {
            self.degrade(e);
            return;
        }
        let served = serving.map(|store| store.snapshot());
        let index = served
            .as_deref()
            .zip(embeddings.as_ref())
            .filter(|(served, embeddings)| {
                served.epoch() == epoch
                    && served.embeddings().dim() == embeddings.dim()
                    && served.embeddings().as_flat() == embeddings.as_flat()
            })
            .and_then(|(served, _)| served.ann())
            .map(|index| index.export_graph());
        let snap = Snapshot {
            wal_seq: self.wal.last_seq(),
            epoch,
            symmetric: self.symmetric,
            sampler: self.sampler,
            graph,
            embeddings,
            live,
        };
        match write_snapshot_with_index(&self.dir, &snap, index.as_deref()) {
            Ok(_) => {
                self.report.snapshots_written += 1;
                self.batches_since_snapshot = 0;
            }
            Err(e) => self.degrade(e),
        }
    }

    /// Final snapshot at end-of-stream; consumes the session and returns its
    /// accounting.
    pub(crate) fn finish(
        mut self,
        graph: &Graph,
        embeddings: &Embeddings,
        epoch: u64,
        live: Option<Vec<bool>>,
        serving: Option<&EmbeddingStore>,
    ) -> DurabilityReport {
        self.write_state(
            graph.clone(),
            Some(embeddings.clone()),
            epoch,
            live,
            serving,
        );
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uninet_persist::{latest_valid_snapshot, read_wal, wal_path};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("uninet-core-dur-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_graph() -> Graph {
        uninet_graph::generators::ring_with_chords(12, 0)
    }

    fn one_batch() -> UpdateBatch {
        let mut b = UpdateBatch::new();
        b.add_edge(0, 5, 1.5);
        b
    }

    #[test]
    fn session_logs_batches_and_cuts_final_snapshot() {
        let dir = tmp_dir("final-snap");
        let opts = PersistOptions::new(&dir);
        let mut p = SessionPersist::begin(&opts, true, SamplerState::default()).unwrap();
        p.write_state(tiny_graph(), None, 0, None, None);
        p.log_batch(&one_batch());
        p.log_batch(&one_batch());
        let emb = Embeddings::from_flat(2, vec![0.5; 24]);
        let report = p.finish(&tiny_graph(), &emb, 3, None, None);
        assert_eq!(report.batches_logged, 2);
        assert_eq!(report.last_wal_seq, 2);
        assert_eq!(report.snapshots_written, 2, "initial + final");
        assert!(report.wal_error.is_none());
        assert!(report.wal_bytes > 0);

        let scan = read_wal(&wal_path(&dir)).unwrap();
        assert_eq!(scan.last_seq, 2);
        let loaded = latest_valid_snapshot(&dir).unwrap().unwrap();
        assert_eq!(loaded.snapshot.wal_seq, 2);
        assert_eq!(loaded.snapshot.epoch, 3);
        assert!(loaded.snapshot.embeddings.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_cadence_counts_logged_batches() {
        let dir = tmp_dir("cadence");
        let opts = PersistOptions {
            snapshot_every: 2,
            ..PersistOptions::new(&dir)
        };
        let mut p = SessionPersist::begin(&opts, true, SamplerState::default()).unwrap();
        assert!(!p.snapshot_due(), "cadence starts unelapsed");
        p.log_batch(&one_batch());
        assert!(!p.snapshot_due());
        p.log_batch(&one_batch());
        assert!(p.snapshot_due());
        p.write_state(tiny_graph(), None, 1, None, None);
        assert!(!p.snapshot_due(), "writing a snapshot resets the cadence");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_failure_degrades_instead_of_panicking() {
        let dir = tmp_dir("degrade");
        let opts = PersistOptions::new(&dir);
        let mut p = SessionPersist::begin(&opts, true, SamplerState::default()).unwrap();
        p.log_batch(&one_batch());
        // Replace the WAL directory out from under the writer: the open file
        // handle keeps appends working, but snapshot writes must fail.
        std::fs::remove_dir_all(&dir).unwrap();
        p.write_state(tiny_graph(), None, 1, None, None);
        let report = p.finish(
            &tiny_graph(),
            &Embeddings::from_flat(1, vec![0.0; 12]),
            1,
            None,
            None,
        );
        assert!(report.wal_error.is_some(), "degradation must be reported");
        assert_eq!(report.snapshots_written, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
