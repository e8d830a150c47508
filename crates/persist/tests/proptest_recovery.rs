//! The durability plane's headline property: **restart == no-restart**.
//!
//! A "durable process" applies an arbitrary mutation sequence in batches,
//! WAL-logging every batch and snapshotting on an arbitrary cadence. We then
//! crash it at an arbitrary byte offset into the log (optionally also
//! corrupting the newest snapshot to exercise fallback), recover, and demand
//! that the recovered graph/embeddings/epoch equal those of a process that
//! ran uninterrupted over the same durable prefix. Restarting the process
//! and feeding it the rest of the stream must then converge on exactly the
//! state of a process that never crashed at all.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use uninet_dyngraph::{DynamicGraph, GraphMutation, UpdateBatch};
use uninet_embedding::Embeddings;
use uninet_graph::{Graph, GraphBuilder};
use uninet_persist::codec::crc32;
use uninet_persist::{
    latest_valid_snapshot, list_snapshots, read_snapshot, read_wal, recover, wal_path,
    write_snapshot, write_snapshot_with_index, FsyncPolicy, PersistError, SamplerState, Snapshot,
    WalWriter,
};

const N: u32 = 8;
const WAL_HEADER: u64 = 8;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn case_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "uninet-prop-rec-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_graph() -> Graph {
    let mut b = GraphBuilder::new();
    b.set_num_nodes(N as usize);
    b.symmetric(true);
    for v in 0..N {
        b.add_edge(v, (v + 1) % N, 1.0 + v as f32 * 0.25);
    }
    b.build()
}

/// Deterministic stand-in for "the embedding matrix after `count` batches".
fn fake_embeddings(count: u64) -> Embeddings {
    let dim = 2usize;
    let flat: Vec<f32> = (0..N as usize * dim)
        .map(|i| count as f32 * 0.5 + i as f32 * 0.125)
        .collect();
    Embeddings::from_flat(dim, flat)
}

/// Edge ops over a slightly-too-large id range (exercising rejects) plus the
/// open-world node ops: arrivals can grow the universe past `N`, retirements
/// drop ids mid-stream, and a later arrival may resurrect a retired id.
fn mutation_strategy() -> impl Strategy<Value = GraphMutation> {
    (0u8..5, 0u32..N + 4, 0u32..N + 4, 1u32..64).prop_map(|(op, src, dst, w)| match op {
        0 => GraphMutation::AddEdge {
            src,
            dst,
            weight: w as f32 * 0.25,
        },
        1 => GraphMutation::RemoveEdge { src, dst },
        2 => GraphMutation::UpdateWeight {
            src,
            dst,
            weight: w as f32 * 0.5,
        },
        3 => GraphMutation::AddNode { node: src },
        _ => GraphMutation::RemoveNode { node: src },
    })
}

/// Uninterrupted reference: the first `k` batches applied in order, yielding
/// the compacted graph and the canonical live mask (`None` = fully live).
fn reference_state(batches: &[UpdateBatch], k: usize) -> (Graph, Option<Vec<bool>>) {
    let mut dg = DynamicGraph::new(base_graph(), true);
    for b in &batches[..k] {
        for m in b.mutations() {
            dg.apply(*m);
        }
    }
    let mask = dg.live_mask().to_vec();
    let live = mask.iter().any(|&l| !l).then_some(mask);
    (dg.into_base(), live)
}

/// Bit-exact per-node adjacency fingerprint.
fn fingerprint(g: &Graph) -> Vec<Vec<(u32, u32)>> {
    (0..g.num_nodes() as u32)
        .map(|v| {
            g.neighbors(v)
                .iter()
                .zip(g.weights(v))
                .map(|(&n, &w)| (n, w.to_bits()))
                .collect()
        })
        .collect()
}

fn snap_at(dg: &DynamicGraph, count: u64, wal_seq: u64) -> Snapshot {
    let mask = dg.live_mask().to_vec();
    Snapshot {
        wal_seq,
        epoch: count,
        symmetric: true,
        sampler: SamplerState::default(),
        graph: dg.materialize(),
        embeddings: Some(fake_embeddings(count)),
        live: mask.iter().any(|&l| !l).then_some(mask),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn restart_equals_no_restart(
        muts in prop::collection::vec(mutation_strategy(), 1..72),
        batch_size in 1usize..6,
        cadence in 1usize..5,
        crash_frac in 0u32..=1000,
        corrupt_newest in any::<bool>(),
    ) {
        let dir = case_dir();
        let batches: Vec<UpdateBatch> = muts
            .chunks(batch_size)
            .map(|c| UpdateBatch::from_mutations(c.to_vec()))
            .collect();
        let total = batches.len();

        // ---- durable run until the crash ----------------------------------
        let mut dg = DynamicGraph::new(base_graph(), true);
        write_snapshot(&dir, &snap_at(&dg, 0, 0)).unwrap();
        let mut wal = WalWriter::open(&dir, FsyncPolicy::Never).unwrap();
        let mut snapshot_seqs = vec![0u64];
        for (i, b) in batches.iter().enumerate() {
            let seq = wal.append(b).unwrap();
            prop_assert_eq!(seq, i as u64 + 1);
            for m in b.mutations() {
                dg.apply(*m);
            }
            if (i + 1) % cadence == 0 {
                wal.sync().unwrap();
                write_snapshot(&dir, &snap_at(&dg, seq, seq)).unwrap();
                snapshot_seqs.push(seq);
            }
        }
        wal.sync().unwrap();
        drop(wal);

        // ---- crash: tear the log at an arbitrary byte offset --------------
        let path = wal_path(&dir);
        let full_len = std::fs::metadata(&path).unwrap().len();
        let crash_off = WAL_HEADER
            + ((full_len - WAL_HEADER) as f64 * crash_frac as f64 / 1000.0) as u64;
        {
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(crash_off).unwrap();
        }
        if corrupt_newest && snapshot_seqs.len() > 1 {
            // Damage the newest snapshot so recovery must fall back.
            let newest = list_snapshots(&dir).unwrap().remove(0);
            let mut bytes = std::fs::read(&newest).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x08;
            std::fs::write(&newest, &bytes).unwrap();
            snapshot_seqs.pop();
        }
        let chosen_snap = *snapshot_seqs.last().unwrap();

        // ---- recover and compare against the uninterrupted reference ------
        let rec = recover(&dir).unwrap();
        let surviving = read_wal(&path).unwrap().last_seq;
        let durable = chosen_snap.max(surviving) as usize;
        prop_assert_eq!(rec.last_wal_seq, durable as u64);
        prop_assert_eq!(rec.epoch, chosen_snap, "epoch comes from the chosen snapshot");
        let (ref_graph, ref_live) = reference_state(&batches, durable);
        prop_assert_eq!(
            fingerprint(&rec.graph),
            fingerprint(&ref_graph),
            "recovered graph must equal an uninterrupted run over the durable prefix"
        );
        prop_assert_eq!(
            rec.live, ref_live,
            "recovered live mask must equal an uninterrupted run's universe"
        );
        let expected_emb = fake_embeddings(chosen_snap);
        prop_assert_eq!(
            rec.embeddings.as_ref().unwrap().as_flat(),
            expected_emb.as_flat()
        );

        // ---- restart: reopen, feed the rest of the stream, recover again --
        let mut wal = WalWriter::open(&dir, FsyncPolicy::Never).unwrap();
        prop_assert_eq!(wal.last_seq(), surviving, "reopen resumes after the torn tail");
        for b in &batches[surviving as usize..] {
            wal.append(b).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let rec2 = recover(&dir).unwrap();
        prop_assert_eq!(rec2.last_wal_seq, total as u64);
        let (ref_graph2, ref_live2) = reference_state(&batches, total);
        prop_assert_eq!(
            fingerprint(&rec2.graph),
            fingerprint(&ref_graph2),
            "after restart + full replay the state equals a run that never crashed"
        );
        prop_assert_eq!(rec2.live, ref_live2, "restarted universe matches the no-crash run");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Rewrites the header's body length and checksum to match the body, so the
/// decoder behind the checksum is what a mutation reaches.
fn reseal(file: &mut [u8]) {
    let body_len = (file.len() - 20) as u64;
    file[8..16].copy_from_slice(&body_len.to_le_bytes());
    let crc = crc32(&file[20..]);
    file[16..20].copy_from_slice(&crc.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The snapshot reader under fire: arbitrary files, and valid v3 files
    /// with flipped bytes and cut tails, with and without a re-sealed
    /// checksum. Reading never panics and never sizes an allocation by a
    /// count the file does not back (a lying count would abort the test
    /// process); whatever decodes is a consistent state; damage confined to
    /// the index section never costs the snapshot.
    #[test]
    fn snapshot_reader_survives_arbitrary_damage(
        muts in prop::collection::vec(mutation_strategy(), 0..24),
        index in prop::collection::vec(any::<u8>(), 0..48),
        flips in prop::collection::vec((0u32..1_000_000, any::<u8>()), 0..4),
        cut in 0u32..1_000_000,
        truncate in any::<bool>(),
        resealed in any::<bool>(),
        junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let dir = case_dir();
        let mut dg = DynamicGraph::new(base_graph(), true);
        for m in &muts {
            dg.apply(*m);
        }
        let snap = snap_at(&dg, 3, 9);
        let path = write_snapshot_with_index(&dir, &snap, Some(&index)).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let index_start = clean.len() - index.len() - 8;

        // Arbitrary bytes under a snapshot's name.
        std::fs::write(&path, &junk).unwrap();
        prop_assert!(read_snapshot(&path).is_err() || junk.len() >= 20);
        prop_assert!(latest_valid_snapshot(&dir).is_ok());

        let mut bytes = clean.clone();
        let mut touched_state = false;
        for &(at, xor) in &flips {
            let at = 20 + at as usize % (bytes.len() - 20);
            bytes[at] ^= xor;
            touched_state |= xor != 0 && at < index_start;
        }
        if truncate {
            let keep = 20 + cut as usize % (bytes.len() - 19);
            touched_state |= keep < index_start;
            bytes.truncate(keep);
        }
        let damaged = bytes != clean;
        if resealed {
            reseal(&mut bytes);
        }
        std::fs::write(&path, &bytes).unwrap();

        match latest_valid_snapshot(&dir).unwrap() {
            Some(loaded) => {
                prop_assert!(resealed || !damaged, "the checksum must catch unsealed damage");
                let got = &loaded.snapshot;
                got.graph.validate().unwrap();
                if let Some(live) = &got.live {
                    prop_assert_eq!(live.len(), got.graph.num_nodes());
                }
                if !touched_state {
                    // Only the index section was hit: the state stands, the
                    // index is handed over as found or dropped.
                    prop_assert_eq!(got.wal_seq, 9);
                    prop_assert_eq!(fingerprint(&got.graph), fingerprint(&snap.graph));
                    prop_assert_eq!(&got.live, &snap.live);
                    prop_assert_eq!(
                        got.embeddings.as_ref().unwrap().as_flat(),
                        snap.embeddings.as_ref().unwrap().as_flat()
                    );
                    if let Some(found) = &loaded.index {
                        prop_assert_eq!(found.len(), index.len());
                    }
                    if !damaged {
                        prop_assert_eq!(loaded.index.as_ref(), Some(&index));
                    }
                }
            }
            None => prop_assert!(damaged, "an undamaged file must load"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A WAL alone (no snapshot) is unrecoverable by construction — the durable
/// write path always seeds the directory with an initial snapshot.
#[test]
fn bare_wal_is_no_state() {
    let dir = case_dir();
    let mut wal = WalWriter::open(&dir, FsyncPolicy::Always).unwrap();
    let mut b = UpdateBatch::new();
    b.add_edge(0, 1, 1.0);
    wal.append(&b).unwrap();
    drop(wal);
    assert!(matches!(recover(&dir), Err(PersistError::NoState { .. })));
    let _ = std::fs::remove_dir_all(&dir);
}
