//! Criterion benchmark of the Hogwild SGD pass alone: tokens per second of
//! `Word2VecTrainer::train_incremental` (the loop `train` and the streaming
//! pipeline share) at 1 and 2 threads, on a vocabulary whose two matrices
//! fit in L2 (1.5 k rows × 64, 0.8 MB) and on one whose matrices do not
//! (100 k rows, 51 MB).
//!
//! What to read off it: the 2-thread over 1-thread ratio is what the second
//! Hogwild thread buys. The per-pair trainer wrote 7 shared rows per
//! (context, center) pair and got 1.25x from the second core at 1.5 k rows;
//! the window kernel writes `m + 1 + negative` rows per token. Compare
//! ratios only when the box has two hardware threads to give.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use uninet_embedding::{Word2VecConfig, Word2VecTrainer};

const WALK_LENGTH: usize = 40;

/// Walks with graph-like locality: every step moves to one of the 16 ids
/// around the current one, so windows repeat nodes as real walks do.
fn local_walks(num_nodes: usize, num_walks: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..num_walks)
        .map(|_| {
            let mut at = rng.gen_range(0..num_nodes);
            (0..WALK_LENGTH)
                .map(|_| {
                    at = (at + num_nodes + rng.gen_range(0usize..17) - 8) % num_nodes;
                    at as u32
                })
                .collect()
        })
        .collect()
}

fn bench_trainer(c: &mut Criterion) {
    let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("hardware threads: {hardware}");
    let mut group = c.benchmark_group("sgd_pass");
    group.sample_size(3);
    // (rows, walks): 240 k tokens on the small vocabulary (the repository
    // benchmark's batch_train corpus), 1 M on the large one.
    for (num_nodes, num_walks) in [(1_500, 6_000), (100_000, 25_000)] {
        let walks = local_walks(num_nodes, num_walks, 7);
        group.throughput(Throughput::Elements((num_walks * WALK_LENGTH) as u64));
        for threads in [1, 2] {
            let trainer = Word2VecTrainer::new(Word2VecConfig {
                dim: 64,
                window: 10,
                negative: 5,
                num_threads: threads,
                ..Default::default()
            });
            let (mut session, _) = trainer.train_online(&walks[..walks.len() / 8], num_nodes);
            group.bench_function(
                BenchmarkId::new(format!("rows_{num_nodes}"), format!("threads_{threads}")),
                |b| b.iter(|| trainer.train_incremental(&mut session, &walks)),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_trainer
}
criterion_main!(benches);
