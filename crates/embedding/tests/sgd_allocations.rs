//! The SGD pass allocates per thread, not per walk.
//!
//! The per-pair trainer this replaced made eight heap allocations per
//! (context, center) pair. The window kernel's scratch is allocated once when
//! a training thread starts, so the number of allocations of a pass must not
//! depend on how many walks it trains. This file holds exactly one test: the
//! counting allocator is global, and a second test running beside it would be
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use uninet_embedding::{Word2VecConfig, Word2VecTrainer};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a statistic and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn walks(count: usize) -> Vec<Vec<u32>> {
    (0..count)
        .map(|w| (0..30).map(|i| ((w * 7 + i * 3) % 50) as u32).collect())
        .collect()
}

#[test]
fn sgd_pass_allocations_do_not_grow_with_the_corpus() {
    let trainer = Word2VecTrainer::new(Word2VecConfig {
        dim: 24,
        window: 5,
        negative: 4,
        num_threads: 2,
        subsample: 1e-2,
        ..Default::default()
    });
    let (few, many) = (walks(16), walks(16 * 20));
    let (mut session, _) = trainer.train_online(&few, 50);
    // Whatever initializes lazily (kernel dispatch, thread-locals) does
    // so before the counting starts.
    trainer.train_incremental(&mut session, &few);

    let mut count = |corpus: &[Vec<u32>]| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let stats = trainer.train_incremental(&mut session, corpus);
        assert!(stats.pairs_processed > stats.tokens_processed);
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    let (for_few, for_many) = (count(&few), count(&many));
    // 304 more walks, 9 120 more tokens: one allocation per walk would
    // show as hundreds. Thread start-up may differ by a few.
    assert!(
        for_many <= for_few + 8,
        "{for_few} allocations for 16 walks, {for_many} for 320"
    );
}
