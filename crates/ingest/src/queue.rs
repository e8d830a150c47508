//! The bounded intake queue decoupling mutation intake from maintenance.
//!
//! A thin wrapper over `std::sync::mpsc::sync_channel` that adds the
//! accounting the pipeline reports: batches enqueued, back-pressure stalls
//! and the time the producer spent blocked in them, and queue depth — both
//! the final [`QueueStats`] summary and, via [`IngestMetrics`], live gauges
//! that can be observed from other threads while the pipeline runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use uninet_dyngraph::UpdateBatch;

use crate::metrics::IngestMetrics;

/// Accounting of one queue's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Batches pushed through the queue.
    pub batches_enqueued: usize,
    /// Sends that found the queue full and had to block.
    pub stalls: usize,
    /// Total time the producer spent blocked on a full queue.
    pub producer_wait: Duration,
    /// Highest observed number of batches in flight.
    pub peak_depth: usize,
}

impl QueueStats {
    /// Accumulates another queue's accounting into this one.
    pub fn merge(&mut self, other: &QueueStats) {
        self.batches_enqueued += other.batches_enqueued;
        self.stalls += other.stalls;
        self.producer_wait += other.producer_wait;
        self.peak_depth = self.peak_depth.max(other.peak_depth);
    }
}

/// Allows at most one event per interval; the rest are counted, not emitted.
///
/// Used to keep the live stall warning to at most one stderr line per second
/// no matter how saturated the stream is — a stalled producer can otherwise
/// emit thousands of identical lines in a burst.
#[derive(Debug)]
pub struct RateLimiter {
    interval: Duration,
    last: Option<Instant>,
    suppressed: u64,
}

impl RateLimiter {
    /// A limiter that lets one event through per `interval`.
    pub fn new(interval: Duration) -> Self {
        RateLimiter {
            interval,
            last: None,
            suppressed: 0,
        }
    }

    /// True when an event may be emitted now. The first call always passes;
    /// later calls pass once `interval` has elapsed since the last pass.
    pub fn allow(&mut self) -> bool {
        let now = Instant::now();
        match self.last {
            Some(t) if now.duration_since(t) < self.interval => {
                self.suppressed += 1;
                false
            }
            _ => {
                self.last = Some(now);
                self.suppressed = 0;
                true
            }
        }
    }

    /// Events denied since the last allowed one.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

/// Creates a bounded batch queue of the given capacity (clamped to ≥ 1)
/// whose depth gauge, enqueue/stall counters and stall-latency histogram
/// record into `metrics` — live, not just in the final [`QueueStats`]. Pass
/// [`IngestMetrics::detached`] when nothing observes them.
pub fn batch_queue(capacity: usize, metrics: &IngestMetrics) -> (BatchSender, BatchReceiver) {
    let (tx, rx) = std::sync::mpsc::sync_channel(capacity.max(1));
    let depth = Arc::new(AtomicUsize::new(0));
    (
        BatchSender {
            tx,
            depth: Arc::clone(&depth),
            stats: QueueStats::default(),
            metrics: metrics.clone(),
            stall_warn: RateLimiter::new(Duration::from_secs(1)),
        },
        BatchReceiver {
            rx,
            depth,
            metrics: metrics.clone(),
        },
    )
}

/// Producer half of the intake queue. Dropping it closes the stream.
pub struct BatchSender {
    tx: SyncSender<UpdateBatch>,
    depth: Arc<AtomicUsize>,
    stats: QueueStats,
    metrics: IngestMetrics,
    stall_warn: RateLimiter,
}

impl BatchSender {
    /// Sends one batch, blocking while the queue is full (back-pressure).
    /// Returns `false` when the consumer hung up.
    pub fn send(&mut self, batch: UpdateBatch) -> bool {
        // Count the batch in flight *before* handing it over: once `send`
        // returns, the consumer may already have received (and un-counted) it.
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.queue_depth.set(depth as i64);
        // Only time the blocking fallback, so `producer_wait` measures actual
        // back-pressure rather than per-send channel overhead.
        let ok = match self.tx.try_send(batch) {
            Ok(()) => true,
            Err(std::sync::mpsc::TrySendError::Full(batch)) => {
                let t = Instant::now();
                let ok = self.tx.send(batch).is_ok();
                let stall = t.elapsed();
                self.stats.stalls += 1;
                self.stats.producer_wait += stall;
                self.metrics.queue_stalls.inc();
                self.metrics.queue_stall_ns.record_duration(stall);
                let suppressed = self.stall_warn.suppressed();
                if self.stall_warn.allow() {
                    eprintln!(
                        "warning: ingest queue full — producer stalled {:.1} ms ({} stalls so far{})",
                        stall.as_secs_f64() * 1e3,
                        self.stats.stalls,
                        if suppressed > 0 {
                            format!(", {suppressed} warnings suppressed")
                        } else {
                            String::new()
                        }
                    );
                }
                ok
            }
            Err(std::sync::mpsc::TrySendError::Disconnected(_)) => false,
        };
        if ok {
            self.stats.batches_enqueued += 1;
            self.stats.peak_depth = self.stats.peak_depth.max(depth);
            self.metrics.queue_enqueued.inc();
        } else {
            let d = self.depth.fetch_sub(1, Ordering::Relaxed) - 1;
            self.metrics.queue_depth.set(d as i64);
        }
        ok
    }

    /// Batches currently in flight (queued, mid-send, or received but not yet
    /// un-counted by the consumer).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Accounting so far, without consuming the sender.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Consumes the sender, closing the queue and returning its accounting.
    pub fn finish(self) -> QueueStats {
        self.stats
    }
}

/// Consumer half of the intake queue.
pub struct BatchReceiver {
    rx: Receiver<UpdateBatch>,
    depth: Arc<AtomicUsize>,
    metrics: IngestMetrics,
}

impl BatchReceiver {
    /// Blocks for the next batch; `None` once the producer is done.
    pub fn recv(&self) -> Option<UpdateBatch> {
        let batch = self.rx.recv().ok()?;
        let d = self.depth.fetch_sub(1, Ordering::Relaxed) - 1;
        self.metrics.queue_depth.set(d as i64);
        Some(batch)
    }

    /// Batches currently in flight.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uninet_dyngraph::GraphMutation;

    fn batch(n: usize) -> UpdateBatch {
        UpdateBatch::from_mutations(
            (0..n as u32)
                .map(|i| GraphMutation::UpdateWeight {
                    src: i,
                    dst: i + 1,
                    weight: 1.0,
                })
                .collect(),
        )
    }

    #[test]
    fn rate_limiter_allows_once_per_interval() {
        let mut rl = RateLimiter::new(Duration::from_millis(40));
        assert!(rl.allow(), "first event always passes");
        assert!(!rl.allow());
        assert!(!rl.allow());
        assert_eq!(rl.suppressed(), 2);
        std::thread::sleep(Duration::from_millis(50));
        assert!(rl.allow(), "a new interval opens the gate again");
        assert_eq!(rl.suppressed(), 0);
    }

    #[test]
    fn queue_delivers_in_order_and_counts() {
        let (mut tx, rx) = batch_queue(4, &IngestMetrics::detached());
        let producer = std::thread::spawn(move || {
            for i in 1..=6 {
                assert!(tx.send(batch(i)));
            }
            tx.finish()
        });
        let mut sizes = Vec::new();
        while let Some(b) = rx.recv() {
            sizes.push(b.len());
        }
        let stats = producer.join().unwrap();
        assert_eq!(sizes, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(stats.batches_enqueued, 6);
        assert!(stats.peak_depth >= 1);
        assert_eq!(rx.depth(), 0, "fully drained");
    }

    #[test]
    fn bounded_queue_applies_back_pressure() {
        let (mut tx, rx) = batch_queue(1, &IngestMetrics::detached());
        let producer = std::thread::spawn(move || {
            for _ in 0..3 {
                assert!(tx.send(batch(2)));
            }
            tx.finish()
        });
        // Drain slowly so the producer has to block on the full queue.
        let mut got = 0;
        while let Some(_b) = rx.recv() {
            std::thread::sleep(Duration::from_millis(20));
            got += 1;
        }
        let stats = producer.join().unwrap();
        assert_eq!(got, 3);
        assert!(stats.stalls >= 1, "no stall recorded");
        assert!(
            stats.producer_wait >= Duration::from_millis(10),
            "producer never blocked: {:?}",
            stats.producer_wait
        );
        // The depth gauge counts queued batches (≤ capacity) plus at most one
        // mid-send and one received-but-not-yet-decremented batch.
        assert!(stats.peak_depth <= 3, "peak {}", stats.peak_depth);
    }

    #[test]
    fn send_after_consumer_drop_reports_closure() {
        let (mut tx, rx) = batch_queue(1, &IngestMetrics::detached());
        drop(rx);
        assert!(!tx.send(batch(1)));
        assert_eq!(tx.depth(), 0);
        let stats = tx.finish();
        assert_eq!(stats.batches_enqueued, 0);
    }

    #[test]
    fn instrumented_queue_updates_live_metrics() {
        let metrics = IngestMetrics::detached();
        let (mut tx, rx) = batch_queue(2, &metrics);
        assert!(tx.send(batch(1)));
        assert!(tx.send(batch(1)));
        assert_eq!(metrics.queue_depth.get(), 2);
        assert_eq!(metrics.queue_enqueued.get(), 2);
        assert!(rx.recv().is_some());
        assert_eq!(metrics.queue_depth.get(), 1);
        drop(tx);
        assert!(rx.recv().is_some());
        assert!(rx.recv().is_none());
        assert_eq!(metrics.queue_depth.get(), 0);
    }
}
