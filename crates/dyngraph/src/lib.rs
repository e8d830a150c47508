//! # uninet-dyngraph
//!
//! Dynamic-graph subsystem: streaming edge updates with incremental sampler
//! maintenance and walk refresh.
//!
//! The UniNet paper's central systems claim is that its Metropolis–Hastings
//! edge sampler needs O(1) time *and* memory per walker state and samples
//! from **unnormalized** weight distributions. The consequence this crate
//! exercises: when the graph changes under live traffic, M-H sampler state
//! survives weight mutations with **zero** rebuild work, while the alias
//! tables used by node2vec's reference implementation (and KnightKing's
//! proposal step) must re-materialize every affected O(deg)-sized table.
//!
//! Components:
//!
//! * [`GraphMutation`] / [`UpdateBatch`] — the mutation event API.
//! * [`DynamicGraph`] — an immutable CSR base plus per-vertex delta overlay
//!   (insert/delete logs, in-place reweights) with periodic compaction.
//! * [`IncrementalMaintainer`] — propagates each batch into sampler state:
//!   M-H chains are kept alive across weight changes; alias/KnightKing/
//!   memory-aware samplers get targeted invalidation and rebuild of only the
//!   affected buckets in the `SamplerManager`'s 2D index.
//! * [`WalkRefresher`] — finds walks whose trajectories pass through mutated
//!   vertices (inverted node → walk index) and regenerates only those.
//! * [`stream`] — a plain-text edge-update stream format plus batching, used
//!   by the `uninet --updates` CLI streaming mode.
//!
//! `uninet-ingest` feeds these components from a bounded intake queue, and
//! `uninet-core`'s `Engine::stream` wraps the whole pipeline in a session the
//! embedding query service stays live under.
//!
//! ## Example
//!
//! ```
//! use uninet_dyngraph::{DynamicGraph, GraphMutation, IncrementalMaintainer, UpdateBatch};
//! use uninet_graph::GraphBuilder;
//! use uninet_sampler::{EdgeSamplerKind, InitStrategy};
//! use uninet_walker::models::DeepWalk;
//! use uninet_walker::SamplerManager;
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1, 1.0);
//! b.add_edge(1, 2, 1.0);
//! b.add_edge(2, 0, 1.0);
//! let graph = b.symmetric(true).build();
//!
//! let model = DeepWalk::new();
//! let mut dg = DynamicGraph::new(graph, true);
//! let mut manager = SamplerManager::new(
//!     dg.base(),
//!     &model,
//!     EdgeSamplerKind::MetropolisHastings(InitStrategy::Random),
//!     0,
//! );
//!
//! let mut batch = UpdateBatch::new();
//! batch.update_weight(0, 1, 5.0);
//! let report = IncrementalMaintainer::default()
//!     .apply_batch(&mut dg, &mut manager, &model, &batch);
//! assert_eq!(report.weight_mutations, 1);
//! // The reweight preserved the M-H chain state of node 0's bucket:
//! assert!(report.maintenance.chains_preserved > 0);
//! ```

pub mod dynamic;
pub mod maintain;
pub mod mutation;
pub mod refresh;
pub mod stream;

pub use dynamic::{DynamicGraph, MutationEffect};
pub use maintain::{BatchReport, IncrementalMaintainer, MaintainerConfig};
pub use mutation::{GraphMutation, UpdateBatch};
pub use refresh::{RefreshStats, WalkRefresher};
pub use stream::{
    into_batches, parse_line, read_update_stream_validated, ParseIssue, StreamError,
    StreamValidator,
};
