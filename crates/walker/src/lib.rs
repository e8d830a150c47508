//! # uninet-walker
//!
//! The unified random-walk model abstraction of UniNet (Section IV of the
//! paper) and the machinery that executes walks at scale:
//!
//! * [`WalkerState`] — the 2D (position, affixture) decomposition of walker
//!   states used by the sampler manager's constant-time index (Figure 4).
//! * [`RandomWalkModel`] — the two-method programming interface
//!   (`calculate_weight` / `update_state`) with which any random-walk based
//!   NRL model is defined (Figure 3, Table IV).
//! * [`models`] — the five built-in models: DeepWalk, node2vec,
//!   metapath2vec, edge2vec and fairwalk.
//! * [`SamplerManager`] — per-state edge samplers laid out in the 2D bucket
//!   index; supports the M-H sampler as well as every baseline sampler
//!   (alias, direct, rejection, KnightKing-style, memory-aware).
//! * [`WalkEngine`] — multi-threaded random walk generation (Algorithm 2),
//!   with separately reported initialization and walking time, over
//!   [`walk_batch`], the one walk loop: one RNG per walk, and a ring of
//!   prefetching walks per thread.
//!
//! The crate sits between `uninet-graph`/`uninet-sampler` below and
//! `uninet-embedding` above: it turns a graph into a [`WalkCorpus`] that the
//! word2vec trainer consumes, and its [`SamplerManager`] is the state the
//! dynamic-graph layers maintain incrementally when edges change.
//!
//! ```
//! use uninet_graph::generators::ring_with_chords;
//! use uninet_walker::models::DeepWalk;
//! use uninet_walker::{WalkEngine, WalkEngineConfig};
//!
//! let graph = ring_with_chords(50, 3);
//! let config = WalkEngineConfig {
//!     num_walks: 1,
//!     walk_length: 8,
//!     num_threads: 1,
//!     ..Default::default()
//! };
//! let (corpus, _timing) = WalkEngine::new(config).generate(&graph, &DeepWalk::new());
//! assert_eq!(corpus.num_walks(), 50); // one walk per node
//! ```

pub mod engine;
pub mod manager;
pub mod model;
pub mod models;
pub mod state;
pub mod walk;

pub use engine::{walk_batch, WalkEngine, WalkEngineConfig, WalkTiming};
pub use manager::{MaintenanceStats, SamplerManager};
pub use model::RandomWalkModel;
pub use models::{DeepWalk, Edge2Vec, FairWalk, MetaPath2Vec, Node2Vec};
pub use state::WalkerState;
pub use walk::WalkCorpus;

pub use uninet_sampler::{EdgeSamplerKind, InitStrategy};
