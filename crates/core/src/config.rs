//! Configuration types for the end-to-end UniNet pipeline.

use uninet_graph::{Graph, Metapath};
use uninet_walker::models::{DeepWalk, Edge2Vec, FairWalk, MetaPath2Vec, Node2Vec};
use uninet_walker::{RandomWalkModel, WalkEngineConfig};

use uninet_embedding::Word2VecConfig;

use crate::error::UniNetError;

/// Declarative description of which NRL model to run.
///
/// A `ModelSpec` is turned into a concrete [`RandomWalkModel`] against a given
/// graph by [`ModelSpec::instantiate`]; this indirection exists because some
/// models (fairwalk) precompute per-graph tables at construction time.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// DeepWalk (first-order, static weights).
    DeepWalk,
    /// node2vec with return parameter `p` and in-out parameter `q`.
    Node2Vec {
        /// Return parameter.
        p: f32,
        /// In-out parameter.
        q: f32,
    },
    /// metapath2vec guided by a metapath of node types.
    MetaPath2Vec {
        /// The metapath (sequence of node type ids).
        metapath: Vec<u16>,
    },
    /// edge2vec with node2vec parameters and a uniform edge-type transition matrix.
    Edge2Vec {
        /// Return parameter.
        p: f32,
        /// In-out parameter.
        q: f32,
    },
    /// fairwalk with node2vec parameters.
    FairWalk {
        /// Return parameter.
        p: f32,
        /// In-out parameter.
        q: f32,
    },
}

impl ModelSpec {
    /// The model name used in reports (matches the paper's tables).
    pub fn name(&self) -> &'static str {
        match self {
            ModelSpec::DeepWalk => "deepwalk",
            ModelSpec::Node2Vec { .. } => "node2vec",
            ModelSpec::MetaPath2Vec { .. } => "metapath2vec",
            ModelSpec::Edge2Vec { .. } => "edge2vec",
            ModelSpec::FairWalk { .. } => "fairwalk",
        }
    }

    /// Checks the spec's own hyper-parameters, without a graph.
    ///
    /// A metapath with fewer than two node types cannot describe a
    /// transition, and non-positive or non-finite `p`/`q` make the
    /// second-order transition weights meaningless — both are reported as
    /// [`UniNetError::InvalidConfig`] instead of being silently patched.
    pub fn validate(&self) -> Result<(), UniNetError> {
        match self {
            ModelSpec::DeepWalk => Ok(()),
            ModelSpec::MetaPath2Vec { metapath } => {
                if metapath.len() < 2 {
                    return Err(UniNetError::invalid_config(
                        "model.metapath",
                        format!(
                            "a metapath needs at least 2 node types to define a transition \
                             (got {})",
                            metapath.len()
                        ),
                    ));
                }
                Ok(())
            }
            ModelSpec::Node2Vec { p, q }
            | ModelSpec::Edge2Vec { p, q }
            | ModelSpec::FairWalk { p, q } => {
                for (name, v) in [("model.p", *p), ("model.q", *q)] {
                    if !v.is_finite() || v <= 0.0 {
                        return Err(UniNetError::invalid_config(
                            name,
                            format!("must be a positive finite number (got {v})"),
                        ));
                    }
                }
                Ok(())
            }
        }
    }

    /// Builds the concrete model for `graph`.
    ///
    /// Fails with [`UniNetError::InvalidConfig`] when [`ModelSpec::validate`]
    /// rejects the spec (e.g. a metapath shorter than two node types).
    pub fn instantiate(&self, graph: &Graph) -> Result<Box<dyn RandomWalkModel>, UniNetError> {
        self.validate()?;
        Ok(match self {
            ModelSpec::DeepWalk => Box::new(DeepWalk::new()),
            ModelSpec::Node2Vec { p, q } => Box::new(Node2Vec::new(*p, *q)),
            ModelSpec::MetaPath2Vec { metapath } => {
                Box::new(MetaPath2Vec::new(Metapath::new(metapath.clone())))
            }
            ModelSpec::Edge2Vec { p, q } => {
                let types = graph.num_edge_types().max(1) as usize;
                Box::new(Edge2Vec::uniform(*p, *q, types))
            }
            ModelSpec::FairWalk { p, q } => Box::new(FairWalk::new(graph, *p, *q)),
        })
    }

    /// The five models with the hyper-parameters used in the paper's
    /// efficiency study (Section V-C / V-D).
    pub fn paper_benchmark_suite() -> Vec<ModelSpec> {
        vec![
            ModelSpec::DeepWalk,
            ModelSpec::Node2Vec { p: 0.25, q: 4.0 },
            ModelSpec::MetaPath2Vec {
                metapath: vec![0, 1, 2, 1, 0],
            },
            ModelSpec::Edge2Vec { p: 0.25, q: 0.25 },
            ModelSpec::FairWalk { p: 1.0, q: 1.0 },
        ]
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniNetConfig {
    /// Random-walk generation settings (sampler, K, L, threads).
    pub walk: WalkEngineConfig,
    /// Word2vec settings.
    pub embedding: Word2VecConfig,
}

impl UniNetConfig {
    /// A configuration scaled down for unit tests and examples.
    pub fn small() -> Self {
        let mut cfg = Self::default();
        cfg.walk.num_walks = 2;
        cfg.walk.walk_length = 20;
        cfg.walk.num_threads = 2;
        cfg.embedding.dim = 32;
        cfg.embedding.num_threads = 2;
        cfg.embedding.window = 5;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uninet_graph::generators::{heterogenize, ring_with_chords};

    #[test]
    fn names_and_suite() {
        let suite = ModelSpec::paper_benchmark_suite();
        assert_eq!(suite.len(), 5);
        let names: Vec<_> = suite.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "deepwalk",
                "node2vec",
                "metapath2vec",
                "edge2vec",
                "fairwalk"
            ]
        );
    }

    #[test]
    fn instantiate_all_models() {
        let g = heterogenize(&ring_with_chords(30, 1), 3, 2, 2);
        for spec in ModelSpec::paper_benchmark_suite() {
            let model = spec.instantiate(&g).unwrap();
            assert_eq!(model.name(), spec.name());
            assert!(model.num_states(&g) >= g.num_nodes());
        }
    }

    #[test]
    fn degenerate_metapath_is_rejected() {
        let g = heterogenize(&ring_with_chords(20, 1), 3, 2, 3);
        for metapath in [vec![], vec![0u16]] {
            let spec = ModelSpec::MetaPath2Vec { metapath };
            match spec.instantiate(&g) {
                Err(UniNetError::InvalidConfig { field, .. }) => {
                    assert_eq!(field, "model.metapath")
                }
                Err(other) => panic!("expected InvalidConfig, got {other}"),
                Ok(_) => panic!("degenerate metapath must not instantiate"),
            }
        }
    }

    #[test]
    fn non_positive_node2vec_params_are_rejected() {
        assert!(ModelSpec::Node2Vec { p: 0.0, q: 1.0 }.validate().is_err());
        assert!(ModelSpec::FairWalk {
            p: 1.0,
            q: f32::NAN
        }
        .validate()
        .is_err());
        assert!(ModelSpec::Edge2Vec { p: -1.0, q: 1.0 }.validate().is_err());
        assert!(ModelSpec::Node2Vec { p: 0.25, q: 4.0 }.validate().is_ok());
    }

    #[test]
    fn small_config_is_smaller() {
        let small = UniNetConfig::small();
        let default = UniNetConfig::default();
        assert!(small.walk.num_walks < default.walk.num_walks);
        assert!(small.embedding.dim < default.embedding.dim);
    }
}
