//! Memory-aware hybrid sampler planning (Shao et al., SIGMOD'20),
//! re-implemented from the description in the UniNet paper.
//!
//! The memory-aware framework pre-materializes `O(deg)` alias tables for the
//! states that benefit the most, subject to a global memory budget, and falls
//! back to `O(deg)`-time direct sampling for everything else. The plan is a
//! static assignment computed before the walk starts; the quality of the plan
//! (and therefore the walk time) depends on the budget — which is why the
//! paper reports it as memory-safe but slower than UniNet on billion-edge
//! graphs (Table VII, Figures 6–7).

/// Which sampler a given state uses under a memory-aware plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateSamplerKind {
    /// A materialized alias table (fast, costs `8 * degree` bytes).
    Alias,
    /// Direct inverse-CDF sampling (no memory, `O(degree)` time per draw).
    Direct,
}

/// A static assignment of sampler kinds to states.
#[derive(Debug, Clone)]
pub struct MemoryAwarePlan {
    assignment: Vec<StateSamplerKind>,
    bytes_used: usize,
    budget_bytes: usize,
}

/// Bytes needed by an alias table over `degree` outcomes (prob f32 + alias u32).
pub fn alias_table_bytes(degree: usize) -> usize {
    degree * 8
}

impl MemoryAwarePlan {
    /// Computes a plan for `states`, where `states[i] = (degree, visit_frequency)`.
    ///
    /// States are ranked by expected benefit — `visit_frequency * degree`,
    /// i.e. how much `O(deg)` scan work an alias table would save — and greedy
    /// assignment materializes alias tables until the budget is exhausted.
    pub fn plan(states: &[(usize, f64)], budget_bytes: usize) -> Self {
        let mut order: Vec<usize> = (0..states.len()).collect();
        order.sort_by(|&a, &b| {
            let benefit_a = states[a].1 * states[a].0 as f64;
            let benefit_b = states[b].1 * states[b].0 as f64;
            benefit_b
                .partial_cmp(&benefit_a)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut assignment = vec![StateSamplerKind::Direct; states.len()];
        let mut bytes_used = 0usize;
        for idx in order {
            let cost = alias_table_bytes(states[idx].0);
            if bytes_used + cost <= budget_bytes && states[idx].0 > 1 {
                assignment[idx] = StateSamplerKind::Alias;
                bytes_used += cost;
            }
        }
        MemoryAwarePlan {
            assignment,
            bytes_used,
            budget_bytes,
        }
    }

    /// The sampler kind assigned to state `i`.
    pub fn kind(&self, i: usize) -> StateSamplerKind {
        self.assignment[i]
    }

    /// Number of states covered by the plan.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when the plan covers no states.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Bytes consumed by materialized alias tables.
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// The configured budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_gives_all_alias() {
        let states: Vec<(usize, f64)> = (0..10).map(|i| (i + 2, 1.0)).collect();
        let plan = MemoryAwarePlan::plan(&states, usize::MAX);
        assert_eq!(plan.len(), 10);
        assert!((0..10).all(|i| plan.kind(i) == StateSamplerKind::Alias));
        assert!(!plan.is_empty());
    }

    #[test]
    fn zero_budget_gives_all_direct() {
        let states: Vec<(usize, f64)> = (0..10).map(|i| (i + 2, 1.0)).collect();
        let plan = MemoryAwarePlan::plan(&states, 0);
        assert!((0..10).all(|i| plan.kind(i) == StateSamplerKind::Direct));
        assert_eq!(plan.bytes_used(), 0);
    }

    #[test]
    fn hot_heavy_states_are_preferred() {
        // State 0: huge degree, hot. State 1: small degree, cold.
        let states = vec![(1000usize, 10.0f64), (4, 0.1), (500, 5.0)];
        let budget = alias_table_bytes(1000) + alias_table_bytes(500);
        let plan = MemoryAwarePlan::plan(&states, budget);
        assert_eq!(plan.kind(0), StateSamplerKind::Alias);
        assert_eq!(plan.kind(2), StateSamplerKind::Alias);
        assert_eq!(plan.kind(1), StateSamplerKind::Direct);
        assert!(plan.bytes_used() <= plan.budget_bytes());
    }

    #[test]
    fn budget_is_respected() {
        let states: Vec<(usize, f64)> = (0..100).map(|_| (64usize, 1.0f64)).collect();
        let budget = 10 * alias_table_bytes(64);
        let plan = MemoryAwarePlan::plan(&states, budget);
        assert!(plan.bytes_used() <= budget);
        let alias_count = (0..plan.len())
            .filter(|&i| plan.kind(i) == StateSamplerKind::Alias)
            .count();
        assert_eq!(alias_count, 10);
    }

    #[test]
    fn degree_one_states_never_get_alias() {
        let states = vec![(1usize, 100.0f64), (8, 1.0)];
        let plan = MemoryAwarePlan::plan(&states, usize::MAX);
        assert_eq!(plan.kind(0), StateSamplerKind::Direct);
        assert_eq!(plan.kind(1), StateSamplerKind::Alias);
    }
}
