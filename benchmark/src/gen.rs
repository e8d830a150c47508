//! Deterministic input generators. Everything the program under test sees is
//! made here from `--seed`: edge lists, the update stream (as text lines, the
//! form a user feeds the CLI), query keys and arrival schedules.
//!
//! The benchmark owns its PRNG so that a change to `vendor/rand` or to the
//! repository's own `graph::generators` cannot silently change the inputs.

use std::collections::HashSet;
use std::fmt::Write as _;

use uninet_graph::{Graph, GraphBuilder};

/// xoshiro256++ seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    pub fn new(seed: u64) -> Self {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Prng {
            s: [next(), next(), next(), next()],
        }
    }

    /// An independent stream for one named purpose, so that adding a draw to
    /// one generator does not shift the inputs of another.
    pub fn fork(seed: u64, purpose: u64) -> Self {
        Prng::new(seed ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Exponential with the given rate (mean `1 / rate`).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Lets the benchmark's PRNG drive the library's sampling entry points
/// (`SamplerManager::sample` takes any `rand::Rng`).
impl rand::RngCore for Prng {
    fn next_u64(&mut self) -> u64 {
        Prng::next_u64(self)
    }
}

/// An undirected edge list over nodes `0..n`.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeList {
    pub n: usize,
    pub edges: Vec<(u32, u32, f32)>,
}

/// A heavy-tailed edge weight in `[1, 64]`: most edges are light, a few are
/// heavy, which is the case the M-H sampler's acceptance rate depends on.
fn skewed_weight(rng: &mut Prng) -> f32 {
    ((1.0 - rng.unit()).powf(-0.7)).min(64.0) as f32
}

/// Barabási–Albert preferential attachment: every new node attaches to `m`
/// distinct earlier nodes chosen proportionally to degree (mean degree `2m`).
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> EdgeList {
    assert!(n > m && m >= 1);
    let mut rng = Prng::fork(seed, 1);
    // Each edge endpoint appears once here, so a uniform draw is a
    // degree-proportional draw.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
    let mut edges = Vec::with_capacity(n * m);
    for v in 0..=m as u32 {
        for u in 0..v {
            edges.push((u, v, skewed_weight(&mut rng)));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    let mut picked: Vec<u32> = Vec::with_capacity(m);
    for v in (m + 1) as u32..n as u32 {
        picked.clear();
        while picked.len() < m {
            let u = endpoints[rng.below(endpoints.len())];
            if !picked.contains(&u) {
                picked.push(u);
            }
        }
        for &u in &picked {
            edges.push((u, v, skewed_weight(&mut rng)));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    EdgeList { n, edges }
}

/// Planted partition: `communities` equal blocks; every node draws `intra`
/// neighbours inside its block and `inter` outside. Unit weights.
pub fn planted_partition(
    n: usize,
    communities: usize,
    intra: usize,
    inter: usize,
    seed: u64,
) -> EdgeList {
    assert!(communities >= 2 && n >= 2 * communities);
    let mut rng = Prng::fork(seed, 2);
    let block = n / communities;
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(n * (intra + inter));
    let mut edges = Vec::with_capacity(n * (intra + inter));
    for u in 0..n as u32 {
        let home = (u as usize / block).min(communities - 1);
        let (lo, hi) = (
            home * block,
            if home == communities - 1 {
                n
            } else {
                (home + 1) * block
            },
        );
        for i in 0..intra + inter {
            let v = if i < intra {
                (lo + rng.below(hi - lo)) as u32
            } else {
                // Outside the home block: draw from the n - |block| others.
                let r = rng.below(n - (hi - lo));
                (if r < lo { r } else { r + (hi - lo) }) as u32
            };
            let key = (u.min(v), u.max(v));
            if u != v && seen.insert(key) {
                edges.push((key.0, key.1, 1.0));
            }
        }
    }
    EdgeList { n, edges }
}

/// Hands the edge list to the `graph` layer: the only place the benchmark
/// builds a CSR graph.
pub fn build_graph(list: &EdgeList) -> Graph {
    let mut b = GraphBuilder::with_capacity(list.edges.len());
    b.symmetric(true).set_num_nodes(list.n);
    for &(u, v, w) in &list.edges {
        b.add_edge(u, v, w);
    }
    b.build()
}

/// Shares of the mutation kinds in the update stream. An arrival is three
/// lines (`addnode` plus two wiring `add`s) and counts as three mutations.
const REWEIGHT: f64 = 0.65;
const ADD: f64 = 0.20;
const DELETE: f64 = 0.10;
const ARRIVAL: f64 = 0.03;

/// A mixed update stream with churn, rendered as the text lines the CLI
/// reads, and the ids it retired.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStream {
    pub text: String,
    pub lines: usize,
    pub retired: Vec<u32>,
    pub arrived: Vec<u32>,
}

/// Generates at least `mutations` valid mutations against `list`: every op
/// names live endpoints, reweights and deletes name edges that exist, adds
/// name edges that do not, so the validated reader accepts every line and
/// the dynamic graph rejects none.
pub fn update_stream(list: &EdgeList, mutations: usize, seed: u64) -> UpdateStream {
    let mut rng = Prng::fork(seed, 3);
    let mut live = vec![true; list.n];
    let mut edges: Vec<(u32, u32)> = list.edges.iter().map(|&(u, v, _)| (u, v)).collect();
    let mut present: HashSet<(u32, u32)> = edges.iter().copied().collect();
    let mut out = UpdateStream {
        text: String::with_capacity(mutations * 20),
        lines: 0,
        retired: Vec::new(),
        arrived: Vec::new(),
    };

    // A live edge, dropping edges a retirement removed as they are met.
    fn live_edge(
        rng: &mut Prng,
        edges: &mut Vec<(u32, u32)>,
        present: &mut HashSet<(u32, u32)>,
        live: &[bool],
    ) -> usize {
        loop {
            let i = rng.below(edges.len());
            let (u, v) = edges[i];
            if live[u as usize] && live[v as usize] {
                return i;
            }
            present.remove(&(u, v));
            edges.swap_remove(i);
        }
    }
    fn live_node(rng: &mut Prng, live: &[bool]) -> u32 {
        loop {
            let v = rng.below(live.len());
            if live[v] {
                return v as u32;
            }
        }
    }

    while out.lines < mutations {
        let kind = rng.unit();
        if kind < REWEIGHT {
            let i = live_edge(&mut rng, &mut edges, &mut present, &live);
            let (u, v) = edges[i];
            let w = skewed_weight(&mut rng);
            let _ = writeln!(out.text, "w {u} {v} {w:.3}");
            out.lines += 1;
        } else if kind < REWEIGHT + ADD {
            let (u, v) = (live_node(&mut rng, &live), live_node(&mut rng, &live));
            let key = (u.min(v), u.max(v));
            if u == v || !present.insert(key) {
                continue;
            }
            edges.push(key);
            let w = skewed_weight(&mut rng);
            let _ = writeln!(out.text, "add {u} {v} {w:.3}");
            out.lines += 1;
        } else if kind < REWEIGHT + ADD + DELETE {
            let i = live_edge(&mut rng, &mut edges, &mut present, &live);
            let (u, v) = edges.swap_remove(i);
            present.remove(&(u, v));
            let _ = writeln!(out.text, "del {u} {v}");
            out.lines += 1;
        } else if kind < REWEIGHT + ADD + DELETE + ARRIVAL {
            let id = live.len() as u32;
            let (a, b) = (live_node(&mut rng, &live), live_node(&mut rng, &live));
            if a == b {
                continue;
            }
            live.push(true);
            out.arrived.push(id);
            let _ = writeln!(out.text, "addnode {id}");
            for peer in [a, b] {
                present.insert((peer, id));
                edges.push((peer, id));
                let _ = writeln!(out.text, "add {id} {peer} 1.000");
            }
            out.lines += 3;
        } else {
            let v = live_node(&mut rng, &live);
            live[v as usize] = false;
            out.retired.push(v);
            let _ = writeln!(out.text, "rmnode {v}");
            out.lines += 1;
        }
    }
    out
}

/// Zipf-distributed keys over `0..n` with exponent `s`; ranks are mapped to
/// node ids through a seeded permutation so that popularity is independent
/// of how the graph generator numbers its hubs.
#[derive(Debug, Clone)]
pub struct ZipfKeys {
    cdf: Vec<f64>,
    id_of_rank: Vec<u32>,
}

impl ZipfKeys {
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut rng = Prng::fork(seed, 4);
        let mut id_of_rank: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            id_of_rank.swap(i, rng.below(i + 1));
        }
        ZipfKeys { cdf, id_of_rank }
    }

    pub fn draw(&self, rng: &mut Prng) -> u32 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= u);
        self.id_of_rank[rank.min(self.cdf.len() - 1)]
    }
}

/// One wire request of the serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    TopKAnn(u32),
    TopKExact(u32),
    Cosine(u32, u32),
    Vector(u32),
}

/// The serving op mix: 85% ANN `top_k`, 2% exact `top_k`, 8% `cosine`,
/// 5% `vector`, keys Zipf-distributed.
pub fn queries(keys: &ZipfKeys, count: usize, rng: &mut Prng) -> Vec<Query> {
    (0..count)
        .map(|_| {
            let kind = rng.unit();
            let a = keys.draw(rng);
            if kind < 0.85 {
                Query::TopKAnn(a)
            } else if kind < 0.87 {
                Query::TopKExact(a)
            } else if kind < 0.95 {
                Query::Cosine(a, keys.draw(rng))
            } else {
                Query::Vector(a)
            }
        })
        .collect()
}

/// Poisson arrivals at `rate` per second for `seconds`: the nanosecond
/// offsets at which an open-loop generator is due to send.
pub fn poisson_schedule(rate: f64, seconds: f64, rng: &mut Prng) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate * seconds) as usize + 16);
    let mut t = rng.exponential(rate);
    while t < seconds {
        due.push((t * 1e9) as u64);
        t += rng.exponential(rate);
    }
    due
}

#[cfg(test)]
mod tests {
    use super::*;
    use uninet_dyngraph::read_update_stream_validated;

    #[test]
    fn same_seed_gives_identical_inputs_and_another_seed_differs() {
        assert_eq!(barabasi_albert(500, 5, 7), barabasi_albert(500, 5, 7));
        assert_ne!(barabasi_albert(500, 5, 7), barabasi_albert(500, 5, 8));
        assert_eq!(
            planted_partition(400, 4, 8, 2, 7),
            planted_partition(400, 4, 8, 2, 7)
        );
        assert_ne!(
            planted_partition(400, 4, 8, 2, 7),
            planted_partition(400, 4, 8, 2, 8)
        );
        let list = barabasi_albert(500, 5, 7);
        let a = update_stream(&list, 2_000, 7);
        assert_eq!(
            a.text.as_bytes(),
            update_stream(&list, 2_000, 7).text.as_bytes()
        );
        assert_ne!(a.text, update_stream(&list, 2_000, 8).text);

        let keys = ZipfKeys::new(500, 1.0, 7);
        let draw = |seed| queries(&keys, 300, &mut Prng::fork(seed, 5));
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let due = |seed| poisson_schedule(1_000.0, 1.0, &mut Prng::fork(seed, 6));
        assert_eq!(due(7), due(7));
        assert_ne!(due(7), due(8));
    }

    #[test]
    fn update_stream_passes_the_validated_reader_and_has_every_kind() {
        let list = barabasi_albert(800, 5, 11);
        let stream = update_stream(&list, 4_000, 11);
        let parsed = read_update_stream_validated(stream.text.as_bytes(), list.n)
            .expect("every generated line is valid");
        assert_eq!(parsed.len(), stream.lines);
        assert!(stream.lines >= 4_000);
        for op in ["w ", "add ", "del ", "addnode ", "rmnode "] {
            assert!(
                stream.text.lines().any(|l| l.starts_with(op)),
                "no {op:?} line"
            );
        }
        assert!(!stream.retired.is_empty() && !stream.arrived.is_empty());
    }

    #[test]
    fn update_stream_is_accepted_in_full_by_the_dynamic_graph() {
        let list = barabasi_albert(600, 5, 3);
        let stream = update_stream(&list, 3_000, 3);
        let parsed = read_update_stream_validated(stream.text.as_bytes(), list.n).unwrap();
        let mut dg = uninet_dyngraph::DynamicGraph::new(build_graph(&list), true);
        for m in parsed {
            dg.apply(m);
        }
        assert_eq!(dg.rejected(), 0);
    }

    #[test]
    fn graphs_have_the_requested_shape() {
        let ba = build_graph(&barabasi_albert(2_000, 5, 1));
        assert_eq!(ba.num_nodes(), 2_000);
        assert!(
            (ba.mean_degree() - 10.0).abs() < 0.5,
            "{}",
            ba.mean_degree()
        );
        let pp = build_graph(&planted_partition(1_000, 10, 8, 2, 1));
        assert_eq!(pp.num_nodes(), 1_000);
        assert!(pp.mean_degree() > 15.0 && pp.mean_degree() <= 20.0);
    }

    #[test]
    fn zipf_is_skewed_and_poisson_hits_its_rate() {
        let keys = ZipfKeys::new(1_000, 1.0, 9);
        let mut rng = Prng::fork(9, 5);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..20_000 {
            counts[keys.draw(&mut rng) as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Rank 1 of Zipf(1.0) over 1000 keys has mass 1/H(1000) = 0.134.
        assert!((2_200..3_200).contains(&counts[0]), "{}", counts[0]);
        let due = poisson_schedule(2_000.0, 5.0, &mut rng);
        assert!((9_500..10_500).contains(&due.len()), "{}", due.len());
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
    }
}
