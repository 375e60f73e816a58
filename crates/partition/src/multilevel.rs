//! A from-scratch multilevel k-way min-edge-cut partitioner.
//!
//! This plays the role METIS plays in the paper: Betty only requires "any
//! existing graph partitioning algorithm that minimizes the cut flow"
//! (§4.3.2), and the multilevel scheme — coarsen by heavy-edge matching,
//! partition the small graph greedily, project back while refining with
//! boundary Kernighan–Lin moves — is the same algorithm family.
//!
//! The implementation favours clarity over the last few percent of cut
//! quality: matching is randomized heavy-edge, initial partitioning is
//! greedy graph growing, and refinement is gain-based pass-wise KL with a
//! balance constraint and explicit rebalancing.

use std::collections::VecDeque;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

use betty_graph::CsrGraph;

use crate::{Partitioner, Partitioning};

/// Multilevel k-way partitioner (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct MultilevelPartitioner {
    seed: u64,
    balance_epsilon: f64,
    refinement_passes: usize,
    coarsen_nodes_per_part: usize,
}

impl MultilevelPartitioner {
    /// Creates a partitioner with default tuning (ε = 0.1 balance slack,
    /// 4 refinement passes, coarsening to ~30 nodes per part).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            balance_epsilon: 0.1,
            refinement_passes: 4,
            coarsen_nodes_per_part: 30,
        }
    }

    /// Sets the allowed imbalance: max part weight ≤ (1 + ε) · ideal.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative.
    pub fn with_balance_epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "balance epsilon must be non-negative");
        self.balance_epsilon = epsilon;
        self
    }

    /// Sets the number of refinement passes per level (0 disables
    /// refinement — used by the ablation benches).
    pub fn with_refinement_passes(mut self, passes: usize) -> Self {
        self.refinement_passes = passes;
        self
    }

    /// Builds the K-independent part of a partitioning of `graph`: the
    /// symmetrized finest level. Coarser levels are added on demand by
    /// [`PreparedCut::cut`] and kept for later cuts.
    ///
    /// # Panics
    ///
    /// Panics if `node_weights.len() != graph.num_nodes()`.
    pub fn prepare(&self, graph: &CsrGraph, node_weights: &[f64]) -> PreparedCut {
        assert_eq!(node_weights.len(), graph.num_nodes(), "one weight per node");
        let rng = Pcg64Mcg::seed_from_u64(self.seed);
        PreparedCut {
            config: self.clone(),
            levels: vec![finest_level(graph, node_weights)],
            rng_after: vec![rng],
            exhausted_rng: None,
        }
    }
}

/// Working representation: merged undirected adjacency with weights.
#[derive(Debug)]
struct Level {
    /// Sorted, merged neighbor lists (no self-loops).
    adj: Vec<Vec<(u32, f32)>>,
    node_w: Vec<f64>,
    /// For non-finest levels: fine node -> this level's coarse node.
    fine_to_coarse: Option<Vec<u32>>,
}

impl Level {
    fn num_nodes(&self) -> usize {
        self.adj.len()
    }
}

fn merge_neighbors(mut pairs: Vec<(u32, f32)>) -> Vec<(u32, f32)> {
    pairs.sort_unstable_by_key(|&(v, _)| v);
    let mut out: Vec<(u32, f32)> = Vec::with_capacity(pairs.len());
    for (v, w) in pairs {
        match out.last_mut() {
            Some(last) if last.0 == v => last.1 += w,
            _ => out.push((v, w)),
        }
    }
    out
}

fn finest_level(graph: &CsrGraph, node_weights: &[f64]) -> Level {
    let n = graph.num_nodes();
    let mut adj: Vec<Vec<(u32, f32)>> = vec![Vec::new(); n];
    // Symmetrize: accumulate both directions, drop self-loops.
    for (u, v, w) in graph.iter_edges() {
        if u != v {
            adj[u as usize].push((v, w));
            adj[v as usize].push((u, w));
        }
    }
    let adj = adj.into_iter().map(merge_neighbors).collect();
    Level {
        adj,
        node_w: node_weights.to_vec(),
        fine_to_coarse: None,
    }
}

/// One round of randomized heavy-edge matching; returns the coarse level,
/// or `None` if coarsening made insufficient progress.
fn coarsen(level: &Level, rng: &mut Pcg64Mcg) -> Option<Level> {
    let n = level.num_nodes();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut mate = vec![u32::MAX; n];
    for &u in &order {
        if mate[u as usize] != u32::MAX {
            continue;
        }
        // Heaviest unmatched neighbor.
        let mut best: Option<(u32, f32)> = None;
        for &(v, w) in &level.adj[u as usize] {
            if mate[v as usize] == u32::MAX && v != u {
                match best {
                    Some((_, bw)) if bw >= w => {}
                    _ => best = Some((v, w)),
                }
            }
        }
        match best {
            Some((v, _)) => {
                mate[u as usize] = v;
                mate[v as usize] = u;
            }
            None => mate[u as usize] = u,
        }
    }
    // Assign coarse ids (pair representative = smaller id).
    let mut fine_to_coarse = vec![u32::MAX; n];
    let mut next = 0u32;
    for u in 0..n as u32 {
        if fine_to_coarse[u as usize] != u32::MAX {
            continue;
        }
        let v = mate[u as usize];
        fine_to_coarse[u as usize] = next;
        if v != u && v != u32::MAX {
            fine_to_coarse[v as usize] = next;
        }
        next += 1;
    }
    let coarse_n = next as usize;
    if coarse_n as f64 > 0.95 * n as f64 {
        return None; // no meaningful progress
    }
    let mut node_w = vec![0.0f64; coarse_n];
    for u in 0..n {
        node_w[fine_to_coarse[u] as usize] += level.node_w[u];
    }
    let mut adj: Vec<Vec<(u32, f32)>> = vec![Vec::new(); coarse_n];
    for u in 0..n {
        let cu = fine_to_coarse[u];
        for &(v, w) in &level.adj[u] {
            let cv = fine_to_coarse[v as usize];
            if cu != cv {
                adj[cu as usize].push((cv, w));
            }
        }
    }
    let adj = adj.into_iter().map(merge_neighbors).collect();
    Some(Level {
        adj,
        node_w,
        fine_to_coarse: Some(fine_to_coarse),
    })
}

/// Greedy graph-growing initial partitioning of the coarsest level.
fn initial_partition(level: &Level, k: usize, rng: &mut Pcg64Mcg) -> Vec<u32> {
    let n = level.num_nodes();
    let total: f64 = level.node_w.iter().sum();
    let mut assignment = vec![u32::MAX; n];
    let mut unassigned = n;
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut cursor = 0usize;

    for p in 0..k.saturating_sub(1) as u32 {
        if unassigned == 0 {
            break;
        }
        let remaining_parts = (k as u32 - p) as f64;
        let assigned_w: f64 = (0..n)
            .filter(|&u| assignment[u] != u32::MAX)
            .map(|u| level.node_w[u])
            .sum();
        let target = (total - assigned_w) / remaining_parts;
        // Find an unassigned seed.
        while cursor < n && assignment[order[cursor] as usize] != u32::MAX {
            cursor += 1;
        }
        if cursor >= n {
            break;
        }
        let seed = order[cursor];
        let mut grown = 0.0f64;
        let mut queue = VecDeque::from([seed]);
        assignment[seed as usize] = p;
        unassigned -= 1;
        grown += level.node_w[seed as usize];
        while grown < target && unassigned > 0 {
            let u = match queue.pop_front() {
                Some(u) => u,
                None => {
                    // Disconnected remainder: jump to a fresh seed.
                    while cursor < n && assignment[order[cursor] as usize] != u32::MAX {
                        cursor += 1;
                    }
                    if cursor >= n {
                        break;
                    }
                    let s = order[cursor];
                    assignment[s as usize] = p;
                    unassigned -= 1;
                    grown += level.node_w[s as usize];
                    s
                }
            };
            for &(v, _) in &level.adj[u as usize] {
                if grown >= target {
                    break;
                }
                if assignment[v as usize] == u32::MAX {
                    assignment[v as usize] = p;
                    unassigned -= 1;
                    grown += level.node_w[v as usize];
                    queue.push_back(v);
                }
            }
        }
    }
    // Everything left goes to the last part.
    for a in assignment.iter_mut() {
        if *a == u32::MAX {
            *a = (k - 1) as u32;
        }
    }
    assignment
}

/// Gain-based pass-wise KL refinement with balance constraint.
///
/// Each pass runs a single-node *move* sweep (greedy gain, balance-capped)
/// followed by a pairwise *swap* sweep — the swaps escape the local optimum
/// where both parts sit at the weight cap and no single move is feasible.
fn refine(
    level: &Level,
    assignment: &mut [u32],
    k: usize,
    max_part_w: f64,
    passes: usize,
    rng: &mut Pcg64Mcg,
) {
    let n = level.num_nodes();
    let mut part_w = vec![0.0f64; k];
    for u in 0..n {
        part_w[assignment[u] as usize] += level.node_w[u];
    }
    let mut part_count = vec![0usize; k];
    for u in 0..n {
        part_count[assignment[u] as usize] += 1;
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    for _ in 0..passes {
        order.shuffle(rng);
        let moved = move_pass(
            level,
            assignment,
            &mut part_w,
            &mut part_count,
            k,
            max_part_w,
            &order,
        );
        let swapped = swap_pass(level, assignment, &mut part_w, k, max_part_w);
        if moved + swapped == 0 {
            break;
        }
    }
}

/// Greedy single-node moves. A move is allowed into a part that stays under
/// the cap, or that remains strictly lighter than the source part (which
/// always improves balance even when both exceed the cap).
fn move_pass(
    level: &Level,
    assignment: &mut [u32],
    part_w: &mut [f64],
    part_count: &mut [usize],
    k: usize,
    max_part_w: f64,
    order: &[u32],
) -> usize {
    let mut conn = vec![0.0f32; k];
    let mut moved = 0usize;
    for &u in order {
        let u = u as usize;
        let cp = assignment[u] as usize;
        if part_count[cp] <= 1 {
            continue; // never empty a part
        }
        for c in conn.iter_mut() {
            *c = 0.0;
        }
        let mut touches_other = false;
        for &(v, w) in &level.adj[u] {
            let p = assignment[v as usize] as usize;
            conn[p] += w;
            if p != cp {
                touches_other = true;
            }
        }
        if !touches_other && part_w[cp] <= max_part_w {
            continue; // interior node in a feasible part
        }
        let uw = level.node_w[u];
        let mut best: Option<(usize, f32)> = None;
        for p in 0..k {
            if p == cp {
                continue;
            }
            let fits_cap = part_w[p] + uw <= max_part_w;
            let improves = part_w[p] + uw < part_w[cp];
            if !fits_cap && !improves {
                continue;
            }
            let gain = conn[p] - conn[cp];
            if best.is_none_or(|(_, bg)| gain > bg) {
                best = Some((p, gain));
            }
        }
        if let Some((p, gain)) = best {
            let overweight = part_w[cp] > max_part_w;
            if gain > 0.0 || (gain == 0.0 && overweight) {
                assignment[u] = p as u32;
                part_w[cp] -= uw;
                part_w[p] += uw;
                part_count[cp] -= 1;
                part_count[p] += 1;
                moved += 1;
            }
        }
    }
    moved
}

/// Weight of edge `u → v` at this level (0 when absent); neighbor lists are
/// sorted, so a binary search suffices.
fn edge_weight(level: &Level, u: usize, v: u32) -> f32 {
    level.adj[u]
        .binary_search_by_key(&v, |&(n, _)| n)
        .map(|i| level.adj[u][i].1)
        .unwrap_or(0.0)
}

/// Kernighan–Lin style pairwise swaps: for every (from, to) part pair keep
/// the two highest-gain migration candidates, then exchange the best
/// combination whose joint gain — corrected by twice the direct edge weight
/// between the swapped nodes — is positive and weight-feasible.
fn swap_pass(
    level: &Level,
    assignment: &mut [u32],
    part_w: &mut [f64],
    k: usize,
    max_part_w: f64,
) -> usize {
    if k < 2 {
        return 0;
    }
    const CANDIDATES: usize = 2;
    // best[(from, to)]: up to two (gain, node) candidates, best first.
    // Sparse: a dense k×k table explodes for large k (a user asking for
    // thousands of parts would otherwise OOM here), and only pairs with a
    // boundary node between them matter anyway.
    let mut best: std::collections::HashMap<(usize, usize), Vec<(f32, u32)>> =
        std::collections::HashMap::new();
    // For modest k, consider every target part (zero-gain partners from
    // untouched parts matter — e.g. swapping an isolated node out of the
    // way of a heavy pair). For large k that dense enumeration is
    // quadratic, so restrict to parts the node actually touches.
    let dense = k <= 256;
    let mut conn: std::collections::HashMap<usize, f32> = std::collections::HashMap::new();
    for u in 0..level.num_nodes() {
        let cp = assignment[u] as usize;
        conn.clear();
        for &(v, w) in &level.adj[u] {
            *conn.entry(assignment[v as usize] as usize).or_insert(0.0) += w;
        }
        let own = conn.get(&cp).copied().unwrap_or(0.0);
        let push = |p: usize, gain: f32, best: &mut std::collections::HashMap<(usize, usize), Vec<(f32, u32)>>| {
            let slot = best.entry((cp, p)).or_default();
            slot.push((gain, u as u32));
            slot.sort_by(|a, b| b.0.total_cmp(&a.0));
            slot.truncate(CANDIDATES);
        };
        if dense {
            for p in 0..k {
                if p != cp {
                    push(p, conn.get(&p).copied().unwrap_or(0.0) - own, &mut best);
                }
            }
        } else {
            // Fixed part order: HashMap iteration order differs between
            // otherwise-identical calls, and push order breaks gain ties.
            let mut touched: Vec<(usize, f32)> = conn.iter().map(|(&p, &c)| (p, c)).collect();
            touched.sort_unstable_by_key(|&(p, _)| p);
            for (p, c) in touched {
                if p != cp {
                    push(p, c - own, &mut best);
                }
            }
        }
    }
    // Swaps mutate part weights, so later pairs see earlier pairs' moves:
    // the pair order must be fixed or two identical calls can return
    // different partitions (HashMap key order is instance-random).
    let mut pairs: Vec<(usize, usize)> = best.keys().copied().filter(|&(a, b)| a < b).collect();
    pairs.sort_unstable();
    let empty: Vec<(f32, u32)> = Vec::new();
    let mut swapped = 0usize;
    for (a, b) in pairs {
        {
            let forward = best.get(&(a, b)).unwrap_or(&empty).clone();
            let backward = best.get(&(b, a)).unwrap_or(&empty).clone();
            let mut done = false;
            for &(ga, u) in &forward {
                if done {
                    break;
                }
                for &(gb, v) in &backward {
                    // Candidate lists are stale after any swap this pass;
                    // one swap per part pair keeps the math exact.
                    let joint = ga + gb - 2.0 * edge_weight(level, u as usize, v);
                    if joint <= 0.0 {
                        continue;
                    }
                    let (wu, wv) = (level.node_w[u as usize], level.node_w[v as usize]);
                    let new_a = part_w[a] - wu + wv;
                    let new_b = part_w[b] - wv + wu;
                    let cap = max_part_w.max(part_w[a]).max(part_w[b]);
                    if new_a > cap || new_b > cap {
                        continue;
                    }
                    assignment[u as usize] = b as u32;
                    assignment[v as usize] = a as u32;
                    part_w[a] = new_a;
                    part_w[b] = new_b;
                    swapped += 1;
                    done = true;
                    break;
                }
            }
        }
    }
    swapped
}

/// Moves nodes out of overweight parts (lowest connectivity loss first)
/// until every part fits `max_part_w`, where possible.
fn rebalance(level: &Level, assignment: &mut [u32], k: usize, max_part_w: f64) {
    let n = level.num_nodes();
    let mut part_w = vec![0.0f64; k];
    for u in 0..n {
        part_w[assignment[u] as usize] += level.node_w[u];
    }
    for _ in 0..n {
        let Some(over) = (0..k).find(|&p| part_w[p] > max_part_w) else {
            break;
        };
        // Lightest destination part.
        let dest = (0..k)
            .filter(|&p| p != over)
            .min_by(|&a, &b| part_w[a].total_cmp(&part_w[b]))
            .expect("k >= 2 when a part can be overweight");
        // Cheapest *feasible* node to move: the destination must stay under
        // the cap (otherwise a single huge node — e.g. a heavy hub — would
        // be shuttled around, making balance worse). Cost is the cut-weight
        // delta of the move.
        let cost = |u: usize| -> f32 {
            level.adj[u]
                .iter()
                .map(|&(v, w)| {
                    if assignment[v as usize] as usize == over {
                        w
                    } else if assignment[v as usize] as usize == dest {
                        -w
                    } else {
                        0.0
                    }
                })
                .sum()
        };
        let candidate = (0..n)
            .filter(|&u| {
                assignment[u] as usize == over && part_w[dest] + level.node_w[u] <= max_part_w
            })
            .min_by(|&a, &b| cost(a).total_cmp(&cost(b)));
        match candidate {
            Some(u) => {
                part_w[over] -= level.node_w[u];
                part_w[dest] += level.node_w[u];
                assignment[u] = dest as u32;
            }
            // No feasible move (the part is heavy because of one huge
            // node): leave it — the weight model, not the cut, is at fault.
            None => break,
        }
    }
}

/// Ensures all `k` parts are non-empty by stealing from the largest part.
fn fix_empty_parts(level: &Level, assignment: &mut [u32], k: usize) {
    let n = level.num_nodes();
    if n < k {
        return;
    }
    loop {
        let mut count = vec![0usize; k];
        for &a in assignment.iter() {
            count[a as usize] += 1;
        }
        let Some(empty) = (0..k).find(|&p| count[p] == 0) else {
            return;
        };
        let largest = (0..k)
            .max_by_key(|&p| count[p])
            .expect("k > 0");
        let victim = (0..n)
            .find(|&u| assignment[u] as usize == largest)
            .expect("largest part non-empty");
        assignment[victim] = empty as u32;
    }
}

/// A graph ready to be cut at any `k`, sharing one coarsening hierarchy
/// between cuts.
///
/// Coarsening depends on `k` only through where it stops (at
/// `max(30·k, 64)` nodes), and each level is one heavy-edge matching drawn
/// from the partitioner's RNG. The hierarchy is therefore one chain of
/// levels, and a cut at `k` uses a prefix of it. Caching each level with
/// the RNG state that followed its matching makes [`PreparedCut::cut`]
/// bit-identical to a fresh [`Partitioner::partition_weighted`] call.
#[derive(Debug)]
pub struct PreparedCut {
    config: MultilevelPartitioner,
    levels: Vec<Level>,
    /// `rng_after[i]`: the RNG right after level `i` was built;
    /// `rng_after[0]` is freshly seeded.
    rng_after: Vec<Pcg64Mcg>,
    /// The RNG after a coarsening attempt on the last level that made too
    /// little progress; `Some` once the hierarchy can grow no further.
    exhausted_rng: Option<Pcg64Mcg>,
}

impl PreparedCut {
    /// Partitions the prepared graph into `k` parts; equal to
    /// `partition_weighted(graph, node_weights, k)` on the same
    /// partitioner.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn cut(&mut self, k: usize) -> Partitioning {
        assert!(k > 0, "k must be positive");
        let n = self.levels[0].num_nodes();
        if k == 1 || n <= 1 {
            return Partitioning::new(vec![0; n], k.max(1));
        }

        // Coarsening phase: the levels a fresh run would build for `k`.
        let target = (self.config.coarsen_nodes_per_part * k).max(64);
        let mut depth = 0;
        let mut rng = loop {
            if self.levels[depth].num_nodes() <= target {
                break self.rng_after[depth].clone();
            }
            if depth + 1 == self.levels.len() {
                if let Some(rng) = &self.exhausted_rng {
                    break rng.clone();
                }
                let mut rng = self.rng_after[depth].clone();
                match coarsen(&self.levels[depth], &mut rng) {
                    Some(coarse) => {
                        self.levels.push(coarse);
                        self.rng_after.push(rng);
                    }
                    None => {
                        self.exhausted_rng = Some(rng.clone());
                        break rng;
                    }
                }
            }
            depth += 1;
        };
        let levels = &self.levels[..=depth];

        let total: f64 = levels[0].node_w.iter().sum();
        let max_part_w = (1.0 + self.config.balance_epsilon) * total / k as f64;
        let passes = self.config.refinement_passes;

        // Initial partition on the coarsest level.
        let coarsest = &levels[depth];
        let mut assignment = initial_partition(coarsest, k, &mut rng);
        fix_empty_parts(coarsest, &mut assignment, k);
        refine(coarsest, &mut assignment, k, max_part_w, passes, &mut rng);

        // Uncoarsening: project and refine at each finer level.
        for li in (0..depth).rev() {
            let fine_to_coarse = levels[li + 1]
                .fine_to_coarse
                .as_ref()
                .expect("coarse levels carry projection maps");
            let fine_assignment: Vec<u32> = (0..levels[li].num_nodes())
                .map(|u| assignment[fine_to_coarse[u] as usize])
                .collect();
            assignment = fine_assignment;
            refine(&levels[li], &mut assignment, k, max_part_w, passes, &mut rng);
        }

        let finest = &levels[0];
        rebalance(finest, &mut assignment, k, max_part_w);
        fix_empty_parts(finest, &mut assignment, k);
        Partitioning::new(assignment, k)
    }
}

impl Partitioner for MultilevelPartitioner {
    fn name(&self) -> &'static str {
        "metis-like"
    }

    fn partition_weighted(
        &self,
        graph: &CsrGraph,
        node_weights: &[f64],
        k: usize,
    ) -> Partitioning {
        assert!(k > 0, "k must be positive");
        self.prepare(graph, node_weights).cut(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betty_graph::NodeId;

    /// Builds a symmetric graph from undirected edge pairs.
    fn undirected(n: usize, edges: &[(NodeId, NodeId)]) -> CsrGraph {
        let sym: Vec<(NodeId, NodeId)> = edges
            .iter()
            .flat_map(|&(u, v)| [(u, v), (v, u)])
            .collect();
        CsrGraph::from_edges(n, &sym)
    }

    #[test]
    fn splits_two_cliques_perfectly() {
        // Two K4 cliques joined by a single edge.
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                edges.push((a, b));
                edges.push((a + 4, b + 4));
            }
        }
        edges.push((3, 4));
        let g = undirected(8, &edges);
        let p = MultilevelPartitioner::new(1).partition(&g, 2);
        assert_eq!(p.edge_cut(&g), 2.0, "only the bridge is cut");
        assert_eq!(p.part_sizes(), vec![4, 4]);
    }

    #[test]
    fn respects_balance_on_path() {
        let edges: Vec<(NodeId, NodeId)> = (0..99).map(|i| (i, i + 1)).collect();
        let g = undirected(100, &edges);
        let p = MultilevelPartitioner::new(2).partition(&g, 4);
        assert!(p.all_parts_nonempty());
        let balance = p.balance(&vec![1.0; 100]);
        assert!(balance <= 1.15, "balance {balance}");
        // A path cut into 4 balanced chunks needs ≥ 3 undirected cuts; a
        // decent partitioner should stay close to that.
        assert!(p.edge_cut(&g) <= 16.0, "cut {}", p.edge_cut(&g));
    }

    #[test]
    fn weighted_cut_prefers_light_edges() {
        // Square 0-1-2-3 with heavy edges 0-1 and 2-3, light 1-2 and 3-0.
        let g = CsrGraph::from_weighted_edges(
            4,
            [
                (0u32, 1u32, 10.0f32),
                (1, 0, 10.0),
                (2, 3, 10.0),
                (3, 2, 10.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (3, 0, 1.0),
                (0, 3, 1.0),
            ],
            true,
        );
        let p = MultilevelPartitioner::new(3).partition(&g, 2);
        // Two light undirected edges, each stored in both directions.
        assert_eq!(p.edge_cut(&g), 4.0, "cuts only the two light edges");
        assert_eq!(p.part_of(0), p.part_of(1));
        assert_eq!(p.part_of(2), p.part_of(3));
    }

    #[test]
    fn node_weights_steer_balance() {
        // Star with a heavy hub: hub should sit alone-ish.
        let edges: Vec<(NodeId, NodeId)> = (1..9).map(|v| (0, v)).collect();
        let g = undirected(9, &edges);
        let mut w = vec![1.0; 9];
        w[0] = 8.0;
        let p = MultilevelPartitioner::new(4).partition_weighted(&g, &w, 2);
        let pw = p.part_weights(&w);
        let imbalance = pw.iter().cloned().fold(0.0, f64::max) / (16.0 / 2.0);
        assert!(imbalance <= 1.3, "weighted imbalance {imbalance}");
    }

    #[test]
    fn k_equals_one() {
        let g = undirected(5, &[(0, 1), (1, 2)]);
        let p = MultilevelPartitioner::new(0).partition(&g, 1);
        assert_eq!(p.part_sizes(), vec![5]);
        assert_eq!(p.edge_cut(&g), 0.0);
    }

    #[test]
    fn handles_disconnected_graph() {
        let g = undirected(10, &[(0, 1), (2, 3), (4, 5)]);
        let p = MultilevelPartitioner::new(7).partition(&g, 3);
        assert!(p.all_parts_nonempty());
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 10);
    }

    #[test]
    fn handles_graph_with_no_edges() {
        let g = CsrGraph::from_edges(6, &[]);
        let p = MultilevelPartitioner::new(0).partition(&g, 3);
        assert!(p.all_parts_nonempty());
        assert!(p.balance(&[1.0; 6]) <= 1.5);
    }

    #[test]
    fn deterministic_for_seed() {
        let edges: Vec<(NodeId, NodeId)> = (0..49).map(|i| (i, i + 1)).collect();
        let g = undirected(50, &edges);
        let a = MultilevelPartitioner::new(9).partition(&g, 4);
        let b = MultilevelPartitioner::new(9).partition(&g, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_on_dense_graph_with_swaps() {
        use rand::Rng;
        use rand::SeedableRng;
        // A path graph never exercises the swap pass, so this uses a dense
        // random graph where refinement finds many candidate swaps. Before
        // pair ordering was fixed, two identical calls in the same process
        // could return different partitions (HashMap iteration order).
        let mut rng = Pcg64Mcg::seed_from_u64(23);
        let mut edges = Vec::new();
        for _ in 0..1200 {
            let u = rng.gen_range(0..120u32);
            let v = rng.gen_range(0..120u32);
            if u != v {
                edges.push((u, v));
            }
        }
        let g = undirected(120, &edges);
        for k in [2usize, 4, 8] {
            let a = MultilevelPartitioner::new(7).partition(&g, k);
            let b = MultilevelPartitioner::new(7).partition(&g, k);
            assert_eq!(a, b, "repeated calls must agree at k={k}");
        }
    }

    #[test]
    fn beats_random_on_community_graph() {
        use rand::Rng;
        use rand::SeedableRng;
        // Four planted communities of 25 nodes; dense inside, sparse across.
        let mut rng = Pcg64Mcg::seed_from_u64(11);
        let mut edges = Vec::new();
        for c in 0..4u32 {
            for _ in 0..150 {
                let u = c * 25 + rng.gen_range(0..25);
                let v = c * 25 + rng.gen_range(0..25);
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        for _ in 0..40 {
            let u = rng.gen_range(0..100);
            let v = rng.gen_range(0..100);
            if u != v {
                edges.push((u, v));
            }
        }
        let g = undirected(100, &edges);
        let ml = MultilevelPartitioner::new(5).partition(&g, 4);
        let rnd = crate::RandomPartitioner::new(5).partition(&g, 4);
        assert!(
            ml.edge_cut(&g) < 0.5 * rnd.edge_cut(&g),
            "multilevel {} vs random {}",
            ml.edge_cut(&g),
            rnd.edge_cut(&g)
        );
    }

    #[test]
    fn refinement_improves_cut() {
        use rand::Rng;
        let mut rng = Pcg64Mcg::seed_from_u64(13);
        let mut edges = Vec::new();
        for c in 0..2u32 {
            for _ in 0..200 {
                let u = c * 50 + rng.gen_range(0..50);
                let v = c * 50 + rng.gen_range(0..50);
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        for _ in 0..30 {
            edges.push((rng.gen_range(0..50), 50 + rng.gen_range(0..50)));
        }
        let g = undirected(100, &edges);
        let refined = MultilevelPartitioner::new(1).partition(&g, 2);
        let unrefined = MultilevelPartitioner::new(1)
            .with_refinement_passes(0)
            .partition(&g, 2);
        assert!(refined.edge_cut(&g) <= unrefined.edge_cut(&g));
    }
}
