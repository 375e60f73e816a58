//! Property tests over the partitioning stack: random graphs in, paper
//! invariants out.

use std::collections::HashSet;

use betty_graph::{sample_batch, shared_neighbor_graph, Batch, CsrGraph, NodeId};
use betty_partition::{
    input_redundancy, MultilevelPartitioner, OutputPartitioner, Partitioner, RandomPartitioner,
    RangePartitioner, RegPartitioner, RegScope,
};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_pcg::Pcg64Mcg;

/// Strategy: a random directed graph as (n, edges).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    arb_graph_of(10..60)
}

/// Strategy: a random directed graph with a node count drawn from `nodes`.
fn arb_graph_of(
    nodes: std::ops::Range<usize>,
) -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    nodes.prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..(n * 4));
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn multilevel_partition_is_complete_and_nonempty((n, edges) in arb_graph(), k in 2usize..6) {
        let g = CsrGraph::from_edges(n, &edges);
        let p = MultilevelPartitioner::new(0).partition(&g, k);
        prop_assert_eq!(p.assignment().len(), n);
        prop_assert_eq!(p.part_sizes().iter().sum::<usize>(), n);
        if n >= k {
            prop_assert!(p.all_parts_nonempty());
        }
    }

    #[test]
    fn edge_cut_is_consistent_with_assignment((n, edges) in arb_graph(), k in 2usize..5) {
        let g = CsrGraph::from_edges(n, &edges);
        let p = MultilevelPartitioner::new(1).partition(&g, k);
        // Recompute the cut by hand.
        let manual: f64 = edges
            .iter()
            .filter(|&&(u, v)| p.part_of(u) != p.part_of(v))
            .count() as f64;
        prop_assert_eq!(p.edge_cut(&g), manual);
    }

    #[test]
    fn reg_weights_match_brute_force_shared_neighbors((n, edges) in arb_graph()) {
        // Build a one-layer batch over a few seeds and check REG weights.
        let g = CsrGraph::from_edges(n, &edges);
        let seeds: Vec<NodeId> = (0..(n as NodeId).min(6)).collect();
        let mut rng = Pcg64Mcg::seed_from_u64(7);
        let batch = sample_batch(&g, &seeds, &[usize::MAX], &mut rng);
        let block = batch.blocks().last().unwrap();
        let reg = shared_neighbor_graph(block);
        for i in 0..block.num_dst() {
            let src_i: HashSet<u32> = block.in_edges(i).iter().copied().collect();
            for j in 0..block.num_dst() {
                if i == j { continue; }
                let src_j: HashSet<u32> = block.in_edges(j).iter().copied().collect();
                let expected = src_i.intersection(&src_j).count() as f32;
                let actual = reg
                    .neighbors(i as u32)
                    .iter()
                    .position(|&v| v == j as u32)
                    .map(|p| reg.neighbor_weights(i as u32).unwrap()[p])
                    .unwrap_or(0.0);
                prop_assert_eq!(actual, expected, "pair ({}, {})", i, j);
            }
        }
    }

    #[test]
    fn micro_batches_partition_outputs_exactly((n, edges) in arb_graph(), k in 2usize..5) {
        let g = CsrGraph::from_edges(n, &edges);
        let seeds: Vec<NodeId> = (0..(n as NodeId).min(12)).collect();
        let mut rng = Pcg64Mcg::seed_from_u64(3);
        let batch = sample_batch(&g, &seeds, &[3, 5], &mut rng);
        for strategy in [
            Box::new(RegPartitioner::new(2)) as Box<dyn OutputPartitioner>,
            Box::new(betty_partition::OutputGraphPartitioner::new(RangePartitioner::new())),
            Box::new(betty_partition::OutputGraphPartitioner::new(RandomPartitioner::new(5))),
        ] {
            let parts = strategy.split_outputs(&batch, k);
            // Disjoint union equals the full output set.
            let mut all: Vec<NodeId> = parts.iter().flatten().copied().collect();
            let unique: HashSet<NodeId> = all.iter().copied().collect();
            prop_assert_eq!(unique.len(), all.len(), "{}: overlap", strategy.name());
            all.sort_unstable();
            let mut expected = batch.output_nodes().to_vec();
            expected.sort_unstable();
            prop_assert_eq!(all, expected, "{}: coverage", strategy.name());
        }
    }

    #[test]
    fn restricted_micro_batches_are_self_contained((n, edges) in arb_graph(), k in 2usize..5) {
        let g = CsrGraph::from_edges(n, &edges);
        let seeds: Vec<NodeId> = (0..(n as NodeId).min(10)).collect();
        let mut rng = Pcg64Mcg::seed_from_u64(9);
        let batch = sample_batch(&g, &seeds, &[4, 4], &mut rng);
        let parts = RegPartitioner::new(0).split_outputs(&batch, k);
        for part in parts.iter().filter(|p| !p.is_empty()) {
            let micro = batch.restrict(part);
            prop_assert!(micro.validate().is_ok());
            // Every kept destination keeps its complete sampled in-edge
            // set: per-dst degree matches the full batch's top block.
            let full_top = batch.blocks().last().unwrap();
            let micro_top = micro.blocks().last().unwrap();
            for (local, &gid) in micro_top.dst_globals().iter().enumerate() {
                let full_local = full_top
                    .dst_globals()
                    .iter()
                    .position(|&v| v == gid)
                    .unwrap();
                prop_assert_eq!(
                    micro_top.in_degree(local),
                    full_top.in_degree(full_local),
                    "dst {} lost edges", gid
                );
            }
        }
    }

    #[test]
    fn redundancy_is_at_least_unique_count((n, edges) in arb_graph(), k in 2usize..5) {
        let g = CsrGraph::from_edges(n, &edges);
        let seeds: Vec<NodeId> = (0..(n as NodeId).min(10)).collect();
        let mut rng = Pcg64Mcg::seed_from_u64(4);
        let batch = sample_batch(&g, &seeds, &[3], &mut rng);
        let parts = RegPartitioner::new(0).split_outputs(&batch, k);
        let micros: Vec<Batch> = parts
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| batch.restrict(p))
            .collect();
        let report = input_redundancy(&micros);
        prop_assert!(report.total_input_nodes >= report.unique_input_nodes);
        prop_assert!(report.redundancy_ratio() >= 1.0);
        // The union of micro-batch inputs equals the full batch's inputs.
        let mut union: HashSet<NodeId> = HashSet::new();
        for m in &micros {
            union.extend(m.input_nodes().iter().copied());
        }
        let full: HashSet<NodeId> = batch.input_nodes().iter().copied().collect();
        prop_assert_eq!(union, full);
    }
}

/// Strategy: a graph with up to 200 nodes, so that cuts at
/// small `k` coarsen it several times, as (n, edges, node weights). Edges
/// stay inside `components` blocks of consecutive ids, so the graph is
/// disconnected when there are several; density 0 gives no edges at all.
#[allow(clippy::type_complexity)]
fn arb_coarsenable_graph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>, Vec<f64>)> {
    (1usize..200, 1usize..4, 0usize..4).prop_flat_map(|(n, components, density)| {
        let block = n.div_ceil(components) as NodeId;
        let edges = proptest::collection::vec((0..n as NodeId, 0..block), 0..n * density + 1)
            .prop_map(move |pairs| {
                pairs
                    .into_iter()
                    .map(|(u, offset)| (u, (u / block * block + offset).min(n as NodeId - 1)))
                    .collect::<Vec<_>>()
            });
        let weights = proptest::collection::vec(1u32..5, n)
            .prop_map(|w| w.into_iter().map(f64::from).collect::<Vec<_>>());
        (Just(n), edges, weights)
    })
}

/// Strategy: `k`s to cut at, with repeats, in an order given by a seed.
fn arb_k_sequence() -> impl Strategy<Value = (Vec<usize>, u64)> {
    (proptest::collection::vec(1usize..12, 1..6), 0u64..1000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prepared_cut_equals_fresh_partition(
        (n, edges, weights) in arb_coarsenable_graph(),
        (mut ks, order_seed) in arb_k_sequence(),
    ) {
        let g = CsrGraph::from_edges(n, &edges);
        let cutter = MultilevelPartitioner::new(order_seed);
        // One k a second time, and more parts than nodes where that stays
        // cheap (refinement is quadratic in k).
        ks.push(ks[0]);
        if n <= 60 {
            ks.push(n + 1);
        }
        ks.shuffle(&mut Pcg64Mcg::seed_from_u64(order_seed));
        let mut prepared = cutter.prepare(&g, &weights);
        for k in ks {
            prop_assert_eq!(
                prepared.cut(k),
                cutter.partition_weighted(&g, &weights, k),
                "k = {}", k
            );
        }
    }

    #[test]
    fn prepared_reg_split_equals_split_outputs(
        (n, edges) in arb_graph_of(140..300),
        (mut ks, order_seed) in arb_k_sequence(),
    ) {
        let g = CsrGraph::from_edges(n, &edges);
        let seeds: Vec<NodeId> = (0..n as NodeId).step_by(2).collect();
        let mut rng = Pcg64Mcg::seed_from_u64(order_seed);
        let batch = sample_batch(&g, &seeds, &[3, 4], &mut rng);
        ks.push(ks[0]);
        ks.shuffle(&mut rng);
        for scope in [RegScope::LastLayer, RegScope::FullDependency] {
            let strategy = RegPartitioner::new(order_seed).with_scope(scope);
            let mut prepared = strategy.prepare(&batch);
            for &k in &ks {
                prop_assert_eq!(
                    prepared.split(k),
                    strategy.split_outputs(&batch, k),
                    "{:?}, k = {}", scope, k
                );
            }
        }
    }
}

#[test]
fn betty_beats_random_redundancy_on_community_batches() {
    // Deterministic end-check of the Fig. 16 direction at test scale.
    let ds = betty_data::DatasetSpec::ogbn_arxiv()
        .scaled(0.004)
        .with_feature_dim(8)
        .generate(2);
    let mut rng = Pcg64Mcg::seed_from_u64(1);
    let seeds: Vec<NodeId> = ds.train_idx.iter().copied().take(120).collect();
    let batch = sample_batch(&ds.graph, &seeds, &[6, 8], &mut rng);
    let measure = |strategy: &dyn OutputPartitioner| {
        let parts = strategy.split_outputs(&batch, 8);
        let micros: Vec<Batch> = parts
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| batch.restrict(p))
            .collect();
        input_redundancy(&micros).redundant_nodes()
    };
    let betty = measure(&RegPartitioner::new(0));
    let random = measure(&betty_partition::OutputGraphPartitioner::new(
        RandomPartitioner::new(0),
    ));
    assert!(
        betty < random,
        "betty {betty} redundant nodes vs random {random}"
    );
}
