//! Seeded random instance generation.
//!
//! Draws a two-tier edge cloud (GT-ITM-style: every node pair linked with
//! the configured probability; links touching a data center model Internet
//! paths with higher delay), then datasets and queries with the paper's
//! distributions. The same seed always produces the same instance, so the
//! experiment harness can evaluate all algorithms on identical topologies.

use edgerep_graph::connectivity::{connect_components, is_connected};
use edgerep_graph::NodeId;
use edgerep_model::prelude::*;
use edgerep_rng::SmallRng;

use crate::params::{Range, TopologyModel, WorkloadParams};

fn draw(rng: &mut SmallRng, (lo, hi): Range) -> f64 {
    if lo == hi {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

fn draw_int(rng: &mut SmallRng, (lo, hi): (usize, usize)) -> usize {
    rng.gen_range(lo..=hi)
}

/// Generates one instance from `params` and a seed.
///
/// # Panics
/// Panics if `params` fails [`WorkloadParams::validate`].
pub fn generate_instance(params: &WorkloadParams, seed: u64) -> Instance {
    if let Err(e) = params.validate() {
        panic!("invalid workload parameters: {e}");
    }
    let mut rng = SmallRng::seed_from_u64(seed);

    // --- Topology ------------------------------------------------------
    let mut builder = EdgeCloudBuilder::new();
    let mut dc_ids = Vec::with_capacity(params.data_centers);
    for _ in 0..params.data_centers {
        dc_ids.push(builder.add_data_center(
            draw(&mut rng, params.dc_capacity),
            draw(&mut rng, params.dc_proc_delay),
        ));
    }
    let mut cl_ids = Vec::with_capacity(params.cloudlets);
    for _ in 0..params.cloudlets {
        cl_ids.push(builder.add_cloudlet(
            draw(&mut rng, params.cloudlet_capacity),
            draw(&mut rng, params.cloudlet_proc_delay),
        ));
    }
    let mut graph_nodes: Vec<(NodeId, bool)> = Vec::new(); // (node, is_dc)
    for &dc in &dc_ids {
        graph_nodes.push((builder.graph_node(dc), true));
    }
    for &cl in &cl_ids {
        graph_nodes.push((builder.graph_node(cl), false));
    }
    for _ in 0..params.switches {
        graph_nodes.push((builder.add_switch(), false));
    }
    match params.topology {
        TopologyModel::FlatRandom => {
            // GT-ITM flat model: each pair linked with probability 0.2
            // (§4.1); links that touch a data center are Internet paths.
            for i in 0..graph_nodes.len() {
                for j in (i + 1)..graph_nodes.len() {
                    if rng.gen_bool(params.link_probability) {
                        let internet = graph_nodes[i].1 || graph_nodes[j].1;
                        let delay = draw(
                            &mut rng,
                            if internet {
                                params.internet_link_delay
                            } else {
                                params.wman_link_delay
                            },
                        );
                        builder.link_graph(graph_nodes[i].0, graph_nodes[j].0, delay);
                    }
                }
            }
        }
        TopologyModel::TransitStub => {
            // GT-ITM transit-stub: switches are the transit core (dense,
            // fast), cloudlets form stub domains hanging off one transit
            // node each, DCs reach the core over Internet links.
            let transit: Vec<NodeId> = graph_nodes
                .iter()
                .skip(params.data_centers + params.cloudlets)
                .map(|&(n, _)| n)
                .collect();
            debug_assert_eq!(transit.len(), params.switches);
            // Dense core: ring + chords with p = 0.6.
            for i in 0..transit.len() {
                let j = (i + 1) % transit.len();
                if transit.len() > 1 && i != j {
                    builder.link_graph(
                        transit[i],
                        transit[j],
                        draw(&mut rng, params.wman_link_delay),
                    );
                }
                for k in (i + 2)..transit.len() {
                    if rng.gen_bool(0.6) {
                        builder.link_graph(
                            transit[i],
                            transit[k],
                            draw(&mut rng, params.wman_link_delay),
                        );
                    }
                }
            }
            // Stub domains: cloudlets split round-robin over transit
            // nodes; intra-stub ER(0.4) plus one uplink per cloudlet.
            let stubs = transit.len().max(1);
            let mut domains: Vec<Vec<NodeId>> = vec![Vec::new(); stubs];
            for (i, &cl) in cl_ids.iter().enumerate() {
                domains[i % stubs].push(builder.graph_node(cl));
            }
            for (si, domain) in domains.iter().enumerate() {
                for i in 0..domain.len() {
                    for j in (i + 1)..domain.len() {
                        if rng.gen_bool(0.4) {
                            builder.link_graph(
                                domain[i],
                                domain[j],
                                draw(&mut rng, params.wman_link_delay),
                            );
                        }
                    }
                    if !transit.is_empty() {
                        builder.link_graph(
                            domain[i],
                            transit[si % transit.len()],
                            draw(&mut rng, params.wman_link_delay),
                        );
                    }
                }
            }
            // DCs attach to one or two random transit nodes via Internet.
            for &dc in &dc_ids {
                let uplinks = if transit.len() > 1 && rng.gen_bool(0.5) {
                    2
                } else {
                    1
                };
                for u in 0..uplinks.min(transit.len().max(1)) {
                    if transit.is_empty() {
                        break;
                    }
                    let t = transit[(rng.gen_range(0..transit.len()) + u) % transit.len()];
                    builder.link_graph(
                        builder.graph_node(dc),
                        t,
                        draw(&mut rng, params.internet_link_delay),
                    );
                }
            }
        }
    }
    // Base stations: routing-only leaves attached to a random cloudlet
    // (Fig. 1's access tier). They lengthen some paths but host nothing.
    for _ in 0..params.base_stations {
        let bs = builder.add_base_station();
        // Attach to a random cloudlet, or to a data center's graph node
        // in the degenerate cloudlet-free configuration.
        let attach = if cl_ids.is_empty() {
            builder.graph_node(dc_ids[rng.gen_range(0..dc_ids.len())])
        } else {
            builder.graph_node(cl_ids[rng.gen_range(0..cl_ids.len())])
        };
        builder.link_graph(bs, attach, draw(&mut rng, params.wman_link_delay));
    }

    // Never hand a partitioned network to the experiments (repairs use
    // Internet-class delays: the bridge is a long-haul path).
    {
        // Work on the builder's graph through a rebuild: EdgeCloudBuilder
        // owns its graph, so repair after build would be awkward. Instead
        // check connectivity on a clone of the adjacency built so far.
        // `EdgeCloudBuilder` exposes `link_graph`, so we repair by drawing
        // bridges between components found on a scratch copy.
        let scratch = builder.clone().build().expect("builder is valid");
        if !is_connected(scratch.graph()) {
            let mut g = scratch.graph().clone();
            let before = g.edge_count();
            connect_components(&mut g, &mut rng, params.internet_link_delay);
            for e in &g.edges()[before..] {
                builder.link_graph(e.u, e.v, e.weight);
            }
        }
    }
    let cloud = builder.build().expect("generated cloud is valid");

    // --- Datasets --------------------------------------------------------
    let dataset_count = draw_int(&mut rng, params.dataset_count);
    let compute_ids: Vec<ComputeNodeId> = cloud.compute_ids().collect();
    let dc_compute: Vec<ComputeNodeId> = dc_ids.clone();
    let cl_compute: Vec<ComputeNodeId> = cl_ids.clone();
    let mut ib = InstanceBuilder::new(cloud, params.max_replicas);
    for _ in 0..dataset_count {
        // Big data is generated by services in remote DCs and at cloudlets
        // (§2.2); bias origins toward DCs where legacy services live.
        let origin = if !dc_compute.is_empty() && (cl_compute.is_empty() || rng.gen_bool(0.7)) {
            dc_compute[rng.gen_range(0..dc_compute.len())]
        } else {
            cl_compute[rng.gen_range(0..cl_compute.len())]
        };
        ib.add_dataset(draw(&mut rng, params.dataset_volume), origin);
    }

    // --- Queries ---------------------------------------------------------
    let query_count = draw_int(&mut rng, params.query_count);
    // Shared scratch for distinct-dataset sampling. Allocating a fresh
    // id pool per query costs O(|Q| · |S|) — quadratic once queries and
    // datasets scale together (`with_scale`). Instead the pool is built
    // once and each query's partial Fisher-Yates swaps are undone in
    // reverse afterwards (a swap is its own inverse), restoring the
    // identity permutation; the RNG stream and the chosen datasets are
    // byte-identical to the per-query-allocation code.
    let mut pool: Vec<u32> = (0..dataset_count as u32).collect();
    let mut swaps: Vec<(usize, usize)> = Vec::new();
    for _ in 0..query_count {
        let home = if !cl_compute.is_empty()
            && (dc_compute.is_empty() || rng.gen_bool(params.home_on_cloudlet_probability))
        {
            cl_compute[rng.gen_range(0..cl_compute.len())]
        } else if !dc_compute.is_empty() {
            dc_compute[rng.gen_range(0..dc_compute.len())]
        } else {
            compute_ids[rng.gen_range(0..compute_ids.len())]
        };
        let f = draw_int(&mut rng, params.datasets_per_query).min(dataset_count);
        // Sample f distinct datasets (partial Fisher-Yates over the
        // shared pool; swaps recorded for the post-query undo).
        let mut demands = Vec::with_capacity(f);
        let mut largest: f64 = 0.0;
        swaps.clear();
        for slot in 0..f {
            let pick = rng.gen_range(slot..pool.len());
            pool.swap(slot, pick);
            swaps.push((slot, pick));
            let ds = DatasetId(pool[slot]);
            largest = largest.max(ib.dataset_size(ds));
            demands.push(Demand::new(ds, draw(&mut rng, params.selectivity)));
        }
        for &(slot, pick) in swaps.iter().rev() {
            pool.swap(slot, pick);
        }
        // The QoS deadline "depends on the size of dataset demanded by the
        // query" (§4.1). Demands are evaluated in parallel, so the largest
        // demanded dataset — the critical path — sets the size-dependent
        // part; the base term keeps small datasets broadly serviceable
        // while large ones genuinely need edge placement. A query
        // demanding more datasets is strictly harder to admit, which is
        // the Fig. 4 throughput behaviour the paper reports.
        let deadline =
            draw(&mut rng, params.deadline_base) + largest * draw(&mut rng, params.deadline_per_gb);
        ib.add_query(home, demands, draw(&mut rng, params.compute_rate), deadline);
    }

    ib.build().expect("generated instance is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgerep_graph::connectivity::is_connected;

    fn small_params() -> WorkloadParams {
        WorkloadParams {
            data_centers: 2,
            cloudlets: 6,
            switches: 1,
            dataset_count: (4, 8),
            query_count: (5, 15),
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = small_params();
        let a = generate_instance(&p, 42);
        let b = generate_instance(&p, 42);
        assert_eq!(a.datasets().len(), b.datasets().len());
        assert_eq!(a.queries().len(), b.queries().len());
        assert_eq!(a.queries(), b.queries());
        assert_eq!(
            a.cloud().graph().edge_count(),
            b.cloud().graph().edge_count()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let p = small_params();
        let a = generate_instance(&p, 1);
        let b = generate_instance(&p, 2);
        // Extremely unlikely to coincide in every drawn quantity.
        assert!(
            a.queries() != b.queries()
                || a.cloud().graph().edge_count() != b.cloud().graph().edge_count()
        );
    }

    #[test]
    fn topology_is_connected_and_typed() {
        let p = small_params();
        for seed in 0..20 {
            let inst = generate_instance(&p, seed);
            assert!(is_connected(inst.cloud().graph()), "seed {seed}");
            assert_eq!(inst.cloud().data_center_count(), 2);
            assert_eq!(inst.cloud().cloudlet_count(), 6);
            assert_eq!(inst.cloud().graph().node_count(), 9);
        }
    }

    #[test]
    fn attribute_ranges_respected() {
        let p = WorkloadParams::default();
        let inst = generate_instance(&p, 7);
        for v in inst.cloud().compute_ids() {
            let node = inst.cloud().node(v);
            match node.kind {
                NodeKind::DataCenter => {
                    assert!((200.0..700.0).contains(&node.capacity));
                }
                NodeKind::Cloudlet => {
                    assert!((8.0..16.0).contains(&node.capacity));
                }
                _ => panic!("non-compute kind in compute list"),
            }
        }
        for d in inst.datasets() {
            assert!((1.0..6.0).contains(&d.size_gb));
        }
        for q in inst.queries() {
            assert!((0.75..1.25).contains(&q.compute_rate));
            assert!(!q.demands.is_empty() && q.demands.len() <= 7);
            for dem in &q.demands {
                assert!((0.1..=1.0).contains(&dem.selectivity));
            }
        }
        let n_ds = inst.datasets().len();
        let n_q = inst.queries().len();
        assert!((5..=20).contains(&n_ds));
        assert!((10..=100).contains(&n_q));
    }

    #[test]
    fn deadlines_scale_with_largest_demanded_dataset() {
        let p = WorkloadParams::default();
        let inst = generate_instance(&p, 11);
        let (base_lo, base_hi) = p.deadline_base;
        let (lo, hi) = p.deadline_per_gb;
        for q in inst.queries() {
            let largest = q
                .demands
                .iter()
                .map(|d| inst.size(d.dataset))
                .fold(0.0, f64::max);
            let min = base_lo + largest * lo;
            let max = base_hi + largest * hi;
            assert!(
                q.deadline >= min - 1e-9 && q.deadline <= max + 1e-9,
                "deadline {} not within [{min}, {max}] for largest {largest}",
                q.deadline,
            );
        }
    }

    #[test]
    fn scale_preset_builds_hundred_thousand_queries_in_linear_memory() {
        // The ≥10^5-query preset behind `gen --scale` and ext-shard.
        // Pinning the ranges makes the counts exact: the only O(n)
        // allocations are the queries themselves plus one shared
        // dataset-sampling pool — the node count stays that of the
        // unscaled topology, which is the sanity pin that scaling the
        // workload did not silently scale (or quadratically re-allocate
        // per query, see the pool-undo comment in `generate_instance`)
        // anything keyed to |Q| × |S|.
        let params = WorkloadParams {
            query_count: (50, 50),
            dataset_count: (10, 10),
            datasets_per_query: (1, 3),
            ..WorkloadParams::default()
        }
        .with_scale(2000);
        assert_eq!(params.query_count, (100_000, 100_000));
        assert_eq!(params.dataset_count, (20_000, 20_000));
        let inst = generate_instance(&params, 1);
        assert_eq!(inst.queries().len(), 100_000);
        assert_eq!(inst.datasets().len(), 20_000);
        // Topology untouched by workload scale.
        assert_eq!(
            inst.cloud().graph().node_count(),
            WorkloadParams::default().network_size()
        );
        for q in inst.queries().iter().take(100) {
            assert!(!q.demands.is_empty() && q.demands.len() <= 3);
        }
    }

    #[test]
    fn pool_reuse_matches_the_per_query_allocation_stream() {
        // The shared sampling pool must be output-invisible: swaps are
        // undone after every query, so two generations (which both go
        // through the shared-pool path) and the documented invariant —
        // demands distinct, ids in range — hold at a scale where a
        // leaked permutation would certainly surface.
        let params = WorkloadParams {
            query_count: (400, 400),
            dataset_count: (30, 30),
            ..WorkloadParams::default()
        };
        let a = generate_instance(&params, 99);
        let b = generate_instance(&params, 99);
        assert_eq!(a.queries(), b.queries());
        for q in a.queries() {
            let mut seen = std::collections::HashSet::new();
            for dem in &q.demands {
                assert!(dem.dataset.index() < 30);
                assert!(seen.insert(dem.dataset));
            }
        }
    }

    #[test]
    fn with_scale_multiplies_workload_bounds_only() {
        let p = WorkloadParams::default().with_scale(10);
        assert_eq!(p.query_count, (100, 1000));
        assert_eq!(p.dataset_count, (50, 200));
        assert_eq!(p.network_size(), WorkloadParams::default().network_size());
        p.validate().unwrap();
    }

    #[test]
    fn demands_are_distinct_per_query() {
        let inst = generate_instance(&WorkloadParams::default(), 13);
        for q in inst.queries() {
            let mut seen = std::collections::HashSet::new();
            for dem in &q.demands {
                assert!(seen.insert(dem.dataset), "duplicate demand in {}", q.id);
            }
        }
    }

    #[test]
    fn f_knob_caps_demand_count() {
        let p = WorkloadParams::default().with_max_datasets_per_query(2);
        let inst = generate_instance(&p, 17);
        assert!(inst.queries().iter().all(|q| q.demands.len() <= 2));
        let p1 = WorkloadParams::default().with_max_datasets_per_query(1);
        let inst = generate_instance(&p1, 17);
        assert!(inst.queries().iter().all(|q| q.demands.len() == 1));
    }

    #[test]
    fn transit_stub_topology_generates_connected_hierarchy() {
        let p = WorkloadParams {
            topology: TopologyModel::TransitStub,
            switches: 3,
            ..small_params()
        };
        for seed in 0..10 {
            let inst = generate_instance(&p, seed);
            let cloud = inst.cloud();
            assert!(is_connected(cloud.graph()), "seed {seed}");
            assert_eq!(cloud.data_center_count(), 2);
            assert_eq!(cloud.cloudlet_count(), 6);
            // Cloudlets never link directly to data centers in this model.
            for e in cloud.graph().edges() {
                let (ku, kv) = (cloud.kind(e.u), cloud.kind(e.v));
                assert!(
                    !(ku == NodeKind::Cloudlet && kv == NodeKind::DataCenter
                        || ku == NodeKind::DataCenter && kv == NodeKind::Cloudlet),
                    "seed {seed}: direct cloudlet-DC link in transit-stub"
                );
            }
        }
    }

    #[test]
    fn transit_stub_deterministic() {
        let p = WorkloadParams {
            topology: TopologyModel::TransitStub,
            ..small_params()
        };
        let a = generate_instance(&p, 4);
        let b = generate_instance(&p, 4);
        assert_eq!(a.cloud().graph(), b.cloud().graph());
    }

    #[test]
    fn base_stations_are_routing_only_leaves() {
        let p = WorkloadParams {
            base_stations: 10,
            ..small_params()
        };
        let inst = generate_instance(&p, 5);
        let cloud = inst.cloud();
        // BS nodes exist in the graph but not among compute nodes.
        assert_eq!(cloud.graph().node_count(), 2 + 6 + 1 + 10);
        assert_eq!(cloud.compute_count(), 8);
        assert!(is_connected(cloud.graph()));
        let bs_count = cloud
            .graph()
            .nodes()
            .filter(|&n| cloud.kind(n) == NodeKind::BaseStation)
            .count();
        assert_eq!(bs_count, 10);
        assert_eq!(p.network_size(), 19);
    }

    #[test]
    fn network_size_sweep_generates() {
        for n in [10, 32, 100, 200] {
            let p = WorkloadParams::default().with_network_size(n);
            let inst = generate_instance(&p, 3);
            assert_eq!(inst.cloud().graph().node_count(), n);
        }
    }
}
