//! Known answers of the one-shot scheduling API on graphs wider than one
//! 64-bit mask word.
//!
//! The simulation's kernels stop at 64 subtasks, but the one-shot entry
//! points (`PrefetchProblem` with the list, on-demand and branch & bound
//! schedulers, and the hybrid design-time and run-time phases) serve larger
//! graphs: the `scheduler_scaling` bench and the `design_vs_runtime`
//! example run them on up to 256 subtasks. These values pin what those
//! entry points answer on two seeded random DAGs of 100 and 256 subtasks,
//! each on a fully parallel schedule, so a change to the timing engine or
//! to the hybrid run-time decision underneath cannot move them unnoticed.

use std::collections::BTreeSet;

use drhw_model::{fnv1a, InitialSchedule, Platform, SubtaskGraph, SubtaskId, Time};
use drhw_prefetch::{
    BranchBoundScheduler, HybridPrefetch, InterTaskWindow, ListScheduler, OnDemandScheduler,
    PrefetchProblem, PrefetchScheduler, SearchCache,
};
use drhw_workloads::random::{seeded_random_graph, RandomGraphConfig};

/// One pinned instance.
struct Expected {
    subtasks: usize,
    /// List scheduler: penalty, loads, trailing port idle (µs) and order hash.
    list: (u64, usize, u64, u64),
    /// On-demand scheduler: the same four values.
    on_demand: (u64, usize, u64, u64),
    /// Hybrid design time with the list scheduler: critical-set size and
    /// hash, stored-order length and hash, and critical-loop rounds.
    hybrid: (usize, u64, usize, u64, usize),
    /// Branch & bound with every subtask but the first twelve resident:
    /// penalty (µs), order hash and search nodes.
    branch_bound: (u64, u64, u64),
    /// Hybrid run time on that design-time artifact with the first quarter
    /// of the ids resident, under windows of zero and three whole loads:
    /// penalty (µs), the lengths of the init, preloaded, body and cancelled
    /// lists, and the hash of the four lists in that order.
    run_time: [(u64, [usize; 4], u64); 2],
}

const EXPECTED: [Expected; 2] = [
    Expected {
        subtasks: 100,
        list: (289_337, 100, 1_118, 0xbe17_39e1_9e67_05c5),
        on_demand: (310_216, 100, 1_118, 0x40eb_23fa_3fee_fce5),
        hybrid: (73, 0xd300_027c_2173_79d7, 27, 0x1071_7dc2_3b2d_d3f7, 74),
        branch_bound: (31_711, 0x50a6_7055_4300_74e5, 1),
        run_time: [
            (204_000, [51, 0, 24, 3], 0xed66_803c_dda2_486a),
            (192_000, [48, 3, 24, 3], 0x54c1_4a29_440b_ef0a),
        ],
    },
    Expected {
        subtasks: 256,
        list: (758_572, 256, 1_055, 0x67bf_d4c2_822b_ba45),
        on_demand: (802_338, 256, 3_907, 0xbd74_0947_e6e3_fec5),
        hybrid: (190, 0xdc75_01f4_367c_fc7a, 66, 0xd822_f9eb_2a50_ca9a, 191),
        branch_bound: (31_711, 0x50a6_7055_4300_74e5, 1),
        run_time: [
            (556_000, [139, 0, 53, 13], 0xfa84_a9e0_6418_705b),
            (544_000, [136, 3, 53, 13], 0x0e44_2380_e5b4_ddfb),
        ],
    },
];

/// `fnv1a` over the ids of `order`, eight little-endian bytes each.
fn order_hash(order: &[SubtaskId]) -> u64 {
    let bytes: Vec<u8> = order
        .iter()
        .flat_map(|id| (id.index() as u64).to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// A layered random DAG with short executions, so the 4 ms loads contend
/// for the port and most of them cannot hide.
fn graph(subtasks: usize) -> SubtaskGraph {
    let config = RandomGraphConfig {
        subtasks,
        width: 8,
        min_exec: Time::from_millis(1),
        max_exec: Time::from_millis(6),
        ..RandomGraphConfig::default()
    };
    seeded_random_graph(&config, 11)
}

fn summary(
    scheduler: &dyn PrefetchScheduler,
    problem: &PrefetchProblem<'_>,
) -> (u64, usize, u64, u64) {
    let result = scheduler.schedule(problem).expect("one-shot schedule");
    (
        result.penalty().as_micros(),
        result.load_count(),
        result.trailing_port_idle().as_micros(),
        order_hash(result.load_order()),
    )
}

#[test]
fn one_shot_schedulers_keep_their_answers_above_one_mask_word() {
    for expected in &EXPECTED {
        let n = expected.subtasks;
        let graph = graph(n);
        assert_eq!(graph.len(), n);
        let schedule = InitialSchedule::fully_parallel(&graph).expect("valid graph");
        let platform = Platform::virtex_like(n).expect("non-empty platform");
        let problem = PrefetchProblem::new(&graph, &schedule, &platform).expect("problem");
        assert_eq!(
            summary(&ListScheduler::new(), &problem),
            expected.list,
            "list scheduler on {n} subtasks"
        );
        assert_eq!(
            summary(&OnDemandScheduler::new(), &problem),
            expected.on_demand,
            "on-demand scheduler on {n} subtasks"
        );
    }
}

#[test]
fn hybrid_design_time_keeps_its_answers_above_one_mask_word() {
    for expected in &EXPECTED {
        let n = expected.subtasks;
        let graph = graph(n);
        let schedule = InitialSchedule::fully_parallel(&graph).expect("valid graph");
        let platform = Platform::virtex_like(n).expect("non-empty platform");
        let hybrid =
            HybridPrefetch::compute_with(&graph, &schedule, &platform, &ListScheduler::new())
                .expect("design-time phase");
        let critical = hybrid.critical();
        assert_eq!(critical.stored_penalty(), Time::ZERO);
        assert_eq!(
            (
                critical.len(),
                order_hash(critical.critical_subtasks()),
                critical.stored_load_order().len(),
                order_hash(critical.stored_load_order()),
                critical.iterations(),
            ),
            expected.hybrid,
            "hybrid design time on {n} subtasks"
        );
    }
}

#[test]
fn hybrid_run_time_keeps_its_answers_above_one_mask_word() {
    for expected in &EXPECTED {
        let n = expected.subtasks;
        let graph = graph(n);
        let schedule = InitialSchedule::fully_parallel(&graph).expect("valid graph");
        let platform = Platform::virtex_like(n).expect("non-empty platform");
        let hybrid =
            HybridPrefetch::compute_with(&graph, &schedule, &platform, &ListScheduler::new())
                .expect("design-time phase");
        let resident: BTreeSet<SubtaskId> = graph.ids().take(n / 4).collect();
        for (loads, pinned) in [0, 3].into_iter().zip(&expected.run_time) {
            let window = InterTaskWindow::new(platform.reconfig_latency() * loads);
            let decision = hybrid
                .runtime_decision(&graph, &schedule, &platform, &resident, window)
                .expect("run-time decision");
            let outcome = hybrid
                .evaluate(&graph, &schedule, &platform, &resident, window)
                .expect("run-time phase");
            assert_eq!(outcome.decision(), &decision);
            let lists = [
                &decision.init_loads,
                &decision.preloaded,
                &decision.body_loads,
                &decision.cancelled_loads,
            ];
            let all: Vec<SubtaskId> = lists.iter().flat_map(|list| list.iter().copied()).collect();
            assert_eq!(
                (
                    outcome.penalty().as_micros(),
                    lists.map(Vec::len),
                    order_hash(&all)
                ),
                *pinned,
                "hybrid run time on {n} subtasks, window of {loads} loads"
            );
        }
    }
}

#[test]
fn branch_and_bound_keeps_its_answer_above_one_mask_word() {
    for expected in &EXPECTED {
        let n = expected.subtasks;
        let graph = graph(n);
        let schedule = InitialSchedule::fully_parallel(&graph).expect("valid graph");
        let platform = Platform::virtex_like(n).expect("non-empty platform");
        let resident: BTreeSet<SubtaskId> = graph.ids().skip(12).collect();
        let problem = PrefetchProblem::with_resident(&graph, &schedule, &platform, &resident)
            .expect("problem");
        assert_eq!(problem.load_count(), 12);
        let mut cache = SearchCache::new();
        let (result, stats) = BranchBoundScheduler::new()
            .schedule_with_stats(&problem, &mut cache, None)
            .expect("exhaustive search");
        assert_eq!(
            (
                result.penalty().as_micros(),
                order_hash(result.load_order()),
                stats.nodes,
            ),
            expected.branch_bound,
            "branch & bound on {n} subtasks"
        );
    }
}
