//! Cross-policy smoke test: every [`PolicyKind`] variant must run end-to-end
//! on the quickstart graph (the Fig. 3 worked example), every workload of the
//! registry must survive a build → validate → simulate round trip, and the
//! hybrid heuristic must never lose to loading on demand — the invariant the
//! `drhw-sim` crate documentation claims.

use drhw_model::{ConfigId, Platform, Subtask, SubtaskGraph, Task, TaskId, TaskSet, Time};
use drhw_prefetch::PolicyKind;
use drhw_sim::{IterationPlan, SimulationConfig};
use drhw_workloads::WorkloadRegistry;

/// The four-subtask graph of Fig. 3: `1 -> {2, 3}`, `3 -> 4`, as used by the
/// `quickstart` example.
fn quickstart_graph() -> SubtaskGraph {
    let mut graph = SubtaskGraph::new("fig3");
    let s1 = graph.add_subtask(Subtask::new("1", Time::from_millis(10), ConfigId::new(1)));
    let s2 = graph.add_subtask(Subtask::new("2", Time::from_millis(12), ConfigId::new(2)));
    let s3 = graph.add_subtask(Subtask::new("3", Time::from_millis(6), ConfigId::new(3)));
    let s4 = graph.add_subtask(Subtask::new("4", Time::from_millis(8), ConfigId::new(4)));
    graph.add_dependency(s1, s2).unwrap();
    graph.add_dependency(s1, s3).unwrap();
    graph.add_dependency(s3, s4).unwrap();
    graph
}

#[test]
fn every_policy_runs_on_the_quickstart_graph() {
    let set = TaskSet::new(
        "quickstart",
        vec![Task::single_scenario(TaskId::new(0), "quickstart", quickstart_graph()).unwrap()],
    )
    .unwrap();
    let platform = Platform::virtex_like(4).unwrap();
    let plan = IterationPlan::new(&set, &platform, SimulationConfig::quick()).unwrap();
    let reports = plan.run(&PolicyKind::ALL).unwrap();

    let mut overhead = std::collections::BTreeMap::new();
    for (policy, report) in PolicyKind::ALL.into_iter().zip(&reports) {
        assert_eq!(report.policy(), policy);
        assert!(
            report.activations() > 0,
            "{policy}: no activations simulated"
        );
        assert!(
            report.ideal_total() > Time::ZERO,
            "{policy}: empty workload"
        );
        assert!(
            report.overhead_percent().is_finite() && report.overhead_percent() >= 0.0,
            "{policy}: overhead must be a finite non-negative percentage"
        );
        overhead.insert(policy, report.overhead_percent());
    }

    // The invariant claimed in the drhw-sim crate docs: the hybrid heuristic
    // never loses to loading on demand under the same paired workload.
    assert!(
        overhead[&PolicyKind::Hybrid] <= overhead[&PolicyKind::NoPrefetch],
        "hybrid ({:.3}%) must not exceed no-prefetch ({:.3}%)",
        overhead[&PolicyKind::Hybrid],
        overhead[&PolicyKind::NoPrefetch],
    );
}

#[test]
fn every_registered_workload_round_trips_through_the_engine() {
    // Registry round trip: each built-in workload must build a valid task
    // set, then simulate end-to-end through the `drhw-engine` job path.
    let engine = drhw_engine::Engine::builder().build();
    let registry = WorkloadRegistry::with_builtins();
    assert!(!registry.is_empty());
    for workload in registry.iter() {
        let name = workload.name();
        let set = workload.task_set();
        for task in set.tasks() {
            for scenario in task.scenarios() {
                scenario
                    .graph()
                    .validate()
                    .unwrap_or_else(|e| panic!("{name}: invalid scenario graph: {e}"));
            }
        }

        let tiles = *workload.tile_sweep().end();
        let policies = [PolicyKind::NoPrefetch, PolicyKind::Hybrid];
        let reports = engine
            .run(
                drhw_engine::JobSpec::new(name)
                    .with_tiles(tiles)
                    .with_iterations(20)
                    .with_seed(1)
                    .with_policies(policies),
            )
            .unwrap_or_else(|e| panic!("{name}: engine job fails: {e}"));
        for report in &reports {
            assert!(report.activations() > 0, "{name}: no activations simulated");
            assert!(
                report.overhead_percent().is_finite() && report.overhead_percent() >= 0.0,
                "{name}: overhead must be a finite non-negative percentage"
            );
        }
        assert!(
            reports[1].overhead_percent() <= reports[0].overhead_percent(),
            "{name}: hybrid must not exceed no-prefetch"
        );
    }
}

#[test]
fn hybrid_never_loses_to_no_prefetch_on_the_multimedia_set() {
    let set = drhw_workloads::multimedia::multimedia_task_set();
    for tiles in [8, 12, 16] {
        let platform = Platform::virtex_like(tiles).unwrap();
        let plan = IterationPlan::new(&set, &platform, SimulationConfig::quick()).unwrap();
        let mut reports = plan
            .run(&[PolicyKind::NoPrefetch, PolicyKind::Hybrid])
            .unwrap();
        let hybrid = reports.remove(1);
        let no_prefetch = reports.remove(0);
        assert!(
            hybrid.overhead_percent() <= no_prefetch.overhead_percent(),
            "{tiles} tiles: hybrid ({:.3}%) must not exceed no-prefetch ({:.3}%)",
            hybrid.overhead_percent(),
            no_prefetch.overhead_percent(),
        );
    }
}
