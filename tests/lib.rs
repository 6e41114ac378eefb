//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in the sibling `*.rs` files (`pipeline`,
//! `experiments_shape`, `determinism`, `properties`); this small library only
//! hosts fixtures they share.

use drhw_model::{
    ConfigId, InitialSchedule, Platform, Subtask, SubtaskGraph, Task, TaskId, TaskSet, Time,
};
use drhw_workloads::random::{seeded_random_graph, RandomGraphConfig};

/// Builds a random graph together with its fully parallel schedule and a
/// platform large enough to host it — the standard fixture of the property
/// tests.
pub fn random_instance(
    subtasks: usize,
    seed: u64,
    latency_ms: u64,
) -> (SubtaskGraph, InitialSchedule, Platform) {
    let graph = seeded_random_graph(&RandomGraphConfig::with_subtasks(subtasks.max(1)), seed);
    let schedule = InitialSchedule::fully_parallel(&graph).expect("generated graphs are valid");
    let platform = Platform::new(
        schedule.slot_count().max(1),
        drhw_model::Time::from_millis(latency_ms),
    )
    .expect("non-empty platform");
    (graph, schedule, platform)
}

/// Two tasks of three subtasks each, every subtask taking 0 ms, over six
/// configurations: on four tiles the tasks keep evicting each other, and
/// every ideal makespan is zero, so a pass keeps one tile state per
/// reuse-exploiting policy instead of sharing one.
pub fn zero_time_task_set() -> TaskSet {
    let tasks = (0..2)
        .map(|task| {
            let mut graph = SubtaskGraph::new(format!("zero-{task}"));
            let ids: Vec<_> = (0..3)
                .map(|i| {
                    graph.add_subtask(Subtask::new(
                        format!("z{task}{i}"),
                        Time::ZERO,
                        ConfigId::new(task * 3 + i),
                    ))
                })
                .collect();
            graph.add_dependency(ids[0], ids[1]).unwrap();
            graph.add_dependency(ids[0], ids[2]).unwrap();
            Task::single_scenario(TaskId::new(task), format!("zero-{task}"), graph).unwrap()
        })
        .collect();
    TaskSet::new("zero-time", tasks).unwrap()
}
