//! Wall-clock cost of simulating each prefetch policy over the multimedia
//! task set (the machinery behind Table 1, Figure 6 and the headline numbers).
//!
//! This is not a paper artifact by itself, but it documents that the full
//! experiment harness (1000 iterations × 9 tile counts × 3 policies) runs in
//! seconds, and it tracks regressions in the per-activation scheduling cost.
//! Policies run through the plan's sequential `IterationPlan::run` so the
//! numbers isolate per-policy scheduling cost from parallel scaling (that
//! side lives in the `engine_pool` bench).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use drhw_model::Platform;
use drhw_prefetch::PolicyKind;
use drhw_sim::{IterationPlan, SimulationConfig};
use drhw_workloads::{MultimediaWorkload, Workload};

fn bench_policies(c: &mut Criterion) {
    let set = MultimediaWorkload.task_set();
    let platform = Platform::virtex_like(8).expect("non-empty platform");
    let config = SimulationConfig::default().with_iterations(25);
    let plan = IterationPlan::new(&set, &platform, config).expect("plan builds");

    let mut group = c.benchmark_group("simulate_25_iterations");
    for policy in PolicyKind::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy),
            &policy,
            |b, &policy| b.iter(|| plan.run(&[policy]).expect("simulation runs")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
