//! Scaling of the engine's worker pool, the workspace's only parallel
//! executor.
//!
//! Measures the wall clock of one five-policy job over the multimedia set
//! on warm engines of increasing worker counts. On a multi-core machine the
//! job should get faster with more workers while — by construction —
//! returning bit-identical reports; on a single core the pool must not cost
//! noticeably more than one worker. CI invokes this bench as a smoke test of
//! the parallel path, so any panic or determinism violation in the worker
//! pool fails the pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use drhw_engine::{Engine, JobSpec};
use drhw_prefetch::PolicyKind;

fn bench_pool_scaling(c: &mut Criterion) {
    let spec = JobSpec::new("multimedia")
        .with_tiles(8)
        .with_iterations(64)
        .with_chunk_size(8)
        .with_policies(PolicyKind::ALL);
    let reference = Engine::builder()
        .threads(1)
        .build()
        .run(spec.clone())
        .expect("simulation runs");

    let mut group = c.benchmark_group("engine_pool_64_iterations_5_policies");
    for threads in [1usize, 2, 4] {
        // The first job prepares the plan; every timed job is a cache hit.
        let engine = Engine::builder().threads(threads).build();
        engine.run(spec.clone()).expect("simulation runs");
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let reports = engine.run(spec.clone()).expect("simulation runs");
                    assert_eq!(
                        reports, reference,
                        "{threads} workers must reproduce the single-worker reports"
                    );
                    reports
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_pool_scaling);
criterion_main!(benches);
