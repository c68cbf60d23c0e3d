//! Criterion bench for the zero-time sharded-cluster replay across replica
//! counts and routing policies.
//!
//! Sweeps replicas ∈ {1, 2, 4, 8} × every built-in router over one seeded
//! multi-tenant trace at fixed *total* capacity, so the sweep isolates the
//! placement effect: more replicas never add memory, they only fragment
//! it. The cluster is an `EventCluster` in zero-time mode, so no queueing
//! enters the measurement.
//!
//! Besides the wall-time lines, a `cluster_scaling/[sweep]` line per
//! configuration prints the aggregate token hit rate and the load-imbalance
//! factor — the qualitative result (prefix-aware ≥ session-affinity ≥
//! round-robin) should be visible directly in the output. The CI smoke run
//! uses the default sizes; set `CLUSTER_SCALING_FULL=1` for a larger trace.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use marconi_core::EvictionPolicy;
use marconi_model::ModelConfig;
use marconi_sim::{EventCluster, RoutingPolicy};
use marconi_workload::{DatasetKind, Trace, TraceGenerator};

const GB: u64 = 1_000_000_000;

fn trace() -> Trace {
    let sessions = if std::env::var("CLUSTER_SCALING_FULL").is_ok() {
        96
    } else {
        24
    };
    TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(sessions)
        .tenants(8)
        .seed(21)
        .generate()
}

fn cluster(replicas: usize, routing: RoutingPolicy) -> EventCluster {
    EventCluster::builder(ModelConfig::hybrid_7b())
        .replicas(replicas)
        .total_capacity_bytes(2 * GB)
        // Static α: marconi-flavored eviction without per-iteration tuner
        // replays dominating the measurement.
        .policy(EvictionPolicy::FlopAware { alpha: 2.0 })
        .routing(routing)
        .instantaneous()
        .build()
}

fn bench_cluster_scaling(c: &mut Criterion) {
    let trace = trace();
    let mut group = c.benchmark_group("cluster_replay");
    group.sample_size(10);
    for &n in &[1usize, 2, 4, 8] {
        for routing in RoutingPolicy::ALL {
            group.bench_with_input(BenchmarkId::new(routing.to_string(), n), &n, |b, &n| {
                b.iter(|| {
                    let mut cluster = cluster(n, routing);
                    black_box(cluster.run(&trace).aggregate_stats().hit_tokens)
                });
            });
            let mut sweep = cluster(n, routing);
            let report = sweep.run(&trace);
            println!(
                "cluster_scaling/[sweep] n={n} {routing}: hit rate {:.1}%, imbalance {:.2}",
                report.aggregate_token_hit_rate() * 100.0,
                report.load_imbalance().map_or(1.0, |i| i.factor()),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_cluster_scaling);
criterion_main!(benches);
