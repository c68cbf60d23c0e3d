//! Sharded cluster serving: replica count × routing policy sweep.
//!
//! Replays one seeded multi-tenant ShareGPT-like trace (32 sessions across
//! 8 tenants, so prefix reuse exists within — but not across — tenants)
//! through clusters of 1–8 cache replicas at a fixed *total* capacity,
//! under each routing policy. Adding replicas never adds memory here; it
//! only fragments the radix trees, so whatever hit rate survives is down to
//! the router's placement.
//!
//! Expected qualitative result: prefix-aware ≥ session-affinity ≥
//! round-robin, with round-robin collapsing as N grows (conversation
//! histories scatter across replicas) while prefix-aware holds close to the
//! single-node hit rate.
//!
//! The cluster replays in zero time, like the single-node `Engine`; the
//! P95 TTFT column is the analytic load-blind TTFT of each request's
//! uncached prefill on a 4×A100 replica.
//!
//! Run with: `cargo run --release --example cluster_serving`

use marconi::prelude::*;
use marconi::sim::RoutingPolicy;
use marconi_core::EvictionPolicy;

const GB: u64 = 1_000_000_000;

fn main() {
    let trace = TraceGenerator::new(DatasetKind::ShareGpt)
        .sessions(32)
        .tenants(8)
        .seed(21)
        .generate();
    println!(
        "trace: {} — {} requests, {} sessions, {} tenants, {:.0} s span",
        trace.name,
        trace.len(),
        trace.session_count(),
        trace.tenant_count(),
        trace.duration()
    );
    println!("total capacity: 2 GB, split evenly across replicas\n");
    let model = ModelConfig::hybrid_7b();
    let gpu = GpuModel::a100_x4();

    println!(
        "{:<10} {:<18} {:>10} {:>14} {:>12} {:>10}",
        "replicas", "router", "hit rate", "flops saved", "imbalance", "p95 ttft"
    );
    for &n in &[1usize, 2, 4, 8] {
        for routing in RoutingPolicy::ALL {
            let mut cluster = EventCluster::builder(model.clone())
                .replicas(n)
                .total_capacity_bytes(2 * GB)
                .policy(EvictionPolicy::FlopAware { alpha: 2.0 })
                .routing(routing)
                .instantaneous()
                .build();
            let report = cluster.run(&trace);
            let ttfts: Vec<f64> = report
                .replicas
                .iter()
                .flat_map(|r| &r.records)
                .map(|r| gpu.ttft_ms(&model, r.input_len, r.hit_tokens))
                .collect();
            let p95 = Percentiles::new(&ttfts).map_or(f64::NAN, |p| p.quantile(0.95));
            println!(
                "{:<10} {:<18} {:>9.1}% {:>13.2e} {:>12.2} {:>8.0}ms",
                n,
                routing.to_string(),
                report.aggregate_token_hit_rate() * 100.0,
                report.total_flops_saved() as f64,
                report.load_imbalance().map_or(1.0, |i| i.factor()),
                p95,
            );
        }
        println!();
    }
}
