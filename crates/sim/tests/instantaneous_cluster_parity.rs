//! Golden pin of the zero-time multi-replica replay.
//!
//! `EventCluster` built with `.instantaneous()` serves every multi-replica
//! replay whose latency is not load-dependent. Its outcomes — the
//! assignment log, per-replica `CacheStats`, and per-request hit tokens,
//! host-hit tokens and reload decisions — are pinned here against a
//! checked-in golden over a seeded matrix: 3 seeds × {ShareGPT, LMSys} ×
//! N ∈ {1, 2, 4, 8} × every built-in router × {LRU, FlopAware α = 2,
//! AutoTuned} × {single tier, host tier}, two passes each (the second on
//! warm caches). The golden was written by the instantaneous `Cluster`
//! driver this mode replaced, so it also pins that the replacement changed
//! no outcome. To bless an intentional change, run
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p marconi-sim --test instantaneous_cluster_parity
//! ```
//!
//! and review the diff of `tests/golden/` like any other code change.

use marconi_core::{CacheStats, EvictionPolicy};
use marconi_model::ModelConfig;
use marconi_sim::{EventCluster, EventClusterReport, ReloadDecision, RoutingPolicy};
use marconi_workload::{DatasetKind, Trace, TraceGenerator};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: [u64; 3] = [1, 2, 3];
const DATASETS: [DatasetKind; 2] = [DatasetKind::ShareGpt, DatasetKind::Lmsys];
const REPLICAS: [usize; 4] = [1, 2, 4, 8];
const PASSES: usize = 2;

/// One cell of the matrix.
struct Config {
    dataset: DatasetKind,
    seed: u64,
    replicas: usize,
    routing: RoutingPolicy,
    policy: EvictionPolicy,
    policy_label: &'static str,
    host_tier: bool,
}

impl Config {
    fn label(&self) -> String {
        format!(
            "{:?}/s{}/n{}/{}/{}/{}",
            self.dataset,
            self.seed,
            self.replicas,
            self.routing,
            self.policy_label,
            if self.host_tier { "host" } else { "single" }
        )
    }

    /// Cluster-wide device capacity: a third of the trace's input tokens'
    /// KV bytes, so the matrix runs under eviction and demotion pressure
    /// (the test asserts both occur). The host budget, when present, is
    /// twice the device capacity.
    fn capacities(&self, trace: &Trace) -> (u64, u64) {
        let kv = ModelConfig::hybrid_7b().kv_bytes_per_token();
        let device = trace.total_input_tokens() / 3 * kv;
        (device, if self.host_tier { 2 * device } else { 0 })
    }
}

/// The matrix cells replaying one `(dataset, seed)` trace.
fn configs(dataset: DatasetKind, seed: u64) -> Vec<Config> {
    let policies = [
        ("lru", EvictionPolicy::Lru),
        ("flop-aware-2", EvictionPolicy::FlopAware { alpha: 2.0 }),
        ("auto-tuned", EvictionPolicy::default()),
    ];
    let mut out = Vec::new();
    for replicas in REPLICAS {
        for routing in RoutingPolicy::ALL {
            for (policy_label, policy) in &policies {
                for host_tier in [false, true] {
                    out.push(Config {
                        dataset,
                        seed,
                        replicas,
                        routing,
                        policy: policy.clone(),
                        policy_label,
                        host_tier,
                    });
                }
            }
        }
    }
    out
}

fn trace(dataset: DatasetKind, seed: u64) -> Trace {
    TraceGenerator::new(dataset)
        .sessions(6)
        .tenants(3)
        .seed(seed)
        .generate()
}

/// Replays `trace` twice (the second pass on warm caches) through a
/// zero-time cluster built from `cfg`, rendering each pass.
fn render_passes(out: &mut String, cfg: &Config, trace: &Trace) -> CacheStats {
    let (device, host) = cfg.capacities(trace);
    let mut cluster = EventCluster::builder(ModelConfig::hybrid_7b())
        .replicas(cfg.replicas)
        .total_capacity_bytes(device)
        .total_host_capacity_bytes(host)
        .policy(cfg.policy.clone())
        .routing(cfg.routing)
        .instantaneous()
        .build();
    let mut total = CacheStats::default();
    for pass in 0..PASSES {
        let report = cluster.run(trace);
        render(out, &format!("{}/p{pass}", cfg.label()), &report);
        total.accumulate(&report.aggregate_stats());
    }
    total
}

/// Renders one pass as golden lines: the assignment log, one line of
/// `CacheStats` counters per replica (in declaration order), and the
/// per-request hits in arrival order — `hit`, or `hit/host` plus the
/// reload arm (`L`oaded, `R`ecomputed) when part of the hit was
/// host-resident.
fn render(out: &mut String, label: &str, report: &EventClusterReport) {
    let assignments: String = report
        .assignments
        .iter()
        .map(|i| char::from_digit(*i as u32, 36).expect("invariant: fewer than 36 replicas"))
        .collect();
    writeln!(out, "{label} assign {assignments}").expect("invariant: String write");
    for (i, rep) in report.replicas.iter().enumerate() {
        let s = &rep.cache_stats;
        writeln!(
            out,
            "  r{i} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            s.lookups,
            s.hits,
            s.host_hits,
            s.input_tokens,
            s.hit_tokens,
            s.host_hit_tokens,
            s.flops_saved,
            s.insertions,
            s.ssm_states_admitted,
            s.evictions,
            s.bytes_evicted,
            s.demotions,
            s.bytes_demoted,
            s.host_evictions,
            s.bytes_host_evicted,
            s.peak_usage_bytes,
        )
        .expect("invariant: String write");
    }
    let mut records: Vec<_> = report.replicas.iter().flat_map(|r| &r.records).collect();
    records.sort_by_key(|r| r.id);
    let hits: Vec<String> = records
        .iter()
        .map(|r| match r.reload {
            ReloadDecision::None => r.hit_tokens.to_string(),
            ReloadDecision::Loaded => format!("{}/{}L", r.hit_tokens, r.host_hit_tokens),
            ReloadDecision::Recomputed => format!("{}/{}R", r.hit_tokens, r.host_hit_tokens),
        })
        .collect();
    writeln!(out, "  hits {}", hits.join(" ")).expect("invariant: String write");
}

fn check_golden(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, actual).expect("invariant: goldens dir is writable on regen");
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); regenerate with GOLDEN_REGEN=1",
            path.display()
        )
    });
    if expected != actual {
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "{name} drifted from its golden at line {}:\n  golden: {:?}\n  actual: {:?}\n\
             if the change is deliberate, bless it with GOLDEN_REGEN=1 and review the diff",
            line + 1,
            expected.lines().nth(line),
            actual.lines().nth(line),
        );
    }
}

#[test]
fn instantaneous_event_cluster_matches_golden() {
    let mut golden = String::new();
    let mut total = CacheStats::default();
    for dataset in DATASETS {
        for seed in SEEDS {
            let trace = trace(dataset, seed);
            for cfg in configs(dataset, seed) {
                total.accumulate(&render_passes(&mut golden, &cfg, &trace));
            }
        }
    }
    assert!(
        total.evictions > 0 && total.demotions > 0,
        "the matrix must exercise eviction ({}) and demotion ({})",
        total.evictions,
        total.demotions
    );
    check_golden("instantaneous_cluster.txt", &golden);
}
