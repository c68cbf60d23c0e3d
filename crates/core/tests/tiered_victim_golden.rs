//! Golden pin of tiered victim selection.
//!
//! The test-only scan reference inside `hybrid.rs` predates the host tier,
//! so tiered victim selection — which candidates each device, fallback and
//! host episode takes, and whether each is demoted or deleted — has no
//! other reference. This test replays small seeded traces through a
//! [`HybridPrefixCache`] with a flight recorder attached and renders every
//! [`TraceEvent::EvictionEpisode`] (tier, cause, pool size, α bits, and per
//! victim its node, depth, action, bytes and the bits of `last_access` and
//! `flop_efficiency`) plus the final [`CacheStats`] and both tiers' usage.
//! The matrix is {LRU, FlopAware α = 1, GDSF, AutoTuned} × host budget
//! {0, 2× device} × {no pins, pins held across admission} × 3 seeds. To
//! bless an intentional change, run
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p marconi-core --test tiered_victim_golden
//! ```
//!
//! and review the diff of `tests/golden/` like any other code change.

use marconi_core::trace::{RingRecorder, TraceEvent, Tracer};
use marconi_core::{CacheStats, EvictionPolicy, HybridPrefixCache, PrefixCache, TunerConfig};
use marconi_model::ModelConfig;
use marconi_workload::{DatasetKind, TraceGenerator};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: [u64; 3] = [1, 2, 3];

/// In-flight pins held at once in the pinned arm: each request's pin stays
/// held across its own admission and the next ones until this many newer
/// requests hold pins.
const PINS_IN_FLIGHT: usize = 3;

fn policies() -> Vec<(&'static str, EvictionPolicy)> {
    vec![
        ("lru", EvictionPolicy::Lru),
        ("flop-aware-1", EvictionPolicy::FlopAware { alpha: 1.0 }),
        ("gdsf", EvictionPolicy::Gdsf),
        (
            "auto-tuned",
            EvictionPolicy::AutoTuned(TunerConfig {
                bootstrap_multiplier: 2.0,
                alpha_grid: vec![0.5, 2.0, 8.0],
                parallel: false,
            }),
        ),
    ]
}

/// Replays one seeded trace through one configuration and renders its
/// episodes and end state. Returns `(episodes, demotions, host episodes)`
/// so the caller can check the matrix exercises both tiers.
fn render_run(
    out: &mut String,
    label: &str,
    policy: &EvictionPolicy,
    host_tier: bool,
    pins: bool,
    seed: u64,
) -> (u64, u64, u64) {
    let model = ModelConfig::hybrid_7b();
    let trace = TraceGenerator::new(DatasetKind::Lmsys)
        .sessions(16)
        .seed(seed)
        .generate();
    let device = trace.total_input_tokens() / 8 * model.kv_bytes_per_token();
    let host = if host_tier { 2 * device } else { 0 };
    let mut cache = HybridPrefixCache::builder(model)
        .capacity_bytes(device)
        .host_capacity_bytes(host)
        .policy(policy.clone())
        .build();
    let (tracer, recorder) = Tracer::to_sink(RingRecorder::new(1 << 20));
    cache.set_tracer(tracer);
    let mut held = VecDeque::new();
    for r in &trace.requests {
        cache.lookup_at(&r.input, r.arrival);
        if pins {
            held.push_back(cache.pin_prefix(&r.input));
        }
        cache.insert_at(&r.input, &r.output, r.arrival);
        while held.len() > PINS_IN_FLIGHT {
            let ticket = held.pop_front().expect("invariant: queue is non-empty");
            cache.unpin(ticket);
        }
    }
    for ticket in held {
        cache.unpin(ticket);
    }

    let rec = recorder.lock().expect("lock: test-local recorder");
    assert_eq!(
        rec.dropped(),
        0,
        "{label}: the recorder must keep every event"
    );
    writeln!(out, "{label}").expect("invariant: String write");
    let (mut episodes, mut host_episodes) = (0u64, 0u64);
    for e in rec.events() {
        let TraceEvent::EvictionEpisode {
            tier,
            cause,
            pool_len,
            alpha,
            victims,
            ..
        } = &e.event
        else {
            continue;
        };
        episodes += 1;
        host_episodes += u64::from(tier.label() == "host");
        writeln!(
            out,
            "  ep {} {} pool {} alpha {:016x}",
            tier.label(),
            cause.label(),
            pool_len,
            alpha.to_bits()
        )
        .expect("invariant: String write");
        for v in victims {
            writeln!(
                out,
                "    n{} d{} {} {}B t{:016x} e{:016x}",
                v.node,
                v.depth,
                v.action.label(),
                v.bytes,
                v.last_access.to_bits(),
                v.flop_efficiency.to_bits()
            )
            .expect("invariant: String write");
        }
    }
    let s: &CacheStats = cache.stats();
    writeln!(
        out,
        "  stats {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
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
    writeln!(
        out,
        "  usage device {} host {} nodes {} ssm {}",
        cache.usage_bytes(),
        cache.host_usage_bytes(),
        cache.node_count(),
        cache.ssm_state_count()
    )
    .expect("invariant: String write");
    (episodes, s.demotions, host_episodes)
}

fn check_golden(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("invariant: golden path has a parent"))
            .expect("invariant: goldens dir is creatable on regen");
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
fn tiered_victim_selection_matches_golden() {
    let mut golden = String::new();
    let (mut episodes, mut demotions, mut host_episodes) = (0u64, 0u64, 0u64);
    for (policy_label, policy) in policies() {
        for host_tier in [false, true] {
            for pins in [false, true] {
                for seed in SEEDS {
                    let label = format!(
                        "{policy_label}/{}/{}/s{seed}",
                        if host_tier { "host" } else { "single" },
                        if pins { "pinned" } else { "unpinned" }
                    );
                    let (e, d, h) = render_run(&mut golden, &label, &policy, host_tier, pins, seed);
                    episodes += e;
                    demotions += d;
                    host_episodes += h;
                }
            }
        }
    }
    assert!(
        episodes > 0 && demotions > 0 && host_episodes > 0,
        "the matrix must exercise device episodes ({episodes}), demotion ({demotions}) \
         and host episodes ({host_episodes})"
    );
    check_golden("tiered_victims.txt", &golden);
}
