//! Routing for multi-replica serving: N cache replicas behind a pluggable
//! router.
//!
//! Marconi's evaluation is single-replica; at production scale a fleet of
//! cache replicas sits behind a router that decides where each request
//! lands, and the *placement* decision determines how much cross-request
//! prefix reuse survives sharding. [`EventCluster`](crate::EventCluster)
//! replays a trace against N independent [`HybridPrefixCache`] replicas —
//! each with its own capacity slice and eviction policy — under one of
//! this module's [`Router`]s:
//!
//! * [`RoundRobin`] — spreads consecutive requests evenly, destroying both
//!   session history and shared-prompt locality;
//! * [`SessionAffinity`] — pins each session to `hash(session_id) % N`,
//!   preserving within-session reuse but scattering tenants;
//! * [`PrefixAware`] — probes every replica's radix tree for the longest
//!   reusable cached prefix (via the non-mutating
//!   [`PrefixCache::longest_cached_prefix_len`]) and routes to the best
//!   match, breaking ties toward the least-loaded replica;
//! * [`QueueAware`] — like [`PrefixAware`], but ties break toward the
//!   fewest outstanding queued tokens, so under modeled service time
//!   placement trades prefix locality against real-time load.
//!
//! An N=1 cluster reproduces the single-node [`Engine`](crate::Engine)'s
//! cache outcomes byte-for-byte under every router (the parity tests below
//! pin this), so the paper-claims suite anchors the cluster layer.

use marconi_core::{HybridPrefixCache, PrefixCache, TieredPrefix};
use marconi_trace::ReplicaProbe;
use marconi_workload::{Request, Token};
use std::fmt;

/// What a [`Router`] may see of one replica: a read-only probe plus load
/// accounting. Probing **cannot** mutate the replica — placement probes on
/// replicas that don't win a request leave them byte-identical.
#[derive(Debug)]
pub struct ReplicaStatus<'a> {
    index: usize,
    cache: &'a HybridPrefixCache,
    queued_tokens: u64,
}

impl<'a> ReplicaStatus<'a> {
    /// Builds the router-facing view of one replica. `queued_tokens` is the
    /// replica executor's outstanding prefill backlog at routing time.
    pub(crate) fn new(index: usize, cache: &'a HybridPrefixCache, queued_tokens: u64) -> Self {
        ReplicaStatus {
            index,
            cache,
            queued_tokens,
        }
    }

    /// This replica's index in the cluster.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Outstanding prefill backlog in tokens: inputs waiting in the
    /// replica's admission queue plus un-prefilled remainders of its
    /// running batch. Always 0 in zero-time mode
    /// ([`EventClusterBuilder::instantaneous`](crate::EventClusterBuilder::instantaneous)),
    /// where every request completes before the next arrival is routed.
    #[must_use]
    pub fn queued_tokens(&self) -> u64 {
        self.queued_tokens
    }

    /// Longest reusable cached prefix of `input` on this replica, in
    /// tokens, without touching recency or stats
    /// ([`PrefixCache::longest_cached_prefix_len`]).
    #[must_use]
    pub fn probe(&self, input: &[Token]) -> u64 {
        self.cache.longest_cached_prefix_len(input)
    }

    /// Tier-split probe: the longest reusable cached prefix *and* how much
    /// of it is host-resident (would need a PCIe transfer or recompute).
    /// Same non-mutating guarantee as [`probe`](ReplicaStatus::probe);
    /// `probe_tiers(input).tokens == probe(input)` always.
    #[must_use]
    pub fn probe_tiers(&self, input: &[Token]) -> TieredPrefix {
        self.cache.probe_tiers(input)
    }

    /// Input tokens this replica has looked up so far (the load measure):
    /// the cache's own cumulative `input_tokens` counter, one source of
    /// truth shared with
    /// [`EventClusterReport::replica_loads`](crate::EventClusterReport::replica_loads).
    ///
    /// A routed request counts here only once its executor has admitted
    /// it and done its lookup. Requests still waiting in the replica's
    /// queue count in [`queued_tokens`](ReplicaStatus::queued_tokens)
    /// instead.
    #[must_use]
    pub fn routed_tokens(&self) -> u64 {
        self.cache.stats().input_tokens
    }

    /// Bytes of model states currently resident on this replica's device
    /// tier.
    #[must_use]
    pub fn usage_bytes(&self) -> u64 {
        self.cache.usage_bytes()
    }

    /// This replica's device-capacity slice in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.cache.capacity_bytes()
    }

    /// Bytes of model states demoted to this replica's host tier.
    #[must_use]
    pub fn host_usage_bytes(&self) -> u64 {
        self.cache.host_usage_bytes()
    }

    /// This replica's host-budget slice in bytes (0 = single-tier).
    #[must_use]
    pub fn host_capacity_bytes(&self) -> u64 {
        self.cache.host_capacity_bytes()
    }
}

/// A routing policy: picks the replica each request is served on.
///
/// Implementations must be deterministic — same request sequence and same
/// replica states must produce the same assignment — so cluster replays are
/// reproducible (the seeded-determinism tests enforce this for every
/// built-in router).
pub trait Router: fmt::Debug {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> &str;

    /// Picks the replica index in `[0, replicas.len())` for `req`.
    ///
    /// Probing `replicas` is free of side effects; only the winning replica
    /// will observe the request.
    fn route(&mut self, req: &Request, replicas: &[ReplicaStatus<'_>]) -> usize;
}

/// Round-robin routing: request `k` goes to replica `k % N`. The
/// locality-oblivious baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
}

impl Router for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn route(&mut self, _req: &Request, replicas: &[ReplicaStatus<'_>]) -> usize {
        let idx = self.next % replicas.len();
        self.next = (self.next + 1) % replicas.len();
        idx
    }
}

/// Session-affinity routing: `splitmix64(session_id) % N`, so every turn of
/// a session lands on the same replica. Preserves conversation-history
/// reuse; blind to cross-session (shared-prompt) reuse.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionAffinity;

/// SplitMix64: a fixed, portable integer hash so assignments never depend
/// on process- or platform-specific hasher state.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Router for SessionAffinity {
    fn name(&self) -> &str {
        "session-affinity"
    }

    fn route(&mut self, req: &Request, replicas: &[ReplicaStatus<'_>]) -> usize {
        (splitmix64(req.session_id) % replicas.len() as u64) as usize
    }
}

/// Prefix-aware routing: probe every replica for the longest reusable
/// cached prefix of the request's input and route to the deepest match;
/// among equally deep matches, prefer the one with more of the prefix
/// device-resident (a host hit pays a reload before it serves), then the
/// least-loaded replica (fewest routed tokens), then the lowest index.
///
/// This recovers both reuse channels sharding endangers: a session's later
/// turns follow its cached history, and a tenant's new sessions follow the
/// replica already holding the tenant's system prompt.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefixAware;

impl Router for PrefixAware {
    fn name(&self) -> &str {
        "prefix-aware"
    }

    fn route(&mut self, req: &Request, replicas: &[ReplicaStatus<'_>]) -> usize {
        // Probe each replica exactly once (a probe walks the radix tree
        // over the full input — too expensive to re-run inside the
        // comparator).
        replicas
            .iter()
            .map(|r| (r.probe_tiers(&req.input), r))
            .max_by(|(pa, a), (pb, b)| {
                pa.tokens
                    .cmp(&pb.tokens)
                    // Deeper wins outright; on a depth tie the hit with
                    // fewer host-resident tokens is worth more. With no
                    // host tier anywhere this term always ties, preserving
                    // the pre-tiering assignments exactly.
                    .then(pb.host_tokens.cmp(&pa.host_tokens))
                    .then(b.routed_tokens().cmp(&a.routed_tokens()))
                    .then(b.index.cmp(&a.index))
            })
            .map(|(_, r)| r.index)
            .expect("invariant: clusters have at least one replica")
    }
}

/// Queue-aware routing: probe every replica for the longest reusable
/// cached prefix (like [`PrefixAware`], including the device-over-host
/// preference on depth ties) but then break ties toward the replica with
/// the fewest *outstanding queued tokens*, then fewest routed tokens,
/// then the lowest index.
///
/// In zero-time mode every queue reads 0 at routing time and this
/// degenerates to exactly [`PrefixAware`]; under modeled service time it
/// is the policy that trades prefix locality against real-time load — a
/// deep cached prefix on a replica with a long backlog can still win, but
/// among equally-warm replicas the request joins the shortest queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueAware;

impl Router for QueueAware {
    fn name(&self) -> &str {
        "queue-aware"
    }

    fn route(&mut self, req: &Request, replicas: &[ReplicaStatus<'_>]) -> usize {
        replicas
            .iter()
            .map(|r| (r.probe_tiers(&req.input), r))
            .max_by(|(pa, a), (pb, b)| {
                pa.tokens
                    .cmp(&pb.tokens)
                    .then(pb.host_tokens.cmp(&pa.host_tokens))
                    .then(b.queued_tokens.cmp(&a.queued_tokens))
                    // Queues tie (e.g. an idle fleet, or zero-time mode
                    // where depth is always 0): spread by
                    // cumulative routed load like `PrefixAware`, so the
                    // policy never funnels cold traffic to replica 0.
                    .then(b.routed_tokens().cmp(&a.routed_tokens()))
                    .then(b.index.cmp(&a.index))
            })
            .map(|(_, r)| r.index)
            .expect("invariant: clusters have at least one replica")
    }
}

/// Snapshot of every replica's router-visible state for a
/// [`TraceEvent::RouterDecision`], built only while a tracer is enabled.
/// Uses the same non-mutating probes the routers use, so capturing it
/// leaves every replica byte-identical.
pub(crate) fn trace_probes(req: &Request, statuses: &[ReplicaStatus<'_>]) -> Vec<ReplicaProbe> {
    statuses
        .iter()
        .map(|s| {
            let tiers = s.probe_tiers(&req.input);
            ReplicaProbe {
                replica: s.index() as u64,
                matched_tokens: tiers.tokens,
                host_tokens: tiers.host_tokens,
                queued_tokens: s.queued_tokens(),
                routed_tokens: s.routed_tokens(),
            }
        })
        .collect()
}

/// Which comparator stage decided a routing choice, replayed
/// observationally from the probes: the first stage of the
/// prefix-/queue-aware total order at which a unique survivor remains.
/// Hash- and rotation-based routers report their policy name; unknown
/// custom routers report `custom`.
pub(crate) fn route_tie_break(router: &str, probes: &[ReplicaProbe]) -> &'static str {
    if probes.len() <= 1 {
        return "single-replica";
    }
    match router {
        "round-robin" => return "round-robin",
        "session-affinity" => return "session-affinity",
        "prefix-aware" | "queue-aware" => {}
        _ => return "custom",
    }
    /// One comparator stage: (label, probe key, whether max survives).
    type Stage = (&'static str, fn(&ReplicaProbe) -> u64, bool);
    let mut survivors: Vec<&ReplicaProbe> = probes.iter().collect();
    let stages: [Stage; 4] = [
        ("prefix-tokens", |p| p.matched_tokens, true),
        ("host-tokens", |p| p.host_tokens, false),
        ("queue-depth", |p| p.queued_tokens, false),
        ("routed-tokens", |p| p.routed_tokens, false),
    ];
    for (label, key, prefer_max) in stages {
        if label == "queue-depth" && router != "queue-aware" {
            continue;
        }
        let best = survivors
            .iter()
            .map(|p| key(p))
            .fold(None, |acc: Option<u64>, v| {
                Some(match acc {
                    None => v,
                    Some(a) if prefer_max => a.max(v),
                    Some(a) => a.min(v),
                })
            });
        let Some(best) = best else { break };
        survivors.retain(|p| key(p) == best);
        if survivors.len() == 1 {
            return label;
        }
    }
    "replica-index"
}

/// The built-in routing policies, for sweeps and builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingPolicy {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`SessionAffinity`].
    SessionAffinity,
    /// [`PrefixAware`].
    PrefixAware,
    /// [`QueueAware`].
    QueueAware,
}

impl RoutingPolicy {
    /// All built-in policies, weakest locality first.
    pub const ALL: [RoutingPolicy; 4] = [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::SessionAffinity,
        RoutingPolicy::PrefixAware,
        RoutingPolicy::QueueAware,
    ];

    /// Instantiates the router.
    #[must_use]
    pub fn build(self) -> Box<dyn Router> {
        match self {
            RoutingPolicy::RoundRobin => Box::new(RoundRobin::default()),
            RoutingPolicy::SessionAffinity => Box::new(SessionAffinity),
            RoutingPolicy::PrefixAware => Box::new(PrefixAware),
            RoutingPolicy::QueueAware => Box::new(QueueAware),
        }
    }
}

impl fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::SessionAffinity => "session-affinity",
            RoutingPolicy::PrefixAware => "prefix-aware",
            RoutingPolicy::QueueAware => "queue-aware",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::{assert_engine_zero_load, without_latencies};
    use crate::{Engine, EventCluster, GpuModel};
    use marconi_core::EvictionPolicy;
    use marconi_model::ModelConfig;
    use marconi_workload::{DatasetKind, Trace, TraceGenerator};

    fn multi_tenant_trace(seed: u64) -> Trace {
        TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(24)
            .tenants(6)
            .seed(seed)
            .generate()
    }

    fn cluster(n: usize, policy: RoutingPolicy, capacity: u64) -> EventCluster {
        EventCluster::builder(ModelConfig::hybrid_7b())
            .replicas(n)
            .total_capacity_bytes(capacity)
            .policy(EvictionPolicy::Lru)
            .routing(policy)
            .instantaneous()
            .build()
    }

    #[test]
    fn n1_cluster_reproduces_single_node_engine_under_every_router() {
        // The parity anchor: a cluster of one replica is the single-node
        // simulator, byte for byte, regardless of router — so everything
        // the paper-claims suite establishes about the engine transfers.
        // Every record field but the latencies is compared: zero-time
        // service reports zero TTFT, while the engine's is analytic.
        let trace = multi_tenant_trace(11);
        for policy in [
            EvictionPolicy::Lru,
            EvictionPolicy::FlopAware { alpha: 2.0 },
            EvictionPolicy::default(), // Marconi auto-tuned
        ] {
            let capacity = 4 << 30;
            let mut engine = Engine::new(
                HybridPrefixCache::builder(ModelConfig::hybrid_7b())
                    .capacity_bytes(capacity)
                    .policy(policy.clone())
                    .build(),
                GpuModel::a100_x4(),
            );
            let single = engine.run(&trace);
            assert_engine_zero_load(&single);
            for routing in RoutingPolicy::ALL {
                let mut c = EventCluster::builder(ModelConfig::hybrid_7b())
                    .replicas(1)
                    .total_capacity_bytes(capacity)
                    .policy(policy.clone())
                    .routing(routing)
                    .instantaneous()
                    .build();
                let report = c.run(&trace);
                assert_eq!(
                    report.replicas[0].cache_stats, single.cache_stats,
                    "{routing}/{policy}: CacheStats must be byte-identical"
                );
                let got = &report.replicas[0].records;
                assert_eq!(got.len(), single.records.len());
                for (g, e) in got.iter().zip(&single.records) {
                    assert_eq!(
                        without_latencies(g),
                        without_latencies(e),
                        "{routing}/{policy}: req {} record must match",
                        e.id
                    );
                }
                assert!(report.assignments.iter().all(|&i| i == 0));
            }
        }
    }

    #[test]
    fn routers_are_deterministic_across_replays() {
        let trace = multi_tenant_trace(7);
        for routing in RoutingPolicy::ALL {
            let run = || {
                let mut c = cluster(4, routing, 8 << 30);
                c.run(&trace)
            };
            let (a, b) = (run(), run());
            assert_eq!(a.assignments, b.assignments, "{routing}: assignment log");
            assert_eq!(a, b, "{routing}: full report");
        }
    }

    #[test]
    fn prefix_aware_beats_session_affinity_beats_round_robin() {
        // The acceptance-criteria assertion: on a seeded multi-tenant trace
        // at N=4, prefix-aware routing achieves strictly higher aggregate
        // token hit rate than round-robin. Session affinity sits between:
        // it preserves within-session reuse but scatters tenants.
        let trace = multi_tenant_trace(42);
        let rate = |routing: RoutingPolicy| {
            let mut c = cluster(4, routing, 16 << 30);
            c.run(&trace).aggregate_token_hit_rate()
        };
        let rr = rate(RoutingPolicy::RoundRobin);
        let sa = rate(RoutingPolicy::SessionAffinity);
        let pa = rate(RoutingPolicy::PrefixAware);
        assert!(
            pa > rr,
            "prefix-aware ({pa:.3}) must beat round-robin ({rr:.3})"
        );
        assert!(
            sa > rr,
            "session affinity ({sa:.3}) must beat round-robin ({rr:.3})"
        );
        assert!(
            pa >= sa,
            "prefix-aware ({pa:.3}) must not lose to session affinity ({sa:.3})"
        );
    }

    #[test]
    fn queue_aware_degenerates_to_prefix_aware_without_queues() {
        // Zero-time service never forms queues (queued_tokens is always 0
        // at routing time), so queue-aware routing must reproduce
        // prefix-aware assignments exactly — the queue tie-breaker only
        // bites under modeled service time.
        let trace = multi_tenant_trace(5);
        let run = |routing: RoutingPolicy| {
            let mut c = cluster(4, routing, 8 << 30);
            c.run(&trace).assignments
        };
        assert_eq!(
            run(RoutingPolicy::QueueAware),
            run(RoutingPolicy::PrefixAware)
        );
    }

    #[test]
    fn losing_replicas_are_untouched_by_prefix_probes() {
        // The probe-side regression: routing a request away from a replica
        // must leave that replica byte-identical, even though the router
        // probed its tree.
        let model = ModelConfig::hybrid_7b();
        let mut c = EventCluster::builder(model.clone())
            .replicas(2)
            .total_capacity_bytes(8 << 30)
            .policy(EvictionPolicy::Lru)
            .routing(RoutingPolicy::PrefixAware)
            .instantaneous()
            .build();
        let session_a: Vec<Token> = (0..400).collect();
        let session_b: Vec<Token> = (100_000..100_400).collect();
        let mk = |id, session_id, input: &[Token]| Request {
            id,
            session_id,
            tenant_id: session_id,
            turn: 0,
            arrival: id as f64,
            input: input.to_vec(),
            output: (200_000..200_032).collect(),
        };
        // Request 0 (session A) → replica 0 (all probes 0, least loaded,
        // lowest index); request 1 (session B, no shared prefix) → replica 1
        // (least loaded).
        let warmup = Trace {
            name: "warmup".into(),
            requests: vec![mk(0, 0, &session_a), mk(1, 1, &session_b)],
        };
        assert_eq!(c.run(&warmup).assignments, vec![0, 1]);

        let loser_stats = *c.replica_cache(1).stats();
        let loser_usage = c.replica_cache(1).usage_bytes();
        let loser_nodes = c.replica_cache(1).node_count();
        let loser_states = c.replica_cache(1).ssm_state_count();

        // Session A's second turn: probing finds its history on replica 0,
        // so replica 1 is probed and loses.
        let mut resume = session_a.clone();
        resume.extend(200_000..200_032);
        resume.extend(300_000..300_040);
        let turn2 = Trace {
            name: "turn2".into(),
            requests: vec![mk(2, 0, &resume)],
        };
        let report = c.run(&turn2);
        assert_eq!(report.assignments, vec![0], "history lives on replica 0");
        assert!(
            report.replicas[0].cache_stats.hit_tokens > 0,
            "the winning replica serves the resume from cache"
        );
        assert_eq!(
            *c.replica_cache(1).stats(),
            loser_stats,
            "losing replica's stats must not move"
        );
        assert_eq!(c.replica_cache(1).usage_bytes(), loser_usage);
        assert_eq!(c.replica_cache(1).node_count(), loser_nodes);
        assert_eq!(c.replica_cache(1).ssm_state_count(), loser_states);
    }

    #[test]
    fn capacity_is_sliced_evenly_across_replicas() {
        let c = cluster(4, RoutingPolicy::RoundRobin, 16 << 30);
        for i in 0..4 {
            assert_eq!(c.replica_cache(i).capacity_bytes(), 4 << 30);
        }
    }

    #[test]
    fn host_capacity_and_reload_policy_reach_every_replica() {
        // The replica-construction fidelity rule extended to the tier
        // knobs: a cluster-wide host budget slices like the device
        // capacity, and the reload policy reaches each cache.
        let c = EventCluster::builder(ModelConfig::hybrid_7b())
            .replicas(4)
            .total_capacity_bytes(16 << 30)
            .total_host_capacity_bytes(64 << 30)
            .reload_policy(marconi_core::ReloadPolicy::AlwaysReload)
            .routing(RoutingPolicy::PrefixAware)
            .instantaneous()
            .build();
        for i in 0..4 {
            assert_eq!(c.replica_cache(i).host_capacity_bytes(), 16 << 30);
            assert_eq!(
                c.replica_cache(i).reload_policy(),
                marconi_core::ReloadPolicy::AlwaysReload
            );
        }
    }

    #[test]
    fn routers_weigh_host_hits_below_device_hits() {
        // Two replicas hold the same prefix equally deep, but on replica 0
        // it has been demoted to host. Prefix- and queue-aware routing must
        // send the request to the device-resident copy — and with no host
        // tier anywhere, the extra tie-break term must not change anything
        // (pinned separately by `queue_aware_degenerates_to_prefix_aware`).
        let m = ModelConfig::hybrid_7b();
        let prompt: Vec<Token> = (0..96).collect();
        let output: Vec<Token> = (200_000..200_032).collect();
        let warm = |host: bool| {
            let mut c = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(if host {
                    // Too small for two sequences: the follow-up insert
                    // demotes the prompt's sequence.
                    128 * m.kv_bytes_per_token() + m.ssm_checkpoint_bytes() + 1
                } else {
                    4 << 30
                })
                .host_capacity_bytes(1 << 40)
                .policy(EvictionPolicy::Lru)
                .build();
            c.insert_at(&prompt, &output, 0.0);
            if host {
                c.insert_at(
                    &(300_000..300_096).collect::<Vec<Token>>(),
                    &(400_000..400_032).collect::<Vec<Token>>(),
                    1.0,
                );
            }
            c
        };
        let demoted = warm(true);
        let device = warm(false);
        let mut resume = prompt.clone();
        resume.extend_from_slice(&output);
        // Same depth on both replicas; only the tier differs.
        assert_eq!(
            demoted.longest_cached_prefix_len(&resume),
            device.longest_cached_prefix_len(&resume)
        );
        assert!(demoted.probe_tiers(&resume).host_tokens > 0);
        assert_eq!(device.probe_tiers(&resume).host_tokens, 0);
        let req = Request {
            id: 9,
            session_id: 0,
            tenant_id: 0,
            turn: 1,
            arrival: 2.0,
            input: resume,
            output: (500_000..500_008).collect(),
        };
        for mut router in [
            RoutingPolicy::PrefixAware.build(),
            RoutingPolicy::QueueAware.build(),
        ] {
            let statuses = [
                ReplicaStatus::new(0, &demoted, 0),
                ReplicaStatus::new(1, &device, 0),
            ];
            assert_eq!(
                router.route(&req, &statuses),
                1,
                "{}: the device-resident copy must win the tie",
                router.name()
            );
        }
    }

    #[test]
    fn round_robin_balances_request_counts() {
        let trace = multi_tenant_trace(3);
        let mut c = cluster(4, RoutingPolicy::RoundRobin, 8 << 30);
        let report = c.run(&trace);
        let mut counts = [0usize; 4];
        for &idx in &report.assignments {
            counts[idx] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "round-robin counts differ: {counts:?}");
        let imbalance = report.load_imbalance().unwrap();
        assert!(imbalance.factor() >= 1.0);
    }

    #[test]
    fn aggregate_stats_sum_replica_counters() {
        let trace = multi_tenant_trace(9);
        let mut c = cluster(4, RoutingPolicy::SessionAffinity, 8 << 30);
        let report = c.run(&trace);
        let agg = report.aggregate_stats();
        assert_eq!(agg.lookups, trace.len() as u64);
        assert_eq!(agg.input_tokens, trace.total_input_tokens());
        assert_eq!(
            agg.lookups,
            report
                .replicas
                .iter()
                .map(|r| r.cache_stats.lookups)
                .sum::<u64>()
        );
        assert_eq!(report.ttfts_ms().len(), trace.len());
    }
}
