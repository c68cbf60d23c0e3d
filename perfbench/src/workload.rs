//! The three seeded workloads and one measured round of each: set-up
//! (trace generation, build, fixed warm-up) followed by a fixed measured
//! region, both counted in passes over the seeded trace.

use crate::timed::{Shared, Span, TimedCache, TimedRouter};
use marconi::cache::{
    CacheStats, EvictionPolicy, HybridPrefixCache, PrefixCache, TunerConfig, TunerState,
};
use marconi::model::ModelConfig;
use marconi::sim::{Engine, EventCluster, GpuModel, RoutingPolicy};
use marconi::trace::{RingRecorder, Tracer};
use marconi::workload::{ArrivalConfig, DatasetKind, Trace, TraceGenerator};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Device budget of `agentic`: far above its trace's footprint, so
/// eviction never runs.
const AGENTIC_CAPACITY_BYTES: u64 = 1 << 40;
/// `pressure` budgets, in tokens of KV.
const PRESSURE_DEVICE_TOKENS: u64 = 300_000;
const PRESSURE_HOST_TOKENS: u64 = 600_000;
/// `cluster` budget over all replicas, in tokens of KV.
const CLUSTER_TOKENS: u64 = 400_000;
const CLUSTER_REPLICAS: usize = 4;
/// Events the cluster's live recorder keeps.
const RING_CAPACITY: usize = 1 << 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long multi-step SWE-Bench sessions, cursor-resumed, never evicting.
    Agentic,
    /// LMSys chat at device + host capacity: eviction, demotion, reloads.
    Pressure,
    /// ShareGPT on four queueing replicas with the flight recorder on.
    Cluster,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Agentic, Workload::Pressure, Workload::Cluster];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Agentic => "agentic",
            Workload::Pressure => "pressure",
            Workload::Cluster => "cluster",
        }
    }

    /// The seeded trace; the seed is the only input that varies.
    pub fn trace(self, seed: u64) -> Trace {
        let (kind, sessions, tenants, sessions_per_s) = match self {
            Workload::Agentic => (DatasetKind::SweBench, 300, 1, 20.0),
            Workload::Pressure => (DatasetKind::Lmsys, 1_000, 1, 20.0),
            Workload::Cluster => (DatasetKind::ShareGpt, 1_000, 8, 8.0),
        };
        TraceGenerator::new(kind)
            .sessions(sessions)
            .tenants(tenants)
            .arrival(ArrivalConfig::new(sessions_per_s, 5.0))
            .seed(seed)
            .generate()
    }

    /// Passes replayed before measuring. `agentic` builds a fresh engine
    /// per pass, so its one warm-up pass only warms the process; the
    /// long-lived caches need enough passes for every α tuner to finish
    /// its grid search and for capacity to be reached.
    pub fn warmup_passes(self) -> usize {
        match self {
            Workload::Agentic => 1,
            Workload::Pressure => 2,
            Workload::Cluster => 2,
        }
    }

    /// Passes in the measured region.
    pub fn region_passes(self) -> usize {
        match self {
            Workload::Agentic => 8,
            Workload::Pressure => 3,
            Workload::Cluster => 3,
        }
    }

    /// Token budget of the bare radix-tree replay: what the workload's
    /// caches may hold on all tiers together.
    pub fn token_budget(self) -> u64 {
        match self {
            Workload::Agentic => {
                AGENTIC_CAPACITY_BYTES / ModelConfig::hybrid_7b().kv_bytes_per_token()
            }
            Workload::Pressure => PRESSURE_DEVICE_TOKENS + PRESSURE_HOST_TOKENS,
            Workload::Cluster => CLUSTER_TOKENS,
        }
    }

    /// Whether each pass keeps the cache of the pass before it.
    fn long_lived(self) -> bool {
        self != Workload::Agentic
    }
}

fn policy() -> EvictionPolicy {
    // The parallel grid spawns one thread per α; the sequential grid picks
    // the same α, and keeps the whole benchmark on one thread.
    EvictionPolicy::AutoTuned(TunerConfig {
        parallel: false,
        ..TunerConfig::default()
    })
}

fn engine_cache(w: Workload) -> HybridPrefixCache {
    let m = ModelConfig::hybrid_7b();
    let kv = m.kv_bytes_per_token();
    let b = HybridPrefixCache::builder(m).policy(policy());
    match w {
        Workload::Agentic => b.capacity_bytes(AGENTIC_CAPACITY_BYTES),
        _ => b
            .capacity_bytes(PRESSURE_DEVICE_TOKENS * kv)
            .host_capacity_bytes(PRESSURE_HOST_TOKENS * kv),
    }
    .build()
}

/// Moves every arrival `span` seconds later, so a replayed pass keeps the
/// caches' recency clocks advancing.
pub fn shift(trace: &mut Trace, span: f64) {
    for r in &mut trace.requests {
        r.arrival += span;
    }
}

/// Arrival offset between passes: past the last arrival, in whole seconds.
pub fn pass_span(trace: &Trace) -> f64 {
    trace.duration().ceil() + 1.0
}

/// One request's outcome, from either driver's record type.
#[derive(Debug, Clone, Copy)]
struct Rec {
    id: u64,
    input_len: u64,
    hit: u64,
    host_hit: u64,
    raw: u64,
    ttft_ms: f64,
    queue_ms: f64,
    flops_spent: u128,
    flops_saved: u128,
}

/// What one driver pass produced.
struct PassOut {
    ns: u64,
    recs: Vec<Rec>,
    stats: CacheStats,
    iterations: u64,
    assignments: Vec<usize>,
    /// Events the cluster's recorder took in this pass.
    events: u64,
}

impl PassOut {
    fn pressured(&self) -> bool {
        self.stats.evictions + self.stats.demotions > 0
    }
}

enum Server {
    Plain(Engine<HybridPrefixCache>),
    Timed(Engine<TimedCache>),
    Cluster {
        cluster: EventCluster,
        tracer: Tracer,
        ring: Arc<Mutex<RingRecorder>>,
    },
}

impl Server {
    fn build(w: Workload, log: Option<&Shared>) -> Server {
        if w != Workload::Cluster {
            let gpu = GpuModel::a100_x4();
            return match log {
                None => Server::Plain(Engine::new(engine_cache(w), gpu)),
                Some(log) => Server::Timed(Engine::new(
                    TimedCache::new(engine_cache(w), log.clone()),
                    gpu,
                )),
            };
        }
        let m = ModelConfig::hybrid_7b();
        let kv = m.kv_bytes_per_token();
        let b = EventCluster::builder(m)
            .replicas(CLUSTER_REPLICAS)
            .total_capacity_bytes(CLUSTER_TOKENS * kv)
            .policy(policy())
            .gpu(GpuModel::a100_x4());
        let b = match log {
            None => b.routing(RoutingPolicy::QueueAware),
            Some(log) => b.router(Box::new(TimedRouter::new(
                RoutingPolicy::QueueAware.build(),
                log.clone(),
            ))),
        };
        let mut cluster = b.build();
        let (tracer, ring) = Tracer::to_sink(RingRecorder::new(RING_CAPACITY));
        cluster.set_tracer(tracer.clone());
        Server::Cluster {
            cluster,
            tracer,
            ring,
        }
    }

    fn tuner_states(&self) -> Vec<Option<TunerState>> {
        match self {
            Server::Plain(e) => vec![e.cache().tuner_state()],
            Server::Timed(e) => vec![e.cache().inner().tuner_state()],
            Server::Cluster { cluster, .. } => (0..cluster.replica_count())
                .map(|i| cluster.replica_cache(i).tuner_state())
                .collect(),
        }
    }

    fn all_tuned(&self) -> bool {
        self.tuner_states()
            .iter()
            .all(|s| matches!(s, Some(TunerState::Tuned { .. })))
    }

    /// Replays `trace` once. `recorder` detaches the cluster's recorder
    /// for this pass when false (the ablation arm).
    fn pass(&mut self, trace: &Trace, log: Option<&Shared>, recorder: bool) -> PassOut {
        if let Some(log) = log {
            log.borrow_mut().begin_pass();
        }
        let clock = Instant::now();
        let t0 = log.map(|l| l.borrow().now());
        let mut out = match self {
            Server::Plain(e) => engine_pass(e, trace),
            Server::Timed(e) => engine_pass(e, trace),
            Server::Cluster {
                cluster,
                tracer,
                ring,
            } => {
                let before = ring.lock().expect("lock: recorder").recorded();
                cluster.set_tracer(if recorder {
                    tracer.clone()
                } else {
                    Tracer::off()
                });
                let rep = cluster.run(trace);
                let after = ring.lock().expect("lock: recorder").recorded();
                let mut recs: Vec<Rec> = rep
                    .replicas
                    .iter()
                    .flat_map(|r| &r.records)
                    .map(|r| Rec {
                        id: r.id,
                        input_len: r.input_len,
                        hit: r.hit_tokens,
                        host_hit: r.host_hit_tokens,
                        raw: r.raw_matched,
                        ttft_ms: r.ttft_ms,
                        queue_ms: r.queue_ms,
                        flops_spent: r.flops_spent,
                        flops_saved: r.flops_saved,
                    })
                    .collect();
                recs.sort_by_key(|r| r.id);
                PassOut {
                    ns: 0,
                    recs,
                    stats: rep.aggregate_stats(),
                    iterations: rep.replicas.iter().map(|r| r.iterations).sum(),
                    assignments: rep.assignments,
                    events: after - before,
                }
            }
        };
        out.ns = clock.elapsed().as_nanos() as u64;
        if let (Some(log), Some(t0)) = (log, t0) {
            let mut log = log.borrow_mut();
            let end = log.now();
            log.push(crate::timed::Kind::Pass, 0, t0, end);
        }
        out
    }
}

fn engine_pass<C: PrefixCache>(engine: &mut Engine<C>, trace: &Trace) -> PassOut {
    let before = *engine.cache().stats();
    let rep = engine.run(trace);
    PassOut {
        ns: 0,
        recs: rep
            .records
            .iter()
            .map(|r| Rec {
                id: r.id,
                input_len: r.input_len,
                hit: r.hit_tokens,
                host_hit: r.host_hit_tokens,
                raw: r.raw_matched,
                ttft_ms: r.ttft_ms,
                queue_ms: 0.0,
                flops_spent: r.flops_spent,
                flops_saved: r.flops_saved,
            })
            .collect(),
        stats: rep.cache_stats.delta_since(&before),
        iterations: 0,
        assignments: Vec::new(),
        events: 0,
    }
}

/// The measured region of one round, summed over its passes.
#[derive(Debug, Default)]
pub struct Region {
    pub requests: u64,
    /// Requests failing an output or workload-shape check.
    pub failed: u64,
    pub driver_ns: u64,
    /// Throughput of each pass, in requests per driver second.
    pub pass_rps: Vec<f64>,
    pub input_tokens: u64,
    pub hit_tokens: u64,
    pub host_hit_tokens: u64,
    pub raw_matched: u64,
    pub hit_lookups: u64,
    pub flops_saved: u128,
    pub flops_spent: u128,
    pub ttft_ms: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub stats: CacheStats,
    pub iterations: u64,
    pub events: u64,
    digest: DefaultHasher,
}

impl Region {
    fn add(&mut self, out: &PassOut, shape_ok: bool) {
        let n = out.recs.len() as u64;
        self.requests += n;
        self.driver_ns += out.ns;
        self.pass_rps.push(n as f64 / (out.ns.max(1) as f64 / 1e9));
        self.events += out.events;
        if !shape_ok {
            self.failed += n;
        } else {
            self.failed += out.recs.iter().filter(|r| r.hit > r.input_len).count() as u64;
        }
        for r in &out.recs {
            self.input_tokens += r.input_len;
            self.hit_tokens += r.hit;
            self.host_hit_tokens += r.host_hit;
            self.raw_matched += r.raw;
            self.hit_lookups += u64::from(r.hit > 0);
            self.flops_saved += r.flops_saved;
            self.flops_spent += r.flops_spent;
            self.ttft_ms.push(r.ttft_ms);
            self.queue_ms.push(r.queue_ms);
            (r.id, r.input_len, r.hit, r.host_hit, r.raw).hash(&mut self.digest);
            (r.ttft_ms.to_bits(), r.queue_ms.to_bits()).hash(&mut self.digest);
            (r.flops_spent, r.flops_saved).hash(&mut self.digest);
        }
        format!("{:?}", out.stats).hash(&mut self.digest);
        out.assignments.hash(&mut self.digest);
        self.stats.accumulate(&out.stats);
        self.iterations += out.iterations;
    }

    /// Adds `other`'s token, FLOP and latency samples, so deterministic
    /// metrics can be taken over several traces.
    pub fn pool(&mut self, other: &Region) {
        self.requests += other.requests;
        self.input_tokens += other.input_tokens;
        self.hit_tokens += other.hit_tokens;
        self.flops_saved += other.flops_saved;
        self.flops_spent += other.flops_spent;
        self.ttft_ms.extend_from_slice(&other.ttft_ms);
    }

    /// Hash of every deterministic output: per-request records (hit
    /// tokens, TTFT bits, ...), cache statistics and cluster assignments.
    pub fn fingerprint(&self) -> u64 {
        self.digest.finish()
    }

    pub fn token_hit_rate(&self) -> f64 {
        ratio(self.hit_tokens as f64, self.input_tokens as f64)
    }

    pub fn flops_saved_frac(&self) -> f64 {
        let saved = self.flops_saved as f64;
        ratio(saved, saved + self.flops_spent as f64)
    }

    /// Median over the region's passes of requests per driver second.
    pub fn rps(&self) -> f64 {
        crate::stats::median(&self.pass_rps)
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything one round measured.
#[derive(Debug)]
pub struct Round {
    /// The trace seed.
    pub seed: u64,
    pub setup_s: f64,
    /// Resident high-water mark of the round alone, in MB.
    pub peak_rss_mb: f64,
    pub gen_s: f64,
    pub region: Region,
    /// Spans of the measured region (traced rounds only).
    pub spans: Vec<Span>,
    pub hinted_lookups: u64,
    pub grid_s: Vec<f64>,
}

/// Runs one round: set-up, then the measured region. With `log`, every
/// layer call is timed into it. `recorder: false` detaches the cluster's
/// flight recorder (the ablation arm; the recorder never changes a
/// decision, so outputs are unaffected).
pub fn round(w: Workload, seed: u64, log: Option<&Shared>, recorder: bool) -> Round {
    reset_peak_rss();
    let t0 = Instant::now();
    let mut trace = w.trace(seed);
    let gen_s = t0.elapsed().as_secs_f64();
    let span = pass_span(&trace);
    let mut server = Server::build(w, log);
    let mut served = false;
    let mut last_warm = None;
    for _ in 0..w.warmup_passes() {
        ready(&mut server, &mut served, w, log);
        last_warm = Some(server.pass(&trace, log, recorder));
        if w.long_lived() {
            shift(&mut trace, span);
        }
    }
    let mut grid_s = Vec::new();
    if let (Workload::Cluster, Some(log), Some(warm)) = (w, log, &last_warm) {
        grid_s = replica_grid_s(&trace, &warm.assignments, log);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let setup_ok = match w {
        Workload::Agentic => true,
        // Every tuner has finished its grid search, and the caches are at
        // capacity before measuring starts.
        Workload::Pressure => {
            server.all_tuned() && last_warm.as_ref().is_some_and(PassOut::pressured)
        }
        Workload::Cluster => server.all_tuned(),
    };
    if let Some(log) = log {
        let mut l = log.borrow_mut();
        l.take_spans();
        l.hinted_lookups = 0;
    }

    let mut region = Region::default();
    for _ in 0..w.region_passes() {
        ready(&mut server, &mut served, w, log);
        let out = server.pass(&trace, log, recorder);
        let shape_ok = setup_ok
            && match w {
                Workload::Agentic => !out.pressured(),
                Workload::Pressure => out.pressured(),
                Workload::Cluster => true,
            };
        region.add(&out, shape_ok);
        if w.long_lived() {
            shift(&mut trace, span);
        }
    }
    let (spans, hinted_lookups, grid) = match log {
        Some(log) => {
            let mut l = log.borrow_mut();
            (
                l.take_spans(),
                l.hinted_lookups,
                std::mem::take(&mut l.grid_s),
            )
        }
        None => (Vec::new(), 0, Vec::new()),
    };
    grid_s.extend(grid);
    Round {
        seed,
        setup_s,
        peak_rss_mb: peak_rss_mb(),
        gen_s,
        region,
        spans,
        hinted_lookups,
        grid_s,
    }
}

/// Readies `server` for its next pass: `agentic` serves every pass on a
/// freshly built driver (dropping the old one, untimed); the others keep
/// theirs.
fn ready(server: &mut Server, served: &mut bool, w: Workload, log: Option<&Shared>) {
    if *served && !w.long_lived() {
        *server = Server::build(w, log);
    }
    *served = true;
}

/// Restarts the kernel's resident high-water mark at the current RSS
/// (`clear_refs` mode 5), so each round reports its own peak. Where that is
/// refused, the mark stays the process's, an upper bound.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Resident high-water mark of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `EventCluster` keeps its replica caches to itself, so the grid search
/// is timed on a stand-in: replica 0's configuration replaying, through
/// the timed wrapper, the requests replica 0 was routed in the last
/// warm-up pass, until its tuner is `Tuned`.
fn replica_grid_s(trace: &Trace, assignments: &[usize], log: &Shared) -> Vec<f64> {
    let m = ModelConfig::hybrid_7b();
    let kv = m.kv_bytes_per_token();
    let cache = HybridPrefixCache::builder(m)
        .capacity_bytes(CLUSTER_TOKENS * kv / CLUSTER_REPLICAS as u64)
        .policy(policy())
        .build();
    let mut sub = Trace {
        name: trace.name.clone(),
        requests: trace
            .requests
            .iter()
            .zip(assignments)
            .filter(|(_, &k)| k == 0)
            .map(|(r, _)| r.clone())
            .collect(),
    };
    let span = pass_span(&sub);
    let mut engine = Engine::new(TimedCache::new(cache, log.clone()), GpuModel::a100_x4());
    for _ in 0..Workload::Cluster.warmup_passes() + Workload::Cluster.region_passes() {
        engine.run(&sub);
        if !log.borrow().grid_s.is_empty() {
            break;
        }
        shift(&mut sub, span);
    }
    std::mem::take(&mut log.borrow_mut().grid_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs_digest(trace: &Trace) -> u64 {
        let mut h = DefaultHasher::new();
        for r in &trace.requests {
            (r.id, r.session_id, r.tenant_id, r.turn, r.arrival.to_bits()).hash(&mut h);
            (&r.input, &r.output).hash(&mut h);
        }
        h.finish()
    }

    #[test]
    fn same_seed_generates_identical_inputs() {
        for w in Workload::ALL {
            let a = inputs_digest(&w.trace(11));
            assert_eq!(a, inputs_digest(&w.trace(11)), "{}", w.name());
            assert_ne!(a, inputs_digest(&w.trace(12)), "{}", w.name());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
