//! The replay engine.

use crate::gpu::{GpuModel, ReloadDecision};
use crate::report::{EventRecord, EventReport};
use marconi_core::{CursorTable, LookupResult, PrefixCache};
use marconi_trace::{ReloadDecision as TraceReload, TraceEvent, Tracer};
use marconi_workload::{Request, Trace};

/// Default bound on the engine's per-session cursor table. Far above any
/// generated trace's session count, yet keeps pathological session-id
/// churn from growing the table without bound.
pub(crate) const DEFAULT_SESSION_CURSOR_CAP: usize = 4096;

/// Replays traces against one cache, mirroring an inference engine's
/// lookup → prefill → decode → admit loop (paper §2.2):
///
/// 1. look up the longest reusable prefix for the request's input at its
///    arrival time;
/// 2. prefill only the uncached suffix (TTFT from the [`GpuModel`]);
/// 3. after the (simulated) decode, admit the full sequence's states.
///
/// Requests are processed in arrival order, like the paper's artifact
/// simulator. The report is the event drivers' [`EventReport`] with
/// zero-load values (see [`EventRecord`]): no queueing, no batching, and
/// every request admitted and completed at its arrival.
///
/// # Examples
///
/// ```
/// use marconi_core::HybridPrefixCache;
/// use marconi_model::ModelConfig;
/// use marconi_sim::{Engine, GpuModel};
/// use marconi_workload::{DatasetKind, TraceGenerator};
///
/// let cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
///     .capacity_bytes(8 << 30)
///     .build();
/// let mut engine = Engine::new(cache, GpuModel::a100_x4());
/// let trace = TraceGenerator::new(DatasetKind::ShareGpt)
///     .sessions(3)
///     .seed(5)
///     .generate();
/// let report = engine.run(&trace);
/// assert_eq!(report.records.len(), trace.len());
/// assert!(report.records.iter().all(|r| r.queue_ms == 0.0));
/// ```
#[derive(Debug)]
pub struct Engine<C> {
    cache: C,
    gpu: GpuModel,
    tracer: Tracer,
    /// Per-session resume cursors (the PR 10 fast path): each completed
    /// request deposits the cursor its admission minted, and the session's
    /// next request spends it on the lookup and the insert so both resume
    /// from the deep node in O(delta tokens).
    cursors: CursorTable,
}

impl<C: PrefixCache> Engine<C> {
    /// Creates an engine around a cache and a device model.
    #[must_use]
    pub fn new(cache: C, gpu: GpuModel) -> Self {
        Engine {
            cache,
            gpu,
            tracer: Tracer::off(),
            cursors: CursorTable::new(DEFAULT_SESSION_CURSOR_CAP),
        }
    }

    /// Re-bounds the per-session cursor table. A capacity of 0 disables
    /// the session fast path entirely — every request root-walks — which
    /// is how the benches express the baseline; results are byte-identical
    /// either way (the parity contract), only the walk cost changes.
    pub fn set_session_cursor_capacity(&mut self, cap: usize) {
        self.cursors = CursorTable::new(cap);
    }

    /// Attaches a tracer to the engine's own decisions (the compute-or-load
    /// pricing of host hits). Cache-level events are attached on the cache
    /// itself before it is handed to the engine.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Access to the underlying cache (e.g. for baseline-specific
    /// diagnostics like vLLM+ block-reuse reports).
    #[must_use]
    pub fn cache(&self) -> &C {
        &self.cache
    }

    /// Replays `trace` and produces the per-request report.
    ///
    /// A hit whose prefix is partly host-resident additionally charges the
    /// reload latency — the minimum of the PCIe transfer and the recompute
    /// under the cache's [`ReloadPolicy`](marconi_core::ReloadPolicy) — on
    /// top of the uncached-suffix prefill, and the per-request record
    /// carries which arm was taken. Single-tier caches never report host
    /// bytes, so their TTFTs are unchanged.
    pub fn run(&mut self, trace: &Trace) -> EventReport {
        let records = trace
            .requests
            .iter()
            .map(|req| {
                serve_request(
                    &mut self.cache,
                    &self.gpu,
                    &self.tracer,
                    &mut self.cursors,
                    req,
                )
            })
            .collect();
        EventReport::new(
            self.cache.name().to_owned(),
            trace,
            records,
            *self.cache.stats(),
            0.0,
            0,
        )
    }
}

/// Serves one request the instantaneous engine's way: the session-hinted
/// lookup at arrival, reload pricing for any host-resident share, the TTFT
/// of the uncached suffix, then admission of the full sequence, depositing
/// the cursor it minted for the session's next request: [`Engine::run`]'s
/// per-request step.
fn serve_request<C: PrefixCache>(
    cache: &mut C,
    gpu: &GpuModel,
    tracer: &Tracer,
    cursors: &mut CursorTable,
    req: &Request,
) -> EventRecord {
    let hint = cursors.take(req.session_id);
    let hit = cache.lookup_at_with(&req.input, req.arrival, hint);
    let (reload_s, reload) = price_reload(&*cache, None, gpu, tracer, &hit, req.arrival);
    let model = cache.model();
    let ttft_ms = gpu.ttft_ms(model, req.input_len(), hit.tokens_matched) + reload_s * 1e3;
    let flops_spent = model.prefill_flops_with_prefix(req.input_len(), hit.tokens_matched);
    let (_, next) = cache.insert_at_with(&req.input, &req.output, req.arrival, hint);
    if let Some(cursor) = next {
        cursors.put(req.session_id, cursor);
    }
    EventRecord {
        id: req.id,
        session_id: req.session_id,
        arrival: req.arrival,
        admitted: req.arrival,
        completed: req.arrival,
        input_len: req.input_len(),
        hit_tokens: hit.tokens_matched,
        host_hit_tokens: hit.host_tokens,
        raw_matched: hit.raw_matched,
        queue_ms: 0.0,
        ttft_ms,
        e2e_ms: ttft_ms,
        reload_ms: reload_s * 1e3,
        reload,
        flops_spent,
        flops_saved: hit.flops_saved,
    }
}

/// Prices the host-resident share of `hit` under the cache's
/// [`ReloadPolicy`](marconi_core::ReloadPolicy) and emits the
/// [`TraceEvent::Reload`] decision when there is one. Shared by both
/// modeled-latency replay loops (engine, executor) so pricing and its
/// telemetry cannot drift; `replica` suffixes the cache name as
/// `name[i]`.
pub(crate) fn price_reload<C: PrefixCache + ?Sized>(
    cache: &C,
    replica: Option<usize>,
    gpu: &GpuModel,
    tracer: &Tracer,
    hit: &LookupResult,
    ts: f64,
) -> (f64, ReloadDecision) {
    let (secs, decision) =
        gpu.reload_secs(cache.reload_policy(), hit.host_bytes, hit.host_reload_flops);
    if decision != ReloadDecision::None {
        tracer.emit(|| TraceEvent::Reload {
            ts,
            cache: match replica {
                None => cache.name().into(),
                Some(i) => format!("{}[{i}]", cache.name()).into(),
            },
            host_bytes: hit.host_bytes,
            load_secs: gpu.transfer_secs(hit.host_bytes),
            recompute_secs: gpu.secs_for_flops(hit.host_reload_flops),
            decision: match decision {
                ReloadDecision::Recomputed => TraceReload::Recompute,
                _ => TraceReload::Load,
            },
        });
    }
    (secs, decision)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marconi_core::{HybridPrefixCache, VanillaCache};
    use marconi_model::ModelConfig;
    use marconi_workload::{DatasetKind, TraceGenerator};

    fn trace() -> Trace {
        TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(8)
            .seed(2)
            .generate()
    }

    #[test]
    fn multi_turn_workload_hits_under_marconi() {
        let cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(1 << 40)
            .build();
        let mut engine = Engine::new(cache, GpuModel::a100_x4());
        let report = engine.run(&trace());
        assert!(
            report.token_hit_rate() > 0.2,
            "conversation history should yield hits, got {}",
            report.token_hit_rate()
        );
    }

    #[test]
    fn vanilla_never_hits_and_is_slower() {
        let t = trace();
        let mut vanilla = Engine::new(
            VanillaCache::new(ModelConfig::hybrid_7b()),
            GpuModel::a100_x4(),
        );
        let mut marconi = Engine::new(
            HybridPrefixCache::builder(ModelConfig::hybrid_7b())
                .capacity_bytes(1 << 40)
                .build(),
            GpuModel::a100_x4(),
        );
        let rv = vanilla.run(&t);
        let rm = marconi.run(&t);
        assert_eq!(rv.token_hit_rate(), 0.0);
        let p95v = rv.ttft_percentile_ms(0.95).unwrap();
        let p95m = rm.ttft_percentile_ms(0.95).unwrap();
        assert!(p95m < p95v, "caching must reduce P95 TTFT");
    }

    #[test]
    fn records_align_with_trace() {
        let t = trace();
        let cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(1 << 40)
            .build();
        let mut engine = Engine::new(cache, GpuModel::a100_x4());
        let report = engine.run(&t);
        assert_eq!(report.records.len(), t.len());
        for (rec, req) in report.records.iter().zip(&t.requests) {
            assert_eq!(rec.id, req.id);
            assert_eq!(rec.input_len, req.input_len());
            assert!(rec.hit_tokens <= rec.input_len);
            assert!(rec.ttft_ms > 0.0);
        }
    }

    #[test]
    fn tiered_runs_charge_reload_latency_per_request() {
        use marconi_core::{EvictionPolicy, ReloadPolicy};
        let t = trace();
        let m = ModelConfig::hybrid_7b();
        let capacity = 6000 * m.kv_bytes_per_token();
        let run = |policy: ReloadPolicy| {
            let cache = HybridPrefixCache::builder(m.clone())
                .capacity_bytes(capacity)
                .host_capacity_bytes(8 << 30)
                .policy(EvictionPolicy::Lru)
                .reload_policy(policy)
                .build();
            Engine::new(cache, GpuModel::a100_x4()).run(&t)
        };
        let col = run(ReloadPolicy::ComputeOrLoad);
        let recompute = run(ReloadPolicy::AlwaysRecompute);
        let host_hits: Vec<_> = col
            .records
            .iter()
            .filter(|r| r.host_hit_tokens > 0)
            .collect();
        assert!(!host_hits.is_empty(), "trace must produce host hits");
        for r in &host_hits {
            assert!(r.reload_ms > 0.0, "req {}: host hits charge reload", r.id);
            assert_ne!(r.reload, crate::gpu::ReloadDecision::None);
        }
        assert!(
            col.records.iter().any(|r| r.host_hit_tokens == 0),
            "device hits exist too"
        );
        // The instantaneous engine admits identically under both reload
        // policies, so TTFTs compare record for record: the compute-or-load
        // rule can only lower them.
        for (a, b) in col.records.iter().zip(&recompute.records) {
            assert_eq!(a.hit_tokens, b.hit_tokens);
            assert!(a.ttft_ms <= b.ttft_ms + 1e-9, "req {}", a.id);
        }
        assert!(col.hit_tier_split().host > 0);
    }

    #[test]
    fn replays_are_deterministic() {
        let t = trace();
        let run = || {
            let cache = HybridPrefixCache::builder(ModelConfig::hybrid_7b())
                .capacity_bytes(2 << 30)
                .build();
            Engine::new(cache, GpuModel::a100_x4()).run(&t)
        };
        assert_eq!(run(), run());
    }
}
