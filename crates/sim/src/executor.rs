//! Continuous-batching executor: token-level scheduling on a virtual clock.
//!
//! One executor models one serving device. Requests wait in a FIFO
//! admission queue until a batch slot frees; the running batch advances in
//! *iterations* (the continuous-batching step): each iteration schedules a
//! shared chunked-prefill token budget FIFO across prefilling requests plus
//! one decode token per decoding request, and lasts as long as the
//! [`GpuModel`] needs for that work. Requests that finish decoding complete
//! *mid-batch* — their slot is re-admitted from the queue at the very next
//! iteration — and only completion admits a sequence into the prefix cache,
//! so under load the cache observes the true serving interleaving rather
//! than the oracle arrival order the instantaneous engine assumes.
//!
//! Everything is a pure function of the trace and the configuration: no
//! wall clock, no randomness — iteration durations come from the analytic
//! device model, ties resolve in FIFO admission order.

use crate::gpu::{GpuModel, ReloadDecision};
use crate::report::{EventRecord, EventReport};
use marconi_core::{CacheStats, CursorTable, PinTicket, PrefixCache, SessionCursor};
use marconi_trace::{TraceEvent, Tracer};
use marconi_workload::{Request, Trace};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Knobs of the continuous-batching executor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Batch slots: maximum requests resident in the running batch.
    pub max_batch_requests: usize,
    /// Prefill tokens one iteration may schedule, shared FIFO across the
    /// batch (chunked prefill). Decode always advances one token per
    /// decoding request per iteration on top of this budget.
    pub prefill_chunk_tokens: u64,
}

impl Default for BatchConfig {
    /// 16 slots, 4096-token prefill chunks (vLLM-like defaults).
    fn default() -> Self {
        BatchConfig {
            max_batch_requests: 16,
            prefill_chunk_tokens: 4096,
        }
    }
}

impl BatchConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if either knob is zero (the executor could not make
    /// progress).
    pub fn validate(&self) {
        assert!(self.max_batch_requests > 0, "at least one batch slot");
        assert!(
            self.prefill_chunk_tokens > 0,
            "prefill chunk must be positive"
        );
    }
}

/// How iteration durations are produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceMode {
    /// Durations from the analytic [`GpuModel`]: iteration FLOPs over
    /// sustained throughput, plus the fixed per-request overhead charged
    /// once at admission.
    Modeled(GpuModel),
    /// Every iteration takes zero virtual time — the infinite-throughput
    /// limit. With empty queues this reproduces the instantaneous
    /// [`Engine`](crate::Engine) byte-for-byte (the zero-load parity
    /// contract): every lookup and insertion lands at exactly the
    /// request's arrival time, in arrival order.
    Instantaneous,
}

/// A request resident in the running batch.
#[derive(Debug)]
struct Running<'a> {
    req: &'a Request,
    admitted: f64,
    hit_tokens: u64,
    host_hit_tokens: u64,
    raw_matched: u64,
    flops_saved: u128,
    /// Latency charged at admission for the host-resident share of the
    /// hit (compute-or-load), and the arm that produced it.
    reload_s: f64,
    reload: ReloadDecision,
    /// Prefill frontier in tokens (starts at the cached prefix).
    prefill_pos: u64,
    /// Set when the prefill frontier reaches the input length — the TTFT
    /// instant.
    prefill_done_at: Option<f64>,
    /// In-flight pin on the admission lookup's hit path, held until
    /// completion so eviction pressure from concurrent completions cannot
    /// reclaim KVs this request is still reading.
    pin: PinTicket,
    /// The session hint taken at admission, re-spent on the completion
    /// insert. The insert revalidates it — anything that happened to the
    /// resume path while this request was in flight makes it fall back to
    /// the byte-identical root walk.
    cursor: Option<SessionCursor>,
    decoded: u64,
    /// Work scheduled for the in-flight iteration.
    sched_prefill: u64,
    sched_decode: bool,
}

/// One device's serving state: FIFO admission queue + running batch +
/// in-flight iteration. Created fresh per [`run`](crate::EventSim::run);
/// the prefix cache it drives is borrowed per call so the same executor
/// logic serves both the single-device simulator and cluster replicas.
#[derive(Debug)]
pub(crate) struct Executor<'a> {
    batch: BatchConfig,
    service: ServiceMode,
    queue: VecDeque<&'a Request>,
    queued_input_tokens: u64,
    running: Vec<Running<'a>>,
    /// End of the in-flight iteration; `None` when idle.
    busy_until: Option<f64>,
    busy_s: f64,
    iterations: u64,
    records: Vec<EventRecord>,
    tracer: Tracer,
    /// Cluster replica this executor serves (`None` under
    /// [`EventSim`](crate::EventSim)); suffixes the cache name of its
    /// reload events as `name[i]`.
    replica: Option<usize>,
    /// Per-session resume cursors (the PR 10 fast path): deposited by
    /// completion inserts, spent by the next admission of the same session
    /// on its lookup and pin, then re-spent on that request's completion
    /// insert.
    cursors: CursorTable,
}

impl<'a> Executor<'a> {
    pub(crate) fn new(batch: BatchConfig, service: ServiceMode, tracer: Tracer) -> Self {
        batch.validate();
        Executor {
            batch,
            service,
            queue: VecDeque::new(),
            queued_input_tokens: 0,
            running: Vec::new(),
            busy_until: None,
            busy_s: 0.0,
            iterations: 0,
            records: Vec::new(),
            tracer,
            replica: None,
            cursors: CursorTable::new(crate::engine::DEFAULT_SESSION_CURSOR_CAP),
        }
    }

    /// Labels this executor as cluster replica `index` in trace events.
    pub(crate) fn for_replica(mut self, index: usize) -> Self {
        self.replica = Some(index);
        self
    }

    /// Queues an arriving request; starts an iteration immediately if the
    /// device is idle.
    pub(crate) fn enqueue<C: PrefixCache>(&mut self, req: &'a Request, cache: &mut C, now: f64) {
        self.queued_input_tokens += req.input_len();
        self.queue.push_back(req);
        self.tracer.emit(|| TraceEvent::QueueAdmission {
            ts: now,
            request: req.id,
            queue_depth: self.queue.len() as u64,
            queued_tokens: self.queued_input_tokens,
        });
        if self.busy_until.is_none() {
            self.start_iteration(cache, now);
        }
    }

    /// Virtual time the in-flight iteration ends (`None` when idle).
    pub(crate) fn next_event(&self) -> Option<f64> {
        self.busy_until
    }

    pub(crate) fn is_idle(&self) -> bool {
        self.busy_until.is_none()
    }

    /// Outstanding prefill work in tokens: inputs waiting in the FIFO plus
    /// the un-prefilled remainder of every running request. This is the
    /// load signal the `QueueAware` router ties on.
    pub(crate) fn outstanding_tokens(&self) -> u64 {
        self.queued_input_tokens
            + self
                .running
                .iter()
                .map(|r| r.req.input_len() - r.prefill_pos.min(r.req.input_len()))
                .sum::<u64>()
    }

    /// Closes this executor's run: its records in request-id order, its
    /// busy time and its iteration count.
    pub(crate) fn into_report(
        mut self,
        system: String,
        trace: &Trace,
        cache_stats: CacheStats,
    ) -> EventReport {
        self.records.sort_by_key(|r| r.id);
        let (busy_s, iterations) = (self.busy_s, self.iterations);
        EventReport::new(system, trace, self.records, cache_stats, busy_s, iterations)
    }

    /// Completes the iteration ending at `now`: applies its scheduled
    /// work, finishes prefills (TTFT), completes drained requests
    /// (admitting them into the cache), and starts the next iteration if
    /// any work remains.
    pub(crate) fn advance<C: PrefixCache>(&mut self, cache: &mut C, now: f64) {
        debug_assert!(
            self.busy_until.is_some_and(|t| t <= now),
            "advance before the iteration ended"
        );
        self.busy_until = None;
        for r in &mut self.running {
            r.prefill_pos += r.sched_prefill;
            r.sched_prefill = 0;
            if r.sched_decode {
                r.decoded += 1;
                r.sched_decode = false;
            }
            if r.prefill_pos >= r.req.input_len() && r.prefill_done_at.is_none() {
                r.prefill_done_at = Some(now);
            }
        }
        // Complete drained requests in admission order; completion — not
        // arrival — is what admits the sequence into the cache.
        let mut i = 0;
        while i < self.running.len() {
            let done = self.running[i].prefill_done_at.is_some()
                && self.running[i].decoded >= self.running[i].req.output_len();
            if !done {
                i += 1;
                continue;
            }
            let r = self.running.remove(i);
            // Release the pin *before* admitting the completed sequence:
            // the request is done reading its prefix, and a still-held pin
            // would exempt that path from the admission's own eviction
            // pressure (breaking pin-free parity even at zero load).
            cache.unpin(r.pin);
            let (_, next) = cache.insert_at_with(&r.req.input, &r.req.output, now, r.cursor);
            if let Some(cursor) = next {
                self.cursors.put(r.req.session_id, cursor);
            }
            let ttft_at = r
                .prefill_done_at
                .expect("invariant: completed requests have a prefill timestamp");
            self.records.push(EventRecord {
                id: r.req.id,
                session_id: r.req.session_id,
                arrival: r.req.arrival,
                admitted: r.admitted,
                completed: now,
                input_len: r.req.input_len(),
                hit_tokens: r.hit_tokens,
                host_hit_tokens: r.host_hit_tokens,
                raw_matched: r.raw_matched,
                queue_ms: (r.admitted - r.req.arrival) * 1e3,
                ttft_ms: (ttft_at - r.req.arrival) * 1e3,
                e2e_ms: (now - r.req.arrival) * 1e3,
                reload_ms: r.reload_s * 1e3,
                reload: r.reload,
                flops_spent: cache
                    .model()
                    .prefill_flops_with_prefix(r.req.input_len(), r.hit_tokens),
                flops_saved: r.flops_saved,
            });
        }
        if !self.running.is_empty() || !self.queue.is_empty() {
            self.start_iteration(cache, now);
        }
    }

    /// Starts one iteration at `now`: admits from the FIFO while slots are
    /// free (the admission lookup pins each request's cached prefix and
    /// takes the compute-or-load decision for any host-resident share),
    /// then schedules the chunked-prefill budget FIFO plus one decode
    /// token per decoding request, and charges the device model for the
    /// total — including the admitted requests' reload charges.
    fn start_iteration<C: PrefixCache>(&mut self, cache: &mut C, now: f64) {
        debug_assert!(self.busy_until.is_none());
        let mut admitted_now = 0u32;
        let mut reload_now = 0.0f64;
        while self.running.len() < self.batch.max_batch_requests {
            let Some(req) = self.queue.pop_front() else {
                break;
            };
            debug_assert!(
                self.queued_input_tokens >= req.input_len(),
                "queue accounting underflow: {} queued tokens, dequeuing {}",
                self.queued_input_tokens,
                req.input_len()
            );
            self.queued_input_tokens = self.queued_input_tokens.saturating_sub(req.input_len());
            let hint = self.cursors.take(req.session_id);
            let hit = cache.lookup_at_with(&req.input, now, hint);
            let pin = cache.pin_prefix_with(&req.input, hint);
            let (reload_s, reload) = match &self.service {
                ServiceMode::Modeled(gpu) => {
                    crate::engine::price_reload(&*cache, self.replica, gpu, &self.tracer, &hit, now)
                }
                // Infinite throughput also means infinite bandwidth: host
                // hits reload in zero time, but the recorded arm still
                // honors the cache's policy (an AlwaysRecompute cache
                // never transfers).
                ServiceMode::Instantaneous => (
                    0.0,
                    if !hit.needs_reload() {
                        ReloadDecision::None
                    } else if cache.reload_policy() == marconi_core::ReloadPolicy::AlwaysRecompute {
                        ReloadDecision::Recomputed
                    } else {
                        ReloadDecision::Loaded
                    },
                ),
            };
            reload_now += reload_s;
            self.running.push(Running {
                req,
                admitted: now,
                hit_tokens: hit.tokens_matched,
                host_hit_tokens: hit.host_tokens,
                raw_matched: hit.raw_matched,
                flops_saved: hit.flops_saved,
                reload_s,
                reload,
                prefill_pos: hit.tokens_matched,
                prefill_done_at: None,
                pin,
                cursor: hint,
                decoded: 0,
                sched_prefill: 0,
                sched_decode: false,
            });
            admitted_now += 1;
        }
        if self.running.is_empty() {
            return; // queue was empty too: stay idle
        }
        let model = cache.model();
        let mut budget = self.batch.prefill_chunk_tokens;
        let mut flops: u128 = 0;
        for r in &mut self.running {
            if r.prefill_pos < r.req.input_len() {
                let chunk = budget.min(r.req.input_len() - r.prefill_pos);
                if chunk > 0 {
                    r.sched_prefill = chunk;
                    budget -= chunk;
                    flops += model.prefill_flops(r.prefill_pos + chunk).total()
                        - model.prefill_flops(r.prefill_pos).total();
                }
            } else if r.prefill_done_at.is_some() && r.decoded < r.req.output_len() {
                r.sched_decode = true;
                flops += crate::gpu::decode_token_flops(model, r.req.input_len() + r.decoded);
            }
            // A freshly admitted full-prefix hit schedules nothing: its
            // prefill frontier is already at the input length, and the next
            // `advance` stamps its TTFT (queue wait + admission overhead).
        }
        let duration = match &self.service {
            ServiceMode::Instantaneous => 0.0,
            ServiceMode::Modeled(gpu) => {
                gpu.secs_for_flops(flops) + f64::from(admitted_now) * gpu.overhead_s() + reload_now
            }
        };
        self.busy_s += duration;
        self.iterations += 1;
        self.tracer.emit(|| TraceEvent::BatchIteration {
            ts: now,
            iteration: self.iterations,
            running: self.running.len() as u64,
            queue_depth: self.queue.len() as u64,
        });
        self.busy_until = Some(now + duration);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marconi_core::{EvictionPolicy, HybridPrefixCache};
    use marconi_model::ModelConfig;
    use marconi_workload::{DatasetKind, TraceGenerator};

    fn cache() -> HybridPrefixCache {
        HybridPrefixCache::builder(ModelConfig::hybrid_7b())
            .capacity_bytes(1 << 40)
            .policy(EvictionPolicy::Lru)
            .build()
    }

    /// Queue-token accounting must balance exactly: every enqueued input
    /// token is subtracted exactly once at admission, so a fully drained
    /// executor reports zero outstanding work.
    #[test]
    fn queue_token_accounting_drains_to_zero() {
        let trace = TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(6)
            .seed(5)
            .generate();
        let mut c = cache();
        let mut ex = Executor::new(
            BatchConfig {
                max_batch_requests: 2,
                prefill_chunk_tokens: 512,
            },
            ServiceMode::Modeled(GpuModel::a100_x4()),
            Tracer::off(),
        );
        for r in &trace.requests {
            ex.enqueue(r, &mut c, r.arrival);
        }
        assert!(ex.outstanding_tokens() > 0, "the batch must saturate");
        while let Some(t) = ex.next_event() {
            ex.advance(&mut c, t);
        }
        assert!(ex.is_idle());
        assert_eq!(
            ex.outstanding_tokens(),
            0,
            "drained executor must owe no queued or running tokens"
        );
        let report = ex.into_report(String::new(), &trace, CacheStats::default());
        assert_eq!(report.records.len(), trace.requests.len());
    }

    /// The debug guard on admission catches queue-accounting drift (a
    /// request dequeued without having been counted) instead of silently
    /// wrapping `queued_input_tokens` to ~u64::MAX and poisoning the
    /// `QueueAware` router's load signal. Release builds saturate to zero.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "queue accounting underflow")]
    fn queue_accounting_underflow_is_caught_in_debug() {
        let trace = TraceGenerator::new(DatasetKind::ShareGpt)
            .sessions(1)
            .seed(1)
            .generate();
        let mut c = cache();
        let mut ex = Executor::new(
            BatchConfig::default(),
            ServiceMode::Instantaneous,
            Tracer::off(),
        );
        // Bypass `enqueue`'s token bookkeeping to simulate drift, then let
        // admission (via `advance`'s restart path) dequeue the request.
        ex.queue.push_back(&trace.requests[0]);
        ex.busy_until = Some(0.0);
        ex.advance(&mut c, 0.0);
    }
}
