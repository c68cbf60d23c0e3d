//! Timing wrappers around the layers the drivers call, and the in-memory
//! span log they write to.
//!
//! The wrappers are transparent: every `PrefixCache` method forwards to the
//! same method of the wrapped cache (the `*_with` variants included, since
//! the trait defaults would drop the session cursor), and the router
//! forwards its name, which the cluster's recorder copies into events.

use crate::stats::{self, Tail};
use marconi::cache::{
    AdmissionReport, CacheStats, HybridPrefixCache, LookupResult, PinTicket, PrefixCache,
    ReloadPolicy, SessionCursor, TunerState,
};
use marconi::model::ModelConfig;
use marconi::radix::Token;
use marconi::sim::{ReplicaStatus, Router};
use marconi::workload::Request;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// What a span measured. `Pass` is one driver replay of a whole trace and
/// the parent of every other span recorded while it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Engine::run` / `EventCluster::run` over one trace pass (`sim`).
    Pass,
    /// `lookup_at` / `lookup_at_with` (`core.lookup`).
    Lookup,
    /// An admission that neither evicted nor demoted (`core.insert`).
    Insert,
    /// An admission that evicted or demoted (`core.insert_pressure`).
    InsertPressure,
    /// `Router::route`, replica probes included (`sim.route`).
    Route,
}

impl Kind {
    /// The child spans, in report order.
    pub const CHILDREN: [Kind; 4] = [
        Kind::Lookup,
        Kind::Insert,
        Kind::InsertPressure,
        Kind::Route,
    ];

    /// Span name, and prefix of the span's metrics.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Pass => "sim.pass",
            Kind::Lookup => "core.lookup",
            Kind::Insert => "core.insert",
            Kind::InsertPressure => "core.insert_pressure",
            Kind::Route => "sim.route",
        }
    }
}

/// One timed call: nanoseconds since the log's epoch. `req` is the trace
/// request id the call served (0 for `Pass` spans).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub req: u64,
    pub start: u64,
    pub end: u64,
}

/// The span log shared by every wrapper of one driver.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    /// Lookups issued in the current pass; the engine looks up each
    /// request once, in trace order, so this is the next request's id.
    lookups_in_pass: u64,
    /// Lookups that carried a session cursor.
    pub hinted_lookups: u64,
    /// Wall seconds of each admission during which an α tuner reached
    /// `Tuned` (the grid search runs inside it).
    pub grid_s: Vec<f64>,
}

/// Handle through which wrappers append to one [`SpanLog`].
pub type Shared = Rc<RefCell<SpanLog>>;

impl SpanLog {
    pub fn shared() -> Shared {
        Rc::new(RefCell::new(SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            lookups_in_pass: 0,
            hinted_lookups: 0,
            grid_s: Vec::new(),
        }))
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn push(&mut self, kind: Kind, req: u64, start: u64, end: u64) {
        self.spans.push(Span {
            kind,
            req,
            start,
            end,
        });
    }

    /// Marks the start of a driver pass (resets the request counter).
    pub fn begin_pass(&mut self) {
        self.lookups_in_pass = 0;
    }

    /// Hands over the spans logged so far and starts an empty log.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Tab-separated dump: `kind req start_ns end_ns`, one span a line.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("kind\treq\tstart_ns\tend_ns\n");
    for s in spans {
        let _ = writeln!(out, "{}\t{}\t{}\t{}", s.kind.label(), s.req, s.start, s.end);
    }
    out
}

/// Per-kind summary of a span log.
#[derive(Debug, Default, Clone)]
pub struct LayerSummary {
    pub calls: u64,
    pub total_ns: u64,
    pub p50_us: f64,
    pub tail: Option<Tail>,
}

/// Driver time split into child layers and the driver's own self time.
#[derive(Debug, Default)]
pub struct Breakdown {
    pub pass_ns: u64,
    pub self_ns: u64,
    pub layers: Vec<LayerSummary>,
}

impl Breakdown {
    /// Splits every `Pass` span of `spans` into its children (the spans
    /// logged before it that fall inside it) and its self time.
    #[must_use]
    pub fn of(spans: &[Span]) -> Breakdown {
        let mut out = Breakdown::default();
        let mut durations: Vec<Vec<f64>> = vec![Vec::new(); Kind::CHILDREN.len()];
        let mut open: Vec<(u64, u64)> = Vec::new();
        for s in spans {
            if s.kind == Kind::Pass {
                out.pass_ns += s.end - s.start;
                out.self_ns += stats::self_time((s.start, s.end), &open);
                open.clear();
                continue;
            }
            open.push((s.start, s.end));
            let k = Kind::CHILDREN
                .iter()
                .position(|&kind| kind == s.kind)
                .expect("invariant: every non-pass kind is a child kind");
            durations[k].push((s.end - s.start) as f64 / 1e3);
        }
        out.layers = durations
            .into_iter()
            .map(|mut d| {
                d.sort_by(f64::total_cmp);
                LayerSummary {
                    calls: d.len() as u64,
                    total_ns: (d.iter().sum::<f64>() * 1e3) as u64,
                    p50_us: stats::percentile(&d, 50).unwrap_or(0.0),
                    tail: stats::tail(&d, 99),
                }
            })
            .collect();
        out
    }
}

/// A `HybridPrefixCache` whose lookups and admissions are timed into a
/// span log. Everything else forwards untimed.
#[derive(Debug)]
pub struct TimedCache {
    inner: HybridPrefixCache,
    log: Shared,
}

impl TimedCache {
    pub fn new(inner: HybridPrefixCache, log: Shared) -> Self {
        TimedCache { inner, log }
    }

    pub fn inner(&self) -> &HybridPrefixCache {
        &self.inner
    }

    fn timed_lookup(
        &mut self,
        hinted: bool,
        f: impl FnOnce(&mut HybridPrefixCache) -> LookupResult,
    ) -> LookupResult {
        let start = self.log.borrow().now();
        let hit = f(&mut self.inner);
        let mut log = self.log.borrow_mut();
        let end = log.now();
        let req = log.lookups_in_pass;
        log.lookups_in_pass += 1;
        log.hinted_lookups += u64::from(hinted);
        log.push(Kind::Lookup, req, start, end);
        hit
    }

    fn timed_insert<R>(
        &mut self,
        f: impl FnOnce(&mut HybridPrefixCache) -> R,
        report: impl Fn(&R) -> &AdmissionReport,
    ) -> R {
        let was_tuned = is_tuned(self.inner.tuner_state());
        let start = self.log.borrow().now();
        let out = f(&mut self.inner);
        let mut log = self.log.borrow_mut();
        let end = log.now();
        let r = report(&out);
        let kind = if r.entries_evicted + r.entries_demoted > 0 {
            Kind::InsertPressure
        } else {
            Kind::Insert
        };
        if !was_tuned && is_tuned(self.inner.tuner_state()) {
            log.grid_s.push((end - start) as f64 / 1e9);
        }
        let req = log.lookups_in_pass.saturating_sub(1);
        log.push(kind, req, start, end);
        out
    }
}

fn is_tuned(state: Option<TunerState>) -> bool {
    matches!(state, Some(TunerState::Tuned { .. }))
}

impl PrefixCache for TimedCache {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn model(&self) -> &ModelConfig {
        self.inner.model()
    }

    fn lookup_at(&mut self, input: &[Token], now: f64) -> LookupResult {
        self.timed_lookup(false, |c| c.lookup_at(input, now))
    }

    fn longest_cached_prefix_len(&self, input: &[Token]) -> u64 {
        self.inner.longest_cached_prefix_len(input)
    }

    fn insert_at(&mut self, input: &[Token], output: &[Token], now: f64) -> AdmissionReport {
        self.timed_insert(|c| c.insert_at(input, output, now), |r| r)
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    fn usage_bytes(&self) -> u64 {
        self.inner.usage_bytes()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn reload_policy(&self) -> ReloadPolicy {
        self.inner.reload_policy()
    }

    fn pin_prefix(&mut self, input: &[Token]) -> PinTicket {
        self.inner.pin_prefix(input)
    }

    fn unpin(&mut self, ticket: PinTicket) {
        self.inner.unpin(ticket)
    }

    fn pinned_bytes(&self) -> u64 {
        self.inner.pinned_bytes()
    }

    fn lookup_at_with(
        &mut self,
        input: &[Token],
        now: f64,
        hint: Option<SessionCursor>,
    ) -> LookupResult {
        self.timed_lookup(hint.is_some(), |c| c.lookup_at_with(input, now, hint))
    }

    fn insert_at_with(
        &mut self,
        input: &[Token],
        output: &[Token],
        now: f64,
        hint: Option<SessionCursor>,
    ) -> (AdmissionReport, Option<SessionCursor>) {
        self.timed_insert(|c| c.insert_at_with(input, output, now, hint), |(r, _)| r)
    }

    fn pin_prefix_with(&mut self, input: &[Token], hint: Option<SessionCursor>) -> PinTicket {
        self.inner.pin_prefix_with(input, hint)
    }
}

/// A router whose placement decisions (replica probes included) are timed.
#[derive(Debug)]
pub struct TimedRouter {
    inner: Box<dyn Router>,
    log: Shared,
}

impl TimedRouter {
    pub fn new(inner: Box<dyn Router>, log: Shared) -> Self {
        TimedRouter { inner, log }
    }
}

impl Router for TimedRouter {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn route(&mut self, req: &Request, replicas: &[ReplicaStatus<'_>]) -> usize {
        let start = self.log.borrow().now();
        let idx = self.inner.route(req, replicas);
        let mut log = self.log.borrow_mut();
        let end = log.now();
        log.push(Kind::Route, req.id, start, end);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marconi::sim::{Engine, GpuModel};
    use marconi::workload::{DatasetKind, TraceGenerator};

    fn span(kind: Kind, start: u64, end: u64) -> Span {
        Span {
            kind,
            req: 0,
            start,
            end,
        }
    }

    #[test]
    fn breakdown_splits_each_pass_into_children_and_self_time() {
        let spans = [
            span(Kind::Lookup, 10, 20),
            span(Kind::Insert, 20, 50),
            span(Kind::Pass, 0, 100),
            span(Kind::Route, 110, 115),
            span(Kind::InsertPressure, 120, 160),
            span(Kind::Pass, 100, 200),
        ];
        let bd = Breakdown::of(&spans);
        assert_eq!(bd.pass_ns, 200);
        assert_eq!(bd.self_ns, 60 + 55);
        let totals: Vec<u64> = bd.layers.iter().map(|l| l.total_ns).collect();
        assert_eq!(totals, [10, 30, 40, 5]);
        assert_eq!(totals.iter().sum::<u64>() + bd.self_ns, bd.pass_ns);
        assert!(bd.layers.iter().all(|l| l.calls == 1 && l.tail.is_none()));
    }

    #[test]
    fn timed_cache_reproduces_the_plain_engine_and_keeps_cursors() {
        let trace = TraceGenerator::new(DatasetKind::Lmsys)
            .sessions(30)
            .seed(3)
            .generate();
        let m = ModelConfig::hybrid_7b();
        let kv = m.kv_bytes_per_token();
        let build = || {
            HybridPrefixCache::builder(m.clone())
                .capacity_bytes(20_000 * kv)
                .host_capacity_bytes(20_000 * kv)
                .build()
        };
        let plain = Engine::new(build(), GpuModel::a100_x4()).run(&trace);
        let log = SpanLog::shared();
        let timed =
            Engine::new(TimedCache::new(build(), log.clone()), GpuModel::a100_x4()).run(&trace);
        assert_eq!(plain, timed);
        assert!(plain.cache_stats.evictions + plain.cache_stats.demotions > 0);
        let log = log.borrow();
        assert!(
            log.hinted_lookups > 0,
            "session cursors must reach the cache"
        );
        assert_eq!(log.spans.len(), 2 * trace.len());
        let pressured = log
            .spans
            .iter()
            .filter(|s| s.kind == Kind::InsertPressure)
            .count();
        assert!(pressured > 0);
    }
}
