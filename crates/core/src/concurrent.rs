//! Sharded concurrent front-end over [`HybridPrefixCache`].
//!
//! The single-threaded cache is deliberately `&mut`-everywhere; a serving
//! stack, however, probes from router threads while executor threads admit
//! and complete requests. This module wraps N independent cache shards
//! behind [`RwLock`]s:
//!
//! * the **non-mutating probes** routers already rely on
//!   ([`longest_cached_prefix_len`](ShardedCache::longest_cached_prefix_len),
//!   [`probe_tiers`](ShardedCache::probe_tiers)) take shard *read* locks,
//!   so any number of router threads probe concurrently;
//! * the **mutating path** (lookup, insertion, pin/unpin) takes the owning
//!   shard's *write* lock — writes to different shards proceed in
//!   parallel, writes to the same shard serialize.
//!
//! Sharding is by the input's first token (a request's system prompt /
//! session root), so every prefix of a sequence routes to the same shard
//! and prefix reuse is never split across trees. With one shard the
//! front-end is a plain mutex around the single-threaded cache and
//! reproduces it byte-for-byte (pinned by tests); with more shards each
//! shard is its own independent cache — same trade as the cluster layer's
//! replicas, but sharing one process.
//!
//! [`ShardedCacheHandle`] adapts a shared [`ShardedCache`] back to the
//! [`PrefixCache`] trait (which wants `&mut self` and `&CacheStats`
//! borrows), so the existing sim layers can drive the concurrent front-end
//! unchanged.

use crate::cursor::SessionCursor;
use crate::hybrid::{HybridPrefixCache, HybridPrefixCacheBuilder};
use crate::result::{AdmissionReport, LookupResult};
use crate::stats::CacheStats;
use crate::tier::{ReloadPolicy, TieredPrefix};
use crate::{PinTicket, PrefixCache};
use marconi_model::ModelConfig;
use marconi_radix::Token;
use std::sync::{Arc, RwLock};

/// SplitMix64 finalizer — the same stateless mix the cluster layer's
/// session-affinity router uses, so shard placement is deterministic and
/// well spread for consecutive token ids.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `Send + Sync` prefix cache: N [`HybridPrefixCache`] shards behind
/// per-shard [`RwLock`]s. See `docs/concurrency.md` for the locking
/// discipline.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<RwLock<HybridPrefixCache>>,
    name: String,
    model: ModelConfig,
    reload_policy: ReloadPolicy,
}

impl ShardedCache {
    /// Builds `shards` identical caches from the builder (each shard gets
    /// the builder's full configuration — callers wanting a fixed total
    /// byte budget should divide `capacity_bytes` by `shards` first, as
    /// the cluster layer does for replicas).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(builder: HybridPrefixCacheBuilder, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        let first = builder.clone().build();
        let name = first.name().to_owned();
        let model = first.model().clone();
        let reload_policy = first.reload_policy();
        let mut pool = Vec::with_capacity(shards);
        pool.push(RwLock::new(first));
        for _ in 1..shards {
            pool.push(RwLock::new(builder.clone().build()));
        }
        ShardedCache {
            shards: pool,
            name,
            model,
            reload_policy,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard an input routes to: a SplitMix64 hash of the first token,
    /// so a sequence and all of its prefixes land on the same shard and a
    /// stored prefix is always found by the requests that can reuse it.
    /// Deterministic — replays shard identically.
    #[must_use]
    pub fn shard_of(&self, input: &[Token]) -> usize {
        let (Some(&first), 2..) = (input.first(), self.shards.len()) else {
            return 0;
        };
        (splitmix64(u64::from(first)) % self.shards.len() as u64) as usize
    }

    fn shard(&self, idx: usize) -> &RwLock<HybridPrefixCache> {
        &self.shards[idx]
    }

    /// Translates a caller's session hint into the owning shard's frame.
    ///
    /// Session cursors are shard-local by construction: the inner
    /// (unsharded) caches mint and honor shard-0 handles only, and this
    /// front-end re-stamps outbound cursors with the minting shard's
    /// index. A hint whose stamp does not match the shard the input routes
    /// to is re-stamped with a nonzero sentinel, which the inner cache
    /// classifies as a cross-shard rejection — root walk plus a
    /// `CursorFallback` event — rather than ever resuming in a foreign
    /// tree.
    fn local_hint(idx: usize, hint: Option<SessionCursor>) -> Option<SessionCursor> {
        hint.map(|h| SessionCursor {
            cursor: h.cursor,
            shard: if h.shard == idx { 0 } else { usize::MAX },
        })
    }

    /// [`PrefixCache::lookup_at`] on the owning shard (write lock: hits
    /// refresh recency and stats).
    pub fn lookup_at(&self, input: &[Token], now: f64) -> LookupResult {
        self.lookup_at_with(input, now, None)
    }

    /// [`PrefixCache::lookup_at_with`] on the owning shard (write lock).
    pub fn lookup_at_with(
        &self,
        input: &[Token],
        now: f64,
        hint: Option<SessionCursor>,
    ) -> LookupResult {
        let idx = self.shard_of(input);
        self.shard(idx)
            .write()
            .expect("lock: shard RwLock poisoned by a panicking holder")
            .lookup_at_with(input, now, Self::local_hint(idx, hint))
    }

    /// [`PrefixCache::insert_at`] on the owning shard (write lock).
    pub fn insert_at(&self, input: &[Token], output: &[Token], now: f64) -> AdmissionReport {
        self.insert_at_with(input, output, now, None).0
    }

    /// [`PrefixCache::insert_at_with`] on the owning shard (write lock);
    /// the returned resume cursor is stamped with the owning shard so a
    /// later turn routed elsewhere is rejected instead of mis-resumed.
    pub fn insert_at_with(
        &self,
        input: &[Token],
        output: &[Token],
        now: f64,
        hint: Option<SessionCursor>,
    ) -> (AdmissionReport, Option<SessionCursor>) {
        let idx = self.shard_of(input);
        let (report, next) = self
            .shard(idx)
            .write()
            .expect("lock: shard RwLock poisoned by a panicking holder")
            .insert_at_with(input, output, now, Self::local_hint(idx, hint));
        (
            report,
            next.map(|mut c| {
                c.shard = idx;
                c
            }),
        )
    }

    /// [`PrefixCache::longest_cached_prefix_len`] on the owning shard.
    /// Read lock: the probe is non-mutating, so router threads run it
    /// concurrently with each other.
    #[must_use]
    pub fn longest_cached_prefix_len(&self, input: &[Token]) -> u64 {
        self.shard(self.shard_of(input))
            .read()
            .expect("lock: shard RwLock poisoned by a panicking holder")
            .longest_cached_prefix_len(input)
    }

    /// [`HybridPrefixCache::probe_tiers`] on the owning shard (read lock;
    /// non-mutating like the length probe).
    #[must_use]
    pub fn probe_tiers(&self, input: &[Token]) -> TieredPrefix {
        self.shard(self.shard_of(input))
            .read()
            .expect("lock: shard RwLock poisoned by a panicking holder")
            .probe_tiers(input)
    }

    /// [`PrefixCache::pin_prefix`] on the owning shard; the ticket
    /// remembers the shard so [`unpin`](ShardedCache::unpin) releases on
    /// the same tree.
    pub fn pin_prefix(&self, input: &[Token]) -> PinTicket {
        self.pin_prefix_with(input, None)
    }

    /// [`PrefixCache::pin_prefix_with`] on the owning shard (write lock).
    pub fn pin_prefix_with(&self, input: &[Token], hint: Option<SessionCursor>) -> PinTicket {
        let idx = self.shard_of(input);
        let mut ticket = self
            .shard(idx)
            .write()
            .expect("lock: shard RwLock poisoned by a panicking holder")
            .pin_prefix_with(input, Self::local_hint(idx, hint));
        ticket.shard = idx;
        ticket
    }

    /// Releases a pin issued by [`pin_prefix`](ShardedCache::pin_prefix).
    pub fn unpin(&self, ticket: PinTicket) {
        let idx = ticket.shard;
        self.shard(idx)
            .write()
            .expect("lock: shard RwLock poisoned by a panicking holder")
            .unpin(ticket);
    }

    /// Bytes protected by in-flight pins, summed over shards.
    #[must_use]
    pub fn pinned_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .expect("lock: shard RwLock poisoned by a panicking holder")
                    .pinned_bytes()
            })
            .sum()
    }

    /// Aggregate statistics over all shards
    /// ([`CacheStats::accumulate`] semantics, like cluster aggregation).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            total.accumulate(
                s.read()
                    .expect("lock: shard RwLock poisoned by a panicking holder")
                    .stats(),
            );
        }
        total
    }

    /// Device-resident bytes, summed over shards.
    #[must_use]
    pub fn usage_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .expect("lock: shard RwLock poisoned by a panicking holder")
                    .usage_bytes()
            })
            .sum()
    }

    /// Configured device capacity, summed over shards.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .expect("lock: shard RwLock poisoned by a panicking holder")
                    .capacity_bytes()
            })
            .sum()
    }

    /// Attaches `tracer` to every shard (each shard emits with its own
    /// decisions; clones share the one sink, so cross-shard events
    /// interleave in sink-arrival order).
    ///
    /// Multi-thread caveat: with more than one shard driven from multiple
    /// threads, the *relative* order of events from different shards is
    /// scheduling-dependent — only per-shard order (and everything with a
    /// single driving thread, which is what the sims do) replays
    /// byte-identically.
    pub fn set_tracer(&self, tracer: marconi_trace::Tracer) {
        for s in &self.shards {
            s.write()
                .expect("lock: shard RwLock poisoned by a panicking holder")
                .set_tracer(tracer.clone());
        }
    }

    /// Runs `f` against one shard's cache under its read lock (diagnostic
    /// and test access to per-shard state).
    pub fn with_shard<R>(&self, idx: usize, f: impl FnOnce(&HybridPrefixCache) -> R) -> R {
        f(&self
            .shard(idx)
            .read()
            .expect("lock: shard RwLock poisoned by a panicking holder"))
    }

    /// Wraps the cache in a cloneable, [`PrefixCache`]-implementing handle.
    pub fn into_handle(self) -> ShardedCacheHandle {
        ShardedCacheHandle {
            inner: Arc::new(self),
            stats: CacheStats::default(),
        }
    }
}

/// Cloneable handle adapting a shared [`ShardedCache`] to the
/// [`PrefixCache`] trait, so the sim layers (whose generic bounds want
/// `&mut self` methods and a `&CacheStats` borrow) can drive the
/// concurrent front-end unchanged. Each clone talks to the same shards;
/// `stats()` serves a per-handle aggregate snapshot refreshed by the
/// handle's own mutating calls.
#[derive(Debug, Clone)]
#[must_use = "a handle does nothing unless driven through PrefixCache"]
pub struct ShardedCacheHandle {
    inner: Arc<ShardedCache>,
    /// Cached aggregate, because the trait returns `&CacheStats`.
    stats: CacheStats,
}

impl ShardedCacheHandle {
    /// The shared cache behind this handle (clone the `Arc` to hand other
    /// threads their own view, or probe without going through the trait).
    #[must_use]
    pub fn shared(&self) -> &Arc<ShardedCache> {
        &self.inner
    }

    fn refresh_stats(&mut self) {
        self.stats = self.inner.stats();
    }
}

impl PrefixCache for ShardedCacheHandle {
    fn name(&self) -> &str {
        &self.inner.name
    }

    fn model(&self) -> &ModelConfig {
        &self.inner.model
    }

    fn lookup_at(&mut self, input: &[Token], now: f64) -> LookupResult {
        self.lookup_at_with(input, now, None)
    }

    fn lookup_at_with(
        &mut self,
        input: &[Token],
        now: f64,
        hint: Option<SessionCursor>,
    ) -> LookupResult {
        let r = self.inner.lookup_at_with(input, now, hint);
        self.refresh_stats();
        r
    }

    fn longest_cached_prefix_len(&self, input: &[Token]) -> u64 {
        self.inner.longest_cached_prefix_len(input)
    }

    fn insert_at(&mut self, input: &[Token], output: &[Token], now: f64) -> AdmissionReport {
        self.insert_at_with(input, output, now, None).0
    }

    fn insert_at_with(
        &mut self,
        input: &[Token],
        output: &[Token],
        now: f64,
        hint: Option<SessionCursor>,
    ) -> (AdmissionReport, Option<SessionCursor>) {
        let r = self.inner.insert_at_with(input, output, now, hint);
        self.refresh_stats();
        r
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn usage_bytes(&self) -> u64 {
        self.inner.usage_bytes()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn reload_policy(&self) -> ReloadPolicy {
        self.inner.reload_policy
    }

    fn pin_prefix(&mut self, input: &[Token]) -> PinTicket {
        self.inner.pin_prefix(input)
    }

    fn pin_prefix_with(&mut self, input: &[Token], hint: Option<SessionCursor>) -> PinTicket {
        self.inner.pin_prefix_with(input, hint)
    }

    fn unpin(&mut self, ticket: PinTicket) {
        self.inner.unpin(ticket)
    }

    fn pinned_bytes(&self) -> u64 {
        self.inner.pinned_bytes()
    }
}

/// The whole point of the front-end: it crosses threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedCache>();
    assert_send_sync::<ShardedCacheHandle>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvictionPolicy;
    use marconi_workload::{DatasetKind, TraceGenerator};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    fn seeded_trace(seed: u64) -> marconi_workload::Trace {
        TraceGenerator::new(DatasetKind::Lmsys)
            .sessions(12)
            .seed(seed)
            .generate()
    }

    fn builder(capacity: u64) -> HybridPrefixCacheBuilder {
        HybridPrefixCache::builder(marconi_model::ModelConfig::hybrid_7b())
            .capacity_bytes(capacity)
            .policy(EvictionPolicy::FlopAware { alpha: 2.0 })
    }

    fn contended_capacity() -> u64 {
        9000 * marconi_model::ModelConfig::hybrid_7b().kv_bytes_per_token()
    }

    #[test]
    fn one_shard_reproduces_the_single_threaded_cache_byte_for_byte() {
        let capacity = contended_capacity();
        for seed in [7u64, 11, 13] {
            let trace = seeded_trace(seed);
            let mut plain = builder(capacity).build();
            let sharded = ShardedCache::new(builder(capacity), 1);
            for req in &trace.requests {
                let a = plain.lookup_at(&req.input, req.arrival);
                let b = sharded.lookup_at(&req.input, req.arrival);
                assert_eq!(a, b, "lookup diverged (seed {seed})");
                let a = plain.insert_at(&req.input, &req.output, req.arrival);
                let b = sharded.insert_at(&req.input, &req.output, req.arrival);
                assert_eq!(a, b, "admission diverged (seed {seed})");
            }
            assert_eq!(*plain.stats(), sharded.stats(), "stats diverged");
            assert_eq!(plain.usage_bytes(), sharded.usage_bytes());
        }
    }

    #[test]
    fn handle_drives_the_same_state_through_the_trait() {
        let capacity = contended_capacity();
        let trace = seeded_trace(17);
        let mut plain = builder(capacity).build();
        let mut handle = ShardedCache::new(builder(capacity), 1).into_handle();
        for req in &trace.requests {
            plain.lookup_at(&req.input, req.arrival);
            handle.lookup_at(&req.input, req.arrival);
            plain.insert_at(&req.input, &req.output, req.arrival);
            handle.insert_at(&req.input, &req.output, req.arrival);
        }
        assert_eq!(plain.stats(), handle.stats());
        assert_eq!(
            plain.longest_cached_prefix_len(&trace.requests[0].input),
            handle.longest_cached_prefix_len(&trace.requests[0].input)
        );
    }

    #[test]
    fn sharding_is_deterministic_and_prefix_stable() {
        let c = ShardedCache::new(builder(1 << 30), 4);
        let seq: Vec<Token> = (100..200).collect();
        let shard = c.shard_of(&seq);
        for cut in 1..seq.len() {
            assert_eq!(
                c.shard_of(&seq[..cut]),
                shard,
                "a prefix must land on the sequence's shard"
            );
        }
        assert_eq!(c.shard_of(&[]), 0, "empty input routes to shard 0");
    }

    #[test]
    fn shards_spread_distinct_roots() {
        let c = ShardedCache::new(builder(1 << 30), 8);
        let mut seen = std::collections::BTreeSet::new();
        for root in 0..64u32 {
            seen.insert(c.shard_of(&[root * 1000]));
        }
        assert!(seen.len() > 4, "64 roots should touch most of 8 shards");
    }

    #[test]
    fn pins_route_back_to_the_issuing_shard() {
        let c = ShardedCache::new(builder(1 << 30), 4);
        let a: Vec<Token> = (0..64).collect();
        let b: Vec<Token> = (5000..5064).collect();
        c.insert_at(&a, &[9000], 0.0);
        c.insert_at(&b, &[9001], 0.0);
        // Follow-up turns resume from each session's last-decoded-token SSM
        // checkpoint — the hit node an admission-time pin protects.
        let mut a2 = a.clone();
        a2.extend([9000, 42]);
        let mut b2 = b.clone();
        b2.extend([9001, 43]);
        let ta = c.pin_prefix(&a2);
        let tb = c.pin_prefix(&b2);
        assert!(!ta.is_empty());
        assert!(!tb.is_empty());
        assert!(c.pinned_bytes() > 0);
        c.unpin(ta);
        c.unpin(tb);
        assert_eq!(c.pinned_bytes(), 0);
    }

    /// Satellite: concurrent probe safety. Reader threads hammer the two
    /// non-mutating probes while a writer thread inserts a seeded trace;
    /// afterwards the cache must be byte-identical (stats, usage, probe
    /// answers) to a probe-free single-threaded run of the same trace.
    #[test]
    fn probe_hammer_leaves_the_cache_byte_identical_to_a_probe_free_run() {
        let capacity = contended_capacity();
        let trace = seeded_trace(23);

        // Reference: single-threaded, no probes at all.
        let mut reference = builder(capacity).build();
        for req in &trace.requests {
            reference.lookup_at(&req.input, req.arrival);
            reference.insert_at(&req.input, &req.output, req.arrival);
        }

        let hammered = ShardedCache::new(builder(capacity), 1);
        let stop = AtomicBool::new(false);
        // The two probes take the shard lock separately, so a write landing
        // between them legitimately changes the answer. Seqlock-style, the
        // writer keeps `writes` odd while a request is in flight, and a
        // reader compares a probe pair only when `writes` was even and
        // unchanged around it. Each reader keeps going until it has
        // compared at least one pair, so the check is never vacuous.
        let writes = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let hammered = &hammered;
                let (stop, writes) = (&stop, &writes);
                let trace = &trace;
                s.spawn(move || {
                    let (mut i, mut compared) = (t, 0u64);
                    while !stop.load(Ordering::SeqCst) || compared == 0 {
                        let req = &trace.requests[i % trace.requests.len()];
                        let before = writes.load(Ordering::SeqCst);
                        let len = hammered.longest_cached_prefix_len(&req.input);
                        let tiers = hammered.probe_tiers(&req.input);
                        if before % 2 == 0 && writes.load(Ordering::SeqCst) == before {
                            assert_eq!(tiers.tokens, len, "probe contract broken under threads");
                            compared += 1;
                        }
                        i += 1;
                    }
                });
            }
            for req in &trace.requests {
                writes.fetch_add(1, Ordering::SeqCst);
                hammered.lookup_at(&req.input, req.arrival);
                hammered.insert_at(&req.input, &req.output, req.arrival);
                writes.fetch_add(1, Ordering::SeqCst);
                std::thread::yield_now();
            }
            stop.store(true, Ordering::SeqCst);
        });

        assert_eq!(
            *reference.stats(),
            hammered.stats(),
            "reader probes must not perturb stats"
        );
        assert_eq!(reference.usage_bytes(), hammered.usage_bytes());
        for req in &trace.requests {
            assert_eq!(
                reference.longest_cached_prefix_len(&req.input),
                hammered.longest_cached_prefix_len(&req.input),
                "final tree state diverged"
            );
        }
    }
}
