//! Criterion bench for the eviction hot path at large tree sizes.
//!
//! Demonstrates the asymptotic contract of the incremental candidate index:
//! victim selection costs O(live candidates) per pressure episode, not
//! O(arena slots × victims).
//!
//! Groups:
//!
//! * `candidate_enumeration` — collecting the candidate set from the
//!   incremental index vs. re-deriving it by scanning every arena slot
//!   (the pre-refactor pattern), on a churned tree whose arena is ~10×
//!   its live set.
//! * `victim_selection` — one pressure episode picking 64 victims: the
//!   pre-refactor per-victim re-scan + fresh FLOP math vs. the
//!   score-once-then-rescan-cheaply episode structure. A `[ratio]` line
//!   prints the measured speedup.
//! * `cache_eviction_storm` — end to end: `HybridPrefixCache` in steady
//!   state at ≥ 10k live nodes, every insertion forcing evictions.
//! * `engine_replay` — the arena engine's O(log n) recency-index victim
//!   pops vs the pre-PR 8 selection pattern (stamp in the payload, one
//!   O(candidates) min-scan per victim) on an identical pre-baked
//!   at-capacity op stream (90/10 insert/match, every insert evicting the
//!   coldest candidates back down to the node budget) at 10k and 100k
//!   live nodes (1M with `EVICTION_PRESSURE_FULL=1`). Both arms run on
//!   the arena engine — the verbatim `legacy` oracle was retired in PR 10
//!   once the differential safety net had served its purpose — so the
//!   curve isolates the victim-selection asymptotics alone. A second
//!   probe pair compares root-walk matches against cursor-resumed
//!   matches ([`cursor_at`](RadixTree::cursor_at) + `match_prefix_from`)
//!   over the same probe set. Writes the measured curve to
//!   `BENCH_8.json` at the repo root (the `event_sim` bench merges its
//!   section into the same file).
//!
//! Sizes default to 10k nodes so the CI smoke run stays fast; set
//! `EVICTION_PRESSURE_FULL=1` to sweep 10k–100k (and 10k–1M for
//! `engine_replay`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use marconi_core::{EvictionPolicy, HybridPrefixCache, PrefixCache};
use marconi_model::ModelConfig;
use marconi_radix::{NodeId, RadixTree, Token};
use std::time::Instant;

fn sizes() -> Vec<usize> {
    if std::env::var("EVICTION_PRESSURE_FULL").is_ok() {
        vec![10_000, 30_000, 100_000]
    } else {
        vec![10_000]
    }
}

/// A tree of `n` short sequences in groups of 8 sharing a prefix, giving a
/// realistic branch-heavy shape: ~n leaves plus ~n/8 branch nodes.
fn build_tree(n: usize) -> RadixTree<()> {
    let mut tree: RadixTree<()> = RadixTree::new();
    for i in 0..n as u32 {
        let group = i / 8;
        let seq: Vec<Token> = vec![
            group * 31 + 1,
            group * 17 + 2,
            group * 13 + 3,
            group * 7 + 4,
            i * 97 + 5,
            i * 89 + 6,
            i * 83 + 7,
            i * 79 + 8,
        ];
        tree.insert(&seq);
    }
    tree
}

/// Like `build_tree`, then removes ~90% of the leaves so the arena holds
/// ~10× more slots than live nodes — the steady state of a long-running
/// cache, where arena scans hurt the most.
fn build_churned_tree(n: usize) -> RadixTree<()> {
    let mut tree = build_tree(n);
    let victims: Vec<NodeId> = tree
        .node_ids()
        .filter(|&id| tree.is_leaf(id) && (id.index() % 10 != 0))
        .collect();
    for id in victims {
        let _ = tree.remove(id);
    }
    tree
}

fn bench_candidate_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("candidate_enumeration");
    for &n in &sizes() {
        let tree = build_churned_tree(n);
        group.bench_with_input(BenchmarkId::new("indexed", n), &tree, |b, tree| {
            b.iter(|| black_box(tree.lru_candidates().count()));
        });
        group.bench_with_input(BenchmarkId::new("arena_scan", n), &tree, |b, tree| {
            // Pre-refactor: walk every arena slot and re-test child counts.
            b.iter(|| {
                black_box(
                    tree.node_ids()
                        .filter(|&id| tree.child_count(id) <= 1)
                        .count(),
                )
            });
        });
    }
    group.finish();
}

/// Emulates scoring one eviction candidate the pre-refactor way: fresh
/// FLOP-saved math against the node's parent, per victim round.
fn fresh_score(tree: &RadixTree<()>, model: &ModelConfig, id: NodeId) -> f64 {
    let freed = if tree.is_leaf(id) {
        tree.edge_len(id) * model.kv_bytes_per_token()
    } else {
        0
    };
    if freed == 0 {
        return f64::INFINITY;
    }
    let parent_depth = tree.parent(id).map(|p| tree.depth(p)).unwrap_or(0);
    let delta = model.flops_saved(tree.depth(id)) - model.flops_saved(parent_depth);
    delta as f64 / freed as f64
}

fn bench_victim_selection(c: &mut Criterion) {
    const VICTIMS: usize = 64;
    let model = ModelConfig::hybrid_7b();
    let mut group = c.benchmark_group("victim_selection");
    group.sample_size(10);

    let episode_rescan = |tree: &RadixTree<()>| -> f64 {
        // Pre-refactor pattern: per victim, re-collect candidates from an
        // arena scan and re-derive every score from the model's FLOP math.
        let mut acc = 0.0;
        for _ in 0..VICTIMS {
            let best = tree
                .node_ids()
                .filter(|&id| tree.child_count(id) <= 1)
                .map(|id| fresh_score(tree, &model, id))
                .fold(f64::INFINITY, f64::min);
            acc += best;
        }
        acc
    };
    let episode_indexed = |tree: &RadixTree<()>| -> f64 {
        // Refactored pattern: collect the pool once from the incremental
        // index, score each node once, then rescan only the cheap memoized
        // scores per victim (min-max normalization forces the per-victim
        // rescan; the win is dropping the arena walk and the FLOP math).
        let pool: Vec<f64> = tree
            .lru_candidates()
            .map(|(_, id)| fresh_score(tree, &model, id))
            .collect();
        let mut acc = 0.0;
        for _ in 0..VICTIMS {
            acc += pool.iter().copied().fold(f64::INFINITY, f64::min);
        }
        acc
    };

    for &n in &sizes() {
        let tree = build_churned_tree(n);
        group.bench_with_input(
            BenchmarkId::new("rescan_per_victim", n),
            &tree,
            |b, tree| b.iter(|| black_box(episode_rescan(tree))),
        );
        group.bench_with_input(BenchmarkId::new("indexed_episode", n), &tree, |b, tree| {
            b.iter(|| black_box(episode_indexed(tree)))
        });

        // One explicit measured ratio so the asymptotic win is visible
        // without comparing criterion lines by hand.
        let t0 = Instant::now();
        black_box(episode_rescan(&tree));
        let rescan = t0.elapsed();
        let t1 = Instant::now();
        black_box(episode_indexed(&tree));
        let indexed = t1.elapsed();
        println!(
            "victim_selection/[ratio] n={n}: rescan {:?} / indexed {:?} = {:.1}x",
            rescan,
            indexed,
            rescan.as_secs_f64() / indexed.as_secs_f64().max(f64::MIN_POSITIVE)
        );
    }
    group.finish();
}

fn bench_cache_eviction_storm(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_eviction_storm");
    group.sample_size(10);
    for &n in &sizes() {
        // Pure Transformer so per-node footprint is just the 20-token edge
        // KVs (hybrid SSM checkpoints are ~MBs each and would cap the live
        // node count far below `n`).
        let model = ModelConfig::transformer_7b();
        // Capacity for ~n live leaves of 20 tokens each: every insertion at
        // steady state forces eviction work.
        let capacity = (n as u64) * 20 * model.kv_bytes_per_token();
        let mut cache = HybridPrefixCache::builder(model)
            .capacity_bytes(capacity)
            .policy(EvictionPolicy::FlopAware { alpha: 2.0 })
            .build();
        let mut next = 0u32;
        let mut insert_one = move |cache: &mut HybridPrefixCache| {
            next = next.wrapping_add(1);
            let base = next.wrapping_mul(1_000);
            let input: Vec<Token> = (base..base + 16).collect();
            let output: Vec<Token> = (base + 500_000..base + 500_004).collect();
            cache.insert_at(&input, &output, f64::from(next));
            cache.stats().evictions
        };
        // Fill to steady state (usage pinned at capacity).
        while cache.usage_bytes() + 21 * cache.model().kv_bytes_per_token()
            <= cache.capacity_bytes()
        {
            insert_one(&mut cache);
        }
        group.bench_function(BenchmarkId::new("insert_evicting", n), |b| {
            b.iter(|| black_box(insert_one(&mut cache)))
        });
        println!(
            "cache_eviction_storm n={n}: {} live nodes at capacity, {} evictions during bench",
            cache.node_count(),
            cache.stats().evictions
        );
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// engine_replay: arena engine vs the verbatim pre-refactor engine.
// ---------------------------------------------------------------------------

/// splitmix64: deterministic trace generation without external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One pre-baked replay op. Both engines replay the identical stream;
/// evictions are implicit (each insert evicts the coldest candidates until
/// the tree is back under its node budget, as a cache at capacity would).
enum ReplayOp {
    Insert(Vec<Token>),
    Match(Vec<Token>),
}

/// Two victim-selection strategies behind one replay interface, both on
/// the arena engine:
///
/// * the indexed arm `touch`es the O(log n) recency index and evicts by
///   popping the index's coldest entry;
/// * the scan arm reproduces the pre-PR 8 shape — the stamp lives in the
///   payload and every victim costs an O(candidates) min-scan (the
///   retired `legacy` oracle had no recency structure at all).
trait Engine: Default {
    type Id: Copy;
    fn insert_seq(&mut self, seq: &[Token]) -> (Self::Id, u64);
    fn touch_node(&mut self, id: Self::Id, stamp: u64);
    /// Removes the coldest eviction candidate, returning its arena index.
    fn evict_coldest(&mut self) -> Option<usize>;
    fn match_len(&self, seq: &[Token]) -> u64;
    fn live(&self) -> usize;
}

impl Engine for RadixTree<()> {
    type Id = NodeId;

    fn insert_seq(&mut self, seq: &[Token]) -> (NodeId, u64) {
        let out = self.insert(seq);
        (out.end_node, out.added_tokens)
    }

    fn touch_node(&mut self, id: NodeId, stamp: u64) {
        self.touch(id, stamp);
    }

    fn evict_coldest(&mut self) -> Option<usize> {
        let id = self.lru_candidates().next()?.1;
        self.remove(id).ok().map(|_| id.index())
    }

    fn match_len(&self, seq: &[Token]) -> u64 {
        self.match_prefix(seq).matched_len
    }

    fn live(&self) -> usize {
        self.len()
    }
}

/// The scan arm: an arena tree whose payload carries the recency stamp,
/// with victims selected by a per-victim min-scan — byte-identical victim
/// order to the indexed arm (stamps are unique, so the `(stamp, index)`
/// key totally orders candidates the same way the recency index does).
#[derive(Default)]
struct ScanEvictTree(RadixTree<u64>);

impl Engine for ScanEvictTree {
    type Id = NodeId;

    fn insert_seq(&mut self, seq: &[Token]) -> (NodeId, u64) {
        let out = self.0.insert(seq);
        (out.end_node, out.added_tokens)
    }

    fn touch_node(&mut self, id: NodeId, stamp: u64) {
        *self.0.data_mut(id) = stamp;
    }

    fn evict_coldest(&mut self) -> Option<usize> {
        // Pre-refactor victim selection: ignore the recency index and pay
        // a full min-scan over the candidate set per victim (the shape of
        // the cache's scored pool loop before PR 8's LRU fast path).
        let id = self
            .0
            .lru_candidates()
            .map(|(_, id)| id)
            .min_by_key(|&id| (*self.0.data(id), id.index()))?;
        self.0.remove(id).ok().map(|_| id.index())
    }

    fn match_len(&self, seq: &[Token]) -> u64 {
        self.0.match_prefix(seq).matched_len
    }

    fn live(&self) -> usize {
        self.0.len()
    }
}

/// Fork-and-extend trace with long edges (64–320 fresh tokens per insert):
/// most inserts fork a prior sequence mid-edge, so the pre-refactor engine
/// pays an O(edge) `Vec` clone per split where the arena engine does O(1)
/// offset arithmetic. Returns `(build, measured)`: `build` grows a scratch
/// arena tree to exactly `target_live` nodes, `measured` is the
/// at-capacity steady-state segment (90% insert / 10% match; every insert
/// evicts back down to the node budget during replay).
fn engine_replay_trace(
    seed: u64,
    target_live: usize,
    measured_ops: usize,
) -> (Vec<ReplayOp>, Vec<ReplayOp>) {
    let mut rng = Rng(seed);
    let mut history: Vec<Vec<Token>> = Vec::new();
    let mut fresh: Token = 1 << 16;
    let mut scratch: RadixTree<()> = RadixTree::new();
    let insert_op = |rng: &mut Rng, history: &mut Vec<Vec<Token>>, fresh: &mut Token| {
        let mut seq: Vec<Token> = if history.is_empty() || rng.below(8) == 0 {
            vec![(rng.below(64) + 1) as Token]
        } else {
            let base = &history[rng.below(history.len() as u64) as usize];
            let cut = 1 + rng.below(base.len() as u64) as usize;
            base[..cut].to_vec()
        };
        for _ in 0..64 + rng.below(256) {
            seq.push(*fresh);
            *fresh += 1;
        }
        if history.len() < 512 {
            history.push(seq.clone());
        } else {
            let slot = rng.below(512) as usize;
            history[slot] = seq.clone();
        }
        seq
    };

    let mut build = Vec::new();
    while scratch.live() < target_live {
        let seq = insert_op(&mut rng, &mut history, &mut fresh);
        scratch.insert(&seq);
        build.push(ReplayOp::Insert(seq));
    }
    let mut measured = Vec::with_capacity(measured_ops);
    for _ in 0..measured_ops {
        if rng.below(100) < 90 {
            measured.push(ReplayOp::Insert(insert_op(
                &mut rng,
                &mut history,
                &mut fresh,
            )));
        } else {
            let base = &history[rng.below(history.len() as u64) as usize];
            let cut = 1 + rng.below(base.len() as u64) as usize;
            measured.push(ReplayOp::Match(base[..cut].to_vec()));
        }
    }
    (build, measured)
}

/// Replays `ops` against a node `budget`: every inserted end node is
/// touched with a monotone recency stamp, then the coldest candidates are
/// evicted until the tree is back under budget — the cache-at-capacity
/// loop both engines served in production. Returns a checksum over added
/// tokens, victim arena indices, and match lengths; because both slabs
/// allocate LIFO in the same order, the checksum is byte-comparable across
/// engines and doubles as a lockstep assertion.
fn replay<E: Engine>(tree: &mut E, ops: &[ReplayOp], budget: usize, stamp: &mut u64) -> u64 {
    let mut checksum = 0u64;
    for op in ops {
        match op {
            ReplayOp::Insert(seq) => {
                let (id, added) = tree.insert_seq(seq);
                *stamp += 1;
                tree.touch_node(id, *stamp);
                checksum = checksum.wrapping_add(added);
                while tree.live() > budget {
                    match tree.evict_coldest() {
                        Some(idx) => checksum = checksum.wrapping_add(idx as u64),
                        None => break,
                    }
                }
            }
            ReplayOp::Match(seq) => {
                checksum = checksum.wrapping_add(tree.match_len(seq));
            }
        }
    }
    checksum
}

/// Builds to size (untimed, unbounded budget), then replays the measured
/// segment (timed) with the budget pinned at the built size, so every
/// insert pays the eviction path. Returns `(ops_per_sec,
/// live_nodes_at_start, checksum)`.
fn measure_engine<E: Engine>(build: &[ReplayOp], measured: &[ReplayOp]) -> (f64, usize, u64) {
    let mut tree = E::default();
    let mut stamp = 0u64;
    replay(&mut tree, build, usize::MAX, &mut stamp);
    let live = tree.live();
    let started = Instant::now();
    let checksum = replay(&mut tree, measured, live, &mut stamp);
    let wall = started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    (measured.len() as f64 / wall, live, checksum)
}

fn replay_sizes() -> Vec<usize> {
    if std::env::var("EVICTION_PRESSURE_FULL").is_ok() {
        vec![10_000, 100_000, 1_000_000]
    } else {
        vec![10_000, 100_000]
    }
}

const REPLAY_SEED: u64 = 0xBE8;

/// Measured-segment length, scaled down as the tree grows so the scan
/// arm's O(candidates)-per-victim cost keeps the sweep bounded (~2e9
/// candidate visits per size regardless of n).
fn replay_measured_ops(n: usize) -> usize {
    (2_000_000_000 / n).clamp(2_000, 20_000)
}

/// One-shot sweep: measures both victim-selection arms at each size,
/// prints `[ratio]` lines, and writes the curve to `BENCH_8.json`
/// (hand-formatted; the `event_sim` bench appends its section to the
/// same file).
fn run_replay_sweep_and_write_json() {
    let mut rows = Vec::new();
    for &n in &replay_sizes() {
        let measured_ops = replay_measured_ops(n);
        let (build, measured) = engine_replay_trace(REPLAY_SEED, n, measured_ops);
        let (scan_ops, scan_live, scan_sum) = measure_engine::<ScanEvictTree>(&build, &measured);
        let (arena_ops, arena_live, arena_sum) = measure_engine::<RadixTree<()>>(&build, &measured);
        assert_eq!(
            (arena_live, arena_sum),
            (scan_live, scan_sum),
            "victim-selection arms diverged on the bench trace at n={n}"
        );
        let speedup = arena_ops / scan_ops.max(f64::MIN_POSITIVE);
        println!(
            "engine_replay/[ratio] n={n} ({arena_live} live nodes): \
             indexed {arena_ops:.0} ops/s / scan {scan_ops:.0} ops/s = {speedup:.1}x"
        );
        rows.push(format!(
            "    {{ \"live_nodes\": {arena_live}, \"ops\": {measured_ops}, \
             \"scan_ops_per_sec\": {scan_ops:.0}, \
             \"arena_ops_per_sec\": {arena_ops:.0}, \"speedup\": {speedup:.2} }}"
        ));
    }
    // Hand-formatted snapshot (serde_json is not vendored); flat schema,
    // same convention as BENCH_6.json.
    let json = format!(
        "{{\n  \"bench\": \"engine_replay\",\n  \
         \"trace\": \"fork-extend at-capacity steady state, seed {REPLAY_SEED}, \
         90/10 insert/match, evict-to-budget per insert\",\n  \"sizes\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_8.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("engine_replay: wrote {path}"),
        Err(e) => eprintln!("engine_replay: could not write {path}: {e}"),
    }
}

fn bench_engine_replay(c: &mut Criterion) {
    run_replay_sweep_and_write_json();

    // Criterion-tracked non-mutating probes on one 10k-node tree: each
    // probe extends a previously-inserted sequence by a fresh suffix, the
    // follow-up-turn shape the PR 10 session cursor exists for. The
    // rootwalk arm matches from the root (O(prompt)); the cursor arm
    // resumes from a cursor minted at the base sequence's end node
    // (O(suffix)), so ordinary bench comparisons catch regressions in
    // either walk without rebuilding state per iteration.
    let (build, _) = engine_replay_trace(REPLAY_SEED, 10_000, 0);
    let mut stamp = 0u64;
    let mut arena: RadixTree<()> = RadixTree::default();
    replay(&mut arena, &build, usize::MAX, &mut stamp);
    let probes: Vec<(marconi_radix::MatchCursor, Vec<Token>)> = {
        let mut rng = Rng(REPLAY_SEED ^ 0xABCD);
        let seqs: Vec<&Vec<Token>> = build
            .iter()
            .filter_map(|op| match op {
                ReplayOp::Insert(seq) => Some(seq),
                _ => None,
            })
            .collect();
        (0..256)
            .map(|_| {
                let base = seqs[rng.below(seqs.len() as u64) as usize];
                let m = arena.match_prefix(base);
                assert_eq!(
                    m.matched_len as usize,
                    base.len(),
                    "build tree is unevicted"
                );
                let end = m.deepest().expect("non-empty sequences end at a node");
                let cursor = arena.cursor_at(end).expect("live node mints a cursor");
                let mut probe = base.clone();
                probe.extend((0..8).map(|_| (rng.next() % 50_000) as Token));
                (cursor, probe)
            })
            .collect()
    };
    let rootwalk_sum: u64 = probes
        .iter()
        .map(|(_, p)| arena.match_prefix(p).matched_len)
        .sum();
    let cursor_sum: u64 = probes
        .iter()
        .map(|(c, p)| {
            arena
                .match_prefix_from(c, p)
                .expect("fresh cursor")
                .matched_len
        })
        .sum();
    assert_eq!(
        rootwalk_sum, cursor_sum,
        "cursor resume must match the root walk"
    );

    let mut group = c.benchmark_group("engine_replay");
    group.sample_size(10);
    group.bench_function("match_rootwalk_10k_x256", |b| {
        b.iter(|| {
            let sum: u64 = probes
                .iter()
                .map(|(_, p)| arena.match_prefix(p).matched_len)
                .sum();
            black_box(sum)
        })
    });
    group.bench_function("match_cursor_10k_x256", |b| {
        b.iter(|| {
            let sum: u64 = probes
                .iter()
                .map(|(c, p)| {
                    arena
                        .match_prefix_from(c, p)
                        .expect("fresh cursor")
                        .matched_len
                })
                .sum();
            black_box(sum)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_candidate_enumeration,
    bench_victim_selection,
    bench_cache_eviction_storm,
    bench_engine_replay
);
criterion_main!(benches);
