//! Differential harness: cursor-resumed walks vs root walks.
//!
//! PR 8's harness replayed op streams through the arena engine and the
//! verbatim pre-refactor oracle; after two parity-holding PRs the oracle
//! was retired (ROADMAP item 4) and the harness now guards the session
//! fast path instead. Two arena trees replay an identical op stream: the
//! *hinted* side resumes matches/inserts/speculations from
//! [`MatchCursor`]s wherever one is available (falling back to the root
//! walk exactly as `marconi-core` does when validation rejects), the
//! *plain* side always walks from the root. Because the hinted path must
//! be byte-identical to the unhinted one, every op outcome and the full
//! observable state — ids included, since identical histories allocate
//! identical arena slots — must stay equal after every op.
//!
//! The harness itself is validated by a seeded-mutation self-test:
//! [`RadixTree::debug_set_split_off_by_one`] injects an off-by-one into
//! the hinted side's edge splitting, and the harness must (and does)
//! catch the resulting divergence — while the same stream passes with the
//! fault off.

use marconi_radix::{MatchCursor, NodeId, RadixTree, Token};
use proptest::prelude::*;

/// Per-node payload: distinguishable values prove payloads ride along
/// correctly through splits, merges, and slot reuse.
type Payload = u32;

/// One operation replayed against both sides.
#[derive(Debug, Clone)]
enum Op {
    /// Root `insert(seq)` on both; outcomes compared field-by-field.
    Insert(Vec<Token>),
    /// Extend the `k % tracked`-th tracked sequence by `suffix` and insert:
    /// the hinted side resumes from the tracked cursor (root-walk fallback
    /// on any fault), the plain side walks from the root.
    Extend(u32, Vec<Token>),
    /// Match the `k % tracked`-th tracked sequence extended by `suffix`:
    /// resumed vs root walk, results compared structurally.
    MatchExtend(u32, Vec<Token>),
    /// Speculate the same extension: resumed vs root walk, non-mutating.
    SpeculateExtend(u32, Vec<Token>),
    /// `match_prefix(seq)` from the root on both; must not mutate.
    Match(Vec<Token>),
    /// Remove the `k % live`-th live non-root node on both sides.
    Remove(u32),
    /// Pin the `k % live`-th live non-root node on both sides.
    Pin(u32),
    /// Unpin the most recently pinned still-held node.
    Unpin,
    /// `touch(id, stamp)` on both sides.
    Touch(u32, u64),
}

/// Returns `Err` on the first observable divergence.
macro_rules! check {
    ($label:expr, $hinted:expr, $plain:expr) => {
        let h_v = $hinted;
        let p_v = $plain;
        if h_v != p_v {
            return Err(format!(
                "{}: hinted side = {:?}, plain side = {:?}",
                $label, h_v, p_v
            ));
        }
    };
}

/// Both sides plus the harness's cursor-tracking state.
struct Pair {
    hinted: RadixTree<Payload>,
    plain: RadixTree<Payload>,
    /// Tracked `(sequence, cursor)` pairs on the hinted side; cursors may
    /// go stale (eviction, splits) — resumption then falls back, which is
    /// itself part of the contract under test.
    tracked: Vec<(Vec<Token>, MatchCursor)>,
    /// Pinned ids, released LIFO by [`Op::Unpin`] (same id both sides).
    pins: Vec<NodeId>,
    /// Ids of removed nodes: generation tags must keep reporting them dead.
    dead: Vec<NodeId>,
    /// Monotone payload tag written to each insert's end node.
    next_payload: Payload,
    /// Monotone stamp fallback so `Touch` ops always move recency forward.
    next_stamp: u64,
    /// Observed resumes/fallbacks, asserted >0 by the stream profiles so
    /// the suite can't silently stop exercising the fast path.
    resumes: u64,
    fallbacks: u64,
}

impl Pair {
    fn new(inject_split_fault: bool) -> Self {
        let mut hinted = RadixTree::new();
        hinted.debug_set_split_off_by_one(inject_split_fault);
        Pair {
            hinted,
            plain: RadixTree::new(),
            tracked: Vec::new(),
            pins: Vec::new(),
            dead: Vec::new(),
            next_payload: 1,
            next_stamp: 1,
            resumes: 0,
            fallbacks: 0,
        }
    }

    /// Live non-root ids, ascending by arena index (identical on both
    /// sides as long as the engines agree, which `check_state` enforces).
    fn live_ids(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.hinted.node_ids().collect();
        v.sort_unstable_by_key(|id| id.index());
        v
    }

    /// The extended sequence for extension ops, or a plain copy of
    /// `suffix` when nothing is tracked yet.
    fn extended(&self, k: u32, suffix: &[Token]) -> (Option<MatchCursor>, Vec<Token>) {
        if self.tracked.is_empty() {
            return (None, suffix.to_vec());
        }
        let (base, cur) = &self.tracked[k as usize % self.tracked.len()];
        let mut seq = base.clone();
        seq.extend_from_slice(suffix);
        (Some(*cur), seq)
    }

    fn do_insert(&mut self, hint: Option<MatchCursor>, seq: &[Token]) -> Result<(), String> {
        let h = match hint.and_then(|c| {
            self.hinted
                .insert_from(&c, seq)
                .inspect(|_| self.resumes += 1)
                .inspect_err(|_| self.fallbacks += 1)
                .ok()
        }) {
            Some(outcome) => outcome,
            None => self.hinted.insert(seq),
        };
        let p = self.plain.insert(seq);
        check!("insert outcome", &h, &p);
        // Tag the end node so payloads are distinguishable when the state
        // check compares them across splits and slot reuse.
        *self.hinted.data_mut(h.end_node) = self.next_payload;
        *self.plain.data_mut(p.end_node) = self.next_payload;
        self.next_payload += 1;
        if let Some(cur) = self.hinted.cursor_at(h.end_node) {
            if self.tracked.len() < 64 {
                self.tracked.push((seq.to_vec(), cur));
            } else {
                self.tracked[(self.next_payload as usize) % 64] = (seq.to_vec(), cur);
            }
        }
        Ok(())
    }

    fn apply(&mut self, op: &Op) -> Result<(), String> {
        match op {
            Op::Insert(seq) => {
                let seq = seq.clone();
                self.do_insert(None, &seq)?;
            }
            Op::Extend(k, suffix) => {
                let (hint, seq) = self.extended(*k, suffix);
                self.do_insert(hint, &seq)?;
            }
            Op::MatchExtend(k, suffix) => {
                let (hint, seq) = self.extended(*k, suffix);
                let h = match hint.and_then(|c| {
                    self.hinted
                        .match_prefix_from(&c, &seq)
                        .inspect(|_| self.resumes += 1)
                        .inspect_err(|_| self.fallbacks += 1)
                        .ok()
                }) {
                    Some(m) => m,
                    None => self.hinted.match_prefix(&seq),
                };
                let p = self.plain.match_prefix(&seq);
                check!("resumed match", &h, &p);
            }
            Op::SpeculateExtend(k, suffix) => {
                let (hint, seq) = self.extended(*k, suffix);
                let h = match hint.and_then(|c| self.hinted.speculate_insert_from(&c, &seq).ok()) {
                    Some(s) => s,
                    None => self.hinted.speculate_insert(&seq),
                };
                let p = self.plain.speculate_insert(&seq);
                check!("resumed speculation", h, p);
            }
            Op::Match(seq) => {
                let h = self.hinted.match_prefix(seq);
                let p = self.plain.match_prefix(seq);
                check!("root match", &h, &p);
            }
            Op::Remove(k) => {
                let live = self.live_ids();
                if live.is_empty() {
                    return Ok(());
                }
                let id = live[*k as usize % live.len()];
                let h = self.hinted.remove(id);
                let p = self.plain.remove(id);
                check!("remove outcome", format!("{h:?}"), format!("{p:?}"));
                if h.is_ok() {
                    self.dead.push(id);
                }
            }
            Op::Pin(k) => {
                let live = self.live_ids();
                if live.is_empty() {
                    return Ok(());
                }
                let id = live[*k as usize % live.len()];
                self.hinted.pin(id);
                self.plain.pin(id);
                self.pins.push(id);
            }
            Op::Unpin => {
                if let Some(id) = self.pins.pop() {
                    self.hinted.unpin(id);
                    self.plain.unpin(id);
                }
            }
            Op::Touch(k, stamp) => {
                let live = self.live_ids();
                if live.is_empty() {
                    return Ok(());
                }
                let id = live[*k as usize % live.len()];
                // Mix a monotone component in so repeated touches keep
                // re-keying the recency index rather than hitting the
                // equal-stamp fast path every time.
                self.hinted.touch(id, stamp + self.next_stamp);
                self.plain.touch(id, stamp + self.next_stamp);
                self.next_stamp += 1;
            }
        }
        self.check_state()
    }

    /// Compares every piece of observable state; `Err` on first divergence.
    fn check_state(&self) -> Result<(), String> {
        check!("len", self.hinted.len(), self.plain.len());
        check!("is_empty", self.hinted.is_empty(), self.plain.is_empty());
        check!(
            "token_count",
            self.hinted.token_count(),
            self.plain.token_count()
        );
        check!(
            "candidate_count",
            self.hinted.eviction_candidate_count(),
            self.plain.eviction_candidate_count()
        );
        check!(
            "pinned_count",
            self.hinted.pinned_count(),
            self.plain.pinned_count()
        );
        check!(
            "arena_capacity",
            self.hinted.arena_capacity(),
            self.plain.arena_capacity()
        );

        let ids = self.live_ids();
        let plain_ids: Vec<NodeId> = {
            let mut v: Vec<NodeId> = self.plain.node_ids().collect();
            v.sort_unstable_by_key(|id| id.index());
            v
        };
        check!("live id set", &ids, &plain_ids);

        for &id in &ids {
            let at = |what: &str| format!("node {id} {what}");
            check!(at("parent"), self.hinted.parent(id), self.plain.parent(id));
            check!(at("depth"), self.hinted.depth(id), self.plain.depth(id));
            check!(
                at("edge_len"),
                self.hinted.edge_len(id),
                self.plain.edge_len(id)
            );
            check!(
                at("child_count"),
                self.hinted.child_count(id),
                self.plain.child_count(id)
            );
            check!(
                at("structure_version"),
                self.hinted.structure_version(id),
                self.plain.structure_version(id)
            );
            check!(
                at("is_pinned"),
                self.hinted.is_pinned(id),
                self.plain.is_pinned(id)
            );
            check!(at("stamp"), self.hinted.stamp(id), self.plain.stamp(id));
            check!(at("class"), self.hinted.class(id), self.plain.class(id));
            check!(at("data"), self.hinted.data(id), self.plain.data(id));
            check!(
                at("children"),
                self.hinted.children(id).collect::<Vec<_>>(),
                self.plain.children(id).collect::<Vec<_>>()
            );
            check!(
                at("path_tokens"),
                self.hinted.path_tokens(id),
                self.plain.path_tokens(id)
            );
        }

        // The lru stream is the whole candidate set; the pinned set is
        // covered by the per-node `is_pinned` checks above.
        check!(
            "lru stream",
            self.hinted.lru_candidates().collect::<Vec<_>>(),
            self.plain.lru_candidates().collect::<Vec<_>>()
        );

        // Generation tags: ids of removed nodes stay dead forever, even
        // after their arena slots are reused by later inserts.
        for &d in &self.dead {
            if self.hinted.contains(d) || self.plain.contains(d) {
                return Err(format!(
                    "removed id {d} (gen {}) reports live again",
                    d.generation()
                ));
            }
        }

        self.hinted.assert_invariants();
        self.plain.assert_invariants();
        Ok(())
    }

    /// Releases held pins and runs a final state check.
    fn finish(mut self) -> Result<(), String> {
        while let Some(id) = self.pins.pop() {
            if self.hinted.contains(id) {
                self.hinted.unpin(id);
                self.plain.unpin(id);
            }
        }
        check!("final pinned_count", self.hinted.pinned_count(), 0);
        self.check_state()
    }
}

/// Replays `ops` through both sides, checking after every op. Returns the
/// resume/fallback counts on success so callers can assert coverage.
fn run_stream(ops: &[Op], inject_split_fault: bool) -> Result<(u64, u64), String> {
    let mut pair = Pair::new(inject_split_fault);
    pair.check_state()?;
    for (i, op) in ops.iter().enumerate() {
        pair.apply(op)
            .map_err(|e| format!("after op {i} {op:?}: {e}"))?;
    }
    let counts = (pair.resumes, pair.fallbacks);
    pair.finish()?;
    Ok(counts)
}

// ---------------------------------------------------------------------------
// Random-stream property tests (10k cases across the four profiles).
// ---------------------------------------------------------------------------

/// Weighted op from a dense token alphabet. `alphabet`/`max_len` shape the
/// sequence pool; `weights[i]` is the relative frequency of op kind `i` in
/// [insert, extend, match-extend, speculate-extend, match, remove, pin,
/// unpin, touch] order.
fn op_strategy(alphabet: u32, max_len: usize, weights: [u32; 9]) -> impl Strategy<Value = Op> {
    let total: u32 = weights.iter().sum();
    (
        0u32..total,
        prop::collection::vec(0u32..alphabet, 0..max_len),
        0u32..1 << 30,
        0u64..1 << 40,
    )
        .prop_map(move |(mut roll, seq, k, stamp)| {
            let mut kind = 0;
            for (i, w) in weights.iter().enumerate() {
                if roll < *w {
                    kind = i;
                    break;
                }
                roll -= w;
            }
            match kind {
                0 => Op::Insert(seq),
                1 => Op::Extend(k, seq),
                2 => Op::MatchExtend(k, seq),
                3 => Op::SpeculateExtend(k, seq),
                4 => Op::Match(seq),
                5 => Op::Remove(k),
                6 => Op::Pin(k),
                7 => Op::Unpin,
                _ => Op::Touch(k, stamp),
            }
        })
}

/// Panics (failing the proptest case) on any divergence.
fn assert_stream_agrees(ops: &[Op]) {
    if let Err(e) = run_stream(ops, false) {
        panic!("hinted and plain sides diverged: {e}\nstream: {ops:#?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2500))]

    /// Dense alphabet, short sequences: maximal prefix sharing, constant
    /// edge splitting and re-branching under live cursors.
    #[test]
    fn differential_dense_streams(
        ops in prop::collection::vec(op_strategy(4, 10, [3, 3, 2, 1, 1, 2, 1, 1, 2]), 1..32)
    ) {
        assert_stream_agrees(&ops);
    }

    /// Longer sequences over a wider alphabet: deeper paths, mid-edge
    /// matches, multi-token absorbs on removal.
    #[test]
    fn differential_long_streams(
        ops in prop::collection::vec(op_strategy(8, 24, [3, 3, 2, 1, 1, 2, 1, 1, 2]), 1..24)
    ) {
        assert_stream_agrees(&ops);
    }

    /// Removal-heavy: drives slot reuse, generation bumps, stale-cursor
    /// fallbacks, and edge merges (including rejected-removal paths).
    #[test]
    fn differential_removal_heavy_streams(
        ops in prop::collection::vec(op_strategy(4, 12, [2, 3, 1, 0, 1, 6, 1, 1, 1]), 1..40)
    ) {
        assert_stream_agrees(&ops);
    }

    /// Pin-heavy: long-held pins across splits and rejected removals, with
    /// recency churn and interleaved cursor reuse on the pinned set.
    #[test]
    fn differential_pin_heavy_streams(
        ops in prop::collection::vec(op_strategy(5, 12, [2, 3, 1, 1, 1, 3, 4, 3, 3]), 1..40)
    ) {
        assert_stream_agrees(&ops);
    }
}

// ---------------------------------------------------------------------------
// Seeded-mutation self-test.
// ---------------------------------------------------------------------------

/// The harness must catch a real divergence: with the injected off-by-one
/// split fault on the hinted side only, its edges are cut one token too
/// deep. The same stream passes with the fault off, proving it is the
/// *differential comparison* (not an internal panic) doing the catching —
/// the faulted tree is still internally consistent, just wrong.
#[test]
fn harness_catches_injected_split_fault() {
    // [1,2,3,4,5] then [1,2,9]: shared = 2 on a 5-token edge, so the fault
    // cuts at 3 instead of 2 and the branch lands one token too deep.
    let ops = vec![
        Op::Insert(vec![1, 2, 3, 4, 5]),
        Op::Insert(vec![1, 2, 9]),
        Op::Match(vec![1, 2, 9]),
    ];
    run_stream(&ops, false).expect("clean sides must agree on the stream");
    let err =
        run_stream(&ops, true).expect_err("harness failed to catch the injected split off-by-one");
    // The divergence must be caught by the mid-stream differential
    // comparison (the faulted tree is internally consistent, so invariant
    // checks alone would miss it).
    assert!(
        err.contains("after op") && err.contains("hinted side"),
        "divergence should surface as a structural mismatch, got: {err}"
    );
}

/// The stream profiles must actually exercise the fast path: a seeded
/// extension-heavy stream produces both genuine resumes and genuine
/// fallbacks (stale cursors after removals).
#[test]
fn streams_cover_resumes_and_fallbacks() {
    let mut ops = vec![Op::Insert(vec![1, 2, 3])];
    for turn in 0..24u32 {
        ops.push(Op::Extend(turn, vec![7 + turn, 8 + turn]));
        ops.push(Op::MatchExtend(turn, vec![7 + turn]));
        if turn % 5 == 4 {
            ops.push(Op::Remove(turn));
        }
    }
    let (resumes, fallbacks) = run_stream(&ops, false).expect("stream must agree");
    assert!(resumes > 0, "no cursor resume was exercised");
    assert!(fallbacks > 0, "no stale-cursor fallback was exercised");
}

// ---------------------------------------------------------------------------
// Scale replay: 100k live nodes (1M with MARCONI_STRESS_FULL=1).
// ---------------------------------------------------------------------------

/// splitmix64: deterministic, seedable, no external dependency.
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

/// Grows both sides to `target` live nodes with a fork-and-extend trace
/// (every fork is a mid-edge split; interleaved removals drive edge merges,
/// slot reuse, and stale-cursor fallbacks), resuming from session cursors
/// on the hinted side, checking outcome equality on every op and full
/// state equality at the end.
fn scale_replay(seed: u64, target: usize) {
    let mut rng = Rng(seed);
    let mut pair = Pair::new(false);
    // Recently-created end nodes: fork sources and remove/touch targets.
    type Recent = (Vec<Token>, NodeId, Option<MatchCursor>);
    let mut recent: Vec<Recent> = Vec::new();
    let mut fresh: Token = 1 << 20; // globally unique suffix tokens
    let mut ops: u64 = 0;

    while pair.hinted.len() < target {
        ops += 1;
        let roll = rng.below(100);
        if roll < 70 || recent.is_empty() {
            // Fork a prior sequence mid-edge (or extend it whole, driving
            // the cursor fast path) and append globally-unique tokens so
            // forks never re-merge.
            let (mut seq, hint) = if recent.is_empty() || rng.below(8) == 0 {
                (vec![(rng.below(64) + 1) as Token], None)
            } else {
                let (base, _, cur) = &recent[rng.below(recent.len() as u64) as usize];
                if rng.below(2) == 0 {
                    // Whole-sequence extension: the cursor resume case.
                    (base.clone(), *cur)
                } else {
                    // Mid-edge fork: no cursor applies.
                    let cut = 1 + rng.below(base.len() as u64) as usize;
                    (base[..cut].to_vec(), None)
                }
            };
            let extend = 8 + rng.below(56);
            for _ in 0..extend {
                seq.push(fresh);
                fresh += 1;
            }
            let h = match hint.and_then(|c| pair.hinted.insert_from(&c, &seq).ok()) {
                Some(outcome) => outcome,
                None => pair.hinted.insert(&seq),
            };
            let p = pair.plain.insert(&seq);
            assert_eq!(h, p, "insert outcome @ op {ops}");
            pair.hinted.touch(h.end_node, ops);
            pair.plain.touch(h.end_node, ops);
            let cur = pair.hinted.cursor_at(h.end_node);
            if recent.len() < 512 {
                recent.push((seq, h.end_node, cur));
            } else {
                recent[rng.below(512) as usize] = (seq, h.end_node, cur);
            }
        } else if roll < 90 {
            // Remove a recent end node if it is still live; its tracked
            // cursor then becomes a stale-generation fallback source.
            let slot = rng.below(recent.len() as u64) as usize;
            let (_, id, _) = recent[slot];
            if pair.hinted.contains(id) {
                let h = pair.hinted.remove(id);
                let p = pair.plain.remove(id);
                assert_eq!(
                    h.as_ref()
                        .map(|r| (r.freed_tokens, r.merged_into))
                        .map_err(|e| *e),
                    p.as_ref()
                        .map(|r| (r.freed_tokens, r.merged_into))
                        .map_err(|e| *e),
                    "remove @ op {ops}"
                );
            }
        } else {
            // Probe: longest prefix of a recent sequence, resumed when the
            // probe covers the whole tracked sequence.
            let slot = rng.below(recent.len() as u64) as usize;
            let (seq, _, cur) = &recent[slot];
            let whole = rng.below(2) == 0;
            let cut = if whole {
                seq.len()
            } else {
                1 + rng.below(seq.len() as u64) as usize
            };
            let h = match cur
                .filter(|_| whole)
                .and_then(|c| pair.hinted.match_prefix_from(&c, &seq[..cut]).ok())
            {
                Some(m) => m,
                None => pair.hinted.match_prefix(&seq[..cut]),
            };
            let p = pair.plain.match_prefix(&seq[..cut]);
            assert_eq!(h, p, "match @ op {ops}");
        }
        assert_eq!(pair.hinted.len(), pair.plain.len(), "len @ op {ops}");
        assert_eq!(
            pair.hinted.token_count(),
            pair.plain.token_count(),
            "token_count @ op {ops}"
        );
        assert_eq!(
            pair.hinted.eviction_candidate_count(),
            pair.plain.eviction_candidate_count(),
            "candidate_count @ op {ops}"
        );
    }

    assert!(pair.hinted.len() >= target);
    pair.check_state()
        .unwrap_or_else(|e| panic!("scale replay diverged at {target} live nodes: {e}"));
}

/// 100k live nodes by default; 1M with `MARCONI_STRESS_FULL=1`. Both sides
/// stay O(depth) per op (the hinted side better), so even the full run is
/// minutes, not hours.
#[test]
fn scale_replay_with_cursors_matches_root_walks() {
    let target = if std::env::var("MARCONI_STRESS_FULL").is_ok() {
        1_000_000
    } else {
        100_000
    };
    scale_replay(0xD1FF8, target);
}
