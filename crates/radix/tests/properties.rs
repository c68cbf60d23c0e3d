//! Property-based tests: the radix tree against a naive reference model.
//!
//! The reference model is a plain set of inserted sequences. From it we can
//! derive ground truth for the longest stored prefix of any query and for
//! the number of distinct prefixes (= tree token count).

use marconi_radix::{NodeId, RadixTree, Token};
use proptest::prelude::*;
use std::collections::HashSet;

/// Longest prefix of `query` that is a prefix of any sequence in `seqs`.
fn reference_longest_prefix(seqs: &[Vec<Token>], query: &[Token]) -> usize {
    seqs.iter()
        .map(|s| {
            s.iter()
                .zip(query.iter())
                .take_while(|(a, b)| a == b)
                .count()
        })
        .max()
        .unwrap_or(0)
}

/// Number of distinct non-empty prefixes across all sequences.
fn reference_distinct_prefixes(seqs: &[Vec<Token>]) -> usize {
    let mut set: HashSet<&[Token]> = HashSet::new();
    for s in seqs {
        for end in 1..=s.len() {
            set.insert(&s[..end]);
        }
    }
    set.len()
}

/// Sequences drawn from a tiny alphabet to force heavy prefix sharing.
fn seq_strategy() -> impl Strategy<Value = Vec<Token>> {
    prop::collection::vec(0u32..4, 1..24)
}

/// Classes the candidate-index property spreads nodes across.
const CLASSES: u8 = 3;

fn seqs_strategy() -> impl Strategy<Value = Vec<Vec<Token>>> {
    prop::collection::vec(seq_strategy(), 1..24)
}

proptest! {
    #[test]
    fn match_agrees_with_reference(seqs in seqs_strategy(), query in seq_strategy()) {
        let mut tree: RadixTree<()> = RadixTree::new();
        for s in &seqs {
            tree.insert(s);
        }
        tree.assert_invariants();
        let got = tree.match_prefix(&query).matched_len as usize;
        let want = reference_longest_prefix(&seqs, &query);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn token_count_equals_distinct_prefixes(seqs in seqs_strategy()) {
        let mut tree: RadixTree<()> = RadixTree::new();
        for s in &seqs {
            tree.insert(s);
        }
        prop_assert_eq!(tree.token_count() as usize, reference_distinct_prefixes(&seqs));
    }

    #[test]
    fn inserted_sequences_fully_match(seqs in seqs_strategy()) {
        let mut tree: RadixTree<()> = RadixTree::new();
        for s in &seqs {
            tree.insert(s);
        }
        for s in &seqs {
            let m = tree.match_prefix(s);
            prop_assert_eq!(m.matched_len as usize, s.len());
            prop_assert!(!m.ends_mid_edge);
        }
    }

    #[test]
    fn speculation_predicts_insert(seqs in seqs_strategy(), next in seq_strategy()) {
        let mut tree: RadixTree<()> = RadixTree::new();
        for s in &seqs {
            tree.insert(s);
        }
        let spec = tree.speculate_insert(&next);
        let outcome = tree.insert(&next);
        match spec.creates_branch_at {
            Some(depth) => {
                let mid = outcome.split_node.expect("speculation promised a split");
                prop_assert_eq!(tree.depth(mid), depth);
            }
            None => prop_assert!(outcome.split_node.is_none()),
        }
        prop_assert_eq!(tree.depth(outcome.end_node), next.len() as u64);
        tree.assert_invariants();
    }

    #[test]
    fn random_removals_preserve_invariants(
        seqs in seqs_strategy(),
        victims in prop::collection::vec(any::<prop::sample::Index>(), 1..32),
    ) {
        let mut tree: RadixTree<()> = RadixTree::new();
        for s in &seqs {
            tree.insert(s);
        }
        for victim in victims {
            let candidates: Vec<NodeId> = tree.lru_candidates().map(|(_, id)| id).collect();
            if candidates.is_empty() {
                break;
            }
            let id = candidates[victim.index(candidates.len())];
            tree.remove(id).expect("candidate is removable");
            tree.assert_invariants();
        }
    }

    #[test]
    fn removing_everything_empties_the_tree(seqs in seqs_strategy()) {
        let mut tree: RadixTree<()> = RadixTree::new();
        for s in &seqs {
            tree.insert(s);
        }
        // Leaf-first removal must be able to drain any tree.
        while !tree.is_empty() {
            let leaf = tree
                .node_ids()
                .find(|&id| tree.is_leaf(id))
                .expect("non-empty tree has a leaf");
            tree.remove(leaf).unwrap();
        }
        prop_assert_eq!(tree.token_count(), 0);
        tree.assert_invariants();
    }

    #[test]
    fn candidate_index_matches_scan_recompute(
        seqs in seqs_strategy(),
        ops in prop::collection::vec((0u32..7, any::<prop::sample::Index>(), 0u8..CLASSES), 1..64),
    ) {
        // Interleave inserts, candidate removals, pins, unpins, touches,
        // pin clears and class moves, and after every op assert, for each
        // class, that its candidate set is exactly the from-scratch scan
        // of live non-root class members with ≤ 1 child and no pin, in
        // ascending (stamp, id) order — the set's membership and its size
        // bound — and that its token count is the scan's edge-length sum.
        let mut tree: RadixTree<()> = RadixTree::new();
        let check = |tree: &RadixTree<()>| {
            let mut all: Vec<(u8, u64, NodeId)> = Vec::new();
            for class in 0..CLASSES {
                let indexed: Vec<(u64, NodeId)> = tree.lru_candidates_in(class).collect();
                let mut scanned: Vec<(u64, NodeId)> = tree
                    .node_ids()
                    .filter(|&id| tree.class(id) == class)
                    .filter(|&id| tree.child_count(id) <= 1 && !tree.is_pinned(id))
                    .map(|id| (tree.stamp(id), id))
                    .collect();
                scanned.sort_unstable();
                assert_eq!(indexed, scanned, "class {class}'s set drifted from scan recompute");
                all.extend(scanned.iter().map(|&(stamp, id)| (class, stamp, id)));
                let tokens: u64 = tree
                    .node_ids()
                    .filter(|&id| tree.class(id) == class)
                    .map(|id| tree.edge_len(id))
                    .sum();
                assert_eq!(tree.class_token_count(class), tokens, "class {class}'s token count drifted");
            }
            let indexed: Vec<(u64, NodeId)> = tree.lru_candidates().collect();
            let scanned: Vec<(u64, NodeId)> = all.iter().map(|&(_, stamp, id)| (stamp, id)).collect();
            assert_eq!(indexed, scanned, "the all-class walk is not class-major");
            assert_eq!(tree.eviction_candidate_count(), scanned.len());
            let pinned = tree.node_ids().filter(|&id| tree.is_pinned(id)).count();
            assert_eq!(tree.pinned_count(), pinned);
        };
        let mut next_seq = 0usize;
        // Pinned ids stay live: pinned nodes are never removed.
        let mut held: Vec<NodeId> = Vec::new();
        for (op, pick, class) in ops {
            let live: Vec<NodeId> = tree.node_ids().collect();
            let candidates: Vec<NodeId> = tree.lru_candidates().map(|(_, id)| id).collect();
            match op {
                1 if !candidates.is_empty() => {
                    let id = candidates[pick.index(candidates.len())];
                    tree.remove(id).expect("candidate is removable");
                }
                2 if !live.is_empty() => {
                    let id = live[pick.index(live.len())];
                    tree.pin(id);
                    held.push(id);
                }
                3 if !held.is_empty() => {
                    let id = held.swap_remove(pick.index(held.len()));
                    tree.unpin(id);
                }
                // Few distinct stamps, so (stamp, id) ties are common.
                4 if !live.is_empty() => {
                    let id = live[pick.index(live.len())];
                    tree.touch(id, pick.index(8) as u64);
                }
                5 => {
                    tree.clear_pins();
                    held.clear();
                }
                // Any live node, candidate or not, pinned or not.
                6 if !live.is_empty() => {
                    let id = live[pick.index(live.len())];
                    tree.set_class(id, class);
                }
                _ => {
                    tree.insert(&seqs[next_seq % seqs.len()]);
                    next_seq += 1;
                }
            }
            check(&tree);
            tree.assert_invariants();
        }
    }

    #[test]
    fn merge_on_remove_keeps_sequences_reachable(seqs in seqs_strategy()) {
        let mut tree: RadixTree<()> = RadixTree::new();
        for s in &seqs {
            tree.insert(s);
        }
        // Remove every single-child intermediate node (structural squash).
        loop {
            let target = tree
                .node_ids()
                .find(|&id| tree.child_count(id) == 1);
            match target {
                Some(id) => {
                    tree.remove(id).unwrap();
                }
                None => break,
            }
        }
        tree.assert_invariants();
        // Full sequences still match end to end.
        for s in &seqs {
            prop_assert_eq!(tree.match_prefix(s).matched_len as usize, s.len());
        }
    }
}
