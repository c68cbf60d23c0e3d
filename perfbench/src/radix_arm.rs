//! The bare radix-tree arm of the traced run: a workload's sequences
//! replayed into a `RadixTree` with no cache policy on top, so walk and
//! insert cost per token and token-store growth are measured apart from
//! admission and eviction.

use crate::workload::{pass_span, ratio};
use marconi::radix::{recency_stamp, RadixTree};
use marconi::workload::Trace;
use std::time::Instant;

#[derive(Debug, Default)]
pub struct RadixArm {
    pub match_ns_per_token: f64,
    pub insert_ns_per_token: f64,
    pub removals_per_req: f64,
    /// `token_store_len / token_count` after the replay.
    pub store_ratio: f64,
}

/// Replays `passes` passes of `trace` (arrivals shifted per pass): each
/// request matches its input, inserts input ‖ output, stamps both nodes
/// with its arrival, then the least recently stamped candidates are
/// removed until the tree holds at most `budget_tokens`.
pub fn replay(trace: &Trace, passes: usize, budget_tokens: u64) -> RadixArm {
    let span = pass_span(trace);
    let mut tree: RadixTree<()> = RadixTree::new();
    let (mut match_ns, mut match_tokens) = (0u64, 0u64);
    let (mut insert_ns, mut insert_tokens) = (0u64, 0u64);
    let (mut removals, mut requests) = (0u64, 0u64);
    for pass in 0..passes {
        let offset = pass as f64 * span;
        for r in &trace.requests {
            let stamp = recency_stamp(offset + r.arrival);
            let t = Instant::now();
            let m = tree.match_prefix(&r.input);
            match_ns += t.elapsed().as_nanos() as u64;
            match_tokens += r.input_len();
            if let Some(deepest) = m.deepest() {
                tree.touch(deepest, stamp);
            }
            let t = Instant::now();
            let ins = tree.insert_parts(&r.input, &r.output);
            insert_ns += t.elapsed().as_nanos() as u64;
            insert_tokens += r.total_len();
            tree.touch(ins.end_node, stamp);
            while tree.token_count() > budget_tokens {
                let (_, victim) = tree
                    .lru_candidates()
                    .next()
                    .expect("invariant: a non-empty tree has a candidate");
                tree.remove(victim)
                    .expect("invariant: unpinned candidates are removable");
                removals += 1;
            }
            requests += 1;
        }
    }
    RadixArm {
        match_ns_per_token: ratio(match_ns as f64, match_tokens as f64),
        insert_ns_per_token: ratio(insert_ns as f64, insert_tokens as f64),
        removals_per_req: ratio(removals as f64, requests as f64),
        store_ratio: ratio(tree.token_store_len() as f64, tree.token_count() as f64),
    }
}
