//! O(log n) recency index over eviction candidates, one ordered set per
//! class.
//!
//! Marconi's LRU-flavored policies (paper §4.3 with α = 0, and the
//! auto-tuner's LRU phase) pick victims by minimum `(last_access, id)`.
//! Re-deriving that minimum by scanning the candidate set costs
//! O(candidates) per victim; this index keeps the candidates ordered by
//! `(class, stamp, id)` in a `BTreeSet`, so each class's candidates are one
//! contiguous range whose minimum is O(log n) to maintain and O(1) to read.
//! It is the tree's only candidate set: the tree re-syncs a node whenever
//! its child count or pin count can flip
//! [`RadixTree::is_eviction_candidate`](crate::RadixTree::is_eviction_candidate),
//! re-keys it on [`RadixTree::touch`](crate::RadixTree::touch), and moves
//! it between ranges on [`RadixTree::set_class`](crate::RadixTree::set_class).

use crate::node::NodeId;
use std::collections::BTreeSet;

/// Candidate ids ordered by `(class, stamp, id)` — ascending class, then
/// stamp, then id.
#[derive(Debug, Clone, Default)]
pub(crate) struct RecencyIndex {
    set: BTreeSet<(u8, u64, NodeId)>,
}

impl RecencyIndex {
    /// Adds an entry; no-op if present.
    pub fn insert(&mut self, class: u8, stamp: u64, id: NodeId) {
        self.set.insert((class, stamp, id));
    }

    /// Removes an entry; no-op if absent.
    pub fn remove(&mut self, class: u8, stamp: u64, id: NodeId) {
        self.set.remove(&(class, stamp, id));
    }

    /// `true` if the exact `(class, stamp, id)` entry is present.
    pub fn contains(&self, class: u8, stamp: u64, id: NodeId) -> bool {
        self.set.contains(&(class, stamp, id))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Every entry as `(stamp, id)`, in ascending `(class, stamp, id)`
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        self.set.iter().map(|&(_, stamp, id)| (stamp, id))
    }

    /// `class`'s entries as `(stamp, id)`, in ascending `(stamp, id)` order.
    pub fn iter_class(&self, class: u8) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        let lo = (class, 0, NodeId::new(0, 0));
        let hi = (class, u64::MAX, NodeId::new(u32::MAX, u32::MAX));
        self.set.range(lo..=hi).map(|&(_, stamp, id)| (stamp, id))
    }
}

/// Maps an `f64` timestamp to a `u64` stamp whose unsigned order equals
/// [`f64::total_cmp`] order, so a binary-searchable integer index can stand
/// in for float recency comparisons exactly (no epsilon, no NaN caveats).
///
/// The transform is the classic total-order bijection: flip the sign bit of
/// non-negative floats, flip every bit of negative ones.
///
/// ```
/// use marconi_radix::recency_stamp;
///
/// let ts = [-1.5f64, -0.0, 0.0, 1.0e-300, 2.5, f64::INFINITY];
/// let stamps: Vec<u64> = ts.iter().map(|&t| recency_stamp(t)).collect();
/// assert!(stamps.windows(2).all(|w| w[0] < w[1]));
/// ```
#[must_use]
pub fn recency_stamp(t: f64) -> u64 {
    let bits = t.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_preserves_total_order() {
        let mut ts = vec![
            f64::NEG_INFINITY,
            -1.0e300,
            -2.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            1.0e300,
            f64::INFINITY,
        ];
        ts.sort_by(f64::total_cmp);
        for w in ts.windows(2) {
            let (a, b) = (recency_stamp(w[0]), recency_stamp(w[1]));
            match w[0].total_cmp(&w[1]) {
                std::cmp::Ordering::Less => assert!(a < b, "{} vs {}", w[0], w[1]),
                std::cmp::Ordering::Equal => assert_eq!(a, b),
                std::cmp::Ordering::Greater => unreachable!("sorted input"),
            }
        }
        // -0.0 and 0.0 are distinct under total_cmp and stay distinct.
        assert!(recency_stamp(-0.0) < recency_stamp(0.0));
    }

    #[test]
    fn index_orders_by_stamp_then_id() {
        let mut idx = RecencyIndex::default();
        idx.insert(0, 5, NodeId::new(2, 0));
        idx.insert(0, 5, NodeId::new(1, 0));
        idx.insert(0, 3, NodeId::new(9, 0));
        let order: Vec<(u64, usize)> = idx.iter().map(|(s, n)| (s, n.index())).collect();
        assert_eq!(order, vec![(3, 9), (5, 1), (5, 2)]);
        assert!(idx.contains(0, 5, NodeId::new(1, 0)));
        idx.remove(0, 5, NodeId::new(1, 0));
        assert!(!idx.contains(0, 5, NodeId::new(1, 0)));
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn classes_are_disjoint_ordered_ranges() {
        let mut idx = RecencyIndex::default();
        idx.insert(1, 2, NodeId::new(4, 0));
        idx.insert(0, 7, NodeId::new(3, 0));
        idx.insert(1, u64::MAX, NodeId::new(u32::MAX, u32::MAX));
        idx.insert(0, 1, NodeId::new(5, 0));
        idx.insert(2, 0, NodeId::new(0, 0));
        let class = |c| {
            idx.iter_class(c)
                .map(|(s, n)| (s, n.index()))
                .collect::<Vec<_>>()
        };
        assert_eq!(class(0), vec![(1, 5), (7, 3)]);
        assert_eq!(class(1), vec![(2, 4), (u64::MAX, u32::MAX as usize)]);
        assert_eq!(class(2), vec![(0, 0)]);
        assert!(class(3).is_empty());
        // The unfiltered walk is class-major.
        let all: Vec<usize> = idx.iter().map(|(_, n)| n.index()).collect();
        assert_eq!(all, vec![5, 3, 4, u32::MAX as usize, 0]);
        assert!(
            !idx.contains(0, 2, NodeId::new(4, 0)),
            "class is part of the key"
        );
    }
}
