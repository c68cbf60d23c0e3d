//! Node identifiers and internal node representation.

use crate::Token;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Stable handle to a node in a [`RadixTree`](crate::RadixTree).
///
/// Node ids are generation-tagged arena indices: the index locates the slot
/// and the generation records which *occupancy* of that slot the id refers
/// to. When a node is removed its slot's generation is bumped, so an id
/// held across the removal can never silently alias the slot's next tenant:
/// [`contains`](crate::RadixTree::contains) reports it dead,
/// [`remove`](crate::RadixTree::remove) rejects it with `NotFound`, and the
/// panicking accessors fail loudly instead of reading the recycled node.
/// Holders of long-lived ids (e.g. an eviction policy's bookkeeping) should
/// still drop ids when the tree reports the node removed.
///
/// Ordering compares the slot index first, then the generation, so
/// orderings among *live* ids (at most one generation per slot is alive)
/// are identical to plain arena-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId {
    pub(crate) idx: u32,
    pub(crate) gen: u32,
}

impl NodeId {
    /// The root node of every tree (slot 0 is never freed, so its
    /// generation is always 0).
    pub const ROOT: NodeId = NodeId { idx: 0, gen: 0 };

    pub(crate) fn new(idx: u32, gen: u32) -> Self {
        NodeId { idx, gen }
    }

    /// Index into the arena.
    #[must_use]
    pub fn index(self) -> usize {
        self.idx as usize
    }

    /// Generation of the arena slot this id was issued for. Diagnostic:
    /// two ids with equal [`index`](NodeId::index) but different
    /// generations refer to different (never-coexisting) nodes.
    #[must_use]
    pub fn generation(self) -> u32 {
        self.gen
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.idx)
    }
}

/// Edge label as a `(offset, len)` slice into the tree's shared append-only
/// token store. Splitting an edge is O(1) offset arithmetic; no token bytes
/// move or get cloned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EdgeRef {
    /// Start offset into [`RadixTree::store`](crate::RadixTree).
    pub off: u32,
    /// Number of tokens on the edge.
    pub len: u32,
}

impl EdgeRef {
    pub const EMPTY: EdgeRef = EdgeRef { off: 0, len: 0 };

    /// The edge `store[off..off + len]`: the one conversion from store
    /// positions to `u32` offsets. It panics rather than wrap, because a
    /// wrapped offset would silently alias another edge's tokens.
    pub fn checked(off: usize, len: usize) -> EdgeRef {
        assert!(
            off + len <= u32::MAX as usize,
            "invariant: token store range {off}..{} exceeds u32 addressing",
            off + len
        );
        EdgeRef {
            off: off as u32,
            len: len as u32,
        }
    }

    pub fn range(self) -> std::ops::Range<usize> {
        self.off as usize..(self.off + self.len) as usize
    }

    pub fn len(self) -> usize {
        self.len as usize
    }

    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Children of a node: a sorted vec keyed by the first token of each child's
/// edge, probed with binary search. Radix nodes in prefix-cache workloads
/// hold a handful of children, so a flat sorted vec beats a `BTreeMap` on
/// both lookup constant factor and allocation count, while iteration stays
/// deterministic (ascending first-token order, same as the old `BTreeMap`).
#[derive(Debug, Clone, Default)]
pub(crate) struct ChildSet {
    entries: Vec<(Token, NodeId)>,
}

impl ChildSet {
    /// Child whose edge starts with `tok`, if any. O(log children).
    pub fn get(&self, tok: Token) -> Option<NodeId> {
        self.entries
            .binary_search_by_key(&tok, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Inserts or replaces the child keyed by `tok`.
    pub fn insert(&mut self, tok: Token, id: NodeId) {
        match self.entries.binary_search_by_key(&tok, |e| e.0) {
            Ok(i) => self.entries[i].1 = id,
            Err(i) => self.entries.insert(i, (tok, id)),
        }
    }

    /// Removes the child keyed by `tok`, returning it.
    pub fn remove(&mut self, tok: Token) -> Option<NodeId> {
        match self.entries.binary_search_by_key(&tok, |e| e.0) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(first_token, child)` pairs in ascending first-token order.
    pub fn iter(&self) -> impl Iterator<Item = (Token, NodeId)> + '_ {
        self.entries.iter().copied()
    }

    /// Child ids in ascending first-token order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|e| e.1)
    }

    /// The only child when `len() == 1` (first in token order otherwise).
    pub fn first_id(&self) -> Option<NodeId> {
        self.entries.first().map(|e| e.1)
    }
}

/// Internal node: edge label from the parent, child index, payload.
#[derive(Debug, Clone)]
pub(crate) struct Node<D> {
    /// Parent node (`None` only for the root).
    pub parent: Option<NodeId>,
    /// Tokens on the edge from `parent` to this node (empty only for root),
    /// as a slice of the tree's shared token store.
    pub edge: EdgeRef,
    /// Children keyed by the first token of their edge.
    pub children: ChildSet,
    /// Token depth: number of tokens from the root through this node's edge.
    pub depth: u64,
    /// Structure version: bumped whenever this node's leaf status, edge
    /// length, or depth changes, so payload-side caches keyed on the cheap
    /// structural inputs (e.g. Marconi's per-node FLOP-efficiency memo) can
    /// be invalidated in O(1) without callbacks.
    pub version: u32,
    /// Number of in-flight pins rooted in this node's subtree (self
    /// included). A nonzero count marks the node *protected*: the KVs on
    /// its edge are being read by an in-flight request, so it must be
    /// neither removed nor relocated. Maintained by
    /// [`RadixTree::pin`](crate::RadixTree::pin) /
    /// [`RadixTree::unpin`](crate::RadixTree::unpin); edge splits copy the
    /// count onto the new intermediate so upward walks stay balanced.
    pub pin_count: u32,
    /// Caller-supplied recency stamp (see
    /// [`RadixTree::touch`](crate::RadixTree::touch)). Keys this node's
    /// entry in the tree's O(log n) recency index while the node is an
    /// eviction candidate.
    pub stamp: u64,
    /// Caller-assigned partition label (see
    /// [`RadixTree::set_class`](crate::RadixTree::set_class)): selects the
    /// candidate set the node joins and the per-class token count its edge
    /// adds to. New nodes are class 0; split intermediates take their
    /// child's class.
    pub class: u8,
    /// Caller payload.
    pub data: D,
}

/// Arena slot: occupied node or member of the free list. Both arms carry
/// the slot's current generation; freeing bumps it, so ids minted for an
/// earlier occupancy stop resolving.
#[derive(Debug, Clone)]
pub(crate) enum Slot<D> {
    Occupied { gen: u32, node: Node<D> },
    Free { gen: u32, next: Option<u32> },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_id_is_zero() {
        assert_eq!(NodeId::ROOT.index(), 0);
        assert_eq!(NodeId::ROOT.generation(), 0);
        assert_eq!(NodeId::ROOT.to_string(), "n0");
    }

    #[test]
    fn ids_order_by_index_then_generation() {
        assert!(NodeId::new(1, 0) < NodeId::new(2, 0));
        assert!(NodeId::new(1, 5) < NodeId::new(2, 0), "index dominates");
        assert!(NodeId::new(1, 0) < NodeId::new(1, 1));
    }

    #[test]
    fn checked_edge_accepts_the_last_addressable_range() {
        let e = EdgeRef::checked(u32::MAX as usize - 3, 3);
        assert_eq!((e.off, e.len), (u32::MAX - 3, 3));
    }

    #[test]
    #[should_panic(expected = "invariant: token store range")]
    fn checked_edge_panics_past_u32_addressing() {
        let _ = EdgeRef::checked(u32::MAX as usize - 1, 2);
    }

    #[test]
    fn child_set_is_sorted_and_deterministic() {
        let mut c = ChildSet::default();
        c.insert(30, NodeId::new(3, 0));
        c.insert(10, NodeId::new(1, 0));
        c.insert(20, NodeId::new(2, 0));
        let toks: Vec<Token> = c.iter().map(|(t, _)| t).collect();
        assert_eq!(toks, vec![10, 20, 30]);
        assert_eq!(c.get(20), Some(NodeId::new(2, 0)));
        assert_eq!(c.get(25), None);
        assert_eq!(c.first_id(), Some(NodeId::new(1, 0)));
        // Replace keeps a single entry per token.
        c.insert(20, NodeId::new(9, 0));
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(20), Some(NodeId::new(9, 0)));
        assert_eq!(c.remove(20), Some(NodeId::new(9, 0)));
        assert_eq!(c.remove(20), None);
        assert_eq!(c.len(), 2);
    }
}
