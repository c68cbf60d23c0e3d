//! The radix tree implementation (arena engine).
//!
//! Engine layout (see `docs/radix-engine.md` for the design rationale and
//! measured speedups over the retired owned-`Vec` oracle engine):
//!
//! * nodes live in a free-list slab arena of generation-tagged slots, so
//!   ids are dense `u32` indices and stale ids are detected, not aliased;
//! * children are a sorted vec probed by binary search (deterministic
//!   ascending first-token order, no per-node `BTreeMap` allocations);
//! * edge labels are `(offset, len)` slices into one shared append-only
//!   token store, so splitting an edge is O(1) offset arithmetic;
//! * every node carries a caller-assigned *class* (a partition label, e.g.
//!   a memory tier; [`RadixTree::set_class`]); the tree keeps one token
//!   count per class, and eviction candidates live in one O(log n) recency
//!   index keyed by class, then caller-supplied stamps
//!   ([`RadixTree::touch`]), so each class's candidates are one ordered
//!   set ([`RadixTree::lru_candidates_in`]) and LRU-style victim selection
//!   needs no linear scans; a pin takes a node out of it and the last unpin
//!   puts it back.

use crate::node::{ChildSet, EdgeRef, Node, NodeId, Slot};
use crate::recency::RecencyIndex;
use crate::Token;
use std::error::Error;
use std::fmt;

/// A compressed prefix trie over token sequences with per-node payload `D`.
///
/// See the [crate docs](crate) for the role this plays in hybrid-LLM prefix
/// caching. Structural invariants (checked by `debug_assert_invariants` and
/// the property-test suite):
///
/// 1. every non-root node has a non-empty edge label;
/// 2. a node's children are keyed by the first token of their edge, and no
///    two children share a first token;
/// 3. `depth(n) = depth(parent(n)) + edge_len(n)`;
/// 4. [`token_count`](RadixTree::token_count) equals the sum of all edge
///    lengths, which equals the number of distinct prefixes stored.
/// 5. The candidate set is one ordered set per class:
///    [`lru_candidates_in(c)`](RadixTree::lru_candidates_in) iterates a
///    recency index whose membership always equals
///    `{ live non-root n | class(n) = c ∧ child_count(n) ≤ 1 ∧
///    pin_count(n) = 0 }`
///    ([`is_eviction_candidate`](RadixTree::is_eviction_candidate)), and
///    [`lru_candidates`](RadixTree::lru_candidates) walks every class's set
///    in ascending class order.
/// 6. Each member appears exactly once, as `(class, stamp, id)` with
///    `class` the node's current [`class`](RadixTree::class) and `stamp`
///    its current [`touch`](RadixTree::touch) stamp, so each class's set
///    iterates in ascending `(stamp, id)` order.
/// 7. [`pinned_count`](RadixTree::pinned_count) equals
///    `|{ live non-root n | pin_count(n) > 0 }|`, and a non-root parent's
///    pin count is at least each child's (counts are subtree-inclusive).
/// 8. [`class_token_count(c)`](RadixTree::class_token_count) equals the
///    sum of the edge lengths of the live class-`c` nodes, so the classes'
///    counts sum to [`token_count`](RadixTree::token_count).
///
/// The token store is append-only: splits reference it in place, and edge
/// merges reuse contiguous ranges (the split-then-evict hot path), copying
/// within the store only when a merge joins non-adjacent ranges. Stored
/// tokens are never compacted, so a long churn of inserts and removals
/// grows the store monotonically — the trade that buys O(1) splits.
#[derive(Debug, Clone)]
pub struct RadixTree<D> {
    slots: Vec<Slot<D>>,
    /// Shared append-only backing store for every edge label.
    store: Vec<Token>,
    free_head: Option<u32>,
    node_count: usize,
    /// Edge tokens per class, indexed by class (grown by
    /// [`set_class`](RadixTree::set_class)); their sum is the tree's
    /// [`token_count`](RadixTree::token_count).
    class_tokens: Vec<u64>,
    /// The eviction-candidate sets, ordered by `(class, stamp, id)`. Every
    /// mutation that can flip a node's
    /// [`is_eviction_candidate`](RadixTree::is_eviction_candidate) or
    /// change its class re-syncs that node, so the eviction hot path never
    /// re-scans the arena. The set is ordered, so a pin removing a node
    /// and its unpin re-inserting it at the same stamp leave the pin-free
    /// iteration order untouched.
    lru: RecencyIndex,
    /// Number of live nodes with `pin_count > 0`.
    pinned: usize,
    /// Fault-injection knob for the differential harness's self-test: when
    /// set, edge splits cut one token too deep. Never enabled outside
    /// tests.
    split_off_by_one: bool,
}

/// Result of [`RadixTree::match_prefix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixMatch {
    /// Fully-matched nodes along the path, shallowest first (root excluded).
    ///
    /// A node appears here iff the query covers its entire edge.
    pub path: Vec<NodeId>,
    /// Number of leading query tokens present in the tree (may end inside an
    /// edge).
    pub matched_len: u64,
    /// `true` if the match ended partway through an edge label.
    pub ends_mid_edge: bool,
    /// The child whose edge the match ended inside, when `ends_mid_edge`.
    ///
    /// This node holds the KVs of the partially-matched tokens, so a
    /// recency-refreshing cache must stamp *it* (not just `deepest()`) on a
    /// partial hit — otherwise a hot, partially-matched prefix looks idle
    /// and gets evicted.
    pub mid_edge_child: Option<NodeId>,
}

impl PrefixMatch {
    /// Deepest fully-matched node, if any.
    #[must_use]
    pub fn deepest(&self) -> Option<NodeId> {
        self.path.last().copied()
    }
}

/// A generation-tagged resume handle for the session fast path
/// ([`RadixTree::cursor_at`]): follow-up matches/inserts/speculations for
/// a sequence extending the cursor's resume the walk from its node,
/// consuming only the delta tokens.
///
/// The node id is deliberately private: the only way to dereference it is
/// [`RadixTree::resume`], which performs the generation check (enforced
/// workspace-wide by `marconi-check`'s `cursor-deref` rule). A cursor is a
/// pure value — holding one pins nothing and never blocks eviction; a
/// stale cursor simply fails validation.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchCursor {
    /// Resume node; dereferenced only via the gen-checked [`RadixTree::resume`].
    node: NodeId,
    /// The node's token depth when the cursor was taken — the length of
    /// the already-matched prefix a resumed walk skips.
    matched_len: u64,
    /// The node's [`RadixTree::structure_version`] when the cursor was
    /// taken; any bump (edge split, leaf-status flip) invalidates.
    structure_version: u32,
}

impl MatchCursor {
    /// Length of the already-matched prefix this cursor resumes after.
    #[must_use]
    pub fn matched_len(&self) -> u64 {
        self.matched_len
    }
}

/// Why a [`MatchCursor`] could not be resumed ([`RadixTree::resume`]).
/// Every fault is recoverable: fall back to the root walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorFault {
    /// The resume node was removed (its slot is free or recycled under a
    /// newer generation).
    StaleGeneration,
    /// The resume node's structure version or depth changed — an edge
    /// split landed on it, or its leaf status flipped — since the cursor
    /// was taken.
    StructureChanged,
    /// The query is shorter than the cursor's matched prefix, so it cannot
    /// extend it.
    QueryTooShort,
    /// The query tokens under the resume node's own edge diverge from it —
    /// the cursor was replayed against a foreign query.
    EdgeDivergence,
}

impl fmt::Display for CursorFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CursorFault::StaleGeneration => write!(f, "resume node was removed"),
            CursorFault::StructureChanged => write!(f, "resume node's structure changed"),
            CursorFault::QueryTooShort => write!(f, "query does not extend the cursor"),
            CursorFault::EdgeDivergence => write!(f, "query diverges on the resume edge"),
        }
    }
}

/// Result of [`RadixTree::speculate_insert`]: what *would* happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Speculation {
    /// Longest common prefix between the sequence and the tree's contents.
    pub matched_len: u64,
    /// `Some(depth)` if the insertion would split an existing edge, creating
    /// a new intermediate node at token depth `depth` (always equal to
    /// `matched_len` when present).
    ///
    /// This is the signal Marconi uses to checkpoint an SSM state during
    /// prefill (§4.1): a new intermediate node marks a prefix shared by
    /// multiple requests.
    pub creates_branch_at: Option<u64>,
}

/// Result of [`RadixTree::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Node whose depth equals the inserted sequence's length (the node
    /// "representing" the sequence). May be pre-existing.
    pub end_node: NodeId,
    /// New intermediate node created by splitting an existing edge, if any.
    pub split_node: Option<NodeId>,
    /// New leaf created to hold the sequence's un-shared suffix, if any.
    /// Equal to `end_node` when present.
    pub new_leaf: Option<NodeId>,
    /// Tokens newly added to the tree (the un-shared suffix length); the
    /// KV-byte footprint of the insertion is proportional to this.
    pub added_tokens: u64,
}

/// Payload and accounting returned by [`RadixTree::remove`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Removed<D> {
    /// The removed node's payload.
    pub data: D,
    /// Edge tokens freed from the tree. Zero when the removed node had one
    /// child: the child *absorbed* the edge (KVs retained), mirroring the
    /// paper's §4.3 eviction of intermediate nodes.
    pub freed_tokens: u64,
    /// The child that absorbed the edge, if any.
    pub merged_into: Option<NodeId>,
}

/// Error returned by [`RadixTree::remove`] for nodes that must not be
/// removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoveError {
    /// The root cannot be removed.
    IsRoot,
    /// Nodes with two or more children are shared prefixes and cannot be
    /// removed directly (evict their descendants first).
    HasMultipleChildren,
    /// The id does not refer to a live node.
    NotFound,
    /// The node is protected by an in-flight pin ([`RadixTree::pin`]): an
    /// active request is still reading the KVs on its edge.
    Pinned,
}

impl fmt::Display for RemoveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoveError::IsRoot => write!(f, "the root node cannot be removed"),
            RemoveError::HasMultipleChildren => {
                write!(f, "nodes with multiple children cannot be removed")
            }
            RemoveError::NotFound => write!(f, "node id does not refer to a live node"),
            RemoveError::Pinned => write!(f, "node is pinned by an in-flight request"),
        }
    }
}

impl Error for RemoveError {}

impl<D: Default> Default for RadixTree<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: Default> RadixTree<D> {
    /// Creates an empty tree (a lone root).
    #[must_use]
    pub fn new() -> Self {
        RadixTree {
            slots: vec![Slot::Occupied {
                gen: 0,
                node: Node {
                    parent: None,
                    edge: EdgeRef::EMPTY,
                    children: ChildSet::default(),
                    depth: 0,
                    version: 0,
                    pin_count: 0,
                    stamp: 0,
                    class: 0,
                    data: D::default(),
                },
            }],
            store: Vec::new(),
            free_head: None,
            node_count: 0,
            class_tokens: vec![0],
            lru: RecencyIndex::default(),
            pinned: 0,
            split_off_by_one: false,
        }
    }

    /// Inserts `seq`, splitting edges and creating nodes as needed. New
    /// nodes get `D::default()` payloads (and recency stamp 0; see
    /// [`touch`](RadixTree::touch)).
    ///
    /// Inserting an empty sequence or an already-present sequence is a no-op
    /// structurally (the returned `end_node` is the existing node; for the
    /// empty sequence it is the root).
    pub fn insert(&mut self, seq: &[Token]) -> InsertOutcome {
        self.insert_at_node(NodeId::ROOT, 0, seq, &[])
    }

    /// Inserts the virtual concatenation `head ‖ tail` without
    /// materializing it — byte-identical to
    /// [`insert`](RadixTree::insert) of the concatenated sequence.
    ///
    /// Callers holding a sequence in two segments (a prompt and its
    /// decoded output, say) would otherwise pay an O(total) allocate-and-
    /// copy per insert just to satisfy the single-slice signature; the
    /// seam-aware walk reads each segment in place instead, so a resumed
    /// insert touches only the resume edge and the new suffix.
    pub fn insert_parts(&mut self, head: &[Token], tail: &[Token]) -> InsertOutcome {
        self.insert_at_node(NodeId::ROOT, 0, head, tail)
    }

    /// Resumes an insert of `head ‖ tail` from `cursor`: the two-segment
    /// counterpart of [`insert_from`](RadixTree::insert_from), with the
    /// same contract and validation.
    ///
    /// # Errors
    ///
    /// Any [`CursorFault`] from [`resume`](RadixTree::resume); the tree is
    /// untouched on error.
    pub fn insert_parts_from(
        &mut self,
        cursor: &MatchCursor,
        head: &[Token],
        tail: &[Token],
    ) -> Result<InsertOutcome, CursorFault> {
        let start = self.resume_parts(cursor, head, tail)?;
        let pos = cursor.matched_len() as usize;
        Ok(self.insert_at_node(start, pos, head, tail))
    }

    /// Resumes an insert of `seq` from `cursor` — the walk starts at the
    /// cursor's node and only consumes `seq[cursor.matched_len()..]`, so an
    /// insert extending a previously-inserted sequence costs O(new tokens)
    /// instead of O(seq).
    ///
    /// The outcome is byte-identical to [`insert`](RadixTree::insert) of the
    /// same `seq` **provided** `seq[..cursor.matched_len()]` equals the
    /// cursor node's root path — guaranteed whenever `seq` extends the
    /// sequence the cursor was taken from (see [`cursor_at`]'s contract).
    /// Validation ([`resume`](RadixTree::resume)) rejects stale cursors; on
    /// `Err` the caller falls back to the root walk.
    ///
    /// [`cursor_at`]: RadixTree::cursor_at
    ///
    /// # Errors
    ///
    /// Any [`CursorFault`] from [`resume`](RadixTree::resume); the tree is
    /// untouched on error.
    pub fn insert_from(
        &mut self,
        cursor: &MatchCursor,
        seq: &[Token],
    ) -> Result<InsertOutcome, CursorFault> {
        self.insert_parts_from(cursor, seq, &[])
    }

    /// The insert walk from an arbitrary resume point over the virtual
    /// sequence `head ‖ tail`. `start`'s root path must equal the virtual
    /// sequence's first `start_pos` tokens (trivially true for the root at
    /// 0). Single-slice callers pass an empty `tail`.
    fn insert_at_node(
        &mut self,
        start: NodeId,
        start_pos: usize,
        head: &[Token],
        tail: &[Token],
    ) -> InsertOutcome {
        let total = head.len() + tail.len();
        let mut cur = start;
        let mut pos = start_pos;
        let mut split_node = None;

        loop {
            if pos == total {
                return InsertOutcome {
                    end_node: cur,
                    split_node,
                    new_leaf: None,
                    added_tokens: 0,
                };
            }
            let next_tok = if pos < head.len() {
                head[pos]
            } else {
                tail[pos - head.len()]
            };
            match self.node(cur).children.get(next_tok) {
                None => {
                    // No child shares the next token: append a fresh leaf.
                    // The suffix is appended once to the shared store; the
                    // leaf's edge is a slice of it.
                    let added = (total - pos) as u64;
                    let edge = self.push_tokens_parts(head, tail, pos);
                    let depth = self.node(cur).depth + added;
                    let leaf = self.alloc(Node {
                        parent: Some(cur),
                        edge,
                        children: ChildSet::default(),
                        depth,
                        version: 0,
                        pin_count: 0,
                        stamp: 0,
                        class: 0,
                        data: D::default(),
                    });
                    let was_leaf = self.node(cur).children.is_empty();
                    self.node_mut(cur).children.insert(next_tok, leaf);
                    if was_leaf {
                        // `cur`'s leaf status flipped: structural caches on
                        // it (freed bytes) are stale.
                        self.node_mut(cur).version += 1;
                    }
                    self.sync_candidate(leaf);
                    self.sync_candidate(cur);
                    self.class_tokens[0] += added;
                    return InsertOutcome {
                        end_node: leaf,
                        split_node,
                        new_leaf: Some(leaf),
                        added_tokens: added,
                    };
                }
                Some(child) => {
                    let shared = self.shared_edge_len_parts(child, head, tail, pos);
                    let edge_len = self.node(child).edge.len();
                    if shared == edge_len {
                        // Whole edge matched: descend.
                        pos += shared;
                        cur = child;
                    } else {
                        // Partial edge match: split the edge at `shared`.
                        debug_assert!(shared > 0, "child lookup guarantees 1 shared token");
                        let cut = if self.split_off_by_one {
                            // Injected fault for the differential harness's
                            // self-test: cut one token too deep.
                            (shared + 1).min(edge_len - 1)
                        } else {
                            shared
                        };
                        let mid = self.split_edge(child, cut);
                        split_node = Some(mid);
                        pos += shared;
                        cur = mid;
                        // Loop continues: either seq is exhausted (mid is the
                        // end node) or a new leaf hangs off `mid`.
                    }
                }
            }
        }
    }

    fn alloc(&mut self, node: Node<D>) -> NodeId {
        self.node_count += 1;
        match self.free_head {
            Some(idx) => {
                let (gen, next) = match self.slots[idx as usize] {
                    Slot::Free { gen, next } => (gen, next),
                    Slot::Occupied { .. } => unreachable!("free list points at occupied slot"),
                };
                self.free_head = next;
                self.slots[idx as usize] = Slot::Occupied { gen, node };
                NodeId::new(idx, gen)
            }
            None => {
                self.slots.push(Slot::Occupied { gen: 0, node });
                NodeId::new((self.slots.len() - 1) as u32, 0)
            }
        }
    }

    /// Appends the suffix of the virtual sequence `head ‖ tail` starting
    /// at `pos` to the shared store (one or two `extend_from_slice`
    /// memcpys, depending on whether the suffix straddles the seam).
    fn push_tokens_parts(&mut self, head: &[Token], tail: &[Token], pos: usize) -> EdgeRef {
        let edge = EdgeRef::checked(self.store.len(), head.len() + tail.len() - pos);
        if pos < head.len() {
            self.store.extend_from_slice(&head[pos..]);
            self.store.extend_from_slice(tail);
        } else {
            self.store.extend_from_slice(&tail[pos - head.len()..]);
        }
        edge
    }

    /// Splits `child`'s edge after `shared` tokens, inserting a new
    /// intermediate node (returned) between `child` and its parent.
    ///
    /// Both halves keep referencing the shared store — the split itself is
    /// pure offset arithmetic, no token is copied or moved.
    fn split_edge(&mut self, child: NodeId, shared: usize) -> NodeId {
        let parent = self
            .node(child)
            .parent
            .expect("invariant: split children are non-root");
        let (edge, child_depth, inherited_pins, class) = {
            let c = self.node(child);
            (c.edge, c.depth, c.pin_count, c.class)
        };
        let shared = shared as u32;
        let head = EdgeRef {
            off: edge.off,
            len: shared,
        };
        let tail = EdgeRef {
            off: edge.off + shared,
            len: edge.len - shared,
        };
        let mid_depth = child_depth - u64::from(tail.len);

        let mut mid_children = ChildSet::default();
        mid_children.insert(self.store[tail.off as usize], child);
        // The new intermediate inherits the child's pin count: pin counts
        // are subtree-inclusive, and every upward walk that used to reach
        // `child` directly now passes through `mid` first. Copying keeps
        // later `unpin` walks balanced and keeps the head of a pinned edge
        // protected (the split moved those KVs onto `mid`). It takes the
        // child's class too, so no class token count moves.
        let mid = self.alloc(Node {
            parent: Some(parent),
            edge: head,
            children: mid_children,
            depth: mid_depth,
            version: 0,
            pin_count: inherited_pins,
            stamp: 0,
            class,
            data: D::default(),
        });
        if inherited_pins > 0 {
            self.pinned += 1;
        }
        {
            let c = self.node_mut(child);
            c.edge = tail;
            c.parent = Some(mid);
            // The child's edge shortened (and its parent changed): bump so
            // memoized per-node costs recompute.
            c.version += 1;
        }
        let first = self.store[head.off as usize];
        self.node_mut(parent).children.insert(first, mid);
        // `mid` replaces `child` under `parent`, so the parent's child count
        // (and candidacy) is unchanged; `mid` itself has exactly one child
        // and is a candidate unless it inherited pins.
        self.sync_candidate(mid);
        // Splitting moves tokens between same-class edges without adding
        // any; alloc() already counted the new node.
        mid
    }
}

impl<D> RadixTree<D> {
    fn node(&self, id: NodeId) -> &Node<D> {
        match self.slots.get(id.index()) {
            Some(Slot::Occupied { gen, node }) if *gen == id.gen => node,
            _ => panic!("invariant: node ids refer to live nodes (stale or freed id {id})"),
        }
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node<D> {
        match self.slots.get_mut(id.index()) {
            Some(Slot::Occupied { gen, node }) if *gen == id.gen => node,
            _ => panic!("invariant: node ids refer to live nodes (stale or freed id {id})"),
        }
    }

    fn get_node(&self, id: NodeId) -> Option<&Node<D>> {
        match self.slots.get(id.index()) {
            Some(Slot::Occupied { gen, node }) if *gen == id.gen => Some(node),
            _ => None,
        }
    }

    /// Re-derives `id`'s recency-index membership from
    /// [`is_eviction_candidate`](RadixTree::is_eviction_candidate), at the
    /// node's stored class and stamp. O(log candidates); idempotent.
    fn sync_candidate(&mut self, id: NodeId) {
        let Node { class, stamp, .. } = *self.node(id);
        if self.is_eviction_candidate(id) {
            self.lru.insert(class, stamp, id);
        } else {
            self.lru.remove(class, stamp, id);
        }
    }

    /// Number of leading tokens of the virtual sequence `head ‖ tail`,
    /// starting at `pos`, that match `child`'s edge label. The edge is
    /// compared piecewise against the segment(s) it overlaps, so a compare
    /// straddling the seam never materializes the concatenation;
    /// single-slice callers pass an empty `tail`.
    fn shared_edge_len_parts(
        &self,
        child: NodeId,
        head: &[Token],
        tail: &[Token],
        pos: usize,
    ) -> usize {
        let edge = &self.store[self.node(child).edge.range()];
        let mut shared = 0usize;
        if pos < head.len() {
            let h = &head[pos..];
            let n = edge.len().min(h.len());
            shared = edge[..n].iter().zip(h).take_while(|(a, b)| a == b).count();
            if shared < n || shared == edge.len() {
                return shared;
            }
        }
        let t = &tail[pos + shared - head.len()..];
        let n = (edge.len() - shared).min(t.len());
        shared
            + edge[shared..shared + n]
                .iter()
                .zip(t)
                .take_while(|(a, b)| a == b)
                .count()
    }

    /// The root node id.
    #[must_use]
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Number of live non-root nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.node_count
    }

    /// `true` if the tree holds no sequences.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node_count == 0
    }

    /// Total tokens across all edges (= number of distinct stored prefixes).
    #[must_use]
    pub fn token_count(&self) -> u64 {
        self.class_tokens.iter().sum()
    }

    /// Tokens on the edges of class-`class` nodes (0 for a class no node
    /// has ever held), in O(1).
    #[must_use]
    pub fn class_token_count(&self, class: u8) -> u64 {
        self.class_tokens
            .get(usize::from(class))
            .copied()
            .unwrap_or(0)
    }

    /// The node's class (0 unless [`set_class`](RadixTree::set_class)
    /// moved it, or it was split off a node of another class).
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn class(&self, id: NodeId) -> u8 {
        self.node(id).class
    }

    /// Moves `id` to `class` (a caller-defined partition, e.g. a memory
    /// tier): its edge tokens move to `class`'s token count and, if it is
    /// an eviction candidate, it moves to `class`'s candidate set at its
    /// stored stamp. O(log candidates); the structure (and every
    /// [`structure_version`](RadixTree::structure_version)) is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    pub fn set_class(&mut self, id: NodeId, class: u8) {
        let (old, stamp, len) = {
            let n = self.node(id);
            (n.class, n.stamp, u64::from(n.edge.len))
        };
        if old == class {
            return;
        }
        if self.is_eviction_candidate(id) {
            self.lru.remove(old, stamp, id);
            self.lru.insert(class, stamp, id);
        }
        let slot = usize::from(class);
        if self.class_tokens.len() <= slot {
            self.class_tokens.resize(slot + 1, 0);
        }
        self.class_tokens[usize::from(old)] -= len;
        self.class_tokens[slot] += len;
        self.node_mut(id).class = class;
    }

    /// Number of tokens ever appended to the shared edge store (≥
    /// [`token_count`](RadixTree::token_count); the store is append-only
    /// and never compacted).
    #[must_use]
    pub fn token_store_len(&self) -> usize {
        self.store.len()
    }

    /// Arena high-water mark: total slots ever allocated (live + free).
    /// Bounded by the peak live-node count thanks to free-list reuse.
    #[must_use]
    pub fn arena_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Payload of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn data(&self, id: NodeId) -> &D {
        &self.node(id).data
    }

    /// Mutable payload of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    pub fn data_mut(&mut self, id: NodeId) -> &mut D {
        &mut self.node_mut(id).data
    }

    /// `true` if `id` refers to a live node. A stale id — one whose slot
    /// was freed, even if since recycled — is reported dead (generation
    /// tags distinguish occupancies).
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.get_node(id).is_some()
    }

    /// Token depth of a node (tokens from root through its edge).
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn depth(&self, id: NodeId) -> u64 {
        self.node(id).depth
    }

    /// Length of the edge label from the node's parent.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn edge_len(&self, id: NodeId) -> u64 {
        u64::from(self.node(id).edge.len)
    }

    /// The tokens on the edge from the node's parent (empty for the root).
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn edge_tokens(&self, id: NodeId) -> &[Token] {
        &self.store[self.node(id).edge.range()]
    }

    /// Parent of a node (`None` for the root).
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Number of children of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn child_count(&self, id: NodeId) -> usize {
        self.node(id).children.len()
    }

    /// `true` if the node has no children.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.node(id).children.is_empty()
    }

    /// Children of a node, in deterministic (first-token) order.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.node(id).children.ids()
    }

    /// Iterates over all live non-root node ids, in arena order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .skip(1)
            .filter_map(|(i, s)| match s {
                Slot::Occupied { gen, .. } => Some(NodeId::new(i as u32, *gen)),
                Slot::Free { .. } => None,
            })
    }

    /// `true` if the node may be evicted: a live non-root node with ≤ 1
    /// child and no in-flight [`pin`](RadixTree::pin). The one membership
    /// predicate of the candidate set
    /// [`lru_candidates`](RadixTree::lru_candidates) iterates.
    ///
    /// Nodes with multiple children are common prefixes shared by multiple
    /// requests and are not evicted directly (paper §4.3); they become
    /// candidates once their descendants are gone. A dead id is never a
    /// candidate.
    #[must_use]
    pub fn is_eviction_candidate(&self, id: NodeId) -> bool {
        id != NodeId::ROOT
            && self
                .get_node(id)
                .is_some_and(|n| n.children.len() <= 1 && n.pin_count == 0)
    }

    /// Number of current eviction candidates, in O(1).
    #[must_use]
    pub fn eviction_candidate_count(&self) -> usize {
        self.lru.len()
    }

    /// Records a recency stamp on a node in O(log candidates).
    ///
    /// Stamps order the recency index consulted by
    /// [`lru_candidates`](RadixTree::lru_candidates): the caller supplies
    /// monotone stamps (e.g. [`recency_stamp`](crate::recency_stamp) of an
    /// access clock) and the tree keeps candidates sorted by
    /// `(stamp, id)`. Touching a non-candidate (a multi-child branch on a
    /// hit path, or a pinned node) just records the stamp; the node carries
    /// it into the recency index if it later becomes a candidate. New nodes
    /// start at stamp 0.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    pub fn touch(&mut self, id: NodeId, stamp: u64) {
        let Node {
            stamp: old, class, ..
        } = *self.node(id);
        if old == stamp {
            return;
        }
        if self.is_eviction_candidate(id) {
            self.lru.remove(class, old, id);
            self.lru.insert(class, stamp, id);
        }
        self.node_mut(id).stamp = stamp;
    }

    /// The node's current recency stamp (0 if never touched).
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn stamp(&self, id: NodeId) -> u64 {
        self.node(id).stamp
    }

    /// Eviction candidates ([`is_eviction_candidate`]) of every class,
    /// each with its stamp: each class's set in ascending `(stamp, id)`
    /// order, classes in ascending order — on a single-class tree, the
    /// LRU-first victim ordering for α = 0 policies. Served from the
    /// O(log n) recency index with no scan; iterating costs O(candidates),
    /// not O(arena slots), however much the arena has churned.
    ///
    /// [`is_eviction_candidate`]: RadixTree::is_eviction_candidate
    pub fn lru_candidates(&self) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        self.lru.iter()
    }

    /// `class`'s eviction candidates in ascending `(stamp, id)` order, each
    /// with its stamp: one ordered range of the recency index, so the
    /// first entry is the class's LRU victim in O(log n) and iterating
    /// never visits another class's candidates.
    pub fn lru_candidates_in(&self, class: u8) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        self.lru.iter_class(class)
    }

    /// Pins `id` for an in-flight request: increments the pin count of
    /// every node from `id` up to (excluding) the root. While any count on
    /// a node is nonzero the node is *protected* — it leaves the candidate
    /// set, [`remove`] refuses it with [`RemoveError::Pinned`], and a
    /// well-behaved cache also skips it for demotion, because an in-flight
    /// request is still reading the KVs along the pinned path.
    /// O(depth in nodes · log candidates). Pinning the root is a no-op.
    ///
    /// Pins are balanced by [`unpin`](RadixTree::unpin) with the *same*
    /// id: pinned nodes are never removed, and edge splits copy counts
    /// onto the new intermediate, so the id — and the upward walk from
    /// it — stays valid across any interleaved tree mutations.
    ///
    /// [`remove`]: RadixTree::remove
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    pub fn pin(&mut self, id: NodeId) {
        let mut cur = id;
        while cur != NodeId::ROOT {
            let n = self.node_mut(cur);
            n.pin_count += 1;
            let first = n.pin_count == 1;
            let parent = n.parent.expect("invariant: non-root nodes have a parent");
            if first {
                self.pinned += 1;
                self.sync_candidate(cur);
            }
            cur = parent;
        }
    }

    /// Releases one [`pin`](RadixTree::pin) of `id`: decrements the pin
    /// count of every node from `id` up to (excluding) the root. A node
    /// whose count reaches 0 re-enters the candidate set (if it has ≤ 1
    /// child) at its stored stamp. O(depth in nodes · log candidates).
    /// Unpinning the root is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node, or (debug builds) if a
    /// node on the walk has no pin to release — an unpin without a
    /// matching pin.
    pub fn unpin(&mut self, id: NodeId) {
        let mut cur = id;
        while cur != NodeId::ROOT {
            let n = self.node_mut(cur);
            debug_assert!(n.pin_count > 0, "{cur}: unpin without a matching pin");
            let was_pinned = n.pin_count > 0;
            n.pin_count = n.pin_count.saturating_sub(1);
            let now_free = was_pinned && n.pin_count == 0;
            let parent = n.parent.expect("invariant: non-root nodes have a parent");
            if now_free {
                self.pinned -= 1;
                self.sync_candidate(cur);
            }
            cur = parent;
        }
    }

    /// `true` if the node is protected by at least one in-flight pin
    /// (its own or a descendant's — counts are subtree-inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn is_pinned(&self, id: NodeId) -> bool {
        self.node(id).pin_count > 0
    }

    /// Number of currently protected nodes, in O(1).
    #[must_use]
    pub fn pinned_count(&self) -> usize {
        self.pinned
    }

    /// Drops every pin, returning the tree to a fully evictable state.
    /// O(arena slots).
    ///
    /// Intended for clones handed to offline replay (e.g. the α tuner's
    /// replicas), which model no in-flight lifetimes.
    pub fn clear_pins(&mut self) {
        let pinned: Vec<NodeId> = self.node_ids().filter(|&id| self.is_pinned(id)).collect();
        for id in pinned {
            self.node_mut(id).pin_count = 0;
            self.sync_candidate(id);
        }
        self.pinned = 0;
    }

    /// Structure version of a node: bumped whenever the node's leaf status,
    /// edge length, or depth changes (the inputs to Marconi's per-node
    /// freed-bytes / FLOP-efficiency scores). Callers memoizing derived
    /// quantities per node can compare versions to detect staleness in O(1).
    ///
    /// Versions restart at 0 when an arena slot is recycled; since the
    /// payload is reset to `D::default()` at the same moment, a memo stored
    /// *in* the payload can never observe a stale match.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn structure_version(&self, id: NodeId) -> u32 {
        self.node(id).version
    }

    /// Finds the longest stored prefix of `query`.
    #[must_use]
    pub fn match_prefix(&self, query: &[Token]) -> PrefixMatch {
        self.match_from(NodeId::ROOT, query)
    }

    /// Takes a resume cursor at a live node: a generation-tagged snapshot
    /// of `(node, depth, structure_version)` that a later
    /// [`match_prefix_from`] / [`insert_from`] / [`speculate_insert_from`]
    /// can resume from in O(new tokens).
    ///
    /// **Contract:** resumed operations are byte-identical to their
    /// root-walk counterparts only for queries whose first
    /// `matched_len()` tokens equal the node's root path. Callers must
    /// therefore only reuse a cursor for queries *extending* the sequence
    /// it was taken at. Validation catches every structural hazard
    /// (generation mismatch, version bump, resume-edge divergence) and
    /// falls back cheaply; full-prefix verification is deliberately not
    /// performed — it would restore the O(prompt) cost the cursor exists
    /// to avoid.
    ///
    /// Returns `None` for a dead id.
    ///
    /// [`match_prefix_from`]: RadixTree::match_prefix_from
    /// [`insert_from`]: RadixTree::insert_from
    /// [`speculate_insert_from`]: RadixTree::speculate_insert_from
    #[must_use]
    pub fn cursor_at(&self, id: NodeId) -> Option<MatchCursor> {
        let n = self.get_node(id)?;
        Some(MatchCursor {
            node: id,
            matched_len: n.depth,
            structure_version: n.version,
        })
    }

    /// Validates `cursor` against the live tree and `query`, returning the
    /// resume node. The checks, in order:
    ///
    /// 1. **generation** — the slot is live under the cursor's generation
    ///    (a freed or recycled slot fails, never aliases);
    /// 2. **structure version** — unchanged since the cursor was taken, so
    ///    no split landed on the node's edge and its leaf status is as
    ///    captured (conservative: any bump invalidates);
    /// 3. **depth** — still equals the cursor's `matched_len` (an internal
    ///    consistency check; a live node's depth is path-invariant);
    /// 4. **query length** — `query` is long enough to extend the cursor;
    /// 5. **resume edge** — the query tokens under the node's own edge
    ///    match it (O(edge) divergence check against the `(offset, len)`
    ///    slice; catches cursors replayed against a foreign query).
    ///
    /// # Errors
    ///
    /// The first failing check as a [`CursorFault`].
    pub fn resume(&self, cursor: &MatchCursor, query: &[Token]) -> Result<NodeId, CursorFault> {
        self.resume_parts(cursor, query, &[])
    }

    /// [`resume`](RadixTree::resume) against the virtual query
    /// `head ‖ tail`: identical checks, with the resume edge compared as at
    /// most two slices — the part under `head` and the part under `tail` —
    /// so a single-slice resume costs one compare.
    fn resume_parts(
        &self,
        cursor: &MatchCursor,
        head: &[Token],
        tail: &[Token],
    ) -> Result<NodeId, CursorFault> {
        // check:allow(cursor-deref): this IS the generation check (get_node compares slot generations)
        let id = cursor.node;
        let n = self.get_node(id).ok_or(CursorFault::StaleGeneration)?;
        if n.version != cursor.structure_version || n.depth != cursor.matched_len {
            return Err(CursorFault::StructureChanged);
        }
        let len = cursor.matched_len as usize;
        if head.len() + tail.len() < len {
            return Err(CursorFault::QueryTooShort);
        }
        let edge = &self.store[n.edge.range()];
        let start = len - edge.len();
        // The seam, clamped into the edge's query span `[start, len)`.
        let seam = head.len().clamp(start, len);
        let (under_head, under_tail) = edge.split_at(seam - start);
        if (!under_head.is_empty() && head[start..seam] != *under_head)
            || (!under_tail.is_empty() && tail[seam - head.len()..len - head.len()] != *under_tail)
        {
            return Err(CursorFault::EdgeDivergence);
        }
        Ok(id)
    }

    /// Resumes [`match_prefix`](RadixTree::match_prefix) from `cursor`:
    /// walks only `query[cursor.matched_len()..]` and reconstructs the
    /// fully-matched path by walking parent pointers (O(path nodes), no
    /// token comparisons), so the returned [`PrefixMatch`] — path order
    /// included — is byte-identical to the root walk's under the
    /// [`cursor_at`](RadixTree::cursor_at) contract.
    ///
    /// # Errors
    ///
    /// Any [`CursorFault`] from [`resume`](RadixTree::resume).
    pub fn match_prefix_from(
        &self,
        cursor: &MatchCursor,
        query: &[Token],
    ) -> Result<PrefixMatch, CursorFault> {
        let start = self.resume(cursor, query)?;
        Ok(self.match_from(start, query))
    }

    /// Resumes [`speculate_insert`](RadixTree::speculate_insert) from
    /// `cursor`; non-mutating like its root-walk counterpart.
    ///
    /// # Errors
    ///
    /// Any [`CursorFault`] from [`resume`](RadixTree::resume).
    pub fn speculate_insert_from(
        &self,
        cursor: &MatchCursor,
        seq: &[Token],
    ) -> Result<Speculation, CursorFault> {
        let m = self.match_prefix_from(cursor, seq)?;
        Ok(Speculation {
            matched_len: m.matched_len,
            creates_branch_at: m.ends_mid_edge.then_some(m.matched_len),
        })
    }

    /// The match walk from an arbitrary resume point, with the
    /// fully-matched path reconstructed via parent pointers. `start`'s
    /// root path must equal `query[..depth(start)]` (trivially true for
    /// the root).
    fn match_from(&self, start: NodeId, query: &[Token]) -> PrefixMatch {
        let mut path = Vec::new();
        let mut chain = Some(start);
        while let Some(c) = chain {
            if c == NodeId::ROOT {
                break;
            }
            path.push(c);
            chain = self.node(c).parent;
        }
        path.reverse();
        let mut cur = start;
        let mut pos = self.node(start).depth as usize;
        loop {
            if pos == query.len() {
                return PrefixMatch {
                    path,
                    matched_len: pos as u64,
                    ends_mid_edge: false,
                    mid_edge_child: None,
                };
            }
            match self.node(cur).children.get(query[pos]) {
                None => {
                    return PrefixMatch {
                        path,
                        matched_len: pos as u64,
                        ends_mid_edge: false,
                        mid_edge_child: None,
                    }
                }
                Some(child) => {
                    let shared = self.shared_edge_len_parts(child, query, &[], pos);
                    pos += shared;
                    if shared == self.node(child).edge.len() {
                        path.push(child);
                        cur = child;
                    } else {
                        return PrefixMatch {
                            path,
                            matched_len: pos as u64,
                            ends_mid_edge: true,
                            mid_edge_child: Some(child),
                        };
                    }
                }
            }
        }
    }

    /// Predicts the structural effect of inserting `seq` without mutating
    /// the tree (the paper's *speculative insertion*, §4.1).
    #[must_use]
    pub fn speculate_insert(&self, seq: &[Token]) -> Speculation {
        let m = self.match_prefix(seq);
        Speculation {
            matched_len: m.matched_len,
            creates_branch_at: m.ends_mid_edge.then_some(m.matched_len),
        }
    }

    /// Tokens along the path from the root to (and including) `id`'s edge.
    ///
    /// Intended for debugging and tests; O(depth) allocation.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed node.
    #[must_use]
    pub fn path_tokens(&self, id: NodeId) -> Vec<Token> {
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let n = self.node(c);
            chain.push(n.edge);
            cur = n.parent;
        }
        chain.reverse();
        let mut out = Vec::with_capacity(chain.iter().map(|e| e.len()).sum());
        for e in chain {
            out.extend_from_slice(&self.store[e.range()]);
        }
        out
    }

    /// Removes a node with ≤ 1 child.
    ///
    /// * Leaf: the node and its edge tokens leave the tree.
    /// * Single child: the node is spliced out and its edge label is
    ///   *prepended* to the child's (the child absorbs the KVs; only the
    ///   node's payload — e.g. its SSM state — is released). When the two
    ///   edges are adjacent in the store — always true for a split pair —
    ///   the merge is O(1) range concatenation; otherwise the joined label
    ///   is appended to the store once.
    ///
    /// # Errors
    ///
    /// [`RemoveError::IsRoot`] for the root, [`RemoveError::NotFound`] for a
    /// dead id, [`RemoveError::HasMultipleChildren`] for shared-prefix
    /// nodes, and [`RemoveError::Pinned`] for nodes protected by an
    /// in-flight [`pin`](RadixTree::pin). A pinned node can never have an
    /// unpinned ancestor (counts are subtree-inclusive), so the merge arm
    /// below never relocates protected KVs.
    pub fn remove(&mut self, id: NodeId) -> Result<Removed<D>, RemoveError> {
        if id == NodeId::ROOT {
            return Err(RemoveError::IsRoot);
        }
        let node = self.get_node(id).ok_or(RemoveError::NotFound)?;
        if node.children.len() > 1 {
            return Err(RemoveError::HasMultipleChildren);
        }
        if node.pin_count > 0 {
            return Err(RemoveError::Pinned);
        }
        let parent = node
            .parent
            .expect("invariant: non-root nodes have a parent");
        let child = node.children.first_id();
        let first_tok = self.store[node.edge.off as usize];

        let (class, stamp) = (node.class, node.stamp);
        self.lru.remove(class, stamp, id);
        match child {
            None => {
                let node = self.free(id);
                self.node_mut(parent).children.remove(first_tok);
                if self.node(parent).children.is_empty() && parent != NodeId::ROOT {
                    // The parent just became a leaf: its freed-bytes shape
                    // changed.
                    self.node_mut(parent).version += 1;
                }
                // Losing a child may have dropped the parent to ≤ 1.
                self.sync_candidate(parent);
                self.class_tokens[usize::from(class)] -= u64::from(node.edge.len);
                Ok(Removed {
                    data: node.data,
                    freed_tokens: u64::from(node.edge.len),
                    merged_into: None,
                })
            }
            Some(child) => {
                let node = self.free(id);
                // Child absorbs the edge: tokens (KVs) stay in the tree.
                let child_edge = self.node(child).edge;
                let merged = if node.edge.off + node.edge.len == child_edge.off {
                    // Adjacent ranges (the split-then-evict hot path):
                    // concatenation is pure offset arithmetic.
                    EdgeRef {
                        off: node.edge.off,
                        len: node.edge.len + child_edge.len,
                    }
                } else {
                    // Non-adjacent: append the joined label to the store.
                    let merged =
                        EdgeRef::checked(self.store.len(), node.edge.len() + child_edge.len());
                    self.store.extend_from_within(node.edge.range());
                    self.store.extend_from_within(child_edge.range());
                    merged
                };
                let c = self.node_mut(child);
                c.parent = Some(parent);
                c.edge = merged;
                // The child's edge grew (and its parent changed): bump so
                // memoized per-node costs recompute. Its child count — and
                // the parent's — are unchanged, so candidacies hold.
                c.version += 1;
                // The absorbed tokens now belong to the child's class.
                let child_class = usize::from(c.class);
                self.class_tokens[usize::from(class)] -= u64::from(node.edge.len);
                self.class_tokens[child_class] += u64::from(node.edge.len);
                self.node_mut(parent).children.insert(first_tok, child);
                Ok(Removed {
                    data: node.data,
                    freed_tokens: 0,
                    merged_into: Some(child),
                })
            }
        }
    }

    fn free(&mut self, id: NodeId) -> Node<D> {
        let gen = match &self.slots[id.index()] {
            Slot::Occupied { gen, .. } => *gen,
            Slot::Free { .. } => unreachable!("free() called on free slot"),
        };
        debug_assert_eq!(gen, id.gen, "free() with a stale id");
        // Bump the generation on the way out so ids minted for this
        // occupancy stop resolving once the slot is recycled.
        let slot = std::mem::replace(
            &mut self.slots[id.index()],
            Slot::Free {
                gen: gen.wrapping_add(1),
                next: self.free_head,
            },
        );
        self.free_head = Some(id.idx);
        self.node_count -= 1;
        match slot {
            Slot::Occupied { node, .. } => node,
            Slot::Free { .. } => unreachable!("free() called on free slot"),
        }
    }

    /// Enables the injected edge-split fault (cut one token too deep) used
    /// by the differential harness's self-test to prove the harness catches
    /// real divergence. Never enable outside tests.
    #[doc(hidden)]
    pub fn debug_set_split_off_by_one(&mut self, enabled: bool) {
        self.split_off_by_one = enabled;
    }

    /// Exhaustively checks the structural invariants; for tests.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn assert_invariants(&self) {
        let mut seen_tokens = vec![0u64; self.class_tokens.len()];
        let mut seen_nodes = 0usize;
        let mut seen_candidates = 0usize;
        let mut seen_pinned = 0usize;
        let mut stack = vec![NodeId::ROOT];
        while let Some(id) = stack.pop() {
            let n = self.node(id);
            assert!(
                n.edge.off as usize + n.edge.len() <= self.store.len(),
                "{id}: edge range escapes the token store"
            );
            if id != NodeId::ROOT {
                seen_nodes += 1;
                assert!(!n.edge.is_empty(), "{id}: empty edge on non-root");
                let p = self.node(n.parent.expect("invariant: non-root nodes have a parent"));
                assert_eq!(
                    p.depth + u64::from(n.edge.len),
                    n.depth,
                    "{id}: depth mismatch"
                );
                assert!(
                    usize::from(n.class) < seen_tokens.len(),
                    "{id}: class {} has no token count",
                    n.class
                );
                seen_tokens[usize::from(n.class)] += u64::from(n.edge.len);
                let should_be_candidate = n.children.len() <= 1 && n.pin_count == 0;
                assert_eq!(
                    self.lru.contains(n.class, n.stamp, id),
                    should_be_candidate,
                    "{id}: candidate-set membership drift, stale stamp or stale class \
                     (child_count = {}, pin_count = {}, stamp = {}, class = {})",
                    n.children.len(),
                    n.pin_count,
                    n.stamp,
                    n.class
                );
                seen_candidates += usize::from(should_be_candidate);
                seen_pinned += usize::from(n.pin_count > 0);
                if n.parent != Some(NodeId::ROOT) {
                    assert!(
                        p.pin_count >= n.pin_count,
                        "{id}: pin counts are subtree-inclusive, so a parent's \
                         count ({}) must cover each child's ({})",
                        p.pin_count,
                        n.pin_count
                    );
                }
            } else {
                assert!(n.parent.is_none(), "root has a parent");
                assert_eq!(n.depth, 0, "root depth nonzero");
                assert_eq!(n.pin_count, 0, "root must never be pinned");
            }
            let mut prev_tok: Option<Token> = None;
            for (tok, cid) in n.children.iter() {
                assert!(
                    prev_tok.is_none_or(|p| p < tok),
                    "{id}: children not strictly sorted by first token"
                );
                prev_tok = Some(tok);
                let c = self.node(cid);
                assert_eq!(c.parent, Some(id), "{cid}: bad parent pointer");
                assert_eq!(
                    self.store[c.edge.off as usize], tok,
                    "{cid}: child key != first edge token"
                );
                stack.push(cid);
            }
        }
        assert_eq!(seen_nodes, self.node_count, "node_count drift");
        assert_eq!(
            seen_tokens, self.class_tokens,
            "per-class token count drift"
        );
        // Every live member was found above, so any surplus entry is dead,
        // stale, a duplicate, or the root.
        assert_eq!(
            seen_candidates,
            self.lru.len(),
            "candidate set holds dead, stale, duplicate, or root entries"
        );
        assert_eq!(seen_pinned, self.pinned, "pinned counter drift");
    }

    /// Graphviz `dot` rendering of the tree structure (edge labels
    /// abbreviated), for debugging.
    #[must_use]
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph radix {\n  node [shape=circle];\n");
        let mut stack = vec![NodeId::ROOT];
        while let Some(id) = stack.pop() {
            let n = self.node(id);
            for (_, cid) in n.children.iter() {
                let edge = self.edge_tokens(cid);
                let label: Vec<String> = if edge.len() <= 6 {
                    edge.iter().map(|t| t.to_string()).collect()
                } else {
                    let mut v: Vec<String> = edge[..3].iter().map(|t| t.to_string()).collect();
                    v.push(format!("…(+{})", edge.len() - 3));
                    v
                };
                let _ = writeln!(out, "  {id} -> {cid} [label=\"{}\"];", label.join(" "));
                stack.push(cid);
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> RadixTree<u32> {
        RadixTree::new()
    }

    #[test]
    fn empty_tree() {
        let t = tree();
        assert!(t.is_empty());
        assert_eq!(t.token_count(), 0);
        let m = t.match_prefix(&[1, 2, 3]);
        assert_eq!(m.matched_len, 0);
        assert!(m.path.is_empty());
        t.assert_invariants();
    }

    #[test]
    fn insert_single_sequence() {
        let mut t = tree();
        let out = t.insert(&[1, 2, 3]);
        assert_eq!(out.added_tokens, 3);
        assert!(out.split_node.is_none());
        assert_eq!(out.new_leaf, Some(out.end_node));
        assert_eq!(t.len(), 1);
        assert_eq!(t.token_count(), 3);
        assert_eq!(t.depth(out.end_node), 3);
        t.assert_invariants();
    }

    #[test]
    fn insert_empty_sequence_is_noop() {
        let mut t = tree();
        let out = t.insert(&[]);
        assert_eq!(out.end_node, NodeId::ROOT);
        assert_eq!(out.added_tokens, 0);
        assert!(t.is_empty());
    }

    #[test]
    fn reinsert_is_structural_noop() {
        let mut t = tree();
        let first = t.insert(&[5, 6, 7]);
        let second = t.insert(&[5, 6, 7]);
        assert_eq!(second.end_node, first.end_node);
        assert_eq!(second.added_tokens, 0);
        assert!(second.split_node.is_none());
        assert!(second.new_leaf.is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn diverging_sequences_split_edge() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let out = t.insert(&[1, 2, 9, 9]);
        let mid = out.split_node.expect("split");
        assert_eq!(t.depth(mid), 2);
        assert_eq!(t.child_count(mid), 2);
        assert_eq!(out.added_tokens, 2);
        assert_eq!(t.token_count(), 6); // [1,2] + [3,4] + [9,9]
        assert_eq!(t.len(), 3);
        t.assert_invariants();
    }

    #[test]
    fn extension_creates_leaf_without_split() {
        let mut t = tree();
        let a = t.insert(&[1, 2]);
        let b = t.insert(&[1, 2, 3, 4]);
        assert!(b.split_node.is_none());
        assert_eq!(b.added_tokens, 2);
        assert_eq!(t.parent(b.end_node), Some(a.end_node));
        t.assert_invariants();
    }

    #[test]
    fn prefix_of_existing_edge_splits_with_single_child() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let out = t.insert(&[1, 2]);
        let mid = out.split_node.expect("split");
        assert_eq!(out.end_node, mid);
        assert_eq!(t.child_count(mid), 1);
        assert_eq!(out.added_tokens, 0);
        assert_eq!(t.token_count(), 4);
        t.assert_invariants();
    }

    #[test]
    fn match_prefix_full_and_partial() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        t.insert(&[1, 2, 9, 9]);

        let m = t.match_prefix(&[1, 2, 3, 4]);
        assert_eq!(m.matched_len, 4);
        assert!(!m.ends_mid_edge);
        assert_eq!(m.path.len(), 2); // branch node at depth 2, leaf at 4

        let m = t.match_prefix(&[1, 2, 3, 7]);
        assert_eq!(m.matched_len, 3);
        assert!(m.ends_mid_edge);
        assert_eq!(m.path.len(), 1); // only the branch node fully matched

        let m = t.match_prefix(&[1, 2]);
        assert_eq!(m.matched_len, 2);
        assert!(!m.ends_mid_edge);
        assert_eq!(m.deepest(), m.path.last().copied());

        let m = t.match_prefix(&[7]);
        assert_eq!(m.matched_len, 0);
    }

    #[test]
    fn speculation_matches_insert_behaviour() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);

        // Divergence mid-edge: would split.
        let s = t.speculate_insert(&[1, 2, 9]);
        assert_eq!(
            s,
            Speculation {
                matched_len: 2,
                creates_branch_at: Some(2)
            }
        );

        // Pure extension past a leaf: no split.
        let s = t.speculate_insert(&[1, 2, 3, 4, 5]);
        assert_eq!(s.creates_branch_at, None);
        assert_eq!(s.matched_len, 4);

        // Strict prefix ending mid-edge: would split (single-child mid).
        let s = t.speculate_insert(&[1, 2, 3]);
        assert_eq!(s.creates_branch_at, Some(3));

        // Fresh sequence: no split.
        let s = t.speculate_insert(&[8, 8]);
        assert_eq!(
            s,
            Speculation {
                matched_len: 0,
                creates_branch_at: None
            }
        );
    }

    #[test]
    fn speculation_never_mutates() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let before = (t.len(), t.token_count(), t.token_store_len());
        let _ = t.speculate_insert(&[1, 2, 9]);
        let _ = t.speculate_insert(&[1, 2, 3]);
        assert_eq!(
            (t.len(), t.token_count(), t.token_store_len()),
            before,
            "probes must not mutate, not even the backing store"
        );
    }

    #[test]
    fn remove_leaf_frees_tokens() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let out = t.insert(&[1, 2, 9, 9]);
        let leaf = out.new_leaf.unwrap();
        let removed = t.remove(leaf).unwrap();
        assert_eq!(removed.freed_tokens, 2);
        assert_eq!(removed.merged_into, None);
        assert_eq!(t.token_count(), 4);
        t.assert_invariants();
    }

    #[test]
    fn remove_intermediate_merges_edge_into_child() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let out = t.insert(&[1, 2]); // splits, mid has one child
        let mid = out.split_node.unwrap();
        let removed = t.remove(mid).unwrap();
        assert_eq!(removed.freed_tokens, 0, "KVs absorbed by child");
        let child = removed.merged_into.unwrap();
        assert_eq!(t.edge_len(child), 4);
        assert_eq!(t.depth(child), 4);
        assert_eq!(t.token_count(), 4);
        // The merged path still matches fully.
        assert_eq!(t.match_prefix(&[1, 2, 3, 4]).matched_len, 4);
        t.assert_invariants();
    }

    #[test]
    fn remove_branch_node_rejected_until_children_gone() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let out = t.insert(&[1, 2, 9, 9]);
        let branch = out.split_node.unwrap();
        assert_eq!(t.remove(branch), Err(RemoveError::HasMultipleChildren));
        // Evict one child; the branch becomes removable.
        let leaf = out.new_leaf.unwrap();
        t.remove(leaf).unwrap();
        assert!(t.remove(branch).is_ok());
        t.assert_invariants();
    }

    #[test]
    fn remove_root_rejected() {
        let mut t = tree();
        assert_eq!(t.remove(NodeId::ROOT), Err(RemoveError::IsRoot));
    }

    #[test]
    fn remove_dead_id_rejected() {
        let mut t = tree();
        let out = t.insert(&[1]);
        t.remove(out.end_node).unwrap();
        assert_eq!(t.remove(out.end_node), Err(RemoveError::NotFound));
        assert!(!t.contains(out.end_node));
    }

    #[test]
    fn slots_are_recycled() {
        let mut t = tree();
        let a = t.insert(&[1]).end_node;
        t.remove(a).unwrap();
        let b = t.insert(&[2]).end_node;
        assert_eq!(a.index(), b.index(), "freed slot reused");
    }

    #[test]
    fn eviction_candidates_exclude_branch_nodes() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        t.insert(&[1, 2, 9, 9]);
        let cands: Vec<_> = t.lru_candidates().map(|(_, id)| id).collect();
        // Two leaves are candidates; the 2-child branch node is not.
        assert_eq!(cands.len(), 2);
        assert_eq!(t.eviction_candidate_count(), 2);
        for c in cands {
            assert!(t.is_leaf(c));
        }
    }

    #[test]
    fn candidate_index_tracks_branch_transitions() {
        let mut t = tree();
        let a = t.insert(&[1, 2, 3, 4]);
        // One leaf: one candidate.
        assert_eq!(t.eviction_candidate_count(), 1);
        // Split creates a branch (2 children, not a candidate) + new leaf.
        let b = t.insert(&[1, 2, 9, 9]);
        let branch = b.split_node.unwrap();
        assert!(!t.is_eviction_candidate(branch));
        // A third diverging child keeps the branch out.
        t.insert(&[1, 2, 7, 7]);
        assert!(t.lru_candidates().all(|(_, id)| id != branch));
        // Remove two of the three leaves: the branch drops to one child and
        // becomes a candidate.
        t.remove(a.end_node).unwrap();
        t.remove(b.new_leaf.unwrap()).unwrap();
        assert!(t.lru_candidates().any(|(_, id)| id == branch));
        t.assert_invariants();
    }

    #[test]
    fn classes_partition_candidates_and_tokens() {
        let mut t = tree();
        let a = t.insert(&[1, 2, 3, 4]).end_node;
        let b = t.insert(&[5, 6]).end_node;
        t.touch(a, 7);
        t.touch(b, 3);
        t.set_class(a, 1);
        assert_eq!(t.class(a), 1);
        assert_eq!((t.class_token_count(0), t.class_token_count(1)), (2, 4));
        assert_eq!(t.token_count(), 6);
        assert_eq!(t.lru_candidates_in(0).collect::<Vec<_>>(), vec![(3, b)]);
        assert_eq!(t.lru_candidates_in(1).collect::<Vec<_>>(), vec![(7, a)]);
        assert_eq!(t.lru_candidates_in(2).count(), 0);
        // The all-class walk is class-major, not stamp-major.
        assert_eq!(t.lru_candidates().collect::<Vec<_>>(), vec![(3, b), (7, a)]);
        t.set_class(b, 1);
        assert_eq!(
            t.lru_candidates_in(1).collect::<Vec<_>>(),
            vec![(3, b), (7, a)]
        );
        assert_eq!((t.class_token_count(0), t.class_token_count(1)), (0, 6));
        t.remove(b).unwrap();
        assert_eq!(t.class_token_count(1), 4);
        t.assert_invariants();
    }

    #[test]
    fn split_inherits_class_and_merge_rehomes_the_absorbed_edge() {
        let mut t = tree();
        let leaf = t.insert(&[1, 2, 3, 4]).end_node;
        t.set_class(leaf, 1);
        // A split moves head tokens onto a same-class intermediate.
        let mid = t.insert(&[1, 2]).split_node.expect("split");
        assert_eq!(t.class(mid), 1);
        assert_eq!(t.class_token_count(1), 4);
        assert!(t.lru_candidates_in(1).any(|(_, id)| id == mid));
        t.assert_invariants();
        // Move the child back: removing the class-1 intermediate hands its
        // edge to the class-0 child, so its tokens change class too.
        t.set_class(leaf, 0);
        assert_eq!((t.class_token_count(0), t.class_token_count(1)), (2, 2));
        let removed = t.remove(mid).unwrap();
        assert_eq!(removed.merged_into, Some(leaf));
        assert_eq!((t.class_token_count(0), t.class_token_count(1)), (4, 0));
        t.assert_invariants();
    }

    #[test]
    fn set_class_on_a_pinned_node_keeps_it_out_of_every_set() {
        let mut t = tree();
        let leaf = t.insert(&[1, 2, 3]).end_node;
        t.pin(leaf);
        t.set_class(leaf, 1);
        assert_eq!(t.eviction_candidate_count(), 0);
        t.unpin(leaf);
        assert_eq!(t.lru_candidates_in(1).collect::<Vec<_>>(), vec![(0, leaf)]);
        assert_eq!(t.lru_candidates_in(0).count(), 0);
        t.assert_invariants();
    }

    #[test]
    fn match_prefix_exposes_mid_edge_child() {
        let mut t = tree();
        let out = t.insert(&[1, 2, 3, 4]);
        // Ends inside the single leaf's edge.
        let m = t.match_prefix(&[1, 2, 3]);
        assert!(m.ends_mid_edge);
        assert_eq!(m.mid_edge_child, Some(out.end_node));
        assert!(m.path.is_empty());
        // Full match: no mid-edge child.
        let m = t.match_prefix(&[1, 2, 3, 4]);
        assert!(!m.ends_mid_edge);
        assert_eq!(m.mid_edge_child, None);
        // Miss at a node boundary: no mid-edge child either.
        let m = t.match_prefix(&[9]);
        assert_eq!(m.mid_edge_child, None);
    }

    #[test]
    fn structure_version_bumps_only_on_shape_changes() {
        let mut t = tree();
        let a = t.insert(&[1, 2, 3, 4]);
        let leaf = a.end_node;
        let v0 = t.structure_version(leaf);

        // Splitting the leaf's edge shortens it: version bumps.
        let b = t.insert(&[1, 2, 9, 9]);
        let branch = b.split_node.unwrap();
        assert!(t.structure_version(leaf) > v0, "split must bump the child");

        // Adding a *third* child to the branch leaves every existing node's
        // shape alone.
        let v_leaf = t.structure_version(leaf);
        let v_branch = t.structure_version(branch);
        t.insert(&[1, 2, 7, 7]);
        assert_eq!(t.structure_version(leaf), v_leaf);
        assert_eq!(t.structure_version(branch), v_branch);

        // Extending past the leaf gives it its first child: leaf status
        // flipped, version bumps.
        t.insert(&[1, 2, 3, 4, 5, 6]);
        assert!(t.structure_version(leaf) > v_leaf);
    }

    #[test]
    fn structure_version_bumps_on_merge_and_leaf_loss() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let out = t.insert(&[1, 2]); // split: mid with a single child
        let mid = out.split_node.unwrap();
        let m = t.match_prefix(&[1, 2, 3, 4]);
        let child = m.deepest().unwrap();
        let v_child = t.structure_version(child);
        // Removing the single-child mid merges its edge into the child.
        let removed = t.remove(mid).unwrap();
        assert_eq!(removed.merged_into, Some(child));
        assert!(
            t.structure_version(child) > v_child,
            "absorbing an edge must bump the child"
        );

        // Removing a node's last child turns the parent into a leaf: bump.
        let mut t = tree();
        t.insert(&[1, 2]);
        let ext = t.insert(&[1, 2, 3, 4]);
        let parent = t.parent(ext.end_node).unwrap();
        let v_parent = t.structure_version(parent);
        t.remove(ext.end_node).unwrap();
        assert!(
            t.structure_version(parent) > v_parent,
            "losing the last child must bump the parent"
        );
    }

    #[test]
    fn path_tokens_roundtrip() {
        let mut t = tree();
        let out = t.insert(&[1, 2, 3, 4, 5]);
        t.insert(&[1, 2, 9]);
        assert_eq!(t.path_tokens(out.end_node), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn data_is_mutable_per_node() {
        let mut t = tree();
        let out = t.insert(&[1, 2]);
        *t.data_mut(out.end_node) = 42;
        assert_eq!(*t.data(out.end_node), 42);
        // Splitting preserves the child's payload and defaults the mid.
        let out2 = t.insert(&[1, 9]);
        let mid = out2.split_node.unwrap();
        assert_eq!(*t.data(mid), 0);
        // The old node kept its data through the split.
        let m = t.match_prefix(&[1, 2]);
        assert_eq!(*t.data(m.deepest().unwrap()), 42);
    }

    #[test]
    fn node_ids_iterates_live_nodes_only() {
        let mut t = tree();
        t.insert(&[1, 2]);
        let out = t.insert(&[3, 4]);
        t.remove(out.end_node).unwrap();
        assert_eq!(t.node_ids().count(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn to_dot_contains_edges() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        t.insert(&[1, 2, 9]);
        let dot = t.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
        assert!(dot.contains('…'), "long edges abbreviated");
    }

    // ------------------------------------------------------------------
    // Speculative insertion as the checkpoint trigger (paper §4.1): the
    // speculation must fire iff the insert would create a *new* branch
    // point, because that signal is exactly what admits an SSM checkpoint
    // during prefill. False positives waste cache bytes; false negatives
    // forfeit purely-input reuse.
    // ------------------------------------------------------------------

    #[test]
    fn speculation_fires_only_for_new_branch_points() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4, 5, 6]);

        // Mid-edge divergence: a new intermediate node would be created at
        // exactly the shared depth — checkpoint there.
        let s = t.speculate_insert(&[1, 2, 3, 9, 9]);
        assert_eq!(s.creates_branch_at, Some(3));
        assert_eq!(s.matched_len, 3);

        // Exact duplicate: nothing new would be created — no checkpoint.
        let s = t.speculate_insert(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(s.creates_branch_at, None);
        assert_eq!(s.matched_len, 6);

        // Disjoint sequence: a fresh root child, not a branch point.
        let s = t.speculate_insert(&[7, 7, 7]);
        assert_eq!(s.creates_branch_at, None);
        assert_eq!(s.matched_len, 0);
    }

    #[test]
    fn speculation_silent_at_existing_branch_points() {
        // Once a branch node exists at depth 2, a third sequence diverging
        // at that same depth must NOT re-fire: the node (and its
        // checkpoint) already exist, and inserting would only add a new
        // child edge, not split anything.
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let out = t.insert(&[1, 2, 5, 6]);
        let branch = out.split_node.expect("second sequence splits");
        assert_eq!(t.depth(branch), 2);

        let s = t.speculate_insert(&[1, 2, 7, 8]);
        assert_eq!(s.matched_len, 2, "shares the prompt");
        assert_eq!(
            s.creates_branch_at, None,
            "divergence at an existing node is not a new branch point"
        );
        // Insert confirms the prediction: no split happens.
        let out = t.insert(&[1, 2, 7, 8]);
        assert!(out.split_node.is_none());
        assert_eq!(t.child_count(branch), 3);
        t.assert_invariants();
    }

    #[test]
    fn speculation_silent_for_pure_extensions() {
        // Conversation growth (history + new turn) extends past a leaf; the
        // branch-point trigger must stay silent — resume reuse is handled by
        // the separate last-decoded-token checkpoint, not this one.
        let mut t = tree();
        t.insert(&[1, 2, 3]);
        let s = t.speculate_insert(&[1, 2, 3, 4, 5]);
        assert_eq!(s.matched_len, 3);
        assert_eq!(s.creates_branch_at, None);
    }

    #[test]
    fn speculation_branch_depth_equals_matched_len_when_present() {
        // The paper checkpoints the state *at the branch depth*; the two
        // fields must agree so the cache checkpoints the right prefix.
        let mut t = tree();
        let seq: Vec<Token> = (0..128).collect();
        t.insert(&seq);
        for cut in [1usize, 17, 63, 127] {
            let mut probe = seq[..cut].to_vec();
            probe.push(999);
            let s = t.speculate_insert(&probe);
            assert_eq!(s.creates_branch_at, Some(cut as u64));
            assert_eq!(s.matched_len, cut as u64);
        }
    }

    #[test]
    fn speculation_on_empty_tree_and_empty_sequence() {
        let t = tree();
        let s = t.speculate_insert(&[1, 2, 3]);
        assert_eq!(s.creates_branch_at, None, "empty tree has no edges");
        let mut t = tree();
        t.insert(&[1, 2, 3]);
        let s = t.speculate_insert(&[]);
        assert_eq!(s.matched_len, 0);
        assert_eq!(s.creates_branch_at, None);
    }

    // ------------------------------------------------------------------
    // In-flight pinning: refcounts protect a matched path against removal
    // while a request is still decoding against its KVs (PR 6).
    // ------------------------------------------------------------------

    #[test]
    fn pin_protects_the_whole_path() {
        let mut t = tree();
        t.insert(&[1, 2]);
        let deep = t.insert(&[1, 2, 3, 4]).end_node;
        let mid = t.parent(deep).unwrap();
        t.pin(deep);
        assert!(t.is_pinned(deep));
        assert!(t.is_pinned(mid), "ancestors are protected transitively");
        assert_eq!(t.pinned_count(), 2);
        assert_eq!(t.remove(deep), Err(RemoveError::Pinned));
        assert_eq!(t.remove(mid), Err(RemoveError::Pinned));
        t.assert_invariants();
        t.unpin(deep);
        assert!(!t.is_pinned(deep));
        assert!(!t.is_pinned(mid));
        assert_eq!(t.pinned_count(), 0);
        assert!(t.remove(deep).is_ok());
        t.assert_invariants();
    }

    #[test]
    fn pin_is_refcounted() {
        let mut t = tree();
        let leaf = t.insert(&[1, 2, 3]).end_node;
        t.pin(leaf);
        t.pin(leaf);
        t.unpin(leaf);
        assert!(t.is_pinned(leaf), "one of two pins still holds");
        assert_eq!(t.remove(leaf), Err(RemoveError::Pinned));
        t.unpin(leaf);
        assert!(t.remove(leaf).is_ok());
        t.assert_invariants();
    }

    #[test]
    fn split_inherits_pins_and_unpin_stays_balanced() {
        let mut t = tree();
        let leaf = t.insert(&[1, 2, 3, 4]).end_node;
        t.pin(leaf);
        // Another request diverges mid-edge while the first is in flight:
        // the new intermediate holds the head of the pinned edge and must
        // be protected too.
        let out = t.insert(&[1, 2, 9, 9]);
        let mid = out.split_node.expect("split");
        assert!(t.is_pinned(mid), "split head of a pinned edge stays pinned");
        assert!(t.is_pinned(leaf));
        assert!(!t.is_pinned(out.new_leaf.unwrap()));
        assert_eq!(t.remove(mid), Err(RemoveError::HasMultipleChildren));
        t.assert_invariants();
        // Unpinning by the original id walks through the new intermediate
        // and releases everything.
        t.unpin(leaf);
        assert_eq!(t.pinned_count(), 0);
        t.assert_invariants();
    }

    #[test]
    fn clear_pins_resets_all_counts() {
        let mut t = tree();
        let a = t.insert(&[1, 2, 3, 4]).end_node;
        let b = t.insert(&[1, 2, 9]).end_node;
        t.pin(a);
        t.pin(a);
        t.pin(b);
        assert!(t.pinned_count() > 0);
        t.clear_pins();
        assert_eq!(t.pinned_count(), 0);
        assert!(!t.is_pinned(a));
        assert!(t.remove(a).is_ok());
        t.assert_invariants();
    }

    #[test]
    fn pins_leave_the_candidate_set_and_unpins_restore_the_stamp_order() {
        let mut t = tree();
        let a = t.insert(&[1, 1]).end_node;
        let b = t.insert(&[2, 2]).end_node;
        let c = t.insert(&[3, 3]).end_node;
        t.touch(a, 10);
        t.touch(b, 20);
        t.touch(c, 30);
        let order =
            |t: &RadixTree<u32>| -> Vec<NodeId> { t.lru_candidates().map(|(_, id)| id).collect() };
        let before = order(&t);
        t.pin(b);
        t.pin(b);
        assert!(
            !t.is_eviction_candidate(b),
            "a pinned node is not a candidate"
        );
        assert_eq!(order(&t), vec![a, c]);
        // A touch while pinned is recorded and carried back in.
        t.touch(b, 5);
        t.unpin(b);
        assert_eq!(order(&t), vec![a, c], "one of two pins still holds");
        t.assert_invariants();
        t.unpin(b);
        assert_eq!(order(&t), vec![b, a, c], "re-entered at its stored stamp");
        t.touch(b, 20);
        assert_eq!(order(&t), before, "pin-free order is untouched");
        t.assert_invariants();
    }

    #[test]
    fn recycled_slots_start_unpinned() {
        let mut t = tree();
        let a = t.insert(&[1]).end_node;
        t.pin(a);
        t.unpin(a);
        t.remove(a).unwrap();
        let b = t.insert(&[2]).end_node;
        assert_eq!(a.index(), b.index(), "slot reused");
        assert!(!t.is_pinned(b));
        t.assert_invariants();
    }

    #[test]
    fn pinning_root_is_a_noop() {
        let mut t = tree();
        t.insert(&[1, 2]);
        t.pin(NodeId::ROOT);
        t.unpin(NodeId::ROOT);
        assert_eq!(t.pinned_count(), 0);
        t.assert_invariants();
    }

    #[test]
    fn deep_chain_of_splits() {
        // Repeatedly inserting prefixes creates a chain of single-child
        // intermediates.
        let mut t = tree();
        let seq: Vec<Token> = (0..64).collect();
        t.insert(&seq);
        for cut in (8..64).step_by(8).rev() {
            let out = t.insert(&seq[..cut]);
            assert!(out.split_node.is_some(), "cut {cut} should split");
        }
        assert_eq!(t.token_count(), 64);
        t.assert_invariants();
        // Every prefix node matches exactly.
        for cut in (8..=64).step_by(8) {
            let m = t.match_prefix(&seq[..cut]);
            assert_eq!(m.matched_len, cut as u64);
            assert!(!m.ends_mid_edge);
        }
    }

    // ------------------------------------------------------------------
    // Arena engine specifics: generation tags, the shared token store,
    // and the O(log n) recency index.
    // ------------------------------------------------------------------

    #[test]
    fn generation_tags_detect_stale_ids() {
        let mut t = tree();
        let a = t.insert(&[1]).end_node;
        t.remove(a).unwrap();
        let b = t.insert(&[2]).end_node;
        assert_eq!(a.index(), b.index(), "slot reused");
        assert_ne!(
            a.generation(),
            b.generation(),
            "recycling must mint a fresh generation"
        );
        // The stale id is dead even though its slot is occupied again.
        assert!(!t.contains(a));
        assert!(t.contains(b));
        assert_eq!(t.remove(a), Err(RemoveError::NotFound));
        assert!(t.contains(b), "stale-id remove must not hit the new tenant");
        t.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "stale or freed id")]
    fn stale_id_access_panics_loudly() {
        let mut t = tree();
        let a = t.insert(&[1]).end_node;
        t.remove(a).unwrap();
        t.insert(&[2]); // recycles a's slot under a new generation
        let _ = t.data(a);
    }

    #[test]
    fn split_is_zero_copy_and_split_merge_reuses_store() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4, 5, 6]);
        let stored = t.token_store_len();
        // Splitting allocates no new store space: both halves alias the
        // original range.
        let out = t.insert(&[1, 2, 3, 9]);
        assert_eq!(
            t.token_store_len(),
            stored + 1,
            "only the new leaf's suffix [9] is appended"
        );
        // Removing the split leaf and then the branch merges the two
        // adjacent halves back — again without growing the store.
        t.remove(out.new_leaf.unwrap()).unwrap();
        let before_merge = t.token_store_len();
        t.remove(out.split_node.unwrap()).unwrap();
        assert_eq!(
            t.token_store_len(),
            before_merge,
            "adjacent-range merge is O(1) offset arithmetic"
        );
        assert_eq!(t.match_prefix(&[1, 2, 3, 4, 5, 6]).matched_len, 6);
        t.assert_invariants();
    }

    #[test]
    fn non_adjacent_merge_appends_joined_label() {
        // An unrelated insertion between [1,2] and its extension [3,4]
        // separates their store ranges; merging them must copy.
        let mut t = tree();
        let a = t.insert(&[1, 2]).end_node;
        t.insert(&[7]);
        t.insert(&[1, 2, 3, 4]);
        let before = t.token_store_len();
        let removed = t.remove(a).unwrap();
        let child = removed.merged_into.unwrap();
        assert_eq!(t.token_store_len(), before + 4, "joined label appended");
        assert_eq!(t.edge_tokens(child), &[1, 2, 3, 4]);
        assert_eq!(t.match_prefix(&[1, 2, 3, 4]).matched_len, 4);
        t.assert_invariants();
    }

    #[test]
    fn touch_orders_lru_candidates() {
        let mut t = tree();
        let a = t.insert(&[1, 1]).end_node;
        let b = t.insert(&[2, 2]).end_node;
        let c = t.insert(&[3, 3]).end_node;
        t.touch(a, 30);
        t.touch(b, 10);
        t.touch(c, 20);
        let order: Vec<NodeId> = t.lru_candidates().map(|(_, id)| id).collect();
        assert_eq!(order, vec![b, c, a], "ascending stamp order");
        assert_eq!(t.stamp(a), 30);
        // Re-touching reorders in O(log n).
        t.touch(b, 40);
        let order: Vec<NodeId> = t.lru_candidates().map(|(_, id)| id).collect();
        assert_eq!(order, vec![c, a, b]);
        t.assert_invariants();
    }

    #[test]
    fn lru_tracks_candidate_entry_and_exit() {
        let mut t = tree();
        let a = t.insert(&[1, 2, 3, 4]).end_node;
        t.touch(a, 5);
        // Splitting makes a branch with 2 children: the branch is not a
        // candidate, so it must not appear in the recency index.
        let out = t.insert(&[1, 2, 9, 9]);
        let branch = out.split_node.unwrap();
        assert!(t.lru_candidates().all(|(_, id)| id != branch));
        // Stamps survive candidacy changes: touch the branch while it is
        // out, then drop it to one child — it re-enters with its stamp.
        t.touch(branch, 77);
        t.remove(out.new_leaf.unwrap()).unwrap();
        assert!(t.lru_candidates().any(|(s, id)| id == branch && s == 77));
        // Removal drops the entry.
        t.remove(a).unwrap();
        assert!(t.lru_candidates().all(|(_, id)| id != a));
        assert_eq!(t.lru_candidates().count(), t.eviction_candidate_count());
        t.assert_invariants();
    }

    #[test]
    fn ties_break_by_id_in_lru_order() {
        let mut t = tree();
        let a = t.insert(&[1, 1]).end_node;
        let b = t.insert(&[2, 2]).end_node;
        t.touch(a, 9);
        t.touch(b, 9);
        let order: Vec<NodeId> = t.lru_candidates().map(|(_, id)| id).collect();
        let mut want = vec![a, b];
        want.sort();
        assert_eq!(order, want, "equal stamps break ties by id");
    }

    // ------------------------------------------------------------------
    // RemoveError rejection paths must leave the tree byte-for-byte
    // untouched (ISSUE 8 satellite: these paths were under-tested).
    // ------------------------------------------------------------------

    /// Per-node observable state: id, depth, edge length, structure
    /// version, stamp, pinned.
    type NodeState = (NodeId, u64, u64, u32, u64, bool);

    /// Full observable state: counters (live, tokens, store length,
    /// candidates, pinned), dot export, and every node's [`NodeState`].
    type Snapshot = (usize, u64, usize, usize, usize, String, Vec<NodeState>);

    /// Full observable state: structure, versions, stamps, counters.
    fn snapshot(t: &RadixTree<u32>) -> Snapshot {
        let mut nodes: Vec<(NodeId, u64, u64, u32, u64, bool)> = t
            .node_ids()
            .map(|id| {
                (
                    id,
                    t.depth(id),
                    t.edge_len(id),
                    t.structure_version(id),
                    t.stamp(id),
                    t.is_pinned(id),
                )
            })
            .collect();
        nodes.sort();
        (
            t.len(),
            t.token_count(),
            t.token_store_len(),
            t.eviction_candidate_count(),
            t.pinned_count(),
            t.to_dot(),
            nodes,
        )
    }

    #[test]
    fn rejected_removal_of_root_adjacent_branch_is_a_noop() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4]);
        let out = t.insert(&[1, 2, 9, 9]);
        let branch = out.split_node.unwrap();
        assert_eq!(t.parent(branch), Some(NodeId::ROOT), "root-adjacent");
        let before = snapshot(&t);
        assert_eq!(t.remove(branch), Err(RemoveError::HasMultipleChildren));
        assert_eq!(snapshot(&t), before, "rejected removal must not mutate");
        t.assert_invariants();
    }

    #[test]
    fn rejected_removal_of_pinned_mid_edge_node_is_a_noop() {
        let mut t = tree();
        t.insert(&[1, 2, 3, 4, 5, 6]);
        let deep = t.insert(&[1, 2, 3]).split_node.unwrap(); // mid-edge split
        let leaf = t.match_prefix(&[1, 2, 3, 4, 5, 6]).deepest().unwrap();
        t.pin(leaf);
        assert!(t.is_pinned(deep), "mid-edge ancestor is pin-protected");
        let before = snapshot(&t);
        assert_eq!(t.remove(deep), Err(RemoveError::Pinned));
        assert_eq!(t.remove(leaf), Err(RemoveError::Pinned));
        assert_eq!(snapshot(&t), before, "rejected removal must not mutate");
        t.assert_invariants();
        t.unpin(leaf);
    }

    #[test]
    fn rejected_removal_of_multi_child_node_is_a_noop() {
        let mut t = tree();
        t.insert(&[5, 1, 1]);
        t.insert(&[5, 2, 2]);
        let out = t.insert(&[5, 3, 3]);
        let hub = t.parent(out.end_node).unwrap();
        assert_eq!(t.child_count(hub), 3);
        let before = snapshot(&t);
        assert_eq!(t.remove(hub), Err(RemoveError::HasMultipleChildren));
        // Dead ids and the root are also rejected without side effects.
        let dead = {
            let x = t.insert(&[9, 9]).end_node;
            t.remove(x).unwrap();
            x
        };
        let before_dead = snapshot(&t);
        assert_eq!(t.remove(dead), Err(RemoveError::NotFound));
        assert_eq!(t.remove(NodeId::ROOT), Err(RemoveError::IsRoot));
        assert_eq!(snapshot(&t), before_dead);
        // And the multi-child rejection from before left everything alone
        // except the probe leaf we added and removed (store grew by 2).
        let after = snapshot(&t);
        assert_eq!(after.0, before.0);
        assert_eq!(after.1, before.1);
        t.assert_invariants();
    }

    // -- session cursors -------------------------------------------------

    #[test]
    fn resumed_match_equals_root_walk() {
        let mut t: RadixTree<u32> = RadixTree::new();
        let end = t.insert(&[1, 2, 3, 4]).end_node;
        t.insert(&[1, 2, 9]); // split at depth 2 (above the cursor node)
        let cur = t.cursor_at(end).expect("end node is live");
        assert_eq!(cur.matched_len(), 4);

        for query in [
            vec![1, 2, 3, 4],
            vec![1, 2, 3, 4, 5, 6],
            vec![1, 2, 3, 4, 9],
        ] {
            let resumed = t.match_prefix_from(&cur, &query).expect("cursor is fresh");
            let root = t.match_prefix(&query);
            assert_eq!(resumed, root, "query {query:?}");
        }
    }

    #[test]
    fn resumed_insert_equals_root_insert() {
        // Two trees, same history; one extends via the cursor.
        let mut a: RadixTree<u32> = RadixTree::new();
        let mut b: RadixTree<u32> = RadixTree::new();
        let end_a = a.insert(&[5, 6, 7]).end_node;
        b.insert(&[5, 6, 7]);
        let cur = a.cursor_at(end_a).expect("live");

        let seq = [5, 6, 7, 8, 9];
        let via_cursor = a.insert_from(&cur, &seq).expect("cursor is fresh");
        let via_root = b.insert(&seq);
        assert_eq!(via_cursor.end_node, via_root.end_node);
        assert_eq!(via_cursor.split_node, via_root.split_node);
        assert_eq!(via_cursor.new_leaf, via_root.new_leaf);
        assert_eq!(via_cursor.added_tokens, via_root.added_tokens);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.token_count(), b.token_count());
        for (ia, ib) in a.node_ids().zip(b.node_ids()) {
            assert_eq!(a.path_tokens(ia), b.path_tokens(ib));
        }
        a.assert_invariants();

        // The resumed speculation agrees with the root walk too.
        let spec_c = a.speculate_insert_from(
            &a.cursor_at(via_cursor.end_node).unwrap(),
            &[5, 6, 7, 8, 9, 1],
        );
        let spec_r = a.speculate_insert(&[5, 6, 7, 8, 9, 1]);
        assert_eq!(spec_c.expect("fresh"), spec_r);
    }

    #[test]
    fn stale_generation_is_rejected() {
        let mut t: RadixTree<u32> = RadixTree::new();
        let end = t.insert(&[1, 2, 3]).end_node;
        let cur = t.cursor_at(end).expect("live");
        t.remove(end).expect("leaf removal");
        // Recycle the slot so the generation tag does the rejecting.
        t.insert(&[7, 8, 9]);
        assert_eq!(
            t.resume(&cur, &[1, 2, 3, 4]),
            Err(CursorFault::StaleGeneration)
        );
        assert!(t.cursor_at(end).is_none());
    }

    #[test]
    fn split_under_cursor_is_rejected() {
        let mut t: RadixTree<u32> = RadixTree::new();
        let end = t.insert(&[1, 2, 3, 4]).end_node;
        let cur = t.cursor_at(end).expect("live");
        // Splits the cursor node's own edge -> version bump -> fault.
        t.insert(&[1, 2, 3]);
        assert_eq!(
            t.resume(&cur, &[1, 2, 3, 4, 5]),
            Err(CursorFault::StructureChanged)
        );
        // A fresh cursor at the same node works again.
        let fresh = t.cursor_at(end).expect("live");
        let m = t
            .match_prefix_from(&fresh, &[1, 2, 3, 4, 5])
            .expect("fresh");
        assert_eq!(m, t.match_prefix(&[1, 2, 3, 4, 5]));
    }

    #[test]
    fn leaf_flip_under_cursor_is_rejected() {
        let mut t: RadixTree<u32> = RadixTree::new();
        let end = t.insert(&[1, 2]).end_node;
        let cur = t.cursor_at(end).expect("live");
        // A deeper insert gives the cursor node its first child: version
        // bump (leaf-status flip), so the old cursor conservatively fails.
        t.insert(&[1, 2, 3]);
        assert_eq!(
            t.resume(&cur, &[1, 2, 3]),
            Err(CursorFault::StructureChanged)
        );
    }

    #[test]
    fn non_extending_queries_are_rejected() {
        let mut t: RadixTree<u32> = RadixTree::new();
        let end = t.insert(&[1, 2, 3, 4]).end_node;
        let cur = t.cursor_at(end).expect("live");
        assert_eq!(t.resume(&cur, &[1, 2]), Err(CursorFault::QueryTooShort));
        // Divergence within the resume edge is caught...
        assert_eq!(
            t.resume(&cur, &[1, 2, 3, 9, 5]),
            Err(CursorFault::EdgeDivergence)
        );
        // ...and a matching resume edge passes.
        assert_eq!(t.resume(&cur, &[1, 2, 3, 4, 5]), Ok(end));
    }

    #[test]
    fn merge_preserving_path_keeps_cursor_valid() {
        // Removing a single-child ancestor merges its edge into *its*
        // child; any strictly deeper node keeps its path, depth, and
        // version, so a cursor below the merge point stays valid.
        let mut t: RadixTree<u32> = RadixTree::new();
        let top = t.insert(&[1, 2]).end_node;
        t.insert(&[1, 2, 3]);
        let deep = t.insert(&[1, 2, 3, 4, 5]).end_node;
        let cur = t.cursor_at(deep).expect("live");
        // `top` has a single child (the [1,2,3] node), which absorbs its
        // edge; `deep` — one level further down — is untouched.
        t.remove(top).expect("single-child merge");
        let m = t
            .match_prefix_from(&cur, &[1, 2, 3, 4, 5, 6])
            .expect("path-invariant");
        assert_eq!(m, t.match_prefix(&[1, 2, 3, 4, 5, 6]));
    }

    #[test]
    fn root_cursor_resumes_from_scratch() {
        let mut t: RadixTree<u32> = RadixTree::new();
        t.insert(&[4, 5, 6]);
        let cur = t.cursor_at(NodeId::ROOT).expect("root is always live");
        assert_eq!(cur.matched_len(), 0);
        let m = t.match_prefix_from(&cur, &[4, 5]).expect("root cursor");
        assert_eq!(m, t.match_prefix(&[4, 5]));
    }

    /// Deterministic token stream for the parts-equivalence sweeps.
    fn mix(seed: u64) -> u64 {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn assert_trees_equal(a: &RadixTree<u32>, b: &RadixTree<u32>) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.token_count(), b.token_count());
        for (ia, ib) in a.node_ids().zip(b.node_ids()) {
            assert_eq!(a.path_tokens(ia), b.path_tokens(ib));
        }
    }

    #[test]
    fn parts_insert_equals_single_slice_insert_at_every_seam() {
        // Every split point of every sequence in a small workload: the
        // two-segment insert must be outcome- and structure-identical to
        // the single-slice insert of the concatenation, wherever the seam
        // lands (inside a matched edge, at a node boundary, inside the
        // appended suffix, or at either end).
        let seqs: Vec<Vec<Token>> = (0..6u64)
            .map(|s| {
                (0..24u64)
                    .map(|i| (mix(s * 131 + i / 8) % 5) as Token)
                    .collect()
            })
            .collect();
        for cut_round in 0..4usize {
            let mut single: RadixTree<u32> = RadixTree::new();
            let mut parts: RadixTree<u32> = RadixTree::new();
            for (i, seq) in seqs.iter().enumerate() {
                let cut = (i * 7 + cut_round * 5) % (seq.len() + 1);
                let (head, tail) = seq.split_at(cut);
                let a = single.insert(seq);
                let b = parts.insert_parts(head, tail);
                assert_eq!(a.added_tokens, b.added_tokens, "cut {cut}");
                assert_eq!(a.new_leaf.is_some(), b.new_leaf.is_some(), "cut {cut}");
                assert_eq!(a.split_node.is_some(), b.split_node.is_some(), "cut {cut}");
            }
            assert_trees_equal(&single, &parts);
            parts.assert_invariants();
        }
    }

    #[test]
    fn resumed_parts_insert_equals_root_insert_of_concat() {
        // The session-cache shape: a cursor at the previous turn's end,
        // extended by (new input tokens, decoded output) as two slices.
        let mut a: RadixTree<u32> = RadixTree::new();
        let mut b: RadixTree<u32> = RadixTree::new();
        let end_a = a.insert(&[5, 6, 7]).end_node;
        b.insert(&[5, 6, 7]);
        let cur = a.cursor_at(end_a).expect("live");

        // head extends the cursor's sequence; tail is a separate slice.
        let head = [5, 6, 7, 8, 9];
        let tail = [10, 11];
        let via_cursor = a.insert_parts_from(&cur, &head, &tail).expect("fresh");
        let via_root = b.insert(&[5, 6, 7, 8, 9, 10, 11]);
        assert_eq!(via_cursor.added_tokens, via_root.added_tokens);
        assert_eq!(via_cursor.new_leaf.is_some(), via_root.new_leaf.is_some());
        assert_trees_equal(&a, &b);
        a.assert_invariants();
    }

    #[test]
    fn parts_resume_validates_across_the_seam() {
        // Resume edge [3, 4] straddles the head/tail seam when the query
        // arrives as ([1, 2, 3], [4, 5]): both halves must be checked.
        let mut t: RadixTree<u32> = RadixTree::new();
        let end = t.insert(&[1, 2, 3, 4]).end_node;
        t.insert(&[1, 2]); // split so `end`'s edge is [3, 4]
        let cur = t.cursor_at(end).expect("live");
        let ok = t
            .insert_parts_from(&cur, &[1, 2, 3], &[4, 5])
            .expect("seam-straddling resume");
        assert_eq!(ok.added_tokens, 1);
        // Divergence in the tail half of the straddled edge is caught.
        let cur = t.cursor_at(end).expect("live");
        assert!(matches!(
            t.insert_parts_from(&cur, &[1, 2, 3], &[9, 5]),
            Err(CursorFault::EdgeDivergence)
        ));
        // ...and in the head half too.
        let cur = t.cursor_at(end).expect("live");
        assert!(matches!(
            t.insert_parts_from(&cur, &[1, 2, 9], &[4, 5]),
            Err(CursorFault::EdgeDivergence)
        ));
        // Too-short virtual queries are rejected like single-slice ones.
        let cur = t.cursor_at(end).expect("live");
        assert!(matches!(
            t.insert_parts_from(&cur, &[1, 2], &[3]),
            Err(CursorFault::QueryTooShort)
        ));
    }
}
