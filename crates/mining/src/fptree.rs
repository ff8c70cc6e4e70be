//! Index-arena FP-tree (Han et al.), the compact prefix-tree representation
//! FP-Growth mines (thesis §5.2 uses "FP-Growth trees for closed item-set and
//! rule generation").
//!
//! Nodes live in a flat `Vec` and refer to each other by index — the arena
//! pattern the performance guide recommends over `Rc<RefCell<…>>` trees. Each
//! header-table entry threads a linked list through all nodes of one item.

use crate::items::Item;
use rustc_hash::FxHashMap;

/// Index of a node inside the arena. `NONE` marks a null link.
pub type NodeId = u32;
const NONE: NodeId = u32::MAX;

/// One FP-tree node.
#[derive(Debug, Clone)]
pub struct Node {
    /// The item this node represents (undefined for the root).
    pub item: Item,
    /// Number of transactions sharing the path down to this node.
    pub count: u64,
    /// Parent node index (`NONE` for the root).
    pub parent: NodeId,
    /// Next node carrying the same item (header-table thread).
    pub next_same_item: NodeId,
}

/// Per-item header entry: total count and head of the node thread.
#[derive(Debug, Clone, Copy)]
pub struct Header {
    /// Sum of counts of all nodes holding this item.
    pub total: u64,
    /// First node in this item's thread, `NONE` if absent.
    pub head: NodeId,
}

/// An FP-tree: arena of nodes plus a header table in *mining order*.
///
/// Items are inserted in descending global-frequency order (ties broken by
/// item id) so that paths share maximal prefixes; the header table keeps the
/// items in ascending frequency order — the order FP-Growth peels them off.
#[derive(Debug)]
pub struct FpTree {
    nodes: Vec<Node>,
    /// child lookup: (parent, item) → node. Hash edges rather than per-node
    /// child vectors: conditional trees are built once and traversed upward.
    edges: FxHashMap<(NodeId, Item), NodeId>,
    /// Header table entries keyed by item.
    headers: FxHashMap<Item, Header>,
    /// Items in ascending order of `headers[item].total` (mining order).
    order: Vec<Item>,
}

impl FpTree {
    /// Creates an empty tree containing only the root.
    pub fn new() -> Self {
        FpTree {
            nodes: vec![Node {
                item: Item(u32::MAX),
                count: 0,
                parent: NONE,
                next_same_item: NONE,
            }],
            edges: FxHashMap::default(),
            headers: FxHashMap::default(),
            order: Vec::new(),
        }
    }

    /// Root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        0
    }

    /// Immutable node access.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Inserts one (already ordered, already frequency-filtered) transaction
    /// path with multiplicity `count`.
    pub fn insert_path(&mut self, path: &[Item], count: u64) {
        let mut cur = self.root();
        for &item in path {
            let next = match self.edges.get(&(cur, item)) {
                Some(&n) => {
                    self.nodes[n as usize].count += count;
                    n
                }
                None => {
                    let id = self.nodes.len() as NodeId;
                    let head = self.headers.get(&item).map_or(NONE, |h| h.head);
                    self.nodes.push(Node { item, count, parent: cur, next_same_item: head });
                    self.edges.insert((cur, item), id);
                    let entry = self.headers.entry(item).or_insert(Header { total: 0, head: NONE });
                    entry.head = id;
                    id
                }
            };
            let entry = self.headers.entry(item).or_insert(Header { total: 0, head: NONE });
            entry.total += count;
            cur = next;
        }
    }

    /// Finalizes the header ordering. Must be called after the last insert
    /// and before mining.
    pub fn finish(&mut self) {
        let mut order: Vec<Item> = self.headers.keys().copied().collect();
        // Ascending support, then descending id: the reverse of insertion
        // order, so FP-Growth peels the least frequent suffix item first.
        order.sort_unstable_by(|a, b| {
            let (ta, tb) = (self.headers[a].total, self.headers[b].total);
            ta.cmp(&tb).then(b.0.cmp(&a.0))
        });
        self.order = order;
    }

    /// Items in mining order (ascending support).
    #[inline]
    pub fn mining_order(&self) -> &[Item] {
        &self.order
    }

    /// Header entry for an item, if present.
    #[inline]
    pub fn header(&self, item: Item) -> Option<Header> {
        self.headers.get(&item).copied()
    }

    /// Walks an item's node thread, yielding `(node_id, count)`.
    pub fn thread(&self, item: Item) -> ThreadIter<'_> {
        ThreadIter { tree: self, cur: self.headers.get(&item).map_or(NONE, |h| h.head) }
    }

    /// Collects the prefix path (root exclusive, `node` exclusive) above a
    /// node, in root→leaf order.
    pub fn prefix_path(&self, node: NodeId, out: &mut Vec<Item>) {
        out.clear();
        let mut cur = self.nodes[node as usize].parent;
        while cur != NONE && cur != self.root() {
            out.push(self.nodes[cur as usize].item);
            cur = self.nodes[cur as usize].parent;
        }
        out.reverse();
    }

    /// True if the whole tree is a single chain (no branching). FP-Growth
    /// exploits this to enumerate pattern combinations without recursion.
    pub fn is_single_path(&self) -> bool {
        // Root must have ≤1 child and every node ≤1 child.
        let mut child_count: FxHashMap<NodeId, u32> = FxHashMap::default();
        for &(parent, _) in self.edges.keys() {
            let c = child_count.entry(parent).or_insert(0);
            *c += 1;
            if *c > 1 {
                return false;
            }
        }
        true
    }

    /// The single path from root to leaf as `(item, count)` pairs, if the
    /// tree is a single path.
    pub fn single_path(&self) -> Option<Vec<(Item, u64)>> {
        if !self.is_single_path() {
            return None;
        }
        let mut out = Vec::new();
        let mut cur = self.root();
        loop {
            // Find the unique child of cur, if any.
            let child = self.edges.iter().find(|((p, _), _)| *p == cur).map(|(_, &c)| c);
            match child {
                Some(c) => {
                    let n = &self.nodes[c as usize];
                    out.push((n.item, n.count));
                    cur = c;
                }
                None => break,
            }
        }
        Some(out)
    }
}

impl Default for FpTree {
    fn default() -> Self {
        Self::new()
    }
}

/// Iterator over an item's node thread.
pub struct ThreadIter<'a> {
    tree: &'a FpTree,
    cur: NodeId,
}

impl Iterator for ThreadIter<'_> {
    type Item = (NodeId, u64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NONE {
            return None;
        }
        let id = self.cur;
        let node = &self.tree.nodes[id as usize];
        self.cur = node.next_same_item;
        Some((id, node.count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(ids: &[u32]) -> Vec<Item> {
        ids.iter().map(|&i| Item(i)).collect()
    }

    #[test]
    fn insert_shares_prefixes() {
        let mut t = FpTree::new();
        t.insert_path(&items(&[1, 2, 3]), 1);
        t.insert_path(&items(&[1, 2, 4]), 1);
        t.insert_path(&items(&[1, 2, 3]), 2);
        t.finish();
        // root + 1,2,3,4 = 5 nodes
        assert_eq!(t.nodes.len(), 5);
        assert_eq!(t.header(Item(1)).unwrap().total, 4);
        assert_eq!(t.header(Item(2)).unwrap().total, 4);
        assert_eq!(t.header(Item(3)).unwrap().total, 3);
        assert_eq!(t.header(Item(4)).unwrap().total, 1);
    }

    #[test]
    fn thread_links_all_occurrences() {
        let mut t = FpTree::new();
        t.insert_path(&items(&[1, 3]), 1);
        t.insert_path(&items(&[2, 3]), 1);
        t.finish();
        let counts: u64 = t.thread(Item(3)).map(|(_, c)| c).sum();
        assert_eq!(counts, 2);
        assert_eq!(t.thread(Item(3)).count(), 2);
        assert_eq!(t.thread(Item(99)).count(), 0);
    }

    #[test]
    fn prefix_path_is_root_to_parent() {
        let mut t = FpTree::new();
        t.insert_path(&items(&[1, 2, 3]), 1);
        t.finish();
        let (leaf, _) = t.thread(Item(3)).next().unwrap();
        let mut buf = Vec::new();
        t.prefix_path(leaf, &mut buf);
        assert_eq!(buf, items(&[1, 2]));
    }

    #[test]
    fn mining_order_ascending_support() {
        let mut t = FpTree::new();
        t.insert_path(&items(&[1, 2]), 5);
        t.insert_path(&items(&[1]), 1);
        t.insert_path(&items(&[3]), 1);
        t.finish();
        let order = t.mining_order();
        // item 3 (1) before item 2 (5) before item 1 (6)
        assert_eq!(order, &items(&[3, 2, 1])[..]);
    }

    #[test]
    fn single_path_detection() {
        let mut t = FpTree::new();
        t.insert_path(&items(&[1, 2, 3]), 2);
        t.finish();
        assert!(t.is_single_path());
        let p = t.single_path().unwrap();
        assert_eq!(p, vec![(Item(1), 2), (Item(2), 2), (Item(3), 2)]);

        let mut t2 = FpTree::new();
        t2.insert_path(&items(&[1, 2]), 1);
        t2.insert_path(&items(&[1, 3]), 1);
        t2.finish();
        assert!(!t2.is_single_path());
        assert!(t2.single_path().is_none());
    }

    #[test]
    fn empty_tree_is_single_path() {
        let mut t = FpTree::new();
        t.finish();
        assert!(t.is_single_path());
        assert_eq!(t.single_path().unwrap(), vec![]);
    }
}
