//! Index-arena FP-tree (Han et al.), the compact prefix-tree representation
//! FP-Growth mines (thesis §5.2 uses "FP-Growth trees for closed item-set and
//! rule generation").
//!
//! Nodes live in a flat `Vec` and refer to each other by index — the arena
//! pattern the performance guide recommends over `Rc<RefCell<…>>` trees.
//! Every table is dense: a tree numbers its items `0..k` in insertion order
//! (support descending, then item id ascending), and the header totals, the
//! thread heads and the root's children are `Vec`s indexed by that number,
//! so neither building nor mining a tree hashes anything. A tree is reset
//! and refilled rather than dropped, so the conditional trees of one
//! recursion depth share one set of buffers.

use crate::items::Item;

/// Index of a node inside the arena. `NONE` marks a null link.
type NodeId = u32;
const NONE: NodeId = u32::MAX;
/// The root is always node 0.
const ROOT: NodeId = 0;

/// One FP-tree node.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The tree-local number of this node's item (undefined for the root).
    item: u32,
    /// Number of transactions sharing the path down to this node.
    count: u64,
    /// Parent node (`NONE` for the root).
    parent: NodeId,
    /// Next node carrying the same item (the item's thread).
    next_same_item: NodeId,
    /// Most recently created child.
    first_child: NodeId,
    /// Next child of the same parent.
    next_sibling: NodeId,
}

const ROOT_NODE: Node = Node {
    item: u32::MAX,
    count: 0,
    parent: NONE,
    next_same_item: NONE,
    first_child: NONE,
    next_sibling: NONE,
};

/// An FP-tree over items numbered `0..k` in insertion order.
///
/// Paths are inserted as ascending local numbers, so they share maximal
/// prefixes. FP-Growth peels items off in reverse insertion order: the
/// least frequent item first.
#[derive(Debug, Default)]
pub(crate) struct FpTree {
    /// Local number → item.
    items: Vec<Item>,
    /// Local number → sum of the counts of the item's nodes.
    totals: Vec<u64>,
    /// Local number → first node of the item's thread.
    heads: Vec<NodeId>,
    /// Local number → the root's child carrying that item.
    root_children: Vec<NodeId>,
    nodes: Vec<Node>,
    /// Whether some node (the root included) has two children.
    branched: bool,
}

impl FpTree {
    /// Empties the tree and numbers `items` `0..k` in the given order,
    /// keeping every buffer's capacity.
    pub(crate) fn reset(&mut self, items: impl IntoIterator<Item = Item>) {
        self.items.clear();
        self.items.extend(items);
        let k = self.items.len();
        self.totals.clear();
        self.totals.resize(k, 0);
        self.heads.clear();
        self.heads.resize(k, NONE);
        self.root_children.clear();
        self.root_children.resize(k, NONE);
        self.nodes.clear();
        self.nodes.push(ROOT_NODE);
        self.branched = false;
    }

    /// Number of distinct items `k`.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// The item with local number `l`.
    #[inline]
    pub(crate) fn item(&self, l: usize) -> Item {
        self.items[l]
    }

    /// The total count of the item with local number `l`.
    #[inline]
    pub(crate) fn total(&self, l: usize) -> u64 {
        self.totals[l]
    }

    /// The prefix paths of local item `l`, one per node of its thread,
    /// newest node first: the node's count and the local numbers on the
    /// path from its parent up to the root, each smaller than `l`.
    #[inline]
    pub(crate) fn prefix_paths(
        &self,
        l: usize,
    ) -> impl Iterator<Item = (u64, impl Iterator<Item = u32> + '_)> + '_ {
        let mut node = self.heads[l];
        std::iter::from_fn(move || {
            if node == NONE {
                return None;
            }
            let n = &self.nodes[node as usize];
            node = n.next_same_item;
            let mut up = n.parent;
            let path = std::iter::from_fn(move || {
                if up == ROOT {
                    return None;
                }
                let u = &self.nodes[up as usize];
                up = u.parent;
                Some(u.item)
            });
            Some((n.count, path))
        })
    }

    /// Whether the tree is one chain from the root (no node has two
    /// children). Its chain then holds every item once, in local order,
    /// each with its total as the node count.
    #[inline]
    pub(crate) fn is_single_path(&self) -> bool {
        !self.branched
    }

    /// Inserts one path of strictly ascending local numbers with
    /// multiplicity `count`.
    pub(crate) fn insert(&mut self, path: &[u32], count: u64) {
        let mut cur = ROOT;
        // Once a node is created, the rest of the path is new as well.
        let mut fresh = false;
        for &l in path {
            self.totals[l as usize] += count;
            if !fresh {
                let child =
                    if cur == ROOT { self.root_children[l as usize] } else { self.child(cur, l) };
                if child != NONE {
                    self.nodes[child as usize].count += count;
                    cur = child;
                    continue;
                }
                fresh = true;
            }
            let id = self.nodes.len() as NodeId;
            let parent = &mut self.nodes[cur as usize];
            self.branched |= parent.first_child != NONE;
            let next_sibling = std::mem::replace(&mut parent.first_child, id);
            self.nodes.push(Node {
                item: l,
                count,
                parent: cur,
                next_same_item: self.heads[l as usize],
                first_child: NONE,
                next_sibling,
            });
            self.heads[l as usize] = id;
            if cur == ROOT {
                self.root_children[l as usize] = id;
            }
            cur = id;
        }
    }

    /// The child of `node` carrying local item `l`, or `NONE`.
    #[inline]
    fn child(&self, node: NodeId, l: u32) -> NodeId {
        let mut c = self.nodes[node as usize].first_child;
        while c != NONE {
            let n = &self.nodes[c as usize];
            if n.item == l {
                return c;
            }
            c = n.next_sibling;
        }
        NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(items: &[u32], paths: &[(&[u32], u64)]) -> FpTree {
        let mut t = FpTree::default();
        t.reset(items.iter().map(|&i| Item(i)));
        for &(p, c) in paths {
            t.insert(p, c);
        }
        t
    }

    /// Every prefix path of local item `l`, as `(count, path)`.
    fn prefix_paths(t: &FpTree, l: usize) -> Vec<(u64, Vec<u32>)> {
        t.prefix_paths(l).map(|(count, path)| (count, path.collect())).collect()
    }

    #[test]
    fn insert_shares_prefixes() {
        let t = tree(&[1, 2, 3, 4], &[(&[0, 1, 2], 1), (&[0, 1, 3], 1), (&[0, 1, 2], 2)]);
        // root + 1,2,3,4 = 5 nodes
        assert_eq!(t.nodes.len(), 5);
        assert_eq!((t.total(0), t.total(1), t.total(2), t.total(3)), (4, 4, 3, 1));
        assert_eq!(t.item(3), Item(4));
        assert!(!t.is_single_path());
        // Item 2's one node sits under the shared prefix 0, 1.
        assert_eq!(prefix_paths(&t, 2), vec![(3, vec![1, 0])]);
    }

    #[test]
    fn thread_links_all_occurrences() {
        let t = tree(&[1, 2, 3], &[(&[0, 2], 1), (&[1, 2], 1)]);
        // Newest node first: the second path's, under item 1.
        assert_eq!(prefix_paths(&t, 2), vec![(1, vec![1]), (1, vec![0])]);
        // A root child's prefix path is empty.
        assert_eq!(prefix_paths(&t, 0), vec![(1, vec![])]);
    }

    #[test]
    fn reset_reuses_the_tree() {
        let mut t = tree(&[1, 2], &[(&[0], 1), (&[1], 1)]);
        assert!(!t.is_single_path(), "two root children branch");
        t.reset([Item(7)]);
        t.insert(&[0], 3);
        assert_eq!((t.len(), t.total(0), t.nodes.len()), (1, 3, 2));
        assert!(t.is_single_path());
        assert_eq!(prefix_paths(&t, 0), vec![(3, vec![])]);
    }

    #[test]
    fn single_path_is_the_items_in_local_order() {
        let t = tree(&[5, 3, 9], &[(&[0, 1], 2), (&[0, 1, 2], 1), (&[0], 1)]);
        assert!(t.is_single_path());
        // Each item has one node, below every smaller local number, with
        // its total as the count.
        for l in 0..t.len() {
            assert_eq!(prefix_paths(&t, l), vec![(t.total(l), (0..l as u32).rev().collect())]);
        }
        assert_eq!((t.total(0), t.total(1), t.total(2)), (4, 3, 1));
    }

    #[test]
    fn deep_branch_is_detected() {
        let t = tree(&[1, 2, 3], &[(&[0, 1], 1), (&[0, 2], 1)]);
        assert!(!t.is_single_path());
        let empty = tree(&[], &[]);
        assert!(empty.is_single_path());
        assert_eq!(empty.len(), 0);
    }
}
