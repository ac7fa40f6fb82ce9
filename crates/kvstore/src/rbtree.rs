//! A red-black tree — the paper's data index ("RB-Tree.put(D, A)" in
//! Algorithm 1). Arena-based (indices instead of pointers, no unsafe),
//! keys are `u64`, values generic.

const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Color {
    Red,
    Black,
}

#[derive(Debug, Clone)]
struct Node<V> {
    key: u64,
    value: V,
    color: Color,
    parent: usize,
    left: usize,
    right: usize,
}

/// A red-black tree mapping `u64` keys to values.
#[derive(Debug, Clone)]
pub struct RbTree<V> {
    nodes: Vec<Node<V>>,
    root: usize,
    free: Vec<usize>,
    len: usize,
}

impl<V> Default for RbTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> RbTree<V> {
    /// An empty tree.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            root: NIL,
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn color(&self, x: usize) -> Color {
        if x == NIL {
            Color::Black
        } else {
            self.nodes[x].color
        }
    }

    fn find(&self, key: u64) -> usize {
        let mut cur = self.root;
        while cur != NIL {
            let node = &self.nodes[cur];
            cur = match key.cmp(&node.key) {
                std::cmp::Ordering::Less => node.left,
                std::cmp::Ordering::Greater => node.right,
                std::cmp::Ordering::Equal => return cur,
            };
        }
        NIL
    }

    /// Look up a key.
    pub fn get(&self, key: u64) -> Option<&V> {
        let idx = self.find(key);
        (idx != NIL).then(|| &self.nodes[idx].value)
    }

    /// Look up a key mutably.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let idx = self.find(key);
        (idx != NIL).then(|| &mut self.nodes[idx].value)
    }

    /// Whether a key is present.
    pub fn contains(&self, key: u64) -> bool {
        self.find(key) != NIL
    }

    fn alloc(&mut self, key: u64, value: V, parent: usize) -> usize {
        let node = Node {
            key,
            value,
            color: Color::Red,
            parent,
            left: NIL,
            right: NIL,
        };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn rotate_left(&mut self, x: usize) {
        let y = self.nodes[x].right;
        debug_assert_ne!(y, NIL);
        let y_left = self.nodes[y].left;
        self.nodes[x].right = y_left;
        if y_left != NIL {
            self.nodes[y_left].parent = x;
        }
        let xp = self.nodes[x].parent;
        self.nodes[y].parent = xp;
        if xp == NIL {
            self.root = y;
        } else if self.nodes[xp].left == x {
            self.nodes[xp].left = y;
        } else {
            self.nodes[xp].right = y;
        }
        self.nodes[y].left = x;
        self.nodes[x].parent = y;
    }

    fn rotate_right(&mut self, x: usize) {
        let y = self.nodes[x].left;
        debug_assert_ne!(y, NIL);
        let y_right = self.nodes[y].right;
        self.nodes[x].left = y_right;
        if y_right != NIL {
            self.nodes[y_right].parent = x;
        }
        let xp = self.nodes[x].parent;
        self.nodes[y].parent = xp;
        if xp == NIL {
            self.root = y;
        } else if self.nodes[xp].left == x {
            self.nodes[xp].left = y;
        } else {
            self.nodes[xp].right = y;
        }
        self.nodes[y].right = x;
        self.nodes[x].parent = y;
    }

    /// Insert or replace. Returns the previous value if the key existed.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let mut parent = NIL;
        let mut cur = self.root;
        while cur != NIL {
            parent = cur;
            let node = &self.nodes[cur];
            cur = match key.cmp(&node.key) {
                std::cmp::Ordering::Less => node.left,
                std::cmp::Ordering::Greater => node.right,
                std::cmp::Ordering::Equal => {
                    return Some(std::mem::replace(&mut self.nodes[cur].value, value));
                }
            };
        }
        let idx = self.alloc(key, value, parent);
        if parent == NIL {
            self.root = idx;
        } else if key < self.nodes[parent].key {
            self.nodes[parent].left = idx;
        } else {
            self.nodes[parent].right = idx;
        }
        self.len += 1;
        self.insert_fixup(idx);
        None
    }

    fn insert_fixup(&mut self, mut z: usize) {
        while self.color(self.nodes[z].parent) == Color::Red {
            let p = self.nodes[z].parent;
            let g = self.nodes[p].parent;
            if p == self.nodes[g].left {
                let u = self.nodes[g].right;
                if self.color(u) == Color::Red {
                    self.nodes[p].color = Color::Black;
                    self.nodes[u].color = Color::Black;
                    self.nodes[g].color = Color::Red;
                    z = g;
                } else {
                    if z == self.nodes[p].right {
                        z = p;
                        self.rotate_left(z);
                    }
                    let p = self.nodes[z].parent;
                    let g = self.nodes[p].parent;
                    self.nodes[p].color = Color::Black;
                    self.nodes[g].color = Color::Red;
                    self.rotate_right(g);
                }
            } else {
                let u = self.nodes[g].left;
                if self.color(u) == Color::Red {
                    self.nodes[p].color = Color::Black;
                    self.nodes[u].color = Color::Black;
                    self.nodes[g].color = Color::Red;
                    z = g;
                } else {
                    if z == self.nodes[p].left {
                        z = p;
                        self.rotate_right(z);
                    }
                    let p = self.nodes[z].parent;
                    let g = self.nodes[p].parent;
                    self.nodes[p].color = Color::Black;
                    self.nodes[g].color = Color::Red;
                    self.rotate_left(g);
                }
            }
        }
        let root = self.root;
        self.nodes[root].color = Color::Black;
    }

    fn minimum(&self, mut x: usize) -> usize {
        while self.nodes[x].left != NIL {
            x = self.nodes[x].left;
        }
        x
    }

    fn transplant(&mut self, u: usize, v: usize) {
        let up = self.nodes[u].parent;
        if up == NIL {
            self.root = v;
        } else if self.nodes[up].left == u {
            self.nodes[up].left = v;
        } else {
            self.nodes[up].right = v;
        }
        if v != NIL {
            self.nodes[v].parent = up;
        }
    }

    /// Remove a key, returning its value if present.
    pub fn remove(&mut self, key: u64) -> Option<V>
    where
        V: Default,
    {
        let z = self.find(key);
        if z == NIL {
            return None;
        }
        let mut fix_parent;
        let (mut x, y_original_color);
        let y;
        if self.nodes[z].left == NIL {
            x = self.nodes[z].right;
            fix_parent = self.nodes[z].parent;
            y_original_color = self.nodes[z].color;
            self.transplant(z, x);
        } else if self.nodes[z].right == NIL {
            x = self.nodes[z].left;
            fix_parent = self.nodes[z].parent;
            y_original_color = self.nodes[z].color;
            self.transplant(z, x);
        } else {
            y = self.minimum(self.nodes[z].right);
            y_original_color = self.nodes[y].color;
            x = self.nodes[y].right;
            if self.nodes[y].parent == z {
                fix_parent = y;
            } else {
                fix_parent = self.nodes[y].parent;
                self.transplant(y, x);
                let zr = self.nodes[z].right;
                self.nodes[y].right = zr;
                self.nodes[zr].parent = y;
            }
            self.transplant(z, y);
            let zl = self.nodes[z].left;
            self.nodes[y].left = zl;
            self.nodes[zl].parent = y;
            self.nodes[y].color = self.nodes[z].color;
        }
        let value = std::mem::take(&mut self.nodes[z].value);
        self.free.push(z);
        self.len -= 1;
        if y_original_color == Color::Black {
            self.delete_fixup(&mut x, &mut fix_parent);
        }
        Some(value)
    }

    fn delete_fixup(&mut self, x: &mut usize, parent: &mut usize) {
        while *x != self.root && self.color(*x) == Color::Black {
            let p = *parent;
            if p == NIL {
                break;
            }
            if *x == self.nodes[p].left {
                let mut w = self.nodes[p].right;
                if self.color(w) == Color::Red {
                    self.nodes[w].color = Color::Black;
                    self.nodes[p].color = Color::Red;
                    self.rotate_left(p);
                    w = self.nodes[p].right;
                }
                if self.color(self.nodes[w].left) == Color::Black
                    && self.color(self.nodes[w].right) == Color::Black
                {
                    self.nodes[w].color = Color::Red;
                    *x = p;
                    *parent = self.nodes[p].parent;
                } else {
                    if self.color(self.nodes[w].right) == Color::Black {
                        let wl = self.nodes[w].left;
                        if wl != NIL {
                            self.nodes[wl].color = Color::Black;
                        }
                        self.nodes[w].color = Color::Red;
                        self.rotate_right(w);
                        w = self.nodes[p].right;
                    }
                    self.nodes[w].color = self.nodes[p].color;
                    self.nodes[p].color = Color::Black;
                    let wr = self.nodes[w].right;
                    if wr != NIL {
                        self.nodes[wr].color = Color::Black;
                    }
                    self.rotate_left(p);
                    *x = self.root;
                    *parent = NIL;
                }
            } else {
                let mut w = self.nodes[p].left;
                if self.color(w) == Color::Red {
                    self.nodes[w].color = Color::Black;
                    self.nodes[p].color = Color::Red;
                    self.rotate_right(p);
                    w = self.nodes[p].left;
                }
                if self.color(self.nodes[w].right) == Color::Black
                    && self.color(self.nodes[w].left) == Color::Black
                {
                    self.nodes[w].color = Color::Red;
                    *x = p;
                    *parent = self.nodes[p].parent;
                } else {
                    if self.color(self.nodes[w].left) == Color::Black {
                        let wr = self.nodes[w].right;
                        if wr != NIL {
                            self.nodes[wr].color = Color::Black;
                        }
                        self.nodes[w].color = Color::Red;
                        self.rotate_left(w);
                        w = self.nodes[p].left;
                    }
                    self.nodes[w].color = self.nodes[p].color;
                    self.nodes[p].color = Color::Black;
                    let wl = self.nodes[w].left;
                    if wl != NIL {
                        self.nodes[wl].color = Color::Black;
                    }
                    self.rotate_right(p);
                    *x = self.root;
                    *parent = NIL;
                }
            }
        }
        if *x != NIL {
            self.nodes[*x].color = Color::Black;
        }
    }

    /// In-order iteration over `(key, &value)` pairs with keys in
    /// `[lo, hi]`.
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, &V)> {
        let mut out = Vec::new();
        self.range_rec(self.root, lo, hi, &mut out);
        out
    }

    fn range_rec<'a>(&'a self, x: usize, lo: u64, hi: u64, out: &mut Vec<(u64, &'a V)>) {
        if x == NIL {
            return;
        }
        let node = &self.nodes[x];
        if node.key > lo {
            self.range_rec(node.left, lo, hi, out);
        }
        if node.key >= lo && node.key <= hi {
            out.push((node.key, &node.value));
        }
        if node.key < hi {
            self.range_rec(node.right, lo, hi, out);
        }
    }

    /// All keys in order (diagnostics/tests).
    pub fn keys(&self) -> Vec<u64> {
        self.range(0, u64::MAX)
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    }

    /// Validate the red-black invariants: root is black, no red node has
    /// a red child, and every root-to-leaf path has the same black
    /// height. Returns the black height.
    pub fn check_invariants(&self) -> Result<usize, String> {
        if self.root != NIL && self.nodes[self.root].color != Color::Black {
            return Err("root is red".into());
        }
        self.check_rec(self.root, u64::MIN, u64::MAX)
    }

    fn check_rec(&self, x: usize, lo: u64, hi: u64) -> Result<usize, String> {
        if x == NIL {
            return Ok(1);
        }
        let node = &self.nodes[x];
        if node.key < lo || node.key > hi {
            return Err(format!("BST violation at key {}", node.key));
        }
        if node.color == Color::Red
            && (self.color(node.left) == Color::Red || self.color(node.right) == Color::Red)
        {
            return Err(format!("red-red violation at key {}", node.key));
        }
        let lh = self.check_rec(node.left, lo, node.key.saturating_sub(1))?;
        let rh = self.check_rec(node.right, node.key.saturating_add(1), hi)?;
        if lh != rh {
            return Err(format!("black-height mismatch at key {}", node.key));
        }
        Ok(lh + usize::from(node.color == Color::Black))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[test]
    fn insert_get_basic() {
        let mut t = RbTree::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(5, "five"), None);
        assert_eq!(t.insert(3, "three"), None);
        assert_eq!(t.insert(8, "eight"), None);
        assert_eq!(t.get(3), Some(&"three"));
        assert_eq!(t.get(9), None);
        assert_eq!(t.insert(3, "THREE"), Some("three"));
        assert_eq!(t.len(), 3);
        t.check_invariants().unwrap();
    }

    #[test]
    fn sequential_insert_stays_balanced() {
        let mut t = RbTree::new();
        for k in 0..1000u64 {
            t.insert(k, k * 2);
            if k % 100 == 0 {
                t.check_invariants().unwrap();
            }
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 1000);
        assert_eq!(t.keys(), (0..1000).collect::<Vec<_>>());
        // Black height of a balanced 1000-node RB tree is small.
        let bh = t.check_invariants().unwrap();
        assert!(bh <= 12, "black height {bh}");
    }

    #[test]
    fn random_insert_delete_stress() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut t = RbTree::new();
        let mut keys: Vec<u64> = (0..500).collect();
        keys.shuffle(&mut rng);
        for &k in &keys {
            t.insert(k, k as i64);
        }
        t.check_invariants().unwrap();
        keys.shuffle(&mut rng);
        let mut expected: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
        for (i, &k) in keys.iter().take(300).enumerate() {
            assert_eq!(t.remove(k), Some(k as i64), "remove {k}");
            expected.remove(&k);
            if i % 25 == 0 {
                t.check_invariants()
                    .unwrap_or_else(|e| panic!("after removing {k}: {e}"));
            }
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 200);
        assert_eq!(t.keys(), expected.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn remove_absent_returns_none() {
        let mut t: RbTree<i32> = RbTree::new();
        t.insert(1, 1);
        assert_eq!(t.remove(99), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn range_query() {
        let mut t = RbTree::new();
        for k in [10u64, 20, 30, 40, 50] {
            t.insert(k, k);
        }
        let got: Vec<u64> = t.range(15, 45).into_iter().map(|(k, _)| k).collect();
        assert_eq!(got, vec![20, 30, 40]);
        assert!(t.range(60, 70).is_empty());
        let all: Vec<u64> = t.range(0, u64::MAX).into_iter().map(|(k, _)| k).collect();
        assert_eq!(all, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn arena_reuse_after_delete() {
        let mut t = RbTree::new();
        for k in 0..100u64 {
            t.insert(k, ());
        }
        let cap = t.nodes.len();
        for k in 0..100u64 {
            t.remove(k);
        }
        for k in 100..200u64 {
            t.insert(k, ());
        }
        assert_eq!(t.nodes.len(), cap, "arena should reuse freed slots");
        t.check_invariants().unwrap();
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = RbTree::new();
        t.insert(7, vec![1u8]);
        t.get_mut(7).unwrap().push(2);
        assert_eq!(t.get(7), Some(&vec![1u8, 2]));
    }
}
