//! A B+-tree over the paged store.
//!
//! This is the workhorse behind every mutable structure in the SVR system:
//! the Score table, the ListScore/ListChunk tables, the short inverted lists
//! and the Score method's clustered long inverted list — the same mapping the
//! paper uses onto BerkeleyDB B+-trees (§5.2).
//!
//! Keys and values are arbitrary byte strings (compared lexicographically);
//! splits and rebalancing are driven by *byte* occupancy rather than entry
//! counts so that variable-length composite keys pack pages well.

mod node;

pub use node::Node;

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::codec::read_array;
use crate::error::{Result, StorageError};
use crate::page::PageId;
use crate::pool::Store;

struct TreeState {
    root: PageId,
    len: u64,
}

/// Maximum decoded nodes kept in the per-tree node cache.
const NODE_CACHE_CAP: usize = 16 * 1024;

/// A byte-ordered B+-tree.
pub struct BTree {
    store: Arc<Store>,
    state: Mutex<TreeState>,
    page_size: usize,
    /// Decoded-node cache: avoids re-parsing a page on every access, the
    /// same role InnoDB/SQLite's parsed-page caches play. Write-through
    /// (updated on every node write); cleared alongside the page cache by
    /// [`BTree::clear_caches`] so cold-cache measurements stay honest.
    node_cache: Mutex<HashMap<PageId, Arc<Node>>>,
    /// Durable trees persist their root pointer here so they can be
    /// [`BTree::reopen`]ed after a crash; `None` for plain trees.
    meta_page: Option<PageId>,
}

/// Magic prefix of a durable tree's metadata page.
const META_MAGIC: &[u8; 8] = b"BTMETA01";

/// Outcome of a recursive insert at one level.
enum InsertResult {
    /// No structural change; previous value (if the key existed) returned.
    Done(Option<Vec<u8>>),
    /// The child split: `(separator, new_right_page)` must be added to the
    /// parent. Previous value still reported.
    Split(Option<Vec<u8>>, Vec<u8>, PageId),
}

impl BTree {
    /// Create an empty tree in `store`.
    pub fn create(store: Arc<Store>) -> Result<BTree> {
        let page_size = store.page_size();
        let root = store.allocate()?;
        store.write_page(root, Node::empty_leaf().encode(page_size))?;
        Ok(BTree {
            store,
            state: Mutex::new(TreeState { root, len: 0 }),
            page_size,
            node_cache: Mutex::new(HashMap::new()),
            meta_page: None,
        })
    }

    /// Create an empty *durable* tree: its root pointer is persisted on a
    /// metadata page so the tree can be [`BTree::reopen`]ed after a crash
    /// (pair with [`Store::new_logged`] and [`Store::recover`]).
    pub fn create_durable(store: Arc<Store>) -> Result<BTree> {
        let page_size = store.page_size();
        let meta = store.allocate()?;
        let root = store.allocate()?;
        store.write_page(root, Node::empty_leaf().encode(page_size))?;
        let tree = BTree {
            store,
            state: Mutex::new(TreeState { root, len: 0 }),
            page_size,
            node_cache: Mutex::new(HashMap::new()),
            meta_page: Some(meta),
        };
        tree.write_meta(root)?;
        tree.store.log_commit()?;
        Ok(tree)
    }

    /// Reopen a durable tree from its metadata page (e.g. after
    /// [`Store::recover`]). The entry count is rebuilt with one leaf-chain
    /// scan.
    pub fn reopen(store: Arc<Store>, meta_page: PageId) -> Result<BTree> {
        let page_size = store.page_size();
        let meta = store.read_page(meta_page)?;
        if meta.len() < META_MAGIC.len() + 8 || &meta[..8] != META_MAGIC {
            return Err(StorageError::Corrupt("bad B+-tree metadata page"));
        }
        let root = PageId::from_le_bytes(read_array(&meta, 8));
        let tree = BTree {
            store,
            state: Mutex::new(TreeState { root, len: 0 }),
            page_size,
            node_cache: Mutex::new(HashMap::new()),
            meta_page: Some(meta_page),
        };
        let mut len = 0u64;
        {
            let mut cursor = tree.cursor(&[])?;
            while cursor.next_entry()?.is_some() {
                len += 1;
            }
        }
        tree.state.lock().len = len;
        Ok(tree)
    }

    /// The metadata page of a durable tree (`None` for plain trees).
    pub fn meta_page(&self) -> Option<PageId> {
        self.meta_page
    }

    /// Persist the root pointer of a durable tree; no-op otherwise.
    fn write_meta(&self, root: PageId) -> Result<()> {
        if let Some(meta) = self.meta_page {
            let mut page = Vec::with_capacity(16);
            page.extend_from_slice(META_MAGIC);
            page.extend_from_slice(&root.to_le_bytes());
            self.store.write_page(meta, bytes::Bytes::from(page))?;
        }
        Ok(())
    }

    /// Largest key+value size this tree accepts. A quarter page guarantees a
    /// node can always hold at least two entries post-split.
    pub fn max_entry_size(&self) -> usize {
        self.page_size / 4
    }

    /// Number of live entries.
    pub fn len(&self) -> u64 {
        self.state.lock().len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Underlying store (shared with other structures).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    fn read_node(&self, page: PageId) -> Result<Arc<Node>> {
        if let Some(node) = self.node_cache.lock().get(&page) {
            return Ok(node.clone());
        }
        let node = Arc::new(Node::decode(&self.store.read_page(page)?)?);
        let mut cache = self.node_cache.lock();
        if cache.len() >= NODE_CACHE_CAP {
            cache.clear();
        }
        cache.insert(page, node.clone());
        Ok(node)
    }

    fn write_node(&self, page: PageId, node: &Node) -> Result<()> {
        self.store.write_page(page, node.encode(self.page_size))?;
        let mut cache = self.node_cache.lock();
        if cache.len() >= NODE_CACHE_CAP {
            cache.clear();
        }
        cache.insert(page, Arc::new(node.clone()));
        Ok(())
    }

    /// Drop both the decoded-node cache and the underlying page cache —
    /// the cold-cache protocol for trees that serve as long lists (the
    /// Score method's clustered list).
    pub fn clear_caches(&self) -> Result<()> {
        self.node_cache.lock().clear();
        self.store.clear_cache()
    }

    /// Child index covering `key` for a separator list: the number of
    /// separators `<= key`.
    fn child_index(keys: &[Vec<u8>], key: &[u8]) -> usize {
        keys.partition_point(|k| k.as_slice() <= key)
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut page = self.state.lock().root;
        loop {
            match &*self.read_node(page)? {
                Node::Internal { keys, children } => {
                    page = children[Self::child_index(keys, key)];
                }
                Node::Leaf { entries, .. } => {
                    return Ok(entries
                        .binary_search_by(|(k, _)| k.as_slice().cmp(key))
                        .ok()
                        .map(|i| entries[i].1.clone()));
                }
            }
        }
    }

    /// True if `key` is present.
    pub fn contains(&self, key: &[u8]) -> Result<bool> {
        Ok(self.get(key)?.is_some())
    }

    /// Insert or replace. Returns the previous value if the key existed.
    pub fn put(&self, key: &[u8], val: &[u8]) -> Result<Option<Vec<u8>>> {
        if key.len() + val.len() > self.max_entry_size() {
            return Err(StorageError::EntryTooLarge {
                key_len: key.len(),
                val_len: val.len(),
                max: self.max_entry_size(),
            });
        }
        let mut state = self.state.lock();
        let root = state.root;
        let result = self.insert_rec(root, key, val)?;
        let prev = match result {
            InsertResult::Done(prev) => prev,
            InsertResult::Split(prev, sep, right) => {
                // Grow the tree: new root above the old one.
                let new_root = self.store.allocate()?;
                let node = Node::Internal {
                    keys: vec![sep],
                    children: vec![root, right],
                };
                self.write_node(new_root, &node)?;
                state.root = new_root;
                self.write_meta(new_root)?;
                prev
            }
        };
        if prev.is_none() {
            state.len += 1;
        }
        self.store.log_commit()?;
        Ok(prev)
    }

    fn insert_rec(&self, page: PageId, key: &[u8], val: &[u8]) -> Result<InsertResult> {
        match (*self.read_node(page)?).clone() {
            Node::Leaf { mut entries, next } => {
                let prev = match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => Some(std::mem::replace(&mut entries[i].1, val.to_vec())),
                    Err(i) => {
                        entries.insert(i, (key.to_vec(), val.to_vec()));
                        None
                    }
                };
                let node = Node::Leaf { entries, next };
                if node.byte_size() <= self.page_size {
                    self.write_node(page, &node)?;
                    return Ok(InsertResult::Done(prev));
                }
                let (left, sep, right_page) = self.split_leaf(node)?;
                self.write_node(page, &left)?;
                Ok(InsertResult::Split(prev, sep, right_page))
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = Self::child_index(&keys, key);
                match self.insert_rec(children[idx], key, val)? {
                    InsertResult::Done(prev) => Ok(InsertResult::Done(prev)),
                    InsertResult::Split(prev, sep, right) => {
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        let node = Node::Internal { keys, children };
                        if node.byte_size() <= self.page_size {
                            self.write_node(page, &node)?;
                            return Ok(InsertResult::Done(prev));
                        }
                        let (left, sep, right_page) = self.split_internal(node)?;
                        self.write_node(page, &left)?;
                        Ok(InsertResult::Split(prev, sep, right_page))
                    }
                }
            }
        }
    }

    /// Split an oversized leaf at the byte midpoint. Returns the rewritten
    /// left node, the separator (first key of the right node) and the page id
    /// of the newly allocated right node.
    fn split_leaf(&self, node: Node) -> Result<(Node, Vec<u8>, PageId)> {
        let (entries, next) = match node {
            Node::Leaf { entries, next } => (entries, next),
            _ => unreachable!("split_leaf on internal node"),
        };
        let total: usize = entries
            .iter()
            .map(|(k, v)| node::LEAF_ENTRY_OVERHEAD + k.len() + v.len())
            .sum();
        let mut acc = 0usize;
        let mut split_at = entries.len() - 1;
        for (i, (k, v)) in entries.iter().enumerate() {
            acc += node::LEAF_ENTRY_OVERHEAD + k.len() + v.len();
            if acc * 2 >= total {
                split_at = i + 1;
                break;
            }
        }
        // Both halves must be non-empty.
        let split_at = split_at.clamp(1, entries.len() - 1);
        let mut left_entries = entries;
        let right_entries = left_entries.split_off(split_at);
        let sep = right_entries[0].0.clone();
        let right_page = self.store.allocate()?;
        let right = Node::Leaf {
            entries: right_entries,
            next,
        };
        self.write_node(right_page, &right)?;
        let left = Node::Leaf {
            entries: left_entries,
            next: Some(right_page),
        };
        Ok((left, sep, right_page))
    }

    /// Split an oversized internal node; the middle key is promoted.
    fn split_internal(&self, node: Node) -> Result<(Node, Vec<u8>, PageId)> {
        let (keys, children) = match node {
            Node::Internal { keys, children } => (keys, children),
            _ => unreachable!("split_internal on leaf"),
        };
        let total: usize = keys
            .iter()
            .map(|k| node::INTERNAL_KEY_OVERHEAD + k.len() + 8)
            .sum();
        let mut acc = 0usize;
        let mut mid = keys.len() / 2;
        for (i, k) in keys.iter().enumerate() {
            acc += node::INTERNAL_KEY_OVERHEAD + k.len() + 8;
            if acc * 2 >= total {
                mid = i;
                break;
            }
        }
        // Keep at least one key on each side of the promoted separator.
        let mid = mid.clamp(1, keys.len() - 2.min(keys.len() - 1));
        let mut left_keys = keys;
        let mut right_keys = left_keys.split_off(mid);
        let sep = right_keys.remove(0);
        let mut left_children = children;
        let right_children = left_children.split_off(mid + 1);
        let right_page = self.store.allocate()?;
        self.write_node(
            right_page,
            &Node::Internal {
                keys: right_keys,
                children: right_children,
            },
        )?;
        let left = Node::Internal {
            keys: left_keys,
            children: left_children,
        };
        Ok((left, sep, right_page))
    }

    /// Remove a key. Returns the removed value if present.
    pub fn delete(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut state = self.state.lock();
        let root = state.root;
        let removed = self.delete_rec(root, key)?;
        if removed.is_some() {
            state.len -= 1;
        }
        // Collapse the root if it became a single-child internal node.
        if let Node::Internal { keys, children } = &*self.read_node(state.root)? {
            if keys.is_empty() {
                let old_root = state.root;
                state.root = children[0];
                self.node_cache.lock().remove(&old_root);
                self.store.free_page(old_root);
                self.write_meta(state.root)?;
            }
        }
        self.store.log_commit()?;
        Ok(removed)
    }

    /// Remove every entry in O(pages): free every page of the tree (only
    /// internal nodes are read, to find their children), then start over
    /// from one empty root leaf — persisted, with the metadata page, under
    /// a single commit. The freed pages keep their bytes, so a clear inside
    /// a [`WalBatch`](crate::WalBatch) that never seals recovers the whole
    /// old tree.
    pub fn clear(&self) -> Result<()> {
        let mut state = self.state.lock();
        // Every leaf sits at the same depth, so heights tell leaves apart
        // without reading them.
        let mut pages = vec![(state.root, self.height(state.root)?)];
        while let Some((page, height)) = pages.pop() {
            if height > 0 {
                if let Node::Internal { children, .. } = &*self.read_node(page)? {
                    pages.extend(children.iter().map(|&child| (child, height - 1)));
                }
            }
            self.store.free_page(page);
        }
        self.node_cache.lock().clear();
        let root = self.store.allocate()?;
        self.write_node(root, &Node::empty_leaf())?;
        self.write_meta(root)?;
        *state = TreeState { root, len: 0 };
        self.store.log_commit()
    }

    fn delete_rec(&self, page: PageId, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match (*self.read_node(page)?).clone() {
            Node::Leaf { mut entries, next } => {
                match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => {
                        let (_, val) = entries.remove(i);
                        self.write_node(page, &Node::Leaf { entries, next })?;
                        Ok(Some(val))
                    }
                    Err(_) => Ok(None),
                }
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = Self::child_index(&keys, key);
                let removed = self.delete_rec(children[idx], key)?;
                if removed.is_some() {
                    let child = (*self.read_node(children[idx])?).clone();
                    if child.is_underfull(self.page_size) {
                        self.rebalance_child(&mut keys, &mut children, idx, child)?;
                        self.write_node(page, &Node::Internal { keys, children })?;
                    }
                }
                Ok(removed)
            }
        }
    }

    /// Fix an underfull child by borrowing from or merging with a sibling.
    fn rebalance_child(
        &self,
        keys: &mut Vec<Vec<u8>>,
        children: &mut Vec<PageId>,
        idx: usize,
        child: Node,
    ) -> Result<()> {
        // Work on the (left, right) pair where `left_idx` is the separator
        // index between them; prefer the right sibling.
        let (left_idx, left_page, right_page, left_node, right_node) = if idx + 1 < children.len() {
            let sibling = (*self.read_node(children[idx + 1])?).clone();
            (idx, children[idx], children[idx + 1], child, sibling)
        } else if idx > 0 {
            let sibling = (*self.read_node(children[idx - 1])?).clone();
            (idx - 1, children[idx - 1], children[idx], sibling, child)
        } else {
            // Only child: nothing to rebalance against (root handles this).
            return Ok(());
        };

        let merged_size = left_node.byte_size() + right_node.byte_size() - node::NODE_HEADER
            + keys[left_idx].len()
            + node::INTERNAL_KEY_OVERHEAD
            + 8;
        // Leaves merge without absorbing the separator, so the plain sum is a
        // safe (over-)estimate for them and exact-ish for internals.
        if merged_size <= self.page_size {
            self.merge_siblings(
                keys, children, left_idx, left_page, right_page, left_node, right_node,
            )
        } else {
            self.borrow_between(keys, left_idx, left_page, right_page, left_node, right_node)
        }
    }

    #[allow(clippy::too_many_arguments)] // the sibling-merge tuple is clearer spelled out
    fn merge_siblings(
        &self,
        keys: &mut Vec<Vec<u8>>,
        children: &mut Vec<PageId>,
        left_idx: usize,
        left_page: PageId,
        right_page: PageId,
        left_node: Node,
        right_node: Node,
    ) -> Result<()> {
        let merged = match (left_node, right_node) {
            (
                Node::Leaf {
                    entries: mut le, ..
                },
                Node::Leaf { entries: re, next },
            ) => {
                le.extend(re);
                Node::Leaf { entries: le, next }
            }
            (
                Node::Internal {
                    keys: mut lk,
                    children: mut lc,
                },
                Node::Internal {
                    keys: rk,
                    children: rc,
                },
            ) => {
                lk.push(keys[left_idx].clone());
                lk.extend(rk);
                lc.extend(rc);
                Node::Internal {
                    keys: lk,
                    children: lc,
                }
            }
            _ => return Err(StorageError::Corrupt("sibling level mismatch")),
        };
        self.write_node(left_page, &merged)?;
        self.node_cache.lock().remove(&right_page);
        self.store.free_page(right_page);
        keys.remove(left_idx);
        children.remove(left_idx + 1);
        Ok(())
    }

    fn borrow_between(
        &self,
        keys: &mut [Vec<u8>],
        left_idx: usize,
        left_page: PageId,
        right_page: PageId,
        left_node: Node,
        right_node: Node,
    ) -> Result<()> {
        match (left_node, right_node) {
            (
                Node::Leaf {
                    entries: mut le,
                    next: ln,
                },
                Node::Leaf {
                    entries: mut re,
                    next: rn,
                },
            ) => {
                // Shift entries across until both sides are above the
                // underflow threshold (possible because together they exceed
                // one page).
                let underfull = |entries: &Vec<(Vec<u8>, Vec<u8>)>| {
                    Node::Leaf {
                        entries: entries.clone(),
                        next: None,
                    }
                    .is_underfull(self.page_size)
                };
                while underfull(&le) && re.len() > 1 {
                    le.push(re.remove(0));
                }
                while underfull(&re) && le.len() > 1 {
                    let Some(entry) = le.pop() else { break };
                    re.insert(0, entry);
                }
                keys[left_idx] = re[0].0.clone();
                self.write_node(
                    left_page,
                    &Node::Leaf {
                        entries: le,
                        next: ln,
                    },
                )?;
                self.write_node(
                    right_page,
                    &Node::Leaf {
                        entries: re,
                        next: rn,
                    },
                )?;
                Ok(())
            }
            (
                Node::Internal {
                    keys: mut lk,
                    children: mut lc,
                },
                Node::Internal {
                    keys: mut rk,
                    children: mut rc,
                },
            ) => {
                let size = |keys: &Vec<Vec<u8>>, children: &Vec<PageId>| {
                    Node::Internal {
                        keys: keys.clone(),
                        children: children.clone(),
                    }
                    .byte_size()
                };
                while size(&lk, &lc) < self.page_size / 4 && rk.len() > 1 {
                    // Rotate left: separator comes down, right's first key
                    // goes up.
                    lk.push(std::mem::replace(&mut keys[left_idx], rk.remove(0)));
                    lc.push(rc.remove(0));
                }
                while size(&rk, &rc) < self.page_size / 4 && lk.len() > 1 {
                    // Rotate right.
                    let (Some(k), Some(c)) = (lk.pop(), lc.pop()) else {
                        break;
                    };
                    rk.insert(0, std::mem::replace(&mut keys[left_idx], k));
                    rc.insert(0, c);
                }
                self.write_node(
                    left_page,
                    &Node::Internal {
                        keys: lk,
                        children: lc,
                    },
                )?;
                self.write_node(
                    right_page,
                    &Node::Internal {
                        keys: rk,
                        children: rc,
                    },
                )?;
                Ok(())
            }
            _ => Err(StorageError::Corrupt("sibling level mismatch")),
        }
    }

    // -- scans --------------------------------------------------------------

    /// Cursor positioned at the first key `>= start`.
    pub fn cursor(&self, start: &[u8]) -> Result<BTreeCursor<'_>> {
        let mut page = self.state.lock().root;
        loop {
            let node = self.read_node(page)?;
            match &*node {
                Node::Internal { keys, children } => {
                    page = children[Self::child_index(keys, start)];
                }
                Node::Leaf { entries, next } => {
                    let idx = entries.partition_point(|(k, _)| k.as_slice() < start);
                    let next = *next;
                    return Ok(BTreeCursor {
                        tree: self,
                        node,
                        idx,
                        next_leaf: next,
                    });
                }
            }
        }
    }

    /// All `(key, value)` pairs whose key starts with `prefix`, in key order.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let end = crate::codec::prefix_successor(prefix);
        let mut cursor = self.cursor(prefix)?;
        let mut out = Vec::new();
        while let Some((k, v)) = cursor.next_entry()? {
            if let Some(end) = &end {
                if k.as_slice() >= end.as_slice() {
                    break;
                }
            }
            out.push((k, v));
        }
        Ok(out)
    }

    /// All `(key, value)` pairs in `[start, end)`, in key order.
    pub fn scan_range(&self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut cursor = self.cursor(start)?;
        let mut out = Vec::new();
        while let Some((k, v)) = cursor.next_entry()? {
            if k.as_slice() >= end {
                break;
            }
            out.push((k, v));
        }
        Ok(out)
    }

    /// Depth of the tree (1 = a single leaf). Diagnostic.
    pub fn depth(&self) -> Result<usize> {
        let root = self.state.lock().root;
        Ok(self.height(root)? + 1)
    }

    /// Levels below `page`: 0 for a leaf.
    fn height(&self, mut page: PageId) -> Result<usize> {
        let mut height = 0;
        loop {
            match &*self.read_node(page)? {
                Node::Internal { children, .. } => {
                    height += 1;
                    page = children[0];
                }
                Node::Leaf { .. } => return Ok(height),
            }
        }
    }
}

/// Forward scan cursor. Snapshot semantics per leaf: concurrent mutation of
/// the tree during a scan is not supported (matches the system's single
/// writer model).
pub struct BTreeCursor<'t> {
    tree: &'t BTree,
    /// Current leaf (shared with the node cache).
    node: Arc<Node>,
    idx: usize,
    next_leaf: Option<PageId>,
}

impl BTreeCursor<'_> {
    fn entries(&self) -> Result<&[(Vec<u8>, Vec<u8>)]> {
        match &*self.node {
            Node::Leaf { entries, .. } => Ok(entries),
            Node::Internal { .. } => {
                Err(StorageError::Corrupt("leaf chain points to internal node"))
            }
        }
    }

    /// Move to the next leaf; false at the end of the chain.
    fn advance_leaf(&mut self) -> Result<bool> {
        let Some(next) = self.next_leaf else {
            return Ok(false);
        };
        let node = self.tree.read_node(next)?;
        match &*node {
            Node::Leaf { next, .. } => {
                self.next_leaf = *next;
            }
            Node::Internal { .. } => {
                return Err(StorageError::Corrupt("leaf chain points to internal node"))
            }
        }
        self.node = node;
        self.idx = 0;
        Ok(true)
    }

    /// Next entry in key order, or `None` at the end of the tree.
    pub fn next_entry(&mut self) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        loop {
            if self.idx < self.entries()?.len() {
                let entry = self.entries()?[self.idx].clone();
                self.idx += 1;
                return Ok(Some(entry));
            }
            if !self.advance_leaf()? {
                return Ok(None);
            }
        }
    }

    /// Peek at the next key without consuming it.
    pub fn peek_key(&mut self) -> Result<Option<&[u8]>> {
        loop {
            if self.idx < self.entries()?.len() {
                break;
            }
            if !self.advance_leaf()? {
                return Ok(None);
            }
        }
        Ok(self.entries()?.get(self.idx).map(|(k, _)| k.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn tree_with_page(page_size: usize) -> BTree {
        let store = Arc::new(Store::new(Arc::new(MemDisk::new(page_size)), 1024));
        BTree::create(store).unwrap()
    }

    fn tree() -> BTree {
        tree_with_page(512)
    }

    #[test]
    fn put_get_replace() {
        let t = tree();
        assert_eq!(t.put(b"a", b"1").unwrap(), None);
        assert_eq!(t.put(b"a", b"2").unwrap(), Some(b"1".to_vec()));
        assert_eq!(t.get(b"a").unwrap(), Some(b"2".to_vec()));
        assert_eq!(t.get(b"b").unwrap(), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let t = tree();
        let n = 2000u32;
        for i in (0..n).rev() {
            t.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
        }
        assert_eq!(t.len(), n as u64);
        assert!(t.depth().unwrap() > 1, "tree must have split");
        let mut cursor = t.cursor(&[]).unwrap();
        let mut expected = 0u32;
        while let Some((k, v)) = cursor.next_entry().unwrap() {
            assert_eq!(k, expected.to_be_bytes());
            assert_eq!(v, expected.to_le_bytes());
            expected += 1;
        }
        assert_eq!(expected, n);
    }

    #[test]
    fn delete_and_rebalance_down_to_empty() {
        let t = tree();
        let n = 1200u32;
        for i in 0..n {
            t.put(&i.to_be_bytes(), b"v").unwrap();
        }
        for i in 0..n {
            assert_eq!(
                t.delete(&i.to_be_bytes()).unwrap(),
                Some(b"v".to_vec()),
                "{i}"
            );
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.depth().unwrap(), 1, "tree must collapse to a single leaf");
        assert_eq!(t.delete(b"zzz").unwrap(), None);
    }

    #[test]
    fn delete_random_order() {
        let t = tree();
        let n = 800u32;
        for i in 0..n {
            t.put(&i.to_be_bytes(), &i.to_be_bytes()).unwrap();
        }
        // Delete odds, verify evens survive.
        for i in (1..n).step_by(2) {
            assert!(t.delete(&i.to_be_bytes()).unwrap().is_some());
        }
        for i in 0..n {
            let got = t.get(&i.to_be_bytes()).unwrap();
            if i % 2 == 0 {
                assert_eq!(got, Some(i.to_be_bytes().to_vec()));
            } else {
                assert_eq!(got, None);
            }
        }
    }

    #[test]
    fn range_and_prefix_scans() {
        let t = tree();
        for term in [b"aa", b"ab", b"ac", b"ba", b"bb"] {
            for doc in 0..5u32 {
                let mut key = term.to_vec();
                key.extend_from_slice(&doc.to_be_bytes());
                t.put(&key, &[]).unwrap();
            }
        }
        assert_eq!(t.scan_prefix(b"ab").unwrap().len(), 5);
        assert_eq!(t.scan_prefix(b"a").unwrap().len(), 15);
        assert_eq!(t.scan_prefix(b"zz").unwrap().len(), 0);
        let all = t.scan_range(b"a", b"c").unwrap();
        assert_eq!(all.len(), 25);
        assert!(
            all.windows(2).all(|w| w[0].0 < w[1].0),
            "scan must be ordered"
        );
    }

    #[test]
    fn cursor_peek_matches_next() {
        let t = tree();
        for i in 0..300u32 {
            t.put(&i.to_be_bytes(), &[]).unwrap();
        }
        let mut c = t.cursor(&10u32.to_be_bytes()).unwrap();
        let peeked = c.peek_key().unwrap().map(|k| k.to_vec());
        let next = c.next_entry().unwrap().map(|(k, _)| k);
        assert_eq!(peeked, next);
        assert_eq!(next, Some(10u32.to_be_bytes().to_vec()));
    }

    #[test]
    fn oversized_entry_rejected() {
        let t = tree();
        let big = vec![0u8; 4096];
        assert!(matches!(
            t.put(b"k", &big),
            Err(StorageError::EntryTooLarge { .. })
        ));
    }

    #[test]
    fn variable_length_keys() {
        let t = tree();
        let mut keys: Vec<Vec<u8>> = (0..500)
            .map(|i| {
                let len = 1 + (i * 7) % 40;
                let mut k = vec![b'k'; len];
                k.extend_from_slice(&(i as u32).to_be_bytes());
                k
            })
            .collect();
        for k in &keys {
            t.put(k, &(k.len() as u32).to_le_bytes()).unwrap();
        }
        keys.sort();
        let mut cursor = t.cursor(&[]).unwrap();
        for k in &keys {
            let (got, v) = cursor.next_entry().unwrap().expect("missing entry");
            assert_eq!(&got, k);
            assert_eq!(v, (k.len() as u32).to_le_bytes());
        }
        assert!(cursor.next_entry().unwrap().is_none());
    }

    #[test]
    fn works_with_tiny_pages() {
        // Stress splits/merges hard with 256-byte pages.
        let t = tree_with_page(256);
        for i in 0..600u32 {
            t.put(
                &(i.wrapping_mul(2654435761)).to_be_bytes(),
                &i.to_be_bytes(),
            )
            .unwrap();
        }
        assert_eq!(t.len(), 600);
        for i in 0..600u32 {
            assert_eq!(
                t.get(&(i.wrapping_mul(2654435761)).to_be_bytes()).unwrap(),
                Some(i.to_be_bytes().to_vec())
            );
        }
        for i in 0..600u32 {
            assert!(t
                .delete(&(i.wrapping_mul(2654435761)).to_be_bytes())
                .unwrap()
                .is_some());
        }
        assert!(t.is_empty());
    }
}
