//! The sort kernel shared by every store: a bounded top-k heap for
//! `ORDER BY … LIMIT k`, a stable sort when no limit exists, and a
//! bounded k-way merge of sorted parts.
//!
//! Output is byte-identical to a stable sort followed by truncation.
//! The heap orders rows by `(sort key, arrival sequence)`, so equal keys
//! keep arrival order; the merge breaks ties by part index, so parts
//! handed over in scan (or shard) order merge like one stable sort of
//! their concatenation.
//!
//! A bounded [`TopK`] answers [`TopK::admits`] before the caller builds
//! a row. Rows it would reject are never materialized, and the work per
//! rejected row is one key comparison against the current k-th row.

use crate::compare::cmp_total;
use crate::value::Value;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One sort-key component with its direction baked in, so a composite
/// key (`Vec<SortKey>`) orders lexicographically with one `Ord`.
#[derive(Debug, Clone, PartialEq)]
pub enum SortKey {
    /// Ascending: [`cmp_total`] order.
    Asc(Value),
    /// Descending: reversed [`cmp_total`] order.
    Desc(Value),
}

impl SortKey {
    /// Wrap `value` in the direction `desc` names.
    pub fn new(value: Value, desc: bool) -> SortKey {
        if desc {
            SortKey::Desc(value)
        } else {
            SortKey::Asc(value)
        }
    }
}

impl Eq for SortKey {}

impl Ord for SortKey {
    fn cmp(&self, other: &SortKey) -> Ordering {
        match (self, other) {
            (SortKey::Asc(a), SortKey::Asc(b)) => cmp_total(a, b),
            (SortKey::Desc(a), SortKey::Desc(b)) => cmp_total(b, a),
            // A key position has one direction; order mixed pairs by
            // direction anyway so the relation stays total.
            (SortKey::Asc(_), SortKey::Desc(_)) => Ordering::Less,
            (SortKey::Desc(_), SortKey::Asc(_)) => Ordering::Greater,
        }
    }
}

impl PartialOrd for SortKey {
    fn partial_cmp(&self, other: &SortKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A heap entry ordered by `(key, seq)`; `item` rides along.
struct Slot<K, T> {
    key: K,
    seq: usize,
    item: T,
}

impl<K: Ord, T> PartialEq for Slot<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K: Ord, T> Eq for Slot<K, T> {}

impl<K: Ord, T> PartialOrd for Slot<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, T> Ord for Slot<K, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

enum Buffer<K, T> {
    /// No limit: every row, in arrival order, stable-sorted at the end.
    All(Vec<(K, T)>),
    /// At most `k` rows; the heap's top is the current k-th row.
    Heap {
        k: usize,
        heap: BinaryHeap<Slot<K, T>>,
    },
}

/// Sorted buffer of `(key, row)` pairs with an optional row budget.
///
/// With a limit `k` it keeps a k-slot max-heap; without one it keeps
/// every row and stable-sorts at the end. Either way
/// [`TopK::into_sorted`] returns what a stable sort of all pushed rows,
/// truncated to the limit, would.
pub struct TopK<K, T> {
    buf: Buffer<K, T>,
    admitted: usize,
}

impl<K: Ord, T> TopK<K, T> {
    /// A buffer keeping the first `limit` rows in key order, or every
    /// row when `limit` is `None`.
    pub fn new(limit: Option<usize>) -> TopK<K, T> {
        let buf = match limit {
            None => Buffer::All(Vec::new()),
            Some(k) => Buffer::Heap {
                k,
                heap: BinaryHeap::new(),
            },
        };
        TopK { buf, admitted: 0 }
    }

    /// Whether the buffer has a row budget.
    pub fn is_bounded(&self) -> bool {
        matches!(self.buf, Buffer::Heap { .. })
    }

    /// Whether a row with `key`, arriving now, would enter the result.
    /// A later arrival loses ties, so a key equal to the current k-th
    /// row's is rejected.
    pub fn admits(&self, key: &K) -> bool {
        match &self.buf {
            Buffer::All(_) => true,
            Buffer::Heap { k, heap } => {
                heap.len() < *k || heap.peek().is_some_and(|top| *key < top.key)
            }
        }
    }

    /// Offer a row; returns whether it was admitted. Callers that build
    /// rows lazily ask [`TopK::admits`] first and build only on `true`.
    pub fn push(&mut self, key: K, item: T) -> bool {
        if !self.admits(&key) {
            return false;
        }
        let seq = self.admitted;
        self.admitted += 1;
        match &mut self.buf {
            Buffer::All(rows) => rows.push((key, item)),
            Buffer::Heap { k, heap } => {
                let slot = Slot { key, seq, item };
                if heap.len() < *k {
                    heap.push(slot);
                } else if let Some(mut top) = heap.peek_mut() {
                    // `admits` checked `slot < top`; replacing the top
                    // re-sifts on drop.
                    *top = slot;
                }
            }
        }
        true
    }

    /// Rows admitted so far (a bounded buffer may since have evicted
    /// some of them).
    pub fn admitted(&self) -> usize {
        self.admitted
    }

    /// The kept rows with their keys, in key order (ties in arrival
    /// order).
    pub fn into_sorted(self) -> Vec<(K, T)> {
        match self.buf {
            Buffer::All(mut rows) => {
                rows.sort_by(|(a, _), (b, _)| a.cmp(b));
                rows
            }
            Buffer::Heap { heap, .. } => heap
                .into_sorted_vec()
                .into_iter()
                .map(|s| (s.key, s.item))
                .collect(),
        }
    }

    /// The kept rows in key order, keys dropped.
    pub fn into_sorted_items(self) -> Vec<T> {
        self.into_sorted()
            .into_iter()
            .map(|(_, item)| item)
            .collect()
    }
}

/// Merge parts that are each sorted by key into the first `limit` rows
/// (all rows when `None`). Equal keys come out in part order, then in
/// their order within the part: the stable sort of the parts'
/// concatenation, truncated. The merge stops once `limit` rows are out.
pub fn merge_sorted<K: Ord, T>(parts: Vec<Vec<(K, T)>>, limit: Option<usize>) -> Vec<T> {
    let total: usize = parts.iter().map(Vec::len).sum();
    let want = limit.map_or(total, |k| k.min(total));
    let mut out = Vec::with_capacity(want);
    let mut iters: Vec<std::vec::IntoIter<(K, T)>> =
        parts.into_iter().map(Vec::into_iter).collect();
    // `seq` is the part index: the tie-break that keeps part order.
    let mut heap: BinaryHeap<Reverse<Slot<K, T>>> = BinaryHeap::with_capacity(iters.len());
    for (seq, it) in iters.iter_mut().enumerate() {
        if let Some((key, item)) = it.next() {
            heap.push(Reverse(Slot { key, seq, item }));
        }
    }
    while out.len() < want {
        let Some(Reverse(Slot { seq, item, .. })) = heap.pop() else {
            break;
        };
        out.push(item);
        if let Some((key, item)) = iters.get_mut(seq).and_then(Iterator::next) {
            heap.push(Reverse(Slot { key, seq, item }));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: stable sort by key, then truncate.
    fn stable(rows: &[(i64, usize)], limit: Option<usize>) -> Vec<usize> {
        let mut v = rows.to_vec();
        v.sort_by_key(|(k, _)| *k);
        if let Some(k) = limit {
            v.truncate(k);
        }
        v.into_iter().map(|(_, id)| id).collect()
    }

    fn rows(n: usize, modulus: i64) -> Vec<(i64, usize)> {
        // A scrambled key sequence with heavy ties.
        (0..n).map(|i| (((i as i64) * 7919) % modulus, i)).collect()
    }

    #[test]
    fn heap_matches_stable_sort_with_ties() {
        for modulus in [1, 3, 10, 1_000] {
            let rows = rows(300, modulus);
            for limit in [
                None,
                Some(0),
                Some(1),
                Some(29),
                Some(30),
                Some(31),
                Some(300),
                Some(307),
            ] {
                let mut topk = TopK::new(limit);
                for &(k, id) in &rows {
                    topk.push(k, id);
                }
                assert_eq!(
                    topk.into_sorted_items(),
                    stable(&rows, limit),
                    "modulus {modulus}, limit {limit:?}"
                );
            }
        }
    }

    #[test]
    fn admits_gates_row_building() {
        let mut topk = TopK::new(Some(2));
        let mut built = 0;
        for k in [5i64, 4, 9, 5, 1, 4, 7] {
            if topk.admits(&k) {
                built += 1;
                assert!(topk.push(k, k));
            }
        }
        // 5 and 4 fill the heap; 9 is rejected, and so is the second 5
        // (a tie with the k-th row, arriving later); 1 evicts 5; the
        // second 4 (now the k-th row's tie) and 7 are rejected.
        assert_eq!(built, 3);
        assert_eq!(topk.admitted(), 3);
        assert_eq!(topk.into_sorted_items(), vec![1, 4]);
    }

    #[test]
    fn zero_budget_admits_nothing() {
        let mut topk: TopK<i64, ()> = TopK::new(Some(0));
        assert!(!topk.admits(&i64::MIN));
        assert!(!topk.push(1, ()));
        assert!(topk.into_sorted().is_empty());
    }

    #[test]
    fn merge_matches_stable_sort_of_concatenation() {
        let all = rows(200, 7);
        for cut in [0, 1, 50, 199, 200] {
            let (a, b) = all.split_at(cut);
            let parts: Vec<Vec<(i64, usize)>> = [a, b, &all[..10]]
                .iter()
                .map(|p| {
                    let mut p = p.to_vec();
                    p.sort_by_key(|(k, _)| *k);
                    p
                })
                .collect();
            let concat: Vec<(i64, usize)> = parts.iter().flatten().copied().collect();
            for limit in [None, Some(0), Some(1), Some(40), Some(1_000)] {
                assert_eq!(
                    merge_sorted(parts.clone(), limit),
                    stable(&concat, limit),
                    "cut {cut}, limit {limit:?}"
                );
            }
        }
    }

    #[test]
    fn sort_key_directions() {
        let asc = |i: i64| SortKey::new(Value::Int(i), false);
        let desc = |i: i64| SortKey::new(Value::Int(i), true);
        assert!(asc(1) < asc(2));
        assert!(desc(2) < desc(1));
        assert!(vec![desc(3), asc(1)] < vec![desc(3), asc(2)]);
        assert!(SortKey::new(Value::Missing, false) < asc(0));
    }
}
