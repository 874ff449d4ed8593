//! A sorted-vector set of `u64` sequence numbers for the sender
//! scoreboard.
//!
//! The sender's `lost` and `rtx_out` sets used to be `BTreeSet<u64>`.
//! During a recovery episode they hold hundreds to thousands of
//! in-flight sequence numbers (across the Fig 15–18 grid at 20 s per
//! cell, `lost` averages ~470 members on a SACK-bearing ACK in recovery;
//! the 100 ms cells average up to ~1500 per flow and peak near 7500),
//! are populated in mostly-ascending order, and are hammered on the
//! per-ACK hot path (`pipe()`, loss marking, SACK removal, repair
//! selection) — a profile where a sorted `Vec` beats a B-tree on every
//! axis: O(1) cached-capacity clears, branchless `len()`, append-fast
//! inserts, and windowed removals that cost two binary searches plus one
//! `drain`.

/// A set of `u64`s stored as a sorted `Vec`.
#[derive(Clone, Debug, Default)]
pub struct SeqSet {
    seqs: Vec<u64>,
}

impl SeqSet {
    /// An empty set.
    pub fn new() -> Self {
        SeqSet { seqs: Vec::new() }
    }

    /// Number of contained sequence numbers.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// True if nothing is contained.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Remove everything, keeping the allocation.
    pub fn clear(&mut self) {
        self.seqs.clear();
    }

    /// Insert `seq`; returns false if it was already present.
    #[inline]
    pub fn insert(&mut self, seq: u64) -> bool {
        match self.seqs.last() {
            None => {
                self.seqs.push(seq);
                true
            }
            Some(&last) if seq > last => {
                self.seqs.push(seq);
                true
            }
            Some(&last) if seq == last => false,
            _ => match self.seqs.binary_search(&seq) {
                Ok(_) => false,
                Err(i) => {
                    self.seqs.insert(i, seq);
                    true
                }
            },
        }
    }

    /// Insert every sequence in the half-open `[start, end)`, replacing
    /// any members already inside that window (so duplicates are fine).
    pub fn insert_run(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        if self.seqs.last().map_or(true, |&last| start > last) {
            // Pure append — the common case for hole marking, which scans
            // strictly above everything marked before.
            self.seqs.extend(start..end);
            return;
        }
        let lo = self.seqs.partition_point(|&x| x < start);
        let hi = self.seqs.partition_point(|&x| x < end);
        self.seqs.splice(lo..hi, start..end);
    }

    /// Remove everything strictly below `cutoff`.
    pub fn remove_below(&mut self, cutoff: u64) {
        let n = self.seqs.partition_point(|&x| x < cutoff);
        if n > 0 {
            self.seqs.drain(..n);
        }
    }

    /// Remove every member of the half-open `[start, end)`.
    pub fn remove_range(&mut self, start: u64, end: u64) {
        let lo = self.seqs.partition_point(|&x| x < start);
        let hi = lo + self.seqs[lo..].partition_point(|&x| x < end);
        if lo < hi {
            self.seqs.drain(lo..hi);
        }
    }

    /// The lowest member ≥ `from`, if any.
    #[inline]
    pub fn first_at_or_after(&self, from: u64) -> Option<u64> {
        let i = self.seqs.partition_point(|&x| x < from);
        self.seqs.get(i).copied()
    }

    /// Iterate members in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, u64> {
        self.seqs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(s: &SeqSet) -> Vec<u64> {
        s.iter().copied().collect()
    }

    #[test]
    fn insert_keeps_order_and_rejects_duplicates() {
        let mut s = SeqSet::new();
        assert!(s.insert(5));
        assert!(s.insert(2));
        assert!(s.insert(9));
        assert!(!s.insert(5));
        assert!(!s.insert(9)); // duplicate of the tail
        assert_eq!(s.len(), 3);
        assert_eq!(members(&s), vec![2, 5, 9]);
    }

    #[test]
    fn insert_run_replaces_window() {
        let mut s = SeqSet::new();
        s.insert(3);
        s.insert(10);
        s.insert_run(2, 6); // overlaps the existing 3
        assert_eq!(members(&s), vec![2, 3, 4, 5, 10]);
        s.insert_run(20, 23); // pure append
        assert_eq!(s.first_at_or_after(21), Some(21));
        assert_eq!(s.len(), 8);
        s.insert_run(7, 7); // empty: no-op
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn remove_below_and_cursor_lookup() {
        let mut s = SeqSet::new();
        s.insert_run(0, 10);
        s.remove_below(4);
        assert_eq!(s.first_at_or_after(0), Some(4));
        assert_eq!(s.first_at_or_after(7), Some(7));
        assert_eq!(s.first_at_or_after(10), None);
    }

    #[test]
    fn remove_range_drops_exactly_the_window() {
        let mut s = SeqSet::new();
        s.insert_run(0, 10);
        s.insert(20);
        s.remove_range(3, 6);
        assert_eq!(members(&s), vec![0, 1, 2, 6, 7, 8, 9, 20]);
        s.remove_range(8, 8); // empty window: no-op
        s.remove_range(9, 3); // reversed window: no-op
        s.remove_range(11, 20); // window in a gap, ending at a member
        assert_eq!(s.len(), 8);
        s.remove_range(9, u64::MAX); // straddles the tail
        assert_eq!(members(&s), vec![0, 1, 2, 6, 7, 8]);
        s.remove_range(0, 1);
        assert_eq!(members(&s), vec![1, 2, 6, 7, 8]);
    }

    #[test]
    fn random_ops_match_btreeset() {
        use pi2_simcore::Rng;
        let mut rng = Rng::new(17);
        let mut s = SeqSet::new();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..3000 {
            let x = rng.range_u64(0, 400);
            match rng.range_u64(0, 4) {
                0 => assert_eq!(s.insert(x), model.insert(x)),
                1 => {
                    let e = x + rng.range_u64(0, 12);
                    s.remove_range(x, e);
                    model.retain(|&m| m < x || m >= e);
                }
                2 => {
                    let e = x + rng.range_u64(0, 8);
                    s.insert_run(x, e);
                    model.extend(x..e);
                }
                _ => {
                    s.remove_below(x);
                    model.retain(|&m| m >= x);
                }
            }
            assert_eq!(s.len(), model.len());
            assert_eq!(
                s.first_at_or_after(x),
                model.range(x..).next().copied()
            );
        }
        assert!(s.iter().copied().eq(model.iter().copied()));
    }
}
