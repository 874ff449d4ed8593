//! A set of `u64` sequence numbers stored as disjoint half-open ranges.
//!
//! Used by the TCP receiver for its out-of-order store (from which SACK
//! blocks are generated) — O(log n) insertion with neighbour merging,
//! compact even when thousands of sequence numbers are buffered during a
//! burst-loss episode.

/// Disjoint, sorted `[start, end)` ranges of sequence numbers.
///
/// ```
/// use pi2_transport::RangeSet;
/// let mut r = RangeSet::new();
/// r.insert(5);
/// r.insert(7);
/// r.insert(6); // bridges the two ranges
/// assert_eq!(r.ranges(), &[(5, 8)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct RangeSet {
    ranges: Vec<(u64, u64)>,
    /// Cached total of contained sequence numbers, so [`RangeSet::len`] is
    /// O(1) — it sits on TCP's per-ACK `pipe()` estimate.
    total: u64,
}

impl RangeSet {
    /// An empty set.
    pub fn new() -> Self {
        RangeSet {
            ranges: Vec::new(),
            total: 0,
        }
    }

    /// Total sequence numbers contained. O(1).
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Remove everything, keeping the allocation.
    pub fn clear(&mut self) {
        self.ranges.clear();
        self.total = 0;
    }

    /// True if no sequence numbers are contained.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The ranges, sorted ascending.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// The range containing `seq`, if any.
    pub fn find(&self, seq: u64) -> Option<(u64, u64)> {
        match self.ranges.binary_search_by(|&(s, _)| s.cmp(&seq)) {
            Ok(i) => Some(self.ranges[i]),
            Err(0) => None,
            Err(i) => {
                let (s, e) = self.ranges[i - 1];
                (seq >= s && seq < e).then_some((s, e))
            }
        }
    }

    /// Insert a single sequence number, merging with neighbours.
    /// Returns false if it was already present.
    pub fn insert(&mut self, seq: u64) -> bool {
        let i = match self.ranges.binary_search_by(|&(s, _)| s.cmp(&seq)) {
            Ok(_) => return false, // starts a range => present
            Err(i) => i,
        };
        // Inside the previous range?
        if i > 0 {
            let (ps, pe) = self.ranges[i - 1];
            if seq < pe {
                return false;
            }
            if seq == pe {
                // Extend the previous range; maybe merge with the next.
                self.ranges[i - 1].1 = pe + 1;
                if i < self.ranges.len() && self.ranges[i].0 == pe + 1 {
                    self.ranges[i - 1].1 = self.ranges[i].1;
                    self.ranges.remove(i);
                }
                let _ = ps;
                self.total += 1;
                return true;
            }
        }
        // Prepend to the next range?
        if i < self.ranges.len() && self.ranges[i].0 == seq + 1 {
            self.ranges[i].0 = seq;
            self.total += 1;
            return true;
        }
        self.ranges.insert(i, (seq, seq + 1));
        self.total += 1;
        true
    }

    /// Insert the half-open range `[start, end)`, merging as needed.
    pub fn insert_range(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // Find the insertion window: all ranges overlapping or adjacent to
        // [start, end).
        let mut lo = match self.ranges.binary_search_by(|&(s, _)| s.cmp(&start)) {
            Ok(i) => i,
            Err(i) => i,
        };
        // The previous range may touch us.
        if lo > 0 && self.ranges[lo - 1].1 >= start {
            lo -= 1;
        }
        let mut hi = lo;
        let mut new_start = start;
        let mut new_end = end;
        let mut absorbed = 0;
        while hi < self.ranges.len() && self.ranges[hi].0 <= end {
            new_start = new_start.min(self.ranges[hi].0);
            new_end = new_end.max(self.ranges[hi].1);
            absorbed += self.ranges[hi].1 - self.ranges[hi].0;
            hi += 1;
        }
        self.total += (new_end - new_start) - absorbed;
        self.ranges.splice(lo..hi, [(new_start, new_end)]);
    }

    /// Remove everything strictly below `cutoff`; returns how many
    /// sequence numbers were removed.
    pub fn remove_below(&mut self, cutoff: u64) -> u64 {
        // The ranges wholly below `cutoff` form a prefix; at most the first
        // range after it straddles the cutoff and is trimmed in place.
        let n = self.ranges.partition_point(|&(_, e)| e <= cutoff);
        let mut removed: u64 = self.ranges.drain(..n).map(|(s, e)| e - s).sum();
        if let Some(first) = self.ranges.first_mut() {
            if first.0 < cutoff {
                removed += cutoff - first.0;
                first.0 = cutoff;
            }
        }
        self.total -= removed;
        removed
    }

    /// If the lowest range starts exactly at `start`, remove and return
    /// it (used by the receiver to consume newly contiguous data).
    pub fn take_leading(&mut self, start: u64) -> Option<(u64, u64)> {
        if let Some(&(s, e)) = self.ranges.first() {
            if s == start {
                self.ranges.remove(0);
                self.total -= e - s;
                return Some((s, e));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn has(r: &RangeSet, seq: u64) -> bool {
        r.find(seq).is_some()
    }

    #[test]
    fn insert_and_merge() {
        let mut r = RangeSet::new();
        assert!(r.insert(5));
        assert!(r.insert(7));
        assert_eq!(r.ranges(), &[(5, 6), (7, 8)]);
        assert!(r.insert(6)); // bridges 5..6 and 7..8
        assert_eq!(r.ranges(), &[(5, 8)]);
        assert!(!r.insert(6)); // duplicate
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn extend_left_and_right() {
        let mut r = RangeSet::new();
        r.insert(10);
        r.insert(11); // extend right
        r.insert(9); // extend left
        assert_eq!(r.ranges(), &[(9, 12)]);
    }

    #[test]
    fn find_returns_the_containing_range() {
        let mut r = RangeSet::new();
        for s in [3, 4, 8, 9, 10] {
            r.insert(s);
        }
        assert!(has(&r, 3) && has(&r, 4) && !has(&r, 5));
        assert_eq!(r.find(9), Some((8, 11)));
        assert_eq!(r.find(7), None);
    }

    #[test]
    fn remove_below_trims_and_splits() {
        let mut r = RangeSet::new();
        for s in 0..10 {
            r.insert(s);
        }
        r.insert(20);
        assert_eq!(r.remove_below(5), 5);
        assert_eq!(r.ranges(), &[(5, 10), (20, 21)]);
        assert_eq!(r.remove_below(100), 6);
        assert!(r.is_empty());
    }

    #[test]
    fn take_leading_consumes_contiguous() {
        let mut r = RangeSet::new();
        for s in [2, 3, 4, 9] {
            r.insert(s);
        }
        assert_eq!(r.take_leading(1), None);
        assert_eq!(r.take_leading(2), Some((2, 5)));
        assert_eq!(r.ranges(), &[(9, 10)]);
    }

    #[test]
    fn insert_range_merges_overlaps() {
        let mut r = RangeSet::new();
        r.insert_range(10, 15);
        r.insert_range(20, 25);
        r.insert_range(14, 21); // bridges both
        assert_eq!(r.ranges(), &[(10, 25)]);
        r.insert_range(0, 5);
        r.insert_range(5, 10); // adjacent: merges with both neighbours
        assert_eq!(r.ranges(), &[(0, 25)]);
        r.insert_range(30, 30); // empty: no-op
        assert_eq!(r.ranges().len(), 1);
    }

    #[test]
    fn random_range_inserts_match_btreeset() {
        use pi2_simcore::Rng;
        let mut rng = Rng::new(21);
        let mut rs = RangeSet::new();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let s = rng.range_u64(0, 200);
            let e = s + rng.range_u64(0, 20);
            rs.insert_range(s, e);
            for x in s..e {
                model.insert(x);
            }
            assert_eq!(rs.len(), model.len() as u64);
        }
        for x in 0..250 {
            assert_eq!(has(&rs, x), model.contains(&x), "at {x}");
        }
    }

    #[test]
    fn random_inserts_match_btreeset() {
        use pi2_simcore::Rng;
        let mut rng = Rng::new(9);
        let mut rs = RangeSet::new();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            let x = rng.range_u64(0, 300);
            assert_eq!(rs.insert(x), model.insert(x));
        }
        assert_eq!(rs.len(), model.len() as u64);
        for x in 0..300 {
            assert_eq!(has(&rs, x), model.contains(&x), "at {x}");
        }
        // Ranges are disjoint and sorted.
        for w in rs.ranges().windows(2) {
            assert!(w[0].1 < w[1].0);
        }
    }

    #[test]
    fn empty_set_operations_are_safe() {
        let mut r = RangeSet::new();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.find(0), None);
        assert_eq!(r.remove_below(u64::MAX), 0);
        assert_eq!(r.take_leading(0), None);
        r.insert_range(5, 5); // empty range: no-op
        r.insert_range(7, 3); // reversed range: no-op
        assert!(r.is_empty());
    }

    /// The half-open representation stores `seq` as `[seq, seq+1)`, so
    /// the largest representable member is `u64::MAX - 1`; everything up
    /// to that boundary must work without overflow.
    #[test]
    fn sequences_near_the_u64_boundary() {
        let top = u64::MAX - 1;
        let mut r = RangeSet::new();
        assert!(r.insert(top));
        assert!(!r.insert(top)); // duplicate at the boundary
        assert_eq!(r.ranges(), &[(top, u64::MAX)]);
        assert_eq!(r.find(top), Some((top, u64::MAX)));

        r.insert_range(u64::MAX - 10, u64::MAX);
        assert_eq!(r.ranges(), &[(u64::MAX - 10, u64::MAX)]);
        assert_eq!(r.len(), 10);
        assert_eq!(r.remove_below(u64::MAX), 10);
        assert!(r.is_empty());
    }

    #[test]
    fn adjacent_ranges_merge_in_both_directions() {
        let mut r = RangeSet::new();
        r.insert_range(0, 5);
        r.insert_range(10, 15);
        r.insert(5); // extends [0,5) rightward
        assert_eq!(r.ranges(), &[(0, 6), (10, 15)]);
        r.insert(9); // prepends to [10,15)
        assert_eq!(r.ranges(), &[(0, 6), (9, 15)]);
        r.insert_range(6, 9); // exactly fills the gap: one range left
        assert_eq!(r.ranges(), &[(0, 15)]);
    }

    #[test]
    fn clear_resets_cached_len() {
        let mut r = RangeSet::new();
        r.insert_range(0, 100);
        r.insert_range(200, 250);
        assert_eq!(r.len(), 150);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        r.insert(5);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn remove_below_at_exact_range_edges() {
        let mut r = RangeSet::new();
        r.insert_range(10, 20);
        r.insert_range(30, 40);
        // Cutoff at a range start removes nothing from that range.
        assert_eq!(r.remove_below(10), 0);
        assert_eq!(r.ranges(), &[(10, 20), (30, 40)]);
        // Cutoff at a range end removes exactly that range.
        assert_eq!(r.remove_below(20), 10);
        assert_eq!(r.ranges(), &[(30, 40)]);
        // Cutoff inside a range trims it in place.
        assert_eq!(r.remove_below(35), 5);
        assert_eq!(r.ranges(), &[(35, 40)]);
    }

    #[test]
    fn random_remove_below_matches_btreeset() {
        use pi2_simcore::Rng;
        let mut rng = Rng::new(33);
        let mut rs = RangeSet::new();
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            if rng.range_u64(0, 3) > 0 {
                let s = rng.range_u64(0, 300);
                let e = s + rng.range_u64(1, 12);
                rs.insert_range(s, e);
                model.extend(s..e);
                continue;
            }
            // Cutoffs inside a range, exactly at a range start or end, in
            // a gap, and past the end.
            let ranges = rs.ranges();
            let cutoff = match (rng.range_u64(0, 4), ranges.is_empty()) {
                (_, true) | (0, _) => rng.range_u64(0, 320),
                (1, _) => ranges[rng.range_u64(0, ranges.len() as u64) as usize].0,
                (2, _) => ranges[rng.range_u64(0, ranges.len() as u64) as usize].1,
                _ => ranges[ranges.len() - 1].1 + rng.range_u64(0, 5),
            };
            let before = model.len();
            model.retain(|&m| m >= cutoff);
            assert_eq!(rs.remove_below(cutoff), (before - model.len()) as u64);
            assert_eq!(rs.len(), model.len() as u64);
            assert!(rs.ranges().iter().all(|&(s, e)| cutoff <= s && s < e));
            assert!(rs.ranges().windows(2).all(|w| w[0].1 < w[1].0));
            assert!(rs
                .ranges()
                .iter()
                .flat_map(|&(s, e)| s..e)
                .eq(model.iter().copied()));
        }
    }
}
