//! Miss-status-holding registers.
//!
//! An MSHR entry tracks one outstanding miss per 64-byte block. A second
//! request to the same block while its fill is in flight *merges* —
//! returning the in-flight completion time instead of issuing a second
//! fill. When every register is busy, new misses are delayed until the
//! earliest in-flight fill completes (a simple but effective bandwidth
//! model — the paper relies on MSHR pressure to bound its "ideal cache"
//! study the same way).

use atc_types::{LineAddr, SimError};

#[derive(Debug, Clone, Copy)]
struct Entry {
    ready: u64,
    is_prefetch: bool,
}

/// An MSHR file with a fixed number of registers.
///
/// The register file is two parallel vectors (line addresses and entry
/// state) scanned linearly: an MSHR holds at most a few dozen entries,
/// so a contiguous scan over raw `u64` line words beats a hash map on
/// the per-access probe path — no hashing, no bucket walk, and the
/// common all-expired case stays one bounds check.
#[derive(Debug)]
pub struct Mshr {
    lines: Vec<u64>,
    entries: Vec<Entry>,
    capacity: usize,
    /// Lower bound on the earliest `ready` among resident entries
    /// (`u64::MAX` when empty). A sweep at `cycle < min_ready` can
    /// expire nothing and returns immediately; lazy retirement in
    /// [`merge`](Self::merge) can leave the bound conservatively low,
    /// which only costs an occasional no-op sweep.
    min_ready: u64,
    merges: u64,
    allocations: u64,
    full_stalls: u64,
    prefetch_useful_merges: u64,
}

impl Mshr {
    /// Create an MSHR file with `capacity` registers.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if `capacity == 0`.
    pub fn new(capacity: usize) -> Result<Self, SimError> {
        if capacity == 0 {
            return Err(SimError::config("MSHR capacity must be positive"));
        }
        Ok(Mshr {
            lines: Vec::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            capacity,
            min_ready: u64::MAX,
            merges: 0,
            allocations: 0,
            full_stalls: 0,
            prefetch_useful_merges: 0,
        })
    }

    /// Drop entries whose fills have completed by `cycle`, maintaining
    /// the `min_ready` watermark over the survivors. Probes below the
    /// watermark skip this entirely — nothing can have expired.
    #[inline]
    fn expire(&mut self, cycle: u64) {
        if cycle < self.min_ready {
            return;
        }
        let mut min = u64::MAX;
        let mut i = 0;
        while i < self.entries.len() {
            let ready = self.entries[i].ready;
            if ready <= cycle {
                self.lines.swap_remove(i);
                self.entries.swap_remove(i);
            } else {
                min = min.min(ready);
                i += 1;
            }
        }
        self.min_ready = min;
    }

    /// If `line` has an in-flight fill at `cycle`, merge with it and
    /// return its completion cycle. A demand merge on a prefetch-initiated
    /// entry marks the entry as demand (the prefetch was late but useful).
    ///
    /// Expiry is lazy: the probe is a pure tag scan over the line words
    /// (the hottest loop in the whole miss path, and branch-free enough
    /// to vectorize), and a register is only retired when a probe to its
    /// own line finds the fill already complete. Other completed entries
    /// linger until the next [`allocate`](Self::allocate) or
    /// [`in_flight`](Self::in_flight) sweeps them. Probe cycles are not
    /// monotonic, so until then a probe at an earlier cycle can still
    /// merge with a lingering entry whose fill is complete at a later
    /// one (see DESIGN.md §10).
    #[inline]
    pub fn merge(&mut self, line: LineAddr, cycle: u64, is_prefetch: bool) -> Option<u64> {
        // Branchless whole-file scan: most probes find no match, and a
        // scan without early exit vectorizes where `position` cannot.
        // A line is never in flight twice, so keeping the last matching
        // index is exact.
        let raw = line.raw();
        let mut found = usize::MAX;
        for (i, &l) in self.lines.iter().enumerate() {
            if l == raw {
                found = i;
            }
        }
        if found == usize::MAX {
            return None;
        }
        let i = found;
        let e = &mut self.entries[i];
        if e.ready <= cycle {
            // The matched fill has completed: retire the stale register
            // (a block is never in flight twice, so this is the only
            // entry a fresh miss to `line` could have merged with).
            self.lines.swap_remove(i);
            self.entries.swap_remove(i);
            return None;
        }
        self.merges += 1;
        if !is_prefetch && e.is_prefetch {
            // A demand request caught an in-flight prefetch: the prefetch
            // was late but useful (it hides part of the miss latency).
            self.prefetch_useful_merges += 1;
            e.is_prefetch = false;
        }
        Some(e.ready)
    }

    /// Allocate a register for a new miss to `line` completing at
    /// `ready`. If the file is full, the miss is delayed until the
    /// earliest in-flight fill completes; the possibly-postponed
    /// completion cycle is returned.
    ///
    /// The caller must have checked [`merge`](Self::merge) first and
    /// seen `None` — every access path merges before allocating, so a
    /// line is never in flight twice (debug-asserted below).
    pub fn allocate(&mut self, line: LineAddr, cycle: u64, ready: u64, is_prefetch: bool) -> u64 {
        self.expire(cycle);
        let mut ready = ready;
        if self.entries.len() >= self.capacity {
            // Every resident entry is unexpired here (the sweep above
            // just ran), so the earliest in-flight completion comes from
            // a direct scan — the lazily-maintained watermark can sit
            // below it after a merge retired the entry it tracked.
            let earliest = self
                .entries
                .iter()
                .map(|e| e.ready)
                .min()
                .expect("full MSHR file is non-empty");
            let delay = earliest.saturating_sub(cycle);
            ready += delay;
            self.full_stalls += 1;
            // Make room: the earliest entry has completed by `earliest`.
            self.expire(earliest);
        }
        debug_assert!(
            !self.lines.contains(&line.raw()),
            "allocate on a line already in flight (probe/merge skipped?)"
        );
        self.allocations += 1;
        self.lines.push(line.raw());
        self.entries.push(Entry { ready, is_prefetch });
        self.min_ready = self.min_ready.min(ready);
        ready
    }

    /// Outstanding (unexpired) entries at `cycle`.
    pub fn in_flight(&mut self, cycle: u64) -> usize {
        self.expire(cycle);
        self.entries.len()
    }

    /// Outstanding entries at `cycle` without mutating the file.
    ///
    /// Read-only counterpart of [`in_flight`](Self::in_flight) for
    /// diagnostics (e.g. the deadlock watchdog snapshotting machine
    /// state).
    pub fn outstanding_at(&self, cycle: u64) -> usize {
        self.entries.iter().filter(|e| e.ready > cycle).count()
    }

    /// Total merges recorded.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Total registers allocated.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Times a miss found the file full and was delayed.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }

    /// Demand merges that caught an in-flight prefetch (late-but-useful
    /// prefetches).
    pub fn prefetch_useful_merges(&self) -> u64 {
        self.prefetch_useful_merges
    }

    /// Zero counters (in-flight entries are kept).
    pub fn reset_stats(&mut self) {
        self.merges = 0;
        self.allocations = 0;
        self.full_stalls = 0;
        self.prefetch_useful_merges = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(x: u64) -> LineAddr {
        LineAddr::new(x)
    }

    fn mshr(capacity: usize) -> Mshr {
        Mshr::new(capacity).expect("test MSHR capacity is valid")
    }

    #[test]
    fn merge_returns_inflight_ready() {
        let mut m = mshr(4);
        m.allocate(line(1), 0, 100, false);
        assert_eq!(m.merge(line(1), 50, false), Some(100));
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn expired_entries_do_not_merge() {
        let mut m = mshr(4);
        m.allocate(line(1), 0, 100, false);
        assert_eq!(m.merge(line(1), 100, false), None);
    }

    #[test]
    fn full_file_delays_new_misses() {
        let mut m = mshr(2);
        m.allocate(line(1), 0, 100, false);
        m.allocate(line(2), 0, 120, false);
        // Third miss at cycle 10 must wait until cycle 100 frees a slot:
        // its fill (nominally ready at 210) slips by 90.
        let ready = m.allocate(line(3), 10, 210, false);
        assert_eq!(ready, 300);
        assert_eq!(m.full_stalls(), 1);
    }

    #[test]
    fn free_file_does_not_delay() {
        let mut m = mshr(2);
        let ready = m.allocate(line(9), 5, 70, false);
        assert_eq!(ready, 70);
        assert_eq!(m.full_stalls(), 0);
    }

    #[test]
    fn demand_merge_clears_prefetch_flag() {
        let mut m = mshr(2);
        m.allocate(line(4), 0, 50, true);
        assert_eq!(m.merge(line(4), 10, false), Some(50));
        // Internal flag cleared; observable only through later behaviour,
        // but the merge itself must succeed.
        assert_eq!(m.in_flight(10), 1);
        assert_eq!(m.in_flight(50), 0);
    }

    #[test]
    fn lazy_retirement_lets_an_earlier_probe_merge_a_lingering_entry() {
        // Characterizes merge's lazy retirement under non-monotonic
        // probe cycles: a probe at 200 retires only its own completed
        // line A; B (also complete by 200) lingers, so a later probe at
        // 120 < 200 still merges with B's fill. A file that expired
        // every completed entry on each probe would answer None here.
        let mut m = mshr(4);
        m.allocate(line(1), 0, 100, false);
        m.allocate(line(2), 0, 150, false);
        assert_eq!(m.merge(line(1), 200, false), None);
        assert_eq!(m.merge(line(2), 120, false), Some(150));
        assert_eq!(m.merges(), 1);
        // A sweep at 200 does retire B.
        assert_eq!(m.in_flight(200), 0);
    }

    #[test]
    fn zero_capacity_rejected() {
        let err = Mshr::new(0).unwrap_err();
        assert!(err.to_string().contains("capacity"), "{err}");
    }

    #[test]
    fn outstanding_at_matches_in_flight_without_mutation() {
        let mut m = mshr(4);
        m.allocate(line(1), 0, 100, false);
        m.allocate(line(2), 0, 200, false);
        assert_eq!(m.outstanding_at(50), 2);
        assert_eq!(m.outstanding_at(150), 1);
        assert_eq!(m.outstanding_at(250), 0);
        // The read-only probe must not expire entries.
        assert_eq!(m.in_flight(150), 1);
    }
}
