//! Set-associative cache simulator with a stream prefetcher.
//!
//! Fed by the functional simulator's memory trace; returns a load-to-use
//! latency per access which the timing scoreboard consumes. The hierarchy
//! parameters come from [`augem_machine::CacheHierarchy`].

use augem_machine::{CacheHierarchy, CacheLevel};

struct Level {
    /// Set `s` holds its line tags in `tags[s * assoc..][..len[s]]`, in
    /// LRU order (front = most recent). Both vectors start zeroed, so a
    /// large level's pages are only faulted in as its sets fill.
    tags: Vec<u64>,
    len: Vec<u32>,
    assoc: usize,
    set_shift: u32,
    set_mask: u64,
    latency: u32,
}

impl Level {
    fn new(spec: &CacheLevel) -> Self {
        let lines = (spec.size / spec.line).max(1);
        let assoc = spec.assoc.max(1).min(lines);
        let num_sets = (lines / assoc).max(1);
        debug_assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Level {
            tags: vec![0; num_sets * assoc],
            len: vec![0; num_sets],
            assoc,
            set_shift: spec.line.trailing_zeros(),
            set_mask: (num_sets - 1) as u64,
            latency: spec.latency,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Returns true on hit; updates LRU either way (fills on miss).
    fn access(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let base = set * self.assoc;
        let len = self.len[set] as usize;
        let ways = &mut self.tags[base..base + len];
        if ways.first() == Some(&line) {
            // Already most recent: nothing moves.
            return true;
        }
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            ways.copy_within(0..pos, 1);
            ways[0] = line;
            true
        } else {
            // Shift right, dropping the LRU way when the set is full.
            let keep = len.min(self.assoc - 1);
            let ways = &mut self.tags[base..=base + keep];
            ways.copy_within(0..keep, 1);
            ways[0] = line;
            self.len[set] = keep as u32 + 1;
            false
        }
    }

    /// Fill without latency accounting (prefetch).
    fn fill(&mut self, line: u64) {
        let _ = self.access(line);
    }
}

/// One hardware stream-prefetcher slot.
#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    last_line: u64,
    valid: bool,
}

/// The cache simulator.
pub struct CacheSim {
    levels: Vec<Level>,
    dram_latency: u32,
    streams: [Stream; 16],
    /// Lines the hardware prefetcher fetches ahead on a detected stream.
    prefetch_degree: u64,
    pub accesses: u64,
    pub l1_misses: u64,
    pub llc_misses: u64,
}

impl CacheSim {
    pub fn new(h: &CacheHierarchy) -> Self {
        let mut levels = vec![Level::new(&h.l1d), Level::new(&h.l2)];
        if let Some(l3) = &h.l3 {
            levels.push(Level::new(l3));
        }
        // Map coverage to prefetch aggressiveness: high coverage ≈ deep
        // streams.
        let degree = (h.hw_prefetch_coverage * 4.0).round().max(0.0) as u64;
        CacheSim {
            levels,
            dram_latency: h.dram_latency,
            streams: [Stream::default(); 16],
            prefetch_degree: degree,
            accesses: 0,
            l1_misses: 0,
            llc_misses: 0,
        }
    }

    /// Zeroes the hit/miss counters, keeping the cache contents: the
    /// warm regime times a pass over an already-trained cache.
    pub fn reset_counters(&mut self) {
        self.accesses = 0;
        self.l1_misses = 0;
        self.llc_misses = 0;
    }

    fn line_of(&self, addr: i64) -> u64 {
        (addr as u64) >> self.levels[0].set_shift
    }

    /// Demand access; returns load-to-use latency in cycles.
    pub fn access(&mut self, addr: i64, bytes: u8, write: bool) -> u32 {
        let _ = write; // write-allocate: same path as reads in this model
        self.accesses += 1;
        let first = self.line_of(addr);
        let last = self.line_of(addr + bytes as i64 - 1);
        let mut worst = 0;
        for line in first..=last {
            worst = worst.max(self.access_line(line));
        }
        worst
    }

    fn access_line(&mut self, line: u64) -> u32 {
        let mut latency = None;
        for (i, level) in self.levels.iter_mut().enumerate() {
            if level.access(line) {
                latency = Some(level.latency);
                if i > 0 {
                    self.l1_misses += 1;
                }
                break;
            }
        }
        let lat = match latency {
            Some(l) => l,
            None => {
                self.l1_misses += 1;
                self.llc_misses += 1;
                self.dram_latency
            }
        };
        self.train_streams(line);
        lat
    }

    /// Detects sequential streams and pre-fills upcoming lines.
    fn train_streams(&mut self, line: u64) {
        // One stream slot per 4 KiB page (64 lines).
        let slot = ((line >> 6) as usize) % self.streams.len();
        let s = self.streams[slot];
        if s.valid && line == s.last_line + 1 {
            for d in 1..=self.prefetch_degree {
                let target = line + d;
                for level in self.levels.iter_mut() {
                    level.fill(target);
                }
            }
        }
        self.streams[slot] = Stream {
            last_line: line,
            valid: true,
        };
    }

    /// Software prefetch: fills the line into every level.
    pub fn prefetch(&mut self, addr: i64) {
        let line = self.line_of(addr);
        for level in self.levels.iter_mut() {
            level.fill(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_machine::MachineSpec;

    /// The Vec-per-set LRU the flat [`Level`] replaced: the reference it
    /// must agree with access for access.
    struct RefLevel {
        sets: Vec<Vec<u64>>,
        assoc: usize,
        set_mask: u64,
    }

    impl RefLevel {
        fn new(spec: &CacheLevel) -> Self {
            let lines = (spec.size / spec.line).max(1);
            let assoc = spec.assoc.max(1).min(lines);
            let num_sets = (lines / assoc).max(1);
            RefLevel {
                sets: vec![Vec::new(); num_sets],
                assoc,
                set_mask: (num_sets - 1) as u64,
            }
        }

        fn access(&mut self, line: u64) -> bool {
            let ways = &mut self.sets[(line & self.set_mask) as usize];
            if let Some(pos) = ways.iter().position(|&t| t == line) {
                let t = ways.remove(pos);
                ways.insert(0, t);
                true
            } else {
                ways.insert(0, line);
                if ways.len() > self.assoc {
                    ways.pop();
                }
                false
            }
        }
    }

    #[test]
    fn flat_levels_match_vec_per_set_reference() {
        for machine in [MachineSpec::sandy_bridge(), MachineSpec::piledriver()] {
            let h = &machine.caches;
            let specs: Vec<&CacheLevel> = [&h.l1d, &h.l2].into_iter().chain(&h.l3).collect();
            let mut flat: Vec<Level> = specs.iter().map(|s| Level::new(s)).collect();
            let mut reference: Vec<RefLevel> = specs.iter().map(|s| RefLevel::new(s)).collect();
            // xorshift64: a seeded stream of reuse, set conflicts, line 0
            // and fills, walked through the hierarchy as `access_line`
            // walks it.
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let mut recent = [0u64; 8];
            for step in 0..200_000usize {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let line = match x % 4 {
                    0 => recent[(x >> 8) as usize % recent.len()],
                    1 => (x >> 16) % 64 * 512,
                    _ => (x >> 16) % 4096,
                };
                recent[step % recent.len()] = line;
                if x.is_multiple_of(7) {
                    for (f, r) in flat.iter_mut().zip(&mut reference) {
                        assert_eq!(f.access(line), r.access(line), "fill of line {line}");
                    }
                    continue;
                }
                let (mut hits_flat, mut lat_flat) = (Vec::new(), h.dram_latency);
                for f in flat.iter_mut() {
                    hits_flat.push(f.access(line));
                    if hits_flat.last() == Some(&true) {
                        lat_flat = f.latency;
                        break;
                    }
                }
                let (mut hits_ref, mut lat_ref) = (Vec::new(), h.dram_latency);
                for (r, spec) in reference.iter_mut().zip(&specs) {
                    hits_ref.push(r.access(line));
                    if hits_ref.last() == Some(&true) {
                        lat_ref = spec.latency;
                        break;
                    }
                }
                assert_eq!(
                    (hits_flat, lat_flat),
                    (hits_ref, lat_ref),
                    "step {step}: line {line}"
                );
            }
            for (f, r) in flat.iter().zip(&reference) {
                for (set, ways) in r.sets.iter().enumerate() {
                    let base = set * f.assoc;
                    assert_eq!(&f.tags[base..base + f.len[set] as usize], &ways[..]);
                }
            }
        }
    }

    fn sim() -> CacheSim {
        CacheSim::new(&MachineSpec::sandy_bridge().caches)
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = sim();
        let cold = c.access(0x1000, 8, false);
        let warm = c.access(0x1000, 8, false);
        assert!(cold > warm, "cold {cold} vs warm {warm}");
        assert_eq!(warm, 4); // L1 latency
        assert_eq!(c.llc_misses, 1);
    }

    #[test]
    fn same_line_accesses_hit() {
        let mut c = sim();
        c.access(0x2000, 8, false);
        assert_eq!(c.access(0x2008, 8, false), 4);
        assert_eq!(c.access(0x2038, 8, false), 4);
    }

    #[test]
    fn software_prefetch_hides_latency() {
        let mut c = sim();
        c.prefetch(0x9000);
        assert_eq!(c.access(0x9000, 8, false), 4);
    }

    #[test]
    fn stream_prefetcher_covers_sequential_scans() {
        let mut c = sim();
        // Walk 64 consecutive lines; after the stream trains, most
        // accesses should be hits.
        let mut misses_at_dram = 0;
        for i in 0..64i64 {
            let lat = c.access(0x10_0000 + i * 64, 8, false);
            if lat >= 100 {
                misses_at_dram += 1;
            }
        }
        assert!(
            misses_at_dram < 32,
            "prefetcher should hide most of a sequential walk, got {misses_at_dram}"
        );
    }

    #[test]
    fn capacity_eviction() {
        let mut c = sim();
        // Touch far more distinct lines than L1 can hold, same set-ish
        // pattern; then the first line must be gone from L1 but present
        // in L2 (or beyond).
        let stride = 32 * 1024; // same L1 set every time for 8-way 32KB
        for i in 0..16i64 {
            c.access(i * stride, 8, false);
        }
        let lat = c.access(0, 8, false);
        assert!(lat > 4, "line 0 must have been evicted from L1, lat={lat}");
    }

    #[test]
    fn straddling_access_touches_both_lines() {
        let mut c = sim();
        c.access(0x40 - 8, 16, false); // crosses the 0x40 line boundary
                                       // Both lines now resident:
        assert_eq!(c.access(0x38, 8, false), 4);
        assert_eq!(c.access(0x40, 8, false), 4);
    }
}
