//! The cache simulator proper.

use crate::{CacheConfig, CacheStats, WritePolicy};
use psi_core::Address;

/// A cache command, as issued by the microprogram (§4.2, Table 3
/// columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheCommand {
    /// Read one word.
    Read,
    /// Write one word (read-modify-write of a block on a miss under
    /// store-in).
    Write,
    /// Write one word to a stack top: on a miss the block is allocated
    /// *without* being read from memory, because the continuation of a
    /// push sequence will overwrite it anyway (spec item (g)).
    WriteStack,
}

impl CacheCommand {
    /// Is this one of the two write commands?
    pub fn is_write(self) -> bool {
        matches!(self, CacheCommand::Write | CacheCommand::WriteStack)
    }

    /// A stable numeric code, used as the payload of cache-access
    /// observability events ([`psi_core::ObsEvent::cache_access`]).
    pub fn code(self) -> u32 {
        match self {
            CacheCommand::Read => 0,
            CacheCommand::Write => 1,
            CacheCommand::WriteStack => 2,
        }
    }

    /// Decodes a [`CacheCommand::code`]; `None` for unknown codes.
    pub fn from_code(code: u32) -> Option<CacheCommand> {
        match code {
            0 => Some(CacheCommand::Read),
            1 => Some(CacheCommand::Write),
            2 => Some(CacheCommand::WriteStack),
            _ => None,
        }
    }
}

/// The result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Did the access hit in the cache?
    pub hit: bool,
    /// Extra stall beyond the 200 ns microcycle, in nanoseconds.
    pub stall_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u32,
    last_used: u64,
}

/// A simulated PSI cache.
///
/// Drive it either directly from the machine simulator or by replaying
/// a recorded trace (the PMMS methodology, see `psi-tools`).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    stats: CacheStats,
    stamp: u64,
    /// Simulated time at which main memory becomes free again; used to
    /// model write-back and write-through memory occupancy.
    mem_free_at_ns: u64,
    /// The cache's own access clock, advanced by each access's cost.
    now_ns: u64,
    /// `log2(block_words)`: an address's block number is `raw >> block_shift`.
    block_shift: u32,
    /// `sets - 1`: a block's set is `block & set_mask`.
    set_mask: u32,
    /// `log2(sets)`: a block's tag is `block >> set_shift`.
    set_shift: u32,
}

impl Cache {
    /// Creates a cache with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration geometry is invalid
    /// (see [`CacheConfig::assert_valid`]).
    pub fn new(config: CacheConfig) -> Cache {
        // Validation guarantees power-of-two block and set counts, so
        // the per-access divisions reduce to shifts and a mask.
        config.assert_valid();
        let lines = vec![Line::default(); config.blocks() as usize];
        let sets = config.sets();
        Cache {
            config,
            lines,
            stats: CacheStats::new(),
            stamp: 0,
            mem_free_at_ns: 0,
            now_ns: 0,
            block_shift: config.block_words.trailing_zeros(),
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (but not cache contents); used to exclude
    /// warm-up from measurements.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    /// Advances the cache clock by `ns` of non-memory computation.
    /// Letting time pass drains the write-back/write-through traffic
    /// that would otherwise stall later misses.
    pub fn advance(&mut self, ns: u64) {
        self.now_ns += ns;
    }

    /// Performs one access and returns whether it hit and how long it
    /// stalled the processor beyond the 200 ns cycle.
    pub fn access(&mut self, cmd: CacheCommand, addr: Address) -> AccessOutcome {
        self.stamp += 1;
        let block_addr = addr.raw() >> self.block_shift;
        let set = (block_addr & self.set_mask) as usize;
        let tag = block_addr >> self.set_shift;
        let ways = self.config.ways as usize;
        let base = set * ways;

        let hit_way = self.lines[base..base + ways]
            .iter()
            .position(|line| line.valid && line.tag == tag);

        let hit = hit_way.is_some();
        let write = cmd.is_write();
        let mut stall = 0u64;

        if write && self.config.policy == WritePolicy::StoreThrough {
            // Write-through with one-deep write buffer and no write
            // allocation: update the block on a hit, and send the
            // word to memory in either case.
            if let Some(w) = hit_way {
                self.touch(base + w);
            }
            stall += self.wait_for_memory(stall);
            self.occupy_memory_after(stall);
            self.stats.through_writes += 1;
        } else if let Some(w) = hit_way {
            // A read hit, or a store-in write hit that dirties the
            // block. Branch-free on the command: hits are the common
            // case and the command stream is irregular.
            let line = &mut self.lines[base + w];
            line.last_used = self.stamp;
            line.dirty |= write;
        } else if cmd == CacheCommand::WriteStack && self.config.write_stack_no_fetch {
            // Allocate without read-in: the block is claimed and
            // dirtied but memory is never consulted, so the push
            // completes within the cycle.
            stall += self.allocate_block(base, ways, tag, true, false, 0);
        } else {
            stall += self.fetch_block(base, ways, tag, write);
        }

        self.record(cmd, addr, hit);
        self.now_ns += self.config.hit_ns + stall;
        AccessOutcome {
            hit,
            stall_ns: stall,
        }
    }

    /// Runs a whole trace through the cache, advancing the clock by
    /// `step_ns` of computation between successive accesses, and
    /// returns the total simulated time (computation + stalls).
    pub fn run_trace<'a, I>(&mut self, trace: I, step_ns: u64) -> u64
    where
        I: IntoIterator<Item = &'a (CacheCommand, Address)>,
    {
        let mut total = 0u64;
        for &(cmd, addr) in trace {
            self.advance(step_ns);
            total += step_ns;
            let outcome = self.access(cmd, addr);
            total += outcome.stall_ns;
        }
        total
    }

    fn touch(&mut self, idx: usize) {
        self.lines[idx].last_used = self.stamp;
    }

    /// Waits until main memory is free, measured from this access's
    /// current stall point (`now_ns + stall_so_far`); returns the
    /// extra wait in ns.
    fn wait_for_memory(&self, stall_so_far: u64) -> u64 {
        self.mem_free_at_ns
            .saturating_sub(self.now_ns + stall_so_far)
    }

    /// Marks main memory busy for `memory_busy_ns` beyond this
    /// access's current stall point. Every memory operation — block
    /// fetch, write-back, through-write — occupies memory this way, so
    /// a following operation queues behind it via
    /// [`Cache::wait_for_memory`].
    fn occupy_memory_after(&mut self, stall_so_far: u64) {
        self.mem_free_at_ns = self.now_ns + stall_so_far + self.config.memory_busy_ns;
    }

    /// Picks a victim way in the set, writing back a dirty victim.
    /// `stall_so_far` is the stall the access has already accumulated,
    /// so the write-back queues behind any transfer the same access
    /// started (e.g. its own block fetch). Returns the extra stall
    /// incurred here.
    fn allocate_block(
        &mut self,
        base: usize,
        ways: usize,
        tag: u32,
        dirty: bool,
        fetched: bool,
        stall_so_far: u64,
    ) -> u64 {
        let mut victim = 0usize;
        let mut best = u64::MAX;
        for w in 0..ways {
            let line = &self.lines[base + w];
            if !line.valid {
                victim = w;
                break;
            }
            if line.last_used < best {
                best = line.last_used;
                victim = w;
            }
        }
        let mut stall = 0u64;
        let line = self.lines[base + victim];
        if line.valid && line.dirty {
            // The dirty victim must be stored before the set entry can
            // be reused; the store occupies memory behind the access.
            stall += self.wait_for_memory(stall_so_far);
            self.occupy_memory_after(stall_so_far + stall);
            self.stats.writebacks += 1;
        }
        if fetched {
            self.stats.block_fetches += 1;
        }
        self.lines[base + victim] = Line {
            valid: true,
            dirty,
            tag,
            last_used: self.stamp,
        };
        stall
    }

    /// Fetches a block from memory into the set. Returns the stall.
    fn fetch_block(&mut self, base: usize, ways: usize, tag: u32, dirty: bool) -> u64 {
        let mut stall = self.wait_for_memory(0);
        stall += self.config.miss_extra_ns();
        // The block transfer keeps main memory busy beyond the
        // processor's own miss stall (spec (f)): a back-to-back miss,
        // a write-back, or a through-write racing this fetch queues
        // behind it. Omitting this under-counted clustered-miss
        // stalls.
        self.occupy_memory_after(stall);
        stall += self.allocate_block(base, ways, tag, dirty, true, stall);
        stall
    }

    fn record(&mut self, cmd: CacheCommand, addr: Address, hit: bool) {
        let c = self.stats.area_mut(addr.area());
        let (issued, hits) = match cmd {
            CacheCommand::Read => (&mut c.reads, &mut c.read_hits),
            CacheCommand::Write => (&mut c.writes, &mut c.write_hits),
            CacheCommand::WriteStack => (&mut c.write_stacks, &mut c.write_stack_hits),
        };
        *issued += 1;
        *hits += u64::from(hit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_core::{Area, ProcessId};

    fn addr(off: u32) -> Address {
        Address::new(ProcessId::ZERO, Area::LocalStack, off)
    }

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 4-word blocks = 32 words.
        Cache::new(CacheConfig::psi_with_capacity(32))
    }

    /// Division-indexed reference model of the cache kernel: the
    /// occupancy and replacement rules of [`Cache`], written the
    /// straightforward way (block, set and tag by `/` and `%`, one
    /// match arm per command and policy) so the shift/mask fast path
    /// can be checked against it.
    struct Reference {
        config: CacheConfig,
        lines: Vec<Line>,
        stats: CacheStats,
        stamp: u64,
        mem_free_at_ns: u64,
        now_ns: u64,
    }

    impl Reference {
        fn new(config: CacheConfig) -> Reference {
            Reference {
                config,
                lines: vec![Line::default(); config.blocks() as usize],
                stats: CacheStats::new(),
                stamp: 0,
                mem_free_at_ns: 0,
                now_ns: 0,
            }
        }

        fn memory_op(&mut self, at: u64) -> u64 {
            let wait = self.mem_free_at_ns.saturating_sub(self.now_ns + at);
            self.mem_free_at_ns = self.now_ns + at + wait + self.config.memory_busy_ns;
            wait
        }

        fn allocate(&mut self, base: usize, tag: u32, dirty: bool, at: u64) -> u64 {
            let ways = self.config.ways as usize;
            let set = &self.lines[base..base + ways];
            let victim = set
                .iter()
                .position(|l| !l.valid)
                .unwrap_or_else(|| (0..ways).min_by_key(|&w| set[w].last_used).unwrap());
            let old = self.lines[base + victim];
            let mut stall = 0;
            if old.valid && old.dirty {
                stall = self.memory_op(at);
                self.stats.writebacks += 1;
            }
            self.lines[base + victim] = Line {
                valid: true,
                dirty,
                tag,
                last_used: self.stamp,
            };
            stall
        }

        fn fetch(&mut self, base: usize, tag: u32, dirty: bool) -> u64 {
            let stall = self.memory_op(0) + self.config.miss_extra_ns();
            self.mem_free_at_ns = self.now_ns + stall + self.config.memory_busy_ns;
            self.stats.block_fetches += 1;
            stall + self.allocate(base, tag, dirty, stall)
        }

        fn access(&mut self, cmd: CacheCommand, addr: Address) -> AccessOutcome {
            self.stamp += 1;
            let block = addr.raw() / self.config.block_words;
            let sets = self.config.blocks() / self.config.ways;
            let base = (block % sets) as usize * self.config.ways as usize;
            let tag = block / sets;
            let hit_way = (0..self.config.ways as usize)
                .find(|&w| self.lines[base + w].valid && self.lines[base + w].tag == tag);
            if let Some(w) = hit_way {
                self.lines[base + w].last_used = self.stamp;
            }
            let stall = match (cmd, self.config.policy) {
                (CacheCommand::Read, _) => match hit_way {
                    Some(_) => 0,
                    None => self.fetch(base, tag, false),
                },
                (_, WritePolicy::StoreIn) => match hit_way {
                    Some(w) => {
                        self.lines[base + w].dirty = true;
                        0
                    }
                    None if cmd == CacheCommand::WriteStack && self.config.write_stack_no_fetch => {
                        self.allocate(base, tag, true, 0)
                    }
                    None => self.fetch(base, tag, true),
                },
                (_, WritePolicy::StoreThrough) => {
                    self.stats.through_writes += 1;
                    self.memory_op(0)
                }
            };
            let c = self.stats.area_mut(addr.area());
            let hit = hit_way.is_some();
            match cmd {
                CacheCommand::Read => {
                    c.reads += 1;
                    c.read_hits += u64::from(hit);
                }
                CacheCommand::Write => {
                    c.writes += 1;
                    c.write_hits += u64::from(hit);
                }
                CacheCommand::WriteStack => {
                    c.write_stacks += 1;
                    c.write_stack_hits += u64::from(hit);
                }
            }
            self.now_ns += self.config.hit_ns + stall;
            AccessOutcome {
                hit,
                stall_ns: stall,
            }
        }
    }

    /// The shift/mask kernel agrees with the division-indexed
    /// reference on every access outcome and on the final statistics,
    /// over seeded random streams (stack-like runs, random jumps,
    /// every area and command, random computation gaps) for every
    /// Figure 1 capacity, 1 and 2 ways, both write policies and the
    /// write-stack command with and without block read-in.
    #[test]
    fn kernel_matches_division_indexed_reference() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            // xorshift64*
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound
        };
        let commands = [
            CacheCommand::Read,
            CacheCommand::Write,
            CacheCommand::WriteStack,
        ];
        let mut configs = 0;
        for capacity in (0..11).map(|i| 8u32 << i) {
            for ways in [1, 2] {
                for policy in [WritePolicy::StoreIn, WritePolicy::StoreThrough] {
                    for write_stack_no_fetch in [true, false] {
                        let config = CacheConfig {
                            capacity_words: capacity,
                            ways,
                            policy,
                            write_stack_no_fetch,
                            ..CacheConfig::psi()
                        };
                        let mut fast = Cache::new(config);
                        let mut reference = Reference::new(config);
                        let mut offset = 0u32;
                        for i in 0..4000 {
                            offset = match next(8) {
                                0 => next(1 << 15) as u32,
                                1 => offset.saturating_sub(next(8) as u32),
                                _ => offset + next(3) as u32,
                            };
                            let area = Area::ALL[next(Area::ALL.len() as u64) as usize];
                            let process = ProcessId::new(next(2) as u8);
                            let addr = Address::new(process, area, offset);
                            let cmd = commands[next(3) as usize];
                            let gap = next(4) * 200;
                            fast.advance(gap);
                            reference.now_ns += gap;
                            assert_eq!(
                                fast.access(cmd, addr),
                                reference.access(cmd, addr),
                                "{config:?}: access {i} ({cmd:?} {addr:?})"
                            );
                        }
                        assert_eq!(fast.stats(), &reference.stats, "{config:?}");
                        configs += 1;
                    }
                }
            }
        }
        assert_eq!(configs, 11 * 2 * 2 * 2);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(CacheCommand::Read, addr(0)).hit);
        assert!(c.access(CacheCommand::Read, addr(0)).hit);
        assert!(
            c.access(CacheCommand::Read, addr(3)).hit,
            "same 4-word block"
        );
        assert!(!c.access(CacheCommand::Read, addr(4)).hit, "next block");
    }

    #[test]
    fn lru_eviction_within_set() {
        // tiny() = 8 blocks, 2 ways, 4 sets; blocks 16 words apart
        // share a set.
        let mut c = tiny();
        c.access(CacheCommand::Read, addr(0));
        c.access(CacheCommand::Read, addr(16));
        // touch block 0 so block at offset 16 becomes LRU
        c.access(CacheCommand::Read, addr(0));
        c.access(CacheCommand::Read, addr(32)); // evicts the block at 16
        assert!(c.access(CacheCommand::Read, addr(0)).hit);
        assert!(!c.access(CacheCommand::Read, addr(16)).hit, "was evicted");
    }

    #[test]
    fn write_stack_miss_does_not_fetch() {
        let mut c = tiny();
        let out = c.access(CacheCommand::WriteStack, addr(0));
        assert!(!out.hit);
        assert_eq!(out.stall_ns, 0, "no block read-in on write-stack miss");
        assert_eq!(c.stats().block_fetches, 0);
        // The block is now resident.
        assert!(c.access(CacheCommand::Read, addr(1)).hit);
    }

    #[test]
    fn plain_write_miss_fetches_under_store_in() {
        let mut c = tiny();
        let out = c.access(CacheCommand::Write, addr(0));
        assert!(!out.hit);
        assert_eq!(out.stall_ns, 600);
        assert_eq!(c.stats().block_fetches, 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = tiny();
        c.access(CacheCommand::WriteStack, addr(0)); // dirty block 0 in set 0
        c.access(CacheCommand::Read, addr(16)); // fill way 2 of set 0
        c.access(CacheCommand::Read, addr(32)); // evicts dirty block 0
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn store_through_sends_every_write_to_memory() {
        let mut c = Cache::new(CacheConfig {
            capacity_words: 32,
            ..CacheConfig::psi_store_through()
        });
        c.access(CacheCommand::Read, addr(0));
        c.access(CacheCommand::Write, addr(0));
        c.access(CacheCommand::Write, addr(1));
        assert_eq!(c.stats().through_writes, 2);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn back_to_back_through_writes_stall_on_the_buffer() {
        let mut c = Cache::new(CacheConfig {
            capacity_words: 32,
            ..CacheConfig::psi_store_through()
        });
        c.access(CacheCommand::Read, addr(0)); // make it resident
        c.advance(10_000); // drain the block fetch's memory occupancy
        let w1 = c.access(CacheCommand::Write, addr(0));
        let w2 = c.access(CacheCommand::Write, addr(1));
        assert_eq!(w1.stall_ns, 0, "buffer empty");
        assert!(w2.stall_ns > 0, "buffer still draining");
        // After enough computation time the buffer has drained.
        c.advance(10_000);
        let w3 = c.access(CacheCommand::Write, addr(2));
        assert_eq!(w3.stall_ns, 0);
    }

    /// Regression: `fetch_block` used to leave `mem_free_at_ns`
    /// untouched, so the block transfer of a miss never occupied main
    /// memory and an immediately following miss paid only its own
    /// transfer stall. The second of two back-to-back misses must also
    /// wait out the first fetch's remaining occupancy.
    #[test]
    fn back_to_back_misses_queue_on_memory() {
        let mut c = tiny();
        let m1 = c.access(CacheCommand::Read, addr(0));
        let m2 = c.access(CacheCommand::Read, addr(4));
        assert_eq!(m1.stall_ns, 600, "first miss: transfer only");
        assert_eq!(
            m2.stall_ns,
            600 + 600,
            "second miss: residual occupancy + transfer"
        );
        // Enough computation time between misses drains the occupancy.
        c.advance(10_000);
        let m3 = c.access(CacheCommand::Read, addr(8));
        assert_eq!(m3.stall_ns, 600, "drained: transfer only");
        // Hit ratios are untouched by the timing fix: three accesses,
        // three misses, exactly three block fetches.
        assert_eq!(c.stats().total().accesses(), 3);
        assert_eq!(c.stats().total().hits(), 0);
        assert_eq!(c.stats().block_fetches, 3);
    }

    /// Regression: a through-write racing a just-issued block fetch
    /// must queue behind the fetch's memory occupancy.
    #[test]
    fn through_write_queues_behind_block_fetch() {
        let mut c = Cache::new(CacheConfig {
            capacity_words: 32,
            ..CacheConfig::psi_store_through()
        });
        let miss = c.access(CacheCommand::Read, addr(0));
        assert_eq!(miss.stall_ns, 600);
        let w = c.access(CacheCommand::Write, addr(0));
        assert!(
            w.stall_ns > 0,
            "write must wait for the in-flight fetch, got {}",
            w.stall_ns
        );
    }

    /// A dirty eviction behind the same access's block fetch queues
    /// its write-back after the fetch instead of re-waiting the stale
    /// pre-fetch period (the old code double-counted the initial wait
    /// and never serialized the write-back behind the fetch).
    #[test]
    fn dirty_eviction_queues_writeback_behind_own_fetch() {
        let mut c = tiny();
        // Dirty both ways of set 0 without any fetch traffic.
        c.access(CacheCommand::WriteStack, addr(0));
        c.access(CacheCommand::WriteStack, addr(16));
        c.advance(10_000);
        // Store-in write miss in set 0: fetches the new block and must
        // write back the LRU dirty victim behind that fetch.
        let out = c.access(CacheCommand::Write, addr(32));
        assert_eq!(c.stats().writebacks, 1);
        assert!(
            out.stall_ns > 600,
            "write-back must add stall beyond the fetch, got {}",
            out.stall_ns
        );
    }

    #[test]
    fn stats_account_every_access() {
        let mut c = tiny();
        for i in 0..100 {
            c.access(CacheCommand::Read, addr(i % 40));
            c.access(CacheCommand::WriteStack, addr(200 + (i % 16)));
        }
        let t = c.stats().total();
        assert_eq!(t.accesses(), 200);
        assert_eq!(t.hits() + t.misses(), 200);
        assert!(c.stats().hit_ratio_pct().unwrap() > 50.0);
    }

    #[test]
    fn run_trace_accumulates_time() {
        let trace: Vec<(CacheCommand, Address)> =
            (0..10).map(|i| (CacheCommand::Read, addr(i * 4))).collect();
        let mut c = tiny();
        let time = c.run_trace(&trace, 200);
        // 10 steps of 200 ns + 10 cold misses of 600 ns each... but the
        // tiny cache holds only 8 blocks (4 sets x 2 ways) so all
        // 10 are misses: at least 2000 + 6000.
        assert!(time >= 2000 + 6 * 600, "time = {time}");
        assert_eq!(c.stats().total().accesses(), 10);
    }

    #[test]
    fn larger_cache_never_hits_less_sequential() {
        // On a sequential read sweep, a bigger cache can only do better.
        let sweep: Vec<(CacheCommand, Address)> = (0..2048)
            .map(|i| (CacheCommand::Read, addr(i % 512)))
            .collect();
        let mut hits_prev = 0;
        for cap in [32u32, 128, 512, 2048] {
            let mut c = Cache::new(CacheConfig::psi_with_capacity(cap));
            c.run_trace(&sweep, 200);
            let hits = c.stats().total().hits();
            assert!(hits >= hits_prev, "cap {cap}: {hits} < {hits_prev}");
            hits_prev = hits;
        }
    }
}
