//! PMMS: trace-driven cache re-simulation.
//!
//! "For analyzing the dynamic characteristics of cache memory, we also
//! made a cache memory simulator called PMMS. Hit ratios and its
//! variations according to the cache memory size were obtained by
//! PMMS with cache command patterns and memory addresses collected by
//! COLLECT" (§4.1). This module replays collected traces through any
//! [`CacheConfig`] and computes the paper's performance-improvement
//! ratio (Figure 1) and the §4.2 associativity and write-policy
//! studies.

use psi_cache::{Cache, CacheConfig, CacheStats};
use psi_machine::Machine;
use psi_mem::TraceEntry;

/// Replays a trace through a cache configuration, advancing the cache
/// clock by the actual inter-access step gaps, and returns the final
/// statistics plus the total simulated time in nanoseconds.
pub fn replay(
    trace: &[TraceEntry],
    config: CacheConfig,
    cycle_ns: u64,
    total_steps: u64,
) -> (CacheStats, u64) {
    let mut cache = Cache::new(config);
    let mut stall = 0u64;
    let mut prev_step = 0u64;
    for e in trace {
        let gap = e.step.saturating_sub(prev_step);
        prev_step = e.step;
        cache.advance(gap * cycle_ns);
        stall += cache.access(e.command, e.address).stall_ns;
    }
    let time = total_steps * cycle_ns + stall;
    (*cache.stats(), time)
}

/// The paper's Figure 1 metric:
/// `performance improvement ratio = (Tnc/Tc − 1) × 100`, where `Tnc`
/// is the execution time without cache and `Tc` with the given cache.
pub fn improvement_ratio_pct(
    trace: &[TraceEntry],
    config: CacheConfig,
    cycle_ns: u64,
    total_steps: u64,
) -> f64 {
    let miss_extra = config.miss_extra_ns();
    let (_, tc) = replay(trace, config, cycle_ns, total_steps);
    if tc == 0 {
        // An empty trace of a zero-step run has no execution time to
        // improve; without this guard the 0/0 below would yield NaN
        // and poison the Figure 1 output.
        return 0.0;
    }
    let tnc = total_steps * cycle_ns + trace.len() as u64 * miss_extra;
    (tnc as f64 / tc as f64 - 1.0) * 100.0
}

/// The Figure 1 capacity axis: 8 W – 8 KW by powers of two ("other
/// specifications are same with the cache memory of the PSI").
pub fn figure1_capacities() -> Vec<u32> {
    (0..11).map(|i| 8u32 << i).collect() // 8 .. 8192
}

/// Runs one closure per item on up to `threads` scoped workers,
/// handing items out through a shared atomic cursor (work stealing:
/// long cells never serialize short ones behind them) and returning
/// the results **in input order**. `threads <= 1` maps on the calling
/// thread with no scaffolding. This is the one sweep loop — every
/// capacity/geometry sweep in this module is a thin wrapper over it,
/// where the three pre-consolidation variants each carried their own
/// copy.
///
/// # Panics
///
/// Propagates a panicking cell from the calling thread. The batch
/// engine in `psi-bench` layers per-cell panic containment on top;
/// the in-process sweeps here are expected to be infallible.
pub fn sweep_cells<T, U, F>(items: &[T], threads: usize, cell: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 {
        return items.iter().map(cell).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, cell(item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("sweep worker panicked") {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every cell computed"))
        .collect()
}

/// Replays one trace through every configuration in `configs` (each
/// on its own independent [`Cache`]) and returns the improvement
/// ratio per configuration, in input order. This is the generic
/// geometry axis behind [`capacity_sweep_parallel`] and the batch
/// sweep engine's replay planes.
pub fn geometry_sweep(
    trace: &[TraceEntry],
    configs: &[CacheConfig],
    cycle_ns: u64,
    total_steps: u64,
    threads: usize,
) -> Vec<f64> {
    sweep_cells(configs, threads, |config| {
        improvement_ratio_pct(trace, *config, cycle_ns, total_steps)
    })
}

/// Figure 1: improvement ratio at each capacity (8 W – 8 KW by powers
/// of two, "other specifications are same with the cache memory of
/// the PSI").
pub fn capacity_sweep(trace: &[TraceEntry], cycle_ns: u64, total_steps: u64) -> Vec<(u32, f64)> {
    capacity_sweep_parallel(trace, cycle_ns, total_steps, 1)
}

/// [`capacity_sweep`] with each capacity replayed on its own scoped
/// worker thread (up to `threads` at once; 1 = serial). Every replay
/// drives an independent [`Cache`], so the result is identical to the
/// serial sweep, just wall-clock faster.
pub fn capacity_sweep_parallel(
    trace: &[TraceEntry],
    cycle_ns: u64,
    total_steps: u64,
    threads: usize,
) -> Vec<(u32, f64)> {
    let caps = figure1_capacities();
    let configs: Vec<CacheConfig> = caps
        .iter()
        .map(|&cap| CacheConfig::psi_with_capacity(cap))
        .collect();
    caps.into_iter()
        .zip(geometry_sweep(
            trace,
            &configs,
            cycle_ns,
            total_steps,
            threads,
        ))
        .collect()
}

/// The paper's Figure 1 metric computed from a *live* run instead of
/// a replayed trace: `Tc` is the run's simulated time, `Tnc` prices
/// every cache access at the miss premium on top of the stall-free
/// step time. Shared by [`capacity_sweep_forked`] and the batch
/// engine's fork cells so both derive the ratio identically.
pub fn improvement_from_run(
    steps: u64,
    time_ns: u64,
    cache_accesses: u64,
    cycle_ns: u64,
    config: CacheConfig,
) -> f64 {
    if time_ns == 0 {
        return 0.0;
    }
    let tnc = steps * cycle_ns + cache_accesses * config.miss_extra_ns();
    (tnc as f64 / time_ns as f64 - 1.0) * 100.0
}

/// [`capacity_sweep`] computed live instead of by trace replay: each
/// capacity cell [forks](Machine::fork) the consulted template with
/// its own cache geometry and runs the goal for real, reading `Tc`
/// from the forked machine's clock and `Tnc` from its step and access
/// counts. One consult serves all eleven cells (previously each cell
/// re-parsed and re-compiled the program), and because the memory
/// trace is a pure function of execution — not of cache geometry —
/// the ratios are bit-identical to replaying a collected trace
/// through the same configurations (regression-tested below).
///
/// The template must be a consulted, never-run machine in the
/// fidelity lane; the goal runs with memory tracing off, since the
/// live cache statistics replace the trace.
///
/// # Errors
///
/// [`psi_core::PsiError::ForkAfterRun`] if `template` has already
/// compiled or run a query; any machine error from running `goal`.
pub fn capacity_sweep_forked(
    template: &Machine,
    goal: &str,
    max_solutions: usize,
    threads: usize,
) -> psi_core::Result<Vec<(u32, f64)>> {
    let caps = figure1_capacities();
    let cycle_ns = template.config().cycle_ns;
    let cells = sweep_cells(&caps, threads, |&cap| -> psi_core::Result<(u32, f64)> {
        let config = CacheConfig::psi_with_capacity(cap);
        let mut m = template.fork_with_cache(Some(config))?;
        m.solve(goal, max_solutions)?;
        let stats = m.stats();
        let ratio = improvement_from_run(
            stats.steps,
            stats.time_ns,
            stats.cache.total().accesses(),
            cycle_ns,
            config,
        );
        Ok((cap, ratio))
    });
    cells.into_iter().collect()
}

/// §4.2 associativity study: improvement ratios with two 4K-word sets
/// (2-way, 8 KW) versus one 4K-word set (direct-mapped, 4 KW). The
/// paper found the single set "only 3% lower".
pub fn associativity_study(trace: &[TraceEntry], cycle_ns: u64, total_steps: u64) -> (f64, f64) {
    let two = improvement_ratio_pct(trace, CacheConfig::psi_two_set_8k(), cycle_ns, total_steps);
    let one = improvement_ratio_pct(
        trace,
        CacheConfig::psi_direct_mapped_4k(),
        cycle_ns,
        total_steps,
    );
    (two, one)
}

/// §4.2 write-policy study: improvement ratios under store-in versus
/// store-through. The paper found store-in "8% higher".
pub fn policy_study(trace: &[TraceEntry], cycle_ns: u64, total_steps: u64) -> (f64, f64) {
    let store_in = improvement_ratio_pct(trace, CacheConfig::psi(), cycle_ns, total_steps);
    let store_through = improvement_ratio_pct(
        trace,
        CacheConfig::psi_store_through(),
        cycle_ns,
        total_steps,
    );
    (store_in, store_through)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_cache::CacheCommand;
    use psi_core::{Address, Area, ProcessId};

    /// A looping trace with strong locality plus occasional far
    /// accesses.
    fn trace(n: u64) -> Vec<TraceEntry> {
        (0..n)
            .map(|i| TraceEntry {
                step: i * 5,
                command: if i % 4 == 3 {
                    CacheCommand::WriteStack
                } else {
                    CacheCommand::Read
                },
                address: Address::new(
                    ProcessId::ZERO,
                    Area::Heap,
                    if i % 17 == 0 {
                        (i * 97 % 4096) as u32
                    } else {
                        (i % 64) as u32
                    },
                ),
            })
            .collect()
    }

    #[test]
    fn replay_accounts_all_accesses() {
        let t = trace(500);
        let (stats, time) = replay(&t, CacheConfig::psi(), 200, 2500);
        assert_eq!(stats.total().accesses(), 500);
        assert!(time >= 2500 * 200);
    }

    #[test]
    fn improvement_grows_with_capacity() {
        let t = trace(4000);
        let sweep = capacity_sweep(&t, 200, 20_000);
        assert_eq!(sweep.len(), 11); // 8 .. 8192
        let first = sweep.first().unwrap().1;
        let last = sweep.last().unwrap().1;
        assert!(
            last >= first,
            "bigger cache must not hurt: {first} vs {last}"
        );
        assert!(last > 0.0, "a cache must help this trace");
        // Monotone non-decreasing within noise for this regular trace.
        for w in sweep.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1.0, "{:?}", sweep);
        }
    }

    #[test]
    fn two_way_beats_or_matches_direct_mapped() {
        let t = trace(4000);
        let (two, one) = associativity_study(&t, 200, 20_000);
        assert!(two >= one - 0.5, "two={two} one={one}");
    }

    /// Regression: an empty trace with `total_steps == 0` used to
    /// divide 0 by 0 and return NaN, which then propagated into the
    /// Figure 1 report. It must be a finite, neutral 0.0.
    #[test]
    fn empty_trace_with_zero_steps_yields_zero_not_nan() {
        let ratio = improvement_ratio_pct(&[], CacheConfig::psi(), 200, 0);
        assert!(ratio.is_finite(), "got {ratio}");
        assert_eq!(ratio, 0.0);
        let sweep = capacity_sweep(&[], 200, 0);
        assert!(sweep.iter().all(|(_, r)| r.is_finite() && *r == 0.0));
        let (two, one) = associativity_study(&[], 200, 0);
        assert_eq!((two, one), (0.0, 0.0));
    }

    /// The counters `total` gained over its prefix `prefix`.
    fn since(total: &CacheStats, prefix: &CacheStats) -> CacheStats {
        let mut d = CacheStats::new();
        for area in Area::ALL {
            let (t, p) = (total.area(area), prefix.area(area));
            *d.area_mut(area) = psi_cache::AreaCacheCounters {
                reads: t.reads - p.reads,
                writes: t.writes - p.writes,
                write_stacks: t.write_stacks - p.write_stacks,
                read_hits: t.read_hits - p.read_hits,
                write_hits: t.write_hits - p.write_hits,
                write_stack_hits: t.write_stack_hits - p.write_stack_hits,
            };
        }
        d.stall_ns = total.stall_ns - prefix.stall_ns;
        d.writebacks = total.writebacks - prefix.writebacks;
        d.block_fetches = total.block_fetches - prefix.block_fetches;
        d.through_writes = total.through_writes - prefix.through_writes;
        d
    }

    /// The fork-based live sweep must agree bit-for-bit with replaying
    /// a collected trace through the same configurations — the memory
    /// trace is a pure function of execution, not of cache geometry,
    /// so both paths feed identical access streams to identical cache
    /// models. The live bus advances its cache clock lazily, by the
    /// step gap at each access, exactly as replay does: live
    /// statistics and simulated time equal replay's on every §4.2
    /// geometry, also across a `reset_measurement` between two solves
    /// that leaves the cache warm.
    #[test]
    fn forked_sweep_matches_trace_replay() {
        use kl0::Program;
        use psi_machine::MachineConfig;

        const SRC: &str = "app([], L, L).\n\
                           app([H|T], L, [H|R]) :- app(T, L, R).\n\
                           rev([], []).\n\
                           rev([H|T], R) :- rev(T, RT), app(RT, [H], R).";
        let goal = "rev([1,2,3,4,5,6,7,8], R)";

        // Trace branch: one traced run on the stock PSI cache.
        let mut config = MachineConfig::psi();
        config.trace_memory = true;
        let mut traced = Machine::load(&Program::parse(SRC).unwrap(), config).unwrap();
        traced.solve(goal, 1).unwrap();
        let steps = traced.stats().steps;
        let t = traced.take_trace();
        assert!(!t.is_empty());
        let replayed = capacity_sweep_parallel(&t, 200, steps, 2);

        // Live branch: eleven forks of one consulted template.
        let template = Machine::load(&Program::parse(SRC).unwrap(), MachineConfig::psi()).unwrap();
        let forked = capacity_sweep_forked(&template, goal, 1, 2).unwrap();
        assert_eq!(forked, replayed);

        // The template stayed pristine, so the sweep can run again.
        assert_eq!(
            capacity_sweep_forked(&template, goal, 1, 1).unwrap(),
            forked
        );

        // A run machine is not a template.
        let err = capacity_sweep_forked(&traced, goal, 1, 1).unwrap_err();
        assert_eq!(err.wire_kind(), "fork_after_run");

        for geometry in [
            CacheConfig::psi(),
            CacheConfig::psi_direct_mapped_4k(),
            CacheConfig::psi_store_through(),
        ] {
            let mut config = MachineConfig::psi();
            config.cache = Some(geometry);
            config.trace_memory = true;
            let mut m = Machine::load(&Program::parse(SRC).unwrap(), config).unwrap();
            m.solve(goal, 1).unwrap();
            let first = m.stats();
            let first_trace = m.take_trace();
            assert_eq!(
                replay(&first_trace, geometry, 200, first.steps),
                (first.cache, first.time_ns),
                "{geometry:?}"
            );

            m.reset_measurement();
            m.solve("rev([3,1,2,5,4], R)", 1).unwrap();
            let second = m.stats();
            // Replay both runs through one cache, the second run's
            // steps shifted to follow the first's, and keep only the
            // second run's share.
            let joined: Vec<TraceEntry> = first_trace
                .iter()
                .copied()
                .chain(m.take_trace().into_iter().map(|e| TraceEntry {
                    step: e.step + first.steps,
                    ..e
                }))
                .collect();
            let (all, all_time) = replay(&joined, geometry, 200, first.steps + second.steps);
            assert_eq!(since(&all, &first.cache), second.cache, "{geometry:?}");
            assert_eq!(all_time - first.time_ns, second.time_ns, "{geometry:?}");
        }
    }

    #[test]
    fn store_in_beats_store_through() {
        let t = trace(4000);
        let (si, st) = policy_study(&t, 200, 20_000);
        assert!(si > st, "store-in {si} vs store-through {st}");
    }
}
