//! The warm machine pool.
//!
//! A consulted [`Machine`] is expensive relative to a short query:
//! parsing, lowering, compiling, seeding the simulated heap, and (on
//! first dispatches) filling the predecode cache. The pool keeps
//! recycled machines shelved **by the exact source text they were
//! consulted with**, so a new session consulting the same program
//! starts on a warm machine — loaded code, predecode entries and
//! clause-index buckets intact — with zero per-run state (the
//! [`Machine::recycle`] contract, regression-tested in
//! `tests/session_reuse.rs`).
//!
//! Shelf *misses* no longer pay a full compile either: the first cold
//! load of each source is kept as a consulted, never-run **template**,
//! and later misses are served by [`Machine::fork`] — the compiled
//! image, predecode cache and clause index are shared behind `Arc`,
//! only the run state is fresh. Because a template has never executed
//! a query, a forked lease carries no other session's history and no
//! recycle hazard at all; forking is also immune to the heap-creep
//! retirement that bounds shelved machines. Fork-vs-fresh
//! bit-identity is regression-tested over the whole Table 1 suite in
//! `tests/fork.rs`.
//!
//! Three safety rules shape the design:
//!
//! * Reuse requires *string-equal* source, not merely equal hashes —
//!   a machine cannot unload code, so handing it to a session that
//!   consulted anything else would leak one tenant's program into
//!   another's session. A session that consults incrementally extends
//!   its lease key with each consulted text, so the composite key
//!   `A + B` never collides with plain `A`.
//! * A machine is only pooled after a *clean* session end. A session
//!   that panicked drops its machine on the floor, and a session
//!   whose incremental consult failed partway [taints](Lease::taint)
//!   its lease (the machine may hold a partially-compiled program
//!   that its pool key does not describe); tainted leases are retired
//!   at check-in. So are machines whose session changed the clause
//!   database with `assert`/`asserta`/`retract`
//!   ([`Machine::database_modified`]): recycling resets run state,
//!   not clauses, and the next session of the same source must see
//!   only the consulted program.
//! * Templates are never run and never handed out directly — every
//!   lease is a fork, a shelved recycle, or a cold load.
//!
//! Each checkout/checkin also counts sessions served per machine and
//! retires machines after [`PoolOptions::reuse_cap`] sessions: query
//! compilation appends a small entry stub per solve, so a bounded
//! session count keeps a pooled machine's heap from creeping.

use kl0::Program;
use psi_core::Result;
use psi_machine::{Machine, MachineConfig};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Pool tuning knobs.
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Machines kept warm per distinct source (more concurrent
    /// sessions of one program than this fall back to template
    /// forks).
    pub shelf_cap: usize,
    /// Sessions one machine may serve before it is retired instead of
    /// re-pooled.
    pub reuse_cap: u32,
    /// Distinct sources whose consulted templates are retained for
    /// fork-serving. Beyond this many sources, misses on new sources
    /// fall back to handing out the cold load itself.
    pub template_cap: usize,
}

impl Default for PoolOptions {
    fn default() -> PoolOptions {
        PoolOptions {
            shelf_cap: 32,
            reuse_cap: 64,
            template_cap: 64,
        }
    }
}

struct Shelved {
    machine: Machine,
    sessions_served: u32,
}

/// A machine checked out of (or destined for) the pool.
pub struct Lease {
    /// The machine itself.
    pub machine: Machine,
    /// Exact source text consulted into `machine`, the pool key.
    pub source: String,
    sessions_served: u32,
    /// Whether this lease was served warm from the pool.
    pub warm: bool,
    /// Whether this lease was forked from a consulted template
    /// (shelf miss served without a compile).
    pub forked: bool,
    tainted: bool,
}

impl Lease {
    /// Marks the machine as no longer described by its pool key — for
    /// example after an incremental consult failed partway, leaving a
    /// partially-compiled program loaded. A tainted lease still
    /// serves its own session but is retired at
    /// [`MachinePool::checkin`] instead of shelved.
    pub fn taint(&mut self) {
        self.tainted = true;
    }

    /// Whether [`Lease::taint`] has been called.
    pub fn is_tainted(&self) -> bool {
        self.tainted
    }
}

/// Thread-safe warm pool of consulted machines, keyed by source text.
pub struct MachinePool {
    config: MachineConfig,
    options: PoolOptions,
    shelves: Mutex<HashMap<String, Vec<Shelved>>>,
    templates: Mutex<HashMap<String, Arc<Machine>>>,
}

impl MachinePool {
    /// An empty pool handing out machines with `config`.
    pub fn new(config: MachineConfig, options: PoolOptions) -> MachinePool {
        MachinePool {
            config,
            options,
            shelves: Mutex::new(HashMap::new()),
            templates: Mutex::new(HashMap::new()),
        }
    }

    /// The machine configuration every lease is created with.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Checks out a machine consulted with exactly `source`: warm from
    /// the shelf when available, else a cheap fork of the source's
    /// consulted template, else a cold load (which seeds the
    /// template). Nothing heavy happens under a pool lock — compiles
    /// and forks run outside it.
    ///
    /// # Errors
    ///
    /// Typed parse/compile errors from a cold load of `source`.
    pub fn checkout(&self, source: &str) -> Result<Lease> {
        let warm = {
            let mut shelves = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
            shelves.get_mut(source).and_then(Vec::pop)
        };
        if let Some(shelved) = warm {
            return Ok(Lease {
                machine: shelved.machine,
                source: source.to_owned(),
                sessions_served: shelved.sessions_served,
                warm: true,
                forked: false,
                tainted: false,
            });
        }
        let template = {
            let templates = self.templates.lock().unwrap_or_else(|e| e.into_inner());
            templates.get(source).cloned()
        };
        if let Some(template) = template {
            // Templates are consulted and never run, so fork cannot
            // fail; shared-image forking makes the miss path cheap.
            let machine = template.fork()?;
            return Ok(Lease {
                machine,
                source: source.to_owned(),
                sessions_served: 0,
                warm: false,
                forked: true,
                tainted: false,
            });
        }
        let program = Program::parse(source)?;
        let machine = Machine::load(&program, self.config.clone())?;
        let machine = self.seed_template(source, machine)?;
        Ok(Lease {
            machine,
            source: source.to_owned(),
            sessions_served: 0,
            warm: false,
            forked: false,
            tainted: false,
        })
    }

    /// Consults `source` into a template without handing out a lease,
    /// so the first real checkout of that source is already a fork.
    ///
    /// # Errors
    ///
    /// Typed parse/compile errors from loading `source`.
    pub fn preload(&self, source: &str) -> Result<()> {
        {
            let templates = self.templates.lock().unwrap_or_else(|e| e.into_inner());
            if templates.contains_key(source) {
                return Ok(());
            }
        }
        let program = Program::parse(source)?;
        let machine = Machine::load(&program, self.config.clone())?;
        self.seed_template(source, machine)?;
        Ok(())
    }

    /// Retains `machine` as the template for `source` (capacity
    /// permitting) and returns a machine to hand out: a fork of the
    /// retained template, or `machine` itself when the template map is
    /// full or another thread seeded the source first.
    fn seed_template(&self, source: &str, machine: Machine) -> Result<Machine> {
        let mut templates = self.templates.lock().unwrap_or_else(|e| e.into_inner());
        if templates.contains_key(source) || templates.len() >= self.options.template_cap {
            return Ok(machine);
        }
        let template = Arc::new(machine);
        templates.insert(source.to_owned(), Arc::clone(&template));
        drop(templates);
        template.fork()
    }

    /// Returns a lease after a clean session end: the machine is
    /// recycled and shelved for the next session consulting the same
    /// source — unless its shelf is full, it served its
    /// [`PoolOptions::reuse_cap`]'th session, the lease was
    /// [tainted](Lease::taint), or the session changed the clause
    /// database, in which case it is retired (dropped).
    /// Never call this for a session that panicked; drop the lease
    /// instead.
    pub fn checkin(&self, mut lease: Lease) {
        lease.sessions_served += 1;
        if lease.tainted
            || lease.machine.database_modified()
            || lease.sessions_served >= self.options.reuse_cap
        {
            return;
        }
        lease.machine.recycle();
        let mut shelves = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
        let shelf = shelves.entry(lease.source).or_default();
        if shelf.len() < self.options.shelf_cap {
            shelf.push(Shelved {
                machine: lease.machine,
                sessions_served: lease.sessions_served,
            });
        }
    }

    /// Machines currently shelved (all sources).
    pub fn idle_count(&self) -> usize {
        let shelves = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
        shelves.values().map(Vec::len).sum()
    }

    /// Consulted templates currently retained for fork-serving.
    pub fn template_count(&self) -> usize {
        let templates = self.templates.lock().unwrap_or_else(|e| e.into_inner());
        templates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> MachinePool {
        let mut config = MachineConfig::psi_throughput();
        config.clause_indexing = true;
        MachinePool::new(config, PoolOptions::default())
    }

    #[test]
    fn checkout_checkin_reuses_the_same_source_only() {
        let pool = pool();
        let lease = pool.checkout("p(1). p(2).").unwrap();
        assert!(!lease.warm);
        pool.checkin(lease);
        assert_eq!(pool.idle_count(), 1);
        // Same source: warm.
        let lease = pool.checkout("p(1). p(2).").unwrap();
        assert!(lease.warm);
        pool.checkin(lease);
        // Different source (even a whitespace difference): cold.
        let lease = pool.checkout("p(1).  p(2).").unwrap();
        assert!(!lease.warm);
        drop(lease);
    }

    #[test]
    fn shelf_misses_fork_the_template_instead_of_recompiling() {
        let pool = pool();
        // First checkout of a source compiles once and seeds the
        // template.
        let a = pool.checkout("t(1). t(2).").unwrap();
        assert!(!a.warm);
        assert_eq!(pool.template_count(), 1);
        // Concurrent second session on the same source: the shelf is
        // empty (the first lease is still out), so this is a fork.
        let mut b = pool.checkout("t(1). t(2).").unwrap();
        assert!(!b.warm);
        assert!(b.forked);
        assert_eq!(b.machine.solve("t(X)", 9).unwrap().len(), 2);
        drop(a);
        drop(b);
    }

    #[test]
    fn forked_leases_solve_bit_identically_to_cold_loads() {
        let pool = pool();
        let mut cold = pool.checkout("f(a). f(b). g(X) :- f(X).").unwrap();
        let mut fork = pool.checkout("f(a). f(b). g(X) :- f(X).").unwrap();
        assert!(fork.forked);
        let cold_solutions = cold.machine.solve("g(X)", 9).unwrap();
        let fork_solutions = fork.machine.solve("g(X)", 9).unwrap();
        assert_eq!(cold_solutions, fork_solutions);
        assert_eq!(cold.machine.stats(), fork.machine.stats());
    }

    #[test]
    fn warm_machines_solve_like_fresh_ones() {
        let pool = pool();
        let mut lease = pool.checkout("q(a). q(b).").unwrap();
        let first = lease.machine.solve("q(X)", 9).unwrap();
        pool.checkin(lease);
        let mut lease = pool.checkout("q(a). q(b).").unwrap();
        assert!(lease.warm);
        let second = lease.machine.solve("q(X)", 9).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            lease.machine.stats().steps,
            {
                let mut fresh = pool.checkout("q(a). q(b).").unwrap();
                fresh.machine.solve("q(X)", 9).unwrap();
                fresh.machine.stats().steps
            },
            "warm solve must cost the same simulated steps as a fresh one"
        );
    }

    #[test]
    fn reuse_cap_retires_machines() {
        let pool = MachinePool::new(
            MachineConfig::psi_throughput(),
            PoolOptions {
                shelf_cap: 8,
                reuse_cap: 2,
                template_cap: 8,
            },
        );
        let lease = pool.checkout("r(1).").unwrap();
        pool.checkin(lease); // served 1 → shelved
        assert_eq!(pool.idle_count(), 1);
        let lease = pool.checkout("r(1).").unwrap();
        assert!(lease.warm);
        pool.checkin(lease); // served 2 → retired
        assert_eq!(pool.idle_count(), 0);
    }

    #[test]
    fn tainted_leases_are_retired_not_shelved() {
        let pool = pool();
        let mut lease = pool.checkout("w(1).").unwrap();
        lease.taint();
        assert!(lease.is_tainted());
        pool.checkin(lease);
        assert_eq!(
            pool.idle_count(),
            0,
            "tainted machines must never be shelved"
        );
        // The next checkout of the same source is a template fork, not
        // the tainted machine.
        let lease = pool.checkout("w(1).").unwrap();
        assert!(!lease.warm);
        assert!(lease.forked);
    }

    /// Regression: a session's `assert`/`asserta`/`retract` changes
    /// survived `Machine::recycle`, so the next session of the same
    /// source solved against the previous tenant's clauses.
    #[test]
    fn database_changes_never_reach_the_next_session() {
        const SRC: &str = "c(1). c(2).";
        let pool = pool();
        let count = |lease: &mut Lease| lease.machine.solve("c(X)", 100).unwrap().len();

        let mut lease = pool.checkout(SRC).unwrap();
        assert!(!lease.machine.database_modified());
        lease
            .machine
            .solve("assert(c(3)), asserta(c(0))", 1)
            .unwrap();
        lease.machine.solve("retract(c(1))", 1).unwrap();
        assert_eq!(count(&mut lease), 3);
        assert!(lease.machine.database_modified());
        pool.checkin(lease);
        assert_eq!(pool.idle_count(), 0, "a changed database is retired");

        let mut lease = pool.checkout(SRC).unwrap();
        assert!(!lease.warm);
        assert_eq!(count(&mut lease), 2, "only the consulted clauses");
        pool.checkin(lease);

        // A read-only session still shelves its machine.
        let mut lease = pool.checkout(SRC).unwrap();
        assert!(lease.warm);
        assert!(!lease.machine.database_modified());
        assert_eq!(count(&mut lease), 2);
        pool.checkin(lease);
        assert_eq!(pool.idle_count(), 1);
    }

    #[test]
    fn template_cap_bounds_retained_sources() {
        let pool = MachinePool::new(
            MachineConfig::psi_throughput(),
            PoolOptions {
                shelf_cap: 8,
                reuse_cap: 64,
                template_cap: 2,
            },
        );
        let a = pool.checkout("a(1).").unwrap();
        let b = pool.checkout("b(1).").unwrap();
        let mut c = pool.checkout("c(1).").unwrap();
        assert_eq!(
            pool.template_count(),
            2,
            "third source must not be retained"
        );
        assert!(!c.forked, "over-cap miss hands out the cold load itself");
        assert_eq!(c.machine.solve("c(X)", 9).unwrap().len(), 1);
        drop((a, b, c));
    }

    #[test]
    fn preload_makes_the_first_checkout_a_fork() {
        let pool = pool();
        pool.preload("pre(1). pre(2).").unwrap();
        assert_eq!(pool.template_count(), 1);
        pool.preload("pre(1). pre(2).").unwrap(); // idempotent
        assert_eq!(pool.template_count(), 1);
        let mut lease = pool.checkout("pre(1). pre(2).").unwrap();
        assert!(lease.forked);
        assert_eq!(lease.machine.solve("pre(X)", 9).unwrap().len(), 2);
        assert!(pool.preload("broken(").is_err());
    }

    #[test]
    fn malformed_source_is_a_typed_error() {
        let pool = pool();
        assert!(pool.checkout("p(").is_err());
    }
}
