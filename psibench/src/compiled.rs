//! `compiled_solve`: the paper's Table 1 speed rows on the fastest
//! lane. Templates are consulted once at set-up; each op forks one and
//! solves on it, so fused dispatch and fork do the work.

use crate::bench::{
    ns_between, reset_peak_rss, run_passes, FailKind, Failure, Outcome, Rng, Sample, Timing, OP,
    SETUP,
};
use crate::trace::{timed, OpTrace};
use kl0::Program;
use psi_machine::{Machine, MachineConfig};
use psi_workloads::runner::run_on_dec;
use psi_workloads::suite::{table1_suite, Table1Entry};
use std::time::Instant;

/// Lane C with first-argument clause indexing.
fn config() -> MachineConfig {
    MachineConfig {
        clause_indexing: true,
        ..MachineConfig::psi_compiled()
    }
}

/// Parses and loads one template per row.
fn consult_templates(
    rows: &[Table1Entry],
    out: &mut Outcome,
    traced: bool,
) -> Result<Vec<Machine>, String> {
    rows.iter()
        .map(|row| {
            let mut trace = traced.then(OpTrace::default);
            let start = Instant::now();
            let machine = timed(&mut trace, "kl0.parse", || {
                Program::parse(&row.workload.source)
            })
            .and_then(|p| timed(&mut trace, "machine.load", || Machine::load(&p, config())));
            if let Some(t) = trace {
                out.tracer.record(SETUP, start, Instant::now(), t);
            }
            machine.map_err(|e| format!("{}: {e}", row.workload.name))
        })
        .collect()
}

/// [`consult_templates`] and the nanoseconds it took.
fn timed_consult(
    rows: &[Table1Entry],
    out: &mut Outcome,
    traced: bool,
) -> Result<(Vec<Machine>, u64), String> {
    let t = Instant::now();
    let machines = consult_templates(rows, out, traced)?;
    Ok((machines, ns_between(t, Instant::now())))
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::new(Instant::now(), Timing::RowQuantile(0.0));
    let rows = table1_suite();

    // Reference, not counted as set-up: the DEC-10 engine's solutions.
    let dec: Vec<Result<Vec<String>, String>> = rows
        .iter()
        .map(|r| {
            run_on_dec(&r.workload)
                .map(|d| d.solutions)
                .map_err(|e| e.to_string())
        })
        .collect();
    if let Err(e) = reset_peak_rss() {
        out.report
            .push(format!("peak_rss_mb includes the references: {e}"));
    }

    let mut rng = Rng::new(seed);
    let mut steps_seen: Vec<Option<u64>> = vec![None; rows.len()];
    let mut templates = Vec::new();
    let mut setup_error = None;
    let passes = run_passes(seconds, trace, |traced, setup_due| {
        if setup_error.is_some() {
            return;
        }
        // Set-up runs before the first pass and again once a second, so
        // `setup_s` is the fastest of many set-ups spread over the run,
        // like the ops. The later ones run on a thread of their own and
        // are dropped there: their memory then comes from an allocator
        // arena of its own, and does not fragment the heap the ops use
        // (which moved `peak_rss_mb` by a tenth from run to run).
        if setup_due {
            let setup = if templates.is_empty() {
                timed_consult(&rows, &mut out, traced).map(|(m, ns)| {
                    templates = m;
                    ns
                })
            } else {
                std::thread::scope(|s| {
                    s.spawn(|| timed_consult(&rows, &mut out, traced).map(|(_, ns)| ns))
                        .join()
                })
                .unwrap_or_else(|_| Err("set-up thread panicked".into()))
            };
            match setup {
                Ok(ns) => out.setup_ns.push(ns),
                Err(e) => {
                    setup_error = Some(e);
                    return;
                }
            }
        }
        for row in rng.permutation(rows.len()) {
            let w = &rows[row].workload;
            let mut op_trace = traced.then(OpTrace::default);
            let start = Instant::now();
            let result =
                timed(&mut op_trace, "machine.fork", || templates[row].fork()).and_then(|mut m| {
                    let sols = timed(&mut op_trace, "machine.solve", || {
                        m.solve(&w.goal, w.max_solutions)
                    })?;
                    Ok((sols, m.stats().steps))
                });
            let end = Instant::now();
            if let Some(t) = op_trace {
                out.tracer.record(OP, start, end, t);
            }
            out.attempted += 1;
            let ns = ns_between(start, end);
            let fail = |kind, expected: String, actual: String| Failure {
                kind,
                item: w.name.clone(),
                seed,
                expected,
                actual,
            };
            let expected = dec[row].as_ref().map(|d| d.join(" ; "));
            let (solutions, steps) = match result {
                Ok(r) => r,
                Err(e) => {
                    let exp = expected.clone().unwrap_or_default();
                    out.failures.push(fail(FailKind::Error, exp, e.to_string()));
                    out.samples.push(Sample {
                        row,
                        ns,
                        steps: None,
                        accesses: 0,
                        traced,
                    });
                    continue;
                }
            };
            out.samples.push(Sample {
                row,
                ns,
                steps: Some(steps),
                accesses: 0,
                traced,
            });
            let got: Vec<String> = solutions.iter().map(ToString::to_string).collect();
            match &expected {
                Ok(exp) if *exp != got.join(" ; ") => {
                    out.failures
                        .push(fail(FailKind::Wrong, exp.clone(), got.join(" ; ")));
                }
                Ok(_) => {}
                Err(_) => out.unchecked += 1,
            }
            // The same row must take the same steps on every fork.
            match steps_seen[row] {
                Some(s) if s != steps => out.failures.push(fail(
                    FailKind::Wrong,
                    format!("{s} steps"),
                    format!("{steps} steps"),
                )),
                _ => steps_seen[row] = Some(steps),
            }
        }
    });
    if let Some(e) = setup_error {
        return Err(e);
    }
    out.passes = passes;

    out.report.push(format!(
        "{:<22} {:>11} {:>10} {:>10}  reference",
        "row", "steps", "op_ms_p50", "Msteps/s"
    ));
    for (i, row) in rows.iter().enumerate() {
        let ns: Vec<u64> = out
            .samples
            .iter()
            .filter(|s| s.row == i)
            .map(|s| s.ns)
            .collect();
        let p50 = psi_tools::quantile::percentile(&ns, 0.5);
        let steps = steps_seen[i].unwrap_or(0);
        out.report.push(format!(
            "{:<22} {:>11} {:>10.3} {:>10.2}  {}",
            row.workload.name,
            steps,
            p50 as f64 / 1e6,
            steps as f64 * 1e3 / p50.max(1) as f64,
            if dec[i].is_ok() {
                "dec10"
            } else {
                "dec10 failed"
            }
        ));
    }
    Ok(out)
}
