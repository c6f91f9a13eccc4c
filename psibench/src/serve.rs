//! `serve_corpus`: one closed-loop client against an in-process
//! `psi-server`. Each op is one request — connect, consult, solve,
//! close — drawn from a seeded corpus that mixes read-only families
//! with families that write to the clause database (`churn`, `fill`),
//! and sources seen before with new ones.
//!
//! A pass is one server lifetime: spawn with an empty warm pool, send
//! the pass's slice of the run's request stream, read the pool's
//! counters, shut down. A run sends a fixed number of requests, sized
//! from `--seconds` at the server's rate when this benchmark was made
//! (about 100 requests per second), so a seed always sends the same
//! requests; with one client the pool's state, and therefore every
//! reply, depends only on that stream. A faster server finishes the
//! run sooner.

use crate::bench::{
    ns_between, peak_rss_kb, release_free_memory, reset_peak_rss, FailKind, Failure, Metric,
    Outcome, Rng, Sample, Timing, OP,
};
use crate::trace::{timed, OpTrace};
use psi_server::{Client, ClientError, Server, ServerOptions, SolveReply};
use psi_workloads::corpus::{generate, CorpusProgram, CorpusSpec};
use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::time::Instant;

/// Corpus programs generated from the seed (a hundred of each family).
const PROGRAMS: usize = 700;
/// Requests per pass, drawn from the corpus with replacement.
const REQUESTS: usize = 300;
/// One pass for every this many seconds of `--seconds`.
const PASS_SECONDS: u64 = 3;

/// The corpus families; a request's row for `msteps_per_s` is its
/// family, so the metric does not hang on the sizes of single programs.
const FAMILIES: [&str; 7] = [
    "fact_db",
    "chain",
    "disjunction",
    "churn",
    "fill",
    "negation",
    "arith",
];

fn family_row(p: &CorpusProgram) -> usize {
    FAMILIES
        .iter()
        .position(|f| *f == p.family)
        .unwrap_or(FAMILIES.len())
}

/// Passes of a run of `seconds` (at least two when tracing, which
/// alternates untraced and traced passes).
pub fn passes(seconds: u64, trace: bool) -> usize {
    let n = usize::try_from(seconds / PASS_SECONDS).unwrap_or(usize::MAX);
    n.max(if trace { 2 } else { 1 })
}

/// The corpus and the request stream of `passes` passes a seed gives.
pub fn request_stream(seed: u64, passes: usize) -> (Vec<CorpusProgram>, Vec<usize>) {
    let programs = generate(&CorpusSpec::new(seed, PROGRAMS));
    let mut rng = Rng::new(seed);
    let stream = (0..passes * REQUESTS)
        .map(|_| rng.below(PROGRAMS))
        .collect();
    (programs, stream)
}

/// One request on a fresh connection.
fn request(
    addr: SocketAddr,
    p: &CorpusProgram,
    trace: &mut Option<OpTrace>,
) -> Result<SolveReply, ClientError> {
    let mut client = timed(trace, "client.connect", || Client::connect(addr))?;
    timed(trace, "client.consult", || {
        client.consult(&p.workload.source)
    })?;
    let max = u64::try_from(p.workload.max_solutions).unwrap_or(u64::MAX);
    let reply = timed(trace, "client.solve", || {
        client.solve(&p.workload.goal, max)
    })?;
    timed(trace, "client.close", || client.close())?;
    Ok(reply)
}

/// Checks a reply's bindings, in order, against the corpus's host
/// oracle. An error reply is a failure too, never a success.
pub fn check(p: &CorpusProgram, reply: &Result<SolveReply, ClientError>) -> Option<Failure> {
    let (kind, actual) = match reply {
        Ok(r) if r.bindings == p.expected => return None,
        Ok(r) => (FailKind::Wrong, r.bindings.join(" ; ")),
        Err(e) => (FailKind::Error, e.to_string()),
    };
    Some(Failure {
        kind,
        item: p.family.to_owned(),
        seed: p.seed,
        expected: p.expected.join(" ; "),
        actual,
    })
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::new(Instant::now(), Timing::Raw);
    // The generated inputs are the benchmark's, not the server's: they
    // are made before any server exists and are not set-up.
    let (programs, stream) = request_stream(seed, passes(seconds, trace));

    let started = Instant::now();
    let mut per_pass: Vec<(usize, usize)> = Vec::new();
    let (mut repeats, mut templates, mut idle) = (0usize, 0usize, 0usize);
    for (pass, slice) in stream.chunks(REQUESTS).enumerate() {
        // Guard against a server so slow that the fixed request count
        // would overrun the run's time limit.
        if pass > 0 && started.elapsed().as_secs() > 4 * seconds.max(1) {
            break;
        }
        let traced = trace && pass % 2 == 1;
        // Each pass's peak memory is taken on its own, from what the
        // earlier passes left in use, and the run reports their median
        // (see `Outcome::pass_peak_kb`).
        release_free_memory();
        reset_peak_rss().map_err(|e| format!("cannot reset peak memory: {e}"))?;
        let t = Instant::now();
        let server = Server::spawn(ServerOptions::default())
            .map_err(|e| format!("server spawn failed: {e}"))?;
        out.setup_ns.push(ns_between(t, Instant::now()));
        let addr = server.local_addr();
        let failed_before = out.failures.len();
        let mut seen = HashSet::new();
        for &i in slice {
            let p = &programs[i];
            repeats += usize::from(!seen.insert(p.workload.source.as_str()));
            let mut op_trace = traced.then(OpTrace::default);
            let start = Instant::now();
            let reply = request(addr, p, &mut op_trace);
            let end = Instant::now();
            if let Some(t) = op_trace {
                out.tracer.record(OP, start, end, t);
            }
            out.attempted += 1;
            out.samples.push(Sample {
                row: family_row(p),
                ns: ns_between(start, end),
                steps: reply.as_ref().ok().map(|r| r.steps),
                accesses: 0,
                traced,
            });
            out.failures.extend(check(p, &reply));
        }
        let pass_failures = &out.failures[failed_before..];
        let wrong = pass_failures
            .iter()
            .filter(|f| f.kind == FailKind::Wrong)
            .count();
        per_pass.push((wrong, pass_failures.len() - wrong));
        templates += server.pool().template_count();
        idle += server.pool().idle_count();
        server.shutdown();
        out.pass_peak_kb.push(peak_rss_kb());
        out.passes += 1;
    }

    let per = |n: usize| n as f64 / out.passes.max(1) as f64;
    out.counts.extend([
        Metric {
            name: "pool.repeat_share",
            value: per(repeats) * 100.0 / REQUESTS as f64,
            unit: "%",
        },
        Metric {
            name: "pool.templates",
            value: per(templates),
            unit: "count",
        },
        Metric {
            name: "pool.idle",
            value: per(idle),
            unit: "count",
        },
    ]);
    report(&mut out, &programs, &stream, &per_pass);
    Ok(out)
}

fn report(
    out: &mut Outcome,
    programs: &[CorpusProgram],
    stream: &[usize],
    per_pass: &[(usize, usize)],
) {
    let mut families: BTreeMap<&str, (usize, usize, Vec<u64>)> = BTreeMap::new();
    for &i in &stream[..out.samples.len()] {
        families.entry(programs[i].family).or_default().0 += 1;
    }
    for f in &out.failures {
        if let Some(e) = families.get_mut(f.item.as_str()) {
            e.1 += 1;
        }
    }
    for s in &out.samples {
        if let Some(e) = FAMILIES.get(s.row).and_then(|f| families.get_mut(f)) {
            e.2.push(s.ns);
        }
    }
    out.report.push(format!(
        "{:<12} {:>9} {:>9} {:>12}",
        "family", "requests", "failed", "req_ms_p50"
    ));
    for (family, (n, failed, ns)) in &families {
        out.report.push(format!(
            "{:<12} {:>9} {:>9} {:>12.3}",
            family,
            n,
            failed,
            psi_tools::quantile::percentile(ns, 0.5) as f64 / 1e6
        ));
    }
    let wrong: Vec<usize> = per_pass.iter().map(|p| p.0).collect();
    let errors: Vec<usize> = per_pass.iter().map(|p| p.1).collect();
    out.report
        .push(format!("wrong replies per pass: {wrong:?}"));
    out.report
        .push(format!("error replies per pass: {errors:?}"));
    let peaks: Vec<u64> = out.pass_peak_kb.iter().map(|kb| kb / 1024).collect();
    out.report
        .push(format!("peak memory per pass (MB): {peaks:?}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_request_stream() {
        let (a_programs, a) = request_stream(11, 2);
        let (b_programs, b) = request_stream(11, 2);
        assert_eq!(a, b);
        for (x, y) in a_programs.iter().zip(&b_programs) {
            assert_eq!(x.workload.source, y.workload.source);
            assert_eq!(x.workload.goal, y.workload.goal);
        }
        assert_ne!(request_stream(12, 2).1, a);
        assert_eq!(a.len(), 2 * REQUESTS);
        assert_eq!(
            (passes(0, false), passes(0, true), passes(30, false)),
            (1, 2, 10)
        );
    }

    #[test]
    fn the_stream_mixes_writers_and_repeated_sources() {
        let (programs, stream) = request_stream(1, 1);
        let families: HashSet<&str> = stream.iter().map(|&i| programs[i].family).collect();
        for f in FAMILIES {
            assert!(families.contains(f), "{f} missing from the stream");
        }
    }

    #[test]
    fn a_tampered_reply_is_flagged() {
        let (programs, _) = request_stream(3, 1);
        let p = programs.iter().find(|p| p.family == "fill").unwrap();
        let good = SolveReply {
            bindings: p.expected.clone(),
            steps: 1,
            sim_time_ns: 200,
        };
        assert_eq!(check(p, &Ok(good.clone())), None);
        let mut reordered = good.clone();
        reordered.bindings.reverse();
        reordered.bindings.push("X = 0".into());
        let f = check(p, &Ok(reordered)).unwrap();
        assert_eq!(
            (f.kind, f.item.as_str(), f.seed),
            (FailKind::Wrong, "fill", p.seed)
        );
        let mut truncated = good;
        truncated.bindings.pop();
        assert!(check(p, &Ok(truncated)).is_some());
        let io = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "reset");
        assert_eq!(
            check(p, &Err(ClientError::Io(io))).unwrap().kind,
            FailKind::Error
        );
    }

    /// One pass on a live server: every failing reply comes from a
    /// family that asserts clauses, and the count repeats exactly.
    #[test]
    fn failures_repeat_exactly_and_come_from_clause_writers() {
        let a = run(5, 0, false).unwrap();
        let b = run(5, 0, false).unwrap();
        assert_eq!(a.failures, b.failures);
        assert!(a
            .failures
            .iter()
            .all(|f| f.item == "fill" || f.item == "churn"));
    }
}
