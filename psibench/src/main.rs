//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path psibench/Cargo.toml -- \
//!     --workload paper_fidelity|compiled_solve|serve_corpus \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every number is taken from outside the crates, by timing calls into
//! their public functions. The run prints a header, a per-workload
//! report and every metric with its unit, and ends with one JSON line:
//! the end-to-end metrics when `--trace 0`, the per-layer metrics when
//! `--trace 1`. The report (with every failed op), the per-op samples
//! and, when traced, the spans are also written under `.bench_out/`.
//! `psibench pin` prints the pinned statistics of `paper_fidelity`.
//! See `psibench/README.md`.

mod bench;
mod compiled;
mod fidelity;
mod serve;
mod trace;

use bench::{end_to_end, per_layer, FailKind, Metric, Outcome};
use std::fmt::Write as _;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["paper_fidelity", "compiled_solve", "serve_corpus"];
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("pin") {
        // Prints the pinned statistics file for paper_fidelity.
        return match fidelity::pin_lines() {
            Ok(lines) => {
                println!("{}", fidelity::PIN_HEADER);
                lines.iter().for_each(|l| println!("{l}"));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("psibench pin: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("psibench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "paper_fidelity" => fidelity::run(args.seed, args.seconds, args.trace),
        "compiled_solve" => compiled::run(args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    let out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("psibench {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let metrics = if args.trace {
        per_layer(&out)
    } else {
        end_to_end(&out)
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("psibench: metric {} is not a number", m.name);
        return ExitCode::FAILURE;
    }
    let text = render(&args, &out, &metrics);
    print!("{text}");
    if let Err(e) = write_outputs(&args, &out, &text) {
        eprintln!("psibench: cannot write {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(&out, &metrics));
    ExitCode::SUCCESS
}

/// Header, workload report, failures and the metric table.
fn render(args: &Args, out: &Outcome, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# psibench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let _ = writeln!(
        s,
        "# host={} nproc={} kernel={} rustc={} git={} date={}",
        read_trimmed("/proc/sys/kernel/hostname"),
        std::thread::available_parallelism().map_or(0, usize::from),
        read_trimmed("/proc/sys/kernel/osrelease"),
        rustc_version(),
        git_rev(),
        utc_now(),
    );
    let _ = writeln!(
        s,
        "# ops attempted={} failed={} unchecked={} passes={} setup_reps={}",
        out.attempted,
        out.failed(),
        out.unchecked,
        out.passes,
        out.setup_ns.len()
    );
    for line in &out.report {
        let _ = writeln!(s, "{line}");
    }
    // Each distinct failure once, with how often it recurred.
    let mut distinct: Vec<(&bench::Failure, usize)> = Vec::new();
    for f in &out.failures {
        match distinct.iter_mut().find(|(g, _)| *g == f) {
            Some((_, n)) => *n += 1,
            None => distinct.push((f, 1)),
        }
    }
    if !distinct.is_empty() {
        let _ = writeln!(s, "failed ops ({} distinct):", distinct.len());
        for (f, n) in distinct {
            let kind = match f.kind {
                FailKind::Wrong => "wrong",
                FailKind::Error => "error",
            };
            let _ = writeln!(
                s,
                "  {kind} x{n} {} seed={:#x}\n    expected: {}\n    actual:   {}",
                f.item, f.seed, f.expected, f.actual
            );
        }
    }
    let _ = writeln!(
        s,
        "{} metrics:",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    for m in metrics {
        let _ = writeln!(s, "  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
    s
}

/// The last line of standard output.
///
/// `correct` is true only when every op was checked against a reference
/// that is not the code under test and none disagreed: a wrong answer or
/// an error makes it false, and is counted in `failed` and listed in the
/// report.
fn result_json(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed(),
        body.join(", ")
    )
}

fn write_outputs(args: &Args, out: &Outcome, text: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    std::fs::write(format!("{stem}.report.txt"), text)?;
    let ops: String = out
        .samples
        .iter()
        .map(|s| {
            format!(
                "{}\t{}\t{}\t{}\n",
                s.row,
                s.ns,
                s.steps.unwrap_or(0),
                s.traced as u8
            )
        })
        .collect();
    std::fs::write(
        format!("{stem}.ops.tsv"),
        format!("row\tns\tsteps\ttraced\n{ops}"),
    )?;
    if args.trace {
        std::fs::write(format!("{stem}.spans.jsonl"), out.tracer.to_jsonl())?;
    }
    Ok(())
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

/// The trimmed standard output of a command, or "unknown" if it fails.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// The checked-out commit; "unknown" outside a git checkout.
fn git_rev() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    command_line("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse_args(&args(
            "--workload serve_corpus --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_corpus", 3, 10, true)
        );
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload serve_corpus --seed x --seconds 10")).is_err());
        assert!(parse_args(&args(
            "--workload serve_corpus --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload serve_corpus --seconds 10")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::new(std::time::Instant::now(), bench::Timing::Raw);
        out.attempted = 3;
        let line = result_json(
            &out,
            &[Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_or_unchecked_op_makes_the_run_incorrect() {
        let mut out = Outcome::new(std::time::Instant::now(), bench::Timing::Raw);
        out.attempted = 3;
        assert!(out.correct());
        out.failures.push(bench::Failure {
            kind: FailKind::Wrong,
            item: "fill".into(),
            seed: 1,
            expected: "X = 1".into(),
            actual: "X = 2".into(),
        });
        assert!(result_json(&out, &[])
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"));
        out.failures.clear();
        out.unchecked = 1;
        assert!(!out.correct());
        out.unchecked = 0;
        out.attempted = 0;
        assert!(!out.correct());
    }
}
