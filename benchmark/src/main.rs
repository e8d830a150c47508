//! The repository benchmark. `--workload <name>` runs one workload in this
//! process and prints its result as the last line; without it, every
//! workload runs in a child process of its own, untraced and then traced,
//! and a summary is written. See README.md.

mod batch_train;
mod common;
mod gen;
mod serve;
mod spec;
mod stats;
mod stream;
mod suite;
mod trace;
mod walk_gen;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Ctx, Outcome};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: Option<usize>,
    pub smoke: bool,
    pub repeat: usize,
    pub check: bool,
    pub emit_spec: bool,
}

const USAGE: &str =
    "usage: uninet-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                        [--threads N] [--smoke] [--repeat N] [--check] [--emit-spec]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        threads: None,
        smoke: false,
        repeat: 1,
        check: false,
        emit_spec: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        let bad = |v: &str| format!("{flag}: cannot read {v:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                args.seconds = v.parse().map_err(|_| bad(v))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {v}"));
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--threads" => {
                let v = value("a thread count")?;
                args.threads = Some(v.parse().map_err(|_| bad(v))?);
            }
            "--repeat" => {
                let v = value("a count")?;
                args.repeat = v.parse().map_err(|_| bad(v))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--emit-spec" => args.emit_spec = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The thread count to use: at most the hardware's, two unless told
/// otherwise (the sizes are calibrated on two). More than the hardware has is
/// refused, since such a run measures the scheduler.
fn resolve_threads(requested: Option<usize>) -> Result<usize, String> {
    let nproc = hardware_threads();
    match requested {
        Some(0) => Err("--threads must be at least 1".to_string()),
        Some(t) if t > nproc => Err(format!(
            "--threads {t} exceeds the {nproc} hardware threads of this machine"
        )),
        Some(t) => Ok(t),
        None => Ok(nproc.min(2)),
    }
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

pub fn write_spans(ctx: &Ctx, workload: &str, tracer: &trace::Tracer) {
    let path = ctx
        .out_dir
        .join(format!("spans-{workload}-{}.jsonl", ctx.seed));
    if let Err(e) = tracer.write(&path) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Renders a float with all its digits, as JSON.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite");
    format!("{v:?}")
}

fn run_workload(name: &str, ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    Ok(match (name, trace) {
        ("walk_gen", false) => walk_gen::run(ctx),
        ("walk_gen", true) => walk_gen::run_traced(ctx),
        ("batch_train", false) => batch_train::run(ctx),
        ("batch_train", true) => batch_train::run_traced(ctx),
        ("stream_ingest", false) => stream::run(ctx, false),
        ("stream_ingest", true) => stream::run_traced(ctx, false),
        ("serve_under_ingest", false) => stream::run(ctx, true),
        ("serve_under_ingest", true) => stream::run_traced(ctx, true),
        ("serve_topk", false) => serve::run(ctx),
        ("serve_topk", true) => serve::run_traced(ctx),
        _ => {
            let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name:?}; known: {}",
                known.join(", ")
            ));
        }
    })
}

/// Runs one workload here and prints its metrics, then the result line.
fn single(args: &Args, name: &str) -> Result<(), String> {
    let threads = resolve_threads(args.threads)?;
    let out_dir = out_dir();
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads,
        smoke: args.smoke,
        out_dir,
    };
    println!(
        "workload {name} seed {} seconds {} trace {} threads {threads} nproc {} kernels {}{}",
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace),
        hardware_threads(),
        uninet_embedding::kernels::backend_name(),
        if ctx.smoke { " SMOKE" } else { "" },
    );
    let mut outcome = run_workload(name, &ctx, args.trace)?;

    let wanted = if args.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    if args.trace {
        outcome.set(
            "failed_ratio",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        );
    }
    if let Some((stray, _)) = outcome
        .metrics
        .iter()
        .find(|(n, _)| !wanted.iter().any(|m| m.name == *n))
    {
        return Err(format!(
            "{name} reported {stray}, which is not in the specification"
        ));
    }
    for note in &outcome.notes {
        println!("  # {note}");
    }
    let mut fields = Vec::with_capacity(wanted.len());
    for m in wanted {
        let value = match outcome.metrics.iter().find(|(n, _)| *n == m.name) {
            Some(&(_, v)) => v,
            // A layer the workload does not exercise did no work.
            None if args.trace => 0.0,
            None => return Err(format!("{name} did not report {}", m.name)),
        };
        if !value.is_finite() {
            return Err(format!("{name}: {} is {value}", m.name));
        }
        println!("  {:<44} {:>18.4} {}", m.name, value, m.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(value),
            m.unit
        ));
    }
    let correct = outcome.failed == 0 && outcome.attempted >= 1;
    println!(
        "  attempted {} failed {} ({})",
        outcome.attempted,
        outcome.failed,
        if correct {
            "outputs correct"
        } else {
            "OUTPUTS WRONG"
        }
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        if args.emit_spec {
            print!("{}", spec::benchmark_json());
            Ok(())
        } else if args.check {
            suite::check(&args)
        } else if let Some(name) = args.workload.clone() {
            single(&args, &name)
        } else {
            suite::run_all(&args)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_arguments() {
        let a = parse_args(&argv(
            "--workload serve_topk --seed 9 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_topk"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12.0, true));
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    #[test]
    fn more_threads_than_the_hardware_has_are_refused() {
        let nproc = hardware_threads();
        assert!(resolve_threads(Some(nproc + 1)).is_err());
        assert!(resolve_threads(Some(0)).is_err());
        assert_eq!(resolve_threads(Some(1)), Ok(1));
        assert!(resolve_threads(None).unwrap() <= nproc);
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
    }
}
