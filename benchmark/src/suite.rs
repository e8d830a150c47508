//! Running every workload: each in a child process of its own (so that peak
//! memory is per workload), untraced and then traced, with a summary at the
//! end; and `--check`, the smoke test of the benchmark itself.

use std::fmt::Write as _;
use std::process::Command;

use crate::spec::{self, Metric};
use crate::stats;
use crate::Args;

/// The last line a workload run prints, read back.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Reads the value that follows `"key": ` in `line`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Parses the result line this program prints (not JSON in general).
pub fn parse_result(line: &str) -> Result<RunResult, String> {
    let bad = |what: &str| format!("result line has no readable {what}: {line}");
    let correct = field(line, "correct").ok_or_else(|| bad("correct"))? == "true";
    let attempted = field(line, "attempted")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("attempted"))?;
    let failed = field(line, "failed")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("failed"))?;
    let body = line
        .split_once("\"metrics\": {")
        .ok_or_else(|| bad("metrics"))?
        .1;
    let mut metrics = Vec::new();
    for entry in body.split("\"}").filter(|e| e.contains("\"value\": ")) {
        let name = entry
            .split('"')
            .nth(1)
            .ok_or_else(|| bad("metric name"))?
            .to_string();
        let value = field(entry, "value")
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| bad("metric value"))?;
        metrics.push((name, value));
    }
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Runs one workload in a child process, echoes what it prints, and returns
/// its result line.
fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(t) = args.threads {
        cmd.args(["--threads", &t.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (last, printed) = match stdout.trim_end().rsplit_once('\n') {
        Some((head, last)) => (last, head),
        None => (stdout.trim_end(), ""),
    };
    println!("{printed}");
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) exited with {}: {}",
            u8::from(trace),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    parse_result(last)
}

/// Checks that a run reported exactly the metrics the specification names.
fn same_names(result: &RunResult, wanted: &[Metric]) -> Result<(), String> {
    let got: Vec<&str> = result.metrics.iter().map(|(n, _)| n.as_str()).collect();
    let want: Vec<&str> = wanted.iter().map(|m| m.name).collect();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "reported metrics {got:?} differ from the specification's {want:?}"
        ))
    }
}

/// One metric over the repeated runs, as a JSON object.
fn summarise(metric: &Metric, values: &[f64]) -> String {
    let list: Vec<String> = values.iter().map(|v| crate::json_number(*v)).collect();
    let mut s = format!(
        "{{\"unit\": \"{}\", \"better\": \"{}\", \"values\": [{}], \"median\": {}",
        metric.unit,
        metric.better.as_str(),
        list.join(", "),
        crate::json_number(stats::median(values))
    );
    if values.len() >= 2 {
        let sp = stats::spread(values);
        let _ = write!(
            s,
            ", \"q1\": {}, \"q3\": {}, \"spread\": {}",
            crate::json_number(sp.q1),
            crate::json_number(sp.q3),
            crate::json_number(sp.relative)
        );
    }
    if let Some(bound) = metric.bound {
        let _ = write!(s, ", \"bound\": {bound}");
    }
    s.push('}');
    s
}

/// Runs every workload `--repeat` times untraced (seeds `seed`, `seed+1`, …)
/// and once traced, prints every metric by name with its unit, and writes
/// `.bench_out/summary.json`.
pub fn run_all(args: &Args) -> Result<(), String> {
    spec::validate()?;
    let seeds: Vec<u64> = (0..args.repeat as u64).map(|i| args.seed + i).collect();
    let mut blocks = Vec::new();
    let mut all_correct = true;
    for w in spec::WORKLOADS {
        let mut runs = Vec::new();
        for &seed in &seeds {
            let r = child(args, w.name, seed, false)?;
            same_names(&r, spec::END_TO_END)?;
            runs.push(r);
        }
        let traced = child(args, w.name, seeds[0], true)?;
        same_names(&traced, spec::PER_LAYER)?;

        let attempted: u64 = runs.iter().map(|r| r.attempted).sum::<u64>() + traced.attempted;
        let failed: u64 = runs.iter().map(|r| r.failed).sum::<u64>() + traced.failed;
        all_correct &= failed == 0 && runs.iter().all(|r| r.correct) && traced.correct;

        println!(
            "== {} ({} untraced run(s), 1 traced) ==",
            w.name,
            runs.len()
        );
        let mut e2e = Vec::new();
        for (i, m) in spec::END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics[i].1).collect();
            let mut line = format!(
                "  {:<44} {:>18.4} {}",
                m.name,
                stats::median(&values),
                m.unit
            );
            if values.len() >= 2 {
                let sp = stats::spread(&values);
                let _ = write!(
                    line,
                    "   quartiles {:.4} .. {:.4}, spread {:.4} (bound {})",
                    sp.q1,
                    sp.q3,
                    sp.relative,
                    m.bound.unwrap_or(0.0)
                );
            }
            println!("{line}");
            e2e.push(format!("        \"{}\": {}", m.name, summarise(m, &values)));
        }
        let mut layers = Vec::new();
        for (m, (_, value)) in spec::PER_LAYER.iter().zip(&traced.metrics) {
            println!("  {:<44} {:>18.4} {}", m.name, value, m.unit);
            layers.push(format!(
                "        \"{}\": {}",
                m.name,
                summarise(m, &[*value])
            ));
        }
        println!("  failed_ratio {} / {}", failed, attempted);
        blocks.push(format!(
            "    \"{}\": {{\n      \"attempted\": {attempted},\n      \"failed\": {failed},\n      \"failed_ratio\": {},\n      \"end_to_end\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }}\n    }}",
            w.name,
            crate::json_number(failed as f64 / attempted.max(1) as f64),
            e2e.join(",\n"),
            layers.join(",\n")
        ));
    }
    let seed_list: Vec<String> = seeds.iter().map(u64::to_string).collect();
    let summary = format!(
        "{{\n  \"nproc\": {},\n  \"threads\": {},\n  \"kernels\": \"{}\",\n  \"seconds\": {},\n  \"smoke\": {},\n  \"seeds\": [{}],\n  \"correct\": {all_correct},\n  \"workloads\": {{\n{}\n  }},\n  \"claim\": null\n}}\n",
        crate::hardware_threads(),
        args.threads.unwrap_or(crate::hardware_threads().min(2)),
        uninet_embedding::kernels::backend_name(),
        crate::json_number(args.seconds),
        args.smoke,
        seed_list.join(", "),
        blocks.join(",\n")
    );
    let path = crate::out_dir().join("summary.json");
    std::fs::create_dir_all(crate::out_dir())
        .and_then(|()| std::fs::write(&path, &summary))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("summary written to {}; \"claim\": null", path.display());
    if all_correct {
        Ok(())
    } else {
        Err("some outputs were wrong; see failed_ratio above".to_string())
    }
}

/// The benchmark's own smoke test: the specification is within the driver's
/// limits and is what `BENCHMARK.json` says, too many threads are refused,
/// and every workload at tiny sizes reports every named metric, finite, with
/// correct outputs and a traced stream replay whose books close.
pub fn check(args: &Args) -> Result<(), String> {
    spec::validate()?;
    let committed = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json from the current directory: {e}"))?;
    if committed != spec::benchmark_json() {
        return Err(
            "BENCHMARK.json differs from the specification; regenerate it with --emit-spec"
                .to_string(),
        );
    }
    println!("BENCHMARK.json matches the specification and is within the limits");

    let too_many = crate::hardware_threads() + 1;
    let refused = child(
        &Args {
            threads: Some(too_many),
            smoke: true,
            ..args.clone()
        },
        spec::WORKLOADS[0].name,
        args.seed,
        false,
    );
    if refused.is_ok() {
        return Err(format!(
            "--threads {too_many} was accepted on a machine with fewer hardware threads"
        ));
    }
    println!("--threads {too_many} is refused");

    let smoke = Args {
        smoke: true,
        seconds: args.seconds.min(1.0),
        ..args.clone()
    };
    for w in spec::WORKLOADS {
        for (trace, wanted) in [(false, spec::END_TO_END), (true, spec::PER_LAYER)] {
            let r = child(&smoke, w.name, args.seed, trace)?;
            same_names(&r, wanted).map_err(|e| format!("{}: {e}", w.name))?;
            if !r.correct || r.failed != 0 {
                return Err(format!(
                    "{}: {} of {} operations failed",
                    w.name, r.failed, r.attempted
                ));
            }
            if let Some((name, v)) = r.metrics.iter().find(|(_, v)| !v.is_finite()) {
                return Err(format!("{}: {name} is {v}", w.name));
            }
            if !trace {
                if let Some((name, _)) = r.metrics.iter().find(|(_, v)| *v == 0.0) {
                    return Err(format!("{}: end-to-end metric {name} is 0", w.name));
                }
            }
            let open = r
                .metrics
                .iter()
                .find(|(n, _)| n == "core.stream.unattributed_share")
                .map_or(0.0, |(_, v)| *v);
            if open > 0.05 {
                return Err(format!(
                    "{}: the traced replay leaves {open:.3} of its wall unattributed (limit 0.05)",
                    w.name
                ));
            }
        }
    }
    println!("check passed: every workload reports every named metric with correct outputs");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = "{\"correct\": true, \"attempted\": 1000, \"failed\": 3, \"metrics\": {\"work_per_s\": {\"value\": 1203.5, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 8.127e-1, \"unit\": \"s\"}}}";
        let r = parse_result(line).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (1000, 3));
        assert_eq!(
            r.metrics,
            vec![
                ("work_per_s".to_string(), 1203.5),
                ("setup_s".to_string(), 0.8127)
            ]
        );
        assert!(parse_result("not a result").is_err());
    }

    #[test]
    fn a_repeated_metric_carries_its_quartiles_and_spread() {
        let m = &spec::END_TO_END[0];
        let s = summarise(m, &[1.0, 2.0, 3.0, 4.0]);
        assert!(s.contains("\"median\": 2.5"), "{s}");
        assert!(
            s.contains("\"q1\": 1.25") && s.contains("\"q3\": 3.75"),
            "{s}"
        );
        assert!(s.contains("\"spread\": 1.0"), "{s}");
        assert!(!summarise(m, &[1.0]).contains("spread"));
    }
}
