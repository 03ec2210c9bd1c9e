//! The repo benchmark: runs one workload of the RAPID reproduction and
//! prints its metrics as one JSON line.
//!
//! ```text
//! rapid-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rapid-benchmark compare <BENCHMARK.json> <results.jsonl> [<results.jsonl>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! split (see README.md). The last line of standard output is
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`;
//! the line before it is the run's manifest. `compare` summarizes
//! result lines collected over seeds: per-metric median and quartile
//! spread, and (given two files) the direction-aware change of the
//! medians against each metric's bound.

mod json;
mod measure;
mod mem;
mod metrics;
mod stats;
mod timing;
mod workload;

use json::{number, quote, Json};
use stats::{median, relative_spread, Better};
use std::collections::BTreeMap;
use std::process::ExitCode;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let get = |f: &str| flags.get(f).copied().ok_or_else(|| format!("missing {f}"));
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        format!(
            "unknown workload {name}; expected one of {}",
            workload::NAMES.join(", ")
        )
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Removes every `RAPID_*` knob from the environment, so that library
/// code that consults one (the Eq. 4–9 kernel choice, intra-run jobs,
/// shard count, checkpointing) sees its default and the workload's own
/// settings are the only ones in play. Returns the names removed.
fn scrub_environment() -> Vec<String> {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RAPID_"))
        .collect();
    for k in &knobs {
        std::env::remove_var(k);
    }
    knobs
}

/// The first line of `cmd args` output, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// What the result was measured on and with.
fn manifest(args: &Args, scrubbed: &[String]) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let params: Vec<String> = args
        .workload
        .params()
        .into_iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(&v)))
        .collect();
    let scrubbed: Vec<String> = scrubbed.iter().map(|k| quote(k)).collect();
    format!(
        "{{\"manifest\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"cpu\": {}, \"git_rev\": {}, \"rustc\": {}, \
         \"ignored_env\": [{}], \"params\": {{{}}}}}}}",
        quote(args.workload.name()),
        args.seed,
        number(args.seconds),
        u8::from(args.trace),
        quote(&cpu),
        quote(&command_line("git", &["rev-parse", "HEAD"])),
        quote(&command_line("rustc", &["--version"])),
        scrubbed.join(", "),
        params.join(", "),
    )
}

fn run(args: &Args) -> measure::Outcome {
    if args.trace {
        measure::traced(args.workload, args.seed)
    } else {
        measure::untraced(args.workload, args.seed, args.seconds)
    }
}

fn result_line(outcome: &measure::Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*value),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Result lines of a file: every line that parses as an object with a
/// `metrics` member. Returns per-metric values in file order.
fn read_results(path: &str) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in text.lines() {
        let Ok(v) = Json::parse(line) else { continue };
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Json::as_f64) {
                out.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(out)
}

/// `compare`: spreads of one result set, and the drift of a second set's
/// medians against the first's, judged by `BENCHMARK.json`'s bounds.
/// Fails when a spread (other than `setup_s`'s) or a drift exceeds its
/// bound.
fn compare(paths: &[String]) -> Result<bool, String> {
    let [spec_path, first, rest @ ..] = paths else {
        return Err("usage: compare <BENCHMARK.json> <results> [<results>]".into());
    };
    let spec = Json::parse(&std::fs::read_to_string(spec_path).map_err(|e| e.to_string())?)?;
    let mut declared: Vec<(String, Better, Option<f64>)> = Vec::new();
    for list in ["end_to_end", "per_layer"] {
        for m in spec.get(list).and_then(Json::as_array).unwrap_or_default() {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or("metric without direction")?;
            declared.push((
                name.to_string(),
                better,
                m.get("bound").and_then(Json::as_f64),
            ));
        }
    }
    let a = read_results(first)?;
    let b = rest.first().map(|p| read_results(p)).transpose()?;
    let mut ok = true;
    println!("metric\tn\tmedian\tspread\tbound\tverdict");
    for (name, better, bound) in &declared {
        let Some(values) = a.get(name) else { continue };
        let med = median(values).unwrap_or(0.0);
        let spread = relative_spread(values);
        let mut verdict = String::new();
        if let (Some(bound), Some(s)) = (bound, spread) {
            if s > *bound && name != "setup_s" {
                ok = false;
                verdict.push_str("SPREAD>BOUND ");
            } else if s > bound / 3.0 {
                verdict.push_str("spread>bound/3 ");
            }
        }
        if let Some(other) = b.as_ref().and_then(|b| b.get(name)) {
            let med_b = median(other).unwrap_or(0.0);
            let worse = better.worsening(med, med_b).unwrap_or(0.0);
            verdict.push_str(&format!("median2 {med_b} worse by {worse:+.4}"));
            if let Some(bound) = bound {
                if better.regressed(med, med_b, *bound) {
                    ok = false;
                    verdict.push_str(" DRIFT>BOUND");
                }
            }
        }
        println!(
            "{name}\t{}\t{med}\t{}\t{}\t{verdict}",
            values.len(),
            spread.map_or("-".into(), |s| format!("{s:.4}")),
            bound.map_or("-".into(), |b| b.to_string()),
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare(&argv[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rapid-benchmark: {e}");
            eprintln!(
                "usage: rapid-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let scrubbed = scrub_environment();
    if !scrubbed.is_empty() {
        eprintln!("ignoring environment knobs: {}", scrubbed.join(", "));
    }
    let outcome = run(&args);
    for line in &outcome.detail {
        eprintln!("{}: {line}", args.workload.name());
    }
    println!("{}", manifest(&args, &scrubbed));
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
