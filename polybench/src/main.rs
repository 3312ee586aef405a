//! `polybench`: the repository's benchmark.
//!
//! ```text
//! polybench run --workload <name> --seed <u64> [--seconds <s>] [--trace [0|1]]
//!               [--out <path>] [--trace-out <path>]
//! polybench list [--json]
//! polybench compare <A.json[:member]> <B.json[:member]>
//! ```
//!
//! One process per workload run. Every layer is measured from outside:
//! the benchmark's own stopwatches around calls into public functions.
//! See `benchmark/README.md`.

mod compare;
mod layers;
mod measure;
mod ops;
mod report;
mod spans;
mod spec;
mod stats;
mod stores;
mod workloads;

use measure::RunConfig;
use std::path::PathBuf;
use std::process::ExitCode;

/// The engine reads these; the benchmark measures its defaults.
const FORBIDDEN_ENV: [&str; 2] = ["POLYFRAME_THREADS", "POLYFRAME_BATCH_SIZE"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: polybench run --workload <name> --seed <u64> [--seconds <s>] [--trace [0|1]] \
         [--out <path>] [--trace-out <path>]\n       polybench list [--json]\n       \
         polybench compare <A.json[:member]> <B.json[:member]>"
    );
    ExitCode::from(2)
}

/// Parsed `run` arguments.
struct RunArgs {
    workload: String,
    cfg: RunConfig,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = f64::from(spec::RUN_SECONDS);
    let mut trace = false;
    let mut out = None;
    let mut trace_out = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        let need = || value.ok_or(format!("{flag} needs a value"));
        match flag {
            "--workload" => workload = Some(need()?.clone()),
            "--seed" => {
                seed = Some(need()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                seconds = need()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--out" => out = Some(PathBuf::from(need()?)),
            "--trace-out" => trace_out = Some(PathBuf::from(need()?)),
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => match value.map(String::as_str) {
                Some("0") => trace = false,
                Some("1") => trace = true,
                _ => {
                    trace = true;
                    i += 1;
                    continue;
                }
            },
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!(
            "no workload called {workload}; see `polybench list`"
        ));
    }
    if trace && trace_out.is_none() {
        trace_out = Some(PathBuf::from(format!(
            "polybench_out/trace.{workload}.json"
        )));
    }
    Ok(RunArgs {
        workload,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            rows: measure::ROWS,
            trace_out,
        },
        out,
    })
}

fn run(args: &[String]) -> ExitCode {
    for name in FORBIDDEN_ENV {
        if std::env::var_os(name).is_some() {
            eprintln!("polybench: {name} is set; the benchmark measures the defaults. Unset it.");
            return ExitCode::from(2);
        }
    }
    let RunArgs { workload, cfg, out } = match parse_run_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("polybench: {e}");
            return usage();
        }
    };
    let host = report::Host::detect(cfg.rows);
    let outcome = workloads::run(&workload, &cfg).expect("the name was checked against the list");
    report::print_human(&workload, &cfg, &host, &outcome);
    if let Some(path) = out {
        let doc = report::run_document(&workload, &cfg, &host, &outcome);
        if let Err(e) = std::fs::write(&path, doc + "\n") {
            eprintln!("polybench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    match report::result_line(&cfg, &outcome) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("polybench: {e}");
            return ExitCode::from(2);
        }
    }
    // A wrong answer is part of the result, and fails the process.
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list(args: &[String]) -> ExitCode {
    if args.first().map(String::as_str) == Some("--json") {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    println!(
        "workloads (closed loop, {} s measured per run):",
        spec::RUN_SECONDS
    );
    for w in &spec::WORKLOADS {
        println!("  {:<15} {}", w.name, w.why);
    }
    println!("metrics (name unit better bound tier; what it moves):");
    for m in spec::metrics() {
        let bound = m
            .bound
            .map_or("-".to_string(), |b| format!("{} %", 100.0 * b));
        let tier = match m.tier {
            spec::Tier::EndToEnd => "end_to_end",
            spec::Tier::PerLayer => "per_layer",
        };
        println!(
            "  {:<38} {:<7} {:<6} {:<6} {tier:<10} {}",
            m.name,
            m.unit,
            m.better.name(),
            bound,
            m.moves
        );
    }
    println!(
        "  {:<38} {:<7} {:<6} {:<6} {:<10} failed / attempted of a run; any rise fails `compare`",
        spec::FAIL_RATIO,
        "ratio",
        "lower",
        "0 %",
        "result"
    );
    ExitCode::SUCCESS
}

fn load_set(arg: &str) -> Result<Vec<compare::Run>, String> {
    // `path:member`, unless the whole argument is a file.
    let (path, member) = match arg.rsplit_once(':') {
        Some((path, member)) if !std::path::Path::new(arg).exists() => (path, Some(member)),
        _ => (arg, None),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    compare::parse_runs(&text, member).map_err(|e| format!("{arg}: {e}"))
}

fn compare_sets(args: &[String]) -> ExitCode {
    let [base, cand] = args else {
        return usage();
    };
    let sets = load_set(base).and_then(|b| load_set(cand).map(|c| (b, c)));
    match sets.and_then(|(b, c)| compare::compare(&b, &c)) {
        Ok(rows) => ExitCode::from(compare::report(&rows) as u8),
        Err(e) => {
            eprintln!("polybench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "list" => list(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_sets(rest),
        _ => usage(),
    }
}
