//! What a run prints and writes: `name unit value` lines, the run
//! document (`--out`), and the one-line result the driver reads.

use crate::measure::{nproc, Outcome, RunConfig};
use crate::spec::{self, MetricSpec, Tier};
use std::process::Command;

/// Where and on what a run was made; part of every output.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Cores available to the process.
    pub nproc: usize,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse --short HEAD`, or `unknown` outside a repository.
    pub commit: String,
    /// Wisconsin rows per dataset.
    pub rows: usize,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    Command::new(program)
        .args(args)
        // Never look for a repository above the checkout.
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    /// Probe the host.
    pub fn detect(rows: usize) -> Host {
        Host {
            nproc: nproc(),
            rustc: first_line_of("rustc", &["--version"]),
            commit: first_line_of("git", &["rev-parse", "--short", "HEAD"]),
            rows,
        }
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The unit a measured metric is printed with.
fn unit_of<'a>(declared: &'a [MetricSpec], name: &str) -> &'a str {
    declared
        .iter()
        .find(|m| m.name == name)
        .map_or("?", |m| m.unit)
}

/// `name unit value` for every measured metric, then the notes.
pub fn print_human(workload: &str, cfg: &RunConfig, host: &Host, out: &Outcome) {
    let declared = spec::metrics();
    println!(
        "polybench {workload} seed={} seconds={} trace={} nproc={} rows={} commit={} {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        host.nproc,
        host.rows,
        host.commit,
        host.rustc
    );
    for (name, m) in &out.metrics {
        println!(
            "{name} {} {} (n={})",
            unit_of(&declared, name),
            m.value,
            m.samples
        );
    }
    println!(
        "{} ratio {} (failed {} of {} attempted)",
        spec::FAIL_RATIO,
        out.tally.failed as f64 / out.tally.attempted.max(1) as f64,
        out.tally.failed,
        out.tally.attempted
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for problem in &out.tally.problems {
        println!("! {problem}");
    }
}

/// The run document: everything measured, with host information.
pub fn run_document(workload: &str, cfg: &RunConfig, host: &Host, out: &Outcome) -> String {
    let declared = spec::metrics();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                json_str(name),
                m.value,
                json_str(unit_of(&declared, name)),
                m.samples
            )
        })
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host\":{{\"nproc\":{},\"rustc\":{},\"commit\":{},\"rows\":{}}},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        json_str(workload),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        host.nproc,
        json_str(&host.rustc),
        json_str(&host.commit),
        host.rows,
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(",")
    )
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics being every declared end-to-end
/// one (untraced run) or every per-layer one (traced run). A per-layer
/// metric the workload does not exercise reads 0; an end-to-end metric
/// that was not measured is an error, named in `Err`.
pub fn result_line(cfg: &RunConfig, out: &Outcome) -> Result<String, String> {
    let tier = if cfg.trace {
        Tier::PerLayer
    } else {
        Tier::EndToEnd
    };
    let mut fields = Vec::new();
    for m in spec::metrics().iter().filter(|m| m.tier == tier) {
        let value = match out.metrics.get(&m.name) {
            Some(measured) => measured.value,
            None if tier == Tier::PerLayer => 0.0,
            None => return Err(format!("{} was not measured", m.name)),
        };
        if !value.is_finite() || (tier == Tier::EndToEnd && value == 0.0) {
            return Err(format!("{} reads {value}", m.name));
        }
        fields.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(&m.name),
            json_str(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        fields.join(",")
    ))
}
