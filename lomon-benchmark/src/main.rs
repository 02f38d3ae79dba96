//! The lomon benchmark: bytes from a file, a pipe or a socket to verdicts
//! through the real `lomon` binary or daemon, plus the in-simulation
//! monitoring cost of the paper's own setting.
//!
//! ```text
//! lomon-benchmark --workload <check-ipu|watch-fanout|serve-streams|platform-online>
//!                 --seed <n> --seconds <s> --trace <0|1>
//!                 --lomon <path to the lomon binary> --data <scratch directory>
//! ```
//!
//! `run.sh` builds both programs and supplies `--lomon` and `--data`. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the five end-to-end ones; with `--trace 1` they are the per-layer ones
//! of the traced replay. See README.md for what each one means.

mod check;
mod child;
mod gen;
mod json;
mod ledger;
mod platform;
mod replay;
mod serve;
mod stats;
mod sys;
mod watch;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// What every workload is given.
#[derive(Debug)]
pub struct Ctx {
    pub lomon: PathBuf,
    pub data: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// Operation accounting: one operation is an invocation, a stream or an
/// episode; it fails on an unexpected exit code, output that differs
/// from the ground truth, or a missing summary.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the human report.
    pub reasons: Vec<String>,
}

impl Ops {
    /// These operations followed by `other`'s.
    pub fn merged_into(mut self, other: Ops) -> Ops {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(5);
        self
    }

    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.reasons.len() < 5 {
                self.reasons.push(reason);
            }
        }
    }
}

/// The five end-to-end figures of one untraced run.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub events_per_s: f64,
    pub cpu_ns_per_event: f64,
    /// Wall time of every unit of the run, in ms.
    pub latencies_ms: Vec<f64>,
    pub peak_rss_mib: f64,
    pub setup_s: f64,
}

/// Per-unit samples of `lomon` invocations.
#[derive(Debug, Default)]
pub struct Invocations {
    walls_s: Vec<f64>,
    events_per_s: Vec<f64>,
    cpu_ns_per_event: Vec<f64>,
    rss_mib: Vec<f64>,
    events: u64,
    cpu_ns: u64,
}

impl Invocations {
    pub fn add(&mut self, run: &child::Invocation, events: u64) {
        self.walls_s.push(run.wall.as_secs_f64());
        self.events_per_s
            .push(events as f64 / run.wall.as_secs_f64());
        self.cpu_ns_per_event
            .push(run.reaped.cpu_ns as f64 / events.max(1) as f64);
        self.rss_mib.push(run.reaped.maxrss_kib as f64 / 1024.0);
        self.events += events;
        self.cpu_ns += run.reaped.cpu_ns;
    }

    /// Medians over units of events per second and of CPU per event,
    /// every unit's latency, and the median peak RSS.
    pub fn end_to_end(&self, setup_s: f64) -> EndToEnd {
        EndToEnd {
            events_per_s: stats::median(&self.events_per_s),
            cpu_ns_per_event: stats::median(&self.cpu_ns_per_event),
            latencies_ms: self.walls_s.iter().map(|w| w * 1e3).collect(),
            peak_rss_mib: stats::median(&self.rss_mib),
            setup_s,
        }
    }

    /// Total CPU over total events, the base a replay's layers are set
    /// against.
    pub fn mean_cpu_ns_per_event(&self) -> f64 {
        self.cpu_ns as f64 / self.events.max(1) as f64
    }
}

/// Per-layer figures of one traced run, by metric name.
pub type Layers = Vec<(&'static str, f64)>;

/// What a workload hands back.
#[derive(Debug)]
pub struct Outcome {
    pub ops: Ops,
    /// Output checks that are not tied to one operation (such as the
    /// daemon's `/metrics` totals); any failure makes the run incorrect.
    pub checks: Vec<String>,
    pub e2e: EndToEnd,
    /// `Some` on a traced run.
    pub layers: Option<Layers>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

pub const WORKLOADS: [&str; 4] = [
    "check-ipu",
    "watch-fanout",
    "serve-streams",
    "platform-online",
];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// workload that does not run a layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("trace.read_ns_per_event", "ns"),
    ("trace.intern_ns_per_event", "ns"),
    ("trace.decode_ns_per_event", "ns"),
    ("trace.line_parse_ns_per_event", "ns"),
    ("trace.frame_ns_per_event", "ns"),
    ("trace.ndjson_decode_ns_per_event", "ns"),
    ("trace.resolve_ns_per_event", "ns"),
    ("engine.compile_ms", "ms"),
    ("core.analysis_ms", "ms"),
    ("engine.step_ns_per_event", "ns"),
    ("engine.drain_ns_per_event", "ns"),
    ("engine.report_us", "us"),
    ("engine.monitor_steps_per_event", "count"),
    ("engine.shared_hits_per_event", "count"),
    ("engine.dispatch_useful_ratio", "ratio"),
    ("serve.read_syscalls_per_event", "count"),
    ("serve.write_syscalls_per_stream", "count"),
    ("serve.ctx_switches_per_stream", "count"),
    ("serve.other_ns_per_event", "ns"),
    ("cli.other_ns_per_event", "ns"),
    ("tlm.sim_ns_per_event", "ns"),
    ("tlm.hub_monitor_ns_per_event", "ns"),
    ("kernel.dispatches_per_event", "count"),
    ("bench.trace_overhead_ns_per_event", "ns"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    lomon: PathBuf,
    data: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut lomon, mut data) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag}` value `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("a positive number"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--lomon" => lomon = Some(PathBuf::from(value)),
            "--data" => data = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("`--workload` is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("`--seed` is required")?,
        seconds: seconds.ok_or("`--seconds` is required")?,
        trace: trace.unwrap_or(false),
        lomon: lomon.ok_or("`--lomon` is required")?,
        data: data.ok_or("`--data` is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--replay-unit") {
        return replay_unit(&argv[1..]);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    if !args.lomon.is_file() {
        eprintln!("error: no lomon binary at {}", args.lomon.display());
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.data) {
        eprintln!("error: cannot create {}: {e}", args.data.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        lomon: args.lomon,
        data: args.data,
        seed: args.seed,
        seconds: args.seconds,
    };
    let started = Instant::now();
    let outcome = match args.workload.as_str() {
        "check-ipu" => check::run(&ctx, args.trace),
        "watch-fanout" => watch::run(&ctx, args.trace),
        "serve-streams" => serve::run(&ctx, args.trace),
        _ => platform::run(&ctx, args.trace),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("error: {}: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    report(&args.workload, args.trace, &outcome, started.elapsed());
    ExitCode::SUCCESS
}

/// The fresh-process side of [`replay_in_child`]: replay one unit of
/// `check-ipu` or `watch-fanout` and print its [`ledger::UnitReport`].
fn replay_unit(argv: &[String]) -> ExitCode {
    let [workload, input, traced] = argv else {
        eprintln!("error: --replay-unit <workload> <input> <0|1>");
        return ExitCode::from(2);
    };
    let path = std::path::Path::new(input);
    let traced = traced == "1";
    let report = match workload.as_str() {
        "check-ipu" => check::replay_unit(path, traced),
        "watch-fanout" => watch::replay_unit(path, traced),
        _ => Err(format!("no fresh-process replay for `{workload}`")),
    };
    match report {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: replay of {input}: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Print the human report, then the JSON result as the last line.
fn report(workload: &str, trace: bool, outcome: &Outcome, took: Duration) {
    let e = &outcome.e2e;
    println!("workload {workload}: {took:.1?} in all");
    println!(
        "  operations: {} attempted, {} failed",
        outcome.ops.attempted, outcome.ops.failed
    );
    for reason in &outcome.ops.reasons {
        println!("    failed: {reason}");
    }
    for check in &outcome.checks {
        println!("  output check failed: {check}");
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    let p50 = stats::median(&e.latencies_ms);
    let mut end_to_end = vec![
        ("events_per_s", e.events_per_s, "events/s"),
        ("cpu_ns_per_event", e.cpu_ns_per_event, "ns"),
        ("verdict_latency_p50_ms", p50, "ms"),
        ("peak_rss_mib", e.peak_rss_mib, "MiB"),
        ("setup_s", e.setup_s, "s"),
    ];
    for (name, value, unit) in &end_to_end {
        println!("  {name:<26} {value:>14.4} {unit}");
    }
    match stats::tail(&e.latencies_ms) {
        Some((label, value)) => println!(
            "  verdict_latency_{label}_ms {value:.4} ms over {} units",
            e.latencies_ms.len()
        ),
        None => println!(
            "  verdict latency: {} units, too few for a tail percentile",
            e.latencies_ms.len()
        ),
    }
    let metrics: Vec<(&str, f64, &str)> = match (&outcome.layers, trace) {
        (Some(layers), true) => {
            for (name, value) in layers {
                println!("  {name:<36} {value:>14.4}");
            }
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let value = layers
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |(_, v)| *v);
                    (name, value, unit)
                })
                .collect()
        }
        _ => std::mem::take(&mut end_to_end),
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.is_empty(),
        outcome.ops.attempted,
        outcome.ops.failed,
        body.join(", ")
    );
}

/// Write one generated input and wait until it is on disk, so no
/// write-back of it competes with the measured runs that read it.
pub fn write_input(path: &std::path::Path, bytes: &[u8]) -> Result<(), String> {
    use std::io::Write as _;
    std::fs::File::create(path)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Write the generator's expected outcome of every unit beside the
/// inputs, as `<workload>.truth.ndjson`.
pub fn write_truth(
    ctx: &Ctx,
    workload: &str,
    lines: impl Iterator<Item = String>,
) -> Result<(), String> {
    let text: String = lines.map(|l| l + "\n").collect();
    write_input(
        &ctx.data.join(format!("{workload}.truth.ndjson")),
        text.as_bytes(),
    )
}

/// Run `round` repeatedly until `window` has passed, always finishing the
/// round in progress, so every run attempts whole rounds.
pub fn rounds_for(
    window: Duration,
    mut round: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        round()?;
        if t0.elapsed() >= window {
            return Ok(());
        }
    }
}

/// The median of `n` timed launches, in seconds. Each launch is one
/// operation of the run.
pub fn median_of(
    ops: &mut Ops,
    n: usize,
    mut launch: impl FnMut() -> Result<Duration, String>,
) -> f64 {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let outcome = launch().map(|took| samples.push(took.as_secs_f64()));
        ops.record(outcome);
    }
    stats::median(&samples)
}
