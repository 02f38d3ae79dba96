//! `check-ipu`: `lomon check` on IPU-shaped trace files.
//!
//! Ingest dominates: `check` maps each file, validates it as UTF-8,
//! interns every name in a first pass, compiles the rulebook, decodes the
//! file again against the frozen vocabulary and steps the engine. One
//! unit is one invocation on one file, timed from spawn to reap.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use lomon_core::analysis::{analyze, AnalysisOptions};
use lomon_engine::{Backend, DispatchMode, DispatchStats, Engine};
use lomon_trace::{decode_events_into, read_trace_bytes_into, MappedFile, Trace, Vocabulary};

use crate::child::invoke;
use crate::gen::{check_files, Expect, Truth, IPU_RULES};
use crate::json::{self, Json};
use crate::ledger::{Layer, Off, On, Probe};
use crate::replay::{Counts, Replay, UnitReport};
use crate::sys::thread_cpu_ns;
use crate::{median_of, rounds_for, write_input, write_truth, Ctx, Invocations, Ops, Outcome};

/// Episodes per file: 11 events each, so about two million events and
/// 50 MB per file.
const EPISODES: u32 = 180_000;
/// Launches on an empty file whose median is `setup_s`.
const SETUP_LAUNCHES: usize = 61;

pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let files = check_files(ctx.seed, EPISODES);
    let mut paths = Vec::new();
    for (k, (bytes, _)) in files.iter().enumerate() {
        let path = ctx.data.join(format!("check-ipu-{k}.trace"));
        write_input(&path, bytes)?;
        paths.push(path);
    }
    write_truth(
        ctx,
        "check-ipu",
        files
            .iter()
            .enumerate()
            .map(|(k, (_, truth))| truth.to_json(&format!("check-ipu-{k}.trace"))),
    )?;
    let empty = ctx.data.join("check-ipu-empty.trace");
    write_input(&empty, b"")?;

    let mut ops = Ops::default();
    let setup_s = if trace {
        f64::NAN
    } else {
        median_of(&mut ops, SETUP_LAUNCHES, || {
            let run = invoke(&mut check_cmd(ctx, &empty), None).map_err(|e| e.to_string())?;
            let empty_truth = Truth {
                events: 0,
                verdicts: vec![Expect::Holds; IPU_RULES.len()],
            };
            verify(&run.stdout, run.reaped.code, &empty_truth)?;
            Ok(run.wall)
        })
    };

    // A traced run pairs every `lomon check` invocation with a traced and
    // an untraced replay of the same file, so the layers and the process
    // CPU they are set against are measured side by side.
    let mut runs = Invocations::default();
    let mut replay = trace.then(Replay::new);
    rounds_for(Duration::from_secs_f64(ctx.seconds), || {
        for (path, (_, truth)) in paths.iter().zip(&files) {
            let outcome = invoke(&mut check_cmd(ctx, path), None)
                .map_err(|e| format!("spawn: {e}"))
                .and_then(|run| {
                    verify(&run.stdout, run.reaped.code, truth)?;
                    runs.add(&run, truth.events);
                    Ok(())
                });
            ops.record(outcome);
            if let Some(replay) = replay.as_mut() {
                replay.add_pair("check-ipu", path)?;
            }
        }
        Ok(())
    })?;
    let mut notes = vec![format!(
        "{} files of {} and {} events; warm page cache (each file is read once per unit)",
        paths.len(),
        files[0].1.events,
        files[1].1.events
    )];
    let layers = match replay {
        Some(replay) => {
            replay.write_spans(ctx, "check-ipu")?;
            Some(replay.figures(
                runs.mean_cpu_ns_per_event(),
                "cli.other_ns_per_event",
                &mut notes,
            ))
        }
        None => None,
    };
    Ok(Outcome {
        ops,
        checks: Vec::new(),
        e2e: runs.end_to_end(setup_s),
        layers,
        notes,
    })
}

fn check_cmd(ctx: &Ctx, file: &Path) -> Command {
    let mut cmd = Command::new(&ctx.lomon);
    cmd.arg("check")
        .arg("--format")
        .arg("json")
        .arg(file)
        .args(IPU_RULES);
    cmd
}

/// Compare one `check --format json` report with the ground truth.
fn verify(stdout: &[u8], code: Option<i32>, truth: &Truth) -> Result<(), String> {
    let want_code = if truth.ok() { 0 } else { 1 };
    if code != Some(want_code) {
        return Err(format!("exit code {code:?}, expected {want_code}"));
    }
    let text = std::str::from_utf8(stdout).map_err(|_| "report is not UTF-8".to_owned())?;
    let report = json::parse(text.trim()).ok_or_else(|| format!("report is not JSON: {text}"))?;
    let events = report
        .get("stats")
        .and_then(|s| s.get("events"))
        .and_then(Json::num);
    if events != Some(truth.events as f64) {
        return Err(format!("events {events:?}, expected {}", truth.events));
    }
    let properties = report
        .get("properties")
        .and_then(Json::arr)
        .ok_or("report has no properties")?;
    if properties.len() != truth.verdicts.len() {
        return Err(format!("{} properties reported", properties.len()));
    }
    for (k, (p, want)) in properties.iter().zip(&truth.verdicts).enumerate() {
        let verdict = p.get("verdict").and_then(Json::str).unwrap_or("");
        let diagnostic = p.get("diagnostic").and_then(Json::str).unwrap_or("");
        want.check(k, verdict, diagnostic, "start")?;
    }
    Ok(())
}

/// Replay `check` on one file in the binary's call order: map and
/// validate, intern pass, compile plus analysis, frozen decode, step,
/// report. Buffers are fresh per file, as in a new process.
fn replay<P: Probe>(p: &mut P, path: &Path) -> Result<DispatchStats, String> {
    p.mark();
    let file = MappedFile::open(path).map_err(|e| e.to_string())?;
    if std::str::from_utf8(file.bytes()).is_err() {
        return Err("not UTF-8".into());
    }
    p.lap(Layer::Read);
    let mut voc = Vocabulary::new();
    let mut scratch = Trace::new();
    read_trace_bytes_into(file.bytes(), &mut voc, &mut scratch, None).map_err(|e| e.to_string())?;
    let end = scratch.end_time();
    drop(scratch);
    p.lap(Layer::Intern);
    let engine = Engine::compile(&IPU_RULES, &mut voc).map_err(|_| "rulebook does not compile")?;
    p.lap(Layer::Compile);
    let displays: Vec<&str> = (0..engine.len())
        .map(|i| engine.property_display(i))
        .collect();
    std::hint::black_box(analyze(
        engine.fused(),
        &displays,
        &voc,
        &AnalysisOptions::default(),
    ));
    p.lap(Layer::Analysis);
    let mut session = engine.session_with_backend(DispatchMode::Indexed, Backend::Fused);
    let mut events = Vec::new();
    p.lap(Layer::Compile);
    decode_events_into(file.bytes(), &voc, &mut events).map_err(|e| e.to_string())?;
    p.lap(Layer::Decode);
    session.reset();
    session.ingest_batch(&events);
    p.lap(Layer::Step);
    let report = session.finish(end);
    std::hint::black_box(report.render_json(&voc));
    p.lap(Layer::Report);
    Ok(report.stats)
}

/// Replay `check` on one file in this (fresh) process; see
/// [`crate::replay_in_child`].
pub fn replay_unit(path: &Path, traced: bool) -> Result<UnitReport, String> {
    let mut on = traced.then(On::new);
    let (t0, cpu0) = (Instant::now(), thread_cpu_ns());
    let stats = match on.as_mut() {
        Some(on) => replay(on, path)?,
        None => replay(&mut Off, path)?,
    };
    Ok(UnitReport {
        wall_ns: t0.elapsed().as_nanos() as u64,
        cpu_ns: thread_cpu_ns() - cpu0,
        counts: Counts::of(&stats, IPU_RULES.len()),
        layers: on.map(|on| on.totals()).unwrap_or_default(),
    })
}
