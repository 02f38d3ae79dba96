//! `watch-fanout`: `lomon watch` reading trace-format lines from a pipe
//! against 48 structurally distinct `repeated` properties over one
//! alphabet. Step and fan-out dominate; ingest is a small share. One unit
//! is one invocation on one stream, timed from spawn to reap.

use std::process::Command;
use std::time::{Duration, Instant};

use lomon_core::analysis::{analyze, AnalysisOptions};
use lomon_core::verdict::Verdict;
use lomon_engine::{Backend, DispatchMode, DispatchStats, Engine};
use lomon_trace::{
    parse_stream_line_bytes, SimTime, StreamFormat, StreamLineRef, TimedEvent, Vocabulary,
};

use crate::child::invoke;
use crate::gen::{fanout_rulebook, fanout_stream, Expect, Rng, Truth, FANOUT_PROPERTIES};
use crate::ledger::{Layer, Off, On, Probe};
use crate::replay::{Counts, Replay, UnitReport};
use crate::sys::thread_cpu_ns;
use crate::{median_of, rounds_for, write_input, write_truth, Ctx, Invocations, Ops, Outcome};

/// Episodes per stream: 13 events each, about 600 000 events.
const EPISODES: u32 = 46_000;
/// Launches on an empty stdin whose median is `setup_s`.
const SETUP_LAUNCHES: usize = 9;

pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let rules = fanout_rulebook();
    let mut rng = Rng::new(ctx.seed ^ 0xfa);
    // Two streams per round: one breaks one canary property late, the
    // other two. Which canaries is drawn.
    let first = rng.between(0, 3) as usize;
    let second = (first + 1 + rng.between(0, 2) as usize) % 4;
    let third = (0..4)
        .find(|k| *k != first && *k != second)
        .expect("four canaries");
    let streams = [
        fanout_stream(&mut rng, EPISODES, &[first]),
        fanout_stream(&mut rng, EPISODES, &[second, third]),
    ];
    write_truth(
        ctx,
        "watch-fanout",
        streams
            .iter()
            .enumerate()
            .map(|(k, (_, truth))| truth.to_json(&format!("watch-fanout-{k}.trace"))),
    )?;

    let mut ops = Ops::default();
    let setup_s = if trace {
        f64::NAN
    } else {
        median_of(&mut ops, SETUP_LAUNCHES, || {
            let run = invoke(&mut watch_cmd(ctx, &rules), None).map_err(|e| e.to_string())?;
            let empty = Truth {
                events: 0,
                verdicts: vec![Expect::Holds; FANOUT_PROPERTIES],
            };
            verify(&rules, &run.stdout, &run.stderr, run.reaped.code, &empty)?;
            Ok(run.wall)
        })
    };
    let mut inputs = Vec::new();
    if trace {
        for (k, (bytes, _)) in streams.iter().enumerate() {
            let path = ctx.data.join(format!("watch-fanout-{k}.trace"));
            write_input(&path, bytes)?;
            inputs.push(path);
        }
    }

    // As in `check-ipu`, a traced run pairs every invocation with a
    // traced and an untraced replay of the same stream.
    let mut runs = Invocations::default();
    let mut replay = trace.then(Replay::new);
    rounds_for(Duration::from_secs_f64(ctx.seconds), || {
        for (k, (bytes, truth)) in streams.iter().enumerate() {
            let outcome = invoke(&mut watch_cmd(ctx, &rules), Some(bytes))
                .map_err(|e| format!("spawn: {e}"))
                .and_then(|run| {
                    verify(&rules, &run.stdout, &run.stderr, run.reaped.code, truth)?;
                    runs.add(&run, truth.events);
                    Ok(())
                });
            ops.record(outcome);
            if let Some(replay) = replay.as_mut() {
                replay.add_pair("watch-fanout", &inputs[k])?;
            }
        }
        Ok(())
    })?;
    let mut notes = vec![format!(
        "{} properties; streams of {} and {} events",
        rules.len(),
        streams[0].1.events,
        streams[1].1.events
    )];
    let layers = match replay {
        Some(replay) => {
            replay.write_spans(ctx, "watch-fanout")?;
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

fn watch_cmd(ctx: &Ctx, rules: &[String]) -> Command {
    let mut cmd = Command::new(&ctx.lomon);
    cmd.arg("watch").args(rules);
    cmd
}

/// Compare a trace-format `watch` run with the ground truth: the final
/// report on stderr (one `[verdict] property` line each, then the
/// dispatch line with the event count), and the streamed diagnostic of
/// every violation on stdout.
fn verify(
    rules: &[String],
    stdout: &[u8],
    stderr: &[u8],
    code: Option<i32>,
    truth: &Truth,
) -> Result<(), String> {
    let want_code = if truth.ok() { 0 } else { 1 };
    if code != Some(want_code) {
        return Err(format!("exit code {code:?}, expected {want_code}"));
    }
    let err = String::from_utf8_lossy(stderr);
    let verdicts: Vec<&str> = err
        .lines()
        .filter_map(|l| l.strip_prefix("  ["))
        .filter_map(|l| l.split_once(']').map(|(v, _)| v))
        .collect();
    if verdicts.len() != truth.verdicts.len() {
        return Err(format!("{} verdicts in the report", verdicts.len()));
    }
    let want_events = format!("  dispatch: {} events x", truth.events);
    if !err.lines().any(|l| l.starts_with(&want_events)) {
        return Err(format!("no `{want_events}` line in the report"));
    }
    let out = String::from_utf8_lossy(stdout);
    let lines: Vec<&str> = out.lines().collect();
    for (k, (verdict, want)) in verdicts.iter().zip(&truth.verdicts).enumerate() {
        // The streamed `[violated] property` line is followed by its
        // indented diagnostic.
        let diagnostic = lines
            .iter()
            .position(|l| l.strip_prefix("[violated] ") == Some(rules[k].as_str()))
            .and_then(|i| lines.get(i + 1))
            .map_or("", |l| l.trim_start());
        want.check(k, verdict, diagnostic, "go")?;
    }
    Ok(())
}

/// Replay one `watch` invocation in the binary's call order: compile plus
/// analysis, then per line the parse, the name resolution, the step and
/// the drain of newly final verdicts, then the final report. Verdict
/// lines go to a buffer instead of stdout.
fn replay<P: Probe>(p: &mut P, rules: &[String], input: &[u8]) -> Result<DispatchStats, String> {
    let mut sink: Vec<u8> = Vec::new();
    p.mark();
    let mut voc = Vocabulary::new();
    let engine = Engine::compile(rules, &mut voc).map_err(|_| "rulebook does not compile")?;
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
    p.lap(Layer::Compile);
    let mut last_time = SimTime::ZERO;
    let mut finalized = Vec::new();
    for raw in input.split(|&b| b == b'\n') {
        let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
        if raw.is_empty() {
            continue;
        }
        p.mark();
        if !raw.is_ascii() && std::str::from_utf8(raw).is_err() {
            return Err("stream is not UTF-8".into());
        }
        let parsed = parse_stream_line_bytes(StreamFormat::Trace, raw);
        p.lap(Layer::LineParse);
        match parsed {
            Ok(Some(StreamLineRef::Event {
                time,
                direction,
                name,
            })) if time >= last_time => {
                last_time = time;
                let name = voc.intern(&name, direction);
                p.lap(Layer::Resolve);
                session.ingest(TimedEvent::new(name, time));
                p.lap(Layer::Step);
                session.drain_newly_final_into(&mut finalized);
                for &id in &finalized {
                    let id = id as usize;
                    let verdict = session.verdict(id);
                    sink.extend_from_slice(
                        format!("[{verdict}] {}\n", engine.property_display(id)).as_bytes(),
                    );
                    if verdict == Verdict::Violated {
                        if let Some(v) = session.violation(id) {
                            sink.extend_from_slice(format!("    {}\n", v.display(&voc)).as_bytes());
                        }
                    }
                }
                p.lap(Layer::Drain);
            }
            _ => return Err("unexpected line in a generated stream".into()),
        }
        if session.is_settled() {
            break;
        }
    }
    p.mark();
    let report = session.finish(last_time);
    sink.extend_from_slice(report.render(&voc).as_bytes());
    p.lap(Layer::Report);
    std::hint::black_box(&sink);
    Ok(report.stats)
}

/// Replay `watch` on one stored stream in this (fresh) process; see
/// [`crate::replay_in_child`].
pub fn replay_unit(path: &std::path::Path, traced: bool) -> Result<UnitReport, String> {
    let input = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let rules = fanout_rulebook();
    let mut on = traced.then(On::new);
    let (t0, cpu0) = (Instant::now(), thread_cpu_ns());
    let stats = match on.as_mut() {
        Some(on) => replay(on, &rules, &input)?,
        None => replay(&mut Off, &rules, &input)?,
    };
    Ok(UnitReport {
        wall_ns: t0.elapsed().as_nanos() as u64,
        cpu_ns: thread_cpu_ns() - cpu0,
        counts: Counts::of(&stats, rules.len()),
        layers: on.map(|on| on.totals()).unwrap_or_default(),
    })
}
