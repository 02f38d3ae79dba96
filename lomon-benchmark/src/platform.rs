//! `platform-online`: the face-recognition platform with the case-study
//! monitors attached online (`lomon_tlm::scenario::run_scenario`), as a
//! monitor sits inside a SystemC/TLM simulation. There is no trace
//! decoding at all. One unit is one episode: a whole scenario run of
//! [`CAPTURES`] recognitions under one fault plan.

use std::time::{Duration, Instant};

use lomon_core::verdict::Verdict;
use lomon_engine::Engine;
use lomon_tlm::scenario::{case_study_properties, run_scenario, ScenarioConfig, ScenarioReport};

use crate::gen::{platform_round, Episode, Rng, Target};
use crate::sys::{self_peak_rss_kib, thread_cpu_ns};
use crate::{median_of, rounds_for, stats, write_truth, Ctx, EndToEnd, Layers, Ops, Outcome};

/// Button presses (recognition episodes) per scenario run.
const CAPTURES: u32 = 16;
/// Episodes of each fault kind per round; a round is half nominal.
const PER_FAULT: usize = 24;
/// Zero-capture scenario runs whose median is `setup_s`.
const SETUP_RUNS: usize = 2001;

fn config(episode: &Episode, monitors: bool) -> ScenarioConfig {
    let mut config = ScenarioConfig::nominal(episode.seed).with_fault(episode.fault);
    config.captures = CAPTURES;
    config.monitors = monitors;
    config
}

pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let mut rng = Rng::new(ctx.seed ^ 0x91a7);
    let round = platform_round(&mut rng, PER_FAULT);
    write_truth(ctx, "platform-online", round.iter().map(|e| e.to_json()))?;
    let mut ops = Ops::default();
    let setup_s = if trace {
        f64::NAN
    } else {
        median_of(&mut ops, SETUP_RUNS, || {
            let mut config = ScenarioConfig::nominal(rng.next_u64());
            config.captures = 0;
            let t0 = Instant::now();
            let report = run_scenario(&config);
            let took = t0.elapsed();
            if report.all_ok() {
                Ok(took)
            } else {
                Err("a scenario without captures reported a violation".into())
            }
        })
    };

    // Per round: summed episode wall time, CPU and observed events; the
    // reported rates are medians over rounds.
    let (mut walls, mut rates, mut costs, mut events) = (Vec::new(), Vec::new(), Vec::new(), 0u64);
    // Peak RSS once every kind of episode has run, before the benchmark's own
    // per-episode bookkeeping grows with the length of the run.
    let mut peak_rss_kib = None;
    // A traced run leaves half its time to the monitors-off/on pairs.
    let window = Duration::from_secs_f64(if trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });
    rounds_for(window, || {
        let (mut wall_ns, mut cpu_ns, mut round_events) = (0u64, 0u64, 0u64);
        for episode in &round {
            let cfg = config(episode, true);
            let (cpu0, t0) = (thread_cpu_ns(), Instant::now());
            let report = run_scenario(&cfg);
            let (wall, cpu) = (t0.elapsed(), thread_cpu_ns() - cpu0);
            let outcome = verify(episode, &cfg, &report);
            if outcome.is_ok() {
                walls.push(wall.as_secs_f64());
                wall_ns += wall.as_nanos() as u64;
                cpu_ns += cpu;
                round_events += report.trace.len() as u64;
            }
            ops.record(outcome);
        }
        if round_events > 0 {
            rates.push(round_events as f64 / (wall_ns as f64 / 1e9));
            costs.push(cpu_ns as f64 / round_events as f64);
        }
        events += round_events;
        peak_rss_kib.get_or_insert_with(self_peak_rss_kib);
        Ok(())
    })?;
    let e2e = EndToEnd {
        events_per_s: stats::median(&rates),
        cpu_ns_per_event: stats::median(&costs),
        latencies_ms: walls.iter().map(|w| w * 1e3).collect(),
        peak_rss_mib: peak_rss_kib.unwrap_or(0) as f64 / 1024.0,
        setup_s,
    };
    let mut notes = vec![format!(
        "{} episodes per round ({} nominal), {CAPTURES} captures each; {events} observed events",
        round.len(),
        round.iter().filter(|e| e.target == Target::None).count()
    )];
    let layers = if trace {
        Some(traced(&round, window, &e2e, &mut notes)?)
    } else {
        None
    };
    Ok(Outcome {
        ops,
        checks: Vec::new(),
        e2e,
        layers,
        notes,
    })
}

/// Nominal episodes satisfy both properties; a faulted one violates the
/// property its fault targets; and the online verdicts equal an offline
/// replay of the recorded trace through an engine session.
fn verify(episode: &Episode, cfg: &ScenarioConfig, report: &ScenarioReport) -> Result<(), String> {
    let verdict = |label: &str| {
        report
            .verdicts
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| *v)
    };
    match episode.target {
        Target::None if !report.all_ok() => {
            return Err(format!(
                "nominal episode {:#x} reported {:?}",
                episode.seed, report.verdicts
            ));
        }
        Target::Example2 if verdict("example2") != Some(Verdict::Violated) => {
            return Err(format!(
                "fault {:?} did not violate example2: {:?}",
                episode.fault, report.verdicts
            ));
        }
        Target::Example3 if verdict("example3") != Some(Verdict::Violated) => {
            return Err(format!(
                "fault {:?} did not violate example3: {:?}",
                episode.fault, report.verdicts
            ));
        }
        _ => {}
    }
    let mut voc = report.vocabulary.clone();
    let texts: Vec<String> = case_study_properties(cfg)
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let engine =
        Engine::compile(&texts, &mut voc).map_err(|_| "case-study properties do not compile")?;
    let mut session = engine.session();
    session.ingest_batch(report.trace.events());
    let offline = session.finish(report.end_time);
    for ((label, online), p) in report.verdicts.iter().zip(&offline.properties) {
        if *online != p.verdict {
            return Err(format!(
                "episode {:#x} ({:?}): {label} online {online}, offline {}",
                episode.seed, episode.fault, p.verdict
            ));
        }
    }
    Ok(())
}

/// The traced run: whole rounds of episodes, each run with monitors off
/// (the simulation and its trace recording alone) and on, interleaved, so
/// the hub's monitor cost per observed event is the difference — the
/// paper's S3 figure.
fn traced(
    round: &[Episode],
    window: Duration,
    e2e: &EndToEnd,
    notes: &mut Vec<String>,
) -> Result<Layers, String> {
    let (mut off_ns, mut on_ns, mut events, mut dispatched) = (0u64, 0u64, 0u64, 0u64);
    rounds_for(window, || {
        for episode in round {
            let t0 = Instant::now();
            std::hint::black_box(run_scenario(&config(episode, false)));
            off_ns += t0.elapsed().as_nanos() as u64;
            let t0 = Instant::now();
            let report = run_scenario(&config(episode, true));
            on_ns += t0.elapsed().as_nanos() as u64;
            events += report.trace.len() as u64;
            dispatched += report.stats.dispatched;
        }
        Ok(())
    })?;
    let ev = events as f64;
    let sim = off_ns as f64 / ev;
    let hub = (on_ns as f64 - off_ns as f64) / ev;
    notes.push(format!(
        "simulation {sim:.1} + hub monitors {hub:.1} ns/event vs process CPU {:.1} ns/event: \
         remainder {:.1} ns/event (the relative monitoring overhead is {:.0} %)",
        e2e.cpu_ns_per_event,
        e2e.cpu_ns_per_event - sim - hub,
        hub / sim * 100.0
    ));
    Ok(vec![
        ("tlm.sim_ns_per_event", sim),
        ("tlm.hub_monitor_ns_per_event", hub),
        ("kernel.dispatches_per_event", dispatched as f64 / ev),
        (
            "bench.trace_overhead_ns_per_event",
            on_ns as f64 / ev - 1e9 / e2e.events_per_s,
        ),
    ])
}
