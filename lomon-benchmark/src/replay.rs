//! The traced run's replays and the per-layer figures drawn from them.
//!
//! `check` and `watch` units are replayed in a fresh copy of this program
//! (`--replay-unit`), so each replay starts from an empty heap and cold
//! mappings exactly as a `lomon` invocation does; the `serve` connection
//! loop is long-lived and is replayed in process. Every traced replay is
//! paired with an untraced one of the same input, and the difference is
//! the tracing overhead.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use lomon_engine::DispatchStats;

use crate::json::{self, Json};
use crate::ledger::{Layer, LayerTotal, On, LAYERS};
use crate::{Ctx, Layers};

/// Dispatch counts of replayed units.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub events: u64,
    /// Monitor steps performed.
    pub steps: u64,
    /// Steps a broadcast would perform: one per property per event.
    pub naive: u64,
    pub shared: u64,
}

impl Counts {
    /// The counts of one session over a rulebook of `properties`.
    pub fn of(stats: &DispatchStats, properties: usize) -> Counts {
        Counts {
            events: stats.events,
            steps: stats.monitor_steps,
            naive: properties as u64 * stats.events,
            shared: stats.shared_hits,
        }
    }

    pub fn add(&mut self, other: Counts) {
        self.events += other.events;
        self.steps += other.steps;
        self.naive += other.naive;
        self.shared += other.shared;
    }
}

/// What a replay of one unit in a fresh process reports to the parent:
/// its wall and CPU time, its counts and (when traced) its layer totals.
#[derive(Debug, Clone, Default)]
pub struct UnitReport {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub counts: Counts,
    pub layers: Vec<LayerTotal>,
}

impl UnitReport {
    pub fn to_json(&self) -> String {
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|t| format!("[\"{}\", {}, {}]", t.layer.name(), t.ns, t.calls))
            .collect();
        let c = &self.counts;
        format!(
            "{{\"wall_ns\": {}, \"cpu_ns\": {}, \"events\": {}, \"steps\": {}, \"naive\": {}, \
             \"shared\": {}, \"layers\": [{}]}}",
            self.wall_ns,
            self.cpu_ns,
            c.events,
            c.steps,
            c.naive,
            c.shared,
            layers.join(", ")
        )
    }

    pub fn from_json(text: &str) -> Option<UnitReport> {
        let v = json::parse(text.trim())?;
        let num = |key: &str| v.get(key).and_then(Json::num).map(|n| n as u64);
        let layers = v
            .get("layers")?
            .arr()?
            .iter()
            .map(|entry| {
                let e = entry.arr()?;
                Some(LayerTotal {
                    layer: Layer::from_name(e.first()?.str()?)?,
                    ns: e.get(1)?.num()? as u64,
                    calls: e.get(2)?.num()? as u64,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(UnitReport {
            wall_ns: num("wall_ns")?,
            cpu_ns: num("cpu_ns")?,
            counts: Counts {
                events: num("events")?,
                steps: num("steps")?,
                naive: num("naive")?,
                shared: num("shared")?,
            },
            layers,
        })
    }
}

/// Totals of one workload's traced and untraced replays.
#[derive(Debug)]
pub struct Replay {
    pub on: On,
    /// Counts of the traced replays.
    pub counts: Counts,
    /// Rulebook compilations the traced replays made.
    pub compiles: u64,
    /// Wall time of the traced and of the untraced replays, in ns.
    pub traced_ns: u64,
    pub untraced_ns: u64,
    /// CPU time of the same replays, in ns, when each ran alone in a
    /// process that never blocks (0 otherwise).
    pub traced_cpu_ns: u64,
    pub untraced_cpu_ns: u64,
}

impl Replay {
    pub fn new() -> Self {
        Replay {
            on: On::new(),
            counts: Counts::default(),
            compiles: 0,
            traced_ns: 0,
            untraced_ns: 0,
            traced_cpu_ns: 0,
            untraced_cpu_ns: 0,
        }
    }

    /// Replay `input` once traced and once untraced, each in a fresh
    /// process.
    pub fn add_pair(&mut self, workload: &'static str, input: &Path) -> Result<(), String> {
        let (report, start, end) = replay_in_child(workload, input, true)?;
        self.on.file_unit(workload, start, end, &report.layers);
        self.counts.add(report.counts);
        self.compiles += 1;
        self.traced_ns += report.wall_ns;
        self.traced_cpu_ns += report.cpu_ns;
        let (untraced, _, _) = replay_in_child(workload, input, false)?;
        self.untraced_ns += untraced.wall_ns;
        self.untraced_cpu_ns += untraced.cpu_ns;
        Ok(())
    }

    /// Write the spans beside the run's inputs.
    pub fn write_spans(&self, ctx: &Ctx, workload: &str) -> Result<(), String> {
        let path = ctx.data.join(format!("{workload}.spans.ndjson"));
        self.on
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// The per-layer figures: per-event layer costs, compile and analysis
    /// per compilation, report per unit, dispatch counts, the remainder
    /// of the untraced process CPU that the named layers leave
    /// unexplained, and the tracing overhead.
    ///
    /// Spans measure elapsed time. Where the replays ran in processes that
    /// never block, time the host took the CPU away (preemption, a
    /// hypervisor's steal) is removed by scaling every layer by the
    /// replays' CPU-to-wall ratio, so the layers compare with process CPU.
    pub fn figures(
        &self,
        process_cpu_ns_per_event: f64,
        remainder_name: &'static str,
        notes: &mut Vec<String>,
    ) -> Layers {
        let (on, c) = (&self.on, &self.counts);
        let ev = c.events as f64;
        let units = on.units() as f64;
        let compiles = self.compiles as f64;
        let (scale, overhead) = if self.traced_cpu_ns > 0 {
            (
                (self.traced_cpu_ns as f64 / self.traced_ns as f64).min(1.0),
                (self.traced_cpu_ns as f64 - self.untraced_cpu_ns as f64) / ev,
            )
        } else {
            (1.0, (self.traced_ns as f64 - self.untraced_ns as f64) / ev)
        };
        let layer_ns = |layer| on.layer_ns(layer) * scale;
        let per_event = |layer| layer_ns(layer) / ev;
        let named_sum = LAYERS.iter().fold(0.0, |sum, &l| sum + per_event(l));
        let remainder = process_cpu_ns_per_event - named_sum;
        notes.push(format!(
            "traced replay: {units} units, {} events; timestamp {:.1} ns (subtracted per span); \
             CPU/wall {scale:.3}",
            c.events,
            On::stamp_ns()
        ));
        notes.push(format!(
            "named layers {named_sum:.1} ns/event vs untraced process CPU \
             {process_cpu_ns_per_event:.1} ns/event: remainder {remainder:.1} ns/event; \
             tracing overhead {overhead:.1} ns/event"
        ));
        vec![
            ("trace.read_ns_per_event", per_event(Layer::Read)),
            ("trace.intern_ns_per_event", per_event(Layer::Intern)),
            ("trace.decode_ns_per_event", per_event(Layer::Decode)),
            ("trace.line_parse_ns_per_event", per_event(Layer::LineParse)),
            ("trace.frame_ns_per_event", per_event(Layer::Frame)),
            (
                "trace.ndjson_decode_ns_per_event",
                per_event(Layer::NdjsonDecode),
            ),
            ("trace.resolve_ns_per_event", per_event(Layer::Resolve)),
            (
                "engine.compile_ms",
                layer_ns(Layer::Compile) / compiles / 1e6,
            ),
            (
                "core.analysis_ms",
                layer_ns(Layer::Analysis) / compiles / 1e6,
            ),
            ("engine.step_ns_per_event", per_event(Layer::Step)),
            ("engine.drain_ns_per_event", per_event(Layer::Drain)),
            ("engine.report_us", layer_ns(Layer::Report) / units / 1e3),
            ("engine.monitor_steps_per_event", c.steps as f64 / ev),
            ("engine.shared_hits_per_event", c.shared as f64 / ev),
            (
                "engine.dispatch_useful_ratio",
                c.steps as f64 / c.naive.max(1) as f64,
            ),
            (remainder_name, remainder),
            ("bench.trace_overhead_ns_per_event", overhead),
        ]
    }
}

/// Replay one unit in a fresh copy of this program. Returns the child's
/// report and when it ran.
fn replay_in_child(
    workload: &str,
    input: &Path,
    traced: bool,
) -> Result<(UnitReport, Instant, Instant), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let start = Instant::now();
    let out = Command::new(exe)
        .arg("--replay-unit")
        .arg(workload)
        .arg(input)
        .arg(if traced { "1" } else { "0" })
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run the replay: {e}"))?;
    let end = Instant::now();
    if !out.status.success() {
        return Err(format!(
            "replay failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let report = UnitReport::from_json(text.lines().last().unwrap_or(""))
        .ok_or_else(|| format!("unreadable replay report: {text}"))?;
    Ok((report, start, end))
}
