//! The traced run's layer ledger.
//!
//! Spans are taken in the benchmark's own code around its calls into each
//! layer's public functions; nothing inside lomon is instrumented. Layer
//! boundaries share one timestamp (the end of one layer starts the next).
//! Timestamps come from the cycle counter, which disturbs a loop of
//! sub-microsecond steps far less than a clock call, and the calibrated
//! cost of one read is subtracted per span. Spans stay in memory and are
//! written out when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The named layers, by the module whose public call is timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `MappedFile::open` + UTF-8 validation.
    Read,
    /// `read_trace_bytes_into`, `check`'s interning pass.
    Intern,
    /// `decode_events_into` against the frozen vocabulary.
    Decode,
    /// `parse_stream_line_bytes` on one trace-format line.
    LineParse,
    /// `FrameDecoder::push` / `next_frame`.
    Frame,
    /// UTF-8 check + `parse_ndjson_line_ref` on one frame.
    NdjsonDecode,
    /// `Vocabulary::intern` / `lookup_bytes`.
    Resolve,
    /// `Engine::compile` and the session it hands out.
    Compile,
    /// The whole-rulebook analysis `compile_with_analysis` adds.
    Analysis,
    /// `Session::ingest_batch` / `ingest` / `advance_time`.
    Step,
    /// `Session::drain_newly_final_into` and the verdict lines it feeds.
    Drain,
    /// `finish`/`close` and the rendered report or summary.
    Report,
}

pub const LAYERS: [Layer; 12] = [
    Layer::Read,
    Layer::Intern,
    Layer::Decode,
    Layer::LineParse,
    Layer::Frame,
    Layer::NdjsonDecode,
    Layer::Resolve,
    Layer::Compile,
    Layer::Analysis,
    Layer::Step,
    Layer::Drain,
    Layer::Report,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Read => "trace.read",
            Layer::Intern => "trace.intern",
            Layer::Decode => "trace.decode",
            Layer::LineParse => "trace.line_parse",
            Layer::Frame => "trace.frame",
            Layer::NdjsonDecode => "trace.ndjson_decode",
            Layer::Resolve => "trace.resolve",
            Layer::Compile => "engine.compile",
            Layer::Analysis => "core.analysis",
            Layer::Step => "engine.step",
            Layer::Drain => "engine.drain",
            Layer::Report => "engine.report",
        }
    }

    pub fn from_name(name: &str) -> Option<Layer> {
        LAYERS.into_iter().find(|l| l.name() == name)
    }
}

/// Where a replay reports its layer boundaries. The untraced replay runs
/// the same code with [`Off`], whose calls compile to nothing.
pub trait Probe {
    /// Start timing: the next [`Probe::lap`] measures from here.
    fn mark(&mut self);
    /// Attribute the time since the last mark or lap to `layer`.
    fn lap(&mut self, layer: Layer);
    /// Open a unit span (an invocation, stream or episode).
    fn begin_unit(&mut self, _name: &'static str) {}
    /// Close the unit span and file one child span per layer it used.
    fn end_unit(&mut self) {}
    /// Drop the open unit span without filing it.
    fn discard_unit(&mut self) {}
}

/// No tracing.
#[derive(Debug, Default)]
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn mark(&mut self) {}
    #[inline(always)]
    fn lap(&mut self, _: Layer) {}
}

/// A timestamp in cycle-counter ticks: `rdtsc` without a fence on x86-64,
/// the monotonic clock in ns elsewhere.
#[inline(always)]
fn stamp() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: RDTSC is part of the x86-64 baseline instruction set; it
    // only reads the time-stamp counter and touches no memory.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Ticks per ns and the median ticks of one [`stamp`], measured once.
fn calibration() -> (f64, f64) {
    static CAL: OnceLock<(f64, f64)> = OnceLock::new();
    *CAL.get_or_init(|| {
        let (t0, s0) = (Instant::now(), stamp());
        while t0.elapsed() < Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        let per_ns = (stamp() - s0) as f64 / t0.elapsed().as_nanos() as f64;
        let mut batches: Vec<f64> = (0..64)
            .map(|_| {
                let s = stamp();
                for _ in 0..256 {
                    std::hint::black_box(stamp());
                }
                (stamp() - s) as f64 / 257.0
            })
            .collect();
        batches.sort_by(f64::total_cmp);
        (per_ns, batches[batches.len() / 2])
    })
}

/// One layer's calibrated total inside a unit.
#[derive(Debug, Clone, Copy)]
pub struct LayerTotal {
    pub layer: Layer,
    pub ns: u64,
    pub calls: u64,
}

/// One finished span: a unit (`parent == 0`) or one layer's total inside
/// a unit.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Layer spans: calibrated time inside the layer, over `calls` calls.
    self_ns: u64,
    calls: u64,
}

/// Tracing on: accumulates per-layer ticks for the current unit and keeps
/// every finished span.
#[derive(Debug)]
pub struct On {
    origin: Instant,
    last: u64,
    acc: [(u64, u64); LAYERS.len()],
    unit: Option<(&'static str, Instant)>,
    next_id: u64,
    spans: Vec<Span>,
}

impl Probe for On {
    #[inline(always)]
    fn mark(&mut self) {
        self.last = stamp();
    }

    #[inline(always)]
    fn lap(&mut self, layer: Layer) {
        let now = stamp();
        let slot = &mut self.acc[layer as usize];
        slot.0 += now.wrapping_sub(self.last);
        slot.1 += 1;
        self.last = now;
    }

    fn begin_unit(&mut self, name: &'static str) {
        self.acc = [(0, 0); LAYERS.len()];
        self.unit = Some((name, Instant::now()));
    }

    fn end_unit(&mut self) {
        if let Some((name, start)) = self.unit.take() {
            let totals = self.totals();
            self.file_unit(name, start, Instant::now(), &totals);
        }
    }

    fn discard_unit(&mut self) {
        self.unit = None;
    }
}

impl On {
    pub fn new() -> Self {
        calibration();
        On {
            origin: Instant::now(),
            last: stamp(),
            acc: [(0, 0); LAYERS.len()],
            unit: None,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// The calibrated cost of one timestamp, in ns.
    pub fn stamp_ns() -> f64 {
        let (per_ns, ticks) = calibration();
        ticks / per_ns
    }

    /// The calibrated per-layer totals accumulated since the last
    /// [`Probe::begin_unit`].
    pub fn totals(&self) -> Vec<LayerTotal> {
        let (per_ns, stamp_ticks) = calibration();
        LAYERS
            .into_iter()
            .filter_map(|layer| {
                let (ticks, calls) = self.acc[layer as usize];
                (calls > 0).then(|| LayerTotal {
                    layer,
                    ns: ((ticks as f64 - calls as f64 * stamp_ticks).max(0.0) / per_ns) as u64,
                    calls,
                })
            })
            .collect()
    }

    /// File a unit span that ran from `start` to `end` (possibly in
    /// another process) with its layer totals as child spans.
    pub fn file_unit(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        totals: &[LayerTotal],
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent: 0,
            name,
            start_ns: at(start),
            end_ns: at(end),
            self_ns: 0,
            calls: 1,
        });
        for t in totals {
            self.spans.push(Span {
                id: self.next_id,
                parent: id,
                name: t.layer.name(),
                start_ns: at(start),
                end_ns: at(end),
                self_ns: t.ns,
                calls: t.calls,
            });
            self.next_id += 1;
        }
    }

    /// Calibrated ns per layer summed over every unit so far.
    pub fn layer_ns(&self, layer: Layer) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent != 0 && s.name == layer.name())
            .fold(0.0, |sum, s| sum + s.self_ns as f64)
    }

    /// Number of unit spans.
    pub fn units(&self) -> usize {
        self.spans.iter().filter(|s| s.parent == 0).count()
    }

    /// Write every span as one NDJSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}, \"calls\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.self_ns, s.calls
            )?;
        }
        out.flush()
    }
}
