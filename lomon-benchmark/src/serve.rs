//! `serve-streams`: one `lomon serve` daemon, two loopback connections in
//! a closed loop. Each connection sends a round of NDJSON streams, one at
//! a time, waiting for each stream's `summary` before sending the next,
//! then closes and reconnects for the next round. One unit is one stream,
//! timed from its first byte written to its summary read.

use std::io::{self, BufRead as _, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lomon_core::analysis::{analyze, AnalysisOptions};
use lomon_core::verdict::Verdict;
use lomon_engine::{Backend, DispatchMode, Engine, Session};
use lomon_trace::ndjson::{parse_ndjson_line_ref, StreamLineRef};
use lomon_trace::{json_escape, Frame, FrameDecoder, SimTime, TimedEvent, Vocabulary};

use crate::gen::{serve_streams, Truth, IPU_RULES};
use crate::json::{self, Json};
use crate::ledger::{Layer, Off, Probe};
use crate::replay::{Counts, Replay};
use crate::sys::{proc_cpu_ns, reap, Reaped};
use crate::{median_of, stats, write_truth, Ctx, EndToEnd, Ops, Outcome};

/// Connections, each a closed-loop client on its own thread.
const CONNECTIONS: usize = 2;
/// Streams per connection per round.
const STREAMS_PER_ROUND: usize = 8;
/// IPU episodes per stream: five events each.
const EPISODES: u32 = 800;
/// Daemon launches whose median spawn-to-announcement time is `setup_s`.
const SETUP_LAUNCHES: usize = 41;
/// How long a client waits for any one frame before it gives up.
const FRAME_TIMEOUT: Duration = Duration::from_secs(30);
/// The daemon's read buffer (`READ_CHUNK` in `lomon-serve`), which the
/// replay reads with.
const READ_CHUNK: usize = 8 * 1024;

type Stream = (Vec<u8>, Truth);

/// Client phases of a traced run; each is followed by one traced and
/// one untraced replay round.
const TRACED_PHASES: u32 = 3;
/// Rounds of the stream pool each replay serves.
const REPLAY_ROUNDS: usize = 2;

pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let streams = serve_streams(ctx.seed, CONNECTIONS * STREAMS_PER_ROUND, EPISODES);
    write_truth(
        ctx,
        "serve-streams",
        streams
            .iter()
            .enumerate()
            .map(|(k, (_, truth))| truth.to_json(&format!("stream {k}"))),
    )?;
    let mut ops = Ops::default();
    let setup_s = if trace {
        f64::NAN
    } else {
        median_of(&mut ops, SETUP_LAUNCHES, || {
            let (mut daemon, took) = Daemon::start(ctx).map_err(|e| format!("daemon: {e}"))?;
            let _ = daemon.child.kill();
            daemon.finish().map_err(|e| format!("daemon: {e}"))?;
            Ok(took)
        })
    };

    let (daemon, _) = Daemon::start(ctx).map_err(|e| format!("daemon: {e}"))?;
    let pid = daemon.child.id();
    // A traced run splits the client time into phases with replays in
    // between, so the daemon's CPU and the replayed layers are measured
    // side by side; the daemon idles while the replays run.
    let (phases, phase) = if trace {
        (TRACED_PHASES, ctx.seconds / 2.0 / f64::from(TRACED_PHASES))
    } else {
        (1, ctx.seconds)
    };
    let mut replay = trace.then(Replay::new);
    let mut served = ServedTotals::default();
    let mut clients = Client::default();
    let mut samples = Vec::new();
    let mut window = Duration::ZERO;
    for _ in 0..phases {
        let done = AtomicU64::new(0);
        let t0 = Instant::now();
        std::thread::scope(|s| -> Result<(), String> {
            let handles: Vec<_> = streams
                .chunks(STREAMS_PER_ROUND)
                .map(|round| {
                    let done = &done;
                    s.spawn(move || {
                        Client::run(
                            daemon.listen,
                            round,
                            t0,
                            Duration::from_secs_f64(phase),
                            done,
                        )
                    })
                })
                .collect();
            sample_until_done(pid, &done, &handles, &mut samples)?;
            for handle in handles {
                clients.absorb(handle.join().expect("client threads do not panic"));
            }
            Ok(())
        })?;
        window += t0.elapsed();
        if let Some(replay) = replay.as_mut() {
            replay_rounds(replay, &streams, &mut served)?;
        }
    }
    let mut checks = Vec::new();
    let (events, sent_streams) = (clients.events, clients.streams);
    match scrape_totals(daemon.metrics) {
        Ok((ev, st)) if ev == events && st == sent_streams => {}
        Ok((ev, st)) => checks.push(format!(
            "/metrics reports {ev} events and {st} streams; the clients sent {events} and {sent_streams}"
        )),
        Err(e) => checks.push(format!("/metrics scrape failed: {e}")),
    }
    if let Err(e) = http(daemon.admin, "POST", "/shutdown") {
        checks.push(format!("shutdown request failed: {e}"));
    }
    let reaped = daemon.finish().map_err(|e| format!("daemon: {e}"))?;
    if reaped.code != Some(0) {
        checks.push(format!(
            "daemon exited with {:?} after a drain shutdown",
            reaped.code
        ));
    }
    let rates: Vec<f64> = samples
        .iter()
        .map(|s| s.events as f64 / s.wall.as_secs_f64())
        .collect();
    let costs: Vec<f64> = samples
        .iter()
        .map(|s| s.cpu_ns as f64 / s.events as f64)
        .collect();
    let e2e = EndToEnd {
        events_per_s: stats::median(&rates),
        cpu_ns_per_event: stats::median(&costs),
        latencies_ms: std::mem::take(&mut clients.latencies_ms),
        peak_rss_mib: reaped.maxrss_kib as f64 / 1024.0,
        setup_s,
    };
    let mut notes = vec![format!(
        "{CONNECTIONS} connections x {STREAMS_PER_ROUND} streams per round; \
         {sent_streams} streams, {events} events in {window:.2?}; {} samples of {SAMPLE:?}",
        samples.len()
    )];
    let layers = match replay {
        Some(replay) => {
            replay.write_spans(ctx, "serve-streams")?;
            let stream_count = served.streams as f64;
            notes.push(format!(
                "replayed connection loop: {} read and {} write calls for {stream_count} streams",
                served.reads, served.writes
            ));
            let mut layers =
                replay.figures(e2e.cpu_ns_per_event, "serve.other_ns_per_event", &mut notes);
            layers.extend([
                (
                    "serve.read_syscalls_per_event",
                    served.reads as f64 / served.counts.events.max(1) as f64,
                ),
                (
                    "serve.write_syscalls_per_stream",
                    served.writes as f64 / stream_count,
                ),
                (
                    "serve.ctx_switches_per_stream",
                    reaped.ctx_switches as f64 / sent_streams.max(1) as f64,
                ),
            ]);
            Some(layers)
        }
        None => None,
    };
    Ok(Outcome {
        ops: clients.ops.merged_into(ops),
        checks,
        e2e,
        layers,
        notes,
    })
}

/// How often the client phase samples completed events and daemon CPU.
const SAMPLE: Duration = Duration::from_millis(500);

/// Events completed and daemon CPU used over one sample interval.
struct Sample {
    wall: Duration,
    events: u64,
    cpu_ns: u64,
}

/// Sample `done` (events of completed streams) and the daemon's CPU every
/// [`SAMPLE`] until every client has finished. A last interval shorter
/// than half a sample is dropped.
fn sample_until_done<T>(
    pid: u32,
    done: &AtomicU64,
    clients: &[std::thread::ScopedJoinHandle<'_, T>],
    samples: &mut Vec<Sample>,
) -> Result<(), String> {
    let cpu = || proc_cpu_ns(pid).map_err(|e| format!("daemon CPU: {e}"));
    let (mut at, mut events, mut cpu_ns) = (Instant::now(), done.load(Ordering::Relaxed), cpu()?);
    loop {
        let finished = clients.iter().all(|h| h.is_finished());
        if finished || at.elapsed() >= SAMPLE {
            let (now, now_events, now_cpu) = (Instant::now(), done.load(Ordering::Relaxed), cpu()?);
            let wall = now - at;
            if wall >= SAMPLE / 2 && now_events > events {
                samples.push(Sample {
                    wall,
                    events: now_events - events,
                    cpu_ns: now_cpu - cpu_ns,
                });
            }
            (at, events, cpu_ns) = (now, now_events, now_cpu);
        }
        if finished {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A running `lomon serve` and the addresses it announced.
struct Daemon {
    child: Child,
    listen: SocketAddr,
    admin: SocketAddr,
    metrics: SocketAddr,
    /// Drains the rest of the daemon's stderr so it never blocks on it.
    stderr: JoinHandle<()>,
}

impl Daemon {
    /// Spawn the daemon on ephemeral ports and wait for its announcement.
    /// Returns the daemon and the time from spawn to the announcement
    /// that it listens.
    fn start(ctx: &Ctx) -> io::Result<(Daemon, Duration)> {
        let t0 = Instant::now();
        let mut child = Command::new(&ctx.lomon)
            .args(["serve", "--listen", "127.0.0.1:0", "--admin", "127.0.0.1:0"])
            .args(["--metrics", "127.0.0.1:0"])
            .args(IPU_RULES)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut err = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let announced = Self::announcement(&mut err).map(|(addrs, at)| (addrs, at - t0));
        let ([listen, admin, metrics], took) = match announced {
            Ok(announced) => announced,
            Err(e) => {
                let _ = child.kill();
                let _ = reap(&child);
                return Err(e);
            }
        };
        let stderr = std::thread::spawn(move || {
            let _ = io::copy(&mut err, &mut io::sink());
        });
        let daemon = Daemon {
            child,
            listen,
            admin,
            metrics,
            stderr,
        };
        Ok((daemon, took))
    }

    /// Read the daemon's stderr up to its announcements — `serving …
    /// on ADDR (admin ADDR)`, then `metrics on http://ADDR/metrics` — and
    /// return the listen, admin and metrics addresses, and when the first
    /// announcement arrived.
    fn announcement(err: &mut impl io::BufRead) -> io::Result<([SocketAddr; 3], Instant)> {
        let mut line = String::new();
        loop {
            line.clear();
            if err.read_line(&mut line)? == 0 {
                return Err(io::Error::other("daemon exited before it listened"));
            }
            if let Some(rest) = line.trim().strip_prefix("serving ") {
                let at = Instant::now();
                let listen = rest.split(" on ").nth(1).and_then(|r| r.split(' ').next());
                let admin = rest
                    .split("(admin ")
                    .nth(1)
                    .and_then(|r| r.strip_suffix(')'));
                let (listen, admin) = (parse_addr(listen)?, parse_addr(admin)?);
                line.clear();
                err.read_line(&mut line)?;
                let metrics = line
                    .trim()
                    .strip_prefix("metrics on http://")
                    .and_then(|r| r.strip_suffix("/metrics"));
                return Ok(([listen, admin, parse_addr(metrics)?], at));
            }
        }
    }

    /// Reap the daemon (after a shutdown request or a kill).
    fn finish(self) -> io::Result<Reaped> {
        let reaped = reap(&self.child)?;
        self.stderr.join().expect("stderr drain does not panic");
        Ok(reaped)
    }
}

fn parse_addr(text: Option<&str>) -> io::Result<SocketAddr> {
    text.and_then(|t| t.parse().ok())
        .ok_or_else(|| io::Error::other("unexpected announcement"))
}

/// Closed-loop client results (one client's, or several merged).
#[derive(Default)]
struct Client {
    ops: Ops,
    latencies_ms: Vec<f64>,
    events: u64,
    streams: u64,
}

impl Client {
    fn absorb(&mut self, other: Client) {
        self.ops = std::mem::take(&mut self.ops).merged_into(other.ops);
        self.latencies_ms.extend(other.latencies_ms);
        self.events += other.events;
        self.streams += other.streams;
    }

    /// Send whole rounds of `round` over fresh connections until the
    /// window has passed.
    fn run(
        addr: SocketAddr,
        round: &[Stream],
        t0: Instant,
        window: Duration,
        done: &AtomicU64,
    ) -> Client {
        let mut client = Client::default();
        loop {
            match TcpStream::connect(addr).and_then(Connection::open) {
                Ok(mut conn) => {
                    for (bytes, truth) in round {
                        let outcome = conn.stream(bytes, truth);
                        if let Ok(ms) = outcome {
                            client.latencies_ms.push(ms);
                            done.fetch_add(truth.events, Ordering::Relaxed);
                        }
                        client.events += truth.events;
                        client.streams += 1;
                        client.ops.record(outcome.map(|_| ()));
                    }
                }
                Err(e) => {
                    for _ in round {
                        client.ops.record(Err(format!("connect: {e}")));
                    }
                }
            }
            if t0.elapsed() >= window {
                return client;
            }
        }
    }
}

/// One client connection: the `ready` frame has been read.
struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Connection {
    fn open(stream: TcpStream) -> io::Result<Connection> {
        stream.set_read_timeout(Some(FRAME_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let mut conn = Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        };
        conn.reader.read_line(&mut conn.line)?;
        if !conn.line.contains("\"type\": \"ready\"") {
            return Err(io::Error::other(format!(
                "expected a ready frame, got `{}`",
                conn.line.trim()
            )));
        }
        Ok(conn)
    }

    /// Send one stream and read frames up to its summary; the result is
    /// the stream's latency in ms, or why it failed.
    fn stream(&mut self, bytes: &[u8], truth: &Truth) -> Result<f64, String> {
        let t0 = Instant::now();
        self.writer
            .write_all(bytes)
            .map_err(|e| format!("write: {e}"))?;
        loop {
            self.line.clear();
            let n = self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed before the summary".into());
            }
            let frame = json::parse(self.line.trim())
                .ok_or_else(|| format!("frame is not JSON: {}", self.line.trim()))?;
            match frame.get("type").and_then(Json::str) {
                Some("verdict") => {}
                Some("summary") => {
                    let took = t0.elapsed().as_secs_f64() * 1e3;
                    let ok = frame.get("ok").and_then(Json::bool);
                    let events = frame.get("events").and_then(Json::num);
                    if ok != Some(truth.ok()) || events != Some(truth.events as f64) {
                        return Err(format!(
                            "summary ok {ok:?} events {events:?}, expected {} and {}",
                            truth.ok(),
                            truth.events
                        ));
                    }
                    return Ok(took);
                }
                other => return Err(format!("unexpected {other:?} frame: {}", self.line.trim())),
            }
        }
    }
}

/// One HTTP/1.1 request with `Connection: close`; returns the body.
fn http(addr: SocketAddr, method: &str, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(FRAME_TIMEOUT))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::other("malformed HTTP response"))?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(io::Error::other(format!(
            "HTTP status `{}`",
            head.lines().next().unwrap_or("")
        )));
    }
    Ok(body.to_owned())
}

/// `lomon_serve_events_total` and `lomon_serve_streams_total` from one
/// scrape of `/metrics`.
fn scrape_totals(addr: SocketAddr) -> io::Result<(u64, u64)> {
    let body = http(addr, "GET", "/metrics")?;
    let value = |name: &str| {
        body.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .map(|v| v as u64)
            .ok_or_else(|| io::Error::other(format!("no {name} sample")))
    };
    Ok((
        value("lomon_serve_events_total")?,
        value("lomon_serve_streams_total")?,
    ))
}

/// Counts the calls that reach the socket: each is one system call.
struct Counted<T> {
    inner: T,
    calls: u64,
}

impl<T: Read> Read for Counted<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        self.inner.read(buf)
    }
}

impl<T: Write> Write for Counted<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.calls += 1;
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// What the replayed daemon counted.
#[derive(Default)]
struct ServedTotals {
    counts: Counts,
    streams: u64,
    reads: u64,
    writes: u64,
}

/// Replay the daemon's connection loop on this thread, over real loopback
/// connections from one client thread that sends every round once: the
/// same frame decoder, read size, decode, name lookup, step, verdict
/// drain and summary as `lomon serve`, with each stream as one unit.
fn serve_replay<P: Probe>(
    p: &mut P,
    streams: &[Stream],
    totals: &mut ServedTotals,
) -> Result<(), String> {
    p.mark();
    let mut voc = Vocabulary::new();
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
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|s| -> Result<(), String> {
        let client = s.spawn(move || -> Result<(), String> {
            for round in streams.chunks(STREAMS_PER_ROUND) {
                let mut conn = TcpStream::connect(addr)
                    .and_then(Connection::open)
                    .map_err(|e| e.to_string())?;
                for (bytes, truth) in round {
                    conn.stream(bytes, truth)?;
                }
            }
            Ok(())
        });
        let mut session = engine.session_with_backend(DispatchMode::Indexed, Backend::Fused);
        for _ in streams.chunks(STREAMS_PER_ROUND) {
            let (conn, _) = listener.accept().map_err(|e| e.to_string())?;
            serve_connection(p, &engine, &voc, &mut session, conn, totals)
                .map_err(|e| e.to_string())?;
            session.reset();
        }
        client.join().expect("replay client does not panic")
    })
}

/// The connection loop of `lomon serve` (`conn.rs`), without its fault
/// paths: the generated streams are well-formed.
fn serve_connection<'e, P: Probe>(
    p: &mut P,
    engine: &'e Engine,
    voc: &Vocabulary,
    session: &mut Session<'e>,
    conn: TcpStream,
    totals: &mut ServedTotals,
) -> io::Result<()> {
    let _ = conn.set_nodelay(true);
    let mut reader = Counted {
        inner: conn.try_clone()?,
        calls: 0,
    };
    let mut writer = BufWriter::new(Counted {
        inner: conn,
        calls: 0,
    });
    writeln!(
        writer,
        "{{\"type\": \"ready\", \"generation\": 1, \"properties\": {}, \"backend\": \"fused\"}}",
        engine.len()
    )?;
    writer.flush()?;
    let mut decoder = FrameDecoder::new(64 * 1024);
    let mut buf = vec![0u8; READ_CHUNK];
    let (mut stream_idx, mut violations, mut in_stream) = (0u64, 0u64, false);
    let mut scratch: Vec<u32> = Vec::new();
    loop {
        let n = reader.read(&mut buf)?;
        if n == 0 {
            break;
        }
        if !in_stream {
            p.begin_unit("stream");
            in_stream = true;
        }
        p.mark();
        decoder.push(&buf[..n]);
        p.lap(Layer::Frame);
        loop {
            let frame = decoder.next_frame();
            p.lap(Layer::Frame);
            let Some(Frame::Line(line)) = frame else {
                if frame.is_some() {
                    return Err(io::Error::other("oversized frame in a generated stream"));
                }
                break;
            };
            let parsed = std::str::from_utf8(line)
                .map_err(|_| io::Error::other("frame is not UTF-8"))
                .and_then(|text| parse_ndjson_line_ref(text).map_err(io::Error::other))?;
            p.lap(Layer::NdjsonDecode);
            match parsed {
                None => {}
                Some(StreamLineRef::Event { time, name, .. }) => {
                    let known = voc.lookup_bytes(name.as_bytes());
                    p.lap(Layer::Resolve);
                    match known {
                        Some(known) => session.ingest(TimedEvent::new(known, time)),
                        None => session.advance_time(time),
                    }
                    p.lap(Layer::Step);
                    violations +=
                        emit_new_verdicts(session, voc, &mut writer, stream_idx, &mut scratch)?;
                    p.lap(Layer::Drain);
                }
                Some(StreamLineRef::End(time)) => {
                    finalize_stream(
                        session,
                        engine,
                        voc,
                        &mut writer,
                        stream_idx,
                        time,
                        violations,
                        &mut scratch,
                    )?;
                    p.lap(Layer::Report);
                    totals.counts.add(Counts::of(session.stats(), engine.len()));
                    totals.streams += 1;
                    session.reset();
                    stream_idx += 1;
                    violations = 0;
                    p.end_unit();
                    p.begin_unit("stream");
                    p.mark();
                }
            }
        }
        writer.flush()?;
    }
    // The unit opened after the last `end` saw no frame: drop it.
    p.discard_unit();
    totals.reads += reader.calls;
    writer.flush()?;
    totals.writes += writer.get_ref().calls;
    Ok(())
}

/// `finalize_stream` of `lomon serve`: close at `end_time`, flush the
/// verdicts that went final, one line per still-open property, and the
/// summary frame.
#[allow(clippy::too_many_arguments)]
fn finalize_stream(
    session: &mut Session<'_>,
    engine: &Engine,
    voc: &Vocabulary,
    writer: &mut impl Write,
    stream_idx: u64,
    end_time: SimTime,
    violations: u64,
    scratch: &mut Vec<u32>,
) -> io::Result<()> {
    session.close(end_time);
    let violations = violations + emit_new_verdicts(session, voc, writer, stream_idx, scratch)?;
    for id in 0..engine.len() {
        let verdict = session.verdict(id);
        if !verdict.is_final() {
            writeln!(
                writer,
                "{{\"type\": \"verdict\", \"stream\": {stream_idx}, \"property\": \"{}\", \
                 \"index\": {id}, \"verdict\": \"{verdict}\", \"final\": false}}",
                json_escape(engine.property_display(id)),
            )?;
        }
    }
    let mut stats = *session.stats();
    stats.properties = engine.len() as u64;
    stats.retired = (engine.len() - session.active_len()) as u64;
    writeln!(
        writer,
        "{{\"type\": \"summary\", \"stream\": {stream_idx}, \"ok\": {}, \"events\": {}, \
         \"violations\": {violations}, \"stats\": {}}}",
        violations == 0,
        stats.events,
        stats.render_json_object(session.backend().label(), violations),
    )
}

/// `emit_new_verdicts` of `lomon serve`.
fn emit_new_verdicts(
    session: &mut Session<'_>,
    voc: &Vocabulary,
    writer: &mut impl Write,
    stream_idx: u64,
    scratch: &mut Vec<u32>,
) -> io::Result<u64> {
    session.drain_newly_final_into(scratch);
    let mut violated = 0u64;
    for &id in scratch.iter() {
        let id = id as usize;
        let verdict = session.verdict(id);
        violated += u64::from(verdict == Verdict::Violated);
        let diagnostic = session
            .violation(id)
            .map(|v| format!(", \"diagnostic\": \"{}\"", json_escape(&v.display(voc))))
            .unwrap_or_default();
        writeln!(
            writer,
            "{{\"type\": \"verdict\", \"stream\": {stream_idx}, \"property\": \"{}\", \
             \"index\": {id}, \"verdict\": \"{verdict}\"{diagnostic}}}",
            json_escape(session.engine().property_display(id)),
        )?;
    }
    Ok(violated)
}

/// One traced and one untraced replay of [`REPLAY_ROUNDS`] rounds of
/// the stream pool, added to `replay`; the traced one's totals are also
/// added to `served`.
fn replay_rounds(
    replay: &mut Replay,
    streams: &[Stream],
    served: &mut ServedTotals,
) -> Result<(), String> {
    let mut traced = ServedTotals::default();
    let t0 = Instant::now();
    for _ in 0..REPLAY_ROUNDS {
        serve_replay(&mut replay.on, streams, &mut traced)?;
    }
    replay.traced_ns += t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    for _ in 0..REPLAY_ROUNDS {
        serve_replay(&mut Off, streams, &mut ServedTotals::default())?;
    }
    replay.untraced_ns += t0.elapsed().as_nanos() as u64;
    replay.counts.add(traced.counts);
    replay.compiles += REPLAY_ROUNDS as u64;
    served.counts.add(traced.counts);
    served.streams += traced.streams;
    served.reads += traced.reads;
    served.writes += traced.writes;
    Ok(())
}
