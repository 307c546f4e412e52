//! The `serve_churn` workload: `cloudalloc_server::serve` on loopback,
//! driven by one lockstep client over one connection, with the engine
//! configured as `cloudalloc serve` configures it by default.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use cloudalloc_core::SolverCtx;
use cloudalloc_model::{check_feasibility, evaluate, CloudSystem, Violation};
use cloudalloc_protocol::{decode_line, encode_line, ClientMessage, ModelOp, ServerMessage};
use cloudalloc_server::{serve, Engine, EngineConfig, ServeOptions, ServeSummary, WallClock};
use cloudalloc_workload::{generate, ScenarioConfig};

use crate::metrics::Report;
use crate::probe::{Probe, Totals, COUNTERS, PHASES};
use crate::script::{Kind, Script};
use crate::solve_wl::cli_solver;
use crate::stats::{self, tail_percentile};
use crate::{another_pass, another_setup, peak_rss_mib, timed, Run, Samples, Tail, MIN_PASSES};

/// Clients in the universe the server is started with.
pub const UNIVERSE_CLIENTS: usize = 20_000;

/// Scenario seed of the universe.
pub const UNIVERSE_SEED: u64 = 0;

/// Requests in one session; enough for the p99 over them to have ten
/// beyond it.
pub const SESSION_REQUESTS: usize = 1500;

/// Seed of the request script: every run replays the same churn.
pub const SCRIPT_SEED: u64 = 0;

/// How long the client waits for any one reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The latency limit `cloudalloc serve` enforces by default, in seconds.
const SLO_S: f64 = 0.050;

/// The universe: `ScenarioConfig::scale(20000)`.
pub fn universe() -> CloudSystem {
    generate(&ScenarioConfig::scale(UNIVERSE_CLIENTS), UNIVERSE_SEED)
}

/// The engine configuration `cloudalloc serve` builds by default — the
/// CLI solver, a 50 ms SLO, a fold every 16 mutations — with its `--seed`
/// (the fold seeds' base) set to `seed`.
pub fn cli_engine(seed: u64) -> EngineConfig {
    EngineConfig { solver: cli_solver(), seed, ..EngineConfig::default() }
}

/// What a finished `serve` loop hands back.
type Served = io::Result<(ServeSummary, Engine)>;

/// A queued `serve` loop: listener, engine, connections to accept, and
/// where to hand back the result.
type Job = (TcpListener, Engine, usize, mpsc::Sender<Served>);

/// The one thread every `serve` loop of a run runs on, as in a single
/// long-running server process: the engine's allocations land in the same
/// allocator arena session after session.
struct Host {
    jobs: mpsc::Sender<Job>,
    thread: JoinHandle<()>,
}

impl Host {
    fn new() -> Self {
        let (jobs, queue) = mpsc::channel::<Job>();
        let thread = thread::spawn(move || {
            for (listener, engine, connections, done) in queue {
                let options = ServeOptions { accept: Some(connections) };
                let _ = done.send(serve(listener, engine, Box::new(WallClock::new()), options));
            }
        });
        Self { jobs, thread }
    }

    /// Starts `serve` on a fresh engine seeded `seed`, accepting
    /// `connections`.
    fn start(&self, universe: CloudSystem, connections: usize, seed: u64) -> io::Result<Server> {
        let engine = Engine::new(universe, cli_engine(seed));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let (done, finished) = mpsc::channel();
        self.jobs
            .send((listener, engine, connections, done))
            .map_err(|_| io::Error::other("the server thread is gone"))?;
        Ok(Server { addr, finished })
    }

    /// Ends the thread once its last loop is done.
    fn stop(self) {
        drop(self.jobs);
        let _ = self.thread.join();
    }
}

/// A `serve` loop in progress on the [`Host`].
struct Server {
    addr: SocketAddr,
    finished: mpsc::Receiver<Served>,
}

impl Server {
    /// Waits for the loop to end (every connection closed).
    fn join(self) -> Served {
        self.finished.recv().map_err(|_| io::Error::other("the server thread panicked"))?
    }
}

/// One client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects and reads the server's `Welcome`.
    fn open(addr: SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut conn = Self { reader: BufReader::new(writer.try_clone()?), writer };
        match conn.read()? {
            ServerMessage::Welcome { .. } => Ok(conn),
            other => Err(io::Error::other(format!("expected Welcome, got {other:?}"))),
        }
    }

    fn read(&mut self) -> io::Result<ServerMessage> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "the server closed"));
        }
        decode_line(&line).map_err(|e| io::Error::other(e.to_string()))
    }

    /// Sends one request and reads its correlated reply (an `Error`
    /// reply counts as the answer).
    fn request(&mut self, msg: &ClientMessage) -> io::Result<ServerMessage> {
        let mut line = encode_line(msg);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        loop {
            let reply = self.read()?;
            if reply.req() == Some(msg.req()) || matches!(reply, ServerMessage::Error { .. }) {
                return Ok(reply);
            }
        }
    }

    /// Says `Bye` and closes the connection.
    fn close(mut self, req: u64) -> io::Result<()> {
        self.request(&ClientMessage::Bye { req }).map(drop)
    }
}

/// A second connection that subscribes to the op-log and records every
/// delta on a reader thread until the server closes it.
struct Subscriber {
    writer: TcpStream,
    thread: JoinHandle<Vec<String>>,
}

impl Subscriber {
    fn open(addr: SocketAddr) -> io::Result<Self> {
        let mut conn = Conn::open(addr)?;
        conn.request(&ClientMessage::Subscribe { req: 0 })?;
        let Conn { writer, mut reader } = conn;
        let thread = thread::spawn(move || {
            let mut deltas = Vec::new();
            let mut line = String::new();
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                if let Ok(delta @ ServerMessage::Delta { .. }) = decode_line(&line) {
                    deltas.push(encode_line(&delta));
                }
                line.clear();
            }
            deltas
        });
        Ok(Self { writer, thread })
    }

    /// Hangs up and returns the recorded op-log.
    fn close(self) -> io::Result<Vec<String>> {
        self.writer.shutdown(Shutdown::Write)?;
        self.thread.join().map_err(|_| io::Error::other("the subscriber thread panicked"))
    }
}

/// One setup: generate the universe, start the server, read `Welcome`.
/// Returns `(setup seconds, generate seconds)`.
fn setup_once(host: &Host) -> io::Result<(f64, f64)> {
    let start = Instant::now();
    let (universe, generate_s) = timed(universe);
    let server = host.start(universe, 1, 0)?;
    let conn = Conn::open(server.addr)?;
    let setup_s = start.elapsed().as_secs_f64();
    conn.close(0)?;
    server.join()?;
    Ok((setup_s, generate_s))
}

/// The response with its timing fields cleared, encoded: what must match
/// between the TCP session and the in-process replay.
fn decision(reply: &ServerMessage) -> String {
    let mut reply = reply.clone();
    match &mut reply {
        ServerMessage::Admitted { latency_us, slo_ok, .. }
        | ServerMessage::Rejected { latency_us, slo_ok, .. }
        | ServerMessage::Departed { latency_us, slo_ok, .. }
        | ServerMessage::Renegotiated { latency_us, slo_ok, .. }
        | ServerMessage::Ticked { latency_us, slo_ok, .. } => {
            *latency_us = 0;
            *slo_ok = true;
        }
        _ => {}
    }
    encode_line(&reply)
}

/// What one session produced.
#[derive(Default)]
struct Session {
    /// `(kind, seconds)` per completed request, send to reply.
    latencies: Vec<(Kind, f64)>,
    /// Every reply, timing fields cleared.
    decisions: Vec<String>,
    /// Op-log deltas the subscriber recorded (subscribed sessions only).
    deltas: Vec<String>,
    attempted: u64,
    failed: u64,
    /// The engine `serve` returned, when the session closed cleanly.
    engine: Option<Engine>,
    problems: Vec<String>,
}

/// Runs one scripted session against a fresh server. A subscribed
/// session also records the op-log on a second connection, so it can be
/// compared; the scripted connection itself never subscribes.
fn session(host: &Host, universe: &CloudSystem, seed: u64, subscribe: bool) -> Session {
    let mut s = Session::default();
    if let Err(e) = drive(host, universe, seed, subscribe, &mut s) {
        s.failed += 1;
        s.problems.push(e.to_string());
    }
    s
}

fn drive(
    host: &Host,
    universe: &CloudSystem,
    seed: u64,
    subscribe: bool,
    s: &mut Session,
) -> io::Result<()> {
    let server = host.start(universe.clone(), 1 + usize::from(subscribe), seed)?;
    let subscriber = if subscribe { Some(Subscriber::open(server.addr)?) } else { None };
    let mut conn = Conn::open(server.addr)?;
    let mut script = Script::new(universe, SCRIPT_SEED);
    for _ in 0..SESSION_REQUESTS {
        let msg = script.next_request();
        s.attempted += 1;
        let sent = Instant::now();
        let reply = conn
            .request(&msg)
            .map_err(|e| io::Error::other(format!("request {}: {e}", msg.req())))?;
        s.latencies.push((Kind::of(&msg), sent.elapsed().as_secs_f64()));
        if let ServerMessage::Error { message, .. } = &reply {
            s.failed += 1;
            s.problems.push(format!("request {}: error reply {message}", msg.req()));
        }
        script.observe(&reply);
        s.decisions.push(decision(&reply));
    }
    conn.close(SESSION_REQUESTS as u64 + 1)?;
    if let Some(subscriber) = subscriber {
        s.deltas = subscriber.close()?;
    }
    s.engine = Some(server.join()?.1);
    Ok(())
}

/// Audits a final engine: the allocation is feasible over the masked
/// population (declines tolerated) and the reported profit is the batch
/// score of that population bit for bit.
fn audit(engine: &Engine, report: &mut Report) {
    let population = engine.masked_population();
    let allocation = engine.allocation();
    let hard = check_feasibility(&population, &allocation)
        .into_iter()
        .filter(|v| !matches!(v, Violation::Unassigned { .. }))
        .count();
    if hard > 0 {
        report.problem(format!("the served allocation has {hard} hard violations"));
    }
    if evaluate(&population, &allocation).profit.to_bits() != engine.profit().to_bits() {
        report.problem("the engine's profit differs from evaluate on its population");
    }
}

/// Folds a session's accounting into the report; returns its engine.
fn absorb(s: &mut Session, report: &mut Report) -> Option<Engine> {
    report.attempted += s.attempted;
    report.failed += s.failed;
    for p in s.problems.drain(..) {
        report.problem(p);
    }
    let engine = s.engine.take();
    match &engine {
        Some(engine) => audit(engine, report),
        None => report.problem("the session did not return an engine"),
    }
    engine
}

fn setup_samples(host: &Host, report: &mut Report) -> (Vec<f64>, Vec<f64>) {
    let mut setup = Vec::new();
    let mut generate_s = Vec::new();
    let start = Instant::now();
    while another_setup(start, setup.len()) {
        match setup_once(host) {
            Ok((s, g)) => {
                setup.push(s);
                generate_s.push(g);
            }
            Err(e) => {
                report.problem(format!("setup failed: {e}"));
                break;
            }
        }
    }
    (setup, generate_s)
}

/// Joins the host after a clean run. A failed session can leave its loop
/// waiting on a connection that never closes; then the process exit ends
/// the thread instead of a join that would hang.
fn stop(host: Host, report: &Report) {
    if report.problems.is_empty() {
        host.stop();
    }
}

fn slo_misses(latencies: &[(Kind, f64)], failed: u64) -> u64 {
    latencies.iter().filter(|(_, s)| *s > SLO_S).count() as u64 + failed
}

/// The plain run: at least [`MIN_PASSES`] whole sessions, then more while
/// another fits in the time. Every session replays the same script on an
/// engine with the same seed, so each must end on the same profit, and
/// request `i` of every session is the same call.
pub fn run_plain(run: &Run, report: &mut Report) {
    let host = Host::new();
    let (setup, _) = setup_samples(&host, report);
    let universe = universe();
    let mut samples = Samples::new(SESSION_REQUESTS);
    let mut profit: Option<f64> = None;
    let mut sessions = 0;
    let mut misses = 0;
    let start = Instant::now();
    while report.problems.is_empty() && another_pass(start, sessions, run.seconds, MIN_PASSES) {
        sessions += 1;
        let mut s = session(&host, &universe, run.seed, false);
        if let Some(engine) = absorb(&mut s, report) {
            match profit {
                None => profit = Some(engine.profit()),
                Some(p) if p.to_bits() != engine.profit().to_bits() => {
                    report.problem("a repeated session ended on another profit")
                }
                Some(_) => {}
            }
        }
        misses += slo_misses(&s.latencies, s.failed);
        for (i, &(_, seconds)) in s.latencies.iter().enumerate() {
            samples.push(i, seconds);
        }
    }
    stop(host, report);
    samples.report(report);
    report.set("setup_s", stats::median(&setup));
    report.set("profit", profit.unwrap_or(0.0));
    report.set("peak_rss_mib", peak_rss_mib());
    println!(
        "# sessions {sessions} x {SESSION_REQUESTS} requests, tail {}, slo misses {misses} of {} \
         (ratio {:.4})",
        samples.tail().label(),
        report.attempted,
        stats::ratio(misses as f64, report.attempted as f64)
    );
}

/// The in-process replay of one session: the same script through
/// `Engine::handle`, timing each call and reading the program's spans
/// and counters around it (`totals` per fold request only).
#[derive(Default)]
struct Replay {
    decide: Vec<f64>,
    fold: Vec<f64>,
    query: Vec<f64>,
    by_kind: Vec<(Kind, f64)>,
    decisions: Vec<String>,
    deltas: Vec<String>,
    admits: u64,
    converged_folds: u64,
    totals: Totals,
    encode_s: f64,
    decode_s: f64,
    messages: u64,
    bytes: u64,
}

fn replay(universe: &CloudSystem, seed: u64) -> (Replay, Engine) {
    let config = cli_engine(seed);
    let max_rounds = config.solver.max_rounds;
    let mut engine = Engine::new(universe.clone(), config);
    let clock = WallClock::new();
    let mut r = Replay::default();
    // The logged TCP session subscribes first; so does the replay.
    engine.handle(&ClientMessage::Subscribe { req: 0 }, &clock);
    let mut script = Script::new(universe, SCRIPT_SEED);
    for _ in 0..SESSION_REQUESTS {
        let msg = script.next_request();
        let kind = Kind::of(&msg);
        Probe::reset();
        let (outcome, seconds) = timed(|| engine.handle(&msg, &clock));
        let probe = Probe::take();
        let folded = outcome.ops.iter().any(|(_, op)| matches!(op, ModelOp::Epoch { .. }));
        match kind {
            Kind::Query => r.query.push(seconds),
            _ if folded => r.fold.push(seconds),
            _ => r.decide.push(seconds),
        }
        r.by_kind.push((kind, seconds));
        if kind == Kind::Admit {
            r.admits += 1;
        }
        if folded {
            let rounds = probe.span_count("solve.round");
            r.totals.add("core.rounds", rounds as f64);
            r.converged_folds += u64::from(rounds < max_rounds as u64);
            r.totals.add("core.local_search_s", probe.span_s("solve.round"));
            r.totals.add("fold_s", seconds);
            r.totals.add_spans(&probe, PHASES);
            r.totals.add_counts(&probe, COUNTERS);
        }

        // The wire cost of this exchange, on the very same messages.
        let (request_line, encode_req) = timed(|| encode_line(&msg));
        let (reply_line, encode_reply) = timed(|| encode_line(&outcome.response));
        let (_, decode_req) = timed(|| decode_line::<ClientMessage>(&request_line));
        let (_, decode_reply) = timed(|| decode_line::<ServerMessage>(&reply_line));
        r.encode_s += encode_req + encode_reply;
        r.decode_s += decode_req + decode_reply;
        r.messages += 2;
        r.bytes += (request_line.len() + reply_line.len() + 2) as u64;

        script.observe(&outcome.response);
        r.decisions.push(decision(&outcome.response));
        r.deltas.extend(
            outcome.ops.into_iter().map(|(log, op)| encode_line(&ServerMessage::Delta { log, op })),
        );
    }
    (r, engine)
}

fn median_of(latencies: &[(Kind, f64)], kind: Option<Kind>) -> f64 {
    let times: Vec<f64> =
        latencies.iter().filter(|(k, _)| kind.is_none_or(|want| *k == want)).map(|p| p.1).collect();
    stats::median(&times)
}

/// The traced run: a TCP session as in the plain run, for client-side
/// latencies; a second one with a subscriber recording the op-log; then
/// the same script replayed in-process. All three must reach the same
/// decisions and final profit, and the replay the recorded op-log.
pub fn run_traced(run: &Run, report: &mut Report) {
    let host = Host::new();
    let (_, generate_s) = setup_samples(&host, report);
    let universe = universe();
    let mut tcp = session(&host, &universe, run.seed, false);
    let tcp_engine = absorb(&mut tcp, report);
    let mut logged = session(&host, &universe, run.seed, true);
    let logged_engine = absorb(&mut logged, report);
    stop(host, report);
    let (r, engine) = replay(&universe, run.seed);
    audit(&engine, report);
    if tcp.decisions != r.decisions || logged.decisions != r.decisions {
        report.problem("the in-process replay made other decisions than the TCP sessions");
    }
    if logged.deltas != r.deltas {
        report.problem("the in-process replay wrote another op-log than the TCP session");
    }
    let profit = Some(engine.profit().to_bits());
    if [tcp_engine, logged_engine]
        .iter()
        .any(|e| e.as_ref().map(|e| e.profit().to_bits()) != profit)
    {
        report.problem("the in-process replay ended on another profit than the TCP sessions");
    }

    let folds = r.fold.len() as f64;
    let engine_stats = engine.stats();
    let tcp_times: Vec<f64> = tcp.latencies.iter().map(|&(_, s)| s).collect();
    report.set("run.calls", tcp_times.len() as f64);
    report.set("trace.p50_ms", stats::median(&tcp_times) * 1e3);
    report.set("workload.generate_s", stats::median(&generate_s));

    // The per-request lowering and batch score the engine pays, measured
    // on the final served population.
    let population = engine.masked_population();
    let allocation = engine.allocation();
    let solver = cli_solver();
    let lower: Vec<f64> =
        (0..SAMPLES).map(|_| timed(|| SolverCtx::new(&population, &solver)).1).collect();
    let eval: Vec<f64> =
        (0..SAMPLES).map(|_| timed(|| evaluate(&population, &allocation)).1).collect();
    report.set("model.lower_s", stats::median(&lower));
    report.set("model.evaluate_s", stats::median(&eval));
    report.set("core.greedy_s", 0.0);
    let tried = r.totals.get("core.reassign.tried");
    report
        .set("core.reassign.accept_ratio", stats::ratio(r.totals.get("reassign.accepted"), tried));
    report.set("core.reassign.stale_ratio", stats::ratio(r.totals.get("reassign.stale"), tried));
    report.set("core.converged_share", stats::ratio(r.converged_folds as f64, folds));
    report.set("core.served_share", stats::ratio(engine.members().len() as f64, r.admits as f64));
    let active = evaluate(&population, &allocation).active_servers;
    report.set("core.active_servers", active as f64);
    report.set(
        "core.coverage",
        stats::ratio(r.totals.get("core.local_search_s"), r.totals.get("fold_s")),
    );
    report.set_per_call(&r.totals, folds, &["core."]);

    let decide_tail = tail_percentile(r.decide.len());
    let tail = decide_tail.map_or(Tail::Max, Tail::Percentile);
    report.set("server.decide_p50_ms", stats::median(&r.decide) * 1e3);
    report.set("server.decide_tail_ms", tail.of(&r.decide) * 1e3);
    report.set("server.decide_tail_pct", f64::from(decide_tail.unwrap_or(100)));
    report.set("server.fold_p50_ms", stats::median(&r.fold) * 1e3);
    report.set("server.fold_max_ms", stats::max(&r.fold) * 1e3);
    report.set("server.query_p50_ms", stats::median(&r.query) * 1e3);
    report.set(
        "server.admit_accept_ratio",
        stats::ratio(engine_stats.admitted as f64, r.admits as f64),
    );
    report.set("server.folds", engine_stats.folds as f64);
    report.set("server.shed", engine_stats.shed as f64);
    let misses = slo_misses(&tcp.latencies, tcp.failed);
    report.set("server.slo_miss_ratio", stats::ratio(misses as f64, tcp.attempted as f64));

    let messages = r.messages as f64;
    report.set("protocol.encode_us", stats::ratio(r.encode_s, messages) * 1e6);
    report.set("protocol.decode_us", stats::ratio(r.decode_s, messages) * 1e6);
    report.set("protocol.bytes_per_request", stats::ratio(r.bytes as f64, messages / 2.0));

    report.set(
        "net.overhead_ms",
        (median_of(&tcp.latencies, None) - median_of(&r.by_kind, None)) * 1e3,
    );
    for (kind, name) in [
        (Kind::Admit, "net.overhead.admit_ms"),
        (Kind::Depart, "net.overhead.depart_ms"),
        (Kind::Renegotiate, "net.overhead.renegotiate_ms"),
        (Kind::Query, "net.overhead.query_ms"),
    ] {
        let overhead = median_of(&tcp.latencies, Some(kind)) - median_of(&r.by_kind, Some(kind));
        report.set(name, overhead * 1e3);
    }
    println!(
        "# traced sessions: {} requests, {} folds, {} deltas, replay matches: {}",
        tcp.attempted,
        engine_stats.folds,
        r.deltas.len(),
        report.problems.is_empty()
    );
}

/// Repetitions of the side measurements on the final population.
const SAMPLES: usize = 9;
