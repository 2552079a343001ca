//! `serve_mixed`: an in-process `caqr-serve` driven open-loop from a
//! seeded arrival schedule over two keep-alive connections, at three
//! fixed rates, with four request classes.
//!
//! The driver is the benchmark's own: each request is timed from the
//! moment it was due (so a busy connection charges the wait to the
//! request queued behind it), a request that cannot be sent within
//! `SEND_SLACK` of its due time is not sent and counts as missing the
//! latency limit, and the generator's own lateness is reported. Every
//! response is compared with the bytes the in-process handlers produce
//! for the same body.
//!
//! The gated figures come from that in-process replay of the `nominal`
//! phase, timed on one thread and scaled to the nominal host pace (see
//! `pace`). The HTTP figures are reported beside them but not gated: on
//! the 2-vCPU reference host they moved up to 2x between runs minutes
//! apart, with every exchange waiting on thread wake-ups across virtual
//! CPUs, while the pace reference stayed put.

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use caqr_benchmarks::qaoa::{maxcut_template, qaoa_benchmark, GraphKind};
use caqr_benchmarks::{bv, extra, revlib};
use caqr_serve::client::Client;
use caqr_serve::handlers::{self, AppState};
use caqr_serve::http::Request;
use caqr_serve::{Backend, Server, ServerConfig};
use caqr_wire::circuit::{circuit_to_value, parametric_to_value};
use caqr_wire::Value;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::pace::{self, Pace};
use crate::trace::Tracer;
use crate::{stats, Args, Outcome, THREADS};

/// The request classes, in share order.
pub const CLASSES: [&str; 4] = ["compile-hot", "compile-cold", "bind-run", "compile-stream"];

/// Share of arrivals per class. The cache path (`compile-hot`) is kept
/// to 30%, where the existing loadgen mix served 95% of requests from
/// the response cache; `compile-cold` and `bind-run` then carry most of
/// the server's time (engine and core, and the simulator, about equally:
/// their handlers take 0.6-0.7 ms each against 3.5 us for a hot hit), and
/// `compile-stream` (0.5 ms, with the largest bodies) stays at 10%.
const SHARES: [f64; 4] = [0.30, 0.30, 0.30, 0.10];

/// Offered arrival rates (requests/s) of the three phases, and each
/// phase's share of the run. With this mix and `SEND_SLACK` the server
/// sent about 2,800 req/s over the two connections when offered 6,000
/// (2-vCPU host): `nominal` is well below that and `heavy` twice above
/// it, so goodput at `heavy` measures the server's capacity rather than
/// the offered rate. `nominal` gets over half the run: its latency
/// percentiles are the end-to-end ones.
const RATES: [(&str, f64); 3] = [("light", 100.0), ("nominal", 400.0), ("heavy", 6000.0)];
const PHASE_SHARE: [f64; 3] = [0.2, 0.55, 0.25];

/// Latency limit, measured from each request's due time.
const LIMIT_MS: f64 = 25.0;

/// A request whose connection frees up later than this after its due
/// time is not sent: it counts as missing the limit (never as a failure)
/// and is reported in `driver.unsent_ratio.<phase>`. Above the server's
/// capacity this sheds the excess instead of queueing it without bound,
/// so goodput at `heavy` tracks what the server can do.
const SEND_SLACK: Duration = Duration::from_millis(5);

/// Chunk size of the chunked streaming-compile bodies.
const STREAM_CHUNK: usize = 4096;

/// Spans of due time a phase's latencies are split into; the reported
/// percentiles are medians over the windows.
const WINDOWS: usize = 3;

/// Requests replayed between two host pace readings in the timed
/// replay: about 50 ms of handler work.
const PACE_EVERY: usize = 100;

/// Cold compile responses whose qubit counts enter `qubits_total`.
const COLD_QUBIT_SAMPLE: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hot,
    Cold,
    Bind,
    Stream,
}

impl Class {
    const ALL: [Class; 4] = [Class::Hot, Class::Cold, Class::Bind, Class::Stream];

    fn index(self) -> usize {
        self as usize
    }

    fn path(self) -> &'static str {
        match self {
            Class::Hot | Class::Cold => "/v1/compile",
            Class::Bind => "/v1/bind-run",
            Class::Stream => "/v1/compile-stream",
        }
    }
}

/// One scheduled request.
struct Arrival {
    at: Duration,
    class: Class,
    body: usize,
}

/// The request bodies and the three phase schedules. Hot and stream
/// bodies are built once; cold and bind-run bodies are a pure function
/// of their index, built when they are sent and again when checked, so
/// memory does not grow with the offered rate.
struct Workload {
    seed: u64,
    hot: Vec<Vec<u8>>,
    template: String,
    /// `(gamma, mixer)` of each bind-run arrival, by body index.
    angles: Vec<(f64, f64)>,
    stream: Vec<u8>,
    phases: Vec<Vec<Arrival>>,
    phase_len: [Duration; 3],
    warm: Vec<(Class, Vec<u8>)>,
}

impl Workload {
    fn body(&self, class: Class, i: usize) -> Cow<'_, [u8]> {
        match class {
            Class::Hot => Cow::Borrowed(&self.hot[i]),
            Class::Cold => Cow::Owned(cold_body(self.seed, i as u64)),
            Class::Bind => {
                let (gamma, mixer) = self.angles[i];
                Cow::Owned(bind_body(&self.template, gamma, mixer, self.seed))
            }
            Class::Stream => Cow::Borrowed(&self.stream),
        }
    }
}

fn compile_body(circuit: &caqr_circuit::Circuit, strategy: &str, seed: u64, name: &str) -> Vec<u8> {
    format!(
        r#"{{"circuit":{},"strategy":"{strategy}","seed":{seed},"name":"{name}"}}"#,
        circuit_to_value(circuit).encode()
    )
    .into_bytes()
}

/// A unique small circuit: misses both the response and compile caches.
fn cold_body(seed: u64, i: u64) -> Vec<u8> {
    let c = extra::mirror(5, 4, seed.wrapping_mul(1_000_003).wrapping_add(i));
    compile_body(&c.circuit, "sr", seed, "cold")
}

fn bind_body(template: &str, gamma: f64, mixer: f64, seed: u64) -> Vec<u8> {
    format!(
        r#"{{"template":{template},"values":[{gamma},{mixer}],"shots":256,"seed":{seed},"noise":"device","name":"qaoa-bind"}}"#
    )
    .into_bytes()
}

fn workload(seed: u64, seconds: Duration) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5E7E_5E7E);
    let phase_len = PHASE_SHARE.map(|share| seconds.mul_f64(share));

    // Arrival schedules first: they fix how many unique bodies exist.
    let mut counts = [0usize; 4];
    let mut phases = Vec::new();
    for (p, (_, rate)) in RATES.into_iter().enumerate() {
        let mut t = 0.0f64;
        let mut arrivals = Vec::new();
        loop {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / rate;
            if t >= phase_len[p].as_secs_f64() {
                break;
            }
            let pick: f64 = rng.gen_range(0.0..1.0);
            let mut acc = 0.0;
            let class = Class::ALL
                .into_iter()
                .find(|c| {
                    acc += SHARES[c.index()];
                    pick < acc
                })
                .unwrap_or(Class::Stream);
            let body = match class {
                Class::Hot => rng.gen_range(0..HOT.len() * HOT_STRATEGIES.len()),
                Class::Stream => 0,
                Class::Cold | Class::Bind => counts[class.index()],
            };
            counts[class.index()] += 1;
            arrivals.push(Arrival {
                at: Duration::from_secs_f64(t),
                class,
                body,
            });
        }
        phases.push(arrivals);
    }

    let mut hot = Vec::new();
    for make in HOT {
        let bench = make();
        for strategy in HOT_STRATEGIES {
            hot.push(compile_body(&bench.circuit, strategy, seed, &bench.name));
        }
    }
    let graph = qaoa_benchmark(5, 0.5, GraphKind::Random, seed)
        .graph
        .expect("QAOA benchmarks carry their graph");
    let template = parametric_to_value(&maxcut_template(&graph, 1)).encode();
    let angles: Vec<(f64, f64)> = (0..counts[Class::Bind.index()])
        .map(|_| (rng.gen_range(0.05..3.0), rng.gen_range(0.05..3.0)))
        .collect();
    let spec = caqr_benchmarks::stream::StreamSpec {
        blocks: 2,
        block_qubits: 12,
        depth: 8,
        seed,
    };
    let stream = spec.text().into_bytes();

    // Warm-up traffic: every hot body, a bind-run (compiles the template),
    // a stream, and cold circuits outside the measured set.
    let mut warm: Vec<(Class, Vec<u8>)> = hot.iter().map(|b| (Class::Hot, b.clone())).collect();
    warm.push((Class::Bind, bind_body(&template, 0.7, 0.6, seed)));
    warm.push((Class::Stream, stream.clone()));
    for i in 0..3 {
        warm.push((Class::Cold, cold_body(seed, u64::MAX - i)));
    }
    Workload {
        seed,
        hot,
        template,
        angles,
        stream,
        phases,
        phase_len,
        warm,
    }
}

type BenchFn = fn() -> caqr_benchmarks::Benchmark;
const HOT: [BenchFn; 4] = [revlib::xor_5, revlib::four_mod5, revlib::rd32, || {
    bv::bv_all_ones(5)
}];
const HOT_STRATEGIES: [&str; 3] = ["sr", "baseline", "qs-max"];

fn config() -> ServerConfig {
    ServerConfig {
        backend: Backend::Reactor,
        shards: 1,
        workers: THREADS,
        drain_grace: Duration::from_millis(50),
        ..ServerConfig::default()
    }
}

fn send(client: &mut Client, class: Class, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let r = match class {
        Class::Stream => client.post_chunked(class.path(), body, STREAM_CHUNK)?,
        _ => client.post(class.path(), body)?,
    };
    Ok((r.status, r.body))
}

fn request(class: Class, body: &[u8]) -> Request {
    Request {
        method: "POST".into(),
        path: class.path().into(),
        headers: Vec::new(),
        body: body.to_vec(),
    }
}

fn digest(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// A running server, the driver's connections, and a reference state
/// warmed identically.
struct Bench {
    server: Server,
    reference: AppState,
    clients: Vec<Client>,
}

fn start(w: &Workload) -> std::io::Result<Bench> {
    let cfg = config();
    let reference = AppState::with_capacities(
        cfg.cache_capacity,
        cfg.response_cache_capacity,
        cfg.request_limits.clone(),
    );
    let server = Server::bind(cfg)?;
    let addr = server.local_addr();
    let mut bench = Bench {
        server,
        reference,
        clients: (0..THREADS).map(|_| Client::connect(addr)).collect(),
    };
    match warm_up(&mut bench, w) {
        Ok(()) => Ok(bench),
        Err(e) => {
            stop(bench);
            Err(e)
        }
    }
}

fn warm_up(bench: &mut Bench, w: &Workload) -> std::io::Result<()> {
    for (class, body) in &w.warm {
        let (status, _) = send(&mut bench.clients[0], *class, body)?;
        if status != 200 {
            return Err(std::io::Error::other(format!(
                "warm-up {} answered {status}",
                class.path()
            )));
        }
        handlers::handle(&bench.reference, &request(*class, body));
    }
    for c in &mut bench.clients {
        c.get("/healthz")?;
    }
    Ok(())
}

fn stop(bench: Bench) {
    let handle = bench.server.shutdown_handle();
    drop(bench.clients);
    handle.shutdown();
    bench.server.join();
}

/// One completed exchange.
struct Rec {
    idx: usize,
    sent: Instant,
    done: Instant,
    status: u16,
    hash: u64,
    len: usize,
}

struct Phase {
    start: Instant,
    recs: Vec<Rec>,
    unsent: usize,
    before: Option<Value>,
    after: Option<Value>,
}

/// A `/metrics` snapshot, read over the driver's first connection
/// between phases.
fn metrics(client: &mut Client) -> Option<Value> {
    let r = client.get("/metrics").ok()?;
    caqr_wire::parse(std::str::from_utf8(&r.body).ok()?).ok()
}

fn run_phase(bench: &mut Bench, w: &Workload, p: usize) -> Phase {
    let arrivals = &w.phases[p];
    let next = AtomicUsize::new(0);
    let before = metrics(&mut bench.clients[0]);
    let start = Instant::now() + Duration::from_millis(5);
    let per_client: Vec<(Vec<Rec>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = bench
            .clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut recs = Vec::new();
                    let mut unsent = 0;
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(a) = arrivals.get(idx) else { break };
                        let due = start + a.at;
                        if Instant::now() > due + SEND_SLACK {
                            unsent += 1;
                            continue;
                        }
                        let body = w.body(a.class, a.body);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let (status, bytes) =
                            send(client, a.class, &body).unwrap_or((0, Vec::new()));
                        let done = Instant::now();
                        recs.push(Rec {
                            idx,
                            sent,
                            done,
                            status,
                            hash: digest(&bytes),
                            len: bytes.len(),
                        });
                    }
                    (recs, unsent)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let unsent = per_client.iter().map(|(_, u)| u).sum();
    let mut recs: Vec<Rec> = per_client.into_iter().flat_map(|(r, _)| r).collect();
    recs.sort_by_key(|r| r.sent);
    Phase {
        start,
        recs,
        unsent,
        before,
        after: metrics(&mut bench.clients[0]),
    }
}

/// Per-phase results after checking.
#[derive(Default)]
struct Summary {
    latency: Vec<f64>,
    /// Latencies split into `WINDOWS` equal spans of due time.
    windows: Vec<Vec<f64>>,
    by_class: [Vec<f64>; 4],
    exchange: [Vec<f64>; 4],
    handler: [Vec<f64>; 4],
    lateness: Vec<f64>,
    good: usize,
    failed: usize,
    parse_us: Vec<f64>,
    bytes_in: Vec<f64>,
    bytes_out: Vec<f64>,
    cold_qubits: Vec<f64>,
    hot_qubits: std::collections::BTreeMap<usize, f64>,
    /// The timed replay, when the phase had one.
    chunks: Vec<Chunk>,
}

/// What the in-process handlers answer for one sent request, and how
/// long they and `caqr_wire::parse` took.
struct Expected {
    status: u16,
    len: usize,
    hash: u64,
    body_len: usize,
    handler_ms: f64,
    parse_us: f64,
    qubits: Option<f64>,
}

/// Replays one sent request through the in-process handlers, timing
/// them and `caqr_wire::parse` of their answer.
fn replay(bench: &Bench, w: &Workload, p: usize, r: &Rec) -> Expected {
    let a = &w.phases[p][r.idx];
    let body = w.body(a.class, a.body);
    let t0 = Instant::now();
    let expect = handlers::handle(&bench.reference, &request(a.class, &body));
    let handler_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let parsed = std::str::from_utf8(&expect.body)
        .ok()
        .and_then(|t| caqr_wire::parse(t).ok());
    let parse_us = t1.elapsed().as_secs_f64() * 1e6;
    Expected {
        status: expect.status,
        len: expect.body.len(),
        hash: digest(&expect.body),
        body_len: body.len(),
        handler_ms,
        parse_us,
        qubits: parsed
            .as_ref()
            .and_then(|v| v.get("qubits"))
            .and_then(Value::as_f64),
    }
}

/// A stretch of the timed replay between two host pace readings.
struct Chunk {
    /// Handler times, in milliseconds.
    handler_ms: Vec<f64>,
    /// The mean of the readings taken just before and just after.
    pace: Duration,
}

/// Replays every sent request of a phase through the in-process
/// handlers, after the phase. With `host`, the replay runs on this
/// thread and is cut into chunks between host pace readings; otherwise
/// it is split over `THREADS` threads.
fn expected(
    bench: &Bench,
    w: &Workload,
    p: usize,
    recs: &[Rec],
    host: Option<&Pace>,
) -> (Vec<Expected>, Vec<Chunk>) {
    if let Some(host) = host {
        let mut before = host.reading(3);
        let mut all = Vec::with_capacity(recs.len());
        let mut chunks = Vec::new();
        // Chunks of equal size, about `PACE_EVERY` each.
        let size = recs.len().div_ceil(recs.len().div_ceil(PACE_EVERY).max(1));
        for part in recs.chunks(size.max(1)) {
            let first = all.len();
            all.extend(part.iter().map(|r| replay(bench, w, p, r)));
            let after = host.reading(3);
            chunks.push(Chunk {
                handler_ms: all[first..]
                    .iter()
                    .map(|e: &Expected| e.handler_ms)
                    .collect(),
                pace: (before + after) / 2,
            });
            before = after;
        }
        return (all, chunks);
    }
    let part = recs.len().div_ceil(THREADS).max(1);
    let all = std::thread::scope(|scope| {
        let handles: Vec<_> = recs
            .chunks(part)
            .map(|chunk| {
                scope.spawn(|| {
                    chunk
                        .iter()
                        .map(|r| replay(bench, w, p, r))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    (all, Vec::new())
}

/// Checks every response of a phase against the in-process handlers and
/// summarizes it.
fn summarize(
    bench: &Bench,
    w: &Workload,
    p: usize,
    phase: &Phase,
    host: Option<&Pace>,
    out: &mut Outcome,
) -> Summary {
    let arrivals = &w.phases[p];
    let (expected, chunks) = expected(bench, w, p, &phase.recs, host);
    let mut s = Summary {
        windows: vec![Vec::new(); WINDOWS],
        chunks,
        ..Summary::default()
    };
    for (r, e) in phase.recs.iter().zip(expected) {
        let a = &arrivals[r.idx];
        let due = phase.start + a.at;
        let latency = (r.done - due).as_secs_f64() * 1e3;
        let ok = r.status == 200 && e.status == 200 && r.len == e.len && r.hash == e.hash;
        if ok {
            out.tally(true);
        } else {
            s.failed += 1;
            out.fail(format!(
                "{} {} #{}: status {} ({} bytes) vs in-process {} ({} bytes)",
                RATES[p].0,
                CLASSES[a.class.index()],
                r.idx,
                r.status,
                r.len,
                e.status,
                e.len
            ));
        }
        if ok && latency <= LIMIT_MS {
            s.good += 1;
        }
        s.latency.push(latency);
        let window = (a.at.as_secs_f64() / w.phase_len[p].as_secs_f64() * WINDOWS as f64) as usize;
        s.windows[window.min(WINDOWS - 1)].push(latency);
        s.by_class[a.class.index()].push(latency);
        s.exchange[a.class.index()].push((r.done - r.sent).as_secs_f64() * 1e3);
        s.handler[a.class.index()].push(e.handler_ms);
        s.lateness
            .push(r.sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        s.bytes_in.push(e.body_len as f64);
        s.bytes_out.push(r.len as f64);
        s.parse_us.push(e.parse_us);
        match (a.class, e.qubits) {
            (Class::Hot, Some(q)) => {
                s.hot_qubits.insert(a.body, q);
            }
            (Class::Cold, Some(q)) if s.cold_qubits.len() < COLD_QUBIT_SAMPLE => {
                s.cold_qubits.push(q)
            }
            _ => {}
        }
    }
    s
}

/// A numeric field at `path` of a `/metrics` snapshot.
fn field(v: &Option<Value>, path: &[&str]) -> f64 {
    let mut cur = v.as_ref();
    for key in path {
        cur = cur.and_then(|c| c.get(key));
    }
    cur.and_then(Value::as_f64).unwrap_or(0.0)
}

fn delta(phase: &Phase, path: &[&str]) -> f64 {
    field(&phase.after, path) - field(&phase.before, path)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        op_unit: "request (in-process handler replay)",
        tail_p: 99.0,
        ..Outcome::default()
    };
    let mut bench = None;
    let mut w = None;
    let host = Pace::new();
    while crate::more_setups(&out.setup_s) {
        if let Some(b) = bench.take() {
            stop(b);
        }
        let t0 = Instant::now();
        let work = workload(args.seed, args.seconds);
        match start(&work) {
            Ok(b) => bench = Some(b),
            Err(e) => {
                out.fail(format!("server setup failed: {e}"));
                return out;
            }
        }
        out.setup_s.push(host.seconds_since(t0));
        w = Some(work);
    }
    let (mut bench, w) = (bench.expect("setup ran"), w.expect("setup ran"));

    let phases: Vec<Phase> = (0..RATES.len())
        .map(|p| run_phase(&mut bench, &w, p))
        .collect();
    out.peak_rss_mb = Some(crate::peak_rss_mb());
    let summaries: Vec<Summary> = phases
        .iter()
        .enumerate()
        .map(|(p, phase)| summarize(&bench, &w, p, phase, (p == 1).then_some(&host), &mut out))
        .collect();
    out.repetitions = phases.len();

    let nominal = &summaries[1];
    let heavy = &summaries[2];
    let heavy_s = w.phase_len[2].as_secs_f64();
    // The gated figures, from the timed replay of `nominal` scaled to the
    // nominal host pace: the median over chunks of requests per second of
    // handler time, and the handler times of all chunks pooled (a chunk
    // of ~100 requests is too small a sample of the class mix for its own
    // p50).
    out.ops_per_s = nominal
        .chunks
        .iter()
        .map(|c| {
            let busy_s = c.handler_ms.iter().sum::<f64>() / 1e3;
            pace::rate_at_nominal(c.handler_ms.len() as f64 / busy_s, c.pace)
        })
        .collect();
    out.latency_ms = vec![nominal
        .chunks
        .iter()
        .flat_map(|c| {
            c.handler_ms
                .iter()
                .map(|&ms| pace::time_at_nominal(ms, c.pace))
        })
        .collect()];
    out.qubits_total =
        nominal.hot_qubits.values().sum::<f64>() + nominal.cold_qubits.iter().sum::<f64>();
    let windowed = |p: f64| {
        let per: Vec<f64> = nominal
            .windows
            .iter()
            .map(|w| stats::percentile(w, p))
            .collect();
        stats::median(&per)
    };
    out.named("http_p50_ms", windowed(50.0));
    out.named(
        "http_p99_ms",
        windowed(stats::tail_percentile(
            nominal.windows.iter().map(Vec::len).min().unwrap_or(0),
            99.0,
        )),
    );
    out.named("http_goodput_rps", heavy.good as f64 / heavy_s);
    // A rate passes when 99% of its arrivals, unsent ones included, got
    // a correct answer within the limit.
    let passing = RATES
        .iter()
        .zip(&summaries)
        .zip(&phases)
        .filter(|((_, s), phase)| {
            s.failed == 0 && s.good as f64 >= 0.99 * (phase.recs.len() + phase.unsent) as f64
        })
        .map(|(((_, rate), _), _)| *rate)
        .fold(0.0, f64::max);
    out.named("http_highest_passing_rps", passing);
    let per_window = |p: f64| {
        nominal
            .windows
            .iter()
            .map(|w| format!("{:.3}", stats::percentile(w, p)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.notes.push(format!(
        "nominal windows: p50 [{}] ms, p75 [{}] ms, p90 [{}] ms, p99 [{}] ms",
        per_window(50.0),
        per_window(75.0),
        per_window(90.0),
        per_window(99.0)
    ));
    for (p, s) in summaries.iter().enumerate() {
        out.notes.push(format!(
            "{} {} rps: {} sent, {} unsent, p50 {:.3} ms, p99 {:.3} ms, {} within {LIMIT_MS} ms",
            RATES[p].0,
            RATES[p].1,
            s.latency.len(),
            phases[p].unsent,
            stats::percentile(&s.latency, 50.0),
            stats::percentile(&s.latency, 99.0),
            s.good
        ));
    }

    if args.trace {
        layers(&phases, &summaries, &w, &mut out);
        // Spans are rebuilt from the records after the run, so a traced
        // run sends exactly what an untraced one does and
        // `tracing_overhead` stays 0 here.
        let tracer = Tracer::new(true);
        for (p, phase) in phases.iter().enumerate() {
            for r in &phase.recs {
                let a = &w.phases[p][r.idx];
                let due = phase.start + a.at;
                let root = tracer.reserve();
                tracer.record(Some(root), "driver.wait", "wait", due, r.sent.max(due));
                tracer.record(
                    Some(root),
                    "http.exchange",
                    CLASSES[a.class.index()],
                    r.sent,
                    r.done,
                );
                tracer.record_as(root, None, "client", RATES[p].0, due, r.done);
            }
        }
        let sent = phases.iter().map(|p| p.recs.len()).sum();
        out.attribute(tracer.take(), tracer.epoch(), sent);
    }
    stop(bench);
    out
}

fn layers(phases: &[Phase], summaries: &[Summary], w: &Workload, out: &mut Outcome) {
    for (p, phase) in phases.iter().enumerate() {
        out.layer(
            format!("driver.unsent_ratio.{}", RATES[p].0),
            ratio(phase.unsent as f64, w.phases[p].len() as f64),
        );
    }
    out.layer(
        "driver.sent_rps.heavy",
        phases[2].recs.len() as f64 / w.phase_len[2].as_secs_f64(),
    );
    let (phase, s) = (&phases[1], &summaries[1]);
    for (i, class) in CLASSES.iter().enumerate() {
        let handler = stats::median(&s.handler[i]);
        out.layer(format!("handlers.execute_ms.{class}"), handler);
        out.layer(
            format!("http.p50_ms.{class}"),
            stats::percentile(&s.by_class[i], 50.0),
        );
        out.layer(
            format!("http.p99_ms.{class}"),
            stats::percentile(
                &s.by_class[i],
                stats::tail_percentile(s.by_class[i].len(), 99.0),
            ),
        );
        out.layer(
            format!("transport_ms.{class}"),
            stats::median(&s.exchange[i]) - handler,
        );
    }
    out.layer("wire.parse_us", stats::median(&s.parse_us));
    out.layer("wire.bytes_in", stats::mean(&s.bytes_in));
    out.layer("wire.bytes_out", stats::mean(&s.bytes_out));
    let reqs = delta(phase, &["server", "requests_total"]);
    out.layer(
        "respcache.hit_ratio",
        ratio(
            delta(phase, &["server", "response_cache_hits"]),
            delta(phase, &["server", "response_cache_hits"])
                + delta(phase, &["server", "response_cache_misses"]),
        ),
    );
    out.layer(
        "reactor.poll_cycles_per_req",
        ratio(delta(phase, &["reactor", "poll_cycles"]), reqs),
    );
    out.layer(
        "reactor.wakeups_per_req",
        ratio(delta(phase, &["reactor", "wakeups"]), reqs),
    );
    out.layer(
        "reactor.dispatch_queue_depth",
        field(&phases[2].after, &["reactor", "dispatch_queue_depth"]),
    );
    let total = |path: &[&str]| phases.iter().map(|p| delta(p, path)).sum::<f64>();
    out.layer("serve.4xx", total(&["server", "responses_4xx"]));
    out.layer("serve.5xx", total(&["server", "responses_5xx"]));
    out.layer("serve.429", total(&["server", "rejected_429"]));
    out.layer("serve.504", total(&["server", "deadline_504"]));
    let jobs = delta(phase, &["engine", "jobs_total"]);
    out.layer(
        "engine.queue_wait_ms",
        ratio(delta(phase, &["engine", "queue_wait_us"]), jobs) / 1e3,
    );
    let hits = delta(phase, &["engine", "cache_hits"]);
    out.layer(
        "engine.cache_hit_ratio",
        ratio(hits, hits + delta(phase, &["engine", "cache_misses"])),
    );
    let t_hits = delta(phase, &["engine", "template_cache_hits"]);
    out.layer(
        "engine.template_cache_hit_ratio",
        ratio(
            t_hits,
            t_hits + delta(phase, &["engine", "template_cache_misses"]),
        ),
    );
    out.layer(
        "engine.bind_us",
        ratio(
            delta(phase, &["engine", "bind_us"]),
            delta(phase, &["engine", "binds_total"]),
        ),
    );
    for p in caqr::REGISTERED_PASSES {
        out.layer(
            format!("core.pass.{p}_ms"),
            delta(phase, &["engine", "pass_us", p]) / 1e3,
        );
    }
    out.layer("core.reuse_pairs", delta(phase, &["engine", "reuse_pairs"]));
    out.layer("router.swaps", delta(phase, &["engine", "swaps_inserted"]));
    for d in ["wide", "scalar", "sparse", "tableau"] {
        out.layer(
            format!("sim.dispatch.{d}"),
            delta(phase, &["server", "sim", &format!("dispatch_{d}")]),
        );
    }
    out.layer(
        "sim.stabilizer_prefix_gates",
        delta(phase, &["server", "sim", "stabilizer_prefix_gates"]),
    );
    out.layer(
        "sim.tableau_to_dense_us",
        delta(phase, &["server", "sim", "tableau_to_dense_us"]),
    );
    out.layer(
        "driver.lateness_ms.p50",
        stats::percentile(&s.lateness, 50.0),
    );
    out.layer(
        "driver.lateness_ms.p99",
        stats::percentile(&s.lateness, stats::tail_percentile(s.lateness.len(), 99.0)),
    );
}
