//! `stream_million`: the 1,016,000-gate `StreamSpec` program streamed
//! block by block through `caqr-stream`. The source is generated one
//! block at a time and never held whole; generator time is its own span
//! and is excluded from throughput, as is the host pace reading taken
//! every `PACE_EVERY` blocks.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use caqr::CancelToken;
use caqr_benchmarks::stream::StreamSpec;
use caqr_circuit::qasm::from_qasm;
use caqr_circuit::{Circuit, Fingerprint};
use caqr_engine::Engine;
use caqr_stream::{
    schedule_circuit, ChunkSink, NullSink, StreamOptions, StreamReport, StreamSession,
};

use crate::pace::{self, Pace};
use crate::trace::Tracer;
use crate::{stats, Args, Outcome};

/// Blocks fed between two host pace samples: 20 samples per pass, about
/// 1% of its time.
const PACE_EVERY: usize = 40;

/// Sink calls recorded in a traced pass, drained by `run_pass` after
/// each feed so they nest under that feed's span.
type SinkCalls = Rc<RefCell<Vec<(Instant, Instant)>>>;

/// A sink that keeps nothing but a gate count; in a traced pass it
/// times each call.
struct TimedSink {
    calls: Option<SinkCalls>,
    gates: u64,
}

impl ChunkSink for TimedSink {
    fn accept(&mut self, chunk: &Circuit) {
        let t0 = self.calls.is_some().then(Instant::now);
        self.gates += std::hint::black_box(chunk.len()) as u64;
        if let (Some(t0), Some(calls)) = (t0, &self.calls) {
            calls.borrow_mut().push((t0, Instant::now()));
        }
    }
}

struct Pass {
    /// Wall time minus generator and pace time.
    compile: Duration,
    generator: Duration,
    /// Median of the pass's host pace samples.
    pace: Duration,
    feeds: Vec<f64>,
    report: StreamReport,
    sunk: u64,
}

impl Pass {
    /// Gates per second.
    fn raw_rate(&self) -> f64 {
        self.report.metrics.gates_in as f64 / self.compile.as_secs_f64()
    }

    /// Gates per second, scaled to the nominal host pace.
    fn rate(&self) -> f64 {
        pace::rate_at_nominal(self.raw_rate(), self.pace)
    }
}

fn run_pass(spec: StreamSpec, pace: &Pace, tracer: &Tracer) -> Result<Pass, String> {
    let traced = tracer.enabled();
    let root = tracer.reserve();
    let calls = SinkCalls::default();
    let sink = TimedSink {
        calls: traced.then(|| Rc::clone(&calls)),
        gates: 0,
    };
    let mut session = StreamSession::new(StreamOptions::default(), sink);
    let mut generator = Duration::ZERO;
    let mut paces = Vec::new();
    let mut feeds = Vec::with_capacity(spec.blocks + 1);
    let started = Instant::now();
    let mut chunks = spec.text_chunks();
    loop {
        if feeds.len() % PACE_EVERY == 0 {
            paces.push(pace.reading(3));
        }
        let g0 = Instant::now();
        let next = chunks.next();
        let g1 = Instant::now();
        generator += g1 - g0;
        tracer.record(Some(root), "stream.generator", "block", g0, g1);
        let Some(text) = next else { break };
        let feed_id = tracer.reserve();
        session.feed(text.as_bytes()).map_err(|e| e.to_string())?;
        let f1 = Instant::now();
        feeds.push((f1 - g1).as_secs_f64() * 1e3);
        if traced {
            tracer.record_as(feed_id, Some(root), "stream.feed", "feed", g1, f1);
            for (a, b) in calls.borrow_mut().drain(..) {
                tracer.record(Some(feed_id), "stream.sink", "accept", a, b);
            }
        }
    }
    let f0 = Instant::now();
    let finish_id = tracer.reserve();
    let (report, sink) = session.finish().map_err(|e| e.to_string())?;
    let end = Instant::now();
    if traced {
        tracer.record_as(finish_id, Some(root), "stream.finish", "finish", f0, end);
        for (a, b) in calls.borrow_mut().drain(..) {
            tracer.record(Some(finish_id), "stream.sink", "accept", a, b);
        }
    }
    tracer.record_as(root, None, "client", "stream", started, end);
    let wall = end - started;
    let paced: Duration = paces.iter().sum();
    paces.sort_unstable();
    Ok(Pass {
        compile: wall.saturating_sub(generator + paced),
        generator,
        pace: paces[paces.len() / 2],
        feeds,
        report,
        sunk: sink.gates,
    })
}

/// Streams the smoke spec through the engine and schedules its batch
/// twin: the digests and metrics must be equal.
fn smoke_twin(seed: u64) -> Result<(), String> {
    let smoke = StreamSpec::smoke(seed);
    let streamed = Engine::compile_streamed(
        smoke.text_chunks(),
        StreamOptions::default(),
        &CancelToken::new(),
    )
    .map_err(|e| e.to_string())?;
    let batch = from_qasm(&smoke.text()).map_err(|e| e.to_string())?;
    let (twin, _) =
        schedule_circuit(&batch, StreamOptions::default(), NullSink).map_err(|e| e.to_string())?;
    if streamed.report == twin {
        Ok(())
    } else {
        Err(format!(
            "smoke spec: streamed digest {} differs from the batch twin's {}",
            streamed.report.digest, twin.digest
        ))
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        op_unit: "block fed (1270 gates)",
        tail_p: 99.0,
        ..Outcome::default()
    };
    let spec = StreamSpec::million_gate(args.seed);
    // Setup: the spec plus a warm-up stream of its smoke twin (which
    // doubles as the streamed-vs-batch digest check).
    let mut twin = Ok(());
    let pace = Pace::new();
    while crate::more_setups(&out.setup_s) {
        let t0 = Instant::now();
        twin = smoke_twin(args.seed);
        out.setup_s.push(pace.seconds_since(t0));
    }
    match twin {
        Ok(()) => out.tally(true),
        Err(e) => out.fail(e),
    }

    let silent = Tracer::new(false);
    let tracer = Tracer::new(args.trace);
    let mut digest: Option<Fingerprint> = None;
    let (untraced, traced) = crate::repeat(args, |t| {
        let pass = match run_pass(spec, &pace, if t { &tracer } else { &silent }) {
            Ok(pass) => pass,
            Err(e) => {
                out.fail(format!("stream failed: {e}"));
                return None;
            }
        };
        let m = pass.report.metrics;
        let first = *digest.get_or_insert(pass.report.digest);
        if first != pass.report.digest {
            out.fail("stream digest differs between passes".into());
        } else if m.gates_in as usize != spec.gate_count() {
            out.fail(format!(
                "stream accepted {} gates, the spec has {}",
                m.gates_in,
                spec.gate_count()
            ));
        } else if pass.sunk != m.gates_out || m.wires > m.declared_qubits {
            out.fail(format!(
                "stream emitted {} gates to the sink, reported {}; wires {} of {}",
                pass.sunk, m.gates_out, m.wires, m.declared_qubits
            ));
        } else {
            out.tally(true);
        }
        Some(pass)
    });
    out.repetitions = untraced.len() + traced.len();
    out.peak_rss_mb = Some(crate::peak_rss_mb());
    let Some(first) = untraced.first() else {
        return out;
    };
    let m = first.report.metrics;
    // The end-to-end figures are medians over passes of each pass's
    // gates/s and block latencies, scaled to the nominal host pace (see
    // `pace`): on the 2-vCPU reference host single passes ran 1.0-1.7M
    // gates/s raw as other tenants came and went.
    out.ops_per_s = untraced.iter().map(Pass::rate).collect();
    out.latency_ms = untraced
        .iter()
        .map(|p| {
            p.feeds
                .iter()
                .map(|&ms| pace::time_at_nominal(ms, p.pace))
                .collect()
        })
        .collect();
    let raw: Vec<f64> = untraced.iter().map(Pass::raw_rate).collect();
    let paces: Vec<f64> = untraced
        .iter()
        .map(|p| p.pace.as_secs_f64() * 1e6)
        .collect();
    let (q1, median, q3) = stats::quartiles(&raw);
    out.notes.push(format!(
        "raw gates/s over {} passes: median {median:.0} [{q1:.0}, {q3:.0}]; host pace reference median {:.1} us (nominal {} us)",
        raw.len(),
        stats::median(&paces),
        pace::NOMINAL.as_micros()
    ));
    out.qubits_total = m.wires as f64;
    out.named("stream_gates_per_s", median);

    if args.trace {
        out.layer("stream.resets_inserted", m.resets_inserted as f64);
        out.layer("stream.cones_closed", m.cones_closed as f64);
        out.layer("stream.peak_window", m.peak_window as f64);
        out.layer("stream.peak_live", m.peak_live as f64);
        let gen: Vec<f64> = traced
            .iter()
            .map(|p| p.generator.as_secs_f64() * 1e3)
            .collect();
        out.layer("stream.generator_ms", stats::median(&gen));
        let spans = tracer.take();
        let (self_by_layer, _) = crate::trace::self_times(&spans);
        let reps = traced.len().max(1) as f64;
        for (layer, name) in [
            ("stream.feed", "stream.feed_ms"),
            ("stream.sink", "stream.sink_ms"),
            ("stream.finish", "stream.finish_ms"),
        ] {
            let t = self_by_layer.get(layer).copied().unwrap_or_default();
            out.layer(name, t.as_secs_f64() * 1e3 / reps);
        }
        let walls = |ps: &[Pass]| {
            ps.iter()
                .map(|p| p.compile.as_secs_f64())
                .collect::<Vec<_>>()
        };
        out.layer(
            "tracing_overhead",
            stats::median(&walls(&traced)) / stats::median(&walls(&untraced)) - 1.0,
        );
        out.attribute(spans, tracer.epoch(), traced.len());
    }
    out
}
