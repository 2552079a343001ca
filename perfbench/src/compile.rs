//! `compile_corpus`: the paper's Table 1/2 suite under all six
//! strategies and four routers, compiled by the batch engine with cold
//! caches.
//!
//! A round runs the 288 jobs as engine batches of `BATCH` jobs, with a
//! host pace reading between batches (see `pace`). The gated figures
//! are scaled to the nominal pace by the readings around each batch, and
//! each batch and job counts with its median over the rounds, so a stall
//! in one round moves only the batches it hit.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use caqr::{
    CancelToken, CaqrError, CompileReport, CostModelSpec, PassManager, PassObserver, RouterConfig,
    RoutingBackendSpec, Stage, StageTrace, Strategy,
};
use caqr_arch::Device;
use caqr_benchmarks::{suite, Benchmark};
use caqr_circuit::Fingerprint;
use caqr_engine::{BatchOptions, BatchRequest, CompileJob, Engine};

use crate::check::{self, Dist, Verdict};
use crate::pace::{self, Pace};
use crate::trace::Tracer;
use crate::{stats, Args, Outcome, THREADS};

/// The DPQA grid every corpus job fits (`grid:5x5` fails five jobs).
const DPQA_GRID: (usize, usize) = (6, 6);

/// Jobs per engine batch: 24 batches a round, about a quarter of a
/// second each.
const BATCH: usize = 12;

/// Everything a round compiles, built in setup.
struct Corpus {
    benches: Vec<Benchmark>,
    /// Every job, one per (router, benchmark, strategy), in engine
    /// batches of `BATCH`: each round is the same work, so its throughput
    /// moves with any router's or pass's speed.
    batches: Vec<BatchRequest>,
    /// Index into `benches` of each job's source.
    source_of: Vec<usize>,
    mumbai: Device,
}

fn routers() -> [(RoutingBackendSpec, CostModelSpec); 4] {
    let lookahead = CostModelSpec::parse("lookahead").expect("registered cost model");
    [
        (RoutingBackendSpec::Swap, CostModelSpec::Hop),
        (RoutingBackendSpec::Swap, lookahead),
        (RoutingBackendSpec::Swap, CostModelSpec::NoiseAware),
        (RoutingBackendSpec::Dpqa, CostModelSpec::Hop),
    ]
}

fn setup(seed: u64) -> Corpus {
    let mumbai = Device::mumbai(seed);
    let grid = Device::dpqa_grid(DPQA_GRID.0, DPQA_GRID.1, seed);
    let benches = suite::full_table_suite(seed);
    let mut jobs = Vec::new();
    let mut source_of = Vec::new();
    for (backend, cost_model) in routers() {
        let device = match backend {
            RoutingBackendSpec::Swap => &mumbai,
            RoutingBackendSpec::Dpqa => &grid,
        };
        for (b, bench) in benches.iter().enumerate() {
            for strategy in Strategy::ALL {
                jobs.push(
                    CompileJob::new(
                        bench.name.clone(),
                        bench.circuit.clone(),
                        device.clone(),
                        strategy,
                    )
                    .with_router(
                        RouterConfig::new()
                            .with_backend(backend)
                            .with_cost_model(cost_model),
                    ),
                );
                source_of.push(b);
            }
        }
    }
    // Warm-up: one small compile so lazy statics and the allocator are
    // settled before the first timed round.
    let warm = BatchRequest::new(jobs[..1].to_vec()).with_options(cold(1));
    std::hint::black_box(Engine::run(&warm));
    Corpus {
        benches,
        batches: jobs
            .chunks(BATCH)
            .map(|b| BatchRequest::new(b.to_vec()).with_options(cold(THREADS)))
            .collect(),
        source_of,
        mumbai,
    }
}

impl Corpus {
    /// Job `i` of a round.
    fn job(&self, i: usize) -> &CompileJob {
        &self.batches[i / BATCH].jobs[i % BATCH]
    }
}

fn cold(workers: usize) -> BatchOptions {
    BatchOptions {
        workers,
        cache_capacity: 0,
    }
}

/// A benchmark-side pass observer: feeds the engine's `StageTrace` and
/// records one span per pass under the job's span.
struct SpanObserver<'a> {
    trace: StageTrace,
    tracer: &'a Tracer,
    job_span: u64,
    /// Time in routing passes, charged to the job's backend.
    routing: Duration,
}

/// Traced-round totals: time per pass, and routing time per backend
/// (`[swap, dpqa]`).
type PassTotals = Mutex<(HashMap<&'static str, Duration>, [Duration; 2])>;

impl PassObserver for SpanObserver<'_> {
    fn pass_complete(&mut self, name: &'static str, stage: Stage, elapsed: Duration) {
        self.trace.record(stage, elapsed);
        self.trace.record_pass(name, elapsed);
        let end = Instant::now();
        let layer = if stage == Stage::Routing {
            self.routing += elapsed;
            "router"
        } else {
            "core"
        };
        self.tracer
            .record(Some(self.job_span), layer, name, end - elapsed, end);
    }
}

/// One compiled job of a round, reduced to what the checks and metrics
/// need.
struct Row {
    /// The report, kept for the first round only.
    report: Option<CompileReport>,
    /// Set when the job compiled.
    fingerprint: Option<Fingerprint>,
    wall: Duration,
    /// `wall` scaled to the nominal host pace.
    scaled_ms: f64,
    queue_wait: Duration,
}

struct Round {
    wall: Duration,
    /// Each batch's wall time in seconds, scaled to the nominal host pace.
    batch_scaled: Vec<f64>,
    /// Jobs that compiled.
    ok: usize,
    rows: Vec<Row>,
}

/// Compiles the corpus once, batch by batch, with a host pace reading
/// before the first batch and after each one. Job and pass spans (and
/// the pass totals) are recorded only when `tracer` is enabled.
fn run_round(corpus: &Corpus, host: &Pace, tracer: &Tracer, totals: &PassTotals) -> Round {
    let round_span = tracer.reserve();
    let mut round = Round {
        wall: Duration::ZERO,
        batch_scaled: Vec::with_capacity(corpus.batches.len()),
        ok: 0,
        rows: Vec::with_capacity(corpus.source_of.len()),
    };
    let mut before = host.reading(5);
    let started = Instant::now();
    for request in &corpus.batches {
        let t0 = Instant::now();
        let rows = run_batch(request, round_span, tracer, totals);
        let wall = t0.elapsed();
        let after = host.reading(5);
        let reading = (before + after) / 2;
        before = after;
        round.wall += wall;
        round
            .batch_scaled
            .push(pace::time_at_nominal(wall.as_secs_f64(), reading));
        round.ok += rows.iter().filter(|r| r.fingerprint.is_some()).count();
        round.rows.extend(rows.into_iter().map(|mut r| {
            r.scaled_ms = pace::time_at_nominal(r.wall.as_secs_f64() * 1e3, reading);
            r
        }));
    }
    tracer.record_as(round_span, None, "client", "round", started, Instant::now());
    round
}

/// Compiles one engine batch.
fn run_batch(
    request: &BatchRequest,
    round_span: u64,
    tracer: &Tracer,
    totals: &PassTotals,
) -> Vec<Row> {
    let started = Instant::now();
    let engine_span = tracer.reserve();
    let report = if tracer.enabled() {
        let compiler = |job: &CompileJob| -> (Result<CompileReport, CaqrError>, StageTrace) {
            let job_span = tracer.reserve();
            let t0 = Instant::now();
            let mut observer = SpanObserver {
                trace: StageTrace::default(),
                tracer,
                job_span,
                routing: Duration::ZERO,
            };
            let result = PassManager::for_strategy(job.strategy).run_observed_cancellable_with(
                &job.circuit,
                &job.device,
                job.strategy,
                job.router,
                &mut observer,
                &CancelToken::new(),
            );
            tracer.record_as(
                job_span,
                Some(engine_span),
                "engine.job",
                job.name.clone(),
                t0,
                Instant::now(),
            );
            let mut t = totals.lock().expect("pass totals lock poisoned");
            for &(name, elapsed) in observer.trace.pass_spans() {
                *t.0.entry(name).or_default() += elapsed;
            }
            t.1[(job.router.backend == RoutingBackendSpec::Dpqa) as usize] += observer.routing;
            drop(t);
            (result, observer.trace)
        };
        Engine::run_with(request, &compiler)
    } else {
        Engine::run(request)
    };
    let rows: Vec<Row> = report
        .results
        .into_iter()
        .map(|r| match r {
            Ok(outcome) => Row {
                fingerprint: Some(outcome.report.circuit.fingerprint()),
                report: Some(outcome.report),
                wall: outcome.wall,
                scaled_ms: 0.0,
                queue_wait: outcome.queue_wait,
            },
            Err(failed) => Row {
                report: None,
                fingerprint: None,
                wall: Duration::ZERO,
                scaled_ms: 0.0,
                queue_wait: failed.queue_wait,
            },
        })
        .collect();
    let end = Instant::now();
    tracer.record_as(
        engine_span,
        Some(round_span),
        "engine",
        "Engine::run",
        started,
        end,
    );
    rows
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        op_unit: "compile job",
        tail_p: 95.0,
        ..Outcome::default()
    };
    let mut corpus = None;
    let host = Pace::new();
    while crate::more_setups(&out.setup_s) {
        let t0 = Instant::now();
        let c = setup(args.seed);
        out.setup_s.push(host.seconds_since(t0));
        corpus = Some(c);
    }
    let corpus = corpus.expect("at least one setup");

    // Only untraced rounds feed the end-to-end metrics.
    let silent = Tracer::new(false);
    let tracer = Tracer::new(args.trace);
    let totals = PassTotals::default();
    let mut rounds = 0;
    let (untraced, traced) = crate::repeat(args, |t| {
        let mut round = run_round(&corpus, &host, if t { &tracer } else { &silent }, &totals);
        // Later rounds keep only fingerprints and times, so peak RSS does
        // not grow with the number of rounds that fit.
        if rounds > 0 {
            for row in &mut round.rows {
                row.report = None;
            }
        }
        rounds += 1;
        Some(round)
    });
    out.repetitions = untraced.len() + traced.len();
    out.peak_rss_mb = Some(crate::peak_rss_mb());

    let first = &untraced[0];
    check_round(&corpus, first, &mut out);
    for round in untraced.iter().skip(1).chain(traced.iter()) {
        for (i, (row, base)) in round.rows.iter().zip(&first.rows).enumerate() {
            let same = row.fingerprint.is_some() && row.fingerprint == base.fingerprint;
            if !same {
                out.fail(format!(
                    "{} job {i}: output differs from the first round",
                    corpus.job(i).name
                ));
            } else {
                out.tally(true);
            }
        }
    }

    // End-to-end, scaled to the nominal host pace: the jobs of a round
    // over the sum of each batch's median time, and the p50 over jobs of
    // each job's median time. The p50 is taken over the jobs of the
    // regular suite, whose circuits do not depend on the seed: the QAOA
    // instances are seeded random graphs of up to 25 qubits, and with
    // them the p50 moved 0.11-0.19 of itself between seeds.
    let regular = suite::regular_suite().len();
    let over_rounds =
        |f: &dyn Fn(&Round) -> f64| stats::median(&untraced.iter().map(f).collect::<Vec<_>>());
    let busy: f64 = (0..corpus.batches.len())
        .map(|b| over_rounds(&|r| r.batch_scaled[b]))
        .sum();
    out.ops_per_s.push(first.ok as f64 / busy);
    let latency = (0..first.rows.len())
        .filter(|&j| corpus.source_of[j] < regular && first.rows[j].fingerprint.is_some())
        .map(|j| over_rounds(&|r| r.rows[j].scaled_ms))
        .collect();
    out.latency_ms.push(latency);
    let raw: Vec<f64> = untraced
        .iter()
        .map(|r| r.ok as f64 / r.wall.as_secs_f64())
        .collect();
    let reports: Vec<&CompileReport> = first
        .rows
        .iter()
        .filter_map(|r| r.report.as_ref())
        .collect();
    out.qubits_total = reports.iter().map(|r| r.qubits as f64).sum();
    out.named("compile_jobs_per_s", stats::median(&raw));
    out.named("swaps_total", reports.iter().map(|r| r.swaps as f64).sum());
    out.named(
        "duration_dt_total",
        reports.iter().map(|r| r.duration_dt as f64).sum(),
    );
    let esp: Vec<f64> = reports.iter().map(|r| r.esp).collect();
    out.named("esp_mean", stats::mean(&esp));

    if args.trace {
        layers(&untraced, &traced, &totals, &tracer, &mut out);
    }
    out
}

/// Checks the first round's outputs: every job compiled, SWAP outputs
/// use only coupled pairs, and outputs up to the exact width compute
/// their source's distribution.
fn check_round(corpus: &Corpus, round: &Round, out: &mut Outcome) {
    let sources: Vec<Option<Dist>> = corpus
        .benches
        .iter()
        .map(|b| check::exact_dist(&b.circuit, b.circuit.num_clbits()))
        .collect();
    let mut memo: HashMap<(usize, Fingerprint), Verdict> = HashMap::new();
    let mut unchecked = 0usize;
    for (i, row) in round.rows.iter().enumerate() {
        let job = corpus.job(i);
        let Some(report) = &row.report else {
            out.fail(format!("{} {} did not compile", job.name, job.strategy));
            continue;
        };
        if job.router.backend == RoutingBackendSpec::Swap
            && !check::uses_coupled_pairs(&report.circuit, &corpus.mumbai)
        {
            out.fail(format!(
                "{} {}: two-qubit gate on an uncoupled pair",
                job.name, job.strategy
            ));
            continue;
        }
        let b = corpus.source_of[i];
        let key = (
            b,
            row.fingerprint.expect("compiled rows carry a fingerprint"),
        );
        let clbits = corpus.benches[b].circuit.num_clbits();
        let verdict = memo
            .entry(key)
            .or_insert_with(|| check::against_source(sources[b].as_ref(), &report.circuit, clbits))
            .clone();
        match verdict {
            Verdict::Equal => out.tally(true),
            Verdict::Unchecked => {
                unchecked += 1;
                out.tally(true);
            }
            Verdict::Differs(d) => out.fail(format!(
                "{} {} ({}): output distribution differs from the source (TVD {d:.3e})",
                job.name,
                job.strategy,
                caqr_engine::router_label(job.router.backend, job.router.cost_model)
            )),
        }
    }
    out.notes.push(format!(
        "{unchecked} of {} jobs wider than {} qubits were not checked against their source distribution",
        round.rows.len(),
        check::EXACT_MAX_WIDTH
    ));
    out.layer("unchecked_outputs", unchecked as f64);
}

fn layers(
    untraced: &[Round],
    traced: &[Round],
    totals: &PassTotals,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let reps = traced.len().max(1) as f64;
    let totals = totals.lock().expect("pass totals lock poisoned");
    for p in caqr::REGISTERED_PASSES {
        let ms = totals.0.get(p).map_or(0.0, Duration::as_secs_f64) * 1e3;
        out.layer(format!("core.pass.{p}_ms"), ms / reps);
    }
    out.layer("router.swap_ms", totals.1[0].as_secs_f64() * 1e3 / reps);
    out.layer("router.dpqa_ms", totals.1[1].as_secs_f64() * 1e3 / reps);
    drop(totals);

    let first: Vec<&CompileReport> = untraced[0]
        .rows
        .iter()
        .filter_map(|r| r.report.as_ref())
        .collect();
    let sum = |f: fn(&CompileReport) -> usize| first.iter().map(|r| f(r) as f64).sum::<f64>();
    out.layer(
        "core.reuse_pairs",
        sum(|r| caqr_engine::metrics::reuse_pairs_in(&r.circuit)),
    );
    out.layer("router.swaps", sum(|r| r.swaps));
    out.layer("router.movement_stages", sum(|r| r.movement_stages));

    let rows = || {
        untraced
            .iter()
            .flat_map(|r| r.rows.iter())
            .filter(|r| r.fingerprint.is_some())
    };
    let walls: Vec<f64> = rows().map(|r| r.wall.as_secs_f64() * 1e3).collect();
    let waits: Vec<f64> = rows().map(|r| r.queue_wait.as_secs_f64() * 1e3).collect();
    out.layer("engine.job_ms.p50", stats::percentile(&walls, 50.0));
    out.layer("engine.job_ms.p99", stats::percentile(&walls, 99.0));
    out.layer("engine.queue_wait_ms", stats::median(&waits));

    let secs = |rs: &[Round]| rs.iter().map(|r| r.wall.as_secs_f64()).collect::<Vec<_>>();
    out.layer(
        "tracing_overhead",
        stats::median(&secs(traced)) / stats::median(&secs(untraced)) - 1.0,
    );
    out.attribute(tracer.take(), tracer.epoch(), traced.len());
}
