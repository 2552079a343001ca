//! `simulate_table3`: the paper's Table 3 circuits, compiled in setup
//! under `baseline` and `sr`, run as noisy shots. A host pace reading
//! (see `pace`) follows every set of runs; the gated figures are scaled
//! to the nominal pace by the readings around each set.

use std::time::Instant;

use caqr::{compile, Strategy};
use caqr_benchmarks::{bv, revlib, Benchmark};
use caqr_circuit::Circuit;
use caqr_sim::{metrics, Counts, Executor, KernelDispatch, NoiseModel, ShotReport};

use crate::check::{self, Dist, Verdict};
use crate::pace::{self, Pace};
use crate::trace::Tracer;
use crate::{stats, Args, Outcome, THREADS};

/// Shots per circuit run.
const SHOTS: usize = 1000;

/// The (circuit, strategy) runs of one round, in order.
pub const RUNS: [(&str, &str); 10] = [
    ("BV_5", "baseline"),
    ("BV_5", "sr"),
    ("BV_10", "baseline"),
    ("BV_10", "sr"),
    ("Multiply_13", "baseline"),
    ("Multiply_13", "sr"),
    ("CC_10", "baseline"),
    ("CC_10", "sr"),
    ("CC_13", "baseline"),
    ("CC_13", "sr"),
];

struct Run {
    source: Benchmark,
    /// The compiled circuit compacted onto its used wires.
    compact: Circuit,
    qubits: usize,
    /// Exact distribution of the source over its classical bits.
    ideal: Dist,
    ideal_pairs: Vec<(u64, f64)>,
    sim_seed: u64,
}

struct Setup {
    runs: Vec<Run>,
    noisy: Executor,
}

fn setup(seed: u64) -> Setup {
    // The paper's fixed Mumbai calibration: a seed-dependent calibration
    // would reroute the circuits and change how much simulation each
    // seed asks for. The seed drives the shot streams.
    let device = caqr_bench::mumbai();
    let sources = [
        bv::bv_all_ones(5),
        bv::bv_all_ones(10),
        revlib::multiply_13(),
        revlib::cc_10(),
        revlib::cc_13(),
    ];
    let mut runs = Vec::new();
    for source in sources {
        let ideal = check::exact_dist(&source.circuit, source.circuit.num_clbits())
            .expect("Table 3 circuits are narrow enough for the exact simulator");
        for strategy in [Strategy::Baseline, Strategy::Sr] {
            let report = compile(&source.circuit, &device, strategy)
                .expect("Table 3 circuits fit the Mumbai device");
            let (compact, _) = report.circuit.compact_qubits();
            runs.push(Run {
                sim_seed: seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(runs.len() as u64),
                ideal_pairs: ideal.iter().map(|(&k, &p)| (k, p)).collect(),
                ideal: ideal.clone(),
                source: source.clone(),
                qubits: report.qubits,
                compact,
            });
        }
    }
    let noisy = Executor::noisy(NoiseModel::from_device(device)).with_threads(THREADS);
    // Warm-up: a few shots of every circuit.
    for run in &runs {
        std::hint::black_box(noisy.run_shots(&run.compact, 64, run.sim_seed));
    }
    Setup { runs, noisy }
}

struct Round {
    wall: f64,
    /// `wall` scaled to the nominal host pace.
    scaled: f64,
    /// Per-run wall time (s).
    walls: Vec<f64>,
    /// Per-run counts and shot report, kept for the first round only so
    /// memory does not grow with the number of rounds that fit.
    results: Option<Vec<(Counts, ShotReport)>>,
    /// Runs whose histogram differed from the first round's.
    differs: Vec<usize>,
    tableau_to_dense_us: f64,
}

fn run_round(s: &Setup, tracer: &Tracer) -> Round {
    let round_span = tracer.reserve();
    let t0 = Instant::now();
    let mut walls = Vec::with_capacity(s.runs.len());
    let mut results = Vec::with_capacity(s.runs.len());
    for (i, run) in s.runs.iter().enumerate() {
        let a = Instant::now();
        let (counts, report) = s.noisy.run_shots_traced(&run.compact, SHOTS, run.sim_seed);
        let b = Instant::now();
        let (circuit, strategy) = RUNS[i];
        tracer.record(
            Some(round_span),
            "sim",
            format!("{circuit}.{strategy}"),
            a,
            b,
        );
        walls.push((b - a).as_secs_f64());
        results.push((counts, report));
    }
    let end = Instant::now();
    tracer.record_as(round_span, None, "client", "round", t0, end);
    Round {
        wall: (end - t0).as_secs_f64(),
        scaled: 0.0,
        walls,
        tableau_to_dense_us: results
            .iter()
            .map(|(_, r)| r.tableau_to_dense_us as f64)
            .sum(),
        results: Some(results),
        differs: Vec::new(),
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        op_unit: "Table 3 set: 10 circuit runs of 1000 shots",
        tail_p: 90.0,
        ..Outcome::default()
    };
    let mut setup_done = None;
    let host = Pace::new();
    while crate::more_setups(&out.setup_s) {
        let t0 = Instant::now();
        let s = setup(args.seed);
        out.setup_s.push(host.seconds_since(t0));
        setup_done = Some(s);
    }
    let s = setup_done.expect("at least one setup");
    for (i, run) in s.runs.iter().enumerate() {
        assert_eq!(run.source.name, RUNS[i].0, "RUNS order matches setup");
    }

    let silent = Tracer::new(false);
    let tracer = Tracer::new(args.trace);
    let mut base: Option<Vec<Counts>> = None;
    let mut before = host.reading(3);
    let (untraced, traced) = crate::repeat(args, |t| {
        let mut round = run_round(&s, if t { &tracer } else { &silent });
        let after = host.reading(3);
        round.scaled = pace::time_at_nominal(round.wall, (before + after) / 2);
        before = after;
        let results = round.results.take().expect("a fresh round has results");
        match &base {
            Some(base) => {
                round.differs = (0..results.len())
                    .filter(|&i| results[i].0 != base[i])
                    .collect();
            }
            None => {
                base = Some(results.iter().map(|(c, _)| c.clone()).collect());
                round.results = Some(results);
            }
        }
        Some(round)
    });
    out.repetitions = untraced.len() + traced.len();
    out.peak_rss_mb = Some(crate::peak_rss_mb());

    check(&s, &untraced, &traced, &mut out);

    let shots = |wall: f64| (SHOTS * s.runs.len()) as f64 / wall;
    out.ops_per_s = untraced.iter().map(|r| shots(r.scaled)).collect();
    out.latency_ms
        .push(untraced.iter().map(|r| r.scaled * 1e3).collect());
    out.qubits_total = s.runs.iter().map(|r| r.qubits as f64).sum();
    let raw: Vec<f64> = untraced.iter().map(|r| shots(r.wall)).collect();
    out.named("shots_per_s", stats::median(&raw));
    let first = untraced[0]
        .results
        .as_ref()
        .expect("the first round keeps its results");
    let tvds: Vec<f64> = s
        .runs
        .iter()
        .zip(first)
        .map(|(run, (counts, _))| {
            metrics::tvd(
                &run.ideal_pairs,
                &counts.marginal(run.source.circuit.num_clbits()),
            )
        })
        .collect();
    out.named("tvd_mean", stats::mean(&tvds));

    if args.trace {
        for (i, (circuit, strategy)) in RUNS.iter().enumerate() {
            let walls: Vec<f64> = traced.iter().map(|r| r.walls[i] * 1e3).collect();
            out.layer(
                format!("sim.run_ms.{circuit}.{strategy}"),
                stats::median(&walls),
            );
        }
        let reports: Vec<&ShotReport> = first.iter().map(|(_, r)| r).collect();
        let sum = |f: fn(&ShotReport) -> usize| reports.iter().map(|r| f(r) as f64).sum::<f64>();
        out.layer("sim.kernels_out", sum(|r| r.kernels_out));
        out.layer("sim.prefix_ops", sum(|r| r.prefix_ops));
        out.layer("sim.snapshot_forks", sum(|r| r.snapshot_forks));
        out.layer("sim.deferred_measures", sum(|r| r.deferred_measures));
        out.layer(
            "sim.stabilizer_prefix_gates",
            sum(|r| r.stabilizer_prefix_gates),
        );
        for d in [
            KernelDispatch::Wide,
            KernelDispatch::Scalar,
            KernelDispatch::Sparse,
            KernelDispatch::Tableau,
        ] {
            let n = reports.iter().filter(|r| r.kernel_dispatch == d).count();
            out.layer(format!("sim.dispatch.{}", d.as_str()), n as f64);
        }
        let t2d: Vec<f64> = traced.iter().map(|r| r.tableau_to_dense_us).collect();
        out.layer("sim.tableau_to_dense_us", stats::median(&t2d));
        let walls = |rs: &[Round]| rs.iter().map(|r| r.wall).collect::<Vec<_>>();
        out.layer(
            "tracing_overhead",
            stats::median(&walls(&traced)) / stats::median(&walls(&untraced)) - 1.0,
        );
        out.attribute(tracer.take(), tracer.epoch(), traced.len());
    }
    out
}

/// Output checks: compiled circuits compute their source's distribution;
/// every round's histograms are identical to the first (seeded runs);
/// the histogram does not depend on the shot-thread count; and the
/// noiseless engine on each compiled circuit lands within sampling error
/// of the exact distribution.
fn check(s: &Setup, untraced: &[Round], traced: &[Round], out: &mut Outcome) {
    let first = untraced[0]
        .results
        .as_ref()
        .expect("the first round keeps its results");
    let mut unchecked = 0usize;
    for (i, run) in s.runs.iter().enumerate() {
        let name = format!("{}.{}", RUNS[i].0, RUNS[i].1);
        let clbits = run.source.circuit.num_clbits();
        match check::against_source(Some(&run.ideal), &run.compact, clbits) {
            Verdict::Equal => out.tally(true),
            // Too wide for the exact check; the noiseless-engine check
            // below still compares it with the source distribution.
            Verdict::Unchecked => {
                unchecked += 1;
                out.tally(true);
            }
            Verdict::Differs(d) => out.fail(format!(
                "{name}: compiled distribution differs from the source (TVD {d:.3e})"
            )),
        }
        if first[i].0.total() != SHOTS {
            out.fail(format!(
                "{name}: histogram holds {} shots",
                first[i].0.total()
            ));
        }
        for round in untraced.iter().chain(traced) {
            if !round.differs.contains(&i) {
                out.tally(true);
            } else {
                out.fail(format!("{name}: histogram differs between rounds"));
            }
        }
        // Noiseless engine vs exact distribution: within a generous
        // sampling bound for SHOTS draws over the support.
        let ideal_counts = Executor::ideal()
            .with_threads(THREADS)
            .run_shots(&run.compact, SHOTS, run.sim_seed)
            .marginal(clbits);
        let got = metrics::tvd(&run.ideal_pairs, &ideal_counts);
        let bound = 0.02 + (run.ideal.len() as f64 / SHOTS as f64).sqrt();
        if got <= bound {
            out.tally(true);
        } else {
            out.fail(format!(
                "{name}: noiseless histogram is {got:.3} from the exact distribution (bound {bound:.3})"
            ));
        }
    }
    out.layer("unchecked_outputs", unchecked as f64);
    out.notes.push(format!(
        "{unchecked} of {} compiled circuits wider than {} qubits were not checked exactly",
        s.runs.len(),
        check::EXACT_MAX_WIDTH
    ));
    // Thread-count independence on the sparse-dispatched and the widest
    // dense circuit.
    for i in [5usize, 8] {
        let run = &s.runs[i];
        let one = s
            .noisy
            .clone()
            .with_threads(1)
            .run_shots(&run.compact, SHOTS, run.sim_seed);
        let two = s
            .noisy
            .clone()
            .with_threads(2)
            .run_shots(&run.compact, SHOTS, run.sim_seed);
        if one == two && one == first[i].0 {
            out.tally(true);
        } else {
            out.fail(format!(
                "{}.{}: histogram depends on the shot-thread count",
                RUNS[i].0, RUNS[i].1
            ));
        }
    }
}
