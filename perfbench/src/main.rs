//! The CaQR benchmark: one command, four workloads, end-to-end metrics
//! with tracing off and per-layer metrics in a separate traced run.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile_corpus --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `compile_corpus`, `simulate_table3`, `serve_mixed`,
//! `stream_million` (see `perfbench/README.md`). The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; a readable report goes to standard error and
//! the full report plus the span dump to `.bench_out/`.

mod check;
mod compile;
mod pace;
mod serve;
mod simulate;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Span;

/// The seed reserved for confirming a claim on inputs not used while the
/// claim was developed: `--seed held-out`.
pub const HELD_OUT_SEED: u64 = 0x00C0_FFEE_D00D;

/// Compile-engine worker threads, simulator shot threads, server worker
/// threads, and load-driver connections: all fixed at the 2 cores of the
/// reference host.
pub const THREADS: usize = 2;

/// Whether a workload should set up once more: at least 5 times, and
/// cheap setups until they have taken half a second (at most 50), so
/// that `setup_s`, their median, is not a single millisecond reading.
pub fn more_setups(times_s: &[f64]) -> bool {
    times_s.len() < 5 || (times_s.iter().sum::<f64>() < 0.5 && times_s.len() < 50)
}

/// Runs measured rounds until the next one would overrun `--seconds`.
/// `round(traced)` returns `None` for a failed round (it counts the
/// failure itself); after 8 failed rounds the loop stops. In a traced
/// run, rounds alternate untraced/traced and at least one traced round
/// runs, so `tracing_overhead` compares rounds under the same
/// conditions. Returns `(untraced, traced)`.
pub fn repeat<R>(args: &Args, mut round: impl FnMut(bool) -> Option<R>) -> (Vec<R>, Vec<R>) {
    let deadline = Instant::now() + args.seconds;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut longest = Duration::ZERO;
    let mut failures = 0;
    loop {
        let t = args.trace && untraced.len() > traced.len();
        let t0 = Instant::now();
        match round(t) {
            Some(r) if t => traced.push(r),
            Some(r) => untraced.push(r),
            None => failures += 1,
        }
        longest = longest.max(t0.elapsed());
        let owe_traced = args.trace && traced.is_empty();
        if (Instant::now() + longest > deadline && !owe_traced) || failures >= 8 {
            break;
        }
    }
    (untraced, traced)
}

/// Names of the end-to-end metrics, printed on every workload.
/// Tail latencies are reported (`op_tail_ms` among the named metrics)
/// but not gated: on the 2-vCPU reference host their spread between
/// seeds was 0.3-2.0 of the median.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("qubits_total", "count"),
];

/// Layers whose self time is reported as a share of the client total.
pub const LAYERS: [&str; 11] = [
    "engine",
    "engine.job",
    "core",
    "router",
    "sim",
    "stream.generator",
    "stream.feed",
    "stream.sink",
    "stream.finish",
    "driver.wait",
    "http.exchange",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, circuit runs, requests, streams) plus
    /// correctness checks made.
    pub attempted: u64,
    /// Operations that failed or failed a correctness check.
    pub failed: u64,
    /// One wall time per setup repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Work completed per second, one value per repetition.
    pub ops_per_s: Vec<f64>,
    /// What one "op" is on this workload.
    pub op_unit: &'static str,
    /// Per-operation latencies in milliseconds, in one or more windows;
    /// `op_p50_ms` and `op_tail_ms` are medians over the windows of each
    /// window's percentile, so one disturbed window cannot move them.
    pub latency_ms: Vec<Vec<f64>>,
    /// The tail percentile wanted for `op_tail_ms`.
    pub tail_p: f64,
    /// Physical qubits (or wires) used, summed over the workload's outputs.
    pub qubits_total: f64,
    /// The workload-specific end-to-end metrics (names from [`NAMED`]).
    pub named: Vec<(&'static str, f64)>,
    /// Per-layer metrics measured in the traced run.
    pub layers: BTreeMap<String, f64>,
    /// Spans recorded in the traced run.
    pub spans: Vec<Span>,
    /// Epoch of the span offsets.
    pub epoch: Option<Instant>,
    /// Peak RSS in MB taken when the measured work ended, before the
    /// output checks add their own memory (read at exit when unset).
    pub peak_rss_mb: Option<f64>,
    /// Repetitions measured.
    pub repetitions: usize,
    /// Free-form remarks for the report (unchecked outputs, fallbacks).
    pub notes: Vec<String>,
}

/// The process's peak resident set so far, in MB (0 where unknown).
pub fn peak_rss_mb() -> f64 {
    caqr_bench::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

impl Outcome {
    /// Counts one attempted operation and whether it passed.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts a failed check with a note saying what failed.
    pub fn fail(&mut self, note: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 64 {
            self.notes.push(format!("FAILED: {note}"));
        }
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }

    /// Adds a workload-specific end-to-end metric.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not listed in [`NAMED`].
    pub fn named(&mut self, name: &'static str, value: f64) {
        assert!(
            NAMED.iter().any(|(n, _)| *n == name),
            "'{name}' is not in NAMED"
        );
        self.named.push((name, value));
    }

    /// Folds recorded spans into `self_share.<layer>` metrics (each
    /// layer's self time over the client-observed total) plus
    /// `self_ms.unattributed` per repetition.
    pub fn attribute(&mut self, spans: Vec<Span>, epoch: Instant, reps: usize) {
        let (self_by_layer, total) = trace::self_times(&spans);
        let total_s = total.as_secs_f64().max(1e-12);
        for layer in LAYERS.iter().chain(["unattributed"].iter()) {
            let t = self_by_layer.get(layer).copied().unwrap_or_default();
            self.layer(format!("self_share.{layer}"), t.as_secs_f64() / total_s);
        }
        let unattributed = self_by_layer
            .get("unattributed")
            .copied()
            .unwrap_or_default();
        self.layer(
            "self_ms.unattributed",
            unattributed.as_secs_f64() * 1e3 / reps.max(1) as f64,
        );
        self.spans = spans;
        self.epoch = Some(epoch);
    }
}

/// Every per-layer metric name, in the order `BENCHMARK.json` lists
/// them. A traced run prints each one; a layer the workload does not
/// exercise reads 0.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = caqr::REGISTERED_PASSES
        .iter()
        .map(|p| format!("core.pass.{p}_ms"))
        .collect();
    names.push("core.reuse_pairs".into());
    for n in [
        "router.swap_ms",
        "router.dpqa_ms",
        "router.swaps",
        "router.movement_stages",
        "engine.job_ms.p50",
        "engine.job_ms.p99",
        "engine.queue_wait_ms",
        "engine.cache_hit_ratio",
        "engine.template_cache_hit_ratio",
        "engine.bind_us",
    ] {
        names.push(n.into());
    }
    for (circuit, strategy) in simulate::RUNS {
        names.push(format!("sim.run_ms.{circuit}.{strategy}"));
    }
    for n in [
        "sim.kernels_out",
        "sim.prefix_ops",
        "sim.snapshot_forks",
        "sim.deferred_measures",
        "sim.dispatch.wide",
        "sim.dispatch.scalar",
        "sim.dispatch.sparse",
        "sim.dispatch.tableau",
        "sim.stabilizer_prefix_gates",
        "sim.tableau_to_dense_us",
        "stream.feed_ms",
        "stream.sink_ms",
        "stream.finish_ms",
        "stream.generator_ms",
        "stream.resets_inserted",
        "stream.cones_closed",
        "stream.peak_window",
        "stream.peak_live",
        "wire.parse_us",
        "wire.bytes_in",
        "wire.bytes_out",
    ] {
        names.push(n.into());
    }
    for prefix in [
        "handlers.execute_ms",
        "http.p50_ms",
        "http.p99_ms",
        "transport_ms",
    ] {
        for class in serve::CLASSES {
            names.push(format!("{prefix}.{class}"));
        }
    }
    for n in [
        "respcache.hit_ratio",
        "reactor.poll_cycles_per_req",
        "reactor.wakeups_per_req",
        "reactor.dispatch_queue_depth",
        "serve.4xx",
        "serve.5xx",
        "serve.429",
        "serve.504",
        "driver.lateness_ms.p50",
        "driver.lateness_ms.p99",
        "driver.unsent_ratio.light",
        "driver.unsent_ratio.nominal",
        "driver.unsent_ratio.heavy",
        "driver.sent_rps.heavy",
        "tracing_overhead",
    ] {
        names.push(n.into());
    }
    for layer in LAYERS.iter().chain(["unattributed"].iter()) {
        names.push(format!("self_share.{layer}"));
    }
    names.push("self_ms.unattributed".into());
    names.push("unchecked_outputs".into());
    for (n, _) in NAMED {
        names.push(format!("e2e.{n}"));
    }
    names
}

/// The workload-specific end-to-end metrics with their units, each
/// printed on the workloads it applies to and echoed into the traced run
/// as `e2e.<name>`.
const NAMED: [(&str, &str); 13] = [
    ("op_tail_ms", "ms"),
    ("compile_jobs_per_s", "1/s"),
    ("swaps_total", "count"),
    ("duration_dt_total", "dt"),
    ("esp_mean", "ratio"),
    ("shots_per_s", "1/s"),
    ("tvd_mean", "ratio"),
    ("http_p50_ms", "ms"),
    ("http_p99_ms", "ms"),
    ("http_goodput_rps", "1/s"),
    ("http_highest_passing_rps", "1/s"),
    ("stream_gates_per_s", "1/s"),
    ("error_rate", "ratio"),
];

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(if v == "held-out" {
                    HELD_OUT_SEED
                } else {
                    v.parse::<u64>().map_err(|_| format!("bad --seed '{v}'"))?
                });
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&s| (1..=600).contains(&s))
                    .ok_or_else(|| format!("bad --seconds '{v}' (1..=600)"))?;
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' ({})",
            WORKLOADS.join(" | ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

const WORKLOADS: [&str; 4] = [
    "compile_corpus",
    "simulate_table3",
    "serve_mixed",
    "stream_million",
];

/// Output of a host command's first line, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new(program)
        .args(args)
        // Never let git wander above the checkout to find a repository.
        .env(
            "GIT_CEILING_DIRECTORIES",
            cwd.parent().unwrap_or(&cwd).as_os_str(),
        )
        .stdin(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    caqr_wire::Value::str(s).encode()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n|held-out> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut out = match args.workload.as_str() {
        "compile_corpus" => compile::run(&args),
        "simulate_table3" => simulate::run(&args),
        "serve_mixed" => serve::run(&args),
        "stream_million" => stream::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    let peak_rss_mb = out.peak_rss_mb.unwrap_or_else(peak_rss_mb);
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.named("error_rate", error_rate);
    if out.attempted == 0 {
        out.fail("the workload attempted nothing".into());
    }

    let lat_n: usize = out.latency_ms.iter().map(Vec::len).sum();
    let smallest = out.latency_ms.iter().map(Vec::len).min().unwrap_or(0);
    let tail_p = stats::tail_percentile(smallest, out.tail_p);
    if tail_p < out.tail_p {
        out.notes.push(format!(
            "only {smallest} latency samples in a window: tail reported at p{tail_p}, not p{}",
            out.tail_p
        ));
    }
    let windowed = |p: f64| {
        let per: Vec<f64> = out
            .latency_ms
            .iter()
            .map(|w| stats::percentile(w, p))
            .collect();
        stats::median(&per)
    };
    let e2e: BTreeMap<&str, f64> = [
        ("setup_s", stats::median(&out.setup_s)),
        ("ops_per_s", stats::median(&out.ops_per_s)),
        ("op_p50_ms", windowed(50.0)),
        ("peak_rss_mb", peak_rss_mb),
        ("qubits_total", out.qubits_total),
    ]
    .into_iter()
    .collect();

    out.named("op_tail_ms", windowed(tail_p));

    // Per-layer metrics: every name, zero where the workload has none.
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    for name in per_layer_names() {
        layers.insert(name, 0.0);
    }
    for (name, value) in &out.named {
        layers.insert(format!("e2e.{name}"), *value);
    }
    for (k, v) in &out.layers {
        assert!(
            layers.contains_key(k),
            "per-layer metric '{k}' is missing from per_layer_names()"
        );
        layers.insert(k.clone(), *v);
    }

    let host = [
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .to_string(),
        ),
        ("rustc", command_line("rustc", &["-V"])),
        ("commit", command_line("git", &["rev-parse", "HEAD"])),
    ];
    let run = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("held_out_seed", (args.seed == HELD_OUT_SEED).to_string()),
        ("seconds", args.seconds.as_secs().to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("repetitions", out.repetitions.to_string()),
        ("setup_repetitions", out.setup_s.len().to_string()),
        ("threads", THREADS.to_string()),
        ("latency_samples", lat_n.to_string()),
        ("latency_windows", out.latency_ms.len().to_string()),
        ("tail_percentile", tail_p.to_string()),
        ("op", out.op_unit.to_string()),
        ("wall_s", format!("{:.3}", started.elapsed().as_secs_f64())),
    ];

    // Human-readable report on stderr.
    let mut err = String::new();
    err.push_str(&format!(
        "== perfbench {} seed={} trace={} ==\n",
        args.workload, args.seed, args.trace as u8
    ));
    for (k, v) in host.iter().chain(run.iter()) {
        err.push_str(&format!("  {k:<18} {v}\n"));
    }
    err.push_str("end-to-end (median [q1, q3] over repetitions):\n");
    let spread = |v: &[f64]| {
        let (q1, m, q3) = stats::quartiles(v);
        format!("{m:.4} [{q1:.4}, {q3:.4}]")
    };
    for (name, unit) in END_TO_END {
        let detail = match name {
            "setup_s" => spread(&out.setup_s),
            "ops_per_s" => spread(&out.ops_per_s),
            _ => format!("{:.4}", e2e[name]),
        };
        err.push_str(&format!("  {name:<18} {detail} {unit}\n"));
    }
    for (name, value) in &out.named {
        err.push_str(&format!("  {name:<26} {value:.6} {}\n", named_unit(name)));
    }
    if args.trace {
        err.push_str("per-layer:\n");
        for (k, v) in &layers {
            if *v != 0.0 {
                err.push_str(&format!("  {k:<40} {v:.6}\n"));
            }
        }
    }
    for n in &out.notes {
        err.push_str(&format!("  note: {n}\n"));
    }
    eprint!("{err}");

    // The contract line.
    let metrics: Vec<String> = if args.trace {
        layers
            .iter()
            .map(|(k, v)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(k),
                    json_num(*v),
                    json_str(layer_unit(k))
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(k, unit)| {
                format!(
                    "\"{k}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(e2e[k])
                )
            })
            .collect()
    };
    let line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    );

    // Full report and spans under .bench_out/ in the working directory.
    let dir = std::path::Path::new(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let mut report = String::from("{");
    let kv = |pairs: &[(&str, String)]| {
        pairs
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(",")
    };
    report.push_str(&format!("\"host\":{{{}}},", kv(&host)));
    report.push_str(&format!("\"run\":{{{}}},", kv(&run)));
    let named_json: Vec<String> = out
        .named
        .iter()
        .map(|(k, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(k),
                json_num(*v),
                json_str(named_unit(k))
            )
        })
        .collect();
    report.push_str(&format!("\"named\":{{{}}},", named_json.join(",")));
    let list = |v: &[f64]| v.iter().map(|x| json_num(*x)).collect::<Vec<_>>().join(",");
    report.push_str(&format!(
        "\"repetitions\":{{\"setup_s\":[{}],\"ops_per_s\":[{}]}},",
        list(&out.setup_s),
        list(&out.ops_per_s)
    ));
    report.push_str(&format!(
        "\"notes\":[{}],",
        out.notes
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(",")
    ));
    report.push_str(&format!("\"result\":{line}}}"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), &report))
        .and_then(|()| match out.epoch {
            Some(epoch) if args.trace => {
                trace::write_jsonl(&dir.join(format!("{stem}.spans.jsonl")), epoch, &out.spans)
            }
            _ => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write .bench_out/{stem}.*: {e}");
    }

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let _ = writeln!(lock, "{line}");
    let _ = lock.flush();
    ExitCode::SUCCESS
}

/// Unit of a named end-to-end metric.
fn named_unit(name: &str) -> &'static str {
    NAMED
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("count", |(_, u)| u)
}

/// Unit of a per-layer metric, from its name.
fn layer_unit(k: &str) -> &'static str {
    if let Some(n) = k.strip_prefix("e2e.") {
        named_unit(n)
    } else if k.ends_with("_ms") || k.contains("_ms.") {
        "ms"
    } else if k.ends_with("_us") {
        "us"
    } else if k.contains("ratio") || k.starts_with("self_share.") || k == "tracing_overhead" {
        "ratio"
    } else if k.contains("_rps") {
        "1/s"
    } else if k.starts_with("wire.bytes") {
        "bytes"
    } else if k.ends_with("_per_req") {
        "1/req"
    } else {
        "count"
    }
}
