//! Criterion benches of compiler-pass cost (the paper's §3.4 overhead
//! analysis): reuse analysis, the regular QS sweep, the commuting
//! scheduler under both matchers, and the two routers.

use caqr::analysis::ReuseAnalysis;
use caqr::commuting::{schedule, CommutingSpec, Matcher};
use caqr::router::{route, RouterOptions};
use caqr::{baseline, qs, sr};
use caqr_arch::Device;
use caqr_benchmarks::qaoa::{maxcut_circuit, GraphKind};
use caqr_benchmarks::{bv, revlib};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("reuse_analysis");
    for n in [10usize, 20, 40] {
        let circuit = bv::bv_all_ones(n).circuit;
        group.bench_with_input(BenchmarkId::new("bv", n), &circuit, |b, circuit| {
            b.iter(|| {
                let a = ReuseAnalysis::of(black_box(circuit));
                black_box(a.candidate_pairs().len())
            })
        });
    }
    group.finish();
}

/// The full regular QS sweep on the circuits whose backtracking search
/// runs its state budget dry (Multiply_13 both phases, BV_10 the quality
/// phase), under Mumbai's logical durations as `fig13_qs_regular` uses.
fn bench_qs_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("qs_regular_sweep");
    group.sample_size(10);
    let durations = Device::mumbai(1).logical_duration_model();
    for bench in [revlib::multiply_13(), bv::bv_all_ones(10)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(&bench.name),
            &bench.circuit,
            |b, circuit| b.iter(|| black_box(qs::regular::sweep(black_box(circuit), &durations))),
        );
    }
    group.finish();
}

fn bench_commuting_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("commuting_scheduler");
    for n in [16usize, 32] {
        let graph = GraphKind::Random.generate(n, 0.3, 7);
        let spec = CommutingSpec::from_circuit(&maxcut_circuit(&graph, &[(0.7, 0.3)])).unwrap();
        for (label, matcher) in [("blossom", Matcher::Blossom), ("greedy", Matcher::Greedy)] {
            group.bench_with_input(BenchmarkId::new(label, n), &spec, |b, spec| {
                b.iter(|| black_box(schedule(black_box(spec), &[], matcher)))
            });
        }
    }
    group.finish();
}

fn bench_routers(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    let device = Device::mumbai(1);
    for bench in [bv::bv_all_ones(10), revlib::multiply_13()] {
        group.bench_with_input(
            BenchmarkId::new("baseline", &bench.name),
            &bench.circuit,
            |b, circuit| b.iter(|| black_box(baseline::compile(black_box(circuit), &device))),
        );
        group.bench_with_input(
            BenchmarkId::new("sr", &bench.name),
            &bench.circuit,
            |b, circuit| b.iter(|| black_box(sr::compile(black_box(circuit), &device))),
        );
    }
    group.finish();
}

fn bench_route_engine_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("route_scaling");
    group.sample_size(10);
    for n in [32usize, 64] {
        let graph = GraphKind::Random.generate(n, 0.3, 7);
        let circuit = maxcut_circuit(&graph, &[(0.7, 0.3)]);
        let device = Device::scaled_heavy_hex(n, 1);
        group.bench_with_input(BenchmarkId::new("qaoa", n), &circuit, |b, circuit| {
            b.iter(|| {
                black_box(route(
                    black_box(circuit),
                    &device,
                    RouterOptions::baseline(),
                ))
            })
        });
    }
    group.finish();
}

fn bench_transform_and_width(c: &mut Criterion) {
    use caqr::analysis::ReusePair;
    use caqr::transform::{self, ReusePlan};
    use caqr::width;
    use caqr_circuit::Qubit;

    let mut group = c.benchmark_group("transform");
    let circuit = bv::bv_all_ones(16).circuit;
    let plan =
        ReusePlan::from_pairs((0..10).map(|i| ReusePair::new(Qubit::new(i), Qubit::new(i + 1))));
    group.bench_function("apply_10_pairs_bv16", |b| {
        b.iter(|| black_box(transform::apply(black_box(&circuit), &plan)))
    });
    group.bench_function("live_width_bv16", |b| {
        b.iter(|| black_box(width::live_width(black_box(&circuit))))
    });
    let graph = GraphKind::Random.generate(14, 0.3, 3);
    group.bench_function("exact_pathwidth_14", |b| {
        b.iter(|| black_box(caqr_graph::pathwidth::exact(black_box(&graph))))
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    use caqr_sim::Executor;
    let mut group = c.benchmark_group("simulator");
    group.sample_size(20);
    for n in [10usize, 14] {
        let circuit = bv::bv_all_ones(n).circuit;
        group.bench_with_input(BenchmarkId::new("bv_100_shots", n), &circuit, |b, c| {
            b.iter(|| black_box(Executor::ideal().run_shots(black_box(c), 100, 7)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_analysis,
    bench_qs_sweep,
    bench_commuting_scheduler,
    bench_routers,
    bench_route_engine_scaling,
    bench_transform_and_width,
    bench_simulator
);
criterion_main!(benches);
