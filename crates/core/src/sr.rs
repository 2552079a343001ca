//! SR-CaQR: SWAP reduction and fidelity through dynamic-circuit-aware
//! mapping (§3.3).
//!
//! SR-CaQR assumes qubits are plentiful and instead optimizes the compiled
//! circuit: it delays off-critical gates so fresh logical qubits can map
//! onto *reclaimed* physical qubits close to their partners (avoiding
//! SWAPs), chooses physical qubits by error variability, and saves qubits
//! as a side effect. The commuting-gate variant first imposes a partial
//! gate order using QS-CaQR's sweet-spot reuse pairs (§3.3.2 Step 1), then
//! runs the same mapper.
//!
//! Every candidate version is routed under two policies; each candidate
//! circuit gets one shared [`AnalysisCache`] so its DAG, interaction
//! graph, and critical-path marks are built once, not once per policy.

use crate::commuting::{CommutingSpec, Matcher};
use crate::error::CaqrError;
use crate::pass::AnalysisCache;
use crate::qs;
use crate::router::{self, CostModelSpec, RoutedProgram, RouterConfig, RouterOptions};
use caqr_arch::Device;
use caqr_circuit::parametric;
use caqr_circuit::Circuit;
use std::cmp::Reverse;

/// The generate-versions-and-select core every SR flow shares: routes
/// each version under its two policies in order (one analysis cache per
/// version, shared by both policies) and keeps the candidate with the
/// lowest `rank`. Ties keep the first candidate, so version and policy
/// order are part of the result. When every version fails to route, the
/// last routing error is returned.
fn select<'c, K: PartialOrd>(
    device: &Device,
    versions: impl IntoIterator<Item = (&'c Circuit, [RouterOptions; 2])>,
    rank: impl Fn(&RoutedProgram) -> K,
) -> Result<RoutedProgram, CaqrError> {
    let mut best: Option<(K, RoutedProgram)> = None;
    let mut last_err = None;
    for (circuit, policies) in versions {
        let mut analyses = AnalysisCache::new();
        for opts in policies {
            match router::route_cached(circuit, device, opts, None, &mut analyses) {
                Ok(routed) => {
                    let key = rank(&routed);
                    if best.as_ref().is_none_or(|(b, _)| key < *b) {
                        best = Some((key, routed));
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
    }
    match best {
        Some((_, routed)) => Ok(routed),
        None => {
            Err(last_err
                .unwrap_or_else(|| CaqrError::internal("version selection saw no candidates")))
        }
    }
}

/// The SWAP-objective ranking: SWAPs (or movement stages), then qubit
/// usage, then depth.
fn swap_rank(r: &RoutedProgram) -> (usize, usize, usize) {
    (
        r.swap_count + r.movement_stages,
        r.physical_qubits_used,
        r.circuit.depth(),
    )
}

/// Compiles a regular circuit with SR-CaQR (§3.3.1): the delay/reclaim
/// mapper routes the original circuit *and* each QS-CaQR sweep point, the
/// eager-placement policy provides the no-reuse reference, and the best
/// compiled version wins — ranked by SWAPs, then qubit usage, then depth.
/// This is the paper's generate-versions-and-select flow; it guarantees
/// SR is never worse than either the baseline or the best QS sweep point
/// on SWAP count.
///
/// # Errors
///
/// Returns [`CaqrError::OutOfQubits`] when no version fits the device.
pub fn compile(circuit: &Circuit, device: &Device) -> Result<RoutedProgram, CaqrError> {
    compile_with(circuit, device, CostModelSpec::Hop)
}

/// [`compile`] under an explicit routing policy — a bare swap-scoring
/// [`CostModelSpec`] or a full [`RouterConfig`] (backend + cost model) —
/// applied to every candidate version under both policies.
///
/// # Errors
///
/// Returns [`CaqrError::OutOfQubits`] when no version fits the device.
pub fn compile_with(
    circuit: &Circuit,
    device: &Device,
    router_config: impl Into<RouterConfig>,
) -> Result<RoutedProgram, CaqrError> {
    let router_config = router_config.into();
    let policies = [
        RouterOptions::sr().with_router(router_config),
        RouterOptions::baseline().with_router(router_config),
    ];
    let points = qs::regular::sweep(circuit, &device.logical_duration_model());
    // The original first; sweep points without reuse repeat it.
    let versions = std::iter::once(circuit)
        .chain(points.iter().filter(|p| p.reuses > 0).map(|p| &p.circuit))
        .map(|c| (c, policies));
    select(device, versions, swap_rank)
}

/// Routes with the delay/reclaim mapper only — the raw §3.3.1 algorithm
/// without version selection, exposed for ablations.
///
/// # Errors
///
/// Returns [`CaqrError::OutOfQubits`] when the circuit cannot fit.
pub fn route_only(circuit: &Circuit, device: &Device) -> Result<RoutedProgram, CaqrError> {
    router::route(circuit, device, RouterOptions::sr())
}

/// SR-CaQR with the *fidelity* objective: the same candidate versions as
/// [`compile`] / [`compile_commuting_with_cost`], ranked by estimated
/// success probability instead of SWAP count. This is the selection the
/// paper's end-to-end fidelity experiments (Table 3, Figs. 15/16)
/// exercise — the reuse level that best balances SWAP savings against
/// the added measure-and-reset duration.
///
/// ESP reads gate types, durations, and calibration — never rotation
/// angles — so for a parametric template
/// ([`ParametricCircuit::circuit`](caqr_circuit::ParametricCircuit::circuit))
/// the chosen version and its routing are valid for **every** binding.
/// The routed circuit still carries the template's slots; stamp concrete
/// angles in with [`parametric::bind_circuit`] (an O(gates) walk).
///
/// # Errors
///
/// Returns [`CaqrError::OutOfQubits`] when no version fits the device.
pub fn compile_for_fidelity(
    circuit: &Circuit,
    device: &Device,
) -> Result<RoutedProgram, CaqrError> {
    let points = match CommutingSpec::from_circuit(circuit) {
        Ok(spec) => qs::commuting::sweep(&spec, default_matcher(&spec)),
        Err(_) => qs::regular::sweep(circuit, &device.logical_duration_model()),
    };
    let versions = std::iter::once((circuit, [RouterOptions::baseline(), RouterOptions::sr()]))
        .chain(
            points
                .iter()
                .map(|p| (&p.circuit, [RouterOptions::sr(), RouterOptions::baseline()])),
        );
    let routed = select(device, versions, |r| {
        Reverse(crate::esp::estimate(&r.circuit, device))
    })?;
    debug_assert!(
        !parametric::has_slots(circuit)
            || parametric::slot_census(&routed.circuit) == parametric::slot_census(circuit),
        "fidelity version selection must preserve the template's slot multiset"
    );
    Ok(routed)
}

/// Compiles a commuting-gate circuit with SR-CaQR (§3.3.2) under an
/// explicit routing policy — a bare swap-scoring [`CostModelSpec`] or a
/// full [`RouterConfig`] — applied to every candidate version under both
/// policies. `spec` is the circuit's precomputed commuting analysis (the
/// pass pipeline's `commuting-analysis` artifact).
///
/// QS-CaQR finds the sweet-spot reuse pairs, those impose the partial
/// gate order, and the dynamic-circuit-aware mapper routes the result.
/// Every reuse level is compiled and the best compiled circuit wins —
/// ranked by SWAPs, then qubit usage, then depth — mirroring the paper's
/// generate-versions-and-select flow.
///
/// # Errors
///
/// Returns [`CaqrError::OutOfQubits`] as for [`compile`].
pub fn compile_commuting_with_cost(
    circuit: &Circuit,
    device: &Device,
    spec: &CommutingSpec,
    router_config: impl Into<RouterConfig>,
) -> Result<RoutedProgram, CaqrError> {
    let router_config = router_config.into();
    let sr = RouterOptions::sr().with_router(router_config);
    let baseline = RouterOptions::baseline().with_router(router_config);
    // Every QS sweep point (scheduler-ordered, 0..max reuse) under both
    // policies — a strict superset of the QS-min-SWAP candidate set, so
    // SR never loses Table 2's comparison by construction.
    let points = qs::commuting::sweep(spec, default_matcher(spec));
    // The untouched input (original gate order) comes first.
    let versions = std::iter::once((circuit, [baseline, sr]))
        .chain(points.iter().map(|p| (&p.circuit, [sr, baseline])));
    select(device, versions, swap_rank)
}

/// Blossom matching for small instances; the §3.4 greedy alternative once
/// instances get large (the paper's own suggested cut-off strategy).
pub fn default_matcher(spec: &CommutingSpec) -> Matcher {
    if spec.num_qubits() <= 24 {
        Matcher::Blossom
    } else {
        Matcher::Greedy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use caqr_circuit::{Clbit, ParametricCircuit, Qubit};
    use caqr_graph::gen;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn bv(n: usize) -> Circuit {
        let data = n - 1;
        let mut c = Circuit::new(n, data);
        for i in 0..data {
            c.h(q(i));
        }
        c.x(q(data));
        c.h(q(data));
        for i in 0..data {
            c.cx(q(i), q(data));
            c.h(q(i));
        }
        for i in 0..data {
            c.measure(q(i), Clbit::new(i));
        }
        c
    }

    fn qaoa_circuit(n: usize, density: f64, seed: u64) -> Circuit {
        let g = gen::random_graph(n, density, seed);
        let mut c = Circuit::new(n, n);
        for v in 0..n {
            c.h(q(v));
        }
        for (u, v) in g.edges() {
            c.rzz(0.6, q(u), q(v));
        }
        for v in 0..n {
            c.rx(0.5, q(v));
        }
        c.measure_all();
        c
    }

    #[test]
    fn sr_beats_baseline_swaps_on_bv10() -> TestResult {
        // The Fig. 4/5 argument at scale: BV's star graph strains the
        // heavy-hex degree-3 coupling; reuse relieves it.
        let dev = Device::mumbai(2);
        let c = bv(10);
        let base = baseline::compile(&c, &dev)?;
        let sr = compile(&c, &dev)?;
        assert!(sr.is_hardware_compliant(&dev));
        assert!(
            sr.swap_count <= base.swap_count,
            "SR {} vs baseline {}",
            sr.swap_count,
            base.swap_count
        );
        assert!(sr.physical_qubits_used <= base.physical_qubits_used);
        Ok(())
    }

    #[test]
    fn sr_preserves_bv_semantics() -> TestResult {
        use caqr_sim::Executor;
        let dev = Device::mumbai(2);
        let r = compile(&bv(6), &dev)?;
        let (compact, _) = r.circuit.compact_qubits();
        let counts = Executor::ideal().run_shots(&compact, 60, 3).marginal(5);
        assert_eq!(counts.get(0b11111), 60, "{counts}");
        Ok(())
    }

    #[test]
    fn commuting_path_compiles_qaoa() -> TestResult {
        let dev = Device::mumbai(3);
        let c = qaoa_circuit(8, 0.3, 5);
        let spec = CommutingSpec::from_circuit(&c).map_err(|e| e.to_string())?;
        let r = compile_commuting_with_cost(&c, &dev, &spec, CostModelSpec::Hop)?;
        assert!(r.is_hardware_compliant(&dev));
        // Version selection guarantees SR is never worse than the no-reuse
        // compilation on SWAPs, and usage stays at or below the baseline
        // (swap-through qubits count as used, so compare compilations).
        let base = baseline::compile(&c, &dev)?;
        assert!(
            r.swap_count <= base.swap_count,
            "SR {} swaps vs baseline {}",
            r.swap_count,
            base.swap_count
        );
        assert!(
            r.physical_qubits_used <= base.physical_qubits_used,
            "SR {} vs baseline {}",
            r.physical_qubits_used,
            base.physical_qubits_used
        );
        Ok(())
    }

    #[test]
    fn matcher_cutoff() -> TestResult {
        let spec =
            CommutingSpec::from_circuit(&qaoa_circuit(8, 0.3, 1)).map_err(|e| e.to_string())?;
        assert_eq!(default_matcher(&spec), Matcher::Blossom);
        let spec =
            CommutingSpec::from_circuit(&qaoa_circuit(30, 0.2, 1)).map_err(|e| e.to_string())?;
        assert_eq!(default_matcher(&spec), Matcher::Greedy);
        Ok(())
    }

    #[test]
    fn fidelity_template_bind_matches_direct_fidelity_compile() -> TestResult {
        // The fig. 15/16 contract: routing the template once and binding
        // angles afterwards must give byte-identical artifacts to running
        // the full fidelity compile on the already-bound circuit.
        let dev = Device::mumbai(4);
        let concrete = qaoa_circuit(8, 0.3, 9);
        let (template, values) = ParametricCircuit::parametrize(&concrete);
        let routed = compile_for_fidelity(template.circuit(), &dev)?;
        let bound = parametric::bind_circuit(&routed.circuit, template.num_slots(), &values)
            .map_err(|e| e.to_string())?;
        let direct = compile_for_fidelity(&concrete, &dev)?;
        assert_eq!(
            bound.fingerprint(),
            direct.circuit.fingerprint(),
            "bound template artifact must equal the direct fidelity compile"
        );
        assert_eq!(routed.physical_qubits_used, direct.physical_qubits_used);
        assert!(!parametric::has_slots(&bound));
        Ok(())
    }
}
