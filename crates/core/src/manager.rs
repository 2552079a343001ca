//! The `PassManager`: runs a named sequence of passes over a
//! [`CompileCtx`], with an observer hook for per-pass instrumentation.
//!
//! Every [`Strategy`] is a declarative recipe — a list of registered pass
//! names — so strategies, CLI `--passes` overrides, and future custom
//! pipelines all flow through the same machinery: one general entry point,
//! [`PassManager::run_observed_cancellable_with`], which records a trace
//! when handed a [`StageTrace`] as its observer.

use crate::cancel::CancelToken;
use crate::error::CaqrError;
use crate::pass::{
    BaselineRoutePass, CommutingAnalysisPass, CompileCtx, OptimizePass, Pass, QsSweepPass,
    ReportPass, RouteSweepPass, SelectObjective, SelectPass, SrRoutePass,
};
use crate::pipeline::{CompileReport, Stage, StageTrace, Strategy};
use crate::router::RouterConfig;
use caqr_arch::Device;
#[cfg(debug_assertions)]
use caqr_circuit::parametric;
use caqr_circuit::Circuit;
use std::time::{Duration, Instant};

/// Instrumentation hook invoked as the pass manager runs.
///
/// `pass_complete` fires after every pass attempt — including a failing
/// one — with the wall time the pass consumed, so a trace survives a
/// mid-pipeline failure with all time attributed.
pub trait PassObserver {
    /// Called once per executed pass, in execution order.
    fn pass_complete(&mut self, name: &'static str, stage: Stage, elapsed: Duration);
}

/// An observer that records nothing.
pub struct NoopObserver;

impl PassObserver for NoopObserver {
    fn pass_complete(&mut self, _name: &'static str, _stage: Stage, _elapsed: Duration) {}
}

impl PassObserver for StageTrace {
    fn pass_complete(&mut self, name: &'static str, stage: Stage, elapsed: Duration) {
        self.record(stage, elapsed);
        self.record_pass(name, elapsed);
    }
}

/// Resolves a registered pass name to a pass instance.
///
/// # Errors
///
/// [`CaqrError::UnknownPass`] when `name` is not in the registry.
pub fn create_pass(name: &str) -> Result<Box<dyn Pass>, CaqrError> {
    Ok(match name {
        "optimize" => Box::new(OptimizePass),
        "commuting-analysis" => Box::new(CommutingAnalysisPass),
        "qs-sweep" => Box::new(QsSweepPass),
        "route-sweep" => Box::new(RouteSweepPass),
        "select-max-reuse" => Box::new(SelectPass {
            objective: SelectObjective::MaxReuse,
        }),
        "select-min-depth" => Box::new(SelectPass {
            objective: SelectObjective::MinDepth,
        }),
        "select-min-swap" => Box::new(SelectPass {
            objective: SelectObjective::MinSwap,
        }),
        "select-max-esp" => Box::new(SelectPass {
            objective: SelectObjective::MaxEsp,
        }),
        "baseline-route" => Box::new(BaselineRoutePass),
        "sr-route" => Box::new(SrRoutePass),
        "report" => Box::new(ReportPass),
        _ => {
            return Err(CaqrError::UnknownPass {
                name: name.to_string(),
            })
        }
    })
}

/// Every pass name the registry resolves, in a stable order (for CLI
/// help text and docs).
pub const REGISTERED_PASSES: [&str; 11] = [
    "optimize",
    "commuting-analysis",
    "qs-sweep",
    "route-sweep",
    "select-max-reuse",
    "select-min-depth",
    "select-min-swap",
    "select-max-esp",
    "baseline-route",
    "sr-route",
    "report",
];

/// An ordered sequence of passes, ready to compile circuits.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// The recipe for `strategy` — the declarative replacement for the
    /// old hard-coded `match` in `compile_stages`.
    pub fn for_strategy(strategy: Strategy) -> Self {
        let names = strategy.pass_names();
        let passes = names
            .iter()
            .map(|n| create_pass(n).expect("strategy recipes only name registered passes"))
            .collect();
        PassManager { passes }
    }

    /// Builds a manager from explicit pass names (the CLI `--passes`
    /// entry point).
    ///
    /// # Errors
    ///
    /// [`CaqrError::UnknownPass`] on the first unresolvable name.
    pub fn from_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Result<Self, CaqrError> {
        let passes = names
            .into_iter()
            .map(create_pass)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PassManager { passes })
    }

    /// The names of the passes this manager will run, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Compiles `circuit` for `device`, labelling the report with
    /// `strategy` — the one general compile path every caller drives
    /// ([`crate::compile`] is its default-policy wrapper).
    ///
    /// * `router_config` — a bare swap-scoring [`CostModelSpec`](crate::router::CostModelSpec)
    ///   (SWAP backend) or a full [`RouterConfig`] choosing the backend
    ///   too: every routing pass in the recipe (baseline route, SR route,
    ///   the sweep router) compiles under it.
    /// * `observer` — sees every executed pass, including the failing one
    ///   with its elapsed time, before the error propagates. Pass a
    ///   [`StageTrace`] to record spans, or [`NoopObserver`].
    /// * `cancel` — checked before every pass: a tripped token (explicit
    ///   cancel or elapsed deadline) stops the pipeline at the next pass
    ///   boundary with [`CaqrError::DeadlineExceeded`] naming the pass
    ///   that would have run. Passes are never interrupted mid-flight, so
    ///   overrun is bounded by the slowest single pass.
    ///
    /// A parametric template compiles through the same path: pass
    /// [`ParametricCircuit::circuit`](caqr_circuit::ParametricCircuit::circuit)
    /// and the report's circuit still carries the slots, one
    /// [`bind_circuit`](caqr_circuit::parametric::bind_circuit) away from
    /// any concrete binding. Whenever the input carries slots, debug
    /// builds audit every pass for angle-independence: after each pass the
    /// working circuit must hold only finite angles and slots below the
    /// input's largest slot id + 1, and the final routed artifact must use
    /// exactly the input's slot multiset (passes may reorder, remap, or
    /// interleave rotations, but never invent, drop, or do arithmetic on a
    /// symbolic angle).
    ///
    /// # Errors
    ///
    /// [`CaqrError::DeadlineExceeded`] on cancellation, otherwise the
    /// first pass failure, or [`CaqrError::MissingArtifact`] if the
    /// sequence finished without producing a report.
    pub fn run_observed_cancellable_with(
        &self,
        circuit: &Circuit,
        device: &Device,
        strategy: Strategy,
        router_config: impl Into<RouterConfig>,
        observer: &mut dyn PassObserver,
        cancel: &CancelToken,
    ) -> Result<CompileReport, CaqrError> {
        #[cfg(debug_assertions)]
        let census = parametric::slot_census(circuit);
        #[cfg(debug_assertions)]
        let slot_bound = census.last().map(|&max| max + 1);
        let mut ctx = CompileCtx::new(circuit.clone(), device, strategy).with_router(router_config);
        for pass in &self.passes {
            cancel.check(pass.name())?;
            let start = Instant::now();
            let result = pass.run(&mut ctx);
            observer.pass_complete(pass.name(), pass.stage(), start.elapsed());
            result?;
            #[cfg(debug_assertions)]
            if let Some(bound) = slot_bound {
                debug_assert!(
                    parametric::validate_angles(ctx.circuit(), bound).is_ok(),
                    "pass '{}' is not angle-independent: {:?}",
                    pass.name(),
                    parametric::validate_angles(ctx.circuit(), bound)
                );
            }
        }
        let report = ctx.report.take().ok_or(CaqrError::MissingArtifact {
            pass: "pass-manager",
            artifact: "compile report",
        })?;
        #[cfg(debug_assertions)]
        if let Some(bound) = slot_bound {
            debug_assert!(
                parametric::validate_angles(&report.circuit, bound).is_ok(),
                "routed template carries a malformed angle"
            );
            debug_assert_eq!(
                parametric::slot_census(&report.circuit),
                census,
                "pipeline changed the template's slot multiset"
            );
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqr_circuit::{Param, Qubit};

    #[test]
    fn every_registered_pass_resolves() {
        for name in REGISTERED_PASSES {
            let pass = create_pass(name).expect("registered pass must resolve");
            assert_eq!(pass.name(), name);
        }
    }

    #[test]
    fn unknown_pass_is_a_typed_error() {
        match create_pass("no-such-pass") {
            Err(CaqrError::UnknownPass { name }) => assert_eq!(name, "no-such-pass"),
            Err(other) => panic!("expected UnknownPass, got {other:?}"),
            Ok(_) => panic!("expected UnknownPass, got a pass"),
        }
    }

    #[test]
    fn strategy_recipes_resolve_and_end_in_report() {
        for strategy in [
            Strategy::Baseline,
            Strategy::QsMaxReuse,
            Strategy::QsMinDepth,
            Strategy::QsMinSwap,
            Strategy::QsMaxEsp,
            Strategy::Sr,
        ] {
            let pm = PassManager::for_strategy(strategy);
            let names = pm.pass_names();
            assert_eq!(names.first(), Some(&"optimize"), "{strategy}: {names:?}");
            assert_eq!(names.last(), Some(&"report"), "{strategy}: {names:?}");
        }
    }

    fn bell() -> Circuit {
        let mut c = Circuit::new(2, 2);
        c.h(Qubit::new(0));
        c.cx(Qubit::new(0), Qubit::new(1));
        c.measure_all();
        c
    }

    /// A two-slot template: `rzz($0)` then `rx($1)`.
    fn template() -> Circuit {
        let mut c = Circuit::new(2, 2);
        c.h(Qubit::new(0));
        c.rzz(Param::Slot(0).to_raw(), Qubit::new(0), Qubit::new(1));
        c.rx(Param::Slot(1).to_raw(), Qubit::new(1));
        c.measure_all();
        c
    }

    fn line(n: usize) -> Device {
        Device::with_synthetic_calibration(caqr_arch::Topology::line(n), 7)
    }

    fn compile_on(
        pm: &PassManager,
        circuit: &Circuit,
        cancel: &CancelToken,
    ) -> Result<CompileReport, CaqrError> {
        pm.run_observed_cancellable_with(
            circuit,
            &line(4),
            Strategy::QsMaxReuse,
            RouterConfig::default(),
            &mut NoopObserver,
            cancel,
        )
    }

    #[test]
    fn cancelled_token_stops_before_the_first_pass() {
        let pm = PassManager::for_strategy(Strategy::QsMaxReuse);
        let token = CancelToken::new();
        token.cancel();
        // Concrete and template inputs stop at the same boundary.
        for circuit in [bell(), template()] {
            assert_eq!(
                compile_on(&pm, &circuit, &token).unwrap_err(),
                CaqrError::DeadlineExceeded { phase: "optimize" }
            );
            // An untripped token compiles normally.
            assert!(compile_on(&pm, &circuit, &CancelToken::new()).is_ok());
        }
    }

    /// A test-only pass that breaks angle-independence on the first slot
    /// rotation: `Corrupt` overwrites the slot with a plain NaN (what
    /// arithmetic on a NaN-boxed slot produces), `Drop` deletes the gate.
    #[cfg(debug_assertions)]
    enum SlotVandal {
        Corrupt,
        Drop,
    }

    #[cfg(debug_assertions)]
    impl Pass for SlotVandal {
        fn name(&self) -> &'static str {
            "slot-vandal"
        }

        fn stage(&self) -> Stage {
            Stage::Optimize
        }

        fn run(&self, ctx: &mut CompileCtx<'_>) -> Result<(), CaqrError> {
            let source = ctx.circuit();
            let mut out = Circuit::new(source.num_qubits(), source.num_clbits());
            let mut hit = false;
            for instr in source {
                if !hit && instr.gate.param().is_some_and(Param::is_slot) {
                    hit = true;
                    match self {
                        SlotVandal::Corrupt => {
                            let mut bad = instr.clone();
                            bad.gate = instr.gate.with_angle(f64::NAN).expect("slot gate");
                            out.push(bad);
                        }
                        SlotVandal::Drop => {}
                    }
                    continue;
                }
                out.push(instr.clone());
            }
            ctx.replace_circuit(out);
            Ok(())
        }
    }

    #[cfg(debug_assertions)]
    fn vandalized(vandal: SlotVandal) -> PassManager {
        let mut pm = PassManager::for_strategy(Strategy::Baseline);
        pm.passes.insert(1, Box::new(vandal));
        pm
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pass 'slot-vandal' is not angle-independent")]
    fn audit_catches_a_corrupted_slot() {
        let _ = compile_on(
            &vandalized(SlotVandal::Corrupt),
            &template(),
            &CancelToken::new(),
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pipeline changed the template's slot multiset")]
    fn audit_catches_a_dropped_slot() {
        let _ = compile_on(
            &vandalized(SlotVandal::Drop),
            &template(),
            &CancelToken::new(),
        );
    }

    /// The audit keys on the input: a concrete circuit is never audited,
    /// so the same vandal pass runs through without a slot to touch.
    #[cfg(debug_assertions)]
    #[test]
    fn audit_ignores_concrete_inputs() {
        let pm = vandalized(SlotVandal::Corrupt);
        assert!(compile_on(&pm, &bell(), &CancelToken::new()).is_ok());
    }

    #[test]
    fn from_names_rejects_unknown() {
        assert!(matches!(
            PassManager::from_names(["optimize", "bogus"]),
            Err(CaqrError::UnknownPass { .. })
        ));
        let pm =
            PassManager::from_names(["optimize", "baseline-route", "report"]).expect("valid names");
        assert_eq!(pm.pass_names().len(), 3);
    }
}
