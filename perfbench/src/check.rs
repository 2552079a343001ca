//! Output checks shared by the workloads.

use std::collections::BTreeMap;

use caqr_arch::Device;
use caqr_circuit::{Circuit, Gate};
use caqr_sim::exact;

/// Widest circuit (after compaction) whose exact distribution is
/// computed; wider outputs are counted as unchecked, never as passing.
pub const EXACT_MAX_WIDTH: usize = 18;

/// `caqr_sim::exact` keeps one state vector per live measurement
/// branch, so its memory is up to `2^(width + branch points)` amplitudes
/// (16 bytes each, twice over while a layer is expanded). Circuits whose
/// bound exceeds `2^22` amplitudes (128 MiB) are not simulated.
const EXACT_MAX_LOG_AMPLITUDES: usize = 22;

/// Distributions closer than this in total variation are equal.
const EXACT_TOLERANCE: f64 = 1e-6;

/// An exact output distribution over the low `clbits` classical bits.
pub type Dist = BTreeMap<u64, f64>;

/// Result of comparing a compiled circuit with its source.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Same output distribution.
    Equal,
    /// Different distributions (total variation distance given).
    Differs(f64),
    /// Too wide to simulate exactly.
    Unchecked,
}

/// The exact distribution of `circuit` marginalized to its first
/// `clbits` classical bits, or `None` when it is too wide or branches
/// past the exact simulator's limit.
pub fn exact_dist(circuit: &Circuit, clbits: usize) -> Option<Dist> {
    if circuit.num_qubits() > EXACT_MAX_WIDTH
        || circuit.num_qubits() + branch_points(circuit) > EXACT_MAX_LOG_AMPLITUDES
    {
        return None;
    }
    let mask = if clbits >= 64 {
        u64::MAX
    } else {
        (1u64 << clbits) - 1
    };
    let mut out = Dist::new();
    for (value, p) in exact::distribution(circuit).ok()? {
        *out.entry(value & mask).or_default() += p;
    }
    Some(out)
}

/// Instructions that may split a branch in `caqr_sim::exact`: every
/// measurement before the terminal measurement suffix, and every reset
/// not directly preceded by a measurement of its qubit (a reset right
/// after a measurement acts on a projected, definite state).
fn branch_points(circuit: &Circuit) -> usize {
    let instrs = circuit.instructions();
    let suffix = instrs
        .iter()
        .rev()
        .take_while(|i| i.gate == Gate::Measure)
        .count();
    let mut last_was_measure = vec![false; circuit.num_qubits()];
    let mut points = 0;
    for i in &instrs[..instrs.len() - suffix] {
        match i.gate {
            Gate::Measure => points += 1,
            Gate::Reset if !last_was_measure[i.qubits[0].index()] => points += 1,
            _ => {}
        }
        for q in &i.qubits {
            last_was_measure[q.index()] = i.gate == Gate::Measure;
        }
    }
    points
}

/// Total variation distance between two distributions.
pub fn tvd(a: &Dist, b: &Dist) -> f64 {
    let mut keys: Vec<u64> = a.keys().chain(b.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    0.5 * keys
        .iter()
        .map(|k| (a.get(k).unwrap_or(&0.0) - b.get(k).unwrap_or(&0.0)).abs())
        .sum::<f64>()
}

/// Compares a compiled (physical, possibly reused) circuit with the
/// exact distribution of its source over the source's classical bits.
/// The compiled circuit is compacted onto the wires it uses first.
pub fn against_source(source: Option<&Dist>, compiled: &Circuit, clbits: usize) -> Verdict {
    let Some(source) = source else {
        return Verdict::Unchecked;
    };
    let (compact, _) = compiled.compact_qubits();
    match exact_dist(&compact, clbits) {
        None => Verdict::Unchecked,
        Some(out) => match tvd(source, &out) {
            d if d <= EXACT_TOLERANCE => Verdict::Equal,
            d => Verdict::Differs(d),
        },
    }
}

/// Whether every two-qubit gate acts on a coupled pair of `device`.
pub fn uses_coupled_pairs(circuit: &Circuit, device: &Device) -> bool {
    let topo = device.topology();
    circuit
        .iter()
        .filter(|i| i.is_two_qubit())
        .all(|i| topo.are_coupled(i.qubits[0].index(), i.qubits[1].index()))
}
