//! Scoring single-pair reductions from one analysis of the parent state.
//!
//! The regular QS-CaQR search (§3.2.1) ranks every valid reuse pair
//! `d -> r` of a search state by the makespan of the circuit the pair
//! produces and, in its feasibility phase, by how many reuse pairs that
//! circuit keeps. Applying one pair (see [`crate::transform`]) inserts the
//! dummy node `D` — a measure when the donor's last instruction is not
//! one, then a conditional X — on the donor's wire between the donor's
//! last gate and the receiver's first. Everything about the child follows
//! from the parent:
//!
//! * **Instruction order.** The transform emits the smallest-index-first
//!   Kahn order of the parent DAG plus `D`, and `D` has the highest index.
//!   That order is every instruction *not* downstream of the receiver's
//!   first gate, in program order, then `D`, then the downstream ones in
//!   program order. Signatures are hashed from this walk, and a child
//!   circuit is built from it only when the search enters the child.
//! * **Makespan.** The child DAG is the parent's plus the path
//!   `last(d) -> D -> first(r)`, so its makespan is
//!   `max(M, finish[last(d)] + duration(D) + tail[first(r)])`.
//! * **Surviving pairs.** With `R(x, y)` the parent's qubit reach ("a gate
//!   on `x` reaches a gate on `y`"), the child's is
//!   `R(x, y) or (R(x, d) and R(r, y))`, with the merged wire's row and
//!   column the union of `d`'s and `r`'s.
//!
//! One case breaks the closed forms: when the donor's last instruction is
//! a measure whose clbit a later instruction also reads or writes, `D`'s
//! conditional X joins that clbit's chain wherever the walk lands it, which
//! can add dependence edges. Those candidates are built and scheduled.
//!
//! Durations are looked up on the parent's instructions, so the duration
//! model must depend on what an instruction is, not on which wire it runs
//! (true of the logical models the search runs under).

use crate::analysis::{ReuseAnalysis, ReusePair};
use caqr_circuit::depth::{DurationModel, Schedule};
use caqr_circuit::{Circuit, Clbit, Gate, Instruction, Qubit};
use caqr_graph::BitSet;
use std::hash::{Hash, Hasher};

/// One scored reduction of a search state.
#[derive(Debug, Clone, Copy)]
pub(super) struct Candidate {
    /// The reuse pair to apply.
    pub pair: ReusePair,
    /// Makespan of the circuit the pair produces.
    pub makespan: u64,
    /// Valid reuse pairs of that circuit (0 unless asked for).
    pub surviving: usize,
}

/// The dummy node `D` a donor would hand its wire over with.
struct Handoff {
    /// `[measure,] cond_x`, on the donor in the parent's numbering.
    instrs: Vec<Instruction>,
    /// Total duration of `instrs`.
    duration: u64,
    /// The donor's final measure writes a clbit a later instruction also
    /// uses: the closed forms do not apply.
    shared_clbit: bool,
}

/// A search state analyzed once: what every candidate's score needs.
pub(super) struct Parent<'c> {
    circuit: &'c Circuit,
    analysis: ReuseAnalysis,
    /// ASAP finish time of each instruction.
    finish: Vec<u64>,
    /// Longest weighted path starting at each instruction (inclusive).
    tail: Vec<u64>,
    makespan: u64,
    /// `reached_by[x] = { y | R(y, x) }`: the receivers Condition 2 rules
    /// out for donor `x`. Condition 1 needs no row of its own, since two
    /// qubits sharing a gate reach each other.
    reached_by: Vec<BitSet>,
    active: BitSet,
    /// Per qubit, `None` when idle.
    handoffs: Vec<Option<Handoff>>,
}

impl<'c> Parent<'c> {
    /// Analyzes one search state.
    ///
    /// # Panics
    ///
    /// Panics if any duration is zero.
    pub(super) fn of(circuit: &'c Circuit, durations: &impl DurationModel) -> Self {
        let analysis = ReuseAnalysis::of(circuit);
        let (finish, tail) = longest_paths(circuit, durations);
        let makespan = finish.iter().copied().max().unwrap_or(0);
        let n = circuit.num_qubits();
        let mut reached_by = vec![BitSet::new(n); n];
        let mut active = BitSet::new(n);
        for x in 0..n {
            let q = Qubit::new(x);
            if analysis.is_active(q) {
                active.insert(x);
            }
            for y in analysis.reach(q).iter() {
                reached_by[y].insert(x);
            }
        }
        let handoffs = handoffs(circuit, &analysis, durations);
        Parent {
            circuit,
            analysis,
            finish,
            tail,
            makespan,
            reached_by,
            active,
            handoffs,
        }
    }

    /// Every valid pair of the state, scored, ascending by pair. The
    /// surviving-pair count is computed only when `count_surviving`.
    ///
    /// Debug builds check each score, the streamed signature and the
    /// streamed child against the child [`crate::transform::apply`] builds.
    pub(super) fn candidates(
        &self,
        durations: &impl DurationModel,
        count_surviving: bool,
    ) -> Vec<Candidate> {
        self.analysis
            .candidate_pairs()
            .into_iter()
            .map(|pair| {
                let candidate = self.score(pair, durations, count_surviving);
                if cfg!(debug_assertions) {
                    self.check_against_transform(candidate, durations, count_surviving);
                }
                candidate
            })
            .collect()
    }

    /// Scores one valid pair: closed forms, or build-and-schedule for a
    /// donor whose final measure's clbit is used again later.
    fn score(
        &self,
        pair: ReusePair,
        durations: &impl DurationModel,
        count_surviving: bool,
    ) -> Candidate {
        let (makespan, surviving) = if self.handoff(pair.donor).shared_clbit {
            let child = self.child(pair).build();
            let surviving = if count_surviving {
                ReuseAnalysis::of(&child).candidate_pairs().len()
            } else {
                0
            };
            (Schedule::asap(&child, durations).makespan(), surviving)
        } else {
            let surviving = if count_surviving {
                self.surviving(pair)
            } else {
                0
            };
            (self.makespan_after(pair), surviving)
        };
        Candidate {
            pair,
            makespan,
            surviving,
        }
    }

    /// The child's makespan: the parent's, or the longest path through
    /// `D`, whichever is longer.
    fn makespan_after(&self, pair: ReusePair) -> u64 {
        let last_d = *self
            .analysis
            .gates_on(pair.donor)
            .last()
            .expect("candidate donors are active");
        let first_r = self.analysis.gates_on(pair.receiver)[0];
        let handoff = self.handoff(pair.donor).duration;
        self.makespan
            .max(self.finish[last_d] + handoff + self.tail[first_r])
    }

    /// The number of valid reuse pairs in the child of `pair`, from the
    /// parent's qubit reach. Child wires are named by parent qubit; the
    /// merged wire keeps the donor's index.
    fn surviving(&self, pair: ReusePair) -> usize {
        let (d, r) = (pair.donor.index(), pair.receiver.index());
        let receiver_reach = self.analysis.reach(pair.receiver);
        let mut wires = self.active.clone();
        wires.remove(r);
        wires
            .iter()
            .map(|x| {
                // Receivers ruled out for donor wire x in the child.
                let mut blocked = self.reached_by[x].clone();
                if x == d {
                    blocked.union_with(&self.reached_by[r]);
                } else if receiver_reach.contains(x) {
                    blocked.union_with(&self.reached_by[d]);
                }
                if blocked.remove(r) {
                    blocked.insert(d);
                }
                blocked.insert(x);
                wires.difference_len(&blocked)
            })
            .sum()
    }

    fn handoff(&self, donor: Qubit) -> &Handoff {
        self.handoffs[donor.index()]
            .as_ref()
            .expect("candidate donors are active")
    }

    /// The child of `pair`, described against this state: wire
    /// assignment, register sizes, and which instructions wait for `D`.
    pub(super) fn child(&self, pair: ReusePair) -> Child<'_> {
        let n = self.circuit.num_qubits();
        let (d, r) = (pair.donor.index(), pair.receiver.index());
        // Wires in order of each root's first active qubit, as the
        // transform numbers them.
        let mut wire_index: Vec<Option<usize>> = vec![None; n];
        let mut wire_of = vec![0; n];
        let mut num_wires = 0;
        for q in self.active.iter() {
            let root = if q == r { d } else { q };
            wire_of[q] = *wire_index[root].get_or_insert_with(|| {
                num_wires += 1;
                num_wires - 1
            });
        }
        // Everything the receiver's first gate reaches waits for D: an
        // instruction is downstream once one of its wires has carried a
        // downstream instruction.
        let first_r = self.analysis.gates_on(pair.receiver)[0];
        let mut downstream = vec![false; self.circuit.len()];
        let mut tainted = vec![false; n + self.circuit.num_clbits()];
        for (v, instr) in self.circuit.iter().enumerate().skip(first_r) {
            if v == first_r || instr.wires(n).any(|w| tainted[w]) {
                downstream[v] = true;
                for w in instr.wires(n) {
                    tainted[w] = true;
                }
            }
        }
        let handoff = &self.handoff(pair.donor).instrs;
        Child {
            parent: self.circuit,
            handoff,
            num_qubits: num_wires.max(1),
            // A fresh measure (the two-instruction handoff) adds a clbit.
            num_clbits: self.circuit.num_clbits() + handoff.len() - 1,
            wire_of,
            downstream,
        }
    }

    /// Asserts a candidate's score, streamed signature and streamed child
    /// against the child the transform builds.
    fn check_against_transform(
        &self,
        candidate: Candidate,
        durations: &impl DurationModel,
        count_surviving: bool,
    ) {
        use crate::transform::{self, ReusePlan};
        let pair = candidate.pair;
        let built = transform::apply(self.circuit, &ReusePlan::from_pairs([pair]))
            .expect("valid pairs apply cleanly")
            .circuit;
        let child = self.child(pair);
        // Fingerprints, not `==`: template angle slots are NaN payloads.
        assert_eq!(
            child.build().fingerprint(),
            built.fingerprint(),
            "streamed child of {pair}"
        );
        assert_eq!(
            child.signature(),
            circuit_signature(&built),
            "streamed signature of {pair}"
        );
        assert_eq!(
            candidate.makespan,
            Schedule::asap(&built, durations).makespan(),
            "makespan of {pair}"
        );
        if count_surviving {
            assert_eq!(
                candidate.surviving,
                ReuseAnalysis::of(&built).candidate_pairs().len(),
                "surviving pairs of {pair}"
            );
        }
    }
}

/// ASAP finish times and tails (longest path starting at each
/// instruction, inclusive), in one sweep each way over the wires: an
/// instruction's DAG neighbours are the previous and next instructions on
/// its wires.
///
/// # Panics
///
/// Panics if any duration is zero.
fn longest_paths(circuit: &Circuit, durations: &impl DurationModel) -> (Vec<u64>, Vec<u64>) {
    let weights: Vec<u64> = circuit
        .iter()
        .map(|i| {
            let d = durations.duration(i);
            assert!(d > 0, "instruction duration must be positive");
            d
        })
        .collect();
    let n = circuit.num_qubits();
    let num_wires = n + circuit.num_clbits();
    let mut finish = vec![0u64; circuit.len()];
    let mut wire_free = vec![0u64; num_wires];
    for (v, instr) in circuit.iter().enumerate() {
        finish[v] = instr.wires(n).map(|x| wire_free[x]).max().unwrap_or(0) + weights[v];
        for x in instr.wires(n) {
            wire_free[x] = finish[v];
        }
    }
    let mut tail = vec![0u64; circuit.len()];
    let mut wire_tail = vec![0u64; num_wires];
    for (v, instr) in circuit.iter().enumerate().rev() {
        tail[v] = instr.wires(n).map(|x| wire_tail[x]).max().unwrap_or(0) + weights[v];
        for x in instr.wires(n) {
            wire_tail[x] = tail[v];
        }
    }
    (finish, tail)
}

/// Each active qubit's handoff `D`, as the transform would emit it.
fn handoffs(
    circuit: &Circuit,
    analysis: &ReuseAnalysis,
    durations: &impl DurationModel,
) -> Vec<Option<Handoff>> {
    let mut last_clbit_use = vec![0usize; circuit.num_clbits()];
    for (idx, instr) in circuit.iter().enumerate() {
        for c in instr.clbit.iter().chain(instr.condition.iter()) {
            last_clbit_use[c.index()] = idx;
        }
    }
    (0..circuit.num_qubits())
        .map(|x| {
            let donor = Qubit::new(x);
            let last = *analysis.gates_on(donor).last()?;
            let last_instr = &circuit.instructions()[last];
            let (clbit, fresh) = match (last_instr.gate, last_instr.clbit) {
                (Gate::Measure, Some(c)) => (c, false),
                _ => (Clbit::new(circuit.num_clbits()), true),
            };
            let mut instrs = Vec::with_capacity(2);
            if fresh {
                instrs.push(measure(donor, clbit));
            }
            instrs.push(cond_x(donor, clbit));
            Some(Handoff {
                duration: instrs.iter().map(|i| durations.duration(i)).sum(),
                shared_clbit: !fresh && last_clbit_use[clbit.index()] > last,
                instrs,
            })
        })
        .collect()
}

/// The child of one pair, described against its parent.
pub(super) struct Child<'a> {
    parent: &'a Circuit,
    /// `D`'s instructions.
    handoff: &'a [Instruction],
    num_qubits: usize,
    num_clbits: usize,
    /// Parent qubit -> child wire (the receiver shares the donor's wire).
    wire_of: Vec<usize>,
    /// Instructions reachable from the receiver's first gate.
    downstream: Vec<bool>,
}

impl Child<'_> {
    /// The child's signature, hashed from the walk without building it.
    pub(super) fn signature(&self) -> u64 {
        signature(self.num_qubits, self.walk(), &self.wire_of)
    }

    /// Builds the child — the circuit `transform::apply(parent, [pair])`
    /// produces.
    pub(super) fn build(&self) -> Circuit {
        let mut out = Circuit::new(self.num_qubits, self.num_clbits);
        for instr in self.walk() {
            let mut mapped = instr.clone();
            for q in &mut mapped.qubits {
                *q = Qubit::new(self.wire_of[q.index()]);
            }
            out.push(mapped);
        }
        out
    }

    /// The child's instructions in emission order, in the parent's qubit
    /// numbering.
    fn walk(&self) -> impl Iterator<Item = &Instruction> {
        let flagged = || self.parent.iter().zip(&self.downstream);
        let upstream = flagged().filter(|(_, &down)| !down).map(|(i, _)| i);
        let downstream = flagged().filter(|(_, &down)| down).map(|(i, _)| i);
        upstream.chain(self.handoff).chain(downstream)
    }
}

fn measure(q: Qubit, c: Clbit) -> Instruction {
    Instruction {
        gate: Gate::Measure,
        qubits: vec![q],
        clbit: Some(c),
        condition: None,
    }
}

fn cond_x(q: Qubit, c: Clbit) -> Instruction {
    Instruction {
        gate: Gate::X,
        qubits: vec![q],
        clbit: None,
        condition: Some(c),
    }
}

/// A canonical signature of an instruction stream, used to prune search
/// states: distinct pair orders that merge the same wires produce the same
/// instruction sequence. `wire_of` maps the instructions' qubit indices to
/// output wires.
fn signature<'a>(
    num_qubits: usize,
    instrs: impl Iterator<Item = &'a Instruction>,
    wire_of: &[usize],
) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    num_qubits.hash(&mut h);
    for instr in instrs {
        instr.gate.name().hash(&mut h);
        instr.gate.angle().map(f64::to_bits).hash(&mut h);
        for q in &instr.qubits {
            wire_of[q.index()].hash(&mut h);
        }
        instr.clbit.map(|c| c.index()).hash(&mut h);
        instr.condition.map(|c| c.index()).hash(&mut h);
    }
    h.finish()
}

/// [`signature`] of a built circuit.
fn circuit_signature(circuit: &Circuit) -> u64 {
    let identity: Vec<usize> = (0..circuit.num_qubits()).collect();
    signature(circuit.num_qubits(), circuit.iter(), &identity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{self, ReusePlan};
    use caqr_arch::Device;
    use caqr_circuit::depth::UnitDurations;
    use caqr_circuit::CircuitDag;
    use proptest::prelude::*;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    /// A random dynamic circuit: mid-circuit measures into a small clbit
    /// pool (so one clbit is often written twice), conditional X on bits a
    /// later measure may rewrite, and resets.
    fn arb_dynamic_circuit() -> impl Strategy<Value = Circuit> {
        (
            2..7usize,
            1..4usize,
            proptest::collection::vec((0..9u8, 0..64usize, 0..64usize), 1..28),
        )
            .prop_map(|(n, num_clbits, ops)| {
                let mut c = Circuit::new(n, num_clbits);
                for (kind, a, b) in ops {
                    let (qa, qb) = (q(a % n), q(b % n));
                    let bit = Clbit::new(b % num_clbits);
                    match kind {
                        0 => c.h(qa),
                        1 => c.rz(0.1 + a as f64 / 16.0, qa),
                        2 | 3 if qa != qb => c.cx(qa, qb),
                        4 if qa != qb => c.cz(qa, qb),
                        5 | 6 => c.measure(qa, bit),
                        7 => c.cond_x(qa, bit),
                        8 => c.reset(qa),
                        _ => c.x(qa),
                    }
                }
                c
            })
    }

    fn apply_one(circuit: &Circuit, pair: ReusePair) -> Circuit {
        transform::apply(circuit, &ReusePlan::from_pairs([pair]))
            .expect("valid pairs apply cleanly")
            .circuit
    }

    /// Every score, signature and streamed child of `circuit` against the
    /// child the transform builds.
    fn scores_match_built_children(
        circuit: &Circuit,
        durations: &impl DurationModel,
    ) -> Result<(), String> {
        let state = Parent::of(circuit, durations);
        for candidate in state.candidates(durations, true) {
            let pair = candidate.pair;
            let built = apply_one(circuit, pair);
            let child = state.child(pair);
            prop_assert!(
                candidate.makespan == Schedule::asap(&built, durations).makespan(),
                "makespan of {pair}"
            );
            prop_assert!(
                candidate.surviving == ReuseAnalysis::of(&built).candidate_pairs().len(),
                "surviving pairs of {pair}"
            );
            prop_assert!(
                child.signature() == circuit_signature(&built),
                "signature of {pair}"
            );
            prop_assert!(
                child.build().fingerprint() == built.fingerprint(),
                "streamed child of {pair}"
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Closed-form scores and streamed children equal what building
        /// and scheduling every child gives, under unit and device
        /// durations.
        #[test]
        fn closed_forms_match_built_children(circuit in arb_dynamic_circuit()) {
            scores_match_built_children(&circuit, &UnitDurations)?;
            scores_match_built_children(&circuit, &Device::mumbai(1).logical_duration_model())?;
        }

        /// Qubit-level Condition 2 agrees with the gate-level transitive
        /// closure over every qubit pair.
        #[test]
        fn qubit_reach_matches_gate_closure(circuit in arb_dynamic_circuit()) {
            let analysis = ReuseAnalysis::of(&circuit);
            let closure = CircuitDag::of(&circuit).closure();
            let n = circuit.num_qubits();
            for donor in 0..n {
                for receiver in (0..n).filter(|&r| r != donor) {
                    let pair = ReusePair::new(q(donor), q(receiver));
                    let gate_level = !closure.any_reaches(
                        analysis.gates_on(pair.receiver),
                        analysis.gates_on(pair.donor),
                    );
                    prop_assert!(analysis.condition2(pair) == gate_level, "{pair}");
                }
            }
        }
    }

    #[test]
    fn shared_clbit_falls_back_to_building() {
        // q0 measures into c0, then q1 rewrites c0 after a long chain.
        // Handing q0's wire to q2 conditions the reset on c0, so it waits
        // for q1's measure: an edge the closed form does not see.
        let mut c = Circuit::new(3, 2);
        c.h(q(0));
        c.measure(q(0), Clbit::new(0));
        for _ in 0..5 {
            c.h(q(1));
        }
        c.measure(q(1), Clbit::new(0));
        c.h(q(2));
        c.measure(q(2), Clbit::new(1));
        let pair = ReusePair::new(q(0), q(2));
        let state = Parent::of(&c, &UnitDurations);
        assert!(state.handoff(pair.donor).shared_clbit);

        let built = apply_one(&c, pair);
        let scheduled = Schedule::asap(&built, &UnitDurations).makespan();
        assert_eq!(scheduled, 9);
        assert_eq!(state.makespan_after(pair), 6, "closed form misses the edge");
        let candidate = state
            .candidates(&UnitDurations, true)
            .into_iter()
            .find(|cand| cand.pair == pair)
            .expect("q0 -> q2 is valid");
        assert_eq!(candidate.makespan, scheduled);
        assert_eq!(
            candidate.surviving,
            ReuseAnalysis::of(&built).candidate_pairs().len()
        );
    }
}
