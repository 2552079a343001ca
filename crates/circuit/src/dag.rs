//! The gate-dependency DAG (`G_D` in the paper).
//!
//! A vertex per instruction; an edge `u -> v` whenever `v` is the next
//! instruction after `u` on some shared wire (qubit or classical bit; see
//! [`Instruction::wires`](crate::Instruction::wires)), so every edge runs
//! forward in program order and instruction order is a topological order.
//! Classical wires matter: a conditional reset depends on the measurement
//! that wrote its condition bit, which is exactly how the paper's dummy
//! measurement node `D` enforces reuse ordering (Fig. 9).

use crate::circuit::{Circuit, Qubit};
use caqr_graph::closure::TransitiveClosure;
use caqr_graph::DiGraph;

/// Gate-dependency DAG of a circuit.
///
/// # Examples
///
/// ```
/// use caqr_circuit::{Circuit, CircuitDag, Qubit};
///
/// let mut c = Circuit::new(3, 0);
/// c.cx(Qubit::new(0), Qubit::new(1));
/// c.cx(Qubit::new(1), Qubit::new(2));
/// c.cx(Qubit::new(0), Qubit::new(2));
/// let dag = CircuitDag::of(&c);
/// assert_eq!(dag.frontier(), vec![0]);
/// assert_eq!(dag.unit_critical_path(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitDag {
    graph: DiGraph,
}

impl CircuitDag {
    /// Builds the dependency DAG of `circuit`.
    pub fn of(circuit: &Circuit) -> Self {
        let mut graph = DiGraph::new(circuit.len());
        let n = circuit.num_qubits();
        let mut last_on_wire: Vec<Option<usize>> = vec![None; n + circuit.num_clbits()];
        for (idx, instr) in circuit.iter().enumerate() {
            for w in instr.wires(n) {
                // A measure conditioned on its own clbit visits it twice.
                if let Some(prev) = last_on_wire[w].filter(|&prev| prev != idx) {
                    graph.add_edge(prev, idx);
                }
                last_on_wire[w] = Some(idx);
            }
        }
        CircuitDag { graph }
    }

    /// The underlying dependence digraph (vertex = instruction index).
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The number of instructions / vertices.
    pub fn len(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Returns `true` for the empty circuit.
    pub fn is_empty(&self) -> bool {
        self.graph.num_vertices() == 0
    }

    /// Instruction indices with no unfinished dependencies — the initial
    /// frontier (in-degree 0).
    pub fn frontier(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&v| self.graph.in_degree(v) == 0)
            .collect()
    }

    /// Critical-path length counting every instruction as one time step.
    pub fn unit_critical_path(&self) -> u64 {
        self.weighted_critical_path(&vec![1u64; self.len()])
    }

    /// Critical-path length with per-instruction weights (e.g. durations in
    /// `dt`).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.len()`.
    pub fn weighted_critical_path(&self, weights: &[u64]) -> u64 {
        self.longest_path_to(weights).into_iter().max().unwrap_or(0)
    }

    /// For every instruction, the longest weighted path *ending* at it
    /// (inclusive). An instruction is on the critical path iff its value
    /// plus the longest path *from* it equals the total.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.len()`.
    pub fn longest_path_to(&self, weights: &[u64]) -> Vec<u64> {
        assert_eq!(weights.len(), self.len(), "weight length mismatch");
        // Edges run from earlier to later instructions, so index order is
        // a topological order.
        let mut dist = vec![0u64; self.len()];
        for v in 0..self.len() {
            let best_pred = self.graph.predecessors(v).map(|p| dist[p]).max();
            dist[v] = best_pred.unwrap_or(0) + weights[v];
        }
        dist
    }

    /// Longest weighted path *starting* at each instruction (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.len()`.
    pub fn longest_path_from(&self, weights: &[u64]) -> Vec<u64> {
        assert_eq!(weights.len(), self.len(), "weight length mismatch");
        let mut dist = vec![0u64; self.len()];
        for v in (0..self.len()).rev() {
            let best_succ = self.graph.successors(v).map(|s| dist[s]).max();
            dist[v] = best_succ.unwrap_or(0) + weights[v];
        }
        dist
    }

    /// Marks the instructions on a weighted critical path: those whose
    /// through-path equals the overall critical path length. SR-CaQR delays
    /// frontier gates that are *not* marked (§3.3.1 Step 2).
    pub fn on_critical_path(&self, weights: &[u64]) -> Vec<bool> {
        if self.is_empty() {
            return Vec::new();
        }
        let to = self.longest_path_to(weights);
        let from = self.longest_path_from(weights);
        let total = to.iter().copied().max().unwrap_or(0);
        (0..self.len())
            // through(v) = to(v) + from(v) - w(v)
            .map(|v| to[v] + from[v] - weights[v] == total)
            .collect()
    }

    /// The transitive closure of the dependence relation, for batch
    /// Condition-2 queries.
    pub fn closure(&self) -> TransitiveClosure {
        TransitiveClosure::of(&self.graph).expect("circuit DAG is acyclic by construction")
    }

    /// Tests the paper's Condition 2 for the reuse pair `(q_i -> q_j)` on
    /// `circuit`: no gate on `q_i` may (transitively) depend on a gate on
    /// `q_j`. Equivalently, inserting the dummy measure node `D` with edges
    /// `gates(q_i) -> D -> gates(q_j)` must not create a cycle (Fig. 7).
    pub fn reuse_respects_dependencies(
        &self,
        circuit: &Circuit,
        closure: &TransitiveClosure,
        q_i: Qubit,
        q_j: Qubit,
    ) -> bool {
        let gates_i = circuit.gates_on_qubit(q_i);
        let gates_j = circuit.gates_on_qubit(q_j);
        !closure.any_reaches(&gates_j, &gates_i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Clbit;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    #[test]
    fn chain_dependencies() {
        let mut c = Circuit::new(1, 0);
        c.h(q(0));
        c.x(q(0));
        c.h(q(0));
        let dag = CircuitDag::of(&c);
        assert!(dag.graph().has_edge(0, 1));
        assert!(dag.graph().has_edge(1, 2));
        assert!(!dag.graph().has_edge(0, 2));
        assert_eq!(dag.unit_critical_path(), 3);
    }

    #[test]
    fn parallel_wires_independent() {
        let mut c = Circuit::new(2, 0);
        c.h(q(0));
        c.h(q(1));
        let dag = CircuitDag::of(&c);
        assert_eq!(dag.frontier(), vec![0, 1]);
        assert_eq!(dag.unit_critical_path(), 1);
    }

    #[test]
    fn classical_wire_creates_dependency() {
        let mut c = Circuit::new(2, 1);
        c.measure(q(0), Clbit::new(0));
        c.cond_x(q(1), Clbit::new(0));
        let dag = CircuitDag::of(&c);
        assert!(dag.graph().has_edge(0, 1));
    }

    #[test]
    fn weighted_critical_path() {
        let mut c = Circuit::new(2, 0);
        c.h(q(0)); // 0
        c.h(q(1)); // 1
        c.cx(q(0), q(1)); // 2
        let dag = CircuitDag::of(&c);
        // Make one H much longer.
        assert_eq!(dag.weighted_critical_path(&[100, 1, 10]), 110);
    }

    #[test]
    fn critical_path_marking() {
        let mut c = Circuit::new(3, 0);
        c.h(q(0)); // 0: long branch start
        c.h(q(0)); // 1
        c.h(q(1)); // 2: short branch (off critical path)
        c.cx(q(0), q(1)); // 3
        let dag = CircuitDag::of(&c);
        let marks = dag.on_critical_path(&[1, 1, 1, 1]);
        assert_eq!(marks, vec![true, true, false, true]);
    }

    #[test]
    fn paper_fig7_condition2_violation() {
        // Fig. 7: gates g(q4,q2), g(q2,q3), g(q3,q1). Reusing q1 for q4 is
        // invalid: g(q3,q1) transitively depends on g(q4,q2).
        let mut c = Circuit::new(4, 0); // q1=0, q2=1, q3=2, q4=3
        c.cx(q(3), q(1)); // g(q4, q2)
        c.cx(q(1), q(2)); // g(q2, q3)
        c.cx(q(2), q(0)); // g(q3, q1)
        let dag = CircuitDag::of(&c);
        let closure = dag.closure();
        // q1 (=0) reused by q4 (=3): gates on q4 reach gates on q1 -> invalid.
        assert!(!dag.reuse_respects_dependencies(&c, &closure, q(0), q(3)));
        // The reverse direction (q4 reused by q1) is fine dependence-wise.
        assert!(dag.reuse_respects_dependencies(&c, &closure, q(3), q(0)));
    }

    #[test]
    fn bv_reuse_is_valid_forward_only() {
        // BV: data qubits only interact with the target, so a *later* data
        // qubit may reuse an earlier one. The reverse direction is blocked
        // because the CXs to the shared target are ordered: gate(q1) already
        // depends on gate(q0), so requiring q1's gates to finish first would
        // create a cycle.
        let mut c = Circuit::new(3, 0);
        c.cx(q(0), q(2));
        c.cx(q(1), q(2));
        let dag = CircuitDag::of(&c);
        let closure = dag.closure();
        assert!(dag.reuse_respects_dependencies(&c, &closure, q(0), q(1)));
        assert!(!dag.reuse_respects_dependencies(&c, &closure, q(1), q(0)));
    }

    #[test]
    fn empty_circuit() {
        let dag = CircuitDag::of(&Circuit::new(3, 0));
        assert!(dag.is_empty());
        assert_eq!(dag.unit_critical_path(), 0);
        assert!(dag.frontier().is_empty());
        assert!(dag.on_critical_path(&[]).is_empty());
    }

    #[test]
    fn longest_path_from_matches_to() {
        let mut c = Circuit::new(2, 0);
        c.h(q(0));
        c.cx(q(0), q(1));
        c.h(q(1));
        let dag = CircuitDag::of(&c);
        let w = vec![1u64; 3];
        let to = dag.longest_path_to(&w);
        let from = dag.longest_path_from(&w);
        assert_eq!(to, vec![1, 2, 3]);
        assert_eq!(from, vec![3, 2, 1]);
    }
}
