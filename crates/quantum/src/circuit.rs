//! Gate sequences and the textbook QFT / IQFT circuits.

use crate::dft::{dft_matrix, idft_matrix};
use crate::gates::Gate;
use crate::matrix::CMatrix;
use crate::state::StateVector;
use std::f64::consts::PI;

/// A sequence of gates applied left to right.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Circuit {
    qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit on `qubits` qubits.
    pub(crate) fn new(qubits: usize) -> Self {
        Self {
            qubits,
            gates: Vec::new(),
        }
    }

    /// Appends a gate.
    pub(crate) fn push(&mut self, gate: Gate) -> &mut Self {
        self.gates.push(gate);
        self
    }

    /// Applies the circuit to `state` in place.
    pub fn apply(&self, state: &mut StateVector) {
        assert_eq!(
            state.qubits(),
            self.qubits,
            "state has {} qubits but circuit expects {}",
            state.qubits(),
            self.qubits
        );
        for gate in &self.gates {
            gate.apply(state);
        }
    }

    /// The inverse circuit (gates reversed and individually inverted).
    pub(crate) fn inverse(&self) -> Circuit {
        Circuit {
            qubits: self.qubits,
            gates: self.gates.iter().rev().map(|g| g.inverse()).collect(),
        }
    }

    /// The dense unitary matrix this circuit implements (column `x` is the
    /// circuit applied to `|x⟩`).  Exponential in the qubit count; intended
    /// for verification on small registers.
    pub(crate) fn to_matrix(&self) -> CMatrix {
        let dim = 1usize << self.qubits;
        let mut m = CMatrix::zeros(dim, dim);
        for x in 0..dim {
            let mut state = StateVector::basis_state(self.qubits, x);
            self.apply(&mut state);
            for (k, amp) in state.amplitudes().iter().enumerate() {
                m.set(k, x, *amp);
            }
        }
        m
    }

    /// The textbook QFT circuit on `n` qubits (Nielsen & Chuang Fig. 5.1):
    /// for each qubit (most significant first) a Hadamard followed by
    /// controlled phase rotations from the less significant qubits, then a
    /// final swap network that reverses qubit order.
    pub(crate) fn qft(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for j in 0..n {
            c.push(Gate::H(j));
            for m in (j + 1)..n {
                // R_k with k = m - j + 1: phase 2π / 2^k.
                let theta = 2.0 * PI / (1u64 << (m - j + 1)) as f64;
                c.push(Gate::CPhase(m, j, theta));
            }
        }
        for j in 0..n / 2 {
            c.push(Gate::Swap(j, n - 1 - j));
        }
        c
    }

    /// The inverse QFT circuit on `n` qubits.
    pub fn iqft(n: usize) -> Circuit {
        Self::qft(n).inverse()
    }
}

/// Verifies (numerically) that the QFT circuit implements `dft_matrix` and
/// the IQFT circuit implements [`idft_matrix`]; returns the larger of the two
/// maximum elementwise deviations.  Used by tests and the quantum cross-check
/// benchmark.
pub fn qft_circuit_deviation(n: usize) -> f64 {
    let qft_dev = Circuit::qft(n)
        .to_matrix()
        .max_abs_diff(&dft_matrix(1 << n));
    let iqft_dev = Circuit::iqft(n)
        .to_matrix()
        .max_abs_diff(&idft_matrix(1 << n));
    qft_dev.max(iqft_dev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;

    #[test]
    fn empty_circuit_is_identity() {
        let c = Circuit::new(2);
        assert!(c.gates.is_empty());
        let mut s = StateVector::basis_state(2, 3);
        c.apply(&mut s);
        assert_eq!(s.most_probable(), 3);
        assert!(c.to_matrix().max_abs_diff(&CMatrix::identity(4)) < 1e-12);
    }

    #[test]
    fn qft_circuit_matches_dft_matrix() {
        for n in 1..=4 {
            let dev = Circuit::qft(n)
                .to_matrix()
                .max_abs_diff(&dft_matrix(1 << n));
            assert!(dev < 1e-10, "n={n}, dev={dev}");
        }
    }

    #[test]
    fn iqft_circuit_matches_idft_matrix() {
        for n in 1..=4 {
            let dev = Circuit::iqft(n)
                .to_matrix()
                .max_abs_diff(&idft_matrix(1 << n));
            assert!(dev < 1e-10, "n={n}, dev={dev}");
        }
    }

    #[test]
    fn qft_then_iqft_is_identity_on_random_state() {
        let amps: Vec<Complex> = (0..8)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.61).cos()))
            .collect();
        let original = StateVector::from_amplitudes(amps);
        let mut s = original.clone();
        Circuit::qft(3).apply(&mut s);
        Circuit::iqft(3).apply(&mut s);
        assert!((s.fidelity(&original) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn qft_of_zero_state_is_uniform() {
        let mut s = StateVector::zero_state(3);
        Circuit::qft(3).apply(&mut s);
        for p in s.probabilities() {
            assert!((p - 1.0 / 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn deviation_helper_is_small() {
        assert!(qft_circuit_deviation(3) < 1e-10);
        assert!(qft_circuit_deviation(4) < 1e-10);
    }

    #[test]
    fn inverse_of_inverse_is_original() {
        let c = Circuit::qft(3);
        assert_eq!(c.inverse().inverse(), c);
    }

    #[test]
    #[should_panic(expected = "circuit expects")]
    fn qubit_count_mismatch_panics() {
        let c = Circuit::qft(3);
        let mut s = StateVector::zero_state(2);
        c.apply(&mut s);
    }

    #[test]
    fn gate_count_of_qft_is_quadratic_plus_swaps() {
        // n Hadamards + n(n-1)/2 controlled phases + floor(n/2) swaps.
        for n in 1..=5usize {
            let c = Circuit::qft(n);
            let expected = n + n * (n - 1) / 2 + n / 2;
            assert_eq!(c.gates.len(), expected, "n={n}");
        }
    }
}
