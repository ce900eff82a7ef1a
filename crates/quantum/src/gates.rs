//! Quantum gates and their application to a state vector.
//!
//! Qubit indices follow the convention of [`crate::state::StateVector`]:
//! qubit 0 is the most significant bit of the basis index.

use crate::complex::Complex;
use crate::state::StateVector;

/// A single gate acting on one or two qubits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Gate {
    /// Hadamard on `qubit`.
    H(usize),
    /// Phase gate `diag(1, e^{iθ})` on `qubit`: the reference the tests
    /// prepare the paper's phase encoding with.
    #[cfg(test)]
    Phase(usize, f64),
    /// Controlled phase: multiplies the amplitude by `e^{iθ}` when both
    /// `control` and `target` are 1.
    CPhase(usize, usize, f64),
    /// Swaps two qubits.
    Swap(usize, usize),
}

impl Gate {
    /// The inverse (adjoint) of this gate.
    pub(crate) fn inverse(self) -> Gate {
        match self {
            Gate::H(q) => Gate::H(q),
            #[cfg(test)]
            Gate::Phase(q, theta) => Gate::Phase(q, -theta),
            Gate::CPhase(c, t, theta) => Gate::CPhase(c, t, -theta),
            Gate::Swap(a, b) => Gate::Swap(a, b),
        }
    }

    /// Applies this gate to `state` in place.
    pub(crate) fn apply(self, state: &mut StateVector) {
        let n = state.qubits();
        match self {
            Gate::H(q) => {
                let mask = bit_mask(n, q);
                let s = 1.0 / 2.0_f64.sqrt();
                let amps = state.amplitudes_mut();
                for i in 0..amps.len() {
                    if i & mask == 0 {
                        let j = i | mask;
                        let a = amps[i];
                        let b = amps[j];
                        amps[i] = (a + b).scale(s);
                        amps[j] = (a - b).scale(s);
                    }
                }
            }
            #[cfg(test)]
            Gate::Phase(q, theta) => {
                let mask = bit_mask(n, q);
                let phase = Complex::from_phase(theta);
                let amps = state.amplitudes_mut();
                for (i, a) in amps.iter_mut().enumerate() {
                    if i & mask != 0 {
                        *a = *a * phase;
                    }
                }
            }
            Gate::CPhase(c, t, theta) => {
                assert_ne!(c, t, "control and target must differ");
                let cm = bit_mask(n, c);
                let tm = bit_mask(n, t);
                let phase = Complex::from_phase(theta);
                let amps = state.amplitudes_mut();
                for (i, a) in amps.iter_mut().enumerate() {
                    if i & cm != 0 && i & tm != 0 {
                        *a = *a * phase;
                    }
                }
            }
            Gate::Swap(qa, qb) => {
                if qa == qb {
                    return;
                }
                let ma = bit_mask(n, qa);
                let mb = bit_mask(n, qb);
                let amps = state.amplitudes_mut();
                for i in 0..amps.len() {
                    // Only visit states where qubit a is 1 and qubit b is 0 to
                    // swap each pair exactly once.
                    if i & ma != 0 && i & mb == 0 {
                        let j = (i & !ma) | mb;
                        amps.swap(i, j);
                    }
                }
            }
        }
    }
}

/// Bit mask selecting qubit `q` (qubit 0 = most significant bit) in an
/// `n`-qubit basis index.
fn bit_mask(n: usize, q: usize) -> usize {
    assert!(q < n, "qubit index {q} out of range for {n} qubits");
    1 << (n - 1 - q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut s = StateVector::zero_state(1);
        Gate::H(0).apply(&mut s);
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(1) - 0.5).abs() < 1e-12);
        // H is self-inverse.
        Gate::H(0).apply(&mut s);
        assert!((s.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_gate_only_affects_one_component() {
        let mut s = StateVector::zero_state(1);
        Gate::H(0).apply(&mut s);
        Gate::Phase(0, PI).apply(&mut s);
        // (|0⟩ - |1⟩)/√2: amplitudes real, opposite signs.
        let a = s.amplitudes();
        assert!(a[0].approx_eq(Complex::real(1.0 / 2.0_f64.sqrt()), 1e-12));
        assert!(a[1].approx_eq(Complex::real(-1.0 / 2.0_f64.sqrt()), 1e-12));
    }

    #[test]
    fn cphase_applies_only_when_both_set() {
        let mut s = StateVector::from_amplitudes(vec![Complex::real(0.5); 4]);
        Gate::CPhase(0, 1, PI).apply(&mut s);
        let a = s.amplitudes();
        assert!(a[0].approx_eq(Complex::real(0.5), 1e-12));
        assert!(a[1].approx_eq(Complex::real(0.5), 1e-12));
        assert!(a[2].approx_eq(Complex::real(0.5), 1e-12));
        assert!(a[3].approx_eq(Complex::real(-0.5), 1e-12));
    }

    #[test]
    fn swap_exchanges_qubits() {
        // |01⟩ (index 1) --swap--> |10⟩ (index 2)
        let mut s = StateVector::basis_state(2, 1);
        Gate::Swap(0, 1).apply(&mut s);
        assert_eq!(s.most_probable(), 2);
        // Swapping a qubit with itself is a no-op.
        Gate::Swap(1, 1).apply(&mut s);
        assert_eq!(s.most_probable(), 2);
    }

    #[test]
    fn gates_preserve_normalization() {
        let mut s = StateVector::from_amplitudes(vec![
            Complex::new(0.1, 0.2),
            Complex::new(0.3, -0.1),
            Complex::new(-0.2, 0.4),
            Complex::new(0.5, 0.1),
            Complex::new(0.0, 0.3),
            Complex::new(0.2, 0.2),
            Complex::new(-0.1, -0.3),
            Complex::new(0.4, 0.0),
        ]);
        for gate in [
            Gate::H(1),
            Gate::Phase(0, 0.7),
            Gate::CPhase(1, 2, 1.3),
            Gate::Swap(0, 2),
        ] {
            gate.apply(&mut s);
            assert!((s.norm_sqr() - 1.0).abs() < 1e-10, "{gate:?}");
        }
    }

    #[test]
    fn inverse_gates_undo_their_action() {
        let original = StateVector::from_amplitudes(vec![
            Complex::new(0.6, 0.1),
            Complex::new(0.2, -0.3),
            Complex::new(-0.4, 0.2),
            Complex::new(0.1, 0.5),
        ]);
        for gate in [
            Gate::H(0),
            Gate::Phase(1, 0.9),
            Gate::CPhase(0, 1, 2.1),
            Gate::Swap(0, 1),
        ] {
            let mut s = original.clone();
            gate.apply(&mut s);
            gate.inverse().apply(&mut s);
            assert!((s.fidelity(&original) - 1.0).abs() < 1e-10, "{gate:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        let mut s = StateVector::zero_state(2);
        Gate::H(2).apply(&mut s);
    }
}
