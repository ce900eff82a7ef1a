//! Dense state-vector simulation.

use crate::complex::Complex;

/// A pure quantum state of `n` qubits stored as `2^n` complex amplitudes.
///
/// Qubit 0 is the **most significant** bit of the basis index, matching the
/// paper's eq. 3 where the first tensor factor carries the coarsest phase.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    qubits: usize,
    amplitudes: Vec<Complex>,
}

impl StateVector {
    /// Creates the all-zeros computational basis state `|0…0⟩`.
    pub fn zero_state(qubits: usize) -> Self {
        assert!(
            qubits > 0 && qubits <= 24,
            "qubit count out of range (1..=24)"
        );
        let mut amplitudes = vec![Complex::ZERO; 1 << qubits];
        amplitudes[0] = Complex::ONE;
        Self { qubits, amplitudes }
    }

    /// Creates the computational basis state `|index⟩`.
    pub(crate) fn basis_state(qubits: usize, index: usize) -> Self {
        let mut s = Self::zero_state(qubits);
        assert!(index < s.dim(), "basis index out of range");
        s.amplitudes[0] = Complex::ZERO;
        s.amplitudes[index] = Complex::ONE;
        s
    }

    /// Wraps raw amplitudes; the length must be a power of two and the state
    /// is normalised automatically.
    pub(crate) fn from_amplitudes(amplitudes: Vec<Complex>) -> Self {
        let dim = amplitudes.len();
        assert!(
            dim >= 2 && dim.is_power_of_two(),
            "dimension must be a power of two >= 2"
        );
        let qubits = dim.trailing_zeros() as usize;
        let mut s = Self { qubits, amplitudes };
        s.normalize();
        s
    }

    /// Number of qubits.
    pub(crate) fn qubits(&self) -> usize {
        self.qubits
    }

    /// Hilbert-space dimension (`2^n`).
    pub(crate) fn dim(&self) -> usize {
        self.amplitudes.len()
    }

    /// The amplitude vector.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amplitudes
    }

    /// Mutable access to the amplitude vector (used by gate application).
    pub(crate) fn amplitudes_mut(&mut self) -> &mut [Complex] {
        &mut self.amplitudes
    }

    /// Squared norm of the state (should be 1 for a physical state).
    pub(crate) fn norm_sqr(&self) -> f64 {
        self.amplitudes.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Rescales the amplitudes so the state has unit norm.
    pub(crate) fn normalize(&mut self) {
        let norm = self.norm_sqr().sqrt();
        assert!(norm > 0.0, "cannot normalise the zero vector");
        let inv = 1.0 / norm;
        for a in &mut self.amplitudes {
            *a = a.scale(inv);
        }
    }

    /// Measurement probability of computational basis state `index`.
    #[cfg(test)]
    pub(crate) fn probability(&self, index: usize) -> f64 {
        self.amplitudes[index].norm_sqr()
    }

    /// Full measurement distribution over the computational basis.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Index of the most probable basis state (ties broken towards the lower
    /// index, matching the arg-max rule of the paper's Algorithm 1).
    pub fn most_probable(&self) -> usize {
        let mut best = 0usize;
        let mut best_p = f64::MIN;
        for (i, p) in self.probabilities().into_iter().enumerate() {
            if p > best_p {
                best_p = p;
                best = i;
            }
        }
        best
    }

    /// Tensor product `self ⊗ other` (self's qubits become the most
    /// significant ones of the combined register).
    #[cfg(test)]
    pub(crate) fn tensor(&self, other: &StateVector) -> StateVector {
        let mut amplitudes = Vec::with_capacity(self.dim() * other.dim());
        for a in &self.amplitudes {
            for b in &other.amplitudes {
                amplitudes.push(*a * *b);
            }
        }
        StateVector {
            qubits: self.qubits + other.qubits,
            amplitudes,
        }
    }

    /// Fidelity `|⟨self|other⟩|²` with another state of the same dimension.
    #[cfg(test)]
    pub(crate) fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "states must share dimension");
        let mut inner = Complex::ZERO;
        for (a, b) in self.amplitudes.iter().zip(other.amplitudes.iter()) {
            inner += a.conj() * *b;
        }
        inner.norm_sqr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_state_has_unit_probability_at_zero() {
        let s = StateVector::zero_state(3);
        assert_eq!(s.qubits(), 3);
        assert_eq!(s.dim(), 8);
        assert_eq!(s.probability(0), 1.0);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
        assert_eq!(s.most_probable(), 0);
    }

    #[test]
    fn basis_state_places_amplitude_correctly() {
        let s = StateVector::basis_state(3, 5);
        assert_eq!(s.probability(5), 1.0);
        assert_eq!(s.probability(0), 0.0);
        assert_eq!(s.most_probable(), 5);
    }

    #[test]
    fn from_amplitudes_normalizes() {
        let s = StateVector::from_amplitudes(vec![Complex::real(3.0), Complex::real(4.0)]);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
        assert!((s.probability(0) - 0.36).abs() < 1e-12);
        assert!((s.probability(1) - 0.64).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = StateVector::from_amplitudes(vec![Complex::ONE; 3]);
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn zero_vector_cannot_be_normalized() {
        let _ = StateVector::from_amplitudes(vec![Complex::ZERO; 4]);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let s = StateVector::from_amplitudes(vec![
            Complex::new(0.3, 0.1),
            Complex::new(-0.2, 0.5),
            Complex::new(0.0, -0.4),
            Complex::new(0.6, 0.0),
        ]);
        let sum: f64 = s.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tensor_product_of_basis_states() {
        let a = StateVector::basis_state(1, 1); // |1⟩
        let b = StateVector::basis_state(2, 2); // |10⟩
        let t = a.tensor(&b); // |110⟩ = index 6
        assert_eq!(t.qubits(), 3);
        assert_eq!(t.most_probable(), 6);
        assert_eq!(t.probability(6), 1.0);
    }

    #[test]
    fn fidelity_of_identical_and_orthogonal_states() {
        let a = StateVector::basis_state(2, 1);
        let b = StateVector::basis_state(2, 2);
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-12);
        assert!(a.fidelity(&b).abs() < 1e-12);
    }

    #[test]
    fn most_probable_prefers_lowest_index_on_ties() {
        let amp = 0.5;
        let s = StateVector::from_amplitudes(vec![Complex::real(amp); 4]);
        assert_eq!(s.most_probable(), 0);
    }
}
