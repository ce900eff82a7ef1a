#![warn(missing_docs)]
//! `quantum` — a small quantum-computing substrate.
//!
//! The reproduced paper derives its segmentation rule from the inverse quantum
//! Fourier transform: pixel intensities are encoded as the relative phases of
//! a 3-qubit product state (its eqs. 2–8), the IQFT is applied, and the pixel
//! is classified by the most probable computational basis state (eqs. 10–11).
//! The paper then evaluates a purely classical re-expression of that rule.
//!
//! This crate implements the quantum side from scratch so the classical
//! "inspired" algorithm in `iqft-seg` can be *derived from and validated
//! against* a genuine simulation:
//!
//! * [`complex::Complex`] — complex arithmetic (no external dependency).
//! * [`matrix::CMatrix`] — dense complex matrices with multiplication and
//!   unitarity checks.
//! * `dft` — the DFT / inverse-DFT unitaries; `idft_matrix(8)` is exactly
//!   the `W` matrix of the paper's eq. 11.
//! * [`state::StateVector`] — a dense state-vector simulator for up to ~20
//!   qubits with measurement probabilities.
//! * `gates` — standard gates (H, X, phase, controlled-phase, swap).
//! * [`circuit`] — gate sequences plus textbook QFT / IQFT circuit builders
//!   (Nielsen & Chuang construction: Hadamards, controlled phases, final swap
//!   network).
//! * `encoding` — the paper's phase encoding: building the product state
//!   `⊗_k (|0⟩ + e^{iθ_k}|1⟩)/√2` from a vector of angles.
//!
//! # Example
//!
//! Phase-encode three angles, apply the textbook 3-qubit IQFT circuit, and
//! confirm it matches multiplication by the inverse-DFT matrix (the paper's
//! `W` of eq. 11):
//!
//! ```
//! use quantum::{idft_matrix, phase_product_state, Circuit};
//!
//! let state = phase_product_state(&[2.464, 0.025, 0.246]);
//! let mut via_circuit = state.clone();
//! Circuit::iqft(3).apply(&mut via_circuit);
//! let via_matrix = idft_matrix(8).mul_vec(state.amplitudes());
//! for (a, b) in via_circuit.amplitudes().iter().zip(&via_matrix) {
//!     assert!(a.sub(*b).abs() < 1e-9);
//! }
//! ```

pub mod circuit;
pub(crate) mod complex;
pub(crate) mod dft;
pub(crate) mod encoding;
pub(crate) mod gates;
pub(crate) mod matrix;
pub(crate) mod state;

pub use circuit::Circuit;
pub use complex::Complex;
pub use dft::idft_matrix;
pub use encoding::{phase_product_state, phase_vector};
pub use matrix::CMatrix;
pub use state::StateVector;

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end: the IQFT circuit applied to the phase-encoded state gives
    /// the same probability distribution as multiplying by the inverse-DFT
    /// matrix — the identity the paper's Algorithm 1 is built on.
    #[test]
    fn circuit_matrix_and_encoding_agree() {
        let angles = [2.464, 0.025, 0.246];
        // Phase-encoded product state |ψ⟩ = ⊗ (|0⟩+e^{iθ}|1⟩)/√2.
        let state = phase_product_state(&angles);
        // Path 1: apply the IQFT circuit.
        let mut circuit_state = state.clone();
        Circuit::iqft(3).apply(&mut circuit_state);
        // Path 2: multiply by the inverse-DFT matrix.
        let amps = idft_matrix(8).mul_vec(state.amplitudes());
        for (a, b) in circuit_state.amplitudes().iter().zip(amps.iter()) {
            assert!((a.sub(*b)).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }
}
