//! Discrete Fourier transform unitaries.
//!
//! `dft_matrix(N)` is the matrix representation of the QFT on `log2 N` qubits
//! (the paper's eq. 1): entry `(k, x) = ω^{kx}/√N` with `ω = e^{2πi/N}`.
//! `idft_matrix(N)` is its inverse / conjugate transpose — for `N = 8`, this is
//! exactly the `W` matrix of the paper's eq. 11 (up to the 1/√8 normalisation
//! the paper folds into the input state).

use crate::complex::Complex;
use crate::matrix::CMatrix;

/// The `N × N` QFT unitary: `F[k][x] = ω^{kx} / √N`, `ω = e^{2πi/N}`.
pub(crate) fn dft_matrix(n: usize) -> CMatrix {
    assert!(n > 0, "DFT size must be positive");
    let norm = 1.0 / (n as f64).sqrt();
    CMatrix::from_fn(n, n, |k, x| {
        let angle = 2.0 * std::f64::consts::PI * (k as f64) * (x as f64) / n as f64;
        Complex::from_polar(norm, angle)
    })
}

/// The `N × N` inverse-QFT unitary: `W[k][x] = ω^{-kx} / √N`.
pub fn idft_matrix(n: usize) -> CMatrix {
    assert!(n > 0, "DFT size must be positive");
    let norm = 1.0 / (n as f64).sqrt();
    CMatrix::from_fn(n, n, |k, x| {
        let angle = -2.0 * std::f64::consts::PI * (k as f64) * (x as f64) / n as f64;
        Complex::from_polar(norm, angle)
    })
}

/// The unnormalised 8×8 inverse-DFT matrix of the paper's eq. 11 (entries
/// `ω^{-kx}` without the 1/√8 factor).  Provided for exact correspondence with
/// the paper's notation; the segmentation crate divides the matrix–vector
/// product by 8 as written in Algorithm 1, line 4.
#[cfg(test)]
pub(crate) fn paper_w_matrix() -> CMatrix {
    let n = 8;
    CMatrix::from_fn(n, n, |k, x| {
        let angle = -2.0 * std::f64::consts::PI * (k as f64) * (x as f64) / n as f64;
        Complex::from_phase(angle)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CMatrix;

    #[test]
    fn dft_and_idft_are_unitary() {
        for n in [2usize, 4, 8, 16] {
            assert!(dft_matrix(n).is_unitary(1e-10), "n={n}");
            assert!(idft_matrix(n).is_unitary(1e-10), "n={n}");
        }
    }

    #[test]
    fn idft_is_inverse_of_dft() {
        for n in [2usize, 4, 8] {
            let product = idft_matrix(n).mul_mat(&dft_matrix(n));
            assert!(product.max_abs_diff(&CMatrix::identity(n)) < 1e-10, "n={n}");
        }
    }

    #[test]
    fn idft_is_dagger_of_dft() {
        let f = dft_matrix(8);
        let w = idft_matrix(8);
        assert!(f.dagger().max_abs_diff(&w) < 1e-12);
    }

    #[test]
    fn first_row_and_column_are_constant() {
        let w = idft_matrix(8);
        let expected = Complex::real(1.0 / 8.0_f64.sqrt());
        for i in 0..8 {
            assert!(w.get(0, i).approx_eq(expected, 1e-12));
            assert!(w.get(i, 0).approx_eq(expected, 1e-12));
        }
    }

    #[test]
    fn paper_w_matrix_matches_scaled_idft() {
        let w = paper_w_matrix();
        let idft = idft_matrix(8);
        for r in 0..8 {
            for c in 0..8 {
                assert!(w
                    .get(r, c)
                    .scale(1.0 / 8.0_f64.sqrt())
                    .approx_eq(idft.get(r, c), 1e-12));
            }
        }
    }

    #[test]
    fn eq4_example_qft_of_basis_state_100() {
        // Paper eq. 4: QFT|100⟩ = 1/√8 (|000⟩ - |001⟩ + |010⟩ - ... ).
        // |100⟩ is basis index 4; the QFT output amplitude at index k is
        // ω^{4k}/√8 = e^{iπk}/√8 = (±1)/√8 alternating.
        let f = dft_matrix(8);
        let norm = 1.0 / 8.0_f64.sqrt();
        for k in 0..8 {
            let expected = if k % 2 == 0 { norm } else { -norm };
            assert!(
                f.get(k, 4).approx_eq(Complex::real(expected), 1e-12),
                "k={k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_is_rejected() {
        let _ = dft_matrix(0);
    }
}
