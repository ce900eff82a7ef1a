//! Dense complex matrices.

use crate::complex::Complex;

/// A dense, row-major complex matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Creates a `rows × cols` zero matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[cfg(test)]
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, Complex::ONE);
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)`.
    pub(crate) fn from_fn<F: FnMut(usize, usize) -> Complex>(
        rows: usize,
        cols: usize,
        mut f: F,
    ) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[cfg(test)]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Complex {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    #[inline]
    pub(crate) fn set(&mut self, row: usize, col: usize, value: Complex) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Row `r` as a slice.
    pub(crate) fn row(&self, r: usize) -> &[Complex] {
        assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix–vector product.
    pub fn mul_vec(&self, v: &[Complex]) -> Vec<Complex> {
        assert_eq!(
            v.len(),
            self.cols,
            "vector length {} does not match matrix columns {}",
            v.len(),
            self.cols
        );
        (0..self.rows)
            .map(|r| {
                let mut acc = Complex::ZERO;
                for (a, b) in self.row(r).iter().zip(v.iter()) {
                    acc += *a * *b;
                }
                acc
            })
            .collect()
    }

    /// Matrix–matrix product.
    #[cfg(test)]
    pub(crate) fn mul_mat(&self, other: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = CMatrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == Complex::ZERO {
                    continue;
                }
                for c in 0..other.cols {
                    let cur = out.get(r, c);
                    out.set(r, c, cur + a * other.get(k, c));
                }
            }
        }
        out
    }

    /// Conjugate transpose (dagger).
    #[cfg(test)]
    pub(crate) fn dagger(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r).conj())
    }

    /// Maximum absolute elementwise difference to `other`.
    pub(crate) fn max_abs_diff(&self, other: &CMatrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// True if `self · self† ≈ I` within `eps`.
    #[cfg(test)]
    pub(crate) fn is_unitary(&self, eps: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let product = self.mul_mat(&self.dagger());
        product.max_abs_diff(&CMatrix::identity(self.rows)) <= eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn identity_times_vector_is_vector() {
        let id = CMatrix::identity(4);
        let v: Vec<Complex> = (0..4)
            .map(|i| Complex::new(i as f64, -(i as f64)))
            .collect();
        assert_eq!(id.mul_vec(&v), v);
        assert!(id.is_unitary(1e-12));
    }

    #[test]
    fn from_fn_and_accessors() {
        let m = CMatrix::from_fn(2, 3, |r, c| Complex::new(r as f64, c as f64));
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), Complex::new(1.0, 2.0));
        assert_eq!(m.row(0).len(), 3);
    }

    #[test]
    fn matrix_multiplication_matches_manual() {
        // [[1, i], [0, 1]] * [[1, 0], [1, 1]] = [[1+i, i], [1, 1]]
        let a = CMatrix::from_fn(2, 2, |r, c| match (r, c) {
            (0, 0) => Complex::ONE,
            (0, 1) => Complex::I,
            (1, 1) => Complex::ONE,
            _ => Complex::ZERO,
        });
        let b = CMatrix::from_fn(2, 2, |r, c| match (r, c) {
            (0, 0) => Complex::ONE,
            (1, 0) => Complex::ONE,
            (1, 1) => Complex::ONE,
            _ => Complex::ZERO,
        });
        let p = a.mul_mat(&b);
        assert!(p.get(0, 0).approx_eq(Complex::new(1.0, 1.0), 1e-12));
        assert!(p.get(0, 1).approx_eq(Complex::I, 1e-12));
        assert!(p.get(1, 0).approx_eq(Complex::ONE, 1e-12));
        assert!(p.get(1, 1).approx_eq(Complex::ONE, 1e-12));
    }

    #[test]
    fn dagger_conjugates_and_transposes() {
        let m = CMatrix::from_fn(2, 2, |r, c| {
            Complex::new((r + c) as f64, r as f64 - c as f64)
        });
        let d = m.dagger();
        assert_eq!(d.get(0, 1), m.get(1, 0).conj());
        assert_eq!(d.get(1, 0), m.get(0, 1).conj());
    }

    #[test]
    fn hadamard_is_unitary_but_scaled_is_not() {
        let s = 1.0 / 2.0_f64.sqrt();
        let h = CMatrix::from_fn(2, 2, |r, c| {
            if r == 1 && c == 1 {
                Complex::real(-s)
            } else {
                Complex::real(s)
            }
        });
        assert!(h.is_unitary(1e-12));
        let mut not_unitary = h.clone();
        not_unitary.set(0, 0, Complex::real(1.0));
        assert!(!not_unitary.is_unitary(1e-9));
        // Non-square matrices are never unitary.
        assert!(!CMatrix::zeros(2, 3).is_unitary(1e-9));
    }

    #[test]
    fn phase_matrix_unitarity() {
        let p = CMatrix::from_fn(2, 2, |r, c| {
            if r == c {
                if r == 0 {
                    Complex::ONE
                } else {
                    Complex::from_phase(PI / 3.0)
                }
            } else {
                Complex::ZERO
            }
        });
        assert!(p.is_unitary(1e-12));
    }

    #[test]
    #[should_panic(expected = "does not match matrix columns")]
    fn mul_vec_dimension_mismatch_panics() {
        let m = CMatrix::identity(3);
        let _ = m.mul_vec(&[Complex::ONE; 2]);
    }

    #[test]
    fn max_abs_diff_detects_differences() {
        let a = CMatrix::identity(2);
        let mut b = CMatrix::identity(2);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(0, 1, Complex::new(0.0, 0.5));
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
    }
}
