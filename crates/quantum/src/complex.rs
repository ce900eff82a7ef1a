//! Complex number arithmetic.
//!
//! A small, dependency-free complex type.  Only the operations the simulator
//! and the segmentation algorithm need are implemented; everything is `f64`.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number `re + i·im`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub(crate) const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    #[cfg(test)]
    pub(crate) const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    pub(crate) const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    pub(crate) const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// `e^{iθ} = cos θ + i sin θ`.
    pub(crate) fn from_phase(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Creates `r·e^{iθ}`.
    pub(crate) fn from_polar(r: f64, theta: f64) -> Self {
        Self {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Complex conjugate.
    #[cfg(test)]
    pub(crate) fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Scales by a real factor.
    pub(crate) fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Subtraction helper usable in const-free contexts (mirrors `-`).
    #[allow(clippy::should_implement_trait)] // deliberate mirror of the operator
    pub fn sub(self, other: Self) -> Self {
        self - other
    }

    /// True if both parts are within `eps` of `other`'s.
    #[cfg(test)]
    pub(crate) fn approx_eq(self, other: Self, eps: f64) -> bool {
        (self.re - other.re).abs() <= eps && (self.im - other.im).abs() <= eps
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn constants_behave() {
        assert_eq!(Complex::ZERO + Complex::ONE, Complex::ONE);
        assert_eq!(Complex::I * Complex::I, -Complex::ONE);
        assert_eq!(Complex::from(3.0), Complex::new(3.0, 0.0));
    }

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.5, -2.0);
        let b = Complex::new(-0.5, 3.0);
        assert_eq!(a + b, Complex::new(1.0, 1.0));
        assert_eq!(a - b, Complex::new(2.0, -5.0));
        // (1.5 - 2i)(-0.5 + 3i) = -0.75 + 4.5i + 1i + 6 = 5.25 + 5.5i
        let p = a * b;
        assert!((p.re - 5.25).abs() < 1e-12);
        assert!((p.im - 5.5).abs() < 1e-12);
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
    }

    #[test]
    fn phase_and_polar() {
        let z = Complex::from_phase(PI / 2.0);
        assert!(z.approx_eq(Complex::I, 1e-12));
        assert!((z.abs() - 1.0).abs() < 1e-12);
        assert!((z.arg() - PI / 2.0).abs() < 1e-12);
        let w = Complex::from_polar(2.0, PI);
        assert!(w.approx_eq(Complex::new(-2.0, 0.0), 1e-12));
    }

    #[test]
    fn conjugate_and_modulus() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.conj(), Complex::new(3.0, -4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!((z * z.conj()).re, 25.0);
        assert!((z * z.conj()).im.abs() < 1e-12);
    }

    #[test]
    fn scale_and_neg() {
        let z = Complex::new(1.0, -2.0);
        assert_eq!(z.scale(2.0), Complex::new(2.0, -4.0));
        assert_eq!(-z, Complex::new(-1.0, 2.0));
        assert_eq!(z.sub(z), Complex::ZERO);
    }

    #[test]
    fn phase_multiplication_adds_angles() {
        let a = Complex::from_phase(0.7);
        let b = Complex::from_phase(1.1);
        let prod = a * b;
        assert!(prod.approx_eq(Complex::from_phase(1.8), 1e-12));
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Complex::new(1.0, 1.0);
        let b = Complex::new(1.0 + 1e-10, 1.0 - 1e-10);
        assert!(a.approx_eq(b, 1e-9));
        assert!(!a.approx_eq(b, 1e-12));
    }
}
