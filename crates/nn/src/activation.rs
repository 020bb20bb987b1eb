//! Activation functions.
//!
//! The paper's networks use **Leaky ReLU** hidden layers and a **sigmoid**
//! output layer (Sec. VI-A); the other variants are used by the comparator
//! training techniques (tanh-squashed Gaussian policies in SAC, softplus for
//! positive std heads).

use serde::{Deserialize, Serialize};

use crate::Matrix;

/// An element-wise activation function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Activation {
    /// `f(x) = x`.
    Identity,
    /// `f(x) = max(0, x)`.
    Relu,
    /// `f(x) = x` for `x > 0`, `alpha * x` otherwise. The paper uses
    /// `alpha = 0.01` ("Leaky Rectifier").
    LeakyRelu(f64),
    /// Logistic sigmoid `f(x) = 1 / (1 + e^{-x})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// `f(x) = ln(1 + e^x)`, numerically stabilized.
    Softplus,
}

impl Activation {
    /// The paper's hidden-layer activation: Leaky ReLU with slope 0.01.
    pub const fn leaky_default() -> Self {
        Activation::LeakyRelu(0.01)
    }

    /// Applies the activation to a scalar.
    #[inline]
    pub fn eval(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu(a) => {
                if x > 0.0 {
                    x
                } else {
                    a * x
                }
            }
            Activation::Sigmoid => sigmoid(x),
            Activation::Tanh => x.tanh(),
            Activation::Softplus => softplus(x),
        }
    }

    /// Derivative of the activation expressed in terms of the
    /// **pre-activation** input `x`.
    #[inline]
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu(a) => {
                if x > 0.0 {
                    1.0
                } else {
                    a
                }
            }
            Activation::Sigmoid => {
                let s = sigmoid(x);
                s * (1.0 - s)
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Softplus => sigmoid(x),
        }
    }

    /// Applies the activation element-wise, writing into `out` (resized as
    /// needed). Allocation-free once `out` has warmed up.
    pub fn forward_into(self, z: &Matrix, out: &mut Matrix) {
        out.resize_for(z.rows(), z.cols());
        for (o, &x) in out.as_mut_slice().iter_mut().zip(z.as_slice()) {
            *o = self.eval(x);
        }
    }

    /// Writes `d_out ⊙ act'(z)` into `dz` (resized as needed), one
    /// `d * act.derivative(z)` product per element.
    ///
    /// # Panics
    ///
    /// Panics if `z` and `d_out` shapes differ.
    pub fn backward_weighted_into(self, z: &Matrix, d_out: &Matrix, dz: &mut Matrix) {
        assert_eq!(z.shape(), d_out.shape(), "backward_weighted shape mismatch");
        dz.resize_for(z.rows(), z.cols());
        for ((o, &d), &x) in dz
            .as_mut_slice()
            .iter_mut()
            .zip(d_out.as_slice())
            .zip(z.as_slice())
        {
            *o = d * self.derivative(x);
        }
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable softplus `ln(1 + e^x)`.
#[inline]
pub fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACTS: [Activation; 6] = [
        Activation::Identity,
        Activation::Relu,
        Activation::LeakyRelu(0.01),
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Softplus,
    ];

    #[test]
    fn derivative_matches_finite_difference() {
        let eps = 1e-6;
        for act in ACTS {
            for &x in &[-2.0, -0.5, 0.3, 1.7, 5.0] {
                let fd = (act.eval(x + eps) - act.eval(x - eps)) / (2.0 * eps);
                let an = act.derivative(x);
                assert!(
                    (fd - an).abs() < 1e-5,
                    "{act:?} derivative mismatch at {x}: fd={fd} an={an}"
                );
            }
        }
    }

    #[test]
    fn sigmoid_is_bounded_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 1e-3);
        for &x in &[-3.0, -1.0, 0.5, 2.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn softplus_stable_at_extremes() {
        assert!((softplus(100.0) - 100.0).abs() < 1e-9);
        assert!(softplus(-100.0) >= 0.0);
        assert!(softplus(-100.0) < 1e-9);
        assert!((softplus(0.0) - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn leaky_relu_negative_slope() {
        let a = Activation::LeakyRelu(0.1);
        assert!((a.eval(-10.0) + 1.0).abs() < 1e-12);
        assert!((a.eval(10.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn matrix_forward_backward_shapes() {
        let m = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        let (mut out, mut dz) = (Matrix::zeros(2, 2), Matrix::zeros(2, 2));
        for act in ACTS {
            act.forward_into(&m, &mut out);
            assert_eq!(out.shape(), (1, 3));
            act.backward_weighted_into(&m, &m, &mut dz);
            assert_eq!(dz.shape(), (1, 3));
        }
    }
}
