//! A single fully-connected layer.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Activation, Init, Matrix, Parallelism};

/// A dense layer computing `act(x Wᵀ + b)` over a batch of row-vector inputs.
///
/// Weights are stored `out × in` so a batch forward pass is a single
/// [`Matrix::matmul_a_bt_into`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    weights: Matrix,
    bias: Vec<f64>,
    activation: Activation,
}

/// Gradients of a [`Dense`] layer's parameters for one backward pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DenseGrad {
    /// Gradient with respect to the weights, `out × in`.
    pub weights: Matrix,
    /// Gradient with respect to the bias, length `out`.
    pub bias: Vec<f64>,
}

impl DenseGrad {
    /// A zero gradient with the same shape as `layer`.
    pub fn zeros_like(layer: &Dense) -> Self {
        Self {
            weights: Matrix::zeros(layer.out_dim(), layer.in_dim()),
            bias: vec![0.0; layer.out_dim()],
        }
    }

    /// Reshapes this gradient to match `layer`, reusing allocations.
    /// Values are unspecified afterwards; callers overwrite them.
    pub fn resize_like(&mut self, layer: &Dense) {
        self.weights.resize_for(layer.out_dim(), layer.in_dim());
        self.bias.resize(layer.out_dim(), 0.0);
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &DenseGrad) {
        self.weights.axpy(alpha, &other.weights);
        for (b, o) in self.bias.iter_mut().zip(&other.bias) {
            *b += alpha * o;
        }
    }

    /// Multiplies the gradient by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        self.weights.scale(alpha);
        for b in &mut self.bias {
            *b *= alpha;
        }
    }

    /// Squared L2 norm of the gradient.
    pub fn norm_sq(&self) -> f64 {
        let w = self.weights.as_slice().iter().map(|x| x * x).sum::<f64>();
        let b = self.bias.iter().map(|x| x * x).sum::<f64>();
        w + b
    }
}

impl Dense {
    /// Creates a layer with `init`-sampled weights and zero bias.
    pub fn new(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            weights: init.sample(out_dim, in_dim, rng),
            bias: vec![0.0; out_dim],
            activation,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weights.rows()
    }

    /// This layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Borrow the weight matrix (`out × in`).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutably borrow the weight matrix.
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Borrow the bias vector.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Mutably borrow the bias vector.
    pub fn bias_mut(&mut self) -> &mut [f64] {
        &mut self.bias
    }

    /// Number of scalar parameters (`out*in + out`).
    pub fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// Forward pass; returns the activated output (`batch × out`). The
    /// allocating convenience over [`Dense::forward_into`].
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let (mut z, mut out) = (Matrix::default(), Matrix::default());
        self.forward_into(x, &mut z, &mut out);
        out
    }

    /// Fused forward pass writing the pre-activation `z = x Wᵀ + b` into
    /// `z` and the activated output into `out` (both resized as needed).
    ///
    /// The product runs through [`Matrix::matmul_a_bt_into`], which keeps
    /// the per-element accumulation order of
    /// [`oracle::matmul_nt`](crate::oracle::matmul_nt), so the pass is
    /// bit-identical to the oracle's forward.
    pub fn forward_into(&self, x: &Matrix, z: &mut Matrix, out: &mut Matrix) {
        x.matmul_a_bt_into(&self.weights, z);
        z.add_row_broadcast(&self.bias);
        self.activation.forward_into(z, out);
    }

    /// [`Dense::forward_into`] with the batch's rows split across up to the
    /// requested number of worker threads ([`Matrix::matmul_a_bt_par_into`]).
    /// Byte-identical to [`Dense::forward_into`] for any thread count: the
    /// GEMM is row-split-invariant and the bias/activation steps are
    /// element-wise.
    pub fn forward_par_into(&self, x: &Matrix, z: &mut Matrix, out: &mut Matrix, par: Parallelism) {
        x.matmul_a_bt_par_into(&self.weights, z, par);
        z.add_row_broadcast(&self.bias);
        self.activation.forward_into(z, out);
    }

    /// Backward pass into caller-owned buffers.
    ///
    /// Given the layer input `x`, the cached pre-activation `z`, and the
    /// upstream gradient `d_out = ∂L/∂(activated output)`, writes the
    /// parameter gradients into `grad`, the activation-weighted delta into
    /// `dz`, and `∂L/∂x` into `dx`. Gradients are **sums** over the batch;
    /// callers divide by the batch size if they want means. Bit-identical
    /// to the oracle's backward, allocation-free once the buffers have
    /// warmed up.
    pub fn backward_into(
        &self,
        x: &Matrix,
        z: &Matrix,
        d_out: &Matrix,
        grad: &mut DenseGrad,
        dz: &mut Matrix,
        dx: &mut Matrix,
    ) {
        self.activation.backward_weighted_into(z, d_out, dz);
        grad.resize_like(self);
        dz.matmul_at_b_into(x, &mut grad.weights);
        dz.sum_rows_into(&mut grad.bias);
        dz.matmul_into(&self.weights, dx);
    }

    /// Input-gradient-only backward pass: like [`Dense::backward_into`] but
    /// skips the parameter gradients (`dW`, `db`). Used when a network is
    /// differentiated purely to obtain `∂L/∂input` — e.g. backing the DDPG
    /// actor objective through a frozen critic — where computing `dW` would
    /// be wasted work. `dx` is bit-identical to the full backward pass
    /// because it depends only on `dz` and the weights.
    pub fn backward_input_into(
        &self,
        z: &Matrix,
        d_out: &Matrix,
        dz: &mut Matrix,
        dx: &mut Matrix,
    ) {
        self.activation.backward_weighted_into(z, d_out, dz);
        dz.matmul_into(&self.weights, dx);
    }

    /// `self ← (1 - tau) * self + tau * source` (Polyak/soft target update).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn soft_update_from(&mut self, source: &Dense, tau: f64) {
        assert_eq!(
            self.weights.shape(),
            source.weights.shape(),
            "soft update shape mismatch"
        );
        self.weights.scale(1.0 - tau);
        self.weights.axpy(tau, &source.weights);
        for (b, s) in self.bias.iter_mut().zip(&source.bias) {
            *b = (1.0 - tau) * *b + tau * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer() -> Dense {
        let mut rng = StdRng::seed_from_u64(7);
        Dense::new(3, 2, Activation::Tanh, Init::XavierUniform, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let l = layer();
        let x = Matrix::zeros(5, 3);
        assert_eq!(l.forward(&x).shape(), (5, 2));
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let mut l = layer();
        let x = Matrix::from_rows(&[&[0.5, -0.2, 0.8], &[1.0, 0.3, -0.7]]);
        // Loss = sum of outputs, so d_out = ones.
        let loss = |l: &Dense, x: &Matrix| l.forward(x).sum();
        let (mut z, mut out) = (Matrix::default(), Matrix::default());
        l.forward_into(&x, &mut z, &mut out);
        let d_out = Matrix::filled(2, 2, 1.0);
        let (mut grad, mut dz, mut dx) =
            (DenseGrad::default(), Matrix::default(), Matrix::default());
        l.backward_into(&x, &z, &d_out, &mut grad, &mut dz, &mut dx);

        let eps = 1e-6;
        for i in 0..2 {
            for j in 0..3 {
                let orig = l.weights()[(i, j)];
                l.weights_mut()[(i, j)] = orig + eps;
                let up = loss(&l, &x);
                l.weights_mut()[(i, j)] = orig - eps;
                let dn = loss(&l, &x);
                l.weights_mut()[(i, j)] = orig;
                let fd = (up - dn) / (2.0 * eps);
                assert!(
                    (fd - grad.weights[(i, j)]).abs() < 1e-5,
                    "dW[{i},{j}] fd={fd} an={}",
                    grad.weights[(i, j)]
                );
            }
            let orig = l.bias()[i];
            l.bias_mut()[i] = orig + eps;
            let up = loss(&l, &x);
            l.bias_mut()[i] = orig - eps;
            let dn = loss(&l, &x);
            l.bias_mut()[i] = orig;
            let fd = (up - dn) / (2.0 * eps);
            assert!((fd - grad.bias[i]).abs() < 1e-5, "db[{i}]");
        }

        // dX finite difference.
        let mut x2 = x.clone();
        for r in 0..2 {
            for c in 0..3 {
                let orig = x2[(r, c)];
                x2[(r, c)] = orig + eps;
                let up = loss(&l, &x2);
                x2[(r, c)] = orig - eps;
                let dn = loss(&l, &x2);
                x2[(r, c)] = orig;
                let fd = (up - dn) / (2.0 * eps);
                assert!((fd - dx[(r, c)]).abs() < 1e-5, "dX[{r},{c}]");
            }
        }
    }

    #[test]
    fn soft_update_converges_to_source() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut a = Dense::new(2, 2, Activation::Identity, Init::XavierUniform, &mut rng);
        let b = Dense::new(2, 2, Activation::Identity, Init::XavierUniform, &mut rng);
        for _ in 0..2000 {
            a.soft_update_from(&b, 0.01);
        }
        let diff = (a.weights() - b.weights()).norm();
        assert!(diff < 1e-6, "diff {diff}");
    }

    #[test]
    fn soft_update_tau_one_copies() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut a = Dense::new(2, 3, Activation::Relu, Init::HeUniform, &mut rng);
        let b = Dense::new(2, 3, Activation::Relu, Init::HeUniform, &mut rng);
        a.soft_update_from(&b, 1.0);
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.bias(), b.bias());
    }

    #[test]
    fn grad_helpers() {
        let l = layer();
        let mut g = DenseGrad::zeros_like(&l);
        assert_eq!(g.norm_sq(), 0.0);
        let mut h = DenseGrad::zeros_like(&l);
        h.weights[(0, 0)] = 3.0;
        h.bias[1] = 4.0;
        g.axpy(1.0, &h);
        assert!((g.norm_sq() - 25.0).abs() < 1e-12);
        g.scale(0.5);
        assert!((g.norm_sq() - 6.25).abs() < 1e-12);
    }
}
