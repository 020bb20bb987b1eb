//! The naive reference path: the one bit-identity oracle for the training
//! stack, and the "before" of the `trainperf` benchmark.
//!
//! Everything here is the plainest correct form of what the training
//! kernels compute:
//!
//! - [`matmul`], [`matmul_tn`] and [`matmul_nt`]: `k`-ascending GEMMs
//!   over freshly allocated outputs, with the zero-skips the original
//!   kernels had;
//! - [`forward`] and [`backward`]: an allocating MLP pass that caches
//!   every layer's input and pre-activation;
//! - [`adam_step`]: Adam as flatten → update → scatter.
//!
//! Nothing here calls an `_into` kernel, the [`TrainScratch`] pass or any
//! other helper the training pass uses (bias adds and bias-gradient sums
//! are spelled out here too), so comparing the two is never tautological
//! (DESIGN.md §10). The fast path must reproduce it bit for bit on finite
//! operands.
//!
//! [`TrainScratch`]: crate::TrainScratch
//!
//! # Examples
//!
//! ```
//! use edgeslice_nn::{oracle, Activation, Matrix, Mlp, TrainScratch};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = Mlp::new(&[3, 8, 2], Activation::Tanh, Activation::Sigmoid, &mut rng);
//! let x = Matrix::from_fn(4, 3, |i, j| (i + j) as f64 / 4.0 - 0.5);
//! let d = Matrix::filled(4, 2, 1.0);
//!
//! let pass = oracle::forward(&net, &x);
//! let (grads, d_input) = oracle::backward(&net, &pass, &d);
//!
//! let mut s = TrainScratch::new();
//! net.forward_scratch(&x, &mut s);
//! net.backward_scratch(&mut s, &d);
//! assert_eq!(s.output(), pass.output());
//! assert_eq!(s.grads(), &grads);
//! assert_eq!(s.d_input(), &d_input);
//! ```

use crate::{Adam, DenseGrad, Gradients, Matrix, Mlp};

/// Matrix product `a * b`, `ikj` order with every output accumulating its
/// terms in ascending `k`; zero entries of `a` are skipped.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul dimension mismatch: {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let n = b.cols();
    let mut out = Matrix::zeros(a.rows(), n);
    for i in 0..a.rows() {
        let out_row = out.row_mut(i);
        for (k, &a_ik) in a.row(i).iter().enumerate() {
            // lint:allow(float-eq): bit-exact zero-skip — part of the kernels' bit-identity contract (DESIGN.md §10)
            if a_ik == 0.0 {
                continue;
            }
            for (o, &b_kj) in out_row.iter_mut().zip(b.row(k)) {
                *o += a_ik * b_kj;
            }
        }
    }
    out
}

/// Matrix product `aᵀ * b` without materialising the transpose, streamed
/// `k`-outer; zero entries of `a` are skipped.
///
/// # Panics
///
/// Panics if `a.rows() != b.rows()`.
// lint:allow(transitive-alloc): the oracle allocates by design — the `*_into` kernels are the hot-path variants
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn dimension mismatch: ({}x{})ᵀ * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for k in 0..a.rows() {
        let b_row = b.row(k);
        for (i, &a_ki) in a.row(k).iter().enumerate() {
            // lint:allow(float-eq): bit-exact zero-skip — part of the kernels' bit-identity contract (DESIGN.md §10)
            if a_ki == 0.0 {
                continue;
            }
            for (o, &b_kj) in out.row_mut(i).iter_mut().zip(b_row) {
                *o += a_ki * b_kj;
            }
        }
    }
    out
}

/// Matrix product `a * bᵀ` without materialising the transpose: one
/// single-accumulator dot product per output, `k` ascending.
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
// lint:allow(transitive-alloc): the oracle allocates by design — the `*_into` kernels are the hot-path variants
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt dimension mismatch: {}x{} * ({}x{})ᵀ",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0;
            for (&x, &y) in a.row(i).iter().zip(b.row(j)) {
                acc += x * y;
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// One recorded [`forward`] pass: what [`backward`] needs.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Input to each layer (`inputs[0]` is the network input).
    inputs: Vec<Matrix>,
    /// Pre-activation of each layer.
    pre: Vec<Matrix>,
    /// Final activated output.
    output: Matrix,
}

impl Pass {
    /// The network output of this pass.
    pub fn output(&self) -> &Matrix {
        &self.output
    }
}

/// Forward pass of `net` over a batch (`batch × in_dim`), recording every
/// layer's input and pre-activation `z = x Wᵀ + b`.
pub fn forward(net: &Mlp, x: &Matrix) -> Pass {
    let mut inputs = Vec::with_capacity(net.layers().len());
    let mut pre = Vec::with_capacity(net.layers().len());
    let mut h = x.clone();
    for layer in net.layers() {
        let mut z = matmul_nt(&h, layer.weights());
        for r in 0..z.rows() {
            for (v, &b) in z.row_mut(r).iter_mut().zip(layer.bias()) {
                *v += b;
            }
        }
        let out = z.map(|v| layer.activation().eval(v));
        inputs.push(h);
        pre.push(z);
        h = out;
    }
    Pass {
        inputs,
        pre,
        output: h,
    }
}

/// Backpropagates `d_output = ∂L/∂output` through `pass`. Returns the
/// parameter gradients (sums over the batch) and `∂L/∂input`.
pub fn backward(net: &Mlp, pass: &Pass, d_output: &Matrix) -> (Gradients, Matrix) {
    let mut layers = vec![DenseGrad::default(); net.layers().len()];
    let mut d = d_output.clone();
    for (idx, layer) in net.layers().iter().enumerate().rev() {
        let act = layer.activation();
        let mut dz = d;
        for (g, &z) in dz.as_mut_slice().iter_mut().zip(pass.pre[idx].as_slice()) {
            *g *= act.derivative(z);
        }
        let mut bias = vec![0.0; dz.cols()];
        for r in 0..dz.rows() {
            for (b, &v) in bias.iter_mut().zip(dz.row(r)) {
                *b += v;
            }
        }
        layers[idx] = DenseGrad {
            weights: matmul_tn(&dz, &pass.inputs[idx]),
            bias,
        };
        d = matmul(&dz, layer.weights());
    }
    (Gradients { layers }, d)
}

/// One Adam step as flatten → update → scatter: the parameters and
/// gradients are copied into flat vectors, updated slot by slot and
/// written back. Same per-parameter arithmetic as [`Adam::step`].
///
/// # Panics
///
/// Panics if the optimizer was sized for a different architecture.
pub fn adam_step(opt: &mut Adam, net: &mut Mlp, grads: &Gradients) {
    let g = net.flat_grads(grads);
    assert_eq!(g.len(), opt.m.len(), "optimizer/network size mismatch");
    opt.t += 1;
    let b1t = 1.0 - opt.beta1.powi(opt.t as i32);
    let b2t = 1.0 - opt.beta2.powi(opt.t as i32);
    let mut params = net.flat_params();
    for i in 0..g.len() {
        opt.m[i] = opt.beta1 * opt.m[i] + (1.0 - opt.beta1) * g[i];
        opt.v[i] = opt.beta2 * opt.v[i] + (1.0 - opt.beta2) * g[i] * g[i];
        let m_hat = opt.m[i] / b1t;
        let v_hat = opt.v[i] / b2t;
        params[i] -= opt.lr * m_hat / (v_hat.sqrt() + opt.eps);
    }
    net.set_flat_params(&params);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(matmul(&a, &Matrix::identity(3)), a);
        assert_eq!(matmul(&Matrix::identity(2), &a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, -1.0], &[0.0, 3.0]]);
        assert_eq!(matmul_tn(&a, &b), matmul(&a.transpose(), &b));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[-1.0, 1.0, 0.5]]);
        assert_eq!(matmul_nt(&a, &b), matmul(&a, &b.transpose()));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }
}
