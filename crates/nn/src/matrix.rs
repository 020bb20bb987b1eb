//! Dense row-major matrices over `f64`.
//!
//! This is deliberately a small, allocation-explicit matrix type rather than
//! a general tensor library: everything EdgeSlice needs is 2-D (batches of
//! states/actions flowing through fully-connected layers) and small (layer
//! widths of 64–256), so a cache-friendly `ikj` matmul over a contiguous
//! `Vec<f64>` is both simple and fast enough to train the paper's 2×128
//! networks on a laptop.

use std::fmt;
use std::ops::{Add, Mul, Sub};

use serde::{Deserialize, Serialize};

use crate::par::Parallelism;

/// Inner-dimension (`k`) tile for the cache-blocked GEMM kernels: terms per
/// packed B panel. `TILE_K × TILE_N` f64 values are 64 KiB — sized so one
/// panel plus the active A rows stay resident in L1/L2 while every output
/// tile is visited.
pub const TILE_K: usize = 128;

/// Output-width (`n`) tile for the cache-blocked GEMM kernels: columns per
/// packed B panel.
pub const TILE_N: usize = 64;

/// Length of one packed B panel (`TILE_K × TILE_N`), held in a stack array
/// so the blocked kernels never touch the allocator.
const PANEL_LEN: usize = TILE_K * TILE_N;

/// A dense, row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use edgeslice_nn::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let mut c = Matrix::default();
/// a.matmul_into(&b, &mut c);
/// assert_eq!(c, a);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a single-row matrix from a slice (a row vector).
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates a single-column matrix from a slice (a column vector).
    pub fn col_vector(values: &[f64]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix and return its row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// The transpose of this matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Reshapes this matrix to `rows × cols` in place, reusing the existing
    /// allocation whenever capacity allows. Element values after the call
    /// are unspecified; callers are expected to overwrite them.
    ///
    /// This is the backbone of the scratch-arena pattern: after the first
    /// training step every buffer has reached its steady-state capacity and
    /// `resize_for` never touches the allocator again.
    #[inline]
    pub fn resize_for(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Sets every element to `value` in place.
    #[inline]
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Makes this matrix an element-for-element copy of `src`, reusing the
    /// existing allocation whenever capacity allows.
    #[inline]
    pub fn copy_from(&mut self, src: &Matrix) {
        self.resize_for(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Matrix product `self * rhs` written into `out` (resized as needed).
    ///
    /// Register-tiled (eight output columns per accumulator tile), and
    /// cache-blocked via
    /// [`Matrix::matmul_blocked_into`] once both the inner dimension and
    /// the output width exceed the [`TILE_K`]/[`TILE_N`] tiles: every
    /// output element keeps the `k`-ascending accumulation of
    /// [`oracle::matmul`](crate::oracle::matmul), so results are bit-identical on either path for
    /// finite operands (DESIGN.md §14 covers the zero-skip elision) — only
    /// the allocation and the memory-bound accumulator are gone.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul_into dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        out.resize_for(m, n);
        matmul_rows(&self.data, k, 0, m, &rhs.data, n, &mut out.data);
    }

    /// [`Matrix::matmul_into`] with the cache-blocked schedule forced
    /// regardless of shape (the plain entry point picks it automatically
    /// for large shapes). Bit-identical to [`oracle::matmul`](crate::oracle::matmul): `k`-tiles
    /// are visited in ascending order and partial sums round-trip through
    /// `out` unchanged, so every output element still accumulates its
    /// terms in ascending `k`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul_blocked_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul_blocked_into dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        out.resize_for(m, n);
        matmul_rows_blocked(&self.data, k, 0, m, &rhs.data, n, &mut out.data);
    }

    /// [`Matrix::matmul_into`] with output rows split across up to the
    /// requested number of scoped worker threads. Every row is a pure
    /// function of the global operands, so the result is byte-identical
    /// to [`Parallelism::Sequential`] for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul_par_into(&self, rhs: &Matrix, out: &mut Matrix, par: Parallelism) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul_par_into dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        out.resize_for(m, n);
        let (a, b) = (&self.data, &rhs.data);
        crate::par::run_row_chunks(par, m, n, &mut out.data, |i0, nr, rows| {
            matmul_rows(a, k, i0, nr, b, n, rows);
        });
    }

    /// Matrix product `selfᵀ * rhs` written into `out` (resized as needed),
    /// without materializing the transpose.
    ///
    /// Streamed `t`-outer like [`oracle::matmul_tn`](crate::oracle::matmul_tn) (cache-blocked with a
    /// transpose-packed A block for large shapes): every output element
    /// keeps the `k`-ascending accumulation, so results are bit-identical
    /// for finite operands (DESIGN.md §14 covers the zero-skip elision) —
    /// only the allocation is gone.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub fn matmul_at_b_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_at_b_into dimension mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (r, m, n) = (self.rows, self.cols, rhs.cols);
        out.resize_for(m, n);
        // Sub-sliver outputs (< 8 columns) re-walk the strided `self`
        // column once per register tile, which costs more than it saves;
        // stream the operands with the memory-accumulator `kij` loop
        // instead. The two loop structures are bit-identical, so the
        // cutover is purely a performance choice.
        if r == 0 || n < 8 {
            out.data.fill(0.0);
            for t in 0..r {
                let a_row = &self.data[t * m..(t + 1) * m];
                let b_row = &rhs.data[t * n..(t + 1) * n];
                for (i, &a_ti) in a_row.iter().enumerate() {
                    let out_row = &mut out.data[i * n..(i + 1) * n];
                    for (o, &b_tj) in out_row.iter_mut().zip(b_row) {
                        *o += a_ti * b_tj;
                    }
                }
            }
            return;
        }
        at_b_rows(&self.data, m, r, 0, m, &rhs.data, n, &mut out.data);
    }

    /// [`Matrix::matmul_at_b_into`] with the cache-blocked schedule forced
    /// regardless of shape. Bit-identical to [`oracle::matmul_tn`](crate::oracle::matmul_tn) for the
    /// same reason as [`Matrix::matmul_blocked_into`].
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub fn matmul_at_b_blocked_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_at_b_blocked_into dimension mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (r, m, n) = (self.rows, self.cols, rhs.cols);
        out.resize_for(m, n);
        at_b_rows_blocked(&self.data, m, r, 0, m, &rhs.data, n, &mut out.data);
    }

    /// [`Matrix::matmul_at_b_into`] with output rows (columns of `self`)
    /// split across up to the requested number of scoped worker threads;
    /// byte-identical to [`Parallelism::Sequential`] for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub fn matmul_at_b_par_into(&self, rhs: &Matrix, out: &mut Matrix, par: Parallelism) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_at_b_par_into dimension mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (r, m, n) = (self.rows, self.cols, rhs.cols);
        out.resize_for(m, n);
        let (a, b) = (&self.data, &rhs.data);
        crate::par::run_row_chunks(par, m, n, &mut out.data, |i0, nr, rows| {
            at_b_rows(a, m, r, i0, nr, b, n, rows);
        });
    }

    /// Matrix product `self * rhsᵀ` written into `out` (resized as needed),
    /// without materializing the transpose.
    ///
    /// The kernel is blocked 2×4: two rows of `self` against four rows of
    /// `rhs` give eight independent accumulator chains, which hides the
    /// floating-point add latency that serializes the single-accumulator
    /// dot product in [`oracle::matmul_nt`](crate::oracle::matmul_nt). Every output element is still
    /// one accumulator running over `k` in ascending order, so results are
    /// bit-identical to the oracle — the blocking only reorders *which*
    /// outputs are in flight, never the sum inside one output.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_a_bt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_a_bt_into dimension mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        out.resize_for(m, n);
        a_bt_rows(&self.data, m, k, 0, m, &rhs.data, n, &mut out.data);
    }

    /// [`Matrix::matmul_a_bt_into`] with the cache-blocked schedule forced
    /// regardless of shape. Bit-identical to [`oracle::matmul_nt`](crate::oracle::matmul_nt): every
    /// output is still one accumulator running over `k` ascending (partial
    /// sums round-trip through `out` between `k`-tiles unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_a_bt_blocked_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_a_bt_blocked_into dimension mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        out.resize_for(m, n);
        a_bt_rows_blocked(&self.data, k, 0, m, &rhs.data, n, &mut out.data);
    }

    /// [`Matrix::matmul_a_bt_into`] with output rows split across up to
    /// the requested number of scoped worker threads; byte-identical to
    /// [`Parallelism::Sequential`] for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_a_bt_par_into(&self, rhs: &Matrix, out: &mut Matrix, par: Parallelism) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_a_bt_par_into dimension mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        out.resize_for(m, n);
        let (a, b) = (&self.data, &rhs.data);
        crate::par::run_row_chunks(par, m, n, &mut out.data, |i0, nr, rows| {
            a_bt_rows(a, m, k, i0, nr, b, n, rows);
        });
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn apply(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// `self += alpha * rhs` in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Adds `row` (a 1×cols matrix or slice) to every row in place.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols`.
    pub fn add_row_broadcast(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "broadcast row length mismatch");
        for r in self.data.chunks_exact_mut(self.cols) {
            for (x, &b) in r.iter_mut().zip(row) {
                *x += b;
            }
        }
    }

    /// Column-wise sum written into `out` (resized to `cols` as needed),
    /// rows accumulated top to bottom.
    pub fn sum_rows_into(&self, out: &mut Vec<f64>) {
        out.resize(self.cols, 0.0);
        out.fill(0.0);
        for r in self.data.chunks_exact(self.cols) {
            for (o, &x) in out.iter_mut().zip(r) {
                *o += x;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// Returns 0 for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Dot product of the flattened matrices.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn dot(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.data.len(), rhs.data.len(), "dot length mismatch");
        self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).sum()
    }

    /// Selects the given rows into a new matrix (used for minibatch
    /// sampling).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Stacks matrices vertically.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ or `mats` is empty.
    pub fn vstack(mats: &[&Matrix]) -> Matrix {
        assert!(!mats.is_empty(), "vstack requires at least one matrix");
        let cols = mats[0].cols;
        let rows: usize = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// Concatenates matrices horizontally (same number of rows).
    ///
    /// # Panics
    ///
    /// Panics if row counts differ or `mats` is empty.
    pub fn hstack(mats: &[&Matrix]) -> Matrix {
        assert!(!mats.is_empty(), "hstack requires at least one matrix");
        let rows = mats[0].rows;
        let cols: usize = mats.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            let mut off = 0;
            for m in mats {
                assert_eq!(m.rows, rows, "hstack row mismatch");
                out.data[i * cols + off..i * cols + off + m.cols].copy_from_slice(m.row(i));
                off += m.cols;
            }
        }
        out
    }

    /// Concatenates matrices horizontally into `out` (resized as needed).
    ///
    /// Same layout as [`Matrix::hstack`], without the allocation.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ or `mats` is empty.
    pub fn hstack_into(mats: &[&Matrix], out: &mut Matrix) {
        assert!(!mats.is_empty(), "hstack requires at least one matrix");
        let rows = mats[0].rows;
        let cols: usize = mats.iter().map(|m| m.cols).sum();
        out.resize_for(rows, cols);
        for i in 0..rows {
            let mut off = 0;
            for m in mats {
                assert_eq!(m.rows, rows, "hstack row mismatch");
                out.data[i * cols + off..i * cols + off + m.cols].copy_from_slice(m.row(i));
                off += m.cols;
            }
        }
    }

    /// True if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// Single-accumulator dot product, `k` ascending — the scalar tail of
/// [`Matrix::matmul_a_bt_into`], matching [`oracle::matmul_nt`](crate::oracle::matmul_nt) bit for bit.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Computes one output row `out[j] = Σ_t a[t] · b[t·n + j]` with every
/// output's accumulation running over `t` ascending — the same per-output
/// term order as the memory-accumulator loops of [`oracle::matmul`](crate::oracle::matmul) and
/// [`oracle::matmul_tn`](crate::oracle::matmul_tn), so results are bit-identical on finite operands
/// (see DESIGN.md §14 on why the references' zero-skip is elided here:
/// adding a `±0.0` product is exact, and a partial sum seeded from `+0.0`
/// can never itself be `-0.0`, so skip and no-skip produce the same bits —
/// while a branch-free inner loop is what lets the compiler vectorize it).
///
/// Outputs are tiled 8 wide into register accumulators, with one
/// variable-width tail tile (< 8 outputs) that still runs a single pass
/// over `t`: eight independent FP-add chains hide the add latency that
/// serializes a load-add-store accumulator in memory, the `b` reads stay
/// contiguous per term, and narrow trailing columns never fall back to a
/// one-column-at-a-time scalar loop (the cause of PR 4's `matmul` 0.91×
/// regression at `n = 18`).
#[inline]
fn accumulate_row(a: &[f64], b: &[f64], n: usize, out: &mut [f64]) {
    let mut j = 0;
    while j + 8 <= n {
        let mut acc = [0.0f64; 8];
        for (t, &a_t) in a.iter().enumerate() {
            let b_row = &b[t * n + j..t * n + j + 8];
            for (o, &bv) in acc.iter_mut().zip(b_row) {
                *o += a_t * bv;
            }
        }
        out[j..j + 8].copy_from_slice(&acc);
        j += 8;
    }
    if j < n {
        let w = n - j;
        let mut acc = [0.0f64; 8];
        for (t, &a_t) in a.iter().enumerate() {
            let b_row = &b[t * n + j..t * n + j + w];
            for (o, &bv) in acc[..w].iter_mut().zip(b_row) {
                *o += a_t * bv;
            }
        }
        out[j..j + w].copy_from_slice(&acc[..w]);
    }
}

/// Like [`accumulate_row`] but for **two output rows** at once: `out0[j] =
/// Σ_t a0[t] · b[t·n + j]` and likewise for `a1`/`out1`. Each output keeps
/// its own accumulator and its own `t`-ascending order, so results are
/// bit-identical to two independent [`accumulate_row`] calls — the pairing
/// only halves the passes over `b` (the cause of PR 4's `matmul` 0.91×
/// regression: every row re-streamed the full `b`).
#[inline]
fn accumulate_row_pair(
    a0: &[f64],
    a1: &[f64],
    b: &[f64],
    n: usize,
    out0: &mut [f64],
    out1: &mut [f64],
) {
    let mut j = 0;
    while j + 8 <= n {
        let mut acc0 = [0.0f64; 8];
        let mut acc1 = [0.0f64; 8];
        for (t, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
            let b_row = &b[t * n + j..t * n + j + 8];
            for i in 0..8 {
                acc0[i] += x0 * b_row[i];
                acc1[i] += x1 * b_row[i];
            }
        }
        out0[j..j + 8].copy_from_slice(&acc0);
        out1[j..j + 8].copy_from_slice(&acc1);
        j += 8;
    }
    if j < n {
        let w = n - j;
        let mut acc0 = [0.0f64; 8];
        let mut acc1 = [0.0f64; 8];
        for (t, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
            let b_row = &b[t * n + j..t * n + j + w];
            for ((o0, o1), &bv) in acc0[..w].iter_mut().zip(&mut acc1[..w]).zip(b_row) {
                *o0 += x0 * bv;
                *o1 += x1 * bv;
            }
        }
        out0[j..j + w].copy_from_slice(&acc0[..w]);
        out1[j..j + w].copy_from_slice(&acc1[..w]);
    }
}

/// Packs the `kc × nc` sub-panel of row-major `b` (terms `kt..kt+kc`,
/// columns `jt..jt+nc`) into `panel`, sliver-major: 8-wide column slivers
/// (one variable-width tail sliver) laid out term-contiguous, so the
/// accumulate loops read the panel strictly forward in 64-byte lines
/// instead of striding across `b`'s full width per term.
#[inline]
fn pack_b_panel(
    b: &[f64],
    n: usize,
    kt: usize,
    kc: usize,
    jt: usize,
    nc: usize,
    panel: &mut [f64],
) {
    let mut js = 0;
    let mut off = 0;
    while js < nc {
        let w = (nc - js).min(8);
        for t in 0..kc {
            let src = (kt + t) * n + jt + js;
            panel[off + t * w..off + t * w + w].copy_from_slice(&b[src..src + w]);
        }
        off += kc * w;
        js += w;
    }
}

/// [`accumulate_row`] against a packed panel, *resuming* partial sums: the
/// accumulators are loaded from `out`, run over this panel's terms in
/// ascending order, and stored back. An `f64` load/store round-trip is
/// exact, so chaining these calls over ascending `k`-tiles reproduces the
/// unblocked kernel's accumulation sequence bit for bit. The 8-wide
/// slivers are a fixed-width fast path so the inner loop stays fully
/// unrolled; only the one tail sliver (< 8 columns) runs variable-width.
#[inline]
fn accumulate_row_panel(a: &[f64], panel: &[f64], nc: usize, out: &mut [f64]) {
    let terms = a.len();
    let mut js = 0;
    let mut off = 0;
    while js < nc {
        let w = (nc - js).min(8);
        if w == 8 {
            let mut acc = [0.0f64; 8];
            acc.copy_from_slice(&out[js..js + 8]);
            for (t, &a_t) in a.iter().enumerate() {
                let b_row = &panel[off + t * 8..off + t * 8 + 8];
                for i in 0..8 {
                    acc[i] += a_t * b_row[i];
                }
            }
            out[js..js + 8].copy_from_slice(&acc);
        } else {
            let mut acc = [0.0f64; 8];
            acc[..w].copy_from_slice(&out[js..js + w]);
            for (t, &a_t) in a.iter().enumerate() {
                let b_row = &panel[off + t * w..off + t * w + w];
                for (o, &bv) in acc[..w].iter_mut().zip(b_row) {
                    *o += a_t * bv;
                }
            }
            out[js..js + w].copy_from_slice(&acc[..w]);
        }
        off += terms * w;
        js += w;
    }
}

/// [`pack_b_panel`]'s transposed sibling for `A·Bᵀ`: packs the
/// `kc × nc` sub-panel of `bᵀ` (terms `kt..kt+kc` of B rows
/// `jt..jt+nc`) into the same sliver-major layout. Reads of `b` stay
/// row-contiguous (one B row per output column); the transpose happens
/// in the strided panel *writes*, paid once per tile and amortized over
/// every A row that reuses the panel.
#[inline]
fn pack_bt_panel(
    b: &[f64],
    k: usize,
    kt: usize,
    kc: usize,
    jt: usize,
    nc: usize,
    panel: &mut [f64],
) {
    let mut js = 0;
    let mut off = 0;
    while js < nc {
        let w = (nc - js).min(8);
        for c in 0..w {
            let src = (jt + js + c) * k + kt;
            for (t, &v) in b[src..src + kc].iter().enumerate() {
                panel[off + t * w + c] = v;
            }
        }
        off += kc * w;
        js += w;
    }
}

/// [`accumulate_row_pair`] against a packed panel, resuming partial sums
/// from `out0`/`out1` exactly as [`accumulate_row_panel`] does: a 2×8
/// register microkernel (sixteen independent accumulator chains) whose two
/// `a` operands are contiguous term slices — an A row for `matmul`, a
/// transpose-packed A column for `matmul_at_b`.
#[inline]
fn accumulate_pair_panel(
    a0: &[f64],
    a1: &[f64],
    panel: &[f64],
    nc: usize,
    out0: &mut [f64],
    out1: &mut [f64],
) {
    let terms = a0.len();
    let mut js = 0;
    let mut off = 0;
    while js < nc {
        let w = (nc - js).min(8);
        if w == 8 {
            let mut acc0 = [0.0f64; 8];
            let mut acc1 = [0.0f64; 8];
            acc0.copy_from_slice(&out0[js..js + 8]);
            acc1.copy_from_slice(&out1[js..js + 8]);
            for (t, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
                let b_row = &panel[off + t * 8..off + t * 8 + 8];
                for i in 0..8 {
                    acc0[i] += x0 * b_row[i];
                    acc1[i] += x1 * b_row[i];
                }
            }
            out0[js..js + 8].copy_from_slice(&acc0);
            out1[js..js + 8].copy_from_slice(&acc1);
        } else {
            let mut acc0 = [0.0f64; 8];
            let mut acc1 = [0.0f64; 8];
            acc0[..w].copy_from_slice(&out0[js..js + w]);
            acc1[..w].copy_from_slice(&out1[js..js + w]);
            for (t, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
                let b_row = &panel[off + t * w..off + t * w + w];
                for ((o0, o1), &bv) in acc0[..w].iter_mut().zip(&mut acc1[..w]).zip(b_row) {
                    *o0 += x0 * bv;
                    *o1 += x1 * bv;
                }
            }
            out0[js..js + w].copy_from_slice(&acc0[..w]);
            out1[js..js + w].copy_from_slice(&acc1[..w]);
        }
        off += terms * w;
        js += w;
    }
}

/// Row-range body of [`Matrix::matmul_into`]: computes output rows
/// `i0..i0 + nr` of `A·B` into `out_rows` (`nr × n`, row-major). Dispatch
/// to the blocked schedule depends only on the *global* shape, never on
/// the row range, so splitting rows across threads cannot change which
/// kernel a row sees. The blocked path engages once `B` is at least
/// 32×[`TILE_N`] — the panel microkernel beats streaming `B` per row pair
/// well before the operands overflow cache (the paper's 128×128 hidden
/// shapes included), while narrow outputs keep the register path.
fn matmul_rows(
    a: &[f64],
    k: usize,
    i0: usize,
    nr: usize,
    b: &[f64],
    n: usize,
    out_rows: &mut [f64],
) {
    if k >= 32 && n >= TILE_N {
        matmul_rows_blocked(a, k, i0, nr, b, n, out_rows);
        return;
    }
    let mut rr = 0;
    while rr + 2 <= nr {
        let a0 = &a[(i0 + rr) * k..(i0 + rr + 1) * k];
        let a1 = &a[(i0 + rr + 1) * k..(i0 + rr + 2) * k];
        let (lo, hi) = out_rows.split_at_mut((rr + 1) * n);
        accumulate_row_pair(a0, a1, b, n, &mut lo[rr * n..], &mut hi[..n]);
        rr += 2;
    }
    if rr < nr {
        let row = (i0 + rr) * k;
        accumulate_row(&a[row..row + k], b, n, &mut out_rows[rr * n..(rr + 1) * n]);
    }
}

/// Cache-blocked row-range body of [`Matrix::matmul_into`]: `k`- and
/// `n`-tiles with a packed B panel feeding the [`accumulate_pair_panel`]
/// microkernel (row pairs, [`accumulate_row_panel`] for the odd tail),
/// partial sums resumed from `out_rows` between `k`-tiles. `k`-tiles
/// ascend, so each output element's accumulation order is exactly the
/// unblocked one.
fn matmul_rows_blocked(
    a: &[f64],
    k: usize,
    i0: usize,
    nr: usize,
    b: &[f64],
    n: usize,
    out_rows: &mut [f64],
) {
    out_rows.fill(0.0);
    let mut panel = [0.0f64; PANEL_LEN];
    let mut kt = 0;
    while kt < k {
        let kc = (k - kt).min(TILE_K);
        let mut jt = 0;
        while jt < n {
            let nc = (n - jt).min(TILE_N);
            pack_b_panel(b, n, kt, kc, jt, nc, &mut panel);
            let mut rr = 0;
            while rr + 2 <= nr {
                let a0 = &a[(i0 + rr) * k + kt..][..kc];
                let a1 = &a[(i0 + rr + 1) * k + kt..][..kc];
                let (lo, hi) = out_rows.split_at_mut((rr + 1) * n);
                accumulate_pair_panel(
                    a0,
                    a1,
                    &panel,
                    nc,
                    &mut lo[rr * n + jt..rr * n + jt + nc],
                    &mut hi[jt..jt + nc],
                );
                rr += 2;
            }
            if rr < nr {
                let row = (i0 + rr) * k + kt;
                accumulate_row_panel(
                    &a[row..row + kc],
                    &panel,
                    nc,
                    &mut out_rows[rr * n + jt..rr * n + jt + nc],
                );
            }
            jt += nc;
        }
        kt += kc;
    }
}

/// Row-range body of [`Matrix::matmul_at_b_into`]: computes output rows
/// `i0..i0 + nr` of `AᵀB` (`a` is `r × m` row-major, output row `i` is
/// column `i0 + i` of `a` against `b`). The contraction runs as a
/// branch-free `t`-outer stream — both operand rows and the output walk
/// forward contiguously, never striding across `a` — which is the same
/// loop structure (and therefore the same per-element `t`-ascending
/// accumulation) as [`oracle::matmul_tn`](crate::oracle::matmul_tn). Every output element is a pure
/// function of its column and the global operands, so chunk boundaries
/// (and hence thread counts) cannot change results.
///
/// Outputs at least one full sliver (8 columns) wide dispatch to the
/// blocked schedule — its register accumulators touch each output element
/// once per `k`-tile where the stream pays an `out` load/store per term,
/// which wins even for the narrow 12/18-column weight-gradient shapes;
/// only sub-sliver outputs keep the stream.
#[allow(clippy::too_many_arguments)]
fn at_b_rows(
    a: &[f64],
    m: usize,
    r: usize,
    i0: usize,
    nr: usize,
    b: &[f64],
    n: usize,
    out_rows: &mut [f64],
) {
    if n >= 8 {
        at_b_rows_blocked(a, m, r, i0, nr, b, n, out_rows);
        return;
    }
    out_rows.fill(0.0);
    for t in 0..r {
        let a_seg = &a[t * m + i0..t * m + i0 + nr];
        let b_row = &b[t * n..(t + 1) * n];
        for (i, &x) in a_seg.iter().enumerate() {
            let out_row = &mut out_rows[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += x * bv;
            }
        }
    }
}

/// Column count of the transpose-packed A block in [`at_b_rows_blocked`]:
/// eight columns of `a` re-laid term-contiguous (8 KiB on the stack) so
/// the 2×8 microkernel reads its `a` operands forward instead of striding
/// across `a`'s full width per term.
const AT_B_IBLOCK: usize = 8;

/// Cache-blocked row-range body of [`Matrix::matmul_at_b_into`]: per
/// `k`/`n` tile, a packed B panel plus a transpose-packed block of
/// [`AT_B_IBLOCK`] A columns feed the [`accumulate_pair_panel`]
/// microkernel; partial sums resume from `out_rows` between `k`-tiles.
/// Packing only copies operands — each output element still accumulates
/// its terms in ascending `t`, so results match [`at_b_rows`] bit for bit
/// regardless of block or chunk boundaries.
#[allow(clippy::too_many_arguments)]
fn at_b_rows_blocked(
    a: &[f64],
    m: usize,
    r: usize,
    i0: usize,
    nr: usize,
    b: &[f64],
    n: usize,
    out_rows: &mut [f64],
) {
    out_rows.fill(0.0);
    let mut panel = [0.0f64; PANEL_LEN];
    let mut ablock = [0.0f64; TILE_K * AT_B_IBLOCK];
    let mut kt = 0;
    while kt < r {
        let kc = (r - kt).min(TILE_K);
        let mut jt = 0;
        while jt < n {
            let nc = (n - jt).min(TILE_N);
            pack_b_panel(b, n, kt, kc, jt, nc, &mut panel);
            let mut ib = 0;
            while ib < nr {
                let bc = (nr - ib).min(AT_B_IBLOCK);
                // Packed row `c` holds column `i0 + ib + c` of `a`,
                // contiguous over the tile's terms.
                for t in 0..kc {
                    let src = (kt + t) * m + i0 + ib;
                    for (c, &v) in a[src..src + bc].iter().enumerate() {
                        ablock[c * kc + t] = v;
                    }
                }
                let mut rr = 0;
                while rr + 2 <= bc {
                    let a0 = &ablock[rr * kc..(rr + 1) * kc];
                    let a1 = &ablock[(rr + 1) * kc..(rr + 2) * kc];
                    let row = ib + rr;
                    let (lo, hi) = out_rows.split_at_mut((row + 1) * n);
                    accumulate_pair_panel(
                        a0,
                        a1,
                        &panel,
                        nc,
                        &mut lo[row * n + jt..row * n + jt + nc],
                        &mut hi[jt..jt + nc],
                    );
                    rr += 2;
                }
                if rr < bc {
                    let a0 = &ablock[rr * kc..(rr + 1) * kc];
                    let row = ib + rr;
                    accumulate_row_panel(
                        a0,
                        &panel,
                        nc,
                        &mut out_rows[row * n + jt..row * n + jt + nc],
                    );
                }
                ib += bc;
            }
            jt += nc;
        }
        kt += kc;
    }
}

/// Fewest rows of `A` (the global `m`) for which [`a_bt_rows`] takes the
/// blocked schedule. Transpose-packing a B panel costs about as much as
/// the GEMM over a dozen rows, so shorter batches (a single-state
/// `Mlp::forward_one`, a few-RA fleet) stay on the 2×4 register kernel:
/// a 1-row 64×64 product runs about 4× faster there on a 2-vCPU host.
const A_BT_BLOCKED_MIN_ROWS: usize = 16;

/// Row-range body of [`Matrix::matmul_a_bt_into`]: computes output rows
/// `i0..i0 + nr` of `A·Bᵀ` (`A` has `m` rows in all) with the 2×4
/// register kernel (eight independent accumulator chains). Every output
/// is one accumulator over `k` ascending — bit-identical to
/// [`oracle::matmul_nt`](crate::oracle::matmul_nt) — and per-row math
/// never depends on which rows share a chunk.
///
/// Operands at least 32 deep and [`TILE_N`] wide, with at least
/// [`A_BT_BLOCKED_MIN_ROWS`] rows, dispatch to the blocked schedule: its
/// transpose-packed panel feeds the 2×8 microkernel, which sustains a
/// higher madd rate than the 2×4 dot kernel once the panel pack
/// amortizes (the paper's 128×128 hidden forwards at training batch
/// sizes included). Dispatch reads the global shape, never the chunk.
#[allow(clippy::too_many_arguments)]
fn a_bt_rows(
    a: &[f64],
    m: usize,
    k: usize,
    i0: usize,
    nr: usize,
    b: &[f64],
    n: usize,
    out_rows: &mut [f64],
) {
    if m >= A_BT_BLOCKED_MIN_ROWS && k >= 32 && n >= TILE_N {
        a_bt_rows_blocked(a, k, i0, nr, b, n, out_rows);
        return;
    }
    let mut i = 0;
    while i + 2 <= nr {
        let a0 = &a[(i0 + i) * k..(i0 + i + 1) * k];
        let a1 = &a[(i0 + i + 1) * k..(i0 + i + 2) * k];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let mut acc = [0.0f64; 8];
            for t in 0..k {
                let x0 = a0[t];
                let x1 = a1[t];
                acc[0] += x0 * b0[t];
                acc[1] += x0 * b1[t];
                acc[2] += x0 * b2[t];
                acc[3] += x0 * b3[t];
                acc[4] += x1 * b0[t];
                acc[5] += x1 * b1[t];
                acc[6] += x1 * b2[t];
                acc[7] += x1 * b3[t];
            }
            out_rows[i * n + j..i * n + j + 4].copy_from_slice(&acc[..4]);
            out_rows[(i + 1) * n + j..(i + 1) * n + j + 4].copy_from_slice(&acc[4..]);
            j += 4;
        }
        while j < n {
            let bj = &b[j * k..(j + 1) * k];
            out_rows[i * n + j] = dot(a0, bj);
            out_rows[(i + 1) * n + j] = dot(a1, bj);
            j += 1;
        }
        i += 2;
    }
    if i < nr {
        let a0 = &a[(i0 + i) * k..(i0 + i + 1) * k];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let mut acc = [0.0f64; 4];
            for t in 0..k {
                let x0 = a0[t];
                acc[0] += x0 * b0[t];
                acc[1] += x0 * b1[t];
                acc[2] += x0 * b2[t];
                acc[3] += x0 * b3[t];
            }
            out_rows[i * n + j..i * n + j + 4].copy_from_slice(&acc);
            j += 4;
        }
        while j < n {
            out_rows[i * n + j] = dot(a0, &b[j * k..(j + 1) * k]);
            j += 1;
        }
    }
}

/// Cache-blocked row-range body of [`Matrix::matmul_a_bt_into`]:
/// `k`- and `n`-tiles with a *transpose-packed* B panel
/// ([`pack_bt_panel`]) feeding the same [`accumulate_pair_panel`]
/// microkernel as `matmul` — once the panel holds `bᵀ`, `A·Bᵀ` *is*
/// `A·B'`. Partial sums resume from `out_rows` between ascending
/// `k`-tiles, so each output element's accumulation order is exactly the
/// 2×4 register kernel's (and [`oracle::matmul_nt`](crate::oracle::matmul_nt)'s): `k` ascending,
/// one chain per element. No zero-skip.
fn a_bt_rows_blocked(
    a: &[f64],
    k: usize,
    i0: usize,
    nr: usize,
    b: &[f64],
    n: usize,
    out_rows: &mut [f64],
) {
    out_rows.fill(0.0);
    let mut panel = [0.0f64; PANEL_LEN];
    let mut kt = 0;
    while kt < k {
        let kc = (k - kt).min(TILE_K);
        let mut jt = 0;
        while jt < n {
            let nc = (n - jt).min(TILE_N);
            pack_bt_panel(b, k, kt, kc, jt, nc, &mut panel);
            let mut rr = 0;
            while rr + 2 <= nr {
                let a0 = &a[(i0 + rr) * k + kt..][..kc];
                let a1 = &a[(i0 + rr + 1) * k + kt..][..kc];
                let (lo, hi) = out_rows.split_at_mut((rr + 1) * n);
                accumulate_pair_panel(
                    a0,
                    a1,
                    &panel,
                    nc,
                    &mut lo[rr * n + jt..rr * n + jt + nc],
                    &mut hi[jt..jt + nc],
                );
                rr += 2;
            }
            if rr < nr {
                let row = (i0 + rr) * k + kt;
                accumulate_row_panel(
                    &a[row..row + kc],
                    &panel,
                    nc,
                    &mut out_rows[rr * n + jt..rr * n + jt + nc],
                );
            }
            jt += nc;
        }
        kt += kc;
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, alpha: f64) -> Matrix {
        self.map(|x| x * alpha)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in self.rows_iter().take(8) {
            writeln!(f, "  {r:?}")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        write!(f, "]")
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn axpy_in_place() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 0.5], &[1.0, -1.0]]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c, Matrix::from_rows(&[&[5.0, 3.0], &[5.0, 2.0]]));
    }

    #[test]
    fn broadcast_and_sums() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&[1.0, 2.0]);
        let mut sums = Vec::new();
        a.sum_rows_into(&mut sums);
        assert_eq!(sums, vec![3.0, 6.0]);
        assert_eq!(a.sum(), 9.0);
        assert!((a.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn select_rows_picks_the_right_rows() {
        let a = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0]]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s, Matrix::from_rows(&[&[2.0, 2.0], &[0.0, 0.0]]));
    }

    #[test]
    fn stacks() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(
            Matrix::vstack(&[&a, &b]),
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])
        );
        assert_eq!(
            Matrix::hstack(&[&a, &b]),
            Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]])
        );
    }

    #[test]
    fn norm_and_dot() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.norm() - 5.0).abs() < 1e-12);
        let b = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert!((a.dot(&b) - 11.0).abs() < 1e-12);
    }
}
