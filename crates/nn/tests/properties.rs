//! Property-based tests for the linear-algebra core and the training
//! pass, pinned bit for bit against [`edgeslice_nn::oracle`].

use edgeslice_nn::oracle::{self, matmul, matmul_nt, matmul_tn};
use edgeslice_nn::{Activation, Matrix, Mlp, Parallelism, TrainScratch, TILE_K, TILE_N};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

fn rand_dim(rng: &mut StdRng) -> usize {
    rng.gen_range(0..5)
}

fn rand_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-10.0f64..10.0))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// A randomly-shaped `(A, B, dirty_out)` case for one of the `_into`
/// kernels. Dimensions are drawn from `0..=4`, so empty-batch (0-row),
/// row-vector (1×N) and column-vector (N×1) operands all occur many times
/// across the 48 cases. `dirty_out` arrives with an unrelated shape and
/// garbage contents to prove the kernels fully overwrite reused buffers.
struct IntoKernelCase {
    kind: KernelKind,
}

#[derive(Clone, Copy)]
enum KernelKind {
    /// `A (m×k) * B (k×n)`.
    Plain,
    /// `Aᵀ B` with `A (r×m)`, `B (r×n)`.
    AtB,
    /// `A Bᵀ` with `A (m×k)`, `B (n×k)`.
    ABt,
}

impl Strategy for IntoKernelCase {
    type Value = (Matrix, Matrix, Matrix);

    fn generate(&self, rng: &mut StdRng) -> (Matrix, Matrix, Matrix) {
        let (d0, d1, d2) = (rand_dim(rng), rand_dim(rng), rand_dim(rng));
        let (a, b) = match self.kind {
            KernelKind::Plain => (rand_matrix(rng, d0, d1), rand_matrix(rng, d1, d2)),
            KernelKind::AtB => (rand_matrix(rng, d0, d1), rand_matrix(rng, d0, d2)),
            KernelKind::ABt => (rand_matrix(rng, d0, d1), rand_matrix(rng, d2, d1)),
        };
        let (dr, dc) = (rand_dim(rng), rand_dim(rng));
        let dirty = rand_matrix(rng, dr, dc);
        (a, b, dirty)
    }
}

proptest! {
    #[test]
    fn matmul_is_associative(
        a in small_matrix(3, 4),
        b in small_matrix(4, 2),
        c in small_matrix(2, 5),
    ) {
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        let diff = (&left - &right).norm();
        prop_assert!(diff < 1e-9, "associativity violated by {diff}");
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in small_matrix(3, 4),
        b in small_matrix(4, 2),
        c in small_matrix(4, 2),
    ) {
        let left = matmul(&a, &(&b + &c));
        let right = &matmul(&a, &b) + &matmul(&a, &c);
        prop_assert!((&left - &right).norm() < 1e-9);
    }

    #[test]
    fn transpose_reverses_product(a in small_matrix(3, 4), b in small_matrix(4, 2)) {
        let left = matmul(&a, &b).transpose();
        let right = matmul(&b.transpose(), &a.transpose());
        prop_assert!((&left - &right).norm() < 1e-9);
    }

    #[test]
    fn fused_transpose_products_agree(a in small_matrix(4, 3), b in small_matrix(4, 2)) {
        prop_assert!((&matmul_tn(&a, &b) - &matmul(&a.transpose(), &b)).norm() < 1e-9);
    }

    #[test]
    fn flat_params_round_trip_preserves_forward(
        input in proptest::collection::vec(-2.0f64..2.0, 3),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Mlp::new(&[3, 6, 2], Activation::leaky_default(), Activation::Tanh, &mut rng);
        let before = net.forward_one(&input);
        let params = net.flat_params();
        net.set_flat_params(&params);
        let after = net.forward_one(&input);
        prop_assert_eq!(before, after);
    }

    #[test]
    fn matmul_into_matches_matmul_on_random_shapes(
        case in IntoKernelCase { kind: KernelKind::Plain },
    ) {
        let (a, b, mut out) = case;
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(&out, &matmul(&a, &b));
    }

    #[test]
    fn matmul_at_b_into_matches_explicit_transpose_on_random_shapes(
        case in IntoKernelCase { kind: KernelKind::AtB },
    ) {
        let (a, b, mut out) = case;
        a.matmul_at_b_into(&b, &mut out);
        prop_assert_eq!(&out, &matmul(&a.transpose(), &b));
        prop_assert_eq!(&out, &matmul_tn(&a, &b));
    }

    #[test]
    fn matmul_a_bt_into_matches_explicit_transpose_on_random_shapes(
        case in IntoKernelCase { kind: KernelKind::ABt },
    ) {
        let (a, b, mut out) = case;
        a.matmul_a_bt_into(&b, &mut out);
        prop_assert_eq!(&out, &matmul(&a, &b.transpose()));
        prop_assert_eq!(&out, &matmul_nt(&a, &b));
    }

    #[test]
    fn sigmoid_output_always_in_unit_interval(
        input in proptest::collection::vec(-50.0f64..50.0, 4),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(&[4, 8, 3], Activation::leaky_default(), Activation::Sigmoid, &mut rng);
        let out = net.forward_one(&input);
        prop_assert!(out.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}

/// Every [`Activation`] variant, each used as both the hidden and the
/// output activation by [`scratch_pass_bit_identical_to_oracle`].
const ACTS: [Activation; 6] = [
    Activation::Identity,
    Activation::Relu,
    Activation::LeakyRelu(0.01),
    Activation::Sigmoid,
    Activation::Tanh,
    Activation::Softplus,
];

/// A random MLP training case: layer widths (2–4 entries drawn from
/// sizes that straddle the blocked-kernel thresholds), a network seed, an
/// output-activation shift, and an input batch plus two upstream
/// gradients (0–5 rows) sprinkled with exact zeros so the oracle's
/// zero-skips fire.
struct MlpCase;

impl Strategy for MlpCase {
    type Value = (Vec<usize>, u64, usize, Matrix, Matrix, Matrix);

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        const WIDTHS: [usize; 8] = [1, 2, 3, 5, 8, 13, 33, 70];
        let depth = rng.gen_range(2..=4);
        let dims: Vec<usize> = (0..depth)
            .map(|_| WIDTHS[rng.gen_range(0..WIDTHS.len())])
            .collect();
        let batch = rng.gen_range(0..=5);
        let mut sparse = |rows: usize, cols: usize| {
            let mut m = rand_matrix(rng, rows, cols);
            m.apply(|v| if v.abs() < 2.0 { 0.0 } else { v / 3.0 });
            m
        };
        let x = sparse(batch, dims[0]);
        let d1 = sparse(batch, dims[depth - 1]);
        let d2 = sparse(batch, dims[depth - 1]);
        (dims, rng.gen(), rng.gen_range(0..ACTS.len()), x, d1, d2)
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn grad_bits(net: &Mlp, g: &edgeslice_nn::Gradients) -> Vec<u64> {
    net.flat_grads(g).iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// The training pass is the oracle, bit for bit: `forward_scratch`
    /// output, `backward_scratch` parameter gradients and `d_input`,
    /// `backward_input_scratch`'s `d_input`, and a second
    /// `backward_scratch` over the same forward (TRPO's Fisher-vector
    /// pattern), for every activation as hidden and as output layer.
    #[test]
    fn scratch_pass_bit_identical_to_oracle(case in MlpCase) {
        let (dims, seed, shift, x, d1, d2) = case;
        for (i, &hidden) in ACTS.iter().enumerate() {
            let output = ACTS[(i + shift) % ACTS.len()];
            let net = Mlp::new(&dims, hidden, output, &mut StdRng::seed_from_u64(seed));
            let pass = oracle::forward(&net, &x);
            let mut s = TrainScratch::new();
            net.forward_scratch(&x, &mut s);
            prop_assert_eq!(bits(s.output()), bits(pass.output()), "forward {:?} {:?}/{:?}", dims, hidden, output);

            let mut only_input = s.clone();
            for d in [&d1, &d2] {
                let (grads, d_input) = oracle::backward(&net, &pass, d);
                net.backward_scratch(&mut s, d);
                prop_assert_eq!(grad_bits(&net, s.grads()), grad_bits(&net, &grads), "grads {:?} {:?}/{:?}", dims, hidden, output);
                prop_assert_eq!(bits(s.d_input()), bits(&d_input), "d_input {:?} {:?}/{:?}", dims, hidden, output);
                net.backward_input_scratch(&mut only_input, d);
                prop_assert_eq!(bits(only_input.d_input()), bits(&d_input), "input-only {:?} {:?}/{:?}", dims, hidden, output);
            }
        }
    }
}

proptest! {
    #[test]
    fn blocked_matmul_bit_identical_on_random_shapes(
        case in IntoKernelCase { kind: KernelKind::Plain },
    ) {
        let (a, b, mut out) = case;
        let mut blocked = Matrix::zeros(1, 7);
        a.matmul_into(&b, &mut out);
        a.matmul_blocked_into(&b, &mut blocked);
        prop_assert_eq!(&blocked, &out);
    }

    #[test]
    fn blocked_at_b_bit_identical_on_random_shapes(
        case in IntoKernelCase { kind: KernelKind::AtB },
    ) {
        let (a, b, mut out) = case;
        let mut blocked = Matrix::zeros(1, 7);
        a.matmul_at_b_into(&b, &mut out);
        a.matmul_at_b_blocked_into(&b, &mut blocked);
        prop_assert_eq!(&blocked, &out);
    }

    #[test]
    fn blocked_a_bt_bit_identical_on_random_shapes(
        case in IntoKernelCase { kind: KernelKind::ABt },
    ) {
        let (a, b, mut out) = case;
        let mut blocked = Matrix::zeros(1, 7);
        a.matmul_a_bt_into(&b, &mut out);
        a.matmul_a_bt_blocked_into(&b, &mut blocked);
        prop_assert_eq!(&blocked, &out);
    }

    #[test]
    fn par_kernels_invariant_across_thread_counts_on_random_shapes(
        plain in IntoKernelCase { kind: KernelKind::Plain },
        at_b in IntoKernelCase { kind: KernelKind::AtB },
        a_bt in IntoKernelCase { kind: KernelKind::ABt },
    ) {
        for par in [Parallelism::Sequential, Parallelism::Threaded(2), Parallelism::Threaded(4)] {
            let (a, b, mut out) = (plain.0.clone(), plain.1.clone(), plain.2.clone());
            let mut seq = Matrix::zeros(1, 7);
            a.matmul_into(&b, &mut seq);
            a.matmul_par_into(&b, &mut out, par);
            prop_assert_eq!(&out, &seq, "matmul_par {:?}", par);

            let (a, b, mut out) = (at_b.0.clone(), at_b.1.clone(), at_b.2.clone());
            a.matmul_at_b_into(&b, &mut seq);
            a.matmul_at_b_par_into(&b, &mut out, par);
            prop_assert_eq!(&out, &seq, "at_b_par {:?}", par);

            let (a, b, mut out) = (a_bt.0.clone(), a_bt.1.clone(), a_bt.2.clone());
            a.matmul_a_bt_into(&b, &mut seq);
            a.matmul_a_bt_par_into(&b, &mut out, par);
            prop_assert_eq!(&out, &seq, "a_bt_par {:?}", par);
        }
    }
}

/// Shapes straddling the `TILE_K`/`TILE_N` boundaries, where the plain
/// entry points auto-dispatch to the blocked schedule: exact tile
/// multiples, one-past-the-tile, and ragged tails in both `k` and `n`.
/// Pinned bitwise against the reference kernels, with thread counts
/// 1/2/4 on top.
#[test]
fn blocked_dispatch_bit_identical_on_tile_crossing_shapes() {
    let mut rng = StdRng::seed_from_u64(77);
    let shapes = [
        (3, TILE_K + 2, TILE_N + 3),
        (2, TILE_K, TILE_N),
        (5, 2 * TILE_K + 1, TILE_N + 1),
        (1, TILE_K + 77, 2 * TILE_N + 13),
        (4, TILE_K + 1, TILE_N + 9),
        // Enough rows for the `A·Bᵀ` blocked schedule as well.
        (17, TILE_K + 5, TILE_N + 7),
    ];
    for &(m, k, n) in &shapes {
        let a = rand_matrix(&mut rng, m, k);
        let b = rand_matrix(&mut rng, k, n);
        let mut out = Matrix::zeros(1, 1);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, matmul(&a, &b), "matmul {m}x{k}x{n}");

        let at = rand_matrix(&mut rng, k, m); // r=k terms, m outputs — needs n to cross tiles
        let bt = rand_matrix(&mut rng, k, n);
        at.matmul_at_b_into(&bt, &mut out);
        assert_eq!(out, matmul_tn(&at, &bt), "at_b {m}x{k}x{n}");

        let ar = rand_matrix(&mut rng, m, k);
        let br = rand_matrix(&mut rng, n, k);
        ar.matmul_a_bt_into(&br, &mut out);
        assert_eq!(out, matmul_nt(&ar, &br), "a_bt {m}x{k}x{n}");

        for par in [
            Parallelism::Sequential,
            Parallelism::Threaded(2),
            Parallelism::Threaded(4),
        ] {
            let mut pout = Matrix::zeros(1, 1);
            a.matmul_par_into(&b, &mut pout, par);
            assert_eq!(pout, matmul(&a, &b), "matmul_par {par:?} {m}x{k}x{n}");
            at.matmul_at_b_par_into(&bt, &mut pout, par);
            assert_eq!(pout, matmul_tn(&at, &bt), "at_b_par {par:?} {m}x{k}x{n}");
            ar.matmul_a_bt_par_into(&br, &mut pout, par);
            assert_eq!(pout, matmul_nt(&ar, &br), "a_bt_par {par:?} {m}x{k}x{n}");
        }
    }
}

/// The degenerate shapes through the forced-blocked and parallel entry
/// points: 1×N, N×1, and empty-batch operands must match the reference
/// kernels bitwise even though no tile is ever full.
#[test]
fn blocked_and_par_handle_degenerate_shapes() {
    let row = Matrix::row_vector(&[1.0, -2.0, 3.0]); // 1×N
    let col = Matrix::col_vector(&[0.5, 1.5, -0.5]); // N×1
    let empty_batch = Matrix::zeros(0, 3); // 0-row batch
    let mut out = Matrix::zeros(2, 2);

    row.matmul_blocked_into(&col, &mut out);
    assert_eq!(out, matmul(&row, &col));
    col.matmul_blocked_into(&row, &mut out);
    assert_eq!(out, matmul(&col, &row));
    row.matmul_at_b_blocked_into(&row, &mut out);
    assert_eq!(out, matmul(&row.transpose(), &row));
    row.matmul_a_bt_blocked_into(&row, &mut out);
    assert_eq!(out, matmul(&row, &row.transpose()));
    empty_batch.matmul_blocked_into(&col, &mut out);
    assert_eq!(out.shape(), (0, 1));
    empty_batch.matmul_at_b_blocked_into(&empty_batch, &mut out);
    assert_eq!(out, matmul(&empty_batch.transpose(), &empty_batch));
    empty_batch.matmul_a_bt_blocked_into(&empty_batch, &mut out);
    assert_eq!(out.shape(), (0, 0));

    for par in [Parallelism::Threaded(2), Parallelism::Threaded(4)] {
        row.matmul_par_into(&col, &mut out, par);
        assert_eq!(out, matmul(&row, &col));
        col.matmul_par_into(&row, &mut out, par);
        assert_eq!(out, matmul(&col, &row));
        row.matmul_at_b_par_into(&row, &mut out, par);
        assert_eq!(out, matmul(&row.transpose(), &row));
        row.matmul_a_bt_par_into(&row, &mut out, par);
        assert_eq!(out, matmul(&row, &row.transpose()));
        empty_batch.matmul_par_into(&col, &mut out, par);
        assert_eq!(out.shape(), (0, 1));
        empty_batch.matmul_at_b_par_into(&empty_batch, &mut out, par);
        assert_eq!(out, matmul(&empty_batch.transpose(), &empty_batch));
        empty_batch.matmul_a_bt_par_into(&empty_batch, &mut out, par);
        assert_eq!(out.shape(), (0, 0));
    }
}

/// Fleet (batched multi-network) forward: each stacked output row is
/// bit-identical to a solo 1-row forward of the same input, for any
/// thread count.
#[test]
fn fleet_forward_rows_bit_identical_to_solo_forwards() {
    let mut rng = StdRng::seed_from_u64(4242);
    let net = Mlp::new(
        &[6, 24, 24, 4],
        Activation::leaky_default(),
        Activation::Sigmoid,
        &mut rng,
    );
    let inputs: Vec<Vec<f64>> = (0..17)
        .map(|_| (0..6).map(|_| rng.gen_range(-3.0f64..3.0)).collect())
        .collect();
    for par in [
        Parallelism::Sequential,
        Parallelism::Threaded(2),
        Parallelism::Threaded(4),
    ] {
        let mut scratch = edgeslice_nn::FleetScratch::new();
        scratch.begin(inputs.len(), 6);
        for (i, x) in inputs.iter().enumerate() {
            scratch.set_input_row(i, x);
        }
        let out = net.forward_fleet_scratch(&mut scratch, par);
        assert_eq!(out.shape(), (17, 4));
        for (i, x) in inputs.iter().enumerate() {
            assert_eq!(out.row(i), net.forward_one(x).as_slice(), "row {i} {par:?}");
        }
    }
}

/// The degenerate shapes the replay/training path actually produces —
/// pinned explicitly rather than left to the random-shape generator.
#[test]
fn into_kernels_handle_degenerate_shapes() {
    let row = Matrix::row_vector(&[1.0, -2.0, 3.0]); // 1×N
    let col = Matrix::col_vector(&[0.5, 1.5, -0.5]); // N×1
    let empty_batch = Matrix::zeros(0, 3); // 0-row batch
    let mut out = Matrix::zeros(2, 2);

    row.matmul_into(&col, &mut out);
    assert_eq!(out, matmul(&row, &col));
    assert_eq!(out.shape(), (1, 1));

    col.matmul_into(&row, &mut out);
    assert_eq!(out, matmul(&col, &row));
    assert_eq!(out.shape(), (3, 3));

    row.matmul_at_b_into(&row, &mut out);
    assert_eq!(out, matmul(&row.transpose(), &row));

    row.matmul_a_bt_into(&row, &mut out);
    assert_eq!(out, matmul(&row, &row.transpose()));

    empty_batch.matmul_into(&col, &mut out);
    assert_eq!(out.shape(), (0, 1));

    empty_batch.matmul_at_b_into(&empty_batch, &mut out);
    assert_eq!(out, matmul(&empty_batch.transpose(), &empty_batch));
    assert_eq!(out.shape(), (3, 3));

    empty_batch.matmul_a_bt_into(&empty_batch, &mut out);
    assert_eq!(out.shape(), (0, 0));
}
