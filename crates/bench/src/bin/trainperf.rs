//! Training hot-path throughput: the fused zero-allocation `_into` kernels
//! vs the naive reference in [`edgeslice_nn::oracle`], on the paper's
//! 2×128 networks with batch 64.
//!
//! Four layers are measured:
//!
//! 1. **GEMM microkernels** — `matmul_into` / `matmul_at_b_into` /
//!    `matmul_a_bt_into` against the oracle's allocating `matmul` /
//!    `matmul_tn` / `matmul_nt`, on the shapes one DDPG update produces.
//!    Large-shape rows (1024-wide hidden, batch 512) exercise the
//!    cache-blocked dispatch that the paper-scale 128-wide shapes skip.
//! 2. **Batched cross-RA inference** — one [`Mlp::forward_fleet_scratch`]
//!    over 64 stacked RA states vs 64 solo [`Mlp::forward_one`] calls.
//! 3. **End-to-end DDPG updates** — [`Ddpg::update`] (fused, scratch-arena)
//!    vs [`Ddpg::update_oracle`] (built only from the oracle), in
//!    train-steps per second.
//! 4. **Bit-identity** — after the timed runs the two agents' actor and
//!    critic parameters must agree bit for bit, so the speedup is never
//!    bought with a numerics change.
//!
//! Run: `cargo run --release -p edgeslice-bench --bin trainperf --
//! [--updates N] [--min-speedup X] [--smoke] [--out PATH]`
//!
//! `--smoke` shrinks the schedule to a CI-sized check. `--min-speedup X`
//! exits non-zero if the end-to-end speedup lands below `X` (the CI gate
//! uses 1.0; the PR-acceptance target on an idle host is 2.0). Results go
//! to `--out` (default `results/BENCH_train.json`) with the host's
//! available parallelism recorded alongside — both paths are single-
//! threaded, so the speedup is kernel quality, not parallelism.

use std::time::{Duration, Instant};

use edgeslice_nn::oracle;
use edgeslice_nn::{Activation, FleetScratch, Matrix, Mlp, Parallelism, TILE_K, TILE_N};
use edgeslice_rl::{Ddpg, DdpgConfig, DdpgUpdate, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's network scale (Sec. VI-A): 2×128 hidden layers.
const HIDDEN: usize = 128;
/// Benchmark batch size (the paper trains at 512; 64 is the bench's
/// worst case for kernel overhead — less arithmetic to amortize against).
const BATCH: usize = 64;
/// Representative RA-environment dimensions.
const STATE_DIM: usize = 12;
const ACTION_DIM: usize = 6;
/// Production-scale shapes: wide enough that every operand overflows L2,
/// so the rows measure the cache-blocked dispatch, not register tiling.
const HIDDEN_LARGE: usize = 1_024;
const BATCH_LARGE: usize = 512;
/// Fleet size for the batched cross-RA inference row (the paper's testbed
/// tops out at tens of RAs; 64 is a full metro-scale deployment).
const N_RA: usize = 64;

struct Args {
    updates: usize,
    kernel_reps: usize,
    min_speedup: Option<f64>,
    out: String,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        updates: 300,
        kernel_reps: 2_000,
        min_speedup: None,
        out: "results/BENCH_train.json".to_string(),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--updates" => {
                args.updates = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--updates takes a positive integer");
            }
            "--min-speedup" => {
                args.min_speedup = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--min-speedup takes a number"),
                );
            }
            "--out" => {
                args.out = it.next().expect("--out takes a path");
            }
            "--smoke" => {
                args.smoke = true;
                args.updates = 40;
                args.kernel_reps = 200;
            }
            other => panic!("unknown flag {other:?} (see the module docs)"),
        }
    }
    args
}

fn rand_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// Times `reps` evaluations of `f`, returning seconds; a fold over the
/// outputs is returned too so the optimizer cannot discard the work.
fn time_reps(reps: usize, mut f: impl FnMut() -> f64) -> (f64, f64) {
    let t0 = Instant::now();
    let mut sink = 0.0;
    for _ in 0..reps {
        sink += f();
    }
    (t0.elapsed().as_secs_f64(), sink)
}

struct KernelResult {
    name: &'static str,
    shape: String,
    before_s: f64,
    after_s: f64,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.before_s / self.after_s.max(1e-12)
    }
}

/// Microbenchmarks the three GEMM kernels on the shapes a 2×128 DDPG
/// update actually produces: batch×in · (out×in)ᵀ forwards, (batch×out)ᵀ ·
/// batch×in gradient products, and batch×out · out×in input-gradient
/// products.
fn bench_kernels(reps: usize, rng: &mut StdRng) -> Vec<KernelResult> {
    let sa = STATE_DIM + ACTION_DIM;
    let x = rand_matrix(rng, BATCH, sa); // layer input
    let w = rand_matrix(rng, HIDDEN, sa); // weights, out×in
    let dz = rand_matrix(rng, BATCH, HIDDEN); // pre-activation gradient
    let mut out = Matrix::default();

    let forward = KernelResult {
        name: "matmul_a_bt (forward x·Wᵀ)",
        shape: format!("{BATCH}x{sa} * ({HIDDEN}x{sa})T"),
        before_s: time_reps(reps, || oracle::matmul_nt(&x, &w)[(0, 0)]).0,
        after_s: time_reps(reps, || {
            x.matmul_a_bt_into(&w, &mut out);
            out[(0, 0)]
        })
        .0,
    };
    let grad_w = KernelResult {
        name: "matmul_at_b (grad dzᵀ·x)",
        shape: format!("({BATCH}x{HIDDEN})T * {BATCH}x{sa}"),
        before_s: time_reps(reps, || oracle::matmul_tn(&dz, &x)[(0, 0)]).0,
        after_s: time_reps(reps, || {
            dz.matmul_at_b_into(&x, &mut out);
            out[(0, 0)]
        })
        .0,
    };
    let grad_x = KernelResult {
        name: "matmul (grad dz·W)",
        shape: format!("{BATCH}x{HIDDEN} * {HIDDEN}x{sa}"),
        before_s: time_reps(reps, || oracle::matmul(&dz, &w)[(0, 0)]).0,
        after_s: time_reps(reps, || {
            dz.matmul_into(&w, &mut out);
            out[(0, 0)]
        })
        .0,
    };

    // Hidden-to-hidden shapes — the bulk of a 2×128 update's arithmetic.
    let h = rand_matrix(rng, BATCH, HIDDEN); // hidden activations
    let wh = rand_matrix(rng, HIDDEN, HIDDEN); // hidden weights
    let forward_h = KernelResult {
        name: "matmul_a_bt (hidden fwd)",
        shape: format!("{BATCH}x{HIDDEN} * ({HIDDEN}x{HIDDEN})T"),
        before_s: time_reps(reps, || oracle::matmul_nt(&h, &wh)[(0, 0)]).0,
        after_s: time_reps(reps, || {
            h.matmul_a_bt_into(&wh, &mut out);
            out[(0, 0)]
        })
        .0,
    };
    let grad_wh = KernelResult {
        name: "matmul_at_b (hidden grad)",
        shape: format!("({BATCH}x{HIDDEN})T * {BATCH}x{HIDDEN}"),
        before_s: time_reps(reps, || oracle::matmul_tn(&dz, &h)[(0, 0)]).0,
        after_s: time_reps(reps, || {
            dz.matmul_at_b_into(&h, &mut out);
            out[(0, 0)]
        })
        .0,
    };
    vec![forward, grad_w, grad_x, forward_h, grad_wh]
}

/// Large-shape rows: 1024-wide hidden layers at batch 512. Every operand
/// is multiple megabytes, so the auto-dispatch in the `_into` kernels
/// takes the L1/L2-blocked path with a packed B panel; the allocating
/// reference kernels stream the full operands on every pass.
fn bench_kernels_large(reps: usize, rng: &mut StdRng) -> Vec<KernelResult> {
    let x = rand_matrix(rng, BATCH_LARGE, HIDDEN_LARGE); // hidden activations
    let w = rand_matrix(rng, HIDDEN_LARGE, HIDDEN_LARGE); // hidden weights
    let dz = rand_matrix(rng, BATCH_LARGE, HIDDEN_LARGE); // pre-act gradient
    let mut out = Matrix::default();

    let forward = KernelResult {
        name: "matmul_a_bt (large fwd, blocked)",
        shape: format!("{BATCH_LARGE}x{HIDDEN_LARGE} * ({HIDDEN_LARGE}x{HIDDEN_LARGE})T"),
        before_s: time_reps(reps, || oracle::matmul_nt(&x, &w)[(0, 0)]).0,
        after_s: time_reps(reps, || {
            x.matmul_a_bt_into(&w, &mut out);
            out[(0, 0)]
        })
        .0,
    };
    let grad_w = KernelResult {
        name: "matmul_at_b (large grad, blocked)",
        shape: format!("({BATCH_LARGE}x{HIDDEN_LARGE})T * {BATCH_LARGE}x{HIDDEN_LARGE}"),
        before_s: time_reps(reps, || oracle::matmul_tn(&dz, &x)[(0, 0)]).0,
        after_s: time_reps(reps, || {
            dz.matmul_at_b_into(&x, &mut out);
            out[(0, 0)]
        })
        .0,
    };
    let grad_x = KernelResult {
        name: "matmul (large grad, blocked)",
        shape: format!("{BATCH_LARGE}x{HIDDEN_LARGE} * {HIDDEN_LARGE}x{HIDDEN_LARGE}"),
        before_s: time_reps(reps, || oracle::matmul(&dz, &w)[(0, 0)]).0,
        after_s: time_reps(reps, || {
            dz.matmul_into(&w, &mut out);
            out[(0, 0)]
        })
        .0,
    };
    vec![forward, grad_w, grad_x]
}

/// Batched cross-RA inference: one fused forward over `N_RA` stacked
/// states vs `N_RA` solo single-row forwards through the same actor.
/// The fused path is what [`PolicyFleet::decide_into`] runs per parameter
/// group; solo forwards are what the pre-PR per-RA loop did.
///
/// [`PolicyFleet::decide_into`]: ../edgeslice/struct.PolicyFleet.html
fn bench_fleet(reps: usize, par: Parallelism, rng: &mut StdRng) -> KernelResult {
    let actor = Mlp::new(
        &[STATE_DIM, HIDDEN, HIDDEN, ACTION_DIM],
        Activation::LeakyRelu(0.01),
        Activation::Tanh,
        rng,
    );
    let states: Vec<Vec<f64>> = (0..N_RA)
        .map(|_| (0..STATE_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let mut scratch = FleetScratch::new();

    KernelResult {
        name: "fleet forward (64-RA batched)",
        shape: format!("{N_RA}x{STATE_DIM} thru {STATE_DIM}-{HIDDEN}-{HIDDEN}-{ACTION_DIM}"),
        before_s: time_reps(reps, || {
            let mut sink = 0.0;
            for s in &states {
                sink += actor.forward_one(s)[0];
            }
            sink
        })
        .0,
        after_s: time_reps(reps, || {
            scratch.begin(N_RA, STATE_DIM);
            for (i, s) in states.iter().enumerate() {
                scratch.set_input_row(i, s);
            }
            actor.forward_fleet_scratch(&mut scratch, par)[(0, 0)]
        })
        .0,
    }
}

fn bench_config() -> DdpgConfig {
    DdpgConfig {
        hidden: HIDDEN,
        batch_size: BATCH,
        replay_capacity: 8_192,
        warmup: 0,
        ..Default::default()
    }
}

/// Builds an agent and fills its replay memory with a deterministic stream
/// of synthetic transitions.
fn warmed_agent(seed: u64) -> Ddpg {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agent = Ddpg::new(STATE_DIM, ACTION_DIM, bench_config(), &mut rng);
    for _ in 0..1_024 {
        let state: Vec<f64> = (0..STATE_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let next_state: Vec<f64> = (0..STATE_DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let action: Vec<f64> = (0..ACTION_DIM).map(|_| rng.gen_range(0.0..1.0)).collect();
        agent.observe(&Transition {
            state,
            action,
            reward: rng.gen_range(-1.0..1.0),
            next_state,
            done: rng.gen_range(0.0..1.0) < 0.05,
        });
    }
    agent
}

/// Runs `updates` steps of one update path, returning the wall time.
fn time_updates(
    agent: &mut Ddpg,
    updates: usize,
    update: fn(&mut Ddpg, &mut StdRng) -> Option<DdpgUpdate>,
) -> Duration {
    let mut rng = StdRng::seed_from_u64(7_777);
    let t0 = Instant::now();
    for _ in 0..updates {
        assert!(
            update(agent, &mut rng).is_some(),
            "replay memory must be pre-filled"
        );
    }
    t0.elapsed()
}

fn bits(net: &edgeslice_nn::Mlp) -> Vec<u64> {
    net.flat_params().iter().map(|p| p.to_bits()).collect()
}

fn main() {
    let args = parse_args();
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    println!("=== Training hot path ({HIDDEN}x{HIDDEN} hidden, batch {BATCH}) ===");
    println!(
        "{} end-to-end updates, {} kernel reps; host parallelism {host} (both paths single-threaded)\n",
        args.updates, args.kernel_reps
    );

    // ---- GEMM microkernels: paper-scale, production-scale, fleet.
    let mut rng = StdRng::seed_from_u64(1);
    // Large shapes carry ~250x the arithmetic of the 128-wide rows, so a
    // handful of reps already dominates timer noise.
    let large_reps = (args.kernel_reps / 500).max(1);
    let fleet_reps = (args.kernel_reps / 10).max(20);
    // The fleet row uses every hardware thread the host offers; the GEMM
    // rows stay single-threaded so they isolate kernel quality.
    let threads = host;
    let mut kernels = bench_kernels(args.kernel_reps, &mut rng);
    kernels.extend(bench_kernels_large(large_reps, &mut rng));
    kernels.push(bench_fleet(
        fleet_reps,
        Parallelism::Threaded(threads),
        &mut rng,
    ));
    println!(
        "{:>34}  {:>26}  {:>10}  {:>10}  {:>8}",
        "kernel", "shape", "before (s)", "after (s)", "speedup"
    );
    for k in &kernels {
        println!(
            "{:>34}  {:>26}  {:>10.4}  {:>10.4}  {:>7.2}x",
            k.name,
            k.shape,
            k.before_s,
            k.after_s,
            k.speedup()
        );
    }

    // ---- End-to-end DDPG updates, identical RNG schedules.
    let mut fused = warmed_agent(42);
    let mut reference = warmed_agent(42);
    // One untimed update per path sizes the fused path's scratch arena.
    time_updates(&mut fused, 1, Ddpg::update);
    time_updates(&mut reference, 1, Ddpg::update_oracle);
    let before = time_updates(&mut reference, args.updates, Ddpg::update_oracle);
    let after = time_updates(&mut fused, args.updates, Ddpg::update);
    let before_sps = args.updates as f64 / before.as_secs_f64().max(1e-9);
    let after_sps = args.updates as f64 / after.as_secs_f64().max(1e-9);
    let speedup = after_sps / before_sps.max(1e-9);

    // ---- Bit-identity: the speedup must not have changed the numerics.
    let identical = bits(fused.actor()) == bits(reference.actor())
        && bits(fused.critic()) == bits(reference.critic());
    assert!(
        identical,
        "fused and oracle updates diverged — kernel FP order changed"
    );

    println!("\n{:>12}  {:>14}  {:>14}", "path", "steps/s", "total (s)");
    println!(
        "{:>12}  {:>14.2}  {:>14.3}",
        "oracle",
        before_sps,
        before.as_secs_f64()
    );
    println!(
        "{:>12}  {:>14.2}  {:>14.3}",
        "fused",
        after_sps,
        after.as_secs_f64()
    );
    println!("\ntrain-step speedup x{speedup:.2}, params bit-identical: {identical}");

    // Hand-rolled JSON: the schema is flat and the vendored serde_json
    // stand-in has no `json!` macro.
    let kernel_json: Vec<String> = kernels
        .iter()
        .map(|k| {
            format!(
                "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"before_s\": {:.6}, \"after_s\": {:.6}, \"speedup\": {:.6}}}",
                k.name,
                k.shape,
                k.before_s,
                k.after_s,
                k.speedup()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"train_throughput\",\n  \"config\": {{\"hidden\": {HIDDEN}, \"batch\": {BATCH}, \"state_dim\": {STATE_DIM}, \"action_dim\": {ACTION_DIM}, \"hidden_large\": {HIDDEN_LARGE}, \"batch_large\": {BATCH_LARGE}, \"n_ra\": {N_RA}, \"updates\": {}, \"kernel_reps\": {}}},\n  \"host_parallelism\": {host},\n  \"tile_k\": {TILE_K},\n  \"tile_n\": {TILE_N},\n  \"threads\": {threads},\n  \"smoke\": {},\n  \"kernels\": [\n{}\n  ],\n  \"before\": {{\"path\": \"update_oracle\", \"total_s\": {:.6}, \"steps_per_s\": {:.6}}},\n  \"after\": {{\"path\": \"update\", \"total_s\": {:.6}, \"steps_per_s\": {:.6}}},\n  \"speedup\": {:.6},\n  \"params_bit_identical\": {identical}\n}}\n",
        args.updates,
        args.kernel_reps,
        args.smoke,
        kernel_json.join(",\n"),
        before.as_secs_f64(),
        before_sps,
        after.as_secs_f64(),
        after_sps,
        speedup,
    );
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&args.out, json).expect("write bench JSON");
    println!("wrote {}", args.out);

    if let Some(min) = args.min_speedup {
        assert!(
            speedup >= min,
            "train-step speedup x{speedup:.2} is below the required x{min:.2}"
        );
        println!("speedup gate passed (x{speedup:.2} >= x{min:.2})");
    }
}
