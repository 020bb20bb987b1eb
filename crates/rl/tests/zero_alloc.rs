//! Proves the steady-state training step is allocation-free.
//!
//! A counting global allocator wraps the system allocator; counting is
//! switched on only around the measured region and only on the measuring
//! thread, so test-harness and warm-up allocations are ignored. The agent is warmed past its first update (which
//! legitimately grows every scratch buffer to steady-state capacity), then a
//! burst of further updates must perform **zero** heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use edgeslice_rl::{Ddpg, DdpgConfig, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Counts `alloc`/`realloc` calls made by a thread whose [`ENABLED`] flag
/// is set. Deallocations are not counted: freeing during the measured
/// region would itself imply a prior allocation, and steady-state buffers
/// are never freed anyway.
struct CountingAllocator;

thread_local! {
    /// Set only on the thread running [`count_allocations`]; the harness's
    /// own threads (bookkeeping for tests finishing meanwhile) stay
    /// uncounted.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn counting() -> bool {
    ENABLED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Serializes the tests in this binary: [`ALLOCATIONS`] is process-global,
/// so two measured regions must not overlap.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Runs `f` with allocation counting enabled and returns how many heap
/// allocations it performed.
fn count_allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ENABLED.with(|e| e.set(true));
    f();
    ENABLED.with(|e| e.set(false));
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn ddpg_update_is_allocation_free_at_steady_state() {
    let _guard = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let config = DdpgConfig {
        hidden: 32,
        batch_size: 64,
        replay_capacity: 4_096,
        warmup: 0,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(11);
    let mut agent = Ddpg::new(4, 2, config, &mut rng);

    // Fill the replay memory well past a batch.
    for _ in 0..512 {
        let state: Vec<f64> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let next_state: Vec<f64> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let action: Vec<f64> = (0..2).map(|_| rng.gen_range(0.0..1.0)).collect();
        agent.observe(&Transition {
            state,
            action,
            reward: rng.gen_range(-1.0..1.0),
            next_state,
            done: rng.gen_range(0.0..1.0) < 0.05,
        });
    }

    // Warm-up updates: the first sizes every scratch buffer, a few more
    // catch any lazily-grown corner (e.g. Adam bias-correction state).
    for _ in 0..4 {
        assert!(agent.update(&mut rng).is_some());
    }

    // Steady state: a burst of updates must never touch the heap.
    let allocations = count_allocations(|| {
        for _ in 0..16 {
            let update = agent.update(&mut rng);
            assert!(update.is_some());
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state Ddpg::update performed {allocations} heap allocations"
    );
}

#[test]
fn blocked_parallel_kernels_and_fleet_forward_are_allocation_free() {
    use edgeslice_nn::{Activation, FleetScratch, Matrix, Mlp, Parallelism, TILE_K, TILE_N};

    let _guard = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(13);

    // Shapes past TILE_K/TILE_N so the plain entry points auto-dispatch to
    // the cache-blocked schedule (the packed B panel lives on the stack).
    let (m, k, n) = (8, TILE_K + 5, TILE_N + 3);
    let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-1.0f64..1.0));
    let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-1.0f64..1.0));
    let at = Matrix::from_fn(k, m, |_, _| rng.gen_range(-1.0f64..1.0));
    let br = Matrix::from_fn(n, k, |_, _| rng.gen_range(-1.0f64..1.0));
    let mut out = Matrix::zeros(1, 1);

    // Warm-up sizes the output buffer once per largest shape.
    a.matmul_into(&b, &mut out);
    at.matmul_at_b_into(&b, &mut out);
    a.matmul_a_bt_into(&br, &mut out);

    // `Threaded(1)` degrades to the inline path — the row-chunk seam itself
    // must be free. (`Threaded(2+)` spawns scoped OS threads, whose control
    // blocks allocate by construction; its byte-identity is pinned by the
    // property suite instead.)
    for par in [Parallelism::Sequential, Parallelism::Threaded(1)] {
        let allocations = count_allocations(|| {
            a.matmul_into(&b, &mut out);
            a.matmul_blocked_into(&b, &mut out);
            a.matmul_par_into(&b, &mut out, par);
            at.matmul_at_b_into(&b, &mut out);
            at.matmul_at_b_blocked_into(&b, &mut out);
            at.matmul_at_b_par_into(&b, &mut out, par);
            a.matmul_a_bt_into(&br, &mut out);
            a.matmul_a_bt_blocked_into(&br, &mut out);
            a.matmul_a_bt_par_into(&br, &mut out, par);
        });
        assert_eq!(
            allocations, 0,
            "steady-state blocked/parallel kernels ({par:?}) performed {allocations} heap allocations"
        );
    }

    // Batched multi-network forward: stage once, then steady-state passes
    // (restage + forward) must never touch the heap.
    let net = Mlp::new(
        &[12, 32, 32, 6],
        Activation::leaky_default(),
        Activation::Sigmoid,
        &mut rng,
    );
    let inputs: Vec<Vec<f64>> = (0..64)
        .map(|_| (0..12).map(|_| rng.gen_range(-1.0f64..1.0)).collect())
        .collect();
    let mut scratch = FleetScratch::new();
    scratch.begin(inputs.len(), 12);
    for (i, x) in inputs.iter().enumerate() {
        scratch.set_input_row(i, x);
    }
    net.forward_fleet_scratch(&mut scratch, Parallelism::Sequential);
    let allocations = count_allocations(|| {
        for _ in 0..8 {
            scratch.begin(inputs.len(), 12);
            for (i, x) in inputs.iter().enumerate() {
                scratch.set_input_row(i, x);
            }
            let out = net.forward_fleet_scratch(&mut scratch, Parallelism::Sequential);
            assert_eq!(out.shape(), (64, 6));
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state fleet forward performed {allocations} heap allocations"
    );
}

#[test]
fn rejected_update_during_warmup_is_also_allocation_free() {
    let _guard = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let config = DdpgConfig {
        batch_size: 64,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(12);
    let mut agent = Ddpg::new(2, 1, config, &mut rng);
    // Empty replay: sampling fails with a typed error, touching nothing.
    let allocations = count_allocations(|| {
        assert!(agent.update(&mut rng).is_none());
    });
    assert_eq!(
        allocations, 0,
        "warm-up rejection performed {allocations} heap allocations"
    );
}
