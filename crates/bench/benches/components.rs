//! Component microbenchmarks: the per-piece costs behind the figures.
//!
//! Covers the neural stack (forward/backward at the paper's 2×128 widths),
//! the simulated environment step, the coordinator's P2 + dual update, the
//! closed-form vs iterative QP (ablation), the PRB scheduler, the
//! kernel-split transform, meter reconfiguration in both modes (ablation),
//! and a full DDPG update.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use edgeslice::{PerformanceCoordinator, RaEnvConfig, RaSliceEnv, Sla, SliceSpec, Taro};
use edgeslice_netsim::compute::{split_kernel, Kernel};
use edgeslice_netsim::radio::{EnodeB, LteBand};
use edgeslice_netsim::transport::{FlowMatch, IpAddr, ReconfigMode, SdnController};
use edgeslice_netsim::{AppProfile, GridDataset, PoissonTraffic, RaCapacities};
use edgeslice_nn::{Matrix, Mlp, TrainScratch};
use edgeslice_optim::{project_sum_halfspace, solve_projection_qp, AdmmConfig, QpConfig};
use edgeslice_rl::{Ddpg, DdpgConfig, Environment, Transition};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_nn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let actor = Mlp::paper_actor(4, 6, &mut rng);
    let x1 = Matrix::zeros(1, 4);
    let xb = Matrix::zeros(512, 4);
    c.bench_function("nn/actor_forward_single", |b| {
        b.iter(|| black_box(actor.forward(black_box(&x1))))
    });
    c.bench_function("nn/actor_forward_batch512", |b| {
        b.iter(|| black_box(actor.forward(black_box(&xb))))
    });
    let mut s = TrainScratch::new();
    actor.forward_scratch(&xb, &mut s);
    let d = Matrix::filled(512, 6, 1.0);
    c.bench_function("nn/actor_backward_batch512", |b| {
        b.iter(|| {
            actor.backward_scratch(&mut s, black_box(&d));
            black_box(s.grads().global_norm())
        })
    });
}

fn make_env() -> RaSliceEnv {
    let config = RaEnvConfig::experiment(vec![
        SliceSpec::experiment_slice1(),
        SliceSpec::experiment_slice2(),
    ]);
    RaSliceEnv::with_dataset(
        config,
        vec![
            Box::new(PoissonTraffic::paper()),
            Box::new(PoissonTraffic::paper()),
        ],
    )
}

fn bench_env(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut env = make_env();
    env.reset(&mut rng);
    let action = [0.5; 6];
    c.bench_function("env/step_dataset", |b| {
        b.iter(|| black_box(env.step(black_box(&action), &mut rng)))
    });
    c.bench_function("env/dataset_generation", |b| {
        b.iter(|| {
            black_box(GridDataset::generate(
                AppProfile::traffic_heavy(),
                RaCapacities::prototype(),
            ))
        })
    });
    let d = GridDataset::generate(AppProfile::traffic_heavy(), RaCapacities::prototype());
    c.bench_function("env/dataset_predict_offgrid", |b| {
        b.iter(|| black_box(d.predict(black_box([0.12, 0.38, 0.22]))))
    });
}

fn bench_coordinator(c: &mut Criterion) {
    let slas = vec![Sla::paper(); 5];
    c.bench_function("coordinator/round_update_5x10", |b| {
        b.iter_batched(
            || PerformanceCoordinator::new(&slas, 10, AdmmConfig::default()),
            |mut coord| {
                let achieved = vec![vec![-12.0; 10]; 5];
                black_box(coord.update(&achieved))
            },
            BatchSize::SmallInput,
        )
    });
    // Ablation: closed-form projection vs the iterative QP solver.
    let cvec = vec![-40.0, -30.0, -20.0, -10.0, -5.0];
    c.bench_function("coordinator/p2_closed_form", |b| {
        b.iter(|| black_box(project_sum_halfspace(black_box(&cvec), -50.0)))
    });
    c.bench_function("coordinator/p2_projected_gradient", |b| {
        b.iter(|| {
            black_box(solve_projection_qp(
                black_box(&cvec),
                -50.0,
                QpConfig::default(),
            ))
        })
    });
}

fn bench_substrates(c: &mut Criterion) {
    // PRB scheduler.
    let mut enb = EnodeB::prototype(LteBand::Band7);
    for s in 0..5u64 {
        let ue = edgeslice_netsim::radio::UserEquipment {
            imsi: edgeslice_netsim::radio::Imsi(s),
            band: LteBand::Band7,
        };
        enb.attach(ue);
        enb.associate(edgeslice_netsim::radio::Imsi(s), s as usize);
    }
    let shares = [0.3, 0.2, 0.2, 0.2, 0.1];
    c.bench_function("radio/schedule_5_slices", |b| {
        b.iter(|| black_box(enb.schedule(black_box(&shares))))
    });

    // Kernel split.
    c.bench_function("compute/kernel_split_51200_into_1024", |b| {
        b.iter(|| black_box(split_kernel(Kernel::new(51_200, 140.0), 1_024)))
    });

    // Meter reconfiguration ablation: make-before-break vs delete-create.
    let flow = FlowMatch {
        src: IpAddr([10, 0, 0, 1]),
        dst: IpAddr([192, 168, 0, 1]),
    };
    for (name, mode) in [
        (
            "transport/reconfig_make_before_break",
            ReconfigMode::MakeBeforeBreak,
        ),
        (
            "transport/reconfig_break_before_make",
            ReconfigMode::BreakBeforeMake,
        ),
    ] {
        c.bench_function(name, |b| {
            b.iter_batched(
                SdnController::prototype,
                |mut ctl| {
                    ctl.set_bandwidth(flow, 40.0, mode);
                    ctl.set_bandwidth(flow, 20.0, mode);
                    black_box(ctl.path_rate_mbps(flow))
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_policies(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let taro = Taro::new();
    c.bench_function("policy/taro_allocate", |b| {
        b.iter(|| black_box(taro.allocate(black_box(&[3.0, 7.0, 1.0, 0.0, 9.0]))))
    });

    // One DDPG gradient update at the scaled configuration.
    let cfg = DdpgConfig {
        hidden: 64,
        batch_size: 128,
        warmup: 0,
        ..Default::default()
    };
    let mut agent = Ddpg::new(4, 6, cfg, &mut rng);
    for i in 0..256 {
        agent.observe(&Transition {
            state: vec![i as f64 / 256.0; 4],
            action: vec![0.5; 6],
            reward: -1.0,
            next_state: vec![(i + 1) as f64 / 256.0; 4],
            done: i % 10 == 9,
        });
    }
    c.bench_function("policy/ddpg_update_batch128", |b| {
        b.iter(|| black_box(agent.update(&mut rng)))
    });

    // Reward-shaping ablation: Eq. 15 with and without the β penalty term.
    let env_reward = |beta: f64| {
        let params = edgeslice::RewardParams {
            rho: 1.0,
            beta,
            period: 10,
        };
        edgeslice::reward(
            &params,
            &[-4.0, -9.0],
            &[-20.0, -30.0],
            &[1.2, 0.8, 1.1],
            &[1.0; 3],
        )
    };
    c.bench_function("reward/eq15_beta20", |b| {
        b.iter(|| black_box(env_reward(20.0)))
    });
    c.bench_function("reward/eq15_beta0", |b| {
        b.iter(|| black_box(env_reward(0.0)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_nn, bench_env, bench_coordinator, bench_substrates, bench_policies
}
criterion_main!(benches);
