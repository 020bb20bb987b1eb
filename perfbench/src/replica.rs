//! The traced replays: the program's training and round loops driven
//! from the benchmark through each layer's public functions, with a span
//! around every layer call.
//!
//! A replica is built from the same seed, in the same order, as
//! `EdgeSliceSystem::new`, so the replays must reproduce the program's
//! results bit for bit; the workloads check that they do. That check is
//! what makes the per-layer numbers describe the program that the
//! untraced run measured. The training replay drives the program's own
//! `Ddpg`; only the phase split of its update comes from a copy
//! ([`PhaseMirror`]), which is measured beside the original.

use std::sync::Arc;

use edgeslice::{
    project_action_per_resource, CheckpointStore, IntervalStatus, MonitorRecord,
    OrchestrationAgent, PerformanceCoordinator, PolicyCheckpoint, RaEnvConfig, RaId, RaSliceEnv,
    RoundRecord, RunReport, RunSnapshot, Sla, SliceId, SupervisionStats, SystemConfig,
    SystemMonitor, TrafficKind, WorkerSnapshot,
};
use edgeslice_netsim::{DiurnalTrace, PoissonTraffic, TrafficSource};
use edgeslice_nn::{Activation, Adam, Matrix, Mlp, TrainScratch};
use edgeslice_rl::{Batch, Ddpg, DdpgConfig, Environment, ReplayBuffer, Technique, Transition};
use edgeslice_runtime::{derive_stream_seed, DOMAIN_ORCH, DOMAIN_ROUND, DOMAIN_TRAIN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;

/// One RA environment, configured as `SystemConfig`'s private `make_env`
/// configures it.
pub fn make_env(config: &SystemConfig, rng: &mut StdRng) -> RaSliceEnv {
    let env_config = RaEnvConfig {
        slices: config.slices.clone(),
        perf: Arc::clone(&config.perf),
        reward: config.reward,
        state_spec: config.state_spec,
        interval_s: 1.0,
        queue_norm: 25.0,
        coord_norm: 50.0,
        coord_sample_range: config.coord_sample_range,
        randomize_coord: true,
        queue_capacity: 200.0,
        squash_training_reward: true,
        project_shares: true,
    };
    let traffic = config
        .slices
        .iter()
        .map(|_| -> Box<dyn TrafficSource + Send> {
            match config.traffic {
                TrafficKind::Poisson(rate) => Box::new(PoissonTraffic::new(rate)),
                TrafficKind::Diurnal { base } => Box::new(DiurnalTrace::random_area(base, rng)),
            }
        })
        .collect();
    RaSliceEnv::with_dataset(env_config, traffic)
}

/// A per-RA policy the round replay decides with.
pub trait Decide {
    /// The greedy action for `state`.
    fn decide(&self, state: &[f64]) -> Vec<f64>;
}

impl Decide for OrchestrationAgent {
    fn decide(&self, state: &[f64]) -> Vec<f64> {
        OrchestrationAgent::decide(self, state)
    }
}

impl Decide for Ddpg {
    fn decide(&self, state: &[f64]) -> Vec<f64> {
        self.policy(state)
    }
}

/// The program's system state, held by the benchmark: per-RA envs and
/// policies, the ADMM coordinator and the monitor.
pub struct Replica<P> {
    /// The configuration the replica was built from.
    pub config: SystemConfig,
    /// Per-RA environments.
    pub envs: Vec<RaSliceEnv>,
    /// Per-RA policies.
    pub policies: Vec<P>,
    /// The performance coordinator.
    pub coordinator: PerformanceCoordinator,
    /// The monitor database.
    pub monitor: SystemMonitor,
}

impl<P> Replica<P> {
    /// Builds envs, then one policy per RA (in RA order, from `new_policy`),
    /// then the coordinator — `EdgeSliceSystem::new`'s order of RNG draws.
    pub fn new(
        config: SystemConfig,
        rng: &mut StdRng,
        mut new_policy: impl FnMut(usize, &RaSliceEnv, &mut StdRng) -> P,
    ) -> Self {
        let envs: Vec<RaSliceEnv> = (0..config.n_ras).map(|_| make_env(&config, rng)).collect();
        let policies = envs
            .iter()
            .enumerate()
            .map(|(j, env)| new_policy(j, env, rng))
            .collect();
        let slas: Vec<Sla> = config.slices.iter().map(|s| s.sla).collect();
        let coordinator = PerformanceCoordinator::new(&slas, config.n_ras, config.admm);
        Self {
            config,
            envs,
            policies,
            coordinator,
            monitor: SystemMonitor::new(),
        }
    }
}

/// A learned replica with the program's DDPG agents.
pub fn agent_replica(config: SystemConfig, rng: &mut StdRng) -> Replica<OrchestrationAgent> {
    let agent_config = edgeslice::AgentConfig::default();
    Replica::new(config, rng, |j, env, rng| {
        OrchestrationAgent::new(RaId(j), Technique::Ddpg, env, &agent_config, rng)
    })
}

/// Where a round replay writes checkpoints, as `set_checkpointing` does.
pub struct Sink<'a> {
    /// The store.
    pub store: &'a CheckpointStore,
    /// Snapshot every this many rounds.
    pub every_k: usize,
    /// The effective per-RA policies a snapshot records.
    pub policies: Vec<Option<PolicyCheckpoint>>,
}

impl<P: Decide> Replica<P> {
    /// Mirrors `EdgeSliceSystem::run(max_rounds, rng)` for a static,
    /// fault-free system: one `run` call, Alg. 1 round by round, with a
    /// span around each layer call.
    pub fn run(
        &mut self,
        max_rounds: usize,
        rng: &mut StdRng,
        tr: &mut Tracer,
        sink: Option<Sink<'_>>,
    ) -> RunReport {
        let n_ras = self.config.n_ras;
        let n_slices = self.config.slices.len();
        let period = self.config.reward.period;
        let project = self.config.project_actions;
        for env in &mut self.envs {
            env.set_randomize_coord(false);
        }
        let monitor = &mut self.monitor;
        let coordinator = &mut self.coordinator;
        let round_base = tr.time("monitor.query", || monitor.rounds());
        let master = rng.gen::<u64>();
        let streams: Vec<u64> = (0..n_ras)
            .map(|j| derive_stream_seed(master, DOMAIN_ORCH, j as u64))
            .collect();
        let mut workers: Vec<WorkerSnapshot> = self
            .envs
            .iter()
            .enumerate()
            .map(|(j, env)| worker_snapshot(j, env))
            .collect();
        let mut report = RunReport::default();
        for round_off in 0..max_rounds {
            let round = round_base + round_off;
            let info = tr.time("coord.info", || coordinator.coordination_info());
            let mut achieved = vec![vec![0.0; n_ras]; n_slices];
            let mut load = vec![0.0; n_ras];
            let mut rows = Vec::with_capacity(n_ras * period * n_slices);
            for (j, (env, policy)) in self.envs.iter_mut().zip(&self.policies).enumerate() {
                let mut rng = StdRng::seed_from_u64(derive_stream_seed(
                    streams[j],
                    DOMAIN_ROUND,
                    round_off as u64,
                ));
                let zy = info.for_ra(RaId(j));
                tr.time("env.configure", || {
                    env.set_capacity_scale([1.0; 3]);
                    env.set_coordination(&zy);
                });
                let mut u = vec![0.0; n_slices];
                for t in 0..period {
                    let state = tr.time("env.observe", || env.observe());
                    let mut action = tr.time("nn.actor_fwd", || policy.decide(&state));
                    if project {
                        tr.time("core.project", || {
                            project_action_per_resource(&mut action, n_slices)
                        });
                    }
                    let (_, perf) = tr.time("env.step", || env.advance(&action, &mut rng));
                    tr.begin("exec.report");
                    let queues = env.queue_lengths();
                    let shares = env.last_shares();
                    for i in 0..n_slices {
                        u[i] += perf[i];
                        rows.push(MonitorRecord {
                            round,
                            interval: t,
                            ra: RaId(j),
                            slice: SliceId(i),
                            queue: queues[i],
                            performance: perf[i],
                            shares: shares[i].as_array(),
                            status: IntervalStatus::Served,
                        });
                    }
                    tr.end();
                }
                tr.begin("exec.report");
                for (row, &ui) in achieved.iter_mut().zip(&u) {
                    row[j] = ui;
                }
                load[j] = env.queues().iter().map(|q| q.backlog()).sum();
                if sink.is_some() {
                    workers[j] = worker_snapshot(j, env);
                }
                tr.end();
            }
            tr.time("monitor.record", || {
                for row in rows {
                    monitor.record(row);
                }
            });
            let present = vec![true; n_ras];
            let residuals = tr.time("coord.admm", || {
                coordinator.update_partial(&achieved, &present)
            });
            tr.begin("exec.fold");
            let slice_performance: Vec<f64> = achieved.iter().map(|row| row.iter().sum()).collect();
            tr.end();
            let served_fraction = tr.time("monitor.query", || {
                monitor.round_served_fraction(round, n_ras, period)
            });
            let sla_met = tr.time("coord.sla", || {
                self.config
                    .slices
                    .iter()
                    .map(|s| {
                        !coordinator.slice_active(s.id)
                            || slice_performance[s.id.0]
                                >= coordinator.slice_umin(s.id) * served_fraction - 1e-9
                    })
                    .collect()
            });
            let usage = tr.time("monitor.query", || {
                (0..n_slices)
                    .map(|i| monitor.round_usage(round, SliceId(i)))
                    .collect()
            });
            tr.begin("exec.fold");
            report.rounds.push(RoundRecord {
                round,
                system_performance: slice_performance.iter().sum(),
                slice_performance,
                usage,
                residuals,
                sla_met,
                outages: Vec::new(),
                downed: Vec::new(),
                discarded_reports: 0,
                served_fraction,
                load,
            });
            tr.end();
            if let Some(sink) = &sink {
                if (round_off + 1).is_multiple_of(sink.every_k) {
                    let snapshot = tr.time("store.snapshot", || RunSnapshot {
                        master_seed: master,
                        round_base,
                        next_round: round_off + 1,
                        coordinator: coordinator.snapshot(),
                        workers: workers.clone(),
                        policies: sink.policies.clone(),
                        panic_counts: vec![0; n_ras],
                        rounds: report.rounds.clone(),
                        supervision: SupervisionStats::default(),
                        slices: self.config.slices.clone(),
                        lifecycle: None,
                    });
                    tr.time("store.save_run", || sink.store.save_run(&snapshot))
                        .expect("snapshot write succeeds inside the checkout");
                }
            }
            if tr.time("coord.converged", || coordinator.converged()) {
                break;
            }
        }
        for env in &mut self.envs {
            env.set_capacity_scale([1.0; 3]);
        }
        report
    }
}

fn worker_snapshot(j: usize, env: &RaSliceEnv) -> WorkerSnapshot {
    WorkerSnapshot {
        ra: RaId(j),
        queues: env.queues().to_vec(),
        coordination: env.coordination().to_vec(),
        global_t: env.global_t(),
        was_down: false,
        active: env.slice_active().to_vec(),
        rates: env.rate_overrides().to_vec(),
    }
}

/// `OrchestrationAgent::train` → `Ddpg::train` for one RA, step by step,
/// through the program's learner and its public `explore`, `observe` and
/// `update`: the updates timed here are the program's own.
pub fn train_ra(
    learner: &mut Ddpg,
    env: &mut RaSliceEnv,
    steps: usize,
    rng: &mut StdRng,
    tr: &mut Tracer,
) {
    let warmup = learner.config().warmup;
    env.set_randomize_coord(true);
    let mut state = tr.time("env.reset", || env.reset(rng));
    for step in 0..steps {
        let action: Vec<f64> = if step < warmup {
            tr.time("rl.warmup", || {
                (0..env.action_dim())
                    .map(|_| rng.gen_range(0.0..1.0))
                    .collect()
            })
        } else {
            tr.time("rl.explore", || learner.explore(&state, rng))
        };
        let out = tr.time("env.step", || env.step(&action, rng));
        tr.time("rl.observe", || {
            learner.observe(&Transition {
                state: state.clone(),
                action,
                reward: out.reward,
                next_state: out.next_state.clone(),
                done: out.done,
            })
        });
        state = if out.done {
            tr.time("env.reset", || env.reset(rng))
        } else {
            out.next_state
        };
        if step >= warmup {
            tr.time("rl.update", || learner.update(rng));
        }
    }
    env.set_randomize_coord(false);
}

/// Mirrors `EdgeSliceSystem::train(steps, rng)` under `Threaded`: draws
/// the training master seed, then trains every RA on its own thread with
/// its own tracer. Returns one tracer per RA.
pub fn train(
    replica: &mut Replica<Ddpg>,
    steps: usize,
    rng: &mut StdRng,
    origin: std::time::Instant,
) -> Vec<Tracer> {
    let master = rng.gen::<u64>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = replica
            .envs
            .iter_mut()
            .zip(&mut replica.policies)
            .enumerate()
            .map(|(j, (env, learner))| {
                scope.spawn(move || {
                    let mut tr = Tracer::new(origin, j as u32 + 1);
                    let mut rng =
                        StdRng::seed_from_u64(derive_stream_seed(master, DOMAIN_TRAIN, j as u64));
                    tr.begin("bench.train_ra");
                    train_ra(learner, env, steps, &mut rng, &mut tr);
                    tr.time("env.clear", || env.clear_queues());
                    tr.end();
                    tr
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay training thread panicked"))
            .collect()
    })
}

/// GEMM floating-point operations of one DDPG update at batch `n`: four
/// actor-sized passes (target forward, forward, two for the backward)
/// and six critic-sized ones (target forward, TD forward and backward
/// twice over, policy forward, input-gradient backward).
pub fn update_flops(actor: &Mlp, critic: &Mlp, n: usize) -> u64 {
    let pass = |net: &Mlp| -> u64 {
        net.layers()
            .iter()
            .map(|l| 2 * n as u64 * (l.weights().rows() * l.weights().cols()) as u64)
            .sum()
    };
    4 * pass(actor) + 6 * pass(critic)
}

/// Scratch buffers of one update, as the program's DDPG keeps them.
#[derive(Default)]
struct UpdateScratch {
    batch: Batch,
    ta_fwd: TrainScratch,
    tc_fwd: TrainScratch,
    critic_td: TrainScratch,
    actor_fwd: TrainScratch,
    critic_pi: TrainScratch,
    next_sa: Matrix,
    sa: Matrix,
    sa_mu: Matrix,
    targets: Matrix,
    d_pred: Matrix,
    d_q: Matrix,
    d_action: Matrix,
}

/// A probe for the phase split of the DDPG update: a learner assembled
/// from the `nn` and `rl` layers' public parts in the order of
/// `Ddpg::update`, so each phase (sample, critic, actor, Adam, Polyak)
/// can be timed on its own. `Ddpg::update` itself is one public call, so
/// only a copy can be split; [`paired_updates`] checks how closely the
/// copy's cost follows the program's.
pub struct PhaseMirror {
    actor: Mlp,
    critic: Mlp,
    target_actor: Mlp,
    target_critic: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    replay: ReplayBuffer,
    config: DdpgConfig,
    scratch: UpdateScratch,
}

impl PhaseMirror {
    /// `Ddpg::new`: actor, then critic, drawn from `rng`.
    pub fn new(state_dim: usize, action_dim: usize, config: DdpgConfig, rng: &mut StdRng) -> Self {
        let h = config.hidden;
        let actor = Mlp::new(
            &[state_dim, h, h, action_dim],
            Activation::leaky_default(),
            Activation::Sigmoid,
            rng,
        );
        let critic = Mlp::new(
            &[state_dim + action_dim, h, h, 1],
            Activation::leaky_default(),
            Activation::Identity,
            rng,
        );
        Self {
            target_actor: actor.clone(),
            target_critic: critic.clone(),
            actor_opt: Adam::new(&actor, config.lr),
            critic_opt: Adam::new(&critic, config.lr),
            replay: ReplayBuffer::new(config.replay_capacity, state_dim, action_dim),
            actor,
            critic,
            config,
            scratch: UpdateScratch::default(),
        }
    }

    /// `Ddpg::observe`.
    pub fn observe(&mut self, transition: &Transition) {
        self.replay.push(transition);
    }

    /// `Ddpg::update`, phase by phase.
    pub fn update(&mut self, rng: &mut StdRng, tr: &mut Tracer) {
        let s = &mut self.scratch;
        let sampled = tr.time("rl.update.sample", || {
            self.replay
                .sample_into(self.config.batch_size, rng, &mut s.batch)
        });
        if sampled.is_err() {
            return;
        }
        let n = s.batch.rewards.len();
        let gamma = self.config.gamma;

        tr.time("rl.update.critic", || {
            self.target_actor
                .forward_scratch(&s.batch.next_states, &mut s.ta_fwd);
            Matrix::hstack_into(&[&s.batch.next_states, s.ta_fwd.output()], &mut s.next_sa);
            self.target_critic
                .forward_scratch(&s.next_sa, &mut s.tc_fwd);
            s.targets.resize_for(n, 1);
            let next_q = s.tc_fwd.output();
            for i in 0..n {
                let bootstrap = if s.batch.dones[i] {
                    0.0
                } else {
                    gamma * next_q[(i, 0)]
                };
                s.targets[(i, 0)] = s.batch.rewards[i] + bootstrap;
            }
            Matrix::hstack_into(&[&s.batch.states, &s.batch.actions], &mut s.sa);
            self.critic.forward_scratch(&s.sa, &mut s.critic_td);
            edgeslice_nn::mse_loss_into(s.critic_td.output(), &s.targets, &mut s.d_pred);
            self.critic.backward_scratch(&mut s.critic_td, &s.d_pred);
            s.critic_td.grads_mut().clip_global_norm(10.0);
        });
        tr.time("rl.update.adam", || {
            self.critic_opt.step(&mut self.critic, s.critic_td.grads())
        });

        tr.time("rl.update.actor", || {
            self.actor
                .forward_scratch(&s.batch.states, &mut s.actor_fwd);
            Matrix::hstack_into(&[&s.batch.states, s.actor_fwd.output()], &mut s.sa_mu);
            self.critic.forward_scratch(&s.sa_mu, &mut s.critic_pi);
            std::hint::black_box(s.critic_pi.output().mean());
            s.d_q.resize_for(n, 1);
            s.d_q.fill(-1.0 / n as f64);
            self.critic.backward_input_scratch(&mut s.critic_pi, &s.d_q);
            let sd = s.batch.states.cols();
            let ad = s.actor_fwd.output().cols();
            s.d_action.resize_for(n, ad);
            let d_input = s.critic_pi.d_input();
            for i in 0..n {
                s.d_action
                    .row_mut(i)
                    .copy_from_slice(&d_input.row(i)[sd..sd + ad]);
            }
            self.actor.backward_scratch(&mut s.actor_fwd, &s.d_action);
            s.actor_fwd.grads_mut().clip_global_norm(10.0);
        });
        tr.time("rl.update.adam", || {
            self.actor_opt.step(&mut self.actor, s.actor_fwd.grads())
        });

        tr.time("rl.update.polyak", || {
            self.target_actor
                .soft_update_from(&self.actor, self.config.tau);
            self.target_critic
                .soft_update_from(&self.critic, self.config.tau);
        });
    }
}

/// The paired update probe: the program's `Ddpg` and a [`PhaseMirror`],
/// built from the same seed and fed the same transitions from `env`, make
/// `updates` updates each, alternating which goes first. The program's
/// updates are spans named `rl.update`; the mirror's are `rl.mirror_update`
/// with one child span per phase. Returns whether the two learners ended
/// with the same parameters bit for bit.
pub fn paired_updates(
    env: &mut RaSliceEnv,
    config: DdpgConfig,
    seed: u64,
    updates: usize,
    tr: &mut Tracer,
) -> bool {
    let (sd, ad) = (env.state_dim(), env.action_dim());
    let mut real = Ddpg::new(sd, ad, config, &mut StdRng::seed_from_u64(seed));
    let mut mirror = PhaseMirror::new(sd, ad, config, &mut StdRng::seed_from_u64(seed));
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let mut real_rng = StdRng::seed_from_u64(seed.wrapping_add(2));
    let mut mirror_rng = real_rng.clone();
    let warmup = config.batch_size;
    env.set_randomize_coord(true);
    let mut state = env.reset(&mut rng);
    for step in 0..warmup + updates {
        let action: Vec<f64> = if step < warmup {
            (0..ad).map(|_| rng.gen_range(0.0..1.0)).collect()
        } else {
            real.explore(&state, &mut rng)
        };
        let out = env.step(&action, &mut rng);
        let transition = Transition {
            state: state.clone(),
            action,
            reward: out.reward,
            next_state: out.next_state.clone(),
            done: out.done,
        };
        real.observe(&transition);
        mirror.observe(&transition);
        state = if out.done {
            env.reset(&mut rng)
        } else {
            out.next_state
        };
        if step >= warmup {
            let mut update_real = |tr: &mut Tracer| {
                tr.time("rl.update", || real.update(&mut real_rng));
            };
            let mut update_mirror = |tr: &mut Tracer| {
                tr.begin("rl.mirror_update");
                mirror.update(&mut mirror_rng, tr);
                tr.end();
            };
            if step % 2 == 0 {
                update_real(tr);
                update_mirror(tr);
            } else {
                update_mirror(tr);
                update_real(tr);
            }
        }
    }
    env.set_randomize_coord(false);
    let digest = |a: &Mlp, c: &Mlp| crate::checks::params_digest(&[a, c]);
    digest(real.actor(), real.critic()) == digest(&mirror.actor, &mirror.critic)
}
