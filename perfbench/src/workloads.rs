//! The four workloads, each in an untraced form (end-to-end metrics) and a
//! traced form (per-layer metrics).
//!
//! * `train-proto` — prototype (2 slices × 2 RAs), DDPG agents trained per
//!   RA under `Threaded(2)`, then evaluated and served round by round
//!   (inline).
//! * `online-sim` — paper simulation (5 × 10, T = 24), agents as
//!   constructed, one closed-loop client issuing `run(1)` requests; a
//!   fresh system every few rounds keeps the monitor history short.
//! * `history-proto` — prototype, one long `run` with a checkpoint every 4
//!   rounds: the monitor is read over a growing history and every
//!   snapshot re-serialises the report so far.
//! * `net-uds` — prototype over a Unix-domain socket: two `serve_ra`
//!   peers on threads, `run_networked` on the calling thread.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use edgeslice::{
    AgentBackend, AgentConfig, CheckpointStore, Clock, EdgeSliceSystem, FaultInjector,
    ListenerAcceptor, NetConfig, NetCoordinator, NetListener, OrchestratorKind, Parallelism,
    PerformanceFunction, PolicyCheckpoint, PolicyFleet, RaId, RetryPolicy, RunReport, Scheduler,
    SystemConfig, WorkerNetOptions,
};
use edgeslice_nn::Mlp;
use edgeslice_rl::{Ddpg, DdpgConfig, Environment, Technique};
use edgeslice_runtime::{
    CoordInfo, Engine, RaReport, RoundCoordinator, RoundTelemetry, RoundWorker, WireMsg,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::checks::{self, Checks};
use crate::netio::{self, TimedAcceptor};
use crate::replica::{self, agent_replica, Replica, Sink};
use crate::stats::{self, median, Summary};
use crate::trace::{Trace, Tracer};

/// Worker threads of the `Threaded` scheduler.
pub const THREADS: usize = 2;
/// The scheduler of the in-process workloads.
pub const SCHEDULER: Scheduler = Scheduler::Threaded(THREADS);
/// Environment steps each RA trains for on `train-proto`.
pub const TRAIN_STEPS: usize = 1_500;
/// Rounds of the fixed evaluation run after training.
pub const EVAL_ROUNDS: usize = 20;
/// `run(1)` requests served (inline) after each evaluation on
/// `train-proto`; few enough that the monitor history stays short.
pub const SERVE_ROUNDS: usize = 200;
/// Environment steps of one RA per timed training window on
/// `train-proto`: about 35 ms of DDPG updates on a 2-vCPU VM, short
/// enough that most windows see one state of the shared host.
pub const TRAIN_WINDOW_STEPS: usize = 50;
/// Paper simulation size.
pub const SIM_SLICES: usize = 5;
/// Paper simulation size.
pub const SIM_RAS: usize = 10;
/// `online-sim` requests per fresh system. Every round scans the whole
/// monitor history, so a round's monitor share grows with its position in
/// the segment: measured on the sequential replay (2 vCPUs), about 1% at
/// round 1, 7% at round 12, 13% at round 20, 49% at round 50 and 88% at
/// round 400. Twelve keeps the monitor under a tenth of every round;
/// `history-proto` carries the long-history cost.
pub const SEGMENT_ROUNDS: usize = 12;
/// Length of one `history-proto` run.
pub const HISTORY_ROUNDS: usize = 1_000;
/// `history-proto` checkpoint cadence.
pub const CHECKPOINT_EVERY: usize = 4;
/// Rounds of one `net-uds` session (within the prototype's ADMM cap of
/// 200 rounds, so no session stops early).
pub const SESSION_ROUNDS: usize = 200;
/// Set-up samples timed before a run's first unit of work and again after
/// every unit, where a workload does not set up repeatedly anyway; the
/// median of all of them is reported. Spread over the run, they see the
/// same mix of host states as the rest of the run (on a shared host, one
/// construction's cost can shift by a third within a second).
pub const SETUP_REPS: usize = 4;
/// Constructions per set-up sample: one prototype construction takes
/// under a millisecond, too little to time steadily on its own.
pub const SETUP_BATCH: usize = 25;
/// Round latencies the request loops collect at least, so the reported
/// tail is at least the 99th percentile.
pub const MIN_LATENCY_SAMPLES: usize = 1_000;
/// Smallest share of traced time the layers must account for.
pub const COVERAGE_GATE: f64 = 0.9;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Per-RA DDPG training on the prototype.
    TrainProto,
    /// Closed-loop rounds on the paper simulation.
    OnlineSim,
    /// One long checkpointed run on the prototype.
    HistoryProto,
    /// Networked rounds over a Unix-domain socket.
    NetUds,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::TrainProto,
        Workload::OnlineSim,
        Workload::HistoryProto,
        Workload::NetUds,
    ];

    /// The workloads `BENCHMARK.json` lists. `history-proto` still runs
    /// from the command line, untraced and traced, but is not listed: its
    /// rounds wait on an fsync per checkpoint, and on a shared disk its
    /// round figures spread by more than the bound across seeds (see
    /// `CHANGES.md`).
    pub const BENCHMARKED: [Workload; 3] =
        [Workload::TrainProto, Workload::OnlineSim, Workload::NetUds];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainProto => "train-proto",
            Workload::OnlineSim => "online-sim",
            Workload::HistoryProto => "history-proto",
            Workload::NetUds => "net-uds",
        }
    }

    /// The percentile of its quiet profile ([`stats::quiet_profile`]).
    /// Train-proto's per-RA training windows and inline rounds, and
    /// net-uds's rounds, have a distinct quick mode holding well over a
    /// tenth of their samples, so their 10th percentile sits inside it.
    /// An online-sim round keeps both vCPUs busy and waits for the slower
    /// one; its latencies have no such mode, and their lowest tenth is a
    /// thin, steep tail (1.2 to 2.0 ms from the 2nd to the 25th percentile
    /// on a 2-vCPU VM) whose 10th percentile moved by a fifth between
    /// runs, so it takes the 25th, in the body of the distribution.
    pub fn quiet_percentile(self) -> usize {
        match self {
            Workload::OnlineSim => 25,
            Workload::TrainProto | Workload::HistoryProto | Workload::NetUds => 10,
        }
    }

    /// How the workload executes, for the provenance record.
    pub fn execution(self) -> &'static str {
        match self {
            Workload::TrainProto => "train under threaded(2), serve sequential",
            Workload::OnlineSim | Workload::HistoryProto => "threaded(2)",
            Workload::NetUds => "two serve_ra peer threads, coordinator on the caller",
        }
    }
}

/// One metric as printed.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run produced.
#[derive(Default)]
pub struct Outcome {
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Rounds attempted.
    pub attempted: usize,
    /// Rounds that failed.
    pub failed: usize,
    /// Output checks.
    pub checks: Checks,
    /// Sample counts, tail levels and other provenance, by key.
    pub detail: Vec<(String, serde::Value)>,
    /// The traced run's spans.
    pub trace: Option<Trace>,
    /// Slice-rounds that met their SLA, and all slice-rounds.
    sla: (usize, usize),
    /// Sum of `system_performance` over the rounds counted.
    perf_sum: f64,
    /// Rounds counted.
    rounds_seen: usize,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn note(&mut self, key: &str, value: impl Serialize) {
        self.detail.push((key.to_string(), value.to_value()));
    }

    fn rounds(&mut self, report: &RunReport, attempted: usize) {
        self.attempted += attempted;
        self.failed += checks::failed_rounds(report, attempted);
        for r in &report.rounds {
            self.sla.0 += r.sla_met.iter().filter(|&&met| met).count();
            self.sla.1 += r.sla_met.len();
            self.perf_sum += r.system_performance;
            self.rounds_seen += 1;
        }
    }

    /// The round outcomes counted so far: SLA share of slice-rounds, mean
    /// system performance, and the failed share of attempted rounds.
    fn outcomes(&self) -> [(&'static str, f64); 3] {
        [
            ("sla_met_frac", self.sla.0 as f64 / self.sla.1.max(1) as f64),
            (
                "system_perf",
                self.perf_sum / self.rounds_seen.max(1) as f64,
            ),
            (
                "failed_frac",
                self.failed as f64 / self.attempted.max(1) as f64,
            ),
        ]
    }
}

/// Where the benchmark keeps scratch files (inside the checkout).
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is creatable inside the checkout");
    dir
}

fn learned(config: SystemConfig, rng: &mut StdRng, scheduler: Scheduler) -> EdgeSliceSystem {
    let mut sys = EdgeSliceSystem::new(
        config,
        OrchestratorKind::Learned(Technique::Ddpg),
        &AgentConfig::default(),
        rng,
    );
    sys.set_scheduler(scheduler);
    sys
}

fn simulation(rng: &mut StdRng) -> SystemConfig {
    SystemConfig::simulation(SIM_SLICES, SIM_RAS, rng)
}

fn history_config() -> SystemConfig {
    let mut config = SystemConfig::prototype();
    // Uncapped, so the run lasts HISTORY_ROUNDS even if ADMM would stop.
    config.admm.max_rounds = 10 * HISTORY_ROUNDS;
    config
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Adds [`SETUP_REPS`] samples to `samples`, each the mean time of
/// [`SETUP_BATCH`] constructions (each dropped before the next).
fn sample_setup<T>(samples: &mut Vec<f64>, mut build: impl FnMut() -> T) {
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            drop(build());
        }
        samples.push(secs(t) / SETUP_BATCH as f64);
    }
}

/// Raw end-to-end measurements of an untraced run, kept per repetition
/// of the run's unit of work and by position within it, so that the same
/// work can be compared across repetitions.
///
/// The host is shared, and its speed moves by up to half for stretches of
/// half a second to several seconds: on a 2-vCPU VM the same actor
/// forward pass, same weights, took 2.3 us for one second and 3.7 us the
/// next. A mean or median over a whole run measures how much of the run
/// the host spent busy elsewhere, which differs from run to run by more
/// than any usable bound. So every timing comes from a run's quiet
/// profile ([`stats::quiet_profile`]): per round or training window, a
/// low percentile ([`Workload::quiet_percentile`]) of its time across the
/// run's repetitions.
struct EndToEnd {
    quiet_pct: usize,
    setups: Vec<f64>,
    /// Per RA of every training repetition, the wall time of each of its
    /// complete training windows ([`TRAIN_WINDOW_STEPS`] environment
    /// steps on the RA's own thread), ms.
    train_windows_ms: Vec<Vec<f64>>,
    /// RAs training at once, each on a thread of its own.
    train_parallel: usize,
    /// Wall time of every `train` call, s.
    train_calls_s: Vec<f64>,
    /// Environment steps of one `train` call, all RAs.
    train_steps: usize,
    /// Per repetition, each round's latency in order, ms.
    rounds_ms: Vec<Vec<f64>>,
    /// Environment steps per round, on workloads that do not train.
    steps_per_round: usize,
}

impl EndToEnd {
    fn new(workload: Workload) -> Self {
        Self {
            quiet_pct: workload.quiet_percentile(),
            setups: Vec::new(),
            train_windows_ms: Vec::new(),
            train_parallel: 0,
            train_calls_s: Vec::new(),
            train_steps: 0,
            rounds_ms: Vec::new(),
            steps_per_round: 0,
        }
    }

    fn latency_samples(&self) -> usize {
        self.rounds_ms.iter().map(Vec::len).sum()
    }

    fn finish(self, out: &mut Outcome) {
        let all: Vec<f64> = self.rounds_ms.concat();
        let n = all.len();
        out.checks.require(stats::tail_level(n).is_some(), || {
            format!("only {n} round latencies: too few for any tail percentile")
        });
        let (tail, level) =
            Summary::of(&all).map_or((f64::NAN, f64::NAN), |s| (s.tail, s.tail_level));
        // A run whose work failed before it measured anything reports
        // NaN, which marks its result incorrect.
        let rate = |count: usize, ms: &[f64]| {
            if ms.is_empty() {
                f64::NAN
            } else {
                count as f64 / (ms.iter().sum::<f64>() / 1e3)
            }
        };
        let rounds = stats::quiet_profile(&self.rounds_ms, self.quiet_pct);
        let round_ms_p50 = if rounds.is_empty() {
            f64::NAN
        } else {
            median(&rounds)
        };
        let rounds_per_s = rate(rounds.len(), &rounds);
        // Training: the RAs train side by side, so the steps per second
        // of one RA's quiet windows, times the RAs training at once.
        let windows = stats::quiet_profile(&self.train_windows_ms, self.quiet_pct);
        let env_steps_per_s = if self.train_windows_ms.is_empty() {
            rounds_per_s * self.steps_per_round as f64
        } else {
            self.train_parallel as f64 * rate(windows.len() * TRAIN_WINDOW_STEPS, &windows)
        };
        out.metric(
            "setup_s",
            if self.setups.is_empty() {
                f64::NAN
            } else {
                median(&self.setups)
            },
            "s",
        );
        out.metric("env_steps_per_s", env_steps_per_s, "1/s");
        out.metric("rounds_per_s", rounds_per_s, "1/s");
        out.metric("round_ms_p50", round_ms_p50, "ms");
        // Beside the gated metrics, not among them: the same figures over
        // every sample of the run, host interference included; the tail,
        // whose run-to-run spread on a shared two-vCPU host exceeds any
        // usable bound; and peak RSS, which is bimodal (it depends on which
        // allocator arenas the per-call engine threads land in).
        if n > 0 {
            out.note("all_samples_round_ms_p50", median(&all));
            out.note("all_samples_rounds_per_s", rate(n, &all));
        }
        if !self.train_calls_s.is_empty() {
            let wall_s: f64 = self.train_calls_s.iter().sum();
            let steps = self.train_steps * self.train_calls_s.len();
            out.note("all_samples_env_steps_per_s", steps as f64 / wall_s);
            out.note("train_window_positions", windows.len());
        }
        out.note("round_ms_tail", tail);
        out.note("round_ms_tail_level", level);
        out.note("peak_rss_mb", peak_rss_mb());
        for (name, value) in out.outcomes() {
            out.note(name, value);
        }
        out.note("latency_samples", n);
        out.note("round_positions", rounds.len());
        out.note("round_repetitions", self.rounds_ms.len());
        out.note("train_repetitions", self.train_calls_s.len());
        out.note("setup_samples", self.setups.len());
        out.note("quiet_percentile", self.quiet_pct);
    }
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs the untraced form of `workload`.
pub fn run(workload: Workload, seed: u64, seconds: u64, out: &mut Outcome) {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    match workload {
        Workload::TrainProto => train_proto(seed, deadline, out),
        Workload::OnlineSim => online_sim(seed, deadline, out),
        Workload::HistoryProto => history_proto(seed, deadline, out),
        Workload::NetUds => net_uds(seed, deadline, out),
    }
}

/// The actor of every RA and RA 0's critic: the parameters a trained
/// system exposes.
fn trained_nets(sys: &EdgeSliceSystem) -> (Vec<Mlp>, Mlp) {
    let actors = sys
        .policy_fleet(Parallelism::Sequential)
        .policies()
        .iter()
        .map(checkpoint_network)
        .collect();
    let critic = match sys.agent0().backend() {
        AgentBackend::Ddpg(ddpg) => ddpg.critic().clone(),
        _ => unreachable!("the benchmark builds DDPG agents"),
    };
    (actors, critic)
}

fn checkpoint_network(policy: &PolicyCheckpoint) -> Mlp {
    let value = policy.to_value();
    let network = value
        .get_field("network")
        .expect("a policy checkpoint carries its network");
    Mlp::from_value(network).expect("the checkpoint network deserialises")
}

fn nets_digest(actors: &[Mlp], critic: &Mlp) -> u64 {
    let mut nets: Vec<&Mlp> = actors.iter().collect();
    nets.push(critic);
    checks::params_digest(&nets)
}

fn sla_met_frac(reports: &[&RunReport]) -> f64 {
    let (met, total) = reports
        .iter()
        .flat_map(|r| &r.rounds)
        .flat_map(|r| &r.sla_met)
        .fold((0usize, 0usize), |(m, t), &ok| (m + usize::from(ok), t + 1));
    met as f64 / total.max(1) as f64
}

/// Median round `system_performance`: one slice whose queue runs away
/// dominates a mean.
fn median_system_perf(reports: &[&RunReport]) -> f64 {
    let rounds: Vec<f64> = reports
        .iter()
        .flat_map(|r| &r.rounds)
        .map(|r| r.system_performance)
        .collect();
    median(&rounds)
}

fn digest_all(reports: &[RunReport]) -> u64 {
    let bytes: Vec<u8> = reports
        .iter()
        .flat_map(|r| checks::report_digest(r).to_le_bytes())
        .collect();
    checks::fnv1a(&bytes)
}

/// The input seed of repetition `k` of a run's unit of work (a training
/// cycle, a segment, a long run, a session). The first two repetitions
/// share the run's seed, which checks that the same input gives the same
/// output; every later one gets a fresh input derived from it, so a run
/// averages over many inputs.
fn input_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k.saturating_sub(1) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Whether a run may stop after `k` repetitions: the repeated pair is done
/// and its time is up.
fn done(k: usize, deadline: Instant) -> bool {
    k >= 2 && Instant::now() >= deadline
}

/// Checks the second repetition against the first, its same-input twin.
#[derive(Default)]
struct TwinCheck(Option<u64>);

impl TwinCheck {
    fn check(&mut self, out: &mut Outcome, what: &str, k: usize, digest: u64) {
        match k {
            0 => self.0 = Some(digest),
            1 => {
                let first = self.0.expect("repetition 0 recorded its digest");
                out.checks.same(what, first, digest);
            }
            _ => {}
        }
    }
}

/// TARO's evaluation on the identically seeded prototype.
fn taro_eval(seed: u64) -> RunReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut taro = EdgeSliceSystem::new(
        SystemConfig::prototype(),
        OrchestratorKind::Taro,
        &AgentConfig::default(),
        &mut rng,
    );
    taro.train(TRAIN_STEPS, &mut rng);
    taro.run(EVAL_ROUNDS, &mut rng)
}

/// Notes how the trained policies compare with TARO on the same inputs:
/// SLA share and median round system performance. Reported, not checked:
/// at this training length most inputs beat TARO clearly, but an
/// occasional input trains a policy whose queues run away.
fn note_vs_taro(out: &mut Outcome, seeds: &[u64], evals: &[&RunReport]) {
    let taro: Vec<RunReport> = seeds.iter().map(|&s| taro_eval(s)).collect();
    let taro: Vec<&RunReport> = taro.iter().collect();
    out.note("eval_sla_met_frac", sla_met_frac(evals));
    out.note("eval_median_system_perf", median_system_perf(evals));
    out.note("taro_sla_met_frac", sla_met_frac(&taro));
    out.note("taro_median_system_perf", median_system_perf(&taro));
}

fn train_proto(seed: u64, deadline: Instant, out: &mut Outcome) {
    let build = || {
        learned(
            SystemConfig::prototype(),
            &mut StdRng::seed_from_u64(seed),
            SCHEDULER,
        )
    };
    let mut e = EndToEnd::new(Workload::TrainProto);
    sample_setup(&mut e.setups, build);
    let mut twins = TwinCheck::default();
    let (mut inputs, mut evals) = (Vec::new(), Vec::new());
    let mut cycles = 0;
    while !done(cycles, deadline) {
        let input = input_seed(seed, cycles);
        let mut rng = StdRng::seed_from_u64(input);
        let mut config = SystemConfig::prototype();
        let every = config.slices.len() * TRAIN_WINDOW_STEPS;
        let clock = ThreadClock::install(&mut config, every);
        let mut sys = learned(config, &mut rng, SCHEDULER);
        let n_ras = sys.config().n_ras;
        clock.take();
        let t = Instant::now();
        sys.train(TRAIN_STEPS, &mut rng);
        e.train_calls_s.push(secs(t));
        e.train_steps = TRAIN_STEPS * n_ras;
        e.train_parallel = n_ras;
        // One RA per thread, each stamped at the start of every window.
        let threads = clock.take();
        let stamps = TRAIN_STEPS / TRAIN_WINDOW_STEPS;
        out.checks.require(
            threads.len() == n_ras && threads.iter().all(|s| s.len() == stamps),
            || {
                format!(
                    "training stamped {:?} windows on {} threads, expected {stamps} on each of {n_ras}",
                    threads.iter().map(Vec::len).collect::<Vec<_>>(),
                    threads.len()
                )
            },
        );
        for stamps in &threads {
            let windows = stamps.windows(2);
            e.train_windows_ms.push(
                windows
                    .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
                    .collect(),
            );
        }
        let (actors, critic) = trained_nets(&sys);

        // Serving runs inline: at two RAs a round costs less than the two
        // thread spawns `Threaded(2)` adds to every call.
        sys.set_scheduler(Scheduler::Sequential);
        let eval = sys.run(EVAL_ROUNDS, &mut rng);
        out.rounds(&eval, eval.rounds.len());
        let mut served = vec![eval.clone()];
        let mut latencies = Vec::with_capacity(SERVE_ROUNDS);
        for _ in 0..SERVE_ROUNDS {
            let t = Instant::now();
            let report = sys.run(1, &mut rng);
            latencies.push(secs(t) * 1e3);
            out.rounds(&report, 1);
            served.push(report);
        }
        e.rounds_ms.push(latencies);
        out.checks.system(&sys, &served.iter().collect::<Vec<_>>());
        let digest = checks::fnv1a(
            &[nets_digest(&actors, &critic), digest_all(&served)]
                .map(u64::to_le_bytes)
                .concat(),
        );
        twins.check(
            out,
            "trained parameters and reports, same input",
            cycles,
            digest,
        );
        if cycles != 1 {
            inputs.push(input);
            evals.push(eval);
        }
        cycles += 1;
        sample_setup(&mut e.setups, build);
    }
    note_vs_taro(out, &inputs, &evals.iter().collect::<Vec<_>>());
    out.note("cycles", cycles);
    out.note("train_steps_per_ra", TRAIN_STEPS);
    out.note("train_window_steps", TRAIN_WINDOW_STEPS);
    e.finish(out);
}

fn online_sim(seed: u64, deadline: Instant, out: &mut Outcome) {
    let mut e = EndToEnd::new(Workload::OnlineSim);
    let mut twins = TwinCheck::default();
    let mut segments = 0;
    while e.latency_samples() < MIN_LATENCY_SAMPLES || !done(segments, deadline) {
        let t = Instant::now();
        let mut rng = StdRng::seed_from_u64(input_seed(seed, segments));
        let config = simulation(&mut rng);
        let mut sys = learned(config, &mut rng, SCHEDULER);
        e.setups.push(secs(t));
        e.steps_per_round = sys.config().n_ras * sys.config().reward.period;
        let mut reports = Vec::with_capacity(SEGMENT_ROUNDS);
        let mut latencies = Vec::with_capacity(SEGMENT_ROUNDS);
        for _ in 0..SEGMENT_ROUNDS {
            let t = Instant::now();
            let report = sys.run(1, &mut rng);
            latencies.push(secs(t) * 1e3);
            out.rounds(&report, 1);
            reports.push(report);
        }
        e.rounds_ms.push(latencies);
        out.checks.system(&sys, &reports.iter().collect::<Vec<_>>());
        twins.check(
            out,
            "segment reports, same input",
            segments,
            digest_all(&reports),
        );
        segments += 1;
    }
    out.note("segments", segments);
    e.finish(out);
}

/// A pass-through performance function that stamps every `every`-th
/// evaluation. The environment evaluates it once per slice and interval,
/// so the stamps split one long `run` into rounds, or one `train` call
/// into windows of environment steps, without changing what the program
/// computes.
struct StampClock {
    inner: Arc<dyn PerformanceFunction>,
    every: usize,
    calls: AtomicUsize,
    stamps: Mutex<Vec<Instant>>,
}

impl StampClock {
    /// Wraps `config`'s performance function in a clock.
    fn install(config: &mut SystemConfig, every: usize) -> Arc<Self> {
        let clock = Arc::new(StampClock {
            inner: Arc::clone(&config.perf),
            every,
            calls: AtomicUsize::new(0),
            stamps: Mutex::new(Vec::new()),
        });
        config.perf = clock.clone();
        clock
    }

    /// The stamps so far, in time order (threads may push out of order),
    /// and a fresh start.
    fn take(&self) -> Vec<Instant> {
        let mut stamps = std::mem::take(&mut *self.stamps.lock().expect("stamp lock poisoned"));
        stamps.sort();
        stamps
    }
}

impl PerformanceFunction for StampClock {
    fn evaluate(&self, queue_len: f64, service_time_s: f64) -> f64 {
        if self
            .calls
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.every)
        {
            self.stamps
                .lock()
                .expect("stamp lock poisoned")
                .push(Instant::now());
        }
        self.inner.evaluate(queue_len, service_time_s)
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// A pass-through performance function that stamps every `every`-th
/// evaluation each thread makes. `train` under `Threaded(n)` trains every
/// RA on a thread of its own, so one thread's stamps split one RA's
/// training into windows of environment steps.
struct ThreadClock {
    inner: Arc<dyn PerformanceFunction>,
    every: usize,
    /// Per thread, in the order of their first evaluation: evaluations so
    /// far and stamps.
    threads: Mutex<Vec<(ThreadId, usize, Vec<Instant>)>>,
}

impl ThreadClock {
    /// Wraps `config`'s performance function in a clock.
    fn install(config: &mut SystemConfig, every: usize) -> Arc<Self> {
        let clock = Arc::new(ThreadClock {
            inner: Arc::clone(&config.perf),
            every,
            threads: Mutex::new(Vec::new()),
        });
        config.perf = clock.clone();
        clock
    }

    /// Every thread's stamps so far, and a fresh start.
    fn take(&self) -> Vec<Vec<Instant>> {
        let threads = std::mem::take(&mut *self.threads.lock().expect("stamp lock poisoned"));
        threads.into_iter().map(|(_, _, stamps)| stamps).collect()
    }
}

impl PerformanceFunction for ThreadClock {
    fn evaluate(&self, queue_len: f64, service_time_s: f64) -> f64 {
        let now = Instant::now();
        let id = std::thread::current().id();
        {
            let mut threads = self.threads.lock().expect("stamp lock poisoned");
            let k = match threads.iter().position(|t| t.0 == id) {
                Some(k) => k,
                None => {
                    threads.push((id, 0, Vec::new()));
                    threads.len() - 1
                }
            };
            let (_, calls, stamps) = &mut threads[k];
            if calls.is_multiple_of(self.every) {
                stamps.push(now);
            }
            *calls += 1;
        }
        self.inner.evaluate(queue_len, service_time_s)
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Snapshot files in `dir` and their total size.
fn store_files(dir: &Path) -> (usize, u64) {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .fold((0, 0), |(n, b), m| (n + 1, b + m.len()))
        })
        .unwrap_or((0, 0))
}

fn history_proto(seed: u64, deadline: Instant, out: &mut Outcome) {
    let setup_dir = scratch_dir("history-setup");
    let build = || {
        let mut sys = learned(
            history_config(),
            &mut StdRng::seed_from_u64(seed),
            SCHEDULER,
        );
        sys.set_checkpointing(&setup_dir, CHECKPOINT_EVERY)
            .expect("checkpoint store opens");
        sys
    };
    let mut e = EndToEnd::new(Workload::HistoryProto);
    sample_setup(&mut e.setups, build);
    let mut twins = TwinCheck::default();
    let mut runs = 0;
    let mut bytes = 0;
    while !done(runs, deadline) {
        let mut config = history_config();
        let per_round = config.n_ras * config.reward.period * config.slices.len();
        let clock = StampClock::install(&mut config, per_round);
        let dir = scratch_dir(&format!("history-{runs}"));
        let mut rng = StdRng::seed_from_u64(input_seed(seed, runs));
        let mut sys = learned(config.clone(), &mut rng, SCHEDULER);
        sys.set_checkpointing(&dir, CHECKPOINT_EVERY)
            .expect("checkpoint store opens");
        clock.take();
        let report = sys.run(HISTORY_ROUNDS, &mut rng);
        let end = Instant::now();
        e.steps_per_round = config.n_ras * config.reward.period;
        let stamps = clock.take();
        out.checks.require(stamps.len() == report.rounds.len(), || {
            format!(
                "{} round stamps for {} rounds",
                stamps.len(),
                report.rounds.len()
            )
        });
        e.rounds_ms.push(netio::round_latencies_ms(&stamps, end));
        out.rounds(&report, HISTORY_ROUNDS);
        out.checks.system(&sys, &[&report]);
        let (files, size) = store_files(&dir);
        out.checks
            .require(files == HISTORY_ROUNDS / CHECKPOINT_EVERY, || {
                format!(
                    "{files} snapshots written, expected {}",
                    HISTORY_ROUNDS / CHECKPOINT_EVERY
                )
            });
        bytes = size;
        let _ = std::fs::remove_dir_all(&dir);
        let digest = checks::report_digest(&report);
        twins.check(out, "long-run reports, same input", runs, digest);
        runs += 1;
        sample_setup(&mut e.setups, build);
    }
    let _ = std::fs::remove_dir_all(&setup_dir);
    out.note("long_runs", runs);
    out.note("store_bytes_per_run", bytes);
    e.finish(out);
}

/// One networked session's results.
struct Session {
    setup_s: f64,
    wall_s: f64,
    report: RunReport,
    latencies_ms: Vec<f64>,
    /// Traced only: the coordinator's tracer, then one per peer.
    tracers: Vec<Tracer>,
    /// Traced only: the coordinator's traffic.
    messages: Vec<WireMsg>,
    /// Traced only: received messages without a recorded send.
    unmatched: usize,
}

/// A coordinator and two `serve_ra` peers over a fresh socket. With a
/// trace origin, every link records spans from the first round on (set-up
/// traffic is not part of the traced run): the coordinator's under a root
/// span around `run_networked`, each peer's under its own root. A session
/// that cannot set up, fails its run, loses a peer or has a peer miss
/// rounds is an error, described.
fn session(seed: u64, rounds: usize, origin: Option<Instant>) -> Result<Session, String> {
    let t0 = Instant::now();
    let dir = scratch_dir("uds");
    let result = run_session(seed, rounds, origin, t0, &dir.join("coord.sock"));
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_session(
    seed: u64,
    rounds: usize,
    origin: Option<Instant>,
    t0: Instant,
    sock: &Path,
) -> Result<Session, String> {
    let listener = NetListener::bind_uds(sock).map_err(|e| format!("binding the socket: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sys = learned(SystemConfig::prototype(), &mut rng, Scheduler::Sequential);
    let n_ras = sys.config().n_ras;
    let seen = netio::observe();
    let mut net = NetCoordinator::new(n_ras, NetConfig::default(), Clock::wall());
    net.set_acceptor(Box::new(TimedAcceptor::new(
        ListenerAcceptor::new(listener, RetryPolicy::default()),
        Arc::clone(&seen),
    )));
    let injector = FaultInjector::none(n_ras, rounds);
    std::thread::scope(|scope| {
        let mut peers = Vec::with_capacity(n_ras);
        // The coordinator lives in this closure: when it returns, early
        // or not, the coordinator's links close and every peer ends.
        let coordinated = (|| {
            let mut net = net;
            for ra in 0..n_ras {
                let link =
                    edgeslice::connect_uds(sock, RetryPolicy::default(), Duration::from_secs(5))
                        .map_err(|e| format!("peer {ra} connecting: {e}"))?;
                let link = netio::Timed::new(link, Arc::clone(&seen), 1 + ra);
                let injector = &injector;
                peers.push(scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut peer =
                        learned(SystemConfig::prototype(), &mut rng, Scheduler::Sequential);
                    peer.serve_ra(
                        RaId(ra),
                        &mut rng,
                        injector,
                        link,
                        &WorkerNetOptions::default(),
                    )
                }));
            }
            net.wait_registered(0)
                .map_err(|e| format!("peer registration: {e}"))?;
            let setup_s = secs(t0);
            if let Some(origin) = origin {
                let mut tr = Tracer::new(origin, 0);
                tr.begin("bench.run_networked");
                netio::start_trace(&seen, tr, origin, n_ras);
            }
            let t = Instant::now();
            let report = sys.run_networked(rounds, &mut rng, &injector, &mut net);
            let end = Instant::now();
            let tracers = netio::close_trace(&seen);
            let report = report.map_err(|e| format!("networked run: {e}"))?;
            Ok::<_, String>((setup_s, secs(t), end, report, tracers))
        })();
        let mut problems = Vec::new();
        let mut served = Vec::new();
        for (ra, peer) in peers.into_iter().enumerate() {
            match peer.join() {
                Ok(Ok(outcome)) => served.push((ra, outcome.rounds_served)),
                Ok(Err(e)) => problems.push(format!("peer {ra}: {e}")),
                Err(_) => problems.push(format!("peer {ra} panicked")),
            }
        }
        let (setup_s, wall_s, end, report, tracers) = match coordinated {
            Ok(done) => done,
            Err(e) => {
                problems.insert(0, e);
                return Err(problems.join("; "));
            }
        };
        for (ra, n) in served {
            if n != report.rounds.len() {
                problems.push(format!(
                    "peer {ra} served {n} of {} rounds",
                    report.rounds.len()
                ));
            }
        }
        if !problems.is_empty() {
            return Err(problems.join("; "));
        }
        let mut seen = netio::lock(&seen);
        Ok(Session {
            setup_s,
            wall_s,
            report,
            latencies_ms: netio::round_latencies_ms(&seen.round_starts, end),
            tracers,
            messages: std::mem::take(&mut seen.messages),
            unmatched: seen.unmatched,
        })
    })
}

fn net_uds(seed: u64, deadline: Instant, out: &mut Outcome) {
    let mut e = EndToEnd::new(Workload::NetUds);
    // The in-process reference: the same seed under Threaded(2) must
    // produce the same report as the networked run.
    let reference = {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sys = learned(SystemConfig::prototype(), &mut rng, SCHEDULER);
        checks::report_digest(&sys.run(SESSION_ROUNDS, &mut rng))
    };
    let mut twins = TwinCheck::default();
    let mut sessions = 0;
    while e.latency_samples() < MIN_LATENCY_SAMPLES || !done(sessions, deadline) {
        let s = match session(input_seed(seed, sessions), SESSION_ROUNDS, None) {
            Ok(s) => s,
            Err(problem) => {
                out.checks
                    .require(false, || format!("networked session: {problem}"));
                out.attempted += SESSION_ROUNDS;
                out.failed += SESSION_ROUNDS;
                break;
            }
        };
        e.setups.push(s.setup_s);
        let config = SystemConfig::prototype();
        e.steps_per_round = config.n_ras * config.reward.period;
        out.checks
            .require(s.latencies_ms.len() == s.report.rounds.len(), || {
                format!(
                    "{} round stamps for {} rounds",
                    s.latencies_ms.len(),
                    s.report.rounds.len()
                )
            });
        e.rounds_ms.push(s.latencies_ms);
        out.rounds(&s.report, SESSION_ROUNDS);
        let digest = checks::report_digest(&s.report);
        if sessions == 0 {
            out.checks.same(
                "networked report vs in-process report, same seed",
                reference,
                digest,
            );
        }
        twins.check(out, "networked reports, same input", sessions, digest);
        sessions += 1;
    }
    out.note("sessions", sessions);
    e.finish(out);
}

// ---------------------------------------------------------------- traced

/// Runs the traced form of `workload`.
pub fn run_traced(workload: Workload, seed: u64, out: &mut Outcome) {
    let origin = Instant::now();
    let traced = match workload {
        Workload::TrainProto => traced_train_proto(seed, origin, out),
        Workload::OnlineSim => traced_online_sim(seed, origin, out),
        Workload::HistoryProto => traced_history_proto(seed, origin, out),
        Workload::NetUds => traced_net_uds(seed, origin, out),
    };
    let probe_config = match workload {
        Workload::OnlineSim => simulation(&mut StdRng::seed_from_u64(seed)),
        _ => SystemConfig::prototype(),
    };
    let probes = Probes::measure(&probe_config, seed, SCHEDULER, origin);
    report_layers(workload, traced, &probes, out);
}

/// What every traced form hands to the layer report.
struct Traced {
    trace: Trace,
    untraced_s: f64,
    traced_s: f64,
    reports: Vec<RunReport>,
    monitor_records: usize,
    store: (usize, u64),
    frames: Vec<WireMsg>,
    rounds: usize,
    /// DDPG updates the program's learners made in the traced run.
    updates: u64,
}

fn traced_train_proto(seed: u64, origin: Instant, out: &mut Outcome) -> Traced {
    let config = SystemConfig::prototype();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sys = learned(config.clone(), &mut rng, SCHEDULER);
    let t = Instant::now();
    sys.train(TRAIN_STEPS, &mut rng);
    sys.set_scheduler(Scheduler::Sequential);
    let eval = sys.run(EVAL_ROUNDS, &mut rng);
    let untraced_s = secs(t);
    let (actors, critic) = trained_nets(&sys);

    let mut rng = StdRng::seed_from_u64(seed);
    let ddpg: DdpgConfig = AgentConfig::default().ddpg;
    let mut replica = Replica::new(config, &mut rng, |_, env, rng| {
        Ddpg::new(env.state_dim(), env.action_dim(), ddpg, rng)
    });
    let mut main = Tracer::new(origin, 0);
    let t = Instant::now();
    main.begin("bench.train_proto");
    let workers = replica::train(&mut replica, TRAIN_STEPS, &mut rng, origin);
    let replayed = replica.run(EVAL_ROUNDS, &mut rng, &mut main, None);
    main.end();
    let traced_s = secs(t);
    let mut trace = Trace::default();
    trace.absorb(main, None);
    for w in workers {
        trace.absorb(w, Some(0));
    }

    let replay_actors: Vec<Mlp> = replica.policies.iter().map(|p| p.actor().clone()).collect();
    out.checks.same(
        "traced replay vs train: actor and RA-0 critic parameters",
        nets_digest(&actors, &critic),
        nets_digest(&replay_actors, replica.policies[0].critic()),
    );
    out.checks.same(
        "traced replay vs train: evaluation report",
        checks::report_digest(&eval),
        checks::report_digest(&replayed),
    );
    out.checks.system(&sys, &[&eval]);
    note_vs_taro(out, &[seed], &[&eval]);
    Traced {
        trace,
        untraced_s,
        traced_s,
        reports: vec![eval],
        monitor_records: replica.monitor.records().len(),
        store: (0, 0),
        frames: Vec::new(),
        rounds: replayed.rounds.len(),
        updates: replica.policies.iter().map(Ddpg::updates).sum(),
    }
}

/// The replay runs every RA inline, so its untraced reference runs under
/// `Sequential` too; what `Threaded(2)` adds per call is the
/// `engine.dispatch_us` probe.
fn traced_online_sim(seed: u64, origin: Instant, out: &mut Outcome) -> Traced {
    const SEGMENTS: usize = 16;
    let mut untraced_s = 0.0;
    let mut program = Vec::new();
    for _ in 0..SEGMENTS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sys = learned(simulation(&mut rng), &mut rng, Scheduler::Sequential);
        let t = Instant::now();
        let reports: Vec<RunReport> = (0..SEGMENT_ROUNDS).map(|_| sys.run(1, &mut rng)).collect();
        untraced_s += secs(t);
        out.checks.system(&sys, &reports.iter().collect::<Vec<_>>());
        program.extend(reports);
    }
    let mut replicas: Vec<_> = (0..SEGMENTS)
        .map(|_| {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = simulation(&mut rng);
            (agent_replica(config, &mut rng), rng)
        })
        .collect();
    let mut main = Tracer::new(origin, 0);
    let t = Instant::now();
    main.begin("bench.online_sim");
    let mut replayed = Vec::new();
    for (replica, rng) in &mut replicas {
        for _ in 0..SEGMENT_ROUNDS {
            main.begin("bench.request");
            replayed.push(replica.run(1, rng, &mut main, None));
            main.end();
        }
    }
    main.end();
    let traced_s = secs(t);
    out.checks.same(
        "traced replay vs run: round reports",
        digest_all(&program),
        digest_all(&replayed),
    );
    let mut trace = Trace::default();
    trace.absorb(main, None);
    note_monitor_share(out, &trace);
    Traced {
        trace,
        untraced_s,
        traced_s,
        monitor_records: replicas[0].0.monitor.records().len(),
        reports: program,
        store: (0, 0),
        frames: Vec::new(),
        rounds: replayed.len(),
        updates: 0,
    }
}

/// Notes the monitor's share of a request by the request's position in its
/// segment: over the whole segment, its first tenth and its last tenth.
/// The history a round scans grows along the segment, so the last tenth
/// shows what `SEGMENT_ROUNDS` lets the monitor cost at most.
fn note_monitor_share(out: &mut Outcome, trace: &Trace) {
    let requests = trace.durations_us("bench.request");
    let monitor = trace.child_sums_us("bench.request", "monitor.query");
    let tenth = (SEGMENT_ROUNDS / 10).max(1);
    let share = |keep: &dyn Fn(usize) -> bool| -> f64 {
        let (mut m, mut r) = (0.0, 0.0);
        for (k, (&req, &mon)) in requests.iter().zip(&monitor).enumerate() {
            if keep(k % SEGMENT_ROUNDS) {
                m += mon;
                r += req;
            }
        }
        m / r
    };
    out.note("monitor.query_share", share(&|_| true));
    out.note("monitor.query_share_first_tenth", share(&|p| p < tenth));
    out.note(
        "monitor.query_share_last_tenth",
        share(&|p| p >= SEGMENT_ROUNDS - tenth),
    );
    out.note("segment_rounds", SEGMENT_ROUNDS);
}

/// Every file in `dir`, name and digest, sorted by name.
fn dir_digests(dir: &Path) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| {
                    let bytes = std::fs::read(e.path()).unwrap_or_default();
                    (
                        e.file_name().to_string_lossy().into_owned(),
                        checks::fnv1a(&bytes),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// Inline on both sides, as for `online-sim`.
fn traced_history_proto(seed: u64, origin: Instant, out: &mut Outcome) -> Traced {
    let program_dir = scratch_dir("history-program");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sys = learned(history_config(), &mut rng, Scheduler::Sequential);
    sys.set_checkpointing(&program_dir, CHECKPOINT_EVERY)
        .expect("checkpoint store opens");
    let t = Instant::now();
    let program = sys.run(HISTORY_ROUNDS, &mut rng);
    let untraced_s = secs(t);
    out.checks.system(&sys, &[&program]);

    let replay_dir = scratch_dir("history-replay");
    let store = CheckpointStore::open(&replay_dir).expect("checkpoint store opens");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut replica = agent_replica(history_config(), &mut rng);
    let policies = replica
        .policies
        .iter()
        .map(|a| Some(PolicyCheckpoint::from_agent(a)))
        .collect();
    let mut main = Tracer::new(origin, 0);
    let t = Instant::now();
    main.begin("bench.history_proto");
    let sink = Sink {
        store: &store,
        every_k: CHECKPOINT_EVERY,
        policies,
    };
    let replayed = replica.run(HISTORY_ROUNDS, &mut rng, &mut main, Some(sink));
    main.end();
    let traced_s = secs(t);
    out.checks.same(
        "traced replay vs run: report",
        checks::report_digest(&program),
        checks::report_digest(&replayed),
    );
    let (a, b) = (dir_digests(&program_dir), dir_digests(&replay_dir));
    out.checks.require(a == b && !a.is_empty(), || {
        format!(
            "traced replay wrote {} snapshots unlike the run's {}",
            b.len(),
            a.len()
        )
    });
    let store_stats = store_files(&replay_dir);
    let _ = std::fs::remove_dir_all(&program_dir);
    let _ = std::fs::remove_dir_all(&replay_dir);
    let mut trace = Trace::default();
    trace.absorb(main, None);
    Traced {
        trace,
        untraced_s,
        traced_s,
        reports: vec![program],
        monitor_records: replica.monitor.records().len(),
        store: store_stats,
        frames: Vec::new(),
        rounds: replayed.rounds.len(),
        updates: 0,
    }
}

/// A session is short, so the overhead compares the medians of several
/// alternating untraced and traced sessions; the ledger is the last
/// traced session's. The peers' tracers hang under the coordinator's root
/// span, so the ledger sees what the peers do while the coordinator waits.
fn traced_net_uds(seed: u64, origin: Instant, out: &mut Outcome) -> Traced {
    const PAIRS: usize = 5;
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..PAIRS {
        let pair = session(seed, SESSION_ROUNDS, None)
            .and_then(|u| Ok((u, session(seed, SESSION_ROUNDS, Some(origin))?)));
        let (untraced, traced) = match pair {
            Ok(pair) => pair,
            Err(problem) => {
                out.checks
                    .require(false, || format!("networked session: {problem}"));
                out.attempted += SESSION_ROUNDS;
                out.failed += SESSION_ROUNDS;
                break;
            }
        };
        out.checks.same(
            "traced vs untraced networked report",
            checks::report_digest(&untraced.report),
            checks::report_digest(&traced.report),
        );
        untraced_s.push(untraced.wall_s);
        traced_s.push(traced.wall_s);
        last = Some(traced);
    }
    let mut trace = Trace::default();
    let Some(traced) = last else {
        return Traced {
            trace,
            untraced_s: f64::NAN,
            traced_s: f64::NAN,
            reports: Vec::new(),
            monitor_records: 0,
            store: (0, 0),
            frames: Vec::new(),
            rounds: 0,
            updates: 0,
        };
    };
    let mut tracers = traced.tracers.into_iter();
    if let Some(coordinator) = tracers.next() {
        trace.absorb(coordinator, None);
    }
    for peer in tracers {
        trace.absorb(peer, Some(0));
    }
    out.note("net.unmatched_receives", traced.unmatched);
    let rounds = traced.report.rounds.len();
    Traced {
        trace,
        untraced_s: median(&untraced_s),
        traced_s: median(&traced_s),
        monitor_records: 0,
        reports: vec![traced.report],
        store: (0, 0),
        frames: traced.messages,
        rounds,
        updates: 0,
    }
}

// ---------------------------------------------------------------- probes

/// Layer costs measured outside the workload's own flow, at its shapes:
/// the engine's per-call dispatch, batched fleet inference, and — for
/// layers a workload does not exercise — a short round replay with
/// checkpoints, paired DDPG updates (the program's and the phase
/// mirror's) and the frame codec.
struct Probes {
    trace: Trace,
    dispatch_us: Summary,
    fleet_fwd_us: Summary,
    frames: Vec<WireMsg>,
    flops: u64,
    /// Whether the phase mirror ended with the program's parameters.
    mirror_bit_identical: bool,
}

const PROBE_ROUNDS: usize = 8;
const PROBE_REPS: usize = 300;
const PROBE_UPDATES: usize = 64;
/// How far (as a factor) the mirror's phase sum may stray from the
/// program's update time before its phase split is refused.
const MIRROR_RATIO_LIMIT: f64 = 2.0;

impl Probes {
    fn measure(config: &SystemConfig, seed: u64, scheduler: Scheduler, origin: Instant) -> Self {
        let mut tr = Tracer::new(origin, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut replica = agent_replica(config.clone(), &mut rng);
        let dir = scratch_dir("probe");
        let store = CheckpointStore::open(&dir).expect("checkpoint store opens");
        let policies: Vec<PolicyCheckpoint> = replica
            .policies
            .iter()
            .map(PolicyCheckpoint::from_agent)
            .collect();
        let sink = Sink {
            store: &store,
            every_k: CHECKPOINT_EVERY,
            policies: policies.iter().cloned().map(Some).collect(),
        };
        let report = replica.run(PROBE_ROUNDS, &mut rng, &mut tr, Some(sink));
        let _ = std::fs::remove_dir_all(&dir);

        // The program's update and the phase mirror, side by side.
        let ddpg = AgentConfig::default().ddpg;
        let mut env = replica::make_env(config, &mut rng);
        let mirror_bit_identical =
            replica::paired_updates(&mut env, ddpg, seed, PROBE_UPDATES, &mut tr);
        let shapes = Ddpg::new(env.state_dim(), env.action_dim(), ddpg, &mut rng);
        let flops = replica::update_flops(shapes.actor(), shapes.critic(), ddpg.batch_size);

        // One round's frames: a broadcast and a report per RA.
        let mut frames = Vec::new();
        let info = replica.coordinator.coordination_info();
        for j in 0..config.n_ras {
            frames.push(WireMsg::Round(CoordInfo {
                round: 0,
                ra: j,
                zy: info.for_ra(RaId(j)),
                lifecycle: Vec::new(),
            }));
            let rows: Vec<_> = replica
                .monitor
                .records()
                .iter()
                .filter(|r| r.ra == RaId(j) && r.round + 1 == report.rounds.len())
                .copied()
                .collect();
            let body = serde_json::to_string(&rows).expect("monitor rows serialise");
            frames.push(WireMsg::Report {
                ra: j as u64,
                round: 0,
                deadline_missed: false,
                body: Some(body.into_bytes()),
            });
        }

        let par = match scheduler {
            Scheduler::Sequential => Parallelism::Sequential,
            Scheduler::Threaded(n) => Parallelism::Threaded(n),
        };
        let mut fleet = PolicyFleet::new(policies, par);
        let states: Vec<Vec<f64>> = replica.envs.iter().map(|e| e.observe()).collect();
        let mut actions = vec![Vec::new(); config.n_ras];
        let fleet_fwd_us = repeat_us(|| fleet.decide_into(&states, &mut actions));
        let dispatch_us = engine_dispatch_us(config.n_ras, scheduler);
        let mut trace = Trace::default();
        trace.absorb(tr, None);
        Self {
            trace,
            dispatch_us,
            fleet_fwd_us,
            frames,
            flops,
            mirror_bit_identical,
        }
    }
}

fn repeat_us(mut f: impl FnMut()) -> Summary {
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Summary::of(&samples).expect("PROBE_REPS > 0")
}

/// A worker that does nothing: what remains of a round is the engine.
struct Idle(usize);

impl RoundWorker for Idle {
    type Body = ();

    fn ra(&self) -> usize {
        self.0
    }

    fn run_round(&mut self, info: &CoordInfo) -> RaReport<()> {
        RaReport {
            ra: self.0,
            round: info.round,
            deadline_missed: false,
            body: Some(()),
        }
    }
}

struct IdleCoordinator(usize);

impl RoundCoordinator for IdleCoordinator {
    type Body = ();

    fn broadcast(&mut self, _round: usize) -> Vec<Vec<f64>> {
        vec![Vec::new(); self.0]
    }

    fn collect(
        &mut self,
        _round: usize,
        _reports: Vec<Option<RaReport<()>>>,
        _telemetry: &RoundTelemetry,
    ) -> bool {
        false
    }
}

/// One engine call of one round with trivial work, as `run(1)` makes it.
fn engine_dispatch_us(n_ras: usize, scheduler: Scheduler) -> Summary {
    let mut workers: Vec<Idle> = (0..n_ras).map(Idle).collect();
    let mut coord = IdleCoordinator(n_ras);
    let engine = Engine::new(scheduler);
    repeat_us(|| {
        engine.run(&mut workers, &mut coord, 1);
    })
}

/// Encode and decode cost (µs per frame) and encoded size of `frames`.
fn frame_costs(frames: &[WireMsg]) -> (Vec<f64>, Vec<f64>, u64) {
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), 0u64);
    for msg in frames {
        let t = Instant::now();
        let buf = edgeslice_runtime::frame::encode(msg).expect("captured frames encode");
        enc.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let decoded = edgeslice_runtime::frame::decode(&buf).map(|(m, _)| m);
        dec.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(decoded.is_ok(), "an encoded frame decodes");
        bytes += buf.len() as u64;
    }
    (enc, dec, bytes)
}

// ---------------------------------------------------------------- report

fn report_layers(workload: Workload, t: Traced, probes: &Probes, out: &mut Outcome) {
    // Per-call median from the workload's own spans, else from the probes.
    let per_call = |out: &mut Outcome, name: &str| -> f64 {
        let (source, summary) = match t.trace.summary_us(name) {
            Some(s) => ("workload", s),
            None => (
                "probe",
                probes
                    .trace
                    .summary_us(name)
                    .expect("the probes exercise every layer"),
            ),
        };
        out.note(&format!("{name}.source"), source);
        out.note(&format!("{name}.samples"), summary.n);
        out.note(&format!("{name}.tail_us"), summary.tail);
        out.note(&format!("{name}.tail_level"), summary.tail_level);
        summary.median
    };
    let update_us = per_call(out, "rl.update");
    out.metric("rl.update_us", update_us, "us");
    out.metric("rl.updates", t.updates as f64, "count");
    // The phase split comes from the mirror of the update (the program's
    // update is one call). It is trusted only while the mirror costs what
    // the program's update costs, measured side by side in the probe.
    let mut phase_sum = 0.0;
    for (phase, metric) in [
        ("rl.update.sample", "rl.update.sample_us"),
        ("rl.update.critic", "rl.update.critic_us"),
        ("rl.update.actor", "rl.update.actor_us"),
        ("rl.update.adam", "rl.update.adam_us"),
        ("rl.update.polyak", "rl.update.polyak_us"),
    ] {
        let sums = probes.trace.child_sums_us("rl.mirror_update", phase);
        let v = median(&sums);
        out.note(&format!("{phase}.samples"), sums.len());
        phase_sum += v;
        out.metric(metric, v, "us");
    }
    let program_us = probes
        .trace
        .summary_us("rl.update")
        .expect("the probe times the program's updates")
        .median;
    let ratio = phase_sum / program_us;
    out.note("rl.update.mirror_phase_sum_us", phase_sum);
    out.note("rl.update.probe_program_us", program_us);
    out.note("rl.update.mirror_ratio", ratio);
    out.note(
        "rl.update.mirror_bit_identical",
        probes.mirror_bit_identical,
    );
    out.checks.require(
        (1.0 / MIRROR_RATIO_LIMIT..=MIRROR_RATIO_LIMIT).contains(&ratio),
        || {
            format!(
                "the update phases sum to {phase_sum:.1} us but the program's update takes \
                 {program_us:.1} us: the phase mirror no longer follows Ddpg::update"
            )
        },
    );
    out.metric("rl.update.gemm_flops", probes.flops as f64, "flop");
    let v = per_call(out, "nn.actor_fwd");
    out.metric("nn.actor_fwd_us", v, "us");
    out.metric("nn.fleet_fwd_us", probes.fleet_fwd_us.median, "us");
    out.note("nn.fleet_fwd.samples", probes.fleet_fwd_us.n);
    let v = per_call(out, "env.step");
    out.metric("env.step_us", v, "us");
    out.metric("env.steps", t.trace.count("env.step") as f64, "count");
    out.metric("engine.dispatch_us", probes.dispatch_us.median, "us");
    out.note("engine.dispatch.samples", probes.dispatch_us.n);
    out.note("engine.dispatch.tail_us", probes.dispatch_us.tail);
    let admm = per_call(out, "coord.admm") + per_call(out, "coord.info");
    out.metric("coord.admm_us", admm, "us");
    let v = per_call(out, "monitor.query");
    out.metric("monitor.query_us", v, "us");
    let v = per_call(out, "monitor.record");
    out.metric("monitor.record_us", v, "us");
    out.metric("monitor.records", t.monitor_records as f64, "count");
    let v = per_call(out, "store.save_run") / 1e3;
    out.metric("store.save_run_ms", v, "ms");
    out.metric("store.snapshots", t.store.0 as f64, "count");
    out.metric("store.bytes_written", t.store.1 as f64, "B");

    let (frames, source) = if t.frames.is_empty() {
        (&probes.frames, "probe")
    } else {
        (&t.frames, "workload")
    };
    let (enc, dec, bytes) = frame_costs(frames);
    let per_round_bytes = if t.frames.is_empty() {
        bytes as f64
    } else {
        bytes as f64 / t.rounds.max(1) as f64
    };
    out.note("frame.source", source);
    out.note("frame.samples", enc.len());
    out.metric("frame.encode_us", median(&enc), "us");
    out.metric("frame.decode_us", median(&dec), "us");
    out.metric("frame.bytes_per_round", per_round_bytes, "B");
    let sup = t
        .reports
        .last()
        .map(|r| r.supervision.clone())
        .unwrap_or_default();
    out.metric("net.send_retries", sup.send_retries as f64, "count");
    out.metric("net.leases_expired", sup.leases_expired as f64, "count");

    let coverage = t.trace.coverage();
    out.metric("ledger.coverage", coverage, "frac");
    out.checks.require(coverage >= COVERAGE_GATE, || {
        let layers = t.trace.layer_self_ns();
        format!(
            "{}: layers cover {coverage:.3} of traced time (< {COVERAGE_GATE}); \
             the ledger is missing a layer (self time by layer, ns: {layers:?})",
            workload.name()
        )
    });
    out.metric(
        "trace.overhead_frac",
        t.traced_s / t.untraced_s - 1.0,
        "frac",
    );
    out.note("traced_s", t.traced_s);
    out.note("untraced_s", t.untraced_s);
    for r in &t.reports {
        out.rounds(r, r.rounds.len());
    }
    for (name, value) in out.outcomes() {
        let unit = if name == "system_perf" { "1" } else { "frac" };
        out.metric(name, value, unit);
    }
    for (layer, ns) in t.trace.layer_self_ns() {
        out.note(&format!("layer_self_s.{layer}"), ns as f64 / 1e9);
    }
    out.trace = Some(t.trace);
}
