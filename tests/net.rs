//! Networked-runtime acceptance: transport-independent determinism and
//! lease-based fault handling.
//!
//! Exercises the multi-process protocol end to end with real worker peers
//! (threads here; `netchaos` in `crates/bench` repeats the key scenario
//! with separate processes and a real `kill -9`):
//!
//! * a worker that goes silent mid-run is detected by its *lapsed lease*
//!   — never by the socket — the run completes through the degraded-ADMM
//!   path, and the resulting [`RunReport`] is byte-identical between the
//!   in-memory loopback transport and a real Unix-domain socket;
//! * a replacement peer connecting mid-run re-syncs from the latest
//!   checkpoint snapshot and serves the remaining rounds.

use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use edgeslice::{
    channel_acceptor, connect_uds, loopback_pair, AgentConfig, Clock, EdgeSliceSystem, FaultEvent,
    FaultInjector, FaultPlan, Lease, ListenerAcceptor, LoopbackTransport, NetConfig,
    NetCoordinator, NetListener, OrchestratorKind, RaId, RetryPolicy, RunReport, ServeOutcome,
    SystemConfig, Transport, WorkerNetOptions,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_RAS: usize = 2;
const ROUNDS: usize = 7;
const SEED: u64 = 23;

fn taro_system(rng: &mut StdRng) -> EdgeSliceSystem {
    EdgeSliceSystem::new(
        SystemConfig::prototype(),
        OrchestratorKind::Taro,
        &AgentConfig::default(),
        rng,
    )
}

/// A short gather deadline so silent rounds expire in milliseconds, not
/// the production default's 30 s.
fn net_config() -> NetConfig {
    NetConfig {
        round_deadline: Duration::from_millis(250),
        ..NetConfig::default()
    }
}

/// A tight one-round lease: the second consecutively missed round is
/// fatal, so a three-round silence window reliably lapses it.
fn worker_opts() -> WorkerNetOptions {
    WorkerNetOptions {
        lease: Lease {
            deadline_rounds: 1,
            wall_backstop: None,
        },
        ..WorkerNetOptions::default()
    }
}

/// RA 1 goes dark (no reports, no lease refreshes) for rounds 2..5.
fn silence_events() -> Vec<FaultEvent> {
    vec![FaultEvent::WorkerSilence {
        ra: RaId(1),
        start_round: 2,
        rounds: 3,
    }]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "edgeslice-net-{tag}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Serves `ra` on its own thread: a peer built from the same seed as the
/// coordinator, with its own fault plan (and optionally the shared
/// checkpoint store for the re-sync path).
fn spawn_worker<T: Transport + 'static>(
    seed: u64,
    ra: usize,
    events: Vec<FaultEvent>,
    rounds: usize,
    transport: T,
    opts: WorkerNetOptions,
    store_dir: Option<PathBuf>,
) -> thread::JoinHandle<ServeOutcome> {
    thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sys = taro_system(&mut rng);
        if let Some(dir) = &store_dir {
            sys.set_checkpointing(dir, 1).unwrap();
        }
        let injector = FaultInjector::new(FaultPlan::scripted(N_RAS, rounds, events).unwrap());
        sys.serve_ra(RaId(ra), &mut rng, &injector, transport, &opts)
            .unwrap()
    })
}

/// Runs the coordinator side over an already-configured [`NetCoordinator`].
fn run_coordinator<T: Transport + 'static>(
    seed: u64,
    rounds: usize,
    mut net: NetCoordinator<T>,
    store_dir: Option<&Path>,
) -> RunReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sys = taro_system(&mut rng);
    if let Some(dir) = store_dir {
        sys.set_checkpointing(dir, 1).unwrap();
    }
    let injector = FaultInjector::new(FaultPlan::scripted(N_RAS, rounds, vec![]).unwrap());
    sys.run_networked(rounds, &mut rng, &injector, &mut net)
        .unwrap()
}

/// The silence scenario over the in-memory loopback transport.
fn degraded_run_loopback(seed: u64) -> RunReport {
    let (tx, acceptor) = channel_acceptor::<LoopbackTransport>();
    let mut net = NetCoordinator::new(N_RAS, net_config(), Clock::wall());
    net.set_acceptor(Box::new(acceptor));
    let mut handles = Vec::new();
    for ra in 0..N_RAS {
        let (coord_end, worker_end) = loopback_pair();
        tx.send(coord_end).unwrap();
        handles.push(spawn_worker(
            seed,
            ra,
            silence_events(),
            ROUNDS,
            worker_end,
            worker_opts(),
            None,
        ));
    }
    let report = run_coordinator(seed, ROUNDS, net, None);
    for h in handles {
        h.join().unwrap();
    }
    report
}

/// The identical scenario over a real Unix-domain socket.
fn degraded_run_uds(seed: u64) -> RunReport {
    let dir = fresh_dir("uds");
    let sock = dir.join("coord.sock");
    let listener = NetListener::bind_uds(&sock).unwrap();
    let mut net = NetCoordinator::new(N_RAS, net_config(), Clock::wall());
    net.set_acceptor(Box::new(ListenerAcceptor::new(
        listener,
        RetryPolicy::default(),
    )));
    let mut handles = Vec::new();
    for ra in 0..N_RAS {
        let t = connect_uds(&sock, RetryPolicy::default(), Duration::from_secs(5)).unwrap();
        handles.push(spawn_worker(
            seed,
            ra,
            silence_events(),
            ROUNDS,
            t,
            worker_opts(),
            None,
        ));
    }
    let report = run_coordinator(seed, ROUNDS, net, None);
    for h in handles {
        h.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// A mid-run lease lapse degrades the run (never aborts it), the failure
/// is attributed to the lease — not the transport — and the loopback and
/// UDS reports are byte-identical for the same seed and fault plan.
#[test]
fn lease_lapse_degrades_identically_across_loopback_and_uds() {
    let loopback = degraded_run_loopback(SEED);
    let uds = degraded_run_uds(SEED);

    assert_eq!(
        loopback.rounds.len(),
        ROUNDS,
        "the lease lapse must not abort the run"
    );

    // Failure attribution: the worker was detected by its lapsed lease,
    // not by a closed socket (its connection stayed open the whole time).
    let sup = &loopback.supervision;
    assert_eq!(sup.disconnects, 0, "{sup:?}");
    assert_eq!(sup.leases_expired, 1, "{sup:?}");
    assert_eq!(sup.rejoins, 1, "{sup:?}");
    assert!(
        sup.worker_downs
            .iter()
            .any(|d| d.ra == RaId(1) && d.cause.contains("lease expired")),
        "{:?}",
        sup.worker_downs
    );
    assert!(
        sup.worker_downs.iter().all(|d| d.ra == RaId(1)),
        "only the silent RA may go down: {:?}",
        sup.worker_downs
    );
    // The silent rounds cost the full gather deadline, identically on
    // both transports.
    assert!(sup.deadline_timeouts >= 2, "{sup:?}");

    let a = serde_json::to_string(&loopback).unwrap();
    let b = serde_json::to_string(&uds).unwrap();
    assert_eq!(a, b, "loopback and UDS runs must be byte-identical");
}

/// A replacement peer that connects mid-run (after the original went
/// permanently silent and its lease lapsed) re-syncs from the latest
/// checkpoint snapshot and serves the remaining rounds.
#[test]
fn respawned_worker_resyncs_from_checkpoint_and_finishes_the_run() {
    const R: usize = 12;
    let seed = 11;
    let dir = fresh_dir("rejoin");

    let (tx, acceptor) = channel_acceptor::<LoopbackTransport>();
    let mut net = NetCoordinator::new(N_RAS, net_config(), Clock::wall());
    net.set_acceptor(Box::new(acceptor));

    // RA 0: healthy for the whole run.
    let (c0, w0) = loopback_pair();
    tx.send(c0).unwrap();
    let h0 = spawn_worker(seed, 0, vec![], R, w0, worker_opts(), None);

    // RA 1, first incarnation: goes dark at round 3 and never comes back
    // on its own — the stand-in for a killed process.
    let (c1, w1) = loopback_pair();
    tx.send(c1).unwrap();
    let h1 = spawn_worker(
        seed,
        1,
        vec![FaultEvent::WorkerSilence {
            ra: RaId(1),
            start_round: 3,
            rounds: R - 3,
        }],
        R,
        w1,
        worker_opts(),
        None,
    );

    // RA 1, second incarnation: a fresh peer (same seed, no faults, store
    // attached) connecting through the acceptor once the lease has lapsed.
    let tx2 = tx.clone();
    let dir2 = dir.clone();
    let h2 = thread::spawn(move || {
        thread::sleep(Duration::from_millis(1500));
        let (coord_end, worker_end) = loopback_pair();
        tx2.send(coord_end).unwrap();
        spawn_worker(seed, 1, vec![], R, worker_end, worker_opts(), Some(dir2))
            .join()
            .unwrap()
    });

    let report = run_coordinator(seed, R, net, Some(&dir));
    let out0 = h0.join().unwrap();
    let out1 = h1.join().unwrap();
    let out2 = h2.join().unwrap();

    assert_eq!(report.rounds.len(), R, "the run must complete degraded");
    assert!(
        report.supervision.leases_expired >= 1,
        "{:?}",
        report.supervision
    );
    assert!(report.supervision.rejoins >= 1, "{:?}", report.supervision);
    assert_eq!(
        report.supervision.disconnects, 0,
        "{:?}",
        report.supervision
    );

    assert_eq!(out0.rounds_served, R, "the healthy RA serves every round");
    assert_eq!(out1.rounds_served, 3, "incarnation 1 served rounds 0..3");
    assert!(out1.resynced_from.is_none(), "{out1:?}");
    assert!(
        out2.resynced_from.is_some(),
        "the replacement must re-sync from a checkpoint: {out2:?}"
    );
    assert!(
        out2.rounds_served >= 1,
        "the replacement must serve at least one round: {out2:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A healthy networked run — two `serve_ra` peers over loopback — equals
/// the in-process run of the same seed byte for byte, for TARO and for an
/// untrained learned DDPG system: the networked path is the engine's
/// round loop with a different gather, not a separate implementation.
#[test]
fn healthy_networked_run_equals_the_in_process_run() {
    const R: usize = 9;
    let seed = 5;
    for kind in [
        OrchestratorKind::Taro,
        OrchestratorKind::Learned(edgeslice_rl::Technique::Ddpg),
    ] {
        let make = move |rng: &mut StdRng| {
            EdgeSliceSystem::new(
                SystemConfig::prototype(),
                kind,
                &AgentConfig::default(),
                rng,
            )
        };
        let injector = FaultInjector::none(N_RAS, R);

        let mut rng = StdRng::seed_from_u64(seed);
        let expected = make(&mut rng).run_with_faults(R, &mut rng, &injector);

        let (tx, acceptor) = channel_acceptor::<LoopbackTransport>();
        let mut net = NetCoordinator::new(N_RAS, NetConfig::default(), Clock::wall());
        net.set_acceptor(Box::new(acceptor));
        let peers: Vec<_> = (0..N_RAS)
            .map(|ra| {
                let (coord_end, worker_end) = loopback_pair();
                tx.send(coord_end).unwrap();
                thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let injector = FaultInjector::none(N_RAS, R);
                    let opts = WorkerNetOptions::default();
                    make(&mut rng)
                        .serve_ra(RaId(ra), &mut rng, &injector, worker_end, &opts)
                        .unwrap()
                })
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let report = make(&mut rng)
            .run_networked(R, &mut rng, &injector, &mut net)
            .unwrap();
        for peer in peers {
            assert_eq!(peer.join().unwrap().rounds_served, report.rounds.len());
        }
        assert_eq!(
            report.to_json().unwrap(),
            expected.to_json().unwrap(),
            "{kind:?}: networked and in-process runs must be byte-identical"
        );
    }
}
