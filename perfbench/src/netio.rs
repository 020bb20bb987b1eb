//! The transport seam of the `net-uds` workload.
//!
//! `run_networked` and `serve_ra` are generic over their links'
//! [`Transport`], so the benchmark hands both ends links wrapped in
//! [`Timed`]. Untraced, a coordinator-side wrapper only stamps the first
//! broadcast of each round, which gives per-round latency. Traced, every
//! wrapper records spans on its thread's tracer:
//!
//! * `net.send` around every send;
//! * a receive is split at the moment the matching send began on the other
//!   end: before it the thread was only waiting (`bench.wait`, glue), after
//!   it the frame was in the net layer (`net.recv`: the sender's write, the
//!   socket and this end's read and decode). A receive that ends in a
//!   timeout, or whose message has no recorded send, is all waiting;
//! * on a peer, `exec.ra_round` from the receipt of a round's broadcast to
//!   the send of its report: the RA's env intervals and policy forwards
//!   inside `serve_ra`.
//!
//! The coordinator-side wrappers also keep the messages, so frame sizes
//! and codec costs can be measured after the run.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use edgeslice::{Acceptor, FramedTransport, ListenerAcceptor, Transport, TransportError};
use edgeslice_runtime::{LinkStats, WireMsg};

use crate::trace::Tracer;

/// Tracer slot of the coordinator's thread; peer `ra` records on slot
/// `1 + ra`.
pub const COORDINATOR: usize = 0;

/// A message's identity across the two ends of a link: direction (toward
/// the peer or not), RA, kind and round. Messages with the same identity
/// are matched in order.
type MsgKey = (bool, u64, u8, u64);

fn key(msg: &WireMsg) -> Option<MsgKey> {
    match msg {
        WireMsg::Round(info) => Some((true, info.ra as u64, 0, info.round as u64)),
        WireMsg::Report { ra, round, .. } => Some((false, *ra, 1, *round)),
        WireMsg::Refresh { ra, round } => Some((false, *ra, 2, *round)),
        _ => None,
    }
}

/// What the wrappers of one session observed.
#[derive(Default)]
pub struct Observed {
    /// Start of the first `Round` send of each round, by round index.
    pub round_starts: Vec<Instant>,
    /// Traced only: one tracer per thread slot (empty when untraced).
    pub tracers: Vec<Option<Tracer>>,
    /// Traced only: every message the coordinator sent or received, in
    /// order.
    pub messages: Vec<WireMsg>,
    /// Traced only: end of the coordinator's receive that delivered each
    /// report, by round.
    report_ends: Vec<(usize, Instant)>,
    /// Traced only: start of every coordinator send.
    send_starts: Vec<Instant>,
    /// Traced only: start of every recorded send not yet received.
    sent: HashMap<MsgKey, VecDeque<Instant>>,
    /// Traced only: received messages without a recorded send.
    pub unmatched: usize,
}

/// Shared between a session's wrapped links.
pub type Shared = Arc<Mutex<Observed>>;

/// A fresh, untraced observation.
pub fn observe() -> Shared {
    Arc::new(Mutex::new(Observed::default()))
}

/// Locks a session's observations.
pub fn lock(seen: &Shared) -> std::sync::MutexGuard<'_, Observed> {
    seen.lock()
        .expect("observation lock poisoned by a panicked link")
}

/// A link that reports what passes through it to a [`Shared`] record.
/// The lock is never held across a call into the wrapped link, since the
/// two ends of a link share the record.
pub struct Timed<T> {
    inner: T,
    seen: Shared,
    slot: usize,
    /// On a peer: when the pending round's broadcast arrived.
    round_arrived: Option<Instant>,
}

impl<T> Timed<T> {
    /// Wraps `inner`, recording on tracer slot `slot`.
    pub fn new(inner: T, seen: Shared, slot: usize) -> Self {
        Self {
            inner,
            seen,
            slot,
            round_arrived: None,
        }
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn send(&mut self, msg: &WireMsg) -> Result<(), TransportError> {
        let start = Instant::now();
        let traced = {
            let mut seen = lock(&self.seen);
            if self.slot == COORDINATOR {
                if let WireMsg::Round(info) = msg {
                    if seen.round_starts.len() == info.round {
                        seen.round_starts.push(start);
                    }
                }
            }
            let traced = matches!(seen.tracers.get(self.slot), Some(Some(_)));
            if traced {
                // Registered before the send, so the other end always finds
                // it, however quickly the frame arrives.
                if let Some(k) = key(msg) {
                    seen.sent.entry(k).or_default().push_back(start);
                }
                if self.slot == COORDINATOR {
                    seen.send_starts.push(start);
                    seen.messages.push(msg.clone());
                }
            }
            traced
        };
        let arrived = self.round_arrived.take();
        let result = self.inner.send(msg);
        if traced {
            let end = Instant::now();
            let mut seen = lock(&self.seen);
            if let Some(Some(tr)) = seen.tracers.get_mut(self.slot) {
                if let (Some(arrived), WireMsg::Report { .. }) = (arrived, msg) {
                    tr.add("exec.ra_round", arrived, start);
                }
                tr.add("net.send", start, end);
            }
        }
        result
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<WireMsg, TransportError> {
        let start = Instant::now();
        let got = self.inner.recv_timeout(timeout);
        let end = Instant::now();
        let mut seen = lock(&self.seen);
        let Observed {
            tracers,
            sent,
            unmatched,
            report_ends,
            messages,
            ..
        } = &mut *seen;
        let Some(Some(tr)) = tracers.get_mut(self.slot) else {
            return got;
        };
        let Ok(msg) = &got else {
            tr.add("bench.wait", start, end);
            return got;
        };
        let sent_at = key(msg).and_then(|k| sent.get_mut(&k).and_then(VecDeque::pop_front));
        match sent_at {
            Some(at) => {
                let split = at.clamp(start, end);
                if split > start {
                    tr.add("bench.wait", start, split);
                }
                tr.add("net.recv", split, end);
            }
            None => {
                *unmatched += 1;
                tr.add("bench.wait", start, end);
            }
        }
        if self.slot == COORDINATOR {
            if let WireMsg::Report { round, .. } = msg {
                let round = usize::try_from(*round).expect("round index fits usize");
                report_ends.push((round, end));
            }
            messages.push(msg.clone());
        } else if let WireMsg::Round(_) = msg {
            self.round_arrived = Some(end);
        }
        drop(seen);
        got
    }

    fn take_stats(&mut self) -> LinkStats {
        self.inner.take_stats()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// Accepts socket peers and wraps each link in [`Timed`] on the
/// coordinator's slot.
pub struct TimedAcceptor {
    inner: ListenerAcceptor,
    seen: Shared,
}

impl TimedAcceptor {
    /// Wraps `inner`; accepted links report to `seen`.
    pub fn new(inner: ListenerAcceptor, seen: Shared) -> Self {
        Self { inner, seen }
    }
}

impl Acceptor<Timed<FramedTransport>> for TimedAcceptor {
    fn poll_accept(&mut self) -> Result<Option<Timed<FramedTransport>>, TransportError> {
        Ok(self
            .inner
            .poll_accept()?
            .map(|inner| Timed::new(inner, Arc::clone(&self.seen), COORDINATOR)))
    }
}

/// Starts tracing a session: the coordinator's tracer (with its root span
/// already open) and one tracer per peer, each opening a `bench.serve_ra`
/// root now.
pub fn start_trace(seen: &Shared, coordinator: Tracer, origin: Instant, n_ras: usize) {
    let mut tracers = vec![Some(coordinator)];
    for ra in 0..n_ras {
        let mut tr = Tracer::new(origin, 1 + ra as u32);
        tr.begin("bench.serve_ra");
        tracers.push(Some(tr));
    }
    lock(seen).tracers = tracers;
}

/// Ends a traced session and returns its tracers (coordinator first), or
/// nothing when untraced. First adds the coordinator's own work between
/// frames as `exec.fold` spans: from the report that completes a round to
/// the next send (report decoding, ADMM, monitor, the next broadcast's
/// preparation). Later traffic goes unrecorded.
pub fn close_trace(seen: &Shared) -> Vec<Tracer> {
    let mut seen = lock(seen);
    let mut tracers: Vec<Tracer> = std::mem::take(&mut seen.tracers)
        .into_iter()
        .flatten()
        .collect();
    let Some(coordinator) = tracers.first_mut() else {
        return tracers;
    };
    let mut last_report: BTreeMap<usize, Instant> = BTreeMap::new();
    for &(round, end) in &seen.report_ends {
        let slot = last_report.entry(round).or_insert(end);
        *slot = (*slot).max(end);
    }
    for end in last_report.values() {
        if let Some(next) = seen.send_starts.iter().find(|s| *s >= end) {
            coordinator.add("exec.fold", *end, *next);
        }
    }
    for tr in &mut tracers {
        tr.end();
    }
    tracers
}

/// Per-round wall times (ms) from round-start stamps (a round's first
/// broadcast, or its first evaluation) to the next, the last round ending
/// at `end`.
pub fn round_latencies_ms(starts: &[Instant], end: Instant) -> Vec<f64> {
    starts
        .iter()
        .zip(starts.iter().skip(1).chain([&end]))
        .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
        .collect()
}
