//! Live mode: the kernel driven by the wall clock instead of virtual time.
//!
//! [`run_live`] blocks its calling thread in the same event-application
//! loop simulation uses — admission rounds, lifecycle, healing, the
//! invariant auditor — but behind a
//! [`LiveDriver`](crate::sim) the clock is monotonic wall time
//! (µs since the server epoch), arrivals are [`Submission`]s pulled from a
//! bounded channel, and scheduled events fire as timer expirations. The
//! serve layer (the `mlp-serve` crate) sits in front: it accepts TCP
//! connections, turns each request line into a `Submission` carrying a
//! fresh token, and parks the connection's worker until the kernel pushes
//! the token's [`LiveOutcome`] back through the notify sink.
//!
//! Determinism does not survive the wall clock — two live runs interleave
//! differently by construction — so live mode gates on the invariant
//! auditor (zero violations over a soak) where sim mode gates on
//! byte-identity at fixed seed. Everything the auditor checks is
//! mode-agnostic, which is the point of the driver split: the exact code
//! that held at zero violations over billions of simulated events is the
//! code serving the socket.

use crate::config::ExperimentConfig;
use crate::sim::{simulate_live, SimOutput};
use mlp_model::{RequestCatalog, RequestTypeId};
use mlp_sched::Scheduler;
use mlp_sim::SimRng;
use mlp_trace::ProfileStore;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

/// One live request, as handed to the kernel by the front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// Caller-chosen correlation token, echoed back in the
    /// [`LiveOutcome`]. The serve layer allocates these from an atomic
    /// counter, one per in-flight connection request.
    pub token: u64,
    /// Which request DAG to run.
    pub rtype: RequestTypeId,
}

/// Terminal state of a live request, pushed through the notify sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveOutcome {
    /// The submission's correlation token.
    pub token: u64,
    /// The kernel request id it was assigned (stable in audit trails).
    pub request: u64,
    pub kind: OutcomeKind,
}

/// How a live request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Every DAG node finished; end-to-end latency in whole µs.
    Completed { latency_us: u64 },
    /// Rejected at the overload admission gate (queue cap, deadline
    /// infeasibility, or an open circuit breaker).
    Shed { reason: &'static str },
    /// Given up on by failure recovery.
    Abandoned,
    /// Still in flight when the run ended (shutdown drain timed out
    /// around it).
    Dropped,
}

/// Knobs of the live tick loop.
#[derive(Debug, Clone, Copy)]
pub struct LiveOptions {
    /// How long a shutdown waits for in-flight requests before dropping
    /// the stragglers.
    pub drain_timeout: Duration,
    /// Longest single block on the submission channel; bounds how stale
    /// the shutdown-flag observation can get under zero traffic.
    pub poll: Duration,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions { drain_timeout: Duration::from_secs(5), poll: Duration::from_millis(25) }
    }
}

/// Runs the kernel against the wall clock until `shutdown` is observed
/// (then drains) or every submission sender hangs up with nothing in
/// flight. Blocks the calling thread; the serve layer runs it on a
/// dedicated kernel thread.
///
/// `notify` receives exactly one [`LiveOutcome`] per submission pulled off
/// the channel (completed, shed, abandoned, or dropped at shutdown); it is
/// called from the kernel thread, so it must hand off, not block.
#[allow(clippy::too_many_arguments)]
pub fn run_live(
    cfg: &ExperimentConfig,
    catalog: &RequestCatalog,
    profiles: ProfileStore,
    scheduler: &mut dyn Scheduler,
    rng: &mut SimRng,
    submissions: Receiver<Submission>,
    shutdown: Arc<AtomicBool>,
    opts: &LiveOptions,
    notify: Box<dyn FnMut(LiveOutcome) + Send>,
) -> SimOutput {
    simulate_live(cfg, catalog, profiles, scheduler, rng, submissions, shutdown, opts, notify)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiling::warm_profiles;
    use std::sync::atomic::Ordering;
    use std::sync::mpsc;

    /// End-to-end live smoke at the engine layer: submissions in,
    /// one terminal outcome per submission out, clean drain on shutdown.
    #[test]
    fn live_kernel_completes_submissions_and_drains() {
        let cfg = ExperimentConfig::smoke("vmlp").with_seed(11);
        let catalog = RequestCatalog::paper();
        let root = SimRng::new(cfg.seed);
        let mut warm_rng = root.fork(2);
        let profiles = warm_profiles(&catalog, cfg.warmup_cases, &mut warm_rng);

        let (sub_tx, sub_rx) = mpsc::sync_channel::<Submission>(64);
        let (out_tx, out_rx) = mpsc::channel::<LiveOutcome>();
        let shutdown = Arc::new(AtomicBool::new(false));
        let kernel_shutdown = Arc::clone(&shutdown);

        let kernel = std::thread::spawn(move || {
            let mut rng = SimRng::new(cfg.seed).fork(1);
            let mut sched =
                crate::registry::default_registry().build(&cfg.scheme, cfg.seed).unwrap();
            let opts = LiveOptions {
                drain_timeout: Duration::from_secs(30),
                poll: Duration::from_millis(2),
            };
            run_live(
                &cfg,
                &catalog,
                profiles,
                sched.as_mut(),
                &mut rng,
                sub_rx,
                kernel_shutdown,
                &opts,
                Box::new(move |o| {
                    let _ = out_tx.send(o);
                }),
            )
        });

        const N: u64 = 40;
        for token in 0..N {
            sub_tx.send(Submission { token, rtype: RequestTypeId((token % 3) as u32) }).unwrap();
        }
        let mut outcomes = Vec::new();
        for _ in 0..N {
            outcomes.push(out_rx.recv_timeout(Duration::from_secs(60)).expect("outcome per token"));
        }
        shutdown.store(true, Ordering::Relaxed);
        drop(sub_tx);
        let out = kernel.join().expect("kernel thread");

        assert_eq!(outcomes.len() as u64, N);
        let mut tokens: Vec<u64> = outcomes.iter().map(|o| o.token).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..N).collect::<Vec<_>>(), "every token answered once");
        assert!(
            outcomes.iter().all(|o| matches!(o.kind, OutcomeKind::Completed { .. })),
            "an unloaded live kernel completes everything: {outcomes:?}"
        );
        assert_eq!(out.arrived as u64, N);
        assert!(out.invariant_report.is_none(), "{:?}", out.invariant_report);
    }
}
