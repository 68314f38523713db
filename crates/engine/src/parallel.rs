//! Parallel experiment sweeps (std scoped threads).
//!
//! The evaluation grid — 5 schemes × 3 patterns × 3 volatility streams ×
//! seeds — is embarrassingly parallel. Each configuration carries its own
//! seed, so results are independent of worker scheduling, and a bounded
//! worker pool keeps memory proportional to core count.

use crate::config::ExperimentConfig;
use crate::experiment::Experiment;
use crate::runner::ExperimentResult;
use mlp_model::RequestCatalog;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs every configuration, fanning out over up to `workers` threads
/// (0 = number of available cores). Results come back in input order.
pub fn run_all(configs: &[ExperimentConfig], workers: usize) -> Vec<ExperimentResult> {
    let workers = if workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        workers
    };
    let workers = workers.min(configs.len().max(1));
    let catalog = RequestCatalog::paper();

    // Workers pull indices from a shared counter and send `(index, result)`
    // pairs over a channel; the scope exit joins every worker, after which
    // results are reassembled into input order.
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, ExperimentResult)>();

    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let catalog = &catalog;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= configs.len() {
                    break;
                }
                let result = Experiment::from_config(configs[i].clone())
                    .catalog(catalog)
                    .run()
                    .expect("sweep configs are valid");
                tx.send((i, result)).expect("collector outlives the scope");
            });
        }
    });
    drop(tx); // the scope's workers are joined; close our own sender

    let mut slots: Vec<Option<ExperimentResult>> = Vec::new();
    slots.resize_with(configs.len(), || None);
    for (i, result) in rx {
        slots[i] = Some(result);
    }
    slots.into_iter().map(|r| r.expect("every config produces a result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_sequential() {
        let configs: Vec<ExperimentConfig> = ["fairsched", "vmlp"]
            .into_iter()
            .map(|s| ExperimentConfig::smoke(s).with_seed(5))
            .collect();
        let par = run_all(&configs, 2);
        let seq: Vec<_> =
            configs.iter().map(|c| Experiment::from_config(c.clone()).run().unwrap()).collect();
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.completed, s.completed);
            assert_eq!(p.latency_ms, s.latency_ms);
        }
    }

    #[test]
    fn empty_config_list() {
        assert!(run_all(&[], 4).is_empty());
    }
}
