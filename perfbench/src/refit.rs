//! The paper-tier refit, and the serving set-up built on it.
//!
//! Every run fits the paper tier (`QppConfig::default()`, 5×128 units)
//! from a fixed seed for a fixed number of epochs at a fixed thread
//! count, then evaluates it on held-out plans. The fit is deterministic at
//! a fixed thread count, so the held-out error repeats exactly and any
//! change that trades accuracy for speed shows as a regression. The
//! refit runs inside every serving workload's set-up: it is the model the
//! daemon serves, and the continual-refit path a served model is updated
//! through.

use std::path::Path;
use std::time::Instant;

use qpp_plansim::catalog::Workload as Benchmark;
use qpp_plansim::dataset::Dataset;
use qpp_plansim::plan::Plan;
use qppnet::{QppConfig, QppNet, TrainHistory};

use crate::daemon::Daemon;
use crate::traffic::SCALE_FACTOR;

/// Seed of the refit's dataset (fixed: the held-out error must repeat).
pub const REFIT_SEED: u64 = 2019;
/// Training plans.
pub const TRAIN_PLANS: usize = 300;
/// Held-out plans.
pub const HOLDOUT_PLANS: usize = 200;
/// Training epochs.
pub const EPOCHS: usize = 30;
/// Training threads (the host's two cores).
pub const THREADS: usize = 2;

/// The refit's configuration: the paper tier at the fixed epochs and
/// threads.
pub fn config() -> QppConfig {
    QppConfig {
        epochs: EPOCHS,
        threads: THREADS,
        ..QppConfig::default()
    }
}

/// The refit's dataset (training plans first, then held-out plans).
pub fn dataset() -> Dataset {
    Dataset::generate(
        Benchmark::TpcH,
        SCALE_FACTOR,
        TRAIN_PLANS + HOLDOUT_PLANS,
        REFIT_SEED,
    )
}

/// Training and held-out plans of `ds`.
pub fn split(ds: &Dataset) -> (Vec<&Plan>, Vec<&Plan>) {
    let train = ds.plans[..TRAIN_PLANS].iter().collect();
    let holdout = ds.plans[TRAIN_PLANS..].iter().collect();
    (train, holdout)
}

/// One refit: the fitted model, its held-out error and its epoch times.
pub struct Refit {
    /// The fitted model.
    pub model: QppNet,
    /// The paper's relative error on the held-out plans, %.
    pub holdout_rel_err_pct: f64,
    /// Per-epoch history of the fit.
    pub history: TrainHistory,
}

/// Fits and evaluates the paper tier on `ds`.
pub fn refit(ds: &Dataset) -> Refit {
    let (train, holdout) = split(ds);
    let mut model = QppNet::new(config(), &ds.catalog);
    let history = model.fit(&train);
    let holdout_rel_err_pct = model.evaluate(&holdout).relative_error_pct();
    Refit {
        model,
        holdout_rel_err_pct,
        history,
    }
}

/// One serving set-up: refit, checkpoint, daemon.
pub struct Setup {
    /// Dataset generation + fit + evaluate + checkpoint write + daemon
    /// spawn until it answers, s.
    pub setup_s: f64,
    /// The refit.
    pub refit: Refit,
    /// The running daemon serving the checkpoint.
    pub daemon: Daemon,
}

/// Runs one set-up, writing the checkpoint to `checkpoint`.
pub fn setup(qpp: &Path, checkpoint: &Path) -> Result<Setup, String> {
    let t = Instant::now();
    let refit = refit(&dataset());
    std::fs::write(checkpoint, refit.model.to_json())
        .map_err(|e| format!("writing {}: {e}", checkpoint.display()))?;
    let daemon = Daemon::spawn(qpp, checkpoint)?;
    Ok(Setup {
        setup_s: t.elapsed().as_secs_f64(),
        refit,
        daemon,
    })
}
