//! # qpp-bench — experiment harness for the QPPNet reproduction
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! experiment index). This library holds the shared machinery: experiment
//! configuration (with CLI-flag parsing), the four-model comparison runner,
//! and plain-text table/series rendering.
//!
//! All binaries accept:
//!
//! ```text
//! --queries N      queries per workload        (default varies per figure)
//! --sf F           scale factor                (default 100, as the paper)
//! --epochs N       QPPNet training epochs      (default varies per figure)
//! --seed N         master seed                 (default 42)
//! --eval-every N   epochs between eval points  (fig9bc only)
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod load;

use qpp_baselines::rbf::RbfModel;
use qpp_baselines::svm::SvmModel;
use qpp_baselines::tam::TamModel;
use qpp_baselines::LatencyModel;
use qpp_plansim::catalog::Workload;
use qpp_plansim::dataset::{Dataset, Split};
use qpp_plansim::plan::Plan;
use qppnet::{Metrics, QppConfig, QppNet};
use std::time::Instant;

/// Shared experiment parameters, parseable from CLI flags.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Queries generated per workload.
    pub queries: usize,
    /// Scale factor (paper: 100).
    pub scale_factor: f64,
    /// QPPNet hyper-parameters.
    pub qpp: QppConfig,
    /// Master seed (workload generation, splits, model seeds).
    pub seed: u64,
    /// Epochs between convergence-trace evaluations.
    pub eval_every: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            queries: 1_500,
            scale_factor: 100.0,
            // The harness defaults to Adam (the paper's §8 future-work
            // optimizer): at laptop scale (thousands of queries instead of
            // 20,000, ~100 epochs instead of 1000) SGD is far from
            // converged, while Adam reaches the paper's qualitative shapes
            // within the default budget. `--opt sgd` reproduces the
            // paper's optimizer literally; the *library* default
            // (`QppConfig::default`) remains SGD as the paper specifies.
            qpp: QppConfig { optimizer: qppnet::OptimizerKind::Adam, ..QppConfig::default() },
            seed: 42,
            eval_every: 5,
        }
    }
}

impl ExpConfig {
    /// Parses `--flag value` style arguments over defaults.
    ///
    /// Unknown flags abort with a usage message.
    pub fn from_args(defaults: ExpConfig) -> ExpConfig {
        let mut cfg = defaults;
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = args.get(i + 1).unwrap_or_else(|| usage(flag));
            match flag {
                "--queries" => cfg.queries = value.parse().unwrap_or_else(|_| usage(flag)),
                "--sf" => cfg.scale_factor = value.parse().unwrap_or_else(|_| usage(flag)),
                "--epochs" => cfg.qpp.epochs = value.parse().unwrap_or_else(|_| usage(flag)),
                "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage(flag)),
                "--eval-every" => cfg.eval_every = value.parse().unwrap_or_else(|_| usage(flag)),
                "--batch" => cfg.qpp.batch_size = value.parse().unwrap_or_else(|_| usage(flag)),
                "--lr" => cfg.qpp.learning_rate = value.parse().unwrap_or_else(|_| usage(flag)),
                "--threads" => cfg.qpp.threads = value.parse().unwrap_or_else(|_| usage(flag)),
                "--opt" => {
                    cfg.qpp.optimizer = match value.as_str() {
                        "sgd" => qppnet::OptimizerKind::Sgd,
                        "adam" => qppnet::OptimizerKind::Adam,
                        _ => usage(flag),
                    }
                }
                _ => usage(flag),
            }
            i += 2;
        }
        cfg.qpp.seed = cfg.seed;
        cfg
    }
}

fn usage(flag: &str) -> ! {
    eprintln!(
        "unrecognized or malformed flag {flag}\n\
         flags: --queries N  --sf F  --epochs N  --seed N  --eval-every N  --batch N  --lr F  --threads N"
    );
    std::process::exit(2);
}

/// Result of training + evaluating one model.
#[derive(Debug, Clone)]
pub struct ModelRun {
    /// Display name.
    pub name: &'static str,
    /// Test-set metrics.
    pub metrics: Metrics,
    /// Per-query predictions (test order).
    pub predictions: Vec<f64>,
    /// Per-query actual latencies (test order).
    pub actuals: Vec<f64>,
    /// Wall-clock training seconds.
    pub train_seconds: f64,
}

/// Generates the dataset + paper split for a workload.
pub fn generate(cfg: &ExpConfig, workload: Workload) -> (Dataset, Split) {
    let ds = Dataset::generate(workload, cfg.scale_factor, cfg.queries, cfg.seed);
    let split = ds.paper_split(cfg.seed ^ 0x5eed);
    (ds, split)
}

/// Trains and evaluates all four models (TAM, SVM, RBF, QPP Net) on a
/// prepared dataset/split, in the paper's reporting order.
pub fn run_all_models(cfg: &ExpConfig, ds: &Dataset, split: &Split) -> Vec<ModelRun> {
    let train = ds.select(&split.train);
    let test = ds.select(&split.test);
    let actuals: Vec<f64> = test.iter().map(|p| p.latency_ms()).collect();

    let mut runs = Vec::with_capacity(4);

    let mut tam = TamModel::new();
    runs.push(run_model("TAM", &mut tam, &train, &test, &actuals));

    let mut svm = SvmModel::new(cfg.seed);
    runs.push(run_model("SVM", &mut svm, &train, &test, &actuals));

    let mut rbf = RbfModel::new();
    runs.push(run_model("RBF", &mut rbf, &train, &test, &actuals));

    let start = Instant::now();
    let mut qpp = QppNet::new(cfg.qpp.clone(), &ds.catalog);
    qpp.fit(&train);
    let train_seconds = start.elapsed().as_secs_f64();
    let predictions = qpp.predict_batch(&test);
    let metrics = qppnet::evaluate(&actuals, &predictions);
    runs.push(ModelRun {
        name: "QPP Net",
        metrics,
        predictions,
        actuals: actuals.clone(),
        train_seconds,
    });

    runs
}

fn run_model(
    name: &'static str,
    model: &mut dyn LatencyModel,
    train: &[&Plan],
    test: &[&Plan],
    actuals: &[f64],
) -> ModelRun {
    let start = Instant::now();
    model.fit(train);
    let train_seconds = start.elapsed().as_secs_f64();
    let predictions = model.predict_batch(test);
    let metrics = qppnet::evaluate(actuals, &predictions);
    ModelRun { name, metrics, predictions, actuals: actuals.to_vec(), train_seconds }
}

/// Renders a plain-text table: header row + rows of cells.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let line = |cells: &[String], widths: &[usize]| -> String {
        let mut s = String::new();
        for (c, w) in cells.iter().zip(widths) {
            s.push_str(&format!("{c:>w$}  ", w = w));
        }
        s.trim_end().to_string()
    };
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    out.push_str(&line(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats milliseconds as minutes with two decimals.
pub fn fmt_minutes(ms: f64) -> String {
    format!("{:.2}", ms / 60_000.0)
}

/// Machine-readable benchmark artifacts (`BENCH_infer.json` /
/// `BENCH_train.json`): the criterion bench mains convert the vendored
/// harness's measurement records into [`bench_json::BenchRow`]s and merge them in, so
/// the perf trajectory is recorded as data across PRs instead of living
/// only in README tables.
pub mod bench_json {
    use serde::{Deserialize, Serialize};
    use std::path::{Path, PathBuf};

    /// One benchmark measurement, flattened for the JSON artifact.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct BenchRow {
        /// Model tier axis of the bench group (`edge`, `paper`) or the
        /// tier-independent group name (`pool`, `oneshot`).
        pub tier: String,
        /// Row name within the tier (e.g. `program_precompiled_t1`).
        pub name: String,
        /// Mean wall-clock nanoseconds per iteration.
        pub ns_per_iter: u64,
        /// Kernel dispatch tier the run executed under
        /// (`qpp_nn::KernelTier::current().name()`).
        pub kernel_tier: String,
        /// Worker thread count of the row (parsed from a `_t<N>` suffix;
        /// 1 where the row has no thread axis).
        pub threads: usize,
    }

    impl BenchRow {
        /// The identity a newer measurement replaces an older one by.
        fn key(&self) -> (&str, &str, usize, &str) {
            (&self.tier, &self.name, self.threads, &self.kernel_tier)
        }
    }

    /// Parses a harness label (`file/tier/name/param`) into a row, with
    /// the kernel tier stamped from the current process dispatch. Labels
    /// with fewer than three `/` segments are skipped (returns `None`).
    pub fn row_from_label(label: &str, ns_per_iter: u64) -> Option<BenchRow> {
        let mut parts = label.splitn(4, '/');
        let _file = parts.next()?;
        let tier = parts.next()?;
        let name = parts.next()?;
        let threads = name
            .rsplit_once("_t")
            .and_then(|(_, n)| n.parse::<usize>().ok())
            .unwrap_or(1);
        Some(BenchRow {
            tier: tier.to_string(),
            name: name.to_string(),
            ns_per_iter,
            kernel_tier: qpp_nn::KernelTier::current().name().to_string(),
            threads,
        })
    }

    /// Merges the rows into `file_name` at the root of the workspace the
    /// bench runs in (found from the current directory at run time, so a
    /// binary built from one checkout never writes into another). A row
    /// replaces the stored row with the same `(tier, name, threads,
    /// kernel_tier)`; every other stored row is kept, so a partial run
    /// never erases the rest of the artifact. The file is a JSON array
    /// with one object per line, so it diffs row by row.
    ///
    /// # Panics
    /// Panics if no workspace root is found or the file cannot be read,
    /// parsed or written — a bench artifact silently missing is worse
    /// than a failed bench run.
    pub fn write(file_name: &str, rows: &[BenchRow]) {
        let cwd = std::env::current_dir().expect("current directory is readable");
        let root = workspace_root(&cwd).unwrap_or_else(|| {
            panic!("no Cargo.toml with [workspace] at or above {}", cwd.display())
        });
        let path = root.join(file_name);
        let total = merge_into(&path, rows);
        println!("merged {} rows into {} ({total} rows)", rows.len(), path.display());
    }

    /// The nearest directory at or above `from` whose `Cargo.toml`
    /// declares `[workspace]`.
    fn workspace_root(from: &Path) -> Option<PathBuf> {
        from.ancestors()
            .find(|dir| {
                std::fs::read_to_string(dir.join("Cargo.toml"))
                    .is_ok_and(|toml| toml.lines().any(|l| l.trim() == "[workspace]"))
            })
            .map(Path::to_path_buf)
    }

    /// Merges `rows` into the artifact at `path` (see [`write`]) and
    /// returns the artifact's row count.
    fn merge_into(path: &Path, rows: &[BenchRow]) -> usize {
        let mut merged: Vec<BenchRow> = match std::fs::read_to_string(path) {
            Ok(json) => serde_json::from_str(&json)
                .unwrap_or_else(|e| panic!("cannot parse bench artifact {}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => panic!("cannot read bench artifact {}: {e}", path.display()),
        };
        for row in rows {
            match merged.iter_mut().find(|old| old.key() == row.key()) {
                Some(old) => *old = row.clone(),
                None => merged.push(row.clone()),
            }
        }
        let mut json = String::from("[\n");
        for (i, row) in merged.iter().enumerate() {
            json.push_str("  ");
            json.push_str(&serde_json::to_string(row).expect("bench row serializes"));
            if i + 1 < merged.len() {
                json.push(',');
            }
            json.push('\n');
        }
        json.push_str("]\n");
        std::fs::write(path, json)
            .unwrap_or_else(|e| panic!("cannot write bench artifact {}: {e}", path.display()));
        merged.len()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn row(name: &str, threads: usize, ns_per_iter: u64) -> BenchRow {
            BenchRow {
                tier: "paper".into(),
                name: name.into(),
                ns_per_iter,
                kernel_tier: "scalar".into(),
                threads,
            }
        }

        #[test]
        fn writes_find_the_workspace_root_and_merge_by_key() {
            let tmp = std::env::temp_dir().join(format!("qpp_bench_json_{}", std::process::id()));
            let nested = tmp.join("crates").join("bench");
            std::fs::create_dir_all(&nested).unwrap();
            std::fs::write(tmp.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
            std::fs::write(nested.join("Cargo.toml"), "[package]\nname = \"x\"\n").unwrap();
            assert_eq!(workspace_root(&nested), Some(tmp.clone()));

            let path = tmp.join("BENCH_test.json");
            let first = [row("program", 1, 100), row("program", 2, 60), row("classes", 1, 300)];
            assert_eq!(merge_into(&path, &first), 3);
            // Overlaps (program, t2) only; adds (program_precompiled, t1).
            let second = [row("program", 2, 55), row("program_precompiled", 1, 40)];
            assert_eq!(merge_into(&path, &second), 4);

            let stored: Vec<BenchRow> =
                serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
            assert_eq!(
                stored,
                vec![
                    row("program", 1, 100),
                    row("program", 2, 55),
                    row("classes", 1, 300),
                    row("program_precompiled", 1, 40),
                ]
            );
            // A row measured under another kernel tier is a different row.
            let other_tier = BenchRow { kernel_tier: "avx2".into(), ..row("program", 1, 90) };
            assert_eq!(merge_into(&path, &[other_tier]), 5);
            std::fs::remove_dir_all(&tmp).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_runs_end_to_end_on_a_small_workload() {
        let cfg = ExpConfig {
            queries: 60,
            scale_factor: 1.0,
            qpp: QppConfig { epochs: 5, ..QppConfig::tiny() },
            seed: 1,
            eval_every: 2,
        };
        let (ds, split) = generate(&cfg, Workload::TpcH);
        let runs = run_all_models(&cfg, &ds, &split);
        assert_eq!(runs.len(), 4);
        assert_eq!(runs[0].name, "TAM");
        assert_eq!(runs[3].name, "QPP Net");
        for r in &runs {
            assert_eq!(r.predictions.len(), split.test.len());
            assert!(r.metrics.relative_error.is_finite());
        }
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let t = render_table(
            "demo",
            &["model", "err"],
            &[vec!["TAM".into(), "1.0".into()], vec!["QPP Net".into(), "0.5".into()]],
        );
        assert!(t.contains("demo"));
        assert!(t.contains("QPP Net"));
    }
}
