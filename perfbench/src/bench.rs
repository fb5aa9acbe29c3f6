//! One benchmark run: set-up, timed phases, checks and metrics.
//!
//! An untraced run (`--trace 0`) sets up [`SETUP_REPS`] times, warms the
//! last daemon up, then drives it through one round per [`ROUND_S`] of
//! `--seconds`, each a closed loop, two open loops at fixed rates and a
//! rate ladder, and reports the end-to-end metrics. Each metric pools
//! the samples of its phase over all rounds: throughput is answered
//! requests over summed phase time, latencies are exact percentiles of
//! every stored sample, and each ladder step is judged on all its
//! rounds' samples. A traced run (`--trace 1`) sets up once, drives a
//! warm-up, a closed loop and the high open loop, then replays the closed
//! loop's requests in process, layer by layer (see [`crate::replay`]),
//! and reports the per-layer metrics. Both check every reply they
//! collect.
//!
//! The timed phases keep the daemon and the generator on CPUs of their
//! own (`daemon::CpuSplit`); for the whole run, idle-priority spinners
//! keep every CPU out of the hypervisor's halt state (`daemon::IdleSpin`).
//!
//! The host is a 2-core virtual machine on a shared machine whose speed
//! for this daemon's work moves from one second to the next: closed-loop
//! throughput of 0.5 s rounds varied by 15% (coefficient of variation),
//! a fixed integer loop timed between them by 4% (the shared caches and
//! memory, not the clock, vary). Many short rounds, pooled, average that
//! out where a few long phases would each catch one state of the host. An open loop
//! queues every request due during a host stall of a few milliseconds, so
//! open-loop tails measure the host more than the daemon: the open loops
//! and the rate ladder judge latency by its median; the closed loop,
//! whose two in-flight requests are all a stall can delay, reports p50
//! and p90. The closed loop's p99 and the high open loop's p90 and p99
//! are per-layer metrics of the traced run.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use qpp_plansim::plan::PlanNode;
use qppnet::QppNet;

use crate::check::{check_oneshot, check_sessions, Reference, Tally};
use crate::daemon::{affinity, cpu_seconds, peak_rss_mb, set_affinity, CpuSplit, IdleSpin};
use crate::drive::{open_count, run_oneshot, run_sessions, Mode, Phase, CONNS, MIN_PER_CONN};
use crate::refit::{self, Setup};
use crate::replay::{self, ReplayOut, SessionRun, UnitCost, REQUEST_LAYERS};
use crate::stats::{median, quantile, Summary};
use crate::trace::{self_times, self_times_of};
use crate::traffic::{
    OneshotBatch, OneshotReq, SessionScript, Traffic, Workload, PREDICTS_PER_ADMIT,
};

/// Closed-loop requests per second of each workload at the commit that
/// defined the benchmark, on the 2-core host with daemon and generator
/// on a core each, rounded down from what it measured while the host ran
/// at about half speed (its speed moved 2–3× within an hour), so that
/// the open loops do not saturate the daemon when the host slows. The
/// open-loop rates and the rate ladder are fixed fractions of it, so they
/// stay put when a later commit changes the daemon's speed.
pub fn ref_rps(w: Workload) -> f64 {
    match w {
        Workload::ServeZipf => 10_000.0,
        Workload::ServeSessions => 1_500.0,
    }
}

/// The low and high open-loop rates, as fractions of [`ref_rps`].
pub const OPEN_RATES: [(&str, f64); 2] = [("open_lo", 0.3), ("open_hi", 0.6)];
/// The rate ladder for `slo_rps`, as fractions of [`ref_rps`]; every
/// round climbs all of it.
pub const LADDER: [f64; 12] = [
    0.6, 0.7, 0.8, 0.95, 1.1, 1.3, 1.5, 1.75, 2.0, 2.35, 2.75, 3.2,
];
/// The latency limit `slo_rps` holds the median to, µs.
pub const SLO_US: f64 = 2000.0;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Closed-loop warm-up before the timed phases, s.
pub const WARMUP_S: f64 = 0.5;
/// Length of one timed round, s: `--seconds` buys that many rounds.
pub const ROUND_S: f64 = 1.0;
/// An open-loop phase offers at least this many requests.
pub const MIN_OPEN_REQS: usize = 20;
/// Shares of each round's time given to the closed loop, to each open
/// loop and to the whole ladder.
const CLOSED_SHARE: f64 = 0.25;
const OPEN_SHARE: f64 = 0.2;
const LADDER_SHARE: f64 = 0.35;
/// Closed-loop inputs are made for this multiple of [`ref_rps`].
const CLOSED_HEADROOM: f64 = 4.0;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Timed seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// The `qpp` binary.
    pub qpp: PathBuf,
    /// Directory for checkpoints, spans and results.
    pub out: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result line and the notes printed before it.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every checked output was right.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines (phase tallies, provenance).
    pub notes: Vec<String>,
}

impl Outcome {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The result as one JSON object (the benchmark's last output line).
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// One step of the rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// Exact median latency with failed requests counted as misses, µs.
    pub p50_us: f64,
    /// Median generator lateness over the last tenth of each
    /// connection's sends (a growing backlog), µs.
    pub backlog_us: f64,
}

impl Step {
    /// The ladder step measured by `phases` (the step's rounds) at `rate`.
    fn of<'a>(phases: impl IntoIterator<Item = &'a Phase>, rate: f64) -> Step {
        let (mut l, mut last) = (Vec::new(), Vec::new());
        for phase in phases {
            l.extend(phase.latencies());
            // A failed request misses the limit: count it as infinitely late.
            l.extend(std::iter::repeat_n(
                u64::MAX,
                phase.transport_failed() as usize,
            ));
            last.extend(phase.late_lags());
        }
        l.sort_unstable();
        last.sort_unstable();
        Step {
            rate,
            p50_us: quantile(&l, 0.5).unwrap_or(u64::MAX) as f64 / 1e3,
            backlog_us: quantile(&last, 0.5).unwrap_or(0) as f64 / 1e3,
        }
    }

    /// log(worse of median and backlog / limit): ≤ 0 passes.
    fn score(&self, slo_us: f64) -> f64 {
        (self.p50_us.max(self.backlog_us).max(1e-3) / slo_us).ln()
    }
}

/// The highest rate meeting the latency limit, interpolated on
/// log(p50 / limit) between the last passing step and the failing step
/// after it, so it moves continuously with the measured latencies. A
/// failing step followed by a passing one (a noisy step) does not end the
/// search. When no step passes it is extrapolated down from the first as
/// `rate · limit / p50`; when the top step passes it is the top rate.
pub fn slo_rps(steps: &[Step], slo_us: f64) -> f64 {
    let Some(pass) = steps.iter().rposition(|s| s.score(slo_us) <= 0.0) else {
        return steps
            .first()
            .map_or(0.0, |f| f.rate * (-f.score(slo_us)).exp());
    };
    let p = steps[pass];
    let Some(&f) = steps.get(pass + 1) else {
        return p.rate;
    };
    let (gp, gf) = (p.score(slo_us), f.score(slo_us));
    p.rate + (f.rate - p.rate) * (-gp) / (gf - gp)
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// A phase's inputs: one-shot lines or one session script per client.
enum Inputs {
    Oneshot(OneshotBatch),
    Sessions(Vec<SessionScript>),
}

impl Inputs {
    /// Inputs for a phase offering `n` requests in all.
    fn make(traffic: &mut Traffic, n: usize) -> Inputs {
        if traffic.workload.oneshot() {
            Inputs::Oneshot(traffic.oneshot_batch(n))
        } else {
            // About PREDICTS_PER_ADMIT + 2 ops per admitted plan.
            let plans = n / CONNS / (PREDICTS_PER_ADMIT + 2) + 8;
            Inputs::Sessions((0..CONNS).map(|_| traffic.session_script(plans)).collect())
        }
    }

    /// Drops the encoded lines once a phase has run (checks need only
    /// the requests; a first-seen variant's line is a few kB).
    fn drop_lines(&mut self) {
        if let Inputs::Oneshot(b) = self {
            b.lines = Vec::new();
        }
    }
}

fn run_phase(
    addr: &str,
    traffic: &Traffic,
    inputs: &Inputs,
    mode: Mode,
    dur: Duration,
    n: usize,
    name: &str,
) -> Phase {
    match inputs {
        Inputs::Oneshot(b) => run_oneshot(addr, b, mode, dur, name),
        Inputs::Sessions(s) => run_sessions(addr, traffic, s, mode, dur, n.div_ceil(CONNS), name),
    }
}

fn check_phase(
    reference: &mut Reference<'_>,
    traffic: &Traffic,
    inputs: &Inputs,
    phase: &Phase,
) -> Tally {
    match inputs {
        Inputs::Oneshot(b) => check_oneshot(reference, traffic, b, phase),
        Inputs::Sessions(s) => check_sessions(reference, traffic, s, phase),
    }
}

/// Runs timed phases, each on fresh inputs, and keeps them for the
/// checks.
struct Runner<'a> {
    traffic: &'a mut Traffic,
    addr: String,
    /// Keep encoded lines after a phase (the traced replay needs them).
    keep_lines: bool,
    phases: Vec<(Phase, Inputs)>,
    /// Wall and CPU time of each phase, parallel to `phases`.
    usage: Vec<Usage>,
    /// The daemon's process id (for its CPU time).
    pid: String,
    /// The run's spinners (their CPU time is not the generator's).
    spin: &'a IdleSpin,
}

impl Runner<'_> {
    fn closed(&mut self, name: &str, seconds: f64) -> usize {
        let n = ((ref_rps(self.traffic.workload) * CLOSED_HEADROOM * seconds) as usize)
            .max(MIN_PER_CONN * CONNS + CONNS);
        self.phase(name, Mode::Closed, secs(seconds), n)
    }

    fn open(&mut self, name: &str, rate: f64, seconds: f64) -> usize {
        let dur = secs(seconds.max(MIN_OPEN_REQS as f64 / rate));
        self.phase(name, Mode::Open { rate }, dur, open_count(rate, dur))
    }

    fn phase(&mut self, name: &str, mode: Mode, dur: Duration, n: usize) -> usize {
        let mut inputs = Inputs::make(self.traffic, n);
        let spun = || self.spin.cpu_seconds();
        let generator_cpu = || cpu_seconds("self").map(|s| s - spun());
        let before = (cpu_seconds(&self.pid), generator_cpu(), Instant::now());
        let phase = run_phase(&self.addr, self.traffic, &inputs, mode, dur, n, name);
        let delta = |a: Option<f64>, b: Option<f64>| b.zip(a).map_or(0.0, |(b, a)| b - a);
        self.usage.push(Usage {
            wall_s: before.2.elapsed().as_secs_f64(),
            daemon_cpu_s: delta(before.0, cpu_seconds(&self.pid)),
            generator_cpu_s: delta(before.1, generator_cpu()),
        });
        if !self.keep_lines {
            inputs.drop_lines();
        }
        self.phases.push((phase, inputs));
        self.phases.len() - 1
    }
}

/// Wall and CPU time of one phase.
#[derive(Debug, Clone, Copy)]
struct Usage {
    wall_s: f64,
    daemon_cpu_s: f64,
    generator_cpu_s: f64,
}

fn provenance(o: &Options) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
    let dirty = match git(&["status", "--porcelain"]) {
        Some(s) => (!s.is_empty()).to_string(),
        None => "unknown".into(),
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_rev\":\"{rev}\",\"dirty\":\"{dirty}\",\"cpu_cores\":{cores},\"kernel_tier\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        qpp_nn::KernelTier::current().name(),
        o.workload.name(),
        o.seed,
        o.seconds,
        o.trace
    )
}

/// The phases of one timed round, as indices into [`Runner::phases`].
struct Round {
    closed: usize,
    open: Vec<usize>,
    ladder: Vec<usize>,
}

/// What the set-ups of a run measured.
struct Setups {
    setup_s: Vec<f64>,
    epoch_s: Vec<f64>,
    holdout_pct: Vec<f64>,
}

fn set_up(
    o: &Options,
    checkpoint: &std::path::Path,
    reps: usize,
    out: &mut Outcome,
) -> Result<(Setups, Setup), String> {
    let mut m = Setups {
        setup_s: Vec::new(),
        epoch_s: Vec::new(),
        holdout_pct: Vec::new(),
    };
    let mut last: Option<Setup> = None;
    for _ in 0..reps {
        if let Some(prev) = last.take() {
            prev.daemon.shutdown()?;
        }
        let s = refit::setup(&o.qpp, checkpoint)?;
        m.setup_s.push(s.setup_s);
        m.epoch_s.extend_from_slice(&s.refit.history.epoch_seconds);
        m.holdout_pct.push(s.refit.holdout_rel_err_pct);
        last = Some(s);
    }
    out.notes.push(format!(
        "set-ups: {:?} s, held-out error {:?} %",
        m.setup_s, m.holdout_pct
    ));
    if m.holdout_pct
        .iter()
        .any(|h| h.to_bits() != m.holdout_pct[0].to_bits())
    {
        out.correct = false;
        out.notes.push(
            "the held-out error differed between set-ups: the refit is not deterministic".into(),
        );
    }
    Ok((m, last.expect("at least one set-up")))
}

/// Runs one benchmark invocation.
pub fn run(o: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&o.out).map_err(|e| format!("creating {}: {e}", o.out.display()))?;
    let tag = format!(
        "{}-seed{}-trace{}",
        o.workload.name(),
        o.seed,
        u8::from(o.trace)
    );
    let checkpoint = o.out.join(format!("{tag}.model.json"));
    let mut out = Outcome {
        correct: true,
        notes: vec![format!("provenance {}", provenance(o))],
        ..Outcome::default()
    };
    let started = Instant::now();
    let all_cpus = affinity().map_err(|e| format!("reading the CPU affinity: {e}"))?;
    let spin = IdleSpin::start(&all_cpus);
    let mut traffic = Traffic::new(o.workload, o.seed);

    // Set-up: the last daemon serves the timed phases.
    let (setups, setup) = set_up(
        o,
        &checkpoint,
        if o.trace { 1 } else { SETUP_REPS },
        &mut out,
    )?;
    let Setup { daemon, refit, .. } = setup;
    let model = refit.model;
    let pid = daemon.pid().to_string();
    let set_up_s = started.elapsed().as_secs_f64();
    // The timed phases run the generator on its own CPU, apart from the
    // daemon's (see `CpuSplit`); set-up, checks and replay use them all.
    let split = CpuSplit::of(&all_cpus);
    if let Some(s) = split {
        set_affinity(&s.generator).map_err(|e| format!("pinning the generator: {e}"))?;
    }

    let base = ref_rps(o.workload);
    let mut r = Runner {
        traffic: &mut traffic,
        addr: daemon.addr.clone(),
        keep_lines: o.trace,
        phases: Vec::new(),
        usage: Vec::new(),
        pid: pid.clone(),
        spin: &spin,
    };
    let warm = r.closed("warmup", WARMUP_S);

    let mut rounds = Vec::new();
    let mut traced = None;
    if o.trace {
        let s0 = daemon.stats()?;
        let closed = r.closed("closed", CLOSED_SHARE * o.seconds);
        let s1 = daemon.stats()?;
        let hi = r.open("open_hi", OPEN_RATES[1].1 * base, OPEN_SHARE * o.seconds);
        let u = r.usage[closed];
        traced = Some((
            closed,
            hi,
            (s0, s1),
            (u.daemon_cpu_s / u.wall_s, u.generator_cpu_s),
        ));
    } else {
        // Rounds interleave the phases, so a host disturbance lands in one
        // round of each phase rather than in all of one phase.
        let n = ((o.seconds / ROUND_S).round() as usize).max(1);
        let t = o.seconds / n as f64;
        for k in 0..n {
            let closed = r.closed(&format!("closed.{k}"), CLOSED_SHARE * t);
            let open = OPEN_RATES
                .iter()
                .map(|&(name, f)| r.open(&format!("{name}.{k}"), f * base, OPEN_SHARE * t))
                .collect();
            let step_s = LADDER_SHARE * t / LADDER.len() as f64;
            let ladder = LADDER
                .iter()
                .enumerate()
                .map(|(i, f)| r.open(&format!("ladder{i}.{k}"), f * base, step_s))
                .collect();
            rounds.push(Round {
                closed,
                open,
                ladder,
            });
        }
    }
    let rss = peak_rss_mb(&pid).ok_or("reading the daemon's VmHWM")?;
    daemon.shutdown()?;
    set_affinity(&all_cpus).map_err(|e| format!("restoring the CPU affinity: {e}"))?;
    let phases_s = started.elapsed().as_secs_f64() - set_up_s;

    // Checks, after the timed window, against the model the daemon's
    // checkpoint was written from, so bitwise equal replies also show
    // that the checkpoint lost nothing. (Loading the checkpoint again
    // would add a fourth parse of several seconds to every run; the
    // traced run times one load for `model.from_json_ms`.)
    let mut reference = Reference::new(&model);
    for (phase, inputs) in &r.phases {
        let tally = check_phase(&mut reference, r.traffic, inputs, phase);
        out.attempted += tally.sent;
        out.failed += tally.failed;
        out.notes.push(format!(
            "phase {:<10} sent {:>6} succeeded {:>6} failed {:>3} (bits checked {:>6}, transport failures {})",
            phase.name,
            tally.sent,
            tally.succeeded,
            tally.failed,
            tally.bits_checked,
            phase.transport_failed()
        ));
    }
    out.correct &= out.failed == 0;
    out.notes.push(format!(
        "wall: set-ups {set_up_s:.1} s, phases {phases_s:.1} s, checks {:.1} s",
        started.elapsed().as_secs_f64() - set_up_s - phases_s
    ));

    match traced {
        None => end_to_end(&mut out, &r.phases, &rounds, &setups, rss, base),
        Some((closed, hi, (s0, s1), cpu)) => {
            let json = std::fs::read_to_string(&checkpoint)
                .map_err(|e| format!("reading {}: {e}", checkpoint.display()))?;
            let t = Instant::now();
            let loaded = QppNet::from_json(&json)
                .map_err(|e| format!("loading {}: {e}", checkpoint.display()))?;
            let from_json_ms = t.elapsed().as_secs_f64() * 1e3;
            drop((loaded, json));
            let client = Summary::of(&mut r.phases[closed].0.latencies());
            let hi_lag = Summary::of(&mut r.phases[hi].0.lags());
            let mut hi = r.phases[hi].0.latencies();
            let hi_lat = Summary::of(&mut hi);
            let hi_p90_us = quantile(&hi, 0.9).unwrap_or(0) as f64 / 1e3;
            layer_metrics(
                &mut out,
                &LayerInputs {
                    model: &model,
                    traffic: r.traffic,
                    phases: &r.phases,
                    warm,
                    closed,
                    client,
                    daemon_hits: s1.cache_hits - s0.cache_hits,
                    daemon_probes: (s1.cache_hits + s1.cache_misses)
                        - (s0.cache_hits + s0.cache_misses),
                    hi_lag,
                    hi_lat,
                    hi_p90_us,
                    cpu,
                    from_json_ms,
                    epoch_s: &setups.epoch_s,
                    out_dir: &o.out,
                },
            )?;
        }
    }
    let _ = std::fs::remove_file(&checkpoint);
    Ok(out)
}

/// The end-to-end metrics, each pooled over the rounds.
fn end_to_end(
    out: &mut Outcome,
    phases: &[(Phase, Inputs)],
    rounds: &[Round],
    setups: &Setups,
    rss: f64,
    base: f64,
) {
    // Every timed latency of the phases `pick` selects, sorted.
    let pooled = |pick: &dyn Fn(&Round) -> usize| {
        let mut l: Vec<u64> = rounds
            .iter()
            .flat_map(|r| phases[pick(r)].0.latencies())
            .collect();
        l.sort_unstable();
        l
    };
    let us = |l: &[u64], q: f64| quantile(l, q).unwrap_or(0) as f64 / 1e3;
    out.push("setup_s", median(&setups.setup_s), "s");
    out.push("peak_rss_mb", rss, "MB");
    let (answered, wall) = rounds.iter().fold((0, 0.0), |(n, w), r| {
        let p = &phases[r.closed].0;
        (n + p.answered(), w + p.wall().as_secs_f64())
    });
    out.notes.push(format!(
        "rounds closed_rps: {:.0?}",
        rounds
            .iter()
            .map(|r| phases[r.closed].0.throughput())
            .collect::<Vec<_>>()
    ));
    out.push("closed_rps", answered as f64 / wall, "1/s");
    let closed = pooled(&|r| r.closed);
    out.push("closed_p50_us", us(&closed, 0.5), "us");
    out.push("closed_p90_us", us(&closed, 0.9), "us");
    for (k, &(name, _)) in OPEN_RATES.iter().enumerate() {
        out.push(
            &format!("{name}_p50_us"),
            us(&pooled(&|r| r.open[k]), 0.5),
            "us",
        );
    }
    let steps: Vec<Step> = LADDER
        .iter()
        .enumerate()
        .map(|(i, f)| Step::of(rounds.iter().map(|r| &phases[r.ladder[i]].0), f * base))
        .collect();
    out.notes.push(format!(
        "ladder (rate, p50 µs, backlog µs): {:.0?}",
        steps
            .iter()
            .map(|s| (s.rate, s.p50_us, s.backlog_us))
            .collect::<Vec<_>>()
    ));
    out.push("slo_rps", slo_rps(&steps, SLO_US), "1/s");
    // Plan-epochs over the summed epoch time of every set-up's fit: the
    // host runs some epochs a fifth faster than others, and the median
    // epoch would flip between the two speeds where the mean moves by
    // the share of each.
    out.push(
        "train_plan_epochs_per_s",
        (refit::TRAIN_PLANS * setups.epoch_s.len()) as f64 / setups.epoch_s.iter().sum::<f64>(),
        "1/s",
    );
    out.push("holdout_rel_err_pct", setups.holdout_pct[0], "%");
}

struct LayerInputs<'a> {
    model: &'a QppNet,
    traffic: &'a Traffic,
    phases: &'a [(Phase, Inputs)],
    warm: usize,
    closed: usize,
    client: Summary,
    daemon_hits: u64,
    daemon_probes: u64,
    hi_lag: Summary,
    hi_lat: Summary,
    hi_p90_us: f64,
    cpu: (f64, f64),
    from_json_ms: f64,
    epoch_s: &'a [f64],
    out_dir: &'a std::path::Path,
}

/// One-shot lines a phase sent, clients interleaved one request at a time.
fn sent_lines<'a>(
    traffic: &Traffic,
    phase: &Phase,
    inputs: &'a Inputs,
) -> Vec<(&'a [u8], PlanNode)> {
    let Inputs::Oneshot(b) = inputs else {
        unreachable!("one-shot phase")
    };
    let longest = phase.conns.iter().map(|c| c.recs.len()).max().unwrap_or(0);
    let mut v = Vec::new();
    for k in 0..longest {
        for c in &phase.conns {
            if let Some(rec) = c.recs.get(k) {
                let i = rec.item as usize;
                let req: OneshotReq = b.reqs[i];
                v.push((&b.lines[i][..], traffic.plan(req)));
            }
        }
    }
    v
}

fn session_run<'a>(phase: &Phase, inputs: &'a Inputs) -> SessionRun<'a> {
    let Inputs::Sessions(s) = inputs else {
        unreachable!("session phase")
    };
    SessionRun {
        scripts: s,
        ops: phase
            .conns
            .iter()
            .map(|c| c.recs.iter().filter(|r| r.timed).count())
            .collect(),
    }
}

fn timing(out: &mut Outcome, name: &str, unit: &'static str, scale: f64, samples: &mut [u64]) {
    let s = Summary::of(samples);
    out.push(&format!("{name}.p50"), s.p50 as f64 / scale, unit);
    out.push(
        &format!("{name}.tail"),
        s.tail.unwrap_or(0) as f64 / scale,
        unit,
    );
    out.push(&format!("{name}.n"), s.n as f64, "count");
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn layer_metrics(out: &mut Outcome, li: &LayerInputs<'_>) -> Result<(), String> {
    let cost = UnitCost::paper_tier();
    let (warm, warm_in) = (&li.phases[li.warm].0, &li.phases[li.warm].1);
    let (closed, closed_in) = (&li.phases[li.closed].0, &li.phases[li.closed].1);
    let replay = |traced: bool| -> ReplayOut {
        if li.traffic.workload.oneshot() {
            let w = sent_lines(li.traffic, warm, warm_in);
            let c = sent_lines(li.traffic, closed, closed_in);
            replay::replay_oneshot(li.model, &cost, &w, &c, traced)
        } else {
            replay::replay_sessions(
                li.model,
                &cost,
                li.traffic,
                &session_run(warm, warm_in),
                &session_run(closed, closed_in),
                traced,
            )
        }
    };
    // Untraced on both sides of the traced replay, so warming order does
    // not read as tracing overhead.
    let plain = replay(false);
    let traced = replay(true);
    let plain_ns = (plain.wall_ns + replay(false).wall_ns) as f64 / 2.0;
    let spans = traced.tracer.spans();
    let selfs = self_times(spans);
    let counted = |name: &str| -> Vec<u64> {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name && s.req >= traced.first && s.req < traced.end)
            .map(|(_, &t)| t)
            .collect()
    };
    let requests = traced.end - traced.first;

    timing(
        out,
        "serve.frame_ns",
        "ns",
        1.0,
        &mut counted("serve.frame"),
    );
    timing(
        out,
        "serve.decode_ns",
        "ns",
        1.0,
        &mut counted("serve.decode"),
    );
    out.push(
        "serve.fast_ratio",
        ratio(traced.fast_ready, traced.oneshot_lines),
        "ratio",
    );
    out.push("serve.fast_base", traced.oneshot_lines as f64, "count");
    timing(
        out,
        "serve.encode_ns",
        "ns",
        1.0,
        &mut counted("serve.encode"),
    );
    let layer_ns: u64 = REQUEST_LAYERS
        .iter()
        .map(|l| counted(l).iter().sum::<u64>())
        .sum();
    let layer_mean_us = layer_ns as f64 / requests.max(1) as f64 / 1e3;
    let client_us = li.client.mean / 1e3;
    out.push("serve.unaccounted_us", client_us - layer_mean_us, "us");
    out.push("serve.client_mean_us", client_us, "us");
    out.push("serve.layer_sum_us", layer_mean_us, "us");

    let oneshot = counted("stream.oneshot");
    timing(out, "stream.oneshot_ns", "ns", 1.0, &mut oneshot.clone());
    timing(
        out,
        "stream.featurize_ns",
        "ns",
        1.0,
        &mut traced.featurize_ns.clone(),
    );
    timing(out, "stream.run_ns", "ns", 1.0, &mut traced.run_ns.clone());
    let (b, a) = traced.stats;
    let (hits, probes) = (
        a.pred_cache_hits - b.pred_cache_hits,
        (a.pred_cache_hits + a.pred_cache_misses) - (b.pred_cache_hits + b.pred_cache_misses),
    );
    out.push("stream.memo_hit_ratio", ratio(hits, probes), "ratio");
    out.push("stream.memo_probes", probes as f64, "count");
    let mut hit_ns: Vec<u64> = oneshot
        .iter()
        .zip(&traced.oneshot_hit)
        .filter(|(_, &h)| h)
        .map(|(&t, _)| t)
        .collect();
    timing(out, "stream.memo_hit_ns", "ns", 1.0, &mut hit_ns);
    out.push(
        "stream.memo_evictions",
        (a.pred_cache_evictions - b.pred_cache_evictions) as f64,
        "count",
    );
    out.push(
        "daemon.memo_hit_ratio",
        ratio(li.daemon_hits, li.daemon_probes),
        "ratio",
    );
    out.push("daemon.memo_probes", li.daemon_probes as f64, "count");
    if (hits, probes) != (li.daemon_hits, li.daemon_probes) {
        out.correct = false;
        out.notes.push(format!(
            "memo disagreement: replay {hits}/{probes} hits, daemon stats delta {}/{}",
            li.daemon_hits, li.daemon_probes
        ));
    }

    timing(
        out,
        "stream.admit_ns",
        "ns",
        1.0,
        &mut counted("stream.admit"),
    );
    timing(
        out,
        "stream.predict_root_ns",
        "ns",
        1.0,
        &mut counted("stream.predict_root"),
    );
    timing(
        out,
        "stream.retire_ns",
        "ns",
        1.0,
        &mut counted("stream.retire"),
    );
    let n_dedup = traced.dedup.len().max(1) as f64;
    out.push(
        "stream.dedup_ratio",
        traced.dedup.iter().map(|d| d.0).sum::<f64>() / n_dedup,
        "ratio",
    );
    out.push(
        "stream.dedup_base_rows",
        traced.dedup.iter().map(|d| d.1).sum::<f64>() / n_dedup,
        "count",
    );
    let lookups =
        (a.feat_cache_hits + a.feat_cache_misses) - (b.feat_cache_hits + b.feat_cache_misses);
    out.push(
        "stream.feat_hit_ratio",
        ratio(a.feat_cache_hits - b.feat_cache_hits, lookups),
        "ratio",
    );
    out.push("stream.feat_lookups", lookups as f64, "count");

    timing(out, "lower.ns", "ns", 1.0, &mut counted("lower"));
    let nodes = &traced.lowered_nodes;
    out.push(
        "lower.nodes_per_plan",
        nodes.iter().sum::<u64>() as f64 / nodes.len().max(1) as f64,
        "count",
    );

    let kr = traced.kernel_reqs.max(1) as f64;
    out.push("nn.flops_per_req", traced.flops / kr, "flop");
    out.push("nn.bytes_per_req", traced.bytes / kr, "B");
    out.push(
        "nn.gflops",
        if traced.kernel_ns == 0 {
            0.0
        } else {
            traced.flops / traced.kernel_ns as f64
        },
        "GFLOP/s",
    );
    out.push("nn.kernel_reqs", traced.kernel_reqs as f64, "count");

    let train = replay::train_layers();
    let tspans = train.tracer.spans();
    let tselfs = self_times(tspans);
    timing(
        out,
        "pool.dispatch_ns",
        "ns",
        1.0,
        &mut self_times_of(tspans, &tselfs, "pool.dispatch"),
    );
    out.push("pool.runs", train.pool_delta.runs as f64, "count");
    out.push("pool.parks", train.pool_delta.parks as f64, "count");
    out.push("pool.unparks", train.pool_delta.unparks as f64, "count");
    for (name, span) in [
        ("train.compile_ms", "train.compile"),
        ("train.forward_ms", "train.forward"),
        ("train.backward_ms", "train.backward"),
    ] {
        timing(
            out,
            name,
            "ms",
            1e6,
            &mut self_times_of(tspans, &tselfs, span),
        );
    }
    timing(
        out,
        "train.epoch_ms",
        "ms",
        1e6,
        &mut li
            .epoch_s
            .iter()
            .map(|s| (s * 1e9) as u64)
            .collect::<Vec<_>>(),
    );
    out.push("model.from_json_ms", li.from_json_ms, "ms");
    let mut gen: Vec<u64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(refit::dataset());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    timing(out, "plansim.generate_ms", "ms", 1e6, &mut gen);

    out.push(
        "loadgen.closed_p99_us",
        li.client.p99.or(li.client.tail).unwrap_or(0) as f64 / 1e3,
        "us",
    );
    out.push("loadgen.open_hi_p90_us", li.hi_p90_us, "us");
    out.push(
        "loadgen.open_hi_p99_us",
        li.hi_lat.p99.or(li.hi_lat.tail).unwrap_or(0) as f64 / 1e3,
        "us",
    );
    out.push("loadgen.lag_p50_us", li.hi_lag.p50 as f64 / 1e3, "us");
    out.push(
        "loadgen.lag_p99_us",
        li.hi_lag.p99.or(li.hi_lag.tail).unwrap_or(0) as f64 / 1e3,
        "us",
    );
    out.push("loadgen.cpu_s", li.cpu.1, "s");
    out.push("daemon.cpu_util", li.cpu.0, "ratio");
    let overhead = (traced.wall_ns as f64 - plain_ns) / requests.max(1) as f64;
    out.push("trace.overhead_ns", overhead, "ns");
    out.push("trace.spans", spans.len() as f64, "count");

    // One file per workload, overwritten by each traced run.
    let path = li
        .out_dir
        .join(format!("{}.spans.jsonl", li.traffic.workload.name()));
    let mut f = std::io::BufWriter::new(
        std::fs::File::create(&path).map_err(|e| format!("creating {}: {e}", path.display()))?,
    );
    traced
        .tracer
        .write_jsonl(&mut f)
        .map_err(|e| e.to_string())?;
    train
        .tracer
        .write_jsonl(&mut f)
        .map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut f).map_err(|e| e.to_string())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(rate: f64, p50_us: f64) -> Step {
        Step {
            rate,
            p50_us,
            backlog_us: 0.0,
        }
    }

    #[test]
    fn slo_interpolates_between_last_pass_and_the_miss_after_it() {
        // log-midpoint: p50 1000 → 4000 crosses 2000 halfway in log space.
        let steps = [
            step(100.0, 500.0),
            step(200.0, 1000.0),
            step(300.0, 4000.0),
            step(400.0, 5000.0),
        ];
        assert!((slo_rps(&steps, 2000.0) - 250.0).abs() < 1e-9);
        // One noisy miss below the knee does not end the search.
        let noisy = [
            step(100.0, 500.0),
            step(200.0, 3000.0),
            step(300.0, 1000.0),
            step(400.0, 4000.0),
        ];
        assert!((slo_rps(&noisy, 2000.0) - 350.0).abs() < 1e-9);
        // A growing backlog fails a step whose median alone would pass.
        let lagging = [
            step(100.0, 500.0),
            Step {
                rate: 200.0,
                p50_us: 1000.0,
                backlog_us: 8000.0,
            },
        ];
        assert!(slo_rps(&lagging, 2000.0) < 200.0);
        // A passing top step reports the top rate; no passing step
        // extrapolates down from the first.
        assert_eq!(
            slo_rps(&[step(100.0, 10.0), step(200.0, 20.0)], 2000.0),
            200.0
        );
        assert!((slo_rps(&[step(100.0, 4000.0), step(200.0, 8000.0)], 2000.0) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn backlog_is_read_from_every_connections_last_sends() {
        use crate::drive::{ConnLog, Phase};
        // Both connections fall 5 ms behind over their last two sends;
        // connection 1 was on time just before. The last tenth of the
        // lags concatenated would be connection 1's last four: [0, 0, 5, 5] ms.
        let conn = |lags: Vec<u64>| ConnLog {
            lat_ns: vec![100_000; lags.len()],
            lag_ns: lags,
            ..ConnLog::default()
        };
        let late = |early: u64| {
            let mut l = vec![early; 18];
            l.extend([5_000_000, 5_000_000]);
            l
        };
        let mut c1 = late(0);
        c1[16] = 0;
        let phase = Phase {
            name: "ladder".into(),
            conns: vec![conn(late(0)), conn(c1)],
        };
        let s = Step::of([&phase], 1000.0);
        assert_eq!(s.backlog_us, 5000.0);
        assert!(s.score(SLO_US) > 0.0, "a growing backlog misses the limit");
    }

    #[test]
    fn slo_moves_continuously_with_latency() {
        let at = |p: f64| slo_rps(&[step(100.0, 1000.0), step(200.0, p)], 2000.0);
        assert!(at(2001.0) > 199.0 && at(4000.0) > at(8000.0) && at(8000.0) > 100.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        o.push("latency_ms", 1.25, "ms");
        let v = serde_json::parse(&o.json()).unwrap();
        let m = v.as_object().unwrap();
        assert_eq!(
            m.keys().cloned().collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(
            o.json(),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"latency_ms":{"value":1.25,"unit":"ms"}}}"#
        );
    }
}
