//! The repository's benchmark: `qpp serve` under templated, all-distinct
//! and session traffic, the paper-tier refit, and a traced per-layer
//! replay.
//!
//! Each run spawns the real `qpp serve` binary as its own process and
//! drives it from this process with two client connections on two
//! threads. During the timed phases the generator runs on one CPU and
//! the daemon on the others (one, on the 2-core host; see
//! [`daemon::CpuSplit`]); for the whole run, idle-priority spinners keep
//! the CPUs from halting ([`daemon::IdleSpin`]). The paper-tier refit runs in process in
//! every set-up: its throughput and held-out error are end-to-end
//! metrics. A traced run replays the same generated inputs in process
//! through one public entry point per layer.
//!
//! ```text
//! perfbench --workload serve_zipf|serve_sessions --seed N
//!           --seconds S --trace 0|1 --qpp PATH [--out DIR]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`; the lines
//! before it give provenance (git revision, dirty flag, cores, kernel
//! tier, seed) and per-phase sent/succeeded/failed counts.

pub mod bench;
pub mod check;
pub mod daemon;
pub mod drive;
pub mod refit;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod traffic;
