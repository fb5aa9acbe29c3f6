//! The `qpp` CLI accepts exactly the flags each subcommand reads: any
//! other flag is a usage error that names it (exit 2), never a silently
//! ignored option.

use std::process::{Command, Output};

fn qpp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qpp")).args(args).output().expect("running qpp")
}

/// Asserts that `args` fail with a usage error naming `flag`.
fn rejects(args: &[&str], flag: &str) {
    let out = qpp(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "`qpp {}` must fail", args.join(" "));
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2: {stderr}");
    assert!(
        stderr.contains(&format!("unknown flag `{flag}`")),
        "`qpp {}` must name {flag}: {stderr}",
        args.join(" ")
    );
}

#[test]
fn serve_rejects_removed_and_misspelled_flags() {
    // Removed daemon modes: the memo and the fast path are always on.
    rejects(&["serve", "--cache", "0"], "--cache");
    rejects(&["serve", "--model", "m.json", "--fast-path", "0"], "--fast-path");
    rejects(&["serve", "--burst", "8"], "--burst");
    rejects(&["serve", "--burst-wait-us", "200"], "--burst-wait-us");
    // A misspelling must not fall back to the default shard count.
    rejects(&["serve", "--shard", "4"], "--shard");
}

#[test]
fn engine_flags_are_gone_from_predict_and_train() {
    rejects(&["predict", "--input", "ds.json", "--engine", "classes"], "--engine");
    rejects(&["train", "--dataset", "ds.json", "--train-engine", "classes"], "--train-engine");
}

#[test]
fn flags_are_checked_per_subcommand() {
    // `--stream` belongs to `predict`, not to `evaluate`.
    rejects(&["evaluate", "--stream", "16"], "--stream");
    let out = qpp(&["explain", "--query", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr.contains("missing --dataset"), "accepted flags still parse: {stderr}");
}
