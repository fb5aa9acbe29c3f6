//! Fault injection for the daemon's wire layer: every malformed input —
//! broken JSON, unknown verbs, oversized lines, numeric ids, bogus
//! tenants, invalid plans, mid-request disconnects — must produce a
//! structured error reply (or a clean drop) while the daemon keeps
//! serving every other client, and a poisoned resident-executor run
//! must not wedge the accept loop.

use std::io::Write;
use std::sync::OnceLock;
use std::time::Duration;

use qpp::net::serve::proto;
use qpp::net::serve::{Client, ClientError, ErrorCode, ServeAddr, ServeConfig, Server};
use qpp::net::{QppConfig, QppNet};
use qpp::plansim::operators::Operator;
use qpp::plansim::plan::PlanNode;
use qpp::plansim::prelude::*;

fn fixture() -> &'static (Dataset, QppNet) {
    static FIXTURE: OnceLock<(Dataset, QppNet)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 16, 21);
        let train: Vec<&Plan> = ds.plans.iter().collect();
        let mut model = QppNet::new(QppConfig { epochs: 2, ..QppConfig::tiny() }, &ds.catalog);
        model.fit(&train);
        (ds, model)
    })
}

/// Starts a daemon on loopback and runs `body` against it, shutting
/// down cleanly afterwards — also when `body` panics, so a failed
/// assertion fails the test instead of leaving the daemon running.
fn with_server(cfg: ServeConfig, body: impl FnOnce(&ServeAddr)) {
    let (_, model) = fixture();
    let mut server = Server::bind(&ServeAddr::parse("127.0.0.1:0").unwrap(), cfg).expect("bind");
    server.register(model);
    let addr = server.local_addr().clone();
    std::thread::scope(|scope| {
        let server = &server;
        scope.spawn(move || server.run().expect("server run"));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&addr)));
        let mut ctl = Client::connect(&addr).expect("control connect");
        ctl.set_timeout(Some(Duration::from_secs(10))).unwrap();
        ctl.shutdown().expect("clean shutdown");
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
}

fn expect_error(client: &mut Client, raw: &str, want: ErrorCode) {
    client.send_raw(raw).expect("send");
    match client.recv().expect("reply after bad input") {
        qpp::net::serve::Response::Error(e) => {
            assert_eq!(e.code, want, "for input {raw:?}: got [{}] {}", e.code.as_str(), e.msg)
        }
        other => panic!("expected {want:?} error for {raw:?}, got {other:?}"),
    }
}

/// A healthy request must still succeed on the *same* connection after
/// each kind of garbage — the error replies resynchronize the stream.
#[test]
fn malformed_inputs_get_structured_errors_and_connection_survives() {
    let (ds, _) = fixture();
    with_server(ServeConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();

        // Broken JSON.
        expect_error(&mut client, "{not json", ErrorCode::Parse);
        // Valid JSON, not an object.
        expect_error(&mut client, "[1,2,3]", ErrorCode::BadRequest);
        // Missing version.
        expect_error(&mut client, r#"{"op":"stats"}"#, ErrorCode::BadRequest);
        // Wrong version.
        expect_error(&mut client, r#"{"v":99,"op":"stats"}"#, ErrorCode::BadRequest);
        // Unknown verb.
        expect_error(&mut client, r#"{"v":1,"op":"explode"}"#, ErrorCode::UnknownOp);
        // Numeric id: the u64-precision pin.
        expect_error(&mut client, r#"{"v":1,"op":"predict","id":7}"#, ErrorCode::BadRequest);
        // Unknown (string-coded) id.
        expect_error(&mut client, r#"{"v":1,"op":"predict","id":"999"}"#, ErrorCode::UnknownId);
        expect_error(&mut client, r#"{"v":1,"op":"retire","id":"999"}"#, ErrorCode::UnknownId);
        // Unknown tenant fingerprint.
        let plan_json = serde_json::to_string(&ds.plans[0].root).unwrap();
        expect_error(
            &mut client,
            &format!(r#"{{"v":1,"op":"admit","plan":{plan_json},"tenant":"00000000deadbeef"}}"#),
            ErrorCode::UnknownTenant,
        );
        // Non-hex tenant.
        expect_error(
            &mut client,
            &format!(r#"{{"v":1,"op":"admit","plan":{plan_json},"tenant":"xyz"}}"#),
            ErrorCode::BadRequest,
        );
        // Plan that is not a plan.
        expect_error(&mut client, r#"{"v":1,"op":"admit","plan":{"bogus":1}}"#, ErrorCode::InvalidPlan);
        // Nesting bomb: rejected by the depth guard, not a stack overflow.
        let bomb = format!(r#"{{"v":1,"op":"admit","plan":{}1{}}}"#, "[".repeat(600), "]".repeat(600));
        expect_error(&mut client, &bomb, ErrorCode::Parse);

        // The connection is still healthy: a real request round-trips.
        let (_, latency) = client.admit_predict(&ds.plans[0].root, false).expect("still serving");
        assert!(latency.is_finite());
    });
}

/// A structurally valid plan tree with a wrong child count must be
/// rejected as `invalid_plan` by pre-admission validation — the
/// `ProgramBuilder::admit` panic path must never fire.
#[test]
fn arity_violation_is_rejected_before_touching_the_stream() {
    let (ds, _) = fixture();
    with_server(ServeConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();

        // Materialize has arity 1; give it zero children.
        let malformed = PlanNode::new(Operator::Materialize, vec![]);
        match client.admit(&malformed) {
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, ErrorCode::InvalidPlan);
                assert!(e.msg.contains("Materialize"), "diagnostic names the family: {}", e.msg);
            }
            other => panic!("expected invalid_plan, got {other:?}"),
        }
        // Same through the coalescing path.
        match client.admit_predict(&malformed, false) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::InvalidPlan),
            other => panic!("expected invalid_plan via admit_predict, got {other:?}"),
        }

        // Stream state is untouched: healthy traffic still works and
        // nothing is resident.
        let (_, latency) = client.admit_predict(&ds.plans[1].root, false).expect("healthy");
        assert!(latency.is_finite());
        let stats = client.stats().expect("stats");
        assert_eq!(stats.resident_plans, 0);
    });
}

/// Oversized lines: one `line_too_long` reply, then normal service on
/// the same connection (the framing layer discards to the newline).
#[test]
fn oversized_line_resyncs_the_connection() {
    let (ds, _) = fixture();
    let cfg = ServeConfig { max_line: 4096, ..ServeConfig::default() };
    with_server(cfg, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();

        let huge = format!(r#"{{"v":1,"op":"stats","pad":"{}"}}"#, "x".repeat(16_384));
        expect_error(&mut client, &huge, ErrorCode::LineTooLong);
        // Next request on the same connection parses fine.
        let (_, latency) = client.admit_predict(&ds.plans[2].root, false).expect("resynced");
        assert!(latency.is_finite());
    });
}

/// A line just under the default 1 MiB cap whose `plan` is a string: the
/// scratch decoder declines it, and the daemon re-parses it once to word
/// the error reply. That parse must be linear in the line (a few ms in
/// release); a scan that re-validates the rest of the line per character
/// took tens of seconds here. The bound is far above the linear cost and
/// far below the quadratic one. Meanwhile a second client keeps getting
/// bit-identical service.
#[test]
fn megabyte_declined_line_is_answered_promptly_while_others_are_served() {
    let (ds, _) = fixture();
    with_server(ServeConfig::default(), |addr| {
        let mut healthy = Client::connect(addr).expect("healthy connect");
        healthy.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let before = healthy.admit_predict(&ds.plans[1].root, false).expect("before").1;

        let head = r#"{"v":1,"op":"admit_predict","plan":""#;
        let tail = r#"","keep":false}"#;
        let body = "plan é ✓ ".repeat((qpp::net::serve::MAX_LINE_DEFAULT - 4096) / 12);
        let line = format!("{head}{body}{tail}");
        assert!(line.len() > 1_000_000 && line.len() < qpp::net::serve::MAX_LINE_DEFAULT);

        std::thread::scope(|scope| {
            let big = scope.spawn(|| {
                let mut client = Client::connect(addr).expect("connect");
                client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                let started = std::time::Instant::now();
                expect_error(&mut client, &line, ErrorCode::InvalidPlan);
                started.elapsed()
            });
            let mut served = 0;
            while !big.is_finished() || served == 0 {
                let again = healthy.admit_predict(&ds.plans[1].root, false).expect("during").1;
                assert_eq!(before.to_bits(), again.to_bits(), "service disturbed by the big line");
                served += 1;
            }
            let took = big.join().expect("big-line client");
            assert!(took < Duration::from_secs(3), "declined 1 MiB line answered after {took:?}");
        });
    });
}

/// A client vanishing mid-request (partial line, no newline, socket
/// closed) must be a clean drop — and concurrent clients keep serving.
#[test]
fn mid_request_disconnect_does_not_disturb_other_clients() {
    let (ds, _) = fixture();
    with_server(ServeConfig::default(), |addr| {
        let mut healthy = Client::connect(addr).expect("healthy connect");
        healthy.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let before = healthy.admit_predict(&ds.plans[0].root, false).expect("before").1;

        // Write half a request and slam the connection shut.
        for _ in 0..3 {
            let mut rude = std::net::TcpStream::connect(match addr {
                ServeAddr::Tcp(a) => a,
                #[cfg(unix)]
                _ => unreachable!("loopback test"),
            })
            .expect("rude connect");
            rude.write_all(br#"{"v":1,"op":"admit","plan":{"op":"#).expect("partial write");
            drop(rude); // no newline ever arrives
        }
        // Also: a full line then an abrupt close before reading the reply.
        let mut half = Client::connect(addr).expect("half connect");
        half.send_raw(r#"{"v":1,"op":"stats"}"#).expect("send");
        drop(half);

        // The healthy client still gets bit-identical service.
        let after = healthy.admit_predict(&ds.plans[0].root, false).expect("after").1;
        assert_eq!(before.to_bits(), after.to_bits(), "service disturbed by rude clients");
    });
}

/// PR 3/6 contract regression: a panicked (poisoned) run on the shared
/// resident executor must leave the daemon fully serviceable — the
/// accept loop takes new connections and predictions are unchanged.
#[test]
fn poisoned_executor_run_does_not_wedge_the_daemon() {
    let (ds, _) = fixture();
    with_server(ServeConfig { threads: 4, ..ServeConfig::default() }, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let before = client.admit_predict(&ds.plans[3].root, false).expect("before").1;

        // Poison a run on the same process-wide pool the daemon uses.
        let poisoned = std::panic::catch_unwind(|| {
            qpp::nn::Executor::global().run(4, &|worker, _| {
                if worker == 2 {
                    panic!("injected poison");
                }
            });
        });
        assert!(poisoned.is_err(), "the injected panic must reach the caller");

        // Fresh connection (exercises the accept loop) + same bits.
        let mut fresh = Client::connect(addr).expect("post-poison connect");
        fresh.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let after = fresh.admit_predict(&ds.plans[3].root, false).expect("after").1;
        assert_eq!(before.to_bits(), after.to_bits(), "daemon degraded after poisoned run");
    });
}

/// Empty lines are ignored; whitespace-only lines too. A request with
/// trailing whitespace still parses.
#[test]
fn blank_lines_are_tolerated() {
    with_server(ServeConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();
        client.send_raw("").expect("blank");
        client.send_raw("   ").expect("spaces");
        client.send_raw(&proto::encode_request(&qpp::net::serve::Request::Stats)).expect("stats");
        match client.recv().expect("reply") {
            qpp::net::serve::Response::Stats(_) => {}
            other => panic!("expected stats, got {other:?}"),
        }
    });
}
