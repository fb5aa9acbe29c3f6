//! End-to-end tests for the daemon's request decoder and its one-shot
//! fast path: the scratch request decoder must agree with the oracle
//! decoder (vendored parser + serde-derive semantics) on random mutated
//! wire lines of every verb, every one-shot reply line must be
//! **byte-identical** to the oracle encoder's line for the in-process
//! prediction (at 1 and 4 wavefront threads, 1 and 3 shards, over TCP
//! and unix sockets), and a warmed connection must serve sustained
//! one-shot predict load with **zero heap allocations**
//! (`ServeStats::steady_allocs`).
//!
//! The scratch decoder is the daemon's only decoder for accepted lines,
//! so the agreement is checked both ways: `Ready` means the oracle
//! accepts the line as the same request (verb, id, tenant, lowered
//! plan), and `Fallback` means the oracle rejects it — the daemon runs
//! the oracle only to word that error reply.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use qpp::net::serve::proto::{self, Request, Response};
use qpp::net::serve::scratch::{FastDecode, RequestScratch, Verb};
use qpp::net::serve::{
    validate_plan, Client, ErrorCode, ErrorReply, ServeAddr, ServeConfig, Server,
};
use qpp::net::{QppConfig, QppNet, ScratchPlan};
use qpp::plansim::prelude::*;

/// Shared fixture: a dataset (both workloads, for shape coverage) and a
/// small fitted model.
fn fixture() -> &'static (Dataset, QppNet) {
    static FIXTURE: OnceLock<(Dataset, QppNet)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 28, 31);
        let train: Vec<&Plan> = ds.plans.iter().collect();
        let mut model = QppNet::new(QppConfig { epochs: 2, ..QppConfig::tiny() }, &ds.catalog);
        model.fit(&train);
        (ds, model)
    })
}

/// One request of verb `pick % 6` (plan-carrying verbs carry `plan`).
fn request(pick: u8, plan: &PlanNode, keep: bool, id: u64) -> Request {
    let plan = Box::new(plan.clone());
    match pick % 6 {
        0 => Request::Admit { plan, tenant: None },
        1 => Request::Retire { id },
        2 => Request::Predict { id },
        3 => Request::AdmitPredict { plan, keep, tenant: None },
        4 => Request::Stats,
        _ => Request::Shutdown,
    }
}

/// The decode the scratch decoder owes a valid request.
fn verb_of(req: &Request) -> Verb {
    match *req {
        Request::Admit { .. } => Verb::Admit,
        Request::Retire { id } => Verb::Retire { id },
        Request::Predict { id } => Verb::Predict { id },
        Request::AdmitPredict { keep, .. } => Verb::AdmitPredict { keep },
        Request::Stats => Verb::Stats,
        Request::Shutdown => Verb::Shutdown,
    }
}

/// The oracle encoder's line for `req`, plus a hex `tenant` on any verb
/// (the oracle reads one on every verb) and, when `numeric_id`, the id
/// as a JSON number (which the oracle rejects).
fn request_line(req: &Request, tenant: Option<u64>, numeric_id: bool) -> String {
    let mut v = serde_json::parse(&proto::encode_request(req)).expect("encoder output parses");
    let m = v.as_object_mut().expect("requests are objects");
    if let Some(fp) = tenant {
        m.insert("tenant".into(), proto::encode_fingerprint(fp));
    }
    if let (true, Request::Retire { id } | Request::Predict { id }) = (numeric_id, req) {
        m.insert("id".into(), serde_json::Value::Number(*id as f64));
    }
    serde_json::to_string(&v).expect("request serializes")
}

/// One agreement check, both ways: `Ready` must match the oracle's
/// accept decision, verb, id, tenant and lowered plan, and `Fallback`
/// must mean the oracle rejects the line or its plan fails arity.
fn check_agreement(scratch: &mut RequestScratch, line: &str) {
    let oracle = proto::decode_request(line);
    let FastDecode::Ready { verb, tenant } = scratch.decode(line) else {
        match oracle {
            Err(_) => {}
            Ok(Request::Admit { plan, .. } | Request::AdmitPredict { plan, .. })
                if validate_plan(&plan).is_err() => {}
            Ok(req) => panic!("scratch fell back on a request the oracle accepts: {req:?} {line}"),
        }
        return;
    };
    let req =
        oracle.unwrap_or_else(|e| panic!("scratch Ready but oracle rejects [{:?}]: {line}", e.msg));
    let value = proto::parse_guarded(line).expect("the oracle parsed the line");
    let oracle_tenant = value.as_object().and_then(|m| m.get("tenant"));
    let oracle_tenant = oracle_tenant.map(|t| proto::decode_fingerprint(t).expect("valid tenant"));
    assert_eq!(tenant, oracle_tenant, "tenant mismatch on {line}");
    assert_eq!(verb, verb_of(&req), "verb or id mismatch on {line}");
    let (Request::Admit { plan, .. } | Request::AdmitPredict { plan, .. }) = req else {
        return;
    };
    let reference = ScratchPlan::from_tree(&plan);
    let got = scratch.plan();
    assert_eq!(got.len(), reference.len(), "node count diverged on {line}");
    assert_eq!(got.kinds(), reference.kinds(), "kinds diverged on {line}");
    assert_eq!(got.nodes(), reference.nodes(), "nodes diverged on {line}");
    for k in 0..got.len() {
        assert_eq!(
            got.lowering().children_of(k),
            reference.lowering().children_of(k),
            "children of {k} diverged on {line}"
        );
    }
    assert_eq!(got.shard_hash(), reference.shard_hash(), "content hash diverged on {line}");
    assert!(validate_plan(&plan).is_ok(), "scratch Ready on invalid arity: {line}");
}

/// Applies one structured mutation to an ASCII wire line.
fn mutate(line: &mut String, pos: usize, byte: u8, kind: u8) {
    const SNIPPETS: &[&str] = &[
        r#"A"#,
        r#"\ud800"#,
        r#""op":"admit_predict","#,
        r#""op":"admit","#,
        r#""op":"predict","#,
        r#""op":"stats","#,
        r#""keep":true,"#,
        r#""keep":null,"#,
        r#""id":"42","#,
        r#""id":42,"#,
        r#""id":"+9","#,
        r#""tenant":"ff","#,
        r#""tenant":"g","#,
        r#""children":[],"#,
        "00",
        ".5e3",
        "{{",
        "]]",
        r#"\q"#,
        r#""v":1,"#,
        "null",
    ];
    if line.is_empty() {
        return;
    }
    let pos = pos % line.len();
    match kind {
        // Truncate.
        0 => line.truncate(pos),
        // Replace one byte with a printable hostile byte.
        1 => {
            let hostile = b"\"\\{}[]:,0e-+.untf 19x";
            let b = hostile[byte as usize % hostile.len()] as char;
            line.replace_range(pos..pos + 1, &b.to_string());
        }
        // Insert a hostile snippet.
        2 => line.insert_str(pos, SNIPPETS[byte as usize % SNIPPETS.len()]),
        // Duplicate a short region in place (duplicate-key pressure).
        3 => {
            let end = (pos + 1 + byte as usize % 24).min(line.len());
            let dup = line[pos..end].to_string();
            line.insert_str(end, &dup);
        }
        // Delete one byte.
        4 => {
            line.remove(pos);
        }
        // Leave as-is (exercises the pristine accept path post-shrink).
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random mutations of real wire lines of all six verbs — with and
    /// without a tenant, `keep` true and false, string ids across the
    /// full u64 range and numeric ids: the scratch decoder and the
    /// oracle must never disagree, and one warm `RequestScratch` reused
    /// across hostile inputs must never carry state over.
    #[test]
    fn scratch_decoder_agrees_with_oracle_under_mutation(
        pick in any::<usize>(),
        verb in any::<u8>(),
        keep in any::<bool>(),
        id in any::<u64>(),
        numeric_id in any::<bool>(),
        tenant_bits in any::<u64>(),
        has_tenant in any::<bool>(),
        muts in prop::collection::vec((any::<usize>(), any::<u8>(), 0u8..6), 0..4),
    ) {
        let tenant = has_tenant.then_some(tenant_bits);
        let (ds, _) = fixture();
        let req = request(verb, &ds.plans[pick % ds.plans.len()].root, keep, id);
        let mut line = request_line(&req, tenant, numeric_id);
        let mut scratch = RequestScratch::new();
        // The pristine line first (warms the scratch), then the mutants
        // through the SAME scratch: correctness must not depend on
        // starting clean.
        check_agreement(&mut scratch, &line);
        for (pos, byte, kind) in muts {
            mutate(&mut line, pos, byte, kind);
            check_agreement(&mut scratch, &line);
        }
    }

    /// Coverage guard against an over-conservative decoder: every
    /// pristine line of every verb (any tenant, `keep`, string id) must
    /// decode, with the lowered plan matching a from-tree rebuild.
    #[test]
    fn pristine_oneshot_lines_always_take_the_fast_path(
        pick in any::<usize>(),
        verb in any::<u8>(),
        keep in any::<bool>(),
        id in any::<u64>(),
        tenant_bits in any::<u64>(),
        has_tenant in any::<bool>(),
    ) {
        let tenant = has_tenant.then_some(tenant_bits);
        let (ds, _) = fixture();
        let req = request(verb, &ds.plans[pick % ds.plans.len()].root, keep, id);
        let line = request_line(&req, tenant, false);
        let mut scratch = RequestScratch::new();
        let got = scratch.decode(&line);
        prop_assert_eq!(got, FastDecode::Ready { verb: verb_of(&req), tenant }, "fell back on {}", line);
        check_agreement(&mut scratch, &line);
    }
}

/// A raw line-level client over TCP or unix sockets: writes request
/// lines verbatim and returns reply lines verbatim, so replies can be
/// compared byte-for-byte.
struct RawClient {
    w: Box<dyn Write>,
    r: BufReader<Box<dyn Read>>,
}

impl RawClient {
    fn connect(addr: &ServeAddr) -> RawClient {
        match addr {
            ServeAddr::Tcp(a) => {
                let s = TcpStream::connect(a).expect("connect tcp");
                s.set_nodelay(true).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                RawClient { r: BufReader::new(Box::new(s.try_clone().unwrap())), w: Box::new(s) }
            }
            #[cfg(unix)]
            ServeAddr::Unix(p) => {
                let s = UnixStream::connect(p).expect("connect unix");
                s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                RawClient { r: BufReader::new(Box::new(s.try_clone().unwrap())), w: Box::new(s) }
            }
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.w.write_all(line.as_bytes()).expect("send");
        self.w.write_all(b"\n").expect("send nl");
        let mut reply = String::new();
        self.r.read_line(&mut reply).expect("reply");
        assert!(reply.ends_with('\n'), "unterminated reply to {line}");
        reply
    }
}

fn tcp() -> ServeAddr {
    ServeAddr::parse("127.0.0.1:0").unwrap()
}

/// Spawns a server over the shared model on `addr`, runs `body` against
/// it, then shuts it down.
fn with_server<T>(addr: &ServeAddr, cfg: ServeConfig, body: impl FnOnce(&ServeAddr) -> T) -> T {
    let (_, model) = fixture();
    let mut server = Server::bind(addr, cfg).expect("bind");
    server.register(model);
    let addr = server.local_addr().clone();
    std::thread::scope(|scope| {
        let server = &server;
        scope.spawn(move || server.run().expect("server run"));
        // A failed check must stop the daemon, or the scope never joins.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&addr)))
            .unwrap_or_else(|panic| {
                server.request_shutdown();
                std::panic::resume_unwind(panic)
            });
        let mut ctl = Client::connect(&addr).expect("control");
        ctl.shutdown().expect("shutdown");
        out
    })
}

/// The reply line the daemon must send for `resp`.
fn wire(resp: &Response) -> String {
    proto::encode_response(resp) + "\n"
}

/// Fast-path replies are byte-identical to what the general (slow)
/// path writes: every one-shot reply line equals the oracle encoder's
/// line for the latency an in-process admit → predict_root → retire
/// produces (a path that never probes the memo), first sends and memo
/// hits alike. The same plan sent `keep:true` through the general path
/// returns the same latency bits, and lines the fast path cannot take
/// get the oracle decoder's error replies. Parameterised over 1 and 4
/// wavefront threads, 1 and 3 shards, TCP and unix sockets.
#[test]
fn fast_path_replies_are_byte_identical_to_slow_path() {
    let (ds, model) = fixture();
    let fp = model.fingerprint().expect("fitted model has a fingerprint");
    let mut addrs = vec![("tcp", tcp())];
    #[cfg(unix)]
    addrs.push((
        "unix",
        ServeAddr::Unix(
            std::env::temp_dir().join(format!("qpp_serve_scratch_{}.sock", std::process::id())),
        ),
    ));

    // Eligible one-shot lines (both tenant spellings) and the oracle's
    // latency for each.
    const PLANS: usize = 8;
    const ROUNDS: usize = 10;
    let mut oracle = model.serve_stream();
    let oneshots: Vec<(String, f64)> = ds.plans[..PLANS]
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let line = proto::encode_request(&Request::AdmitPredict {
                plan: Box::new(plan.root.clone()),
                keep: false,
                tenant: (i % 2 == 0).then_some(fp),
            });
            let pid = oracle.admit(&plan.root);
            let latency_ms = oracle.predict_root(pid);
            oracle.retire(pid);
            (line, latency_ms)
        })
        .collect();

    // Lines the one-shot path must not serve, with the reply the daemon
    // gives: an unknown tenant, a plan of bad arity, and the oracle's
    // wording for lines it rejects.
    let arity_bad = r#"{"v":1,"op":"admit_predict","plan":{"op":"Materialize","est":{"width":1,"rows":1,"buffers":0,"ios":0,"total_cost":1,"selectivity":1},"actual":{"rows":1,"latency_ms":1,"self_latency_ms":1},"children":[]}}"#;
    let Ok(Request::AdmitPredict { plan: bad_plan, .. }) = proto::decode_request(arity_bad) else {
        panic!("the arity line decodes")
    };
    let arity_why = validate_plan(&bad_plan).expect_err("Materialize needs a child");
    let mut fallbacks: Vec<(String, Response)> = vec![
        (
            proto::encode_request(&Request::AdmitPredict {
                plan: Box::new(ds.plans[1].root.clone()),
                keep: false,
                tenant: Some(fp ^ 1),
            }),
            Response::Error(ErrorReply::new(
                ErrorCode::UnknownTenant,
                format!("no tenant with fingerprint {:016x}", fp ^ 1),
            )),
        ),
        (
            arity_bad.to_string(),
            Response::Error(ErrorReply::new(ErrorCode::InvalidPlan, arity_why)),
        ),
    ];
    for bad in [
        r#"{"v":1,"op":"admit_predict"}"#,
        r#"{"v":2,"op":"admit_predict","plan":null}"#,
        r#"{"v":1,"op":"noop"}"#,
        r#"{"v":1,"op":"predict","id":7}"#,
        "not json at all",
        r#"{"v":1,"op":"admit_predict","plan":[1,2],"keep":false}"#,
    ] {
        let err = proto::decode_request(bad).expect_err("hostile line is rejected");
        fallbacks.push((bad.to_string(), Response::Error(err)));
    }

    for (transport, addr) in &addrs {
        for threads in [1usize, 4] {
            for shards in [1usize, 3] {
                let leg = format!("{transport} threads={threads} shards={shards}");
                let cfg = ServeConfig { threads, shards, ..ServeConfig::default() };
                with_server(addr, cfg, |addr| {
                    let mut raw = RawClient::connect(addr);
                    // Rounds past the first are memo hits; together they
                    // run the connection past its allocation warmup.
                    for _ in 0..ROUNDS {
                        for &(ref line, latency_ms) in &oneshots {
                            let want = wire(&Response::Predicted { id: None, latency_ms });
                            assert_eq!(raw.roundtrip(line), want, "{leg}: one-shot {line}");
                        }
                    }
                    // The same plan kept resident through the general path.
                    let kept = proto::encode_request(&Request::AdmitPredict {
                        plan: Box::new(ds.plans[0].root.clone()),
                        keep: true,
                        tenant: None,
                    });
                    let Ok(Response::Predicted { id: Some(_), latency_ms }) =
                        proto::decode_response(raw.roundtrip(&kept).trim_end())
                    else {
                        panic!("{leg}: kept admit_predict must reply with an id")
                    };
                    let fast = oneshots[0].1;
                    assert_eq!(latency_ms.to_bits(), fast.to_bits(), "{leg}: keep:true bits");
                    for (line, want) in &fallbacks {
                        assert_eq!(raw.roundtrip(line), wire(want), "{leg}: fallback {line}");
                    }

                    let stats = Client::connect(addr).expect("control").stats().expect("stats");
                    let sent = (PLANS * ROUNDS) as u64;
                    assert_eq!(stats.fast_path_predicted, sent, "{leg}: fast-path count");
                    assert_eq!(stats.cache_misses, PLANS as u64, "{leg}: one miss per plan");
                    assert_eq!(stats.cache_hits, sent - PLANS as u64, "{leg}: repeats hit");
                    assert_eq!(stats.steady_allocs, 0, "{leg}: steady state allocated");
                });
            }
        }
    }
}

/// Sustained one-shot predict load on a warmed connection allocates
/// nothing: after `FAST_WARMUP` requests per connection, the measured
/// per-request allocation delta (read → decode → run → reply write)
/// must stay exactly zero. Checked at 1 and 4 wavefront threads, and
/// with 4 concurrent connections.
#[test]
fn steady_state_fast_path_is_allocation_free() {
    for (threads, conns) in [(1usize, 1usize), (4, 4)] {
        let cfg = ServeConfig { threads, ..ServeConfig::default() };
        with_server(&tcp(), cfg, |addr| {
            std::thread::scope(|scope| {
                for c in 0..conns {
                    let addr = addr.clone();
                    scope.spawn(move || {
                        let (ds, _) = fixture();
                        let mut client = Client::connect(&addr).expect("connect");
                        client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                        // A fixed 8-plan mix, cycled well past the
                        // 64-request warmup window.
                        for i in 0..200usize {
                            let plan = &ds.plans[(c + i) % 8].root;
                            let (id, latency) =
                                client.admit_predict(plan, false).expect("predict");
                            assert!(id.is_none() && latency.is_finite());
                        }
                    });
                }
            });
            let mut ctl = Client::connect(addr).expect("control");
            let stats = ctl.stats().expect("stats");
            assert_eq!(stats.connections, conns as u64 + 1, "every client plus this control one");
            assert_eq!(
                stats.fast_path_predicted,
                200 * conns as u64,
                "threads={threads}: every one-shot must take the fast path"
            );
            assert_eq!(
                stats.steady_allocs, 0,
                "threads={threads} conns={conns}: steady-state fast path allocated"
            );
            // The per-phase clocks must actually tick.
            assert!(stats.parse_ns > 0, "parse_ns never accumulated");
            assert!(stats.featurize_ns > 0, "featurize_ns never accumulated");
            assert!(stats.run_ns > 0, "run_ns never accumulated");
            assert!(stats.serialize_ns > 0, "serialize_ns never accumulated");
        });
    }
}
