//! Differential tests for the whole-plan prediction memo
//! (`qppnet::stream::PredictionCache`): the daemon, whose one-shot
//! predictions consult the memo, must emit reply lines
//! **byte-identical** to an in-process oracle that never probes it —
//! one `ProgramBuilder` per tenant replaying the same random admit /
//! retire / predict / admit_predict interleaving, with every one-shot
//! served as admit → predict_root → retire — at 1 and 4 wavefront
//! threads, 1 to 3 shards, over TCP loopback and unix sockets, single-
//! and multi-tenant, clamped and unclamped.
//!
//! Why byte-equality is the right bar: a memo hit replays an `f64`
//! produced by a bitwise-identical earlier run, and the wire encoder
//! prints shortest-round-trip `f64`s — so any divergence at all means
//! the memo returned a value a fresh run would not have produced
//! (a false positive, or a stale entry leaking across tenants).
//!
//! Also here: the eviction-cap bound (a never-repeating plan stream
//! cannot grow the memo past its entry cap) and the zero-allocation
//! regression extended to the hit path (steady-state fast-path load
//! with the memo ON still allocates nothing — hits included).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use qpp::net::serve::proto::{self, Request, Response};
use qpp::net::serve::{Client, ServeAddr, ServeConfig, Server};
use qpp::net::{PlanId, ProgramBuilder, QppConfig, QppNet, ScratchPlan};
use qpp::plansim::prelude::*;
use rand::{Rng, SeedableRng};

/// Shared fixture: one dataset plus a clamped and an unclamped fitted
/// model. The extra epoch on the unclamped model makes the two
/// fingerprints differ, which the multi-tenant leg relies on.
fn fixture() -> &'static (Dataset, QppNet, QppNet) {
    static FIXTURE: OnceLock<(Dataset, QppNet, QppNet)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = Dataset::generate(Workload::TpcDs, 1.0, 20, 11);
        let train: Vec<&Plan> = ds.plans.iter().collect();
        let mut clamped = QppNet::new(
            QppConfig { epochs: 2, monotone_clamp: true, ..QppConfig::tiny() },
            &ds.catalog,
        );
        clamped.fit(&train);
        let mut unclamped = QppNet::new(
            QppConfig { epochs: 3, monotone_clamp: false, ..QppConfig::tiny() },
            &ds.catalog,
        );
        unclamped.fit(&train);
        (ds, clamped, unclamped)
    })
}

/// A raw line-level client over TCP or unix sockets: writes request
/// lines verbatim and returns reply lines verbatim, so replies can be
/// compared byte-for-byte across daemons.
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

/// The reply line the daemon must send for `resp`.
fn wire(resp: &Response) -> String {
    proto::encode_response(resp) + "\n"
}

/// The in-process oracle: one sequential builder per tenant, the wire
/// ids the daemon allocates (1, 2, ... across all tenants) and the
/// residency map. It never touches the prediction memo.
struct Oracle<'m> {
    builders: Vec<(u64, ProgramBuilder<'m>)>,
    resident: Vec<(u64, u64, PlanId)>,
    next_id: u64,
}

impl<'m> Oracle<'m> {
    fn builder(&mut self, fp: u64) -> &mut ProgramBuilder<'m> {
        &mut self.builders.iter_mut().find(|(f, _)| *f == fp).expect("registered tenant").1
    }

    fn admit(&mut self, fp: u64, plan: &PlanNode) -> (u64, PlanId) {
        let pid = self.builder(fp).admit(plan);
        let id = self.next_id;
        self.next_id += 1;
        self.resident.push((id, fp, pid));
        (id, pid)
    }

    fn oneshot(&mut self, fp: u64, plan: &PlanNode) -> f64 {
        let b = self.builder(fp);
        let pid = b.admit(plan);
        let latency_ms = b.predict_root(pid);
        b.retire(pid);
        latency_ms
    }
}

/// One leg: drives a seeded random interleaving through a fresh daemon
/// and asserts every reply line equals the oracle's, byte for byte.
/// Returns the daemon's final stats.
fn replies_match_oracle(
    addr: &ServeAddr,
    cfg: ServeConfig,
    multi_tenant: bool,
    seed: u64,
    ops: usize,
) -> proto::ServeStats {
    let (ds, clamped_model, unclamped_model) = fixture();
    let mut server = Server::bind(addr, cfg).expect("bind");
    let fp_a = server.register(clamped_model);
    let fp_b = multi_tenant.then(|| server.register(unclamped_model));
    let addr = server.local_addr().clone();
    let mut oracle = Oracle {
        builders: vec![(fp_a, clamped_model.serve_stream())],
        resident: Vec::new(),
        next_id: 1,
    };
    if let Some(fp_b) = fp_b {
        oracle.builders.push((fp_b, unclamped_model.serve_stream()));
    }

    std::thread::scope(|scope| {
        let server = &server;
        scope.spawn(move || server.run().expect("server run"));
        // A failed check must stop the daemon, or the scope never joins.
        let drive = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut raw = RawClient::connect(&addr);
            let mut check = |req: &Request, expected: Response| {
                let line = proto::encode_request(req);
                assert_eq!(raw.roundtrip(&line), wire(&expected), "seed={seed}: request {line}");
            };
            // A seeded interleaving over a small plan pool: repeats are the
            // point — they are what the memo serves.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xCACE);
            let pool = 6usize.min(ds.plans.len());
            for _ in 0..ops {
                let root = &ds.plans[rng.gen_range(0..pool)].root;
                let plan = Box::new(root.clone());
                let tenant = match (multi_tenant, rng.gen_range(0..3u32)) {
                    (true, 0) => Some(fp_a),
                    (true, 1) => fp_b,
                    _ => None,
                };
                let fp = tenant.unwrap_or(fp_a);
                match rng.gen_range(0..8u32) {
                    // Admit into residency (repeats allowed — CSE-heavy).
                    0 | 1 => {
                        let (id, _) = oracle.admit(fp, root);
                        check(&Request::Admit { plan, tenant }, Response::Admitted { id });
                    }
                    // Retire a random resident plan.
                    2 if !oracle.resident.is_empty() => {
                        let k = rng.gen_range(0..oracle.resident.len());
                        let (id, fp, pid) = oracle.resident.remove(k);
                        oracle.builder(fp).retire(pid);
                        check(&Request::Retire { id }, Response::Retired { id });
                    }
                    // Predict a random resident plan.
                    3 if !oracle.resident.is_empty() => {
                        let k = rng.gen_range(0..oracle.resident.len());
                        let (id, fp, pid) = oracle.resident[k];
                        let latency_ms = oracle.builder(fp).predict_root(pid);
                        let want = Response::Predicted { id: Some(id), latency_ms };
                        check(&Request::Predict { id }, want);
                    }
                    // Kept admit_predict: admits residency, reply carries id.
                    7 => {
                        let (id, pid) = oracle.admit(fp, root);
                        let latency_ms = oracle.builder(fp).predict_root(pid);
                        check(
                            &Request::AdmitPredict { plan, keep: true, tenant },
                            Response::Predicted { id: Some(id), latency_ms },
                        );
                    }
                    // One-shot admit_predict — the memo's surface.
                    _ => {
                        let latency_ms = oracle.oneshot(fp, root);
                        check(
                            &Request::AdmitPredict { plan, keep: false, tenant },
                            Response::Predicted { id: None, latency_ms },
                        );
                    }
                }
            }
            // Deterministic tail: each of three plans twice, so the daemon is
            // guaranteed live memo hits regardless of how the random phase
            // went.
            for pick in 0..3usize.min(ds.plans.len()) {
                let root = &ds.plans[pick].root;
                for _ in 0..2 {
                    let latency_ms = oracle.oneshot(fp_a, root);
                    check(
                        &Request::AdmitPredict {
                            plan: Box::new(root.clone()),
                            keep: false,
                            tenant: multi_tenant.then_some(fp_a),
                        },
                        Response::Predicted { id: None, latency_ms },
                    );
                }
            }

            let mut ctl = Client::connect(&addr).expect("control");
            let stats = ctl.stats().expect("stats");
            ctl.shutdown().expect("shutdown");
            assert!(
                stats.cache_hits >= 3,
                "seed={seed}: the deterministic tail guarantees memo hits, saw {}",
                stats.cache_hits
            );
            assert!(stats.cache_misses > 0, "seed={seed}: first appearances must miss");
            stats
        }));
        drive.unwrap_or_else(|panic| {
            server.request_shutdown();
            std::panic::resume_unwind(panic)
        })
    })
}

fn tcp() -> ServeAddr {
    ServeAddr::parse("127.0.0.1:0").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random interleavings at 1 thread over TCP, single-tenant, both
    /// clamp modes (the clamp flag feeds the whole-plan key, so the two
    /// models must memoize independently even within one proptest case).
    #[test]
    fn random_interleavings_are_memo_transparent(seed in any::<u64>()) {
        let cfg = ServeConfig { threads: 1, ..ServeConfig::default() };
        replies_match_oracle(&tcp(), cfg, false, seed, 28);
    }
}

/// 4 wavefront threads + 3 shards: the sharded surface routes probes
/// and inserts per shard; replies must still match the oracle exactly.
#[test]
fn t4_sharded_replies_are_memo_transparent() {
    for seed in [11u64, 12] {
        let cfg = ServeConfig { threads: 4, shards: 3, ..ServeConfig::default() };
        replies_match_oracle(&tcp(), cfg, false, seed, 30);
    }
}

#[cfg(unix)]
#[test]
fn unix_socket_replies_are_memo_transparent() {
    let addr = ServeAddr::Unix(
        std::env::temp_dir().join(format!("qpp_serve_cache_{}.sock", std::process::id())),
    );
    let cfg = ServeConfig { threads: 4, shards: 2, ..ServeConfig::default() };
    replies_match_oracle(&addr, cfg, false, 31, 30);
}

/// Multi-tenant: two co-hosted models, requests routed by fingerprint
/// (and by default-tenant fallback). Each tenant's stream owns its own
/// memo keyed under that model's checkpoint fingerprint, so hits can
/// never leak predictions across tenants — byte-equality against each
/// tenant's own oracle builder proves it.
#[test]
fn multi_tenant_replies_are_memo_transparent() {
    for seed in [41u64, 42] {
        replies_match_oracle(&tcp(), ServeConfig::default(), true, seed, 30);
    }
}

/// Eviction-cap bound at the stream API level: a never-repeating plan
/// stream (every plan's `est.rows` perturbed, which lands in the
/// content key) can never grow the memo past its entry cap; the
/// generational reset fires and counts, and nothing ever hits.
#[test]
fn never_repeating_stream_cannot_grow_memo_past_cap() {
    let (ds, model, _) = fixture();
    let mut builder = model.serve_stream();
    builder.set_prediction_cache_capacity(8);
    let mut scratch = ScratchPlan::new();
    for i in 0..100u32 {
        let mut root = ds.plans[i as usize % ds.plans.len()].root.clone();
        root.est.rows = 1_000.0 + f64::from(i);
        scratch.rebuild_from_tree(&root);
        let run = builder.predict_oneshot(&scratch);
        assert!(run.latency_ms.is_finite() && !run.cache_hit);
        let st = builder.stats();
        assert!(
            st.pred_cache_entries <= 8,
            "memo grew past its cap: {} entries after {} plans",
            st.pred_cache_entries,
            i + 1
        );
    }
    let st = builder.stats();
    assert_eq!(st.pred_cache_hits, 0, "all-distinct stream cannot hit");
    assert_eq!(st.pred_cache_misses, 100);
    assert!(st.pred_cache_evictions > 0, "the generational reset must have fired");
}

/// The zero-allocation regression, extended to the memo hit path: a
/// warmed connection cycling a fixed 8-plan mix must stay at zero
/// steady-state allocations — and the
/// stats must show the memo actually served hits, so the alloc-free
/// claim covers the hit path itself, not just warmed misses.
#[test]
fn steady_state_memo_hit_path_is_allocation_free() {
    let (ds, model, _) = fixture();
    for (threads, conns) in [(1usize, 1usize), (4, 4)] {
        let cfg = ServeConfig { threads, ..ServeConfig::default() };
        let mut server = Server::bind(&tcp(), cfg).expect("bind");
        server.register(model);
        let addr = server.local_addr().clone();
        std::thread::scope(|scope| {
            let server = &server;
            scope.spawn(move || server.run().expect("server run"));
            std::thread::scope(|inner| {
                for c in 0..conns {
                    let addr = addr.clone();
                    inner.spawn(move || {
                        let mut client = Client::connect(&addr).expect("connect");
                        client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                        for i in 0..200usize {
                            let plan = &ds.plans[(c + i) % 8].root;
                            let (id, latency) =
                                client.admit_predict(plan, false).expect("predict");
                            assert!(id.is_none() && latency.is_finite());
                        }
                    });
                }
            });
            let mut ctl = Client::connect(&addr).expect("control");
            let stats = ctl.stats().expect("stats");
            assert_eq!(
                stats.fast_path_predicted,
                200 * conns as u64,
                "threads={threads}: every one-shot must take the fast path"
            );
            assert_eq!(
                stats.steady_allocs, 0,
                "threads={threads} conns={conns}: memo-on steady state allocated"
            );
            // The tenant stream (and so its memo) is shared across
            // connections and probed under the server lock: the 8-plan
            // mix misses exactly once per distinct plan, everything
            // else is a hit.
            assert_eq!(
                stats.cache_misses, 8,
                "threads={threads}: exactly one miss per distinct plan"
            );
            assert_eq!(
                stats.cache_hits,
                200 * conns as u64 - 8,
                "threads={threads}: every repeat must be a memo hit"
            );
            ctl.shutdown().expect("shutdown");
        });
    }
}
