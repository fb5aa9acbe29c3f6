//! The traced run: the requests a daemon phase served, replayed in
//! process through one public entry point per layer, plus the training
//! step and executor dispatch.
//!
//! A one-shot line passes `LineBuf::read_line_ref` (`serve.frame`),
//! `RequestScratch::decode` (`serve.decode`),
//! `ShardedStream::predict_oneshot` (`stream.oneshot`) and
//! `proto::encode_response` (`serve.encode`), the calls the daemon's fast
//! path makes. A line the fast decoder falls back on takes the daemon's
//! general path instead: `proto::decode_request` (still `serve.decode`)
//! and a one-plan `MicroBatcher::flush_resident` plus retire (still
//! `stream.oneshot`). A session line passes the framing, `proto::decode_request`
//! (`serve.decode`), `ShardedStream::admit` / `predict_root_threaded` /
//! `retire` (`stream.admit`, `stream.predict_root`, `stream.retire`) and
//! the encoder. `lower::lower` is timed on each admitted plan as a
//! separate probe: the daemon lowers inside admission and decode, so the
//! probe is not part of the request's layer sum.
//!
//! The replay runs twice on fresh streams: untraced, for its wall time,
//! and traced. Their difference is the tracing overhead.

use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::time::Instant;

use qpp_nn::{Executor, ExecutorStats};
use qpp_plansim::catalog::{Catalog, Workload as Benchmark};
use qpp_plansim::features::{Featurizer, Whitener};
use qpp_plansim::operators::OpKind;
use qpp_plansim::plan::PlanNode;
use qppnet::config::TargetCodec;
use qppnet::lower::lower;
use qppnet::serve::proto::{
    decode_request, encode_response, ErrorCode, ErrorReply, Request, Response,
};
use qppnet::serve::scratch::{FastDecode, RequestScratch};
use qppnet::serve::{validate_plan, LineBuf, LineRef, MAX_LINE_DEFAULT};
use qppnet::stream::{MicroBatcher, PlanId, ProgramStats, ShardedStream};
use qppnet::{ProgramTape, QppNet, UnitSet};
use rand::SeedableRng;

use crate::drive::id_line;
use crate::refit;
use crate::trace::Tracer;
use crate::traffic::{SessionOp, SessionScript, Traffic, SCALE_FACTOR};

/// Spans on a request's path; their self times add up to the in-process
/// time of a request.
pub const REQUEST_LAYERS: [&str; 7] = [
    "serve.frame",
    "serve.decode",
    "stream.oneshot",
    "stream.admit",
    "stream.predict_root",
    "stream.retire",
    "serve.encode",
];

/// Repetitions of the traced training step.
pub const TRAIN_REPS: u64 = 40;
/// Repetitions of the empty executor dispatch.
pub const DISPATCH_REPS: u64 = 2000;

/// Arithmetic and weight traffic of each unit, computed from the paper
/// tier's layer dimensions (not counted by the kernels).
pub struct UnitCost {
    /// Per `OpKind::index()`: multiply-adds × 2 of one row through the unit.
    flops: Vec<f64>,
    /// Per `OpKind::index()`: weight and bias bytes of the unit.
    bytes: Vec<f64>,
}

impl UnitCost {
    /// The cost table of the refit's configuration.
    pub fn paper_tier() -> UnitCost {
        let fz = Featurizer::new(&Catalog::for_workload(Benchmark::TpcH, SCALE_FACTOR));
        let cfg = refit::config();
        let units = UnitSet::new(&cfg, &fz, &mut rand::rngs::StdRng::seed_from_u64(0));
        let mut flops = vec![0.0; OpKind::ALL.len()];
        let mut bytes = vec![0.0; OpKind::ALL.len()];
        for kind in OpKind::ALL {
            for l in units.unit(kind).layers() {
                let (i, o) = (l.in_dim() as f64, l.out_dim() as f64);
                flops[kind.index()] += 2.0 * i * o;
                bytes[kind.index()] += 4.0 * (i * o + o);
            }
        }
        UnitCost { flops, bytes }
    }

    /// (flops, weight bytes) of a one-row forward of every node of `plan`.
    pub fn plan(&self, plan: &PlanNode) -> (f64, f64) {
        let mut acc = (0.0, 0.0);
        plan.visit_postorder(&mut |n| {
            acc.0 += self.flops[n.op.kind().index()];
            acc.1 += self.bytes[n.op.kind().index()];
        });
        acc
    }
}

/// What one replay measured. Only requests with ids in
/// `first..end` (the replayed timed phase) count; earlier ones warm the
/// stream the way the daemon's warm-up did.
pub struct ReplayOut {
    /// The spans (empty when untraced).
    pub tracer: Tracer,
    /// First counted request id.
    pub first: u64,
    /// One past the last counted request id.
    pub end: u64,
    /// Wall time of the counted requests, ns.
    pub wall_ns: u64,
    /// Per counted `stream.oneshot` span, in order: answered by the memo.
    pub oneshot_hit: Vec<bool>,
    /// `OneshotRun::featurize_ns` of counted memo misses.
    pub featurize_ns: Vec<u64>,
    /// `OneshotRun::run_ns` of counted memo misses.
    pub run_ns: Vec<u64>,
    /// Counted one-shot lines.
    pub oneshot_lines: u64,
    /// Of `oneshot_lines`, decoded as `FastDecode::Ready`.
    pub fast_ready: u64,
    /// Requests that ran the kernels, their summed flops and weight
    /// bytes, and their summed kernel time (ns).
    pub kernel_reqs: u64,
    /// Summed flops of kernel-running requests.
    pub flops: f64,
    /// Summed weight bytes of kernel-running requests.
    pub bytes: f64,
    /// Summed kernel time of kernel-running requests, ns.
    pub kernel_ns: u64,
    /// Nodes of each lowered plan.
    pub lowered_nodes: Vec<u64>,
    /// Stream statistics before and after the counted requests.
    pub stats: (ProgramStats, ProgramStats),
    /// Sessions: logical/shared rows after each counted admit, and the
    /// shared rows (the ratio's base).
    pub dedup: Vec<(f64, f64)>,
}

struct Front<'m> {
    stream: ShardedStream<'m>,
    lb: LineBuf,
    scratch: RequestScratch,
    out: ReplayOut,
}

impl<'m> Front<'m> {
    fn new(model: &'m QppNet, traced: bool) -> Front<'m> {
        // The daemon's defaults: one shard, memo on.
        let stream = model.serve_sharded(1);
        let stats = stream.stats();
        Front {
            stream,
            lb: LineBuf::new(MAX_LINE_DEFAULT),
            scratch: RequestScratch::new(),
            out: ReplayOut {
                tracer: Tracer::new(traced),
                first: 0,
                end: 0,
                wall_ns: 0,
                oneshot_hit: Vec::new(),
                featurize_ns: Vec::new(),
                run_ns: Vec::new(),
                oneshot_lines: 0,
                fast_ready: 0,
                kernel_reqs: 0,
                flops: 0.0,
                bytes: 0.0,
                kernel_ns: 0,
                lowered_nodes: Vec::new(),
                stats: (stats, stats),
                dedup: Vec::new(),
            },
        }
    }

    fn counted(&self, req: u64) -> bool {
        req >= self.out.first
    }

    /// Frames one line and returns it (the daemon reads from a socket;
    /// here the reader is the line's bytes).
    fn frame<'a>(lb: &'a mut LineBuf, t: &mut Tracer, req: u64, mut src: &[u8]) -> &'a str {
        let s = t.begin("serve.frame", req);
        let ev = lb
            .read_line_ref(&mut src)
            .expect("reading from memory cannot fail");
        t.end(s);
        match ev {
            LineRef::Line(l) => l,
            other => panic!("replayed line did not frame: {other:?}"),
        }
    }

    fn encode(t: &mut Tracer, req: u64, resp: &Response) {
        let s = t.begin("serve.encode", req);
        black_box(encode_response(resp));
        t.end(s);
    }

    fn probe_lower(&mut self, req: u64, plan: &PlanNode) {
        let t = &mut self.out.tracer;
        let s = t.begin("lower", req);
        let l = black_box(lower(plan));
        t.end(s);
        if self.counted(req) {
            self.out.lowered_nodes.push(l.len() as u64);
        }
    }

    fn oneshot(&mut self, req: u64, line: &[u8], plan: &PlanNode, cost: &UnitCost) {
        let counted = self.counted(req);
        let t = &mut self.out.tracer;
        let r = t.begin("request", req);
        let text = Self::frame(&mut self.lb, t, req, line);
        let s = t.begin("serve.decode", req);
        // As in the daemon: a line the fast decoder does not take is
        // decoded again by the general decoder.
        let fallback = match self.scratch.decode(text) {
            FastDecode::Ready { .. } => None,
            FastDecode::Fallback => Some(decode_request(text)),
        };
        t.end(s);
        let fast = fallback.is_none();
        let plan_ok = |p: &PlanNode| {
            validate_plan(p).map_err(|why| ErrorReply::new(ErrorCode::InvalidPlan, why))
        };
        // (prediction, memo hit, featurize/run split of the fast path).
        let outcome = match fallback {
            None => {
                let s = t.begin("stream.oneshot", req);
                let run = self.stream.predict_oneshot(self.scratch.plan());
                t.end(s);
                Ok((
                    run.latency_ms,
                    run.cache_hit,
                    Some((run.featurize_ns, run.run_ns)),
                ))
            }
            // The daemon's general path: validation, then a one-plan
            // micro-batch, retired.
            Some(Ok(Request::AdmitPredict {
                plan: p,
                keep: false,
                ..
            })) => plan_ok(&p).map(|()| {
                let s = t.begin("stream.oneshot", req);
                let mut batch = MicroBatcher::new();
                batch.submit(&p);
                let (ids, preds) = batch.flush_resident(&mut self.stream, 1);
                self.stream.retire(ids[0]);
                t.end(s);
                (preds[0], batch.stats().cache_hits == 1, None)
            }),
            Some(Ok(other)) => panic!("a one-shot line decoded as {other:?}"),
            Some(Err(e)) => Err(e),
        };
        let resp = match &outcome {
            Ok((latency_ms, ..)) => Response::Predicted {
                id: None,
                latency_ms: *latency_ms,
            },
            Err(e) => Response::Error(e.clone()),
        };
        Self::encode(t, req, &resp);
        t.end(r);
        if counted {
            let o = &mut self.out;
            o.oneshot_lines += 1;
            o.fast_ready += u64::from(fast);
            if let Ok((_, hit, split)) = outcome {
                o.oneshot_hit.push(hit);
                // The featurize/run split and kernel time exist only on
                // the fast path's misses.
                if let (false, Some((featurize_ns, run_ns))) = (hit, split) {
                    let (f, b) = cost.plan(plan);
                    o.featurize_ns.push(featurize_ns);
                    o.run_ns.push(run_ns);
                    o.kernel_reqs += 1;
                    o.flops += f;
                    o.bytes += b;
                    o.kernel_ns += run_ns;
                }
            }
        }
        if outcome.is_ok() {
            self.probe_lower(req, plan);
        }
    }

    fn mark_first(&mut self, req: u64) {
        self.out.first = req;
        self.out.stats.0 = self.stream.stats();
    }

    fn finish(&mut self, end: u64, wall_ns: u64) {
        self.out.end = end;
        self.out.wall_ns = wall_ns;
        self.out.stats.1 = self.stream.stats();
    }
}

/// Replays one-shot requests: `warm` first (uncounted), then `counted`.
pub fn replay_oneshot(
    model: &QppNet,
    cost: &UnitCost,
    warm: &[(&[u8], PlanNode)],
    counted: &[(&[u8], PlanNode)],
    traced: bool,
) -> ReplayOut {
    let mut f = Front::new(model, traced);
    f.out.first = u64::MAX;
    let mut req = 0u64;
    for (line, plan) in warm {
        f.oneshot(req, line, plan, cost);
        req += 1;
    }
    f.mark_first(req);
    let t0 = Instant::now();
    for (line, plan) in counted {
        f.oneshot(req, line, plan, cost);
        req += 1;
    }
    let wall = t0.elapsed().as_nanos() as u64;
    f.finish(req, wall);
    f.out
}

/// Ops each session connection ran in a phase: a prefix of its script.
pub struct SessionRun<'a> {
    /// One script per connection.
    pub scripts: &'a [SessionScript],
    /// Timed ops each connection sent.
    pub ops: Vec<usize>,
}

struct Sessions {
    /// Wire id → resident plan.
    resident: HashMap<u64, PlanId>,
    next_wire: u64,
    /// Running flops and weight bytes of the resident logical nodes.
    resident_cost: (f64, f64),
    plan_cost: HashMap<u64, (f64, f64)>,
}

impl Front<'_> {
    fn session_op(
        &mut self,
        req: u64,
        line: &[u8],
        sess: &mut Sessions,
        cost: &UnitCost,
    ) -> Response {
        let counted = self.counted(req);
        let t = &mut self.out.tracer;
        let r = t.begin("request", req);
        let text = Self::frame(&mut self.lb, t, req, line);
        let s = t.begin("serve.decode", req);
        let decoded = decode_request(text).expect("generated session lines decode");
        t.end(s);
        let mut kernel = None;
        let (resp, admitted) = match decoded {
            Request::Admit { plan, .. } => {
                let s = t.begin("stream.admit", req);
                let pid = self.stream.admit(&plan);
                t.end(s);
                let wire = sess.next_wire;
                sess.next_wire += 1;
                sess.resident.insert(wire, pid);
                (Response::Admitted { id: wire }, Some((wire, plan)))
            }
            Request::Predict { id } => {
                let pid = sess.resident[&id];
                let s = t.begin("stream.predict_root", req);
                let t0 = Instant::now();
                let latency_ms = self.stream.predict_root_threaded(pid, 1);
                let ns = t0.elapsed().as_nanos() as u64;
                t.end(s);
                kernel = Some(ns);
                (
                    Response::Predicted {
                        id: Some(id),
                        latency_ms,
                    },
                    None,
                )
            }
            Request::Retire { id } => {
                let pid = sess.resident.remove(&id).expect("retired ids are resident");
                let s = t.begin("stream.retire", req);
                self.stream.retire(pid);
                t.end(s);
                let c = sess.plan_cost.remove(&id).expect("retired ids have a cost");
                sess.resident_cost.0 -= c.0;
                sess.resident_cost.1 -= c.1;
                (Response::Retired { id }, None)
            }
            other => panic!("unexpected session request {other:?}"),
        };
        Self::encode(t, req, &resp);
        t.end(r);
        if let (Some(ns), true) = (kernel, counted) {
            let st = self.stream.stats();
            let per_node = |v: f64| {
                if st.logical_nodes == 0 {
                    0.0
                } else {
                    v / st.logical_nodes as f64
                }
            };
            let o = &mut self.out;
            o.kernel_reqs += 1;
            o.kernel_ns += ns;
            // Each shared row runs once; each wavefront step streams one
            // unit's weights once.
            o.flops += st.shared_rows as f64 * per_node(sess.resident_cost.0);
            o.bytes += st.steps as f64 * per_node(sess.resident_cost.1);
        }
        if let Some((wire, plan)) = admitted {
            let c = cost.plan(&plan);
            sess.plan_cost.insert(wire, c);
            sess.resident_cost.0 += c.0;
            sess.resident_cost.1 += c.1;
            if counted {
                let st = self.stream.stats();
                self.out
                    .dedup
                    .push((st.dedup_ratio(), st.shared_rows as f64));
            }
            self.probe_lower(req, &plan);
        }
        resp
    }

    /// Runs `run`'s ops, connections interleaved one op at a time, then
    /// retires what each connection left resident (as the load generator does).
    /// Returns the next request id and the id after the last timed op.
    fn sessions(
        &mut self,
        mut req: u64,
        run: &SessionRun<'_>,
        traffic: &Traffic,
        sess: &mut Sessions,
        cost: &UnitCost,
    ) -> (u64, u64) {
        let mut slot_wire: Vec<HashMap<u32, u64>> = vec![HashMap::new(); run.scripts.len()];
        let mut buf = Vec::new();
        let longest = run.ops.iter().copied().max().unwrap_or(0);
        for k in 0..longest {
            for (c, script) in run.scripts.iter().enumerate() {
                if k >= run.ops[c] {
                    continue;
                }
                let resp = match script.ops[k] {
                    SessionOp::Admit { template, .. } => {
                        self.session_op(req, &traffic.admit_lines[template as usize], sess, cost)
                    }
                    SessionOp::Predict { slot } => {
                        id_line("predict", slot_wire[c][&slot], &mut buf);
                        self.session_op(req, &buf, sess, cost)
                    }
                    SessionOp::Retire { slot } => {
                        id_line(
                            "retire",
                            slot_wire[c]
                                .remove(&slot)
                                .expect("retired slots are resident"),
                            &mut buf,
                        );
                        self.session_op(req, &buf, sess, cost)
                    }
                };
                if let (SessionOp::Admit { slot, .. }, Response::Admitted { id }) =
                    (script.ops[k], resp)
                {
                    slot_wire[c].insert(slot, id);
                }
                req += 1;
            }
        }
        let timed_end = req;
        for wires in slot_wire {
            let slots: BTreeSet<(u32, u64)> = wires.into_iter().collect();
            for (_, wire) in slots {
                id_line("retire", wire, &mut buf);
                self.session_op(req, &buf, sess, cost);
                req += 1;
            }
        }
        (req, timed_end)
    }
}

/// Replays session phases: `warm` first (uncounted), then `counted`.
pub fn replay_sessions(
    model: &QppNet,
    cost: &UnitCost,
    traffic: &Traffic,
    warm: &SessionRun<'_>,
    counted: &SessionRun<'_>,
    traced: bool,
) -> ReplayOut {
    let mut f = Front::new(model, traced);
    f.out.first = u64::MAX;
    let mut sess = Sessions {
        resident: HashMap::new(),
        next_wire: 1,
        resident_cost: (0.0, 0.0),
        plan_cost: HashMap::new(),
    };
    let (req, _) = f.sessions(0, warm, traffic, &mut sess, cost);
    f.mark_first(req);
    let t0 = Instant::now();
    let (_, timed_end) = f.sessions(req, counted, traffic, &mut sess, cost);
    let wall = t0.elapsed().as_nanos() as u64;
    f.finish(timed_end, wall);
    f.out
}

/// The traced training step and executor dispatch.
pub struct TrainOut {
    /// `train.compile` / `train.forward` / `train.backward` / `pool.dispatch` spans.
    pub tracer: Tracer,
    /// Executor counters over the training steps.
    pub pool_delta: ExecutorStats,
}

fn delta(a: ExecutorStats, b: ExecutorStats) -> ExecutorStats {
    ExecutorStats {
        runs: b.runs - a.runs,
        parks: b.parks - a.parks,
        unparks: b.unparks - a.unparks,
        resident_workers: b.resident_workers,
    }
}

/// Times [`TRAIN_REPS`] training steps over the refit's training plans
/// (one batch, as in the refit: `ProgramTape::compile`, then
/// `forward_threaded` and `backward_threaded` at the refit's threads),
/// and [`DISPATCH_REPS`] empty `Executor::run` dispatches at 2 threads.
pub fn train_layers() -> TrainOut {
    let ds = refit::dataset();
    let (train, _) = refit::split(&ds);
    let cfg = refit::config();
    let fz = Featurizer::new(&ds.catalog);
    let wh = Whitener::fit(&fz, train.iter().copied());
    let mut latencies = Vec::new();
    for p in &train {
        p.root
            .visit_postorder(&mut |n| latencies.push(n.actual.latency_ms));
    }
    let codec = TargetCodec::fit(cfg.target_transform, latencies);
    let mut units = UnitSet::new(&cfg, &fz, &mut rand::rngs::StdRng::seed_from_u64(cfg.seed));
    let roots: Vec<&PlanNode> = train.iter().map(|p| &p.root).collect();
    let mut t = Tracer::new(true);
    let exec = Executor::global();
    let before = exec.stats();
    for rep in 0..TRAIN_REPS {
        let s = t.begin("train.compile", rep);
        let mut tape = ProgramTape::compile(&fz, &wh, &codec, &units, &roots);
        t.end(s);
        units.zero_grad();
        let s = t.begin("train.forward", rep);
        tape.forward_threaded(&units, refit::THREADS);
        t.end(s);
        black_box(tape.loss());
        let s = t.begin("train.backward", rep);
        tape.backward_threaded(&mut units, refit::THREADS);
        t.end(s);
    }
    let pool_delta = delta(before, exec.stats());
    for rep in 0..DISPATCH_REPS {
        let s = t.begin("pool.dispatch", rep);
        exec.run(2, &|_, _| {});
        t.end(s);
    }
    TrainOut {
        tracer: t,
        pool_delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::Workload;

    #[test]
    fn a_line_the_fast_decoder_rejects_lowers_the_fast_ratio() {
        let traffic = Traffic::new(Workload::ServeZipf, 1);
        let ds = qpp_plansim::dataset::Dataset::generate(Benchmark::TpcH, SCALE_FACTOR, 20, 7);
        let mut model = QppNet::new(
            qppnet::QppConfig {
                epochs: 1,
                ..refit::config()
            },
            &ds.catalog,
        );
        model.fit(&ds.plans.iter().collect::<Vec<_>>());
        let good = &traffic.templates[0];
        // A join with one child: the general decoder reads it, the fast
        // decoder falls back on it, and validation refuses it.
        let mut bad = good.clone();
        while bad.op.kind().arity() != 2 {
            bad = bad.children[0].clone();
        }
        bad.children.truncate(1);
        let line = |p: &PlanNode| {
            let mut l = qppnet::serve::proto::encode_request(&Request::AdmitPredict {
                plan: Box::new(p.clone()),
                keep: false,
                tenant: None,
            })
            .into_bytes();
            l.push(b'\n');
            l
        };
        let (g, b) = (line(good), line(&bad));
        let counted = [
            (&g[..], good.clone()),
            (&b[..], bad),
            (&g[..], good.clone()),
        ];
        let out = replay_oneshot(&model, &UnitCost::paper_tier(), &[], &counted, true);
        assert_eq!((out.fast_ready, out.oneshot_lines), (2, 3));
        // Both good lines ran the stream; the second hit the memo.
        assert_eq!(out.oneshot_hit, [false, true]);
        let spans = out.tracer.spans();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!((count("serve.decode"), count("stream.oneshot")), (3, 2));
        assert_eq!(count("serve.encode"), 3);
    }
}
