//! Correctness: every reply must carry bitwise the prediction an
//! in-process reference computes (`serve_stream` admit → predict →
//! retire) from the model the daemon's checkpoint was written from.
//!
//! Replies are checked after the timed window, from the raw lines the
//! load generator kept. A transport failure, an error reply, a reply of
//! the wrong kind or a prediction with other bits is a failed request.

use std::collections::HashMap;

use qpp_plansim::plan::PlanNode;
use qppnet::serve::proto::{decode_response, Response};
use qppnet::stream::ProgramBuilder;
use qppnet::QppNet;

use crate::drive::Phase;
use crate::traffic::{OneshotBatch, OneshotReq, SessionOp, SessionScript, Traffic};

/// Sent, succeeded and failed requests of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests attempted.
    pub sent: u64,
    /// Requests whose reply passed its check.
    pub succeeded: u64,
    /// Requests that failed (transport, error reply, wrong bits).
    pub failed: u64,
    /// Replies whose prediction bits were compared with the reference.
    pub bits_checked: u64,
}

/// The in-process reference predictor.
pub struct Reference<'m> {
    builder: ProgramBuilder<'m>,
    memo: HashMap<OneshotReq, u64>,
}

impl<'m> Reference<'m> {
    /// A reference over `model` (the one the daemon's checkpoint holds).
    pub fn new(model: &'m QppNet) -> Reference<'m> {
        Reference {
            builder: model.serve_stream(),
            memo: HashMap::new(),
        }
    }

    /// Root prediction of `plan`, as bits.
    pub fn bits(&mut self, plan: &PlanNode) -> u64 {
        let id = self.builder.admit(plan);
        let v = self.builder.predict_root(id);
        self.builder.retire(id);
        v.to_bits()
    }

    fn bits_of(&mut self, traffic: &Traffic, req: OneshotReq) -> u64 {
        if let Some(&b) = self.memo.get(&req) {
            return b;
        }
        let b = self.bits(&traffic.plan(req));
        self.memo.insert(req, b);
        b
    }
}

fn decode(reply: Option<&[u8]>) -> Option<Response> {
    let line = std::str::from_utf8(reply?).ok()?;
    match decode_response(line) {
        Ok(Response::Error(_)) | Err(_) => None,
        Ok(r) => Some(r),
    }
}

/// Checks a one-shot phase whose lines came from `batch`.
pub fn check_oneshot(
    reference: &mut Reference<'_>,
    traffic: &Traffic,
    batch: &OneshotBatch,
    phase: &Phase,
) -> Tally {
    let mut t = Tally::default();
    for log in &phase.conns {
        for rec in &log.recs {
            t.sent += 1;
            let ok = match decode(log.reply(rec)) {
                Some(Response::Predicted {
                    id: None,
                    latency_ms,
                }) => {
                    t.bits_checked += 1;
                    let req = batch.reqs[rec.item as usize];
                    reference.bits_of(traffic, req) == latency_ms.to_bits()
                }
                _ => false,
            };
            if ok {
                t.succeeded += 1;
            } else {
                t.failed += 1;
            }
        }
    }
    t
}

/// Checks a session phase driven by `scripts` (one per connection).
pub fn check_sessions(
    reference: &mut Reference<'_>,
    traffic: &Traffic,
    scripts: &[SessionScript],
    phase: &Phase,
) -> Tally {
    let mut t = Tally::default();
    for (log, script) in phase.conns.iter().zip(scripts) {
        for rec in &log.recs {
            t.sent += 1;
            let reply = decode(log.reply(rec));
            let ok = if rec.timed {
                match (script.ops[rec.item as usize], reply) {
                    (SessionOp::Admit { slot, .. }, Some(Response::Admitted { id })) => {
                        log.ids[slot as usize] == Some(id)
                    }
                    (
                        SessionOp::Predict { slot },
                        Some(Response::Predicted {
                            id: Some(id),
                            latency_ms,
                        }),
                    ) => {
                        t.bits_checked += 1;
                        let template = script.slot_template[slot as usize];
                        log.ids[slot as usize] == Some(id)
                            && reference.bits_of(traffic, OneshotReq { template, bump: 0 })
                                == latency_ms.to_bits()
                    }
                    (SessionOp::Retire { slot }, Some(Response::Retired { id })) => {
                        log.ids[slot as usize] == Some(id)
                    }
                    _ => false,
                }
            } else {
                let slot = log.drain[rec.item as usize];
                matches!(reply, Some(Response::Retired { id }) if log.ids[slot as usize] == Some(id))
            };
            if ok {
                t.succeeded += 1;
            } else {
                t.failed += 1;
            }
        }
    }
    t
}
