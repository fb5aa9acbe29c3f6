//! The benchmark's inputs, made from `--seed` before any timing starts.
//!
//! Request templates are TPC-H plans from [`Dataset::generate`]; the
//! seed draws the requests over them. Every request line the daemon
//! receives is encoded here, ahead of the timed window, except the
//! id-bearing `predict`/`retire` lines of the session workload: their id
//! is assigned by the daemon's `admit` reply, so the load generator
//! formats those few dozen bytes into a reused buffer at send time.

use std::collections::VecDeque;
use std::sync::Arc;

use qpp_bench::load::Zipf;
use qpp_plansim::catalog::Workload as Benchmark;
use qpp_plansim::dataset::Dataset;
use qpp_plansim::plan::PlanNode;
use qppnet::serve::proto::{encode_request, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// TPC-H scale factor of every generated plan.
pub const SCALE_FACTOR: f64 = 100.0;
/// Distinct request templates per run.
pub const TEMPLATES: usize = 120;
/// Zipf exponent of template popularity (the YCSB default).
pub const ZIPF_S: f64 = 0.99;
/// Share of `serve_zipf` requests that carry a first-seen variant of
/// their template (root estimate bumped by a number used once in the
/// run): recurring templates with occasional new parameter bindings, so
/// about this share of requests misses the daemon's prediction memo.
pub const FRESH_SHARE: f64 = 0.06;
/// Resident plans each session connection keeps before retiring the
/// oldest.
pub const WINDOW: usize = 2;
/// `predict` calls after each session `admit`.
pub const PREDICTS_PER_ADMIT: usize = 3;

/// A serving workload (traffic mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-shot `admit_predict` over Zipf-drawn templates, a few of them
    /// first-seen variants: the memo answers most requests.
    ServeZipf,
    /// Resident sessions: `admit`, several `predict` by id, `retire` of
    /// the oldest plan.
    ServeSessions,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::ServeZipf, Workload::ServeSessions];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeZipf => "serve_zipf",
            Workload::ServeSessions => "serve_sessions",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// True for the one-shot `admit_predict` workloads.
    pub fn oneshot(self) -> bool {
        self != Workload::ServeSessions
    }
}

/// Derives an independent stream seed from the run seed (SplitMix64).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One one-shot request: a template and the perturbation added to its
/// root's row estimate (0 = the template as generated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OneshotReq {
    /// Template index.
    pub template: u32,
    /// Added to the root's `est.rows`; distinct per first-seen variant.
    pub bump: u64,
}

/// One step of a session connection's script. Slots number the plans a
/// connection admits, in order; the daemon's id for a slot is known only
/// from its `admit` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOp {
    /// Admit the template as the connection's plan `slot` (`keep:true`).
    Admit {
        /// Connection-local plan number.
        slot: u32,
        /// Template index.
        template: u32,
    },
    /// Predict plan `slot` by its id.
    Predict {
        /// Connection-local plan number.
        slot: u32,
    },
    /// Retire plan `slot`.
    Retire {
        /// Connection-local plan number.
        slot: u32,
    },
}

/// A batch of encoded one-shot request lines (newline included).
#[derive(Debug, Clone, Default)]
pub struct OneshotBatch {
    /// What each line asks for.
    pub reqs: Vec<OneshotReq>,
    /// The encoded lines, parallel to `reqs`.
    pub lines: Vec<Arc<[u8]>>,
}

/// A session connection's script with its encoded `admit` lines.
#[derive(Debug, Clone, Default)]
pub struct SessionScript {
    /// The operations, in send order.
    pub ops: Vec<SessionOp>,
    /// Template of each slot.
    pub slot_template: Vec<u32>,
}

/// The seeded traffic source of one run.
pub struct Traffic {
    /// The workload this traffic is for.
    pub workload: Workload,
    /// Request templates (TPC-H plans).
    pub templates: Vec<PlanNode>,
    /// Encoded `admit_predict` (`keep:false`) line per template.
    pub oneshot_lines: Vec<Arc<[u8]>>,
    /// Encoded `admit` line per template.
    pub admit_lines: Vec<Arc<[u8]>>,
    zipf: Zipf,
    rng: StdRng,
    next_bump: u64,
}

fn line(req: &Request) -> Arc<[u8]> {
    let mut s = encode_request(req).into_bytes();
    s.push(b'\n');
    s.into()
}

/// Seed of the request templates (fixed: see [`templates`]).
pub const TEMPLATE_SEED: u64 = 2020;

/// The request templates: [`TEMPLATES`] TPC-H plans, the same in every
/// run, as a served application's queries are. The run seed draws the
/// request stream over them. Drawn from the run seed, they would make the
/// work per request a property of the seed: the hottest of 120
/// Zipf(0.99) templates takes a fifth of the requests, and its size
/// varies fourfold between seeds.
pub fn templates() -> Vec<PlanNode> {
    Dataset::generate(Benchmark::TpcH, SCALE_FACTOR, TEMPLATES, TEMPLATE_SEED)
        .plans
        .into_iter()
        .map(|p| p.root)
        .collect()
}

impl Traffic {
    /// The traffic source of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Traffic {
        let templates = templates();
        let oneshot_lines = templates
            .iter()
            .map(|p| {
                line(&Request::AdmitPredict {
                    plan: Box::new(p.clone()),
                    keep: false,
                    tenant: None,
                })
            })
            .collect();
        let admit_lines = templates
            .iter()
            .map(|p| {
                line(&Request::Admit {
                    plan: Box::new(p.clone()),
                    tenant: None,
                })
            })
            .collect();
        Traffic {
            workload,
            zipf: Zipf::new(templates.len(), ZIPF_S),
            templates,
            oneshot_lines,
            admit_lines,
            rng: StdRng::seed_from_u64(mix(seed, 2 + workload as u64)),
            next_bump: 1,
        }
    }

    /// The plan a one-shot request carries.
    pub fn plan(&self, req: OneshotReq) -> PlanNode {
        let mut p = self.templates[req.template as usize].clone();
        p.est.rows += req.bump as f64;
        p
    }

    /// The next `n` one-shot requests, encoded; a [`FRESH_SHARE`] of them
    /// are first-seen variants.
    pub fn oneshot_batch(&mut self, n: usize) -> OneshotBatch {
        let mut batch = OneshotBatch {
            reqs: Vec::with_capacity(n),
            lines: Vec::with_capacity(n),
        };
        for _ in 0..n {
            let template = self.zipf.sample(&mut self.rng) as u32;
            let req = if self.rng.gen::<f64>() < FRESH_SHARE {
                let bump = self.next_bump;
                self.next_bump += 1;
                OneshotReq { template, bump }
            } else {
                OneshotReq { template, bump: 0 }
            };
            let l = if req.bump == 0 {
                Arc::clone(&self.oneshot_lines[template as usize])
            } else {
                line(&Request::AdmitPredict {
                    plan: Box::new(self.plan(req)),
                    keep: false,
                    tenant: None,
                })
            };
            batch.reqs.push(req);
            batch.lines.push(l);
        }
        batch
    }

    /// A session script admitting `plans` Zipf-drawn templates: each
    /// admit is followed by [`PREDICTS_PER_ADMIT`] predicts of plans in
    /// the connection's window, then a retire of the oldest plan once
    /// more than [`WINDOW`] are resident.
    pub fn session_script(&mut self, plans: usize) -> SessionScript {
        let mut script = SessionScript::default();
        let mut window: VecDeque<u32> = VecDeque::new();
        for slot in 0..plans as u32 {
            let template = self.zipf.sample(&mut self.rng) as u32;
            script.slot_template.push(template);
            script.ops.push(SessionOp::Admit { slot, template });
            window.push_back(slot);
            for _ in 0..PREDICTS_PER_ADMIT {
                let pick = window[self.rng.gen_range(0..window.len())];
                script.ops.push(SessionOp::Predict { slot: pick });
            }
            if window.len() > WINDOW {
                let oldest = window.pop_front().expect("window is non-empty");
                script.ops.push(SessionOp::Retire { slot: oldest });
            }
        }
        script
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_schedule() {
        for w in Workload::ALL {
            let (mut a, mut b) = (Traffic::new(w, 11), Traffic::new(w, 11));
            let (x, y) = (a.oneshot_batch(300), b.oneshot_batch(300));
            assert_eq!(x.reqs, y.reqs);
            assert!(x.lines.iter().zip(&y.lines).all(|(l, m)| l == m));
            assert_eq!(a.session_script(50).ops, b.session_script(50).ops);
        }
        let (mut a, mut c) = (
            Traffic::new(Workload::ServeZipf, 11),
            Traffic::new(Workload::ServeZipf, 12),
        );
        assert_ne!(a.oneshot_batch(300).reqs, c.oneshot_batch(300).reqs);
    }

    #[test]
    fn zipf_requests_repeat_templates_with_a_few_fresh_variants() {
        let mut z = Traffic::new(Workload::ServeZipf, 3);
        let b = z.oneshot_batch(20_000);
        // Rank 0 is the hottest template.
        let hot = b.reqs.iter().filter(|r| r.template == 0).count();
        assert!(hot > 20_000 / TEMPLATES);
        // About FRESH_SHARE of the requests are first-seen variants, each
        // distinct in its line; the rest repeat a template as generated.
        let fresh: Vec<usize> = (0..b.reqs.len()).filter(|&i| b.reqs[i].bump != 0).collect();
        let share = fresh.len() as f64 / b.reqs.len() as f64;
        assert!((share - FRESH_SHARE).abs() < 0.01, "fresh share {share}");
        let lines: std::collections::HashSet<&[u8]> =
            fresh.iter().map(|&i| &b.lines[i][..]).collect();
        assert_eq!(lines.len(), fresh.len());
        for (r, l) in b.reqs.iter().zip(&b.lines) {
            if r.bump == 0 {
                assert_eq!(l, &z.oneshot_lines[r.template as usize]);
            } else {
                assert_ne!(l, &z.oneshot_lines[r.template as usize]);
            }
        }
    }

    #[test]
    fn session_scripts_keep_a_bounded_window() {
        let mut t = Traffic::new(Workload::ServeSessions, 5);
        let s = t.session_script(40);
        let mut resident = std::collections::BTreeSet::new();
        for op in &s.ops {
            match *op {
                SessionOp::Admit { slot, template } => {
                    assert_eq!(s.slot_template[slot as usize], template);
                    assert!(resident.insert(slot));
                }
                SessionOp::Predict { slot } => assert!(resident.contains(&slot)),
                SessionOp::Retire { slot } => assert!(resident.remove(&slot)),
            }
            assert!(resident.len() <= WINDOW + 1);
        }
        assert_eq!(resident.len(), WINDOW);
    }
}
