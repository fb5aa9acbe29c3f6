//! Scratch-backed wire decoder: request line → lowering-ready CSR, no `Value` tree.
//!
//! The reference decoder takes three allocating passes: the vendored
//! `serde_json` parser builds a `Value` tree (one `String`/`Vec`/`BTreeMap`
//! per node), `from_value::<PlanNode>` rebuilds a plan *tree* from it, and
//! lowering turns that tree into CSR arrays. This module fuses
//! all three: [`RequestScratch::decode`] parses the JSON bytes in one pass
//! directly into a reusable [`ScratchPlan`] (post-order nodes + CSR
//! children), using per-connection buffers that reach a steady-state
//! capacity and never allocate again.
//!
//! **Contract — the daemon's only decoder.** [`RequestScratch::decode`]
//! returns [`FastDecode::Ready`] exactly on the lines the recursive oracle
//! ([`proto::decode_request`](super::proto::decode_request)) accepts and
//! whose plan, on a plan-carrying verb, passes
//! [`ScratchPlan::check_arity`]: every v1 verb, `keep` true or false,
//! decimal-string ids, a hex `tenant` on any verb. `Ready` carries the
//! same verb, id and tenant as the oracle, and the plan in
//! [`RequestScratch::plan`] is the oracle's plan lowered (bit-for-bit node
//! content, identical CSR and shard hash). On everything else — malformed
//! JSON, an unknown verb, a numeric id, a bad tenant, nesting beyond
//! [`super::MAX_NESTING_DEPTH`], an arity violation — it returns
//! [`FastDecode::Fallback`], and the daemon runs the oracle only to word
//! the error reply. The decoder therefore never replicates error
//! *messages*, but it must replicate the oracle's **accept set** exactly
//! in both directions: `tests/serve_scratch.rs` proptests that `Ready`
//! implies the oracle accepts the same request and that `Fallback`
//! implies it rejects the line or the plan fails the arity check.
//!
//! Replicating the accept set means replicating two vendored layers:
//!
//! 1. **Grammar** (`vendor/serde_json::parse`): `\u` escapes read exactly 4
//!    bytes and go through `u32::from_str_radix(_, 16)` (which accepts a
//!    leading `+`); numbers lex a greedy run over `[0-9.eE+-]` and accept
//!    whatever `f64::from_str` accepts (`1e999` → `inf`); raw control
//!    characters are legal inside strings; keywords must match in full.
//! 2. **Derive semantics** (`vendor/serde_derive`): objects are `BTreeMap`s
//!    so *duplicate keys are last-wins*; unknown struct fields are ignored;
//!    missing fields without `#[serde(default)]` are errors; externally
//!    tagged enums accept a bare string for unit variants and a
//!    single-distinct-key object for payload variants; `usize` fields go
//!    through an `as` cast from `f64` (NaN → 0, negative → 0, fractional
//!    truncates).
//!
//! Last-wins duplicates force a two-level error model. A *structural* error
//! (bad JSON) aborts the whole parse (the private `Reject` marker). A
//! *semantic* mismatch (wrong type, unknown variant, missing field) only
//! poisons the value being built (`Sem::Bad`) — the parser keeps consuming,
//! because a later duplicate key can overwrite the bad value and rescue the
//! request, exactly as the `BTreeMap` does. Scratch state is backed out
//! with marks: a `Bad` node truncates [`ScratchPlan`] to its entry mark, a
//! duplicate `children`/`plan` key truncates before re-parsing, so the
//! arrays always hold exactly the nodes of the *surviving* occurrence.

use crate::stream::ScratchPlan;
use qpp_plansim::operators::{
    AggOp, AggStrategy, HashAlgorithm, JoinAlgorithm, JoinType, Operator, ParentRel, ScanMethod,
    SortMethod,
};
use qpp_plansim::plan::{NodeActual, NodeEst, PlanNode};

use super::proto::VERSION;
use super::MAX_NESTING_DEPTH;

/// A request verb accepted by [`RequestScratch::decode`], with the
/// fields the oracle's [`Request`](super::proto::Request) carries beside
/// the plan and tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `admit`: the plan is in [`RequestScratch::plan`].
    Admit,
    /// `retire` of a wire id.
    Retire {
        /// Wire id returned by a prior `admit`.
        id: u64,
    },
    /// `predict` of a wire id.
    Predict {
        /// Wire id returned by a prior `admit`.
        id: u64,
    },
    /// `admit_predict`: the plan is in [`RequestScratch::plan`].
    AdmitPredict {
        /// Keep the plan resident (`keep` absent reads as `false`).
        keep: bool,
    },
    /// `stats`.
    Stats,
    /// `shutdown`.
    Shutdown,
}

/// Outcome of decoding one request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastDecode {
    /// A valid v1 request the oracle accepts with the same verb, id and
    /// tenant. A plan-carrying verb's plan is in [`RequestScratch::plan`],
    /// sealed and arity-checked.
    Ready {
        /// The verb, with its wire id where it has one.
        verb: Verb,
        /// Explicit tenant fingerprint, if the request named one.
        tenant: Option<u64>,
    },
    /// A line the oracle rejects, or a plan of bad arity; run the oracle
    /// to word the error reply.
    Fallback,
}

/// Per-connection scratch for the fast decoder. All buffers are retained
/// across requests; after warm-up a well-formed request decodes without
/// touching the heap.
#[derive(Default)]
pub struct RequestScratch {
    plan: ScratchPlan,
    kid_stack: Vec<usize>,
    key_buf: String,
    str_buf: String,
}

impl RequestScratch {
    /// An empty scratch (no capacity reserved yet).
    pub fn new() -> RequestScratch {
        RequestScratch::default()
    }

    /// The plan decoded by the last successful [`decode`](Self::decode) or
    /// [`decode_plan_doc`](Self::decode_plan_doc) call.
    pub fn plan(&self) -> &ScratchPlan {
        &self.plan
    }

    /// Decodes one request line without allocating (once warm); see the
    /// module docs for the contract.
    pub fn decode(&mut self, line: &str) -> FastDecode {
        self.plan.clear();
        self.kid_stack.clear();
        let outcome = {
            let mut p = Fp {
                s: line,
                bytes: line.as_bytes(),
                pos: 0,
                depth: 0,
                cap: MAX_NESTING_DEPTH,
                sp: &mut self.plan,
                kids: &mut self.kid_stack,
                key_buf: &mut self.key_buf,
                str_buf: &mut self.str_buf,
            };
            p.request()
        };
        match outcome {
            Ok(Some((verb, tenant))) => {
                self.plan.seal();
                let has_plan = matches!(verb, Verb::Admit | Verb::AdmitPredict { .. });
                if has_plan && self.plan.check_arity().is_err() {
                    return FastDecode::Fallback;
                }
                FastDecode::Ready { verb, tenant }
            }
            _ => FastDecode::Fallback,
        }
    }

    /// Differential surface for the proptests: decodes a bare `PlanNode`
    /// JSON document, returning `true` exactly when
    /// [`proto::parse_guarded`](super::proto::parse_guarded) +
    /// `from_value::<PlanNode>` would accept it. On `true` the lowered CSR
    /// is in [`plan`](Self::plan), sealed (arity is *not* checked — the
    /// oracle's `from_value` doesn't either).
    pub fn decode_plan_doc(&mut self, doc: &str) -> bool {
        self.plan.clear();
        self.kid_stack.clear();
        let ok = {
            let mut p = Fp {
                s: doc,
                bytes: doc.as_bytes(),
                pos: 0,
                depth: 0,
                cap: MAX_NESTING_DEPTH,
                sp: &mut self.plan,
                kids: &mut self.kid_stack,
                key_buf: &mut self.key_buf,
                str_buf: &mut self.str_buf,
            };
            p.skip_ws();
            match p.plan_node() {
                Ok(Sem::Good(_)) => {
                    p.skip_ws();
                    p.pos == p.bytes.len()
                }
                _ => false,
            }
        };
        if ok {
            self.plan.seal();
        }
        ok
    }
}

/// Structural JSON error: the line is not valid JSON (or exceeds the
/// nesting cap). Aborts the whole parse; no duplicate key can rescue it.
struct Reject;

type PR<T> = Result<T, Reject>;

/// Semantic outcome of a typed sub-parse: the bytes were structurally
/// valid JSON, but the value either matched the expected Rust type
/// (`Good`) or did not (`Bad`). `Bad` values keep the parse alive so a
/// later duplicate key can overwrite them (last-wins).
enum Sem<T> {
    Good(T),
    Bad,
}

/// The fused parser. `sp`/`kids` receive plan nodes as they complete;
/// `key_buf`/`str_buf` are reusable decode targets for object keys and
/// string values (enum tags, verbs, tenant fingerprints).
struct Fp<'a, 'b> {
    s: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    cap: usize,
    sp: &'b mut ScratchPlan,
    kids: &'b mut Vec<usize>,
    key_buf: &'b mut String,
    str_buf: &'b mut String,
}

impl Fp<'_, '_> {
    // --- lexical layer: byte-exact replica of `vendor/serde_json` -------

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes an opening bracket and enforces the nesting cap (the
    /// oracle's `nesting_depth` pre-scan counts the same brackets).
    fn open(&mut self) -> PR<()> {
        self.pos += 1;
        self.depth += 1;
        if self.depth > self.cap {
            return Err(Reject);
        }
        Ok(())
    }

    fn keyword(&mut self, kw: &str) -> PR<()> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(Reject)
        }
    }

    /// Number lexer + `f64::from_str`, exactly as the oracle: greedy run
    /// over `[0-9.eE+-]` after an optional `-`, then parse the slice (so
    /// `1e999` → `inf` is accepted, `1-2` or a bare `-` is structural).
    fn number(&mut self) -> PR<f64> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.s[start..self.pos].parse::<f64>().map_err(|_| Reject)
    }

    /// String scanner; decodes into `out` when given. Escape handling is a
    /// byte-exact replica of the oracle, including the `\u` quirks: read
    /// exactly 4 bytes, `from_utf8`, `u32::from_str_radix(_, 16)` (leading
    /// `+` accepted), `char::from_u32` (surrogates reject).
    fn string_impl(&mut self, mut out: Option<&mut String>) -> PR<()> {
        if self.peek() != Some(b'"') {
            return Err(Reject);
        }
        self.pos += 1;
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{08}',
                        Some(b'f') => '\u{0C}',
                        Some(b'u') => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5).ok_or(Reject)?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(Reject)?;
                            let c = char::from_u32(code).ok_or(Reject)?;
                            self.pos += 4;
                            c
                        }
                        _ => return Err(Reject),
                    };
                    if let Some(buf) = out.as_deref_mut() {
                        buf.push(c);
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Raw chars (incl. control bytes and multi-byte UTF-8)
                    // pass through; `pos` is always on a char boundary.
                    let c = self
                        .s
                        .get(self.pos..)
                        .and_then(|r| r.chars().next())
                        .ok_or(Reject)?;
                    if let Some(buf) = out.as_deref_mut() {
                        buf.push(c);
                    }
                    self.pos += c.len_utf8();
                }
                None => return Err(Reject),
            }
        }
    }

    /// Decodes an object key into `key_buf`.
    fn key(&mut self) -> PR<()> {
        let mut buf = std::mem::take(self.key_buf);
        buf.clear();
        let r = self.string_impl(Some(&mut buf));
        *self.key_buf = buf;
        r
    }

    /// Decodes a string value into `str_buf`.
    fn string_value(&mut self) -> PR<()> {
        let mut buf = std::mem::take(self.str_buf);
        buf.clear();
        let r = self.string_impl(Some(&mut buf));
        *self.str_buf = buf;
        r
    }

    /// Structurally validates and discards one JSON value (the oracle
    /// parses it into a `Value`; semantically it is ignored or rejected).
    fn skip_value(&mut self) -> PR<()> {
        match self.peek() {
            Some(b'n') => self.keyword("null"),
            Some(b't') => self.keyword("true"),
            Some(b'f') => self.keyword("false"),
            Some(b'"') => self.string_impl(None),
            Some(b'[') => {
                self.open()?;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.skip_value()?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(());
                        }
                        _ => return Err(Reject),
                    }
                }
            }
            Some(b'{') => {
                self.open()?;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.string_impl(None)?;
                    self.skip_ws();
                    if self.peek() != Some(b':') {
                        return Err(Reject);
                    }
                    self.pos += 1;
                    self.skip_ws();
                    self.skip_value()?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(());
                        }
                        _ => return Err(Reject),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(|_| ()),
            _ => Err(Reject),
        }
    }

    // --- typed layer: replica of the vendored derive semantics ----------

    fn sem_f64(&mut self) -> PR<Sem<f64>> {
        match self.peek() {
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Sem::Good(self.number()?)),
            _ => {
                self.skip_value()?;
                Ok(Sem::Bad)
            }
        }
    }

    /// `usize` fields go through the same `as` cast the vendored serde
    /// uses (`Value::Number(n) => n as usize`).
    fn sem_usize(&mut self) -> PR<Sem<usize>> {
        Ok(match self.sem_f64()? {
            Sem::Good(n) => Sem::Good(n as usize),
            Sem::Bad => Sem::Bad,
        })
    }

    fn sem_bool(&mut self) -> PR<Sem<bool>> {
        match self.peek() {
            Some(b't') => {
                self.keyword("true")?;
                Ok(Sem::Good(true))
            }
            Some(b'f') => {
                self.keyword("false")?;
                Ok(Sem::Good(false))
            }
            _ => {
                self.skip_value()?;
                Ok(Sem::Bad)
            }
        }
    }

    /// `Option<f64>`: `null` → `None`, number → `Some`, else type error.
    fn sem_opt_f64(&mut self) -> PR<Sem<Option<f64>>> {
        match self.peek() {
            Some(b'n') => {
                self.keyword("null")?;
                Ok(Sem::Good(None))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Sem::Good(Some(self.number()?))),
            _ => {
                self.skip_value()?;
                Ok(Sem::Bad)
            }
        }
    }

    fn sem_opt_usize(&mut self) -> PR<Sem<Option<usize>>> {
        Ok(match self.sem_opt_f64()? {
            Sem::Good(n) => Sem::Good(n.map(|x| x as usize)),
            Sem::Bad => Sem::Bad,
        })
    }

    /// A string value mapped through `lookup`: unit-only enum variants,
    /// verbs, decimal ids and hex fingerprints. `lookup` failing, or any
    /// non-string shape (including the object form, whose payload arms
    /// are all empty for unit-only enums), is a semantic error.
    fn string_with<T>(&mut self, lookup: fn(&str) -> Option<T>) -> PR<Sem<T>> {
        match self.peek() {
            Some(b'"') => {
                self.string_value()?;
                Ok(match lookup(self.str_buf.as_str()) {
                    Some(v) => Sem::Good(v),
                    None => Sem::Bad,
                })
            }
            _ => {
                self.skip_value()?;
                Ok(Sem::Bad)
            }
        }
    }

    /// Generic object-field loop: caller guarantees `peek() == '{'`.
    /// `keymap` maps a decoded key to a field index (`usize::MAX` =
    /// unknown, which `body` must skip); `body` parses the value.
    fn fields<F>(&mut self, keymap: fn(&str) -> usize, mut body: F) -> PR<()>
    where
        F: FnMut(&mut Self, usize) -> PR<()>,
    {
        self.open()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.key()?;
            let f = keymap(self.key_buf.as_str());
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(Reject);
            }
            self.pos += 1;
            self.skip_ws();
            body(self, f)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(Reject),
            }
        }
    }

    /// Payload-variant enum in object form. The oracle requires exactly
    /// one *distinct* key (duplicates collapse last-wins in the
    /// `BTreeMap`), and the tag must name a payload variant — unit-variant
    /// names or unknown tags are semantic errors. Caller guarantees
    /// `peek() == '{'`.
    fn enum_object<T>(
        &mut self,
        tagmap: fn(&str) -> Option<u8>,
        mut payload: impl FnMut(&mut Self, u8) -> PR<Sem<T>>,
    ) -> PR<Sem<T>> {
        self.open()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            // Zero keys: "bad enum representation".
            self.pos += 1;
            self.depth -= 1;
            return Ok(Sem::Bad);
        }
        let mut first: Option<Option<u8>> = None;
        let mut multi = false;
        let mut val: Sem<T> = Sem::Bad;
        loop {
            self.skip_ws();
            self.key()?;
            let tag = tagmap(self.key_buf.as_str());
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(Reject);
            }
            self.pos += 1;
            self.skip_ws();
            match (first, tag) {
                (None, Some(t)) => {
                    first = Some(Some(t));
                    val = payload(self, t)?;
                }
                (None, None) => {
                    first = Some(None);
                    self.skip_value()?;
                }
                // Duplicate of the known tag: re-parse, last wins.
                (Some(Some(t0)), Some(t)) if t0 == t && !multi => {
                    val = payload(self, t)?;
                }
                // A second distinct key (or an unknown first key again):
                // the final map has ≥2 entries or an unknown tag — either
                // way semantic error, but keep consuming structurally.
                _ => {
                    multi = true;
                    self.skip_value()?;
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    break;
                }
                _ => return Err(Reject),
            }
        }
        Ok(if multi || matches!(first, Some(None)) { Sem::Bad } else { val })
    }

    // --- plan vocabulary ------------------------------------------------

    fn scan_method(&mut self) -> PR<Sem<ScanMethod>> {
        match self.peek() {
            Some(b'"') => {
                self.string_value()?;
                Ok(if self.str_buf.as_str() == "Seq" {
                    Sem::Good(ScanMethod::Seq)
                } else {
                    Sem::Bad
                })
            }
            Some(b'{') => self.enum_object(
                |t| if t == "Index" { Some(0) } else { None },
                |p, _| p.index_payload(),
            ),
            _ => {
                self.skip_value()?;
                Ok(Sem::Bad)
            }
        }
    }

    fn index_payload(&mut self) -> PR<Sem<ScanMethod>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut index: Option<Sem<usize>> = None;
        let mut forward: Option<Sem<bool>> = None;
        self.fields(
            |k| match k {
                "index" => 0,
                "forward" => 1,
                _ => usize::MAX,
            },
            |p, f| {
                match f {
                    0 => index = Some(p.sem_usize()?),
                    1 => forward = Some(p.sem_bool()?),
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        Ok(match (index, forward) {
            (Some(Sem::Good(index)), Some(Sem::Good(forward))) => {
                Sem::Good(ScanMethod::Index { index, forward })
            }
            _ => Sem::Bad,
        })
    }

    fn operator(&mut self) -> PR<Sem<Operator>> {
        match self.peek() {
            Some(b'"') => {
                self.string_value()?;
                Ok(if self.str_buf.as_str() == "Materialize" {
                    Sem::Good(Operator::Materialize)
                } else {
                    Sem::Bad
                })
            }
            Some(b'{') => self.enum_object(
                |t| match t {
                    "Scan" => Some(0),
                    "Filter" => Some(1),
                    "Join" => Some(2),
                    "Hash" => Some(3),
                    "Sort" => Some(4),
                    "Aggregate" => Some(5),
                    "Limit" => Some(6),
                    _ => None,
                },
                |p, t| match t {
                    0 => p.scan_payload(),
                    1 => p.filter_payload(),
                    2 => p.join_payload(),
                    3 => p.hash_payload(),
                    4 => p.sort_payload(),
                    5 => p.aggregate_payload(),
                    _ => p.limit_payload(),
                },
            ),
            _ => {
                self.skip_value()?;
                Ok(Sem::Bad)
            }
        }
    }

    fn scan_payload(&mut self) -> PR<Sem<Operator>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut table: Option<Sem<usize>> = None;
        let mut method: Option<Sem<ScanMethod>> = None;
        let mut predicate_col: Option<Sem<Option<usize>>> = None;
        self.fields(
            |k| match k {
                "table" => 0,
                "method" => 1,
                "predicate_col" => 2,
                _ => usize::MAX,
            },
            |p, f| {
                match f {
                    0 => table = Some(p.sem_usize()?),
                    1 => method = Some(p.scan_method()?),
                    2 => predicate_col = Some(p.sem_opt_usize()?),
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        Ok(match (table, method, predicate_col) {
            (Some(Sem::Good(table)), Some(Sem::Good(method)), Some(Sem::Good(predicate_col))) => {
                Sem::Good(Operator::Scan { table, method, predicate_col })
            }
            _ => Sem::Bad,
        })
    }

    fn filter_payload(&mut self) -> PR<Sem<Operator>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut parallel: Option<Sem<bool>> = None;
        self.fields(
            |k| if k == "parallel" { 0 } else { usize::MAX },
            |p, f| {
                match f {
                    0 => parallel = Some(p.sem_bool()?),
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        Ok(match parallel {
            Some(Sem::Good(parallel)) => Sem::Good(Operator::Filter { parallel }),
            _ => Sem::Bad,
        })
    }

    fn join_payload(&mut self) -> PR<Sem<Operator>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut algo: Option<Sem<JoinAlgorithm>> = None;
        let mut jtype: Option<Sem<JoinType>> = None;
        let mut parent_rel: Option<Sem<ParentRel>> = None;
        self.fields(
            |k| match k {
                "algo" => 0,
                "jtype" => 1,
                "parent_rel" => 2,
                _ => usize::MAX,
            },
            |p, f| {
                match f {
                    0 => {
                        algo = Some(p.string_with(|s| match s {
                            "NestedLoop" => Some(JoinAlgorithm::NestedLoop),
                            "Hash" => Some(JoinAlgorithm::Hash),
                            "Merge" => Some(JoinAlgorithm::Merge),
                            _ => None,
                        })?)
                    }
                    1 => {
                        jtype = Some(p.string_with(|s| match s {
                            "Inner" => Some(JoinType::Inner),
                            "Semi" => Some(JoinType::Semi),
                            "Anti" => Some(JoinType::Anti),
                            "Full" => Some(JoinType::Full),
                            _ => None,
                        })?)
                    }
                    2 => {
                        parent_rel = Some(p.string_with(|s| match s {
                            "None" => Some(ParentRel::None),
                            "Inner" => Some(ParentRel::Inner),
                            "Outer" => Some(ParentRel::Outer),
                            "Subquery" => Some(ParentRel::Subquery),
                            _ => None,
                        })?)
                    }
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        Ok(match (algo, jtype, parent_rel) {
            (Some(Sem::Good(algo)), Some(Sem::Good(jtype)), Some(Sem::Good(parent_rel))) => {
                Sem::Good(Operator::Join { algo, jtype, parent_rel })
            }
            _ => Sem::Bad,
        })
    }

    fn hash_payload(&mut self) -> PR<Sem<Operator>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut buckets: Option<Sem<f64>> = None;
        let mut algo: Option<Sem<HashAlgorithm>> = None;
        self.fields(
            |k| match k {
                "buckets" => 0,
                "algo" => 1,
                _ => usize::MAX,
            },
            |p, f| {
                match f {
                    0 => buckets = Some(p.sem_f64()?),
                    1 => {
                        algo = Some(p.string_with(|s| match s {
                            "Linear" => Some(HashAlgorithm::Linear),
                            "Chained" => Some(HashAlgorithm::Chained),
                            _ => None,
                        })?)
                    }
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        Ok(match (buckets, algo) {
            (Some(Sem::Good(buckets)), Some(Sem::Good(algo))) => {
                Sem::Good(Operator::Hash { buckets, algo })
            }
            _ => Sem::Bad,
        })
    }

    fn sort_payload(&mut self) -> PR<Sem<Operator>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut key: Option<Sem<usize>> = None;
        let mut method: Option<Sem<SortMethod>> = None;
        self.fields(
            |k| match k {
                "key" => 0,
                "method" => 1,
                _ => usize::MAX,
            },
            |p, f| {
                match f {
                    0 => key = Some(p.sem_usize()?),
                    1 => {
                        method = Some(p.string_with(|s| match s {
                            "Quicksort" => Some(SortMethod::Quicksort),
                            "TopN" => Some(SortMethod::TopN),
                            "External" => Some(SortMethod::External),
                            _ => None,
                        })?)
                    }
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        Ok(match (key, method) {
            (Some(Sem::Good(key)), Some(Sem::Good(method))) => {
                Sem::Good(Operator::Sort { key, method })
            }
            _ => Sem::Bad,
        })
    }

    fn aggregate_payload(&mut self) -> PR<Sem<Operator>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut strategy: Option<Sem<AggStrategy>> = None;
        let mut partial: Option<Sem<bool>> = None;
        let mut op: Option<Sem<AggOp>> = None;
        self.fields(
            |k| match k {
                "strategy" => 0,
                "partial" => 1,
                "op" => 2,
                _ => usize::MAX,
            },
            |p, f| {
                match f {
                    0 => {
                        strategy = Some(p.string_with(|s| match s {
                            "Plain" => Some(AggStrategy::Plain),
                            "Sorted" => Some(AggStrategy::Sorted),
                            "Hashed" => Some(AggStrategy::Hashed),
                            _ => None,
                        })?)
                    }
                    1 => partial = Some(p.sem_bool()?),
                    2 => {
                        op = Some(p.string_with(|s| match s {
                            "Count" => Some(AggOp::Count),
                            "Sum" => Some(AggOp::Sum),
                            "Avg" => Some(AggOp::Avg),
                            "Min" => Some(AggOp::Min),
                            "Max" => Some(AggOp::Max),
                            _ => None,
                        })?)
                    }
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        Ok(match (strategy, partial, op) {
            (Some(Sem::Good(strategy)), Some(Sem::Good(partial)), Some(Sem::Good(op))) => {
                Sem::Good(Operator::Aggregate { strategy, partial, op })
            }
            _ => Sem::Bad,
        })
    }

    fn limit_payload(&mut self) -> PR<Sem<Operator>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut count: Option<Sem<f64>> = None;
        self.fields(
            |k| if k == "count" { 0 } else { usize::MAX },
            |p, f| {
                match f {
                    0 => count = Some(p.sem_f64()?),
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        Ok(match count {
            Some(Sem::Good(count)) => Sem::Good(Operator::Limit { count }),
            _ => Sem::Bad,
        })
    }

    fn node_est(&mut self) -> PR<Sem<NodeEst>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut width: Option<Sem<f64>> = None;
        let mut rows: Option<Sem<f64>> = None;
        let mut buffers: Option<Sem<f64>> = None;
        let mut ios: Option<Sem<f64>> = None;
        let mut total_cost: Option<Sem<f64>> = None;
        let mut selectivity: Option<Sem<f64>> = None;
        self.fields(
            |k| match k {
                "width" => 0,
                "rows" => 1,
                "buffers" => 2,
                "ios" => 3,
                "total_cost" => 4,
                "selectivity" => 5,
                _ => usize::MAX,
            },
            |p, f| {
                let slot = match f {
                    0 => &mut width,
                    1 => &mut rows,
                    2 => &mut buffers,
                    3 => &mut ios,
                    4 => &mut total_cost,
                    5 => &mut selectivity,
                    _ => {
                        p.skip_value()?;
                        return Ok(());
                    }
                };
                *slot = Some(p.sem_f64()?);
                Ok(())
            },
        )?;
        Ok(match (width, rows, buffers, ios, total_cost, selectivity) {
            (
                Some(Sem::Good(width)),
                Some(Sem::Good(rows)),
                Some(Sem::Good(buffers)),
                Some(Sem::Good(ios)),
                Some(Sem::Good(total_cost)),
                Some(Sem::Good(selectivity)),
            ) => Sem::Good(NodeEst { width, rows, buffers, ios, total_cost, selectivity }),
            _ => Sem::Bad,
        })
    }

    fn node_actual(&mut self) -> PR<Sem<NodeActual>> {
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut rows: Option<Sem<f64>> = None;
        let mut latency_ms: Option<Sem<f64>> = None;
        let mut self_latency_ms: Option<Sem<f64>> = None;
        self.fields(
            |k| match k {
                "rows" => 0,
                "latency_ms" => 1,
                "self_latency_ms" => 2,
                _ => usize::MAX,
            },
            |p, f| {
                let slot = match f {
                    0 => &mut rows,
                    1 => &mut latency_ms,
                    2 => &mut self_latency_ms,
                    _ => {
                        p.skip_value()?;
                        return Ok(());
                    }
                };
                *slot = Some(p.sem_f64()?);
                Ok(())
            },
        )?;
        Ok(match (rows, latency_ms, self_latency_ms) {
            (Some(Sem::Good(rows)), Some(Sem::Good(latency_ms)), Some(Sem::Good(self_latency_ms))) => {
                Sem::Good(NodeActual { rows, latency_ms, self_latency_ms })
            }
            _ => Sem::Bad,
        })
    }

    // --- plan nodes -----------------------------------------------------

    /// Parses one `PlanNode` object, pushing its subtree into the scratch
    /// plan in post order. On `Good` the node's index is returned and its
    /// direct-children indices have been consumed from `kids`; on `Bad`
    /// both scratch arrays are truncated back to this node's entry marks.
    fn plan_node(&mut self) -> PR<Sem<usize>> {
        let node_mark = self.sp.len();
        let kid_mark = self.kids.len();
        if self.peek() != Some(b'{') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        let mut op: Option<Sem<Operator>> = None;
        let mut est: Option<Sem<NodeEst>> = None;
        let mut actual: Option<Sem<NodeActual>> = None;
        let mut learned_rows: Option<Sem<Option<f64>>> = None;
        let mut concurrency: Option<Sem<f64>> = None;
        let mut children: Option<Sem<()>> = None;
        self.fields(
            |k| match k {
                "op" => 0,
                "est" => 1,
                "actual" => 2,
                "learned_rows" => 3,
                "concurrency" => 4,
                "children" => 5,
                _ => usize::MAX,
            },
            |p, f| {
                match f {
                    0 => op = Some(p.operator()?),
                    1 => est = Some(p.node_est()?),
                    2 => actual = Some(p.node_actual()?),
                    3 => learned_rows = Some(p.sem_opt_f64()?),
                    4 => concurrency = Some(p.sem_f64()?),
                    5 => children = Some(p.children_field(node_mark, kid_mark)?),
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        // `learned_rows` and `concurrency` carry #[serde(default)].
        let learned_rows = learned_rows.unwrap_or(Sem::Good(None));
        let concurrency = concurrency.unwrap_or(Sem::Good(1.0));
        match (op, est, actual, learned_rows, concurrency, children) {
            (
                Some(Sem::Good(op)),
                Some(Sem::Good(est)),
                Some(Sem::Good(actual)),
                Sem::Good(learned_rows),
                Sem::Good(concurrency),
                Some(Sem::Good(())),
            ) => {
                let node = PlanNode {
                    op,
                    est,
                    actual,
                    learned_rows,
                    concurrency,
                    children: Vec::new(),
                };
                let idx = self.sp.push_node(node, &self.kids[kid_mark..]);
                self.kids.truncate(kid_mark);
                Ok(Sem::Good(idx))
            }
            _ => {
                self.sp.truncate(node_mark);
                self.kids.truncate(kid_mark);
                Ok(Sem::Bad)
            }
        }
    }

    /// Parses a `children` array. Between this node's entry marks and
    /// here, the only scratch growth is a previous occurrence of this same
    /// field, so truncating to the marks implements last-wins for
    /// duplicate `children` keys (and is a no-op on the first occurrence).
    fn children_field(&mut self, node_mark: usize, kid_mark: usize) -> PR<Sem<()>> {
        self.sp.truncate(node_mark);
        self.kids.truncate(kid_mark);
        if self.peek() != Some(b'[') {
            self.skip_value()?;
            return Ok(Sem::Bad);
        }
        self.open()?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Sem::Good(()));
        }
        let mut bad = false;
        loop {
            self.skip_ws();
            if bad {
                self.skip_value()?;
            } else {
                match self.plan_node()? {
                    Sem::Good(idx) => self.kids.push(idx),
                    Sem::Bad => {
                        // A bad element poisons the whole Vec (the oracle's
                        // `collect::<Result<_>>` fails); drop the siblings
                        // already in scratch and validate the rest
                        // structurally only.
                        self.sp.truncate(node_mark);
                        self.kids.truncate(kid_mark);
                        bad = true;
                    }
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(if bad { Sem::Bad } else { Sem::Good(()) });
                }
                _ => return Err(Reject),
            }
        }
    }

    // --- request envelope -----------------------------------------------

    /// Parses the whole request line, replicating `proto::decode_request`:
    /// `v` must be 1, `tenant` (on every verb) a hex fingerprint, `op` a
    /// known verb; `retire`/`predict` need a decimal-string `id`,
    /// `admit`/`admit_predict` a plan, and `keep` (read by
    /// `admit_predict` only) must be a bool when present. Keys a verb
    /// does not read may hold any JSON. `Ok(Some(..))` = valid (plan in
    /// scratch, unsealed); `Ok(None)` = structurally valid but rejected;
    /// `Err` = structural error. The caller falls back on both.
    fn request(&mut self) -> PR<Option<(Verb, Option<u64>)>> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            return Ok(None);
        }
        let mut v: Option<Sem<f64>> = None;
        let mut op: Option<Sem<Verb>> = None;
        let mut keep: Option<Sem<bool>> = None;
        let mut tenant: Option<Sem<u64>> = None;
        let mut id: Option<Sem<u64>> = None;
        let mut plan: Option<Sem<usize>> = None;
        self.fields(
            |k| match k {
                "v" => 0,
                "op" => 1,
                "keep" => 2,
                "tenant" => 3,
                "id" => 4,
                "plan" => 5,
                _ => usize::MAX,
            },
            |p, f| {
                match f {
                    0 => v = Some(p.sem_f64()?),
                    // Verbs carry placeholder ids and `keep`; the real
                    // values are filled in once every key is read.
                    1 => {
                        op = Some(p.string_with(|s| {
                            Some(match s {
                                "admit" => Verb::Admit,
                                "retire" => Verb::Retire { id: 0 },
                                "predict" => Verb::Predict { id: 0 },
                                "admit_predict" => Verb::AdmitPredict { keep: false },
                                "stats" => Verb::Stats,
                                "shutdown" => Verb::Shutdown,
                                _ => return None,
                            })
                        })?)
                    }
                    2 => keep = Some(p.sem_bool()?),
                    3 => tenant = Some(p.string_with(|s| u64::from_str_radix(s, 16).ok())?),
                    4 => id = Some(p.string_with(|s| s.parse::<u64>().ok())?),
                    5 => {
                        // Last-wins for duplicate `plan` keys: the scratch
                        // holds only this occurrence's nodes.
                        p.sp.clear();
                        p.kids.clear();
                        plan = Some(p.plan_node()?);
                    }
                    _ => p.skip_value()?,
                }
                Ok(())
            },
        )?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Reject);
        }
        let tenant = match tenant {
            None => None,
            Some(Sem::Good(fp)) => Some(fp),
            Some(Sem::Bad) => return Ok(None),
        };
        if !matches!(v, Some(Sem::Good(x)) if x == VERSION as f64) {
            return Ok(None);
        }
        let has_plan = matches!(plan, Some(Sem::Good(_)));
        let verb = match (op, id, keep) {
            (Some(Sem::Good(Verb::Retire { .. })), Some(Sem::Good(id)), _) => Verb::Retire { id },
            (Some(Sem::Good(Verb::Predict { .. })), Some(Sem::Good(id)), _) => Verb::Predict { id },
            (Some(Sem::Good(Verb::AdmitPredict { .. })), _, None) if has_plan => {
                Verb::AdmitPredict { keep: false }
            }
            (Some(Sem::Good(Verb::AdmitPredict { .. })), _, Some(Sem::Good(keep))) if has_plan => {
                Verb::AdmitPredict { keep }
            }
            (Some(Sem::Good(verb @ Verb::Admit)), ..) if has_plan => verb,
            (Some(Sem::Good(verb @ (Verb::Stats | Verb::Shutdown))), ..) => verb,
            _ => return Ok(None),
        };
        Ok(Some((verb, tenant)))
    }
}

#[cfg(test)]
mod tests {
    use super::super::proto::{self, Request};
    use super::*;
    use qpp_plansim::catalog::Workload;
    use qpp_plansim::dataset::Dataset;

    /// The recursive oracle over a bare plan document: guarded parse +
    /// `from_value`, exactly what the slow path runs under the hood.
    fn oracle_plan(doc: &str) -> Option<PlanNode> {
        let v = proto::parse_guarded(doc).ok()?;
        serde_json::from_value::<PlanNode>(v).ok()
    }

    fn assert_scratch_eq(got: &ScratchPlan, tree: &PlanNode, ctx: &str) {
        let mut want = ScratchPlan::new();
        want.rebuild_from_tree(tree);
        assert_eq!(got.len(), want.len(), "node count on {ctx}");
        assert_eq!(got.kinds(), want.kinds(), "kinds on {ctx}");
        assert_eq!(got.nodes(), want.nodes(), "node content on {ctx}");
        assert_eq!(got.shard_hash(), want.shard_hash(), "shard hash on {ctx}");
        for k in 0..got.len() {
            assert_eq!(
                got.lowering().children_of(k),
                want.lowering().children_of(k),
                "children of {k} on {ctx}"
            );
            assert_eq!(
                got.lowering().height_of(k),
                want.lowering().height_of(k),
                "height of {k} on {ctx}"
            );
        }
    }

    /// Fast decoder and oracle must agree on accept/reject; on accept the
    /// scratch CSR must equal the lowering of the oracle's tree.
    fn check_doc(rs: &mut RequestScratch, doc: &str) {
        let fast = rs.decode_plan_doc(doc);
        match oracle_plan(doc) {
            Some(tree) => {
                assert!(fast, "fast decoder rejected a doc the oracle accepts: {doc}");
                assert_scratch_eq(rs.plan(), &tree, doc);
            }
            None => assert!(!fast, "fast decoder accepted a doc the oracle rejects: {doc}"),
        }
    }

    /// The tenant the oracle reads from an accepted line, on any verb.
    fn oracle_tenant(line: &str) -> Option<u64> {
        let v = proto::parse_guarded(line).expect("the oracle accepted the line");
        let tenant = v.as_object().expect("requests are objects").get("tenant");
        tenant.map(|t| proto::decode_fingerprint(t).expect("the oracle accepted the tenant"))
    }

    /// Request lines: `Ready` must coincide with the oracle accepting the
    /// line (and its plan passing the arity check), with the same verb,
    /// id and tenant, and a plan-carrying verb's scratch plan must equal
    /// the lowering of the oracle's tree.
    fn check_line(rs: &mut RequestScratch, line: &str) {
        match (rs.decode(line), proto::decode_request(line)) {
            (FastDecode::Ready { verb, tenant }, Ok(req)) => {
                assert_eq!(tenant, oracle_tenant(line), "tenant diverged on {line}");
                let plan = match (verb, req) {
                    (Verb::Admit, Request::Admit { plan, .. }) => Some(plan),
                    (Verb::AdmitPredict { keep }, Request::AdmitPredict { plan, keep: k, .. }) => {
                        assert_eq!(keep, k, "keep diverged on {line}");
                        Some(plan)
                    }
                    (Verb::Retire { id }, Request::Retire { id: want })
                    | (Verb::Predict { id }, Request::Predict { id: want }) => {
                        assert_eq!(id, want, "id diverged on {line}");
                        None
                    }
                    (Verb::Stats, Request::Stats) | (Verb::Shutdown, Request::Shutdown) => None,
                    (verb, req) => panic!("verb diverged on {line}: {verb:?} vs {req:?}"),
                };
                if let Some(plan) = plan {
                    assert!(
                        super::super::validate_plan(&plan).is_ok(),
                        "arity gate leaked: {line}"
                    );
                    assert_scratch_eq(rs.plan(), &plan, line);
                }
            }
            (FastDecode::Fallback, Err(_)) => {}
            (
                FastDecode::Fallback,
                Ok(Request::Admit { plan, .. } | Request::AdmitPredict { plan, .. }),
            ) if super::super::validate_plan(&plan).is_err() => {}
            (fast, oracle) => panic!("decoders disagree on {line}: {fast:?} vs {oracle:?}"),
        }
    }

    fn leaf() -> &'static str {
        r#"{"op":{"Scan":{"table":0,"method":"Seq","predicate_col":null}},"est":{"width":8,"rows":100,"buffers":0,"ios":10,"total_cost":25.5,"selectivity":1},"actual":{"rows":90,"latency_ms":1.5,"self_latency_ms":1.5},"children":[]}"#
    }

    fn wrap_filter(inner: &str) -> String {
        format!(
            r#"{{"op":{{"Filter":{{"parallel":false}}}},"est":{{"width":8,"rows":50,"buffers":0,"ios":0,"total_cost":30,"selectivity":0.5}},"actual":{{"rows":45,"latency_ms":2,"self_latency_ms":0.5}},"children":[{inner}]}}"#
        )
    }

    #[test]
    fn round_trips_generated_workload_plans() {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 16, 9);
        let mut rs = RequestScratch::new();
        for plan in &ds.plans {
            let doc = serde_json::to_string(&plan.root).unwrap();
            check_doc(&mut rs, &doc);
            let line = proto::encode_request(&Request::AdmitPredict {
                plan: Box::new(plan.root.clone()),
                keep: false,
                tenant: None,
            });
            let oneshot = Verb::AdmitPredict { keep: false };
            assert_eq!(
                rs.decode(&line),
                FastDecode::Ready { verb: oneshot, tenant: None },
                "a wire round trip must decode"
            );
            assert_scratch_eq(rs.plan(), &plan.root, &line);
            check_line(&mut rs, &line);
        }
    }

    #[test]
    fn request_envelope_gates_eligibility() {
        let plan_doc = wrap_filter(leaf());
        let mut rs = RequestScratch::new();
        let ready = |verb, tenant| FastDecode::Ready { verb, tenant };
        let oneshot = Verb::AdmitPredict { keep: false };
        // Each line with the decode the oracle's accept set demands.
        for (line, want) in [
            // Explicit tenant, odd key order, unknown keys, whitespace.
            (
                format!(" {{ \"tenant\" : \"00ff\" , \"plan\" : {plan_doc}, \"x_unknown\": [1, {{}}], \"op\": \"admit_predict\", \"v\": 1 }} "),
                ready(oneshot, Some(0xff)),
            ),
            (
                format!(r#"{{"v":1,"op":"admit_predict","plan":{plan_doc},"keep":true}}"#),
                ready(Verb::AdmitPredict { keep: true }, None),
            ),
            (format!(r#"{{"v":1.0,"op":"admit","plan":{plan_doc}}}"#), ready(Verb::Admit, None)),
            // `keep` is read by `admit_predict` only.
            (format!(r#"{{"v":1,"op":"admit","plan":{plan_doc},"keep":5}}"#), ready(Verb::Admit, None)),
            (r#"{"v":1,"op":"stats","tenant":"0"}"#.to_string(), ready(Verb::Stats, Some(0))),
            // Keys a verb does not read may hold any JSON, even a bad plan.
            (
                r#"{"v":1,"op":"shutdown","plan":{"bogus":1},"keep":"x","id":[]}"#.to_string(),
                ready(Verb::Shutdown, None),
            ),
            (
                r#"{"v":1,"op":"retire","id":"18446744073709551615"}"#.to_string(),
                ready(Verb::Retire { id: u64::MAX }, None),
            ),
            // `u64::from_str` takes a leading `+`; duplicate keys are last-wins.
            (r#"{"v":1,"op":"predict","id":"+7"}"#.to_string(), ready(Verb::Predict { id: 7 }, None)),
            (
                r#"{"v":1,"op":"retire","id":"1","id":"2","op":"predict"}"#.to_string(),
                ready(Verb::Predict { id: 2 }, None),
            ),
            (format!(r#"{{"v":2,"op":"admit_predict","plan":{plan_doc}}}"#), FastDecode::Fallback),
            (
                format!(r#"{{"v":1,"op":"admit_predict","plan":{plan_doc},"tenant":"zz"}}"#),
                FastDecode::Fallback,
            ),
            (
                format!(r#"{{"v":1,"op":"admit_predict","plan":{plan_doc},"tenant":null}}"#),
                FastDecode::Fallback,
            ),
            (r#"{"v":1,"op":"stats","tenant":"zz"}"#.to_string(), FastDecode::Fallback),
            (
                format!(r#"{{"v":1,"op":"admit_predict","plan":{plan_doc},"keep":1}}"#),
                FastDecode::Fallback,
            ),
            (format!(r#"{{"op":"admit_predict","plan":{plan_doc}}}"#), FastDecode::Fallback),
            (r#"{"v":1,"op":"admit_predict"}"#.to_string(), FastDecode::Fallback),
            (r#"{"v":1,"op":"admit","plan":{"bogus":1}}"#.to_string(), FastDecode::Fallback),
            (r#"{"v":1,"op":"predict","id":7}"#.to_string(), FastDecode::Fallback),
            (r#"{"v":1,"op":"predict","id":"18446744073709551616"}"#.to_string(), FastDecode::Fallback),
            (r#"{"v":1,"op":"retire","id":"2","id":2}"#.to_string(), FastDecode::Fallback),
            (r#"{"v":1,"op":"predict"}"#.to_string(), FastDecode::Fallback),
            (r#"{"v":1,"op":"explode"}"#.to_string(), FastDecode::Fallback),
            (r#"{"v":1,"op":5}"#.to_string(), FastDecode::Fallback),
            (format!(r#"{{"v":1,"op":"admit_predict","plan":{plan_doc}}} trailing"#), FastDecode::Fallback),
            (format!(r#"[{{"v":1,"op":"admit_predict","plan":{plan_doc}}}]"#), FastDecode::Fallback),
            (String::new(), FastDecode::Fallback),
        ] {
            assert_eq!(rs.decode(&line), want, "line: {line}");
            check_line(&mut rs, &line);
        }
    }

    #[test]
    fn duplicate_keys_are_last_wins_at_every_level() {
        let mut rs = RequestScratch::new();
        let leaf = leaf();
        let est = r#"{"width":8,"rows":50,"buffers":0,"ios":0,"total_cost":30,"selectivity":0.5}"#;
        let act = r#"{"rows":45,"latency_ms":2,"self_latency_ms":0.5}"#;
        for doc in [
            // A later duplicate rescues a bad `op`; a later bad one poisons.
            format!(r#"{{"op":5,"op":{{"Filter":{{"parallel":true}}}},"est":{est},"actual":{act},"children":[{leaf}]}}"#),
            format!(r#"{{"op":{{"Filter":{{"parallel":true}}}},"op":5,"est":{est},"actual":{act},"children":[{leaf}]}}"#),
            // Duplicate children arrays: last array is the real child list.
            format!(r#"{{"op":{{"Filter":{{"parallel":true}}}},"est":{est},"actual":{act},"children":[],"children":[{leaf}]}}"#),
            format!(r#"{{"op":{{"Filter":{{"parallel":true}}}},"est":{est},"actual":{act},"children":[{leaf}],"children":[]}}"#),
            format!(r#"{{"op":{{"Filter":{{"parallel":true}}}},"est":{est},"actual":{act},"children":[{leaf}],"children":"no"}}"#),
            // Duplicate scalar field inside a payload struct.
            format!(r#"{{"op":{{"Filter":{{"parallel":1,"parallel":false}}}},"est":{est},"actual":{act},"children":[{leaf}]}}"#),
            format!(r#"{{"op":{{"Filter":{{"parallel":false,"parallel":1}}}},"est":{est},"actual":{act},"children":[{leaf}]}}"#),
            // Duplicate est objects.
            format!(r#"{{"op":{{"Filter":{{"parallel":true}}}},"est":0,"est":{est},"actual":{act},"children":[{leaf}]}}"#),
            // Duplicate enum tag: last payload wins.
            format!(r#"{{"op":{{"Filter":{{"parallel":false}},"Filter":{{"parallel":true}}}},"est":{est},"actual":{act},"children":[{leaf}]}}"#),
            format!(r#"{{"op":{{"Filter":0,"Filter":{{"parallel":true}}}},"est":{est},"actual":{act},"children":[{leaf}]}}"#),
            format!(r#"{{"op":{{"Filter":{{"parallel":true}},"Filter":0}},"est":{est},"actual":{act},"children":[{leaf}]}}"#),
        ] {
            check_doc(&mut rs, &doc);
        }
        // Duplicate `plan` at the request level: last one wins.
        let good = wrap_filter(leaf);
        let line =
            format!(r#"{{"v":1,"op":"admit_predict","plan":{leaf},"plan":{good}}}"#);
        assert!(matches!(rs.decode(&line), FastDecode::Ready { tenant: None, .. }));
        assert_eq!(rs.plan().len(), 2, "scratch must hold only the second plan");
        check_line(&mut rs, &line);
        let line =
            format!(r#"{{"v":1,"op":"admit_predict","plan":{good},"plan":7}}"#);
        assert_eq!(rs.decode(&line), FastDecode::Fallback);
        check_line(&mut rs, &line);
    }

    #[test]
    fn enum_representations_match_the_derive() {
        let mut rs = RequestScratch::new();
        let est = r#"{"width":1,"rows":1,"buffers":0,"ios":0,"total_cost":1,"selectivity":1}"#;
        let act = r#"{"rows":1,"latency_ms":1,"self_latency_ms":1}"#;
        let node = |op: &str| format!(r#"{{"op":{op},"est":{est},"actual":{act},"children":[]}}"#);
        for op in [
            r#""Materialize""#,                                   // unit string form: accept
            r#"{"Materialize":null}"#,                            // unit tag in object form: reject
            r#"{"Materialize":{}}"#,                              // ditto
            r#""Limit""#,                                         // payload variant as string: reject
            r#"{"Limit":{"count":3}}"#,                           // accept
            r#"{"Limit":{"count":3},"Filter":{"parallel":true}}"#, // two distinct keys: reject
            r#"{}"#,                                              // zero keys: reject
            r#"{"Bogus":1}"#,                                     // unknown tag: reject
            r#"{"Bogus":1,"Bogus":2}"#,                           // unknown tag, deduped: reject
            r#"{"Limit":{"count":3,"extra":9}}"#,                 // unknown payload field: ignored
            r#"{"Limit":{}}"#,                                    // missing required field: reject
            r#"{"Sort":{"key":2,"method":"TopN"}}"#,              // accept
            r#"{"Sort":{"key":2.9,"method":"TopN"}}"#,            // fractional usize: `as` cast
            r#"{"Sort":{"key":-3,"method":"TopN"}}"#,             // negative usize: `as` cast → 0
            r#"{"Sort":{"key":2,"method":"External","method":"Quicksort"}}"#,
            r#"{"Scan":{"table":1,"method":{"Index":{"index":0,"forward":true}},"predicate_col":2}}"#,
            r#"{"Scan":{"table":1,"method":{"Seq":null},"predicate_col":null}}"#, // unit tag object form
            r#"{"Scan":{"table":1,"method":"Index","predicate_col":null}}"#, // payload tag as string
            r#"{"Scan":{"table":1,"method":"Seq"}}"#,             // missing Option field is an error
            r#"{"Aggregate":{"strategy":"Hashed","partial":true,"op":"Sum"}}"#,
            r#"{"Join":{"algo":"Merge","jtype":"Semi","parent_rel":"None"}}"#,
            r#"{"Join":{"algo":"Merge","jtype":"Semi","parent_rel":"Elsewhere"}}"#,
            r#"{"Hash":{"buckets":1024.5,"algo":"Chained"}}"#,
        ] {
            check_doc(&mut rs, &node(op));
        }
    }

    #[test]
    fn escapes_and_hostile_strings_match_the_oracle() {
        let mut rs = RequestScratch::new();
        let est = r#"{"width":1,"rows":1,"buffers":0,"ios":0,"total_cost":1,"selectivity":1}"#;
        let act = r#"{"rows":1,"latency_ms":1,"self_latency_ms":1}"#;
        for doc in [
            // Escaped key: "op" decodes to "op".
            format!(r#"{{"op":"Materialize","est":{est},"actual":{act},"children":[]}}"#),
            // `from_str_radix` accepts a leading `+`: "\u+041" is 'A'...
            format!(r#"{{"op":"M\u+061terialize","est":{est},"actual":{act},"children":[]}}"#),
            // ...but a surrogate code point rejects.
            format!(r#"{{"op":"M\ud800aterialize","est":{est},"actual":{act},"children":[]}}"#),
            // Truncated \u escape.
            format!(r#"{{"op":"Materialize","est":{est},"actual":{act},"children":[],"x":"\u00"#),
            // Unknown escape / uppercase \U.
            format!(r#"{{"op":"Materialize","est":{est},"actual":{act},"children":[],"x":"\q"}}"#),
            format!(r#"{{"op":"Materialize","est":{est},"actual":{act},"children":[],"x":"\U0041"}}"#),
            // Raw control byte and raw multi-byte UTF-8 inside a string.
            format!("{{\"op\":\"Materialize\",\"est\":{est},\"actual\":{act},\"children\":[],\"x\":\"a\u{1}b\"}}"),
            format!(r#"{{"op":"Materialize","est":{est},"actual":{act},"children":[],"xé":"é\n\t\"\\"}}"#),
            // Unterminated string.
            format!(r#"{{"op":"Materialize","est":{est},"actual":{act},"children":[],"x":"oops"#),
            // Escape-heavy unknown keys are skipped but still validated.
            format!(r#"{{"op":"Materialize","est":{est},"actual":{act},"children":[],"\n\t\"\\\/\b\f":null}}"#),
        ] {
            check_doc(&mut rs, &doc);
        }
    }

    #[test]
    fn hostile_numbers_and_keywords_match_the_oracle() {
        let mut rs = RequestScratch::new();
        let act = r#"{"rows":1,"latency_ms":1,"self_latency_ms":1}"#;
        let with_width = |w: &str| {
            format!(
                r#"{{"op":"Materialize","est":{{"width":{w},"rows":1,"buffers":0,"ios":0,"total_cost":1,"selectivity":1}},"actual":{act},"children":[]}}"#
            )
        };
        for w in ["1e999", "-0", "2.5e-3", "1.", "1-2", "--1", "-", "1e", "1..2", "1e+5", "01"] {
            check_doc(&mut rs, &with_width(w));
        }
        for doc in [
            r#"tru"#.to_string(),
            r#"nul"#.to_string(),
            with_width("1").replace(":[]", ":[],\"x\":fals"),
            with_width("1").replace(":[]", ":[],\"x\":truething"),
            with_width("1") + " \t\r\n",
            with_width("1") + "x",
        ] {
            check_doc(&mut rs, &doc);
        }
    }

    #[test]
    fn nesting_bomb_rejects_without_recursing() {
        let mut rs = RequestScratch::new();
        let mut doc = leaf().to_string();
        for _ in 0..600 {
            doc = wrap_filter(&doc);
        }
        check_doc(&mut rs, &doc); // both sides reject (depth > 512)
        let line = format!(r#"{{"v":1,"op":"admit_predict","plan":{doc}}}"#);
        assert_eq!(rs.decode(&line), FastDecode::Fallback);
        // A deep-but-legal chain is accepted and lowered correctly.
        let mut doc = leaf().to_string();
        for _ in 0..100 {
            doc = wrap_filter(&doc);
        }
        check_doc(&mut rs, &doc);
        assert_eq!(rs.plan().len(), 101);
    }

    #[test]
    fn arity_violations_fall_back_to_the_oracle_path() {
        let mut rs = RequestScratch::new();
        // A Join with one child decodes fine (`from_value` has no arity
        // check) but is declined on every plan verb: the daemon words the
        // `invalid_plan` reply through the oracle and `validate_plan`.
        let join = format!(
            r#"{{"op":{{"Join":{{"algo":"Hash","jtype":"Inner","parent_rel":"None"}}}},"est":{{"width":1,"rows":1,"buffers":0,"ios":0,"total_cost":1,"selectivity":1}},"actual":{{"rows":1,"latency_ms":1,"self_latency_ms":1}},"children":[{}]}}"#,
            leaf()
        );
        assert!(rs.decode_plan_doc(&join), "doc itself decodes");
        for line in [
            format!(r#"{{"v":1,"op":"admit_predict","plan":{join}}}"#),
            format!(r#"{{"v":1,"op":"admit_predict","plan":{join},"keep":true}}"#),
            format!(r#"{{"v":1,"op":"admit","plan":{join}}}"#),
        ] {
            assert_eq!(rs.decode(&line), FastDecode::Fallback);
            check_line(&mut rs, &line);
        }
        // A verb that ignores its plan does not check it.
        let line = format!(r#"{{"v":1,"op":"stats","plan":{join}}}"#);
        assert_eq!(rs.decode(&line), FastDecode::Ready { verb: Verb::Stats, tenant: None });
        let why = ScratchPlan::from_tree(&oracle_plan(&join).unwrap()).check_arity();
        assert_eq!(why, Err("Join node with 1 children (expected 2)".to_string()));
    }

    #[test]
    fn steady_state_decode_is_allocation_free() {
        let ds = Dataset::generate(Workload::TpcH, 1.0, 8, 33);
        let mut rs = RequestScratch::new();
        let lines: Vec<String> = ds
            .plans
            .iter()
            .map(|p| {
                proto::encode_request(&Request::AdmitPredict {
                    plan: Box::new(p.root.clone()),
                    keep: false,
                    tenant: Some(0xabcd),
                })
            })
            .collect();
        // Warm up: buffers grow to their steady-state capacity.
        for line in &lines {
            assert!(matches!(rs.decode(line), FastDecode::Ready { .. }));
        }
        let before = crate::alloc::thread_alloc_count();
        for _ in 0..3 {
            for line in &lines {
                assert!(matches!(rs.decode(line), FastDecode::Ready { .. }));
            }
        }
        let delta = crate::alloc::thread_alloc_count() - before;
        assert_eq!(delta, 0, "warm fast decode must not allocate");
    }
}
