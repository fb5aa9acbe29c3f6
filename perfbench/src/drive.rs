//! The load generator: closed- and open-loop phases against a running
//! daemon, one thread and one connection per client (two clients).
//!
//! Every request's latency is stored, not bucketed, and every raw reply
//! line is kept so correctness is checked after the timed window. In an
//! open loop each request is due at a fixed offset from the phase start;
//! its latency runs from when it was due, so a stall also delays (and is
//! charged to) the requests behind it, and the generator records how late
//! it sent each request. Nothing is shed: a request that cannot be sent
//! on time is sent late, so no operation fails on an overloaded step.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::traffic::{OneshotBatch, SessionOp, SessionScript, Traffic};

/// Client connections (and generator threads).
pub const CONNS: usize = 2;

/// A closed loop runs until each client has sent at least this many
/// requests, however short its duration.
pub const MIN_PER_CONN: usize = 50;

/// A request that has not been answered after this long is a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// How a phase offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Each client sends its next request when the previous reply arrives.
    Closed,
    /// Requests are due at `rate` per second across all clients.
    Open {
        /// Aggregate arrival rate, requests per second.
        rate: f64,
    },
}

/// One attempted request of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    /// Line index (one-shot), script op index (timed session request) or
    /// index into [`ConnLog::drain`] (untimed session retire).
    pub item: u32,
    /// Byte range of the reply in [`ConnLog::replies`]; `None` when the
    /// request failed in transport (error, timeout, never sent).
    pub reply: Option<(u32, u32)>,
    /// Part of the timed window (drain requests are not).
    pub timed: bool,
}

/// What one client connection did during a phase.
#[derive(Debug, Clone, Default)]
pub struct ConnLog {
    /// Latency of every timed request that got a reply, ns.
    pub lat_ns: Vec<u64>,
    /// Open loop: how late each request was sent, ns.
    pub lag_ns: Vec<u64>,
    /// Every reply line, concatenated.
    pub replies: Vec<u8>,
    /// One record per attempted request, in send order.
    pub recs: Vec<Rec>,
    /// Sessions: the daemon's id of each slot (`None` if its admit failed
    /// or it was never admitted).
    pub ids: Vec<Option<u64>>,
    /// Sessions: slots retired untimed after the phase; an untimed
    /// record's `item` indexes this.
    pub drain: Vec<u32>,
    /// When the last timed reply arrived, from the phase start.
    pub last_reply: Duration,
}

impl ConnLog {
    /// The reply line of `rec` (without its newline).
    pub fn reply(&self, rec: &Rec) -> Option<&[u8]> {
        rec.reply
            .map(|(a, b)| &self.replies[a as usize..b as usize])
    }
}

/// The outcome of one phase.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase label (`closed.0`, `open_lo.0`, ...).
    pub name: String,
    /// Per-connection logs.
    pub conns: Vec<ConnLog>,
}

impl Phase {
    /// All timed latencies, ns.
    pub fn latencies(&self) -> Vec<u64> {
        self.conns
            .iter()
            .flat_map(|c| c.lat_ns.iter().copied())
            .collect()
    }

    /// All send lags, ns.
    pub fn lags(&self) -> Vec<u64> {
        self.conns
            .iter()
            .flat_map(|c| c.lag_ns.iter().copied())
            .collect()
    }

    /// Send lags of the last tenth of each connection's sends, ns: where
    /// a backlog that grows through the phase shows.
    pub fn late_lags(&self) -> Vec<u64> {
        self.conns
            .iter()
            .flat_map(|c| {
                c.lag_ns[c.lag_ns.len() - c.lag_ns.len().div_ceil(10)..]
                    .iter()
                    .copied()
            })
            .collect()
    }

    /// Requests that failed in transport.
    pub fn transport_failed(&self) -> u64 {
        self.conns
            .iter()
            .flat_map(|c| &c.recs)
            .filter(|r| r.reply.is_none())
            .count() as u64
    }

    /// Timed requests answered.
    pub fn answered(&self) -> usize {
        self.conns.iter().map(|c| c.lat_ns.len()).sum()
    }

    /// From the phase start to its last timed reply.
    pub fn wall(&self) -> Duration {
        self.conns
            .iter()
            .map(|c| c.last_reply)
            .max()
            .unwrap_or_default()
    }

    /// Timed requests answered per second of the phase's wall time.
    pub fn throughput(&self) -> f64 {
        let wall = self.wall();
        if wall.is_zero() {
            0.0
        } else {
            self.answered() as f64 / wall.as_secs_f64()
        }
    }
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Sets this thread's timer slack to 1 ns so open-loop sleeps wake on
/// time instead of up to 50 µs late.
fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes an integer argument, touches only
    // the calling thread's scheduling attribute and reads no memory.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            writer: s.try_clone()?,
            reader: BufReader::new(s),
        })
    }

    /// Sends one line and appends its reply (newline stripped) to `out`,
    /// returning the reply's byte range.
    fn roundtrip(&mut self, line: &[u8], out: &mut Vec<u8>) -> io::Result<(u32, u32)> {
        self.writer.write_all(line)?;
        let start = out.len();
        let n = self.reader.read_until(b'\n', out)?;
        if n == 0 || out.last() != Some(&b'\n') {
            out.truncate(start);
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            ));
        }
        out.pop();
        Ok((start as u32, out.len() as u32))
    }
}

/// Per-connection pacing: when item `k` (the connection's `k`-th) is due.
struct Pace {
    mode: Mode,
    conn: usize,
    start: Instant,
}

impl Pace {
    /// Offset from the phase start at which the connection's `k`-th
    /// request is due (global request index `k·CONNS + conn`).
    fn due(&self, k: usize) -> Duration {
        match self.mode {
            Mode::Closed => Duration::ZERO,
            Mode::Open { rate } => Duration::from_secs_f64((k * CONNS + self.conn) as f64 / rate),
        }
    }

    /// Waits until request `k` is due and returns (clock start for its
    /// latency, lag). In a closed loop the clock starts at the send.
    fn wait(&self, k: usize) -> (Instant, Option<u64>) {
        match self.mode {
            Mode::Closed => (Instant::now(), None),
            Mode::Open { .. } => {
                let due = self.start + self.due(k);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let lag = Instant::now().saturating_duration_since(due).as_nanos() as u64;
                (due, Some(lag))
            }
        }
    }
}

/// Number of requests an open-loop phase of `duration` offers at `rate`.
pub fn open_count(rate: f64, duration: Duration) -> usize {
    (rate * duration.as_secs_f64()).round() as usize
}

/// Drives one-shot lines: connection `c` sends lines `c, c+CONNS, …`.
/// A closed loop stops sending at `duration` (once each client has sent
/// [`MIN_PER_CONN`]); an open loop sends every line of `batch` on
/// schedule.
pub fn run_oneshot(
    addr: &str,
    batch: &OneshotBatch,
    mode: Mode,
    duration: Duration,
    name: &str,
) -> Phase {
    let start = Instant::now() + Duration::from_millis(2);
    let conns = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                scope.spawn(move || {
                    tight_timer_slack();
                    let pace = Pace {
                        mode,
                        conn: c,
                        start,
                    };
                    let mut log = ConnLog::default();
                    let mut client = Client::connect(addr).ok();
                    while Instant::now() < start {
                        std::hint::spin_loop();
                    }
                    for (k, i) in (c..batch.lines.len()).step_by(CONNS).enumerate() {
                        if mode == Mode::Closed && k >= MIN_PER_CONN && start.elapsed() >= duration
                        {
                            break;
                        }
                        let (t0, lag) = pace.wait(k);
                        let reply = send(&mut client, addr, &batch.lines[i], &mut log.replies);
                        record(&mut log, i, reply, t0, lag, start, true);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    Phase {
        name: name.to_string(),
        conns,
    }
}

fn send(
    client: &mut Option<Client>,
    addr: &str,
    line: &[u8],
    out: &mut Vec<u8>,
) -> Option<(u32, u32)> {
    if client.is_none() {
        *client = Client::connect(addr).ok();
    }
    let c = client.as_mut()?;
    match c.roundtrip(line, out) {
        Ok(r) => Some(r),
        Err(_) => {
            // The stream may still deliver the lost reply later; start over.
            *client = None;
            None
        }
    }
}

fn record(
    log: &mut ConnLog,
    item: usize,
    reply: Option<(u32, u32)>,
    t0: Instant,
    lag: Option<u64>,
    start: Instant,
    timed: bool,
) {
    if timed {
        if let Some(lag) = lag {
            log.lag_ns.push(lag);
        }
        if reply.is_some() {
            log.lat_ns.push(t0.elapsed().as_nanos() as u64);
            log.last_reply = start.elapsed();
        }
    }
    log.recs.push(Rec {
        item: item as u32,
        reply,
        timed,
    });
}

/// The `predict`/`retire` line for a daemon id, byte-identical to
/// `proto::encode_request` (keys in sorted order).
pub fn id_line(op: &str, id: u64, out: &mut Vec<u8>) {
    out.clear();
    let _ = writeln!(out, "{{\"id\":\"{id}\",\"op\":\"{op}\",\"v\":1}}");
}

/// The wire id in an `admit` reply (`"id":"<digits>"`).
pub fn reply_id(reply: &[u8]) -> Option<u64> {
    let key = b"\"id\":\"";
    let at = reply.windows(key.len()).position(|w| w == key)? + key.len();
    let digits = &reply[at..];
    let end = digits.iter().position(|&b| b == b'"')?;
    std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
}

/// Drives session scripts, one per connection. A closed loop stops at
/// `duration`; an open loop sends `count_per_conn` ops per connection on
/// schedule. Plans still resident at the end are retired untimed.
pub fn run_sessions(
    addr: &str,
    traffic: &Traffic,
    scripts: &[SessionScript],
    mode: Mode,
    duration: Duration,
    count_per_conn: usize,
    name: &str,
) -> Phase {
    assert_eq!(scripts.len(), CONNS, "one script per connection");
    let start = Instant::now() + Duration::from_millis(2);
    let conns = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(c, script)| {
                scope.spawn(move || {
                    tight_timer_slack();
                    let pace = Pace {
                        mode,
                        conn: c,
                        start,
                    };
                    let mut log = ConnLog {
                        ids: vec![None; script.slot_template.len()],
                        ..ConnLog::default()
                    };
                    let mut resident = std::collections::BTreeSet::new();
                    let mut client = Client::connect(addr).ok();
                    let mut buf = Vec::with_capacity(64);
                    while Instant::now() < start {
                        std::hint::spin_loop();
                    }
                    for (k, op) in script.ops.iter().enumerate() {
                        let stop = match mode {
                            Mode::Closed => k >= MIN_PER_CONN && start.elapsed() >= duration,
                            Mode::Open { .. } => k >= count_per_conn,
                        };
                        if stop {
                            break;
                        }
                        let (t0, lag) = pace.wait(k);
                        let reply = match *op {
                            SessionOp::Admit { slot, template } => {
                                let r = send(
                                    &mut client,
                                    addr,
                                    &traffic.admit_lines[template as usize],
                                    &mut log.replies,
                                );
                                let id = r.and_then(|(a, b)| {
                                    reply_id(&log.replies[a as usize..b as usize])
                                });
                                log.ids[slot as usize] = id;
                                if id.is_some() {
                                    resident.insert(slot);
                                }
                                r
                            }
                            SessionOp::Predict { slot } | SessionOp::Retire { slot } => {
                                let retire = matches!(op, SessionOp::Retire { .. });
                                match log.ids[slot as usize] {
                                    Some(id) => {
                                        id_line(
                                            if retire { "retire" } else { "predict" },
                                            id,
                                            &mut buf,
                                        );
                                        if retire {
                                            resident.remove(&slot);
                                        }
                                        send(&mut client, addr, &buf, &mut log.replies)
                                    }
                                    None => None,
                                }
                            }
                        };
                        record(&mut log, k, reply, t0, lag, start, true);
                    }
                    // Drain: retire what this connection left resident.
                    for slot in std::mem::take(&mut resident) {
                        let id = log.ids[slot as usize].expect("resident slots have ids");
                        id_line("retire", id, &mut buf);
                        let reply = send(&mut client, addr, &buf, &mut log.replies);
                        log.recs.push(Rec {
                            item: log.drain.len() as u32,
                            reply,
                            timed: false,
                        });
                        log.drain.push(slot);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    Phase {
        name: name.to_string(),
        conns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppnet::serve::proto::{encode_request, Request};

    #[test]
    fn id_lines_match_the_protocol_encoder() {
        let mut buf = Vec::new();
        id_line("predict", 12345678901234, &mut buf);
        assert_eq!(
            buf,
            format!(
                "{}\n",
                encode_request(&Request::Predict { id: 12345678901234 })
            )
            .into_bytes()
        );
        id_line("retire", 7, &mut buf);
        assert_eq!(
            buf,
            format!("{}\n", encode_request(&Request::Retire { id: 7 })).into_bytes()
        );
    }

    #[test]
    fn admit_reply_ids_parse() {
        assert_eq!(
            reply_id(br#"{"id":"17","ok":true,"op":"admit","v":1}"#),
            Some(17)
        );
        assert_eq!(reply_id(br#"{"ok":false}"#), None);
    }

    #[test]
    fn open_loop_offsets_interleave_connections() {
        let start = Instant::now();
        let p0 = Pace {
            mode: Mode::Open { rate: 1000.0 },
            conn: 0,
            start,
        };
        let p1 = Pace {
            mode: Mode::Open { rate: 1000.0 },
            conn: 1,
            start,
        };
        assert_eq!(p0.due(0), Duration::ZERO);
        assert_eq!(p1.due(0), Duration::from_millis(1));
        assert_eq!(p0.due(3), Duration::from_millis(6));
        assert_eq!(open_count(1000.0, Duration::from_millis(2500)), 2500);
    }
}
