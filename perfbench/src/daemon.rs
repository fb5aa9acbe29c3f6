//! The `qpp serve` daemon as a child process, and `/proc` probes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qppnet::serve::proto::{decode_response, encode_request, Request, Response, ServeStats};

/// Environment switches that would move the daemon off its defaults; the
/// daemon is spawned without them so the defaults are what is measured.
pub const PINNED_ENV: [&str; 3] = [
    "QPP_SERVE_FAST_PATH",
    "QPP_SERVE_CACHE",
    "QPP_NN_FORCE_TIER",
];

/// How long the daemon may take to load its checkpoint and accept.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// A running `qpp serve` child. Dropping it kills the process.
pub struct Daemon {
    child: Child,
    /// Held so the daemon's stdout stays open while it runs.
    _stdout: BufReader<ChildStdout>,
    /// `host:port` the daemon listens on.
    pub addr: String,
}

impl Daemon {
    /// Spawns `qpp serve --model <model>` on an ephemeral loopback port
    /// with default flags, on the daemon's CPUs of [`CpuSplit`], and
    /// returns once the daemon has answered a `stats` request.
    pub fn spawn(qpp: &Path, model: &Path) -> Result<Daemon, String> {
        let mut cmd = Command::new(qpp);
        cmd.arg("serve")
            .arg("--model")
            .arg(model)
            .args(["--addr", "127.0.0.1:0"]);
        for var in PINNED_ENV {
            cmd.env_remove(var);
        }
        let split = CpuSplit::of_this_process();
        // SAFETY: the closure runs in the forked child before exec and
        // makes two system calls; it allocates nothing.
        unsafe {
            cmd.pre_exec(move || {
                // The daemon dies with the benchmark, however that ends.
                const PR_SET_PDEATHSIG: i32 = 1;
                const SIGKILL: u64 = 9;
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                match split {
                    Some(s) => set_affinity(&s.daemon),
                    None => Ok(()),
                }
            });
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", qpp.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let addr = loop {
            let mut l = String::new();
            match stdout.read_line(&mut l) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let status = child.wait();
                    return Err(format!("qpp serve exited before listening: {status:?}"));
                }
                Ok(_) => {}
            }
            if let Some(rest) = l.strip_prefix("qpp serve: listening on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
        };
        let t0 = Instant::now();
        loop {
            if daemon.stats().is_ok() {
                return Ok(daemon);
            }
            if t0.elapsed() > READY_TIMEOUT {
                return Err(format!("qpp serve on {} never answered", daemon.addr));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request/reply on a fresh connection.
    fn call(&self, req: &Request) -> Result<Response, String> {
        let mut s = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let mut line = encode_request(req);
        line.push('\n');
        s.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        let mut reply = String::new();
        BufReader::new(&mut s)
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        decode_response(reply.trim_end()).map_err(|e| e.msg)
    }

    /// The daemon's counters (the `stats` verb).
    pub fn stats(&self) -> Result<ServeStats, String> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(format!("unexpected stats reply {other:?}")),
        }
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = self.call(&Request::Shutdown);
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(20) {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (sent, status.success()) {
                    (Ok(Response::Bye), true) => Ok(()),
                    (sent, _) => Err(format!("qpp serve shutdown: {sent:?}, exit {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("qpp serve did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn read_proc(path: &str) -> Option<String> {
    let mut s = String::new();
    std::fs::File::open(path)
        .ok()?
        .read_to_string(&mut s)
        .ok()?;
    Some(s)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = read_proc(&format!("/proc/{pid}/status"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn prctl(option: i32, ...) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU set (`cpu_set_t`, 1024 CPUs).
pub type CpuMask = [u64; 16];

/// The CPUs the calling thread may run on.
pub fn affinity() -> std::io::Result<CpuMask> {
    let mut mask = [0u64; 16];
    // SAFETY: the kernel writes at most `size` bytes into the mask.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc == 0 {
        Ok(mask)
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Restricts the calling thread to `mask`; threads it starts afterwards
/// (and a process it then executes) inherit it.
pub fn set_affinity(mask: &CpuMask) -> std::io::Result<()> {
    // SAFETY: the kernel only reads the mask, which outlives the call.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// The CPUs in `mask`, ascending.
fn cpus(mask: &CpuMask) -> Vec<usize> {
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// The set holding only `cpu`.
fn only(cpu: usize) -> CpuMask {
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    mask
}

/// How the timed phases share the CPUs: the daemon runs on every CPU
/// this process may use but the last, the load generator on the last.
/// Left to the scheduler, the daemon's and the generator's threads land
/// on the two cores differently for every daemon: over 12 fresh daemons
/// closed-loop throughput ranged 48k–78k req/s unpinned and 36k–41k
/// pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSplit {
    /// The daemon's CPUs.
    pub daemon: CpuMask,
    /// The load generator's CPU.
    pub generator: CpuMask,
}

impl CpuSplit {
    /// The split of `allowed`, or `None` when it holds a single CPU.
    pub fn of(allowed: &CpuMask) -> Option<CpuSplit> {
        let cpus = cpus(allowed);
        let (&last, rest) = cpus.split_last()?;
        if rest.is_empty() {
            return None;
        }
        let mut daemon = *allowed;
        daemon[last / 64] &= !(1 << (last % 64));
        Some(CpuSplit {
            daemon,
            generator: only(last),
        })
    }

    /// The split of the CPUs the calling thread may use.
    pub fn of_this_process() -> Option<CpuSplit> {
        CpuSplit::of(&affinity().ok()?)
    }
}

fn clock_ticks_per_s() -> Option<f64> {
    // SAFETY: sysconf reads a process-wide constant and has no
    // preconditions; 2 is _SC_CLK_TCK on Linux.
    let hz = unsafe { sysconf(2) };
    (hz > 0).then_some(hz as f64)
}

/// One thread per CPU that spins at `SCHED_IDLE` priority for the whole
/// run, so it runs only when nothing else wants the CPU.
///
/// A virtual CPU with nothing to run halts, and waking it takes a trip
/// through the hypervisor whose length depends on the host's load: at
/// 3k one-shots/s the daemon's median latency read 94–871 µs per 0.3 s
/// phase with idle CPUs halting and 67–93 µs with them spinning (30
/// alternating phases; at 6k/s, where the CPUs seldom idle, 64–85 µs
/// either way), and 8 alternating paper-tier refits at 2 threads ran
/// 6.7k–11.7k plan-epochs/s halting and 9.8k–14.1k spinning. Spinning
/// keeps these figures properties of the program rather than of the
/// hypervisor.
pub struct IdleSpin {
    stop: Arc<AtomicBool>,
    /// CPU time each spinner has used, ns, published as it spins.
    used_ns: Vec<Arc<AtomicU64>>,
    threads: Vec<JoinHandle<()>>,
}

fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = [0i64; 2];
    // SAFETY: the kernel writes one timespec into `ts`.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (ts[0] as u64) * 1_000_000_000 + ts[1] as u64
}

impl IdleSpin {
    /// Starts one spinner on each CPU of `allowed`.
    pub fn start(allowed: &CpuMask) -> IdleSpin {
        let cpus = cpus(allowed);
        let stop = Arc::new(AtomicBool::new(false));
        let used_ns: Vec<Arc<AtomicU64>> = cpus.iter().map(|_| Arc::default()).collect();
        let threads = cpus
            .iter()
            .zip(&used_ns)
            .map(|(&cpu, used)| {
                let mask = only(cpu);
                let (stop, used) = (Arc::clone(&stop), Arc::clone(used));
                std::thread::spawn(move || {
                    const SCHED_IDLE: i32 = 5;
                    let priority = 0i32;
                    // SAFETY: sets this thread's policy; reads one int.
                    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } == 0;
                    if !idle || set_affinity(&mask).is_err() {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..256 {
                            std::hint::spin_loop();
                        }
                        used.store(thread_cpu_ns(), Ordering::Relaxed);
                    }
                })
            })
            .collect();
        IdleSpin {
            stop,
            used_ns,
            threads,
        }
    }

    /// CPU seconds the spinners have used so far.
    pub fn cpu_seconds(&self) -> f64 {
        let ns: u64 = self.used_ns.iter().map(|u| u.load(Ordering::Relaxed)).sum();
        ns as f64 / 1e9
    }
}

impl Drop for IdleSpin {
    /// Stops the spinners and waits for them.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in std::mem::take(&mut self.threads) {
            let _ = t.join();
        }
    }
}

/// CPU seconds (user + system, all threads) process `pid` has used.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = read_proc(&format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
    Some(ticks / clock_ticks_per_s()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_split_gives_the_generator_the_last_cpu() {
        let mut two = [0u64; 16];
        two[0] = 0b11;
        let s = CpuSplit::of(&two).unwrap();
        assert_eq!((s.daemon[0], s.generator[0]), (0b01, 0b10));
        let mut sparse = [0u64; 16];
        sparse[0] = 1 << 3 | 1 << 5;
        sparse[1] = 1 << 2; // CPU 66
        let s = CpuSplit::of(&sparse).unwrap();
        assert_eq!((s.daemon[0], s.daemon[1]), (1 << 3 | 1 << 5, 0));
        assert_eq!((s.generator[0], s.generator[1]), (0, 1 << 2));
        let mut one = [0u64; 16];
        one[0] = 1 << 7;
        assert_eq!(CpuSplit::of(&one), None);
    }

    #[test]
    fn idle_spinners_run_until_dropped() {
        let spin = IdleSpin::start(&affinity().unwrap());
        let t0 = Instant::now();
        while spin.cpu_seconds() == 0.0 {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "the spinner never ran"
            );
            std::thread::yield_now();
        }
        drop(spin); // joins the spinner
    }
}
