//! A `gem5prof-served` child process and a keep-alive HTTP/1.1 client
//! for it.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to start listening or to drain.
const START_TIMEOUT: Duration = Duration::from_secs(20);
const STOP_TIMEOUT: Duration = Duration::from_secs(30);
/// A response slower than this counts as timed out.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(120);

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}
const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

/// Pins the calling thread, the threads it creates later and the
/// processes it spawns later (daemons included) to the first CPU it may
/// run on. Failure only leaves them unpinned.
pub fn pin_to_one_cpu() {
    let mut mask = [0u64; 16]; // a 1024-CPU cpu_set_t
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, correctly sized cpu_set_t for both calls,
    // and pid 0 names the calling thread.
    unsafe {
        if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
            return;
        }
        let Some(word) = mask.iter().position(|&w| w != 0) else {
            return;
        };
        let bit = mask[word].trailing_zeros();
        mask = [0; 16];
        mask[word] = 1 << bit;
        sched_setaffinity(0, size, mask.as_ptr());
    }
}

/// A running daemon. [`Daemon::stop`] drains and reaps it; dropping it
/// kills and reaps it.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    /// Drains the daemon's stderr so it never blocks on a full pipe.
    log: Option<JoinHandle<Vec<String>>>,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral port and returns once it
    /// listens (it announces the bound address on stderr).
    pub fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let log = std::thread::spawn(move || read_log(stderr, tx));
        let mut d = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            log: Some(log),
        };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => {
                d.addr = addr;
                Ok(d)
            }
            Err(_) => Err(format!("daemon did not listen within {START_TIMEOUT:?}")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// CPU seconds (user + system) the daemon has used so far.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("read /proc stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed /proc stat")?;
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
        let (Some(u), Some(s)) = (ticks(11), ticks(12)) else {
            return Err("malformed /proc stat".into());
        };
        // SAFETY: sysconf only reads a configuration value.
        let hz = unsafe { sysconf(SC_CLK_TCK) };
        Ok((u + s) / hz.max(1) as f64)
    }

    /// SIGTERM, then waits for the graceful drain to finish.
    pub fn stop(mut self) -> Result<(), String> {
        let pid = self.pid() as i32;
        // SAFETY: `pid` is our own child, not yet reaped, so the id
        // cannot have been reused.
        unsafe { kill(pid, SIGTERM) };
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.join_log();
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("daemon exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err(format!("daemon did not drain within {STOP_TIMEOUT:?}")),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
    }

    fn join_log(&mut self) {
        if let Some(h) = self.log.take() {
            if let Ok(lines) = h.join() {
                for l in lines
                    .iter()
                    .filter(|l| l.contains("panic") || l.contains("error"))
                {
                    eprintln!("perfbench: daemon: {l}");
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.log.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            self.join_log();
        }
    }
}

fn read_log(stderr: ChildStderr, tx: mpsc::Sender<SocketAddr>) -> Vec<String> {
    let mut lines = Vec::new();
    for line in BufReader::new(stderr).lines() {
        let Ok(line) = line else { break };
        if let Some(rest) = line.split("listening on http://").nth(1) {
            if let Some(addr) = rest.split_whitespace().next().and_then(|a| a.parse().ok()) {
                let _ = tx.send(addr);
            }
        }
        lines.push(line);
    }
    lines
}

/// A keep-alive HTTP/1.1 connection. Its buffers are reused across
/// requests, so a cache-hit request allocates nothing on the client.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    head: Vec<u8>,
    line: String,
    body: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            stream: None,
            head: Vec::with_capacity(512),
            line: String::with_capacity(128),
            body: Vec::with_capacity(64 * 1024),
        }
    }

    /// The body of the last response.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The socket, once connected (for readiness polling).
    pub fn fd(&self) -> Option<RawFd> {
        self.stream.as_ref().map(|s| s.get_ref().as_raw_fd())
    }

    /// Sends one request, reads its response into [`Conn::body`] and
    /// returns the status. A reused connection that the server closed
    /// while idle (no response byte read) is retried once on a fresh
    /// one, as keep-alive clients do.
    pub fn call(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<u16> {
        let reused = self.stream.is_some();
        let r = self.send(method, path, body).and_then(|()| self.recv());
        match r {
            Err(e) if reused && is_stale(&e) => {
                self.send(method, path, body).and_then(|()| self.recv())
            }
            r => r,
        }
    }

    /// Writes one request, connecting first if needed. An error drops the
    /// connection; the next request reconnects.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<()> {
        let r = self.try_send(method, path, body);
        if r.is_err() {
            self.stream = None;
        }
        r
    }

    /// Reads one response into [`Conn::body`] and returns its status. An
    /// error drops the connection.
    pub fn recv(&mut self) -> io::Result<u16> {
        let r = self.try_recv();
        if r.is_err() {
            self.stream = None;
        }
        r
    }

    fn try_send(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<()> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            self.stream = Some(BufReader::with_capacity(64 * 1024, s));
        }
        let stream = self.stream.as_mut().expect("connected above");
        self.head.clear();
        let body = body.unwrap_or("");
        write!(
            self.head,
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        stream.get_mut().write_all(&self.head)
    }

    fn try_recv(&mut self) -> io::Result<u16> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no request sent"))?;
        let line = &mut self.line;
        line.clear();
        if stream.read_line(line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "connection closed before a response",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut len: Option<usize> = None;
        let mut close = false;
        loop {
            line.clear();
            if stream.read_line(line)? == 0 {
                return Err(bad("connection closed in headers".into()));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                let v = v.trim();
                if k.eq_ignore_ascii_case("content-length") {
                    len = Some(v.parse().map_err(|_| bad(format!("bad length {v:?}")))?);
                } else if k.eq_ignore_ascii_case("connection") && v.eq_ignore_ascii_case("close") {
                    close = true;
                }
            }
        }
        let len = len.ok_or_else(|| bad("response without content-length".into()))?;
        self.body.resize(len, 0);
        stream.read_exact(&mut self.body)?;
        if close {
            self.stream = None;
        }
        Ok(status)
    }
}

/// An error that means the server had closed an idle keep-alive
/// connection before the request reached it: no response byte arrived.
fn is_stale(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::BrokenPipe
    )
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Sums the samples of a Prometheus series over all label sets:
/// `name` matches `name <v>` and `name{…} <v>`; a label filter such as
/// `outcome="hit"` keeps only samples carrying it.
pub fn prom_sum(text: &str, name: &str, label: Option<&str>) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let (metric, labels) = match series.split_once('{') {
                Some((m, rest)) => (m, rest),
                None => (series, ""),
            };
            if metric != name || label.is_some_and(|f| !labels.contains(f)) {
                return None;
            }
            value.parse::<f64>().ok()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_sum_adds_label_sets_and_filters() {
        let text = "# HELP x y\n\
                    served_compute_seconds_sum 1.5\n\
                    served_compute_seconds_count 3\n\
                    gem5prof_result_cache_computes_total{engine=\"0\"} 2\n\
                    gem5prof_result_cache_computes_total{engine=\"1\"} 5\n\
                    served_cache_lookup_seconds_sum{outcome=\"hit\"} 0.25\n\
                    served_cache_lookup_seconds_sum{outcome=\"miss\"} 0.5\n";
        assert_eq!(prom_sum(text, "served_compute_seconds_sum", None), 1.5);
        assert_eq!(
            prom_sum(text, "gem5prof_result_cache_computes_total", None),
            7.0
        );
        assert_eq!(
            prom_sum(
                text,
                "served_cache_lookup_seconds_sum",
                Some("outcome=\"hit\"")
            ),
            0.25
        );
        assert_eq!(prom_sum(text, "absent", None), 0.0);
    }
}
