//! The client side: a one-request-per-connection HTTP/1.1 caller with
//! failure accounting, the `qrn serve` child process, and `/metrics`
//! counter scraping.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Socket timeout of every benchmark request. A request that runs into
/// it is a failure, never retried.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Every request the benchmark attempts, and those that failed: a
/// non-200 answer, a connection reset or a timeout.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// Why a request failed.
pub enum Failure {
    Status(u16),
    Reset,
    Timeout,
    Io(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Status(code) => write!(f, "status {code}"),
            Failure::Reset => f.write_str("connection reset"),
            Failure::Timeout => f.write_str("timed out"),
            Failure::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Sends one request on a fresh connection and reads the whole answer.
/// Returns the body of a 200; anything else is a counted failure.
pub fn call(
    tally: &Tally,
    port: u16,
    method: &str,
    target: &str,
    body: &[u8],
) -> Result<Vec<u8>, Failure> {
    tally.attempted.fetch_add(1, Ordering::Relaxed);
    let result = exchange(port, method, target, body);
    if let Err(failure) = &result {
        tally.failed.fetch_add(1, Ordering::Relaxed);
        eprintln!("servebench: {method} {target} failed: {failure}");
    }
    result
}

fn exchange(port: u16, method: &str, target: &str, body: &[u8]) -> Result<Vec<u8>, Failure> {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).map_err(classify)?;
    stream.set_nodelay(true).map_err(classify)?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .map_err(classify)?;
    stream
        .set_write_timeout(Some(REQUEST_TIMEOUT))
        .map_err(classify)?;
    stream
        .write_all(request_bytes(method, target, body).as_slice())
        .map_err(classify)?;
    let mut answer = Vec::new();
    stream.read_to_end(&mut answer).map_err(classify)?;
    let head_end = answer
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| Failure::Io("answer without a complete head".into()))?;
    let status: u16 = std::str::from_utf8(&answer[..head_end])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| Failure::Io("answer without a status code".into()))?;
    if status != 200 {
        return Err(Failure::Status(status));
    }
    answer.drain(..head_end + 4);
    Ok(answer)
}

/// The exact bytes of one request, as the benchmark sends them.
pub fn request_bytes(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

fn classify(e: std::io::Error) -> Failure {
    match e.kind() {
        ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe => {
            Failure::Reset
        }
        ErrorKind::WouldBlock | ErrorKind::TimedOut => Failure::Timeout,
        _ => Failure::Io(e.to_string()),
    }
}

/// A running `qrn serve --store <dir> --port 0` child.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub port: u16,
}

impl Server {
    /// Spawns the server over `store` and blocks until it announces its
    /// address, which it does only after store recovery and binding.
    pub fn spawn(qrn: &Path, case: &Path, store: &Path) -> Result<Server, String> {
        let mut child = Command::new(qrn)
            .arg("serve")
            .arg(case.join("norm.json"))
            .arg(case.join("classification.json"))
            .arg(case.join("allocation.json"))
            .arg("--store")
            .arg(store)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", qrn.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("qrn serve exited before announcing its address".into());
            }
            if let Some(rest) = line.trim().strip_prefix("serving on http://") {
                let addr = rest.split_whitespace().next().unwrap_or("");
                let port = addr
                    .rsplit(':')
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| format!("cannot parse the announced address {addr:?}"))?;
                return Ok(Server {
                    child,
                    stdout,
                    port,
                });
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Asks for a graceful drain and waits for the process to exit.
    pub fn shutdown(mut self, tally: &Tally) -> Result<(), String> {
        let asked = call(tally, self.port, "POST", "/v1/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stdout.read_to_string(&mut rest);
                    return match (asked, status.success()) {
                        (Ok(_), true) => Ok(()),
                        (_, _) => Err(format!("qrn serve did not shut down cleanly ({status})")),
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("qrn serve did not exit within 60 s of shutdown".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The `qrn_store_*`, `qrn_http_*` and `qrn_server_*` series of one
/// `/metrics` answer, keyed by series (name plus labels).
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    pub fn scrape(tally: &Tally, port: u16) -> Result<Counters, String> {
        let body = call(tally, port, "GET", "/metrics", b"")
            .map_err(|e| format!("counter scrape failed: {e}"))?;
        let text = String::from_utf8_lossy(&body);
        let mut series = BTreeMap::new();
        for line in text.lines() {
            if !["qrn_store_", "qrn_http_", "qrn_server_"]
                .iter()
                .any(|p| line.starts_with(p))
            {
                continue;
            }
            if let Some((key, value)) = line.rsplit_once(' ') {
                if let Ok(value) = value.parse() {
                    series.insert(key.to_string(), value);
                }
            }
        }
        Ok(Counters(series))
    }

    /// Sum over every series of the family `name`.
    pub fn family(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(key, _)| key.split('{').next() == Some(name))
            .map(|(_, v)| v)
            .sum()
    }

    /// The value of one series (`name{labels}` exactly as exposed).
    pub fn series(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}
