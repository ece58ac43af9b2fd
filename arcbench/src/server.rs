//! The `arcaded` process and line-protocol connections to it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use crate::json::{self, Value};

/// Server worker threads: one per client connection the load generator
/// may open (a worker keeps its connection until it closes).
pub const WORKERS: usize = 2;
/// Engine threads per request. One thread keeps the aggregation and
/// sweep fan-out serial, which keeps memory and throughput steady.
pub const ENGINE_THREADS: usize = 1;

/// Where the benchmark's processes run: the load generator on one CPU,
/// and the server and the probe on another, so that neither takes the
/// other's CPU and the probe sees the server's speed.
#[derive(Debug, Clone, Copy)]
pub struct Cpus {
    pub client: usize,
    pub server: usize,
}

impl Cpus {
    /// Picks the first two CPUs this process may use and pins it to the
    /// first. Call before starting any thread: threads inherit it.
    pub fn pin() -> Result<Cpus, String> {
        let status = std::fs::read_to_string("/proc/self/status")
            .map_err(|e| format!("cannot read this process's status: {e}"))?;
        let cpus = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .and_then(|l| parse_cpu_list(l.trim()))
            .ok_or("no CPU list in this process's status")?;
        let [client, server, ..] = cpus[..] else {
            return Err(format!("needs two CPUs, may use {cpus:?}"));
        };
        let pinned = Command::new("taskset")
            .args(["-p", "-c", &client.to_string()])
            .arg(std::process::id().to_string())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run taskset: {e}"))?;
        if !pinned.success() {
            return Err(format!(
                "taskset could not pin the load generator: {pinned}"
            ));
        }
        Ok(Cpus { client, server })
    }
}

/// A CPU list as the kernel prints it, such as `0-3,8,10-11`.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    for part in list.split(',') {
        match part.split_once('-') {
            Some((a, b)) => out.extend(a.parse::<usize>().ok()?..=b.parse().ok()?),
            None => out.push(part.parse().ok()?),
        }
    }
    Some(out)
}

/// A running `arcaded`, killed and reaped when dropped.
pub struct Server {
    child: Child,
    // Held so the server's stdout stays open for its lifetime.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Starts `arcaded` on `cpu` and an ephemeral loopback port and waits
    /// for its listening line.
    pub fn launch(exe: &Path, cpu: usize) -> Result<Server, String> {
        // taskset execs the server in its own process, so the child's id
        // is the server's.
        let mut child = Command::new("taskset")
            .args(["-c", &cpu.to_string()])
            .arg(exe)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--workers", &WORKERS.to_string()])
            .args(["--threads", &ENGINE_THREADS.to_string()])
            .env_remove("ARCADE_CHAOS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("arcaded listening on ")
            .map(str::to_owned);
        let server = Server {
            child,
            _stdout: stdout,
            addr: addr.clone().unwrap_or_default(),
        };
        match (read, addr) {
            (Ok(_), Some(_)) => Ok(server),
            _ => Err(format!("arcaded did not announce its address: {line:?}")),
        }
    }

    /// The server's peak resident set (VmHWM), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the server's status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in the server's status".to_owned())
    }
}

/// Killing skips the graceful shutdown's polling delays, which only
/// lengthen the run; nothing the benchmark reads is lost by it.
impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One persistent client connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    response: String,
}

impl Conn {
    /// Connects and waits for one `ping` answer, so that a worker has
    /// accepted the connection before any op is timed.
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut conn = Conn {
            stream,
            reader,
            response: String::new(),
        };
        let pong = conn.call(r#"{"cmd":"ping"}"#)?;
        if !pong.is_ok() {
            return Err(format!("ping failed: {pong:?}"));
        }
        Ok(conn)
    }

    /// Sends one request line (with its trailing newline) and returns the
    /// raw response line.
    pub fn send(&mut self, line: &str) -> Result<&str, String> {
        debug_assert!(line.ends_with('\n'));
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.response.clear();
        let n = self
            .reader
            .read_line(&mut self.response)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 || !self.response.ends_with('\n') {
            return Err("connection closed mid-response".to_owned());
        }
        Ok(self.response.trim_end())
    }

    /// Sends a request (without newline) and parses the response.
    pub fn call(&mut self, request: &str) -> Result<Value, String> {
        let line = format!("{request}\n");
        let text = self.send(&line)?;
        json::parse(text)
    }
}

#[cfg(test)]
mod tests {
    use super::parse_cpu_list;

    #[test]
    fn cpu_lists_expand_ranges() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("3,5-7,9"), Some(vec![3, 5, 6, 7, 9]));
        assert_eq!(parse_cpu_list("2"), Some(vec![2]));
        assert_eq!(parse_cpu_list("x"), None);
    }
}
