//! The host-speed probe. On a shared host each CPU switches, on its own,
//! between a fast and a slow speed about 2x apart, from several times a
//! second to once in many seconds, and the program's kernels slow with
//! it. The benchmark therefore runs this fixed kernel on the server's CPU
//! between ops, while the server is idle, and through each set-up, and
//! scales every time it reports by the probe's time measured beside it
//! (see `README.md`).
//!
//! The probe is the benchmark's own code with a fixed input, so no change
//! to the program can change it. It is a sparse matrix-vector power
//! iteration over a working set of about 1.2 MB, the access pattern of the
//! program's uniformization and aggregation kernels. (On the same runs, a
//! probe that also streamed 8 MB through memory tracked the workloads
//! worse, and one over a 9.4 MB matrix tracked `param_sweep` no better.)

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use crate::rng::Rng;

const ROWS: usize = 4096;
const PER_ROW: usize = 24;
/// Power-iteration steps per probe run.
const STEPS: usize = 3;
/// Runs per probe; the fastest counts, so that one preemption does not.
const RUNS: usize = 3;

/// The probe kernel and its fixed input.
struct Probe {
    cols: Vec<u32>,
    vals: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Probe {
    fn new() -> Probe {
        let mut rng = Rng::new(0x5EED_CA11_B0A7_0001);
        let nnz = ROWS * PER_ROW;
        Probe {
            cols: (0..nnz)
                .map(|_| (rng.next_u64() % ROWS as u64) as u32)
                .collect(),
            vals: (0..nnz).map(|_| rng.unit()).collect(),
            x: vec![1.0; ROWS],
            y: vec![0.0; ROWS],
        }
    }

    fn step(&mut self) {
        for (r, out) in self.y.iter_mut().enumerate() {
            let row = r * PER_ROW..(r + 1) * PER_ROW;
            *out = self.cols[row.clone()]
                .iter()
                .zip(&self.vals[row])
                .map(|(&c, &v)| v * self.x[c as usize])
                .sum();
        }
        std::mem::swap(&mut self.x, &mut self.y);
        let total: f64 = self.x.iter().sum();
        for v in &mut self.x {
            *v /= total;
        }
    }

    /// One probe: the fastest of a few runs of the kernel, in ms.
    fn time_ms(&mut self) -> f64 {
        (0..RUNS)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..STEPS {
                    self.step();
                }
                black_box(&self.x);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// A round figure within the probe's range on the host the benchmark was
/// tuned on (2 CPUs of an Intel Xeon guest, where a probe read 0.18-0.21
/// ms at the fast speed and 0.33-0.40 ms at the slow one), so that scaled
/// times read close to measured ones.
pub const NOMINAL_MS: f64 = 0.3;

/// A wall time (any unit) in host-independent terms: scaled by
/// [`NOMINAL_MS`] over the mean of the probes taken just before and just
/// after it. On a host where the probe takes its nominal time, the value
/// is the time as measured.
pub fn scaled(time: f64, before_ms: f64, after_ms: f64) -> f64 {
    time * NOMINAL_MS / ((before_ms + after_ms) / 2.0)
}

/// A wall time scaled by probes sampled evenly through it: each probe
/// stands for an equal share of the time, run at the speed it measured,
/// so the time at the nominal speed is the time times the mean of
/// `NOMINAL_MS / probe`.
pub fn scaled_sampled(time: f64, probes_ms: &[f64]) -> f64 {
    let speed: f64 = probes_ms.iter().map(|p| NOMINAL_MS / p).sum();
    time * speed / probes_ms.len() as f64
}

/// Interval between probes while a long request runs.
const WATCH_INTERVAL: Duration = Duration::from_millis(50);

/// Command-line flag that turns the benchmark's executable into a probe
/// process.
pub const PROBE_FLAG: &str = "--probe";

/// A probe process pinned to the server's CPU, so that it measures the
/// speed the server sees. It runs one probe per request line; killed and
/// reaped when dropped.
pub struct Prober {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    line: String,
}

impl Prober {
    pub fn launch(cpu: usize) -> Result<Prober, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new("taskset")
            .args(["-c", &cpu.to_string()])
            .arg(exe)
            .arg(PROBE_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the probe process: {e}"))?;
        Ok(Prober {
            stdin: child.stdin.take().expect("stdin is piped"),
            stdout: BufReader::new(child.stdout.take().expect("stdout is piped")),
            child,
            line: String::new(),
        })
    }

    /// One probe on the server's CPU, in ms.
    pub fn time_ms(&mut self) -> Result<f64, String> {
        self.stdin
            .write_all(b"probe\n")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("probe request: {e}"))?;
        self.line.clear();
        self.stdout
            .read_line(&mut self.line)
            .map_err(|e| format!("probe answer: {e}"))?;
        self.line
            .trim()
            .parse()
            .map_err(|_| format!("probe process answered {:?}", self.line))
    }

    /// Runs `work` while probing the server's CPU every
    /// [`WATCH_INTERVAL`], from its start to its end. Returns what `work`
    /// returned, its wall time in seconds and the probes (at least one).
    /// The probes take the server's CPU for about 2% of the time.
    pub fn watch<T>(&mut self, work: impl FnOnce() -> T) -> Result<(T, f64, Vec<f64>), String> {
        let (done, wait) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let sampler = s.spawn(move || -> Result<Vec<f64>, String> {
                let mut probes = Vec::new();
                loop {
                    probes.push(self.time_ms()?);
                    if wait.recv_timeout(WATCH_INTERVAL) != Err(RecvTimeoutError::Timeout) {
                        return Ok(probes);
                    }
                }
            });
            let t0 = Instant::now();
            let out = work();
            let secs = t0.elapsed().as_secs_f64();
            drop(done);
            let probes = sampler.join().expect("probe sampler")?;
            Ok((out, secs, probes))
        })
    }
}

impl Drop for Prober {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The probe process: answers each line on standard input with one probe
/// time, until standard input closes.
pub fn serve() -> Result<(), String> {
    let mut probe = Probe::new();
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| e.to_string())?;
        writeln!(out, "{}", probe.time_ms())
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_scaling_weights_each_probe_by_its_speed() {
        // Half the time at the nominal speed, half at half of it: the work
        // takes three quarters of the time at the nominal speed.
        let t = scaled_sampled(8.0, &[NOMINAL_MS, 2.0 * NOMINAL_MS]);
        assert!((t - 6.0).abs() < 1e-12);
        assert_eq!(scaled_sampled(5.0, &[NOMINAL_MS]), 5.0);
    }
}
