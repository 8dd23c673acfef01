//! The deployed `amoe-serve serve` binary as a child process, plus what
//! the benchmark reads from outside it: `/vars` and the kernel's peak
//! resident set.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use amoe_obs::json::{parse, Value};
use amoe_serve::{http_get, Client};

/// A running server process. Dropping it kills the process.
pub struct ServerProc {
    child: Child,
    /// Score-protocol address.
    pub addr: String,
    /// Observability (HTTP) address.
    pub obs: String,
}

impl ServerProc {
    /// Starts `bin serve` on ephemeral loopback ports with the default
    /// `ServeConfig` and the observability listener on, and reads the
    /// two bound addresses it prints.
    pub fn spawn(bin: &Path, ckpt: &Path, spec: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--ckpt")
            .arg(ckpt)
            .arg("--spec")
            .arg(spec)
            .args(["--addr", "127.0.0.1:0", "--obs-addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let mut next = || -> Result<String, String> {
            match lines.next() {
                Some(Ok(line)) => Ok(line.trim().to_string()),
                Some(Err(e)) => Err(format!("server stdout: {e}")),
                None => Err("server exited before printing its addresses".into()),
            }
        };
        let started = next().and_then(|addr| {
            let obs = next()?;
            let obs = obs
                .strip_prefix("obs ")
                .ok_or_else(|| format!("expected an `obs HOST:PORT` line, got {obs:?}"))?
                .to_string();
            Ok((addr, obs))
        });
        match started {
            Ok((addr, obs)) => Ok(ServerProc { child, addr, obs }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// OS process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) so far, MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| format!("no VmHWM line in {path}"))?;
        Ok(kb / 1024.0)
    }

    /// Fetches and parses `/vars`.
    pub fn vars(&self) -> Result<Vars, String> {
        let (status, body) = http_get(self.obs.as_str(), "/vars", Duration::from_secs(10))
            .map_err(|e| format!("GET /vars: {e}"))?;
        if status != 200 {
            return Err(format!("GET /vars: HTTP {status}"));
        }
        Vars::parse(&body)
    }

    /// Asks the server to drain and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        Client::connect(self.addr.as_str())
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown {}: {e}", self.addr))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("server did not exit after SHUTDOWN".into()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One `/vars` window readout.
#[derive(Clone, Copy, Debug, Default)]
pub struct Window {
    pub p50: f64,
    pub p99: f64,
}

/// The parts of `/vars` the benchmark reads.
#[derive(Clone, Debug, Default)]
pub struct Vars {
    /// The server's pool thread budget.
    pub threads: f64,
    pub requests: f64,
    pub rows: f64,
    pub overloaded: f64,
    pub batches: f64,
    pub request_latency_us: Window,
    pub queue_wait_us: Window,
    pub compute_us: Window,
    pub reply_write_us: Window,
    pub queue_depth: Window,
}

impl Vars {
    fn parse(body: &str) -> Result<Vars, String> {
        let doc = parse(body).map_err(|e| format!("/vars is not JSON: {e}"))?;
        let num = |v: &Value, key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("/vars has no number {key:?}"))
        };
        let window = doc.get("window").ok_or("/vars has no window block")?;
        let win = |key: &str| -> Result<Window, String> {
            let w = window
                .get(key)
                .ok_or_else(|| format!("/vars window has no {key:?}"))?;
            Ok(Window {
                p50: num(w, "p50")?,
                p99: num(w, "p99")?,
            })
        };
        Ok(Vars {
            threads: num(&doc, "threads")?,
            requests: num(&doc, "requests")?,
            rows: num(&doc, "rows")?,
            overloaded: num(&doc, "overloaded")?,
            batches: num(&doc, "batches")?,
            request_latency_us: win("request_latency_us")?,
            queue_wait_us: win("queue_wait_us")?,
            compute_us: win("compute_us")?,
            reply_write_us: win("reply_write_us")?,
            queue_depth: win("queue_depth")?,
        })
    }
}
