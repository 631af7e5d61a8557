//! Building and driving the `sctool serve` child process.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a boot or a shutdown may take before the run fails.
const PATIENCE: Duration = Duration::from_secs(60);

/// Builds the release `sctool` from the repository at the working
/// directory and returns its path.
pub fn build_sctool() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "sctool"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building sctool failed ({status})"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release").join("sctool");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

/// A running `sctool serve --listen 127.0.0.1:0`. Dropping it kills
/// the process if [`Server::shutdown`] was not reached.
pub struct Server {
    child: Child,
    stderr: Option<JoinHandle<Vec<String>>>,
    /// The address the server listens on.
    pub addr: String,
    /// Spawn to the first `pong`.
    pub boot: Duration,
}

impl Server {
    /// Spawns `sctool serve <args> --listen 127.0.0.1:0` and waits for
    /// its first `pong`, timing the whole boot.
    pub fn start(sctool: &Path, args: &[String]) -> Result<Server, String> {
        let started = Instant::now();
        let mut child = Command::new(sctool)
            .arg("serve")
            .args(args)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning sctool: {e}"))?;
        let pipe = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let stderr = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("sctool serve: listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
                lines.push(line);
            }
            lines
        });
        let mut server = Server {
            child,
            stderr: Some(stderr),
            addr: String::new(),
            boot: Duration::ZERO,
        };
        server.addr = rx
            .recv_timeout(PATIENCE)
            .map_err(|_| format!("sctool serve never listened: {}", server.stderr_tail()))?;
        let mut conn = TcpStream::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        conn.set_read_timeout(Some(PATIENCE))
            .map_err(|e| format!("connect: {e}"))?;
        conn.write_all(b"ping\n")
            .map_err(|e| format!("ping: {e}"))?;
        let mut pong = [0u8; 5];
        conn.read_exact(&mut pong)
            .map_err(|e| format!("waiting for pong: {e}"))?;
        if &pong != b"pong\n" {
            return Err(format!(
                "ping answered {:?}",
                String::from_utf8_lossy(&pong)
            ));
        }
        server.boot = started.elapsed();
        Ok(server)
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("/proc status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or("no VmHWM line")?;
        Ok(kb / 1024.0)
    }

    /// CPU time the server has used so far (user + system), in
    /// seconds; `/proc` reports it in USER_HZ = 100 ticks per second.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("/proc stat: {e}"))?;
        // Fields after the parenthesised command name, from `state`.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok((ticks(11)? + ticks(12)?) / 100.0)
    }

    /// Sends `shutdown` and waits for a clean exit; returns the
    /// server's stderr.
    pub fn shutdown(mut self) -> Result<Vec<String>, String> {
        let mut conn = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        conn.write_all(b"shutdown\n")
            .map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + PATIENCE;
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    return Err("sctool serve did not exit after shutdown".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        let lines = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if status.success() {
            Ok(lines)
        } else {
            Err(format!(
                "sctool serve exited {status}: {}",
                lines.join(" | ")
            ))
        }
    }

    fn stderr_tail(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stderr
            .take()
            .map(|h| h.join().unwrap_or_default().join(" | "))
            .unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}
