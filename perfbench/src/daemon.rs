//! One `augem-serve` child process driven over its stdin/stdout pipe.
//!
//! The load generator runs two threads: the caller's thread writes
//! request lines, and a dedicated reader thread timestamps every
//! response line the moment it arrives. Latencies are therefore taken
//! at arrival, not when the writer gets round to looking at a reply.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long any single response may take before the run gives up on
/// the daemon (a cold dgemv tune takes about a second).
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A response line and the moment the reader thread received it.
pub struct Arrival {
    pub line: String,
    pub at: Instant,
}

pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    arrivals: Receiver<Arrival>,
    reader: Option<JoinHandle<()>>,
    /// When the process was spawned (the start of `setup_s`).
    pub spawned: Instant,
}

impl Daemon {
    /// Starts the daemon with its default flags plus `--cache-dir`.
    pub fn spawn(bin: &Path, store: &Path) -> Result<Daemon, String> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .arg("--cache-dir")
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("daemon stdout not piped")?;
        let (tx, arrivals) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout);
            loop {
                let mut line = String::new();
                match lines.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        let at = Instant::now();
                        line.truncate(line.trim_end().len());
                        if tx.send(Arrival { line, at }).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        Ok(Daemon {
            stdin: child.stdin.take(),
            child,
            arrivals,
            reader: Some(reader),
            spawned,
        })
    }

    /// Writes one request line; returns the moment it was handed to the
    /// pipe.
    pub fn send(&mut self, line: &str) -> Result<Instant, String> {
        let stdin = self.stdin.as_mut().ok_or("daemon stdin closed")?;
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let sent = Instant::now();
        stdin
            .write_all(&buf)
            .map_err(|e| format!("write to daemon: {e}"))?;
        Ok(sent)
    }

    /// The next response line, in arrival order.
    pub fn recv(&self) -> Result<Arrival, String> {
        self.arrivals
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => "no response within 60 s".to_string(),
                RecvTimeoutError::Disconnected => "daemon closed its stdout".to_string(),
            })
    }

    /// Sends one request and waits for its (only outstanding) response.
    pub fn call(&mut self, line: &str) -> Result<(Instant, Arrival), String> {
        let sent = self.send(line)?;
        Ok((sent, self.recv()?))
    }

    /// Asks for a clean shutdown, waits for the process to exit and its
    /// reader thread to finish.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.send(r#"{"id":"bye","op":"shutdown"}"#)?;
        drop(self.stdin.take());
        while self.arrivals.recv_timeout(REPLY_TIMEOUT).is_ok() {}
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for daemon: {e}"))?;
        if let Some(reader) = self.reader.take() {
            reader.join().map_err(|_| "reader thread panicked")?;
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    /// A daemon abandoned on an error path is killed and reaped, so no
    /// process outlives the benchmark.
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}
