//! The parent's side of the node processes: spawning the four children,
//! `kill -9` and restart, CPU accounting from `/proc`, and the stop
//! protocol that collects every node's report.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::layers::Phase;
use crate::spec::CLUSTER_N;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// is 100 on every architecture Linux supports today.
const TICKS_PER_SEC: f64 = 100.0;

/// How long the stop protocol waits for the nodes to reach the target
/// count and to exit.
const STOP_TIMEOUT: Duration = Duration::from_secs(30);

struct Proc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: Option<ChildStdout>,
}

pub struct Cluster {
    exe: PathBuf,
    pub peers: Vec<SocketAddr>,
    pub gateways: Vec<SocketAddr>,
    data_root: Option<PathBuf>,
    procs: Vec<Option<Proc>>,
    /// CPU ticks of node processes that have exited or been killed.
    retired_ticks: u64,
}

impl Cluster {
    /// Spawns an n = 4 cluster, untraced; `data_root` (durable workloads)
    /// holds one fresh data dir per node.
    pub fn spawn(data_root: Option<&Path>) -> Result<Cluster, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let addrs =
            gencon_net::probe_free_addrs(2 * CLUSTER_N).map_err(|e| format!("ports: {e}"))?;
        if let Some(root) = data_root {
            let _ = std::fs::remove_dir_all(root);
            std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
        }
        let mut cluster = Cluster {
            exe,
            peers: addrs[..CLUSTER_N].to_vec(),
            gateways: addrs[CLUSTER_N..].to_vec(),
            data_root: data_root.map(Path::to_path_buf),
            procs: (0..CLUSTER_N).map(|_| None).collect(),
            retired_ticks: 0,
        };
        for i in 0..CLUSTER_N {
            cluster.start(i, Phase::Off)?;
        }
        Ok(cluster)
    }

    /// Starts (or restarts) node `i` in tracing phase `phase`.
    pub fn start(&mut self, i: usize, phase: Phase) -> Result<(), String> {
        let peers: Vec<String> = self.peers.iter().map(SocketAddr::to_string).collect();
        let mut cmd = Command::new(&self.exe);
        cmd.arg("node")
            .args(["--id", &i.to_string()])
            .args(["--peers", &peers.join(",")])
            .args(["--client-addr", &self.gateways[i].to_string()])
            .args(["--phase", phase.name()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(root) = &self.data_root {
            cmd.arg("--data-dir").arg(root.join(format!("node{i}")));
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn node {i}: {e}"))?;
        self.procs[i] = Some(Proc {
            stdin: child.stdin.take(),
            stdout: child.stdout.take(),
            child,
        });
        Ok(())
    }

    /// `kill -9` node `i` and reap it, keeping its CPU time.
    pub fn kill(&mut self, i: usize) {
        if let Some(mut p) = self.procs[i].take() {
            self.retired_ticks += proc_ticks(p.child.id());
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
    }

    /// Sends one command line to every live node.
    pub fn tell(&mut self, line: &str) {
        for p in self.procs.iter_mut().flatten() {
            if let Some(stdin) = p.stdin.as_mut() {
                let _ = writeln!(stdin, "{line}");
                let _ = stdin.flush();
            }
        }
    }

    pub fn set_phase(&mut self, phase: Phase) {
        self.tell(&format!("phase {}", phase.name()));
    }

    /// CPU ticks (user + system) the node processes used so far.
    pub fn cpu_ticks(&self) -> u64 {
        self.retired_ticks
            + self
                .procs
                .iter()
                .flatten()
                .map(|p| proc_ticks(p.child.id()))
                .sum::<u64>()
    }

    /// Cores' worth of CPU the nodes used, from `(ns, ticks)` samples:
    /// the median over the intervals between consecutive samples, so a
    /// spell in which the machine itself stalls does not set the figure.
    pub fn cores(samples: &[(u64, u64)]) -> f64 {
        let per_interval: Vec<f64> = samples
            .windows(2)
            .filter(|p| p[1].0 > p[0].0)
            .map(|p| {
                p[1].1.saturating_sub(p[0].1) as f64
                    / TICKS_PER_SEC
                    / ((p[1].0 - p[0].0) as f64 / 1e9)
            })
            .collect();
        crate::stats::median(&per_interval)
    }

    /// The stop protocol: every node runs until it applied `target`
    /// commands (`reached`), then all are halted together — a node that
    /// stopped early could strand a laggard that still needs its votes.
    /// Returns each live node's report and appends its spans to `spans`.
    pub fn stop(&mut self, target: u64, spans: &mut String) -> Result<Vec<Json>, String> {
        let (tx, rx) = mpsc::channel::<(usize, String)>();
        let mut readers = Vec::new();
        for (i, p) in self.procs.iter_mut().enumerate() {
            let Some(p) = p else { continue };
            let Some(stdout) = p.stdout.take() else {
                continue;
            };
            let tx = tx.clone();
            readers.push(std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    if tx.send((i, line)).is_err() {
                        break;
                    }
                }
            }));
        }
        drop(tx);
        let live = readers.len();
        self.tell(&format!("stop {target}"));
        let deadline = Instant::now() + STOP_TIMEOUT;
        let mut reached = 0;
        let mut reports = Vec::new();
        let mut result = Ok(());
        while reports.len() < live {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok((_, line)) if line.starts_with("reached ") => {
                    reached += 1;
                    if reached == live {
                        self.tell("halt");
                        for p in self.procs.iter_mut().flatten() {
                            p.stdin = None;
                        }
                    }
                }
                Ok((i, line)) if line.starts_with("{\"report\"") => match Json::parse(&line) {
                    Ok(j) => reports.push(j.get("report").cloned().unwrap_or(Json::Null)),
                    Err(e) => {
                        result = Err(format!("node {i}: unreadable report: {e}"));
                        break;
                    }
                },
                Ok((_, line)) => {
                    spans.push_str(&line);
                    spans.push('\n');
                }
                Err(_) => {
                    result = Err(format!(
                        "{reached} of {live} nodes reached {target} applied commands and \
                         {} reported within {STOP_TIMEOUT:?}",
                        reports.len()
                    ));
                    break;
                }
            }
        }
        if result.is_err() {
            self.kill_all();
        } else {
            // Reports are out; the remaining lines are spans.
            while let Ok((_, line)) =
                rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                spans.push_str(&line);
                spans.push('\n');
            }
            self.reap();
        }
        for r in readers {
            let _ = r.join();
        }
        result.map(|()| reports)
    }

    /// Waits for every node to exit (killing any that outlives the stop
    /// timeout).
    fn reap(&mut self) {
        let deadline = Instant::now() + STOP_TIMEOUT;
        for slot in &mut self.procs {
            let Some(p) = slot.as_mut() else { continue };
            loop {
                match p.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        let _ = p.child.kill();
                        let _ = p.child.wait();
                        break;
                    }
                }
            }
            *slot = None;
        }
    }

    /// `kill -9` every node and reap it.
    pub fn kill_all(&mut self) {
        for i in 0..self.procs.len() {
            self.kill(i);
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.kill_all();
        if let Some(root) = &self.data_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// utime + stime of `pid` in ticks (0 once it is gone).
fn proc_ticks(pid: u32) -> u64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0;
    };
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis are space-separated, utime and stime being the
    // 14th and 15th of the line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| {
        fields
            .get(n - 3)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(14) + field(15)
}
