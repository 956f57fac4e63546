//! `gencon-client` — closed-loop load against a `gencon-server` node.
//!
//! ```bash
//! gencon-client --server 127.0.0.1:7000 --count 10000 \
//!   [--workload log|kv] [--keys 1024] [--value-bytes 64] \
//!   [--clients 8] [--outstanding 16] [--id 0] [--json] \
//!   [--servers 127.0.0.1:7000,127.0.0.1:7001,...]   # for Redirect handling
//! ```
//!
//! Runs `--clients` logical clients, each keeping `--outstanding` commands
//! in flight, until `--count` commands have been acked as committed.
//! Reports wall-clock throughput and exact submit→commit latency
//! percentiles (sorted-sample, in microseconds). Backpressure bounces
//! are retried after a bounded exponential backoff with deterministic
//! jitter (1 ms doubling to a 64 ms ceiling, equal-jittered by a hash
//! of the bounce count so concurrent clients desynchronise without any
//! RNG state); redirects reconnect to the named server when `--servers`
//! is given.
//!
//! `--workload kv` drives a `--app kv` server end-to-end: each client
//! interleaves puts and gets over a `--keys`-sized keyspace and the acks
//! carry real [`KvReply`] payloads (get values, cas outcomes), which the
//! client tallies — the full request/response path, not just append-acks.
//!
//! `--json` replaces the human-readable report with a single JSON object
//! on stdout (counts, wall clock, throughput, latency percentiles,
//! bounce tallies, total backoff wait, kv hit/miss counts) for scripted
//! harnesses and CI.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::process::exit;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver};
use gencon_app::{KvCmd, KvOp, KvReply};
use gencon_net::Wire;
use gencon_server::cli::{flag_value, parse_flag};
use gencon_server::{read_frame, write_frame, ClientRequest, ClientResponse};
use gencon_types::{decode_cmd, encode_cmd, Value};

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    parse_flag("gencon-client", args, flag, default)
}

/// Backpressure retry delay: bounded exponential over the consecutive
/// bounce `streak` (1 ms doubling to a 64 ms ceiling) with equal
/// jitter — the delay lands in `[exp/2, exp]`, the jitter half picked
/// by a mix of the global bounce count. Deterministic (same bounce
/// sequence, same delays) yet desynchronising, since concurrent
/// clients reach different bounce counts.
fn backoff_delay(streak: u32, bounces: u64) -> Duration {
    const BASE_US: u64 = 1_000;
    const CAP_US: u64 = 64_000;
    let exp = (BASE_US << streak.min(6)).min(CAP_US);
    // SplitMix64-style finalizer as the jitter hash.
    let mut x = bounces.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    Duration::from_micros(exp / 2 + x % (exp / 2 + 1))
}

/// A connected submit stream plus the channel its reader thread feeds.
type Conn<V, R> = (TcpStream, Receiver<(ClientResponse<V, R>, Instant)>);

/// Connects and spawns a reader thread forwarding responses with their
/// arrival instant.
fn connect<V, R>(addr: SocketAddr) -> Conn<V, R>
where
    V: Value + Wire,
    R: Clone + PartialEq + std::fmt::Debug + Send + Wire + 'static,
{
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("gencon-client: cannot connect {addr}: {e}");
        exit(1);
    });
    stream.set_nodelay(true).ok();
    let mut reader = stream.try_clone().unwrap_or_else(|e| {
        eprintln!("gencon-client: cannot clone the socket for reading: {e}");
        exit(1);
    });
    let (tx, rx) = channel::unbounded();
    std::thread::spawn(move || loop {
        match read_frame::<_, ClientResponse<V, R>>(&mut reader) {
            Ok(resp) => {
                if tx.send((resp, Instant::now())).is_err() {
                    return;
                }
            }
            Err(_) => return, // disconnected
        }
    });
    (stream, rx)
}

struct Shared {
    servers: Vec<SocketAddr>,
    namespace: u16,
    clients: u16,
    outstanding: u32,
    count: u64,
    ack_timeout: Duration,
}

/// What one closed-loop run measured; rendered human-readable or as one
/// JSON object (`--json`).
struct RunReport {
    acked: u64,
    wall_s: f64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    max_us: u64,
    backpressured: u64,
    redirects: u64,
    retry_wait: Duration,
}

impl RunReport {
    fn cmds_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.acked as f64 / self.wall_s
        } else {
            0.0
        }
    }

    fn print_human(&self) {
        println!(
            "acked {} commands in {:.3}s — {:.0} cmds/sec",
            self.acked,
            self.wall_s,
            self.cmds_per_sec()
        );
        println!(
            "latency µs: p50 {}  p90 {}  p99 {}  max {}",
            self.p50_us, self.p90_us, self.p99_us, self.max_us
        );
        if self.backpressured + self.redirects > 0 {
            println!(
                "bounces: {} backpressure, {} redirect — {:.1}ms total backoff wait",
                self.backpressured,
                self.redirects,
                self.retry_wait.as_secs_f64() * 1_000.0
            );
        }
    }

    /// One JSON object; `extra` is appended verbatim inside the braces
    /// (workload-specific tallies), empty for none.
    fn to_json(&self, extra: &str) -> String {
        format!(
            "{{\"acked\":{},\"wall_s\":{:.3},\"cmds_per_sec\":{:.0},\
             \"latency_us\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}},\
             \"backpressure_bounces\":{},\"redirect_bounces\":{},\
             \"retry_wait_us\":{}{extra}}}",
            self.acked,
            self.wall_s,
            self.cmds_per_sec(),
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.max_us,
            self.backpressured,
            self.redirects,
            self.retry_wait.as_micros(),
        )
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let server: SocketAddr = flag_value(&args, "--server")
        .unwrap_or_else(|| {
            eprintln!(
                "usage: gencon-client --server a:p --count N [--workload log|kv] \
                 [--clients C] [--outstanding K]"
            );
            exit(2);
        })
        .parse()
        .unwrap_or_else(|_| {
            eprintln!("gencon-client: bad --server address");
            exit(2);
        });
    let servers: Vec<SocketAddr> = flag_value(&args, "--servers")
        .map(|raw| {
            raw.split(',')
                .map(|s| {
                    s.parse().unwrap_or_else(|_| {
                        eprintln!("gencon-client: bad address in --servers: {s}");
                        exit(2);
                    })
                })
                .collect()
        })
        .unwrap_or_default();
    let shared = Shared {
        servers,
        namespace: parse(&args, "--id", 0),
        clients: parse(&args, "--clients", 8),
        outstanding: parse(&args, "--outstanding", 16),
        count: parse(&args, "--count", 10_000),
        ack_timeout: Duration::from_secs(parse(&args, "--timeout-secs", 60)),
    };
    if shared.clients == 0 || shared.outstanding == 0 || shared.count == 0 {
        eprintln!("gencon-client: --clients, --outstanding and --count must be positive");
        exit(2);
    }

    let json = args.iter().any(|a| a == "--json");
    match flag_value(&args, "--workload").as_deref().unwrap_or("log") {
        "log" => {
            let ns = shared.namespace;
            let report = run::<u64, u64>(
                server,
                &shared,
                |client, seq| encode_cmd(ns, client, seq),
                |cmd| decode_cmd(*cmd).1,
                |_reply| {},
            );
            if json {
                println!("{}", report.to_json(""));
            } else {
                report.print_human();
            }
        }
        "kv" => {
            let keys: u64 = parse(&args, "--keys", 1_024).max(1);
            // Values embed the 8-byte request id, so the floor is 8.
            let value_bytes: usize = parse(&args, "--value-bytes", 64).max(8);
            let ns = shared.namespace;
            let mut hits: u64 = 0;
            let mut misses: u64 = 0;
            let make = move |client: u16, seq: u32| -> KvCmd {
                let id = encode_cmd(ns, client, seq);
                // Deterministic key choice spread across the keyspace;
                // every 4th op is a linearized read.
                let key = format!("k{:08}", id.wrapping_mul(0x9E37_79B9) % keys).into_bytes();
                let op = if seq % 4 == 3 {
                    KvOp::Get { key }
                } else {
                    let mut value = vec![0u8; value_bytes];
                    value[..8].copy_from_slice(&id.to_le_bytes());
                    KvOp::Put { key, value }
                };
                KvCmd { id, op }
            };
            let report = run::<KvCmd, KvReply>(
                server,
                &shared,
                make,
                |cmd| decode_cmd(cmd.id).1,
                |reply| match reply {
                    Some(KvReply::Value(Some(_))) => hits += 1,
                    Some(KvReply::Value(None)) => misses += 1,
                    _ => {}
                },
            );
            if json {
                let extra = format!(",\"kv_get_hits\":{hits},\"kv_get_misses\":{misses}");
                println!("{}", report.to_json(&extra));
            } else {
                report.print_human();
                println!("kv gets: {hits} hits, {misses} misses");
            }
        }
        other => {
            eprintln!("gencon-client: unknown --workload {other} (log|kv)");
            exit(2);
        }
    }
}

fn run<V, R>(
    server: SocketAddr,
    shared: &Shared,
    make_cmd: impl Fn(u16, u32) -> V,
    client_of: impl Fn(&V) -> u16,
    mut on_reply: impl FnMut(Option<R>),
) -> RunReport
where
    V: Value + Wire,
    R: Clone + PartialEq + std::fmt::Debug + Send + Wire + 'static,
{
    let (mut stream, mut responses) = connect::<V, R>(server);
    let mut next_seq = vec![0u32; shared.clients as usize];
    // Issue exactly `count` distinct commands per run: once acks drain
    // the windows, the run ends with no stray in-flight extras — which
    // is what lets scripts pin a cluster's exact final command count
    // (`--stop-after` / `--hash-at` on the servers).
    let mut issued: u64 = 0;
    let mut submitted: HashMap<V, Instant> = HashMap::new();
    let mut latencies_us: Vec<u64> = Vec::with_capacity(shared.count as usize);
    let mut backpressured: u64 = 0;
    let mut redirects: u64 = 0;
    let mut bp_streak: u32 = 0;
    let mut retry_wait = Duration::ZERO;
    let started = Instant::now();

    // Retries and redirect re-submissions keep the first submit instant:
    // the client reports end-to-end latency, bounces included.
    let submit = |stream: &mut TcpStream, submitted: &mut HashMap<V, Instant>, cmd: V| {
        submitted.entry(cmd.clone()).or_insert_with(Instant::now);
        if write_frame(stream, &ClientRequest::Submit { cmd }).is_err() {
            eprintln!("gencon-client: server connection lost");
            exit(1);
        }
    };

    // Prime every client's window.
    'prime: for c in 0..shared.clients {
        for _ in 0..shared.outstanding {
            if issued >= shared.count {
                break 'prime;
            }
            let cmd = make_cmd(c, next_seq[c as usize]);
            next_seq[c as usize] += 1;
            issued += 1;
            submit(&mut stream, &mut submitted, cmd);
        }
    }

    while (latencies_us.len() as u64) < shared.count {
        let Ok((resp, at)) = responses.recv_timeout(shared.ack_timeout) else {
            eprintln!(
                "gencon-client: no response for {:?} ({} of {} acked) — aborting",
                shared.ack_timeout,
                latencies_us.len(),
                shared.count
            );
            exit(1);
        };
        match resp {
            ClientResponse::Committed { cmd, reply, .. } => {
                let Some(sent) = submitted.remove(&cmd) else {
                    continue; // duplicate ack
                };
                bp_streak = 0; // the server is accepting again
                on_reply(reply);
                latencies_us.push(at.duration_since(sent).as_micros() as u64);
                // Closed loop: the acked client's window refills, until
                // the issuance budget is spent.
                if issued < shared.count {
                    let c = client_of(&cmd);
                    let next = make_cmd(c, next_seq[c as usize]);
                    next_seq[c as usize] += 1;
                    issued += 1;
                    submit(&mut stream, &mut submitted, next);
                }
            }
            ClientResponse::Backpressure { cmd, .. } => {
                backpressured += 1;
                let delay = backoff_delay(bp_streak, backpressured);
                bp_streak = bp_streak.saturating_add(1);
                retry_wait += delay;
                std::thread::sleep(delay);
                submit(&mut stream, &mut submitted, cmd);
            }
            ClientResponse::Redirect { cmd, to } => {
                redirects += 1;
                let Some(&target) = shared.servers.get(to.index()) else {
                    eprintln!("gencon-client: redirected to process {to} but --servers not given");
                    exit(1);
                };
                let (s, r) = connect::<V, R>(target);
                stream = s;
                responses = r;
                // Re-submit everything in flight on the new connection.
                let inflight: Vec<V> = submitted.keys().cloned().collect();
                for c in inflight {
                    submit(&mut stream, &mut submitted, c);
                }
                let _ = cmd; // already among the re-submitted in-flight set
            }
        }
    }

    let wall = started.elapsed();
    latencies_us.sort_unstable();
    let q = |p: f64| -> u64 {
        let idx =
            ((p * latencies_us.len() as f64).ceil() as usize).clamp(1, latencies_us.len()) - 1;
        latencies_us[idx]
    };
    RunReport {
        acked: latencies_us.len() as u64,
        wall_s: wall.as_secs_f64(),
        p50_us: q(0.50),
        p90_us: q(0.90),
        p99_us: q(0.99),
        max_us: latencies_us.last().copied().unwrap_or(0),
        backpressured,
        redirects,
        retry_wait,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_exponential_with_equal_jitter() {
        for streak in 0..20u32 {
            for bounces in 1..50u64 {
                let d = backoff_delay(streak, bounces).as_micros() as u64;
                let exp = (1_000u64 << streak.min(6)).min(64_000);
                assert!(d >= exp / 2 && d <= exp, "streak {streak}: {d} vs {exp}");
            }
        }
        // Deterministic: same inputs, same delay.
        assert_eq!(backoff_delay(3, 7), backoff_delay(3, 7));
        // Jitter actually varies across bounce counts.
        let delays: std::collections::HashSet<_> =
            (1..20u64).map(|b| backoff_delay(6, b)).collect();
        assert!(delays.len() > 1, "jitter never varied");
    }
}
