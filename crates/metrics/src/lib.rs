//! Per-stage metrics for `gencon` nodes.
//!
//! The staged node pipeline (ingest → order → apply → persist → ack)
//! needs per-stage visibility: which queue backs up, where round time
//! goes, how often the WAL fsyncs and how far the durable watermark
//! trails the applied log. This crate is the shared facility every stage
//! reports into:
//!
//! * [`Counter`] — monotonically increasing `u64` (frames decoded,
//!   fsyncs, acks, drops);
//! * [`Gauge`] — last-written `u64` (queue depth, watermark position);
//! * [`Histogram`] — lock-free log-bucketed samples with HDR-style
//!   log-linear bucketing (exact below 64, ≤3.1% relative error above),
//!   for stage latencies in microseconds and the experiment binaries'
//!   rounds-to-decision distributions;
//! * [`Registry`] — names them, hands out cheap `Arc`-backed handles,
//!   and renders everything as one flat JSON object with stable key
//!   order ([`Registry::dump_json`]).
//!
//! All handles are `Clone + Send + Sync`: a stage thread records through
//! its handle without locking the registry. Dumps are triggered by the
//! embedding binary — `gencon-server --metrics-file` writes one on exit,
//! and [`install_sigusr1_dump`] (Unix) writes one whenever the process
//! receives `SIGUSR1`.
//!
//! # Example
//!
//! ```
//! use gencon_metrics::Registry;
//! let registry = Registry::new();
//! let frames = registry.counter("ingest.frames");
//! let depth = registry.gauge("ingest.queue_depth");
//! let lat = registry.histogram("order.round_us");
//! frames.inc();
//! depth.set(3);
//! lat.record(250);
//! let json = registry.dump_json();
//! assert!(json.contains("\"ingest.frames\":1"));
//! assert!(json.contains("\"order.round_us\":{\"count\":1"));
//! ```

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-bucket resolution: 2^SUB sub-buckets per octave.
const SUB: u32 = 5;
/// Values below this are their own bucket (exact).
const LINEAR_MAX: u64 = 1 << (SUB + 1);
/// Fixed bucket count covering the whole `u64` range: 64 linear buckets
/// plus 32 sub-buckets for each of the 58 octaves above.
const BUCKETS: usize = LINEAR_MAX as usize + ((64 - SUB as usize - 1) << SUB);

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins value (queue depth, watermark position).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if it is higher (watermarks).
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Bucket index of `v`: values below `LINEAR_MAX` are exact; above,
/// each power-of-two octave splits into 2^SUB sub-buckets.
fn index_of(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // ≥ SUB + 1
    let octave = msb - SUB; // ≥ 1
    let sub = (v >> (msb - SUB)) as usize - (1 << SUB); // 0..2^SUB
    LINEAR_MAX as usize + ((octave as usize - 1) << SUB) + sub
}

/// Upper edge of bucket `idx` (quantiles report this — conservative,
/// never underestimating the true sample).
fn value_of(idx: usize) -> u64 {
    if (idx as u64) < LINEAR_MAX {
        return idx as u64;
    }
    let rel = idx - LINEAR_MAX as usize;
    let octave = (rel >> SUB) as u32 + 1;
    let sub = (rel & ((1 << SUB) - 1)) as u64;
    let width = 1u64 << octave;
    let lower = ((1u64 << SUB) + sub) << octave;
    lower + (width - 1)
}

/// A lock-free log-bucketed histogram of `u64` samples.
///
/// Recording is a single relaxed `fetch_add` into a fixed bucket array,
/// so stage threads can record on the hot path. Quantiles are computed
/// from a snapshot at dump time.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        let mut buckets = Vec::with_capacity(BUCKETS);
        buckets.resize_with(BUCKETS, AtomicU64::default);
        Histogram(Arc::new(HistogramInner {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        let inner = &self.0;
        inner.buckets[index_of(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// The exact largest recorded sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Arithmetic mean (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.0.sum.load(Ordering::Relaxed) as f64 / count as f64
    }

    /// The value at quantile `q` in `[0, 1]` (bucket upper edge; 0 when
    /// empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, bucket) in self.0.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return value_of(idx).min(self.max());
            }
        }
        self.max()
    }

    /// Median sample.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
}

/// Names metric handles and renders them as JSON.
///
/// Cloning the registry shares the underlying metric set; registering a
/// name twice returns the existing handle, so independent components can
/// meet on a shared metric.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, creating it on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::default();
        inner.counters.push((name.to_string(), c.clone()));
        c
    }

    /// The gauge named `name`, creating it on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::default();
        inner.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// The histogram named `name`, creating it on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some((_, h)) = inner.histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histogram::default();
        inner.histograms.push((name.to_string(), h.clone()));
        h
    }

    /// The value of counter `name`, if registered.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.get())
    }

    /// The value of gauge `name`, if registered.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, g)| g.get())
    }

    /// Renders every metric as one flat JSON object, keys sorted:
    /// counters and gauges as `"name":value`, histograms as
    /// `"name":{"count":…,"mean":…,"p50":…,"p99":…,"max":…}`.
    #[must_use]
    pub fn dump_json(&self) -> String {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut entries: Vec<(String, String)> = Vec::new();
        for (name, c) in &inner.counters {
            entries.push((name.clone(), c.get().to_string()));
        }
        for (name, g) in &inner.gauges {
            entries.push((name.clone(), g.get().to_string()));
        }
        for (name, h) in &inner.histograms {
            entries.push((
                name.clone(),
                format!(
                    "{{\"count\":{},\"mean\":{:.1},\"p50\":{},\"p99\":{},\"max\":{}}}",
                    h.count(),
                    h.mean(),
                    h.p50(),
                    h.p99(),
                    h.max()
                ),
            ));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::from("{\n");
        for (i, (name, val)) in entries.iter().enumerate() {
            let _ = write!(out, "  \"{name}\":{val}");
            if i + 1 < entries.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }

    /// Writes [`Registry::dump_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `std::fs::write` error.
    pub fn dump_to_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.dump_json())
    }

    /// Every counter's `(name, value)`, sorted by name.
    #[must_use]
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut out: Vec<(String, u64)> = inner
            .counters
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Every gauge's `(name, value)`, sorted by name.
    #[must_use]
    pub fn gauge_values(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut out: Vec<(String, u64)> = inner
            .gauges
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Milliseconds since the Unix epoch (snapshot timestamps).
#[must_use]
fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// One timestamped snapshot of every counter and gauge in a registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistorySnapshot {
    /// Milliseconds since the Unix epoch at sampling time.
    pub ts_ms: u64,
    /// Counter `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, u64)>,
}

impl HistorySnapshot {
    /// One JSON object, no trailing newline:
    /// `{"ts_ms":…,"counters":{…},"gauges":{…}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let render = |pairs: &[(String, u64)]| {
            let body: Vec<String> = pairs.iter().map(|(n, v)| format!("\"{n}\":{v}")).collect();
            format!("{{{}}}", body.join(","))
        };
        format!(
            "{{\"ts_ms\":{},\"counters\":{},\"gauges\":{}}}",
            self.ts_ms,
            render(&self.counters),
            render(&self.gauges),
        )
    }

    fn value(pairs: &[(String, u64)], name: &str) -> Option<u64> {
        pairs.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Per-second rates derived from the deltas between the two newest
/// history snapshots — *interval* rates, not cumulative averages.
#[derive(Clone, Debug)]
pub struct RateReport {
    /// Wall-clock span between the two snapshots.
    pub interval_ms: u64,
    /// Commands applied per second (delta of the `order.applied`
    /// watermark gauge — present on any observed node, gateway or not).
    pub cmds_per_sec: f64,
    /// WAL fsyncs per second (delta of the `persist.fsyncs` counter; 0
    /// on in-memory nodes).
    pub fsyncs_per_sec: f64,
    /// Consensus rounds per second (delta of the `order.rounds` counter).
    pub rounds_per_sec: f64,
    /// Every counter's interval rate, sorted by name.
    pub counters: Vec<(String, f64)>,
}

impl RateReport {
    /// One JSON object, no trailing newline.
    #[must_use]
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(n, r)| format!("\"{n}\":{r:.3}"))
            .collect();
        format!(
            "{{\"interval_ms\":{},\"cmds_per_sec\":{:.3},\"fsyncs_per_sec\":{:.3},\
             \"rounds_per_sec\":{:.3},\"counters\":{{{}}}}}",
            self.interval_ms,
            self.cmds_per_sec,
            self.fsyncs_per_sec,
            self.rounds_per_sec,
            counters.join(","),
        )
    }
}

/// The interval delta of a monotone value, tolerating resets: a value
/// that went *down* is a restarted/reset source, counted from zero.
fn reset_aware_delta(prev: u64, cur: u64) -> u64 {
    if cur >= prev {
        cur - prev
    } else {
        cur
    }
}

struct HistoryInner {
    cap: usize,
    buf: std::collections::VecDeque<HistorySnapshot>,
}

/// A fixed-capacity ring of timestamped registry snapshots — the
/// in-node metrics history behind the admin `history` and `rates`
/// commands. A sampler thread ([`HistoryRing::spawn_sampler`]) pushes a
/// snapshot every interval; the ring wraps by dropping the oldest.
/// Clones share the ring (sampler writes, admin reads).
#[derive(Clone)]
pub struct HistoryRing {
    inner: Arc<Mutex<HistoryInner>>,
}

impl std::fmt::Debug for HistoryRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("history ring poisoned");
        f.debug_struct("HistoryRing")
            .field("cap", &inner.cap)
            .field("len", &inner.buf.len())
            .finish()
    }
}

impl HistoryRing {
    /// A ring holding at most `capacity` snapshots (min 2: rates need a
    /// delta).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        HistoryRing {
            inner: Arc::new(Mutex::new(HistoryInner {
                cap: capacity.max(2),
                buf: std::collections::VecDeque::new(),
            })),
        }
    }

    /// The ring's capacity in snapshots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.lock().expect("history ring poisoned").cap
    }

    /// Snapshots currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("history ring poisoned").buf.len()
    }

    /// Whether no snapshot has been taken yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots `registry` now (wall-clock timestamp).
    pub fn sample(&self, registry: &Registry) {
        self.sample_at(registry, now_ms());
    }

    /// Snapshots `registry` with an explicit timestamp (tests pin the
    /// clock; rates divide by the timestamp delta).
    pub fn sample_at(&self, registry: &Registry, ts_ms: u64) {
        let snap = HistorySnapshot {
            ts_ms,
            counters: registry.counter_values(),
            gauges: registry.gauge_values(),
        };
        let mut inner = self.inner.lock().expect("history ring poisoned");
        if inner.buf.len() == inner.cap {
            inner.buf.pop_front();
        }
        inner.buf.push_back(snap);
    }

    /// The newest `n` snapshots, oldest first.
    #[must_use]
    pub fn tail(&self, n: usize) -> Vec<HistorySnapshot> {
        let inner = self.inner.lock().expect("history ring poisoned");
        let skip = inner.buf.len().saturating_sub(n);
        inner.buf.iter().skip(skip).cloned().collect()
    }

    /// Rates derived from the two newest snapshots; `None` until two
    /// samples exist or while their timestamps coincide.
    #[must_use]
    pub fn rates(&self) -> Option<RateReport> {
        let (prev, cur) = {
            let inner = self.inner.lock().expect("history ring poisoned");
            let len = inner.buf.len();
            if len < 2 {
                return None;
            }
            (inner.buf[len - 2].clone(), inner.buf[len - 1].clone())
        };
        let interval_ms = cur.ts_ms.saturating_sub(prev.ts_ms);
        if interval_ms == 0 {
            return None;
        }
        let secs = interval_ms as f64 / 1e3;
        let counter_rate = |name: &str| {
            let p = HistorySnapshot::value(&prev.counters, name).unwrap_or(0);
            let c = HistorySnapshot::value(&cur.counters, name).unwrap_or(0);
            reset_aware_delta(p, c) as f64 / secs
        };
        let gauge_rate = |name: &str| {
            let p = HistorySnapshot::value(&prev.gauges, name).unwrap_or(0);
            let c = HistorySnapshot::value(&cur.gauges, name).unwrap_or(0);
            reset_aware_delta(p, c) as f64 / secs
        };
        let counters: Vec<(String, f64)> = cur
            .counters
            .iter()
            .map(|(name, val)| {
                let p = HistorySnapshot::value(&prev.counters, name).unwrap_or(0);
                (name.clone(), reset_aware_delta(p, *val) as f64 / secs)
            })
            .collect();
        Some(RateReport {
            interval_ms,
            cmds_per_sec: gauge_rate("order.applied"),
            fsyncs_per_sec: counter_rate("persist.fsyncs"),
            rounds_per_sec: counter_rate("order.rounds"),
            counters,
        })
    }

    /// Spawns a detached sampler thread snapshotting `registry` into
    /// this ring every `interval`, for the life of the process.
    pub fn spawn_sampler(&self, registry: Registry, interval: std::time::Duration) {
        let ring = self.clone();
        std::thread::spawn(move || loop {
            ring.sample(&registry);
            std::thread::sleep(interval);
        });
    }
}

#[cfg(unix)]
mod sigusr1 {
    use super::Registry;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, OnceLock};

    /// `SIGUSR1` on Linux and most Unices.
    const SIGUSR1: i32 = 10;

    static DUMP_REQUESTED: AtomicBool = AtomicBool::new(false);

    /// A registered signal callback.
    type Callback = Box<dyn Fn() + Send>;

    /// Everything to run when the signal arrives. The watcher thread
    /// invokes them off the signal path, so callbacks may allocate and
    /// do I/O freely.
    static CALLBACKS: OnceLock<Mutex<Vec<Callback>>> = OnceLock::new();

    extern "C" fn on_sigusr1(_sig: i32) {
        // Async-signal-safe: a single atomic store, nothing else.
        DUMP_REQUESTED.store(true, Ordering::Relaxed);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Registers `callback` to run (on a watcher thread, not in signal
    /// context) every time the process receives `SIGUSR1`. The first
    /// call installs the handler and spawns the watcher; both live for
    /// the process lifetime. Callbacks run in registration order.
    pub fn install_sigusr1(callback: impl Fn() + Send + 'static) {
        static INSTALL: std::sync::Once = std::sync::Once::new();
        CALLBACKS
            .get_or_init(|| Mutex::new(Vec::new()))
            .lock()
            .expect("sigusr1 callbacks poisoned")
            .push(Box::new(callback));
        INSTALL.call_once(|| {
            unsafe {
                signal(SIGUSR1, on_sigusr1);
            }
            std::thread::spawn(|| loop {
                std::thread::sleep(std::time::Duration::from_millis(200));
                if DUMP_REQUESTED.swap(false, Ordering::Relaxed) {
                    let callbacks = CALLBACKS
                        .get()
                        .expect("watcher runs after init")
                        .lock()
                        .expect("sigusr1 callbacks poisoned");
                    for cb in callbacks.iter() {
                        cb();
                    }
                }
            });
        });
    }

    /// Installs a `SIGUSR1` callback that writes `registry.dump_json()`
    /// to `path` each time the signal arrives (see [`install_sigusr1`]).
    pub fn install_sigusr1_dump(registry: Registry, path: PathBuf) {
        install_sigusr1(move || {
            if let Err(e) = registry.dump_to_file(&path) {
                eprintln!("gencon-metrics: dump to {} failed: {e}", path.display());
            }
        });
    }
}

#[cfg(unix)]
pub use sigusr1::{install_sigusr1, install_sigusr1_dump};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once() {
        let r = Registry::new();
        let a = r.counter("stage.events");
        let b = r.counter("stage.events");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same name shares the counter");
        assert_eq!(r.counter_value("stage.events"), Some(3));
        assert_eq!(r.counter_value("missing"), None);
        let g = r.gauge("stage.depth");
        g.set(7);
        g.raise(3);
        assert_eq!(g.get(), 7, "raise never lowers");
        g.raise(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_matches_reference_bucketing() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 50, "exact below LINEAR_MAX");
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        // Above LINEAR_MAX the relative error is bounded by 1/32.
        let big = Histogram::default();
        big.record(1_000_000);
        let p = big.quantile(0.5);
        assert!(p >= 1_000_000 && p as f64 <= 1_000_000.0 * (1.0 + 1.0 / 32.0));
    }

    #[test]
    fn bucket_count_covers_u64() {
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
        assert_eq!(index_of(0), 0);
        let h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX, "clamped to the true max");
    }

    #[test]
    fn dump_is_stable_flat_json() {
        let r = Registry::new();
        r.counter("b.second").add(2);
        r.counter("a.first").inc();
        r.gauge("c.depth").set(4);
        r.histogram("d.lat_us").record(100);
        let json = r.dump_json();
        let a = json.find("\"a.first\":1").expect("a.first");
        let b = json.find("\"b.second\":2").expect("b.second");
        let c = json.find("\"c.depth\":4").expect("c.depth");
        let d = json.find("\"d.lat_us\":{").expect("d.lat_us");
        assert!(a < b && b < c && c < d, "keys sorted: {json}");
        assert!(json.contains("\"count\":1"));
    }

    #[test]
    fn dump_to_file_round_trips() {
        let r = Registry::new();
        r.counter("x").inc();
        let path = std::env::temp_dir().join(format!(
            "gencon-metrics-test-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        r.dump_to_file(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, r.dump_json());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn history_ring_wraps_dropping_the_oldest() {
        let r = Registry::new();
        let c = r.counter("apply.applied");
        let ring = HistoryRing::new(3);
        assert!(ring.is_empty());
        for i in 1..=5u64 {
            c.inc();
            ring.sample_at(&r, 1_000 * i);
        }
        assert_eq!(ring.len(), 3, "capacity bounds the ring");
        let snaps = ring.tail(10);
        assert_eq!(snaps.len(), 3);
        // The two oldest samples (ts 1000, 2000) were dropped.
        assert_eq!(snaps[0].ts_ms, 3_000);
        assert_eq!(snaps[2].ts_ms, 5_000);
        assert_eq!(
            HistorySnapshot::value(&snaps[2].counters, "apply.applied"),
            Some(5)
        );
        // tail(n) returns only the newest n, oldest first.
        let last_two = ring.tail(2);
        assert_eq!(last_two[0].ts_ms, 4_000);
        assert_eq!(last_two[1].ts_ms, 5_000);
        let json = snaps[2].to_json();
        assert!(json.contains("\"ts_ms\":5000"), "{json}");
        assert!(json.contains("\"apply.applied\":5"), "{json}");
    }

    #[test]
    fn rates_derive_from_interval_deltas_not_totals() {
        let r = Registry::new();
        let rounds = r.counter("order.rounds");
        let fsyncs = r.counter("persist.fsyncs");
        let applied = r.gauge("order.applied");
        let ring = HistoryRing::new(8);
        assert!(ring.rates().is_none(), "one sample has no rate");
        rounds.add(1_000);
        fsyncs.add(100);
        applied.set(10_000);
        ring.sample_at(&r, 1_000);
        assert!(ring.rates().is_none(), "still only one sample");
        // Half a second later: +50 rounds, +5 fsyncs, +200 applied.
        rounds.add(50);
        fsyncs.add(5);
        applied.set(10_200);
        ring.sample_at(&r, 1_500);
        let rates = ring.rates().expect("two samples");
        assert_eq!(rates.interval_ms, 500);
        assert!((rates.rounds_per_sec - 100.0).abs() < 1e-9, "{rates:?}");
        assert!((rates.fsyncs_per_sec - 10.0).abs() < 1e-9, "{rates:?}");
        assert!(
            (rates.cmds_per_sec - 400.0).abs() < 1e-9,
            "interval delta, not the cumulative total: {rates:?}"
        );
        let json = rates.to_json();
        assert!(json.contains("\"interval_ms\":500"), "{json}");
        assert!(json.contains("\"cmds_per_sec\":400.000"), "{json}");
        assert!(json.contains("\"order.rounds\":100.000"), "{json}");
    }

    #[test]
    fn rates_survive_counter_resets() {
        // A restarted source's counter goes backwards; the delta counts
        // from zero instead of underflowing into an absurd rate.
        let r1 = Registry::new();
        r1.counter("order.rounds").add(5_000);
        let ring = HistoryRing::new(4);
        ring.sample_at(&r1, 1_000);
        let r2 = Registry::new();
        r2.counter("order.rounds").add(30);
        ring.sample_at(&r2, 2_000);
        let rates = ring.rates().expect("two samples");
        assert!(
            (rates.rounds_per_sec - 30.0).abs() < 1e-9,
            "reset counts from zero: {rates:?}"
        );
        // Coincident timestamps produce no rate rather than dividing by 0.
        ring.sample_at(&r2, 2_000);
        assert!(ring.rates().is_none());
    }

    #[test]
    fn sampler_thread_fills_the_ring() {
        let r = Registry::new();
        r.counter("order.rounds").inc();
        let ring = HistoryRing::new(16);
        ring.spawn_sampler(r.clone(), std::time::Duration::from_millis(5));
        for _ in 0..200 {
            if ring.len() >= 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(ring.len() >= 2, "sampler produced snapshots");
    }

    #[test]
    fn handles_record_across_threads() {
        let r = Registry::new();
        let c = r.counter("threads.events");
        let h = r.histogram("threads.lat");
        let mut joins = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            let h = h.clone();
            joins.push(std::thread::spawn(move || {
                for v in 0..250u64 {
                    c.inc();
                    h.record(v);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(c.get(), 1000);
        assert_eq!(h.count(), 1000);
    }
}
