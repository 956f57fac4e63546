//! Point-to-point transports: in-process channels and localhost TCP.
//!
//! A [`Transport`] moves opaque frames between processes and *authenticates
//! the sender* at the transport layer — the in-process transport by
//! construction, the TCP transport by pinning each connection to the peer
//! id announced in its hello frame. This discharges the "honest processes
//! cannot be impersonated" assumption of §2.1 for deployments without
//! authenticators; Byzantine-resilient deployments additionally sign
//! payloads with `gencon-crypto` authenticators via the `Pcons` stack.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use std::sync::Arc;

use gencon_types::ProcessId;

/// Frames a [`TcpTransport`] inbox holds before it sheds new ones. Round
/// frames tolerate loss by design, so a full inbox drops (and counts) a
/// fresh frame the way a congested link would, instead of stalling the
/// socket readers behind a slow consumer.
pub const INBOX_CAP: usize = 4096;

/// Socket read buffer of one TCP peer connection: a round's frames
/// usually arrive in one read.
const READ_BUF_BYTES: usize = 64 << 10;

/// One inbox entry: the authenticated sender and the frame.
type Inbound = (ProcessId, Bytes);

/// The detached receive side of a [`Transport`], usable from another
/// thread while the owning transport keeps sending.
///
/// Obtained via [`Transport::split_recv`]; while split, the transport's
/// own `recv_timeout` yields nothing. [`Transport::restore_recv`] rejoins
/// the halves.
pub struct RecvHalf {
    rx: Receiver<Inbound>,
    /// Feeds the same inbox (see [`RecvHalf::waker`]).
    tx: Sender<Inbound>,
    /// Frames the transport shed because the inbox was full.
    dropped: Arc<AtomicU64>,
}

impl RecvHalf {
    /// Receives the next frame within `timeout`, with its authenticated
    /// sender. `None` on timeout or a closed transport.
    #[must_use]
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(ProcessId, Bytes)> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// A sender into this inbox. The owner can push a frame to itself
    /// from another thread — an empty one wakes a receiver blocked in
    /// [`RecvHalf::recv_timeout`].
    #[must_use]
    pub fn waker(&self) -> Sender<(ProcessId, Bytes)> {
        self.tx.clone()
    }

    /// Frames waiting in the inbox.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rx.len()
    }

    /// Whether the inbox is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rx.is_empty()
    }

    /// Frames the transport dropped so far because the inbox was full
    /// (always 0 for an unbounded inbox).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// A frame-oriented, sender-authenticated transport.
pub trait Transport: Send {
    /// This endpoint's process id.
    fn local(&self) -> ProcessId;

    /// Number of processes in the mesh (including this one).
    fn peers(&self) -> usize;

    /// Sends a frame to `to` (best-effort; lost frames model bad periods).
    fn send(&mut self, to: ProcessId, frame: Bytes);

    /// Receives the next frame within `timeout`, with its authenticated
    /// sender. `None` on timeout.
    fn recv_timeout(&mut self, timeout: Duration) -> Option<(ProcessId, Bytes)>;

    /// Detaches the receive side so a consumer can drain (and wake) it
    /// while this transport keeps sending. The SMR node's order loop
    /// receives only through this half and refuses a transport that
    /// returns `None`.
    fn split_recv(&mut self) -> Option<RecvHalf>;

    /// Reattaches a half taken by [`Transport::split_recv`].
    fn restore_recv(&mut self, half: RecvHalf);
}

/// Swaps `inbox` with a receiver whose sender is dropped immediately, so
/// inline receives report "nothing" while the real half is detached.
fn take_inbox(
    inbox: &mut Receiver<Inbound>,
    tx: &Sender<Inbound>,
    dropped: &Arc<AtomicU64>,
) -> RecvHalf {
    let (_dead_tx, dead_rx) = channel::unbounded();
    RecvHalf {
        rx: std::mem::replace(inbox, dead_rx),
        tx: tx.clone(),
        dropped: Arc::clone(dropped),
    }
}

/// An in-process transport: one crossbeam channel per process.
///
/// ```
/// use gencon_net::{ChannelTransport, Transport};
/// use bytes::Bytes;
/// use std::time::Duration;
///
/// let mut mesh = ChannelTransport::mesh(3);
/// let mut a = mesh.remove(0);
/// let mut b = mesh.remove(0);
/// a.send(b.local(), Bytes::from_static(b"hi"));
/// let (from, frame) = b.recv_timeout(Duration::from_millis(100)).unwrap();
/// assert_eq!(from, a.local());
/// assert_eq!(&frame[..], b"hi");
/// ```
pub struct ChannelTransport {
    id: ProcessId,
    inbox: Receiver<Inbound>,
    peers: Vec<Sender<Inbound>>,
}

impl ChannelTransport {
    /// Builds a fully connected mesh of `n` endpoints.
    #[must_use]
    pub fn mesh(n: usize) -> Vec<ChannelTransport> {
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| ChannelTransport {
                id: ProcessId::new(i),
                inbox,
                peers: senders.clone(),
            })
            .collect()
    }
}

impl Transport for ChannelTransport {
    fn local(&self) -> ProcessId {
        self.id
    }

    fn peers(&self) -> usize {
        self.peers.len()
    }

    fn send(&mut self, to: ProcessId, frame: Bytes) {
        if let Some(peer) = self.peers.get(to.index()) {
            // A dropped receiver models a crashed process; ignore.
            let _ = peer.send((self.id, frame));
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(ProcessId, Bytes)> {
        self.inbox.recv_timeout(timeout).ok()
    }

    fn split_recv(&mut self) -> Option<RecvHalf> {
        // The channel inbox is unbounded: nothing is ever dropped.
        let own = &self.peers[self.id.index()];
        Some(take_inbox(&mut self.inbox, own, &Arc::default()))
    }

    fn restore_recv(&mut self, half: RecvHalf) {
        self.inbox = half.rx;
    }
}

/// A localhost/LAN TCP transport.
///
/// Each endpoint listens on its own address and dials every peer; every
/// connection starts with a 4-byte hello carrying the dialer's id, and all
/// subsequent frames are length-prefixed. Frames received on a connection
/// are attributed to the hello id **pinned at accept time** — a peer cannot
/// claim another's identity later.
///
/// Connections are **self-healing**: the acceptor keeps accepting for the
/// transport's whole lifetime (a restarted peer re-dials and is simply
/// picked up), and an outgoing link whose write fails is redialed in the
/// background with bounded backoff — frames sent while a peer is down are
/// dropped, which is exactly the best-effort/bad-period semantics of the
/// model. Dropping the transport shuts the acceptor down and releases the
/// listen address, so a process restart can rebind the same endpoint.
///
/// The inbox holds at most [`INBOX_CAP`] frames; past that, fresh frames
/// are dropped and counted ([`RecvHalf::dropped`]).
pub struct TcpTransport {
    id: ProcessId,
    inbox: Receiver<Inbound>,
    inbox_tx: Sender<Inbound>,
    dropped: Arc<AtomicU64>,
    links: Vec<Option<PeerLink>>,
    closed: Arc<std::sync::atomic::AtomicBool>,
    local_addr: SocketAddr,
}

/// The outgoing side of one peer connection, redialable after failures.
struct PeerLink {
    addr: SocketAddr,
    /// `None` while the connection is down (awaiting redial).
    stream: Arc<Mutex<Option<TcpStream>>>,
    /// A background redial is in flight.
    redialing: Arc<std::sync::atomic::AtomicBool>,
    /// Length prefix and body of the frame being sent, so each frame goes
    /// out in one write (reused across sends).
    out: Vec<u8>,
}

impl PeerLink {
    fn up(addr: SocketAddr, stream: TcpStream) -> PeerLink {
        PeerLink {
            addr,
            stream: Arc::new(Mutex::new(Some(stream))),
            redialing: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            out: Vec::new(),
        }
    }

    /// Kicks off one background redial unless one is already running.
    /// The event loop never blocks on reconnection; frames sent while the
    /// link is down are dropped (best-effort).
    fn spawn_redial(&self, my_id: ProcessId) {
        use std::sync::atomic::Ordering;
        if self.redialing.swap(true, Ordering::SeqCst) {
            return;
        }
        let addr = self.addr;
        let stream = Arc::clone(&self.stream);
        let redialing = Arc::clone(&self.redialing);
        std::thread::spawn(move || {
            let policy = DialPolicy {
                deadline: Duration::from_secs(2),
                ..DialPolicy::default()
            };
            if let Ok(mut s) = dial_with_backoff(addr, policy) {
                if s.write_all(&(my_id.index() as u32).to_le_bytes()).is_ok() {
                    s.set_nodelay(true).ok();
                    *stream.lock() = Some(s);
                }
            }
            redialing.store(false, Ordering::SeqCst);
        });
    }
}

/// Retry policy for dialing mesh peers that have not bound yet.
///
/// A cluster never starts atomically: deployment staggers process launches
/// by seconds, and a restarted node re-dials peers that are still coming
/// up. Dialing therefore retries with *bounded exponential backoff* —
/// starting at [`DialPolicy::initial_backoff`], doubling up to
/// [`DialPolicy::max_backoff`] — until [`DialPolicy::deadline`] elapses,
/// at which point the mesh connection fails with the last I/O error.
#[derive(Clone, Copy, Debug)]
pub struct DialPolicy {
    /// Total wall-clock budget for establishing one peer connection.
    pub deadline: Duration,
    /// First retry delay after a refused/failed dial.
    pub initial_backoff: Duration,
    /// Backoff cap: delays double up to this bound.
    pub max_backoff: Duration,
}

impl Default for DialPolicy {
    fn default() -> Self {
        DialPolicy {
            deadline: Duration::from_secs(15),
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(250),
        }
    }
}

impl TcpTransport {
    /// Connects a full mesh with the default [`DialPolicy`]: `addrs[i]` is
    /// the listen address of process `i`; this endpoint is `id` and must be
    /// able to bind `addrs[id]`.
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener, or dialing a peer past the policy
    /// deadline.
    pub fn connect_mesh(id: ProcessId, addrs: &[SocketAddr]) -> std::io::Result<TcpTransport> {
        TcpTransport::connect_mesh_with(id, addrs, DialPolicy::default())
    }

    /// Connects a full mesh, dialing every peer *in parallel* under
    /// `policy`: a peer that binds late delays the mesh by its own lateness
    /// only, not by the sum over peers.
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener, or dialing a peer past the policy
    /// deadline.
    pub fn connect_mesh_with(
        id: ProcessId,
        addrs: &[SocketAddr],
        policy: DialPolicy,
    ) -> std::io::Result<TcpTransport> {
        let n = addrs.len();
        let listener = TcpListener::bind(addrs[id.index()])?;
        let local_addr = listener.local_addr()?;
        let (tx, rx) = channel::bounded(INBOX_CAP);
        let dropped = Arc::new(AtomicU64::new(0));
        let closed = Arc::new(std::sync::atomic::AtomicBool::new(false));

        // Acceptor: every inbound connection is a peer's sending side.
        // It runs for the transport's whole lifetime — a peer that
        // restarts re-dials and must be accepted, however late. Shutdown
        // (Drop) sets `closed` and nudges the listener awake.
        let acceptor_tx = tx.clone();
        let acceptor_dropped = Arc::clone(&dropped);
        let acceptor_closed = Arc::clone(&closed);
        std::thread::spawn(move || {
            loop {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                if acceptor_closed.load(std::sync::atomic::Ordering::SeqCst) {
                    return; // releases the listener for a rebinding restart
                }
                let tx = acceptor_tx.clone();
                let dropped = Arc::clone(&acceptor_dropped);
                std::thread::spawn(move || reader_loop(stream, &tx, &dropped));
            }
        });

        // Dial every peer concurrently; our outbound sides carry our frames.
        let dials: Vec<(usize, std::thread::JoinHandle<std::io::Result<TcpStream>>)> = addrs
            .iter()
            .enumerate()
            .filter(|(peer, _)| *peer != id.index())
            .map(|(peer, addr)| {
                let addr = *addr;
                (
                    peer,
                    std::thread::spawn(move || {
                        let mut stream = dial_with_backoff(addr, policy)?;
                        stream.write_all(&(id.index() as u32).to_le_bytes())?;
                        stream.set_nodelay(true).ok();
                        Ok(stream)
                    }),
                )
            })
            .collect();
        let mut links: Vec<Option<PeerLink>> = (0..n).map(|_| None).collect();
        for (peer, handle) in dials {
            let stream = handle
                .join()
                .map_err(|_| std::io::Error::other("dial thread panicked"))??;
            links[peer] = Some(PeerLink::up(addrs[peer], stream));
        }

        Ok(TcpTransport {
            id,
            inbox: rx,
            inbox_tx: tx,
            dropped,
            links,
            closed,
            local_addr,
        })
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.closed.store(true, std::sync::atomic::Ordering::SeqCst);
        // Nudge the acceptor out of `accept()` so it observes the flag
        // and releases the listen address for a restarted process.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
    }
}

/// Dials `addr` with bounded exponential backoff until `policy.deadline`.
///
/// Each attempt is itself bounded by the remaining budget
/// (`connect_timeout`), so a black-holed address — SYNs dropped rather
/// than refused — cannot stretch one attempt past the deadline.
fn dial_with_backoff(addr: SocketAddr, policy: DialPolicy) -> std::io::Result<TcpStream> {
    let give_up = Instant::now() + policy.deadline;
    let mut backoff = policy.initial_backoff.max(Duration::from_millis(1));
    loop {
        let now = Instant::now();
        let remaining = give_up
            .checked_duration_since(now)
            .unwrap_or(Duration::from_millis(1))
            .max(Duration::from_millis(1));
        match TcpStream::connect_timeout(&addr, remaining) {
            Ok(s) => return Ok(s),
            Err(e) => {
                let now = Instant::now();
                if now >= give_up {
                    return Err(e);
                }
                std::thread::sleep(backoff.min(give_up - now));
                backoff = (backoff * 2).min(policy.max_backoff);
            }
        }
    }
}

/// Reserves `n` distinct free localhost addresses by probe-binding
/// ephemeral ports and releasing them. Inherently racy (another process
/// can grab a released port), but the standard recipe for tests and
/// local harnesses that must exchange a full address list before any
/// node binds.
///
/// # Errors
///
/// Propagates probe bind/address errors.
pub fn probe_free_addrs(n: usize) -> std::io::Result<Vec<SocketAddr>> {
    let probes: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    probes.iter().map(TcpListener::local_addr).collect()
}

/// Reads the hello id, then length-prefixed frames through a buffered
/// reader, forwarding them tagged with the pinned id. A frame that finds
/// the inbox full is dropped and counted in `dropped`.
fn reader_loop(stream: TcpStream, tx: &Sender<Inbound>, dropped: &AtomicU64) {
    let mut stream = BufReader::with_capacity(READ_BUF_BYTES, stream);
    let mut id_buf = [0u8; 4];
    if stream.read_exact(&mut id_buf).is_err() {
        return;
    }
    let claimed = u32::from_le_bytes(id_buf) as usize;
    if claimed >= gencon_types::MAX_PROCESSES {
        return;
    }
    let sender_id = ProcessId::new(claimed);
    loop {
        let mut len_buf = [0u8; 4];
        if stream.read_exact(&mut len_buf).is_err() {
            return;
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        // The peer mesh carries snapshot state-transfer chunks alongside
        // round bundles — the cap must cover the bigger of the two (plus
        // frame overhead) or a legitimate frame would sever the
        // connection. Client-facing links keep the tighter MAX_BYTES cap.
        if len > crate::wire_sync::CHUNK_BYTES + crate::wire::MAX_BYTES {
            return; // protocol violation: drop the connection
        }
        let mut frame = vec![0u8; len];
        if stream.read_exact(&mut frame).is_err() {
            return;
        }
        match tx.try_send((sender_id, Bytes::from(frame))) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                dropped.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

impl Transport for TcpTransport {
    fn local(&self) -> ProcessId {
        self.id
    }

    fn peers(&self) -> usize {
        self.links.len()
    }

    fn send(&mut self, to: ProcessId, frame: Bytes) {
        if to == self.id {
            return; // self-delivery handled by the runtime
        }
        let me = self.id;
        let Some(Some(link)) = self.links.get_mut(to.index()) else {
            return;
        };
        let mut guard = link.stream.lock();
        match guard.as_mut() {
            Some(stream) => {
                link.out.clear();
                link.out
                    .extend_from_slice(&(frame.len() as u32).to_le_bytes());
                link.out.extend_from_slice(&frame);
                // Best-effort: a failed write models a crashed/partitioned
                // peer — the frame is dropped and the link redials in the
                // background so a *restarted* peer is reachable again.
                if stream.write_all(&link.out).is_err() {
                    *guard = None;
                    drop(guard);
                    link.spawn_redial(me);
                }
            }
            None => {
                drop(guard);
                link.spawn_redial(me);
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(ProcessId, Bytes)> {
        self.inbox.recv_timeout(timeout).ok()
    }

    fn split_recv(&mut self) -> Option<RecvHalf> {
        Some(take_inbox(&mut self.inbox, &self.inbox_tx, &self.dropped))
    }

    fn restore_recv(&mut self, half: RecvHalf) {
        self.inbox = half.rx;
    }
}

/// A chaos wrapper: drops outgoing frames with probability `loss` until
/// `good_after` sends have happened — real-runtime bad periods for tests
/// and experiments (the wall-clock analogue of the simulator's [GST]).
///
/// [GST]: https://dl.acm.org/doi/10.1145/42282.42283
pub struct FlakyTransport<T> {
    inner: T,
    loss_permille: u32,
    good_after: u64,
    sends: u64,
    state: u64,
}

impl<T: Transport> FlakyTransport<T> {
    /// Wraps `inner`: each send before the `good_after`-th is dropped with
    /// probability `loss_permille`/1000 (deterministic per `seed`).
    #[must_use]
    pub fn new(inner: T, loss_permille: u32, good_after: u64, seed: u64) -> Self {
        FlakyTransport {
            inner,
            loss_permille: loss_permille.min(1000),
            good_after,
            sends: 0,
            state: seed | 1,
        }
    }

    /// xorshift64* — deterministic, dependency-free.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

impl<T: Transport> Transport for FlakyTransport<T> {
    fn local(&self) -> ProcessId {
        self.inner.local()
    }

    fn peers(&self) -> usize {
        self.inner.peers()
    }

    fn send(&mut self, to: ProcessId, frame: Bytes) {
        self.sends += 1;
        if self.sends <= self.good_after {
            let roll = self.next_rand() % 1000;
            if roll < u64::from(self.loss_permille) {
                return; // dropped: a bad-period loss
            }
        }
        self.inner.send(to, frame);
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(ProcessId, Bytes)> {
        self.inner.recv_timeout(timeout)
    }

    // Loss is injected on the send side only, so the receive half can be
    // split off the wrapped transport unchanged.
    fn split_recv(&mut self) -> Option<RecvHalf> {
        self.inner.split_recv()
    }

    fn restore_recv(&mut self, half: RecvHalf) {
        self.inner.restore_recv(half);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_mesh_routes_frames() {
        let mut mesh = ChannelTransport::mesh(3);
        let id2 = mesh[2].local();
        mesh[0].send(id2, Bytes::from_static(b"x"));
        mesh[1].send(id2, Bytes::from_static(b"y"));
        let mut got = Vec::new();
        for _ in 0..2 {
            let (from, frame) = mesh[2]
                .recv_timeout(Duration::from_millis(200))
                .expect("frame arrives");
            got.push((from.index(), frame));
        }
        got.sort();
        assert_eq!(got[0], (0, Bytes::from_static(b"x")));
        assert_eq!(got[1], (1, Bytes::from_static(b"y")));
    }

    #[test]
    fn split_recv_moves_the_inbox_and_restore_rejoins() {
        let mut mesh = ChannelTransport::mesh(2);
        let id1 = mesh[1].local();
        let half = mesh[1].split_recv().expect("channel inbox splits");
        mesh[0].send(id1, Bytes::from_static(b"a"));
        // The detached half hears the frame; the transport itself does not.
        assert!(mesh[1].recv_timeout(Duration::from_millis(10)).is_none());
        let (from, frame) = half.recv_timeout(Duration::from_millis(200)).unwrap();
        assert_eq!((from.index(), &frame[..]), (0, &b"a"[..]));
        // Restored, inline receives work again.
        mesh[1].restore_recv(half);
        mesh[0].send(id1, Bytes::from_static(b"b"));
        let (_, frame) = mesh[1].recv_timeout(Duration::from_millis(200)).unwrap();
        assert_eq!(&frame[..], b"b");
    }

    #[test]
    fn channel_recv_times_out() {
        let mut mesh = ChannelTransport::mesh(2);
        assert!(mesh[0].recv_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn channel_send_to_unknown_is_ignored() {
        let mut mesh = ChannelTransport::mesh(2);
        mesh[0].send(ProcessId::new(9), Bytes::from_static(b"z"));
    }

    #[test]
    fn flaky_transport_drops_then_stabilizes() {
        let mesh = ChannelTransport::mesh(2);
        let mut it = mesh.into_iter();
        let a = it.next().unwrap();
        let mut b = it.next().unwrap();
        // 100% loss for the first 5 sends.
        let mut flaky = FlakyTransport::new(a, 1000, 5, 42);
        assert_eq!(flaky.local(), ProcessId::new(0));
        assert_eq!(flaky.peers(), 2);
        for _ in 0..5 {
            flaky.send(ProcessId::new(1), Bytes::from_static(b"lost"));
        }
        assert!(b.recv_timeout(Duration::from_millis(20)).is_none());
        flaky.send(ProcessId::new(1), Bytes::from_static(b"ok"));
        let (_, frame) = b.recv_timeout(Duration::from_millis(200)).unwrap();
        assert_eq!(&frame[..], b"ok");
    }

    #[test]
    fn tcp_mesh_survives_staggered_start() {
        // Node 2 binds its listener ~300 ms after nodes 0 and 1 start
        // dialing: the backoff retries must carry the mesh through instead
        // of failing on the first refused connection.
        let addrs = probe_free_addrs(3).unwrap();

        let handles: Vec<_> = (0..3)
            .map(|i| {
                let addrs = addrs.clone();
                std::thread::spawn(move || {
                    if i == 2 {
                        std::thread::sleep(Duration::from_millis(300));
                    }
                    TcpTransport::connect_mesh_with(
                        ProcessId::new(i),
                        &addrs,
                        DialPolicy {
                            deadline: Duration::from_secs(10),
                            ..DialPolicy::default()
                        },
                    )
                    .expect("late binder must not fail the mesh")
                })
            })
            .collect();
        let mut nodes: Vec<TcpTransport> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        // Every ordered pair exchanges a frame (including with the late node).
        for from in 0..3usize {
            for to in 0..3usize {
                if from == to {
                    continue;
                }
                let payload = Bytes::from(vec![from as u8, to as u8]);
                let (a, b) = if from < to {
                    let (l, r) = nodes.split_at_mut(to);
                    (&mut l[from], &mut r[0])
                } else {
                    let (l, r) = nodes.split_at_mut(from);
                    (&mut r[0], &mut l[to])
                };
                a.send(ProcessId::new(to), payload.clone());
                let (sender, frame) = b
                    .recv_timeout(Duration::from_secs(5))
                    .expect("frame arrives across the staggered mesh");
                assert_eq!(sender, ProcessId::new(from));
                assert_eq!(frame, payload);
            }
        }
    }

    #[test]
    fn dial_gives_up_past_the_deadline() {
        // An address nobody ever binds: the dial must fail after the
        // deadline, not hang forever.
        let dead = probe_free_addrs(1).unwrap()[0];
        let started = Instant::now();
        let err = dial_with_backoff(
            dead,
            DialPolicy {
                deadline: Duration::from_millis(200),
                initial_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(50),
            },
        );
        assert!(err.is_err());
        let took = started.elapsed();
        assert!(
            took >= Duration::from_millis(200) && took < Duration::from_secs(5),
            "deadline respected, took {took:?}"
        );
    }

    #[test]
    fn tcp_endpoint_survives_process_restart() {
        // A "process restart": node 1's transport is dropped entirely
        // (endpoint, links and listener gone) and a fresh one rebinds the
        // same address. Node 0 must reconnect both directions — its
        // acceptor picks up node 1's fresh dial, and its broken outgoing
        // link redials in the background.
        let addrs = probe_free_addrs(2).unwrap();
        let a0 = addrs.clone();
        let h0 = std::thread::spawn(move || {
            TcpTransport::connect_mesh(ProcessId::new(0), &a0).expect("node 0 mesh")
        });
        let a1 = addrs.clone();
        let h1 = std::thread::spawn(move || {
            TcpTransport::connect_mesh(ProcessId::new(1), &a1).expect("node 1 mesh")
        });
        let mut t0 = h0.join().unwrap();
        let t1 = h1.join().unwrap();

        drop(t1); // SIGKILL stand-in: listener + connections all close

        // Restart node 1 on the same endpoint (retry while the old
        // listener drains its shutdown nudge).
        let mut t1b = None;
        for _ in 0..50 {
            match TcpTransport::connect_mesh_with(
                ProcessId::new(1),
                &addrs,
                DialPolicy {
                    deadline: Duration::from_secs(5),
                    ..DialPolicy::default()
                },
            ) {
                Ok(t) => {
                    t1b = Some(t);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(100)),
            }
        }
        let mut t1b = t1b.expect("restarted node rebinds its endpoint");

        // Restarted → survivor works via the fresh dial.
        t1b.send(ProcessId::new(0), Bytes::from_static(b"back"));
        let (from, frame) = t0
            .recv_timeout(Duration::from_secs(5))
            .expect("survivor hears the restarted node");
        assert_eq!((from, &frame[..]), (ProcessId::new(1), &b"back"[..]));

        // Survivor → restarted: the first writes surface the broken pipe
        // and trigger the background redial; keep sending until a frame
        // lands on the new endpoint.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut delivered = false;
        while Instant::now() < deadline {
            t0.send(ProcessId::new(1), Bytes::from_static(b"again"));
            if let Some((from, frame)) = t1b.recv_timeout(Duration::from_millis(100)) {
                assert_eq!((from, &frame[..]), (ProcessId::new(0), &b"again"[..]));
                delivered = true;
                break;
            }
        }
        assert!(delivered, "survivor's link must redial the restarted peer");
    }

    /// Connects a two-node TCP mesh on fresh localhost ports.
    fn tcp_pair() -> (TcpTransport, TcpTransport) {
        let addrs = probe_free_addrs(2).unwrap();
        let a = addrs.clone();
        let h = std::thread::spawn(move || TcpTransport::connect_mesh(ProcessId::new(0), &a));
        let t1 = TcpTransport::connect_mesh(ProcessId::new(1), &addrs).expect("node 1 mesh");
        (h.join().unwrap().expect("node 0 mesh"), t1)
    }

    #[test]
    fn tcp_frames_of_mixed_sizes_arrive_whole_and_in_order() {
        let (mut t0, mut t1) = tcp_pair();
        let sizes = [
            0,
            1,
            3,
            READ_BUF_BYTES - 1,
            17,
            crate::wire_sync::CHUNK_BYTES,
            5,
            READ_BUF_BYTES + 9,
            crate::wire_sync::CHUNK_BYTES,
            2,
        ];
        let frames: Vec<Bytes> = sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| Bytes::from((0..len).map(|k| (k + i) as u8).collect::<Vec<u8>>()))
            .collect();
        // Back to back, so several frames share one buffered read.
        for f in &frames {
            t0.send(ProcessId::new(1), f.clone());
        }
        for want in &frames {
            let (from, got) = t1
                .recv_timeout(Duration::from_secs(5))
                .expect("frame arrives");
            assert_eq!(from, ProcessId::new(0));
            assert_eq!(got.len(), want.len());
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn a_full_tcp_inbox_drops_and_counts_frames() {
        let (mut t0, mut t1) = tcp_pair();
        let half = t1.split_recv().expect("tcp inbox splits");
        let sent = INBOX_CAP + 500;
        for i in 0..sent {
            t0.send(
                ProcessId::new(1),
                Bytes::from((i as u32).to_le_bytes().to_vec()),
            );
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while half.len() + (half.dropped() as usize) < sent && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(half.len(), INBOX_CAP, "the inbox fills to its cap");
        assert_eq!(
            half.dropped() as usize,
            sent - INBOX_CAP,
            "the rest is counted"
        );
        // The kept frames are the first ones, in order.
        for i in 0..3u32 {
            let (_, f) = half.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(&f[..], &i.to_le_bytes());
        }
        t1.restore_recv(half);
    }

    #[test]
    fn a_recv_half_wakes_itself() {
        let mut mesh = ChannelTransport::mesh(2);
        let half = mesh[1].split_recv().unwrap();
        let waker = half.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.send((ProcessId::new(1), Bytes::new())).unwrap();
        });
        let started = Instant::now();
        let (from, frame) = half.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(started.elapsed() < Duration::from_secs(2));
        assert_eq!((from, frame.len()), (ProcessId::new(1), 0));
        assert_eq!(half.dropped(), 0);
        t.join().unwrap();
    }

    #[test]
    fn tcp_mesh_roundtrip() {
        let addrs = probe_free_addrs(3).unwrap();

        let handles: Vec<_> = (0..3)
            .map(|i| {
                let addrs = addrs.clone();
                std::thread::spawn(move || {
                    TcpTransport::connect_mesh(ProcessId::new(i), &addrs).expect("mesh connects")
                })
            })
            .collect();
        let mut nodes: Vec<TcpTransport> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        nodes[0].send(ProcessId::new(1), Bytes::from_static(b"ping"));
        let (from, frame) = nodes[1]
            .recv_timeout(Duration::from_secs(5))
            .expect("tcp frame arrives");
        assert_eq!(from, ProcessId::new(0));
        assert_eq!(&frame[..], b"ping");

        nodes[1].send(ProcessId::new(0), Bytes::from_static(b"pong"));
        let (from2, frame2) = nodes[0]
            .recv_timeout(Duration::from_secs(5))
            .expect("reply arrives");
        assert_eq!(from2, ProcessId::new(1));
        assert_eq!(&frame2[..], b"pong");
    }
}
