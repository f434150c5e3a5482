//! Connection plumbing: address parsing, listener/stream abstraction
//! over UDS and TCP, framed message streams, reconnect backoff, and the
//! real-time timer heap.
//!
//! Everything here is blocking std networking — no async runtime, in
//! keeping with the rest of the live stack. Timeouts come from
//! `set_read_timeout` plus the [`TimerHeap`] that control loops use to
//! schedule handshake deadlines and reconnect attempts.

use crate::framing::{encode_frame, FrameDecoder};
use crate::proto::NetMsg;
use edgelet_util::{Error, Result};
use edgelet_wire::{from_bytes, to_bytes};
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A listen/connect endpoint: `uds:<path>` or `tcp:<host>:<port>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// Unix domain socket at the given filesystem path.
    Uds(PathBuf),
    /// TCP endpoint as a `host:port` string.
    Tcp(String),
}

impl Addr {
    /// Parses `uds:<path>` / `tcp:<host>:<port>`.
    pub fn parse(s: &str) -> Result<Addr> {
        if let Some(path) = s.strip_prefix("uds:") {
            if path.is_empty() {
                return Err(Error::InvalidConfig("empty uds path".into()));
            }
            return Ok(Addr::Uds(PathBuf::from(path)));
        }
        if let Some(hostport) = s.strip_prefix("tcp:") {
            let Some((host, port)) = hostport.rsplit_once(':') else {
                return Err(Error::InvalidConfig(format!(
                    "tcp address `{hostport}` missing :port"
                )));
            };
            if host.is_empty() {
                return Err(Error::InvalidConfig(format!(
                    "tcp address `{hostport}` missing host"
                )));
            }
            if port.parse::<u16>().is_err() {
                return Err(Error::InvalidConfig(format!(
                    "tcp address `{hostport}` has invalid port `{port}`"
                )));
            }
            return Ok(Addr::Tcp(hostport.to_string()));
        }
        Err(Error::InvalidConfig(format!(
            "address `{s}` must start with uds: or tcp:"
        )))
    }

    /// True for the TCP flavor (analyzer lint W151 cares).
    pub fn is_tcp(&self) -> bool {
        matches!(self, Addr::Tcp(_))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Uds(p) => write!(f, "uds:{}", p.display()),
            Addr::Tcp(hp) => write!(f, "tcp:{hp}"),
        }
    }
}

/// A bound listening socket of either flavor.
pub enum Listener {
    /// Unix domain socket listener; the path is removed on drop.
    Uds(UnixListener, PathBuf),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds `addr`. An existing UDS path is unlinked first (stale
    /// socket from a dead daemon); a live daemon on the same path will
    /// lose its listener, which the analyzer lint E150 exists to
    /// prevent at config time.
    pub fn bind(addr: &Addr) -> Result<Listener> {
        match addr {
            Addr::Uds(path) => {
                if path.exists() {
                    std::fs::remove_file(path)
                        .map_err(|e| Error::InvalidConfig(format!("unlink {path:?}: {e}")))?;
                }
                let l = UnixListener::bind(path)
                    .map_err(|e| Error::InvalidConfig(format!("bind {path:?}: {e}")))?;
                Ok(Listener::Uds(l, path.clone()))
            }
            Addr::Tcp(hp) => {
                let l = TcpListener::bind(hp)
                    .map_err(|e| Error::InvalidConfig(format!("bind {hp}: {e}")))?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    /// Accepts one connection (blocking).
    pub fn accept(&self) -> Result<Stream> {
        match self {
            Listener::Uds(l, _) => {
                let (s, _) = l.accept().map_err(io_err)?;
                Ok(Stream::Uds(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept().map_err(io_err)?;
                s.set_nodelay(true).ok();
                Ok(Stream::Tcp(s))
            }
        }
    }

    /// The address this listener is actually bound to (for TCP with
    /// port 0, the kernel-assigned port).
    pub fn local_addr(&self) -> Result<Addr> {
        match self {
            Listener::Uds(_, path) => Ok(Addr::Uds(path.clone())),
            Listener::Tcp(l) => {
                let a = l.local_addr().map_err(io_err)?;
                Ok(Addr::Tcp(a.to_string()))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Uds(_, path) = self {
            std::fs::remove_file(path).ok();
        }
    }
}

/// A connected byte stream of either flavor.
pub enum Stream {
    /// Unix domain socket stream.
    Uds(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to `addr` (blocking).
    pub fn connect(addr: &Addr) -> Result<Stream> {
        match addr {
            Addr::Uds(path) => Ok(Stream::Uds(UnixStream::connect(path).map_err(io_err)?)),
            Addr::Tcp(hp) => {
                let s = TcpStream::connect(hp).map_err(io_err)?;
                s.set_nodelay(true).ok();
                Ok(Stream::Tcp(s))
            }
        }
    }

    /// Sets (or clears) the read timeout.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> Result<()> {
        match self {
            Stream::Uds(s) => s.set_read_timeout(dur).map_err(io_err),
            Stream::Tcp(s) => s.set_read_timeout(dur).map_err(io_err),
        }
    }

    /// Clones the underlying descriptor (independent read/write halves).
    pub fn try_clone(&self) -> Result<Stream> {
        match self {
            Stream::Uds(s) => Ok(Stream::Uds(s.try_clone().map_err(io_err)?)),
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone().map_err(io_err)?)),
        }
    }

    /// Shuts down both directions, unblocking any reader.
    pub fn shutdown(&self) {
        match self {
            Stream::Uds(s) => {
                s.shutdown(std::net::Shutdown::Both).ok();
            }
            Stream::Tcp(s) => {
                s.shutdown(std::net::Shutdown::Both).ok();
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Uds(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

fn io_err(e: std::io::Error) -> Error {
    Error::Protocol(format!("io: {e}"))
}

/// A [`Stream`] carrying framed [`NetMsg`]s.
pub struct MsgStream {
    stream: Stream,
    dec: FrameDecoder,
    read_buf: Vec<u8>,
}

impl MsgStream {
    /// Wraps a connected stream at a frame boundary.
    pub fn new(stream: Stream) -> MsgStream {
        MsgStream {
            stream,
            dec: FrameDecoder::new(),
            read_buf: vec![0u8; 64 * 1024],
        }
    }

    /// Sends one message as a single frame (write + flush).
    pub fn send(&mut self, msg: &NetMsg) -> Result<()> {
        let frame = encode_frame(&to_bytes(msg));
        self.stream.write_all(&frame).map_err(io_err)?;
        self.stream.flush().map_err(io_err)
    }

    /// Receives the next message, blocking up to `timeout` (`None` =
    /// forever). Errors on EOF, socket error, frame corruption, or
    /// timeout expiry — all of which mean the connection is done.
    pub fn recv(&mut self, timeout: Option<Duration>) -> Result<NetMsg> {
        self.recv_or_timeout(timeout)?
            .ok_or_else(|| Error::Protocol("recv timeout".into()))
    }

    /// [`MsgStream::recv`] for a poll loop: `Ok(None)` when `timeout`
    /// expired with no complete message, the connection still good.
    pub fn recv_or_timeout(&mut self, timeout: Option<Duration>) -> Result<Option<NetMsg>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(body) = self.dec.next_frame()? {
                return from_bytes::<NetMsg>(&body).map(Some);
            }
            let per_read = match deadline {
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(None);
                    }
                    Some(left)
                }
                None => None,
            };
            self.stream.set_read_timeout(per_read)?;
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => return Err(Error::Protocol("connection closed".into())),
                Ok(n) => self.dec.push(&self.read_buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(None);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    /// Shuts the connection down, unblocking any concurrent reader.
    pub fn shutdown(&self) {
        self.stream.shutdown();
    }

    /// Borrows the underlying stream (e.g. to `try_clone` for a
    /// shutdown handle).
    pub fn stream(&self) -> &Stream {
        &self.stream
    }
}

/// Truncated-exponential reconnect backoff.
#[derive(Debug, Clone)]
pub struct Backoff {
    initial: Duration,
    max: Duration,
    cur: Duration,
}

impl Backoff {
    /// A backoff starting at `initial`, doubling up to `max`.
    pub fn new(initial: Duration, max: Duration) -> Backoff {
        let initial = initial.max(Duration::from_millis(1));
        Backoff {
            initial,
            max: max.max(initial),
            cur: initial,
        }
    }

    /// The next delay; each call doubles the following one (capped).
    pub fn delay(&mut self) -> Duration {
        let d = self.cur;
        self.cur = (self.cur * 2).min(self.max);
        d
    }

    /// Resets after a successful connection.
    pub fn reset(&mut self) {
        self.cur = self.initial;
    }
}

/// A minimal real-time timer heap: `(deadline, token)` entries popped
/// in deadline order. Control loops use it for handshake deadlines and
/// reconnect scheduling rather than sleeping ad hoc.
pub struct TimerHeap<T> {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(Instant, u64)>>,
    items: std::collections::HashMap<u64, T>,
    next: u64,
}

impl<T> Default for TimerHeap<T> {
    fn default() -> Self {
        TimerHeap {
            heap: Default::default(),
            items: Default::default(),
            next: 0,
        }
    }
}

impl<T> TimerHeap<T> {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `item` at `at`; returns a token usable for [`Self::cancel`].
    pub fn push(&mut self, at: Instant, item: T) -> u64 {
        let token = self.next;
        self.next += 1;
        self.heap.push(std::cmp::Reverse((at, token)));
        self.items.insert(token, item);
        token
    }

    /// Cancels a scheduled item, returning it if still pending.
    pub fn cancel(&mut self, token: u64) -> Option<T> {
        self.items.remove(&token)
    }

    /// Pops every item whose deadline is at or before `now`.
    pub fn pop_due(&mut self, now: Instant) -> Vec<T> {
        let mut due = vec![];
        while let Some(std::cmp::Reverse((at, token))) = self.heap.peek().copied() {
            if at > now {
                break;
            }
            self.heap.pop();
            if let Some(item) = self.items.remove(&token) {
                due.push(item);
            }
        }
        due
    }

    /// The earliest pending deadline, skipping cancelled entries.
    pub fn next_deadline(&mut self) -> Option<Instant> {
        while let Some(std::cmp::Reverse((at, token))) = self.heap.peek().copied() {
            if self.items.contains_key(&token) {
                return Some(at);
            }
            self.heap.pop();
        }
        None
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&mut self) -> bool {
        self.next_deadline().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Role;

    #[test]
    fn addr_parses_both_flavors() {
        assert_eq!(
            Addr::parse("uds:/tmp/x.sock").unwrap(),
            Addr::Uds(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Addr::parse("tcp:127.0.0.1:9000").unwrap(),
            Addr::Tcp("127.0.0.1:9000".into())
        );
        assert!(Addr::parse("udp:1.2.3.4:1").is_err());
        assert!(Addr::parse("uds:").is_err());
        assert!(Addr::parse("tcp:nohost").is_err());
        assert!(Addr::parse("tcp::123").is_err());
        assert!(Addr::parse("tcp:h:badport").is_err());
        assert_eq!(Addr::parse("tcp:h:1").unwrap().to_string(), "tcp:h:1");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(35));
        assert_eq!(b.delay(), Duration::from_millis(10));
        assert_eq!(b.delay(), Duration::from_millis(20));
        assert_eq!(b.delay(), Duration::from_millis(35));
        assert_eq!(b.delay(), Duration::from_millis(35));
        b.reset();
        assert_eq!(b.delay(), Duration::from_millis(10));
    }

    #[test]
    fn timer_heap_orders_and_cancels() {
        let mut h = TimerHeap::new();
        let now = Instant::now();
        let t1 = h.push(now + Duration::from_millis(50), "late");
        let _t2 = h.push(now + Duration::from_millis(10), "early");
        assert_eq!(h.pop_due(now), Vec::<&str>::new());
        assert_eq!(h.pop_due(now + Duration::from_millis(20)), vec!["early"]);
        assert_eq!(h.cancel(t1), Some("late"));
        assert_eq!(
            h.pop_due(now + Duration::from_millis(100)),
            Vec::<&str>::new()
        );
        assert!(h.is_empty());
    }

    #[test]
    fn msg_stream_roundtrips_over_uds() {
        let dir = std::env::temp_dir().join(format!("eln-conn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr = Addr::Uds(dir.join("t.sock"));
        let listener = Listener::bind(&addr).unwrap();
        let srv = std::thread::spawn(move || {
            let mut s = MsgStream::new(listener.accept().unwrap());
            let msg = s.recv(Some(Duration::from_secs(5))).unwrap();
            s.send(&msg).unwrap();
        });
        let mut c = MsgStream::new(Stream::connect(&addr).unwrap());
        let hello = NetMsg::hello(Role::Worker);
        c.send(&hello).unwrap();
        let echoed = c.recv(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(echoed, hello);
        srv.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn msg_stream_roundtrips_over_tcp() {
        let listener = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = std::thread::spawn(move || {
            let mut s = MsgStream::new(listener.accept().unwrap());
            let msg = s.recv(Some(Duration::from_secs(5))).unwrap();
            s.send(&msg).unwrap();
        });
        let mut c = MsgStream::new(Stream::connect(&addr).unwrap());
        c.send(&NetMsg::Ping { nonce: 5 }).unwrap();
        assert_eq!(
            c.recv(Some(Duration::from_secs(5))).unwrap(),
            NetMsg::Ping { nonce: 5 }
        );
        srv.join().unwrap();
    }

    #[test]
    fn recv_times_out() {
        let listener = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut c = MsgStream::new(Stream::connect(&addr).unwrap());
        assert_eq!(c.recv_or_timeout(Some(Duration::from_millis(50))), Ok(None));
        // `recv` keeps its error text for callers that treat expiry as
        // the end of the connection.
        let err = c.recv(Some(Duration::from_millis(50))).unwrap_err();
        assert_eq!(err, Error::Protocol("recv timeout".into()));
    }
}
