//! Deterministic, seeded fault injection for the RWP transport.
//!
//! A [`ChaosStream`] wraps a `TcpStream` with the same `Read`/`Write`
//! surface the proto layer uses and perturbs the byte flow according to a
//! [`FaultPlan`]: per-direction actions anchored at absolute byte offsets —
//! delay N milliseconds, bit-flip a byte, cut the connection (mid-frame
//! offsets model truncation), or stall forever.  Every plan is replayable
//! from a `u64` seed via [`FaultPlan::from_seed`], so any failing schedule
//! found by the chaos proptests reproduces exactly from the seed printed in
//! the failure.
//!
//! The hook into the production paths is [`ChaosConfig`] on the worker and
//! submit sides, default **off**: when off, connections stay plain
//! `TcpStream`s wrapped in [`RwpStream::Plain`] — one enum discriminant
//! test per I/O call, no dyn dispatch, no buffering, no extra copies on
//! the hot path.  The coordinator's connections are always plain; a plan
//! on the client end perturbs both directions of the same socket.
//!
//! Faults are modeled at the layer the hardening has to survive:
//!
//! - **`Delay`** sleeps before the anchored byte moves (slow links).
//! - **`Flip`** XORs one bit into the anchored byte (corruption in
//!   transit; the per-frame CRC-32 must turn this into
//!   [`ProtoError::Corrupt`](super::proto::ProtoError)).
//! - **`Cut`** shuts the socket down once the anchor is reached — an
//!   anchor inside a frame body is exactly a frame truncated mid-body.
//! - **`Stall`** stops the direction's progress forever: every operation
//!   from the anchor on reports a read/write timeout, which the existing
//!   patience plumbing (idle polls, bounded mid-frame stalls, lease
//!   expiry) must convert into a typed error in bounded time.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// One fault, applied when its direction's byte counter reaches the anchor
/// offset it is scheduled at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Sleep this many milliseconds before the anchored byte moves.
    Delay {
        /// Sleep length in milliseconds.
        millis: u64,
    },
    /// XOR bit `bit` (0–7) into the anchored byte.
    Flip {
        /// Which bit to flip.
        bit: u8,
    },
    /// Shut the whole connection down at the anchor.  An anchor inside a
    /// frame truncates that frame mid-body.
    Cut,
    /// Stop making progress forever: every call from the anchor on reports
    /// a timeout, exactly as a socket with a read/write timeout would.
    Stall,
}

/// One direction's fault schedule: `(anchor offset, action)` pairs, kept
/// sorted by offset.  Offsets count bytes moved in that direction since the
/// connection was wrapped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirectionPlan {
    actions: Vec<(u64, FaultAction)>,
}

impl DirectionPlan {
    /// A schedule from `(offset, action)` pairs, in any order.
    pub fn new(mut actions: Vec<(u64, FaultAction)>) -> Self {
        actions.sort_by_key(|(at, _)| *at);
        DirectionPlan { actions }
    }

    /// True when the direction carries no faults.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// A full fault schedule for one connection: independent read-direction and
/// write-direction plans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Faults on bytes this endpoint reads.
    pub read: DirectionPlan,
    /// Faults on bytes this endpoint writes.
    pub write: DirectionPlan,
}

/// Splitmix64: the standard 64-bit mixer, used both to derive
/// per-connection seeds and to draw a plan's actions.  Hand-rolled so the
/// engine crate needs no rand dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The empty schedule: a wrapped connection that behaves exactly like a
    /// plain one.
    pub fn clean() -> Self {
        FaultPlan::default()
    }

    /// Adds a read-direction fault at byte offset `at`.
    #[must_use]
    pub fn with_read(mut self, at: u64, action: FaultAction) -> Self {
        self.read.actions.push((at, action));
        self.read.actions.sort_by_key(|(offset, _)| *offset);
        self
    }

    /// Adds a write-direction fault at byte offset `at`.
    #[must_use]
    pub fn with_write(mut self, at: u64, action: FaultAction) -> Self {
        self.write.actions.push((at, action));
        self.write.actions.sort_by_key(|(offset, _)| *offset);
        self
    }

    /// Draws a replayable schedule from a seed.
    ///
    /// The grammar (documented normatively in `docs/CHAOS.md`): each
    /// direction gets 0–2 actions at anchors that advance by 1–600 bytes
    /// each (small enough to land inside handshakes, grants and chunk
    /// streams of test-sized shards); each action is a delay of 1–40 ms
    /// (2 in 6), a bit flip (1 in 6), a cut (1 in 6), a stall (1 in 6) or
    /// nothing (1 in 6).  Cut and stall are terminal for their direction.
    /// The same seed always yields the same plan.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        let direction = |state: &mut u64| {
            let mut actions = Vec::new();
            let mut anchor = 0u64;
            let count = splitmix64(state) % 3;
            for _ in 0..count {
                anchor += 1 + splitmix64(state) % 600;
                let action = match splitmix64(state) % 6 {
                    0 | 1 => FaultAction::Delay { millis: 1 + splitmix64(state) % 40 },
                    2 => FaultAction::Flip { bit: (splitmix64(state) % 8) as u8 },
                    3 => FaultAction::Cut,
                    4 => FaultAction::Stall,
                    _ => continue,
                };
                let terminal = matches!(action, FaultAction::Cut | FaultAction::Stall);
                actions.push((anchor, action));
                if terminal {
                    break;
                }
            }
            DirectionPlan::new(actions)
        };
        let read = direction(&mut state);
        let write = direction(&mut state);
        FaultPlan { read, write }
    }

    /// True when neither direction carries a fault.
    pub fn is_clean(&self) -> bool {
        self.read.is_empty() && self.write.is_empty()
    }
}

/// How a [`ChaosConfig`] assigns plans to connections.
#[derive(Debug, Clone, Default)]
enum Plans {
    /// No fault injection: every connection stays a plain stream.
    #[default]
    Off,
    /// Connection `n` gets `FaultPlan::from_seed(mix(seed, n))`.
    Seeded(u64),
    /// Connection `n` gets `plans[n]`; connections past the end are clean.
    Scripted(Vec<FaultPlan>),
}

/// The test/bench-only fault-injection hook threaded through
/// [`WorkConfig`](super::WorkConfig) and
/// [`SubmitConfig`](super::SubmitConfig).
///
/// Default **off**: [`plan_for`](Self::plan_for) yields no plan, so every
/// connection stays [`RwpStream::Plain`] and the transport byte flow is
/// untouched.  Production paths never construct anything else.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    plans: Plans,
}

impl ChaosConfig {
    /// Derive every connection's plan from one base seed: connection `n`
    /// (0-based, in connect order) gets
    /// `FaultPlan::from_seed(mix(seed, n))`.  Replayable: the same seed
    /// yields the same schedule on every connection.
    pub fn seeded(seed: u64) -> Self {
        ChaosConfig { plans: Plans::Seeded(seed) }
    }

    /// Hand-written schedules: connection `n` gets `plans[n]`; connections
    /// past the end of the list are clean.
    pub fn scripted(plans: Vec<FaultPlan>) -> Self {
        ChaosConfig { plans: Plans::Scripted(plans) }
    }

    /// The plan for the `connection`-th wrapped stream, if any.
    pub fn plan_for(&self, connection: u64) -> Option<FaultPlan> {
        match &self.plans {
            Plans::Off => None,
            Plans::Seeded(seed) => {
                let mut state = seed ^ connection.wrapping_mul(0xA076_1D64_78BD_642F);
                Some(FaultPlan::from_seed(splitmix64(&mut state)))
            }
            Plans::Scripted(plans) => {
                let plan = plans.get(connection as usize)?;
                if plan.is_clean() {
                    None
                } else {
                    Some(plan.clone())
                }
            }
        }
    }
}

/// One direction's live fault state inside a [`ChaosStream`].
#[derive(Debug)]
struct DirectionState {
    /// Bytes moved in this direction so far.
    moved: u64,
    /// Remaining actions, front first (sorted by anchor).
    actions: VecDeque<(u64, FaultAction)>,
    /// A `Flip` whose anchor was reached but whose byte has not moved yet.
    flip: Option<u8>,
    /// The direction hit a `Stall` and reports timeouts forever.
    stalled: bool,
}

impl DirectionState {
    fn new(plan: DirectionPlan) -> Self {
        DirectionState { moved: 0, actions: plan.actions.into(), flip: None, stalled: false }
    }

    /// Bytes that may move before the next anchor is reached (always ≥ 1).
    fn until_next_anchor(&self) -> usize {
        match self.actions.front() {
            Some((at, _)) => (*at).saturating_sub(self.moved).max(1) as usize,
            None => usize::MAX,
        }
    }
}

/// The error a stalled direction reports: the same `TimedOut` a socket with
/// a read/write timeout produces, so every existing patience path engages.
/// The short sleep keeps stall loops from spinning.
fn stall_error() -> io::Error {
    std::thread::sleep(Duration::from_millis(15));
    io::Error::new(io::ErrorKind::TimedOut, "chaos: direction stalled")
}

/// A `TcpStream` perturbed by a [`FaultPlan`].  Implements the same
/// `Read`/`Write` surface the proto layer uses; see the module docs for the
/// fault semantics.
#[derive(Debug)]
pub struct ChaosStream {
    inner: TcpStream,
    read: DirectionState,
    write: DirectionState,
    cut: bool,
}

impl ChaosStream {
    /// Wraps a configured stream (timeouts, nodelay) with a fault plan.
    pub fn new(inner: TcpStream, plan: FaultPlan) -> Self {
        ChaosStream {
            inner,
            read: DirectionState::new(plan.read),
            write: DirectionState::new(plan.write),
            cut: false,
        }
    }

    fn cut_now(&mut self) {
        if !self.cut {
            self.cut = true;
            let _ = self.inner.shutdown(Shutdown::Both);
        }
    }
}

impl Read for ChaosStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.read.stalled {
            return Err(stall_error());
        }
        if self.cut {
            return Ok(0);
        }
        // Apply every action whose anchor has been reached.
        while let Some(&(at, action)) = self.read.actions.front() {
            if at > self.read.moved {
                break;
            }
            self.read.actions.pop_front();
            match action {
                FaultAction::Delay { millis } => {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                FaultAction::Flip { bit } => self.read.flip = Some(bit),
                FaultAction::Cut => {
                    self.cut_now();
                    return Ok(0);
                }
                FaultAction::Stall => {
                    self.read.stalled = true;
                    return Err(stall_error());
                }
            }
        }
        // Never read past the next anchor, so actions land on exact bytes.
        let limit = self.read.until_next_anchor().min(buf.len());
        let n = self.inner.read(&mut buf[..limit])?;
        if n > 0 {
            if let Some(bit) = self.read.flip.take() {
                buf[0] ^= 1 << bit;
            }
            self.read.moved += n as u64;
        }
        Ok(n)
    }
}

impl Write for ChaosStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.write.stalled {
            return Err(stall_error());
        }
        if self.cut {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "chaos: connection cut"));
        }
        while let Some(&(at, action)) = self.write.actions.front() {
            if at > self.write.moved {
                break;
            }
            self.write.actions.pop_front();
            match action {
                FaultAction::Delay { millis } => {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                FaultAction::Flip { bit } => self.write.flip = Some(bit),
                FaultAction::Cut => {
                    self.cut_now();
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "chaos: connection cut"));
                }
                FaultAction::Stall => {
                    self.write.stalled = true;
                    return Err(stall_error());
                }
            }
        }
        if let Some(bit) = self.write.flip.take() {
            // Flip the anchored byte on its way out, one byte at a time so
            // the caller's buffer stays untouched.
            let flipped = [buf[0] ^ (1 << bit)];
            let n = self.inner.write(&flipped)?;
            if n == 0 {
                self.write.flip = Some(bit);
                return Ok(0);
            }
            self.write.moved += 1;
            return Ok(1);
        }
        let limit = self.write.until_next_anchor().min(buf.len());
        let n = self.inner.write(&buf[..limit])?;
        self.write.moved += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The transport a worker or submit connection runs over: a plain
/// `TcpStream` in production (chaos off — one discriminant test per call,
/// no dyn dispatch), or a [`ChaosStream`] under an active fault plan.
#[derive(Debug)]
pub enum RwpStream {
    /// The production transport: bytes flow untouched.
    Plain(TcpStream),
    /// A fault-injected transport (tests and benches only).
    Chaos(ChaosStream),
}

impl Read for RwpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            RwpStream::Plain(stream) => stream.read(buf),
            RwpStream::Chaos(stream) => stream.read(buf),
        }
    }
}

impl Write for RwpStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            RwpStream::Plain(stream) => stream.write(buf),
            RwpStream::Chaos(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            RwpStream::Plain(stream) => stream.flush(),
            RwpStream::Chaos(stream) => stream.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn seeded_plans_replay_exactly() {
        for seed in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
            let config = ChaosConfig::seeded(seed);
            for connection in 0..4 {
                assert_eq!(config.plan_for(connection), config.plan_for(connection));
            }
        }
        // Different connections draw different schedules (with overwhelming
        // probability; pin one seed where they differ so a mixer regression
        // is caught).
        let config = ChaosConfig::seeded(7);
        let distinct = (0..16).map(|connection| config.plan_for(connection)).collect::<Vec<_>>();
        assert!(distinct.windows(2).any(|pair| pair[0] != pair[1]));
    }

    #[test]
    fn off_config_wraps_plain() {
        assert!(ChaosConfig::default().plan_for(0).is_none());
        assert!(ChaosConfig::scripted(vec![FaultPlan::clean()]).plan_for(0).is_none());
        assert!(ChaosConfig::scripted(Vec::new()).plan_for(5).is_none());
    }

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn flip_lands_on_the_exact_anchored_byte() {
        let (client, mut server) = socket_pair();
        let plan = FaultPlan::clean().with_read(3, FaultAction::Flip { bit: 0 });
        let mut chaotic = ChaosStream::new(client, plan);
        server.write_all(&[10, 20, 30, 40, 50]).unwrap();
        let mut out = Vec::new();
        let mut buf = [0u8; 16];
        while out.len() < 5 {
            let n = chaotic.read(&mut buf).unwrap();
            assert!(n > 0);
            out.extend_from_slice(&buf[..n]);
        }
        assert_eq!(out, vec![10, 20, 30, 41, 50]);
    }

    #[test]
    fn cut_truncates_the_stream_at_the_anchor() {
        let (client, mut server) = socket_pair();
        let plan = FaultPlan::clean().with_read(2, FaultAction::Cut);
        let mut chaotic = ChaosStream::new(client, plan);
        server.write_all(&[1, 2, 3, 4]).unwrap();
        let mut out = Vec::new();
        let mut buf = [0u8; 16];
        loop {
            let n = chaotic.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        assert_eq!(out, vec![1, 2]);
        // The cut is bidirectional: writes fail afterwards.
        assert!(chaotic.write(&[9]).is_err());
    }

    #[test]
    fn stall_reports_timeouts_forever() {
        let (client, mut server) = socket_pair();
        let plan = FaultPlan::clean().with_write(1, FaultAction::Stall);
        let mut chaotic = ChaosStream::new(client, plan);
        assert_eq!(chaotic.write(&[1, 2, 3]).unwrap(), 1);
        for _ in 0..3 {
            let error = chaotic.write(&[4]).unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::TimedOut);
        }
        // The byte before the anchor still arrived.
        let mut buf = [0u8; 4];
        server.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(server.read(&mut buf).unwrap(), 1);
        assert_eq!(buf[0], 1);
    }
}
