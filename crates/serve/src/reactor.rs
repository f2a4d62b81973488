//! A minimal epoll reactor: readiness polling, cross-thread wakeups and
//! coarse timers for the non-blocking server in [`crate::server`].
//!
//! The serve stack is hand-rolled over `std::net` with no external
//! dependencies, so the readiness layer is too: [`Poller`] wraps the
//! three raw `epoll` syscalls (`epoll_create1`/`epoll_ctl`/`epoll_wait`)
//! declared directly against the C ABI, [`Waker`] is a non-blocking
//! self-pipe that lets worker-pool threads interrupt an `epoll_wait`
//! from outside the loop, and [`TimerWheel`] is a hashed wheel of coarse
//! ticks carrying the idle/deadline expiries that used to live in
//! per-connection `SO_RCVTIMEO` settings.
//!
//! This module owns the **only** `unsafe` in the crate (the FFI
//! declarations and their call sites, confined to [`sys`]); everything
//! above the wrappers is safe code over owned file descriptors. Linux
//! only — exactly like `epoll` itself.

use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

/// Raw `epoll`/`pipe2` bindings. The declarations mirror the kernel ABI
/// (x86-64 packs `struct epoll_event`, other targets align it); every
/// wrapper turns `-1` into the thread's `errno` via
/// [`io::Error::last_os_error`].
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::RawFd;

    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const O_NONBLOCK: i32 = 0o4000;
    const O_CLOEXEC: i32 = 0o2000000;

    /// Mirror of `struct epoll_event`. On x86-64 the kernel declares it
    /// packed, leaving the 64-bit payload unaligned; elsewhere it is a
    /// plain C struct.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn pipe2(fds: *mut i32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    pub fn epoll_create() -> io::Result<RawFd> {
        // SAFETY: no pointers cross the boundary.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    pub fn ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, data };
        // SAFETY: `event` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn wait(epfd: RawFd, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the kernel writes at most `buf.len()` events into `buf`.
        let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }

    /// A non-blocking close-on-exec pipe, `(read_end, write_end)`.
    pub fn make_pipe() -> io::Result<(RawFd, RawFd)> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a valid 2-slot output buffer.
        let rc = unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((fds[0], fds[1]))
    }

    /// Best-effort single-byte write (wakeup edge); a full pipe already
    /// guarantees a pending wakeup, so `EAGAIN` is success.
    pub fn write_byte(fd: RawFd) {
        let byte = [1u8];
        // SAFETY: one readable byte from a live local buffer.
        let _ = unsafe { write(fd, byte.as_ptr(), 1) };
    }

    /// Drain every buffered byte from the pipe's read end.
    pub fn drain_pipe(fd: RawFd) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: the kernel writes at most `buf.len()` bytes.
            let n = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                return; // empty (EAGAIN), closed, or error — drained either way
            }
        }
    }

    pub fn close_fd(fd: RawFd) {
        // SAFETY: callers own `fd` and call this exactly once.
        let _ = unsafe { close(fd) };
    }
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registration token passed to [`Poller::add`].
    pub token: u64,
    /// Reading would make progress.
    pub readable: bool,
    /// Writing would make progress.
    pub writable: bool,
    /// The peer hung up or the descriptor errored; treat as readable so
    /// the state machine observes the EOF/error from the actual `read`.
    pub hangup: bool,
}

/// Level-triggered readiness over an owned epoll instance.
pub struct Poller {
    epfd: RawFd,
    buf: Vec<sys::EpollEvent>,
}

impl Poller {
    /// Create an epoll instance with room for `capacity` events per wait.
    pub fn new(capacity: usize) -> io::Result<Poller> {
        Ok(Poller {
            epfd: sys::epoll_create()?,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; capacity.max(1)],
        })
    }

    fn interest_bits(readable: bool, writable: bool) -> u32 {
        let mut bits = 0;
        if readable {
            bits |= sys::EPOLLIN;
        }
        if writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    /// Register `fd` under `token` with the given interests.
    pub fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        sys::ctl(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            Self::interest_bits(readable, writable),
            token,
        )
    }

    /// Change the interests of a registered descriptor.
    pub fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        sys::ctl(
            self.epfd,
            sys::EPOLL_CTL_MOD,
            fd,
            Self::interest_bits(readable, writable),
            token,
        )
    }

    /// Deregister a descriptor (closing it deregisters implicitly; this
    /// exists for descriptors that outlive their registration).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait for readiness up to `timeout` (`None` blocks indefinitely)
    /// and append decoded events to `out`. A signal interruption or
    /// timeout returns with no events appended.
    pub fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Event>) -> io::Result<()> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 100µs timeout waits ~1ms instead of spinning;
            // callers that want a pure poll pass Duration::ZERO.
            Some(d) if d.is_zero() => 0,
            Some(d) => d
                .as_millis()
                .saturating_add(1)
                .min(i32::MAX as u128)
                .try_into()
                .unwrap_or(i32::MAX),
        };
        let n = match sys::wait(self.epfd, &mut self.buf, timeout_ms) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for raw in &self.buf[..n] {
            // Copy out of the (possibly packed) ABI struct before use.
            let bits = raw.events;
            let token = raw.data;
            out.push(Event {
                token,
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

/// A self-pipe wakeup: worker threads call [`Waker::wake`] after pushing
/// a completion, making the pipe's read end readable and interrupting
/// the reactor's `epoll_wait`. Both ends are non-blocking, so a wake
/// never blocks the waker and a drain never blocks the loop.
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Waker {
    /// Create the pipe pair.
    pub fn new() -> io::Result<Waker> {
        let (read_fd, write_fd) = sys::make_pipe()?;
        Ok(Waker { read_fd, write_fd })
    }

    /// The descriptor the reactor registers for readability.
    pub fn fd(&self) -> RawFd {
        self.read_fd
    }

    /// Signal the reactor. Cheap, non-blocking, and idempotent while a
    /// previous wakeup is still pending.
    pub fn wake(&self) {
        sys::write_byte(self.write_fd);
    }

    /// Consume pending wakeup bytes (reactor side, after the event).
    pub fn drain(&self) {
        sys::drain_pipe(self.read_fd);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        sys::close_fd(self.read_fd);
        sys::close_fd(self.write_fd);
    }
}

/// A hashed timer wheel: `slots` buckets of `tick`-sized time slices,
/// with timers beyond one full rotation parked in their slot until their
/// round comes up (classic hashed-wheel overflow handling). Expiry is
/// rounded **up** to the next tick boundary, so a timer never fires
/// early; it fires at most one tick late plus however long the event
/// loop was away, which is exactly the coarseness the idle/deadline
/// semantics tolerate (they are multi-millisecond budgets).
///
/// Cancellation is physical: each timer id encodes its slot, so
/// [`TimerWheel::cancel`] is a swap-remove in one small bucket and the
/// wheel only ever holds live timers (at most one per connection),
/// keeping [`TimerWheel::next_deadline`] an O(live) scan.
pub struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    tick: Duration,
    start: Instant,
    /// Next tick index [`TimerWheel::advance`] will collect.
    cursor: u64,
    next_seq: u64,
    armed: usize,
}

#[derive(Debug, Clone, Copy)]
struct TimerEntry {
    expires_tick: u64,
    id: u64,
    token: u64,
}

/// Slot bits reserved in a timer id (supports up to 4096 slots).
const SLOT_BITS: u32 = 12;

impl TimerWheel {
    /// A wheel of `slots` buckets (capped at 4096) each `tick` wide,
    /// starting now.
    pub fn new(tick: Duration, slots: usize) -> TimerWheel {
        let slots = slots.clamp(1, 1 << SLOT_BITS);
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            tick: tick.max(Duration::from_millis(1)),
            start: Instant::now(),
            cursor: 0,
            next_seq: 0,
            armed: 0,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        let elapsed = at.saturating_duration_since(self.start);
        (elapsed.as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    /// Arm a timer expiring `after` from `now`, carrying `token` back on
    /// expiry. Returns the id to [`TimerWheel::cancel`] with.
    pub fn schedule(&mut self, now: Instant, after: Duration, token: u64) -> u64 {
        // Round up: the timer must not fire before `now + after`.
        let expires_tick = self.tick_of(now + after) + 1;
        let slot = (expires_tick % self.slots.len() as u64) as usize;
        let id = (self.next_seq << SLOT_BITS) | slot as u64;
        self.next_seq += 1;
        self.slots[slot].push(TimerEntry {
            expires_tick,
            id,
            token,
        });
        self.armed += 1;
        id
    }

    /// Disarm a timer. Harmless if it already fired.
    pub fn cancel(&mut self, id: u64) {
        let slot = (id & ((1 << SLOT_BITS) - 1)) as usize;
        if slot >= self.slots.len() {
            return;
        }
        if let Some(i) = self.slots[slot].iter().position(|e| e.id == id) {
            self.slots[slot].swap_remove(i);
            self.armed -= 1;
        }
    }

    /// Collect every timer due by `now` into `fired` as `(id, token)`
    /// pairs, in no particular order.
    pub fn advance(&mut self, now: Instant, fired: &mut Vec<(u64, u64)>) {
        let cur = self.tick_of(now);
        if cur < self.cursor || self.armed == 0 {
            self.cursor = self.cursor.max(cur + 1);
            return;
        }
        let nslots = self.slots.len() as u64;
        // A stall longer than one rotation means every slot is due a
        // visit; otherwise only the ticks we actually crossed.
        let span = (cur - self.cursor + 1).min(nslots);
        for i in 0..span {
            let slot = ((self.cursor + i) % nslots) as usize;
            let bucket = &mut self.slots[slot];
            let mut j = 0;
            while j < bucket.len() {
                if bucket[j].expires_tick <= cur {
                    let e = bucket.swap_remove(j);
                    fired.push((e.id, e.token));
                    self.armed -= 1;
                } else {
                    j += 1;
                }
            }
        }
        self.cursor = cur + 1;
    }

    /// Time until the earliest armed timer is due, or `None` when the
    /// wheel is empty. Already-due timers report `Duration::ZERO`.
    pub fn next_deadline(&self, now: Instant) -> Option<Duration> {
        if self.armed == 0 {
            return None;
        }
        let min_tick = self
            .slots
            .iter()
            .flatten()
            .map(|e| e.expires_tick)
            .min()
            .expect("armed > 0 implies an entry");
        let due = self.start + self.tick * (min_tick as u32).max(1);
        Some(due.saturating_duration_since(now))
    }

    /// Number of armed timers.
    pub fn armed(&self) -> usize {
        self.armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::Arc;

    #[test]
    fn poller_reports_listener_readability_with_its_token() {
        let mut poller = Poller::new(8).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.add(listener.as_raw_fd(), 7, true, false).unwrap();

        // Nothing pending: a zero-timeout wait returns no events.
        let mut events = Vec::new();
        poller.wait(Some(Duration::ZERO), &mut events).unwrap();
        assert!(events.is_empty());

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller
            .wait(Some(Duration::from_secs(5)), &mut events)
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "{events:?}"
        );
    }

    #[test]
    fn poller_write_interest_and_delete() {
        let mut poller = Poller::new(8).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        stream.set_nonblocking(true).unwrap();
        // A fresh socket's send buffer has room: writable immediately.
        poller.add(stream.as_raw_fd(), 3, false, true).unwrap();
        let mut events = Vec::new();
        poller
            .wait(Some(Duration::from_secs(5)), &mut events)
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));
        // After MOD to read-only interest there is nothing to report.
        poller.modify(stream.as_raw_fd(), 3, true, false).unwrap();
        events.clear();
        poller.wait(Some(Duration::ZERO), &mut events).unwrap();
        assert!(events.is_empty(), "{events:?}");
        poller.delete(stream.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_crosses_threads_and_drains() {
        let mut poller = Poller::new(8).unwrap();
        let waker = Arc::new(Waker::new().unwrap());
        poller.add(waker.fd(), 1, true, false).unwrap();
        let remote = Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.wake();
            remote.wake(); // coalesces with the first
        });
        let mut events = Vec::new();
        poller
            .wait(Some(Duration::from_secs(5)), &mut events)
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        waker.drain();
        // Drained: the level-triggered interest goes quiet again.
        events.clear();
        poller.wait(Some(Duration::ZERO), &mut events).unwrap();
        assert!(events.is_empty(), "{events:?}");
        handle.join().unwrap();
    }

    #[test]
    fn hangup_surfaces_on_peer_close() {
        let mut poller = Poller::new(8).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller.add(server_side.as_raw_fd(), 9, true, false).unwrap();
        client.write_all(b"x").unwrap();
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(Some(Duration::from_secs(5)), &mut events)
            .unwrap();
        let ev = events.iter().find(|e| e.token == 9).expect("event");
        // Data then FIN: readable now; the EOF surfaces from read().
        assert!(ev.readable || ev.hangup, "{ev:?}");
    }

    /// A wheel whose clock the test controls by picking `now` instants
    /// relative to its creation time.
    fn wheel(tick_ms: u64, slots: usize) -> (TimerWheel, Instant) {
        let w = TimerWheel::new(Duration::from_millis(tick_ms), slots);
        let start = w.start;
        (w, start)
    }

    #[test]
    fn timer_fires_at_its_tick_but_never_early() {
        let (mut w, t0) = wheel(10, 64);
        let id = w.schedule(t0, Duration::from_millis(25), 42);
        let mut fired = Vec::new();
        // 25ms rounds up to the 30ms tick boundary: nothing at 20ms.
        w.advance(t0 + Duration::from_millis(20), &mut fired);
        assert!(fired.is_empty());
        w.advance(t0 + Duration::from_millis(40), &mut fired);
        assert_eq!(fired, vec![(id, 42)]);
        assert_eq!(w.armed(), 0);
    }

    #[test]
    fn cancel_disarms_and_is_idempotent() {
        let (mut w, t0) = wheel(10, 64);
        let id = w.schedule(t0, Duration::from_millis(15), 1);
        let keep = w.schedule(t0, Duration::from_millis(15), 2);
        w.cancel(id);
        w.cancel(id); // double-cancel is harmless
        let mut fired = Vec::new();
        w.advance(t0 + Duration::from_millis(60), &mut fired);
        assert_eq!(fired, vec![(keep, 2)]);
    }

    #[test]
    fn far_timer_survives_a_full_rotation() {
        // 8 slots x 10ms = 80ms rotation; a 150ms timer shares a slot
        // with earlier rounds but must only fire in its own.
        let (mut w, t0) = wheel(10, 8);
        let id = w.schedule(t0, Duration::from_millis(150), 9);
        let mut fired = Vec::new();
        w.advance(t0 + Duration::from_millis(100), &mut fired);
        assert!(fired.is_empty(), "fired a full rotation early: {fired:?}");
        w.advance(t0 + Duration::from_millis(200), &mut fired);
        assert_eq!(fired, vec![(id, 9)]);
    }

    #[test]
    fn next_deadline_tracks_the_earliest_timer() {
        let (mut w, t0) = wheel(10, 64);
        assert_eq!(w.next_deadline(t0), None);
        w.schedule(t0, Duration::from_millis(200), 1);
        let near = w.schedule(t0, Duration::from_millis(30), 2);
        let d = w.next_deadline(t0).unwrap();
        assert!(
            d >= Duration::from_millis(30) && d <= Duration::from_millis(50),
            "{d:?}"
        );
        w.cancel(near);
        let d = w.next_deadline(t0).unwrap();
        assert!(d >= Duration::from_millis(200), "{d:?}");
        // A due-but-uncollected timer reports zero, not an underflow.
        assert_eq!(
            w.next_deadline(t0 + Duration::from_secs(1)).unwrap(),
            Duration::ZERO
        );
    }

    #[test]
    fn stall_longer_than_a_rotation_fires_everything_once() {
        let (mut w, t0) = wheel(10, 8);
        let ids: Vec<u64> = (0..20)
            .map(|i| w.schedule(t0, Duration::from_millis(5 * (i + 1)), i))
            .collect();
        let mut fired = Vec::new();
        // The loop was away for three rotations.
        w.advance(t0 + Duration::from_millis(300), &mut fired);
        assert_eq!(fired.len(), ids.len());
        assert_eq!(w.armed(), 0);
        // And nothing fires twice afterwards.
        fired.clear();
        w.advance(t0 + Duration::from_millis(400), &mut fired);
        assert!(fired.is_empty());
    }
}
