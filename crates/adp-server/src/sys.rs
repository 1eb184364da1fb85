//! Thin `std`-only bindings to the few Linux syscalls the server needs:
//! `epoll_create1` / `epoll_ctl` / `epoll_pwait` for the readiness loop,
//! and `rt_sigprocmask` / `signalfd4` so `adp serve` can turn SIGINT and
//! SIGTERM into a drain.
//!
//! The build has no `libc` crate (offline, shims only), so the syscalls
//! are issued directly with inline assembly. Only Linux on x86_64 and
//! aarch64 is supported — the reactor is epoll-shaped through and
//! through, and a poll/kqueue port would be a separate backend, not a cfg
//! twiddle.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

#[cfg(not(target_os = "linux"))]
compile_error!(
    "adp-server's readiness loop requires Linux epoll; \
     no other backend is implemented"
);

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const RT_SIGPROCMASK: u64 = 14;
    pub const EPOLL_CTL: u64 = 233;
    pub const EPOLL_PWAIT: u64 = 281;
    pub const SIGNALFD4: u64 = 289;
    pub const EPOLL_CREATE1: u64 = 291;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const EPOLL_CTL: u64 = 21;
    pub const EPOLL_PWAIT: u64 = 22;
    pub const EPOLL_CREATE1: u64 = 20;
    pub const SIGNALFD4: u64 = 74;
    pub const RT_SIGPROCMASK: u64 = 135;
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!("no syscall numbers wired up for this architecture");

/// Issues a raw syscall with up to six arguments, returning the kernel's
/// raw result (negative errno on failure).
///
/// # Safety
/// The caller must uphold the specific syscall's contract: every pointer
/// argument must be valid for the access the kernel performs.
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(nr: u64, a1: u64, a2: u64, a3: u64, a4: u64, a5: u64, a6: u64) -> i64 {
    let ret: i64;
    // SAFETY: the x86_64 Linux syscall ABI: number in rax, arguments in
    // rdi/rsi/rdx/r10/r8/r9, result in rax; the `syscall` instruction
    // clobbers rcx and r11, declared as outputs. It touches no stack, so
    // `nostack` holds; without `nomem` the compiler assumes the kernel
    // reads and writes memory. That memory is named by pointer arguments
    // the caller vouched for under this function's contract.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr as i64 => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// See the x86_64 variant; aarch64 passes the number in `x8`.
///
/// # Safety
/// Same contract as the x86_64 variant.
#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(nr: u64, a1: u64, a2: u64, a3: u64, a4: u64, a5: u64, a6: u64) -> i64 {
    let ret: i64;
    // SAFETY: the aarch64 Linux syscall ABI: number in x8, arguments in
    // x0-x5, result in x0; `svc 0` clobbers no other general register and
    // touches no stack, so `nostack` holds; without `nomem` the compiler
    // assumes the kernel reads and writes memory. That memory is named by
    // pointer arguments the caller vouched for under this function's
    // contract.
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a1 as i64 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack),
        );
    }
    ret
}

fn check(ret: i64) -> io::Result<i64> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret)
    }
}

/// Readiness: data to read (or a pending accept).
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the socket's send buffer has room.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: u64 = 1;
const EPOLL_CTL_DEL: u64 = 2;
const EPOLL_CTL_MOD: u64 = 3;
const EPOLL_CLOEXEC: u64 = 0x80000;

/// One readiness report. The kernel's layout: on x86_64 the struct is
/// packed (no padding between the `u32` mask and the `u64` data), on
/// other architectures it is naturally aligned.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// An empty slot for the wait buffer.
    pub fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }

    /// The readiness mask (copied out by value — the struct may be packed).
    pub fn events(&self) -> u32 {
        self.events
    }

    /// The token registered with [`Epoll::add`].
    pub fn token(&self) -> u64 {
        self.data
    }
}

/// An epoll instance (RAII over the epoll fd).
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes only a flags word; no pointer, so
        // the kernel reads or writes no memory of ours.
        let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        Ok(Epoll {
            // SAFETY: `check` passed, so `fd` is a new descriptor the kernel
            // just opened for this call; nothing else owns it.
            fd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
        })
    }

    fn ctl(&self, op: u64, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        let ptr = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        // SAFETY: for ADD/MOD the kernel reads one `EpollEvent` through
        // `ptr`, which points at the live local `ev` (its layout is the
        // kernel's `struct epoll_event`); for DEL it ignores the null
        // pointer. The kernel keeps no reference past the call.
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.fd.as_raw_fd() as u64,
                op,
                fd as u64,
                ptr as u64,
                0,
                0,
            )
        })
        .map(|_| ())
    }

    /// Registers `fd` (level-triggered) with the given interest mask and
    /// token; the token comes back verbatim in [`EpollEvent::token`].
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes the interest mask of a registered fd.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Unregisters a fd. (Closing the fd also unregisters it; this exists
    /// for the rare case where the fd must outlive its registration.)
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for readiness, filling `events` and returning how many slots
    /// were written. `timeout_ms` < 0 blocks indefinitely; 0 polls.
    /// Interrupted waits (`EINTR`) are retried internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // epoll_pwait with a null sigmask == epoll_wait; aarch64 has
            // no plain epoll_wait syscall, so use pwait on both arches.
            // SAFETY: the kernel writes at most `events.len()` `EpollEvent`s
            // starting at `events.as_mut_ptr()`, which is exactly the
            // exclusively borrowed slice; the sigmask pointer is null, so
            // it reads nothing else.
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    self.fd.as_raw_fd() as u64,
                    events.as_mut_ptr() as u64,
                    events.len() as u64,
                    timeout_ms as u64,
                    0, // sigmask: NULL
                    8, // sigsetsize
                )
            };
            match check(ret) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// `SIGINT` (Ctrl-C).
pub const SIGINT: i32 = 2;
/// `SIGTERM` (polite kill).
pub const SIGTERM: i32 = 15;

const SIG_BLOCK: u64 = 0;
const SFD_CLOEXEC: u64 = 0o2000000;

/// A signalfd: the listed signals, blocked for normal delivery, arrive as
/// reads on this fd instead — which is how `adp serve` turns `SIGTERM` /
/// Ctrl-C into a graceful drain without an async-signal-safe handler (no
/// `libc`, no `signal(2)`; the whole mechanism is two syscalls).
///
/// Create it on the main thread **before** spawning any other thread:
/// `rt_sigprocmask` masks only the calling thread, and threads inherit
/// the mask at spawn — signals must be masked everywhere, or the kernel
/// may deliver them to an unmasked thread (killing the process) instead
/// of queueing them on the fd.
pub struct SignalFd {
    fd: OwnedFd,
}

impl SignalFd {
    /// Blocks `signals` for this thread (future threads inherit the mask)
    /// and returns a blocking fd that reads them instead.
    pub fn new(signals: &[i32]) -> io::Result<SignalFd> {
        let mut mask: u64 = 0;
        for &sig in signals {
            assert!((1..=64).contains(&sig), "bad signal number {sig}");
            mask |= 1u64 << (sig - 1);
        }
        // SAFETY: the kernel reads 8 bytes (sigsetsize) of new mask through
        // `&mask`, a live local `u64`; the old-set pointer is null, so it
        // writes nothing.
        check(unsafe {
            syscall6(
                nr::RT_SIGPROCMASK,
                SIG_BLOCK,
                &mask as *const u64 as u64,
                0, // oldset: NULL
                8, // sigsetsize
                0,
                0,
            )
        })?;
        // SAFETY: the kernel reads 8 bytes (sigsetsize) of mask through
        // `&mask`, a live local `u64`, and copies it; fd -1 asks for a new
        // descriptor, so no existing one is touched.
        let fd = check(unsafe {
            syscall6(
                nr::SIGNALFD4,
                u64::MAX, // -1: new fd
                &mask as *const u64 as u64,
                8, // sigsetsize
                SFD_CLOEXEC,
                0,
                0,
            )
        })?;
        Ok(SignalFd {
            // SAFETY: `check` passed, so `fd` is a new descriptor the kernel
            // just opened for this call; nothing else owns it.
            fd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
        })
    }

    /// Blocks until one of the masked signals arrives; returns its number.
    /// (`read(2)` on a signalfd writes a 128-byte `signalfd_siginfo`
    /// whose leading `u32` is the signal number — `std`'s `File` read is
    /// exactly that syscall, no extra binding needed.)
    pub fn wait(&self) -> io::Result<i32> {
        use std::io::Read;
        let mut info = [0u8; 128];
        let mut f = std::fs::File::from(self.fd.try_clone()?);
        f.read_exact(&mut info)?;
        let signo = u32::from_ne_bytes(info[0..4].try_into().expect("4 bytes"));
        Ok(signo as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    #[test]
    fn epoll_reports_readable_socket() {
        let epoll = Epoll::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        epoll.add(b.as_raw_fd(), EPOLLIN, 42).unwrap();

        // Nothing written yet: a zero-timeout wait reports nothing.
        let mut events = [EpollEvent::zeroed(); 8];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        a.write_all(b"x").unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);
        assert_ne!(events[0].events() & EPOLLIN, 0);

        // Level-triggered: still readable until drained.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 1);

        epoll.delete(b.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn modify_switches_interest() {
        let epoll = Epoll::new().unwrap();
        let (_a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        // A fresh socket pair is writable immediately but not readable.
        epoll.add(b.as_raw_fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent::zeroed(); 8];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        epoll.modify(b.as_raw_fd(), EPOLLIN | EPOLLOUT, 7).unwrap();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(events[0].events() & EPOLLOUT, 0);
    }
}
