//! The one client connection: `RemoteClient`, `RemoteSubscriber` and the
//! log follower each carry their frames over a [`Link`], and map a reply
//! they did not expect with [`unexpected_reply`]. Retrying is
//! `RetryPolicy::run`'s job.

use crate::protocol::{read_frame, write_frame, ErrorCode, Frame, ProtoError};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connection to one server: the resolved addresses (kept for
/// reconnects), the stream, and the timeout of each send and receive.
pub(crate) struct Link {
    addrs: Vec<SocketAddr>,
    stream: TcpStream,
    timeout: Option<Duration>,
}

impl Link {
    /// Resolves `addr` and connects.
    pub(crate) fn connect(addr: impl ToSocketAddrs, timeout: Option<Duration>) -> io::Result<Link> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = open(&addrs, timeout)?;
        Ok(Link {
            addrs,
            stream,
            timeout,
        })
    }

    /// Replaces the stream with a fresh connection to the same server. On
    /// failure the old stream stays.
    pub(crate) fn reconnect(&mut self) -> io::Result<()> {
        self.stream = open(&self.addrs, self.timeout)?;
        Ok(())
    }

    pub(crate) fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.timeout = timeout;
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    pub(crate) fn recv(&mut self) -> Result<Frame, ProtoError> {
        read_frame(&mut self.stream)
    }

    pub(crate) fn call(&mut self, request: &Frame) -> Result<Frame, ProtoError> {
        write_frame(&mut self.stream, request)?;
        self.recv()
    }

    /// Waits up to `window` (`None`: forever) for a frame; `None` if the
    /// connection stayed quiet. The window stays the read timeout until
    /// the next one or a reconnect. A server that stalls mid-frame also
    /// ends the window, and desyncs the stream: the next read fails.
    pub(crate) fn recv_within(
        &mut self,
        window: Option<Duration>,
    ) -> Result<Option<Frame>, ProtoError> {
        self.stream.set_read_timeout(window)?;
        match read_frame(&mut self.stream) {
            Err(ProtoError::Io(e)) if is_quiet(e.kind()) => Ok(None),
            read => read.map(Some),
        }
    }
}

fn is_quiet(kind: ErrorKind) -> bool {
    kind == ErrorKind::WouldBlock || kind == ErrorKind::TimedOut
}

fn open(addrs: &[SocketAddr], timeout: Option<Duration>) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addrs)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    Ok(stream)
}

/// A client role's error for a reply it did not expect.
pub(crate) trait ReplyError {
    fn refused(code: ErrorCode, message: String) -> Self;
    fn unexpected(expected: &'static str) -> Self;
}

/// The server's `Error` frame is its refusal; any other frame than the
/// one `expected` names is unexpected.
pub(crate) fn unexpected_reply<E: ReplyError>(frame: Frame, expected: &'static str) -> E {
    match frame {
        Frame::Error { code, message } => E::refused(code, message),
        _ => E::unexpected(expected),
    }
}
