//! The socket-level fault proxy: a TCP forwarder that sits between a
//! client and the server and perturbs the byte stream per
//! [`FaultPlan`] — drops, stalls, stale duplicates, mid-frame closes and
//! refusals. The proxy is oblivious
//! to the protocol on purpose: every fault manifests to the endpoints as
//! exactly what a hostile network can do to a TCP connection.

use crate::plan::{FaultPlan, WireFault, WireSchedule};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How much recently-forwarded history each pump keeps for `Duplicate`.
const HISTORY_CAP: usize = 1024;

/// Counters exposed by a running [`FaultProxy`].
#[derive(Debug, Default)]
pub struct ProxyStats {
    conns: AtomicU64,
    refused: AtomicU64,
    faults: AtomicU64,
    forwarded: AtomicU64,
}

impl ProxyStats {
    /// Connections accepted so far (including refused ones).
    pub fn conns(&self) -> u64 {
        self.conns.load(Ordering::Relaxed)
    }

    /// Connections dropped without forwarding (plan refusals and failed
    /// upstream dials).
    pub fn refused(&self) -> u64 {
        self.refused.load(Ordering::Relaxed)
    }

    /// Wire faults actually injected (a planned fault positioned past
    /// the end of the stream never fires).
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Payload bytes forwarded (both directions).
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }
}

/// A running fault proxy. Dropping it (or calling [`FaultProxy::stop`])
/// closes the listener; live pump threads notice within a tick and exit.
#[derive(Debug)]
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts a proxy on an ephemeral local port, forwarding to
    /// `upstream` with `plan`'s wire faults.
    pub fn start(upstream: impl ToSocketAddrs, plan: FaultPlan) -> io::Result<FaultProxy> {
        let upstream = upstream
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no upstream addr"))?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ProxyStats::default());
        let accept_thread = {
            let (stop, stats) = (Arc::clone(&stop), Arc::clone(&stats));
            thread::Builder::new()
                .name("fault-proxy-accept".into())
                .spawn(move || accept_loop(listener, upstream, plan, stop, stats))?
        };
        Ok(FaultProxy {
            addr,
            stop,
            stats,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ProxyStats {
        &self.stats
    }

    /// Stops the proxy and joins the accept thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    plan: FaultPlan,
    stop: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
) {
    while !stop.load(Ordering::SeqCst) {
        let (client, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(_) => break,
        };
        let conn = stats.conns.fetch_add(1, Ordering::Relaxed);
        let sched = plan.wire_schedule(conn);
        if sched.refuse {
            stats.refused.fetch_add(1, Ordering::Relaxed);
            let _ = client.shutdown(Shutdown::Both);
            continue;
        }
        let server = match TcpStream::connect(upstream) {
            Ok(s) => s,
            Err(_) => {
                stats.refused.fetch_add(1, Ordering::Relaxed);
                let _ = client.shutdown(Shutdown::Both);
                continue;
            }
        };
        spawn_pumps(client, server, sched, &stop, &stats);
    }
}

fn spawn_pumps(
    client: TcpStream,
    server: TcpStream,
    sched: WireSchedule,
    stop: &Arc<AtomicBool>,
    stats: &Arc<ProxyStats>,
) {
    let pairs = [
        (
            client.try_clone(),
            server.try_clone(),
            sched.client_to_server,
        ),
        (Ok(server), Ok(client), sched.server_to_client),
    ];
    for (src, dst, faults) in pairs {
        let (Ok(src), Ok(dst)) = (src, dst) else {
            return;
        };
        let (stop, stats) = (Arc::clone(stop), Arc::clone(stats));
        let _ = thread::Builder::new()
            .name("fault-proxy-pump".into())
            .spawn(move || pump(src, dst, faults, stop, stats));
    }
}

/// Copies `src` → `dst`, applying `faults` at their planned positions in
/// the *source* byte stream. Exits on EOF, error or stop.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    faults: Vec<WireFault>,
    stop: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
) {
    let _ = src.set_read_timeout(Some(Duration::from_millis(25)));
    let mut consumed: u64 = 0;
    let mut next_fault = 0usize;
    let mut dropping: u64 = 0;
    let mut history: Vec<u8> = Vec::with_capacity(HISTORY_CAP);
    let mut buf = [0u8; 4096];
    let close_both = |src: &TcpStream, dst: &TcpStream| {
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
    };
    loop {
        if stop.load(Ordering::SeqCst) {
            close_both(&src, &dst);
            return;
        }
        let n = match src.read(&mut buf) {
            Ok(0) => {
                // Clean EOF: stop forwarding this direction but let the
                // other pump drain.
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                close_both(&src, &dst);
                return;
            }
        };
        let mut chunk = &buf[..n];
        while !chunk.is_empty() {
            // Swallow bytes a Drop fault claimed first.
            if dropping > 0 {
                let take = (dropping as usize).min(chunk.len());
                consumed += take as u64;
                dropping -= take as u64;
                chunk = &chunk[take..];
                continue;
            }
            // How far may we forward before the next fault triggers?
            let limit = match faults.get(next_fault) {
                Some(f) if f.at() <= consumed + chunk.len() as u64 => (f.at() - consumed) as usize,
                _ => chunk.len(),
            };
            if limit > 0 {
                if forward(&mut dst, &chunk[..limit], &mut history, &stats).is_err() {
                    close_both(&src, &dst);
                    return;
                }
                consumed += limit as u64;
                chunk = &chunk[limit..];
                continue;
            }
            // A fault fires exactly here.
            let fault = faults[next_fault];
            next_fault += 1;
            stats.faults.fetch_add(1, Ordering::Relaxed);
            match fault {
                WireFault::Drop { len, .. } => dropping = u64::from(len),
                WireFault::Delay { ms, .. } => {
                    thread::sleep(Duration::from_millis(u64::from(ms.min(1000))));
                }
                WireFault::Duplicate { len, .. } => {
                    let start = history.len().saturating_sub(len as usize);
                    let stale = history[start..].to_vec();
                    if forward(&mut dst, &stale, &mut history, &stats).is_err() {
                        close_both(&src, &dst);
                        return;
                    }
                }
                WireFault::Close { .. } => {
                    close_both(&src, &dst);
                    return;
                }
            }
        }
    }
}

fn forward(
    dst: &mut TcpStream,
    bytes: &[u8],
    history: &mut Vec<u8>,
    stats: &ProxyStats,
) -> io::Result<()> {
    dst.write_all(bytes)?;
    stats
        .forwarded
        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    history.extend_from_slice(bytes);
    if history.len() > HISTORY_CAP {
        history.drain(..history.len() - HISTORY_CAP);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use std::io::{Read, Write};

    /// An upstream that echoes whatever it receives.
    fn echo_server() -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = thread::spawn(move || {
            // Serve a bounded number of connections, then quit.
            for _ in 0..64 {
                let Ok((mut s, _)) = listener.accept() else {
                    return;
                };
                thread::spawn(move || {
                    let mut buf = [0u8; 1024];
                    loop {
                        match s.read(&mut buf) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => {
                                if s.write_all(&buf[..n]).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                });
            }
        });
        (addr, t)
    }

    #[test]
    fn clean_plan_forwards_verbatim() {
        let (upstream, _t) = echo_server();
        let proxy = FaultProxy::start(upstream, FaultPlan::clean()).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"round trip").unwrap();
        let mut got = [0u8; 10];
        c.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"round trip");
        assert_eq!(proxy.stats().faults(), 0);
        // The counter trails the write it counts, so the echo can land
        // here before the pump has counted it.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while proxy.stats().forwarded() < 20 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(proxy.stats().forwarded() >= 20);
        proxy.stop();
    }

    #[test]
    fn close_fault_cuts_the_stream_mid_flight() {
        let (upstream, _t) = echo_server();
        let plan = FaultPlan::clean();
        // Hand-build a plan that closes the client→server stream after
        // 4 bytes: wire_schedule is seed-driven, so test via a forced
        // schedule through the pump directly is overkill — instead use a
        // seed scan to find a close-at-small-offset schedule.
        let _ = plan;
        let mut chosen = None;
        for seed in 0..5000u64 {
            let p = FaultPlan::new(seed).with_faulty_conns(1).with_horizon(32);
            let s = p.wire_schedule(0);
            let close_early = !s.refuse
                && s.server_to_client.is_empty()
                && s.client_to_server.len() == 1
                && matches!(s.client_to_server[0], WireFault::Close { at } if at <= 8);
            if close_early {
                chosen = Some(p);
                break;
            }
        }
        let plan = chosen.expect("no seed in 0..5000 yields a lone early close");
        let proxy = FaultProxy::start(upstream, plan).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = c.write_all(&[0u8; 64]);
        // The proxy closes; the echo never completes. Reads must reach
        // EOF (or a reset), not hang.
        let mut sink = Vec::new();
        let res = c.read_to_end(&mut sink);
        assert!(res.is_ok() || res.is_err());
        assert!(sink.len() < 64, "close fault failed to truncate");
        assert!(proxy.stats().faults() >= 1);
        proxy.stop();
    }

    #[test]
    fn refused_connections_are_counted() {
        let (upstream, _t) = echo_server();
        // Find a seed whose first connection is refused.
        let plan = (0..5000u64)
            .map(|s| FaultPlan::new(s).with_faulty_conns(1))
            .find(|p| p.wire_schedule(0).refuse)
            .expect("no refusal seed in 0..5000");
        let proxy = FaultProxy::start(upstream, plan).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut sink = Vec::new();
        let _ = c.read_to_end(&mut sink);
        assert!(sink.is_empty());
        // Second connection (index 1) is past faulty_conns: clean.
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"ok").unwrap();
        let mut got = [0u8; 2];
        c.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"ok");
        assert_eq!(proxy.stats().refused(), 1);
        proxy.stop();
    }
}
