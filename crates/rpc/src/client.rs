//! RPC clients: in-process and TCP, behind one [`Transport`] trait.

use crate::frame::{append_frame, read_frame, Request, Response, RpcError, Status};
use crate::server::ServerCore;
use crate::stats::RpcStats;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// The one call primitive every client implements.
///
/// A call is a batch: every request of the batch is in flight before any
/// reply is awaited, and a single call is a batch of one. `deadline` is
/// the budget each request carries in its frame; the server sheds a
/// request once its budget is spent.
pub trait Transport {
    /// Issues one `method` call per body and returns exactly one outcome
    /// per body, in issue order, whatever order the replies arrive in.
    fn call_batch(
        &self,
        method: &str,
        bodies: Vec<Vec<u8>>,
        deadline: Option<Duration>,
    ) -> Vec<Result<Response, RpcError>>;

    /// Issues a single call: a batch of one.
    ///
    /// # Errors
    ///
    /// [`RpcError::Application`] for handler-reported errors,
    /// [`RpcError::DeadlineExceeded`] when the server shed the expired
    /// request, [`RpcError::Overloaded`] when it shed it for load, and the
    /// transport's I/O, wire and timeout errors.
    fn call(
        &self,
        method: &str,
        body: Vec<u8>,
        deadline: Option<Duration>,
    ) -> Result<Response, RpcError> {
        self.call_batch(method, vec![body], deadline)
            .pop()
            .unwrap_or(Err(RpcError::Disconnected))
    }
}

/// Converts a received response into the caller-facing result.
fn response_to_result(resp: Response) -> Result<Response, RpcError> {
    match resp.status {
        Status::Ok => Ok(resp),
        Status::Error => Err(RpcError::Application(
            String::from_utf8_lossy(&resp.body).into_owned(),
        )),
        Status::Overloaded => Err(RpcError::Overloaded),
        Status::DeadlineExceeded => Err(RpcError::DeadlineExceeded),
    }
}

/// A handle for calling an [`InProcServer`](crate::server::InProcServer).
///
/// Cheap to clone; every clone shares the server's pool and stats.
#[derive(Clone)]
pub struct InProcClient {
    core: Arc<ServerCore>,
    seq: Arc<AtomicU64>,
}

impl std::fmt::Debug for InProcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcClient").finish_non_exhaustive()
    }
}

impl InProcClient {
    pub(crate) fn new(core: Arc<ServerCore>) -> Self {
        Self {
            core,
            seq: Arc::new(AtomicU64::new(1)),
        }
    }

    /// The batch engine: every request enters the server pool before any
    /// reply is awaited, so a batch keeps the pool busy without a thread
    /// per call. Replies carry their slot index, so they land in issue
    /// order whatever order the workers finish in.
    fn exchange(
        &self,
        reqs: impl ExactSizeIterator<Item = Request>,
        deadline: Option<Duration>,
    ) -> Vec<Result<Response, RpcError>> {
        let mut results: Vec<Option<Result<Response, RpcError>>> =
            (0..reqs.len()).map(|_| None).collect();
        let (tx, rx) = crossbeam::channel::bounded::<(usize, Vec<u8>)>(results.len().max(1));
        let mut dispatched = 0usize;
        for (idx, mut req) in reqs.enumerate() {
            // ordering: seq only needs uniqueness, not ordering with other memory
            req.seq = self.seq.fetch_add(1, Ordering::Relaxed);
            if let Some(budget) = deadline {
                req = req.with_deadline(budget);
            }
            // Serialize/deserialize even in-process: the RPC tax is paid
            // per request, batched or not.
            let encoded = req.encode();
            self.core.stats.record_request(encoded.len());
            let req = match Request::decode(&encoded) {
                Ok(r) => r,
                Err(e) => {
                    results[idx] = Some(Err(RpcError::Wire(e)));
                    continue;
                }
            };
            let tx = tx.clone();
            // The guard rides in the reply closure, so depth accounting
            // survives sheds (a dropped closure still drops the guard).
            let guard = self.core.pipeline.track();
            self.core.dispatch(req, move |resp| {
                let _guard = guard;
                let _ = tx.send((idx, resp.encode()));
            });
            dispatched += 1;
        }
        drop(tx);
        for _ in 0..dispatched {
            // A recv error means every remaining reply closure was dropped
            // unsent (pool shut down); the unfilled slots below cover it.
            let Ok((idx, encoded)) = rx.recv() else {
                break;
            };
            results[idx] = Some(match Response::decode(&encoded) {
                Ok(resp) => {
                    self.core.stats.record_response(encoded.len(), resp.status);
                    response_to_result(resp)
                }
                Err(e) => Err(RpcError::Wire(e)),
            });
        }
        results
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    self.core.stats.record_response(0, Status::Overloaded);
                    Err(RpcError::Overloaded)
                })
            })
            .collect()
    }

    /// Issues `calls` in parallel, modeling the RPC fan-out of production
    /// request trees: every call is dispatched into the server pool before
    /// any reply is awaited.
    pub fn fanout(&self, calls: Vec<(String, Vec<u8>)>) -> FanoutResult {
        let reqs = calls
            .into_iter()
            .map(|(method, body)| Request::new(&method, body));
        FanoutResult {
            responses: self.exchange(reqs, None),
        }
    }

    /// Shared transport counters.
    pub fn stats(&self) -> &RpcStats {
        &self.core.stats
    }

    /// The server's telemetry registry (shared with the server handle):
    /// resilience wrappers register their counters here so one snapshot
    /// covers transport, pool, and resilience activity.
    pub fn telemetry(&self) -> &dcperf_telemetry::Telemetry {
        &self.core.telemetry
    }
}

impl Transport for InProcClient {
    fn call_batch(
        &self,
        method: &str,
        bodies: Vec<Vec<u8>>,
        deadline: Option<Duration>,
    ) -> Vec<Result<Response, RpcError>> {
        let reqs = bodies.into_iter().map(|body| Request::new(method, body));
        self.exchange(reqs, deadline)
    }
}

/// The gathered outcome of a parallel fan-out.
#[derive(Debug)]
pub struct FanoutResult {
    /// Per-call outcomes, in issue order.
    pub responses: Vec<Result<Response, RpcError>>,
}

/// Maps transport I/O errors to typed RPC errors: read timeouts become
/// [`RpcError::Timeout`] so retry policy can treat them distinctly.
fn map_io(e: std::io::Error) -> RpcError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => RpcError::Timeout,
        _ => RpcError::Io(e),
    }
}

/// A synchronous TCP RPC client over one connection. Every batch is
/// pipelined through an in-flight window, so one connection does the work
/// of N single-call clients; a window of 1 is classic Thrift sync
/// behavior, one outstanding call per connection.
pub struct TcpClient {
    conn: Mutex<Conn>,
    window: usize,
    stats: RpcStats,
}

/// The connection state a batch owns while it runs.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    seq: u64,
}

impl std::fmt::Debug for TcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient")
            .field("window", &self.window)
            .finish_non_exhaustive()
    }
}

/// Default pipelined in-flight window of a [`TcpClient`].
pub const DEFAULT_CLIENT_WINDOW: usize = 32;

impl TcpClient {
    /// Connects to a [`TcpServer`](crate::server::TcpServer).
    ///
    /// # Errors
    ///
    /// Returns the underlying connection error.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok(Self {
            conn: Mutex::new(Conn {
                reader,
                writer,
                seq: 1,
            }),
            window: DEFAULT_CLIENT_WINDOW,
            stats: RpcStats::new(),
        })
    }

    /// Sets the pipelined in-flight window (builder style; clamped to
    /// ≥ 1, where 1 degenerates to sequential one-request-per-turn calls).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// [`Transport::call_batch`] without a deadline, on an exclusively
    /// held connection (no lock is taken).
    pub fn call_many(
        &mut self,
        method: &str,
        bodies: Vec<Vec<u8>>,
    ) -> Vec<Result<Response, RpcError>> {
        let conn = self.conn.get_mut().unwrap_or_else(PoisonError::into_inner);
        conn.exchange(self.window, &self.stats, method, bodies, None)
    }

    /// This connection's counters.
    pub fn stats(&self) -> &RpcStats {
        &self.stats
    }
}

impl Transport for TcpClient {
    /// Up to the window's worth of requests ride the wire concurrently,
    /// and the server may complete them out of order; replies are matched
    /// by correlation id. On a transport failure the rest of the batch
    /// fails with duplicates of that error: a pipelined connection dies as
    /// a unit.
    fn call_batch(
        &self,
        method: &str,
        bodies: Vec<Vec<u8>>,
        deadline: Option<Duration>,
    ) -> Vec<Result<Response, RpcError>> {
        let mut conn = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
        conn.exchange(self.window, &self.stats, method, bodies, deadline)
    }
}

impl Conn {
    /// The batch engine. With a deadline it also arms a socket read
    /// timeout, so a server that never replies surfaces as
    /// [`RpcError::Timeout`] rather than a hang.
    fn exchange(
        &mut self,
        window: usize,
        stats: &RpcStats,
        method: &str,
        bodies: Vec<Vec<u8>>,
        deadline: Option<Duration>,
    ) -> Vec<Result<Response, RpcError>> {
        if let Some(budget) = deadline {
            // Give replies a grace window past the server-side budget so
            // an in-flight shed response is read rather than raced.
            let grace = budget + budget / 2 + Duration::from_millis(50);
            let _ = self.reader.get_ref().set_read_timeout(Some(grace));
        }
        let mut results: Vec<Option<Result<Response, RpcError>>> =
            (0..bodies.len()).map(|_| None).collect();
        let failure = self
            .pump(window, stats, method, bodies, deadline, &mut results)
            .err();
        if deadline.is_some() {
            let _ = self.reader.get_ref().set_read_timeout(None);
        }
        results
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    Err(failure
                        .as_ref()
                        .map_or(RpcError::Disconnected, RpcError::duplicate))
                })
            })
            .collect()
    }

    /// Keeps up to `window` requests in flight until every reply is in,
    /// filling `results` by correlation id. Returns the transport failure
    /// that ended the batch early, if any.
    fn pump(
        &mut self,
        window: usize,
        stats: &RpcStats,
        method: &str,
        bodies: Vec<Vec<u8>>,
        deadline: Option<Duration>,
        results: &mut [Option<Result<Response, RpcError>>],
    ) -> Result<(), RpcError> {
        let mut slot_of: HashMap<u64, usize> = HashMap::with_capacity(window);
        let mut pending = bodies.into_iter().enumerate();
        let mut burst = Vec::new();
        loop {
            // Top up the window: encode a burst of frames and push it
            // with one buffered write + flush.
            burst.clear();
            while slot_of.len() < window {
                let Some((idx, body)) = pending.next() else {
                    break;
                };
                let mut req = Request::new(method, body);
                if let Some(budget) = deadline {
                    req = req.with_deadline(budget);
                }
                req.seq = self.seq;
                req.corr = self.seq;
                self.seq += 1;
                let payload = req.encode();
                stats.record_request(payload.len());
                append_frame(&mut burst, &payload).map_err(map_io)?;
                slot_of.insert(req.corr, idx);
            }
            if !burst.is_empty() {
                self.writer
                    .write_all(&burst)
                    .and_then(|()| self.writer.flush())
                    .map_err(map_io)?;
            }
            if slot_of.is_empty() {
                return Ok(());
            }
            // Await any one completion; the server may answer in any
            // order, so route by correlation id.
            let frame = read_frame(&mut self.reader)
                .map_err(map_io)?
                .ok_or(RpcError::Disconnected)?;
            let resp = Response::decode(&frame)?;
            stats.record_response(frame.len(), resp.status);
            let idx = slot_of
                .remove(&resp.corr)
                .ok_or(RpcError::CorrelationMismatch { got: resp.corr })?;
            results[idx] = Some(response_to_result(resp));
        }
    }
}

/// A fixed-size pool of pipelined TCP connections.
///
/// Each call or batch goes down the next connection, round-robin: a
/// batch rides *one* pipelined connection, since the point of
/// multiplexing is that one connection replaces N pool slots.
pub struct TcpClientPool {
    conns: Vec<TcpClient>,
    cursor: AtomicUsize,
}

impl std::fmt::Debug for TcpClientPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClientPool")
            .field("size", &self.conns.len())
            .finish()
    }
}

impl TcpClientPool {
    /// Opens `size` connections (clamped to ≥ 1) to `addr`, each with the
    /// pipelined window `window`.
    ///
    /// # Errors
    ///
    /// Returns the first connection error.
    pub fn connect(addr: SocketAddr, size: usize, window: usize) -> std::io::Result<Self> {
        let conns = (0..size.max(1))
            .map(|_| Ok(TcpClient::connect(addr)?.with_window(window)))
            .collect::<std::io::Result<_>>()?;
        Ok(Self {
            conns,
            cursor: AtomicUsize::new(0),
        })
    }
}

impl Transport for TcpClientPool {
    fn call_batch(
        &self,
        method: &str,
        bodies: Vec<Vec<u8>>,
        deadline: Option<Duration>,
    ) -> Vec<Result<Response, RpcError>> {
        // ordering: round-robin cursor only needs per-call uniqueness, not
        // ordering with other memory
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) % self.conns.len();
        self.conns[i].call_batch(method, bodies, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use crate::server::InProcServer;

    #[test]
    fn fanout_gathers_in_order() {
        let server = InProcServer::start(
            |req: &Request| Response::ok(req.body.clone()),
            PoolConfig::single_lane(4),
        );
        let client = server.client();
        let calls: Vec<(String, Vec<u8>)> =
            (0..10u8).map(|i| ("echo".to_owned(), vec![i])).collect();
        let result = client.fanout(calls);
        assert_eq!(result.responses.len(), 10);
        for (i, r) in result.responses.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().body, vec![i as u8]);
        }
        server.shutdown();
    }

    #[test]
    fn application_error_maps_to_rpc_error() {
        let server = InProcServer::start(
            |_req: &Request| Response::error("no such key"),
            PoolConfig::single_lane(1),
        );
        let client = server.client();
        match client.call("get", vec![], None) {
            Err(RpcError::Application(m)) => assert_eq!(m, "no such key"),
            other => panic!("expected application error, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn stats_track_calls() {
        let server = InProcServer::start(
            |req: &Request| Response::ok(req.body.clone()),
            PoolConfig::single_lane(1),
        );
        let client = server.client();
        for _ in 0..5 {
            client.call("m", vec![0u8; 32], None).unwrap();
        }
        assert_eq!(client.stats().requests(), 5);
        assert_eq!(client.stats().responses(), 5);
        assert!(client.stats().bytes_sent() > 5 * 32);
        assert_eq!(client.stats().error_rate(), 0.0);
        server.shutdown();
    }
}
