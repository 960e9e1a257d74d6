//! RPC servers: in-process and TCP.
//!
//! The in-process server is the workhorse of the single-machine DCPerf-RS
//! benchmarks (the paper's benchmarks run all components on one server in
//! most cases); requests still traverse real serialization, bounded queues,
//! and a worker thread pool, so the RPC datacenter tax is paid. The TCP
//! server provides the distributed deployment shape for the benchmarks
//! whose clients run on other machines.

use crate::frame::{append_frame, read_frame, Request, Response};
use crate::pipeline::{PipelineConfig, PipelineStats};
use crate::pool::{Lane, PoolConfig, ThreadPool};
use crate::stats::RpcStats;
use crossbeam::channel;
use dcperf_resilience::Deadline;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
#[cfg(feature = "fault-injection")]
use std::sync::Mutex;

/// The server-side request handler.
pub type Handler = dyn Fn(&Request) -> Response + Send + Sync + 'static;

/// Routes a request to a [`Lane`] before it is queued.
pub type Classifier = dyn Fn(&Request) -> Lane + Send + Sync + 'static;

pub(crate) struct ServerCore {
    pub(crate) handler: Arc<Handler>,
    pub(crate) classifier: Arc<Classifier>,
    pub(crate) pool: ThreadPool,
    pub(crate) stats: Arc<RpcStats>,
    pub(crate) pipeline: Arc<PipelineStats>,
    pub(crate) pipeline_cfg: PipelineConfig,
    pub(crate) telemetry: dcperf_telemetry::Telemetry,
    /// Fault injector applied on the dispatch path (chaos scenarios only).
    #[cfg(feature = "fault-injection")]
    pub(crate) fault_plan: Mutex<Option<Arc<dcperf_resilience::FaultPlan>>>,
}

/// Builds the shed response for a request whose deadline has expired.
fn expired_response(seq: u64, corr: u64) -> Response {
    let mut resp = Response::deadline_exceeded();
    resp.seq = seq;
    resp.corr = corr;
    resp
}

impl ServerCore {
    fn new(
        handler: Arc<Handler>,
        classifier: Arc<Classifier>,
        config: PoolConfig,
        pipeline_cfg: PipelineConfig,
    ) -> Self {
        // One registry per server: transport counters (`rpc.*`), pool
        // counters (`rpc.pool.*`), and pipelining depth (`rpc.pipeline.*`,
        // `rpc.batch.*`) land in the same snapshot.
        let telemetry = dcperf_telemetry::Telemetry::new();
        Self {
            handler,
            classifier,
            pool: ThreadPool::with_telemetry(config, &telemetry),
            stats: Arc::new(RpcStats::with_telemetry(
                &telemetry,
                dcperf_telemetry::metrics::PREFIX_RPC,
            )),
            pipeline: Arc::new(PipelineStats::with_telemetry(&telemetry)),
            pipeline_cfg,
            telemetry,
            #[cfg(feature = "fault-injection")]
            fault_plan: Mutex::new(None),
        }
    }

    #[cfg(feature = "fault-injection")]
    pub(crate) fn install_fault_plan(&self, plan: Option<Arc<dcperf_resilience::FaultPlan>>) {
        if let Ok(mut slot) = self.fault_plan.lock() {
            *slot = plan;
        }
    }

    /// Dispatches a request through the pool, waiting for queue space;
    /// `reply` receives the response.
    pub(crate) fn dispatch(&self, req: Request, reply: impl FnOnce(Response) + Send + 'static) {
        // Pin the wire budget (relative microseconds) to an absolute
        // instant the moment the request enters the server.
        let deadline = (req.deadline_us > 0).then(|| Deadline::from_budget_us(req.deadline_us));
        let seq = req.seq;
        let corr = req.corr;
        // Shed already-expired work before it consumes queue space.
        if deadline.is_some_and(|d| d.expired()) {
            self.stats.record_deadline_shed();
            reply(expired_response(seq, corr));
            return;
        }
        let lane = (self.classifier)(&req);
        let handler = Arc::clone(&self.handler);
        let stats = Arc::clone(&self.stats);
        #[cfg(feature = "fault-injection")]
        let plan = self.fault_plan.lock().ok().and_then(|slot| slot.clone());
        let job = move || {
            // Re-check at dequeue / handler entry: queueing delay may have
            // consumed the whole budget, and a reply the client already
            // gave up on is pure waste.
            if deadline.is_some_and(|d| d.expired()) {
                stats.record_deadline_shed();
                reply(expired_response(seq, corr));
                return;
            }
            #[cfg(feature = "fault-injection")]
            if let Some(plan) = &plan {
                use dcperf_resilience::FaultOutcome;
                match plan.apply() {
                    FaultOutcome::Pass => {}
                    FaultOutcome::Error => {
                        let mut resp = Response::error("injected fault");
                        resp.seq = seq;
                        resp.corr = corr;
                        reply(resp);
                        return;
                    }
                    FaultOutcome::Overload => {
                        let mut resp = Response::overloaded();
                        resp.seq = seq;
                        resp.corr = corr;
                        reply(resp);
                        return;
                    }
                }
                // Injected latency may have burned the remaining budget.
                if deadline.is_some_and(|d| d.expired()) {
                    stats.record_deadline_shed();
                    reply(expired_response(seq, corr));
                    return;
                }
            }
            let mut resp = handler(&req);
            resp.seq = seq;
            resp.corr = corr;
            reply(resp);
        };
        // A shut-down pool drops the job, and with it `reply`: the caller
        // observes a dropped reply channel.
        let _ = self.pool.spawn_blocking(lane, job);
    }
}

/// An in-process RPC server: clients and server share the process, but
/// every call pays serialization, queueing, and cross-thread dispatch.
///
/// # Examples
///
/// See the [crate-level example](crate).
pub struct InProcServer {
    core: Arc<ServerCore>,
}

impl std::fmt::Debug for InProcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcServer")
            .field("workers", &self.core.pool.worker_count())
            .finish()
    }
}

impl InProcServer {
    /// Starts the server with every request routed to the fast lane.
    pub fn start<H>(handler: H, config: PoolConfig) -> Self
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        Self::start_with_classifier(handler, |_| Lane::Fast, config)
    }

    /// Starts the server with a fast/slow classifier (TAO-style).
    pub fn start_with_classifier<H, C>(handler: H, classifier: C, config: PoolConfig) -> Self
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
        C: Fn(&Request) -> Lane + Send + Sync + 'static,
    {
        Self {
            core: Arc::new(ServerCore::new(
                Arc::new(handler),
                Arc::new(classifier),
                config,
                PipelineConfig::default(),
            )),
        }
    }

    /// Creates a client handle. Handles are cheap to clone and share.
    pub fn client(&self) -> crate::client::InProcClient {
        crate::client::InProcClient::new(Arc::clone(&self.core))
    }

    /// Transport counters (shared with all clients).
    pub fn stats(&self) -> &RpcStats {
        &self.core.stats
    }

    /// Pipelining depth and batching telemetry (`rpc.pipeline.*`,
    /// `rpc.batch.*`), shared with in-process pipelined clients.
    pub fn pipeline(&self) -> &PipelineStats {
        &self.core.pipeline
    }

    /// The server's telemetry registry (`rpc.*` transport counters and
    /// `rpc.pool.*` lane counters). Snapshot it to observe everything the
    /// server recorded.
    pub fn telemetry(&self) -> &dcperf_telemetry::Telemetry {
        &self.core.telemetry
    }

    /// Installs (or clears, with `None`) a [`dcperf_resilience::FaultPlan`]
    /// applied to every dispatched request: injected latency is paid on
    /// the worker thread, injected errors and overloads short-circuit the
    /// handler. Only compiled with the `fault-injection` feature, so the
    /// default hot path carries no injector branch.
    #[cfg(feature = "fault-injection")]
    pub fn install_fault_plan(&self, plan: Option<Arc<dcperf_resilience::FaultPlan>>) {
        self.core.install_fault_plan(plan);
    }

    /// Shuts the pool down, draining queued requests.
    pub fn shutdown(self) {
        // Last handle to the core drops the pool, which drains and joins.
        drop(self);
    }
}

/// A TCP RPC server on localhost or beyond, framing requests per
/// [`crate::frame`].
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    core: Arc<ServerCore>,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving:
    /// `classifier` routes each request to a lane of the `config` pool, and
    /// `pipeline` sets each connection's read-ahead window. Use
    /// [`PipelineConfig::disabled`] for strict one-request-per-turn
    /// connections.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the listener cannot be bound.
    pub fn bind_full<H, C>(
        addr: &str,
        handler: H,
        classifier: C,
        config: PoolConfig,
        pipeline: PipelineConfig,
    ) -> std::io::Result<Self>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
        C: Fn(&Request) -> Lane + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let core = Arc::new(ServerCore::new(
            Arc::new(handler),
            Arc::new(classifier),
            config,
            pipeline,
        ));

        let stop2 = Arc::clone(&stop);
        let core2 = Arc::clone(&core);
        let accept_thread = std::thread::Builder::new()
            .name("rpc-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    // ordering: advisory stop flag; shutdown pokes the socket to force a check
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let core = Arc::clone(&core2);
                    let stop = Arc::clone(&stop2);
                    // Connection threads are detached: they hold their own
                    // Arc to the core and exit when the peer disconnects or
                    // the stop flag trips (observed via the read timeout).
                    // Joining them here would deadlock shutdown against
                    // clients that keep their connections open.
                    let _ = std::thread::Builder::new()
                        .name("rpc-conn".into())
                        .spawn(move || Self::serve_connection(stream, core, stop));
                }
            })?;

        Ok(Self {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
            core,
        })
    }

    /// Serves one connection with a pipelined read-ahead window.
    ///
    /// Three moving parts per connection:
    ///
    /// * the *reader* (this thread) decodes frames and dispatches them
    ///   into the worker pool, blocking on a bounded permit channel once
    ///   `max_inflight` requests are outstanding (the read-ahead window);
    /// * the *pool workers* complete requests in whatever order their
    ///   lanes finish them and enqueue encoded responses — out-of-order
    ///   completion is matched up client-side by correlation id;
    /// * the *writer thread* drains the response queue, coalescing up to
    ///   `max_batch` frames into one buffered `write_all` + flush so a
    ///   burst of completions costs one syscall, not `max_batch`.
    ///
    /// With `max_inflight == 1` the window admits a single request at a
    /// time: one request per turn, responses strictly in request order.
    fn serve_connection(stream: TcpStream, core: Arc<ServerCore>, stop: Arc<AtomicBool>) {
        let cfg = core.pipeline_cfg;
        // A read timeout lets the loop observe the stop flag even while a
        // client holds the connection open without sending.
        let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(200)));
        // Response bursts are small; Nagle + the client's delayed ACK
        // would park each one for ~40ms otherwise.
        let _ = stream.set_nodelay(true);
        let Ok(mut write_half) = stream.try_clone() else {
            return;
        };

        // Encoded responses waiting for the writer. The window bounds how
        // many can be pending, so the capacity never blocks completions
        // for long; a dead writer disconnects the channel and sends fail
        // cleanly instead of blocking forever.
        let (resp_tx, resp_rx) = channel::bounded::<Vec<u8>>(cfg.max_inflight.max(cfg.max_batch));
        let pstats = Arc::clone(&core.pipeline);
        let max_batch = cfg.max_batch;
        let writer = std::thread::Builder::new()
            .name("rpc-conn-writer".into())
            .spawn(move || {
                let mut buf = Vec::new();
                while let Ok(first) = resp_rx.recv() {
                    buf.clear();
                    let mut batched = 0usize;
                    if append_frame(&mut buf, &first).is_ok() {
                        batched = 1;
                    }
                    // Opportunistically coalesce whatever has already
                    // completed, up to the batch cap — never waiting, so
                    // a lone response still flushes immediately.
                    while batched < max_batch {
                        match resp_rx.try_recv() {
                            Ok(payload) => {
                                if append_frame(&mut buf, &payload).is_ok() {
                                    batched += 1;
                                }
                            }
                            Err(_) => break,
                        }
                    }
                    if batched == 0 {
                        continue;
                    }
                    if write_half
                        .write_all(&buf)
                        .and_then(|()| write_half.flush())
                        .is_err()
                    {
                        break;
                    }
                    pstats.record_flush(batched);
                }
            });
        let Ok(writer) = writer else {
            return;
        };

        // The read-ahead window: the reader parks on `send` once
        // `max_inflight` permits are out; completing (or shedding) a
        // request returns its permit via the slot guard's drop.
        let (permit_tx, permit_rx) = channel::bounded::<()>(cfg.max_inflight);

        struct WindowSlot {
            permits: channel::Receiver<()>,
            _inflight: crate::pipeline::InflightGuard,
        }
        impl Drop for WindowSlot {
            fn drop(&mut self) {
                // Each slot owns exactly one queued permit, so this never
                // misses; dropping the slot (reply sent, request shed, or
                // closure discarded by a draining pool) reopens the window.
                let _ = self.permits.try_recv();
            }
        }

        let mut reader = BufReader::new(stream);
        loop {
            // ordering: advisory stop flag; a stale read serves at most one more frame
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let frame = match read_frame(&mut reader) {
                Ok(Some(f)) => f,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // Idle timeout between frames: re-check the stop flag.
                    continue;
                }
                Ok(None) | Err(_) => break,
            };
            let req = match Request::decode(&frame) {
                Ok(r) => r,
                Err(_) => break,
            };
            if permit_tx.send(()).is_err() {
                break;
            }
            let slot = WindowSlot {
                permits: permit_rx.clone(),
                _inflight: core.pipeline.track(),
            };
            let resp_tx = resp_tx.clone();
            core.dispatch(req, move |resp| {
                let payload = resp.encode();
                let _ = resp_tx.send(payload);
                drop(slot);
            });
        }
        // Dropping our sender lets the writer exit once every in-flight
        // request has replied (their closures hold the remaining clones).
        drop(resp_tx);
        let _ = writer.join();
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Transport counters.
    pub fn stats(&self) -> &RpcStats {
        &self.core.stats
    }

    /// The server's telemetry registry (`rpc.*` and `rpc.pool.*`).
    pub fn telemetry(&self) -> &dcperf_telemetry::Telemetry {
        &self.core.telemetry
    }

    /// Pipelining depth and batching telemetry (`rpc.pipeline.*`,
    /// `rpc.batch.*`) across all connections.
    pub fn pipeline(&self) -> &PipelineStats {
        &self.core.pipeline
    }

    /// Installs (or clears) a fault plan on the dispatch path; see
    /// [`InProcServer::install_fault_plan`].
    #[cfg(feature = "fault-injection")]
    pub fn install_fault_plan(&self, plan: Option<Arc<dcperf_resilience::FaultPlan>>) {
        self.core.install_fault_plan(plan);
    }

    /// Stops accepting, closes the pool, and joins server threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // ordering: advisory stop flag; the join below is the real synchronization
        self.stop.store(true, Ordering::Relaxed);
        // Poke the accept loop so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{TcpClient, Transport};
    use crate::frame::Status;
    use std::time::Duration;

    fn echo(req: &Request) -> Response {
        Response::ok(req.body.clone())
    }

    fn bind_echo(threads: usize) -> TcpServer {
        TcpServer::bind_full(
            "127.0.0.1:0",
            echo,
            |_| Lane::Fast,
            PoolConfig::single_lane(threads),
            PipelineConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn inproc_round_trip() {
        let server = InProcServer::start(echo, PoolConfig::single_lane(2));
        let client = server.client();
        let resp = client.call("echo", vec![1, 2, 3], None).unwrap();
        assert_eq!(resp.body, vec![1, 2, 3]);
        assert_eq!(resp.status, Status::Ok);
        server.shutdown();
    }

    #[test]
    fn inproc_concurrent_clients() {
        let server = InProcServer::start(echo, PoolConfig::single_lane(4));
        let mut handles = Vec::new();
        for t in 0..8 {
            let client = server.client();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u8 {
                    let resp = client.call("echo", vec![t, i], None).unwrap();
                    assert_eq!(resp.body, vec![t, i]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.stats().responses(), 800);
        server.shutdown();
    }

    #[test]
    fn classifier_routes_methods() {
        use std::sync::atomic::AtomicU64;
        let slow_calls = Arc::new(AtomicU64::new(0));
        let sc = Arc::clone(&slow_calls);
        let server = InProcServer::start_with_classifier(
            move |req: &Request| {
                if req.method == "miss" {
                    sc.fetch_add(1, Ordering::Relaxed);
                }
                Response::ok(vec![])
            },
            |req: &Request| {
                if req.method == "miss" {
                    Lane::Slow
                } else {
                    Lane::Fast
                }
            },
            PoolConfig::fast_slow(1, 1),
        );
        let client = server.client();
        client.call("hit", vec![], None).unwrap();
        client.call("miss", vec![], None).unwrap();
        client.call("miss", vec![], None).unwrap();
        assert_eq!(slow_calls.load(Ordering::Relaxed), 2);
        server.shutdown();
    }

    #[test]
    fn tcp_round_trip() {
        let server = bind_echo(2);
        let addr = server.local_addr();
        let client = TcpClient::connect(addr).unwrap();
        for i in 0..50u8 {
            let resp = client.call("echo", vec![i; 10], None).unwrap();
            assert_eq!(resp.body, vec![i; 10]);
        }
        server.shutdown();
    }

    #[test]
    fn tcp_multiple_connections() {
        let server = bind_echo(4);
        let addr = server.local_addr();
        let mut handles = Vec::new();
        for t in 0..4 {
            handles.push(std::thread::spawn(move || {
                let client = TcpClient::connect(addr).unwrap();
                for i in 0..25u8 {
                    let resp = client.call("echo", vec![t, i], None).unwrap();
                    assert_eq!(resp.body, vec![t, i]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn tcp_application_error_propagates() {
        let server = TcpServer::bind_full(
            "127.0.0.1:0",
            |_req: &Request| Response::error("nope"),
            |_| Lane::Fast,
            PoolConfig::single_lane(1),
            PipelineConfig::default(),
        )
        .unwrap();
        let client = TcpClient::connect(server.local_addr()).unwrap();
        let err = client.call("x", vec![], None).unwrap_err();
        assert!(err.to_string().contains("nope"));
        server.shutdown();
    }

    #[test]
    fn expired_deadline_is_shed_with_status() {
        // A handler that must never run for an already-expired request.
        let ran = Arc::new(AtomicBool::new(false));
        let ran2 = Arc::clone(&ran);
        let server = InProcServer::start(
            move |_req: &Request| {
                ran2.store(true, Ordering::Relaxed);
                Response::ok(vec![])
            },
            PoolConfig::single_lane(1),
        );
        let client = server.client();
        // 1us budget: expired by the time dispatch sees it (encode +
        // decode alone take longer).
        let err = client
            .call("x", vec![], Some(Duration::from_micros(1)))
            .unwrap_err();
        assert!(matches!(err, crate::frame::RpcError::DeadlineExceeded));
        assert!(!ran.load(Ordering::Relaxed), "expired work must not run");
        assert_eq!(server.stats().deadline_shed(), 1);
        assert_eq!(server.stats().deadline_exceeded(), 1);
        server.shutdown();
    }

    #[test]
    fn generous_deadline_completes_normally() {
        let server = InProcServer::start(echo, PoolConfig::single_lane(2));
        let client = server.client();
        let resp = client
            .call("echo", vec![7], Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(resp.body, vec![7]);
        assert_eq!(server.stats().deadline_shed(), 0);
        server.shutdown();
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn installed_fault_plan_injects_errors() {
        use dcperf_resilience::FaultPlan;
        let server = InProcServer::start(echo, PoolConfig::single_lane(2));
        // error_rate 1.0: every request fails by injection.
        let plan = Arc::new(FaultPlan::new(7).with_error_rate(1.0));
        server.install_fault_plan(Some(Arc::clone(&plan)));
        let client = server.client();
        let err = client.call("echo", vec![1], None).unwrap_err();
        assert!(matches!(err, crate::frame::RpcError::Application(_)));
        assert_eq!(plan.injected_errors(), 1);
        // Clearing the plan restores normal service.
        server.install_fault_plan(None);
        assert!(client.call("echo", vec![2], None).is_ok());
        server.shutdown();
    }

    #[test]
    fn tcp_shutdown_is_idempotent_via_drop() {
        let server = bind_echo(1);
        drop(server); // must not hang
    }
}
