//! Concurrency stress for the multiplexed RPC path: many client threads,
//! each keeping a pipelined window of requests in flight over its own
//! connection (and over a shared pool), with an echo oracle proving every
//! response was matched to *its* request's correlation id — a swap
//! anywhere in the window would scramble the payloads.
//!
//! Runs identically with and without `--features fault-injection` (no
//! plan is installed, so the injection hook must be inert).

use dcperf_rpc::{
    Lane, PipelineConfig, PoolConfig, Request, Response, TcpClient, TcpClientPool, Transport,
};
use std::net::SocketAddr;
use std::sync::Arc;

const THREADS: usize = 4;
const BATCHES: usize = 24;
const WINDOW: usize = 16;

/// The expected echo payload for (thread, batch, slot): unique per
/// request so any cross-wiring of correlation ids is caught by content.
fn payload(thread: usize, batch: usize, slot: usize) -> Vec<u8> {
    format!("t{thread}.b{batch}.s{slot}").into_bytes()
}

fn start_echo_server() -> (dcperf_rpc::TcpServer, SocketAddr) {
    let server = dcperf_rpc::TcpServer::bind_full(
        "127.0.0.1:0",
        |req: &Request| Response::ok(req.body.clone()),
        |_| Lane::Fast,
        PoolConfig::single_lane(4).with_queue_depth(1024),
        PipelineConfig::default(),
    )
    .expect("bind echo server");
    let addr = server.local_addr();
    (server, addr)
}

#[test]
fn pipelined_tcp_clients_match_responses_to_requests() {
    let (server, addr) = start_echo_server();
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            scope.spawn(move || {
                let mut client = TcpClient::connect(addr)
                    .expect("connect")
                    .with_window(WINDOW);
                for batch in 0..BATCHES {
                    let bodies: Vec<Vec<u8>> = (0..WINDOW)
                        .map(|slot| payload(thread, batch, slot))
                        .collect();
                    let outcomes = client.call_many("echo", bodies);
                    assert_eq!(outcomes.len(), WINDOW);
                    for (slot, outcome) in outcomes.into_iter().enumerate() {
                        let resp = outcome
                            .unwrap_or_else(|e| panic!("t{thread} b{batch} s{slot} failed: {e}"));
                        assert_eq!(
                            resp.body,
                            payload(thread, batch, slot),
                            "response body must echo the request that owns the slot"
                        );
                    }
                }
            });
        }
    });
    assert!(
        server.pipeline().flushes() > 0,
        "the batched writer must have flushed at least once"
    );
    server.shutdown();
}

#[test]
fn shared_pool_pipelines_batches_down_single_connections() {
    let (server, addr) = start_echo_server();
    let pool = Arc::new(TcpClientPool::connect(addr, 2, WINDOW).expect("pool connects"));
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let pool = Arc::clone(&pool);
            scope.spawn(move || {
                for batch in 0..BATCHES {
                    let bodies: Vec<Vec<u8>> = (0..WINDOW)
                        .map(|slot| payload(thread, batch, slot))
                        .collect();
                    let outcomes = pool.call_batch("echo", bodies, None);
                    for (slot, outcome) in outcomes.into_iter().enumerate() {
                        let resp = outcome.expect("pooled batch call succeeds");
                        assert_eq!(resp.body, payload(thread, batch, slot));
                    }
                    // Interleave some single calls through the same pool.
                    let single = pool
                        .call("echo", payload(thread, batch, usize::MAX), None)
                        .expect("pooled single call succeeds");
                    assert_eq!(single.body, payload(thread, batch, usize::MAX));
                }
            });
        }
    });
    server.shutdown();
}

#[test]
fn inproc_call_many_matches_out_of_order_completions() {
    let server = dcperf_rpc::InProcServer::start(
        |req: &Request| Response::ok(req.body.clone()),
        PoolConfig::single_lane(4).with_queue_depth(1024),
    );
    let client = server.client();
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let client = client.clone();
            scope.spawn(move || {
                for batch in 0..BATCHES {
                    let bodies: Vec<Vec<u8>> = (0..WINDOW)
                        .map(|slot| payload(thread, batch, slot))
                        .collect();
                    let outcomes = client.call_batch("echo", bodies, None);
                    for (slot, outcome) in outcomes.into_iter().enumerate() {
                        let resp = outcome.expect("in-proc batch call succeeds");
                        assert_eq!(resp.body, payload(thread, batch, slot));
                    }
                }
            });
        }
    });
    server.shutdown();
}
