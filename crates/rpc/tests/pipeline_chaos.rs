//! Chaos on the pipelined path: a `ResilientClient` driving batched
//! calls through a fault-injecting server must honor per-request
//! deadlines, and its circuit breaker must count each correlated failure
//! exactly once — a double count anywhere in the burst accounting would
//! trip the breaker a full burst early.
#![cfg(feature = "fault-injection")]

use dcperf_resilience::{BreakerConfig, CircuitBreaker, FaultPlan, LatencyFault, RetryPolicy};
use dcperf_rpc::{
    Lane, PipelineConfig, PoolConfig, Request, ResilientClient, Response, RpcError, TcpClient,
    TcpServer, Transport,
};
use dcperf_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Duration;

fn start_server() -> TcpServer {
    TcpServer::bind_full(
        "127.0.0.1:0",
        |req: &Request| Response::ok(req.body.clone()),
        |_| Lane::Fast,
        PoolConfig::single_lane(4).with_queue_depth(256),
        PipelineConfig::default(),
    )
    .expect("bind echo server")
}

#[test]
fn pipelined_batch_honors_per_request_deadlines() {
    let server = start_server();
    // Every request pays a 30ms injected stall; the attempt deadline is
    // 5ms, so the server must shed each one as deadline-exceeded instead
    // of serving it late.
    server.install_fault_plan(Some(Arc::new(
        FaultPlan::new(11).with_latency(1.0, LatencyFault::Fixed(Duration::from_millis(30))),
    )));

    let telemetry = Telemetry::new();
    let inner = TcpClient::connect(server.local_addr())
        .expect("connect")
        .with_window(8);
    let client = ResilientClient::new(inner, RetryPolicy::no_retries(), &telemetry)
        .with_attempt_deadline(Duration::from_millis(5));

    let bodies: Vec<Vec<u8>> = (0..8u64).map(|i| i.to_le_bytes().to_vec()).collect();
    let outcomes = client.call_batch("echo", bodies, None);
    assert_eq!(outcomes.len(), 8);
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Err(RpcError::DeadlineExceeded) | Err(RpcError::Timeout) => {}
            other => panic!("request {i}: expected a deadline failure, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn breaker_counts_each_correlated_failure_once() {
    let server = start_server();
    server.install_fault_plan(Some(Arc::new(
        FaultPlan::new(13).with_latency(1.0, LatencyFault::Fixed(Duration::from_millis(30))),
    )));

    let telemetry = Telemetry::new();
    let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
        min_calls: 8,
        ..BreakerConfig::default()
    }));
    let inner = TcpClient::connect(server.local_addr())
        .expect("connect")
        .with_window(4);
    let client = ResilientClient::new(inner, RetryPolicy::no_retries(), &telemetry)
        .with_attempt_deadline(Duration::from_millis(5))
        .with_breaker(Arc::clone(&breaker));

    let burst = |tag: u64| -> Vec<Vec<u8>> {
        (0..4u64)
            .map(|i| (tag << 8 | i).to_le_bytes().to_vec())
            .collect()
    };

    // Burst 1: four deadline failures. With exactly-once accounting the
    // window holds 4 outcomes — below min_calls, so the breaker must
    // still be closed. Double-counting would put 8 in the window and
    // trip it right here.
    let first = client.call_batch("echo", burst(1), None);
    assert!(first.iter().all(Result::is_err), "all injected calls fail");
    assert_eq!(
        breaker.open_transitions(),
        0,
        "4 failures < min_calls(8): a trip here means the burst was double-counted"
    );
    assert!(breaker.allow(), "breaker must still admit traffic");

    // Burst 2: four more. Now the window holds exactly 8 failures and
    // the breaker opens — once.
    let second = client.call_batch("echo", burst(2), None);
    assert!(second.iter().all(Result::is_err));
    assert_eq!(
        breaker.open_transitions(),
        1,
        "8 failures at ratio 1.0 must open the breaker exactly once"
    );
    server.shutdown();
}
