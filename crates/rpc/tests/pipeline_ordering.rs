//! Out-of-order completion: a slow request at the head of a pipelined
//! connection must not head-of-line-block the fast requests queued behind
//! it. The raw-stream client here writes four frames back-to-back and
//! observes the order responses actually come back in.

use dcperf_rpc::frame::{read_frame, write_frame};
use dcperf_rpc::{
    Lane, PipelineConfig, PoolConfig, Request, Response, TcpClient, TcpServer, Transport,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

const SLOW_MS: u64 = 150;

fn start_fast_slow_server() -> TcpServer {
    TcpServer::bind_full(
        "127.0.0.1:0",
        |req: &Request| {
            if req.method == "slow" {
                std::thread::sleep(Duration::from_millis(SLOW_MS));
            }
            Response::ok(req.body.clone())
        },
        |req: &Request| {
            if req.method == "slow" {
                Lane::Slow
            } else {
                Lane::Fast
            }
        },
        PoolConfig::fast_slow(2, 2).with_queue_depth(256),
        PipelineConfig::default(),
    )
    .expect("bind fast/slow server")
}

#[test]
fn slow_head_does_not_block_fast_tail() {
    let server = start_fast_slow_server();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // One slow request first, three fast ones right behind it, written
    // back-to-back before reading anything.
    let mut burst = Vec::new();
    for (corr, method) in [(1u64, "slow"), (2, "fast"), (3, "fast"), (4, "fast")] {
        let mut req = Request::new(method, corr.to_le_bytes().to_vec());
        req.seq = corr;
        req.corr = corr;
        write_frame(&mut burst, &req.encode()).expect("encode burst");
    }
    stream.write_all(&burst).expect("send burst");
    stream.flush().expect("flush burst");

    let mut arrived = Vec::new();
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    while arrived.len() < 4 {
        let frame = read_frame(&mut reader)
            .expect("read response frame")
            .expect("connection stays open until all four responses");
        let resp = Response::decode(&frame).expect("response decodes");
        assert!(resp.is_ok(), "all four requests succeed");
        assert_eq!(
            resp.body,
            resp.corr.to_le_bytes().to_vec(),
            "payload rides with its correlation id"
        );
        arrived.push(resp.corr);
    }

    let mut sorted = arrived.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![1, 2, 3, 4], "every correlation id arrives");
    assert_ne!(
        arrived[0], 1,
        "a fast response must overtake the slow head (arrival order {arrived:?})"
    );
    assert_eq!(
        arrived[3], 1,
        "the slow request completes last (arrival order {arrived:?})"
    );
    assert!(
        server.pipeline().inflight_peak() > 1,
        "the window must have held multiple requests in flight, peak={}",
        server.pipeline().inflight_peak()
    );
    server.shutdown();
}

#[test]
fn disabled_pipeline_serializes_the_window() {
    // With max_inflight == 1 the same burst is served strictly in order:
    // the one-request-per-turn degenerate mode.
    let server = TcpServer::bind_full(
        "127.0.0.1:0",
        |req: &Request| {
            if req.method == "slow" {
                std::thread::sleep(Duration::from_millis(40));
            }
            Response::ok(req.body.clone())
        },
        |_| Lane::Fast,
        PoolConfig::single_lane(4).with_queue_depth(256),
        PipelineConfig::disabled(),
    )
    .expect("bind serialized server");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    let mut burst = Vec::new();
    for (corr, method) in [(1u64, "slow"), (2, "fast"), (3, "fast")] {
        let mut req = Request::new(method, vec![]);
        req.seq = corr;
        req.corr = corr;
        write_frame(&mut burst, &req.encode()).expect("encode burst");
    }
    stream.write_all(&burst).expect("send burst");

    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut arrived = Vec::new();
    while arrived.len() < 3 {
        let frame = read_frame(&mut reader).expect("read").expect("open");
        arrived.push(Response::decode(&frame).expect("decodes").corr);
    }
    assert_eq!(arrived, vec![1, 2, 3], "one-at-a-time mode preserves order");
    server.shutdown();
}

#[test]
fn pipelining_client_works_against_disabled_server() {
    let server = TcpServer::bind_full(
        "127.0.0.1:0",
        |req: &Request| Response::ok(req.body.clone()),
        |_| Lane::Fast,
        PoolConfig::single_lane(2).with_queue_depth(64),
        PipelineConfig::disabled(),
    )
    .expect("bind echo server");
    let mut client = TcpClient::connect(server.local_addr())
        .expect("connect")
        .with_window(8);

    // Single calls.
    for i in 0..4u64 {
        let resp = client
            .call("echo", i.to_le_bytes().to_vec(), None)
            .expect("call");
        assert_eq!(resp.body, i.to_le_bytes().to_vec());
    }

    // A full batch: the disabled server serves the window one at a time
    // (in order), which the correlation matching handles transparently.
    let bodies: Vec<Vec<u8>> = (0..8u64).map(|i| i.to_le_bytes().to_vec()).collect();
    for (i, outcome) in client.call_many("echo", bodies).into_iter().enumerate() {
        let resp = outcome.expect("batched call against disabled server succeeds");
        assert_eq!(resp.body, (i as u64).to_le_bytes().to_vec());
    }
    server.shutdown();
}
