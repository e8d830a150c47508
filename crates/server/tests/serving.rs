//! End-to-end serving-plane tests: real sockets, concurrent clients,
//! epochs advancing underneath them, and admission control under a tiny
//! bound.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use uninet_core::{Engine, GraphMutation, ModelSpec, QueryMode};
use uninet_graph::generators::{rmat, RmatConfig};
use uninet_server::{serve, Client, ClientError, ErrorCode, ServeAddr, ServerConfig};

fn test_engine() -> Engine {
    let graph = rmat(&RmatConfig {
        num_nodes: 150,
        num_edges: 1000,
        weighted: true,
        seed: 7,
        ..Default::default()
    });
    let engine = Engine::builder()
        .graph(graph)
        .model(ModelSpec::DeepWalk)
        .num_walks(1)
        .walk_length(8)
        .dim(16)
        .threads(2)
        .seed(7)
        .build()
        .expect("valid configuration");
    engine.train().expect("initial training");
    engine
}

#[test]
fn concurrent_clients_observe_monotone_epochs_while_training_publishes() {
    let engine = test_engine();
    let server = serve(
        &engine,
        &ServeAddr::parse("127.0.0.1:0"),
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.addr().to_string();

    let max_seen = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let addr = addr.clone();
            let max_seen = Arc::clone(&max_seen);
            thread::spawn(move || {
                let mut client = Client::connect(addr.as_str()).expect("connect");
                let mut last_epoch = 0u64;
                for i in 0..30u32 {
                    let node = (c * 31 + i) % 150;
                    let (epoch, neighbors) =
                        client.top_k(node, 5, QueryMode::Exact).expect("top_k");
                    assert!(
                        epoch >= last_epoch,
                        "epochs must be monotone per client: {epoch} < {last_epoch}"
                    );
                    assert!(neighbors.len() <= 5);
                    for &(n, _) in &neighbors {
                        assert_ne!(n, node, "a node is not its own neighbor");
                    }
                    last_epoch = epoch;
                    let (vec_epoch, vector) = client.vector(node).expect("vector");
                    assert!(vec_epoch >= last_epoch);
                    assert_eq!(vector.expect("known node").len(), 16);
                }
                max_seen.fetch_max(last_epoch, Ordering::Relaxed);
            })
        })
        .collect();

    // Publish fresh epochs while the clients hammer the data plane; every
    // answer must come from some complete epoch, never a torn one.
    let epoch_before = engine.store().epoch();
    for _ in 0..2 {
        engine.train().expect("republish");
    }
    for c in clients {
        c.join().expect("client thread");
    }
    assert_eq!(engine.store().epoch(), epoch_before + 2);

    server.shutdown();

    // The serving plane surfaces in the engine's own telemetry.
    let metrics = engine.metrics();
    let top_k = metrics.histogram("server.top_k_ns").expect("histogram");
    assert!(top_k.count() >= 4 * 30, "per-endpoint latency recorded");
    assert!(metrics.counter("server.requests").unwrap_or(0) >= 4 * 60);
    assert!(
        metrics.counter("server.coalesced_queries").unwrap_or(0) >= 4 * 30,
        "every top_k rides a coalesced slab"
    );
    assert!(metrics.counter("server.coalesced_slabs").unwrap_or(0) > 0);
}

#[test]
fn quantized_serving_is_wire_transparent() {
    // A quantized+incremental ANN engine must look identical on the wire:
    // same protocol frames, same f32 score encoding, exact cosine scores.
    let graph = rmat(&RmatConfig {
        num_nodes: 150,
        num_edges: 1000,
        weighted: true,
        seed: 7,
        ..Default::default()
    });
    let engine = Engine::builder()
        .graph(graph)
        .model(ModelSpec::DeepWalk)
        .num_walks(1)
        .walk_length(8)
        .dim(16)
        .threads(2)
        .seed(7)
        .ann_index(true)
        .ann_quantize(true)
        .build()
        .expect("valid configuration");
    engine.train().expect("initial training");
    let snapshot = engine.snapshot();
    assert!(snapshot.is_quantized());

    let server = serve(
        &engine,
        &ServeAddr::parse("127.0.0.1:0"),
        ServerConfig::default(),
    )
    .expect("bind");
    let mut client = Client::connect(server.addr().to_string().as_str()).expect("connect");
    for mode in [QueryMode::Exact, QueryMode::Ann] {
        let (epoch, neighbors) = client.top_k(3, 5, mode).expect("top_k");
        assert_eq!(epoch, snapshot.epoch());
        assert_eq!(neighbors.len(), 5);
        for &(u, s) in &neighbors {
            let want = snapshot.cosine(3, u).expect("in range");
            assert!(
                (s - want).abs() < 1e-5,
                "{mode:?} hit {u}: wire score {s} vs exact {want}"
            );
        }
    }
    // Cosine frames are untouched by quantization: still exact f32.
    let (_, cos) = client.cosine(0, 1).expect("cosine");
    let want = snapshot.cosine(0, 1).unwrap();
    assert!((cos.unwrap() - want).abs() < 1e-6);
    drop(client);
    server.shutdown();
}

#[test]
fn batched_top_k_answers_from_one_epoch() {
    let engine = test_engine();
    let server = serve(
        &engine,
        &ServeAddr::parse("127.0.0.1:0"),
        ServerConfig::default(),
    )
    .expect("bind");
    let mut client = Client::connect(server.addr().to_string().as_str()).expect("connect");

    let nodes: Vec<u32> = (0..32).collect();
    let (epoch, rows) = client
        .top_k_batch(&nodes, 3, QueryMode::Exact)
        .expect("top_k_batch");
    assert_eq!(epoch, engine.store().epoch());
    assert_eq!(rows.len(), nodes.len());

    // The batch answer must agree with per-node exact queries at the same
    // epoch (no publishes are happening here).
    for (node, row) in nodes.iter().zip(&rows) {
        let (_, single) = client.top_k(*node, 3, QueryMode::Exact).expect("top_k");
        assert_eq!(&single, row, "batch and single answers agree for {node}");
    }
    server.shutdown();
}

#[test]
fn a_zero_admission_bound_rejects_data_plane_but_not_control_plane() {
    let engine = test_engine();
    let server = serve(
        &engine,
        &ServeAddr::parse("127.0.0.1:0"),
        ServerConfig { max_inflight: 0 },
    )
    .expect("bind");
    let mut client = Client::connect(server.addr().to_string().as_str()).expect("connect");

    let err = client.top_k(0, 5, QueryMode::Exact).expect_err("rejected");
    assert!(err.is_overloaded(), "{err}");
    let err = client.vector(0).expect_err("rejected");
    assert!(
        matches!(
            err,
            ClientError::Rejected {
                code: ErrorCode::Overloaded,
                ..
            }
        ),
        "{err}"
    );

    // Control plane stays observable while the data plane is saturated.
    assert_eq!(client.epoch().expect("epoch"), engine.store().epoch());
    let json = client.metrics_json().expect("metrics");
    assert!(json.contains("rejected_overload"), "{json}");

    server.shutdown();
    assert!(
        engine
            .metrics()
            .counter("server.rejected_overload")
            .unwrap_or(0)
            >= 2
    );
}

#[test]
fn unknown_nodes_and_malformed_frames_degrade_gracefully() {
    let engine = test_engine();
    let server = serve(
        &engine,
        &ServeAddr::parse("127.0.0.1:0"),
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.addr().to_string();

    let mut client = Client::connect(addr.as_str()).expect("connect");
    // Ids the universe never contained earn a typed UnknownNode refusal —
    // never a silent empty body, never a panic.
    let err = client.vector(9_999_999).expect_err("out-of-range node");
    assert!(err.is_unknown_node(), "{err}");
    let err = client.cosine(0, 9_999_999).expect_err("out-of-range pair");
    assert!(err.is_unknown_node(), "{err}");
    let err = client
        .top_k(9_999_999, 3, QueryMode::Exact)
        .expect_err("out-of-range top_k");
    assert!(err.is_unknown_node(), "{err}");
    let err = client
        .top_k_batch(&[0, 9_999_999], 3, QueryMode::Exact)
        .expect_err("out-of-range batch member");
    assert!(err.is_unknown_node(), "{err}");
    // The refusal is not fatal: the same connection keeps working.
    let (_, vector) = client.vector(0).expect("known node");
    assert_eq!(vector.expect("live row").len(), 16);

    // A garbage opcode earns a typed BadRequest reply, then the server
    // closes that connection — and only that connection.
    let raw = TcpStream::connect(addr.as_str()).expect("connect raw");
    let mut bad = Client::from_stream(raw);
    let err = bad.epoch_with_opcode_99().expect_err("bad opcode");
    assert!(
        matches!(
            err,
            ClientError::Rejected {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "{err}"
    );
    // The well-behaved connection is unaffected.
    assert_eq!(client.epoch().expect("epoch"), engine.store().epoch());

    server.shutdown();
    assert!(engine.metrics().counter("server.bad_requests").unwrap_or(0) >= 1);
}

#[test]
fn retired_ids_never_surface_to_concurrent_clients_across_epoch_flips() {
    // Satellite: open-world serving. One node is retired (and one arrives)
    // before serving starts; while concurrent clients hammer top_k and
    // top_k_batch, further churn flips epochs underneath them. The retired
    // id must never appear in any result row at any epoch, queries naming
    // it must earn a typed RetiredNode refusal, and ids beyond the grown
    // universe a typed UnknownNode refusal — never a stale vector.
    const N: u32 = 150;
    const RETIRED: u32 = 5;
    const ARRIVED: u32 = N; // first grown row
    let graph = rmat(&RmatConfig {
        num_nodes: N as usize,
        num_edges: 1000,
        weighted: true,
        seed: 7,
        ..Default::default()
    });
    let engine = Engine::builder()
        .graph(graph)
        .model(ModelSpec::DeepWalk)
        .num_walks(1)
        .walk_length(8)
        .dim(16)
        .threads(2)
        .seed(7)
        .allow_churn(true)
        .cold_start_burn_in(1)
        .build()
        .expect("valid configuration");
    engine.train().expect("initial training");

    // Phase 1 (before serving): retire RETIRED, admit ARRIVED and wire it in.
    let churn = vec![
        GraphMutation::RemoveNode { node: RETIRED },
        GraphMutation::AddNode { node: ARRIVED },
        GraphMutation::AddEdge {
            src: ARRIVED,
            dst: 3,
            weight: 1.0,
        },
        GraphMutation::AddEdge {
            src: ARRIVED,
            dst: 10,
            weight: 2.0,
        },
    ];
    let outcome = engine.stream(churn).unwrap().join().expect("churn session");
    assert_eq!(outcome.report.retirements, 1);
    assert_eq!(outcome.report.arrivals, 1);

    let server = serve(
        &engine,
        &ServeAddr::parse("127.0.0.1:0"),
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.addr().to_string();

    let clients: Vec<_> = (0..4)
        .map(|c: u32| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr.as_str()).expect("connect");
                for i in 0..30u32 {
                    // Probe a live node: the retired id must be absent from
                    // every row, whatever epoch the answer comes from.
                    let node = {
                        let v = (c * 37 + i) % N;
                        if v == RETIRED {
                            RETIRED + 1
                        } else {
                            v
                        }
                    };
                    let (_, neighbors) = client.top_k(node, 10, QueryMode::Exact).expect("top_k");
                    assert!(
                        neighbors.iter().all(|&(u, _)| u != RETIRED),
                        "retired id {RETIRED} leaked into top_k({node})"
                    );
                    let (_, rows) = client
                        .top_k_batch(&[node, ARRIVED], 10, QueryMode::Exact)
                        .expect("top_k_batch");
                    for row in &rows {
                        assert!(
                            row.iter().all(|&(u, _)| u != RETIRED),
                            "retired id {RETIRED} leaked into a batch row"
                        );
                    }
                    // Naming the retired id is a typed refusal on every
                    // endpoint — never a stale vector, never a panic.
                    assert!(client
                        .vector(RETIRED)
                        .expect_err("retired")
                        .is_retired_node());
                    assert!(client
                        .top_k(RETIRED, 5, QueryMode::Exact)
                        .expect_err("retired")
                        .is_retired_node());
                    assert!(client
                        .cosine(node, RETIRED)
                        .expect_err("retired")
                        .is_retired_node());
                    assert!(client
                        .top_k_batch(&[node, RETIRED], 5, QueryMode::Exact)
                        .expect_err("retired")
                        .is_retired_node());
                    // Beyond the grown universe: unknown, not retired.
                    assert!(client
                        .vector(N + 50)
                        .expect_err("unknown")
                        .is_unknown_node());
                }
            })
        })
        .collect();

    // Flip epochs underneath the clients with more churn: edge rewires plus
    // a second arrival. No additional retirement, so the clients' absence
    // assertion stays exact at every epoch they can observe.
    let mut more = vec![
        GraphMutation::AddNode { node: N + 1 },
        GraphMutation::AddEdge {
            src: N + 1,
            dst: 20,
            weight: 1.0,
        },
    ];
    for i in 0..60u32 {
        let (src, dst) = ((i * 13 + 1) % N, (i * 7 + 3) % N);
        if src != dst && src != RETIRED && dst != RETIRED {
            more.push(GraphMutation::AddEdge {
                src,
                dst,
                weight: 1.0 + (i % 5) as f32,
            });
        }
    }
    let outcome = engine.stream(more).unwrap().join().expect("second session");
    assert_eq!(outcome.report.arrivals, 1);
    for c in clients {
        c.join().expect("client thread");
    }

    // After all flips: the arrival serves, the retiree still refuses.
    let mut client = Client::connect(addr.as_str()).expect("connect");
    let (_, vector) = client.vector(ARRIVED).expect("arrived node serves");
    assert_eq!(vector.expect("live row").len(), 16);
    assert!(client
        .vector(RETIRED)
        .expect_err("still retired")
        .is_retired_node());
    let (_, neighbors) = client.top_k(3, 20, QueryMode::Exact).expect("top_k");
    assert!(neighbors.iter().all(|&(u, _)| u != RETIRED));
    server.shutdown();
}

#[test]
fn unix_socket_transport_works() {
    let engine = test_engine();
    let path = std::env::temp_dir().join(format!("uninet-serve-{}.sock", std::process::id()));
    let server = serve(
        &engine,
        &ServeAddr::Unix(path.clone()),
        ServerConfig::default(),
    )
    .expect("bind unix");
    let mut client = Client::connect_unix(&path).expect("connect unix");
    assert_eq!(client.epoch().expect("epoch"), engine.store().epoch());
    let (_, neighbors) = client.top_k(1, 4, QueryMode::Exact).expect("top_k");
    assert!(neighbors.len() <= 4);
    server.shutdown();
    assert!(!path.exists(), "the socket file is cleaned up on shutdown");
}

/// Test-only extension: speak a deliberately broken opcode.
trait BadOpcode {
    fn epoch_with_opcode_99(&mut self) -> Result<u64, ClientError>;
}

impl<S: std::io::Read + std::io::Write> BadOpcode for Client<S> {
    fn epoch_with_opcode_99(&mut self) -> Result<u64, ClientError> {
        use uninet_server::proto::{read_frame, write_frame, Response};
        let stream = self.stream_mut();
        write_frame(stream, &[99u8])?;
        let payload =
            read_frame(stream)?.ok_or_else(|| ClientError::Protocol("closed".to_string()))?;
        match Response::decode(&payload).map_err(|e| ClientError::Protocol(e.reason))? {
            Response::Epoch { epoch } => Ok(epoch),
            Response::Error { code, message } => Err(ClientError::Rejected { code, message }),
            other => Err(ClientError::Protocol(format!("unexpected {other:?}"))),
        }
    }
}
