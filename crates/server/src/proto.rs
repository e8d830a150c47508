//! The length-prefixed wire protocol spoken between [`crate::Client`] and
//! the server.
//!
//! Every message travels as one frame:
//!
//! ```text
//! [u32: payload length (LE)] [payload bytes]
//! ```
//!
//! The payload is a request or response encoded with the same hand-rolled
//! little-endian codec the durability plane uses (`uninet_persist::codec`) —
//! the workspace is vendored offline, so there is no serde. Requests start
//! with a `u8` opcode, responses with a `u8` tag; unknown tags and short
//! buffers decode into [`ProtoError`], never panics. Frames are capped at
//! [`MAX_FRAME_BYTES`] so a malicious or confused peer cannot make either
//! side allocate unbounded memory from a length prefix.

use std::fmt;
use std::io::{self, Read, Write};

use uninet_embedding::QueryMode;
use uninet_persist::codec::{Dec, DecodeError, Enc};

/// Upper bound on one frame's payload (16 MiB).
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Upper bound on nodes per `top_k_batch` request.
pub const MAX_BATCH_NODES: usize = 1 << 20;

const OP_VECTOR: u8 = 1;
const OP_COSINE: u8 = 2;
const OP_TOP_K: u8 = 3;
const OP_TOP_K_BATCH: u8 = 4;
const OP_METRICS: u8 = 5;
const OP_EPOCH: u8 = 6;

const RESP_VECTOR: u8 = 1;
const RESP_COSINE: u8 = 2;
const RESP_TOP_K: u8 = 3;
const RESP_TOP_K_BATCH: u8 = 4;
const RESP_METRICS: u8 = 5;
const RESP_EPOCH: u8 = 6;
const RESP_ERROR: u8 = 7;

/// A malformed frame or payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// What failed to decode.
    pub reason: String,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.reason)
    }
}

impl std::error::Error for ProtoError {}

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> Self {
        ProtoError {
            reason: e.to_string(),
        }
    }
}

fn proto_err(reason: impl Into<String>) -> ProtoError {
    ProtoError {
        reason: reason.into(),
    }
}

/// Why the server refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The admission bound was hit; retry later.
    Overloaded,
    /// The request could not be interpreted.
    BadRequest,
    /// The server failed internally while answering.
    Internal,
    /// The requested node id has never been part of the served universe.
    UnknownNode,
    /// The requested node id was retired from the universe; the server
    /// refuses to answer from its (stale) row.
    RetiredNode,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Overloaded => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::Internal => 3,
            ErrorCode::UnknownNode => 4,
            ErrorCode::RetiredNode => 5,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ProtoError> {
        match v {
            1 => Ok(ErrorCode::Overloaded),
            2 => Ok(ErrorCode::BadRequest),
            3 => Ok(ErrorCode::Internal),
            4 => Ok(ErrorCode::UnknownNode),
            5 => Ok(ErrorCode::RetiredNode),
            other => Err(proto_err(format!("unknown error code {other}"))),
        }
    }
}

fn mode_to_u8(mode: QueryMode) -> u8 {
    match mode {
        QueryMode::Ann => 0,
        QueryMode::Exact => 1,
    }
}

fn mode_from_u8(v: u8) -> Result<QueryMode, ProtoError> {
    match v {
        0 => Ok(QueryMode::Ann),
        1 => Ok(QueryMode::Exact),
        other => Err(proto_err(format!("unknown query mode {other}"))),
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The embedding vector of one node.
    Vector {
        /// Node to look up.
        node: u32,
    },
    /// Cosine similarity between two nodes.
    Cosine {
        /// First node.
        a: u32,
        /// Second node.
        b: u32,
    },
    /// The `k` most similar nodes to `node`.
    TopK {
        /// Query node.
        node: u32,
        /// Result count.
        k: u32,
        /// Exact scan or ANN index.
        mode: QueryMode,
    },
    /// A slab of top-k queries answered from one snapshot.
    TopKBatch {
        /// Query nodes.
        nodes: Vec<u32>,
        /// Result count per node.
        k: u32,
        /// Exact scan or ANN index.
        mode: QueryMode,
    },
    /// The engine's full telemetry snapshot as JSON.
    Metrics,
    /// The current serving epoch.
    Epoch,
}

impl Request {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Request::Vector { node } => {
                e.u8(OP_VECTOR);
                e.u32(*node);
            }
            Request::Cosine { a, b } => {
                e.u8(OP_COSINE);
                e.u32(*a);
                e.u32(*b);
            }
            Request::TopK { node, k, mode } => {
                e.u8(OP_TOP_K);
                e.u32(*node);
                e.u32(*k);
                e.u8(mode_to_u8(*mode));
            }
            Request::TopKBatch { nodes, k, mode } => {
                e.u8(OP_TOP_K_BATCH);
                e.u32(*k);
                e.u8(mode_to_u8(*mode));
                e.usize(nodes.len());
                for n in nodes {
                    e.u32(*n);
                }
            }
            Request::Metrics => e.u8(OP_METRICS),
            Request::Epoch => e.u8(OP_EPOCH),
        }
        e.into_bytes()
    }

    /// Decodes a frame payload into a request.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let mut d = Dec::new(bytes);
        let req = match d.u8()? {
            OP_VECTOR => Request::Vector { node: d.u32()? },
            OP_COSINE => Request::Cosine {
                a: d.u32()?,
                b: d.u32()?,
            },
            OP_TOP_K => Request::TopK {
                node: d.u32()?,
                k: d.u32()?,
                mode: mode_from_u8(d.u8()?)?,
            },
            OP_TOP_K_BATCH => {
                let k = d.u32()?;
                let mode = mode_from_u8(d.u8()?)?;
                let count = d.bounded_len(MAX_BATCH_NODES, "batch nodes")?;
                let mut nodes = Vec::with_capacity(count);
                for _ in 0..count {
                    nodes.push(d.u32()?);
                }
                Request::TopKBatch { nodes, k, mode }
            }
            OP_METRICS => Request::Metrics,
            OP_EPOCH => Request::Epoch,
            other => return Err(proto_err(format!("unknown opcode {other}"))),
        };
        d.finish()?;
        Ok(req)
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Vector`]; `None` when the node is unknown.
    Vector {
        /// Serving epoch the answer came from.
        epoch: u64,
        /// The vector, when the node exists in the snapshot.
        vector: Option<Vec<f32>>,
    },
    /// Answer to [`Request::Cosine`]; `None` when either node is unknown.
    Cosine {
        /// Serving epoch the answer came from.
        epoch: u64,
        /// The similarity, when both nodes exist.
        value: Option<f32>,
    },
    /// Answer to [`Request::TopK`].
    TopK {
        /// Serving epoch the answer came from.
        epoch: u64,
        /// `(node, similarity)` pairs, most similar first.
        neighbors: Vec<(u32, f32)>,
    },
    /// Answer to [`Request::TopKBatch`]: one row per requested node, all
    /// from the same epoch.
    TopKBatch {
        /// Serving epoch the answer came from.
        epoch: u64,
        /// One neighbor list per requested node, in request order.
        rows: Vec<Vec<(u32, f32)>>,
    },
    /// Answer to [`Request::Metrics`].
    Metrics {
        /// The telemetry snapshot as JSON.
        json: String,
    },
    /// Answer to [`Request::Epoch`].
    Epoch {
        /// Current serving epoch.
        epoch: u64,
    },
    /// The request was refused.
    Error {
        /// Why.
        code: ErrorCode,
        /// Human-readable context.
        message: String,
    },
}

fn encode_neighbors(e: &mut Enc, neighbors: &[(u32, f32)]) {
    e.usize(neighbors.len());
    for (node, score) in neighbors {
        e.u32(*node);
        e.f32(*score);
    }
}

fn decode_neighbors(d: &mut Dec) -> Result<Vec<(u32, f32)>, ProtoError> {
    let count = d.bounded_len(MAX_BATCH_NODES, "neighbors")?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let node = d.u32()?;
        let score = d.f32()?;
        out.push((node, score));
    }
    Ok(out)
}

impl Response {
    /// Encodes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Response::Vector { epoch, vector } => {
                e.u8(RESP_VECTOR);
                e.u64(*epoch);
                match vector {
                    None => e.u8(0),
                    Some(v) => {
                        e.u8(1);
                        e.usize(v.len());
                        for x in v {
                            e.f32(*x);
                        }
                    }
                }
            }
            Response::Cosine { epoch, value } => {
                e.u8(RESP_COSINE);
                e.u64(*epoch);
                match value {
                    None => e.u8(0),
                    Some(v) => {
                        e.u8(1);
                        e.f32(*v);
                    }
                }
            }
            Response::TopK { epoch, neighbors } => {
                e.u8(RESP_TOP_K);
                e.u64(*epoch);
                encode_neighbors(&mut e, neighbors);
            }
            Response::TopKBatch { epoch, rows } => {
                e.u8(RESP_TOP_K_BATCH);
                e.u64(*epoch);
                e.usize(rows.len());
                for row in rows {
                    encode_neighbors(&mut e, row);
                }
            }
            Response::Metrics { json } => {
                e.u8(RESP_METRICS);
                e.str(json);
            }
            Response::Epoch { epoch } => {
                e.u8(RESP_EPOCH);
                e.u64(*epoch);
            }
            Response::Error { code, message } => {
                e.u8(RESP_ERROR);
                e.u8(code.to_u8());
                e.str(message);
            }
        }
        e.into_bytes()
    }

    /// Decodes a frame payload into a response.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let mut d = Dec::new(bytes);
        let resp = match d.u8()? {
            RESP_VECTOR => {
                let epoch = d.u64()?;
                let vector = match d.u8()? {
                    0 => None,
                    _ => {
                        let dim = d.bounded_len(MAX_FRAME_BYTES / 4, "vector dim")?;
                        let mut v = Vec::with_capacity(dim);
                        for _ in 0..dim {
                            v.push(d.f32()?);
                        }
                        Some(v)
                    }
                };
                Response::Vector { epoch, vector }
            }
            RESP_COSINE => {
                let epoch = d.u64()?;
                let value = match d.u8()? {
                    0 => None,
                    _ => Some(d.f32()?),
                };
                Response::Cosine { epoch, value }
            }
            RESP_TOP_K => Response::TopK {
                epoch: d.u64()?,
                neighbors: decode_neighbors(&mut d)?,
            },
            RESP_TOP_K_BATCH => {
                let epoch = d.u64()?;
                let count = d.bounded_len(MAX_BATCH_NODES, "batch rows")?;
                let mut rows = Vec::with_capacity(count);
                for _ in 0..count {
                    rows.push(decode_neighbors(&mut d)?);
                }
                Response::TopKBatch { epoch, rows }
            }
            RESP_METRICS => Response::Metrics { json: d.str()? },
            RESP_EPOCH => Response::Epoch { epoch: d.u64()? },
            RESP_ERROR => Response::Error {
                code: ErrorCode::from_u8(d.u8()?)?,
                message: d.str()?,
            },
            other => return Err(proto_err(format!("unknown response tag {other}"))),
        };
        d.finish()?;
        Ok(resp)
    }
}

/// Writes one frame: `u32` length prefix followed by the payload, handed to
/// `w` in one `write_all`, so a socket with `TCP_NODELAY` sends one segment
/// for a small frame instead of two.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                payload.len()
            ),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` means the peer closed the connection cleanly
/// (EOF before any length byte); EOF mid-frame is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Vector { node: 7 },
            Request::Cosine { a: 1, b: 2 },
            Request::TopK {
                node: 3,
                k: 10,
                mode: QueryMode::Exact,
            },
            Request::TopKBatch {
                nodes: vec![0, 5, 9],
                k: 4,
                mode: QueryMode::Ann,
            },
            Request::Metrics,
            Request::Epoch,
        ];
        for req in cases {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Vector {
                epoch: 3,
                vector: Some(vec![0.5, -1.25]),
            },
            Response::Vector {
                epoch: 3,
                vector: None,
            },
            Response::Cosine {
                epoch: 1,
                value: Some(0.75),
            },
            Response::Cosine {
                epoch: 1,
                value: None,
            },
            Response::TopK {
                epoch: 9,
                neighbors: vec![(1, 0.9), (4, 0.5)],
            },
            Response::TopKBatch {
                epoch: 2,
                rows: vec![vec![(1, 0.5)], vec![]],
            },
            Response::Metrics {
                json: "{\"a\":1}".to_string(),
            },
            Response::Epoch { epoch: 42 },
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "try later".to_string(),
            },
            Response::Error {
                code: ErrorCode::UnknownNode,
                message: "node 999 is outside the universe".to_string(),
            },
            Response::Error {
                code: ErrorCode::RetiredNode,
                message: "node 5 was retired".to_string(),
            },
        ];
        for resp in cases {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frames_and_bad_opcodes_error_not_panic() {
        let mut cursor = std::io::Cursor::new(vec![5u8, 0, 0]);
        assert!(read_frame(&mut cursor).is_err(), "EOF mid-length");

        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99]).is_err(), "unknown opcode");
        let mut good = Request::Epoch.encode();
        good.push(0);
        assert!(Request::decode(&good).is_err(), "trailing bytes rejected");
        assert!(Response::decode(&[99]).is_err(), "unknown tag");
    }
}
