//! Edge-update stream I/O: a plain-text event format, semantic validation
//! against the open-world node universe, and batching helpers.
//!
//! Format (whitespace separated, `#`/`%` comments ignored):
//!
//! ```text
//! add <src> <dst> [weight]     # or: + <src> <dst> [weight]
//! del <src> <dst>              # or: - <src> <dst>
//! w   <src> <dst> <weight>     # or: ~ <src> <dst> <weight>   (reweight)
//! addnode <node>               # or: +n <node>   (node arrival)
//! rmnode  <node>               # or: -n <node>   (node retirement)
//! ```
//!
//! [`read_update_stream_validated`] is the one reader: through a
//! [`StreamValidator`] it tracks the id lifecycle (live → retired →
//! rejoined) so that ids outside the universe, duplicate arrivals,
//! retirements of unknown ids and edge ops naming retired endpoints are
//! reported as typed [`ParseIssue`]s with `file:line` context instead of
//! being silently skipped downstream.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};

use uninet_graph::NodeId;

use crate::mutation::{GraphMutation, UpdateBatch};

/// Why a single event line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseIssue {
    /// A required field was absent.
    MissingField(&'static str),
    /// A field was present but not a valid number.
    InvalidNumber {
        /// Which field failed (`src`, `dst`, `weight`).
        field: &'static str,
        /// The offending token.
        token: String,
    },
    /// The opcode was not one of `add`/`del`/`w`/`addnode`/`rmnode` (or
    /// their aliases).
    UnknownOp(String),
    /// An `addnode` named an id that is already live.
    DuplicateAddNode {
        /// The duplicated id.
        node: NodeId,
    },
    /// An op referenced an id that was never declared (out of range of the
    /// initial universe and never introduced by an `addnode`).
    UnknownNode {
        /// The undeclared id.
        node: NodeId,
        /// The op that referenced it.
        op: &'static str,
    },
    /// An op referenced an id that has been retired by an earlier `rmnode`.
    RetiredEndpoint {
        /// The retired id.
        node: NodeId,
        /// The op that referenced it.
        op: &'static str,
    },
}

impl std::fmt::Display for ParseIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseIssue::MissingField(field) => write!(f, "missing {field}"),
            ParseIssue::InvalidNumber { field, token } => {
                write!(f, "invalid {field}: {token:?}")
            }
            ParseIssue::UnknownOp(op) => write!(f, "unknown op {op:?}"),
            ParseIssue::DuplicateAddNode { node } => {
                write!(f, "duplicate addnode: id {node} is already live")
            }
            ParseIssue::UnknownNode { node, op } => {
                write!(f, "{op} references undeclared node {node}")
            }
            ParseIssue::RetiredEndpoint { node, op } => {
                write!(f, "{op} references retired node {node}")
            }
        }
    }
}

impl std::error::Error for ParseIssue {}

/// Errors produced while reading an update stream.
///
/// Both variants carry the source file (when the stream came from one) so
/// `Display` can point at `file:line` like a compiler diagnostic.
#[derive(Debug)]
pub enum StreamError {
    /// A line could not be parsed as an update event.
    Parse {
        /// Source file, if the stream was read from one.
        path: Option<PathBuf>,
        /// 1-based line number.
        line: usize,
        /// The offending line content.
        content: String,
        /// What exactly was wrong with the line.
        issue: ParseIssue,
    },
    /// An I/O error occurred.
    Io {
        /// Source file, if the stream was read from one.
        path: Option<PathBuf>,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl StreamError {
    /// Attaches a source path to an error that was produced without one.
    pub fn with_path<P: AsRef<Path>>(self, p: P) -> Self {
        let p = p.as_ref().to_path_buf();
        match self {
            StreamError::Parse {
                line,
                content,
                issue,
                ..
            } => StreamError::Parse {
                path: Some(p),
                line,
                content,
                issue,
            },
            StreamError::Io { source, .. } => StreamError::Io {
                path: Some(p),
                source,
            },
        }
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Parse {
                path,
                line,
                content,
                issue,
            } => match path {
                Some(p) => write!(
                    f,
                    "cannot parse update at {}:{line}: {content:?} ({issue})",
                    p.display()
                ),
                None => write!(
                    f,
                    "cannot parse update at line {line}: {content:?} ({issue})"
                ),
            },
            StreamError::Io { path, source } => match path {
                Some(p) => write!(f, "cannot read update stream {}: {source}", p.display()),
                None => write!(f, "i/o error: {source}"),
            },
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Parse { issue, .. } => Some(issue),
            StreamError::Io { source, .. } => Some(source),
        }
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io {
            path: None,
            source: e,
        }
    }
}

/// Parses one event line (`None` for blanks and comments).
pub fn parse_line(line: &str) -> Result<Option<GraphMutation>, ParseIssue> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
        return Ok(None);
    }
    let mut it = line.split_whitespace();
    let op = it.next().ok_or(ParseIssue::MissingField("op"))?;
    // Validate the opcode first so a garbage line is diagnosed as an unknown
    // op rather than as a bad operand of an op that was never recognized.
    if !matches!(
        op,
        "add" | "+" | "del" | "-" | "w" | "~" | "reweight" | "addnode" | "+n" | "rmnode" | "-n"
    ) {
        return Err(ParseIssue::UnknownOp(op.to_string()));
    }
    let node = |tok: Option<&str>, field: &'static str| -> Result<NodeId, ParseIssue> {
        let tok = tok.ok_or(ParseIssue::MissingField(field))?;
        tok.parse().map_err(|_| ParseIssue::InvalidNumber {
            field,
            token: tok.to_string(),
        })
    };
    // Node ops carry a single id operand.
    match op {
        "addnode" | "+n" => {
            return Ok(Some(GraphMutation::AddNode {
                node: node(it.next(), "node")?,
            }))
        }
        "rmnode" | "-n" => {
            return Ok(Some(GraphMutation::RemoveNode {
                node: node(it.next(), "node")?,
            }))
        }
        _ => {}
    }
    let src = node(it.next(), "src")?;
    let dst = node(it.next(), "dst")?;
    let weight =
        |it: &mut dyn Iterator<Item = &str>, default: Option<f32>| -> Result<f32, ParseIssue> {
            match it.next() {
                Some(tok) => tok.parse::<f32>().map_err(|_| ParseIssue::InvalidNumber {
                    field: "weight",
                    token: tok.to_string(),
                }),
                None => default.ok_or(ParseIssue::MissingField("weight")),
            }
        };
    let m = match op {
        "add" | "+" => GraphMutation::AddEdge {
            src,
            dst,
            weight: weight(&mut it, Some(1.0))?,
        },
        "del" | "-" => GraphMutation::RemoveEdge { src, dst },
        "w" | "~" | "reweight" => GraphMutation::UpdateWeight {
            src,
            dst,
            weight: weight(&mut it, None)?,
        },
        _ => unreachable!("opcode validated above"),
    };
    Ok(Some(m))
}

/// Lifecycle of one id as seen by the [`StreamValidator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IdState {
    /// Declared and usable as an edge endpoint.
    Live,
    /// Retired by an `rmnode`; may rejoin via `addnode`.
    Retired,
    /// Inside the id range but never declared (skipped by a growth).
    Vacant,
}

/// Tracks the node-universe lifecycle across a stream of mutations so that
/// semantically invalid events are rejected with a typed [`ParseIssue`]
/// instead of being silently dropped by the dynamic graph later.
///
/// The validator mirrors [`crate::DynamicGraph`]'s acceptance rules exactly:
/// ids `0..initial_nodes` start live, `addnode` grows the universe (skipped
/// ids are *vacant*, not live), `rmnode` retires, a retired id may rejoin.
#[derive(Debug, Clone)]
pub struct StreamValidator {
    states: Vec<IdState>,
}

impl StreamValidator {
    /// A validator over a universe whose ids `0..initial_nodes` are live.
    pub fn new(initial_nodes: usize) -> Self {
        StreamValidator {
            states: vec![IdState::Live; initial_nodes],
        }
    }

    fn state(&self, v: NodeId) -> IdState {
        self.states
            .get(v as usize)
            .copied()
            .unwrap_or(IdState::Vacant)
    }

    fn endpoint_ok(&self, v: NodeId, op: &'static str) -> Result<(), ParseIssue> {
        match self.state(v) {
            IdState::Live => Ok(()),
            IdState::Retired => Err(ParseIssue::RetiredEndpoint { node: v, op }),
            IdState::Vacant => Err(ParseIssue::UnknownNode { node: v, op }),
        }
    }

    /// Checks `m` against the current universe and, when valid, records its
    /// effect on the id lifecycle.
    pub fn validate(&mut self, m: &GraphMutation) -> Result<(), ParseIssue> {
        match *m {
            GraphMutation::AddNode { node } => {
                if self.state(node) == IdState::Live {
                    return Err(ParseIssue::DuplicateAddNode { node });
                }
                let idx = node as usize;
                if idx >= self.states.len() {
                    self.states.resize(idx + 1, IdState::Vacant);
                }
                self.states[idx] = IdState::Live;
                Ok(())
            }
            GraphMutation::RemoveNode { node } => {
                self.endpoint_ok(node, "rmnode")?;
                self.states[node as usize] = IdState::Retired;
                Ok(())
            }
            GraphMutation::AddEdge { src, dst, .. } => {
                self.endpoint_ok(src, "add")?;
                self.endpoint_ok(dst, "add")
            }
            GraphMutation::RemoveEdge { src, dst } => {
                self.endpoint_ok(src, "del")?;
                self.endpoint_ok(dst, "del")
            }
            GraphMutation::UpdateWeight { src, dst, .. } => {
                self.endpoint_ok(src, "w")?;
                self.endpoint_ok(dst, "w")
            }
        }
    }
}

/// Reads a full update stream from any reader, validating every event
/// against a node universe whose ids `0..initial_nodes` start live: ids
/// outside the universe, duplicate arrivals, retirements of undeclared ids
/// and edge ops naming retired/undeclared endpoints are typed parse errors
/// with line context, never silent skips. A reader over a file attaches the
/// path with [`StreamError::with_path`].
pub fn read_update_stream_validated<R: Read>(
    reader: R,
    initial_nodes: usize,
) -> Result<Vec<GraphMutation>, StreamError> {
    let mut validator = StreamValidator::new(initial_nodes);
    let mut out = Vec::new();
    for (i, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let parsed = parse_line(&line).and_then(|m| {
            if let Some(m) = &m {
                validator.validate(m)?;
            }
            Ok(m)
        });
        match parsed {
            Ok(Some(m)) => out.push(m),
            Ok(None) => {}
            Err(issue) => {
                return Err(StreamError::Parse {
                    path: None,
                    line: i + 1,
                    content: line,
                    issue,
                })
            }
        }
    }
    Ok(out)
}

/// Splits a mutation list into batches of at most `batch_size` events.
pub fn into_batches(mutations: &[GraphMutation], batch_size: usize) -> Vec<UpdateBatch> {
    let batch_size = batch_size.max(1);
    mutations
        .chunks(batch_size)
        .map(|c| UpdateBatch::from_mutations(c.to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_ops_and_aliases() {
        let text = "\
# comment
add 0 1 2.5
+ 1 2
del 2 3
- 3 4
w 4 5 0.5
~ 5 6 1.5
reweight 6 7 2.0
";
        let ms = read_update_stream_validated(text.as_bytes(), 8).unwrap();
        assert_eq!(ms.len(), 7);
        assert_eq!(
            ms[0],
            GraphMutation::AddEdge {
                src: 0,
                dst: 1,
                weight: 2.5
            }
        );
        assert_eq!(
            ms[1],
            GraphMutation::AddEdge {
                src: 1,
                dst: 2,
                weight: 1.0
            }
        );
        assert_eq!(ms[2], GraphMutation::RemoveEdge { src: 2, dst: 3 });
        assert_eq!(
            ms[4],
            GraphMutation::UpdateWeight {
                src: 4,
                dst: 5,
                weight: 0.5
            }
        );
    }

    #[test]
    fn reports_line_numbers_on_errors() {
        let err = read_update_stream_validated("add 0 1\nbogus line\n".as_bytes(), 2).unwrap_err();
        match &err {
            StreamError::Parse { line, issue, .. } => {
                assert_eq!(*line, 2);
                assert_eq!(*issue, ParseIssue::UnknownOp("bogus".to_string()));
            }
            other => panic!("unexpected: {other}"),
        }
        assert!(format!("{err}").contains("line 2"));
    }

    #[test]
    fn file_errors_carry_path_and_line_in_display() {
        let err = read_update_stream_validated("w 1 nan-ish 2.0\n".as_bytes(), 2)
            .unwrap_err()
            .with_path("updates.txt");
        let msg = format!("{err}");
        assert!(msg.contains("updates.txt:1"), "missing file:line in {msg}");
        assert!(msg.contains("invalid dst"), "missing issue in {msg}");

        let gone = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let missing = StreamError::from(gone).with_path("/nonexistent/updates.txt");
        assert!(format!("{missing}").contains("/nonexistent/updates.txt"));
    }

    #[test]
    fn parse_issues_are_typed() {
        assert_eq!(
            parse_line("add").unwrap_err(),
            ParseIssue::MissingField("src")
        );
        assert_eq!(
            parse_line("add 0").unwrap_err(),
            ParseIssue::MissingField("dst")
        );
        assert_eq!(
            parse_line("add x 1").unwrap_err(),
            ParseIssue::InvalidNumber {
                field: "src",
                token: "x".to_string()
            }
        );
        assert_eq!(
            parse_line("w 0 1 heavy").unwrap_err(),
            ParseIssue::InvalidNumber {
                field: "weight",
                token: "heavy".to_string()
            }
        );
        assert_eq!(
            parse_line("frob 0 1").unwrap_err(),
            ParseIssue::UnknownOp("frob".to_string())
        );
    }

    #[test]
    fn reweight_requires_weight() {
        assert!(parse_line("w 1 2").is_err());
        assert!(parse_line("w 1 2 3.0").unwrap().is_some());
        assert!(parse_line("   ").unwrap().is_none());
        assert!(parse_line("# x").unwrap().is_none());
    }

    #[test]
    fn parses_node_ops_and_aliases() {
        let text = "addnode 9\n+n 10\nrmnode 9\n-n 10\n";
        let ms = read_update_stream_validated(text.as_bytes(), 0).unwrap();
        assert_eq!(ms[0], GraphMutation::AddNode { node: 9 });
        assert_eq!(ms[1], GraphMutation::AddNode { node: 10 });
        assert_eq!(ms[2], GraphMutation::RemoveNode { node: 9 });
        assert_eq!(ms[3], GraphMutation::RemoveNode { node: 10 });
        assert_eq!(
            parse_line("addnode").unwrap_err(),
            ParseIssue::MissingField("node")
        );
        assert_eq!(
            parse_line("rmnode seven").unwrap_err(),
            ParseIssue::InvalidNumber {
                field: "node",
                token: "seven".to_string()
            }
        );
    }

    #[test]
    fn validator_accepts_legal_lifecycle() {
        // Universe 0..3 live; 5 arrives (4 stays vacant), takes edges,
        // retires, rejoins.
        let text = "\
addnode 5
add 5 0 2.0
rmnode 5
addnode 5
add 5 1
rmnode 2
";
        let ms = read_update_stream_validated(text.as_bytes(), 3).unwrap();
        assert_eq!(ms.len(), 6);
    }

    #[test]
    fn validator_rejects_duplicate_addnode() {
        let err = read_update_stream_validated("addnode 1\n".as_bytes(), 3).unwrap_err();
        match err {
            StreamError::Parse { line, issue, .. } => {
                assert_eq!(line, 1);
                assert_eq!(issue, ParseIssue::DuplicateAddNode { node: 1 });
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn validator_rejects_unknown_and_vacant_ids() {
        // rmnode of an id past the universe.
        let err = read_update_stream_validated("rmnode 7\n".as_bytes(), 3).unwrap_err();
        match err {
            StreamError::Parse { issue, .. } => {
                assert_eq!(
                    issue,
                    ParseIssue::UnknownNode {
                        node: 7,
                        op: "rmnode"
                    }
                );
            }
            other => panic!("unexpected: {other}"),
        }
        // Growth to id 5 leaves 4 vacant: edge ops on 4 are unknown-node.
        let err = read_update_stream_validated("addnode 5\nadd 0 4\n".as_bytes(), 3).unwrap_err();
        match err {
            StreamError::Parse { line, issue, .. } => {
                assert_eq!(line, 2);
                assert_eq!(issue, ParseIssue::UnknownNode { node: 4, op: "add" });
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn validator_rejects_retired_endpoints() {
        let text = "rmnode 1\nw 0 1 2.0\n";
        let err = read_update_stream_validated(text.as_bytes(), 3).unwrap_err();
        match err {
            StreamError::Parse { line, issue, .. } => {
                assert_eq!(line, 2);
                assert_eq!(issue, ParseIssue::RetiredEndpoint { node: 1, op: "w" });
            }
            other => panic!("unexpected: {other}"),
        }
        let msg = format!(
            "{}",
            read_update_stream_validated("del 0 1\nrmnode 0\nadd 0 2\n".as_bytes(), 3)
                .unwrap_err()
                .with_path("churn.txt")
        );
        assert!(msg.contains("churn.txt:3"), "missing file:line in {msg}");
        assert!(msg.contains("retired node 0"), "missing issue in {msg}");
    }

    #[test]
    fn batching_splits_evenly() {
        let ms: Vec<GraphMutation> = (0..10)
            .map(|i| GraphMutation::UpdateWeight {
                src: i,
                dst: i + 1,
                weight: 1.0,
            })
            .collect();
        let batches = into_batches(&ms, 4);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 4);
        assert_eq!(batches[2].len(), 2);
        assert!(batches.iter().all(|b| b.is_weight_only()));
    }
}
