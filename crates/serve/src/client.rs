//! A synchronous client for the amoe-serve protocol, with a pipelined
//! `submit`/`poll` API.
//!
//! A client may keep several scores in flight at once:
//! [`Client::submit`] writes a `SCORE` without waiting, and
//! [`Client::poll`] / [`Client::wait`] read completions in whatever
//! order the server's batcher shards finish them, matched back to their
//! request by correlation id. [`Client::score`] is `submit` + `wait`.
//! Replies for ids that were never submitted (or already answered) are
//! protocol errors — the client never silently trusts reply ordering.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{self, FeatureRow, Request, Response};

/// What a serve call can fail with.
#[derive(Debug)]
pub enum ServeError {
    /// Transport failure.
    Io(io::Error),
    /// The server shed the request under load; retry later or
    /// elsewhere.
    Overloaded,
    /// The server answered with an error message (validation, bad
    /// checkpoint, shutdown in progress, ...).
    Server(String),
    /// The peer violated the wire protocol.
    Protocol(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Overloaded => write!(f, "server overloaded"),
            ServeError::Server(m) => write!(f, "server error: {m}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// One finished pipelined request: which request, and how it ended.
#[derive(Debug)]
pub struct Completion {
    /// The id [`Client::submit`] returned for this request.
    pub request_id: u64,
    /// One score per submitted row in row order, or the request's own
    /// failure ([`ServeError::Overloaded`], a validation error, ...).
    pub result: Result<Vec<f32>, ServeError>,
}

/// One connection to an amoe-serve server. Use one client per thread
/// for concurrency.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    /// Submitted but not yet completed request ids → expected row
    /// count.
    outstanding: HashMap<u64, usize>,
    /// Completions read off the wire while looking for something else
    /// (admin replies, a different `wait` target), in arrival order.
    completed: VecDeque<Completion>,
}

impl Client {
    /// Connects and exchanges hellos. A server that answers with
    /// another protocol version is refused.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        protocol::write_hello(&mut stream, protocol::VERSION)?;
        protocol::read_hello(&mut stream)
            .and_then(protocol::negotiate)
            .map_err(|e| ServeError::Protocol(e.to_string()))?;
        Ok(Client {
            stream,
            next_id: 1,
            outstanding: HashMap::new(),
            completed: VecDeque::new(),
        })
    }

    /// Requests submitted or completed but not yet handed to the
    /// caller.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.outstanding.len() + self.completed.len()
    }

    fn read_response(&mut self) -> Result<Response, ServeError> {
        let payload = protocol::read_frame(&mut self.stream)?;
        Response::decode(&payload).map_err(|e| ServeError::Protocol(e.to_string()))
    }

    /// Writes an admin request and blocks for its reply. Score
    /// completions may arrive first; they are stashed for a later
    /// [`Client::poll`].
    fn round_trip(&mut self, request: &Request) -> Result<Response, ServeError> {
        protocol::write_frame(&mut self.stream, &request.encode())?;
        loop {
            let resp = self.read_response()?;
            if self.is_inflight_completion(&resp) {
                let done = self.take_completion(resp)?;
                self.completed.push_back(done);
                continue;
            }
            return Ok(resp);
        }
    }

    /// Is this frame the completion of a request we have in flight?
    fn is_inflight_completion(&self, resp: &Response) -> bool {
        match resp {
            Response::Scores { request_id, .. } | Response::ScoreError { request_id, .. } => {
                self.outstanding.contains_key(request_id)
            }
            _ => false,
        }
    }

    /// Resolves a score completion frame against the outstanding set.
    /// A completion for an id we never submitted (or already resolved)
    /// means the server lost track of the conversation — that is a
    /// connection-level protocol error, not a per-request failure.
    fn take_completion(&mut self, resp: Response) -> Result<Completion, ServeError> {
        match resp {
            Response::Scores { request_id, scores } => {
                let Some(expected_rows) = self.outstanding.remove(&request_id) else {
                    return Err(ServeError::Protocol(format!(
                        "scores for unknown request id {request_id}"
                    )));
                };
                let result = if scores.len() == expected_rows {
                    Ok(scores)
                } else {
                    Err(ServeError::Protocol(format!(
                        "{} scores for {} rows",
                        scores.len(),
                        expected_rows
                    )))
                };
                Ok(Completion { request_id, result })
            }
            Response::ScoreError {
                request_id,
                overloaded,
                message,
            } => {
                if self.outstanding.remove(&request_id).is_none() {
                    return Err(ServeError::Protocol(format!(
                        "score error for unknown request id {request_id}"
                    )));
                }
                let result = if overloaded {
                    Err(ServeError::Overloaded)
                } else {
                    Err(ServeError::Server(message))
                };
                Ok(Completion { request_id, result })
            }
            other => Err(ServeError::Protocol(format!(
                "unexpected response {other:?} while awaiting scores"
            ))),
        }
    }

    /// Submits a score request without waiting for its reply; returns
    /// the correlation id to pass to [`Client::wait`] (or match
    /// against [`Client::poll`] completions).
    pub fn submit(&mut self, rows: &[FeatureRow]) -> Result<u64, ServeError> {
        self.submit_inner(rows, 0)
    }

    /// Like [`Client::submit`], but asks the server to trace this
    /// request under `trace_id` (non-zero; bypasses trace sampling).
    pub fn submit_traced(&mut self, rows: &[FeatureRow], trace_id: u64) -> Result<u64, ServeError> {
        if trace_id == 0 {
            return Err(ServeError::Protocol("trace_id must be non-zero".into()));
        }
        self.submit_inner(rows, trace_id)
    }

    fn submit_inner(&mut self, rows: &[FeatureRow], trace_id: u64) -> Result<u64, ServeError> {
        let request_id = self.next_id;
        self.next_id += 1;
        let request = Request::Score {
            request_id,
            trace_id,
            rows: rows.to_vec(),
        };
        protocol::write_frame(&mut self.stream, &request.encode())?;
        self.outstanding.insert(request_id, rows.len());
        Ok(request_id)
    }

    /// Returns the next completion, in whichever order the server
    /// finished them: a previously stashed one if available, otherwise
    /// blocks on the wire. Errors with [`ServeError::Protocol`] when
    /// nothing is in flight.
    pub fn poll(&mut self) -> Result<Completion, ServeError> {
        if let Some(done) = self.completed.pop_front() {
            return Ok(done);
        }
        if self.outstanding.is_empty() {
            return Err(ServeError::Protocol(
                "poll with no requests in flight".into(),
            ));
        }
        let resp = self.read_response()?;
        self.take_completion(resp)
    }

    /// Blocks until `request_id` completes, stashing any other
    /// completions that arrive first for later [`Client::poll`] calls.
    pub fn wait(&mut self, request_id: u64) -> Result<Vec<f32>, ServeError> {
        if let Some(at) = self
            .completed
            .iter()
            .position(|c| c.request_id == request_id)
        {
            return self
                .completed
                .remove(at)
                .expect("position is in range")
                .result;
        }
        if !self.outstanding.contains_key(&request_id) {
            return Err(ServeError::Protocol(format!(
                "request {request_id} is not in flight"
            )));
        }
        loop {
            let resp = self.read_response()?;
            let done = self.take_completion(resp)?;
            if done.request_id == request_id {
                return done.result;
            }
            self.completed.push_back(done);
        }
    }

    /// Scores a batch of feature rows and waits for them; returns one
    /// score per row, in row order.
    pub fn score(&mut self, rows: &[FeatureRow]) -> Result<Vec<f32>, ServeError> {
        let request_id = self.submit(rows)?;
        self.wait(request_id)
    }

    /// Like [`Client::score`], but asks the server to trace this
    /// request under `trace_id` (non-zero; bypasses trace sampling).
    pub fn score_traced(
        &mut self,
        rows: &[FeatureRow],
        trace_id: u64,
    ) -> Result<Vec<f32>, ServeError> {
        let request_id = self.submit_traced(rows, trace_id)?;
        self.wait(request_id)
    }

    /// Asks the server to hot-swap its weights from a checkpoint path
    /// on the *server's* filesystem.
    pub fn reload(&mut self, path: &str) -> Result<(), ServeError> {
        match self.round_trip(&Request::Reload { path: path.into() })? {
            Response::Ok => Ok(()),
            Response::Error { message } => Err(ServeError::Server(message)),
            other => Err(ServeError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Initiates graceful shutdown: the server drains every shard's
    /// queue, answers every admitted request, and exits.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            Response::Error { message } => Err(ServeError::Server(message)),
            other => Err(ServeError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{SocketAddr, TcpListener};
    use std::thread::JoinHandle;

    fn row() -> FeatureRow {
        FeatureRow {
            sc: 0,
            tc: 0,
            brand: 0,
            shop: 0,
            user_segment: 0,
            price_bucket: 0,
            query: 0,
            numeric: vec![0.5],
        }
    }

    /// A hand-rolled one-connection server that answers the hello with
    /// `version` and then hands the connection to `f` — for scripting
    /// deliberately broken reply sequences.
    fn spawn_fake(
        version: u32,
        f: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let offered = protocol::read_hello(&mut stream).expect("hello");
            assert_eq!(offered, protocol::VERSION);
            protocol::write_hello(&mut stream, version).expect("hello reply");
            f(stream);
        });
        (addr, handle)
    }

    fn read_score_id(stream: &mut TcpStream) -> u64 {
        let payload = protocol::read_frame(stream).expect("request frame");
        match Request::decode(&payload).expect("decode request") {
            Request::Score { request_id, .. } => request_id,
            other => panic!("expected a score request, got {other:?}"),
        }
    }

    fn write_scores(stream: &mut TcpStream, request_id: u64, scores: Vec<f32>) {
        let resp = Response::Scores { request_id, scores };
        protocol::write_frame(stream, &resp.encode()).expect("write scores");
    }

    #[test]
    fn reply_with_wrong_request_id_is_a_protocol_error() {
        let (addr, server) = spawn_fake(protocol::VERSION, |mut stream| {
            let _ = read_score_id(&mut stream);
            // Reply to an id the client never submitted.
            write_scores(&mut stream, 999, vec![0.5]);
        });
        let mut client = Client::connect(addr).expect("connect");
        let err = client.score(&[row()]).expect_err("mismatched id must fail");
        assert!(
            matches!(&err, ServeError::Protocol(m) if m.contains("unknown request id 999")),
            "unexpected error: {err}"
        );
        server.join().unwrap();
    }

    #[test]
    fn duplicate_score_reply_is_a_protocol_error() {
        let (addr, server) = spawn_fake(protocol::VERSION, |mut stream| {
            let first = read_score_id(&mut stream);
            write_scores(&mut stream, first, vec![0.25]);
            let _second = read_score_id(&mut stream);
            // Answer the second request with the first one's id again.
            write_scores(&mut stream, first, vec![0.25]);
        });
        let mut client = Client::connect(addr).expect("connect");
        let id = client.submit(&[row()]).expect("submit");
        assert_eq!(client.wait(id).expect("first reply is fine"), vec![0.25]);
        let _second = client.submit(&[row()]).expect("submit again");
        let err = client.poll().expect_err("duplicate reply must fail");
        assert!(
            matches!(&err, ServeError::Protocol(m) if m.contains("unknown request id")),
            "unexpected error: {err}"
        );
        server.join().unwrap();
    }

    #[test]
    fn connect_refuses_a_server_of_another_version() {
        for version in [1, 3, protocol::VERSION + 1] {
            let (addr, server) = spawn_fake(version, |_stream| {});
            let err = Client::connect(addr)
                .err()
                .expect("another version must be refused");
            assert!(
                matches!(&err, ServeError::Protocol(m) if m.contains("unsupported protocol version")),
                "v{version}: unexpected error: {err}"
            );
            server.join().unwrap();
        }
    }
}
