//! Length-prefixed binary wire protocol.
//!
//! A connection opens with a fixed 8-byte hello from each side (magic
//! `AMSV` + `u32` protocol version). The client sends its hello first
//! and the server answers with its own. There is exactly one version:
//! a server refuses any other (it still answers with its hello, so the
//! peer learns what it speaks, then closes), and a client refuses a
//! server that answers with another. After the handshake both sides
//! exchange *frames*: a little-endian `u32` payload length followed by
//! the payload. The first payload byte is a tag; the rest is the
//! tag-specific body. All integers are little-endian, all floats
//! IEEE-754 `f32` LE — the same conventions as the `AMOE` checkpoint
//! format.
//!
//! Requests: `SCORE` (feature rows to rank, with a client-chosen
//! request id and trace id), `RELOAD` (checkpoint hot-swap) and
//! `SHUTDOWN` (drain and exit). Responses: `SCORES`, `SCORE_ERROR` (a
//! failed score carrying its request id and whether admission control
//! shed it), `ERROR` (with message) and `OK`.
//!
//! A connection is **pipelined**: a client may have any number of
//! `SCORE`s in flight at once, the server answers them in completion
//! order (a `SCORE_ERROR` from admission overtakes earlier scores still
//! queued), and the `request_id` in `SCORES`/`SCORE_ERROR` is the
//! multiplexing key. `RELOAD` and
//! `SHUTDOWN` are answered in submission order, though score
//! completions may interleave ahead of their replies. A frame that
//! does not decode gets an `ERROR` in that same order and the
//! connection keeps serving.
//!
//! Counters, stage quantiles and the trace ring are not on this
//! protocol: they are read off the HTTP observability listener
//! (`/vars`, `/metrics`, `/trace`; see [`crate::http`]).

use std::io::{self, Read, Write};

/// Handshake magic: "AMSV" (AMoe SerVe).
pub const MAGIC: [u8; 4] = *b"AMSV";
/// The wire protocol version this build speaks, and the only one it
/// accepts.
pub const VERSION: u32 = 4;
/// Upper bound on a frame payload; larger lengths are treated as
/// protocol corruption rather than allocated.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;
/// Most bytes [`read_frame`] reserves before the body arrives.
const FRAME_PREALLOC: usize = 64 * 1024;

/// Request tags.
pub const TAG_SCORE: u8 = 0x01;
/// See [`TAG_SCORE`].
pub const TAG_RELOAD: u8 = 0x02;
/// See [`TAG_SCORE`].
pub const TAG_SHUTDOWN: u8 = 0x03;

/// Response tags.
pub const TAG_SCORES: u8 = 0x81;
/// See [`TAG_SCORES`].
pub const TAG_ERROR: u8 = 0x83;
/// See [`TAG_SCORES`].
pub const TAG_OK: u8 = 0x84;
/// A score request failed; the body carries the request id so a
/// pipelined client can correlate the failure (see [`TAG_SCORES`]).
pub const TAG_SCORE_ERROR: u8 = 0x89;

/// One example to score: the seven sparse feature ids plus the dense
/// numeric features, mirroring `amoe_dataset::Example` minus the label.
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureRow {
    /// Query-predicted sub-category id (gate input).
    pub sc: u32,
    /// Query-predicted top-category id.
    pub tc: u32,
    /// Brand id.
    pub brand: u32,
    /// Shop id.
    pub shop: u32,
    /// User-segment id.
    pub user_segment: u32,
    /// Price-bucket id.
    pub price_bucket: u32,
    /// Query id.
    pub query: u32,
    /// Dense numeric features (`meta.n_numeric` values).
    pub numeric: Vec<f32>,
}

/// A decoded request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Score a batch of feature rows.
    Score {
        /// Client-chosen id echoed in the response.
        request_id: u64,
        /// Client-chosen trace id (`0` = none; the server then applies
        /// its own sampling).
        trace_id: u64,
        /// Rows to score (at least one; all the same numeric width).
        rows: Vec<FeatureRow>,
    },
    /// Hot-swap the serving weights from a checkpoint on the server's
    /// filesystem.
    Reload {
        /// Checkpoint path as seen by the server process.
        path: String,
    },
    /// Drain the queue, finish in-flight batches, and exit.
    Shutdown,
}

/// A decoded response frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Per-row scores for a `Score` request.
    Scores {
        /// Echo of the request's id.
        request_id: u64,
        /// One sigmoid score per submitted row, in row order.
        scores: Vec<f32>,
    },
    /// A `Reload` failed, or a frame did not decode; human-readable
    /// reason.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Acknowledgement for `Reload`/`Shutdown`.
    Ok,
    /// A score request failed (validation, overload, or shutdown).
    /// Carries the request id so a pipelined connection can correlate
    /// the failure with one of its in-flight submissions.
    ScoreError {
        /// Echo of the request's id.
        request_id: u64,
        /// True when admission control shed the request; the client
        /// should back off and may retry.
        overloaded: bool,
        /// Human-readable reason (empty for pure overload).
        message: String,
    },
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one side's handshake hello: magic + `version` (a peer of
/// this build always sends [`VERSION`]).
pub fn write_hello(w: &mut impl Write, version: u32) -> io::Result<()> {
    let mut wire = [0u8; 8];
    wire[..4].copy_from_slice(&MAGIC);
    wire[4..].copy_from_slice(&version.to_le_bytes());
    w.write_all(&wire)?;
    w.flush()
}

/// Reads the peer's handshake hello, returning the version it offered.
pub fn read_hello(r: &mut impl Read) -> io::Result<u32> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(bad_data("bad handshake magic (not an amoe-serve peer)"));
    }
    read_u32(r)
}

/// Checks a peer's hello version against this build's.
///
/// # Errors
/// Rejects every version other than [`VERSION`].
pub fn negotiate(peer_version: u32) -> io::Result<u32> {
    if peer_version != VERSION {
        return Err(bad_data(format!(
            "unsupported protocol version {peer_version} (this build speaks {VERSION})"
        )));
    }
    Ok(VERSION)
}

/// Writes one length-prefixed frame.
///
/// Prefix and payload go out as a single write: two small writes on an
/// unbuffered socket would interact with Nagle's algorithm and the
/// peer's delayed ACK, adding ~40 ms to every small frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| bad_data("frame too large"))?;
    if len > MAX_FRAME_LEN {
        return Err(bad_data("frame too large"));
    }
    let mut wire = Vec::with_capacity(4 + payload.len());
    wire.extend_from_slice(&len.to_le_bytes());
    wire.extend_from_slice(payload);
    w.write_all(&wire)?;
    w.flush()
}

/// Reads one length-prefixed frame payload.
///
/// The buffer grows as body bytes arrive rather than being sized from
/// the prefix up front, so a peer that claims a large frame and then
/// stalls or hangs up costs at most 64 KiB.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let len = read_u32(r)?;
    if len > MAX_FRAME_LEN {
        return Err(bad_data(format!("frame length {len} exceeds limit")));
    }
    let mut payload = Vec::with_capacity((len as usize).min(FRAME_PREALLOC));
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() != len as usize {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame body cut at {} of {len} bytes", payload.len()),
        ));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------
// Request / response codecs
// ---------------------------------------------------------------------

impl Request {
    /// Serialises the request into a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Score {
                request_id,
                trace_id,
                rows,
            } => {
                out.push(TAG_SCORE);
                put_u64(&mut out, *request_id);
                put_u64(&mut out, *trace_id);
                let n_numeric = rows.first().map_or(0, |r| r.numeric.len());
                put_u32(&mut out, rows.len() as u32);
                put_u32(&mut out, n_numeric as u32);
                for row in rows {
                    for id in [
                        row.sc,
                        row.tc,
                        row.brand,
                        row.shop,
                        row.user_segment,
                        row.price_bucket,
                        row.query,
                    ] {
                        put_u32(&mut out, id);
                    }
                    debug_assert_eq!(row.numeric.len(), n_numeric);
                    for &v in &row.numeric {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
            Request::Reload { path } => {
                out.push(TAG_RELOAD);
                put_str(&mut out, path);
            }
            Request::Shutdown => out.push(TAG_SHUTDOWN),
        }
        out
    }

    /// Parses a frame payload into a request. Counts are checked
    /// against the payload length before anything is allocated, so a
    /// lying frame costs at most a few times its own size.
    pub fn decode(payload: &[u8]) -> io::Result<Request> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            TAG_SCORE => {
                let request_id = c.u64()?;
                let trace_id = c.u64()?;
                let n_rows = c.u32()? as usize;
                let n_numeric = c.u32()? as usize;
                if n_rows == 0 {
                    return Err(bad_data("score request with zero rows"));
                }
                // 7 ids + numeric values, 4 bytes each. Checked: the
                // counts are peer-controlled and the product can wrap.
                let body = n_numeric
                    .checked_add(7)
                    .and_then(|w| w.checked_mul(4))
                    .and_then(|row_bytes| row_bytes.checked_mul(n_rows));
                if body != Some(c.remaining()) {
                    return Err(bad_data("score request body length mismatch"));
                }
                let mut rows = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    let mut ids = [0u32; 7];
                    for id in &mut ids {
                        *id = c.u32()?;
                    }
                    let mut numeric = Vec::with_capacity(n_numeric);
                    for _ in 0..n_numeric {
                        numeric.push(c.f32()?);
                    }
                    rows.push(FeatureRow {
                        sc: ids[0],
                        tc: ids[1],
                        brand: ids[2],
                        shop: ids[3],
                        user_segment: ids[4],
                        price_bucket: ids[5],
                        query: ids[6],
                        numeric,
                    });
                }
                Request::Score {
                    request_id,
                    trace_id,
                    rows,
                }
            }
            TAG_RELOAD => Request::Reload { path: c.str()? },
            TAG_SHUTDOWN => Request::Shutdown,
            tag => return Err(bad_data(format!("unknown request tag {tag:#04x}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serialises the response into a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Scores { request_id, scores } => {
                out.push(TAG_SCORES);
                put_u64(&mut out, *request_id);
                put_u32(&mut out, scores.len() as u32);
                for &s in scores {
                    out.extend_from_slice(&s.to_le_bytes());
                }
            }
            Response::Error { message } => {
                out.push(TAG_ERROR);
                put_str(&mut out, message);
            }
            Response::Ok => out.push(TAG_OK),
            Response::ScoreError {
                request_id,
                overloaded,
                message,
            } => {
                out.push(TAG_SCORE_ERROR);
                put_u64(&mut out, *request_id);
                out.push(u8::from(*overloaded));
                put_str(&mut out, message);
            }
        }
        out
    }

    /// Parses a frame payload into a response, with the same
    /// check-before-allocate rule as [`Request::decode`].
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            TAG_SCORES => {
                let request_id = c.u64()?;
                let n = c.u32()? as usize;
                if n.checked_mul(4) != Some(c.remaining()) {
                    return Err(bad_data("scores body length mismatch"));
                }
                let mut scores = Vec::with_capacity(n);
                for _ in 0..n {
                    scores.push(c.f32()?);
                }
                Response::Scores { request_id, scores }
            }
            TAG_ERROR => Response::Error { message: c.str()? },
            TAG_OK => Response::Ok,
            TAG_SCORE_ERROR => {
                let request_id = c.u64()?;
                let overloaded = match c.u8()? {
                    0 => false,
                    1 => true,
                    b => return Err(bad_data(format!("bad score-error flag {b:#04x}"))),
                };
                Response::ScoreError {
                    request_id,
                    overloaded,
                    message: c.str()?,
                }
            }
            tag => return Err(bad_data(format!("unknown response tag {tag:#04x}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Little-endian helpers
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Bounds-checked reader over a frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(bad_data("truncated frame payload"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad_data("invalid utf-8 in string field"))
    }

    /// Rejects trailing garbage after a fully decoded message.
    fn finish(self) -> io::Result<()> {
        if self.remaining() != 0 {
            return Err(bad_data("trailing bytes after message"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(seed: u32) -> FeatureRow {
        FeatureRow {
            sc: seed,
            tc: seed + 1,
            brand: seed + 2,
            shop: seed + 3,
            user_segment: seed + 4,
            price_bucket: seed + 5,
            query: seed + 6,
            numeric: vec![0.5 * seed as f32, -1.25, 3.0],
        }
    }

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Score {
                request_id: 77,
                trace_id: 0,
                rows: vec![row(0), row(10)],
            },
            Request::Score {
                request_id: 78,
                trace_id: 0xABCD_EF01,
                rows: vec![row(4)],
            },
            Request::Reload {
                path: "/tmp/model.amoe".into(),
            },
            Request::Shutdown,
        ];
        for req in cases {
            let decoded = Request::decode(&req.encode()).expect("decode");
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn score_always_carries_its_trace_id() {
        // One wire shape: tag, request id, trace id, counts, rows —
        // untraced requests send a zero trace id rather than a shorter
        // frame.
        let untraced = Request::Score {
            request_id: 5,
            trace_id: 0,
            rows: vec![row(1)],
        }
        .encode();
        let traced = Request::Score {
            request_id: 5,
            trace_id: 9,
            rows: vec![row(1)],
        }
        .encode();
        assert_eq!(untraced[0], TAG_SCORE);
        assert_eq!(traced[0], TAG_SCORE);
        assert_eq!(untraced.len(), traced.len());
        assert_eq!(untraced.len(), 1 + 8 + 8 + 4 + 4 + (7 + 3) * 4);
        assert_eq!(&traced[9..17], &9u64.to_le_bytes());
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Scores {
                request_id: 9,
                scores: vec![0.25, 0.75, 1.0],
            },
            Response::Error {
                message: "bad id".into(),
            },
            Response::Ok,
            Response::ScoreError {
                request_id: 42,
                overloaded: true,
                message: String::new(),
            },
            Response::ScoreError {
                request_id: 43,
                overloaded: false,
                message: "unknown sc id".into(),
            },
        ];
        for resp in cases {
            let decoded = Response::decode(&resp.encode()).expect("decode");
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn score_error_flag_must_be_boolean() {
        let mut payload = Response::ScoreError {
            request_id: 7,
            overloaded: true,
            message: "x".into(),
        }
        .encode();
        assert!(Response::decode(&payload).is_ok());
        payload[9] = 2; // the flag byte follows tag + u64 request id
        assert!(Response::decode(&payload).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_pipe() {
        let payload = Request::Score {
            request_id: 1,
            trace_id: 0,
            rows: vec![row(3)],
        }
        .encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), payload);
    }

    #[test]
    fn handshake_rejects_wrong_magic() {
        let mut wire = Vec::new();
        write_hello(&mut wire, VERSION).unwrap();
        wire[0] = b'X';
        assert!(read_hello(&mut &wire[..]).is_err());
    }

    #[test]
    fn negotiate_accepts_only_this_version() {
        let mut wire = Vec::new();
        write_hello(&mut wire, VERSION).unwrap();
        assert_eq!(read_hello(&mut &wire[..]).unwrap(), VERSION);
        assert_eq!(negotiate(VERSION).unwrap(), VERSION);
        for old_or_foreign in [0, 1, 2, 3, VERSION + 1, u32::MAX] {
            let err = negotiate(old_or_foreign).unwrap_err();
            assert!(
                err.to_string().contains("unsupported protocol version"),
                "{old_or_foreign}: {err}"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut payload = Request::Shutdown.encode();
        payload.push(0xFF);
        assert!(Request::decode(&payload).is_err());
    }

    #[test]
    fn zero_row_score_rejected() {
        let mut payload = vec![TAG_SCORE];
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&3u32.to_le_bytes());
        assert!(Request::decode(&payload).is_err());
    }

    /// A `SCORE` header claiming 2^31 rows of 7 + (2^31 − 7) values:
    /// the body size 2^31 · 2^33 wraps to 0 in 64-bit arithmetic, so
    /// unchecked it matched the empty body and asked for a 120 GB row
    /// vector. `with_trace_id` picks the current layout or the shorter
    /// 17-byte one from before every `SCORE` carried a trace id.
    fn wrapping_score_header(with_trace_id: bool) -> Vec<u8> {
        let mut payload = vec![TAG_SCORE];
        payload.extend_from_slice(&1u64.to_le_bytes());
        if with_trace_id {
            payload.extend_from_slice(&0u64.to_le_bytes());
        }
        payload.extend_from_slice(&(1u32 << 31).to_le_bytes());
        payload.extend_from_slice(&((1u32 << 31) - 7).to_le_bytes());
        payload
    }

    #[test]
    fn wrapping_row_counts_are_rejected_before_allocating() {
        let legacy = wrapping_score_header(false);
        assert_eq!(legacy.len(), 17);
        assert!(Request::decode(&legacy).is_err());
        let err = Request::decode(&wrapping_score_header(true)).unwrap_err();
        assert!(err.to_string().contains("length mismatch"), "{err}");
    }
}
