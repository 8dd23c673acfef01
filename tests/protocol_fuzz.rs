//! Seeded fuzzing of the wire decoders: `Request::decode` and
//! `Response::decode` take bytes straight off a socket, so every frame
//! a peer can send must either decode or be rejected — never panic —
//! and the decoder may never allocate more than a small multiple of
//! the frame's own length, whatever its count fields claim.
//!
//! Each case builds random valid frames and then lies to the decoder:
//! every truncation, every unknown leading tag, a huge or wrapping
//! count written over every 4-byte window, random byte flips and
//! trailing garbage. A frame that does decode must re-encode to exactly
//! its own bytes (the encoding is canonical).
//!
//! The frame reader gets the same treatment one layer down: a length
//! prefix is a claim, not an allocation budget.
//!
//! The binary installs an allocator that tallies, per thread, the bytes
//! requested while a decode runs. Replay a failing case with the
//! `AMOE_CHECK_SEED` it prints.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::catch_unwind;

use adv_hsc_moe::serve::protocol::{read_frame, Request, Response, MAX_FRAME_LEN};
use adv_hsc_moe::serve::FeatureRow;
use adv_hsc_moe::tensor::check::{ensure, CaseResult, Checker};
use adv_hsc_moe::tensor::rng::Rng;

thread_local! {
    /// Bytes requested on this thread since the last [`alloc_bytes`]
    /// reset. Const-initialised `Cell`s need no allocation of their own,
    /// so the allocator may touch them.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct TallyingAlloc;

unsafe impl GlobalAlloc for TallyingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get().saturating_add(layout.size())));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get().saturating_add(new_size)));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: TallyingAlloc = TallyingAlloc;

/// Runs `f` and returns its result with the bytes it allocated on this
/// thread.
fn alloc_bytes<R>(f: impl FnOnce() -> R) -> (R, usize) {
    ALLOCATED.with(|a| a.set(0));
    let out = f();
    (out, ALLOCATED.with(Cell::get))
}

/// Decoded rows cost at most twice their wire size (a `FeatureRow` is
/// 56 bytes for 28 bytes of ids); the slack covers an error message.
fn alloc_bound(frame_len: usize) -> usize {
    2 * frame_len + 256
}

/// Feeds `frame` to both decoders: neither may panic or allocate past
/// [`alloc_bound`], and whatever decodes must re-encode to `frame`.
fn check_frame(frame: &[u8], what: &str) -> CaseResult {
    let (request, bytes) = alloc_bytes(|| catch_unwind(|| Request::decode(frame)));
    let request = request.map_err(|_| format!("{what}: Request::decode panicked on {frame:?}"))?;
    ensure(
        bytes <= alloc_bound(frame.len()),
        format!(
            "{what}: Request::decode allocated {bytes} bytes for a {}-byte frame",
            frame.len()
        ),
    )?;
    if let Ok(req) = request {
        ensure(
            req.encode() == frame,
            format!("{what}: {req:?} does not re-encode to its frame"),
        )?;
    }

    let (response, bytes) = alloc_bytes(|| catch_unwind(|| Response::decode(frame)));
    let response =
        response.map_err(|_| format!("{what}: Response::decode panicked on {frame:?}"))?;
    ensure(
        bytes <= alloc_bound(frame.len()),
        format!(
            "{what}: Response::decode allocated {bytes} bytes for a {}-byte frame",
            frame.len()
        ),
    )?;
    if let Ok(resp) = response {
        ensure(
            resp.encode() == frame,
            format!("{what}: {resp:?} does not re-encode to its frame"),
        )?;
    }
    Ok(())
}

fn random_string(rng: &mut Rng) -> String {
    let len = rng.below(12);
    (0..len)
        .map(|_| char::from(b' ' + rng.below(95) as u8))
        .collect()
}

fn random_request(rng: &mut Rng) -> Request {
    match rng.below(4) {
        0 => Request::Reload {
            path: random_string(rng),
        },
        1 => Request::Shutdown,
        _ => {
            let n_numeric = rng.below(4);
            let rows = (0..1 + rng.below(4))
                .map(|_| FeatureRow {
                    sc: rng.next_u64() as u32,
                    tc: rng.below(8) as u32,
                    brand: rng.below(64) as u32,
                    shop: rng.below(64) as u32,
                    user_segment: rng.below(4) as u32,
                    price_bucket: rng.below(4) as u32,
                    query: rng.next_u64() as u32,
                    numeric: (0..n_numeric).map(|_| rng.uniform_in(-3.0, 3.0)).collect(),
                })
                .collect();
            Request::Score {
                request_id: rng.next_u64(),
                trace_id: if rng.bernoulli(0.5) {
                    0
                } else {
                    rng.next_u64()
                },
                rows,
            }
        }
    }
}

fn random_response(rng: &mut Rng) -> Response {
    match rng.below(4) {
        0 => Response::Scores {
            request_id: rng.next_u64(),
            scores: (0..rng.below(6)).map(|_| rng.uniform() as f32).collect(),
        },
        1 => Response::Error {
            message: random_string(rng),
        },
        2 => Response::Ok,
        _ => Response::ScoreError {
            request_id: rng.next_u64(),
            overloaded: rng.bernoulli(0.5),
            message: random_string(rng),
        },
    }
}

/// Every lie told about one valid frame.
fn check_mutations(frame: &[u8], rng: &mut Rng) -> CaseResult {
    check_frame(frame, "valid frame")?;
    for len in 0..frame.len() {
        check_frame(&frame[..len], "truncation")?;
    }
    const TAGS: [u8; 7] = [0x01, 0x02, 0x03, 0x81, 0x83, 0x84, 0x89];
    for tag in (0..=u8::MAX).filter(|t| !TAGS.contains(t)) {
        let mut lied = frame.to_vec();
        lied[0] = tag;
        check_frame(&lied, "unknown tag")?;
    }
    // A count, length or id field anywhere in the frame claims a huge
    // or wrapping value.
    let lies = [0, 1, 7, (1 << 31) - 7, 1 << 31, u32::MAX];
    let lies: Vec<u32> = lies.into_iter().chain([rng.next_u64() as u32]).collect();
    for at in 1..frame.len().saturating_sub(3) {
        for &lie in &lies {
            let mut lied = frame.to_vec();
            lied[at..at + 4].copy_from_slice(&lie.to_le_bytes());
            check_frame(&lied, "length lie")?;
        }
    }
    // Two adjacent header fields lie together, with and without the
    // body behind them: 2^31 rows × (2^31 − 7) values per row wraps the
    // `SCORE` body size to zero in 64-bit arithmetic.
    for at in 1..frame.len().saturating_sub(7).min(32) {
        for &a in &lies {
            for &b in &lies {
                let mut lied = frame.to_vec();
                lied[at..at + 4].copy_from_slice(&a.to_le_bytes());
                lied[at + 4..at + 8].copy_from_slice(&b.to_le_bytes());
                check_frame(&lied, "paired length lie")?;
                check_frame(&lied[..at + 8], "paired length lie, body cut")?;
            }
        }
    }
    for _ in 0..16 {
        let mut flipped = frame.to_vec();
        let at = rng.below(flipped.len());
        flipped[at] ^= 1 << rng.below(8);
        check_frame(&flipped, "bit flip")?;
    }
    let mut long = frame.to_vec();
    long.extend((0..1 + rng.below(8)).map(|_| rng.next_u64() as u8));
    check_frame(&long, "trailing garbage")
}

#[test]
fn request_decode_never_panics_and_allocates_within_the_frame() {
    Checker::new("request_decode_fuzz")
        .cases(64)
        .run(|rng| check_mutations(&random_request(rng).encode(), rng));
}

#[test]
fn response_decode_never_panics_and_allocates_within_the_frame() {
    Checker::new("response_decode_fuzz")
        .cases(64)
        .run(|rng| check_mutations(&random_response(rng).encode(), rng));
}

/// A prefix claiming the largest legal frame, followed by 10 body bytes
/// and EOF, is a short read — and costs a bounded buffer, not the
/// 16 MiB the prefix asked for.
#[test]
fn read_frame_allocates_what_arrives_not_what_the_prefix_claims() {
    let mut wire = MAX_FRAME_LEN.to_le_bytes().to_vec();
    wire.extend_from_slice(&[0xAB; 10]);
    let (result, bytes) = alloc_bytes(|| read_frame(&mut wire.as_slice()));
    let err = result.expect_err("a 10-byte body cannot satisfy a 16 MiB prefix");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    assert!(
        bytes < 128 * 1024,
        "read_frame allocated {bytes} bytes for a 10-byte body"
    );

    // A complete frame still reads back exactly.
    let mut wire = 3u32.to_le_bytes().to_vec();
    wire.extend_from_slice(b"abc");
    assert_eq!(
        read_frame(&mut wire.as_slice()).expect("whole frame"),
        b"abc"
    );
}
