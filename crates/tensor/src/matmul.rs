//! Matrix multiplication kernels in all transpose flavours.
//!
//! Backpropagation through `C = A·B` needs `∂A = ∂C·Bᵀ` and `∂B = Aᵀ·∂C`;
//! rather than materialising transposes we provide dedicated kernels that
//! read the operands in their natural layout.
//!
//! # Kernel architecture
//!
//! Products large enough to amortise the copies run a cache-blocked,
//! transpose-packed micro-kernel:
//!
//! * `B` (in its effective `k x n` orientation) is packed **once per
//!   product** into column strips of [`NR`] values, zero-padded on the
//!   right edge, so the inner loop reads one contiguous `NR`-wide line
//!   per `p` step regardless of the original layout (this is where the
//!   `nt` flavour's transpose disappears).
//! * `A` (effective `m x k`) is packed per row block into strips of
//!   [`MR`] rows laid out `p`-major, so the micro-kernel broadcasts
//!   `MR` scalars from one contiguous line.
//! * The `p` dimension is processed in [`KC`]-sized blocks, ascending,
//!   so one packed `A` strip plus one packed `B` strip stay L1/L2
//!   resident while an `MR x NR` accumulator tile lives in registers.
//! * The micro-kernel itself (`microkernel`) iterates `chunks_exact`
//!   over both panels and a fixed `[[f32; NR]; MR]` accumulator tile:
//!   no bounds checks, fixed trip widths, autovectorisable.
//! * Both packs write into per-thread buffers that only grow (`B` on
//!   the thread that calls the product, `A` on each lane that runs a
//!   row block), so a warmed-up thread multiplies without allocating.
//!   The `*_into` flavours also write `C` into a caller's reused
//!   matrix.
//!
//! # Instruction sets
//!
//! The packed kernel body is compiled twice: once for the target's
//! baseline (SSE2 on x86-64, four `f32` lanes), and on x86-64 once more
//! inside `#[target_feature(enable = "avx2")]` (eight lanes, so one
//! `NR`-wide tile row is one register). Each product picks its copy
//! once, from `is_x86_feature_detected!("avx2")`, whose CPUID probe
//! std caches; there is no option to force either copy. Both copies
//! are the same Rust source, so they compute the same chain below.
//!
//! `fma` stays off on purpose. A fused multiply-add rounds
//! `acc + a * b` once, where the chain below rounds the product and
//! then the sum, so it would change results in the last bit.
//! Enabling `avx2` alone never fuses: rustc does not contract a
//! separate multiply and add into an FMA.
//!
//! # Exact-result contract
//!
//! Every kernel — packed, naive fallback, parallel or serial — computes
//! each output element as the **same floating-point chain**: starting
//! from `0.0`, add `a[i][p] * b[p][j]` for `p` ascending, one rounding
//! for the multiply and one for the add. Register tiles are loaded from
//! `C` before each `KC` block and stored back after it, so splitting
//! `p` into blocks does not re-associate the chain; padded tile lanes
//! are computed but never stored. The naive reference in [`reference`](mod@reference)
//! is the canonical spelling of that chain, and `tests/kernel_oracle.rs`
//! asserts exact equality between it and every fast path over
//! randomized and adversarial shapes.
//!
//! Products above [`PAR_FLOP_THRESHOLD`] multiply-adds are additionally
//! row-blocked across the [`pool`] runtime. Every flavour
//! partitions the *output* rows into disjoint contiguous blocks, and
//! the per-element chain is independent of the block partitioning, so
//! the result is bit-identical for every thread count.

use std::cell::RefCell;

use crate::pool;
use crate::Matrix;

thread_local! {
    /// This thread's packed-`B` buffer, refilled by every product it
    /// calls (see [`PackedB`]).
    static PACKED_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// This thread's packed-`A` strips, refilled per `KC` block by every
    /// row block it runs (see `pack_a`).
    static PACKED_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Minimum `m * k * n` multiply-add count before a product is worth
/// fanning out to the pool. Below this the region dispatch (a condvar
/// wake of the persistent workers, plus the barrier at region end)
/// exceeds the kernel time. The threshold predates the persistent
/// pool's much cheaper dispatch and is deliberately kept: tiny
/// products gain nothing from extra lanes either way, and the serial
/// path is branch-predictable.
pub const PAR_FLOP_THRESHOLD: usize = 1 << 17;

/// Minimum `m * k * n` multiply-add count before the packed blocked
/// kernel pays for its copies. Below this the naive reference loop is
/// both faster (no packing traffic) and identical in result. At 2¹²
/// the packed kernel already wins on the tower's narrow products
/// (256x16x1 forward, 16x256x1 and 256x1x16 backward), whose naive
/// inner loops run one element wide.
pub const PACK_FLOP_THRESHOLD: usize = 1 << 12;

/// Micro-tile height: output rows accumulated per register tile.
pub const MR: usize = 4;

/// Micro-tile width: output columns accumulated per register tile.
/// One tile row fills one 256-bit AVX2 register (two 128-bit SSE2
/// registers), so the `MR * NR` accumulators take 4 of the 16 vector
/// registers in the AVX2 copy and 8 in the SSE2 copy, leaving room for
/// the broadcast and the `B` line.
pub const NR: usize = 8;

/// `p`-dimension block size: one packed `A` strip (`KC * MR` floats)
/// and one packed `B` strip (`KC * NR` floats) together stay well
/// under L1 on any host this runs on.
pub const KC: usize = 256;

/// Naive three-loop oracle kernels.
///
/// These are the seed (pre-blocking) kernels, kept as the ground truth
/// the fast paths are tested against: the `ikj` loop order makes the
/// innermost loop a contiguous stride-1 sweep, and each output element
/// accumulates its products in ascending `p` order — the canonical
/// floating-point chain every optimised kernel must reproduce
/// **exactly** (see the module docs). They are also the small-product
/// fast path: below [`PACK_FLOP_THRESHOLD`]
/// packing costs more than it saves.
pub mod reference {
    use crate::Matrix;

    /// Serial `ikj` oracle for `C = A·B`.
    ///
    /// # Panics
    /// Panics if `a.cols() != b.rows()`.
    #[must_use]
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        super::check_nn(a, b);
        let mut c = Matrix::zeros(a.rows(), b.cols());
        matmul_block(a, b, 0, c.as_mut_slice());
        c
    }

    /// Serial oracle for `C = Aᵀ·B` with `A` stored `k x m`.
    ///
    /// # Panics
    /// Panics if `a.rows() != b.rows()`.
    #[must_use]
    pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
        super::check_tn(a, b);
        let mut c = Matrix::zeros(a.cols(), b.cols());
        matmul_tn_block(a, b, 0, c.as_mut_slice());
        c
    }

    /// Serial oracle for `C = A·Bᵀ` with `B` stored `n x k`.
    ///
    /// # Panics
    /// Panics if `a.cols() != b.cols()`.
    #[must_use]
    pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
        super::check_nt(a, b);
        let mut c = Matrix::zeros(a.rows(), b.rows());
        matmul_nt_block(a, b, 0, c.as_mut_slice());
        c
    }

    /// `ikj` kernel over output rows `[first_row, first_row + rows)` of
    /// `C = A·B`, writing into the block's own slice.
    pub(super) fn matmul_block(a: &Matrix, b: &Matrix, first_row: usize, block: &mut [f32]) {
        let (k, n) = (a.cols(), b.cols());
        for (local, c_row) in block.chunks_mut(n).enumerate() {
            let a_row = a.row(first_row + local);
            for (p, &aip) in a_row.iter().enumerate().take(k) {
                let b_row = b.row(p);
                for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                    *cv += aip * bv;
                }
            }
        }
    }

    /// `p`-major kernel over output rows of `C = Aᵀ·B` (`A` stored
    /// `k x m`). Each output row still accumulates in ascending `p`.
    pub(super) fn matmul_tn_block(a: &Matrix, b: &Matrix, first_row: usize, block: &mut [f32]) {
        let (k, n) = (a.rows(), b.cols());
        let block_rows = block.len() / n;
        for p in 0..k {
            let a_row = a.row(p);
            let b_row = b.row(p);
            for local in 0..block_rows {
                let aip = a_row[first_row + local];
                let c_row = &mut block[local * n..(local + 1) * n];
                for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                    *cv += aip * bv;
                }
            }
        }
    }

    /// Dot-product kernel over output rows of `C = A·Bᵀ` (`B` stored
    /// `n x k`). The running dot accumulates in ascending `p`, and
    /// adding it onto the zeroed output is exact, so the chain matches
    /// the other flavours.
    pub(super) fn matmul_nt_block(a: &Matrix, b: &Matrix, first_row: usize, block: &mut [f32]) {
        let (k, n) = (a.cols(), b.rows());
        for (local, c_row) in block.chunks_mut(n).enumerate() {
            let a_row = a.row(first_row + local);
            for (j, cv) in c_row.iter_mut().enumerate() {
                let b_row = b.row(j);
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a_row[p] * b_row[p];
                }
                *cv += acc;
            }
        }
    }
}

/// True when a product of this shape should use the parallel path.
#[inline]
fn parallel_worthwhile(m: usize, k: usize, n: usize) -> bool {
    m > 1 && m.saturating_mul(k).saturating_mul(n) >= PAR_FLOP_THRESHOLD && pool::threads() > 1
}

/// True when a product of this shape should pack and run the blocked
/// micro-kernel. Very flat products (`m < MR`) never fill a tile and
/// would pay the full `B` pack for one or two output rows.
#[inline]
fn pack_worthwhile(m: usize, k: usize, n: usize) -> bool {
    m >= MR && m.saturating_mul(k).saturating_mul(n) >= PACK_FLOP_THRESHOLD
}

fn check_nn(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dims differ: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
}

fn check_tn(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn: inner dims differ: {:?}ᵀ x {:?}",
        a.shape(),
        b.shape()
    );
}

fn check_nt(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt: inner dims differ: {:?} x {:?}ᵀ",
        a.shape(),
        b.shape()
    );
}

/// How the `A` operand's effective `m x k` view maps onto its storage.
#[derive(Clone, Copy)]
enum AOrient<'a> {
    /// Stored `m x k` row-major: `a_eff[i][p] = a[i][p]`.
    RowMajor(&'a Matrix),
    /// Stored `k x m` (used transposed): `a_eff[i][p] = a[p][i]`.
    ColMajor(&'a Matrix),
}

/// `B` packed into `KC`-block, `NR`-strip panels (see module docs).
///
/// Layout: blocks of `kc` consecutive `p` values in ascending order;
/// within a block, `n_strips` strips of `kc * NR` floats; within a
/// strip, `NR` contiguous column values per `p` step, zero-padded past
/// column `n`. Block `p0` starts at `p0 * n_strips * NR` because the
/// heights of all preceding blocks sum to `p0`.
#[derive(Clone, Copy)]
struct PackedB<'a> {
    data: &'a [f32],
    n_strips: usize,
}

/// Sizes `buf` to `len` zeroed floats; its capacity only grows.
fn zeroed(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// Packs `B` stored `k x n` row-major (the `nn` / `tn` flavours) into
/// `buf`.
fn pack_b_nn<'a>(b: &Matrix, buf: &'a mut Vec<f32>) -> PackedB<'a> {
    let (k, n) = (b.rows(), b.cols());
    let n_strips = n.div_ceil(NR);
    let data = zeroed(buf, k * n_strips * NR);
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        let base = p0 * n_strips * NR;
        for (s, strip) in data[base..base + kc * n_strips * NR]
            .chunks_mut(kc * NR)
            .enumerate()
        {
            let j0 = s * NR;
            let w = NR.min(n - j0);
            for (p, line) in strip.chunks_exact_mut(NR).enumerate() {
                let b_row = b.row(p0 + p);
                // Constant-width copies compile to vector moves (see
                // `gemm_block_body`).
                if w == NR {
                    line.copy_from_slice(&b_row[j0..j0 + NR]);
                } else {
                    line[..w].copy_from_slice(&b_row[j0..j0 + w]);
                }
            }
        }
        p0 += kc;
    }
    PackedB { data, n_strips }
}

/// Packs `B` stored `n x k` row-major and used transposed (the `nt`
/// flavour) into `buf`: the transpose happens during the pack, so the
/// micro-kernel sees the same strip layout as the `nn` flavour.
fn pack_b_nt<'a>(b: &Matrix, buf: &'a mut Vec<f32>) -> PackedB<'a> {
    let (n, k) = (b.rows(), b.cols());
    let n_strips = n.div_ceil(NR);
    let data = zeroed(buf, k * n_strips * NR);
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        let base = p0 * n_strips * NR;
        for (s, strip) in data[base..base + kc * n_strips * NR]
            .chunks_mut(kc * NR)
            .enumerate()
        {
            let j0 = s * NR;
            let w = NR.min(n - j0);
            for jj in 0..w {
                let b_row = &b.row(j0 + jj)[p0..p0 + kc];
                for (line, &v) in strip.chunks_exact_mut(NR).zip(b_row) {
                    line[jj] = v;
                }
            }
        }
        p0 += kc;
    }
    PackedB { data, n_strips }
}

/// Packs rows `[first_row, first_row + rows)` of the effective `A` for
/// one `KC` block into `MR`-row, `p`-major strips (`buf` is reused
/// across blocks). Rows past the edge are zero-padded; their tile
/// lanes are computed but never stored.
fn pack_a(a: AOrient<'_>, first_row: usize, rows: usize, p0: usize, kc: usize, buf: &mut Vec<f32>) {
    let strips = rows.div_ceil(MR);
    let buf = zeroed(buf, strips * kc * MR);
    match a {
        AOrient::RowMajor(a) => {
            for (s, strip) in buf.chunks_mut(kc * MR).enumerate() {
                let i0 = first_row + s * MR;
                let h = MR.min(first_row + rows - i0);
                for r in 0..h {
                    let a_row = &a.row(i0 + r)[p0..p0 + kc];
                    for (slot, &v) in strip[r..].iter_mut().step_by(MR).zip(a_row) {
                        *slot = v;
                    }
                }
            }
        }
        AOrient::ColMajor(a) => {
            for p in 0..kc {
                let a_row = a.row(p0 + p);
                for (s, strip) in buf.chunks_mut(kc * MR).enumerate() {
                    let i0 = first_row + s * MR;
                    let h = MR.min(first_row + rows - i0);
                    if h == MR {
                        strip[p * MR..p * MR + MR].copy_from_slice(&a_row[i0..i0 + MR]);
                    } else {
                        strip[p * MR..p * MR + h].copy_from_slice(&a_row[i0..i0 + h]);
                    }
                }
            }
        }
    }
}

/// The register-tile inner loop: `acc[r][c] += apanel[p][r] *
/// bstrip[p][c]` for `p` ascending over one `KC` block. `chunks_exact`
/// over both panels eliminates bounds checks; the fixed `MR x NR`
/// accumulator tile unrolls into vector registers. Always inlined, so
/// each copy of [`gemm_block_body`] vectorises it for its own
/// instruction set.
#[inline(always)]
fn microkernel(apanel: &[f32], bstrip: &[f32], acc: &mut [[f32; NR]; MR]) {
    // Accumulate in a local tile, zipped rather than indexed: with
    // `acc[r]` the crate's unit-test build kept all `MR * NR`
    // accumulators as scalars in memory and never vectorised them.
    let mut tile = *acc;
    for (ap, bp) in apanel.chunks_exact(MR).zip(bstrip.chunks_exact(NR)) {
        for (row, &ar) in tile.iter_mut().zip(ap) {
            for (av, &bv) in row.iter_mut().zip(bp) {
                *av += ar * bv;
            }
        }
    }
    *acc = tile;
}

/// Which compiled copy of the packed kernel a product runs (see
/// "Instruction sets" in the module docs). Only [`Kernel::detect`] can
/// select the AVX2 copy, so holding one proves this CPU runs AVX2.
#[derive(Clone, Copy, Debug)]
struct Kernel {
    avx2: bool,
}

impl Kernel {
    /// The copy built for the target's baseline (SSE2 on x86-64).
    #[cfg(test)]
    const PORTABLE: Kernel = Kernel { avx2: false };

    /// The widest copy this CPU runs. `is_x86_feature_detected!`
    /// caches its CPUID probe in a static, so after the first product
    /// this is one atomic load.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Kernel { avx2 }
    }

    /// Runs [`gemm_block_body`] in this copy, packing `A` into this
    /// thread's strip buffer.
    fn gemm_block(
        self,
        a: AOrient<'_>,
        bp: PackedB<'_>,
        k: usize,
        n: usize,
        first_row: usize,
        block: &mut [f32],
    ) {
        PACKED_A.with_borrow_mut(|abuf| {
            #[cfg(target_arch = "x86_64")]
            if self.avx2 {
                // SAFETY: `avx2` is true only when `Kernel::detect` found
                // AVX2 on the running CPU, which is all `gemm_block_avx2`'s
                // `target_feature` requires.
                unsafe { gemm_block_avx2(a, bp, k, n, first_row, block, abuf) };
                return;
            }
            gemm_block_body(a, bp, k, n, first_row, block, abuf);
        });
    }
}

/// [`gemm_block_body`] compiled with AVX2 (256-bit lanes). `fma` stays
/// off: a fused multiply-add rounds once where the reference chain
/// rounds twice, which would break the exact-result contract.
///
/// # Safety
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_block_avx2(
    a: AOrient<'_>,
    bp: PackedB<'_>,
    k: usize,
    n: usize,
    first_row: usize,
    block: &mut [f32],
    abuf: &mut Vec<f32>,
) {
    gemm_block_body(a, bp, k, n, first_row, block, abuf);
}

/// Blocked kernel over output rows `[first_row, first_row + rows)`:
/// for each `KC` block (ascending `p`), pack the block's `A` strips
/// into `abuf`, then sweep `MR x NR` tiles. Tiles are loaded from `C`
/// and stored back, so the per-element chain is exactly the reference
/// chain. Always inlined, so the portable and AVX2 copies each compile
/// it.
#[inline(always)]
fn gemm_block_body(
    a: AOrient<'_>,
    bp: PackedB<'_>,
    k: usize,
    n: usize,
    first_row: usize,
    block: &mut [f32],
    abuf: &mut Vec<f32>,
) {
    let rows = block.len() / n;
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        pack_a(a, first_row, rows, p0, kc, abuf);
        let bbase = p0 * bp.n_strips * NR;
        for (sa, apanel) in abuf.chunks_exact(kc * MR).enumerate() {
            let r0 = sa * MR;
            let h = MR.min(rows - r0);
            for sb in 0..bp.n_strips {
                let j0 = sb * NR;
                let w = NR.min(n - j0);
                let bstrip = &bp.data[bbase + sb * kc * NR..bbase + (sb + 1) * kc * NR];
                // Full-width tile rows copy a constant `NR` floats, which
                // compiles to vector moves; a variable-width copy is a
                // `memcpy` call per row and cost more than the tile's
                // arithmetic at the tower shapes.
                let mut acc = [[0.0f32; NR]; MR];
                for (r, acc_row) in acc.iter_mut().enumerate().take(h) {
                    let c0 = (r0 + r) * n + j0;
                    if w == NR {
                        acc_row.copy_from_slice(&block[c0..c0 + NR]);
                    } else {
                        acc_row[..w].copy_from_slice(&block[c0..c0 + w]);
                    }
                }
                microkernel(apanel, bstrip, &mut acc);
                for (r, acc_row) in acc.iter().enumerate().take(h) {
                    let c0 = (r0 + r) * n + j0;
                    if w == NR {
                        block[c0..c0 + NR].copy_from_slice(acc_row);
                    } else {
                        block[c0..c0 + w].copy_from_slice(&acc_row[..w]);
                    }
                }
            }
        }
        p0 += kc;
    }
}

/// The packed product into `c` (`m x n`, zeroed), row-blocked across
/// the pool when worthwhile, in the given kernel copy.
fn gemm_packed(
    kernel: Kernel,
    a: AOrient<'_>,
    bp: PackedB<'_>,
    m: usize,
    k: usize,
    n: usize,
    c: &mut [f32],
) {
    if parallel_worthwhile(m, k, n) {
        pool::par_row_blocks(c, m, n, |first_row, block| {
            kernel.gemm_block(a, bp, k, n, first_row, block);
        });
    } else {
        kernel.gemm_block(a, bp, k, n, 0, c);
    }
}

/// Shared driver: sizes `c` to `m x n` zeros, then picks packed/naive,
/// serial/parallel and the kernel copy per product. All paths produce
/// identical bits (see module docs), so the dispatch is invisible in
/// the numbers.
fn run_gemm(
    a: AOrient<'_>,
    pack: impl for<'b> FnOnce(&'b mut Vec<f32>) -> PackedB<'b>,
    naive: impl Fn(usize, &mut [f32]) + Sync,
    (m, k, n): (usize, usize, usize),
    c: &mut Matrix,
) {
    c.resize_zeroed(m, n);
    if pack_worthwhile(m, k, n) {
        PACKED_B.with_borrow_mut(|buf| {
            gemm_packed(Kernel::detect(), a, pack(buf), m, k, n, c.as_mut_slice());
        });
    } else if parallel_worthwhile(m, k, n) {
        pool::par_row_blocks(c.as_mut_slice(), m, n, &naive);
    } else {
        naive(0, c.as_mut_slice());
    }
}

/// `C = A (m x k) · B (k x n)`.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
#[must_use]
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::unshaped();
    matmul_into(a, b, &mut c);
    c
}

/// [`matmul`] into `c`'s reused buffer.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    check_nn(a, b);
    run_gemm(
        AOrient::RowMajor(a),
        |buf| pack_b_nn(b, buf),
        |first_row, block| reference::matmul_block(a, b, first_row, block),
        (a.rows(), a.cols(), b.cols()),
        c,
    );
}

/// `C = Aᵀ (k x m)ᵀ · B (k x n)`, i.e. `A` is stored as `k x m` and used
/// transposed. Equivalent to `matmul(&a.transpose(), b)` without the copy.
#[must_use]
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::unshaped();
    matmul_tn_into(a, b, &mut c);
    c
}

/// [`matmul_tn`] into `c`'s reused buffer.
///
/// # Panics
/// Panics if `a.rows() != b.rows()`.
pub fn matmul_tn_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    check_tn(a, b);
    run_gemm(
        AOrient::ColMajor(a),
        |buf| pack_b_nn(b, buf),
        |first_row, block| reference::matmul_tn_block(a, b, first_row, block),
        (a.cols(), a.rows(), b.cols()),
        c,
    );
}

/// `C = A (m x k) · Bᵀ (n x k)ᵀ`, i.e. `B` is stored as `n x k` and used
/// transposed. Equivalent to `matmul(a, &b.transpose())` without the copy.
#[must_use]
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::unshaped();
    matmul_nt_into(a, b, &mut c);
    c
}

/// [`matmul_nt`] into `c`'s reused buffer.
///
/// # Panics
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_nt_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    check_nt(a, b);
    run_gemm(
        AOrient::RowMajor(a),
        |buf| pack_b_nt(b, buf),
        |first_row, block| reference::matmul_nt_block(a, b, first_row, block),
        (a.rows(), a.cols(), b.rows()),
        c,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::check::assert_close_rel;
    use crate::rng::Rng;

    #[test]
    fn small_known_product() {
        let a = Matrix::from_rows(&[&[1., 2.], &[3., 4.]]);
        let b = Matrix::from_rows(&[&[5., 6.], &[7., 8.]]);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[&[19., 22.], &[43., 50.]]));
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::seed_from(7);
        let a = rng.normal_matrix(4, 4, 0.0, 1.0);
        let c = matmul(&a, &Matrix::eye(4));
        assert_close(&c, &a, 1e-6, 1e-7);
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let mut rng = Rng::seed_from(11);
        let a = rng.normal_matrix(5, 3, 0.0, 1.0); // used as Aᵀ: 3x5 effective
        let b = rng.normal_matrix(5, 4, 0.0, 1.0);
        assert_close(&matmul_tn(&a, &b), &matmul(&a.transpose(), &b), 1e-5, 1e-6);
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let mut rng = Rng::seed_from(13);
        let a = rng.normal_matrix(4, 6, 0.0, 1.0);
        let b = rng.normal_matrix(3, 6, 0.0, 1.0); // used as Bᵀ: 6x3 effective
        assert_close(&matmul_nt(&a, &b), &matmul(&a, &b.transpose()), 1e-5, 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn dim_mismatch_panics() {
        let _ = matmul(&Matrix::ones(2, 3), &Matrix::ones(2, 3));
    }

    #[test]
    fn rectangular_shapes() {
        let mut rng = Rng::seed_from(17);
        let a = rng.normal_matrix(1, 7, 0.0, 1.0);
        let b = rng.normal_matrix(7, 1, 0.0, 1.0);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (1, 1));
        let expect: f32 = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| x * y)
            .sum();
        assert_close_rel(c[(0, 0)], expect, 1e-5, 1e-6, "1x1 product");
    }

    /// Shapes straddling the packed-kernel edges: rows not a multiple
    /// of `MR`, cols not a multiple of `NR`, `k` straddling `KC`.
    #[test]
    fn blocked_kernels_match_reference_on_edge_shapes() {
        let mut rng = Rng::seed_from(23);
        for &(m, k, n) in &[
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
            (MR * 3 - 1, KC * 2 - 1, NR * 2 + 3),
            (17, 19, 23),
        ] {
            let a = rng.normal_matrix(m, k, 0.0, 1.0);
            let b = rng.normal_matrix(k, n, 0.0, 1.0);
            assert_eq!(
                matmul(&a, &b),
                reference::matmul(&a, &b),
                "matmul {m}x{k}x{n}"
            );
            let at = rng.normal_matrix(k, m, 0.0, 1.0);
            assert_eq!(
                matmul_tn(&at, &b),
                reference::matmul_tn(&at, &b),
                "matmul_tn {m}x{k}x{n}"
            );
            let bt = rng.normal_matrix(n, k, 0.0, 1.0);
            assert_eq!(
                matmul_nt(&a, &bt),
                reference::matmul_nt(&a, &bt),
                "matmul_nt {m}x{k}x{n}"
            );
        }
    }

    /// Both compiled copies of the packed kernel, forced even where
    /// dispatch would take the naive loop, against the oracle with
    /// `==` in every flavour: the tower shapes (rows x (k, n)), partial
    /// tiles, and a depth that crosses `KC`.
    #[test]
    fn both_kernel_copies_match_reference_exactly() {
        let mut kernels = vec![Kernel::PORTABLE];
        if Kernel::detect().avx2 {
            kernels.push(Kernel::detect());
        } else {
            eprintln!("this CPU has no AVX2: only the portable copy runs");
        }
        let mut rng = Rng::seed_from(29);
        let (mut nn_buf, mut tn_buf, mut nt_buf) = (Vec::new(), Vec::new(), Vec::new());
        for m in [1usize, 3, 4, 17, 255, 256, 300] {
            for (k, n) in [(48usize, 32usize), (32, 16), (16, 1), (8, 10), (KC + 3, 5)] {
                let a = rng.normal_matrix(m, k, 0.0, 1.0);
                let at = rng.normal_matrix(k, m, 0.0, 1.0);
                let b = rng.normal_matrix(k, n, 0.0, 1.0);
                let bt = rng.normal_matrix(n, k, 0.0, 1.0);
                let flavours = [
                    (
                        "nn",
                        AOrient::RowMajor(&a),
                        pack_b_nn(&b, &mut nn_buf),
                        matmul(&a, &b),
                        reference::matmul(&a, &b),
                    ),
                    (
                        "tn",
                        AOrient::ColMajor(&at),
                        pack_b_nn(&b, &mut tn_buf),
                        matmul_tn(&at, &b),
                        reference::matmul_tn(&at, &b),
                    ),
                    (
                        "nt",
                        AOrient::RowMajor(&a),
                        pack_b_nt(&bt, &mut nt_buf),
                        matmul_nt(&a, &bt),
                        reference::matmul_nt(&a, &bt),
                    ),
                ];
                for (name, a_eff, bp, dispatched, oracle) in &flavours {
                    assert_eq!(dispatched, oracle, "dispatched {name} {m}x{k}x{n}");
                    for &kernel in &kernels {
                        let mut c = Matrix::zeros(m, n);
                        gemm_packed(kernel, *a_eff, *bp, m, k, n, c.as_mut_slice());
                        assert_eq!(&c, oracle, "{kernel:?} {name} {m}x{k}x{n}");
                    }
                }
            }
        }
    }

    /// The `*_into` flavours overwrite whatever the reused output held,
    /// whatever its old shape: each product starts from `+0.0`.
    #[test]
    fn into_flavours_ignore_the_old_output() {
        let mut rng = Rng::seed_from(31);
        let mut c = rng.normal_matrix(300, 40, 0.0, 1.0);
        for (m, k, n) in [(17, 48, 32), (300, 32, 16), (3, 16, 1), (64, 40, 9)] {
            let a = rng.normal_matrix(m, k, 0.0, 1.0);
            let at = rng.normal_matrix(k, m, 0.0, 1.0);
            let b = rng.normal_matrix(k, n, 0.0, 1.0);
            let bt = rng.normal_matrix(n, k, 0.0, 1.0);
            matmul_into(&a, &b, &mut c);
            assert_eq!(c, reference::matmul(&a, &b), "nn {m}x{k}x{n}");
            matmul_tn_into(&at, &b, &mut c);
            assert_eq!(c, reference::matmul_tn(&at, &b), "tn {m}x{k}x{n}");
            matmul_nt_into(&a, &bt, &mut c);
            assert_eq!(c, reference::matmul_nt(&a, &bt), "nt {m}x{k}x{n}");
        }
    }

    /// Shapes chosen to clear [`PAR_FLOP_THRESHOLD`] so the parallel
    /// path actually runs; results must be bit-identical to serial.
    #[test]
    fn parallel_matches_serial_bitwise() {
        let mut rng = Rng::seed_from(19);
        let (m, k, n) = (96, 64, 64); // 96*64*64 = 393216 > threshold
        let a = rng.normal_matrix(m, k, 0.0, 1.0);
        let b = rng.normal_matrix(k, n, 0.0, 1.0);
        let g = rng.normal_matrix(m, n, 0.0, 1.0);
        let bt = rng.normal_matrix(n, k, 0.0, 1.0);

        crate::pool::set_threads(1);
        let (c1, t1, n1) = (matmul(&a, &b), matmul_tn(&a, &g), matmul_nt(&g, &bt));
        assert_eq!(c1, reference::matmul(&a, &b), "blocked vs oracle");
        assert_eq!(t1, reference::matmul_tn(&a, &g), "blocked tn vs oracle");
        assert_eq!(n1, reference::matmul_nt(&g, &bt), "blocked nt vs oracle");
        for threads in [2usize, 3, 8] {
            crate::pool::set_threads(threads);
            assert_eq!(matmul(&a, &b), c1, "matmul at {threads} threads");
            assert_eq!(matmul_tn(&a, &g), t1, "matmul_tn at {threads} threads");
            assert_eq!(matmul_nt(&g, &bt), n1, "matmul_nt at {threads} threads");
        }
        crate::pool::clear_threads_override();
    }
}
