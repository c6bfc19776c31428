//! Raw compute kernels.
//!
//! Everything here operates on plain slices so the kernels are trivially
//! testable and free of autograd concerns. Output buffers come from the
//! thread-local [`scratch`] pool, so steady-state batch loops reuse capacity
//! instead of allocating a fresh `Vec` per op.
//!
//! Parallelism: kernels switch to rayon data parallelism once the work size
//! crosses a threshold. The vendored rayon has no pool: every stage
//! materializes its chunk lists, spawns scoped OS threads and joins them,
//! and the rows' cache lines travel to the other core and back. Measured
//! against the sequential arm at the shapes the encoder runs (the
//! `microbench` module below), that dispatch costs ~100 µs a stage on the
//! 2-core reference host — several times a whole `n·32·32` linear on a
//! 200-node graph — so the thresholds sit at the measured break-even and
//! nothing at harness scale (hidden 32) dispatches, while paper-scale
//! `256×256` linears (≥ 32 rows) keep their parallel path. Compute-bound
//! kernels (matmul family) gate on multiply-adds via [`PAR_THRESHOLD`];
//! memory-bound kernels (gather, sequence max, row softmax) gate on
//! elements touched via [`PAR_THRESHOLD_MEMBOUND`].
//!
//! Every parallel arm is row-parallel and writes each output row with the
//! same operation order as the sequential arm, so the two are bit-identical
//! — which is what lets a threshold move without moving a ranking.

use crate::scratch;
use rayon::prelude::*;
use std::sync::OnceLock;

/// Minimum number of f32 multiply-adds before a compute-bound kernel bothers
/// with rayon: the two-worker break-even `2·D·r` of a ~100 µs stage
/// dispatch `D` against a sequential rate `r` of 7.5–9 MAC/ns, which
/// `microbench::dispatch_cost_and_break_even` prints as 1.5–2.2 Mi MACs on
/// the reference host. More workers only lower the crossing's `c/(c−1)`
/// factor towards 1, so the two-worker figure is safe everywhere.
pub(crate) const PAR_THRESHOLD: usize = 2 * 1024 * 1024;

/// Minimum number of f32 elements touched before a memory-bound kernel
/// (gather / seq-max / softmax) parallelizes: the same dispatch cost against
/// a sequential copy rate of 4–5 f32/ns (0.9–1.0 Mi elements measured).
pub(crate) const PAR_THRESHOLD_MEMBOUND: usize = 1024 * 1024;

/// True when this host can actually run more than one worker. The rayon
/// parallel adaptors are eager (they materialize chunk lists before
/// dispatch), so on single-core hosts the "parallel" path is pure
/// overhead — measured ~40% on batched-size matmuls — and must be skipped.
#[inline]
pub(crate) fn multicore() -> bool {
    #[cfg(test)]
    if FORCE_PARALLEL.load(std::sync::atomic::Ordering::Relaxed) > 0 {
        return true;
    }
    static CORES: OnceLock<bool> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get() > 1)
            .unwrap_or(false)
    })
}

/// Test hook: while nonzero (a count, so concurrently running tests do not
/// switch each other off) the parallel branches are forced on, so they stay
/// covered even on single-core CI hosts (the vendored rayon degrades to
/// sequential execution of the same closures when only one worker exists).
#[cfg(test)]
pub(crate) static FORCE_PARALLEL: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(0);

/// `C[n×m] = A[n×k] · B[k×m]`, row-major, ikj loop order for cache locality.
///
/// The inner loop is deliberately branch-free: skipping `a == 0.0` entries
/// looks attractive for sparse inputs, but the model's one-hot lookups go
/// through [`gather_rows`], so every matmul on the hot path multiplies dense
/// activations by dense weights — there the zero-test is a mispredicted
/// branch per FLOP (measured 6–20% slower at GNN layer shapes; see the
/// `microbench` module).
pub(crate) fn matmul(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    debug_assert_eq!(a.len(), n * k);
    debug_assert_eq!(b.len(), k * m);
    let mut c = scratch::take_zeroed(n * m);
    let work = n * k * m;
    if work >= PAR_THRESHOLD && n > 1 && multicore() {
        c.par_chunks_mut(m).enumerate().for_each(|(i, crow)| {
            matmul_row(&a[i * k..(i + 1) * k], b, crow, k, m);
        });
    } else {
        for i in 0..n {
            matmul_row(&a[i * k..(i + 1) * k], b, &mut c[i * m..(i + 1) * m], k, m);
        }
    }
    c
}

#[inline]
fn matmul_row(arow: &[f32], b: &[f32], crow: &mut [f32], k: usize, m: usize) {
    for (p, &av) in arow.iter().enumerate().take(k) {
        let brow = &b[p * m..(p + 1) * m];
        for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
            *cv += av * bv;
        }
    }
}

/// `C[n×m] = A[k×n]ᵀ · B[k×m]` without materializing the transpose.
pub(crate) fn matmul_tn(a: &[f32], b: &[f32], k: usize, n: usize, m: usize) -> Vec<f32> {
    debug_assert_eq!(a.len(), k * n);
    debug_assert_eq!(b.len(), k * m);
    // Accumulate row-by-row of A/B: C += a_pᵀ ⊗ b_p.
    let work = n * k * m;
    let mut c = scratch::take_zeroed(n * m);
    if work >= PAR_THRESHOLD && n > 1 && multicore() {
        c.par_chunks_mut(m).enumerate().for_each(|(i, crow)| {
            for p in 0..k {
                let av = a[p * n + i];
                let brow = &b[p * m..(p + 1) * m];
                for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                    *cv += av * bv;
                }
            }
        });
    } else {
        for p in 0..k {
            let arow = &a[p * n..(p + 1) * n];
            let brow = &b[p * m..(p + 1) * m];
            for (i, &av) in arow.iter().enumerate() {
                let crow = &mut c[i * m..(i + 1) * m];
                for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                    *cv += av * bv;
                }
            }
        }
    }
    c
}

/// `C[n×m] = A[n×k] · B[m×k]ᵀ` without materializing the transpose.
pub(crate) fn matmul_nt(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    debug_assert_eq!(a.len(), n * k);
    debug_assert_eq!(b.len(), m * k);
    let work = n * k * m;
    let row = |i: usize, crow: &mut [f32]| {
        let arow = &a[i * k..(i + 1) * k];
        for (j, cv) in crow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow.iter()) {
                acc += av * bv;
            }
            *cv = acc;
        }
    };
    let mut c = scratch::take_zeroed(n * m);
    if work >= PAR_THRESHOLD && n > 1 && multicore() {
        c.par_chunks_mut(m)
            .enumerate()
            .for_each(|(i, crow)| row(i, crow));
    } else {
        for (i, crow) in c.chunks_mut(m).enumerate() {
            row(i, crow);
        }
    }
    c
}

/// Row-major transpose of an `n×m` matrix.
pub(crate) fn transpose(a: &[f32], n: usize, m: usize) -> Vec<f32> {
    let mut out = scratch::take_zeroed(n * m);
    for i in 0..n {
        for j in 0..m {
            out[j * n + i] = a[i * m + j];
        }
    }
    out
}

/// Gathers rows of `x` (`rows×d`) by `idx` into an `idx.len()×d` matrix.
pub(crate) fn gather_rows(x: &[f32], d: usize, idx: &[u32]) -> Vec<f32> {
    let mut out = scratch::take_zeroed(idx.len() * d);
    if idx.len() * d >= PAR_THRESHOLD_MEMBOUND && multicore() {
        out.par_chunks_mut(d)
            .zip(idx.par_iter())
            .for_each(|(orow, &i)| {
                orow.copy_from_slice(&x[i as usize * d..(i as usize + 1) * d]);
            });
    } else {
        for (orow, &i) in out.chunks_mut(d).zip(idx.iter()) {
            orow.copy_from_slice(&x[i as usize * d..(i as usize + 1) * d]);
        }
    }
    out
}

/// Scatter-add of `src` rows into `out` rows selected by `idx`
/// (the adjoint of [`gather_rows`]). Sequential: rows may collide.
pub(crate) fn scatter_add_rows(out: &mut [f32], d: usize, idx: &[u32], src: &[f32]) {
    debug_assert_eq!(src.len(), idx.len() * d);
    for (srow, &i) in src.chunks(d).zip(idx.iter()) {
        let orow = &mut out[i as usize * d..(i as usize + 1) * d];
        for (o, &s) in orow.iter_mut().zip(srow.iter()) {
            *o += s;
        }
    }
}

/// Segment sum: sums rows of `x` (`e×d`) into `n_seg` buckets by `seg`.
pub(crate) fn segment_sum(x: &[f32], d: usize, seg: &[u32], n_seg: usize) -> Vec<f32> {
    let mut out = scratch::take_zeroed(n_seg * d);
    scatter_add_rows(&mut out, d, seg, x);
    out
}

/// Fused `segment_sum(x ⊙ w, seg)`: scales row `r` of `x` by `w[r]` while
/// scattering it into its bucket — one pass over `x` instead of a
/// materialized `e×d` product followed by a second scatter pass. This is the
/// GNN message-aggregation hot loop (`Σ α_j · m_j` per destination).
pub(crate) fn segment_weighted_sum(
    x: &[f32],
    w: &[f32],
    d: usize,
    seg: &[u32],
    n_seg: usize,
) -> Vec<f32> {
    debug_assert_eq!(x.len(), seg.len() * d);
    debug_assert_eq!(w.len(), seg.len());
    let mut out = scratch::take_zeroed(n_seg * d);
    for ((xrow, &wv), &s) in x.chunks(d).zip(w.iter()).zip(seg.iter()) {
        let orow = &mut out[s as usize * d..(s as usize + 1) * d];
        for (o, &xv) in orow.iter_mut().zip(xrow.iter()) {
            *o += xv * wv;
        }
    }
    out
}

/// Segment mean: averages rows of `x` (`e×d`) into `n_seg` buckets by `seg`.
/// Returns `(means, row_counts)`; empty segments stay zero. This is the
/// node→graph pooling reduction for batched (disjoint-union) encoding.
pub(crate) fn segment_mean(x: &[f32], d: usize, seg: &[u32], n_seg: usize) -> (Vec<f32>, Vec<u32>) {
    let mut out = scratch::take_zeroed(n_seg * d);
    scatter_add_rows(&mut out, d, seg, x);
    let mut counts = vec![0u32; n_seg];
    for &s in seg {
        counts[s as usize] += 1;
    }
    for (orow, &c) in out.chunks_mut(d).zip(counts.iter()) {
        if c > 0 {
            let inv = 1.0 / c as f32;
            for o in orow.iter_mut() {
                *o *= inv;
            }
        }
    }
    (out, counts)
}

/// Segment max. Returns `(values, argmax_row_index)`; empty segments yield 0
/// with argmax `u32::MAX` so their backward contribution vanishes.
pub(crate) fn segment_max(x: &[f32], d: usize, seg: &[u32], n_seg: usize) -> (Vec<f32>, Vec<u32>) {
    let mut out = scratch::take_filled(n_seg * d, f32::NEG_INFINITY);
    let mut arg = vec![u32::MAX; n_seg * d];
    for (r, (xrow, &s)) in x.chunks(d).zip(seg.iter()).enumerate() {
        let orow = &mut out[s as usize * d..(s as usize + 1) * d];
        let arow = &mut arg[s as usize * d..(s as usize + 1) * d];
        for ((o, a), &xv) in orow.iter_mut().zip(arow.iter_mut()).zip(xrow.iter()) {
            if xv > *o {
                *o = xv;
                *a = r as u32;
            }
        }
    }
    for o in out.iter_mut() {
        if *o == f32::NEG_INFINITY {
            *o = 0.0;
        }
    }
    (out, arg)
}

/// Max over the middle (sequence) axis of an `[n, s, d]` block.
/// Returns `(values[n×d], argmax_seq_pos[n×d])`.
pub(crate) fn seq_max(x: &[f32], n: usize, s: usize, d: usize) -> (Vec<f32>, Vec<u32>) {
    debug_assert_eq!(x.len(), n * s * d);
    let mut out = scratch::take_filled(n * d, f32::NEG_INFINITY);
    let mut arg = vec![0u32; n * d];
    let run = |i: usize, orow: &mut [f32], arow: &mut [u32]| {
        for t in 0..s {
            let xrow = &x[(i * s + t) * d..(i * s + t + 1) * d];
            for ((o, a), &xv) in orow.iter_mut().zip(arow.iter_mut()).zip(xrow.iter()) {
                if xv > *o {
                    *o = xv;
                    *a = t as u32;
                }
            }
        }
    };
    if n * s * d >= PAR_THRESHOLD_MEMBOUND && multicore() {
        out.par_chunks_mut(d)
            .zip(arg.par_chunks_mut(d))
            .enumerate()
            .for_each(|(i, (orow, arow))| run(i, orow, arow));
    } else {
        for (i, (orow, arow)) in out.chunks_mut(d).zip(arg.chunks_mut(d)).enumerate() {
            run(i, orow, arow);
        }
    }
    if s == 0 {
        out.iter_mut().for_each(|o| *o = 0.0);
    }
    (out, arg)
}

/// Row-wise softmax for an `n×m` matrix (numerically stabilized).
pub(crate) fn softmax_rows(x: &[f32], n: usize, m: usize) -> Vec<f32> {
    let mut out = scratch::take_zeroed(n * m);
    let run = |xrow: &[f32], orow: &mut [f32]| {
        let mx = xrow.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for (o, &v) in orow.iter_mut().zip(xrow.iter()) {
            let e = (v - mx).exp();
            *o = e;
            z += e;
        }
        let inv = 1.0 / z;
        for o in orow.iter_mut() {
            *o *= inv;
        }
    };
    if n * m >= PAR_THRESHOLD_MEMBOUND && multicore() {
        out.par_chunks_mut(m)
            .zip(x.par_chunks(m))
            .for_each(|(orow, xrow)| run(xrow, orow));
    } else {
        for (orow, xrow) in out.chunks_mut(m).zip(x.chunks(m)) {
            run(xrow, orow);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
        let mut c = vec![0.0; n * m];
        for i in 0..n {
            for j in 0..m {
                for p in 0..k {
                    c[i * m + j] += a[i * k + p] * b[p * m + j];
                }
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let a: Vec<f32> = (0..6).map(|x| x as f32).collect();
        let b: Vec<f32> = (0..12).map(|x| (x as f32) * 0.5).collect();
        assert_eq!(matmul(&a, &b, 2, 3, 4), naive_matmul(&a, &b, 2, 3, 4));
    }

    /// Runs `f` with the parallel branches forced on, so they stay covered
    /// on a single-core host, where `multicore()` would gate them off.
    fn forced_parallel<T>(f: impl FnOnce() -> T) -> T {
        FORCE_PARALLEL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let out = f();
        FORCE_PARALLEL.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
        out
    }

    /// One shape on each side of `PAR_THRESHOLD`: whichever arm a shape
    /// takes, every output row must be bit-identical to the sequential
    /// kernel run on that row alone (`n = 1` never dispatches) — row
    /// parallelism may not reorder a single addition.
    #[test]
    fn matmul_large_parallel_path() {
        let (k, m) = (128usize, 128usize);
        for n in [120usize, 136] {
            let a: Vec<f32> = (0..n * k).map(|x| ((x % 7) as f32) - 3.1).collect();
            let b: Vec<f32> = (0..k * m).map(|x| ((x % 5) as f32) * 0.23).collect();
            let (at, bt) = (transpose(&a, n, k), transpose(&b, k, m));
            assert_eq!(n * k * m >= PAR_THRESHOLD, n == 136, "one shape per arm");
            let (got, got_tn, got_nt) = forced_parallel(|| {
                (
                    matmul(&a, &b, n, k, m),
                    matmul_tn(&at, &b, k, n, m),
                    matmul_nt(&a, &bt, n, k, m),
                )
            });
            for i in 0..n {
                let arow = &a[i * k..(i + 1) * k];
                let want = i * m..(i + 1) * m;
                assert_eq!(got[want.clone()], matmul(arow, &b, 1, k, m), "row {i}");
                // column i of `at` is row i of `a`
                assert_eq!(got_tn[want.clone()], matmul_tn(arow, &b, k, 1, m));
                assert_eq!(got_nt[want], matmul_nt(arow, &bt, 1, k, m));
            }
            for (g, e) in got.iter().zip(naive_matmul(&a, &b, n, k, m)) {
                assert!((g - e).abs() < 1e-2 * e.abs().max(1.0));
            }
        }
    }

    /// The same on each side of `PAR_THRESHOLD_MEMBOUND` for the
    /// memory-bound kernels: bit-identical to the per-row sequential run.
    #[test]
    fn gather_softmax_seqmax_parallel_paths_match_serial() {
        let straddles = |below: usize, above: usize| {
            below < PAR_THRESHOLD_MEMBOUND && above >= PAR_THRESHOLD_MEMBOUND
        };
        let src: Vec<f32> = (0..64 * 1024).map(|v| (v % 11) as f32 - 5.3).collect();

        let d = 16;
        assert!(straddles(60_000 * d, 66_000 * d));
        for rows in [60_000usize, 66_000] {
            let idx: Vec<u32> = (0..rows as u32).map(|i| (i * 7) % 4096).collect();
            let got = forced_parallel(|| gather_rows(&src, d, &idx));
            for (orow, &i) in got.chunks(d).zip(&idx) {
                assert_eq!(orow, &src[i as usize * d..(i as usize + 1) * d]);
            }
        }

        let m = 1024;
        assert!(straddles(1000 * m, 1040 * m));
        for n in [1000usize, 1040] {
            let x: Vec<f32> = (0..n * m).map(|v| src[v % src.len()] * 0.37).collect();
            let got = forced_parallel(|| softmax_rows(&x, n, m));
            for (orow, xrow) in got.chunks(m).zip(x.chunks(m)) {
                assert_eq!(orow, softmax_rows(xrow, 1, m));
            }
        }

        let (s, d) = (64, 64);
        assert!(straddles(250 * s * d, 260 * s * d));
        for n in [250usize, 260] {
            let x: Vec<f32> = (0..n * s * d).map(|v| src[(v * 13) % src.len()]).collect();
            let (got, arg) = forced_parallel(|| seq_max(&x, n, s, d));
            for i in 0..n {
                let (want, want_arg) = seq_max(&x[i * s * d..(i + 1) * s * d], 1, s, d);
                assert_eq!(got[i * d..(i + 1) * d], want);
                assert_eq!(arg[i * d..(i + 1) * d], want_arg);
            }
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let k = 5;
        let n = 3;
        let m = 4;
        let a: Vec<f32> = (0..k * n).map(|x| x as f32 * 0.3 - 2.0).collect();
        let b: Vec<f32> = (0..k * m).map(|x| x as f32 * 0.1).collect();
        let at = transpose(&a, k, n);
        let expect = naive_matmul(&at, &b, n, k, m);
        let got = matmul_tn(&a, &b, k, n, m);
        for (g, e) in got.iter().zip(expect.iter()) {
            assert!((g - e).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let n = 3;
        let k = 5;
        let m = 4;
        let a: Vec<f32> = (0..n * k).map(|x| x as f32 * 0.3 - 2.0).collect();
        let b: Vec<f32> = (0..m * k).map(|x| x as f32 * 0.1).collect();
        let bt = transpose(&b, m, k);
        let expect = naive_matmul(&a, &bt, n, k, m);
        let got = matmul_nt(&a, &b, n, k, m);
        for (g, e) in got.iter().zip(expect.iter()) {
            assert!((g - e).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a: Vec<f32> = (0..6).map(|x| x as f32).collect();
        let t = transpose(&a, 2, 3);
        assert_eq!(t, vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        assert_eq!(transpose(&t, 3, 2), a);
    }

    #[test]
    fn gather_scatter_adjoint() {
        let x: Vec<f32> = (0..8).map(|v| v as f32).collect(); // 4 rows × 2
        let idx = [2u32, 0, 2];
        let g = gather_rows(&x, 2, &idx);
        assert_eq!(g, vec![4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
        let mut out = vec![0.0; 8];
        scatter_add_rows(&mut out, 2, &idx, &g);
        assert_eq!(out, vec![0.0, 1.0, 0.0, 0.0, 8.0, 10.0, 0.0, 0.0]);
    }

    #[test]
    fn segment_sum_buckets() {
        let x = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3 rows × 2
        let seg = [1u32, 0, 1];
        let s = segment_sum(&x, 2, &seg, 3);
        assert_eq!(s, vec![3.0, 4.0, 6.0, 8.0, 0.0, 0.0]);
    }

    #[test]
    fn segment_mean_divides_by_count() {
        let x = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3 rows × 2
        let seg = [1u32, 0, 1];
        let (m, counts) = segment_mean(&x, 2, &seg, 3);
        assert_eq!(m, vec![3.0, 4.0, 3.0, 4.0, 0.0, 0.0]);
        assert_eq!(counts, vec![1, 2, 0]);
    }

    #[test]
    fn segment_max_tracks_argmax() {
        let x = [1.0f32, 9.0, 5.0, 2.0, 3.0, 4.0];
        let seg = [0u32, 0, 0];
        let (v, a) = segment_max(&x, 2, &seg, 2);
        assert_eq!(&v[..2], &[5.0, 9.0]);
        assert_eq!(&a[..2], &[1, 0]);
        // empty segment is zeroed with MAX sentinel
        assert_eq!(&v[2..], &[0.0, 0.0]);
        assert_eq!(&a[2..], &[u32::MAX, u32::MAX]);
    }

    #[test]
    fn seq_max_selects_per_feature() {
        // n=1, s=3, d=2
        let x = [1.0f32, 0.0, 5.0, -1.0, 2.0, 7.0];
        let (v, a) = seq_max(&x, 1, 3, 2);
        assert_eq!(v, vec![5.0, 7.0]);
        assert_eq!(a, vec![1, 2]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = [1.0f32, 2.0, 3.0, -1.0, 0.0, 1.0];
        let s = softmax_rows(&x, 2, 3);
        for row in s.chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!(s[2] > s[1] && s[1] > s[0]);
    }

    #[test]
    fn softmax_handles_large_values() {
        let x = [1000.0f32, 1000.0];
        let s = softmax_rows(&x, 1, 2);
        assert!((s[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn kernels_are_clean_on_recycled_buffers() {
        // Poison the pool with buffers in the same size class the kernels
        // will request (matmul(4,4,4) wants 16 floats → class 4; the
        // segment_max below wants 12 → also class 4), then verify outputs
        // carry no stale values. A poison buffer in the wrong class would
        // never be handed back and make this test vacuous.
        let poison = vec![f32::NAN; 16];
        let ptr = poison.as_ptr() as usize;
        crate::scratch::give(poison);
        let a = vec![1.0f32; 16];
        let c = matmul(&a, &a, 4, 4, 4);
        assert_eq!(
            c.as_ptr() as usize,
            ptr,
            "poison buffer must actually be recycled for this test to bite"
        );
        assert!(c.iter().all(|&v| v == 4.0));
        crate::scratch::give(vec![f32::NAN; 16]);
        let (v, _) = segment_max(&a, 4, &[0, 0, 1, 1], 3);
        assert!(v.iter().all(|&x| x.is_finite()));
    }
}

/// Kernel tuning measurements (`cargo test -p gbm-tensor --release
/// microbench -- --ignored --nocapture`). The numbers that justified the
/// current thresholds and the branch-free matmul inner loop are recorded in
/// EXPERIMENTS.md §Batched encoding.
#[cfg(test)]
mod microbench {
    use super::*;
    use std::time::Instant;

    fn bench(name: &str, f: impl FnMut()) {
        println!("{name:<40} {:>10.2} us/iter", secs_per_iter(f) * 1e6);
    }

    /// Mean seconds per call of `f`, over a 300 ms window after warm-up.
    fn secs_per_iter(mut f: impl FnMut()) -> f64 {
        for _ in 0..3 {
            f();
        }
        let start = Instant::now();
        let mut iters = 0u32;
        while start.elapsed().as_millis() < 300 {
            f();
            iters += 1;
        }
        start.elapsed().as_secs_f64() / iters as f64
    }

    /// The measurement `PAR_THRESHOLD` and `PAR_THRESHOLD_MEMBOUND` cite:
    /// both arms of `matmul` at harness shapes, the dispatch cost `D` they
    /// imply (`T_par − T_seq/c` for `c` workers: spawn, join, the eager
    /// chunk lists, and the rows' cache lines moving to the other core and
    /// back), the sequential rates `r`, and where the arms cross. A stage
    /// costs `D + W/(c·r)` against `W/r`, so it only wins above
    /// `W* = D·r·c/(c−1)`.
    #[test]
    #[ignore]
    fn dispatch_cost_and_break_even() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!("host cores: {cores} (one core never dispatches: multicore() is false)");
        let (k, m) = (32usize, 32usize);
        let b: Vec<f32> = (0..k * m).map(|x| (x % 7) as f32 * 0.1).collect();
        let (mut dispatch, mut mac_rate) = (0.0f64, 0.0f64);
        for &n in &[128usize, 256, 1024] {
            let a: Vec<f32> = (0..n * k).map(|x| (x % 13) as f32 * 0.1 - 0.5).collect();
            assert!(
                n * k * m < PAR_THRESHOLD,
                "matmul must take its sequential arm"
            );
            let seq = secs_per_iter(|| {
                std::hint::black_box(matmul(&a, &b, n, k, m));
            });
            // the parallel arm exactly as `matmul` builds it
            let par = secs_per_iter(|| {
                let mut c = scratch::take_zeroed(n * m);
                c.par_chunks_mut(m).enumerate().for_each(|(i, crow)| {
                    matmul_row(&a[i * k..(i + 1) * k], &b, crow, k, m);
                });
                scratch::give(std::hint::black_box(c));
            });
            let d = par - seq / cores as f64;
            dispatch = dispatch.max(d);
            mac_rate = mac_rate.max((n * k * m) as f64 / seq);
            println!(
                "matmul {n:>4}x{k}x{m}: sequential {:>7.2} us, parallel {:>7.2} us, dispatch {:>7.2} us",
                seq * 1e6,
                par * 1e6,
                d * 1e6
            );
        }
        let x: Vec<f32> = (0..1200 * 32).map(|v| v as f32).collect();
        let idx: Vec<u32> = (0..4000u32).map(|i| i % 1200).collect();
        assert!(idx.len() * 32 < PAR_THRESHOLD_MEMBOUND, "sequential arm");
        let seq = secs_per_iter(|| {
            std::hint::black_box(gather_rows(&x, 32, &idx));
        });
        let copy_rate = (idx.len() * 32) as f64 / seq;
        println!(
            "sequential rates: {:.2} MAC/ns (matmul), {:.2} f32/ns (gather 4000x32)",
            mac_rate * 1e-9,
            copy_rate * 1e-9
        );
        // two workers is the lowest crossing of any host that dispatches
        let c = cores.max(2) as f64;
        let scale = dispatch * c / (c - 1.0) / 1024.0;
        println!(
            "break-even at {c} workers: {:.0} Ki MACs (PAR_THRESHOLD = {} Ki), \
             {:.0} Ki f32 (PAR_THRESHOLD_MEMBOUND = {} Ki)",
            scale * mac_rate,
            PAR_THRESHOLD / 1024,
            scale * copy_rate,
            PAR_THRESHOLD_MEMBOUND / 1024,
        );
    }

    #[test]
    #[ignore]
    fn matmul_profiles() {
        // typical batched-GNN shapes: [n,32]x[32,32] dense, n = nodes in batch
        for &n in &[64usize, 300, 1200] {
            let a: Vec<f32> = (0..n * 32).map(|x| (x % 13) as f32 * 0.1 - 0.5).collect();
            let b: Vec<f32> = (0..32 * 32).map(|x| (x % 7) as f32 * 0.1).collect();
            bench(&format!("matmul dense n={n} k=32 m=32"), || {
                std::hint::black_box(matmul(&a, &b, n, 32, 32));
            });
        }
        // sparse lhs (90% zeros) — the case a zero-skip branch would target
        let n = 300;
        let a: Vec<f32> = (0..n * 32)
            .map(|x| if x % 10 == 0 { 1.0 } else { 0.0 })
            .collect();
        let b: Vec<f32> = (0..32 * 32).map(|x| (x % 7) as f32 * 0.1).collect();
        bench("matmul sparse90 n=300 k=32 m=32", || {
            std::hint::black_box(matmul(&a, &b, n, 32, 32));
        });
        // paper-scale dense: [n,256]x[256,256]
        let n = 300;
        let a: Vec<f32> = (0..n * 256).map(|x| (x % 13) as f32 * 0.1 - 0.5).collect();
        let b: Vec<f32> = (0..256 * 256).map(|x| (x % 7) as f32 * 0.1).collect();
        bench("matmul dense n=300 k=256 m=256", || {
            std::hint::black_box(matmul(&a, &b, n, 256, 256));
        });
        let bt: Vec<f32> = (0..300 * 256).map(|x| (x % 7) as f32 * 0.1).collect();
        bench("matmul_tn k=300 n=256 m=256", || {
            std::hint::black_box(matmul_tn(&a, &bt, 300, 256, 256));
        });
        // gather/scatter: memory-bound
        let x: Vec<f32> = (0..1200 * 32).map(|v| v as f32).collect();
        let idx: Vec<u32> = (0..4000u32).map(|i| i % 1200).collect();
        bench("gather_rows 4000x32 from 1200", || {
            std::hint::black_box(gather_rows(&x, 32, &idx));
        });
    }
}
