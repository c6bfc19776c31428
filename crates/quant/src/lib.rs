//! # gbm-quant
//!
//! Per-row symmetric int8 quantization of embedding matrices, the coarse
//! half of the serving layer's coarse-scan → exact-re-rank retrieval shape
//! (Ling et al.'s deep-graph-matching search uses the same two-stage
//! candidate narrowing): a [`QuantizedMatrix`] mirrors a dense row-major
//! `[rows × hidden]` f32 matrix at one byte per element plus one f32 scale
//! per row — a ~4× smaller scan footprint — and scores a quantized query
//! against every row through the i32-accumulating
//! [`dot_i8_blocked`](gbm_tensor::dot_i8_blocked) kernel.
//!
//! Quantization is *symmetric, per row*: `scale = max|x| / 127`,
//! `code = round(x / scale) ∈ [-127, 127]`, so zero is exactly
//! representable, no zero-point arithmetic pollutes the dot product, and
//! each row's dynamic range sets its own resolution. The reconstruction
//! error per element is at most `scale / 2`, which gives the analytic dot
//! bound [`dot_error_bound`] — property-tested here and the basis for the
//! re-rank-width guidance in `gbm_serve`'s int8 scan. The scan is
//! approximate; exactness comes from the caller re-scoring a widened
//! candidate set against the retained f32 rows.

#![forbid(unsafe_code)]

use gbm_tensor::dot_i8_blocked;

mod ivf;

pub use ivf::{IvfCells, IvfCellsView, IvfProbeStats, IVF_MIN_TRAIN_ROWS};

/// A vector quantized to int8 codes with one symmetric scale:
/// `x[i] ≈ scale · codes[i]`.
#[derive(Clone, Debug)]
pub struct QuantizedVector {
    /// Codes in `[-127, 127]`.
    pub codes: Vec<i8>,
    /// Dequantization scale; `0.0` for an all-zero vector (codes all 0).
    pub scale: f32,
}

/// Quantizes one f32 vector: `scale = max|x| / 127`,
/// `codes[i] = round(x[i] / scale)`. An all-zero (or empty) vector gets
/// `scale = 0` and zero codes, so its approximate dot with anything is 0 —
/// exactly the f32 answer.
pub fn quantize_vector(x: &[f32]) -> QuantizedVector {
    let max = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max == 0.0 {
        return QuantizedVector {
            codes: vec![0i8; x.len()],
            scale: 0.0,
        };
    }
    let scale = max / 127.0;
    let inv = 127.0 / max;
    QuantizedVector {
        codes: x.iter().map(|&v| (v * inv).round() as i8).collect(),
        scale,
    }
}

/// The analytic bound on `|a·b − approx_dot|` for symmetric per-vector
/// scales `sa`, `sb`: each element's rounding error is ≤ `s/2`, so the dot
/// error is at most `Σ |a[i]|·sb/2 + |b[i]|·sa/2 + sa·sb/4`.
pub fn dot_error_bound(a: &[f32], b: &[f32], sa: f32, sb: f32) -> f32 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| x.abs() * sb * 0.5 + y.abs() * sa * 0.5 + sa * sb * 0.25)
        .sum()
}

/// A dense row-major int8 code matrix with per-row scales — the quantized
/// mirror of an f32 embedding matrix. Rows support the same push /
/// swap-remove lifecycle as the serving shards, so a mirror never drifts
/// from the f32 matrix it shadows.
#[derive(Clone, Debug)]
pub struct QuantizedMatrix {
    codes: Vec<i8>,
    scales: Vec<f32>,
    hidden: usize,
}

impl QuantizedMatrix {
    /// An empty matrix of the given row width.
    pub fn new(hidden: usize) -> QuantizedMatrix {
        QuantizedMatrix {
            codes: Vec::new(),
            scales: Vec::new(),
            hidden,
        }
    }

    /// Quantizes every `hidden`-wide row of a dense row-major f32 matrix.
    pub fn from_rows(rows: &[f32], hidden: usize) -> QuantizedMatrix {
        assert!(hidden > 0, "hidden must be positive");
        assert_eq!(rows.len() % hidden, 0, "rows must be a whole matrix");
        let mut m = QuantizedMatrix::new(hidden);
        for row in rows.chunks_exact(hidden) {
            m.push_row(row);
        }
        m
    }

    /// Quantizes and appends one row.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.hidden, "row width mismatch");
        let q = quantize_vector(row);
        self.codes.extend_from_slice(&q.codes);
        self.scales.push(q.scale);
    }

    /// Removes row `r` by swapping the last row into its place (the serving
    /// shard's swap-fill), keeping the matrix dense. Panics when the matrix
    /// is empty or `r` is out of range.
    pub fn swap_remove_row(&mut self, r: usize) {
        assert!(
            r < self.scales.len(),
            "swap_remove_row({r}) on a {}-row matrix",
            self.scales.len()
        );
        let last = self.scales.len() - 1;
        if r != last {
            self.scales[r] = self.scales[last];
            let (head, tail) = self.codes.split_at_mut(last * self.hidden);
            head[r * self.hidden..(r + 1) * self.hidden].copy_from_slice(&tail[..self.hidden]);
        }
        self.scales.pop();
        self.codes.truncate(last * self.hidden);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.scales.len()
    }

    /// Row width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The codes of row `r`.
    pub fn codes_row(&self, r: usize) -> &[i8] {
        &self.codes[r * self.hidden..(r + 1) * self.hidden]
    }

    /// The full row-major code matrix (for persistence).
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// All per-row scales in row order (for persistence).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The scale of row `r`.
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Dequantizes row `r` back to f32 (`scale · code` per element).
    pub fn dequantize_row(&self, r: usize) -> Vec<f32> {
        let s = self.scales[r];
        self.codes_row(r).iter().map(|&c| s * c as f32).collect()
    }

    /// Approximate dot product of a quantized query against row `r`:
    /// `q.scale · scales[r] · Σ q.codes[i]·codes[r][i]`, with the integer
    /// sum accumulated exactly in i32.
    #[inline]
    pub fn approx_dot(&self, r: usize, q: &QuantizedVector) -> f32 {
        self.as_view().approx_dot(r, q)
    }

    /// Bytes a full scan of this matrix touches: one byte per code plus one
    /// f32 scale per row (the 4× story vs `rows · hidden · 4` for f32).
    pub fn scan_bytes(&self) -> usize {
        self.codes.len() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// A borrowed view over this matrix' codes and scales. Scans written
    /// against [`QuantizedMatrixView`] serve owned and memory-mapped
    /// matrices through the exact same arithmetic.
    #[inline]
    pub fn as_view(&self) -> QuantizedMatrixView<'_> {
        QuantizedMatrixView {
            codes: &self.codes,
            scales: &self.scales,
            hidden: self.hidden,
        }
    }
}

/// A borrowed-slice view of a quantized code matrix: the scan-facing subset
/// of [`QuantizedMatrix`] over `&[i8]` codes and `&[f32]` scales that may
/// live in an owned mirror or directly in a memory-mapped artifact.
#[derive(Clone, Copy, Debug)]
pub struct QuantizedMatrixView<'a> {
    codes: &'a [i8],
    scales: &'a [f32],
    hidden: usize,
}

impl<'a> QuantizedMatrixView<'a> {
    /// Wraps raw code/scale slices. `codes` must be row-major with
    /// `scales.len()` rows of width `hidden`.
    pub fn new(codes: &'a [i8], scales: &'a [f32], hidden: usize) -> QuantizedMatrixView<'a> {
        assert_eq!(
            codes.len(),
            scales.len() * hidden,
            "codes must be a whole {} x {hidden} matrix",
            scales.len()
        );
        QuantizedMatrixView {
            codes,
            scales,
            hidden,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.scales.len()
    }

    /// Row width.
    #[inline]
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The codes of row `r`.
    #[inline]
    pub fn codes_row(&self, r: usize) -> &'a [i8] {
        &self.codes[r * self.hidden..(r + 1) * self.hidden]
    }

    /// The scale of row `r`.
    #[inline]
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Approximate dot product of a quantized query against row `r` — the
    /// single definition both owned and mapped scans resolve to.
    #[inline]
    pub fn approx_dot(&self, r: usize, q: &QuantizedVector) -> f32 {
        self.scales[r] * q.scale * dot_i8_blocked(self.codes_row(r), &q.codes) as f32
    }

    /// Bytes a full scan of this view touches.
    pub fn scan_bytes(&self) -> usize {
        self.codes.len() + std::mem::size_of_val(self.scales)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn roundtrip_error_is_within_half_scale() {
        let row = [0.9f32, -0.3, 0.0, 0.127, -1.27];
        let q = quantize_vector(&row);
        assert!(q.codes.iter().all(|&c| (-127..=127).contains(&c)));
        for (&x, &c) in row.iter().zip(&q.codes) {
            assert!(
                (x - q.scale * c as f32).abs() <= q.scale * 0.5 + 1e-7,
                "element {x} reconstructed as {}",
                q.scale * c as f32
            );
        }
        // the max-magnitude element uses the full code range
        assert!(q.codes.iter().any(|&c| c.abs() == 127));
    }

    #[test]
    fn zero_and_empty_vectors_quantize_to_zero() {
        let z = quantize_vector(&[0.0, 0.0, 0.0]);
        assert_eq!(z.scale, 0.0);
        assert_eq!(z.codes, vec![0, 0, 0]);
        let e = quantize_vector(&[]);
        assert_eq!(e.scale, 0.0);
        assert!(e.codes.is_empty());
        let m = QuantizedMatrix::from_rows(&[0.0, 0.0, 1.0, -1.0], 2);
        let q = quantize_vector(&[0.5, 0.5]);
        assert_eq!(m.approx_dot(0, &q), 0.0, "zero row scores exactly 0");
    }

    #[test]
    fn matrix_rows_match_vector_quantization() {
        let rows = [0.5f32, -0.25, 0.1, 1.0, 0.0, -2.0];
        let m = QuantizedMatrix::from_rows(&rows, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.hidden(), 3);
        for r in 0..2 {
            let q = quantize_vector(&rows[r * 3..(r + 1) * 3]);
            assert_eq!(m.codes_row(r), &q.codes[..]);
            assert_eq!(m.scale(r), q.scale);
        }
    }

    #[test]
    fn swap_remove_mirrors_shard_swap_fill() {
        let rows = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut m = QuantizedMatrix::from_rows(&rows, 2);
        let last_codes = m.codes_row(2).to_vec();
        let last_scale = m.scale(2);
        let mid_codes = m.codes_row(1).to_vec();
        m.swap_remove_row(0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.codes_row(0), &last_codes[..]);
        assert_eq!(m.scale(0), last_scale);
        // removing the final row is a plain pop
        m.swap_remove_row(1);
        assert_eq!(m.rows(), 1);
        assert_eq!(m.codes_row(0), &last_codes[..]);
        assert_ne!(last_codes, mid_codes, "rows are distinguishable");
    }

    #[test]
    fn scan_bytes_is_a_quarter_of_f32_plus_scales() {
        let rows = vec![0.5f32; 8 * 16];
        let m = QuantizedMatrix::from_rows(&rows, 16);
        let f32_bytes = rows.len() * 4;
        assert_eq!(m.scan_bytes(), 8 * 16 + 8 * 4);
        assert!((m.scan_bytes() as f64) < f32_bytes as f64 / 3.0);
    }

    #[test]
    fn approx_dot_tracks_exact_dot() {
        let rows: Vec<f32> = (0..64)
            .map(|i| ((i * 37 % 100) as f32 - 50.0) / 50.0)
            .collect();
        let m = QuantizedMatrix::from_rows(&rows, 16);
        let query: Vec<f32> = (0..16)
            .map(|i| ((i * 13 % 100) as f32 - 50.0) / 50.0)
            .collect();
        let q = quantize_vector(&query);
        for r in 0..4 {
            let exact = dot(&query, &rows[r * 16..(r + 1) * 16]);
            let approx = m.approx_dot(r, &q);
            let bound = dot_error_bound(&query, &rows[r * 16..(r + 1) * 16], q.scale, m.scale(r));
            assert!(
                (exact - approx).abs() <= bound + 1e-6,
                "row {r}: exact {exact} approx {approx} bound {bound}"
            );
        }
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every matrix row's approximate dot stays within the analytic
        /// rounding bound of the exact f32 dot, for arbitrary matrices and
        /// queries (including near-zero rows where the scale collapses).
        #[test]
        fn approx_dot_within_analytic_bound(
            flat in proptest::collection::vec(-3.0f32..3.0, 4..160),
            query_seed in proptest::collection::vec(-3.0f32..3.0, 1..16),
        ) {
            let hidden = query_seed.len();
            let rows = flat.len() / hidden;
            if rows > 0 {
                let flat = &flat[..rows * hidden];
                let m = QuantizedMatrix::from_rows(flat, hidden);
                let q = quantize_vector(&query_seed);
                for r in 0..rows {
                    let row = &flat[r * hidden..(r + 1) * hidden];
                    let exact = dot(&query_seed, row);
                    let approx = m.approx_dot(r, &q);
                    let bound = dot_error_bound(&query_seed, row, q.scale, m.scale(r));
                    prop_assert!(
                        (exact - approx).abs() <= bound + 1e-4,
                        "row {}: exact {} approx {} bound {}", r, exact, approx, bound
                    );
                }
            }
        }

        /// Quantization is idempotent on its own reconstruction: codes of a
        /// dequantized row re-quantize to the same codes (scales can differ
        /// only by the max-element normalization, which reconstruction
        /// preserves).
        #[test]
        fn requantizing_reconstruction_is_stable(
            row in proptest::collection::vec(-5.0f32..5.0, 1..48),
        ) {
            let q1 = quantize_vector(&row);
            let recon: Vec<f32> = q1.codes.iter().map(|&c| q1.scale * c as f32).collect();
            let q2 = quantize_vector(&recon);
            prop_assert_eq!(&q1.codes, &q2.codes);
        }
    }
}
