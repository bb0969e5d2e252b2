//! Dense row-major matrix type and basic BLAS-like operations.
//!
//! This stands in for the Intel MKL dense routines the paper links against.
//! Sizes in this code base are modest (at most a few thousand on a side, most
//! commonly a few hundred), so a straightforward cache-blocked
//! implementation is adequate and keeps the crate dependency-free.

use std::ops::{Index, IndexMut};

/// Dense row-major `f64` matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates an `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Mat {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Mat {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Mat {
        assert_eq!(data.len(), rows * cols, "Mat::from_vec: size mismatch");
        Mat { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Mat {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `y = A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product writing into a caller-provided buffer.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *yi = acc;
        }
    }

    /// Accumulating matrix–vector product `y += alpha * A x`.
    pub fn matvec_acc(&self, x: &[f64], alpha: f64, y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *yi += alpha * acc;
        }
    }

    /// Transposed matrix–vector product `y = Aᵀ x`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t: dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (yj, aij) in y.iter_mut().zip(self.row(i)) {
                *yj += aij * xi;
            }
        }
        y
    }

    /// Matrix–matrix product `C = A B`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, b: &Mat) -> Mat {
        assert_eq!(self.cols, b.rows, "matmul: inner dimension mismatch");
        let mut c = Mat::zeros(self.rows, b.cols);
        gemm_acc(
            self.rows,
            b.cols,
            self.cols,
            1.0,
            &self.data,
            &b.data,
            &mut c.data,
        );
        c
    }

    /// Accumulating matrix–matrix product `C += alpha · A B` into a
    /// caller-provided matrix (the GEMM path used by the batched FMM M2L).
    ///
    /// # Panics
    /// Panics on any dimension mismatch.
    pub fn matmul_acc(&self, b: &Mat, alpha: f64, c: &mut Mat) {
        assert_eq!(self.cols, b.rows, "matmul_acc: inner dimension mismatch");
        assert_eq!(c.rows, self.rows, "matmul_acc: output rows");
        assert_eq!(c.cols, b.cols, "matmul_acc: output cols");
        gemm_acc(
            self.rows,
            b.cols,
            self.cols,
            alpha,
            &self.data,
            &b.data,
            &mut c.data,
        );
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Scales the matrix in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns `A + alpha * B`.
    pub fn add_scaled(&self, b: &Mat, alpha: f64) -> Mat {
        assert_eq!((self.rows, self.cols), (b.rows, b.cols));
        let data = self
            .data
            .iter()
            .zip(&b.data)
            .map(|(x, y)| x + alpha * y)
            .collect();
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// Row-major GEMM on raw buffers: `C[m×n] += alpha · A[m×k] · B[k×n]`.
///
/// Register-tiled microkernel: `MR × NR` accumulator blocks (4 rows × 24
/// columns = 12 SIMD vectors at AVX-512 width) held across the full `k`
/// loop. This is the workhorse behind [`Mat::matmul`], [`Mat::matmul_acc`],
/// and the FMM's batched M2L dispatch, where `A` is a block of gathered
/// equivalent densities and `B` a translation operator.
///
/// Every entry gets the same arithmetic, whichever tile it falls in:
/// `acc = Σ_k a_ik·b_kj` summed from zero in `k` order, then
/// `c_ij += alpha·acc`. A row's result is therefore bit-identical however
/// many other rows share the call, which lets the M2L drop rows from a
/// batch without perturbing the rows it keeps.
///
/// # Panics
/// Panics if a buffer is smaller than its `m`/`n`/`k` shape implies.
pub fn gemm_acc(m: usize, n: usize, k: usize, alpha: f64, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert!(a.len() >= m * k, "gemm_acc: A too small");
    assert!(b.len() >= k * n, "gemm_acc: B too small");
    assert!(c.len() >= m * n, "gemm_acc: C too small");
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    const MR: usize = 4;
    let m_main = m - m % MR;
    gemm_rows::<MR>(0..m_main, n, k, alpha, a, b, c);
    // bottom edge (m % MR rows): one-row tiles, same arithmetic
    gemm_rows::<1>(m_main..m, n, k, alpha, a, b, c);
}

/// One band of [`gemm_acc`] rows, `MR` at a time (`rows.len()` must be a
/// multiple of `MR`). j-outer ordering: one k×W strip of B stays
/// cache-resident while every row block of A streams against it. 24-wide
/// tiles first, then 8-wide tiles, then one narrower tile for the last
/// `n % 8` columns, so A streams once per strip even when `n < 8`.
#[inline]
fn gemm_rows<const MR: usize>(
    rows: std::ops::Range<usize>,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    if rows.is_empty() {
        return;
    }
    let mut j0 = 0;
    while j0 + 24 <= n {
        gemm_tile::<MR, 24>(rows.clone(), j0, 24, n, k, alpha, a, b, c);
        j0 += 24;
    }
    while j0 + 8 <= n {
        gemm_tile::<MR, 8>(rows.clone(), j0, 8, n, k, alpha, a, b, c);
        j0 += 8;
    }
    if j0 < n {
        gemm_tile::<MR, 8>(rows, j0, n - j0, n, k, alpha, a, b, c);
    }
}

/// One `MR × w` register-tiled column strip of [`gemm_acc`], `w ≤ W`
/// (`w < W` only for the right-edge strip). Always inlined so a full
/// tile's `w = W` is a compile-time constant.
#[allow(clippy::too_many_arguments)] // BLAS-shaped signature
#[inline(always)]
fn gemm_tile<const MR: usize, const W: usize>(
    rows: std::ops::Range<usize>,
    j0: usize,
    w: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    for i0 in rows.step_by(MR) {
        // register-resident accumulator block, held across the k loop
        let mut acc = [[0.0f64; W]; MR];
        for kk in 0..k {
            let brow = &b[kk * n + j0..kk * n + j0 + w];
            for (i, acci) in acc.iter_mut().enumerate() {
                let aik = a[(i0 + i) * k + kk];
                for (accij, bkj) in acci[..w].iter_mut().zip(brow) {
                    *accij += aik * bkj;
                }
            }
        }
        for (i, acci) in acc.iter().enumerate() {
            let crow = &mut c[(i0 + i) * n + j0..(i0 + i) * n + j0 + w];
            for (cij, accij) in crow.iter_mut().zip(acci) {
                *cij += alpha * accij;
            }
        }
    }
}

/// y ← y + alpha x (BLAS axpy).
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean dot product of two slices.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm of a slice.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Infinity norm of a slice.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let a = Mat::from_fn(3, 3, |i, j| (i * 3 + j) as f64 + 1.0);
        let i = Mat::identity(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Mat::from_fn(4, 3, |i, j| (i as f64) - 2.0 * (j as f64));
        let x = vec![1.0, -1.0, 2.0];
        let xm = Mat::from_vec(3, 1, x.clone());
        let y = a.matvec(&x);
        let ym = a.matmul(&xm);
        for i in 0..4 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-14);
        }
    }

    #[test]
    fn transpose_involution_and_matvec_t() {
        let a = Mat::from_fn(3, 5, |i, j| ((i + 1) * (j + 2)) as f64);
        assert_eq!(a.transpose().transpose(), a);
        let x = vec![1.0, 2.0, 3.0];
        let y1 = a.matvec_t(&x);
        let y2 = a.transpose().matvec(&x);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-13);
        }
    }

    #[test]
    fn matmul_associativity_small() {
        let a = Mat::from_fn(2, 3, |i, j| (i + j) as f64);
        let b = Mat::from_fn(3, 4, |i, j| (i as f64) * 0.5 - j as f64);
        let c = Mat::from_fn(4, 2, |i, j| 1.0 / ((i + j + 1) as f64));
        let l = a.matmul(&b).matmul(&c);
        let r = a.matmul(&b.matmul(&c));
        assert!((l.add_scaled(&r, -1.0)).frobenius_norm() < 1e-12);
    }

    #[test]
    fn blas_helpers() {
        let x = vec![1.0, 2.0, 2.0];
        assert!((norm2(&x) - 3.0).abs() < 1e-15);
        assert_eq!(norm_inf(&x), 2.0);
        let mut y = vec![1.0, 1.0, 1.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![3.0, 5.0, 5.0]);
        assert!((dot(&x, &y) - (3.0 + 10.0 + 10.0)).abs() < 1e-15);
    }

    #[test]
    fn gemm_acc_matches_matmul() {
        let a = Mat::from_fn(7, 5, |i, j| (i as f64 + 1.0) * 0.3 - j as f64 * 0.7);
        let b = Mat::from_fn(5, 9, |i, j| (i * 9 + j) as f64 * 0.01 - 0.2);
        let reference = a.matmul(&b);
        // accumulate twice with alpha = 0.5 into a pre-filled C
        let mut c = Mat::from_fn(7, 9, |i, j| (i + j) as f64);
        let base = c.clone();
        a.matmul_acc(&b, 0.5, &mut c);
        a.matmul_acc(&b, 0.5, &mut c);
        let expect = base.add_scaled(&reference, 1.0);
        assert!(c.add_scaled(&expect, -1.0).frobenius_norm() < 1e-12);
    }

    #[test]
    fn gemm_acc_handles_tall_blocks() {
        // m not a multiple of the row-block size
        let m = 21;
        let k = 13;
        let n = 17;
        let a = Mat::from_fn(m, k, |i, j| ((i * k + j) % 7) as f64 - 3.0);
        let b = Mat::from_fn(k, n, |i, j| ((i * n + j) % 5) as f64 * 0.25);
        let mut c = vec![0.0; m * n];
        gemm_acc(m, n, k, 1.0, a.data(), b.data(), &mut c);
        // independent naive triple loop as the reference
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a[(i, l)] * b[(l, j)];
                }
                assert!((c[i * n + j] - acc).abs() < 1e-12);
            }
        }
    }

    /// Each row of a `gemm_acc` must come out bit-identical to the same
    /// row computed alone, wherever it sits relative to the 4-row tiles
    /// (m = 4k + r for every r) and the 24/8-wide and right-edge strips.
    #[test]
    fn gemm_acc_rows_are_independent_of_their_batch() {
        let (n, k, alpha) = (37, 19, 0.731);
        for m in [1usize, 4, 5, 6, 7, 8, 13] {
            let a = Mat::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 23) as f64 * 0.137 - 1.1);
            let b = Mat::from_fn(k, n, |i, j| ((i * 13 + j * 7) % 19) as f64 * 0.071 - 0.6);
            let c0 = Mat::from_fn(m, n, |i, j| (i as f64 - j as f64) * 0.01);
            let mut c = c0.data().to_vec();
            gemm_acc(m, n, k, alpha, a.data(), b.data(), &mut c);
            for i in 0..m {
                let mut row = c0.data()[i * n..(i + 1) * n].to_vec();
                gemm_acc(
                    1,
                    n,
                    k,
                    alpha,
                    &a.data()[i * k..(i + 1) * k],
                    b.data(),
                    &mut row,
                );
                let got: Vec<u64> = c[i * n..(i + 1) * n].iter().map(|v| v.to_bits()).collect();
                let alone: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, alone, "m = {m}, row {i}");
            }
        }
    }

    #[test]
    fn matvec_acc_accumulates() {
        let a = Mat::identity(3);
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![1.0; 3];
        a.matvec_acc(&x, 2.0, &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
    }
}
