//! Farneback dense optical flow via polynomial expansion.
//!
//! The algorithm follows Farneback's two-frame method (cited by the ASV paper
//! as the motion-estimation component of ISM): every local neighbourhood of
//! each frame is approximated by a quadratic polynomial using a
//! Gaussian-weighted least-squares fit; the displacement field is the one that
//! best explains how the polynomial coefficients move between the two frames.
//!
//! The implementation is deliberately structured as the three stages the paper
//! maps onto the accelerator (Sec. 3.3 and Fig. 8):
//!
//! 1. **Gaussian blur** — the polynomial expansion moments and the
//!    equation-system accumulation are separable Gaussian convolutions
//!    (`asv_image::gaussian`), which the hardware runs on the systolic array.
//! 2. **Matrix update** — a point-wise stage that assembles the 2×2 linear
//!    system `G d = h` from the two expansions and the current flow estimate.
//! 3. **Compute flow** — a point-wise stage that solves the 2×2 system per
//!    pixel.
//!
//! [`FlowOpBreakdown`] reports the arithmetic-operation split between those
//! stages so the performance model can reproduce the paper's "99 % of
//! Farneback is blur + two point-wise stages" claim.
//!
//! The CPU kernels are organised for throughput without changing a single
//! output bit (pinned by `tests/kernel_differential.rs`):
//!
//! * the blurs run tap-major over whole row spans, so they auto-vectorize;
//! * an expansion runs 9 one-dimensional passes instead of 12, because the
//!   six moment filters share three distinct horizontal passes;
//! * the matrix update computes each pixel's bilinear sample position and
//!   weights once and gathers all five planes of the second expansion with
//!   them, through row slices rather than per-pixel accessors;
//! * a [`FlowWorkspace`] keeps every pyramid level's expansion of the last
//!   call's second frame, so a chained call (this call's `frame0` is the
//!   last call's `frame1`, as for consecutive ISM non-key frames) builds
//!   only the new frame's pyramid and expansions.

use crate::field::{FlowError, FlowField};
use crate::Result;
use asv_image::gaussian::{
    blur_in_place, convolve_vertical_into, gaussian_kernel, separable_filter_into,
};
use asv_image::pyramid::Pyramid;
use asv_image::Image;
use asv_trace::{KernelTimings, Stage};
use serde::{Deserialize, Serialize};

/// Tuning parameters of the Farneback flow estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FarnebackParams {
    /// Number of pyramid levels for coarse-to-fine estimation.
    pub pyramid_levels: usize,
    /// Standard deviation of the Gaussian applicability window used by the
    /// polynomial expansion.
    pub poly_sigma: f32,
    /// Standard deviation of the Gaussian used to aggregate the per-pixel
    /// linear systems (the "Gaussian blur" stage).
    pub blur_sigma: f32,
    /// Number of fixed-point iterations per pyramid level.
    pub iterations: usize,
    /// Minimum pyramid level size in pixels.
    pub min_level_size: usize,
}

impl Default for FarnebackParams {
    fn default() -> Self {
        Self {
            pyramid_levels: 3,
            poly_sigma: 1.2,
            blur_sigma: 2.0,
            iterations: 3,
            min_level_size: 12,
        }
    }
}

/// Quadratic polynomial expansion of an image: per pixel the local signal is
/// modelled as `f(δ) ≈ δᵀ A δ + bᵀ δ + c` with `A = [[a11, a12], [a12, a22]]`
/// and `b = [b1, b2]`.
#[derive(Debug, Clone)]
pub struct PolyExpansion {
    a11: Image,
    a12: Image,
    a22: Image,
    b1: Image,
    b2: Image,
}

impl PolyExpansion {
    /// Width of the expanded image.
    pub fn width(&self) -> usize {
        self.a11.width()
    }

    /// Height of the expanded image.
    pub fn height(&self) -> usize {
        self.a11.height()
    }

    /// Quadratic coefficient `a11` (the `x²` curvature).
    pub fn a11(&self) -> &Image {
        &self.a11
    }

    /// Quadratic coefficient `a12` (half the `xy` term).
    pub fn a12(&self) -> &Image {
        &self.a12
    }

    /// Quadratic coefficient `a22` (the `y²` curvature).
    pub fn a22(&self) -> &Image {
        &self.a22
    }

    /// Linear coefficient `b1` (the `x` gradient).
    pub fn b1(&self) -> &Image {
        &self.b1
    }

    /// Linear coefficient `b2` (the `y` gradient).
    pub fn b2(&self) -> &Image {
        &self.b2
    }

    /// An empty expansion (0×0 planes, no allocation); populated by
    /// [`polynomial_expansion_into`].
    fn empty() -> Self {
        Self {
            a11: Image::default(),
            a12: Image::default(),
            a22: Image::default(),
            b1: Image::default(),
            b2: Image::default(),
        }
    }

    fn retained_bytes(&self) -> usize {
        [&self.a11, &self.a12, &self.a22, &self.b1, &self.b2]
            .iter()
            .map(|plane| plane.retained_bytes())
            .sum()
    }
}

/// Kernels and matrices derived purely from the flow parameters, cached so
/// the steady state of a stream never recomputes (or re-allocates) them.
#[derive(Debug)]
struct KernelCache {
    /// Sigma the moment kernels and `ginv` were built for.
    poly_for: Option<f32>,
    /// 1-D moment filters `w(x) · x^p` for p = 0, 1, 2.
    k0: Vec<f32>,
    k1: Vec<f32>,
    k2: Vec<f32>,
    ginv: [[f64; 6]; 6],
    /// Sigma the aggregation-blur kernel was built for.
    blur_for: Option<f32>,
    blur: Vec<f32>,
    /// Sigma-1.0 kernel of the pyramid's level-to-level smoothing.
    pyramid: Vec<f32>,
}

impl KernelCache {
    fn empty() -> Self {
        Self {
            poly_for: None,
            k0: Vec::new(),
            k1: Vec::new(),
            k2: Vec::new(),
            ginv: [[0.0; 6]; 6],
            blur_for: None,
            blur: Vec::new(),
            pyramid: Vec::new(),
        }
    }

    /// Rebuilds the moment kernels and the normal-matrix inverse when
    /// `sigma` differs from the cached one.
    fn ensure_poly(&mut self, sigma: f32) {
        if self.poly_for == Some(sigma) {
            return;
        }
        let kernel = gaussian_kernel(sigma);
        let radius = (kernel.len() / 2) as isize;
        self.k1 = kernel
            .iter()
            .enumerate()
            .map(|(i, &w)| w * (i as isize - radius) as f32)
            .collect(); // lint: alloc-ok(kernel-cache fill, amortized)
        self.k2 = kernel
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let d = (i as isize - radius) as f32;
                w * d * d
            })
            .collect(); // lint: alloc-ok(kernel-cache fill, amortized)
                        // The zeroth moment filter is the kernel itself; it is moved, not
                        // cloned.
        self.k0 = kernel;
        self.ginv = normal_matrix_inverse(sigma);
        self.poly_for = Some(sigma);
    }

    /// Rebuilds the aggregation-blur kernel when `sigma` differs from the
    /// cached one.
    fn ensure_blur(&mut self, sigma: f32) {
        if self.blur_for == Some(sigma) {
            return;
        }
        self.blur = gaussian_kernel(sigma);
        self.blur_for = Some(sigma);
    }

    /// Builds the pyramid smoothing kernel once.
    fn ensure_pyramid(&mut self) {
        if self.pyramid.is_empty() {
            self.pyramid = gaussian_kernel(1.0);
        }
    }
}

/// The parameters a workspace's second-frame pyramid and expansions were
/// built with: `(pyramid_levels, min_level_size, poly_sigma bits)`.
type ChainKey = (usize, usize, u32);

/// Reusable scratch for one Farneback flow estimation: pyramids, per-level
/// polynomial expansions, the per-iteration matrix/blur planes and the flow
/// double buffer.
///
/// A fresh workspace performs no allocation; the first
/// [`farneback_flow_with`] call sizes every buffer and subsequent calls on
/// same-sized frames reuse them, making steady-state flow estimation
/// allocation-free.  Hold one workspace per camera view (the ISM pipeline
/// holds two, one for the left and one for the right stream): a call whose
/// `frame0` is bit-identical to the previous call's `frame1` then reuses
/// that frame's pyramid and expansions instead of rebuilding them.
#[derive(Debug)]
pub struct FlowWorkspace {
    kernels: KernelCache,
    pyr0: Pyramid,
    pyr1: Pyramid,
    /// Per-level expansions of each frame (index = pyramid level).
    exp0: Vec<PolyExpansion>,
    exp1: Vec<PolyExpansion>,
    /// Set when the last call succeeded: `pyr1` and `exp1` then hold that
    /// call's `frame1`, built with these parameters.
    chain: Option<ChainKey>,
    /// The six weighted moment projections of the expansion.
    moments: [Image; 6],
    /// Interleaved per-pixel solve buffer of the parallel expansion driver.
    solve: Vec<[f32; 5]>,
    tmp: Image,
    tmp2: Image,
    /// The matrix-update planes `[g11, g12, g22, h1, h2]`.
    planes: [Image; 5],
    /// Flow double buffer; after a successful [`farneback_flow_with`] call
    /// `flow_a` holds the final estimate.
    flow_a: FlowField,
    flow_b: FlowField,
    /// Per-call kernel timings, staged here so they survive execution on a
    /// pool worker thread (the parallel build runs the two flow directions
    /// under `rayon::join`) and can be harvested by the calling thread's
    /// tracer.  Cleared at the start of every [`farneback_flow_with`] call.
    pub timings: KernelTimings,
}

impl FlowWorkspace {
    /// Creates an empty workspace (no allocation until first use).
    pub fn new() -> Self {
        Self {
            kernels: KernelCache::empty(),
            pyr0: Pyramid::empty(),
            pyr1: Pyramid::empty(),
            exp0: Vec::new(),
            exp1: Vec::new(),
            chain: None,
            moments: std::array::from_fn(|_| Image::default()),
            solve: Vec::new(),
            tmp: Image::default(),
            tmp2: Image::default(),
            planes: std::array::from_fn(|_| Image::default()),
            flow_a: FlowField::zeros(0, 0),
            flow_b: FlowField::zeros(0, 0),
            timings: KernelTimings::new(),
        }
    }

    /// The flow estimated by the most recent [`farneback_flow_with`] call.
    pub fn flow(&self) -> &FlowField {
        &self.flow_a
    }

    /// Moves the most recent flow out of the workspace (leaving an empty
    /// field behind; the next call re-warms the buffer).
    pub fn take_flow(&mut self) -> FlowField {
        std::mem::replace(&mut self.flow_a, FlowField::zeros(0, 0))
    }

    /// Bytes held by the workspace's buffers: both pyramids, every level's
    /// expansion of both frames, the moment planes, the solve buffer, the
    /// convolution intermediates, the matrix planes and the flow double
    /// buffer.
    pub fn retained_bytes(&self) -> usize {
        let images = |planes: &[Image]| planes.iter().map(Image::retained_bytes).sum::<usize>();
        let expansions = |levels: &[PolyExpansion]| {
            levels
                .iter()
                .map(PolyExpansion::retained_bytes)
                .sum::<usize>()
        };
        self.pyr0.retained_bytes()
            + self.pyr1.retained_bytes()
            + expansions(&self.exp0)
            + expansions(&self.exp1)
            + images(&self.moments)
            + self.solve.capacity() * std::mem::size_of::<[f32; 5]>()
            + self.tmp.retained_bytes()
            + self.tmp2.retained_bytes()
            + images(&self.planes)
            + self.flow_a.retained_bytes()
            + self.flow_b.retained_bytes()
    }
}

impl Default for FlowWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// Inverts the symmetric 6×6 normal-equation matrix of the Gaussian-weighted
/// quadratic basis.  Because the Gaussian window is separable and symmetric,
/// the matrix is sparse and can be inverted in closed form through small
/// blocks; for clarity we instead build it explicitly and invert numerically
/// with Gauss-Jordan elimination (it is only 6×6 and computed once per call).
fn normal_matrix_inverse(sigma: f32) -> [[f64; 6]; 6] {
    let kernel = gaussian_kernel(sigma);
    let radius = (kernel.len() / 2) as isize;
    // Basis order: [1, x, y, x^2, y^2, xy].
    let mut g = [[0.0f64; 6]; 6];
    for (iy, wy) in kernel.iter().enumerate() {
        let dy = iy as isize - radius;
        for (ix, wx) in kernel.iter().enumerate() {
            let dx = ix as isize - radius;
            let w = (*wy as f64) * (*wx as f64);
            let b = basis(dx as f64, dy as f64);
            for j in 0..6 {
                for k in 0..6 {
                    g[j][k] += w * b[j] * b[k];
                }
            }
        }
    }
    invert6(&g)
}

fn basis(x: f64, y: f64) -> [f64; 6] {
    [1.0, x, y, x * x, y * y, x * y]
}

/// Gauss-Jordan inversion of a 6×6 matrix.  Panics only if the matrix is
/// singular, which cannot happen for a Gaussian window with positive sigma.
fn invert6(m: &[[f64; 6]; 6]) -> [[f64; 6]; 6] {
    let mut a = *m;
    let mut inv = [[0.0f64; 6]; 6];
    for (i, row) in inv.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for col in 0..6 {
        // Partial pivoting for numerical stability.
        let mut pivot = col;
        for row in col + 1..6 {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let p = a[col][col];
        assert!(p.abs() > 1e-12, "normal matrix is singular");
        for k in 0..6 {
            a[col][k] /= p;
            inv[col][k] /= p;
        }
        for row in 0..6 {
            if row == col {
                continue;
            }
            let f = a[row][col];
            if f == 0.0 {
                continue;
            }
            for k in 0..6 {
                a[row][k] -= f * a[col][k];
                inv[row][k] -= f * inv[col][k];
            }
        }
    }
    inv
}

/// Computes the quadratic polynomial expansion of an image.
///
/// # Errors
///
/// Returns [`FlowError::InvalidParameter`] for an empty image or non-positive
/// sigma.
pub fn polynomial_expansion(image: &Image, sigma: f32) -> Result<PolyExpansion> {
    let mut kernels = KernelCache::empty();
    let mut moments = std::array::from_fn(|_| Image::default());
    let mut tmp = Image::default();
    let mut solve = Vec::new();
    let mut out = PolyExpansion::empty();
    polynomial_expansion_into(
        image,
        sigma,
        &mut kernels,
        &mut moments,
        &mut tmp,
        &mut solve,
        &mut out,
    )?;
    Ok(out)
}

/// [`polynomial_expansion`] writing into reusable buffers: the kernel cache,
/// the six moment planes, one convolution intermediate, the interleaved
/// per-pixel solve buffer (used by the parallel driver) and the output
/// expansion.  Identical output, no allocation once the buffers are warm.
#[allow(clippy::too_many_arguments)]
fn polynomial_expansion_into(
    image: &Image,
    sigma: f32,
    kernels: &mut KernelCache,
    moments: &mut [Image; 6],
    tmp: &mut Image,
    solve: &mut Vec<[f32; 5]>,
    out: &mut PolyExpansion,
) -> Result<()> {
    if image.is_empty() {
        return Err(FlowError::invalid_parameter("cannot expand an empty image"));
    }
    if sigma <= 0.0 {
        return Err(FlowError::invalid_parameter("poly_sigma must be positive"));
    }
    kernels.ensure_poly(sigma);
    let (k0, k1, k2) = (&kernels.k0, &kernels.k1, &kernels.k2);

    // Projection of the image on the weighted basis: v_k = Σ w · b_k · f,
    // in basis order [1, x, y, x², y², xy].  Only three horizontal filters
    // are distinct (k0, k1, k2); each runs once into `tmp`, and the moments
    // that share it are further vertical passes of `tmp`: 9 one-dimensional
    // passes instead of 12.
    let [v0, v1, v2, v3, v4, v5] = moments;
    separable_filter_into(image, k0, k0, tmp, v0);
    convolve_vertical_into(tmp, k1, v2);
    convolve_vertical_into(tmp, k2, v4);
    separable_filter_into(image, k1, k0, tmp, v1);
    convolve_vertical_into(tmp, k1, v5);
    separable_filter_into(image, k2, k0, tmp, v3);

    let ginv = kernels.ginv;
    let width = image.width();
    let height = image.height();
    // Every plane pixel is assigned by the solve below, so no fill.
    out.b1.reshape_scratch(width, height);
    out.b2.reshape_scratch(width, height);
    out.a11.reshape_scratch(width, height);
    out.a22.reshape_scratch(width, height);
    out.a12.reshape_scratch(width, height);

    // Point-wise 6x6 solve per pixel. Rows are independent; with the
    // `parallel` feature they are computed on the rayon pool (this stage is
    // the non-convolution hot spot of the expansion). The per-pixel
    // arithmetic is identical in both drivers.
    let moments: [&Image; 6] = [v0, v1, v2, v3, v4, v5];
    let solve_pixel = |rows: &[&[f32]; 6], x: usize| -> [f32; 5] {
        let mut r = [0.0f64; 6];
        for (j, rj) in r.iter_mut().enumerate() {
            for (k, row) in rows.iter().enumerate() {
                *rj += ginv[j][k] * row[x] as f64;
            }
        }
        // r = [c, b1, b2, a11, a22, 2*a12-ish]; basis order
        // [1, x, y, x², y², xy].
        [
            r[1] as f32,
            r[2] as f32,
            r[3] as f32,
            r[4] as f32,
            (r[5] / 2.0) as f32,
        ]
    };

    #[cfg(feature = "parallel")]
    {
        use rayon::prelude::*;
        // Rows are solved on the pool straight into the retained interleaved
        // buffer (one `[f32; 5]` cell per pixel), so the steady state of the
        // parallel build is allocation-free too.
        solve.resize(width * height, [0.0; 5]);
        solve
            .par_chunks_mut(width)
            .enumerate()
            .for_each(|(y, row)| {
                let rows: [&[f32]; 6] =
                    std::array::from_fn(|m| &moments[m].as_slice()[y * width..][..width]);
                for (x, cell) in row.iter_mut().enumerate() {
                    *cell = solve_pixel(&rows, x);
                }
            });
        // Single de-interleaving pass into the five output planes.
        let mut planes = [
            out.b1.as_mut_slice(),
            out.b2.as_mut_slice(),
            out.a11.as_mut_slice(),
            out.a22.as_mut_slice(),
            out.a12.as_mut_slice(),
        ];
        for (y, row) in solve.chunks_exact(width).enumerate() {
            let base = y * width;
            for (x, cell) in row.iter().enumerate() {
                for (plane, value) in planes.iter_mut().zip(cell) {
                    plane[base + x] = *value;
                }
            }
        }
    }
    #[cfg(not(feature = "parallel"))]
    {
        let _ = solve;
        // Sequential driver: solve straight into the output planes, with no
        // intermediate row vectors (this keeps the steady state of the
        // sequential build allocation-free).
        let mut planes = [
            out.b1.as_mut_slice(),
            out.b2.as_mut_slice(),
            out.a11.as_mut_slice(),
            out.a22.as_mut_slice(),
            out.a12.as_mut_slice(),
        ];
        for y in 0..height {
            let rows: [&[f32]; 6] =
                std::array::from_fn(|m| &moments[m].as_slice()[y * width..][..width]);
            let base = y * width;
            for x in 0..width {
                let cell = solve_pixel(&rows, x);
                for (plane, value) in planes.iter_mut().zip(&cell) {
                    plane[base + x] = *value;
                }
            }
        }
    }
    Ok(())
}

/// The matrix-update stage: per pixel, averages the quadratic terms of the
/// two expansions, sampling `exp1` bilinearly at the position displaced by
/// `prior`, and assembles the normal equations of `A d = Δb` into the planes
/// `[g11, g12, g22, h1, h2]`.
///
/// The sample position, its four gather indices and the bilinear weights are
/// computed once per pixel and shared by all five planes of `exp1`.  The
/// interpolation keeps [`Image::sample_bilinear`]'s clamp and expression
/// order, so every plane is bit-identical to sampling each one on its own.
fn matrix_update_into(
    exp0: &PolyExpansion,
    exp1: &PolyExpansion,
    prior: &FlowField,
    planes: &mut [Image; 5],
) {
    let width = exp0.width();
    let height = exp0.height();
    // Every pixel of all five planes is assigned below.
    for plane in planes.iter_mut() {
        plane.reshape_scratch(width, height);
    }
    let mut planes = planes.each_mut().map(|plane| plane.as_mut_slice());
    let (prior_u, prior_v) = (prior.u().as_slice(), prior.v().as_slice());
    let e0 = [&exp0.a11, &exp0.a12, &exp0.a22, &exp0.b1, &exp0.b2].map(Image::as_slice);
    let [a11_1, a12_1, a22_1, b1_1, b2_1] =
        [&exp1.a11, &exp1.a12, &exp1.a22, &exp1.b1, &exp1.b2].map(Image::as_slice);
    let (max_x, max_y) = ((width - 1) as f32, (height - 1) as f32);
    for y in 0..height {
        let row = y * width;
        let (pu, pv) = (&prior_u[row..][..width], &prior_v[row..][..width]);
        let [a11_0, a12_0, a22_0, b1_0, b2_0] = e0.map(|plane| &plane[row..][..width]);
        let [g11, g12, g22, h1, h2] = planes.each_mut().map(|plane| &mut plane[row..][..width]);
        for x in 0..width {
            let (du, dv) = (pu[x], pv[x]);
            let sx = (x as f32 + du).clamp(0.0, max_x);
            let sy = (y as f32 + dv).clamp(0.0, max_y);
            let x0 = sx.floor() as usize;
            let y0 = sy.floor() as usize;
            let x1 = (x0 + 1).min(width - 1);
            let y1 = (y0 + 1).min(height - 1);
            let dx = sx - x0 as f32;
            let dy = sy - y0 as f32;
            let (i00, i10) = (y0 * width + x0, y0 * width + x1);
            let (i01, i11) = (y1 * width + x0, y1 * width + x1);
            let sample = |plane: &[f32]| {
                plane[i00] * (1.0 - dx) * (1.0 - dy)
                    + plane[i10] * dx * (1.0 - dy)
                    + plane[i01] * (1.0 - dx) * dy
                    + plane[i11] * dx * dy
            };
            // Average the quadratic terms of the two expansions; the second
            // frame's expansion is sampled at the displaced position.
            let a11 = 0.5 * (a11_0[x] + sample(a11_1));
            let a12 = 0.5 * (a12_0[x] + sample(a12_1));
            let a22 = 0.5 * (a22_0[x] + sample(a22_1));
            let db1 = -0.5 * (sample(b1_1) - b1_0[x]) + a11 * du + a12 * dv;
            let db2 = -0.5 * (sample(b2_1) - b2_0[x]) + a12 * du + a22 * dv;
            // Normal equations of A d = Δb.
            g11[x] = a11 * a11 + a12 * a12;
            g12[x] = a11 * a12 + a12 * a22;
            g22[x] = a12 * a12 + a22 * a22;
            h1[x] = a11 * db1 + a12 * db2;
            h2[x] = a12 * db1 + a22 * db2;
        }
    }
}

/// The compute-flow stage: solves the blurred 2×2 system of every pixel
/// into `out`, keeping the `prior` displacement where the system is
/// singular.
fn compute_flow_into(planes: &[Image; 5], prior: &FlowField, out: &mut FlowField) {
    let (width, height) = (planes[0].width(), planes[0].height());
    let n = width * height;
    // Every pixel is assigned below.
    out.reshape_scratch(width, height);
    let [g11, g12, g22, h1, h2] = planes.each_ref().map(|plane| &plane.as_slice()[..n]);
    let (prior_u, prior_v) = (&prior.u().as_slice()[..n], &prior.v().as_slice()[..n]);
    let (u, v) = out.components_mut();
    let (u, v) = (&mut u.as_mut_slice()[..n], &mut v.as_mut_slice()[..n]);
    for i in 0..n {
        let (a, b, c) = (g11[i], g12[i], g22[i]);
        let det = a * c - b * b;
        if det.abs() < 1e-9 {
            u[i] = prior_u[i];
            v[i] = prior_v[i];
            continue;
        }
        let (r1, r2) = (h1[i], h2[i]);
        u[i] = (c * r1 - b * r2) / det;
        v[i] = (a * r2 - b * r1) / det;
    }
}

/// The matrix-update stage into fresh planes `[g11, g12, g22, h1, h2]`:
/// per pixel, the normal equations of `A d = Δb` assembled from `exp0` and
/// from `exp1` sampled at the position displaced by `prior`.
///
/// # Panics
///
/// Panics when the two expansions and `prior` differ in size.
pub fn matrix_update(exp0: &PolyExpansion, exp1: &PolyExpansion, prior: &FlowField) -> [Image; 5] {
    let size = (exp0.width(), exp0.height());
    assert!(
        size == (exp1.width(), exp1.height()) && size == (prior.width(), prior.height()),
        "matrix update needs same-sized expansions and prior"
    );
    let mut planes = std::array::from_fn(|_| Image::default());
    matrix_update_into(exp0, exp1, prior, &mut planes);
    planes
}

/// The compute-flow stage into a fresh field: solves the per-pixel systems
/// `[g11, g12, g22, h1, h2]` (normally blurred [`matrix_update`] planes),
/// falling back to `prior` where a system is singular.
///
/// # Panics
///
/// Panics when the planes and `prior` differ in size.
pub fn compute_flow(planes: &[Image; 5], prior: &FlowField) -> FlowField {
    let size = (prior.width(), prior.height());
    assert!(
        planes
            .iter()
            .all(|plane| (plane.width(), plane.height()) == size),
        "compute flow needs planes the size of the prior"
    );
    let mut out = FlowField::zeros(0, 0);
    compute_flow_into(planes, prior, &mut out);
    out
}

fn chain_key(params: &FarnebackParams) -> ChainKey {
    (
        params.pyramid_levels,
        params.min_level_size,
        params.poly_sigma.to_bits(),
    )
}

/// Whether two images have the same size and the same pixels bit for bit
/// (so `-0.0` and `0.0` differ, and equal NaNs match).
fn same_bits(a: &Image, b: &Image) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Estimates the dense optical flow from `frame0` to `frame1`.
///
/// # Errors
///
/// Returns [`FlowError::FrameMismatch`] when the two frames differ in size
/// and [`FlowError::InvalidParameter`] for degenerate parameters.
pub fn farneback_flow(
    frame0: &Image,
    frame1: &Image,
    params: &FarnebackParams,
) -> Result<FlowField> {
    let mut ws = FlowWorkspace::new();
    farneback_flow_with(&mut ws, frame0, frame1, params)?;
    Ok(ws.take_flow())
}

/// [`farneback_flow`] threading a reusable [`FlowWorkspace`]: identical
/// output, zero heap allocations once the workspace is warm (same-sized
/// frames).  The estimated flow is left in the workspace, readable through
/// [`FlowWorkspace::flow`].
///
/// A chained call, whose `frame0` is bit-identical to the previous
/// successful call's `frame1` with the same `pyramid_levels`,
/// `min_level_size` and `poly_sigma`, reuses that frame's pyramid and
/// expansions and builds only `frame1`'s.  The output is the same as with a
/// fresh workspace.
///
/// # Errors
///
/// Same conditions as [`farneback_flow`].
pub fn farneback_flow_with(
    ws: &mut FlowWorkspace,
    frame0: &Image,
    frame1: &Image,
    params: &FarnebackParams,
) -> Result<()> {
    // A chained call's `frame0` is the last call's `frame1`, whose pyramid
    // and expansions `pyr1`/`exp1` still hold.  Taking the key before any
    // fallible step means a failed call leaves nothing to chain from.
    let key = chain_key(params);
    let chained = ws.chain.take() == Some(key)
        && ws.pyr1.num_levels() > 0
        && same_bits(ws.pyr1.level(0), frame0);
    if frame0.width() != frame1.width() || frame0.height() != frame1.height() {
        // lint: alloc-ok(error path)
        return Err(FlowError::frame_mismatch(format!(
            "{}x{} vs {}x{}",
            frame0.width(),
            frame0.height(),
            frame1.width(),
            frame1.height()
        )));
    }
    if frame0.is_empty() {
        return Err(FlowError::invalid_parameter(
            "cannot compute flow of empty frames",
        ));
    }
    if params.iterations == 0 || params.pyramid_levels == 0 {
        return Err(FlowError::invalid_parameter(
            "iterations and pyramid_levels must be non-zero",
        ));
    }
    ws.timings.clear();
    ws.kernels.ensure_pyramid();
    let pyramid_started = std::time::Instant::now();
    if chained {
        std::mem::swap(&mut ws.pyr0, &mut ws.pyr1);
        std::mem::swap(&mut ws.exp0, &mut ws.exp1);
    } else {
        ws.pyr0
            .rebuild(
                frame0,
                params.pyramid_levels,
                params.min_level_size,
                &ws.kernels.pyramid,
                &mut ws.tmp,
                &mut ws.tmp2,
            )
            .map_err(FlowError::invalid_parameter)?;
    }
    ws.pyr1
        .rebuild(
            frame1,
            params.pyramid_levels,
            params.min_level_size,
            &ws.kernels.pyramid,
            &mut ws.tmp,
            &mut ws.tmp2,
        )
        .map_err(FlowError::invalid_parameter)?;
    ws.timings.record(
        Stage::PyramidBuild,
        pyramid_started,
        pyramid_started.elapsed(),
        1,
    );
    ws.kernels.ensure_blur(params.blur_sigma);
    let levels = ws.pyr0.num_levels().min(ws.pyr1.num_levels());
    while ws.exp0.len() < levels {
        ws.exp0.push(PolyExpansion::empty()); // lint: alloc-ok(first call only; later calls reuse the levels)
    }
    while ws.exp1.len() < levels {
        ws.exp1.push(PolyExpansion::empty()); // lint: alloc-ok(first call only; later calls reuse the levels)
    }

    let mut first = true;
    for level in (0..levels).rev() {
        // Split the workspace into its disjoint pieces so each stage can
        // borrow what it needs.
        let FlowWorkspace {
            kernels,
            pyr0,
            pyr1,
            exp0,
            exp1,
            moments,
            solve,
            tmp,
            tmp2,
            planes,
            flow_a,
            flow_b,
            ..
        } = ws;
        let im0 = pyr0.level(level);
        let im1 = pyr1.level(level);
        let (exp0, exp1) = (&mut exp0[level], &mut exp1[level]);
        if !chained {
            polynomial_expansion_into(im0, params.poly_sigma, kernels, moments, tmp, solve, exp0)?;
        }
        polynomial_expansion_into(im1, params.poly_sigma, kernels, moments, tmp, solve, exp1)?;
        if first {
            flow_a.reset_zeros(im0.width(), im0.height());
            first = false;
        } else {
            flow_a.resample_into(im0.width(), im0.height(), flow_b);
            std::mem::swap(flow_a, flow_b);
        }
        for _ in 0..params.iterations {
            // One refinement: matrix update, blur aggregation, compute flow.
            matrix_update_into(exp0, exp1, flow_a, planes);
            for plane in planes.iter_mut() {
                blur_in_place(plane, &kernels.blur, tmp2);
            }
            compute_flow_into(planes, flow_a, flow_b);
            std::mem::swap(flow_a, flow_b);
        }
    }
    // The finest level's flow sits in `flow_a` after the last swap; both
    // double-buffer fields keep their full-resolution capacity for the next
    // call, so the steady state never re-allocates.
    ws.chain = Some(key);
    Ok(())
}

/// Arithmetic-operation breakdown of one Farneback flow computation, split
/// into the three stages the ASV hardware distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowOpBreakdown {
    /// Operations spent in Gaussian-blur style separable convolutions.
    pub blur_ops: u64,
    /// Operations spent solving the polynomial-expansion normal equations
    /// (a per-pixel 6×6 back-substitution, expressible as a 1×1 convolution).
    pub expansion_solve_ops: u64,
    /// Operations spent in the point-wise matrix-update stage.
    pub matrix_update_ops: u64,
    /// Operations spent in the point-wise compute-flow stage.
    pub compute_flow_ops: u64,
}

impl FlowOpBreakdown {
    /// Total operations across all stages.
    pub fn total(&self) -> u64 {
        self.blur_ops + self.expansion_solve_ops + self.matrix_update_ops + self.compute_flow_ops
    }

    /// Fraction of operations that are convolutions (blur).
    pub fn blur_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.blur_ops as f64 / self.total() as f64
        }
    }
}

/// Analytical operation count of [`farneback_flow`] for a frame of the given
/// size, as the accelerator maps it (`asv_accel::ism` and the figures build
/// on these counts): 12 one-dimensional passes per expansion and both
/// frames expanded on every call.
///
/// The CPU path does less work than counted here.  It runs 9 passes per
/// expansion, because the six moment filters share three horizontal passes,
/// and a chained [`farneback_flow_with`] call skips `frame0`'s expansion
/// altogether.
pub fn farneback_op_breakdown(
    width: usize,
    height: usize,
    params: &FarnebackParams,
) -> FlowOpBreakdown {
    let mut blur = 0u64;
    let mut expansion = 0u64;
    let mut matrix = 0u64;
    let mut solve = 0u64;
    let poly_taps = gaussian_kernel(params.poly_sigma).len() as u64;
    let blur_taps = gaussian_kernel(params.blur_sigma).len() as u64;
    let mut w = width as u64;
    let mut h = height as u64;
    for _level in 0..params.pyramid_levels {
        if w < params.min_level_size as u64 || h < params.min_level_size as u64 {
            break;
        }
        let pixels = w * h;
        // Polynomial expansion: 6 separable moment filters per frame, 2 frames,
        // each separable filter is 2 passes of `taps` MACs per pixel, plus the
        // 6x6 back-substitution (36 MACs) per pixel and frame.
        blur += 2 * 6 * 2 * poly_taps * pixels;
        expansion += 2 * 36 * pixels;
        for _iter in 0..params.iterations {
            // Matrix update: ~30 arithmetic ops per pixel.
            matrix += 30 * pixels;
            // Aggregation: 5 separable blurs.
            blur += 5 * 2 * blur_taps * pixels;
            // Compute flow: 2x2 solve, ~12 ops per pixel.
            solve += 12 * pixels;
        }
        w /= 2;
        h /= 2;
    }
    FlowOpBreakdown {
        blur_ops: blur,
        expansion_solve_ops: expansion,
        matrix_update_ops: matrix,
        compute_flow_ops: solve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_image::warp::translate;

    fn textured(width: usize, height: usize) -> Image {
        Image::from_fn(width, height, |x, y| {
            let fx = x as f32 * 0.35;
            let fy = y as f32 * 0.23;
            (fx.sin() * fy.cos() + ((x * 7 + y * 13) % 11) as f32 * 0.05) * 0.5 + 0.5
        })
    }

    #[test]
    fn normal_matrix_inverse_is_inverse() {
        let kernel_sigma = 1.2;
        let ginv = normal_matrix_inverse(kernel_sigma);
        // Rebuild G and check G * Ginv ≈ I.
        let kernel = gaussian_kernel(kernel_sigma);
        let radius = (kernel.len() / 2) as isize;
        let mut g = [[0.0f64; 6]; 6];
        for (iy, wy) in kernel.iter().enumerate() {
            for (ix, wx) in kernel.iter().enumerate() {
                let b = basis((ix as isize - radius) as f64, (iy as isize - radius) as f64);
                for j in 0..6 {
                    for k in 0..6 {
                        g[j][k] += (*wy as f64) * (*wx as f64) * b[j] * b[k];
                    }
                }
            }
        }
        // `j` walks columns of `ginv`, so an iterator form would obscure the
        // matrix product being checked.
        #[allow(clippy::needless_range_loop)]
        for (i, grow) in g.iter().enumerate() {
            for j in 0..6 {
                let mut acc = 0.0;
                for (k, gik) in grow.iter().enumerate() {
                    acc += gik * ginv[k][j];
                }
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((acc - expected).abs() < 1e-6, "({i},{j}) = {acc}");
            }
        }
    }

    #[test]
    fn expansion_of_linear_ramp_recovers_gradient() {
        // f(x, y) = 2x + 3y has b = (2, 3) and A = 0 in the interior.
        let img = Image::from_fn(32, 32, |x, y| 2.0 * x as f32 + 3.0 * y as f32);
        let exp = polynomial_expansion(&img, 1.2).unwrap();
        assert!((exp.b1.at(16, 16) - 2.0).abs() < 1e-3);
        assert!((exp.b2.at(16, 16) - 3.0).abs() < 1e-3);
        assert!(exp.a11.at(16, 16).abs() < 1e-3);
        assert!(exp.a22.at(16, 16).abs() < 1e-3);
    }

    #[test]
    fn expansion_of_quadratic_recovers_curvature() {
        // f(x, y) = (x - 16)^2 has a11 = 1 in the interior.
        let img = Image::from_fn(32, 32, |x, _| {
            let d = x as f32 - 16.0;
            d * d
        });
        let exp = polynomial_expansion(&img, 1.5).unwrap();
        assert!((exp.a11.at(16, 16) - 1.0).abs() < 1e-2);
        assert!(exp.a22.at(16, 16).abs() < 1e-2);
    }

    #[test]
    fn expansion_rejects_bad_inputs() {
        assert!(polynomial_expansion(&Image::default(), 1.0).is_err());
        assert!(polynomial_expansion(&Image::filled(8, 8, 1.0), 0.0).is_err());
    }

    #[test]
    fn flow_recovers_horizontal_translation() {
        let frame0 = textured(64, 48);
        let frame1 = translate(&frame0, 3, 0);
        let flow = farneback_flow(&frame0, &frame1, &FarnebackParams::default()).unwrap();
        assert!(
            (flow.median_u() - 3.0).abs() < 1.0,
            "median u = {}",
            flow.median_u()
        );
        assert!(
            flow.median_v().abs() < 1.0,
            "median v = {}",
            flow.median_v()
        );
    }

    #[test]
    fn flow_recovers_diagonal_translation() {
        let frame0 = textured(64, 64);
        let frame1 = translate(&frame0, 2, 1);
        let flow = farneback_flow(&frame0, &frame1, &FarnebackParams::default()).unwrap();
        assert!(
            (flow.median_u() - 2.0).abs() < 1.0,
            "median u = {}",
            flow.median_u()
        );
        assert!(
            (flow.median_v() - 1.0).abs() < 1.0,
            "median v = {}",
            flow.median_v()
        );
    }

    #[test]
    fn zero_motion_produces_near_zero_flow() {
        let frame = textured(48, 48);
        let flow = farneback_flow(&frame, &frame, &FarnebackParams::default()).unwrap();
        assert!(flow.median_u().abs() < 0.1);
        assert!(flow.median_v().abs() < 0.1);
    }

    #[test]
    fn flow_validates_inputs() {
        let a = Image::filled(32, 32, 0.0);
        let b = Image::filled(16, 32, 0.0);
        assert!(farneback_flow(&a, &b, &FarnebackParams::default()).is_err());
        let bad = FarnebackParams {
            iterations: 0,
            ..FarnebackParams::default()
        };
        assert!(farneback_flow(&a, &a, &bad).is_err());
        assert!(farneback_flow(
            &Image::default(),
            &Image::default(),
            &FarnebackParams::default()
        )
        .is_err());
    }

    #[test]
    fn op_breakdown_is_dominated_by_conv_and_pointwise() {
        let b = farneback_op_breakdown(960, 540, &FarnebackParams::default());
        assert!(b.total() > 0);
        // The paper: 99% of Farneback is Gaussian blur + the two point-wise
        // stages; in this breakdown that is all of the work, with blur taking
        // the majority share.
        assert!(b.blur_fraction() > 0.5);
        // qHD non-key-frame flow cost is tens of millions of operations, not
        // billions (the DNN costs 10^2-10^4 x more).
        assert!(b.total() < 2_000_000_000);
    }

    /// The flow of a fresh workspace, the reference every reuse must match.
    fn fresh(frame0: &Image, frame1: &Image, params: &FarnebackParams) -> FlowField {
        farneback_flow(frame0, frame1, params).unwrap()
    }

    fn assert_same_flow(reference: &FlowField, actual: &FlowField) {
        assert!(same_bits(reference.u(), actual.u()), "u differs");
        assert!(same_bits(reference.v(), actual.v()), "v differs");
    }

    /// Whether the next call with `frame0` and `params` reuses the cached
    /// second frame.
    fn will_chain(ws: &FlowWorkspace, frame0: &Image, params: &FarnebackParams) -> bool {
        ws.chain == Some(chain_key(params)) && same_bits(ws.pyr1.level(0), frame0)
    }

    fn stream(width: usize, height: usize, frames: usize) -> Vec<Image> {
        let base = textured(width + 2 * frames, height + frames);
        (0..frames)
            .map(|t| Image::from_fn(width, height, |x, y| base.at(x + 2 * t, y + t / 2)))
            .collect()
    }

    #[test]
    fn chained_calls_reuse_the_previous_frame_and_match_fresh() {
        let frames = stream(40, 32, 5);
        let params = FarnebackParams::default();
        let mut ws = FlowWorkspace::new();
        for (t, pair) in frames.windows(2).enumerate() {
            assert_eq!(will_chain(&ws, &pair[0], &params), t > 0, "call {t}");
            farneback_flow_with(&mut ws, &pair[0], &pair[1], &params).unwrap();
            assert_same_flow(&fresh(&pair[0], &pair[1], &params), ws.flow());
        }
    }

    #[test]
    fn alternating_streams_match_fresh() {
        let a = stream(40, 32, 4);
        let b: Vec<Image> = stream(40, 32, 4)
            .iter()
            .map(|f| Image::from_fn(40, 32, |x, y| f.at(39 - x, y) * 0.5))
            .collect();
        let params = FarnebackParams::default();
        let mut ws = FlowWorkspace::new();
        for t in 0..3 {
            for frames in [&a, &b] {
                assert!(!will_chain(&ws, &frames[t], &params));
                farneback_flow_with(&mut ws, &frames[t], &frames[t + 1], &params).unwrap();
                assert_same_flow(&fresh(&frames[t], &frames[t + 1], &params), ws.flow());
            }
        }
    }

    #[test]
    fn parameter_changes_between_chained_calls_match_fresh() {
        let frames = stream(48, 40, 4);
        let base = FarnebackParams::default();
        let changes = [
            FarnebackParams {
                poly_sigma: 1.5,
                ..base
            },
            FarnebackParams {
                pyramid_levels: 2,
                ..base
            },
            FarnebackParams {
                min_level_size: 8,
                ..base
            },
        ];
        for changed in changes {
            let mut ws = FlowWorkspace::new();
            for (t, params) in [base, changed, base].iter().enumerate() {
                assert!(!will_chain(&ws, &frames[t], params));
                farneback_flow_with(&mut ws, &frames[t], &frames[t + 1], params).unwrap();
                assert_same_flow(&fresh(&frames[t], &frames[t + 1], params), ws.flow());
            }
        }
    }

    #[test]
    fn a_signed_zero_breaks_the_chain() {
        let frames = stream(40, 32, 3);
        let zeroed: Vec<Image> = frames
            .iter()
            .map(|f| Image::from_fn(40, 32, |x, y| if x % 5 == 0 { 0.0 } else { f.at(x, y) }))
            .collect();
        let mut flipped = zeroed[1].clone();
        flipped.set(10, 7, -0.0);
        let params = FarnebackParams::default();
        let mut ws = FlowWorkspace::new();
        farneback_flow_with(&mut ws, &zeroed[0], &zeroed[1], &params).unwrap();
        assert!(!will_chain(&ws, &flipped, &params));
        farneback_flow_with(&mut ws, &flipped, &zeroed[2], &params).unwrap();
        assert_same_flow(&fresh(&flipped, &zeroed[2], &params), ws.flow());
    }

    #[test]
    fn a_failed_call_breaks_the_chain() {
        let frames = stream(40, 32, 3);
        let params = FarnebackParams::default();
        let mut ws = FlowWorkspace::new();
        farneback_flow_with(&mut ws, &frames[0], &frames[1], &params).unwrap();
        let small = Image::filled(20, 16, 0.5);
        assert!(farneback_flow_with(&mut ws, &frames[1], &small, &params).is_err());
        assert!(!will_chain(&ws, &frames[1], &params));
        farneback_flow_with(&mut ws, &frames[1], &frames[2], &params).unwrap();
        assert_same_flow(&fresh(&frames[1], &frames[2], &params), ws.flow());
        // The successful call re-arms the chain.
        assert!(will_chain(&ws, &frames[2], &params));
    }
}
