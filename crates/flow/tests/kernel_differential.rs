//! Differential bit-identity tests of the Farnebäck CPU kernels.
//!
//! The flow kernels are organised for throughput (tap-major blurs, shared
//! expansion passes, one bilinear gather per pixel for all five expansion
//! planes), but they promise *bit-identical* output to the straightforward
//! per-pixel formulation, so no disparity map depends on how the kernels
//! are arranged.  The references below are that straightforward
//! formulation: the dot-product horizontal pass, the six-filter expansion,
//! the per-pixel `sample_bilinear` matrix update and the per-pixel
//! compute-flow loop.  Every property compares the kernels against them
//! with `to_bits()` over random sizes, including images no wider than the
//! kernel (`width <= 2 * radius`), one-row images and prior flows that push
//! samples past every border.
//!
//! CI runs this suite in the default build and with
//! `--no-default-features`: the parallel expansion solve takes a different
//! (interleaved) path from the sequential one.

use asv_flow::farneback::{compute_flow, matrix_update, polynomial_expansion, PolyExpansion};
use asv_flow::FlowField;
use asv_image::gaussian::{
    convolve_vertical_into, gaussian_blur, gaussian_kernel, separable_filter,
};
use asv_image::Image;
use proptest::prelude::*;

/// Builds a `width x height` image from drawn values, cycling through them.
/// `scale` maps the draws onto a signed range with exact zeros.
fn image_from(values: &[u32], width: usize, height: usize, scale: f32) -> Image {
    Image::from_fn(width, height, |x, y| {
        let v = values[(y * width + x) % values.len()];
        ((v % 2001) as f32 - 1000.0) * scale
    })
}

fn assert_same_bits(what: &str, reference: &Image, actual: &Image) {
    assert_eq!(
        (reference.width(), reference.height()),
        (actual.width(), actual.height()),
        "{what}: size"
    );
    for (i, (a, b)) in reference
        .as_slice()
        .iter()
        .zip(actual.as_slice())
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}");
    }
}

/// The dot-product horizontal pass: clamped taps at the borders, a slice dot
/// product per interior pixel.
fn reference_horizontal(image: &Image, kernel: &[f32]) -> Image {
    let radius = kernel.len() / 2;
    let width = image.width();
    let clamped = |src: &[f32], x: usize| -> f32 {
        let mut acc = 0.0;
        for (i, &k) in kernel.iter().enumerate() {
            let u = (x + i) as isize - radius as isize;
            acc += k * src[u.clamp(0, width as isize - 1) as usize];
        }
        acc
    };
    let mut out = Image::zeros(width, image.height());
    for y in 0..image.height() {
        let src = &image.as_slice()[y * width..][..width];
        for x in 0..width {
            let value = if width > 2 * radius && x >= radius && x < width - radius {
                let window = &src[x - radius..x - radius + kernel.len()];
                let mut acc = 0.0;
                for (&k, &v) in kernel.iter().zip(window) {
                    acc += k * v;
                }
                acc
            } else {
                clamped(src, x)
            };
            out.set(x, y, value);
        }
    }
    out
}

fn reference_separable(image: &Image, kernel_x: &[f32], kernel_y: &[f32]) -> Image {
    let horizontal = reference_horizontal(image, kernel_x);
    let mut out = Image::default();
    convolve_vertical_into(&horizontal, kernel_y, &mut out);
    out
}

/// Gauss-Jordan inverse of the 6×6 normal matrix of the Gaussian-weighted
/// quadratic basis `[1, x, y, x², y², xy]`.
fn normal_matrix_inverse(sigma: f32) -> [[f64; 6]; 6] {
    let kernel = gaussian_kernel(sigma);
    let radius = (kernel.len() / 2) as isize;
    let mut a = [[0.0f64; 6]; 6];
    for (iy, wy) in kernel.iter().enumerate() {
        let dy = (iy as isize - radius) as f64;
        for (ix, wx) in kernel.iter().enumerate() {
            let dx = (ix as isize - radius) as f64;
            let w = (*wy as f64) * (*wx as f64);
            let b = [1.0, dx, dy, dx * dx, dy * dy, dx * dy];
            for j in 0..6 {
                for k in 0..6 {
                    a[j][k] += w * b[j] * b[k];
                }
            }
        }
    }
    let mut inv = [[0.0f64; 6]; 6];
    for (i, row) in inv.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for col in 0..6 {
        let mut pivot = col;
        for row in col + 1..6 {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let p = a[col][col];
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

/// The six-filter expansion, one separable filter per moment, followed by
/// the per-pixel solve.  Returns `[b1, b2, a11, a22, a12]`.
fn reference_expansion(image: &Image, sigma: f32) -> [Image; 5] {
    let k0 = gaussian_kernel(sigma);
    let radius = (k0.len() / 2) as isize;
    let k1: Vec<f32> = k0
        .iter()
        .enumerate()
        .map(|(i, &w)| w * (i as isize - radius) as f32)
        .collect();
    let k2: Vec<f32> = k0
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let d = (i as isize - radius) as f32;
            w * d * d
        })
        .collect();
    let moments = [
        reference_separable(image, &k0, &k0),
        reference_separable(image, &k1, &k0),
        reference_separable(image, &k0, &k1),
        reference_separable(image, &k2, &k0),
        reference_separable(image, &k0, &k2),
        reference_separable(image, &k1, &k1),
    ];
    let ginv = normal_matrix_inverse(sigma);
    let (width, height) = (image.width(), image.height());
    let mut planes: [Image; 5] = std::array::from_fn(|_| Image::zeros(width, height));
    for y in 0..height {
        for x in 0..width {
            let mut r = [0.0f64; 6];
            for (j, rj) in r.iter_mut().enumerate() {
                for (k, moment) in moments.iter().enumerate() {
                    *rj += ginv[j][k] * moment.at(x, y) as f64;
                }
            }
            let cell = [
                r[1] as f32,
                r[2] as f32,
                r[3] as f32,
                r[4] as f32,
                (r[5] / 2.0) as f32,
            ];
            for (plane, value) in planes.iter_mut().zip(cell) {
                plane.set(x, y, value);
            }
        }
    }
    planes
}

/// The per-pixel matrix update: five independent `sample_bilinear` calls
/// per pixel.  Returns `[g11, g12, g22, h1, h2]`.
fn reference_matrix_update(
    exp0: &PolyExpansion,
    exp1: &PolyExpansion,
    prior: &FlowField,
) -> [Image; 5] {
    let (width, height) = (exp0.width(), exp0.height());
    let [mut g11, mut g12, mut g22, mut h1, mut h2] =
        std::array::from_fn(|_| Image::zeros(width, height));
    for y in 0..height {
        for x in 0..width {
            let (du, dv) = prior.at(x, y);
            let sx = x as f32 + du;
            let sy = y as f32 + dv;
            let a11 = 0.5 * (exp0.a11().at(x, y) + exp1.a11().sample_bilinear(sx, sy));
            let a12 = 0.5 * (exp0.a12().at(x, y) + exp1.a12().sample_bilinear(sx, sy));
            let a22 = 0.5 * (exp0.a22().at(x, y) + exp1.a22().sample_bilinear(sx, sy));
            let db1 = -0.5 * (exp1.b1().sample_bilinear(sx, sy) - exp0.b1().at(x, y))
                + a11 * du
                + a12 * dv;
            let db2 = -0.5 * (exp1.b2().sample_bilinear(sx, sy) - exp0.b2().at(x, y))
                + a12 * du
                + a22 * dv;
            g11.set(x, y, a11 * a11 + a12 * a12);
            g12.set(x, y, a11 * a12 + a12 * a22);
            g22.set(x, y, a12 * a12 + a22 * a22);
            h1.set(x, y, a11 * db1 + a12 * db2);
            h2.set(x, y, a12 * db1 + a22 * db2);
        }
    }
    [g11, g12, g22, h1, h2]
}

/// The per-pixel compute-flow loop.
fn reference_compute_flow(planes: &[Image; 5], prior: &FlowField) -> FlowField {
    let [g11, g12, g22, h1, h2] = planes;
    let (width, height) = (g11.width(), g11.height());
    let mut out = FlowField::zeros(width, height);
    for y in 0..height {
        for x in 0..width {
            let a = g11.at(x, y);
            let b = g12.at(x, y);
            let c = g22.at(x, y);
            let det = a * c - b * b;
            if det.abs() < 1e-9 {
                let (pu, pv) = prior.at(x, y);
                out.set(x, y, pu, pv);
                continue;
            }
            let r1 = h1.at(x, y);
            let r2 = h2.at(x, y);
            out.set(x, y, (c * r1 - b * r2) / det, (a * r2 - b * r1) / det);
        }
    }
    out
}

fn expansion_planes(exp: &PolyExpansion) -> [&Image; 5] {
    [exp.b1(), exp.b2(), exp.a11(), exp.a22(), exp.a12()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn separable_filter_matches_dot_product_reference(
        pixels in collection::vec(0u32..4000, 1..200),
        width in 1usize..40,
        height in 1usize..8,
        sigma_x in 0.1f32..3.0,
        sigma_y in 0.1f32..3.0,
    ) {
        let image = image_from(&pixels, width, height, 0.01);
        let (kx, ky) = (gaussian_kernel(sigma_x), gaussian_kernel(sigma_y));
        assert_same_bits(
            "separable_filter",
            &reference_separable(&image, &kx, &ky),
            &separable_filter(&image, &kx, &ky),
        );
        assert_same_bits(
            "gaussian_blur",
            &reference_separable(&image, &kx, &kx),
            &gaussian_blur(&image, sigma_x),
        );
    }

    #[test]
    fn expansion_matches_six_filter_reference(
        pixels in collection::vec(0u32..4000, 1..300),
        width in 1usize..36,
        height in 1usize..12,
        sigma in 0.3f32..2.5,
    ) {
        let image = image_from(&pixels, width, height, 0.001);
        let expansion = polynomial_expansion(&image, sigma).unwrap();
        let reference = reference_expansion(&image, sigma);
        for (name, (r, a)) in ["b1", "b2", "a11", "a22", "a12"]
            .iter()
            .zip(reference.iter().zip(expansion_planes(&expansion)))
        {
            assert_same_bits(name, r, a);
        }
    }

    #[test]
    fn matrix_update_matches_per_pixel_reference(
        pixels0 in collection::vec(0u32..4000, 1..200),
        pixels1 in collection::vec(0u32..4000, 1..200),
        flow in collection::vec(0u32..4000, 2..200),
        width in 1usize..30,
        height in 1usize..10,
        reach in 0.5f32..3.0,
    ) {
        let exp0 = polynomial_expansion(&image_from(&pixels0, width, height, 0.001), 1.2).unwrap();
        let exp1 = polynomial_expansion(&image_from(&pixels1, width, height, 0.001), 1.2).unwrap();
        // Displacements up to `reach` times the image size in either sign,
        // so samples land inside, on and past every border.
        let span = reach * width.max(height) as f32 / 1000.0;
        let (half_u, half_v) = flow.split_at(flow.len() / 2);
        let prior = FlowField::from_components(
            image_from(half_u, width, height, span),
            image_from(half_v, width, height, span),
        )
        .unwrap();
        let reference = reference_matrix_update(&exp0, &exp1, &prior);
        let actual = matrix_update(&exp0, &exp1, &prior);
        for (name, (r, a)) in ["g11", "g12", "g22", "h1", "h2"]
            .iter()
            .zip(reference.iter().zip(&actual))
        {
            assert_same_bits(name, r, a);
        }
    }

    #[test]
    fn compute_flow_matches_per_pixel_reference(
        values in collection::vec(0u32..4000, 1..400),
        flow in collection::vec(0u32..4000, 2..100),
        width in 1usize..30,
        height in 1usize..10,
        coarse in 0usize..2,
    ) {
        // Coarse planes hold small integers, so many systems are exactly
        // singular and take the prior fallback.
        let scale = if coarse == 1 { 1.0 } else { 0.0137 };
        let planes: [Image; 5] = std::array::from_fn(|i| {
            let draws: Vec<u32> = values
                .iter()
                .skip(i)
                .map(|&v| if coarse == 1 { 998 + v % 5 } else { v })
                .collect();
            image_from(if draws.is_empty() { &values } else { &draws }, width, height, scale)
        });
        let (half_u, half_v) = flow.split_at(flow.len() / 2);
        let prior = FlowField::from_components(
            image_from(half_u, width, height, 0.01),
            image_from(half_v, width, height, 0.01),
        )
        .unwrap();
        let reference = reference_compute_flow(&planes, &prior);
        let actual = compute_flow(&planes, &prior);
        assert_same_bits("u", reference.u(), actual.u());
        assert_same_bits("v", reference.v(), actual.v());
    }
}
