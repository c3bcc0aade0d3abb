//! Gaussian image pyramids for coarse-to-fine optical flow.

use crate::gaussian::{gaussian_kernel, separable_filter_into};
use crate::image::{Image, ImageError};
use crate::Result;

/// A Gaussian pyramid: level 0 is the original image, each subsequent level is
/// blurred and downsampled by two.
#[derive(Debug, Clone, PartialEq)]
pub struct Pyramid {
    levels: Vec<Image>,
}

impl Pyramid {
    /// Builds a pyramid with up to `levels` levels.
    ///
    /// Construction stops early when a level would become smaller than
    /// `min_size` in either dimension, so the returned pyramid may have fewer
    /// levels than requested (but always at least one).
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidParameter`] when `levels == 0` or the
    /// image is empty.
    pub fn build(image: &Image, levels: usize, min_size: usize) -> Result<Self> {
        let mut pyramid = Pyramid::empty();
        let kernel = gaussian_kernel(1.0);
        let mut tmp_a = Image::default();
        let mut tmp_b = Image::default();
        pyramid.rebuild(image, levels, min_size, &kernel, &mut tmp_a, &mut tmp_b)?;
        Ok(pyramid)
    }

    /// Creates a pyramid with no levels, to be populated by
    /// [`Pyramid::rebuild`].  Useful as a reusable per-stream workspace slot.
    pub fn empty() -> Self {
        Self { levels: Vec::new() }
    }

    /// Rebuilds the pyramid from a new image in place, reusing the level
    /// buffers of the previous build when the dimensions match (the steady
    /// state of a video stream).  `kernel` is the level-to-level smoothing
    /// kernel ([`gaussian_kernel`] with sigma 1.0 reproduces
    /// [`Pyramid::build`] exactly); `tmp_a`/`tmp_b` are reusable scratch
    /// images for the blur.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Pyramid::build`].
    pub fn rebuild(
        &mut self,
        image: &Image,
        levels: usize,
        min_size: usize,
        kernel: &[f32],
        tmp_a: &mut Image,
        tmp_b: &mut Image,
    ) -> Result<()> {
        if levels == 0 {
            return Err(ImageError::invalid_parameter(
                "pyramid must have at least one level",
            ));
        }
        if image.is_empty() {
            return Err(ImageError::invalid_parameter(
                "cannot build a pyramid from an empty image",
            ));
        }
        match self.levels.first_mut() {
            Some(base) => base.clone_from(image),
            None => self.levels.push(image.clone()), // lint: alloc-ok(first rebuild only; later frames clone_from)
        }
        let mut built = 1;
        for _ in 1..levels {
            let (prev_width, prev_height) = {
                let prev = &self.levels[built - 1];
                (prev.width(), prev.height())
            };
            if prev_width / 2 < min_size.max(1) || prev_height / 2 < min_size.max(1) {
                break;
            }
            separable_filter_into(&self.levels[built - 1], kernel, kernel, tmp_a, tmp_b);
            if self.levels.len() <= built {
                self.levels.push(Image::default());
            }
            tmp_b.downsample2_into(&mut self.levels[built]);
            built += 1;
        }
        self.levels.truncate(built);
        Ok(())
    }

    /// Number of levels actually built.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Level `i` (0 is full resolution).
    ///
    /// # Panics
    ///
    /// Panics when `i >= num_levels()`.
    pub fn level(&self, i: usize) -> &Image {
        &self.levels[i]
    }

    /// Bytes held by the level buffers.
    pub fn retained_bytes(&self) -> usize {
        self.levels.iter().map(Image::retained_bytes).sum()
    }

    /// Iterates levels from coarsest to finest, the order in which
    /// coarse-to-fine flow refines its estimate.
    pub fn iter_coarse_to_fine(&self) -> impl Iterator<Item = &Image> {
        self.levels.iter().rev()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pyramid_halves_each_level() {
        let img = Image::filled(64, 48, 1.0);
        let pyr = Pyramid::build(&img, 4, 4).unwrap();
        assert_eq!(pyr.num_levels(), 4);
        assert_eq!((pyr.level(0).width(), pyr.level(0).height()), (64, 48));
        assert_eq!((pyr.level(1).width(), pyr.level(1).height()), (32, 24));
        assert_eq!((pyr.level(3).width(), pyr.level(3).height()), (8, 6));
    }

    #[test]
    fn pyramid_stops_at_min_size() {
        let img = Image::filled(16, 16, 1.0);
        let pyr = Pyramid::build(&img, 10, 4).unwrap();
        // 16 -> 8 -> 4, stopping before dropping below 4.
        assert_eq!(pyr.num_levels(), 3);
        assert_eq!(pyr.level(2).width(), 4);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let img = Image::filled(8, 8, 1.0);
        assert!(Pyramid::build(&img, 0, 4).is_err());
        assert!(Pyramid::build(&Image::default(), 3, 4).is_err());
    }

    #[test]
    fn coarse_to_fine_iteration_order() {
        let img = Image::filled(32, 32, 1.0);
        let pyr = Pyramid::build(&img, 3, 4).unwrap();
        let widths: Vec<usize> = pyr.iter_coarse_to_fine().map(Image::width).collect();
        assert_eq!(widths, vec![8, 16, 32]);
    }

    #[test]
    fn constant_image_stays_constant_at_all_levels() {
        let img = Image::filled(32, 32, 0.3);
        let pyr = Pyramid::build(&img, 3, 4).unwrap();
        for level in 0..pyr.num_levels() {
            assert!(pyr
                .level(level)
                .as_slice()
                .iter()
                .all(|&v| (v - 0.3).abs() < 1e-4));
        }
    }
}
