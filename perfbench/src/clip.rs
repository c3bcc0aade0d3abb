//! The fixed, checked input clip every workload cycles.
//!
//! A clip is a run of short *shots*, each a separate synthetic scene of
//! exactly one propagation window (a key frame and the frames propagated
//! from it).  Cutting between scenes only on window boundaries means the
//! cycled clip never propagates correspondences across a cut, and the short
//! shots keep the generator's per-frame disparity drift (see `NOTES.md`) far
//! from the search range.
//!
//! The shots come from a fixed library of scenes, and the run seed sets
//! the order they play in.  Accuracy differs several-fold from one random
//! scene to the next, so seeded scenes would make `bad3_pct` and `mae_px`
//! measure which scenes a seed drew rather than the matcher; a fixed
//! evaluation set makes them comparable between runs and commits.

use asv_image::Image;
use asv_scene::{SceneConfig, StereoSequence};
use asv_stereo::DisparityMap;

/// Disparity search range of every workload (the `tab_perf` census
/// setting).
pub const MAX_DISPARITY: usize = 32;

/// Foreground objects per scene (the `tab_perf` setting).
const OBJECTS: usize = 3;

/// One frame of the clip with its ground truth.
#[derive(Debug)]
pub struct ClipFrame {
    pub left: Image,
    pub right: Image,
    pub truth: DisparityMap,
}

/// The workload's input: `shots × shot_len` frames, in playback order.
#[derive(Debug)]
pub struct Clip {
    pub width: usize,
    pub height: usize,
    pub frames: Vec<ClipFrame>,
    /// Largest ground-truth disparity in the clip, pixels.
    pub max_truth: f32,
}

/// Seed of the scene library.  The library is the first scenes this seed
/// chain yields, not a selection.
const LIBRARY_SEED: u64 = 0x0A5F_2019;

/// SplitMix64: a well-mixed 64-bit value from `x`.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order the library's `shots` scenes play in for run seed `seed`: a
/// seeded Fisher-Yates shuffle.
fn shot_order(shots: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shots).collect();
    let mut state = seed;
    for i in (1..shots).rev() {
        state = splitmix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

impl Clip {
    /// Generates the clip for run seed `seed`: the library's first `shots`
    /// scenes of `shot_len` frames each, in the order the seed sets.
    ///
    /// # Errors
    ///
    /// Fails when any ground-truth pixel is invalid or lies outside the
    /// disparity search range: such a clip would measure the generator's
    /// drift, not the matcher.
    pub fn generate(
        width: usize,
        height: usize,
        shots: usize,
        shot_len: usize,
        seed: u64,
    ) -> Result<Self, String> {
        let mut frames = Vec::with_capacity(shots * shot_len);
        let mut max_truth = 0.0f32;
        for shot in shot_order(shots, seed) {
            let scene = SceneConfig::scene_flow_like(width, height)
                .with_seed(splitmix(LIBRARY_SEED ^ shot as u64))
                .with_objects(OBJECTS);
            for frame in StereoSequence::generate(&scene, shot_len).into_stream() {
                for y in 0..height {
                    for x in 0..width {
                        let d = frame.ground_truth.get(x, y).ok_or_else(|| {
                            format!("shot {shot}: ground truth invalid at ({x}, {y})")
                        })?;
                        if !(0.0..(MAX_DISPARITY - 1) as f32).contains(&d) {
                            return Err(format!(
                                "shot {shot}: ground-truth disparity {d} at ({x}, {y}) \
                                 is outside the search range 0..{MAX_DISPARITY}"
                            ));
                        }
                        max_truth = max_truth.max(d);
                    }
                }
                frames.push(ClipFrame {
                    left: frame.left,
                    right: frame.right,
                    truth: frame.ground_truth,
                });
            }
        }
        Ok(Self {
            width,
            height,
            frames,
            max_truth,
        })
    }

    pub fn len(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_clip_and_truth_stays_in_range() {
        let a = Clip::generate(48, 36, 2, 4, 7).expect("clip");
        let b = Clip::generate(48, 36, 2, 4, 7).expect("clip");
        assert_eq!(a.len(), 8);
        for (fa, fb) in a.frames.iter().zip(&b.frames) {
            assert!(fa.left == fb.left && fa.right == fb.right);
            assert!(fa.truth == fb.truth);
        }
        assert!(a.max_truth < MAX_DISPARITY as f32);
        // Another seed plays the same scenes in another order.
        let c = Clip::generate(48, 36, 2, 4, 8).expect("clip");
        let same = |x: &ClipFrame, y: &ClipFrame| x.left == y.left && x.truth == y.truth;
        let swapped = same(&c.frames[0], &a.frames[4]) && same(&c.frames[4], &a.frames[0]);
        assert!(swapped || same(&c.frames[0], &a.frames[0]));
    }

    #[test]
    fn seed_orders_the_fixed_library() {
        assert_eq!(shot_order(1, 9), vec![0]);
        let a = shot_order(6, 1);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
        assert_ne!(a, shot_order(6, 2));
    }
}
