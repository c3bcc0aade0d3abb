//! Per-session scratch for the streaming hot path.
//!
//! [`IsmState::step`] re-allocated every intermediate — two flow pyramids,
//! twelve polynomial-expansion planes, the SGM cost volume and its
//! aggregation buffers, the propagated and refined disparity maps — on every
//! frame.  A [`Workspace`] owns all of that scratch instead: the first frame
//! of a stream sizes the buffers, and every later frame reuses them, making
//! steady-state [`IsmState::step_with`] perform **zero heap allocations**
//! (asserted by the allocation-regression test in `tests/alloc.rs`).
//!
//! One workspace serves one stream: the streaming runtime gives every
//! session its own, so concurrent sessions never contend on the global
//! allocator.  A workspace carries no algorithmic state — streams may be
//! reset or re-keyed freely, and feeding differently-sized frames merely
//! re-warms the buffers.
//!
//! [`IsmState::step`]: crate::ism::IsmState::step
//! [`IsmState::step_with`]: crate::ism::IsmState::step_with

use asv_flow::farneback::FlowWorkspace;
use asv_image::Image;
use asv_mem::BufferPool;
use asv_stereo::{DisparityMap, MatchScratch, SgmWorkspace};
use asv_trace::{TraceConfig, Tracer};

/// Reusable per-stream scratch for the whole ISM frame path: optical flow
/// (one workspace per camera view, so the two estimations can run
/// concurrently), the key-frame SGM matcher, the non-key-frame refinement
/// search and a pool of frame-sized planes that backs the returned disparity
/// maps.
#[derive(Debug)]
pub struct Workspace {
    pub(crate) flow_left: FlowWorkspace,
    pub(crate) flow_right: FlowWorkspace,
    pub(crate) stereo: SgmWorkspace,
    pub(crate) refine: MatchScratch,
    pub(crate) propagated: DisparityMap,
    pub(crate) maps: BufferPool,
    /// Selection buffer of the adaptive key-frame policy's median-motion
    /// estimate.
    pub(crate) median_scratch: Vec<f32>,
    /// Per-source-row write lists of the parallel correspondence
    /// propagation, retained across frames (never grown in the sequential
    /// build).
    pub(crate) propagation_rows: Vec<Vec<(usize, usize, f32)>>,
    /// Per-stage span recorder: every [`IsmState::step_with`] call traces
    /// its pipeline stages here (ring-buffered per session, governed by
    /// `ASV_TRACE`; see the `asv_trace` crate).
    ///
    /// [`IsmState::step_with`]: crate::ism::IsmState::step_with
    pub tracer: Tracer,
}

impl Workspace {
    /// Creates an empty workspace.  No heap allocation happens until the
    /// first frame is processed, so creating one per call (as the allocating
    /// [`IsmState::step`] wrapper does) costs nothing beyond losing reuse.
    ///
    /// [`IsmState::step`]: crate::ism::IsmState::step
    pub fn new() -> Self {
        Self::with_trace_config(TraceConfig::from_env())
    }

    /// [`Workspace::new`] with an explicit tracing configuration instead of
    /// the `ASV_TRACE` environment default — e.g. to force full-capture mode
    /// for one profiled session while the rest of the process stays in ring
    /// mode.  Still allocation-free until the first frame.
    pub fn with_trace_config(trace: TraceConfig) -> Self {
        Self {
            flow_left: FlowWorkspace::new(),
            flow_right: FlowWorkspace::new(),
            stereo: SgmWorkspace::new(),
            refine: MatchScratch::new(),
            propagated: DisparityMap::invalid(0, 0),
            maps: BufferPool::new(),
            median_scratch: Vec::new(),
            propagation_rows: Vec::new(),
            tracer: Tracer::new(trace),
        }
    }

    /// Checks a `width x height` disparity map out of the plane pool
    /// (contents unspecified; every caller fully overwrites it).
    pub(crate) fn take_map(&mut self, width: usize, height: usize) -> DisparityMap {
        let data = self.maps.take_scratch(width * height);
        let image = Image::from_vec(width, height, data)
            .expect("pool buffer has exactly width * height elements");
        DisparityMap::from_image(image)
    }

    /// Returns a disparity map's plane to the pool, e.g. a
    /// [`FrameResult`](crate::ism::FrameResult) the consumer is done with.
    /// Recycling the previous frame's output before stepping the next frame
    /// is what closes the allocation loop: the pooled plane becomes the next
    /// output map.
    pub fn recycle(&mut self, map: DisparityMap) {
        self.maps.put(map.into_image().into_vec());
    }

    /// Bytes retained by the pooled planes, the SGM scratch, both flow
    /// workspaces and the propagation buffers.  Useful for capacity-planning
    /// many concurrent sessions.
    pub fn retained_bytes(&self) -> usize {
        let propagation_rows = self.propagation_rows.capacity()
            * std::mem::size_of::<Vec<(usize, usize, f32)>>()
            + self
                .propagation_rows
                .iter()
                .map(|row| row.capacity() * std::mem::size_of::<(usize, usize, f32)>())
                .sum::<usize>();
        self.maps.retained_bytes()
            + self.stereo.retained_bytes()
            + self.flow_left.retained_bytes()
            + self.flow_right.retained_bytes()
            + self.propagated.as_image().retained_bytes()
            + propagation_rows
    }

    /// Releases every retained buffer — the pooled planes, the SGM scratch
    /// and the flow workspaces (e.g. when a stream goes idle); the next
    /// frame re-warms them.
    pub fn trim(&mut self) {
        *self = Workspace::with_trace_config(*self.tracer.config());
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_workspace_is_empty() {
        let ws = Workspace::new();
        assert_eq!(ws.retained_bytes(), 0);
    }

    #[test]
    fn recycled_map_backs_the_next_checkout() {
        let mut ws = Workspace::new();
        let map = ws.take_map(8, 4);
        assert_eq!((map.width(), map.height()), (8, 4));
        ws.recycle(map);
        assert!(ws.retained_bytes() >= 8 * 4 * 4);
        let again = ws.take_map(8, 4);
        assert_eq!((again.width(), again.height()), (8, 4));
        assert_eq!(ws.maps.hits(), 1);
        ws.recycle(again);
        ws.trim();
        assert_eq!(ws.retained_bytes(), 0);
    }

    #[test]
    fn retained_bytes_counts_the_flow_workspaces() {
        use crate::ism::{IsmConfig, IsmPipeline};
        use asv_dnn::{zoo, SurrogateParams, SurrogateStereoDnn};
        use asv_scene::{SceneConfig, StereoSequence};

        let config = IsmConfig {
            propagation_window: 4,
            surrogate: SurrogateParams {
                max_disparity: 16,
                ..Default::default()
            },
            ..Default::default()
        };
        let surrogate = SurrogateStereoDnn::new(zoo::dispnet(32, 48), config.surrogate);
        let mut state = IsmPipeline::new(config, surrogate).state();
        let seq = StereoSequence::generate(&SceneConfig::scene_flow_like(48, 32).with_seed(2), 3);
        let mut ws = Workspace::new();
        // A key frame, a non-key frame that warms the flow workspaces, and
        // a warmed non-key frame.
        for frame in seq.frames() {
            let result = state.step_with(&mut ws, &frame.left, &frame.right).unwrap();
            ws.recycle(result.disparity);
        }
        let level0 = 2 * 48 * 32 * std::mem::size_of::<f32>();
        assert!(ws.flow_left.retained_bytes() >= level0);
        assert!(ws.flow_right.retained_bytes() >= level0);
        assert!(
            ws.retained_bytes()
                >= ws.maps.retained_bytes()
                    + ws.stereo.retained_bytes()
                    + ws.flow_left.retained_bytes()
                    + ws.flow_right.retained_bytes()
        );
    }
}
