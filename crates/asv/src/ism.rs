//! The invariant-based stereo matching (ISM) pipeline of Sec. 3.
//!
//! ISM exploits the *correspondence invariant*: two pixels that are
//! projections of the same scene point remain a correspondence pair in every
//! frame, even as their image locations move.  The pipeline therefore runs
//! the expensive stereo network only on key frames and, on the frames in
//! between, moves the known correspondences along the estimated motion and
//! repairs them with a cheap local search:
//!
//! 1. **DNN inference** (key frames) — the surrogate stereo estimator
//!    produces a dense disparity map.
//! 2. **Reconstruct correspondences** — every disparity-map entry is turned
//!    into a left/right pixel pair.
//! 3. **Propagate correspondences** (non-key frames) — dense optical flow in
//!    the left and right views moves both members of each pair to the new
//!    frame; their horizontal offset is the propagated disparity.
//! 4. **Refine correspondences** — block matching in a narrow window centred
//!    on the propagated disparity absorbs motion-estimation noise.
//!
//! The pipeline has two entry points sharing one implementation:
//!
//! * [`IsmState::step`] — the incremental core.  One call processes one
//!   stereo frame and carries the (previous frames, previous disparity,
//!   frames-since-key) state forward, which is what a streaming runtime
//!   (`asv-runtime`) drives one camera frame at a time.
//! * [`IsmPipeline::process_sequence`] — the batch entry point, a thin loop
//!   over a fresh [`IsmState`].  Batch and streaming results are therefore
//!   byte-identical by construction.

use crate::error::AsvError;
use crate::workspace::Workspace;
use asv_dnn::{SurrogateParams, SurrogateStereoDnn};
use asv_flow::farneback::{farneback_flow_with, FarnebackParams, FlowWorkspace};
use asv_flow::FlowField;
use asv_image::Image;
use asv_scene::StereoSequence;
use asv_stereo::block_matching::{refine_with_initial_into, BlockMatchParams};
use asv_stereo::DisparityMap;
use asv_trace::Stage;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Whether a frame was processed as a key frame (DNN) or a non-key frame
/// (propagation + refinement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameKind {
    /// Full (surrogate) DNN inference.
    KeyFrame,
    /// Correspondences propagated from the previous frame and refined.
    NonKeyFrame,
}

/// How key frames are selected.
///
/// The paper's micro-sequencer statically selects every `PW`-th frame
/// (Sec. 5.2) and notes that adaptive schemes are feasible; the adaptive
/// policy implemented here re-keys early when the estimated motion between
/// consecutive frames exceeds a threshold, bounding how stale the propagated
/// correspondences can become.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KeyFramePolicy {
    /// A key frame every `propagation_window` frames (the paper's default).
    Static,
    /// A key frame every `propagation_window` frames *or* as soon as the
    /// median motion magnitude (pixels/frame) of the left view exceeds the
    /// threshold, whichever comes first.
    AdaptiveMotion {
        /// Median motion magnitude (pixels) that forces a new key frame.
        max_median_motion_px: f32,
    },
}

/// Configuration of the ISM pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IsmConfig {
    /// Propagation window: a key frame every `propagation_window` frames
    /// (PW-2 and PW-4 in Fig. 9).  A window of 1 degenerates to running the
    /// DNN on every frame.
    pub propagation_window: usize,
    /// Key-frame selection policy.
    pub key_frame_policy: KeyFramePolicy,
    /// Optical-flow parameters used for correspondence propagation.
    pub flow: FarnebackParams,
    /// Block-matching parameters used for correspondence refinement.
    pub refine: BlockMatchParams,
    /// Surrogate (key-frame estimator) parameters.
    pub surrogate: SurrogateParams,
}

impl Default for IsmConfig {
    fn default() -> Self {
        Self {
            propagation_window: 4,
            key_frame_policy: KeyFramePolicy::Static,
            flow: FarnebackParams::default(),
            refine: BlockMatchParams {
                max_disparity: 64,
                refine_radius: 3,
                ..Default::default()
            },
            surrogate: SurrogateParams::default(),
        }
    }
}

/// Result of processing one frame.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// How the frame was processed.
    pub kind: FrameKind,
    /// The estimated disparity map.
    pub disparity: DisparityMap,
}

/// Result of processing a whole sequence.
#[derive(Debug, Clone)]
pub struct IsmResult {
    /// Per-frame results in temporal order.
    pub frames: Vec<FrameResult>,
}

impl IsmResult {
    /// Number of key frames in the result.
    pub fn key_frame_count(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.kind == FrameKind::KeyFrame)
            .count()
    }

    /// Number of non-key frames in the result.
    pub fn non_key_frame_count(&self) -> usize {
        self.frames.len() - self.key_frame_count()
    }
}

/// The incremental core of ISM: everything the algorithm must remember
/// between two consecutive frames of one camera stream.
///
/// A state is created fresh (no predecessor frame, so the first [`step`]
/// always runs the key-frame estimator) and then fed frames one at a time.
/// [`IsmPipeline::process_sequence`] is a thin loop over this type, and a
/// streaming runtime holds one `IsmState` per camera session — both produce
/// byte-identical disparity maps for the same frames because they execute
/// the same code.
///
/// [`step`]: IsmState::step
#[derive(Debug, Clone)]
pub struct IsmState {
    config: IsmConfig,
    surrogate: SurrogateStereoDnn,
    /// Previous left/right frames and the disparity estimated for them.
    previous: Option<(Image, Image, DisparityMap)>,
    /// Frames processed since the last key frame (1 right after a key frame).
    since_key: usize,
}

impl IsmState {
    /// Creates a fresh state (the next frame will be a key frame).
    pub fn new(config: IsmConfig, surrogate: SurrogateStereoDnn) -> Self {
        Self {
            config,
            surrogate,
            previous: None,
            since_key: 0,
        }
    }

    /// The pipeline configuration this state steps under.
    pub fn config(&self) -> &IsmConfig {
        &self.config
    }

    /// Number of frames processed since the last key frame (0 before the
    /// first frame, 1 right after a key frame).
    pub fn frames_since_key(&self) -> usize {
        self.since_key
    }

    /// Drops all carried state; the next [`IsmState::step`] runs the DNN
    /// again.  Useful after a stream discontinuity (camera seek, dropped
    /// frames).
    pub fn reset(&mut self) {
        self.previous = None;
        self.since_key = 0;
    }

    /// Switches the matching-cost metric of the key-frame estimator.  Takes
    /// effect from the next key frame; propagated non-key frames are
    /// unaffected (they refine, not re-match).
    pub fn set_cost_metric(&mut self, metric: asv_dnn::CostMetric) {
        self.config.surrogate.metric = metric;
        let mut params = *self.surrogate.params();
        params.metric = metric;
        self.surrogate.set_params(params);
    }

    /// Changes the propagation window of a live stream (clamped to at least
    /// 1).  Takes effect from the next frame: widening the window lets the
    /// current inter-key run continue longer, narrowing it may make the next
    /// frame a key frame immediately.  This is one of the accuracy-vs-compute
    /// knobs a QoS controller actuates under overload (wider window = fewer
    /// DNN key frames = cheaper stream).
    pub fn set_propagation_window(&mut self, window: usize) {
        self.config.propagation_window = window.max(1);
    }

    /// Changes the key-frame selection policy of a live stream.  Takes
    /// effect from the next frame.  Raising an
    /// [`KeyFramePolicy::AdaptiveMotion`] threshold suppresses motion-forced
    /// re-keys, trading propagation staleness for compute — the second QoS
    /// actuator next to [`IsmState::set_propagation_window`].
    pub fn set_key_frame_policy(&mut self, policy: KeyFramePolicy) {
        self.config.key_frame_policy = policy;
    }

    /// Processes one stereo frame and advances the state.
    ///
    /// This is the allocating entry point: it creates a throwaway
    /// [`Workspace`] per call.  A streaming caller should hold a workspace
    /// across frames and use [`IsmState::step_with`] instead — identical
    /// results, no steady-state allocations.
    ///
    /// # Errors
    ///
    /// Propagates flow and matcher errors (mismatched frame sizes, empty
    /// frames) as [`AsvError`], preserving the originating layer.  The state
    /// is left unchanged when the frame fails, so a caller may skip the bad
    /// frame and continue.
    pub fn step(&mut self, left: &Image, right: &Image) -> Result<FrameResult, AsvError> {
        let mut ws = Workspace::new();
        self.step_with(&mut ws, left, right)
    }

    /// [`IsmState::step`] threading a reusable per-stream [`Workspace`]:
    /// byte-identical results, and zero heap allocations in the steady state
    /// provided the caller recycles consumed result maps with
    /// [`Workspace::recycle`] (otherwise the one allocation per frame is the
    /// returned disparity map itself).
    ///
    /// # Errors
    ///
    /// Same conditions as [`IsmState::step`].
    pub fn step_with(
        &mut self,
        ws: &mut Workspace,
        left: &Image,
        right: &Image,
    ) -> Result<FrameResult, AsvError> {
        let mut out = ws.take_map(left.width(), left.height());
        match self.step_into(ws, left, right, &mut out) {
            Ok(kind) => Ok(FrameResult {
                kind,
                disparity: out,
            }),
            Err(error) => {
                ws.recycle(out);
                Err(error)
            }
        }
    }

    /// The zero-allocation core of one frame step: the caller owns both the
    /// workspace and the output map.  `out` is fully overwritten on success
    /// and unspecified on error; the state is only advanced on success.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IsmState::step`].
    pub fn step_into(
        &mut self,
        ws: &mut Workspace,
        left: &Image,
        right: &Image,
        out: &mut DisparityMap,
    ) -> Result<FrameKind, AsvError> {
        ws.tracer.frame_start();
        let window = self.config.propagation_window.max(1);
        let mut is_key = self.previous.is_none() || self.since_key >= window;
        // The adaptive policy re-keys early when the scene moves too fast
        // for propagation to stay reliable.  The left-view flow it estimates
        // is exactly the one propagation needs, so it is left in the
        // workspace and reused.
        let mut have_left_flow = false;
        if !is_key {
            if let KeyFramePolicy::AdaptiveMotion {
                max_median_motion_px,
            } = self.config.key_frame_policy
            {
                let (prev_left, _, _) = self
                    .previous
                    .as_ref()
                    .expect("non-key frames always have a predecessor");
                let flow_started = Instant::now();
                farneback_flow_with(&mut ws.flow_left, prev_left, left, &self.config.flow)?;
                ws.flow_left.timings.record(
                    Stage::FlowLeft,
                    flow_started,
                    flow_started.elapsed(),
                    0,
                );
                ws.tracer.harvest(&ws.flow_left.timings);
                let flow = ws.flow_left.flow();
                let median_u = flow.median_u_with(&mut ws.median_scratch);
                let median_v = flow.median_v_with(&mut ws.median_scratch);
                let motion = (median_u.powi(2) + median_v.powi(2)).sqrt();
                if motion > max_median_motion_px {
                    is_key = true;
                } else {
                    have_left_flow = true;
                }
            }
        }
        let kind = if is_key {
            let infer_span = ws.tracer.enter(Stage::DnnInfer);
            self.surrogate
                .infer_with(&mut ws.stereo, left, right, out)?;
            ws.tracer.exit(infer_span);
            ws.tracer.harvest(ws.stereo.timings());
            FrameKind::KeyFrame
        } else {
            let (prev_left, prev_right, prev_disparity) = self
                .previous
                .as_ref()
                .expect("non-key frames always have a predecessor");
            propagate_and_refine_into(
                &self.config,
                prev_left,
                prev_right,
                prev_disparity,
                left,
                right,
                have_left_flow,
                ws,
                out,
            )?;
            FrameKind::NonKeyFrame
        };
        // Commit only after every fallible stage succeeded.  The previous
        // frames and disparity are copied into the retained slots, reusing
        // their buffers (no allocation once the sizes match).
        self.since_key = if is_key { 1 } else { self.since_key + 1 };
        match &mut self.previous {
            Some((prev_left, prev_right, prev_disparity)) => {
                prev_left.clone_from(left);
                prev_right.clone_from(right);
                prev_disparity.clone_from(out);
            }
            slot @ None => *slot = Some((left.clone(), right.clone(), out.clone())), // lint: alloc-ok(first frame only; steady state clone_from-reuses buffers)
        }
        ws.tracer.frame_end(is_key);
        Ok(kind)
    }
}

/// The ISM pipeline: a key-frame estimator plus the propagation machinery.
#[derive(Debug, Clone)]
pub struct IsmPipeline {
    config: IsmConfig,
    surrogate: SurrogateStereoDnn,
}

impl IsmPipeline {
    /// Creates a pipeline from a configuration and the stereo network the
    /// key-frame estimator stands in for.
    pub fn new(config: IsmConfig, surrogate: SurrogateStereoDnn) -> Self {
        Self { config, surrogate }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &IsmConfig {
        &self.config
    }

    /// Creates a fresh incremental state for streaming this pipeline one
    /// frame at a time (one state per camera stream).
    pub fn state(&self) -> IsmState {
        IsmState::new(self.config, self.surrogate.clone())
    }

    /// Processes one stereo sequence.
    ///
    /// This is exactly [`IsmState::step`] applied to every frame of the
    /// sequence in order, so batch results match streaming results
    /// byte-for-byte.
    ///
    /// # Errors
    ///
    /// Propagates flow and matcher errors (mismatched frame sizes, empty
    /// frames) as [`AsvError`], preserving the originating layer.
    pub fn process_sequence(&self, sequence: &StereoSequence) -> Result<IsmResult, AsvError> {
        let mut state = self.state();
        // One workspace for the whole sequence: the batch path gets the same
        // steady-state buffer reuse as a streaming session.
        let mut ws = Workspace::new();
        let mut frames = Vec::with_capacity(sequence.len());
        for frame in sequence.frames() {
            frames.push(state.step_with(&mut ws, &frame.left, &frame.right)?);
        }
        Ok(IsmResult { frames })
    }
}

/// Steps 2–4 of the algorithm for one non-key frame, writing the refined
/// map into `out`.  When `have_left_flow` is set, `ws.flow_left` already
/// holds the left-view flow the adaptive key-frame policy estimated for this
/// exact frame pair.
#[allow(clippy::too_many_arguments)]
fn propagate_and_refine_into(
    config: &IsmConfig,
    prev_left: &Image,
    prev_right: &Image,
    prev_disparity: &DisparityMap,
    left: &Image,
    right: &Image,
    have_left_flow: bool,
    ws: &mut Workspace,
    out: &mut DisparityMap,
) -> Result<(), AsvError> {
    // Step 3: motion of both views from t to t+1 (the two flow fields are
    // independent, so the parallel build computes them concurrently unless
    // the left one is already available).
    if have_left_flow {
        let flow_started = Instant::now();
        farneback_flow_with(&mut ws.flow_right, prev_right, right, &config.flow)?;
        ws.flow_right
            .timings
            .record(Stage::FlowRight, flow_started, flow_started.elapsed(), 0);
        ws.tracer.harvest(&ws.flow_right.timings);
    } else {
        left_right_flows_with(
            prev_left,
            prev_right,
            left,
            right,
            config,
            &mut ws.flow_left,
            &mut ws.flow_right,
        )?;
        // The two flow calls stage their timings in their own workspaces
        // (they may have run on pool worker threads); fold both into the
        // calling thread's tracer.
        ws.tracer.harvest(&ws.flow_left.timings);
        ws.tracer.harvest(&ws.flow_right.timings);
    }

    // Steps 2 + 3: reconstruct each correspondence pair from the previous
    // disparity map and move both members along their view's motion.
    let propagate_span = ws.tracer.enter(Stage::Propagate);
    propagate_correspondences_into(
        prev_disparity,
        ws.flow_left.flow(),
        ws.flow_right.flow(),
        &mut ws.propagation_rows,
        &mut ws.propagated,
    );
    ws.tracer.exit(propagate_span);

    // Step 4: refine with a narrow block-matching search around the
    // propagated disparity.
    let refine_span = ws.tracer.enter(Stage::Refine);
    refine_with_initial_into(
        left,
        right,
        &ws.propagated,
        &config.refine,
        &mut ws.refine,
        out,
    )?;
    ws.tracer.exit(refine_span);
    Ok(())
}

/// Computes the left-view and right-view optical flow of one frame step
/// concurrently (the two estimations share nothing, including their
/// workspaces).
#[cfg(feature = "parallel")]
#[allow(clippy::too_many_arguments)]
fn left_right_flows_with(
    prev_left: &Image,
    prev_right: &Image,
    left: &Image,
    right: &Image,
    config: &IsmConfig,
    ws_left: &mut FlowWorkspace,
    ws_right: &mut FlowWorkspace,
) -> Result<(), AsvError> {
    let (l, r) = rayon::join(
        || {
            let started = Instant::now();
            let result = farneback_flow_with(ws_left, prev_left, left, &config.flow);
            ws_left
                .timings
                .record(Stage::FlowLeft, started, started.elapsed(), 0);
            result
        },
        || {
            let started = Instant::now();
            let result = farneback_flow_with(ws_right, prev_right, right, &config.flow);
            ws_right
                .timings
                .record(Stage::FlowRight, started, started.elapsed(), 0);
            result
        },
    );
    l?;
    r?;
    Ok(())
}

/// Sequential fallback of the two-view flow computation.
#[cfg(not(feature = "parallel"))]
#[allow(clippy::too_many_arguments)]
fn left_right_flows_with(
    prev_left: &Image,
    prev_right: &Image,
    left: &Image,
    right: &Image,
    config: &IsmConfig,
    ws_left: &mut FlowWorkspace,
    ws_right: &mut FlowWorkspace,
) -> Result<(), AsvError> {
    let started = Instant::now();
    farneback_flow_with(ws_left, prev_left, left, &config.flow)?;
    ws_left
        .timings
        .record(Stage::FlowLeft, started, started.elapsed(), 0);
    let started = Instant::now();
    farneback_flow_with(ws_right, prev_right, right, &config.flow)?;
    ws_right
        .timings
        .record(Stage::FlowRight, started, started.elapsed(), 0);
    Ok(())
}

/// Propagated writes produced by one source row `y`: `(x, y, disparity)`
/// targets in the new frame, in source-column order, appended to a reusable
/// (cleared) write list.
#[cfg(feature = "parallel")]
fn row_writes_into(
    prev_disparity: &DisparityMap,
    flow_left: &FlowField,
    flow_right: &FlowField,
    y: usize,
    writes: &mut Vec<(usize, usize, f32)>,
) {
    let width = prev_disparity.width();
    let height = prev_disparity.height();
    writes.clear();
    for x in 0..width {
        let Some(d) = prev_disparity.get(x, y) else {
            continue;
        };
        // Left member of the pair moves with the left-view flow.
        let (ul, vl) = flow_left.at(x, y);
        let new_lx = x as f32 + ul;
        let new_ly = y as f32 + vl;
        // Right member (at x - d in the right view) moves with the
        // right-view flow.
        let rx = x as f32 - d;
        if rx < 0.0 {
            continue;
        }
        let (ur, _vr) = flow_right.sample(rx, y as f32);
        let new_rx = rx + ur;
        let new_d = new_lx - new_rx;
        let ix = new_lx.round();
        let iy = new_ly.round();
        if ix < 0.0 || iy < 0.0 || ix >= width as f32 || iy >= height as f32 || new_d < 0.0 {
            continue;
        }
        writes.push((ix as usize, iy as usize, new_d));
    }
}

/// Applies per-source-row write lists in row order into a reusable output
/// map, reproducing exactly the overwrite semantics of the reference double
/// loop (later source rows win).
#[cfg(feature = "parallel")]
fn apply_writes_into(
    width: usize,
    height: usize,
    rows: &[Vec<(usize, usize, f32)>],
    out: &mut DisparityMap,
) {
    out.reset_invalid(width, height);
    for row in rows {
        for &(x, y, d) in row {
            out.set(x, y, d);
        }
    }
    out.fill_invalid_horizontally();
}

/// Moves every correspondence pair of `prev_disparity` along the left/right
/// motion fields and rebuilds, into the reusable `out`, a disparity map
/// registered to the new left frame.  Pixels that receive no propagated
/// correspondence (disocclusions, pixels that moved out of the frame) are
/// filled from their horizontal neighbours.
///
/// Source rows are independent until the final scatter, so the `parallel`
/// build computes each row's write list row-parallel into the
/// caller-retained `rows` and then applies the writes serially in
/// source-row order (the overwrite semantics of the serial double loop);
/// the sequential build runs that double loop and leaves `rows` untouched.
/// Either way the result is identical to
/// [`propagate_correspondences_serial`] (asserted by a differential test),
/// and a warm call performs no allocation.
pub fn propagate_correspondences_into(
    prev_disparity: &DisparityMap,
    flow_left: &FlowField,
    flow_right: &FlowField,
    rows: &mut Vec<Vec<(usize, usize, f32)>>,
    out: &mut DisparityMap,
) {
    #[cfg(feature = "parallel")]
    {
        use rayon::prelude::*;
        let width = prev_disparity.width();
        let height = prev_disparity.height();
        if rows.len() < height {
            rows.resize_with(height, Vec::new);
        }
        for row in &mut rows[..height] {
            // A source row emits at most one write per column; growing up
            // front keeps the parallel fill allocation-free.
            row.clear();
            row.reserve(width);
        }
        rows[..height]
            .par_chunks_mut(1)
            .enumerate()
            .for_each(|(y, row)| {
                row_writes_into(prev_disparity, flow_left, flow_right, y, &mut row[0]);
            });
        apply_writes_into(width, height, &rows[..height], out);
    }
    #[cfg(not(feature = "parallel"))]
    {
        let _ = rows;
        propagate_serial_into(prev_disparity, flow_left, flow_right, out);
    }
}

/// Serial reference implementation of correspondence propagation: the plain
/// double loop, deliberately *not* built from `row_writes_into` /
/// `apply_writes_into` so the differential test compares two independent
/// implementations.  Compiled in every configuration.
pub fn propagate_correspondences_serial(
    prev_disparity: &DisparityMap,
    flow_left: &FlowField,
    flow_right: &FlowField,
) -> DisparityMap {
    let mut out = DisparityMap::invalid(0, 0);
    propagate_serial_into(prev_disparity, flow_left, flow_right, &mut out);
    out
}

/// Body of the serial reference, writing into a reusable map.
fn propagate_serial_into(
    prev_disparity: &DisparityMap,
    flow_left: &FlowField,
    flow_right: &FlowField,
    propagated: &mut DisparityMap,
) {
    let width = prev_disparity.width();
    let height = prev_disparity.height();
    propagated.reset_invalid(width, height);
    for y in 0..height {
        for x in 0..width {
            let Some(d) = prev_disparity.get(x, y) else {
                continue;
            };
            // Left member of the pair moves with the left-view flow.
            let (ul, vl) = flow_left.at(x, y);
            let new_lx = x as f32 + ul;
            let new_ly = y as f32 + vl;
            // Right member (at x - d in the right view) moves with the
            // right-view flow.
            let rx = x as f32 - d;
            if rx < 0.0 {
                continue;
            }
            let (ur, _vr) = flow_right.sample(rx, y as f32);
            let new_rx = rx + ur;
            let new_d = new_lx - new_rx;
            let ix = new_lx.round();
            let iy = new_ly.round();
            if ix < 0.0 || iy < 0.0 || ix >= width as f32 || iy >= height as f32 || new_d < 0.0 {
                continue;
            }
            propagated.set(ix as usize, iy as usize, new_d);
        }
    }
    propagated.fill_invalid_horizontally();
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_dnn::zoo;
    use asv_scene::SceneConfig;

    fn pipeline(window: usize, max_disparity: usize) -> IsmPipeline {
        let config = IsmConfig {
            propagation_window: window,
            refine: BlockMatchParams {
                max_disparity,
                refine_radius: 3,
                ..Default::default()
            },
            surrogate: SurrogateParams {
                max_disparity,
                occlusion_handling: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let surrogate = SurrogateStereoDnn::new(zoo::dispnet(48, 64), config.surrogate);
        IsmPipeline::new(config, surrogate)
    }

    fn small_sequence(frames: usize, seed: u64) -> StereoSequence {
        let config = SceneConfig::scene_flow_like(64, 48)
            .with_seed(seed)
            .with_objects(3);
        StereoSequence::generate(&config, frames)
    }

    #[test]
    fn key_frame_schedule_follows_propagation_window() {
        let seq = small_sequence(6, 3);
        let result = pipeline(3, 32).process_sequence(&seq).unwrap();
        let kinds: Vec<FrameKind> = result.frames.iter().map(|f| f.kind).collect();
        assert_eq!(kinds[0], FrameKind::KeyFrame);
        assert_eq!(kinds[1], FrameKind::NonKeyFrame);
        assert_eq!(kinds[2], FrameKind::NonKeyFrame);
        assert_eq!(kinds[3], FrameKind::KeyFrame);
        assert_eq!(result.key_frame_count(), 2);
        assert_eq!(result.non_key_frame_count(), 4);
    }

    #[test]
    fn window_of_one_runs_dnn_every_frame() {
        let seq = small_sequence(3, 4);
        let result = pipeline(1, 32).process_sequence(&seq).unwrap();
        assert_eq!(result.key_frame_count(), 3);
    }

    #[test]
    fn streaming_state_matches_batch_processing() {
        // The core refactoring invariant: feeding frames one at a time
        // through IsmState::step is byte-identical to the batch loop.
        let seq = small_sequence(5, 8);
        let pipe = pipeline(3, 32);
        let batch = pipe.process_sequence(&seq).unwrap();
        let mut state = pipe.state();
        for (i, frame) in seq.frames().iter().enumerate() {
            let streamed = state.step(&frame.left, &frame.right).unwrap();
            assert_eq!(streamed.kind, batch.frames[i].kind, "frame {i}");
            assert_eq!(streamed.disparity, batch.frames[i].disparity, "frame {i}");
            assert!(state.frames_since_key() >= 1);
        }
    }

    #[test]
    fn reset_forces_a_new_key_frame() {
        let seq = small_sequence(3, 9);
        let pipe = pipeline(4, 32);
        let mut state = pipe.state();
        let f = &seq.frames()[0];
        assert_eq!(
            state.step(&f.left, &f.right).unwrap().kind,
            FrameKind::KeyFrame
        );
        let f = &seq.frames()[1];
        assert_eq!(
            state.step(&f.left, &f.right).unwrap().kind,
            FrameKind::NonKeyFrame
        );
        state.reset();
        assert_eq!(state.frames_since_key(), 0);
        let f = &seq.frames()[2];
        assert_eq!(
            state.step(&f.left, &f.right).unwrap().kind,
            FrameKind::KeyFrame
        );
    }

    #[test]
    fn non_key_frames_stay_close_to_ground_truth() {
        let seq = small_sequence(4, 5);
        let result = pipeline(4, 32).process_sequence(&seq).unwrap();
        for (frame, truth) in result.frames.iter().zip(seq.frames()) {
            let err = frame
                .disparity
                .three_pixel_error(&truth.ground_truth)
                .unwrap();
            assert!(err < 0.25, "{:?} error {err}", frame.kind);
        }
    }

    #[test]
    fn ism_accuracy_is_close_to_per_frame_dnn_accuracy() {
        // The Fig. 9 claim: propagating correspondences instead of re-running
        // the DNN costs almost no accuracy.
        let seq = small_sequence(4, 7);
        let ism = pipeline(4, 32).process_sequence(&seq).unwrap();
        let dnn = pipeline(1, 32).process_sequence(&seq).unwrap();
        let mut ism_err = 0.0;
        let mut dnn_err = 0.0;
        for ((a, b), truth) in ism.frames.iter().zip(&dnn.frames).zip(seq.frames()) {
            ism_err += a.disparity.three_pixel_error(&truth.ground_truth).unwrap();
            dnn_err += b.disparity.three_pixel_error(&truth.ground_truth).unwrap();
        }
        let n = seq.len() as f64;
        assert!(
            ism_err / n <= dnn_err / n + 0.05,
            "ISM error {} vs DNN error {}",
            ism_err / n,
            dnn_err / n
        );
    }

    /// The streaming propagation with fresh buffers.
    fn propagate(prev: &DisparityMap, fl: &FlowField, fr: &FlowField) -> DisparityMap {
        let mut out = DisparityMap::invalid(0, 0);
        propagate_correspondences_into(prev, fl, fr, &mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn propagation_shifts_disparities_with_motion() {
        // A synthetic correspondence field moved by constant flow: disparities
        // translate and (with equal flows in both views) keep their value.
        let prev = DisparityMap::constant(16, 8, 5.0);
        let flow_l = FlowField::constant(16, 8, 2.0, 0.0);
        let flow_r = FlowField::constant(16, 8, 2.0, 0.0);
        let propagated = propagate(&prev, &flow_l, &flow_r);
        assert_eq!(propagated.get(10, 4), Some(5.0));
        // If the right view moves less than the left, disparity grows.
        let flow_r_slow = FlowField::constant(16, 8, 1.0, 0.0);
        let propagated = propagate(&prev, &flow_l, &flow_r_slow);
        assert_eq!(propagated.get(10, 4), Some(6.0));
    }

    #[test]
    fn propagation_fills_disocclusions() {
        let mut prev = DisparityMap::constant(16, 8, 4.0);
        prev.invalidate(0, 0);
        let zero = FlowField::zeros(16, 8);
        let propagated = propagate(&prev, &zero, &zero);
        // Every pixel valid after horizontal filling.
        assert_eq!(propagated.valid_fraction(), 1.0);
    }

    #[test]
    fn parallel_propagation_matches_serial_reference() {
        // Differential test: the propagation `step_with` runs (the
        // row-parallel scatter in the parallel build) must reproduce the
        // serial double loop exactly, including the overwrite order when two
        // source pixels land on the same target.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(77);
        // Retained across iterations, as the workspace retains it across
        // frames, so shrinking and growing maps reuse stale row lists.
        let mut rows = Vec::new();
        let mut fast = DisparityMap::invalid(0, 0);
        for _ in 0..8 {
            let width = rng.gen_range(8usize..24);
            let height = rng.gen_range(6usize..16);
            let prev = DisparityMap::from_fn(width, height, |_, _| {
                if rng.gen_range(0.0f32..1.0) < 0.1 {
                    -1.0
                } else {
                    rng.gen_range(0.0f32..12.0)
                }
            });
            let mut fl = FlowField::zeros(width, height);
            let mut fr = FlowField::zeros(width, height);
            for y in 0..height {
                for x in 0..width {
                    fl.set(
                        x,
                        y,
                        rng.gen_range(-3.0f32..3.0),
                        rng.gen_range(-2.0f32..2.0),
                    );
                    fr.set(
                        x,
                        y,
                        rng.gen_range(-3.0f32..3.0),
                        rng.gen_range(-2.0f32..2.0),
                    );
                }
            }
            propagate_correspondences_into(&prev, &fl, &fr, &mut rows, &mut fast);
            let reference = propagate_correspondences_serial(&prev, &fl, &fr);
            assert_eq!(fast, reference);
        }
    }

    #[test]
    fn adaptive_policy_rekeys_under_fast_motion() {
        // A zero-motion threshold forces every frame to become a key frame as
        // soon as any motion is detected; a huge threshold reproduces the
        // static schedule.
        let seq = small_sequence(6, 13);
        let base = pipeline(4, 32);
        let make = |policy| {
            let config = IsmConfig {
                key_frame_policy: policy,
                ..*base.config()
            };
            IsmPipeline::new(
                config,
                SurrogateStereoDnn::new(zoo::dispnet(48, 64), config.surrogate),
            )
        };
        let eager = make(KeyFramePolicy::AdaptiveMotion {
            max_median_motion_px: 0.0,
        })
        .process_sequence(&seq)
        .unwrap();
        let relaxed = make(KeyFramePolicy::AdaptiveMotion {
            max_median_motion_px: 1e6,
        })
        .process_sequence(&seq)
        .unwrap();
        let static_schedule = base.process_sequence(&seq).unwrap();
        assert!(eager.key_frame_count() >= static_schedule.key_frame_count());
        assert_eq!(relaxed.key_frame_count(), static_schedule.key_frame_count());
    }

    #[test]
    fn errors_propagate_from_mismatched_frames() {
        let config = IsmConfig::default();
        let surrogate = SurrogateStereoDnn::new(zoo::dispnet(48, 64), config.surrogate);
        let pipeline = IsmPipeline::new(config, surrogate);
        // Sequence with zero frames is fine (empty result).
        let empty =
            StereoSequence::generate(&SceneConfig::scene_flow_like(32, 24).with_objects(1), 0);
        let result = pipeline.process_sequence(&empty).unwrap();
        assert!(result.frames.is_empty());
    }
}
