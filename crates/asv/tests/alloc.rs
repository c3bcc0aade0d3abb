//! Allocation-regression and batch-vs-workspace differential tests.
//!
//! Locked properties:
//! * the allocating entry point ([`IsmState::step`], which builds a
//!   throwaway workspace per call) allocates heavily — the size of the win
//!   the zero-allocation proofs in `zero_alloc.rs` protect;
//! * the allocating entry points and the workspace path produce
//!   byte-identical disparity maps under proptest-generated scenes, window
//!   sizes and frame sizes — buffer reuse can never leak one frame's data
//!   into the next.
//!
//! The `== 0` steady-state proofs live in `zero_alloc.rs`, a
//! `harness = false` target: libtest's concurrent tests would add their
//! allocations to the process-wide counter those proofs read.
//!
//! [`IsmState::step`]: asv::ism::IsmState::step

mod support;

use asv::ism::{FrameKind, IsmConfig, IsmPipeline};
use asv::Workspace;
use asv_dnn::{zoo, SurrogateStereoDnn};
use asv_mem::alloc_count::{self, CountingAllocator};
use asv_scene::StereoSequence;
use proptest::prelude::*;
use support::{pipeline, sequence};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

/// The same steady-state frames through the allocating entry point (a
/// throwaway workspace per call — the pre-workspace allocation profile).
fn steady_state_allocations_baseline(seq: &StereoSequence, pipe: &IsmPipeline) -> u64 {
    let mut state = pipe.state();
    for frame in &seq.frames()[..2] {
        state.step(&frame.left, &frame.right).unwrap();
    }
    let before = alloc_count::allocations();
    for frame in &seq.frames()[2..] {
        state.step(&frame.left, &frame.right).unwrap();
    }
    alloc_count::allocations() - before
}

/// The baseline comparison also holds (and documents the size of the win
/// the regression test protects).
#[test]
fn allocating_path_allocates_and_workspace_path_does_not() {
    let pipe = pipeline(64, 48, 4, 32);
    let seq = sequence(64, 48, 10, 21);
    let baseline = steady_state_allocations_baseline(&seq, &pipe);
    assert!(
        baseline > 1000,
        "expected the allocating path to allocate heavily, saw {baseline}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Byte-identity of the allocating and workspace paths: a fresh
    /// workspace per frame (no reuse, `IsmState::step`) against one
    /// workspace carried across the whole stream.  Any under-reset buffer
    /// would leak a previous frame's data and break the equality.
    #[test]
    fn workspace_reuse_is_byte_identical_to_fresh_workspaces(
        seed in 0u64..1_000,
        frames in 3usize..6,
        window in 1usize..4,
        width in 28usize..48,
        height in 20usize..32,
    ) {
        let pipe = pipeline(width, height, window, 16);
        let seq = sequence(width, height, frames, seed);
        let mut fresh = pipe.state();
        let mut warm = pipe.state();
        let mut ws = Workspace::new();
        for (i, frame) in seq.frames().iter().enumerate() {
            let a = fresh.step(&frame.left, &frame.right).unwrap();
            let b = warm.step_with(&mut ws, &frame.left, &frame.right).unwrap();
            prop_assert_eq!(a.kind, b.kind, "frame {} kind", i);
            prop_assert_eq!(&a.disparity, &b.disparity, "frame {} disparity", i);
            // Recycle so the next checkout exercises a stale pooled buffer.
            ws.recycle(b.disparity);
        }
    }

    /// The batch pipeline (shared internal workspace) equals the streaming
    /// state fed one frame at a time — including under the adaptive
    /// key-frame policy, which exercises the workspace-held left flow.
    #[test]
    fn batch_equals_streaming_with_adaptive_policy(
        seed in 0u64..1_000,
        threshold in 0.0f32..2.0,
    ) {
        let base = pipeline(40, 28, 3, 16);
        let config = IsmConfig {
            key_frame_policy: asv::KeyFramePolicy::AdaptiveMotion {
                max_median_motion_px: threshold,
            },
            ..*base.config()
        };
        let pipe = IsmPipeline::new(
            config,
            SurrogateStereoDnn::new(zoo::dispnet(28, 40), config.surrogate),
        );
        let seq = sequence(40, 28, 5, seed);
        let batch = pipe.process_sequence(&seq).unwrap();
        let mut state = pipe.state();
        let mut ws = Workspace::new();
        for (i, frame) in seq.frames().iter().enumerate() {
            let r = state.step_with(&mut ws, &frame.left, &frame.right).unwrap();
            prop_assert_eq!(r.kind, batch.frames[i].kind, "frame {} kind", i);
            prop_assert_eq!(&r.disparity, &batch.frames[i].disparity, "frame {} disparity", i);
        }
        let _ = batch.frames.iter().filter(|f| f.kind == FrameKind::KeyFrame).count();
    }
}
