//! Zero-allocation proofs of the streaming steady state.
//!
//! Locked properties:
//! * steady-state `IsmState::step_with` (frames 2..N of a stream, with a
//!   per-stream [`Workspace`] and result-map recycling) performs **zero**
//!   heap allocations — in both feature configurations: the sequential
//!   build always had this, and the persistent worker pool in the offline
//!   rayon shim (tasks published into static slots, no per-region heap
//!   traffic) extends it to the parallel build;
//! * the guarantee covers both cost metrics: the SAD separable fill and
//!   the census/Hamming integer path both run entirely out of pooled
//!   workspace buffers.
//!
//! The allocation counter is process-wide, so this is a `harness = false`
//! target: [`alloc_count::run_proofs`] runs the proofs one after another
//! on the main thread, after a positive control, with no libtest threads
//! allocating beside them.

mod support;

use asv::ism::{IsmConfig, IsmPipeline};
use asv::Workspace;
use asv_dnn::{zoo, CostMetric, SurrogateStereoDnn};
use asv_mem::alloc_count::{self, CountingAllocator};
use asv_scene::StereoSequence;
use std::process::ExitCode;
use support::{pipeline, pipeline_with_metric, sequence};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

fn main() -> ExitCode {
    alloc_count::run_proofs(&[
        (
            "steady_state_step_performs_zero_allocations",
            steady_state_step_performs_zero_allocations,
        ),
        (
            "adaptive_policy_steady_state_is_also_zero_allocation",
            adaptive_policy_steady_state_is_also_zero_allocation,
        ),
        (
            "census_metric_steady_state_is_also_zero_allocation",
            census_metric_steady_state_is_also_zero_allocation,
        ),
        (
            "tracing_in_ring_mode_adds_zero_steady_state_allocations",
            tracing_in_ring_mode_adds_zero_steady_state_allocations,
        ),
    ])
}

/// Runs frames 2..N of `seq` through `state`/`ws` (frames 0 and 1 warm the
/// key-frame and non-key-frame paths respectively) and returns the number of
/// allocation events the steady-state frames performed.  Result maps are
/// recycled, as a steady-state streaming consumer would.
fn steady_state_allocations(seq: &StereoSequence, pipe: &IsmPipeline) -> u64 {
    let mut state = pipe.state();
    let mut ws = Workspace::new();
    for frame in &seq.frames()[..2] {
        let result = state.step_with(&mut ws, &frame.left, &frame.right).unwrap();
        ws.recycle(result.disparity);
    }
    let before = alloc_count::allocations();
    for frame in &seq.frames()[2..] {
        let result = state.step_with(&mut ws, &frame.left, &frame.right).unwrap();
        ws.recycle(result.disparity);
    }
    alloc_count::allocations() - before
}

/// The tentpole guarantee: with a warm per-stream workspace, a steady-state
/// step allocates nothing.  Frames 2..10 of a window-4 stream cover both
/// non-key frames and re-keyed key frames (frames 4 and 8).  In the
/// parallel build this additionally locks the rayon shim's persistent
/// worker pool: parallel regions publish into static task slots and must
/// not touch the heap.
fn steady_state_step_performs_zero_allocations() {
    let pipe = pipeline(64, 48, 4, 32);
    let seq = sequence(64, 48, 10, 21);
    let allocs = steady_state_allocations(&seq, &pipe);
    assert_eq!(
        allocs, 0,
        "steady-state IsmState::step_with allocated {allocs} times over 8 frames"
    );
}

/// The zero-allocation guarantee also covers the adaptive key-frame
/// policy, whose per-frame median-motion estimate runs through the
/// workspace's selection buffer.
fn adaptive_policy_steady_state_is_also_zero_allocation() {
    let base = pipeline(64, 48, 4, 32);
    let config = IsmConfig {
        key_frame_policy: asv::KeyFramePolicy::AdaptiveMotion {
            max_median_motion_px: 1e6,
        },
        ..*base.config()
    };
    let pipe = IsmPipeline::new(
        config,
        SurrogateStereoDnn::new(zoo::dispnet(48, 64), config.surrogate),
    );
    let seq = sequence(64, 48, 10, 21);
    let allocs = steady_state_allocations(&seq, &pipe);
    assert_eq!(
        allocs, 0,
        "adaptive-policy steady state allocated {allocs} times over 8 frames"
    );
}

/// The census/Hamming key-frame metric runs entirely out of the pooled
/// descriptor grids, u8 cost volume and u16 aggregation scratch — its
/// steady state (including the re-keyed census key frames at frames 4 and
/// 8) allocates nothing either.
fn census_metric_steady_state_is_also_zero_allocation() {
    let pipe = pipeline_with_metric(64, 48, 4, 32, CostMetric::Census);
    let seq = sequence(64, 48, 10, 21);
    let allocs = steady_state_allocations(&seq, &pipe);
    assert_eq!(
        allocs, 0,
        "census-metric steady state allocated {allocs} times over 8 frames"
    );
}

/// Tracing is part of the zero-allocation guarantee: with the tracer
/// explicitly in ring mode — including slow-frame forensics, which copies
/// every frame here (threshold 0) — steady state still allocates nothing,
/// and the spans really were recorded.  The ring and slow buffers are fully
/// sized by the warm-up frames; steady-state recording only rotates them.
fn tracing_in_ring_mode_adds_zero_steady_state_allocations() {
    use asv::trace::{TraceConfig, TraceMode};
    let pipe = pipeline(64, 48, 4, 32);
    let seq = sequence(64, 48, 10, 21);
    let mut state = pipe.state();
    let mut ws = Workspace::with_trace_config(TraceConfig {
        mode: TraceMode::Ring,
        ring_frames: 4,
        slow_threshold_us: Some(0),
        slow_retained: 2,
    });
    for frame in &seq.frames()[..2] {
        let result = state.step_with(&mut ws, &frame.left, &frame.right).unwrap();
        ws.recycle(result.disparity);
    }
    let before = alloc_count::allocations();
    for frame in &seq.frames()[2..] {
        let result = state.step_with(&mut ws, &frame.left, &frame.right).unwrap();
        ws.recycle(result.disparity);
    }
    let allocs = alloc_count::allocations() - before;
    assert_eq!(
        allocs, 0,
        "ring-mode tracing allocated {allocs} times over 8 steady-state frames"
    );
    assert_eq!(ws.tracer.frames_recorded(), 10);
    assert_eq!(ws.tracer.dropped_spans(), 0);
    let last = ws.tracer.last_frame().expect("a frame was recorded");
    assert!(!last.spans.is_empty(), "frames carry spans");
    assert!(
        ws.tracer.slow_frames().count() > 0,
        "threshold 0 retains slow frames"
    );
}
