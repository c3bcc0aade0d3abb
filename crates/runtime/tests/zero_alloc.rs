//! Zero-allocation proofs of the wire format's steady state: once warm,
//! encoding a frame, validating it with `validate_message` and filling its
//! planes with `fill_planes` performs **zero** heap allocations (the
//! server's receive path), proven with the counting allocator installed
//! globally.
//!
//! The allocation counter is process-wide, so this is a `harness = false`
//! target: [`alloc_count::run_proofs`] runs the proofs one after another
//! on the main thread, after a positive control, with no libtest threads
//! allocating beside them.

use asv::error::WireFault;
use asv::AsvError;
use asv_image::Image;
use asv_mem::alloc_count::{self, CountingAllocator};
use asv_mem::BufferPool;
use asv_runtime::wire::{self, FrameRef, MAX_MESSAGE_BYTES};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

fn main() -> ExitCode {
    alloc_count::run_proofs(&[
        (
            "warm_pool_decode_performs_zero_allocations",
            warm_pool_decode_performs_zero_allocations,
        ),
        (
            "fill_planes_reuses_caller_images_without_allocating",
            fill_planes_reuses_caller_images_without_allocating,
        ),
    ])
}

/// A deterministic non-trivial test plane: every pixel distinct.
fn plane(width: usize, height: usize, salt: f32) -> Image {
    let data = (0..width * height)
        .map(|i| (i as f32).mul_add(0.125, salt))
        .collect();
    Image::from_vec(width, height, data).expect("sized to match")
}

fn wire_fault(error: AsvError) -> WireFault {
    match error {
        AsvError::Wire { fault, .. } => fault,
        other => panic!("expected AsvError::Wire, got {other:?}"),
    }
}

/// Validates `bytes` as a stereo frame (the server's decode entry point).
fn validated(bytes: &[u8]) -> FrameRef<'_> {
    match wire::validate_message(bytes, MAX_MESSAGE_BYTES).unwrap() {
        wire::Message::Frame(frame) => frame,
        other => panic!("expected a frame, got {other:?}"),
    }
}

/// Checks a `width x height` plane out of the pool, the way a session's
/// frame pool recycles planes for the server's sink.
fn take(pool: &mut BufferPool, width: usize, height: usize) -> Image {
    Image::from_vec(width, height, pool.take_scratch(width * height)).unwrap()
}

/// The server's decode path at steady state: once the reusable encode
/// buffer and the plane pool have been warmed by one frame, the whole
/// encode → `validate_message` → `fill_planes` cycle runs with zero heap
/// allocations.
fn warm_pool_decode_performs_zero_allocations() {
    let width = 32;
    let height = 24;
    let left = plane(width, height, 0.0);
    let right = plane(width, height, 250.0);
    let mut bytes = Vec::new();
    let mut pool = BufferPool::new();

    // Warm-up: grows the encode buffer and seeds the pool with two
    // plane-sized buffers.
    wire::encode_frame_into(&mut bytes, "warm", 0, &left, &right).unwrap();
    let (mut dst_left, mut dst_right) = (
        take(&mut pool, width, height),
        take(&mut pool, width, height),
    );
    validated(&bytes)
        .fill_planes(&mut dst_left, &mut dst_right)
        .unwrap();
    pool.put(dst_left.into_vec());
    pool.put(dst_right.into_vec());

    let before = alloc_count::allocations();
    for seq in 1..=16u64 {
        wire::encode_frame_into(&mut bytes, "warm", seq, &left, &right).unwrap();
        let frame = validated(&bytes);
        assert_eq!(frame.seq, seq);
        let mut dst_left = take(&mut pool, frame.width, frame.height);
        let mut dst_right = take(&mut pool, frame.width, frame.height);
        frame.fill_planes(&mut dst_left, &mut dst_right).unwrap();
        pool.put(dst_left.into_vec());
        pool.put(dst_right.into_vec());
    }
    let allocs = alloc_count::allocations() - before;
    assert_eq!(
        allocs, 0,
        "steady-state encode/validate/fill allocated {allocs} times over 16 frames"
    );
}

/// `fill_planes` into caller-held images is likewise allocation-free, and
/// refuses mis-sized targets.
fn fill_planes_reuses_caller_images_without_allocating() {
    let left = plane(16, 12, 0.0);
    let right = plane(16, 12, 99.0);
    let mut bytes = Vec::new();
    wire::encode_frame_into(&mut bytes, "s", 3, &left, &right).unwrap();

    let mut dst_left = Image::zeros(16, 12);
    let mut dst_right = Image::zeros(16, 12);
    let before = alloc_count::allocations();
    let frame = validated(&bytes);
    frame.fill_planes(&mut dst_left, &mut dst_right).unwrap();
    let allocs = alloc_count::allocations() - before;
    assert_eq!(allocs, 0, "fill_planes allocated {allocs} times");
    assert_eq!(dst_left.as_slice(), left.as_slice());
    assert_eq!(dst_right.as_slice(), right.as_slice());

    let mut wrong = Image::zeros(8, 8);
    let fault = wire_fault(frame.fill_planes(&mut wrong, &mut dst_right).unwrap_err());
    assert!(matches!(fault, WireFault::Length), "got {fault:?}");
}
