//! Error-path coverage for `SessionHandle`, asserting the *specific*
//! `AsvError` variant on every path.
//!
//! All admission-control tests run on zero-worker (manual-mode) schedulers:
//! nothing drains, so inbox occupancy — and therefore which path `submit`
//! takes — is fully deterministic.

use asv::ism::{IsmConfig, IsmPipeline, IsmState};
use asv::AsvError;
use asv_dnn::{zoo, SurrogateParams, SurrogateStereoDnn};
use asv_image::Image;
use asv_runtime::{Scheduler, SchedulerConfig, ShedPolicy};
use asv_stereo::block_matching::BlockMatchParams;

const WIDTH: usize = 32;
const HEIGHT: usize = 24;

fn state() -> IsmState {
    let config = IsmConfig {
        propagation_window: 2,
        refine: BlockMatchParams {
            max_disparity: 16,
            refine_radius: 2,
            ..Default::default()
        },
        surrogate: SurrogateParams {
            max_disparity: 16,
            occlusion_handling: false,
            ..Default::default()
        },
        ..Default::default()
    };
    IsmPipeline::new(
        config,
        SurrogateStereoDnn::new(zoo::dispnet(HEIGHT, WIDTH), config.surrogate),
    )
    .state()
}

fn frame() -> (Image, Image) {
    (Image::zeros(WIDTH, HEIGHT), Image::zeros(WIDTH, HEIGHT))
}

fn manual_scheduler(capacity: usize, policy: ShedPolicy) -> Scheduler {
    Scheduler::new(
        SchedulerConfig::per_core()
            .with_workers(0)
            .with_inbox_capacity(capacity)
            .with_shed_policy(policy),
    )
}

#[test]
fn submit_after_shutdown_is_the_shutdown_variant() {
    let scheduler = manual_scheduler(2, ShedPolicy::Block);
    let handle = scheduler.add_session(state());
    let report = scheduler.join();
    assert_eq!(report.sessions.len(), 1);
    let (left, right) = frame();
    let err = handle.submit(left, right).unwrap_err();
    assert!(matches!(err, AsvError::Shutdown), "{err:?}");
    // After join the session table is gone; depth reads as zero.
    assert_eq!(handle.queue_depth(), 0);
}

#[test]
fn reject_policy_returns_saturated_naming_the_inbox() {
    let scheduler = manual_scheduler(2, ShedPolicy::Reject);
    let handle = scheduler.add_session(state());
    for expected_depth in 1..=2 {
        let (left, right) = frame();
        handle.submit(left, right).unwrap();
        assert_eq!(handle.queue_depth(), expected_depth);
    }
    let (left, right) = frame();
    let err = handle.submit(left, right).unwrap_err();
    match &err {
        AsvError::Saturated { context } => {
            assert!(context.contains("session-0 inbox"), "context: {context}");
        }
        other => panic!("expected Saturated, got {other:?}"),
    }
    // The rejected frame left the queue untouched.
    assert_eq!(handle.queue_depth(), 2);
    let report = scheduler.join();
    let t = &report.sessions[0].telemetry;
    assert_eq!(t.frames_submitted, 2);
    assert_eq!(t.frames_shed, 1);
    // Manual mode: the two queued frames are discarded at join.
    assert_eq!(t.frames_dropped, 2);
    assert_eq!(t.queue_depth.current, 0);
    assert_eq!(t.queue_depth.peak, 2);
}

#[test]
fn drop_oldest_policy_displaces_but_never_fails() {
    let scheduler = manual_scheduler(2, ShedPolicy::DropOldest);
    let handle = scheduler.add_session(state());
    for _ in 0..5 {
        let (left, right) = frame();
        handle.submit(left, right).expect("DropOldest never fails");
        assert!(handle.queue_depth() <= 2, "depth stays bounded");
    }
    assert_eq!(handle.queue_depth(), 2);
    let report = scheduler.join();
    let t = &report.sessions[0].telemetry;
    assert_eq!(t.frames_submitted, 5);
    assert_eq!(t.frames_shed, 3, "three oldest frames were displaced");
    assert_eq!(t.queue_depth.peak, 2, "the inbox never exceeded capacity");
}

#[test]
fn block_policy_still_blocks_and_loses_nothing() {
    // One real worker: the producer may momentarily block but every frame
    // must come out processed.
    let scheduler = Scheduler::new(
        SchedulerConfig::per_core()
            .with_workers(1)
            .with_inbox_capacity(1)
            .with_shed_policy(ShedPolicy::Block),
    );
    let handle = scheduler.add_session(state());
    for _ in 0..4 {
        let (left, right) = frame();
        handle.submit(left, right).unwrap();
    }
    let report = scheduler.join();
    let t = &report.sessions[0].telemetry;
    assert_eq!(t.frames_submitted, 4);
    assert_eq!(t.frames_processed, 4);
    assert_eq!(t.frames_shed, 0);
    assert_eq!(t.frames_dropped, 0);
}

#[test]
fn submit_to_a_poisoned_session_returns_the_stored_error() {
    let scheduler = Scheduler::new(
        SchedulerConfig::per_core()
            .with_workers(1)
            .with_inbox_capacity(4),
    );
    let handle = scheduler.add_session(state());
    // Mismatched dimensions poison the session.
    handle
        .submit(Image::zeros(WIDTH, HEIGHT), Image::zeros(WIDTH / 2, HEIGHT))
        .unwrap();
    let mut stored = None;
    for _ in 0..400 {
        let (left, right) = frame();
        match handle.submit(left, right) {
            Err(e) => {
                stored = Some(e);
                break;
            }
            Ok(()) => std::thread::sleep(std::time::Duration::from_millis(2)),
        }
    }
    assert!(
        matches!(stored, Some(AsvError::Stereo(_))),
        "poisoned session must return its stored kernel error, got {stored:?}"
    );
    drop(scheduler);
}

#[test]
fn queue_depth_tracks_every_transition() {
    let scheduler = manual_scheduler(3, ShedPolicy::Reject);
    let handle = scheduler.add_session(state());
    assert_eq!(handle.queue_depth(), 0);
    for depth in 1..=3 {
        let (left, right) = frame();
        handle.submit(left, right).unwrap();
        assert_eq!(handle.queue_depth(), depth);
    }
    let (left, right) = frame();
    assert!(handle.submit(left, right).is_err());
    assert_eq!(handle.queue_depth(), 3, "rejects do not change depth");
    let report = scheduler.join();
    assert_eq!(report.sessions[0].telemetry.queue_depth.peak, 3);
    assert_eq!(handle.queue_depth(), 0, "post-join depth reads zero");
}

#[test]
fn tripped_shard_returns_shard_down_with_the_frames_attached() {
    let scheduler = manual_scheduler(4, ShedPolicy::Block);
    let handle = scheduler.add_session(state());
    scheduler.trip("watchdog: worker heartbeat lost");

    let (left, right) = frame();
    let (err, left, right) = handle.submit_recoverable(left, right).unwrap_err();
    match &err {
        AsvError::ShardDown { context } => {
            assert!(context.contains("heartbeat"), "context: {context}");
        }
        other => panic!("expected ShardDown, got {other:?}"),
    }
    // The planes come back intact, ready for re-submission on a survivor.
    assert_eq!((left.width(), left.height()), (WIDTH, HEIGHT));
    assert_eq!((right.width(), right.height()), (WIDTH, HEIGHT));

    // The plain entry point maps to the same variant.
    let (left, right) = frame();
    let err = handle.submit(left, right).unwrap_err();
    assert!(matches!(err, AsvError::ShardDown { .. }), "{err:?}");

    let report = scheduler.join();
    let t = &report.sessions[0].telemetry;
    assert_eq!(t.frames_dropped, 2, "both refused frames were counted");
}
