//! Integration tests of the streaming engine: batch equivalence, per-session
//! ordering, backpressure bounds, failure isolation and telemetry.

use asv::ism::{IsmConfig, IsmPipeline};
use asv::AsvError;
use asv_dnn::{zoo, SurrogateParams, SurrogateStereoDnn};
use asv_image::Image;
use asv_runtime::{serve_sequences, CostMetric, Scheduler, SchedulerConfig};
use asv_scene::{SceneConfig, StereoSequence};
use asv_stereo::block_matching::BlockMatchParams;

const WIDTH: usize = 48;
const HEIGHT: usize = 36;

fn pipeline(window: usize) -> IsmPipeline {
    pipeline_with_metric(window, CostMetric::Sad)
}

fn pipeline_with_metric(window: usize, metric: CostMetric) -> IsmPipeline {
    let config = IsmConfig {
        propagation_window: window,
        refine: BlockMatchParams {
            max_disparity: 24,
            refine_radius: 3,
            ..Default::default()
        },
        surrogate: SurrogateParams {
            max_disparity: 24,
            occlusion_handling: true,
            metric,
        },
        ..Default::default()
    };
    IsmPipeline::new(
        config,
        SurrogateStereoDnn::new(zoo::dispnet(HEIGHT, WIDTH), config.surrogate),
    )
}

fn sequence(seed: u64, frames: usize) -> StereoSequence {
    StereoSequence::generate(
        &SceneConfig::scene_flow_like(WIDTH, HEIGHT)
            .with_seed(seed)
            .with_objects(2),
        frames,
    )
}

#[test]
fn concurrent_streaming_is_byte_identical_to_batch() {
    let pipe = pipeline(2);
    let streams: Vec<StereoSequence> = (0..3).map(|i| sequence(50 + i, 5)).collect();
    let outcome = serve_sequences(
        &pipe,
        &streams,
        SchedulerConfig::per_core()
            .with_workers(3)
            .with_inbox_capacity(2),
    )
    .unwrap();
    assert_eq!(outcome.results.len(), 3);
    for (stream, result) in streams.iter().zip(&outcome.results) {
        let batch = pipe.process_sequence(stream).unwrap();
        assert_eq!(batch.frames.len(), result.frames.len());
        for (b, s) in batch.frames.iter().zip(&result.frames) {
            assert_eq!(b.kind, s.kind);
            assert_eq!(b.disparity, s.disparity);
        }
    }
}

#[test]
fn per_session_order_survives_small_inboxes_and_many_workers() {
    // Worst case for reordering: more workers than sessions and an inbox of
    // one frame.  Result equality with the (order-sensitive) batch pipeline
    // proves frames were processed strictly in submission order.
    let pipe = pipeline(3);
    let streams = vec![sequence(60, 7)];
    let outcome = serve_sequences(
        &pipe,
        &streams,
        SchedulerConfig::per_core()
            .with_workers(4)
            .with_inbox_capacity(1),
    )
    .unwrap();
    let batch = pipe.process_sequence(&streams[0]).unwrap();
    for (b, s) in batch.frames.iter().zip(&outcome.results[0].frames) {
        assert_eq!(b.kind, s.kind);
        assert_eq!(b.disparity, s.disparity);
    }
}

#[test]
fn backpressure_bounds_queue_depth_and_loses_nothing() {
    let pipe = pipeline(2);
    let streams: Vec<StereoSequence> = (0..2).map(|i| sequence(70 + i, 6)).collect();
    let capacity = 2;
    let outcome = serve_sequences(
        &pipe,
        &streams,
        SchedulerConfig::per_core()
            .with_workers(2)
            .with_inbox_capacity(capacity),
    )
    .unwrap();
    for t in &outcome.telemetry {
        assert!(
            t.queue_depth.peak <= capacity,
            "peak {}",
            t.queue_depth.peak
        );
        assert_eq!(t.frames_submitted, 6);
        assert_eq!(t.frames_processed, 6);
        assert_eq!(t.frames_dropped, 0);
    }
    assert_eq!(outcome.aggregate.frames_processed, 12);
    assert!(outcome.aggregate.frames_per_second() > 0.0);
}

#[test]
fn telemetry_reports_latencies_and_key_frame_schedule() {
    let pipe = pipeline(2);
    // Window 2 on 6 frames: key frames at 0, 2, 4 -> 3 key + 3 non-key.
    let streams = vec![sequence(80, 6)];
    let outcome =
        serve_sequences(&pipe, &streams, SchedulerConfig::per_core().with_workers(2)).unwrap();
    let t = &outcome.telemetry[0];
    assert_eq!(t.key_frames, 3);
    assert_eq!(t.non_key_frames, 3);
    assert!((t.key_frame_ratio() - 0.5).abs() < 1e-12);
    assert!(t.service_latency.p50_us() > 0, "p50 must be non-zero");
    assert!(t.service_latency.p95_us() >= t.service_latency.p50_us());
    assert!(t.service_latency.p99_us() >= t.service_latency.p95_us());
    assert_eq!(t.service_latency.count(), 6);
    assert_eq!(outcome.aggregate.key_frames, 3);
    assert!(outcome.aggregate.service_latency.p95_us() > 0);
}

#[test]
fn a_failing_frame_poisons_only_its_session() {
    let pipe = pipeline(2);
    let scheduler = Scheduler::new(SchedulerConfig::per_core().with_workers(2));
    let good = scheduler.add_session(pipe.state());
    let bad = scheduler.add_session(pipe.state());

    // A mismatched stereo pair makes the key-frame estimator fail.
    bad.submit(Image::zeros(WIDTH, HEIGHT), Image::zeros(WIDTH / 2, HEIGHT))
        .unwrap();
    let stream = sequence(90, 4);
    for frame in stream.frames() {
        good.submit(frame.left.clone(), frame.right.clone())
            .unwrap();
    }
    // Eventually the bad session rejects new frames with its stored error.
    let mut saw_error = None;
    for _ in 0..200 {
        match bad.submit(Image::zeros(WIDTH, HEIGHT), Image::zeros(WIDTH, HEIGHT)) {
            Err(e) => {
                saw_error = Some(e);
                break;
            }
            Ok(()) => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
    let report = scheduler.join();
    assert!(
        matches!(saw_error, Some(AsvError::Stereo(_))),
        "bad session should reject submissions with its error: {saw_error:?}"
    );
    assert!(report.sessions[1].error.is_some());
    assert!(report.sessions[1].telemetry.frames_dropped >= 1);
    // The good session is untouched.
    assert!(report.sessions[0].error.is_none());
    assert_eq!(report.sessions[0].frames.len(), 4);
    // And the report-level conversion surfaces the failure.
    assert!(report.into_ism_results().is_err());
}

#[test]
fn submissions_after_join_are_rejected() {
    let pipe = pipeline(2);
    let scheduler = Scheduler::new(SchedulerConfig::per_core().with_workers(1));
    let handle = scheduler.add_session(pipe.state());
    assert_eq!(scheduler.session_count(), 1);
    let report = scheduler.join();
    assert_eq!(report.sessions.len(), 1);
    let err = handle
        .submit(Image::zeros(WIDTH, HEIGHT), Image::zeros(WIDTH, HEIGHT))
        .unwrap_err();
    assert!(matches!(err, AsvError::Shutdown), "{err:?}");
}

#[test]
fn processed_frame_planes_recycle_back_to_producers() {
    let pipe = pipeline(2);
    let scheduler = Scheduler::new(SchedulerConfig::per_core().with_workers(1));
    let handle = scheduler.add_session(pipe.state());
    // Submit frames with a marker value; the kernels never mutate their
    // inputs, so a recycled (stale-content) plane still carries it.
    for _ in 0..3 {
        handle
            .submit(
                Image::filled(WIDTH, HEIGHT, 7.0),
                Image::filled(WIDTH, HEIGHT, 7.0),
            )
            .unwrap();
    }
    // Wait until every submitted frame has been stepped (load covers queued
    // plus in-flight frames).
    for _ in 0..2000 {
        if scheduler.load() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(scheduler.load(), 0, "frames still pending");
    // The pool now holds the processed planes: a matching checkout returns
    // one of them (identifiable by the marker), correctly shaped.
    let recycled = handle.recycled_frame(WIDTH, HEIGHT);
    assert_eq!((recycled.width(), recycled.height()), (WIDTH, HEIGHT));
    assert!(
        recycled.as_slice().iter().all(|&v| v == 7.0),
        "expected a recycled marker plane, got a fresh buffer"
    );
    // A size with no recycled plane still yields a usable (zeroed) frame.
    let fresh = handle.recycled_frame(WIDTH / 2, HEIGHT / 2);
    assert_eq!((fresh.width(), fresh.height()), (WIDTH / 2, HEIGHT / 2));
    assert!(fresh.as_slice().iter().all(|&v| v == 0.0));
    // Resubmitting the recycled plane flows through the engine unchanged.
    handle.submit(recycled, fresh_frame()).unwrap();
    let report = scheduler.join();
    assert_eq!(report.sessions[0].frames.len(), 4);
    assert!(report.sessions[0].error.is_none());
}

fn fresh_frame() -> Image {
    Image::filled(WIDTH, HEIGHT, 7.0)
}

#[test]
fn idle_sessions_can_trim_their_workspace() {
    let pipe = pipeline(2);
    let seq = sequence(91, 3);
    let scheduler = Scheduler::new(SchedulerConfig::per_core().with_workers(1));
    let handle = scheduler.add_session(pipe.state());
    for frame in seq.frames() {
        handle
            .submit(frame.left.clone(), frame.right.clone())
            .unwrap();
    }
    for _ in 0..2000 {
        if scheduler.load() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // The stream is idle: the trim must run (workspace resident) and later
    // frames must still process correctly on re-warmed buffers.
    assert!(handle.trim_workspace());
    let frame = &seq.frames()[0];
    handle
        .submit(frame.left.clone(), frame.right.clone())
        .unwrap();
    let report = scheduler.join();
    assert_eq!(report.sessions[0].frames.len(), 4);
    assert!(report.sessions[0].error.is_none());
}

#[test]
fn per_session_metric_override_matches_a_census_batch_pipeline() {
    // A session registered with a census override on a SAD-configured state
    // must produce exactly what a census-configured batch pipeline produces,
    // while a plain session on the same scheduler stays on SAD.
    let sad = pipeline(2);
    let census = pipeline_with_metric(2, CostMetric::Census);
    let stream = sequence(77, 5);

    let scheduler = Scheduler::new(SchedulerConfig::per_core().with_workers(2));
    let mut census_state = sad.state();
    census_state.set_cost_metric(CostMetric::Census);
    let census_session = scheduler.add_session(census_state);
    let sad_session = scheduler.add_session(sad.state());
    for frame in stream.frames() {
        census_session
            .submit(frame.left.clone(), frame.right.clone())
            .unwrap();
        sad_session
            .submit(frame.left.clone(), frame.right.clone())
            .unwrap();
    }
    let report = scheduler.join();

    let census_batch = census.process_sequence(&stream).unwrap();
    let sad_batch = sad.process_sequence(&stream).unwrap();
    assert_eq!(report.sessions[0].frames.len(), census_batch.frames.len());
    for (streamed, batch) in report.sessions[0].frames.iter().zip(&census_batch.frames) {
        assert_eq!(streamed.disparity, batch.disparity);
    }
    for (streamed, batch) in report.sessions[1].frames.iter().zip(&sad_batch.frames) {
        assert_eq!(streamed.disparity, batch.disparity);
    }
    // The two metrics genuinely disagree somewhere, or the override test
    // would be vacuous.
    assert!(census_batch
        .frames
        .iter()
        .zip(&sad_batch.frames)
        .any(|(c, s)| c.disparity != s.disparity));
}
