//! Integration tests of the adaptive QoS loop.
//!
//! The headline proof is the seeded virtual-time overload scenario
//! ([`asv_runtime::run_overload_sim`], run by CI in both feature configs):
//! with QoS enabled every over-capacity session settles inside its SLO and
//! recovers to full quality after the load drops; with QoS disabled the
//! identical workload shows p95 tail collapse.  The remaining tests drive
//! the *real* scheduler: an aggressive SLO actuates a live session's knobs,
//! and a proptest pins that a session whose controller never actuates stays
//! byte-identical to batch processing.

use asv::ism::{IsmConfig, IsmPipeline};
use asv_dnn::{zoo, SurrogateParams, SurrogateStereoDnn};
use asv_runtime::{
    parse_scrape, run_overload_sim, CostMetric, OverloadConfig, QosAction, QosConfig, Scheduler,
    SchedulerConfig, SessionSlo, SessionSpec,
};
use asv_scene::{SceneConfig, StereoSequence};
use asv_stereo::block_matching::BlockMatchParams;
use proptest::prelude::*;

const WIDTH: usize = 48;
const HEIGHT: usize = 36;

fn pipeline(window: usize) -> IsmPipeline {
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
            metric: CostMetric::Sad,
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

/// The CI acceptance scenario, QoS on: every over-capacity session degrades,
/// meets its SLO in the steady half of the overload phase, and walks back to
/// full quality once the load drops.
#[test]
fn overload_sim_with_qos_meets_slo_and_recovers() {
    let config = OverloadConfig::ci();
    let report = run_overload_sim(&config, true);
    assert!(report.qos_enabled);
    assert_eq!(report.sessions.len(), config.sessions);
    for session in &report.sessions {
        assert!(
            session.overload_p95_us <= config.slo.target_p95_step_us,
            "{}: steady-state overload p95 {}us exceeds the {}us SLO",
            session.key,
            session.overload_p95_us,
            config.slo.target_p95_step_us
        );
        assert!(
            session.max_level > 0,
            "{}: controller never degraded under 2x overload",
            session.key
        );
        assert_eq!(
            session.final_level, 0,
            "{}: did not recover to full quality after the load dropped",
            session.key
        );
        assert!(
            session.relaxed_p95_us <= config.slo.target_p95_step_us,
            "{}: relaxed-phase p95 {}us exceeds the SLO",
            session.key,
            session.relaxed_p95_us
        );
        assert!(
            session.slo_violations > 0,
            "{}: no violations sensed",
            session.key
        );
        assert!(session.actuations > 0, "{}: no actuations", session.key);
    }
    // The ladder was walked downward (every degrade action fired) and back
    // up (recoveries at least match the net return to level 0).
    for action in [
        QosAction::CensusMetric,
        QosAction::WidenWindow,
        QosAction::RelaxMotion,
    ] {
        assert!(
            report.total_actuations[action.index()] > 0,
            "action {} never fired",
            action.name()
        );
    }
    assert!(report.total_actuations[QosAction::Recover.index()] >= 3 * config.sessions as u64);
}

/// The CI acceptance scenario, QoS off: the identical workload collapses the
/// tail — p95 blows through several multiples of the (unenforced) SLO.
#[test]
fn overload_sim_without_qos_collapses_the_tail() {
    let config = OverloadConfig::ci();
    let report = run_overload_sim(&config, false);
    assert!(!report.qos_enabled);
    for session in &report.sessions {
        assert!(
            session.overload_p95_us > 4 * config.slo.target_p95_step_us,
            "{}: expected tail collapse without QoS, got p95 {}us (SLO {}us)",
            session.key,
            session.overload_p95_us,
            config.slo.target_p95_step_us
        );
        assert_eq!(session.max_level, 0);
        assert_eq!(session.actuations, 0);
        assert_eq!(session.slo_violations, 0);
    }
    assert_eq!(report.total_actuations, [0; QosAction::COUNT]);
}

/// The sim is virtual-time and seeded: two runs are identical, so the CI
/// assertions above can never flake.
#[test]
fn overload_sim_is_deterministic() {
    let config = OverloadConfig::ci();
    for enabled in [true, false] {
        let a = run_overload_sim(&config, enabled);
        let b = run_overload_sim(&config, enabled);
        assert_eq!(a.total_actuations, b.total_actuations);
        for (x, y) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(x.overload_p95_us, y.overload_p95_us);
            assert_eq!(x.relaxed_p95_us, y.relaxed_p95_us);
            assert_eq!(x.max_level, y.max_level);
            assert_eq!(x.slo_violations, y.slo_violations);
        }
    }
}

/// Against the real scheduler: an SLO no real frame can meet forces the
/// controller to actuate a live session's ISM knobs, and the degradation
/// shows up in the report's telemetry and the Prometheus scrape.
#[test]
fn impossible_slo_actuates_a_live_session() {
    let pipe = pipeline(2);
    let scheduler = Scheduler::new(SchedulerConfig::per_core().with_workers(1));
    // 1 µs p95 target: every frame violates; a tiny window + streaks make
    // the controller react within the stream.
    let qos = QosConfig::new(SessionSlo::p95_step_us(1))
        .with_window(4)
        .with_streaks(1, 1_000);
    let handle = scheduler.add_session(
        SessionSpec::new(pipe.state())
            .with_label("hot-cam")
            .with_qos(qos),
    );
    let stream = sequence(71, 12);
    for frame in stream.frames() {
        handle
            .submit(frame.left.clone(), frame.right.clone())
            .expect("submit");
    }
    let report = scheduler.join();
    let session = &report.sessions[0];
    assert!(session.telemetry.qos.enabled);
    assert!(
        session.telemetry.qos.level > 0,
        "controller never degraded under an impossible SLO"
    );
    assert!(session.telemetry.qos.slo_violations > 0);
    assert!(report.aggregate.qos_slo_violations > 0);
    assert_eq!(
        report.aggregate.qos_sessions.len(),
        1,
        "one SLO-managed session must export a level gauge"
    );
    assert_eq!(report.aggregate.qos_sessions[0].session, "hot-cam");

    let text = asv_runtime::render_prometheus(std::slice::from_ref(&report.aggregate));
    let samples = parse_scrape(&text).expect("scrape parses");
    let level = samples
        .iter()
        .find(|s| s.name == "asv_qos_level" && s.label("session") == Some("hot-cam"))
        .expect("per-session qos level gauge");
    assert!(level.value >= 1.0);
    assert!(samples
        .iter()
        .any(|s| s.name == "asv_qos_slo_violations_total" && s.value >= 1.0));
    assert!(samples.iter().any(|s| s.name == "asv_qos_actuations_total"
        && s.label("action") == Some("census_metric")
        && s.value >= 1.0));
}

/// A generous SLO never actuates, and `ASV_QOS`-less registration leaves the
/// stream's output byte-identical to batch processing — QoS is free until it
/// fires.
#[test]
fn generous_slo_never_actuates_and_output_matches_batch() {
    let pipe = pipeline(2);
    let stream = sequence(77, 6);
    let batch = pipe.process_sequence(&stream).expect("batch baseline");

    let scheduler = Scheduler::new(SchedulerConfig::per_core().with_workers(1));
    let qos = QosConfig::new(SessionSlo::p95_step_us(u64::MAX / 2));
    let handle = scheduler.add_session(
        SessionSpec::new(pipe.state())
            .with_label("calm-cam")
            .with_qos(qos),
    );
    for frame in stream.frames() {
        handle
            .submit(frame.left.clone(), frame.right.clone())
            .expect("submit");
    }
    let report = scheduler.join();
    let session = &report.sessions[0];
    assert!(session.telemetry.qos.enabled);
    assert_eq!(session.telemetry.qos.level, 0);
    assert_eq!(session.telemetry.qos.actuations_total(), 0);
    assert_eq!(batch.frames.len(), session.frames.len());
    for (expected, actual) in batch.frames.iter().zip(&session.frames) {
        assert_eq!(expected.kind, actual.kind);
        assert_eq!(
            expected.disparity, actual.disparity,
            "output must stay byte-identical"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Whatever the workload seed and frame count, a controller that never
    /// actuates (generous SLO) leaves streaming output byte-identical to
    /// batch.
    #[test]
    fn qos_without_actuation_preserves_batch_identity(
        seed in 0u64..1_000,
        frames in 2usize..6,
        window in 1usize..4,
    ) {
        let pipe = pipeline(window);
        let stream = sequence(seed, frames);
        let batch = pipe.process_sequence(&stream).expect("batch baseline");

        let scheduler = Scheduler::new(SchedulerConfig::per_core().with_workers(2));
        let qos = QosConfig::new(SessionSlo::p95_step_us(u64::MAX / 2));
        let handle = scheduler.add_session(SessionSpec::new(pipe.state()).with_qos(qos));
        for frame in stream.frames() {
            handle
                .submit(frame.left.clone(), frame.right.clone())
                .expect("submit");
        }
        let report = scheduler.join();
        let session = &report.sessions[0];
        prop_assert_eq!(session.telemetry.qos.actuations_total(), 0);
        prop_assert_eq!(batch.frames.len(), session.frames.len());
        for (expected, actual) in batch.frames.iter().zip(&session.frames) {
            prop_assert_eq!(&expected.disparity, &actual.disparity);
        }
    }
}
