//! Deterministic cluster simulation harness.
//!
//! The runtime's core correctness claim is *determinism*: a frame's
//! disparity map depends only on its session's frame history, never on how
//! many shards, workers or queue hops served it.  This module turns that
//! claim into an executable experiment:
//!
//! * a **seeded workload generator** ([`generate_streams`]) producing the
//!   same synthetic camera streams for the same [`SimConfig::seed`];
//! * **latency injection** — seeded per-frame submit jitter perturbs thread
//!   interleavings (different every shard count, reproducible for a seed)
//!   so the equality check is exercised under many real schedules, plus a
//!   [`VirtualClock`] for building *exactly* reproducible latency telemetry
//!   where wall time would be noise (the Prometheus golden test);
//! * [`run_cluster_sim`] — the proof harness: for each requested shard
//!   count it routes the workload through the full stack (one feeder
//!   thread per session → cluster → shard schedulers) and compares every
//!   session's results byte-for-byte against batch
//!   [`IsmPipeline::process_sequence`] and against a single
//!   [`crate::Scheduler`].
//!
//! [`run_chaos_transport_sim`] (a lossy link into the server's own receive
//! path) and [`run_failover_sim`] (a shard killed mid-stream) build on the
//! same seeded workload and the same byte-identity verifier.
//! [`run_overload_sim`] is apart: a virtual-time cost model of the
//! scheduler that runs no real stage.
//!
//! CI runs these in both feature configurations; see
//! `crates/runtime/tests/{cluster,failover,qos}.rs`.

use crate::cluster::{Cluster, ClusterConfig, ClusterReport};
use crate::net::{self, SequenceGate};
use crate::qos::{QosAction, QosConfig, QosController, QosKnobs, SessionSlo};
use crate::scheduler::{SchedulerConfig, ShedPolicy};
use crate::serve::serve_sequences;
use crate::session::SessionReport;
use crate::supervisor::{Delivery, MigrationRecord, Supervisor};
use crate::wire;
use asv::ism::{FrameResult, IsmPipeline, IsmResult, KeyFramePolicy};
use asv::AsvError;
use asv::CostMetric;
use asv_scene::{SceneConfig, StereoSequence};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A deterministic logical clock, advancing only when told to.
///
/// Real `Instant`s make telemetry content non-reproducible; tests that need
/// bit-stable histograms (e.g. the Prometheus golden test) drive one of
/// these instead and inject the resulting durations.
#[derive(Debug, Clone, Copy, Default)]
pub struct VirtualClock {
    now_us: u64,
}

impl VirtualClock {
    /// A clock at logical time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current logical time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Current logical time in seconds.
    pub fn now_seconds(&self) -> f64 {
        self.now_us as f64 / 1e6
    }

    /// Advances the clock by `us` microseconds and returns the elapsed
    /// duration — the injectable stand-in for "this step took `us` µs".
    pub fn advance_us(&mut self, us: u64) -> Duration {
        self.now_us += us;
        Duration::from_micros(us)
    }
}

/// Parameters of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Master seed: workload content and injected jitter both derive from
    /// it.
    pub seed: u64,
    /// Concurrent camera sessions.
    pub sessions: usize,
    /// Frames per session.
    pub frames_per_session: usize,
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Worker threads per scheduler shard.
    pub workers_per_shard: usize,
    /// Bounded inbox capacity per session.
    pub inbox_capacity: usize,
    /// Upper bound of the injected per-frame submit jitter, microseconds
    /// (0 disables injection).
    pub submit_jitter_us: u64,
}

impl SimConfig {
    /// A small configuration that keeps the full determinism sweep fast
    /// enough for CI.
    pub fn small() -> Self {
        Self {
            seed: 0xA5F,
            sessions: 3,
            frames_per_session: 4,
            width: 48,
            height: 36,
            workers_per_shard: 2,
            inbox_capacity: 2,
            submit_jitter_us: 300,
        }
    }

    /// Returns the configuration with a different master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the configuration with a different session count.
    pub fn with_sessions(mut self, sessions: usize) -> Self {
        self.sessions = sessions;
        self
    }

    /// Returns the configuration with a different per-session frame count.
    pub fn with_frames(mut self, frames: usize) -> Self {
        self.frames_per_session = frames;
        self
    }
}

/// The routing key of simulated session `index` (shared by the harness and
/// its tests).
pub fn session_key(index: usize) -> String {
    format!("sim-cam-{index}")
}

/// Generates the seeded synthetic camera streams of a simulation.
pub fn generate_streams(config: &SimConfig) -> Vec<StereoSequence> {
    (0..config.sessions)
        .map(|i| {
            let scene = SceneConfig::scene_flow_like(config.width, config.height)
                .with_seed(config.seed.wrapping_mul(1009).wrapping_add(i as u64))
                .with_objects(2);
            StereoSequence::generate(&scene, config.frames_per_session)
        })
        .collect()
}

/// Outcome of one [`run_cluster_sim`] sweep.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The shard counts the cluster was exercised at.
    pub shard_counts: Vec<usize>,
    /// Sessions per run.
    pub sessions: usize,
    /// Individual frame results compared against the batch baseline.
    pub frames_compared: u64,
    /// Human-readable descriptions of every divergence found (empty on
    /// success).
    pub mismatches: Vec<String>,
}

impl SimReport {
    /// Whether every compared frame was byte-identical to the batch
    /// baseline.
    pub fn is_deterministic(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// The seeded input every real-stack sim shares: the streams, their batch
/// baseline (the ground truth everything must match) and the shard
/// configuration.
struct Workload {
    streams: Vec<StereoSequence>,
    batch: Vec<IsmResult>,
    shard_config: SchedulerConfig,
}

impl Workload {
    fn new(pipeline: &IsmPipeline, config: &SimConfig) -> Result<Self, AsvError> {
        let streams = generate_streams(config);
        let batch = streams
            .iter()
            .map(|s| pipeline.process_sequence(s))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            streams,
            batch,
            // Lossless backpressure: determinism requires that no frame is
            // shed.
            shard_config: SchedulerConfig {
                workers: config.workers_per_shard.max(1),
                inbox_capacity: config.inbox_capacity,
                shed_policy: ShedPolicy::Block,
            },
        })
    }

    fn cluster(&self, shards: usize) -> Cluster {
        Cluster::new(ClusterConfig::new(shards).with_shard_config(self.shard_config))
    }
}

/// A session the failover sim migrated: frame `at` observed the kill of
/// shard `from` and became the re-key frame of a new incarnation on `to`.
#[derive(Debug, Clone, Copy)]
struct Rekey {
    at: usize,
    from: usize,
    to: usize,
}

/// What a sim's byte-identity check found.
#[derive(Debug, Default)]
struct Verdict {
    frames_compared: u64,
    mismatches: Vec<String>,
}

impl Verdict {
    /// Checks every session of `workload` in a finished cluster against its
    /// batch baseline.  A session listed in `rekeys` is checked as a dead
    /// incarnation that processed a prefix of its stream plus a fresh run
    /// from the re-key frame.
    fn verify(
        &mut self,
        label: &str,
        pipeline: &IsmPipeline,
        workload: &Workload,
        report: &ClusterReport,
        rekeys: &[Option<Rekey>],
    ) -> Result<(), AsvError> {
        for (i, (stream, batch)) in workload.streams.iter().zip(&workload.batch).enumerate() {
            let key = session_key(i);
            let on_shard = |shard: usize| {
                report.shards[shard]
                    .sessions
                    .iter()
                    .find(|s| s.label.as_deref() == Some(key.as_str()))
            };
            match rekeys.get(i).copied().flatten() {
                None => self.check(
                    &format!("{label} {key}"),
                    report.session_by_key(&key),
                    &batch.frames,
                    false,
                ),
                Some(Rekey { at, from, to }) => {
                    self.check(
                        &format!("{label} dead-shard {key}"),
                        on_shard(from),
                        &batch.frames[..at],
                        true,
                    );
                    let mut state = pipeline.state();
                    let fresh = stream.frames()[at..]
                        .iter()
                        .map(|frame| state.step(&frame.left, &frame.right))
                        .collect::<Result<Vec<_>, _>>()?;
                    self.check(
                        &format!("{label} re-keyed {key}"),
                        on_shard(to),
                        &fresh,
                        false,
                    );
                }
            }
        }
        Ok(())
    }

    /// Checks one session incarnation: present, without a stored error
    /// (unless it is a dead incarnation, which `prefix` marks and which may
    /// stop short of `expected`), and byte-identical frame by frame.
    fn check(
        &mut self,
        label: &str,
        session: Option<&SessionReport>,
        expected: &[FrameResult],
        prefix: bool,
    ) {
        let Some(session) = session else {
            self.mismatches
                .push(format!("{label}: session missing from report"));
            return;
        };
        if let Some(error) = session.error.as_ref().filter(|_| !prefix) {
            self.mismatches
                .push(format!("{label}: session failed: {error}"));
        }
        self.check_frames(label, expected, &session.frames, prefix);
    }

    /// Byte-compares `actual` against `expected` position by position: the
    /// frame count must match (or, for a `prefix`, not exceed it), and each
    /// frame's kind and disparity must be identical.
    fn check_frames(
        &mut self,
        label: &str,
        expected: &[FrameResult],
        actual: &[FrameResult],
        prefix: bool,
    ) {
        if actual.len() > expected.len() || (!prefix && actual.len() != expected.len()) {
            self.mismatches.push(format!(
                "{label}: {} frames, expected {}",
                actual.len(),
                expected.len()
            ));
            return;
        }
        for (frame, (e, a)) in expected.iter().zip(actual).enumerate() {
            self.frames_compared += 1;
            if e.kind != a.kind {
                self.mismatches.push(format!(
                    "{label} frame {frame}: kind {:?}, batch {:?}",
                    a.kind, e.kind
                ));
            }
            if e.disparity != a.disparity {
                self.mismatches.push(format!(
                    "{label} frame {frame}: disparity diverges from batch"
                ));
            }
        }
    }

    /// Records a mismatch unless the receive path refused a message the
    /// link mangled, sent early or sent twice: no ack (validation failed)
    /// or a gap ack, and for a `retransmission` also a duplicate ack.
    fn refused(
        &mut self,
        status: Option<u8>,
        retransmission: bool,
        key: &str,
        seq: u64,
        what: &str,
    ) {
        let refused = match status {
            None | Some(net::ACK_GAP) => true,
            Some(net::ACK_DUPLICATE) => retransmission,
            Some(_) => false,
        };
        if !refused {
            self.mismatches
                .push(format!("{key} seq {seq}: {what} was accepted"));
        }
    }
}

/// Runs the determinism experiment: the seeded workload is processed (a) by
/// batch [`IsmPipeline::process_sequence`], (b) by a single
/// [`crate::Scheduler`], and (c) by a [`Cluster`] fed by one feeder thread
/// per session at every shard count in `shard_counts`, with seeded submit
/// jitter perturbing the interleavings.  Every per-session result is compared
/// byte-for-byte against the batch baseline.
///
/// # Errors
///
/// Returns the first [`AsvError`] if any serving path fails outright
/// (result *divergence* is not an error — it is recorded in
/// [`SimReport::mismatches`]).
pub fn run_cluster_sim(
    pipeline: &IsmPipeline,
    config: &SimConfig,
    shard_counts: &[usize],
) -> Result<SimReport, AsvError> {
    let workload = Workload::new(pipeline, config)?;
    let mut verdict = Verdict::default();

    // (b) A single scheduler (the PR-2 serving path).
    let single = serve_sequences(pipeline, &workload.streams, workload.shard_config)?;
    for (i, (expected, actual)) in workload.batch.iter().zip(&single.results).enumerate() {
        let label = format!("single-scheduler {}", session_key(i));
        verdict.check_frames(&label, &expected.frames, &actual.frames, false);
    }

    // (c) The full stack at every requested shard count.
    for &shards in shard_counts {
        let cluster = workload.cluster(shards);
        let sessions: Vec<_> = (0..config.sessions)
            .map(|i| cluster.add_session(&session_key(i), pipeline.state()))
            .collect::<Result<_, _>>()?;

        // Seeded jitter, distinct per shard count so each run explores a
        // different (but reproducible) interleaving.
        let mut rng = SmallRng::seed_from_u64(config.seed ^ (shards as u64).wrapping_mul(0x9E37));
        let jitter: Vec<Vec<u64>> = (0..config.sessions)
            .map(|_| {
                (0..config.frames_per_session)
                    .map(|_| {
                        if config.submit_jitter_us == 0 {
                            0
                        } else {
                            rng.gen_range(0..config.submit_jitter_us)
                        }
                    })
                    .collect()
            })
            .collect();

        let feed_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for (i, (session, stream)) in sessions.iter().zip(&workload.streams).enumerate() {
                let delays = &jitter[i];
                let feed_errors = &feed_errors;
                scope.spawn(move || {
                    for (f, frame) in stream.frames().iter().enumerate() {
                        if delays[f] > 0 {
                            std::thread::sleep(Duration::from_micros(delays[f]));
                        }
                        if let Err(e) = session.submit(frame.left.clone(), frame.right.clone()) {
                            feed_errors
                                .lock()
                                .expect("sim feed-error lock poisoned")
                                .push(format!("{}: submit failed: {e}", session_key(i)));
                            break;
                        }
                    }
                });
            }
        });
        drop(sessions);
        let report = cluster.join();
        verdict.mismatches.extend(
            feed_errors
                .into_inner()
                .expect("sim feed-error lock poisoned"),
        );
        verdict.verify(
            &format!("{shards}-shard cluster"),
            pipeline,
            &workload,
            &report,
            &[],
        )?;
    }

    Ok(SimReport {
        shard_counts: shard_counts.to_vec(),
        sessions: config.sessions,
        frames_compared: verdict.frames_compared,
        mismatches: verdict.mismatches,
    })
}

/// Deterministic per-frame service cost as a function of the session's QoS
/// knobs, used by [`run_overload_sim`].  The numbers mirror the real
/// pipeline's shape — census key frames are cheaper than SAD (integer SGM
/// fast path), propagated non-key frames are far cheaper than any key frame
/// — without paying for real kernels, so the control loop can be exercised
/// over thousands of virtual frames in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Service time of a SAD key frame, µs.
    pub key_sad_us: u64,
    /// Service time of a census key frame, µs.
    pub key_census_us: u64,
    /// Service time of a propagated non-key frame, µs.
    pub non_key_us: u64,
}

impl CostModel {
    fn service_us(&self, knobs: &QosKnobs, is_key: bool) -> u64 {
        if !is_key {
            self.non_key_us
        } else if knobs.metric == CostMetric::Census {
            self.key_census_us
        } else {
            self.key_sad_us
        }
    }
}

/// Parameters of one [`run_overload_sim`] experiment: `sessions` symmetric
/// camera streams arrive every `overload_interval_us` for `overload_frames`
/// frames (over worker-pool capacity at full quality), then relax to
/// `relaxed_interval_us` for `relaxed_frames` more frames (under capacity at
/// every level).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Master seed of the per-session motion traces.
    pub seed: u64,
    /// Concurrent camera sessions.
    pub sessions: usize,
    /// Simulated worker threads shared by all sessions.
    pub workers: usize,
    /// Frames per session in the overload phase.
    pub overload_frames: usize,
    /// Frames per session in the relaxed phase.
    pub relaxed_frames: usize,
    /// Per-session frame arrival interval during overload, µs.
    pub overload_interval_us: u64,
    /// Per-session frame arrival interval after the load drops, µs.
    pub relaxed_interval_us: u64,
    /// The SLO every session is registered under.
    pub slo: SessionSlo,
    /// The per-frame service-cost model.
    pub cost: CostModel,
}

impl OverloadConfig {
    /// The CI scenario: four streams over the capacity of two workers at
    /// full quality (the ladder's resting level 3 is comfortably under),
    /// then a relaxed phase long enough for the slow hysteresis to walk all
    /// the way back to full quality.
    pub fn ci() -> Self {
        Self {
            seed: 0x0A57,
            sessions: 4,
            workers: 2,
            overload_frames: 140,
            relaxed_frames: 420,
            overload_interval_us: 10_000,
            relaxed_interval_us: 40_000,
            slo: SessionSlo::p95_step_us(40_000),
            cost: CostModel {
                key_sad_us: 18_000,
                key_census_us: 13_000,
                non_key_us: 1_500,
            },
        }
    }

    /// The QoS loop configuration the scenario registers sessions with: an
    /// 8-frame window reacts within a few frames of a violation; the
    /// 150-evaluation recovery streak makes quality probes slower than the
    /// overload phase itself, so the steady state degrades once and holds.
    pub fn qos(&self) -> QosConfig {
        QosConfig::new(self.slo)
            .with_window(8)
            .with_streaks(2, 150)
            .with_recover_margin(0.6)
    }

    /// The full-quality baseline knobs of every simulated session.
    pub fn baseline(&self) -> QosKnobs {
        QosKnobs {
            propagation_window: 2,
            key_frame_policy: KeyFramePolicy::AdaptiveMotion {
                max_median_motion_px: 1.5,
            },
            metric: CostMetric::Sad,
        }
    }

    fn frames_per_session(&self) -> usize {
        self.overload_frames + self.relaxed_frames
    }

    /// Arrival time of `session`'s frame `index` (sessions are phase-offset
    /// by 1 ms so dispatch order is deterministic but not lock-stepped).
    fn arrival_us(&self, session: usize, index: usize) -> u64 {
        let base = if index < self.overload_frames {
            index as u64 * self.overload_interval_us
        } else {
            self.overload_frames as u64 * self.overload_interval_us
                + (index - self.overload_frames) as u64 * self.relaxed_interval_us
        };
        base + session as u64 * 1_000
    }
}

/// What one session experienced in the overload experiment.
#[derive(Debug, Clone)]
pub struct OverloadSessionReport {
    /// The session's routing key.
    pub key: String,
    /// p95 step latency (µs) over the last half of the overload-phase
    /// arrivals — the steady state after the controller settled (or, with
    /// QoS off, after the queue collapse is in full swing).
    pub overload_p95_us: u64,
    /// p95 step latency (µs) over the last half of the relaxed-phase
    /// arrivals.
    pub relaxed_p95_us: u64,
    /// Deepest degradation level the session reached.
    pub max_level: u8,
    /// Degradation level at the end of the run.
    pub final_level: u8,
    /// SLO-violation evaluations counted by the session's controller.
    pub slo_violations: u64,
    /// Total knob actuations (degradations + recoveries).
    pub actuations: u64,
}

/// Outcome of one [`run_overload_sim`] run.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// Whether sessions ran QoS controllers.
    pub qos_enabled: bool,
    /// Per-session outcomes, in session order.
    pub sessions: Vec<OverloadSessionReport>,
    /// Actuations across all sessions, indexed by [`QosAction::index`].
    pub total_actuations: [u64; QosAction::COUNT],
}

impl OverloadReport {
    /// Whether every session's steady-state overload p95 met the SLO.
    pub fn all_meet_slo(&self, slo: &SessionSlo) -> bool {
        self.sessions
            .iter()
            .all(|s| s.overload_p95_us <= slo.target_p95_step_us)
    }
}

/// Nearest-rank p95 of the last half of `samples` (arrival order).
fn last_half_p95(samples: &[u64]) -> u64 {
    let tail = &samples[samples.len() / 2..];
    if tail.is_empty() {
        return 0;
    }
    let mut sorted = tail.to_vec();
    sorted.sort_unstable();
    let rank = ((0.95 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the deadline-vs-overload experiment in virtual time: a
/// discrete-event model of the scheduler (worker pool + per-session frame
/// serialization + FIFO order) serves the seeded workload, with every
/// session's *real* [`QosController`] in the loop when `qos_enabled` —
/// exactly the code the production scheduler runs, fed from a
/// [`VirtualClock`]-style timeline instead of `Instant`s.  Key-frame
/// selection mirrors ISM: a key every `propagation_window` frames, plus
/// seeded motion spikes that force re-keys whenever they exceed the
/// session's `AdaptiveMotion` threshold (so relaxing the threshold — the
/// level-3 actuation — visibly cheapens the stream).
///
/// Fully deterministic: same config, same report, no threads, no wall
/// clock.
pub fn run_overload_sim(config: &OverloadConfig, qos_enabled: bool) -> OverloadReport {
    let sessions = config.sessions.max(1);
    let frames = config.frames_per_session();
    let baseline = config.baseline();

    struct SimSession {
        next_frame: usize,
        free_us: u64,
        since_key: usize,
        knobs: QosKnobs,
        controller: Option<QosController>,
        motion: SmallRng,
        steps: Vec<u64>,
        max_level: u8,
    }

    let mut sim: Vec<SimSession> = (0..sessions)
        .map(|i| SimSession {
            next_frame: 0,
            free_us: 0,
            since_key: 0,
            knobs: baseline,
            controller: qos_enabled.then(|| QosController::new(config.qos(), baseline)),
            motion: SmallRng::seed_from_u64(
                config
                    .seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(i as u64),
            ),
            steps: Vec::with_capacity(frames),
            max_level: 0,
        })
        .collect();
    let mut workers = vec![0u64; config.workers.max(1)];

    for _ in 0..sessions * frames {
        // Dispatch the frame that can start earliest: FIFO per session, one
        // frame of a session in service at a time — the scheduler's model.
        let (idx, arrival) = sim
            .iter()
            .enumerate()
            .filter(|(_, s)| s.next_frame < frames)
            .map(|(i, s)| (i, config.arrival_us(i, s.next_frame), s.free_us))
            .min_by_key(|&(i, arrival, free)| (arrival.max(free), i))
            .map(|(i, arrival, _)| (i, arrival))
            .expect("frames remain");
        let worker = workers
            .iter_mut()
            .min()
            .expect("sim has at least one worker");
        let session = &mut sim[idx];

        // ISM key-frame selection under the session's current knobs.
        let threshold = match session.knobs.key_frame_policy {
            KeyFramePolicy::AdaptiveMotion {
                max_median_motion_px,
            } => max_median_motion_px,
            KeyFramePolicy::Static => f32::INFINITY,
        };
        let motion: f32 = session.motion.gen_range(0.0..3.0);
        let is_key = session.next_frame == 0
            || session.since_key >= session.knobs.propagation_window
            || motion > threshold;
        session.since_key = if is_key { 1 } else { session.since_key + 1 };

        let start = arrival.max(session.free_us).max(*worker);
        let complete = start + config.cost.service_us(&session.knobs, is_key);
        *worker = complete;
        session.free_us = complete;
        session.next_frame += 1;
        let step_us = complete - arrival;
        session.steps.push(step_us);

        if let Some(controller) = &mut session.controller {
            if controller.observe_step(complete, step_us).is_some() {
                session.knobs = controller.knobs();
            }
            session.max_level = session.max_level.max(controller.level());
        }
    }

    let mut total_actuations = [0u64; QosAction::COUNT];
    let reports = sim
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let telemetry = s
                .controller
                .as_ref()
                .map(QosController::telemetry)
                .unwrap_or_default();
            for (total, &n) in total_actuations.iter_mut().zip(telemetry.actuations.iter()) {
                *total += n;
            }
            OverloadSessionReport {
                key: session_key(i),
                overload_p95_us: last_half_p95(&s.steps[..config.overload_frames]),
                relaxed_p95_us: last_half_p95(&s.steps[config.overload_frames..]),
                max_level: s.max_level,
                final_level: s.controller.as_ref().map_or(0, QosController::level),
                slo_violations: telemetry.slo_violations,
                actuations: telemetry.actuations_total(),
            }
        })
        .collect();

    OverloadReport {
        qos_enabled,
        sessions: reports,
        total_actuations,
    }
}

/// Per-mille fault rates of the simulated lossy transport, plus the
/// retransmission budget.  Rates are rolled per delivery *attempt*, so a
/// frame can be dropped, corrupted and reordered on successive tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed of the fault roll (independent of the workload seed).
    pub seed: u64,
    /// Per-mille chance a message vanishes in flight.
    pub drop_per_mille: u16,
    /// Per-mille chance a message arrives with one byte flipped.
    pub corrupt_per_mille: u16,
    /// Per-mille chance a message arrives cut off mid-frame (the
    /// half-written-frame-on-disconnect case).
    pub truncate_per_mille: u16,
    /// Per-mille chance a delivered message is delivered twice.
    pub duplicate_per_mille: u16,
    /// Per-mille chance the *next* frame arrives before this one (the
    /// delayed/reordered-link case).
    pub reorder_per_mille: u16,
    /// Delivery attempts per frame before the link declares the session
    /// wedged (the assertion the harness exists to keep false).
    pub max_attempts: usize,
}

impl ChaosConfig {
    /// The CI scenario: every fault class well above real-link rates, with
    /// a retransmission budget that makes loss of progress astronomically
    /// unlikely while still bounding the sim.
    pub fn ci() -> Self {
        Self {
            seed: 0xC4_05,
            drop_per_mille: 150,
            corrupt_per_mille: 100,
            truncate_per_mille: 80,
            duplicate_per_mille: 120,
            reorder_per_mille: 120,
            max_attempts: 64,
        }
    }
}

/// Outcome of one [`run_chaos_transport_sim`] run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Frames accepted by the receiver exactly once.
    pub frames_delivered: u64,
    /// Messages the link dropped.
    pub frames_dropped: u64,
    /// Messages delivered with a flipped byte (all must be rejected).
    pub frames_corrupted: u64,
    /// Messages delivered cut off mid-frame (all must be rejected).
    pub frames_truncated: u64,
    /// Accepted messages the link delivered a second time (all must be
    /// deduplicated).
    pub frames_duplicated: u64,
    /// Messages that arrived ahead of order (all must be refused as gaps).
    pub frames_reordered: u64,
    /// Sender retransmissions forced by unacknowledged deliveries.
    pub retransmissions: u64,
    /// Total faults counted by the transport counters (every injected
    /// corruption/truncation/gap must appear here).
    pub transport_errors: u64,
    /// Frames byte-compared against the batch baseline.
    pub frames_compared: u64,
    /// Human-readable descriptions of every divergence (empty on success).
    pub mismatches: Vec<String>,
}

impl ChaosReport {
    /// Whether every session's output was byte-identical to batch and no
    /// session wedged.
    pub fn is_deterministic(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Runs the lossy-transport determinism experiment: every session's frames
/// are wire-encoded and pushed through a seeded faulty link
/// (drop/corrupt/truncate/duplicate/reorder) into the [`crate::FrameServer`]'s
/// own per-message receive path — validation, a [`SequenceGate`], a
/// [`Supervisor`]-fronted [`Cluster`] as the [`crate::FrameSink`] — with
/// at-least-once retransmission until each frame is acknowledged.  Asserted
/// downstream: every fault was counted, no session wedged, and every
/// session's output is byte-identical to batch.
///
/// Fully deterministic for a given config: single-threaded link, seeded
/// fault rolls.
///
/// # Errors
///
/// Returns the first [`AsvError`] if the serving path itself fails
/// (divergence is recorded in [`ChaosReport::mismatches`], not an error).
pub fn run_chaos_transport_sim(
    pipeline: &IsmPipeline,
    config: &SimConfig,
    chaos: &ChaosConfig,
) -> Result<ChaosReport, AsvError> {
    let workload = Workload::new(pipeline, config)?;
    let cluster = Arc::new(workload.cluster(1));
    let counters = cluster.transport_counters();
    let state_pipeline = pipeline.clone();
    let supervisor = Supervisor::new(Arc::clone(&cluster), move |_| state_pipeline.state());
    let gate = SequenceGate::new();
    // The server's receive path minus the socket: the ack status, or `None`
    // when validation refused the message.
    let receive = |bytes: &[u8]| {
        net::receive_message(
            bytes,
            wire::MAX_MESSAGE_BYTES,
            &supervisor,
            &gate,
            &counters,
        )
        .map(|ack| ack[1])
    };

    let mut verdict = Verdict::default();
    let mut report = ChaosReport {
        frames_delivered: 0,
        frames_dropped: 0,
        frames_corrupted: 0,
        frames_truncated: 0,
        frames_duplicated: 0,
        frames_reordered: 0,
        retransmissions: 0,
        transport_errors: 0,
        frames_compared: 0,
        mismatches: Vec::new(),
    };

    for (i, stream) in workload.streams.iter().enumerate() {
        let key = session_key(i);
        let mut rng =
            SmallRng::seed_from_u64(chaos.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut pending: std::collections::VecDeque<(u64, Vec<u8>)> =
            std::collections::VecDeque::new();
        for (seq, frame) in stream.frames().iter().enumerate() {
            let mut bytes = Vec::new();
            wire::encode_frame_into(&mut bytes, &key, seq as u64, &frame.left, &frame.right)?;
            pending.push_back((seq as u64, bytes));
        }

        'frames: while let Some((seq, bytes)) = pending.pop_front() {
            for _attempt in 0..chaos.max_attempts.max(1) {
                let roll: u32 = rng.gen_range(0u32..1000);
                let drop_at = u32::from(chaos.drop_per_mille);
                let corrupt_at = drop_at + u32::from(chaos.corrupt_per_mille);
                let truncate_at = corrupt_at + u32::from(chaos.truncate_per_mille);
                let reorder_at = truncate_at + u32::from(chaos.reorder_per_mille);
                if roll < drop_at {
                    report.frames_dropped += 1;
                    report.retransmissions += 1;
                    continue;
                }
                if roll < corrupt_at {
                    let mut mangled = bytes.clone();
                    let at = rng.gen_range(0..mangled.len());
                    mangled[at] ^= 0x41;
                    verdict.refused(receive(&mangled), false, &key, seq, "corrupt message");
                    report.frames_corrupted += 1;
                    report.retransmissions += 1;
                    continue;
                }
                if roll < truncate_at {
                    let keep = rng.gen_range(4..bytes.len());
                    verdict.refused(
                        receive(&bytes[..keep]),
                        false,
                        &key,
                        seq,
                        "truncated message",
                    );
                    report.frames_truncated += 1;
                    report.retransmissions += 1;
                    continue;
                }
                if roll < reorder_at {
                    // The delayed-link case: the next frame overtakes this
                    // one.  The gate must refuse it (gap), keeping it
                    // pending for in-order delivery later.
                    if let Some((ahead_seq, ahead)) = pending.front() {
                        let what = "out-of-order message";
                        verdict.refused(receive(ahead), false, &key, *ahead_seq, what);
                        report.frames_reordered += 1;
                    }
                }
                match receive(&bytes) {
                    Some(net::ACK_ACCEPTED) => report.frames_delivered += 1,
                    Some(net::ACK_DUPLICATE) => {}
                    status => {
                        // The link injects no sink faults, so a delivery
                        // failure is a divergence; the sender retransmits
                        // as a client does.
                        if status == Some(net::ACK_ERROR) {
                            verdict
                                .mismatches
                                .push(format!("{key} seq {seq}: delivery failed"));
                        }
                        report.retransmissions += 1;
                        continue;
                    }
                }
                if roll >= 1000 - u32::from(chaos.duplicate_per_mille) {
                    verdict.refused(receive(&bytes), true, &key, seq, "duplicate");
                    report.frames_duplicated += 1;
                }
                continue 'frames;
            }
            verdict.mismatches.push(format!(
                "{key} seq {seq}: wedged after {} delivery attempts",
                chaos.max_attempts
            ));
        }
    }

    report.transport_errors = counters.total();
    supervisor.finish();
    let cluster = Arc::try_unwrap(cluster).expect("supervisor retained a cluster handle");
    verdict.verify("chaos-transport", pipeline, &workload, &cluster.join(), &[])?;
    report.frames_compared = verdict.frames_compared;
    report.mismatches = verdict.mismatches;
    Ok(report)
}

/// Parameters of one [`run_failover_sim`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverConfig {
    /// Workload shape (seed, sessions, frames, frame size, shard sizing).
    pub sim: SimConfig,
    /// Scheduler shards in the cluster.
    pub shards: usize,
    /// The shard to kill; `None` kills the shard serving session 0, which
    /// guarantees at least one migration.
    pub victim: Option<usize>,
    /// Frames per session delivered before the kill (must be at least 1).
    pub kill_after: usize,
}

impl FailoverConfig {
    /// The CI scenario: four sessions over three shards, shard killed
    /// mid-stream.
    pub fn ci() -> Self {
        Self {
            sim: SimConfig::small().with_sessions(4).with_frames(6),
            shards: 3,
            victim: None,
            kill_after: 3,
        }
    }
}

/// Outcome of one [`run_failover_sim`] run.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// The shard the sim killed.
    pub victim: usize,
    /// Every re-placement the supervisor performed.
    pub migrations: Vec<MigrationRecord>,
    /// Per session: the frame index that observed the failure and was
    /// re-delivered as the first (key) frame of the new incarnation
    /// (`None` for sessions the kill never touched).
    pub migration_frame: Vec<Option<usize>>,
    /// Frames byte-compared against their baselines.
    pub frames_compared: u64,
    /// Divergences from the byte-identical contract (empty on success).
    pub mismatches: Vec<String>,
    /// Sessions that failed a submit after the kill (must be empty: frame
    /// loss never wedges a session).
    pub wedged: Vec<String>,
    /// The final Prometheus scrape, containing the
    /// `asv_sessions_migrated_total` / `asv_transport_errors_total`
    /// families.
    pub scrape: String,
}

impl FailoverReport {
    /// Whether recovery was deterministic and every session survived.
    pub fn is_deterministic(&self) -> bool {
        self.mismatches.is_empty() && self.wedged.is_empty()
    }
}

/// Runs the shard-failure recovery experiment: the seeded workload streams
/// through a [`Supervisor`]-fronted multi-shard [`Cluster`]; mid-stream one
/// shard is killed ([`Cluster::trip_shard`]).  The supervisor must re-place
/// every session of the dead shard onto survivors with a key-frame re-key,
/// after which each migrated session's output must be byte-identical to a
/// fresh batch run over its post-migration frames — and untouched sessions
/// byte-identical to batch over their full stream.  No session may wedge.
///
/// Single-threaded frame feed: deterministic migration points for a given
/// config.
///
/// # Errors
///
/// Returns the first [`AsvError`] if baseline computation fails (recovery
/// failures are recorded in the report, not returned).
pub fn run_failover_sim(
    pipeline: &IsmPipeline,
    config: &FailoverConfig,
) -> Result<FailoverReport, AsvError> {
    let workload = Workload::new(pipeline, &config.sim)?;
    let cluster = Arc::new(workload.cluster(config.shards.max(2)));
    let victim = config
        .victim
        .unwrap_or_else(|| cluster.shard_for_key(&session_key(0)));
    let state_pipeline = pipeline.clone();
    let supervisor = Supervisor::new(Arc::clone(&cluster), move |_| state_pipeline.state());

    let mut migration_frame: Vec<Option<usize>> = vec![None; config.sim.sessions];
    let mut wedged = Vec::new();
    for f in 0..config.sim.frames_per_session {
        if f == config.kill_after.max(1) {
            cluster.trip_shard(victim, "failover sim kill");
        }
        for (i, stream) in workload.streams.iter().enumerate() {
            let frame = &stream.frames()[f];
            let key = session_key(i);
            match supervisor.submit(&key, frame.left.clone(), frame.right.clone()) {
                Ok(Delivery::Delivered) => {}
                Ok(Delivery::Migrated { .. }) => {
                    migration_frame[i].get_or_insert(f);
                }
                Err(error) => wedged.push(format!("{key} frame {f}: {error}")),
            }
        }
    }

    let migrations = supervisor.migrations();
    supervisor.finish();
    let cluster = Arc::try_unwrap(cluster).expect("supervisor retained a cluster handle");
    let outcome = cluster.join();
    let rekeys: Vec<Option<Rekey>> = migration_frame
        .iter()
        .enumerate()
        .map(|(i, at)| {
            at.map(|at| Rekey {
                at,
                from: victim,
                to: migrations
                    .iter()
                    .find(|m| m.key == session_key(i))
                    .map_or(victim, |m| m.to),
            })
        })
        .collect();
    let mut verdict = Verdict::default();
    verdict.verify("failover", pipeline, &workload, &outcome, &rekeys)?;

    Ok(FailoverReport {
        victim,
        migrations,
        migration_frame,
        frames_compared: verdict.frames_compared,
        mismatches: verdict.mismatches,
        wedged,
        scrape: outcome.render_prometheus(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_deterministically() {
        let mut clock = VirtualClock::new();
        assert_eq!(clock.now_us(), 0);
        let step = clock.advance_us(1_500);
        assert_eq!(step, Duration::from_micros(1_500));
        clock.advance_us(500);
        assert_eq!(clock.now_us(), 2_000);
        assert!((clock.now_seconds() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn workload_generation_is_seed_stable() {
        let config = SimConfig::small().with_sessions(2).with_frames(2);
        let a = generate_streams(&config);
        let b = generate_streams(&config);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            for (fx, fy) in x.frames().iter().zip(y.frames()) {
                assert_eq!(fx.left, fy.left);
                assert_eq!(fx.right, fy.right);
            }
        }
        let other = generate_streams(&config.with_seed(999));
        assert_ne!(
            a[0].frames()[0].left,
            other[0].frames()[0].left,
            "different seeds must produce different workloads"
        );
    }
}
