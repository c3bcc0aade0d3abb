//! Cluster integration tests: the determinism proof (N-shard cluster ==
//! single scheduler == batch), placement behaviour and cross-shard
//! telemetry.

use asv::ism::{IsmConfig, IsmPipeline};
use asv_dnn::{zoo, SurrogateParams, SurrogateStereoDnn};
use asv_image::Image;
use asv_runtime::sim::{run_cluster_sim, session_key, SimConfig};
use asv_runtime::{Cluster, ClusterConfig, SchedulerConfig};
use asv_stereo::block_matching::BlockMatchParams;

fn pipeline(width: usize, height: usize, window: usize) -> IsmPipeline {
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
            ..Default::default()
        },
        ..Default::default()
    };
    IsmPipeline::new(
        config,
        SurrogateStereoDnn::new(zoo::dispnet(height, width), config.surrogate),
    )
}

/// The acceptance-criterion proof: for a seeded workload, a cluster of 1, 2
/// and 4 shards (one feeder thread per session) produces per-session
/// disparity results byte-identical to a single scheduler and to batch
/// `process_sequence`.
#[test]
fn cluster_is_byte_identical_to_single_scheduler_and_batch() {
    let sim = SimConfig::small();
    let pipe = pipeline(sim.width, sim.height, 2);
    let report = run_cluster_sim(&pipe, &sim, &[1, 2, 4]).expect("simulation runs");
    assert!(
        report.is_deterministic(),
        "divergences: {:#?}",
        report.mismatches
    );
    // single-scheduler pass + three cluster passes, every frame compared.
    let per_pass = (sim.sessions * sim.frames_per_session) as u64;
    assert_eq!(report.frames_compared, per_pass * 4);
    assert_eq!(report.shard_counts, vec![1, 2, 4]);
}

/// A different seed must still be deterministic (the property is structural,
/// not a lucky interleaving of one workload).
#[test]
fn determinism_holds_under_a_second_seed_and_heavier_jitter() {
    let sim = SimConfig {
        seed: 2027,
        submit_jitter_us: 800,
        ..SimConfig::small()
    };
    let pipe = pipeline(sim.width, sim.height, 3);
    let report = run_cluster_sim(&pipe, &sim, &[2]).expect("simulation runs");
    assert!(
        report.is_deterministic(),
        "divergences: {:#?}",
        report.mismatches
    );
}

#[test]
fn saturated_shard_falls_back_to_least_loaded() {
    let pipe = pipeline(32, 24, 2);
    // Zero-worker shards with one-frame inboxes: saturation is under test
    // control because nothing ever drains.
    let cluster = Cluster::new(
        ClusterConfig::new(2).with_shard_config(
            SchedulerConfig::per_core()
                .with_workers(0)
                .with_inbox_capacity(1),
        ),
    );
    let key = "hot-camera";
    let hashed = cluster.shard_for_key(key);
    let first = cluster.add_session(key, pipe.state()).unwrap();
    assert_eq!(first.shard(), hashed, "unsaturated: hashed placement wins");
    // Fill the hashed shard's only session's only inbox slot.
    first
        .submit(Image::zeros(32, 24), Image::zeros(32, 24))
        .unwrap();

    let second = cluster.add_session(key, pipe.state()).unwrap();
    assert_eq!(
        second.shard(),
        1 - hashed,
        "saturated hashed shard must fall back to the least-loaded shard"
    );
    // Any other key avoids the saturated shard too: it either hashes to
    // the other shard or falls back to it.
    let third = cluster.add_session("third", pipe.state()).unwrap();
    assert_eq!(third.shard(), 1 - hashed);
}

/// Placement skips failed shards: a key whose hashed shard was tripped
/// lands on a survivor (not in a dead-on-arrival session), and with every
/// shard tripped placement fails with `ShardDown`.
#[test]
fn placement_skips_failed_shards_and_fails_only_when_all_are_down() {
    let pipe = pipeline(32, 24, 2);
    let cluster = Cluster::new(
        ClusterConfig::new(3).with_shard_config(SchedulerConfig::per_core().with_workers(0)),
    );
    let key = "camera-after-kill";
    let hashed = cluster.shard_for_key(key);
    cluster.trip_shard(hashed, "test kill");
    let placed = cluster.add_session(key, pipe.state()).unwrap();
    assert_ne!(placed.shard(), hashed, "a tripped shard must be skipped");
    assert!(!cluster.shard_is_failed(placed.shard()));
    assert_eq!(placed.key(), key);
    placed
        .submit(Image::zeros(32, 24), Image::zeros(32, 24))
        .expect("the re-placed session is alive");

    for shard in 0..cluster.shard_count() {
        cluster.trip_shard(shard, "test kill");
    }
    let err = cluster.add_session(key, pipe.state()).unwrap_err();
    assert!(
        matches!(err, asv::AsvError::ShardDown { .. }),
        "placement with every shard down must be ShardDown: {err:?}"
    );
}

#[test]
fn cluster_report_merges_cross_shard_telemetry() {
    let sim = SimConfig::small().with_sessions(4).with_frames(3);
    let pipe = pipeline(sim.width, sim.height, 2);
    let shard_config = SchedulerConfig::per_core()
        .with_workers(2)
        .with_inbox_capacity(2);
    let cluster = Cluster::new(ClusterConfig::new(2).with_shard_config(shard_config));
    let streams = asv_runtime::sim::generate_streams(&sim);
    let sessions: Vec<_> = (0..sim.sessions)
        .map(|i| cluster.add_session(&session_key(i), pipe.state()).unwrap())
        .collect();
    std::thread::scope(|scope| {
        for (session, stream) in sessions.iter().zip(&streams) {
            scope.spawn(move || {
                for frame in stream.frames() {
                    session
                        .submit(frame.left.clone(), frame.right.clone())
                        .unwrap();
                }
            });
        }
    });
    drop(sessions);

    let report = cluster.join();
    assert_eq!(report.aggregate.frames_shed, 0);
    assert_eq!(report.shards.len(), 2);
    assert_eq!(report.aggregate.sessions, sim.sessions);
    assert_eq!(
        report.aggregate.frames_processed,
        (sim.sessions * sim.frames_per_session) as u64
    );
    let by_shard: u64 = report
        .shards
        .iter()
        .map(|s| s.aggregate.frames_processed)
        .sum();
    assert_eq!(by_shard, report.aggregate.frames_processed);
    // The merged histogram carries every frame's sample.
    assert_eq!(
        report.aggregate.service_latency.count(),
        report.aggregate.frames_processed
    );
    // Every session is findable by key, on exactly one shard.
    for i in 0..sim.sessions {
        let session = report
            .session_by_key(&session_key(i))
            .expect("session present");
        assert_eq!(session.frames.len(), sim.frames_per_session);
        assert!(session.error.is_none());
    }
    // And the scrape body labels both shards.
    let scrape = report.render_prometheus();
    assert!(scrape.contains("asv_cluster_shards 2"));
    assert!(scrape.contains("asv_frames_processed_total{shard=\"0\"}"));
    assert!(scrape.contains("asv_frames_processed_total{shard=\"1\"}"));
}

/// A live cluster can be scraped mid-serve without shutting down.
#[test]
fn live_telemetry_snapshot_does_not_disturb_serving() {
    let sim = SimConfig::small().with_sessions(1).with_frames(3);
    let pipe = pipeline(sim.width, sim.height, 2);
    let cluster = Cluster::new(
        ClusterConfig::new(2).with_shard_config(
            SchedulerConfig::per_core()
                .with_workers(1)
                .with_inbox_capacity(2),
        ),
    );
    let session = cluster.add_session("probe", pipe.state()).unwrap();
    let stream = asv_runtime::sim::generate_streams(&sim);
    for frame in stream[0].frames() {
        session
            .submit(frame.left.clone(), frame.right.clone())
            .unwrap();
        let merged = cluster.merged_telemetry();
        assert_eq!(merged.sessions, 1);
        assert!(!cluster.render_prometheus().is_empty());
    }
    let report = cluster.join();
    assert_eq!(
        report.session_by_key("probe").unwrap().frames.len(),
        stream[0].frames().len()
    );
}
