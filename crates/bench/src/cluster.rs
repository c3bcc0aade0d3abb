//! Cluster scale-out experiment: aggregate throughput of the sharded
//! runtime (one feeder thread per session → `Cluster` → scheduler shards)
//! as the shard count grows, against the single-scheduler baseline on
//! identical workloads.
//!
//! The single scheduler serializes all bookkeeping on one engine lock; the
//! cluster gives every shard its own lock and worker pool, so on a
//! multi-core host aggregate frames/second should hold or improve with
//! shard count while per-shard queue pressure drops.

use crate::streaming::{streaming_pipeline, streams, STREAM_HEIGHT, STREAM_WIDTH};
use asv_runtime::{serve_sequences, Cluster, ClusterConfig, SchedulerConfig};
use serde::{Deserialize, Serialize};

/// One row of the cluster-throughput experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterThroughputReport {
    /// Scheduler shards in the cluster.
    pub shards: usize,
    /// Concurrent camera sessions served.
    pub sessions: usize,
    /// Worker threads per shard.
    pub workers_per_shard: usize,
    /// Frames per session.
    pub frames_per_stream: usize,
    /// Aggregate frames/second of the single-scheduler baseline.
    pub single_fps: f64,
    /// Aggregate frames/second of the cluster.
    pub cluster_fps: f64,
    /// `cluster_fps / single_fps`.
    pub speedup: f64,
    /// Cluster-wide 95th-percentile service latency, microseconds.
    pub p95_us: u64,
    /// Largest inbox depth observed on any shard.
    pub peak_queue_depth: usize,
    /// Frames shed by admission control (0 under the lossless policy used
    /// here).
    pub frames_shed: u64,
}

/// Runs the experiment: `sessions` identical streams served (a) by one
/// scheduler with `shards * workers_per_shard` workers and (b) by a
/// `shards`-shard cluster with `workers_per_shard` workers each, both
/// getting the same total worker budget.
///
/// # Panics
///
/// Panics if either path fails on the synthetic streams (they cannot,
/// barring a bug).
pub fn cluster_throughput(
    shards: usize,
    sessions: usize,
    workers_per_shard: usize,
    frames_per_stream: usize,
) -> ClusterThroughputReport {
    let pipeline = streaming_pipeline();
    let workload = streams(sessions, frames_per_stream);

    // Baseline: one scheduler with the same total worker budget.
    let single = serve_sequences(
        &pipeline,
        &workload,
        SchedulerConfig::per_core()
            .with_workers(shards * workers_per_shard)
            .with_inbox_capacity(2),
    )
    .expect("single-scheduler baseline serves");
    let single_fps = single.aggregate.frames_per_second();

    // The cluster, one feeder thread per session submitting under lossless
    // blocking backpressure.
    let cluster = Cluster::new(
        ClusterConfig::new(shards).with_shard_config(
            SchedulerConfig::per_core()
                .with_workers(workers_per_shard)
                .with_inbox_capacity(2),
        ),
    );
    let placed: Vec<_> = (0..sessions)
        .map(|i| {
            cluster
                .add_session(&format!("bench-cam-{i}"), pipeline.state())
                .expect("a fresh cluster places every session")
        })
        .collect();
    std::thread::scope(|scope| {
        for (session, stream) in placed.iter().zip(&workload) {
            scope.spawn(move || {
                for frame in stream.frames() {
                    session
                        .submit(frame.left.clone(), frame.right.clone())
                        .expect("lossless submit accepts");
                }
            });
        }
    });
    drop(placed);
    let report = cluster.join();
    let cluster_fps = report.aggregate.frames_per_second();

    ClusterThroughputReport {
        shards,
        sessions,
        workers_per_shard,
        frames_per_stream,
        single_fps,
        cluster_fps,
        speedup: cluster_fps / single_fps.max(1e-9),
        p95_us: report.aggregate.service_latency.p95_us(),
        peak_queue_depth: report.aggregate.peak_queue_depth,
        frames_shed: report.aggregate.frames_shed,
    }
}

/// The printable cluster-scalability record (the `tab_cluster` binary): the
/// shard sweep at a fixed session count and worker budget, plus a scrape
/// sample.
pub fn cluster_report() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers_per_shard = (cores / 2).max(1);
    let mut out = String::new();
    out.push_str(&format!(
        "cluster throughput: 6 sessions x 4 frames ({STREAM_WIDTH}x{STREAM_HEIGHT}), {workers_per_shard} workers/shard\n",
    ));
    out.push_str("  shards  single(f/s)  cluster(f/s)  speedup  p95(us)  peak-q  shed\n");
    for shards in [1, 2, 4] {
        let r = cluster_throughput(shards, 6, workers_per_shard, 4);
        out.push_str(&format!(
            "  {:>6}  {:>11.2}  {:>12.2}  {:>7.2}  {:>7}  {:>6}  {:>4}\n",
            r.shards,
            r.single_fps,
            r.cluster_fps,
            r.speedup,
            r.p95_us,
            r.peak_queue_depth,
            r.frames_shed
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_serves_every_frame_losslessly() {
        let r = cluster_throughput(2, 3, 1, 2);
        assert_eq!(r.shards, 2);
        assert_eq!(r.frames_shed, 0);
        assert!(r.cluster_fps > 0.0);
        assert!(r.single_fps > 0.0);
        assert!(r.speedup > 0.0);
    }
}
