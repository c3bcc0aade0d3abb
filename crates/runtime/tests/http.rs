//! End-to-end test of the live observability endpoint: a real scheduler
//! processes frames, a [`MetricsServer`] serves its observer over TCP, and
//! the scrapes are validated with the same parser CI uses.

use asv::ism::{IsmConfig, IsmPipeline};
use asv_dnn::{zoo, SurrogateParams, SurrogateStereoDnn};
use asv_runtime::{parse_scrape, MetricsServer, Scheduler, SchedulerConfig, SessionSpec, Stage};
use asv_scene::{SceneConfig, StereoSequence};
use asv_stereo::block_matching::BlockMatchParams;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
            ..Default::default()
        },
        ..Default::default()
    };
    IsmPipeline::new(
        config,
        SurrogateStereoDnn::new(zoo::dispnet(HEIGHT, WIDTH), config.surrogate),
    )
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn live_endpoint_serves_metrics_trace_and_health() {
    let scheduler = Scheduler::new(SchedulerConfig::per_core().with_workers(2));
    let pipe = pipeline(2);
    let streams: Vec<StereoSequence> = (0..2)
        .map(|i| {
            StereoSequence::generate(
                &SceneConfig::scene_flow_like(WIDTH, HEIGHT)
                    .with_seed(90 + i)
                    .with_objects(2),
                4,
            )
        })
        .collect();
    let handles: Vec<_> = (0..streams.len())
        .map(|i| {
            scheduler.add_session(SessionSpec::new(pipe.state()).with_label(format!("camera-{i}")))
        })
        .collect();

    let observer = scheduler.observer();
    let server = MetricsServer::serve("127.0.0.1:0", Arc::new(observer)).expect("bind endpoint");
    let addr = server.local_addr();

    for (stream, handle) in streams.iter().zip(&handles) {
        for frame in stream.frames() {
            handle
                .submit(frame.left.clone(), frame.right.clone())
                .expect("submit");
        }
    }
    // Wait for the workers to drain both sessions (every frame processed).
    let expected = (streams.len() * 4) as u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while scheduler.telemetry_snapshot().frames_processed < expected {
        assert!(Instant::now() < deadline, "frames not processed in time");
        std::thread::sleep(Duration::from_millis(10));
    }

    // /healthz
    let (head, body) = get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "healthz head: {head}");
    assert_eq!(body, "ok\n");

    // /metrics: parses cleanly and carries per-stage histograms.
    let (head, body) = get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"));
    assert!(head.contains("text/plain; version=0.0.4"));
    let samples = parse_scrape(&body).expect("live scrape body parses");
    let processed = samples
        .iter()
        .find(|s| s.name == "asv_frames_processed_total")
        .expect("processed counter present");
    assert_eq!(processed.value, expected as f64);
    // Both frame kinds ran (window 2 over 4 frames), so both the key-frame
    // stage and the propagation stages must have histograms.
    for stage in [
        Stage::DnnInfer,
        Stage::FlowLeft,
        Stage::Propagate,
        Stage::Refine,
    ] {
        let count = samples
            .iter()
            .find(|s| {
                s.name == "asv_stage_latency_microseconds_count"
                    && s.label("stage") == Some(stage.name())
            })
            .unwrap_or_else(|| panic!("no histogram for stage {}", stage.name()));
        assert!(count.value > 0.0, "stage {} recorded frames", stage.name());
    }

    // /trace: Chrome-loadable JSON with the session labels as thread names
    // and one complete event per span.
    let (head, body) = get(addr, "/trace");
    assert!(head.starts_with("HTTP/1.1 200 OK"));
    assert!(head.contains("application/json"));
    assert!(body.starts_with("{\"traceEvents\":["));
    assert!(body.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
    assert!(body.contains("\"thread_name\""));
    assert!(body.contains("camera-0"));
    assert!(body.contains("camera-1"));
    assert!(body.contains("\"name\":\"frame\""));
    assert!(body.contains("\"name\":\"dnn_infer\""));
    assert!(body.contains("\"name\":\"refine\""));
    assert!(body.contains("\"ph\":\"X\""));

    server.shutdown();
    let report = scheduler.join();
    assert_eq!(report.aggregate.frames_processed, expected);
    // The joined report folds the same per-stage telemetry the scrape saw.
    assert!(
        report
            .aggregate
            .stage_latency
            .histogram(Stage::DnnInfer)
            .count()
            > 0
    );
}

/// The graceful-drain contract: once a cluster begins draining, `/healthz`
/// answers 503 so load balancers stop routing new sessions — while
/// `/metrics` keeps serving so the final telemetry remains scrapable.
#[test]
fn draining_cluster_flips_healthz_to_503_but_keeps_metrics_up() {
    use asv_runtime::{Cluster, ClusterConfig};

    let cluster = Cluster::new(ClusterConfig::new(2));
    let server =
        MetricsServer::serve("127.0.0.1:0", Arc::new(cluster.observer())).expect("bind endpoint");
    let addr = server.local_addr();

    let (head, body) = get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "healthy head: {head}");
    assert_eq!(body, "ok\n");

    cluster.begin_drain();
    let (head, _) = get(addr, "/healthz");
    assert!(
        head.starts_with("HTTP/1.1 503 Service Unavailable"),
        "draining head: {head}"
    );
    // The scrape endpoint stays up through the drain.
    let (head, body) = get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "metrics head: {head}");
    parse_scrape(&body).expect("scrape parses while draining");

    server.shutdown();
    cluster.join();
}
