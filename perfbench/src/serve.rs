//! `serve_loopback`: every camera has its own `FrameClient`, TCP
//! connection and client thread, and streams the clip over 127.0.0.1 to
//! `FrameServer` → `SequenceGate` → `Supervisor` → `Cluster` (one shard,
//! `SchedulerConfig::default()`).  The loop is closed: `FrameClient::send`
//! blocks while the default in-flight window is full, and the scheduler's
//! lossless `Block` policy carries backpressure back to the socket.

use crate::clip::Clip;
use crate::inproc::{self, Checker};
use crate::report;
use asv::AsvError;
use asv_image::Image;
use asv_runtime::{
    ClientConfig, Cluster, ClusterConfig, FrameClient, FrameServer, FrameSink, NetConfig,
    Supervisor,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long set-up and draining may take before the run fails.
const PHASE_TIMEOUT: Duration = Duration::from_secs(60);

/// How to drive the cameras.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub pw: usize,
    /// Cameras, each with its own connection and client thread.
    pub cameras: usize,
    /// Systems built and served one window per camera; the last continues
    /// into the measurement.
    pub setup_reps: usize,
    /// Minimum measured time; each camera stops on the first window
    /// boundary after it.
    pub seconds: f64,
    /// Wrap the supervisor in the timing sink (the traced run).
    pub traced: bool,
}

/// What one serving run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub setup_s: Vec<f64>,
    /// How long each measured `FrameClient::send` blocked, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Frames sent, and processed, in the measured phase.
    pub frames: u64,
    /// From the start of the measured phase until every sent frame was
    /// processed, so draining counts.
    pub wall_s: f64,
    /// Process CPU time over the same span.
    pub cpu_s: f64,
    /// Frames sent by the final repetition, set-up window included.
    pub attempted: u64,
    pub transport_errors: u64,
    pub frames_shed: u64,
    pub frames_dropped: u64,
    pub queue_wait_ms_p50: f64,
    pub service_ms_p50: f64,
    pub peak_queue_depth: f64,
    /// Mean `Supervisor` delivery time per frame (traced run only).
    pub deliver_ms: f64,
    /// Mean blocking time of the sends made while the timing sink was on,
    /// and while it was off (traced run only).
    pub traced_send_ms: f64,
    pub untraced_send_ms: f64,
}

impl Report {
    pub fn failed(&self) -> u64 {
        self.transport_errors + self.frames_shed + self.frames_dropped
    }
}

/// A `FrameSink` that times each delivery into the `Supervisor`.  Client 0
/// switches the timing off and on at its window boundaries, so the traced
/// run also measures sends without the benchmark's spans.
struct TimingSink {
    inner: Arc<Supervisor>,
    enabled: AtomicBool,
    deliver_ns: AtomicU64,
    delivers: AtomicU64,
}

impl FrameSink for TimingSink {
    fn deliver(&self, key: &str, seq: u64, left: Image, right: Image) -> Result<(), AsvError> {
        if !self.enabled.load(Ordering::Relaxed) {
            return self.inner.deliver(key, seq, left, right);
        }
        let started = Instant::now();
        let result = self.inner.deliver(key, seq, left, right);
        self.deliver_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.delivers.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn recycled_frame(&self, key: &str, width: usize, height: usize) -> Image {
        self.inner.recycled_frame(key, width, height)
    }
}

enum Command {
    Measure { deadline: Instant },
    Stop,
}

/// One camera's measured sends.
#[derive(Default)]
struct ClientStats {
    sent: u64,
    /// (blocking time in ms, whether the timing sink was on)
    sends: Vec<(f64, bool)>,
}

fn camera_key(camera: usize) -> String {
    format!("camera-{camera}")
}

/// One camera: connect, send the set-up window, then stream whole windows
/// until the deadline.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    camera: usize,
    addr: std::net::SocketAddr,
    clip: &Clip,
    pw: usize,
    counters: Arc<asv_runtime::TransportCounters>,
    ready: mpsc::Sender<Result<(), String>>,
    commands: mpsc::Receiver<Command>,
    timing: Option<&TimingSink>,
) -> Result<ClientStats, String> {
    let key = camera_key(camera);
    let setup = FrameClient::connect(addr, ClientConfig::default())
        .map(|client| client.with_counters(counters))
        .and_then(|mut client| {
            for frame in &clip.frames[..pw] {
                client.send(&key, &frame.left, &frame.right)?;
            }
            client.flush()?;
            Ok(client)
        })
        .map_err(|e| format!("{key}: set-up failed: {e}"));
    let _ = ready.send(setup.as_ref().map(|_| ()).map_err(Clone::clone));
    let mut client = setup?;
    let deadline = match commands.recv() {
        Ok(Command::Measure { deadline }) => deadline,
        Ok(Command::Stop) | Err(_) => return Ok(ClientStats::default()),
    };
    let mut stats = ClientStats {
        sent: 0,
        sends: Vec::with_capacity(16_384),
    };
    let mut next = pw % clip.len();
    loop {
        for _ in 0..pw {
            let frame = &clip.frames[next];
            let traced = timing.is_some_and(|t| t.enabled.load(Ordering::Relaxed));
            let started = Instant::now();
            client
                .send(&key, &frame.left, &frame.right)
                .map_err(|e| format!("{key}: send failed: {e}"))?;
            stats
                .sends
                .push((started.elapsed().as_secs_f64() * 1e3, traced));
            stats.sent += 1;
            next = (next + 1) % clip.len();
        }
        if let (0, Some(t)) = (camera, timing) {
            t.enabled.fetch_xor(true, Ordering::Relaxed);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    client
        .flush()
        .map_err(|e| format!("{key}: flush failed: {e}"))?;
    Ok(stats)
}

/// Waits until the cluster has processed `frames` frames.
fn wait_processed(cluster: &Cluster, frames: u64) -> Result<(), String> {
    let started = Instant::now();
    loop {
        let processed = cluster.merged_telemetry().frames_processed;
        if processed >= frames {
            return Ok(());
        }
        if started.elapsed() > PHASE_TIMEOUT {
            return Err(format!(
                "cluster processed {processed} of {frames} frames within {PHASE_TIMEOUT:?}"
            ));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// Builds the serving system, brings every camera through one window and,
/// when `measure`, runs the measured phase; then tears the system down and
/// checks every served map against `reference`.
fn serve_once(
    clip: &Clip,
    reference: &Checker,
    opts: Options,
    measure: bool,
) -> Result<(f64, Report), String> {
    let pw = opts.pw;
    let started = Instant::now();
    let pipeline = inproc::pipeline(clip.width, clip.height, pw);
    let cluster = Arc::new(Cluster::new(ClusterConfig::new(1)));
    let supervisor = Arc::new(Supervisor::new(Arc::clone(&cluster), move |_| {
        pipeline.state()
    }));
    let timing = Arc::new(TimingSink {
        inner: Arc::clone(&supervisor),
        enabled: AtomicBool::new(true),
        deliver_ns: AtomicU64::new(0),
        delivers: AtomicU64::new(0),
    });
    let sink: Arc<dyn FrameSink> = if opts.traced {
        Arc::clone(&timing) as Arc<dyn FrameSink>
    } else {
        Arc::clone(&supervisor) as Arc<dyn FrameSink>
    };
    let server = FrameServer::serve(
        "127.0.0.1:0",
        sink,
        cluster.transport_counters(),
        NetConfig::default(),
    )
    .map_err(|e| format!("cannot bind the frame server: {e}"))?;
    let addr = server.local_addr();
    let timing_ref = opts.traced.then_some(&*timing);

    let mut out = Report::default();
    let mut setup_s = 0.0;
    let clients: Result<Vec<ClientStats>, String> = std::thread::scope(|scope| {
        let (ready_tx, ready_rx) = mpsc::channel();
        let mut command_txs = Vec::with_capacity(opts.cameras);
        let mut handles = Vec::with_capacity(opts.cameras);
        for camera in 0..opts.cameras {
            let (command_tx, command_rx) = mpsc::channel();
            command_txs.push(command_tx);
            let ready = ready_tx.clone();
            let counters = cluster.transport_counters();
            handles.push(scope.spawn(move || {
                client_loop(
                    camera, addr, clip, pw, counters, ready, command_rx, timing_ref,
                )
            }));
        }
        let mut outcome = Ok(());
        for _ in 0..opts.cameras {
            match ready_rx.recv_timeout(PHASE_TIMEOUT) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => outcome = outcome.and(Err(e)),
                Err(e) => outcome = outcome.and(Err(format!("camera set-up: {e}"))),
            }
        }
        let window_frames = (opts.cameras * pw) as u64;
        outcome = outcome.and_then(|()| wait_processed(&cluster, window_frames));
        setup_s = started.elapsed().as_secs_f64();
        let measuring = measure && outcome.is_ok();
        let cpu_before = report::process_cpu_seconds()?;
        let measure_started = Instant::now();
        let deadline = measure_started + Duration::from_secs_f64(opts.seconds);
        for tx in &command_txs {
            let command = if measuring {
                Command::Measure { deadline }
            } else {
                Command::Stop
            };
            let _ = tx.send(command);
        }
        let mut stats = Vec::with_capacity(handles.len());
        for handle in handles {
            match handle.join() {
                Ok(Ok(s)) => stats.push(s),
                Ok(Err(e)) => outcome = outcome.and(Err(e)),
                Err(_) => outcome = outcome.and(Err("a client thread panicked".to_owned())),
            }
        }
        outcome?;
        if measuring {
            let sent: u64 = stats.iter().map(|s| s.sent).sum();
            wait_processed(&cluster, window_frames + sent)?;
            out.wall_s = measure_started.elapsed().as_secs_f64();
            out.cpu_s = report::process_cpu_seconds()? - cpu_before;
            out.frames = sent;
            let telemetry = cluster.merged_telemetry();
            out.queue_wait_ms_p50 = telemetry.queue_wait.p50_us() as f64 / 1e3;
            out.service_ms_p50 = telemetry.service_latency.p50_us() as f64 / 1e3;
            out.peak_queue_depth = telemetry.peak_queue_depth as f64;
        }
        Ok(stats)
    });

    // Tear down in dependency order: server (holds the sink), supervisor
    // (holds the cluster), cluster.
    server.shutdown();
    let timing = Arc::try_unwrap(timing).map_err(|_| "timing sink still shared")?;
    out.deliver_ms = report::ratio(
        timing.deliver_ns.load(Ordering::Relaxed) as f64 / 1e6,
        timing.delivers.load(Ordering::Relaxed) as f64,
    );
    drop(timing);
    let supervisor = Arc::try_unwrap(supervisor).map_err(|_| "supervisor still shared")?;
    supervisor.finish();
    let cluster = Arc::try_unwrap(cluster).map_err(|_| "cluster still shared")?;
    let transport = cluster.transport_counters();
    let final_report = cluster.join();
    let clients = clients?;

    out.transport_errors = transport.total();
    out.frames_shed = final_report.aggregate.frames_shed;
    out.frames_dropped = final_report.aggregate.frames_dropped;
    for (camera, stats) in clients.iter().enumerate() {
        let key = camera_key(camera);
        let session = final_report
            .session_by_key(&key)
            .ok_or_else(|| format!("{key}: no session in the cluster report"))?;
        let sent = pw as u64 + stats.sent;
        out.attempted += sent;
        if let Some(error) = &session.error {
            return Err(format!("{key}: session failed: {error}"));
        }
        if session.frames.len() as u64 != sent {
            return Err(format!(
                "{key}: {} frames completed, {sent} sent",
                session.frames.len()
            ));
        }
        for (i, frame) in session.frames.iter().enumerate() {
            reference
                .verify(i % clip.len(), &frame.disparity)
                .map_err(|e| format!("{key} served frame {i}: {e}"))?;
        }
        out.latencies_ms
            .extend(stats.sends.iter().map(|&(ms, _)| ms));
    }
    let mean_send = |want: bool| {
        let (sum, n) = clients
            .iter()
            .flat_map(|s| &s.sends)
            .filter(|(_, traced)| *traced == want)
            .fold((0.0, 0u64), |(sum, n), (ms, _)| (sum + ms, n + 1));
        report::ratio(sum, n as f64)
    };
    if opts.traced {
        out.traced_send_ms = mean_send(true);
        out.untraced_send_ms = mean_send(false);
    }
    Ok((setup_s, out))
}

/// Runs `opts.setup_reps` systems through set-up, the last one through
/// the measurement.
///
/// # Errors
///
/// Any transport, delivery or session failure, a completed-frame count
/// that differs from the sent count, or a served map that differs from the
/// in-process reference.
pub fn run(clip: &Clip, reference: &Checker, opts: Options) -> Result<Report, String> {
    if !reference.complete() {
        return Err("the in-process reference does not cover the clip".to_owned());
    }
    let mut setup_s = Vec::with_capacity(opts.setup_reps.max(1));
    for _ in 1..opts.setup_reps {
        setup_s.push(serve_once(clip, reference, opts, false)?.0);
    }
    let (setup, report) = serve_once(clip, reference, opts, true)?;
    setup_s.push(setup);
    Ok(Report { setup_s, ..report })
}
