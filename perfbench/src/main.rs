//! The ASV benchmark: end-to-end metrics of three workloads, and a traced
//! run that splits them by layer.  See `NOTES.md` beside this package for
//! the workloads, the metrics and the noise each design choice removes.
//!
//! ```text
//! asv-perfbench --workload <ism_qhd|dnn_qhd|serve_loopback> --seed <n>
//!               --seconds <s> --trace <0|1> [--check-exclusive]
//! ```
//!
//! The last stdout line is the result object; the line before it holds the
//! run metadata; a human-readable summary goes to stderr.
//! `--check-exclusive` (used with the sequential build) runs only the
//! exclusive-time sum check and prints its residual.

mod clip;
mod inproc;
mod report;
mod serve;
mod spans;

use asv::trace::Stage;
use asv_mem::alloc_count::CountingAllocator;
use clip::Clip;
use report::{median, quantile, ratio, JsonObject, Metric};
use spans::LayerTotals;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

/// The whole run, set-up and builds excluded, must end within this; a hang
/// is reported as a failure instead of running into the caller's timeout.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Residual the exclusive stage times plus untraced time may leave against
/// step wall time in the sequential build, percent.
const EXCLUSIVE_TOLERANCE_PCT: f64 = 3.0;

/// Frames per shot and propagation window of the ISM workloads.
const PW: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    IsmQhd,
    DnnQhd,
    ServeLoopback,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "ism_qhd" => Ok(Self::IsmQhd),
            "dnn_qhd" => Ok(Self::DnnQhd),
            "serve_loopback" => Ok(Self::ServeLoopback),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::IsmQhd => "ism_qhd",
            Self::DnnQhd => "dnn_qhd",
            Self::ServeLoopback => "serve_loopback",
        }
    }

    fn shape(self) -> Shape {
        let (width, height, shots, pw, setup_reps) = match self {
            Self::IsmQhd => (960, 540, 6, PW, 3),
            Self::DnnQhd => (960, 540, 6, 1, 11),
            Self::ServeLoopback => (160, 120, 8, PW, 11),
        };
        Shape {
            width,
            height,
            shots,
            pw,
            setup_reps,
        }
    }
}

/// A workload's input and schedule.
struct Shape {
    width: usize,
    height: usize,
    /// Scenes in the clip, `PW` frames each.
    shots: usize,
    /// Propagation window.
    pw: usize,
    /// Set-up repetitions; `setup_s` is their median.
    setup_reps: usize,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_exclusive: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut check_exclusive = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--check-exclusive" {
            check_exclusive = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds {seconds} is not a duration"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        check_exclusive,
    })
}

fn features() -> &'static str {
    if cfg!(feature = "parallel") {
        "parallel"
    } else {
        "sequential"
    }
}

/// The per-layer metrics of the frame path, from an in-process run's span
/// totals (zero for stages the workload never runs).
fn frame_path_metrics(inproc: &inproc::Report) -> Vec<Metric> {
    let l = &inproc.layers;
    let key_ms = spans::per_frame_ms(l.key_wall_ns, l.key_frames);
    let nonkey_ms = spans::per_frame_ms(l.nonkey_wall_ns, l.nonkey_frames);
    vec![
        Metric::new(
            "image.pyramid_build_ms",
            l.stage_ms(Stage::PyramidBuild),
            "ms",
        ),
        Metric::new("flow.left_ms", l.stage_ms(Stage::FlowLeft), "ms"),
        Metric::new("flow.right_ms", l.stage_ms(Stage::FlowRight), "ms"),
        Metric::new(
            "flow.critical_path_ms",
            spans::per_frame_ms(l.flow_union_ns, l.nonkey_frames),
            "ms",
        ),
        Metric::new("asv.propagate_ms", l.stage_ms(Stage::Propagate), "ms"),
        Metric::new("stereo.refine_ms", l.stage_ms(Stage::Refine), "ms"),
        Metric::new("asv.nonkey_ms", nonkey_ms, "ms"),
        Metric::new("asv.nonkey_key_ratio", ratio(nonkey_ms, key_ms), "ratio"),
        Metric::new("stereo.cost_fill_ms", l.stage_ms(Stage::CostFill), "ms"),
        Metric::new(
            "stereo.sgm_aggregate_ms",
            l.stage_ms(Stage::SgmAggregate),
            "ms",
        ),
        Metric::new("dnn.infer_self_ms", l.stage_ms(Stage::DnnInfer), "ms"),
        Metric::new("asv.key_ms", key_ms, "ms"),
        Metric::new(
            "asv.untraced_ms",
            spans::per_frame_ms(l.untraced_ns, l.frames()),
            "ms",
        ),
        Metric::new(
            "asv.cpu_per_wall",
            ratio(inproc.cpu_s, inproc.busy_s),
            "ratio",
        ),
        Metric::new(
            "mem.allocs_per_frame",
            ratio(inproc.allocs as f64, inproc.frames as f64),
            "count",
        ),
        Metric::new(
            "mem.workspace_bytes",
            inproc.workspace_bytes as f64,
            "bytes",
        ),
    ]
}

/// Mean `wire::encode_frame_into` and `validate_message` + `fill_planes`
/// time per frame over one pass of the clip, milliseconds; every decoded
/// plane must equal the encoded one.
fn wire_metrics(clip: &Clip) -> Result<Vec<Metric>, String> {
    use asv_runtime::wire;
    let mut buf = Vec::new();
    let mut left = asv_image::Image::zeros(clip.width, clip.height);
    let mut right = asv_image::Image::zeros(clip.width, clip.height);
    let (mut encode, mut decode) = (Duration::ZERO, Duration::ZERO);
    for (seq, frame) in clip.frames.iter().enumerate() {
        let started = Instant::now();
        wire::encode_frame_into(&mut buf, "camera-0", seq as u64, &frame.left, &frame.right)
            .map_err(|e| format!("wire encode: {e}"))?;
        encode += started.elapsed();
        let started = Instant::now();
        match wire::validate_message(&buf, wire::MAX_MESSAGE_BYTES) {
            Ok(wire::Message::Frame(decoded)) => decoded
                .fill_planes(&mut left, &mut right)
                .map_err(|e| format!("wire decode: {e}"))?,
            Ok(_) => return Err("wire decode: not a frame message".to_owned()),
            Err(e) => return Err(format!("wire decode: {e}")),
        }
        decode += started.elapsed();
        if left != frame.left || right != frame.right {
            return Err(format!("wire round trip changed frame {seq}"));
        }
    }
    let n = clip.len() as f64;
    Ok(vec![
        Metric::new("wire.encode_ms", encode.as_secs_f64() * 1e3 / n, "ms"),
        Metric::new("wire.decode_ms", decode.as_secs_f64() * 1e3 / n, "ms"),
    ])
}

/// The `accel` model of one non-key frame beside the measured stages.
fn model_beside_measurement(clip: &Clip, layers: &LayerTotals) -> JsonObject {
    use asv_accel::ism::{nonkey_frame_ops, nonkey_frame_report, NonKeyFrameConfig};
    use asv_flow::farneback::farneback_op_breakdown;
    use asv_stereo::block_matching::refine_op_count;

    let model = NonKeyFrameConfig::with_resolution(clip.width, clip.height);
    let pipeline = inproc::pipeline(clip.width, clip.height, PW);
    let executed_cfg = pipeline.config();
    let executed = NonKeyFrameConfig {
        flow_downscale: 1,
        flow: executed_cfg.flow,
        refine: executed_cfg.refine,
        ..model
    };
    let flow_ops = |cfg: &NonKeyFrameConfig| {
        let s = cfg.flow_downscale.max(1);
        2 * farneback_op_breakdown(cfg.width / s, cfg.height / s, &cfg.flow).total()
    };
    let refine_ops = |cfg: &NonKeyFrameConfig| refine_op_count(cfg.width, cfg.height, &cfg.refine);
    let accel_ms =
        nonkey_frame_report(&asv_accel::SystolicAccelerator::asv_default(), &model).seconds * 1e3;
    let flow_cpu_ms = layers.stage_ms(Stage::FlowLeft)
        + layers.stage_ms(Stage::FlowRight)
        + layers.stage_ms(Stage::PyramidBuild);
    let refine_ms = layers.stage_ms(Stage::Refine);
    let nonkey_ms = spans::per_frame_ms(layers.nonkey_wall_ns, layers.nonkey_frames);
    let key_ms = spans::per_frame_ms(layers.key_wall_ns, layers.key_frames);
    let (mf, ef) = (flow_ops(&model), flow_ops(&executed));
    let (mr, er) = (refine_ops(&model), refine_ops(&executed));
    eprintln!(
        "model beside measurement, one non-key frame at {}x{}:",
        clip.width, clip.height
    );
    eprintln!(
        "  {:<8} {:>16} {:>18} {:>14} {:>12}",
        "stage", "model ops", "ops as executed", "measured ms", "ns/op exec"
    );
    for (name, m, e, ms) in [("flow", mf, ef, flow_cpu_ms), ("refine", mr, er, refine_ms)] {
        eprintln!(
            "  {name:<8} {m:>16} {e:>18} {ms:>14.3} {:>12.4}",
            ratio(ms * 1e6, e as f64)
        );
    }
    eprintln!(
        "  model total {} ops, {accel_ms:.3} ms on the ASV systolic array; \
         measured non-key {nonkey_ms:.3} ms, non-key/key {:.3}",
        nonkey_frame_ops(&model).total_ops(),
        ratio(nonkey_ms, key_ms)
    );
    eprintln!(
        "  MISMATCH: NonKeyFrameConfig assumes flow_downscale {} with {} pyramid levels x {} \
         iterations; IsmConfig runs Farneback at full resolution with {} levels x {} iterations \
         ({:.1}x the model's flow operations)",
        model.flow_downscale,
        model.flow.pyramid_levels,
        model.flow.iterations,
        executed.flow.pyramid_levels,
        executed.flow.iterations,
        ratio(ef as f64, mf as f64)
    );
    JsonObject::default()
        .num("model_flow_downscale", model.flow_downscale as f64)
        .num("executed_flow_downscale", 1.0)
        .num("model_flow_ops", mf as f64)
        .num("executed_flow_ops", ef as f64)
        .num("model_refine_ops", mr as f64)
        .num("executed_refine_ops", er as f64)
        .num("model_nonkey_accel_ms", accel_ms)
        .num("measured_flow_cpu_ms", flow_cpu_ms)
        .num("measured_refine_ms", refine_ms)
        .num("measured_nonkey_key_ratio", ratio(nonkey_ms, key_ms))
}

/// What a workload run prints.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    meta: JsonObject,
}

fn end_to_end(
    fps: f64,
    latencies_ms: &[f64],
    cpu_ms_per_frame: f64,
    accuracy: (f64, f64),
    setup_s: &[f64],
) -> Vec<Metric> {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    vec![
        Metric::new("fps", fps, "1/s"),
        Metric::new("latency_ms_p50", quantile(&sorted, 0.5), "ms"),
        Metric::new("latency_ms_p90", quantile(&sorted, 0.9), "ms"),
        Metric::new("cpu_ms_per_frame", cpu_ms_per_frame, "ms"),
        Metric::new("bad3_pct", accuracy.0, "%"),
        Metric::new("mae_px", accuracy.1, "px"),
        Metric::new("setup_s", median(setup_s), "s"),
    ]
}

fn run_in_process(args: &Args, clip: &Clip) -> Result<Outcome, String> {
    let shape = args.workload.shape();
    let report = inproc::run(
        clip,
        inproc::Options {
            pw: shape.pw,
            setup_reps: shape.setup_reps,
            seconds: args.seconds,
            traced: args.trace,
        },
    )?;
    let frames = report.frames as f64;
    let mut metrics = if args.trace {
        let mut m = frame_path_metrics(&report);
        m.extend(wire_metrics(clip)?);
        m.extend(serving_layer_metrics(None, 0.0));
        m.push(Metric::new(
            "trace.overhead_pct",
            ratio(report.span_reading.as_secs_f64(), report.busy_s) * 100.0,
            "%",
        ));
        m
    } else {
        end_to_end(
            frames / report.busy_s,
            &report.latencies_ms,
            report.cpu_s * 1e3 / frames,
            report.checker.accuracy(),
            &report.setup_s,
        )
    };
    let samples = report.latencies_ms.len() as f64;
    if args.trace {
        metrics.push(Metric::new("run.latency_samples", samples, "count"));
    }
    let mut meta = JsonObject::default()
        .num("frames", frames)
        .num("latency_samples", samples)
        .num("key_frames_traced", report.layers.key_frames as f64)
        .num("nonkey_frames_traced", report.layers.nonkey_frames as f64)
        .num("span_orphans", report.layers.orphans as f64)
        .num("client_threads", 1.0)
        .num("connections", 0.0);
    if report.layers.nonkey_frames > 0 {
        meta = meta.obj("model", model_beside_measurement(clip, &report.layers));
    }
    Ok(Outcome {
        metrics,
        attempted: report.frames,
        failed: 0,
        meta,
    })
}

/// The serving-layer metrics; zero on the in-process workloads, which have
/// no serving path.
fn serving_layer_metrics(serve: Option<&serve::Report>, overhead_ratio: f64) -> Vec<Metric> {
    let d = serve::Report::default();
    let s = serve.unwrap_or(&d);
    vec![
        Metric::new("supervisor.deliver_ms", s.deliver_ms, "ms"),
        Metric::new("scheduler.queue_wait_ms_p50", s.queue_wait_ms_p50, "ms"),
        Metric::new("scheduler.service_ms_p50", s.service_ms_p50, "ms"),
        Metric::new("scheduler.peak_queue_depth", s.peak_queue_depth, "count"),
        Metric::new("serve.overhead_ratio", overhead_ratio, "ratio"),
        Metric::new("net.transport_errors", s.transport_errors as f64, "count"),
        Metric::new("scheduler.frames_shed", s.frames_shed as f64, "count"),
    ]
}

fn run_serve(args: &Args, clip: &Clip) -> Result<Outcome, String> {
    let shape = args.workload.shape();
    let cameras = 2.min(report::nproc());
    // The in-process pass over the same frames: the byte-identity
    // reference for every served map and, in the traced run, the baseline
    // without the serving path.
    let baseline = inproc::run(
        clip,
        inproc::Options {
            pw: shape.pw,
            setup_reps: 1,
            seconds: if args.trace { args.seconds / 4.0 } else { 0.0 },
            traced: args.trace,
        },
    )?;
    let served = serve::run(
        clip,
        &baseline.checker,
        serve::Options {
            pw: shape.pw,
            cameras,
            setup_reps: shape.setup_reps,
            seconds: if args.trace {
                args.seconds * 3.0 / 4.0
            } else {
                args.seconds
            },
            traced: args.trace,
        },
    )?;
    let frames = served.frames as f64;
    let cpu_ms_per_frame = served.cpu_s * 1e3 / frames;
    let mut metrics = if args.trace {
        let baseline_cpu_ms = baseline.cpu_s * 1e3 / baseline.frames as f64;
        let mut m = frame_path_metrics(&baseline);
        m.extend(wire_metrics(clip)?);
        m.extend(serving_layer_metrics(
            Some(&served),
            ratio(cpu_ms_per_frame, baseline_cpu_ms),
        ));
        m.push(Metric::new(
            "trace.overhead_pct",
            ratio(
                served.traced_send_ms - served.untraced_send_ms,
                served.untraced_send_ms,
            ) * 100.0,
            "%",
        ));
        m
    } else {
        end_to_end(
            frames / served.wall_s,
            &served.latencies_ms,
            cpu_ms_per_frame,
            baseline.checker.accuracy(),
            &served.setup_s,
        )
    };
    let samples = served.latencies_ms.len() as f64;
    if args.trace {
        metrics.push(Metric::new("run.latency_samples", samples, "count"));
    }
    let mut meta = JsonObject::default()
        .num("frames", frames)
        .num("latency_samples", samples)
        .num("cameras", cameras as f64)
        .num("client_threads", cameras as f64)
        .num("connections", cameras as f64)
        .num("shards", 1.0)
        .num("transport_errors", served.transport_errors as f64)
        .num("frames_shed", served.frames_shed as f64)
        .num("frames_dropped", served.frames_dropped as f64);
    if baseline.layers.nonkey_frames > 0 {
        meta = meta.obj("model", model_beside_measurement(clip, &baseline.layers));
    }
    Ok(Outcome {
        metrics,
        attempted: served.attempted,
        failed: served.failed(),
        meta,
    })
}

/// The sequential build's sum check: exclusive stage times plus the
/// untraced remainder against step wall time, over the frames after the
/// set-up window.
fn check_exclusive(args: &Args, clip: &Clip) -> Result<(), String> {
    let report = inproc::run(
        clip,
        inproc::Options {
            pw: args.workload.shape().pw,
            setup_reps: 1,
            seconds: 0.0,
            traced: true,
        },
    )?;
    let l = &report.layers;
    let residual = l.exclusive_residual_pct();
    println!(
        "{}",
        JsonObject::default()
            .num("exclusive_residual_pct", residual.abs())
            .num("frames", l.frames() as f64)
            .num("span_orphans", l.orphans as f64)
            .str("features", features())
    );
    eprintln!(
        "exclusive-time check ({}): stages + untraced = {:.3}% off step wall time over {} frames",
        features(),
        residual,
        l.frames()
    );
    if l.orphans > 0 || residual.abs() > EXCLUSIVE_TOLERANCE_PCT {
        return Err(format!(
            "exclusive-time check failed: residual {residual:.3}% (limit \
             {EXCLUSIVE_TOLERANCE_PCT}%), {} orphan spans",
            l.orphans
        ));
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("asv-perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("asv-perfbench: no result within {WATCHDOG:?}");
        std::process::exit(3);
    });
    let shape = args.workload.shape();
    // The sum check needs one measured window after set-up, not a cycle.
    let shots = if args.check_exclusive { 2 } else { shape.shots };
    let clip = match Clip::generate(shape.width, shape.height, shots, PW, args.seed) {
        Ok(clip) => clip,
        Err(e) => {
            eprintln!(
                "asv-perfbench: {}: input rejected: {e}",
                args.workload.name()
            );
            std::process::exit(1);
        }
    };
    if args.check_exclusive {
        if let Err(e) = check_exclusive(&args, &clip) {
            eprintln!("asv-perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let outcome = match args.workload {
        Workload::IsmQhd | Workload::DnnQhd => run_in_process(&args, &clip),
        Workload::ServeLoopback => run_serve(&args, &clip),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("asv-perfbench: {}: {e}", args.workload.name());
            println!("{}", report::result_line(false, 1, 1, &[]));
            std::process::exit(1);
        }
    };
    let failed_pct = ratio(outcome.failed as f64, outcome.attempted as f64) * 100.0;
    let meta = JsonObject::default()
        .str("workload", args.workload.name())
        .num("seed", args.seed as f64)
        .num("seconds", args.seconds)
        .num("trace", f64::from(u8::from(args.trace)))
        .num("nproc", report::nproc() as f64)
        .str("simd", asv_stereo::active_level().name())
        .str("features", features())
        .num("width", shape.width as f64)
        .num("height", shape.height as f64)
        .num("clip_frames", clip.len() as f64)
        .num("clip_max_truth_px", f64::from(clip.max_truth))
        .num("failed_pct", failed_pct)
        .obj("run", outcome.meta);
    eprintln!("{} seed {}:", args.workload.name(), args.seed);
    for m in &outcome.metrics {
        eprintln!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!("  {:<30} {:>16.6} %", "failed_pct", failed_pct);
    println!("{}", JsonObject::default().obj("meta", meta));
    let correct = outcome.failed == 0;
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
