//! One camera driven in-process through `IsmState::step_with`, with a warm
//! `Workspace` and recycled result maps: the `ism_qhd` and `dnn_qhd`
//! workloads, the in-process baseline of `serve_loopback`, and the
//! exclusive-time check.

use crate::clip::{Clip, MAX_DISPARITY};
use crate::report::process_cpu_seconds;
use crate::spans::{self, LayerTotals};
use asv::ism::{FrameKind, IsmConfig, IsmPipeline, IsmState};
use asv::Workspace;
use asv_dnn::{zoo, CostMetric, SurrogateParams, SurrogateStereoDnn};
use asv_mem::alloc_count;
use asv_stereo::block_matching::BlockMatchParams;
use asv_stereo::DisparityMap;
use std::time::{Duration, Instant};

/// Refinement search radius around the propagated disparity (the
/// `tab_perf` census setting).
pub const REFINE_RADIUS: usize = 3;

/// The pipeline every workload runs: census key frames, D=32, refine
/// radius 3, static key frames every `pw` frames.
pub fn pipeline(width: usize, height: usize, pw: usize) -> IsmPipeline {
    let config = IsmConfig {
        propagation_window: pw,
        refine: BlockMatchParams {
            max_disparity: MAX_DISPARITY,
            refine_radius: REFINE_RADIUS,
            ..Default::default()
        },
        surrogate: SurrogateParams {
            max_disparity: MAX_DISPARITY,
            occlusion_handling: true,
            metric: CostMetric::Census,
        },
        ..Default::default()
    };
    IsmPipeline::new(
        config,
        SurrogateStereoDnn::new(zoo::dispnet(height, width), config.surrogate),
    )
}

/// FNV-1a over the map's f32 bit patterns: equal hashes stand for
/// byte-identical maps.
pub fn map_hash(map: &DisparityMap) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in map.as_image().as_slice() {
        h ^= u64::from(v.to_bits());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Output check per clip frame: the first output seen for a frame sets its
/// hash and its accuracy against ground truth; every later output of that
/// frame must be byte-identical.
#[derive(Debug)]
pub struct Checker {
    hashes: Vec<Option<u64>>,
    bad3: Vec<f64>,
    mae: Vec<f64>,
}

impl Checker {
    pub fn new(frames: usize) -> Self {
        Self {
            hashes: vec![None; frames],
            bad3: vec![0.0; frames],
            mae: vec![0.0; frames],
        }
    }

    /// Records or verifies the output for clip frame `index`.
    pub fn observe(&mut self, clip: &Clip, index: usize, map: &DisparityMap) -> Result<(), String> {
        match self.hashes[index] {
            Some(_) => self.verify(index, map),
            None => {
                let truth = &clip.frames[index].truth;
                self.bad3[index] = map.three_pixel_error(truth).map_err(|e| e.to_string())? * 100.0;
                self.mae[index] = map.mean_abs_error(truth).map_err(|e| e.to_string())?;
                self.hashes[index] = Some(map_hash(map));
                Ok(())
            }
        }
    }

    /// Checks an output against the recorded one for clip frame `index`.
    pub fn verify(&self, index: usize, map: &DisparityMap) -> Result<(), String> {
        match self.hashes[index] {
            Some(want) if want == map_hash(map) => Ok(()),
            Some(_) => Err(format!(
                "clip frame {index}: output differs from the reference output"
            )),
            None => Err(format!("clip frame {index}: no reference output")),
        }
    }

    /// Whether every clip frame has a recorded output.
    pub fn complete(&self) -> bool {
        self.hashes.iter().all(Option::is_some)
    }

    /// Mean three-pixel error (percent) and mean absolute error (pixels)
    /// over the clip's frames.  Every cycle of the clip reproduces the same
    /// outputs, so this is the accuracy of every measured frame.
    pub fn accuracy(&self) -> (f64, f64) {
        let n = self.hashes.len().max(1) as f64;
        (
            self.bad3.iter().sum::<f64>() / n,
            self.mae.iter().sum::<f64>() / n,
        )
    }
}

/// How to drive the stream.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Propagation window (frames per key frame).
    pub pw: usize,
    /// Fresh systems built and run through their first window; the last
    /// one continues into the measurement.
    pub setup_reps: usize,
    /// Minimum measured time; the measurement ends on the first window
    /// boundary after it, once every clip frame has been checked.
    pub seconds: f64,
    /// Read the frame path's spans after every measured frame.
    pub traced: bool,
}

/// What one in-process run measured.
#[derive(Debug)]
pub struct Report {
    pub setup_s: Vec<f64>,
    /// Step wall time of every measured frame, milliseconds.
    pub latencies_ms: Vec<f64>,
    pub frames: u64,
    /// Measured wall time less the benchmark's own output checks.
    pub busy_s: f64,
    /// Process CPU time over the same span.
    pub cpu_s: f64,
    pub checker: Checker,
    pub layers: LayerTotals,
    /// Heap allocations inside `step_with` over the measured frames.
    pub allocs: u64,
    pub workspace_bytes: usize,
    /// Time spent reading and splitting spans: all the traced run adds to
    /// the measured loop.
    pub span_reading: Duration,
}

/// One camera stream: its state, workspace and position in the clip.
struct Stream<'a> {
    clip: &'a Clip,
    state: IsmState,
    ws: Workspace,
    next: usize,
    /// Time spent in the benchmark's output checks.
    check_time: Duration,
}

/// One stepped frame.
struct Stepped {
    key_frame: bool,
    wall: Duration,
    allocs: u64,
}

impl<'a> Stream<'a> {
    fn new(clip: &'a Clip, pw: usize) -> Self {
        Self {
            clip,
            state: pipeline(clip.width, clip.height, pw).state(),
            ws: Workspace::new(),
            next: 0,
            check_time: Duration::ZERO,
        }
    }

    /// Steps the next clip frame and checks its output.
    fn step(&mut self, checker: &mut Checker) -> Result<Stepped, String> {
        let index = self.next;
        self.next = (self.next + 1) % self.clip.len();
        let frame = &self.clip.frames[index];
        let allocs_before = alloc_count::allocations();
        let started = Instant::now();
        let result = self
            .state
            .step_with(&mut self.ws, &frame.left, &frame.right);
        let wall = started.elapsed();
        let allocs = alloc_count::allocations() - allocs_before;
        let result = result.map_err(|e| format!("clip frame {index}: step failed: {e}"))?;
        let check_started = Instant::now();
        let checked = checker.observe(self.clip, index, &result.disparity);
        self.ws.recycle(result.disparity);
        self.check_time += check_started.elapsed();
        checked?;
        Ok(Stepped {
            key_frame: result.kind == FrameKind::KeyFrame,
            wall,
            allocs,
        })
    }
}

/// Runs the set-up repetitions and the measurement.
///
/// # Errors
///
/// Any failed step or output that differs from its first occurrence.
pub fn run(clip: &Clip, opts: Options) -> Result<Report, String> {
    let mut checker = Checker::new(clip.len());
    let pw = opts.pw.max(1);
    if !clip.len().is_multiple_of(pw) {
        return Err(format!(
            "clip of {} frames does not end on a key-frame boundary (PW={pw})",
            clip.len()
        ));
    }
    // Set-up: construct the system and run one full propagation window.
    let mut setup_s = Vec::with_capacity(opts.setup_reps);
    let mut stream = None;
    for _ in 0..opts.setup_reps.max(1) {
        let started = Instant::now();
        let mut fresh = Stream::new(clip, pw);
        for _ in 0..pw {
            fresh.step(&mut checker)?;
        }
        setup_s.push((started.elapsed() - fresh.check_time).as_secs_f64());
        fresh.check_time = Duration::ZERO;
        stream = Some(fresh);
    }
    let mut stream = stream.expect("at least one set-up repetition");

    let mut latencies_ms = Vec::with_capacity(4096);
    let mut layers = LayerTotals::default();
    let mut allocs = 0u64;
    let mut frames = 0u64;
    let mut span_reading = Duration::ZERO;
    let cpu_before = process_cpu_seconds()?;
    let started = Instant::now();
    loop {
        for _ in 0..pw {
            let stepped = stream.step(&mut checker)?;
            frames += 1;
            allocs += stepped.allocs;
            latencies_ms.push(stepped.wall.as_secs_f64() * 1e3);
            if opts.traced {
                let reading = Instant::now();
                let trace = stream
                    .ws
                    .tracer
                    .last_frame()
                    .ok_or("the frame path recorded no spans (is ASV_TRACE=off?)")?;
                let split = spans::split(trace);
                layers.add(stepped.key_frame, stepped.wall.as_nanos() as u64, &split);
                span_reading += reading.elapsed();
            }
        }
        let busy = started.elapsed() - stream.check_time;
        if busy.as_secs_f64() >= opts.seconds && checker.complete() {
            break;
        }
    }
    let busy = started.elapsed() - stream.check_time;
    // The checks run on this thread alone, so their CPU time is their wall
    // time.
    let cpu = process_cpu_seconds()? - cpu_before - stream.check_time.as_secs_f64();
    Ok(Report {
        setup_s,
        latencies_ms,
        frames,
        busy_s: busy.as_secs_f64(),
        cpu_s: cpu,
        checker,
        layers,
        allocs,
        workspace_bytes: stream.ws.retained_bytes(),
        span_reading,
    })
}
