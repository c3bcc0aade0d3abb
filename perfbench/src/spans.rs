//! Exclusive-time accounting over the span records the frame path keeps
//! (`Workspace::tracer` → `FrameTrace::spans`).
//!
//! The tracer records spans with a start, a duration and a nesting depth,
//! but no parent link.  A span's parent is the span one level up whose
//! interval contains it; when two candidates contain it (the left and right
//! flows run concurrently in the parallel build, each with a pyramid build
//! inside), the one recorded nearest to it wins, and of two equally near the
//! one recorded after it: a flow's kernel timings are harvested right before
//! the flow's own span, while a span opened with `Tracer::enter` (the DNN)
//! precedes the kernels it encloses.  A span's self
//! time is its duration minus the union of its children's intervals, so
//! self times never double-count nesting.
//!
//! Nothing here allocates: the accounting runs inside the traced run's
//! measured loop, whose allocation count is itself a metric.

use asv::trace::{FrameTrace, SpanRecord, Stage, MAX_SPANS_PER_FRAME};

/// Slack when testing whether one span's interval contains another's.
/// Kernel timings and tracer spans read the same monotonic clock, so this
/// only absorbs rounding to whole nanoseconds.
const CONTAIN_SLACK_NS: u64 = 10_000;

/// The exclusive split of one frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameSplit {
    /// Self time per stage, nanoseconds, indexed by [`Stage::index`].
    pub self_ns: [u64; Stage::COUNT],
    /// Duration of the union of the frame's top-level spans.
    pub top_union_ns: u64,
    /// Duration of the union of the left- and right-flow spans: the flow
    /// critical path.
    pub flow_union_ns: u64,
    /// Nested spans no top-level span contains (a tracing defect).
    pub orphans: u64,
}

fn contains(outer: &SpanRecord, inner: &SpanRecord) -> bool {
    outer.start_ns <= inner.start_ns + CONTAIN_SLACK_NS
        && inner.end_ns() <= outer.end_ns() + CONTAIN_SLACK_NS
}

/// Length of the union of `intervals` (sorted in place).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Union length of the spans `keep` selects.
fn union_of(spans: &[SpanRecord], keep: impl Fn(usize, &SpanRecord) -> bool) -> u64 {
    let mut intervals = [(0u64, 0u64); MAX_SPANS_PER_FRAME];
    let mut n = 0;
    for (i, span) in spans.iter().enumerate() {
        if keep(i, span) {
            intervals[n] = (span.start_ns, span.end_ns());
            n += 1;
        }
    }
    union_len(&mut intervals[..n])
}

/// Splits one traced frame into exclusive per-stage times.
pub fn split(trace: &FrameTrace) -> FrameSplit {
    let spans = &trace.spans[..trace.spans.len().min(MAX_SPANS_PER_FRAME)];
    let mut parent = [usize::MAX; MAX_SPANS_PER_FRAME];
    let mut orphans = 0;
    for (c, child) in spans.iter().enumerate() {
        if child.depth <= 1 {
            continue;
        }
        let best = spans
            .iter()
            .enumerate()
            .filter(|(_, p)| p.depth + 1 == child.depth && contains(p, child))
            .min_by_key(|&(p, _)| (p.abs_diff(c), p < c));
        match best {
            Some((p, _)) => parent[c] = p,
            None => orphans += 1,
        }
    }
    let mut self_ns = [0u64; Stage::COUNT];
    for (p, span) in spans.iter().enumerate() {
        let covered = union_of(spans, |c, _| parent[c] == p);
        self_ns[span.stage.index()] += span.dur_ns.saturating_sub(covered);
    }
    FrameSplit {
        self_ns,
        top_union_ns: union_of(spans, |_, s| s.depth <= 1),
        flow_union_ns: union_of(spans, |_, s| {
            matches!(s.stage, Stage::FlowLeft | Stage::FlowRight)
        }),
        orphans,
    }
}

/// Per-layer totals over the traced frames of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub key_frames: u64,
    pub nonkey_frames: u64,
    /// Step wall time (the benchmark's own timer around `step_with`).
    pub key_wall_ns: u64,
    pub nonkey_wall_ns: u64,
    pub self_ns: [u64; Stage::COUNT],
    pub flow_union_ns: u64,
    /// Step wall time outside every top-level span.
    pub untraced_ns: u64,
    pub orphans: u64,
}

impl LayerTotals {
    /// Folds in one traced frame.
    pub fn add(&mut self, key_frame: bool, wall_ns: u64, split: &FrameSplit) {
        if key_frame {
            self.key_frames += 1;
            self.key_wall_ns += wall_ns;
        } else {
            self.nonkey_frames += 1;
            self.nonkey_wall_ns += wall_ns;
        }
        for (acc, ns) in self.self_ns.iter_mut().zip(split.self_ns) {
            *acc += ns;
        }
        self.flow_union_ns += split.flow_union_ns;
        self.untraced_ns += wall_ns.saturating_sub(split.top_union_ns);
        self.orphans += split.orphans;
    }

    pub fn frames(&self) -> u64 {
        self.key_frames + self.nonkey_frames
    }

    pub fn wall_ns(&self) -> u64 {
        self.key_wall_ns + self.nonkey_wall_ns
    }

    /// Mean self time of `stage` per frame of the kind it runs on,
    /// milliseconds (0 when no such frame was traced).
    pub fn stage_ms(&self, stage: Stage) -> f64 {
        let frames = match stage {
            Stage::CostFill | Stage::SgmAggregate | Stage::DnnInfer => self.key_frames,
            _ => self.nonkey_frames,
        };
        per_frame_ms(self.self_ns[stage.index()], frames)
    }

    /// How far the exclusive stage times plus the untraced remainder miss
    /// the step wall time, percent of wall time.  Zero when every span
    /// nests cleanly and no two top-level spans overlap, which holds in the
    /// sequential build.
    pub fn exclusive_residual_pct(&self) -> f64 {
        let exclusive: u64 = self.self_ns.iter().sum::<u64>() + self.untraced_ns;
        let wall = self.wall_ns();
        if wall == 0 {
            return 0.0;
        }
        (exclusive as f64 - wall as f64) / wall as f64 * 100.0
    }
}

/// `total_ns / frames` in milliseconds, 0 for no frames.
pub fn per_frame_ms(total_ns: u64, frames: u64) -> f64 {
    if frames == 0 {
        0.0
    } else {
        total_ns as f64 / frames as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: Stage, start_ns: u64, dur_ns: u64, depth: u8) -> SpanRecord {
        SpanRecord {
            stage,
            start_ns,
            dur_ns,
            depth,
        }
    }

    fn trace(spans: Vec<SpanRecord>) -> FrameTrace {
        FrameTrace {
            spans,
            ..FrameTrace::default()
        }
    }

    #[test]
    fn dnn_self_time_excludes_its_stages() {
        // dnn_infer is entered first; its kernels are harvested after it.
        let t = trace(vec![
            span(Stage::DnnInfer, 0, 100_000_000, 1),
            span(Stage::CostFill, 1_000_000, 20_000_000, 2),
            span(Stage::SgmAggregate, 21_000_000, 70_000_000, 2),
        ]);
        let s = split(&t);
        assert_eq!(s.self_ns[Stage::DnnInfer.index()], 10_000_000);
        assert_eq!(s.self_ns[Stage::CostFill.index()], 20_000_000);
        assert_eq!(s.top_union_ns, 100_000_000);
        assert_eq!(s.orphans, 0);
        let total: u64 = s.self_ns.iter().sum();
        assert_eq!(total, s.top_union_ns);
    }

    #[test]
    fn concurrent_flows_take_their_own_pyramids() {
        // Parallel build: both flows start together; each flow's pyramid is
        // recorded right before the flow span it belongs to.
        let t = trace(vec![
            span(Stage::PyramidBuild, 0, 10_000_000, 2),
            span(Stage::FlowLeft, 0, 400_000_000, 1),
            span(Stage::PyramidBuild, 5_000, 12_000_000, 2),
            span(Stage::FlowRight, 0, 380_000_000, 1),
            span(Stage::Propagate, 400_000_000, 30_000_000, 1),
        ]);
        let s = split(&t);
        assert_eq!(s.self_ns[Stage::FlowLeft.index()], 390_000_000);
        assert_eq!(s.self_ns[Stage::FlowRight.index()], 368_000_000);
        assert_eq!(s.self_ns[Stage::PyramidBuild.index()], 22_000_000);
        assert_eq!(s.flow_union_ns, 400_000_000);
        assert_eq!(s.top_union_ns, 430_000_000);
        assert_eq!(s.orphans, 0);
    }

    #[test]
    fn residual_is_zero_for_sequential_nesting() {
        let t = trace(vec![
            span(Stage::PyramidBuild, 0, 10, 2),
            span(Stage::FlowLeft, 0, 100, 1),
            span(Stage::PyramidBuild, 100, 10, 2),
            span(Stage::FlowRight, 100, 100, 1),
            span(Stage::Refine, 200, 50, 1),
        ]);
        let mut totals = LayerTotals::default();
        totals.add(false, 300, &split(&t));
        assert_eq!(totals.untraced_ns, 50);
        assert!(totals.exclusive_residual_pct().abs() < 1e-9);
        assert!((totals.stage_ms(Stage::Refine) - 50e-6).abs() < 1e-12);
    }

    #[test]
    fn union_merges_overlaps() {
        let mut iv = [(5, 10), (0, 3), (2, 6), (20, 25)];
        assert_eq!(union_len(&mut iv), 15);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn uncontained_nested_span_is_an_orphan() {
        let t = trace(vec![
            span(Stage::FlowLeft, 0, 100_000, 1),
            span(Stage::PyramidBuild, 500_000, 10, 2),
        ]);
        assert_eq!(split(&t).orphans, 1);
    }
}
