//! Schedule generators: the generic static-partition baseline, the greedy
//! Knapsack optimizer (with and without inter-layer activation reuse) and an
//! exhaustive reference solver used to validate the greedy heuristic.

use crate::hw::HwConfig;
pub use crate::model::Round;
use crate::model::{fits_in_buffer, ifmap_tile_bytes, ofmap_bytes, round_cost};
use crate::workload::{LayerWorkload, SubKernel};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Which operand stays resident in the buffer across consecutive rounds — the
/// binary reuse-order variable `β` of Eq. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReuseOrder {
    /// The ifmap tile stays; filters are streamed (β = 0, `l_m:In`).
    IfmapStationary,
    /// The filters stay; ifmap tiles are streamed (β = 1, `l_m:W`).
    WeightStationary,
}

/// A complete per-layer schedule: the rounds in execution order plus the
/// reuse order that produced them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerSchedule {
    /// Rounds in execution order.
    pub rounds: Vec<Round>,
    /// Reuse order chosen for the layer.
    pub reuse: ReuseOrder,
}

/// Accumulated cost of executing one layer (or one network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LayerCost {
    /// Total latency in cycles.
    pub cycles: u64,
    /// Total multiply-accumulates.
    pub macs: u64,
    /// Bytes read from DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
    /// Bytes streamed through the on-chip SRAM.
    pub sram_bytes: u64,
    /// Number of rounds executed.
    pub rounds: u64,
    /// Rounds whose latency was bounded by compute rather than memory.
    pub compute_bound_rounds: u64,
}

impl LayerCost {
    /// Adds another cost to this one (layers execute back to back, Sec. 4.2's
    /// layer-wise execution model).
    pub fn accumulate(&mut self, other: &LayerCost) {
        self.cycles += other.cycles;
        self.macs += other.macs;
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
        self.sram_bytes += other.sram_bytes;
        self.rounds += other.rounds;
        self.compute_bound_rounds += other.compute_bound_rounds;
    }

    /// Total DRAM traffic (read + write).
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }
}

/// Prices a full schedule.
pub fn schedule_cost(
    workload: &LayerWorkload,
    hw: &HwConfig,
    schedule: &LayerSchedule,
) -> LayerCost {
    let mut cost = LayerCost::default();
    for round in &schedule.rounds {
        let rc = round_cost(workload, hw, round);
        cost.cycles += rc.cycles;
        cost.macs += rc.macs;
        cost.dram_read_bytes += rc.dram_read_bytes;
        cost.dram_write_bytes += rc.dram_write_bytes;
        cost.sram_bytes += rc.sram_bytes;
        cost.rounds += 1;
        if rc.compute_cycles >= rc.memory_cycles {
            cost.compute_bound_rounds += 1;
        }
    }
    cost
}

/// Splits `total` into `parts` nearly equal chunks (first chunks larger).
fn split_even(total: u64, parts: u64) -> Vec<u64> {
    if parts == 0 {
        return Vec::new();
    }
    let base = total / parts;
    let extra = (total % parts) as usize;
    (0..parts as usize)
        .map(|i| base + if i < extra { 1 } else { 0 })
        .collect()
}

/// Generic static-partition schedule: the on-chip buffer is statically split
/// into equal thirds for ifmap, weights and ofmap, a partition searched
/// offline and shared by all layers (the paper's baseline, Sec. 6.2).  Each
/// sub-kernel is processed independently; filters are held across the ifmap
/// strips of their group but the ifmap is re-streamed for every filter group.
pub fn generic_schedule(workload: &LayerWorkload, hw: &HwConfig) -> LayerSchedule {
    let mut rounds = Vec::new();
    if workload.sub_kernels.is_empty() || workload.out_channels == 0 {
        return LayerSchedule {
            rounds,
            reuse: ReuseOrder::WeightStationary,
        };
    }
    let third = (hw.buffer_bytes / 3).max(1);
    let total_positions = workload.ifmap_positions().max(1);

    for k in 0..workload.sub_kernels.len() {
        // Filters per group limited by the static weight partition.
        let per_filter_bytes = workload.filter_bytes(k).max(1);
        let group = (third / per_filter_bytes).clamp(1, workload.out_channels as u64);
        let n_groups = (workload.out_channels as u64).div_ceil(group);
        let filter_groups = split_even(workload.out_channels as u64, n_groups);

        for &filters_in_group in &filter_groups {
            // Ifmap strip limited by the static ifmap partition and by the
            // ofmap partition.
            let bytes_per_position = (workload.in_channels as u64 * 2).max(1);
            let mut strip = (third / bytes_per_position).clamp(1, total_positions);
            // Shrink the strip until its ofmap slice also fits its partition.
            while strip > 1 && ofmap_bytes(workload, strip, filters_in_group) > third {
                strip /= 2;
            }
            let n_strips = total_positions.div_ceil(strip);
            let strips = split_even(total_positions, n_strips);
            for (s, &positions) in strips.iter().enumerate() {
                let mut filters = vec![0u64; workload.sub_kernels.len()];
                filters[k] = filters_in_group;
                rounds.push(Round {
                    positions,
                    filters,
                    load_ifmap: true,
                    load_weights: s == 0,
                });
            }
        }
    }
    LayerSchedule {
        rounds,
        reuse: ReuseOrder::WeightStationary,
    }
}

/// Builds the filter groups of one ifmap-tile size using the paper's greedy
/// Knapsack heuristic: every filter of every sub-kernel is an item whose
/// weight is its buffer footprint (weights + ofmap slice) and whose value is
/// its MAC count; filters from large sub-kernels are packed first, and the
/// solver is re-applied until every filter has been placed (all items must be
/// consumed, unlike 0/1 Knapsack).
fn pack_filter_groups(
    workload: &LayerWorkload,
    capacity: u64,
    positions: u64,
) -> Option<Vec<Vec<u64>>> {
    let n = workload.sub_kernels.len();
    // Remaining filters per sub-kernel.
    let mut remaining: Vec<u64> = vec![workload.out_channels as u64; n];
    // Order sub-kernels by descending volume (value density) — the greedy
    // priority the paper describes.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&k| std::cmp::Reverse(workload.sub_kernels[k].volume()));

    let mut groups = Vec::new();
    while remaining.iter().any(|&r| r > 0) {
        let mut group = vec![0u64; n];
        let mut used = 0u64;
        let mut placed_any = false;
        for &k in &order {
            if remaining[k] == 0 {
                continue;
            }
            let per_filter = workload.filter_bytes(k) + ofmap_bytes(workload, positions, 1);
            if per_filter == 0 {
                group[k] += remaining[k];
                remaining[k] = 0;
                placed_any = true;
                continue;
            }
            let fits = (capacity.saturating_sub(used)) / per_filter;
            let take = fits.min(remaining[k]);
            if take > 0 {
                group[k] += take;
                remaining[k] -= take;
                used += take * per_filter;
                placed_any = true;
            }
        }
        if !placed_any {
            // Not even a single filter fits with this tile size.
            return None;
        }
        groups.push(group);
    }
    Some(groups)
}

/// Candidate ifmap-tile sizes: power-of-two fractions of the full ifmap.
fn tile_candidates(workload: &LayerWorkload, hw: &HwConfig) -> Vec<u64> {
    let total = workload.ifmap_positions().max(1);
    let mut candidates = Vec::new();
    let mut frac = 1u64;
    loop {
        let positions = (total / frac).max(1);
        // Keep only tiles whose ifmap slice leaves at least some room for
        // filters in the round buffer.
        if ifmap_tile_bytes(workload, positions) <= hw.round_buffer_bytes().saturating_sub(64) {
            candidates.push(positions);
        }
        if positions == 1 || frac > total {
            break;
        }
        frac *= 2;
    }
    if candidates.is_empty() {
        candidates.push(1);
    }
    candidates.dedup();
    candidates
}

/// Builds the rounds of one (tile size, filter groups, reuse order) choice.
fn build_rounds(
    workload: &LayerWorkload,
    tile: u64,
    groups: &[Vec<u64>],
    reuse: ReuseOrder,
) -> Vec<Round> {
    let total = workload.ifmap_positions().max(1);
    let n_tiles = total.div_ceil(tile);
    let tiles = split_even(total, n_tiles);
    let mut rounds = Vec::new();
    match reuse {
        ReuseOrder::WeightStationary => {
            // Outer loop over filter groups, inner over ifmap tiles: the
            // filters stay resident, tiles are re-streamed per group.
            for group in groups {
                for (s, &positions) in tiles.iter().enumerate() {
                    rounds.push(Round {
                        positions,
                        filters: group.clone(),
                        load_ifmap: true,
                        load_weights: s == 0,
                    });
                }
            }
        }
        ReuseOrder::IfmapStationary => {
            // Outer loop over ifmap tiles, inner over filter groups: each tile
            // is loaded once, the filters are re-streamed per tile.
            for &positions in tiles.iter() {
                for (g, group) in groups.iter().enumerate() {
                    rounds.push(Round {
                        positions,
                        filters: group.clone(),
                        load_ifmap: g == 0,
                        load_weights: true,
                    });
                }
            }
        }
    }
    rounds
}

/// Cache key of one solved layer: the workload *shape* (everything except
/// the layer name, which never affects the schedule) plus the hardware
/// configuration.  Floats are keyed by their bit patterns — the workloads
/// and configurations in one process are either identical or genuinely
/// different, never "equal up to rounding".
///
/// The optimization levels need no explicit key component: Baseline/DCT use
/// the (cheap, uncached) generic schedule, while ConvR and ILAR reach this
/// solver with structurally different workloads (single-sub-kernel slices vs
/// the joint multi-sub-kernel layer), so the shape already distinguishes
/// them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ScheduleKey {
    in_channels: usize,
    out_channels: usize,
    ifmap: (usize, usize, usize),
    sub_kernels: Vec<(usize, usize, usize)>,
    ofmap_per_position_bits: u64,
    from_deconv: bool,
    pe: (usize, usize),
    buffer_bytes: u64,
    dram_bytes_per_cycle_bits: u64,
    frequency_hz_bits: u64,
}

impl ScheduleKey {
    fn new(workload: &LayerWorkload, hw: &HwConfig) -> Self {
        Self {
            in_channels: workload.in_channels,
            out_channels: workload.out_channels,
            ifmap: (workload.ifmap_d, workload.ifmap_h, workload.ifmap_w),
            sub_kernels: workload
                .sub_kernels
                .iter()
                .map(|&SubKernel { kd, kh, kw }| (kd, kh, kw))
                .collect(),
            ofmap_per_position_bits: workload.ofmap_per_position.to_bits(),
            from_deconv: workload.from_deconv,
            pe: (hw.pe_rows, hw.pe_cols),
            buffer_bytes: hw.buffer_bytes,
            dram_bytes_per_cycle_bits: hw.dram_bytes_per_cycle.to_bits(),
            frequency_hz_bits: hw.frequency_hz.to_bits(),
        }
    }
}

/// Process-wide memo of solved (workload shape, hardware) pairs.
///
/// The exhaustive tile/packing/reuse sweep of [`optimized_schedule`] is by
/// far the hottest part of the analytical experiments, and the same layer
/// shapes recur constantly: networks repeat layer shapes internally, the
/// figure generators sweep the same networks under several optimization
/// levels, and ConvR re-solves every sub-kernel slice per layer.  Solving
/// each distinct shape once turns the Fig. 10/11/12 sweeps from minutes into
/// seconds.
fn schedule_cache() -> &'static Mutex<HashMap<ScheduleKey, (LayerSchedule, LayerCost)>> {
    static CACHE: OnceLock<Mutex<HashMap<ScheduleKey, (LayerSchedule, LayerCost)>>> =
        OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Number of distinct (workload shape, hardware) pairs solved so far in this
/// process; exposed for cache-behaviour tests and capacity planning.
pub fn schedule_cache_len() -> usize {
    schedule_cache()
        .lock()
        .expect("schedule cache poisoned")
        .len()
}

/// Empties the solver memo.  Benchmarks that want to time the actual tiling
/// sweep (not a cache hit) call this between iterations; long-lived
/// processes sweeping unbounded families of layer shapes can use it to cap
/// memory.
pub fn schedule_cache_clear() {
    schedule_cache()
        .lock()
        .expect("schedule cache poisoned")
        .clear();
}

/// The constrained-optimization scheduler of Sec. 4.2: picks the ifmap tile
/// size, the per-round filter packing (greedy Knapsack) and the reuse order
/// `β` that minimise the layer latency under the buffer constraint, breaking
/// latency ties in favour of less DRAM traffic.
///
/// Results are memoized per (workload shape, hardware) key — see
/// [`schedule_cache_len`] and [`schedule_cache_clear`] — so repeated layers
/// and repeated experiment sweeps pay for the search once per process.
///
/// Returns the chosen schedule and its cost.
pub fn optimized_schedule(workload: &LayerWorkload, hw: &HwConfig) -> (LayerSchedule, LayerCost) {
    let key = ScheduleKey::new(workload, hw);
    if let Some(hit) = schedule_cache()
        .lock()
        .expect("schedule cache poisoned")
        .get(&key)
    {
        return hit.clone();
    }
    let solved = optimized_schedule_uncached(workload, hw);
    schedule_cache()
        .lock()
        .expect("schedule cache poisoned")
        .insert(key, solved.clone());
    solved
}

/// The actual tile/packing/reuse sweep behind [`optimized_schedule`].
fn optimized_schedule_uncached(
    workload: &LayerWorkload,
    hw: &HwConfig,
) -> (LayerSchedule, LayerCost) {
    if workload.sub_kernels.is_empty() || workload.out_channels == 0 {
        let schedule = LayerSchedule {
            rounds: Vec::new(),
            reuse: ReuseOrder::IfmapStationary,
        };
        let cost = LayerCost::default();
        return (schedule, cost);
    }
    let mut best: Option<(LayerSchedule, LayerCost)> = None;
    for tile in tile_candidates(workload, hw) {
        let capacity = hw
            .round_buffer_bytes()
            .saturating_sub(ifmap_tile_bytes(workload, tile));
        let Some(groups) = pack_filter_groups(workload, capacity, tile) else {
            continue;
        };
        // Safety check: every group must satisfy Eq. 10.
        debug_assert!(groups.iter().all(|g| fits_in_buffer(workload, hw, tile, g)));
        for reuse in [ReuseOrder::WeightStationary, ReuseOrder::IfmapStationary] {
            let rounds = build_rounds(workload, tile, &groups, reuse);
            let schedule = LayerSchedule { rounds, reuse };
            let cost = schedule_cost(workload, hw, &schedule);
            let better = match &best {
                None => true,
                Some((_, b)) => {
                    cost.cycles < b.cycles
                        || (cost.cycles == b.cycles && cost.dram_bytes() < b.dram_bytes())
                }
            };
            if better {
                best = Some((schedule, cost));
            }
        }
    }
    best.unwrap_or_else(|| {
        // Fall back to the generic schedule when nothing fits (pathological
        // buffer sizes).
        let schedule = generic_schedule(workload, hw);
        let cost = schedule_cost(workload, hw, &schedule);
        (schedule, cost)
    })
}

/// The conventional-reuse variant (`ConvR` in Fig. 11): sub-kernels are
/// scheduled as independent layers, so the shared ifmap is re-fetched for
/// each of them, but each sub-convolution individually enjoys the optimized
/// tiling.
pub fn convr_cost(workload: &LayerWorkload, hw: &HwConfig) -> LayerCost {
    if workload.sub_kernels.len() <= 1 {
        return optimized_schedule(workload, hw).1;
    }
    let mut total = LayerCost::default();
    for k in 0..workload.sub_kernels.len() {
        let single = LayerWorkload {
            name: format!("{}#sub{k}", workload.name),
            sub_kernels: vec![workload.sub_kernels[k]],
            ..workload.clone()
        };
        let (_, cost) = optimized_schedule(&single, hw);
        total.accumulate(&cost);
    }
    total
}

/// The full optimizer with inter-layer activation reuse (`ILAR` in Fig. 11):
/// all sub-kernels are scheduled jointly so each ifmap tile is fetched once
/// and shared.
pub fn ilar_cost(workload: &LayerWorkload, hw: &HwConfig) -> LayerCost {
    optimized_schedule(workload, hw).1
}

/// Exhaustive reference solver over uniform tilings; only viable for tiny
/// layers, used to validate the greedy solver in tests.
pub fn exhaustive_schedule(workload: &LayerWorkload, hw: &HwConfig) -> Option<LayerCost> {
    if workload.sub_kernels.is_empty() || workload.out_channels == 0 {
        return Some(LayerCost::default());
    }
    let total = workload.ifmap_positions().max(1);
    let channels = workload.out_channels as u64;
    let mut best: Option<LayerCost> = None;
    for n_tiles in 1..=total.min(16) {
        let tile = total.div_ceil(n_tiles);
        for group in 1..=channels {
            let filters_template: Vec<u64> = vec![group; workload.sub_kernels.len()];
            if !fits_in_buffer(workload, hw, tile, &filters_template) {
                continue;
            }
            let n_groups = channels.div_ceil(group);
            let groups: Vec<Vec<u64>> = (0..n_groups)
                .map(|g| {
                    let count = if g == n_groups - 1 {
                        channels - group * (n_groups - 1)
                    } else {
                        group
                    };
                    vec![count; workload.sub_kernels.len()]
                })
                .collect();
            for reuse in [ReuseOrder::WeightStationary, ReuseOrder::IfmapStationary] {
                let rounds = build_rounds(workload, tile, &groups, reuse);
                let schedule = LayerSchedule { rounds, reuse };
                let cost = schedule_cost(workload, hw, &schedule);
                if best.as_ref().is_none_or(|b| cost.cycles < b.cycles) {
                    best = Some(cost);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_dnn::{LayerSpec, Stage};

    fn deconv_workload() -> LayerWorkload {
        let spec = LayerSpec::deconv2d("d", Stage::DisparityRefinement, 64, 32, 24, 32, 4, 2, 1);
        LayerWorkload::transformed(&spec)
    }

    fn conv_workload() -> LayerWorkload {
        let spec = LayerSpec::conv2d("c", Stage::FeatureExtraction, 32, 64, 48, 64, 3, 1, 1);
        LayerWorkload::naive(&spec)
    }

    #[test]
    fn schedules_execute_every_filter_exactly_once() {
        let wl = deconv_workload();
        let hw = HwConfig::asv_default();
        for schedule in [generic_schedule(&wl, &hw), optimized_schedule(&wl, &hw).0] {
            // Constraint of Eq. 11: summed over rounds, each sub-kernel's
            // filters × tile positions must cover channels × total positions.
            let total_positions = wl.ifmap_positions();
            for k in 0..wl.sub_kernels.len() {
                let covered: u64 = schedule
                    .rounds
                    .iter()
                    .map(|r| r.filters[k] * r.positions)
                    .sum();
                assert_eq!(
                    covered,
                    wl.out_channels as u64 * total_positions,
                    "sub-kernel {k} not fully covered"
                );
            }
        }
    }

    #[test]
    fn optimized_rounds_respect_the_buffer_constraint() {
        let wl = deconv_workload();
        let hw = HwConfig::asv_default().with_buffer_bytes(256 * 1024);
        let (schedule, _) = optimized_schedule(&wl, &hw);
        for round in &schedule.rounds {
            assert!(fits_in_buffer(&wl, &hw, round.positions, &round.filters));
        }
    }

    #[test]
    fn optimizer_beats_or_matches_generic_schedule() {
        let hw = HwConfig::asv_default();
        for wl in [deconv_workload(), conv_workload()] {
            let generic = schedule_cost(&wl, &hw, &generic_schedule(&wl, &hw));
            let (_, optimized) = optimized_schedule(&wl, &hw);
            assert!(optimized.cycles <= generic.cycles, "{}", wl.name);
            assert!(
                optimized.dram_bytes() <= generic.dram_bytes(),
                "{}",
                wl.name
            );
            assert_eq!(
                optimized.macs, generic.macs,
                "MACs must not change, only scheduling"
            );
        }
    }

    #[test]
    fn ilar_reduces_dram_traffic_relative_to_convr() {
        let wl = deconv_workload();
        let hw = HwConfig::asv_default();
        let convr = convr_cost(&wl, &hw);
        let ilar = ilar_cost(&wl, &hw);
        assert!(ilar.dram_bytes() <= convr.dram_bytes());
        assert_eq!(ilar.macs, convr.macs);
        // Latency is similar or better (the paper observes comparable speedup).
        assert!(ilar.cycles <= convr.cycles);
    }

    #[test]
    fn convr_equals_ilar_for_single_kernel_layers() {
        let wl = conv_workload();
        let hw = HwConfig::asv_default();
        assert_eq!(convr_cost(&wl, &hw), ilar_cost(&wl, &hw));
    }

    #[test]
    fn greedy_is_close_to_exhaustive_on_small_layers() {
        let spec = LayerSpec::deconv2d("small", Stage::DisparityRefinement, 4, 6, 6, 6, 3, 2, 1);
        let wl = LayerWorkload::transformed(&spec);
        let hw = HwConfig::asv_default().with_buffer_bytes(8 * 1024);
        let greedy = optimized_schedule(&wl, &hw).1;
        let exhaustive = exhaustive_schedule(&wl, &hw).expect("exhaustive solver found a schedule");
        assert!(
            greedy.cycles as f64 <= exhaustive.cycles as f64 * 1.25,
            "greedy {} vs exhaustive {}",
            greedy.cycles,
            exhaustive.cycles
        );
    }

    #[test]
    fn memoized_solver_ignores_layer_names_and_is_stable() {
        let wl = deconv_workload();
        let hw = HwConfig::asv_default();
        let first = optimized_schedule(&wl, &hw);
        // Same shape under a different name must hit the same cache entry
        // (ConvR relies on this when it renames sub-kernel slices).
        let renamed = LayerWorkload {
            name: "renamed#sub0".to_owned(),
            ..wl.clone()
        };
        let second = optimized_schedule(&renamed, &hw);
        assert_eq!(first, second);
        assert!(schedule_cache_len() >= 1);
        // A cached result is identical to a fresh solve.
        assert_eq!(first, optimized_schedule_uncached(&wl, &hw));
        // A different hardware configuration is a different key, not a stale
        // hit.
        let small_hw = hw.with_buffer_bytes(32 * 1024);
        let (_, small_cost) = optimized_schedule(&wl, &small_hw);
        assert!(small_cost.rounds >= first.1.rounds);
    }

    #[test]
    fn tiny_buffer_falls_back_to_many_rounds() {
        let wl = deconv_workload();
        let hw = HwConfig::asv_default().with_buffer_bytes(16 * 1024);
        let (schedule, cost) = optimized_schedule(&wl, &hw);
        assert!(schedule.rounds.len() > 4);
        assert!(cost.cycles > 0);
    }

    #[test]
    fn pointwise_workloads_cost_nothing() {
        let spec = LayerSpec::pointwise("relu", Stage::Other, 8, 1, 8, 8, 1);
        let wl = LayerWorkload::naive(&spec);
        let hw = HwConfig::asv_default();
        assert_eq!(optimized_schedule(&wl, &hw).1, LayerCost::default());
        assert_eq!(generic_schedule(&wl, &hw).rounds.len(), 0);
    }

    #[test]
    fn layer_cost_accumulation() {
        let mut a = LayerCost {
            cycles: 10,
            macs: 5,
            ..Default::default()
        };
        let b = LayerCost {
            cycles: 7,
            macs: 3,
            dram_read_bytes: 11,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.cycles, 17);
        assert_eq!(a.macs, 8);
        assert_eq!(a.dram_bytes(), 11);
    }

    #[test]
    fn split_even_covers_total() {
        assert_eq!(split_even(10, 3), vec![4, 3, 3]);
        assert_eq!(split_even(9, 3), vec![3, 3, 3]);
        assert!(split_even(5, 0).is_empty());
    }
}
