//! Fixtures shared by the allocation tests (`alloc.rs`, `zero_alloc.rs`).

use asv::ism::{IsmConfig, IsmPipeline};
use asv_dnn::{zoo, CostMetric, SurrogateParams, SurrogateStereoDnn};
use asv_scene::{SceneConfig, StereoSequence};
use asv_stereo::block_matching::BlockMatchParams;

pub fn pipeline(width: usize, height: usize, window: usize, max_disparity: usize) -> IsmPipeline {
    pipeline_with_metric(width, height, window, max_disparity, CostMetric::Sad)
}

pub fn pipeline_with_metric(
    width: usize,
    height: usize,
    window: usize,
    max_disparity: usize,
    metric: CostMetric,
) -> IsmPipeline {
    let config = IsmConfig {
        propagation_window: window,
        refine: BlockMatchParams {
            max_disparity,
            refine_radius: 3,
            ..Default::default()
        },
        surrogate: SurrogateParams {
            max_disparity,
            occlusion_handling: true,
            metric,
        },
        ..Default::default()
    };
    let surrogate = SurrogateStereoDnn::new(zoo::dispnet(height, width), config.surrogate);
    IsmPipeline::new(config, surrogate)
}

pub fn sequence(width: usize, height: usize, frames: usize, seed: u64) -> StereoSequence {
    let scene = SceneConfig::scene_flow_like(width, height)
        .with_seed(seed)
        .with_objects(3);
    StereoSequence::generate(&scene, frames)
}
