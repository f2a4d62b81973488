//! Pipeline configuration.

use dagscope_cluster::ClusterCount;
use dagscope_trace::gen::GeneratorConfig;

/// Which base kernel instantiates eq. (1) of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseKernel {
    /// The WL subtree kernel (the paper's primary instantiation).
    WlSubtree,
    /// The shortest-path kernel (the alternative eq. (1) names).
    ShortestPath,
}

/// The spectral-clustering engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEngine {
    /// Collapsed path: packed unique-shape affinity + Lanczos smallest-k
    /// eigenpairs, weighted by shape multiplicities. `m(m+1)/2` affinity
    /// entries for `m` unique shapes; finds dense NJW's partition on
    /// well-separated populations (ARI 1.0 on the paper-scale sample),
    /// not floating-point-identical to it.
    Collapsed,
}

/// Configuration of the end-to-end characterization pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Number of synthetic jobs in the trace.
    pub jobs: usize,
    /// Jobs in the stratified analysis sample (the paper uses 100).
    pub sample: usize,
    /// Master seed; the whole run is a pure function of it.
    pub seed: u64,
    /// WL refinement iterations (the paper's `n`; 3 by default).
    pub wl_iterations: usize,
    /// Cluster-count policy (the paper fixes 5 groups).
    pub clusters: ClusterCount,
    /// Run the kernel/clustering stage on conflated DAGs (the paper
    /// conflates before estimating structure; set to `false` for the
    /// ablation).
    pub conflate: bool,
    /// Base kernel for the similarity stage.
    pub base_kernel: BaseKernel,
    /// Spectral-clustering engine.
    pub cluster_engine: ClusterEngine,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            jobs: 2_000,
            sample: 100,
            seed: 42,
            wl_iterations: 3,
            clusters: ClusterCount::Fixed(5),
            conflate: true,
            base_kernel: BaseKernel::WlSubtree,
            cluster_engine: ClusterEngine::Collapsed,
        }
    }
}

impl PipelineConfig {
    /// The generator configuration this pipeline config induces.
    pub fn generator(&self) -> GeneratorConfig {
        GeneratorConfig {
            jobs: self.jobs,
            seed: self.seed,
            ..GeneratorConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let c = PipelineConfig::default();
        assert_eq!(c.sample, 100);
        assert_eq!(c.wl_iterations, 3);
        assert_eq!(c.clusters, ClusterCount::Fixed(5));
        assert!(c.conflate);
        assert_eq!(c.base_kernel, BaseKernel::WlSubtree);
        assert_eq!(c.cluster_engine, ClusterEngine::Collapsed);
        assert_eq!(c.generator().jobs, c.jobs);
        assert_eq!(c.generator().seed, c.seed);
    }
}
