//! Pipeline configuration, shared by the batch runner
//! ([`crate::pipeline::R2d2Pipeline`]) and the incremental session
//! ([`crate::session::R2d2Session`]): the session's bootstrap run and every
//! dynamic re-verification sweep read the same `s`/`t`/rounds/sampling
//! parameters, seed derivation and worker-thread count, which is what keeps
//! incremental results bit-identical to a fresh batch run.

/// How Content-Level Pruning draws its sample of child rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClpSampling {
    /// Sample `t` uniformly random rows of the child (the simplest variant;
    /// corresponds to "sampling a table naively" in §6.6).
    RandomRows,
    /// Run a `SELECT * FROM child WHERE col₁ = v₁ AND … LIMIT t` query whose
    /// filter values come from a randomly chosen child row over up to `s`
    /// sampled common columns — the variant Algorithm 3 describes, which can
    /// exploit partitioning / indexes to avoid full scans.
    PredicateFilter,
    /// Apply the *same* WHERE filter to both child and parent and check that
    /// the child's filtered rows are contained in the parent's filtered rows
    /// (the "sample from both A and B" extension discussed in §4.3).
    BothSides,
}

/// Configuration of the optional **approximate candidate tier**: MinHash
/// signatures gate SGB's candidate pairs before the exact subset check
/// ([`crate::sgb::ApproxCandidates`]), opening the scale ceiling for lakes
/// where even sub-quadratic exact candidate generation is too slow.
///
/// A candidate pair is admitted when the tables' LSH band hashes collide in
/// any band **or** the domination-based containment estimate
/// ([`r2d2_lake::MinHashSignature::containment_estimate_in`]) reaches
/// `threshold`. Because that estimate is exactly `1.0` for true containment
/// pairs, any `threshold ≤ 1.0` only ever prunes provably-false pairs — the
/// final graph stays identical; only the work to reach it shrinks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxConfig {
    /// Signature size `k` (number of MinHash permutations) the tier gates
    /// with. Clamped to the persisted size
    /// ([`r2d2_lake::SIGNATURE_K`]); smaller `k` uses a prefix of the
    /// stored signature — cheaper probes, coarser estimates.
    pub signature_k: usize,
    /// Number of LSH bands (`bands · rows ≤ signature_k`).
    pub lsh_bands: usize,
    /// Rows (signature minima) per LSH band.
    pub lsh_rows: usize,
    /// Containment-estimate admission threshold in `[0, 1]`. `1.0` admits
    /// only pairs with zero domination evidence against them; lower values
    /// admit more borderline pairs (more exact work, same final graph).
    pub threshold: f64,
    /// Rows sampled per reported edge by the §7.2.2 Hoeffding containment
    /// estimator attached to the final graph's edges when the tier is on
    /// ([`crate::pipeline::PipelineReport::approx_edges`]). `0` disables the
    /// report.
    pub report_samples: usize,
    /// Confidence level for the Hoeffding bound on reported edges.
    pub report_confidence: f64,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            signature_k: 64,
            lsh_bands: 8,
            lsh_rows: 4,
            threshold: 0.5,
            report_samples: 32,
            report_confidence: 0.95,
        }
    }
}

impl ApproxConfig {
    /// Override the signature size `k`.
    pub fn with_signature_k(mut self, k: usize) -> Self {
        self.signature_k = k;
        self
    }

    /// Override the LSH banding scheme.
    pub fn with_lsh(mut self, bands: usize, rows: usize) -> Self {
        self.lsh_bands = bands;
        self.lsh_rows = rows;
        self
    }

    /// Override the containment-estimate admission threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Override the per-edge Hoeffding report parameters (`samples = 0`
    /// disables the edge report).
    pub fn with_report(mut self, samples: usize, confidence: f64) -> Self {
        self.report_samples = samples;
        self.report_confidence = confidence;
        self
    }
}

/// Configuration of the R2D2 pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// `s`: maximum number of (common) columns used to build the CLP filter.
    /// The paper finds `s = 4` a good default (§6.6, Table 6).
    pub clp_columns: usize,
    /// `t`: maximum number of child rows sampled per edge in CLP.
    /// The paper finds `t = 10` a good default (§6.6, Table 6).
    pub clp_rows: usize,
    /// Number of independent sampling rounds CLP performs per edge before
    /// giving up on pruning it (each round draws a fresh filter). One round
    /// matches Algorithm 3; more rounds trade time for precision.
    pub clp_rounds: usize,
    /// Sampling strategy for CLP.
    pub clp_sampling: ClpSampling,
    /// Seed for all randomised choices (column sampling, row sampling), so
    /// that experiments are reproducible.
    pub seed: u64,
    /// If true, MMP only considers columns whose declared type supports
    /// min/max statistics (numeric, timestamp, string); if false it uses
    /// every common column that happens to have statistics.
    pub mmp_typed_columns_only: bool,
    /// Enable the MMP **distinct-count gate**: on any common column, a sound
    /// metadata-only lower bound on the child's distinct count exceeding the
    /// parent's (upper-bounded) distinct count disproves containment, so the
    /// edge is pruned without reading a row. Like the min/max check itself
    /// this only ever removes provably-false edges (it can improve precision
    /// over a run without the gate, never recall).
    pub mmp_distinct_gate: bool,
    /// Number of worker threads for the data-parallel stages (SGB step 6
    /// pair checks, MMP per-edge metadata checks, CLP per-edge sampling and
    /// anti-joins). `1` (the default) runs every stage inline on the calling
    /// thread; `0` uses all hardware threads. Any value produces bit-for-bit
    /// identical graphs and meter totals — see the determinism test in
    /// `tests/integration_parallel.rs`.
    pub threads: usize,
    /// Optional approximate candidate tier (`None` = exact candidate
    /// generation only, byte-for-byte the pre-refactor behaviour). See
    /// [`ApproxConfig`].
    pub approx: Option<ApproxConfig>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            clp_columns: 4,
            clp_rows: 10,
            clp_rounds: 1,
            clp_sampling: ClpSampling::PredicateFilter,
            seed: 0x5eed,
            mmp_typed_columns_only: true,
            mmp_distinct_gate: true,
            threads: 1,
            approx: None,
        }
    }
}

impl PipelineConfig {
    /// The paper's default parameter configuration (`s = 4`, `t = 10`).
    pub fn paper_defaults() -> Self {
        Self::default()
    }

    /// Override the CLP parameters, keeping everything else.
    pub fn with_clp_params(mut self, s: usize, t: usize) -> Self {
        self.clp_columns = s;
        self.clp_rows = t;
        self
    }

    /// Override the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the CLP sampling strategy.
    pub fn with_sampling(mut self, sampling: ClpSampling) -> Self {
        self.clp_sampling = sampling;
        self
    }

    /// Override the number of CLP sampling rounds per edge.
    pub fn with_clp_rounds(mut self, rounds: usize) -> Self {
        self.clp_rounds = rounds;
        self
    }

    /// Restrict (or not) MMP to columns whose type supports min/max stats.
    pub fn with_mmp_typed_columns_only(mut self, typed_only: bool) -> Self {
        self.mmp_typed_columns_only = typed_only;
        self
    }

    /// Enable or disable the MMP distinct-count gate.
    pub fn with_mmp_distinct_gate(mut self, enabled: bool) -> Self {
        self.mmp_distinct_gate = enabled;
        self
    }

    /// Override the worker thread count (`1` = sequential, `0` = all
    /// hardware threads).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enable the approximate candidate tier with the given knobs.
    pub fn with_approx(mut self, approx: ApproxConfig) -> Self {
        self.approx = Some(approx);
        self
    }

    /// Disable the approximate candidate tier (the default).
    pub fn without_approx(mut self) -> Self {
        self.approx = None;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PipelineConfig::default();
        assert_eq!(c.clp_columns, 4);
        assert_eq!(c.clp_rows, 10);
        assert_eq!(c.clp_sampling, ClpSampling::PredicateFilter);
        assert!(c.mmp_distinct_gate, "sketch gates default on");
        assert_eq!(PipelineConfig::paper_defaults(), c);
    }

    #[test]
    fn sketch_gates_can_be_disabled() {
        let c = PipelineConfig::default().with_mmp_distinct_gate(false);
        assert!(!c.mmp_distinct_gate);
    }

    #[test]
    fn builder_style_overrides() {
        let c = PipelineConfig::default()
            .with_clp_params(8, 30)
            .with_seed(7)
            .with_sampling(ClpSampling::RandomRows)
            .with_threads(4)
            .with_clp_rounds(3)
            .with_mmp_typed_columns_only(false);
        assert_eq!(c.clp_columns, 8);
        assert_eq!(c.clp_rows, 30);
        assert_eq!(c.seed, 7);
        assert_eq!(c.clp_sampling, ClpSampling::RandomRows);
        assert_eq!(c.threads, 4);
        assert_eq!(c.clp_rounds, 3);
        assert!(!c.mmp_typed_columns_only);
    }

    #[test]
    fn default_is_sequential() {
        assert_eq!(PipelineConfig::default().threads, 1);
    }

    #[test]
    fn approx_tier_defaults_off_and_builds() {
        assert_eq!(PipelineConfig::default().approx, None);
        let a = ApproxConfig::default();
        assert_eq!(a.signature_k, 64);
        assert!(a.lsh_bands * a.lsh_rows <= a.signature_k);
        let c = PipelineConfig::default().with_approx(
            ApproxConfig::default()
                .with_signature_k(32)
                .with_lsh(4, 8)
                .with_threshold(0.8)
                .with_report(16, 0.99),
        );
        let approx = c.approx.unwrap();
        assert_eq!(approx.signature_k, 32);
        assert_eq!((approx.lsh_bands, approx.lsh_rows), (4, 8));
        assert_eq!(approx.threshold, 0.8);
        assert_eq!(
            (approx.report_samples, approx.report_confidence),
            (16, 0.99)
        );
        assert_eq!(c.without_approx().approx, None);
    }
}
