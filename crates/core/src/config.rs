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
    /// Enable the MMP **distinct-count gate**: on any common column, a sound
    /// metadata-only lower bound on the child's distinct count exceeding the
    /// parent's (upper-bounded) distinct count disproves containment, so the
    /// edge is pruned without reading a row. Like the min/max check itself
    /// this only ever removes provably-false edges (it can improve precision
    /// over a run without the gate, never recall).
    ///
    /// This knob stays because its two settings produce different graphs:
    /// `false` is Algorithm 2 exactly as published (min/max only), and the
    /// reference that
    /// `integration_sketch::distinct_gate_only_removes_edges_and_keeps_every_true_edge`
    /// compares the gated run against.
    pub mmp_distinct_gate: bool,
    /// Number of worker threads for the data-parallel stages (SGB step 6
    /// pair checks, MMP per-edge metadata checks, CLP per-edge sampling and
    /// anti-joins). `1` (the default) runs every stage inline on the calling
    /// thread; `0` uses all hardware threads. Any value produces bit-for-bit
    /// identical graphs and meter totals — see the determinism test in
    /// `tests/integration_parallel.rs`.
    pub threads: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            clp_columns: 4,
            clp_rows: 10,
            clp_rounds: 1,
            clp_sampling: ClpSampling::PredicateFilter,
            seed: 0x5eed,
            mmp_distinct_gate: true,
            threads: 1,
        }
    }
}

impl PipelineConfig {
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
            .with_clp_rounds(3);
        assert_eq!(c.clp_columns, 8);
        assert_eq!(c.clp_rows, 30);
        assert_eq!(c.seed, 7);
        assert_eq!(c.clp_sampling, ClpSampling::RandomRows);
        assert_eq!(c.threads, 4);
        assert_eq!(c.clp_rounds, 3);
    }

    #[test]
    fn default_is_sequential() {
        assert_eq!(PipelineConfig::default().threads, 1);
    }
}
