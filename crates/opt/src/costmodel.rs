//! Cloud cost and latency model.
//!
//! The paper evaluates Opt-Ret with "Azure Data Lake Gen2 public hot tier
//! storage and read costs" and notes that "the cloud costs for write
//! operations in the premium and hot tiers are an order of magnitude higher
//! than the read costs". The exact per-GB numbers are not printed in the
//! paper, so the defaults below encode the publicly documented *ratios*
//! (write ≈ 10× read, storage ≈ cents per GB-month); every field is
//! configurable so experiments can sweep them.

/// Number of bytes per gigabyte used throughout the cost model.
pub const BYTES_PER_GB: f64 = 1_073_741_824.0;

/// Prices and latency estimates per unit of data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Storage cost per GB per billing period (hot tier, USD).
    pub storage_per_gb_period: f64,
    /// Read cost per GB (USD).
    pub read_per_gb: f64,
    /// Write cost per GB (USD) — roughly an order of magnitude above reads.
    pub write_per_gb: f64,
    /// Compute cost of one maintenance operation (e.g. a privacy-initiated
    /// full scan) per GB (USD) — the `C_m` of Eq. 3.
    pub maintenance_per_gb_op: f64,
    /// Read latency per GB (seconds).
    pub read_latency_per_gb: f64,
    /// Write latency per GB (seconds).
    pub write_latency_per_gb: f64,
    /// Maximum tolerable reconstruction latency (seconds) — the QoS threshold
    /// `T_h` of §5.1.
    pub latency_threshold: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::azure_hot_tier()
    }
}

impl CostModel {
    /// Azure-hot-tier-like defaults (USD, GB, seconds).
    pub fn azure_hot_tier() -> Self {
        CostModel {
            storage_per_gb_period: 0.018,
            read_per_gb: 0.0005,
            write_per_gb: 0.0055,
            maintenance_per_gb_op: 0.0008,
            read_latency_per_gb: 4.0,
            write_latency_per_gb: 12.0,
            latency_threshold: 3600.0,
        }
    }

    /// A premium-tier-like variant: cheaper latency, pricier storage.
    pub fn azure_premium_tier() -> Self {
        CostModel {
            storage_per_gb_period: 0.15,
            read_per_gb: 0.00013,
            write_per_gb: 0.0013,
            maintenance_per_gb_op: 0.0004,
            read_latency_per_gb: 1.0,
            write_latency_per_gb: 3.0,
            latency_threshold: 3600.0,
        }
    }

    /// Override the latency threshold (builder style).
    pub fn with_latency_threshold(mut self, seconds: f64) -> Self {
        self.latency_threshold = seconds;
        self
    }

    /// Size in GB of a byte count.
    pub fn gb(bytes: u64) -> f64 {
        bytes as f64 / BYTES_PER_GB
    }

    /// Retention cost of a dataset for one billing period
    /// (`(C_s + C_m · f_v) · S_v` in Eq. 3).
    pub fn retention_cost(&self, size_bytes: u64, maintenance_per_period: f64) -> f64 {
        let gb = Self::gb(size_bytes);
        (self.storage_per_gb_period + self.maintenance_per_gb_op * maintenance_per_period) * gb
    }

    /// Monetary cost of reconstructing a child from a parent
    /// (`C_e ≈ r·s_p + w·s_q` in §5.1).
    pub fn reconstruction_cost(&self, parent_bytes: u64, child_bytes: u64) -> f64 {
        self.read_per_gb * Self::gb(parent_bytes) + self.write_per_gb * Self::gb(child_bytes)
    }

    /// Latency of reconstructing a child from a parent
    /// (`L_e ≈ r_ℓ·s_p + w_ℓ·s_q` in §5.1).
    pub fn reconstruction_latency(&self, parent_bytes: u64, child_bytes: u64) -> f64 {
        self.read_latency_per_gb * Self::gb(parent_bytes)
            + self.write_latency_per_gb * Self::gb(child_bytes)
    }

    /// Whether an edge satisfies the QoS latency constraint of §5.1.
    pub fn latency_ok(&self, parent_bytes: u64, child_bytes: u64) -> bool {
        self.reconstruction_latency(parent_bytes, child_bytes) <= self.latency_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = BYTES_PER_GB as u64;

    #[test]
    fn write_costs_dominate_reads() {
        let m = CostModel::azure_hot_tier();
        assert!(m.write_per_gb >= 10.0 * m.read_per_gb);
        let p = CostModel::azure_premium_tier();
        assert!(p.write_per_gb >= 9.0 * p.read_per_gb);
    }

    #[test]
    fn retention_cost_scales_with_size_and_maintenance() {
        let m = CostModel::default();
        let small = m.retention_cost(GB, 1.0);
        let large = m.retention_cost(10 * GB, 1.0);
        let busy = m.retention_cost(GB, 10.0);
        assert!((large / small - 10.0).abs() < 1e-9);
        assert!(busy > small);
        assert_eq!(m.retention_cost(0, 5.0), 0.0);
    }

    #[test]
    fn reconstruction_cost_mostly_write() {
        let m = CostModel::default();
        let cost = m.reconstruction_cost(GB, GB);
        let write_only = m.write_per_gb;
        assert!(cost > write_only, "includes the read part");
        assert!(
            cost < 2.0 * write_only,
            "write dominates when sizes are equal"
        );
    }

    #[test]
    fn latency_threshold_enforced() {
        let m = CostModel::azure_hot_tier().with_latency_threshold(10.0);
        assert!(m.latency_ok(GB / 10, GB / 10));
        assert!(!m.latency_ok(100 * GB, 100 * GB));
    }

    #[test]
    fn latency_is_linear_in_sizes() {
        let m = CostModel::default();
        let l1 = m.reconstruction_latency(GB, GB);
        let l2 = m.reconstruction_latency(2 * GB, 2 * GB);
        assert!((l2 / l1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gb_conversion() {
        assert!((CostModel::gb(GB) - 1.0).abs() < 1e-9);
        assert_eq!(CostModel::gb(0), 0.0);
    }
}
