//! Per-figure scenario presets.
//!
//! Each preset returns the [`WorkloadParams`] used by the corresponding
//! figure of the paper; the x-axis value is a function parameter. Every
//! figure point is a mean over [`TOPOLOGIES_PER_POINT`] seeded draws.

use crate::params::WorkloadParams;

/// The paper averages each plotted value over 15 random topologies (§4.1).
pub const TOPOLOGIES_PER_POINT: usize = 15;

/// Network sizes swept by Fig. 2 and Fig. 3.
pub const NETWORK_SIZES: [usize; 5] = [32, 60, 100, 150, 200];

/// `F` values swept by Fig. 4 (max datasets demanded per query).
pub const F_VALUES: [usize; 6] = [1, 2, 3, 4, 5, 6];

/// `K` values swept by Fig. 5 (max replicas per dataset).
pub const K_VALUES: [usize; 7] = [1, 2, 3, 4, 5, 6, 7];

/// Fig. 2: special case (single-dataset queries), network-size sweep.
pub fn fig2_special_case(network_size: usize) -> WorkloadParams {
    WorkloadParams::default()
        .with_network_size(network_size)
        .with_max_datasets_per_query(1)
}

/// Fig. 3: general case (multi-dataset queries), network-size sweep.
pub fn fig3_general_case(network_size: usize) -> WorkloadParams {
    WorkloadParams::default().with_network_size(network_size)
}

/// Fig. 4: general case, `F` sweep at the default network size.
pub fn fig4_vary_f(f: usize) -> WorkloadParams {
    WorkloadParams::default().with_max_datasets_per_query(f)
}

/// Fig. 5: general case, `K` sweep at the default network size.
pub fn fig5_vary_k(k: usize) -> WorkloadParams {
    WorkloadParams::default().with_max_replicas(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_single_dataset_queries() {
        let p = fig2_special_case(100);
        assert_eq!(p.datasets_per_query, (1, 1));
        assert_eq!(p.network_size(), 100);
        p.validate().unwrap();
    }

    #[test]
    fn fig3_keeps_default_f() {
        let p = fig3_general_case(60);
        assert_eq!(p.datasets_per_query, (1, 7));
        assert_eq!(p.network_size(), 60);
        p.validate().unwrap();
    }

    #[test]
    fn fig4_sets_f() {
        for f in F_VALUES {
            let p = fig4_vary_f(f);
            assert_eq!(p.datasets_per_query.1, f);
            p.validate().unwrap();
        }
    }

    #[test]
    fn fig5_sets_k() {
        for k in K_VALUES {
            let p = fig5_vary_k(k);
            assert_eq!(p.max_replicas, k);
            p.validate().unwrap();
        }
    }
}
