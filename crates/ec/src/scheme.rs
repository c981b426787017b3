//! The per-dataset redundancy choice and its storage/read arithmetic.
//!
//! A [`RedundancyScheme`] answers four questions every layer above asks:
//! how many distinct nodes may hold a piece (`slots`), how many must be
//! live for a read (`min_read`), how big each stored piece is
//! (`shard_gb`), and whether serving a read requires a decode
//! (`needs_decode`). Replication stores `k` full copies; erasure coding
//! stripes the dataset into `k` data shards plus `m` parity shards, each
//! `|S|/k` GB, reconstructable from *any* `k` of the `k + m`.

/// Why a scheme failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeError {
    /// `Replication { k: 0 }` — at least one copy is required.
    ZeroCopies,
    /// `ErasureCoded { k: 0, .. }` — at least one data shard is required.
    ZeroDataShards,
}

impl std::fmt::Display for SchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeError::ZeroCopies => write!(f, "replication needs k >= 1 copies"),
            SchemeError::ZeroDataShards => write!(f, "erasure coding needs k >= 1 data shards"),
        }
    }
}

impl std::error::Error for SchemeError {}

/// How a dataset's bytes are made redundant across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedundancyScheme {
    /// Up to `k` full copies; any single live copy serves a read.
    Replication {
        /// Maximum number of full replicas (the paper's `K`).
        k: usize,
    },
    /// `k` data + `m` parity shards of `|S|/k` GB each; any `k` live
    /// shards reconstruct the dataset (decode cost applies when `k ≥ 2`).
    ErasureCoded {
        /// Data shards (stripe width).
        k: usize,
        /// Parity shards (loss tolerance).
        m: usize,
    },
}

impl RedundancyScheme {
    /// Validated replication with `k` copies.
    pub fn replication(k: usize) -> Result<Self, SchemeError> {
        let s = RedundancyScheme::Replication { k };
        s.validate().map(|()| s)
    }

    /// Validated `(k, m)` erasure coding.
    pub fn erasure(k: usize, m: usize) -> Result<Self, SchemeError> {
        let s = RedundancyScheme::ErasureCoded { k, m };
        s.validate().map(|()| s)
    }

    /// Checks the shard counts are usable.
    pub fn validate(&self) -> Result<(), SchemeError> {
        match *self {
            RedundancyScheme::Replication { k: 0 } => Err(SchemeError::ZeroCopies),
            RedundancyScheme::ErasureCoded { k: 0, .. } => Err(SchemeError::ZeroDataShards),
            _ => Ok(()),
        }
    }

    /// Maximum number of distinct holder nodes: `k` copies, or `k + m`
    /// shards. This replaces the paper's uniform replica budget `K` in
    /// every per-dataset budget check.
    pub fn slots(&self) -> usize {
        match *self {
            RedundancyScheme::Replication { k } => k,
            RedundancyScheme::ErasureCoded { k, m } => k + m,
        }
    }

    /// How many distinct live holders a read needs: 1 copy, or `k`
    /// shards.
    pub fn min_read(&self) -> usize {
        match *self {
            RedundancyScheme::Replication { .. } => 1,
            RedundancyScheme::ErasureCoded { k, .. } => k,
        }
    }

    /// Whether serving a read pays a gather + decode step. `k = 1`
    /// erasure coding stores whole-dataset "shards", so it reads exactly
    /// like replication — the degenerate case the equivalence pins test.
    pub fn needs_decode(&self) -> bool {
        matches!(*self, RedundancyScheme::ErasureCoded { k, .. } if k >= 2)
    }

    /// Fraction of the dataset each holder stores: 1 per copy, `1/k` per
    /// shard.
    pub fn stored_fraction(&self) -> f64 {
        match *self {
            RedundancyScheme::Replication { .. } => 1.0,
            RedundancyScheme::ErasureCoded { k, .. } => 1.0 / k as f64,
        }
    }

    /// GB stored by one holder of a `size_gb` dataset.
    pub fn shard_gb(&self, size_gb: f64) -> f64 {
        size_gb * self.stored_fraction()
    }

    /// GB stored across all `slots` holders when fully placed — the
    /// storage the ext-ec figure trades against admitted volume:
    /// `3 × |S|` for `Replication{3}` vs `1.5 × |S|` for `EC(4, 2)`.
    pub fn full_storage_gb(&self, size_gb: f64) -> f64 {
        self.slots() as f64 * self.shard_gb(size_gb)
    }

    /// Storage overhead factor relative to one copy
    /// (`full_storage_gb / size_gb`): `k` for replication, `(k + m)/k`
    /// for erasure coding.
    pub fn storage_overhead(&self) -> f64 {
        self.slots() as f64 * self.stored_fraction()
    }

    /// How many holder losses a fully placed dataset tolerates while
    /// staying readable: `k − 1` copies, or `m` shards.
    pub fn loss_tolerance(&self) -> usize {
        self.slots() - self.min_read()
    }

    /// Stable human label used in figure arm names and trace fields:
    /// `rep(3)`, `ec(4,2)`.
    pub fn label(&self) -> String {
        match *self {
            RedundancyScheme::Replication { k } => format!("rep({k})"),
            RedundancyScheme::ErasureCoded { k, m } => format!("ec({k},{m})"),
        }
    }

    /// Parses the [`label`](Self::label) forms plus the CLI shorthands
    /// `rep3` and `ec4+2`.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        if let Some(rest) = s.strip_prefix("rep") {
            let digits = rest.trim_start_matches('(').trim_end_matches(')').trim();
            let k: usize = digits.parse().ok()?;
            return RedundancyScheme::replication(k).ok();
        }
        if let Some(rest) = s.strip_prefix("ec") {
            let body = rest.trim_start_matches('(').trim_end_matches(')').trim();
            let (ks, ms) = body.split_once(['+', ','])?;
            let k: usize = ks.trim().parse().ok()?;
            let m: usize = ms.trim().parse().ok()?;
            return RedundancyScheme::erasure(k, m).ok();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate() {
        assert_eq!(
            RedundancyScheme::replication(0).unwrap_err(),
            SchemeError::ZeroCopies
        );
        assert_eq!(
            RedundancyScheme::erasure(0, 2).unwrap_err(),
            SchemeError::ZeroDataShards
        );
        assert!(RedundancyScheme::replication(1).is_ok());
        assert!(RedundancyScheme::erasure(1, 0).is_ok());
        assert!(RedundancyScheme::erasure(8, 3).is_ok());
    }

    #[test]
    fn replication_arithmetic() {
        let r3 = RedundancyScheme::replication(3).unwrap();
        assert_eq!(r3.slots(), 3);
        assert_eq!(r3.min_read(), 1);
        assert!(!r3.needs_decode());
        assert_eq!(r3.stored_fraction(), 1.0);
        assert_eq!(r3.shard_gb(6.0), 6.0);
        assert_eq!(r3.full_storage_gb(6.0), 18.0);
        assert_eq!(r3.storage_overhead(), 3.0);
        assert_eq!(r3.loss_tolerance(), 2);
        assert_eq!(r3.label(), "rep(3)");
    }

    #[test]
    fn erasure_arithmetic() {
        let ec = RedundancyScheme::erasure(4, 2).unwrap();
        assert_eq!(ec.slots(), 6);
        assert_eq!(ec.min_read(), 4);
        assert!(ec.needs_decode());
        assert_eq!(ec.stored_fraction(), 0.25);
        assert_eq!(ec.shard_gb(6.0), 1.5);
        assert_eq!(ec.full_storage_gb(6.0), 9.0);
        assert_eq!(ec.storage_overhead(), 1.5);
        assert_eq!(ec.loss_tolerance(), 2);
        assert_eq!(ec.label(), "ec(4,2)");
    }

    #[test]
    fn ec_saves_storage_at_equal_loss_tolerance() {
        // The snippet numbers: 3× replication vs 1.5× EC(4+2), both
        // tolerating two losses.
        let rep = RedundancyScheme::replication(3).unwrap();
        let ec = RedundancyScheme::erasure(4, 2).unwrap();
        assert_eq!(rep.loss_tolerance(), ec.loss_tolerance());
        assert!(ec.storage_overhead() < rep.storage_overhead());
    }

    #[test]
    fn k1_erasure_degenerates_to_replication() {
        // EC{1, m} must be indistinguishable from Replication{1 + m} in
        // every quantity the placement and delay layers read — the basis
        // of the byte-identity equivalence pins.
        for m in 0..4 {
            let ec = RedundancyScheme::erasure(1, m).unwrap();
            let rep = RedundancyScheme::replication(1 + m).unwrap();
            assert_eq!(ec.slots(), rep.slots());
            assert_eq!(ec.min_read(), rep.min_read());
            assert_eq!(ec.needs_decode(), rep.needs_decode());
            assert_eq!(
                ec.stored_fraction().to_bits(),
                rep.stored_fraction().to_bits()
            );
            assert_eq!(ec.shard_gb(4.7).to_bits(), rep.shard_gb(4.7).to_bits());
            assert_eq!(ec.loss_tolerance(), rep.loss_tolerance());
        }
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for s in [
            RedundancyScheme::Replication { k: 3 },
            RedundancyScheme::ErasureCoded { k: 4, m: 2 },
            RedundancyScheme::ErasureCoded { k: 8, m: 3 },
        ] {
            assert_eq!(RedundancyScheme::parse(&s.label()), Some(s));
        }
        assert_eq!(
            RedundancyScheme::parse("rep3"),
            Some(RedundancyScheme::Replication { k: 3 })
        );
        assert_eq!(
            RedundancyScheme::parse("ec4+2"),
            Some(RedundancyScheme::ErasureCoded { k: 4, m: 2 })
        );
        assert_eq!(RedundancyScheme::parse("ec0+2"), None);
        assert_eq!(RedundancyScheme::parse("rep0"), None);
        assert_eq!(RedundancyScheme::parse("raid5"), None);
        assert_eq!(RedundancyScheme::parse("ec"), None);
    }
}
