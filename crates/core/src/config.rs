//! Search configuration shared by all CTC algorithms.

use std::hash::{Hash, Hasher};

/// How Steiner-tree truss distances (Def. 7) are evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SteinerMode {
    /// Exact Def. 7 semantics: `d̂(u,v) = min_P len(P) + γ(τ̄(∅) −
    /// min_{e∈P} τ(e))`, evaluated by sweeping trussness thresholds and
    /// BFS-ing the `τ ≥ t` subgraphs. Default.
    PathMinExact,
    /// Additive surrogate: Dijkstra with per-edge weight
    /// `1 + γ(τ̄(∅) − τ(e))`. Upper-bounds the exact distance; cheaper on
    /// graphs with many truss levels. Kept as an ablation (DESIGN.md §4).
    EdgeAdditive,
}

/// Configuration for CTC searches.
///
/// Defaults follow the paper's experiment setup: `γ = 3`, `η = 1000`
/// (§6: "we set the parameters η = 1,000 and γ = 3").
///
/// Every field can change an answer, so two configs that compare equal
/// answer every query alike, and a config is the config component of a
/// response-cache key. Equality and hashing go field by field, with γ
/// compared and hashed by its bits (`f64` is neither `Eq` nor `Hash`).
///
/// ```
/// use ctc_core::CtcConfig;
///
/// assert_eq!(CtcConfig::new(), CtcConfig::default());
/// assert_ne!(CtcConfig::new(), CtcConfig::new().gamma(5.0));
/// ```
#[derive(Clone, Debug)]
pub struct CtcConfig {
    /// Trussness penalty weight γ in the truss distance (Def. 7).
    pub gamma: f64,
    /// LCTC expansion size budget η (max vertices of `Gt`).
    pub eta: usize,
    /// Optional fixed trussness (§7.1 "trading trussness for diameter" /
    /// Fig. 14): search for a k-truss at exactly this level instead of the
    /// maximum.
    pub fixed_k: Option<u32>,
    /// Hard cap on peeling iterations (safety valve; `None` = unbounded,
    /// the paper's semantics).
    pub max_iterations: Option<usize>,
    /// Truss-distance evaluation mode for the LCTC Steiner stage.
    pub steiner_mode: SteinerMode,
}

impl Default for CtcConfig {
    fn default() -> Self {
        CtcConfig {
            gamma: 3.0,
            eta: 1000,
            fixed_k: None,
            max_iterations: None,
            steiner_mode: SteinerMode::PathMinExact,
        }
    }
}

impl CtcConfig {
    /// Starts from defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets γ.
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Sets η.
    pub fn eta(mut self, eta: usize) -> Self {
        self.eta = eta.max(1);
        self
    }

    /// Fixes the target trussness.
    pub fn fixed_k(mut self, k: u32) -> Self {
        self.fixed_k = Some(k.max(2));
        self
    }

    /// Caps peeling iterations.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = Some(n);
        self
    }

    /// Chooses the Steiner truss-distance mode.
    pub fn steiner_mode(mut self, mode: SteinerMode) -> Self {
        self.steiner_mode = mode;
        self
    }

    /// The fields equality and hashing compare, γ as its bits. The
    /// destructuring makes a new field a compile error here until it is
    /// placed in the key.
    fn key(&self) -> (u64, usize, Option<u32>, Option<usize>, SteinerMode) {
        let CtcConfig {
            gamma,
            eta,
            fixed_k,
            max_iterations,
            steiner_mode,
        } = self;
        (
            gamma.to_bits(),
            *eta,
            *fixed_k,
            *max_iterations,
            *steiner_mode,
        )
    }
}

impl PartialEq for CtcConfig {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for CtcConfig {}

impl Hash for CtcConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CtcConfig::default();
        assert_eq!(c.gamma, 3.0);
        assert_eq!(c.eta, 1000);
        assert_eq!(c.fixed_k, None);
        assert_eq!(c.steiner_mode, SteinerMode::PathMinExact);
    }

    #[test]
    fn builder_chains() {
        let c = CtcConfig::new()
            .gamma(5.0)
            .eta(0)
            .fixed_k(1)
            .max_iterations(10)
            .steiner_mode(SteinerMode::EdgeAdditive);
        assert_eq!(c.gamma, 5.0);
        assert_eq!(c.eta, 1, "eta clamps to ≥ 1");
        assert_eq!(c.fixed_k, Some(2), "k clamps to ≥ 2");
        assert_eq!(c.max_iterations, Some(10));
        assert_eq!(c.steiner_mode, SteinerMode::EdgeAdditive);
    }

    fn hash_of(c: &CtcConfig) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        c.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_and_hash_track_every_answer_knob() {
        let base = CtcConfig::default();
        // Equal configs, built two ways, are one key.
        let same = CtcConfig::new().gamma(3.0).eta(1000);
        assert_eq!(base, same);
        assert_eq!(hash_of(&base), hash_of(&same));
        // Every answer-affecting knob must change the key.
        for other in [
            CtcConfig::new().gamma(2.5),
            CtcConfig::new().eta(500),
            CtcConfig::new().fixed_k(4),
            CtcConfig::new().max_iterations(3),
            CtcConfig::new().steiner_mode(SteinerMode::EdgeAdditive),
        ] {
            assert_ne!(base, other, "{other:?}");
            assert_ne!(hash_of(&base), hash_of(&other), "{other:?}");
        }
        // γ compares by its bits, so equality stays reflexive, as `Eq`
        // requires, even for a NaN that `f64`'s `==` would reject.
        let nan = CtcConfig::new().gamma(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_ne!(CtcConfig::new().gamma(0.0), CtcConfig::new().gamma(-0.0));
    }
}
