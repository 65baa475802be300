//! Search configuration shared by all CTC algorithms.

use ctc_graph::Parallelism;

/// How Steiner-tree truss distances (Def. 7) are evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    /// Worker threads for the peel's per-source distance repairs, the
    /// only search phase that fans out (and only on graphs large enough
    /// to pay for it). Defaults to serial.
    pub parallelism: Parallelism,
}

impl Default for CtcConfig {
    fn default() -> Self {
        CtcConfig {
            gamma: 3.0,
            eta: 1000,
            fixed_k: None,
            max_iterations: None,
            steiner_mode: SteinerMode::PathMinExact,
            parallelism: Parallelism::serial(),
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

    /// Sets the worker-thread count for the peel's per-source repairs
    /// (`0` = all available cores, `1` = serial).
    pub fn threads(mut self, n: usize) -> Self {
        self.parallelism = Parallelism::threads(n);
        self
    }

    /// Sets the parallelism policy directly.
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }

    /// The answer-affecting projection of this configuration.
    ///
    /// Two configs with equal fingerprints produce identical answers for
    /// every query and algorithm, so the fingerprint is the correct
    /// config component of a response-cache key. [`CtcConfig::parallelism`]
    /// is deliberately excluded: thread count changes wall time, never
    /// answers (the workspace-wide invariant pinned by the parallel
    /// property tests).
    ///
    /// ```
    /// use ctc_core::CtcConfig;
    ///
    /// let a = CtcConfig::new().threads(8);
    /// let b = CtcConfig::new(); // serial
    /// assert_eq!(a.fingerprint(), b.fingerprint());
    /// assert_ne!(a.fingerprint(), CtcConfig::new().gamma(5.0).fingerprint());
    /// ```
    pub fn fingerprint(&self) -> ConfigFingerprint {
        ConfigFingerprint {
            gamma_bits: self.gamma.to_bits(),
            eta: self.eta,
            fixed_k: self.fixed_k,
            max_iterations: self.max_iterations,
            steiner_additive: self.steiner_mode == SteinerMode::EdgeAdditive,
        }
    }
}

/// The hashable projection of a [`CtcConfig`] onto the knobs that can
/// change a search answer. See [`CtcConfig::fingerprint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConfigFingerprint {
    /// Bit pattern of γ (f64 is not `Hash`/`Eq`; bits are).
    gamma_bits: u64,
    /// LCTC expansion budget η.
    eta: usize,
    /// Fixed target trussness, if any.
    fixed_k: Option<u32>,
    /// Peeling iteration cap, if any.
    max_iterations: Option<usize>,
    /// Whether the additive Steiner surrogate replaces the exact mode.
    steiner_additive: bool,
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
        assert!(c.parallelism.is_serial(), "parallelism is opt-in");
    }

    #[test]
    fn builder_chains() {
        let c = CtcConfig::new()
            .gamma(5.0)
            .eta(0)
            .fixed_k(1)
            .max_iterations(10)
            .steiner_mode(SteinerMode::EdgeAdditive)
            .threads(4);
        assert_eq!(c.gamma, 5.0);
        assert_eq!(c.eta, 1, "eta clamps to ≥ 1");
        assert_eq!(c.fixed_k, Some(2), "k clamps to ≥ 2");
        assert_eq!(c.max_iterations, Some(10));
        assert_eq!(c.steiner_mode, SteinerMode::EdgeAdditive);
        assert_eq!(c.parallelism.get(), 4);
        assert!(CtcConfig::new().threads(0).parallelism.get() >= 1);
        assert!(CtcConfig::new()
            .parallelism(Parallelism::serial())
            .parallelism
            .is_serial());
    }

    #[test]
    fn fingerprint_tracks_answer_knobs_only() {
        let base = CtcConfig::default();
        // Parallelism never changes answers, so it must not change the key.
        assert_eq!(
            base.fingerprint(),
            CtcConfig::new().threads(8).fingerprint()
        );
        // Every answer-affecting knob must change the key.
        assert_ne!(
            base.fingerprint(),
            CtcConfig::new().gamma(2.5).fingerprint()
        );
        assert_ne!(base.fingerprint(), CtcConfig::new().eta(500).fingerprint());
        assert_ne!(
            base.fingerprint(),
            CtcConfig::new().fixed_k(4).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            CtcConfig::new().max_iterations(3).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            CtcConfig::new()
                .steiner_mode(SteinerMode::EdgeAdditive)
                .fingerprint()
        );
    }
}
