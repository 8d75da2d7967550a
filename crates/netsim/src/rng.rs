//! Deterministic randomness and the latency distributions the behavior
//! models draw from.
//!
//! Everything in the simulator is seeded: the same seed produces the same
//! packet trace, byte for byte, which the integration tests assert. Rather
//! than pull `rand_distr`, the handful of distributions the latency models
//! need are implemented here from the runtime's xoshiro256++ stream —
//! each is a couple of lines of inverse-transform or Box–Muller sampling.
//! The generators themselves, seed derivation and per-entity unit hashing
//! live in `beware_runtime::rng`; call sites import it directly.

use beware_runtime::rng::Xoshiro256pp;

/// Build the simulator's deterministic RNG from an explicit seed.
#[inline]
pub fn seeded(seed: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(seed)
}

/// Continuous distributions over positive reals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Every sample equals `value`.
    Constant(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Exponential with the given mean (`1/rate`).
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Log-normal parameterized the way measurement papers quote it:
    /// by its median (`exp(mu)`) and shape `sigma`.
    LogNormal {
        /// Median of the distribution.
        median: f64,
        /// Shape parameter (sigma of the underlying normal).
        sigma: f64,
    },
    /// Pareto with scale (minimum) `xm` and tail index `alpha`.
    Pareto {
        /// Scale: the minimum value.
        xm: f64,
        /// Tail index; smaller is heavier.
        alpha: f64,
    },
    /// Weibull with the given scale and shape.
    Weibull {
        /// Scale parameter.
        scale: f64,
        /// Shape parameter.
        shape: f64,
    },
}

impl Dist {
    /// Draw one sample. All variants return finite, non-negative values.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        match *self {
            Dist::Constant(v) => v.max(0.0),
            Dist::Uniform { lo, hi } => {
                if hi <= lo {
                    lo.max(0.0)
                } else {
                    rng.range_f64(lo..hi).max(0.0)
                }
            }
            Dist::Exponential { mean } => {
                // Inverse transform; guard the log against u == 0.
                let u = rng.range_f64(f64::MIN_POSITIVE..1.0);
                (-u.ln() * mean).max(0.0)
            }
            Dist::LogNormal { median, sigma } => {
                (median.max(f64::MIN_POSITIVE).ln() + sigma * standard_normal(rng)).exp()
            }
            Dist::Pareto { xm, alpha } => {
                let u = rng.range_f64(f64::MIN_POSITIVE..1.0);
                xm / u.powf(1.0 / alpha.max(1e-9))
            }
            Dist::Weibull { scale, shape } => {
                let u = rng.range_f64(f64::MIN_POSITIVE..1.0);
                scale * (-u.ln()).powf(1.0 / shape.max(1e-9))
            }
        }
    }

    /// Draw a sample clamped to `[0, cap]`, for models with a physical
    /// ceiling (e.g. a satellite modem's bounded queue).
    #[inline]
    pub fn sample_capped(&self, rng: &mut Xoshiro256pp, cap: f64) -> f64 {
        self.sample(rng).min(cap)
    }
}

/// One standard normal variate via Box–Muller (the single-variate form; the
/// simulator draws rarely enough that discarding the cosine twin is fine).
#[inline]
pub fn standard_normal(rng: &mut Xoshiro256pp) -> f64 {
    let u1 = rng.range_f64(f64::MIN_POSITIVE..1.0);
    let u2 = rng.range_f64(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A Bernoulli trial.
#[inline]
pub fn coin(rng: &mut Xoshiro256pp, p: f64) -> bool {
    if p <= 0.0 {
        false
    } else if p >= 1.0 {
        true
    } else {
        rng.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beware_runtime::rng::{derive_seed, unit_hash};

    fn mean_of(dist: Dist, n: usize, seed: u64) -> f64 {
        let mut rng = seeded(seed);
        (0..n).map(|_| dist.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn determinism_across_runs() {
        let d = Dist::LogNormal { median: 1.37, sigma: 0.84 };
        let a: Vec<f64> = {
            let mut rng = seeded(42);
            (0..32).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = seeded(42);
            (0..32).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        let s1 = derive_seed(7, 1);
        let s2 = derive_seed(7, 2);
        assert_ne!(s1, s2);
        assert_eq!(derive_seed(7, 1), s1);
    }

    #[test]
    fn unit_hash_in_range_and_spread() {
        let mut lo = 0usize;
        for e in 0..10_000u64 {
            let h = unit_hash(99, e);
            assert!((0.0..1.0).contains(&h));
            if h < 0.5 {
                lo += 1;
            }
        }
        assert!((4_000..6_000).contains(&lo), "uniformity failed: {lo}");
    }

    #[test]
    fn exponential_mean_converges() {
        let m = mean_of(Dist::Exponential { mean: 3.0 }, 40_000, 1);
        assert!((m - 3.0).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn lognormal_median_converges() {
        let d = Dist::LogNormal { median: 1.37, sigma: 0.84 };
        let mut rng = seeded(5);
        let mut samples: Vec<f64> = (0..20_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[10_000];
        assert!((median - 1.37).abs() < 0.08, "median {median}");
        // The paper's wake-up fit: 90% below 4 s.
        let p90 = samples[18_000];
        assert!((3.0..5.2).contains(&p90), "p90 {p90}");
    }

    #[test]
    fn pareto_respects_scale() {
        let d = Dist::Pareto { xm: 2.0, alpha: 1.5 };
        let mut rng = seeded(9);
        for _ in 0..1_000 {
            assert!(d.sample(&mut rng) >= 2.0);
        }
    }

    #[test]
    fn weibull_shape1_is_exponential() {
        let w = mean_of(Dist::Weibull { scale: 2.0, shape: 1.0 }, 40_000, 11);
        assert!((w - 2.0).abs() < 0.1, "mean {w}");
    }

    #[test]
    fn uniform_bounds_and_degenerate() {
        let d = Dist::Uniform { lo: 1.0, hi: 2.0 };
        let mut rng = seeded(3);
        for _ in 0..100 {
            let v = d.sample(&mut rng);
            assert!((1.0..2.0).contains(&v));
        }
        assert_eq!(Dist::Uniform { lo: 5.0, hi: 5.0 }.sample(&mut rng), 5.0);
    }

    #[test]
    fn capped_sampling() {
        let d = Dist::Pareto { xm: 1.0, alpha: 0.5 };
        let mut rng = seeded(13);
        for _ in 0..1_000 {
            assert!(d.sample_capped(&mut rng, 10.0) <= 10.0);
        }
    }

    #[test]
    fn coin_edges() {
        let mut rng = seeded(17);
        assert!(!coin(&mut rng, 0.0));
        assert!(coin(&mut rng, 1.0));
        let heads = (0..10_000).filter(|_| coin(&mut rng, 0.3)).count();
        assert!((2_700..3_300).contains(&heads), "{heads}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded(23);
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
