//! Configuration of a Sprinklers switch.

use crate::error::SwitchError;
use crate::matrix::TrafficMatrix;

/// How each VOQ's stripe size is determined.
#[derive(Debug, Clone, PartialEq)]
pub enum SizingMode {
    /// Derive stripe sizes from a known traffic matrix using the paper's rule
    /// `F(r) = min(N, 2^⌈log₂(r·N²)⌉)` (Eq. (1)).  This matches the assumption
    /// of the stability analysis (§4) and is the mode used for the paper's
    /// delay simulations, where the traffic matrix is known.
    FromMatrix(TrafficMatrix),
    /// Measure each VOQ's rate online and adapt the stripe size, with
    /// hysteresis and a clearance (drain) phase before a size change takes
    /// effect (§3.3.2, §5).
    Adaptive(AdaptiveSizing),
    /// Use the same fixed stripe size for every VOQ (must be a power of two).
    /// Useful for ablations: size 1 degenerates to per-VOQ single-path
    /// routing, size N degenerates to frame-based uniform spreading.
    FixedSize(usize),
}

/// Parameters of the adaptive (measured-rate) sizing mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSizing {
    /// Measurement window in slots.
    pub window: u64,
    /// EWMA weight of the newest window, in `(0, 1]`.
    pub gamma: f64,
    /// Number of consecutive disagreeing windows required before a stripe-size
    /// change is committed (thrash damping, §3.3.2).
    pub patience: u32,
    /// Stripe size used before the first measurement window completes.
    pub initial_size: usize,
}

impl Default for AdaptiveSizing {
    fn default() -> Self {
        AdaptiveSizing {
            window: 2048,
            gamma: 0.5,
            patience: 2,
            initial_size: 1,
        }
    }
}

/// Full configuration of a Sprinklers switch.
#[derive(Debug, Clone, PartialEq)]
pub struct SprinklersConfig {
    /// Number of ports N (must be a power of two, at least 2).
    pub n: usize,
    /// Stripe sizing mode.
    pub sizing: SizingMode,
}

impl SprinklersConfig {
    /// A default configuration for an `n`-port switch: adaptive sizing.
    pub fn new(n: usize) -> Self {
        SprinklersConfig {
            n,
            sizing: SizingMode::Adaptive(AdaptiveSizing::default()),
        }
    }

    /// Set the sizing mode.
    #[must_use]
    pub fn with_sizing(mut self, sizing: SizingMode) -> Self {
        self.sizing = sizing;
        self
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), SwitchError> {
        if self.n < 2 {
            return Err(SwitchError::PortCountTooSmall { n: self.n });
        }
        if !self.n.is_power_of_two() {
            return Err(SwitchError::PortCountNotPowerOfTwo { n: self.n });
        }
        if self.n > crate::packet::MAX_PORTS {
            return Err(SwitchError::PortCountTooLarge {
                n: self.n,
                max: crate::packet::MAX_PORTS,
            });
        }
        match &self.sizing {
            SizingMode::FromMatrix(m) => {
                if m.n() != self.n {
                    return Err(SwitchError::MatrixDimensionMismatch {
                        got: m.n(),
                        expected: self.n,
                    });
                }
                for (_, _, r) in m.iter_nonzero() {
                    if !r.is_finite() || r < 0.0 {
                        return Err(SwitchError::InvalidRate { rate: r });
                    }
                }
            }
            SizingMode::FixedSize(size) => self.check_stripe_size(*size)?,
            SizingMode::Adaptive(a) => {
                if a.window == 0 {
                    return Err(SwitchError::ZeroWindow);
                }
                if !(a.gamma > 0.0 && a.gamma <= 1.0) {
                    return Err(SwitchError::InvalidRate { rate: a.gamma });
                }
                self.check_stripe_size(a.initial_size)?;
            }
        }
        Ok(())
    }

    /// A stripe size must be a power of two no larger than the switch.
    fn check_stripe_size(&self, size: usize) -> Result<(), SwitchError> {
        if size.is_power_of_two() && size <= self.n {
            Ok(())
        } else {
            Err(SwitchError::StripeSizeOutOfRange { size, n: self.n })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(SprinklersConfig::new(32).validate().is_ok());
    }

    #[test]
    fn non_power_of_two_is_rejected() {
        assert!(matches!(
            SprinklersConfig::new(12).validate(),
            Err(SwitchError::PortCountNotPowerOfTwo { n: 12 })
        ));
    }

    #[test]
    fn too_small_switch_is_rejected() {
        assert!(matches!(
            SprinklersConfig::new(1).validate(),
            Err(SwitchError::PortCountTooSmall { n: 1 })
        ));
    }

    #[test]
    fn matrix_dimension_must_match() {
        let cfg = SprinklersConfig::new(8)
            .with_sizing(SizingMode::FromMatrix(TrafficMatrix::uniform(16, 0.5)));
        assert!(matches!(
            cfg.validate(),
            Err(SwitchError::MatrixDimensionMismatch {
                got: 16,
                expected: 8
            })
        ));
    }

    #[test]
    fn fixed_size_must_be_power_of_two_within_n() {
        let cfg = SprinklersConfig::new(8).with_sizing(SizingMode::FixedSize(3));
        assert!(cfg.validate().is_err());
        let cfg = SprinklersConfig::new(8).with_sizing(SizingMode::FixedSize(16));
        assert!(cfg.validate().is_err());
        let cfg = SprinklersConfig::new(8).with_sizing(SizingMode::FixedSize(4));
        assert!(cfg.validate().is_ok());
    }

    /// A stripe wider than the switch is named as such, not as a bad port
    /// count (the switch size is fine).
    #[test]
    fn oversized_fixed_stripe_names_the_stripe_and_the_switch() {
        for size in [0, 3, 64] {
            let cfg = SprinklersConfig::new(32).with_sizing(SizingMode::FixedSize(size));
            assert_eq!(
                cfg.validate(),
                Err(SwitchError::StripeSizeOutOfRange { size, n: 32 })
            );
        }
        let message = SprinklersConfig::new(32)
            .with_sizing(SizingMode::FixedSize(64))
            .validate()
            .unwrap_err()
            .to_string();
        assert!(message.contains("stripe size 64"), "{message}");
    }

    #[test]
    fn zero_adaptive_window_is_its_own_error() {
        let cfg = SprinklersConfig::new(8).with_sizing(SizingMode::Adaptive(AdaptiveSizing {
            window: 0,
            ..Default::default()
        }));
        assert_eq!(cfg.validate(), Err(SwitchError::ZeroWindow));
        assert!(!cfg.validate().unwrap_err().to_string().contains("rate"));
    }

    /// An initial size the VOQs cannot take is a configuration error, not a
    /// panic in the constructor.
    #[test]
    fn adaptive_initial_size_must_be_a_power_of_two_within_n() {
        for size in [0, 3, 16] {
            let cfg = SprinklersConfig::new(8).with_sizing(SizingMode::Adaptive(AdaptiveSizing {
                initial_size: size,
                ..Default::default()
            }));
            assert_eq!(
                cfg.validate(),
                Err(SwitchError::StripeSizeOutOfRange { size, n: 8 })
            );
            assert!(crate::SprinklersSwitch::try_new(cfg, 1).is_err());
        }
        for size in [1, 2, 8] {
            let cfg = SprinklersConfig::new(8).with_sizing(SizingMode::Adaptive(AdaptiveSizing {
                initial_size: size,
                ..Default::default()
            }));
            assert!(cfg.validate().is_ok());
        }
    }

    #[test]
    fn adaptive_parameters_are_validated() {
        let cfg = SprinklersConfig::new(8).with_sizing(SizingMode::Adaptive(AdaptiveSizing {
            window: 0,
            ..Default::default()
        }));
        assert!(cfg.validate().is_err());
        let cfg = SprinklersConfig::new(8).with_sizing(SizingMode::Adaptive(AdaptiveSizing {
            gamma: 1.5,
            ..Default::default()
        }));
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builder_methods_set_fields() {
        let cfg = SprinklersConfig::new(16).with_sizing(SizingMode::FixedSize(4));
        assert_eq!(cfg.sizing, SizingMode::FixedSize(4));
    }
}
