//! Error types for switch construction and configuration.

use std::fmt;

/// Errors that can arise when constructing or configuring a switch.
#[derive(Debug, Clone, PartialEq)]
pub enum SwitchError {
    /// The requested port count is not a power of two.
    ///
    /// The Sprinklers design requires `N` to be a power of two so that every
    /// stripe interval can be a dyadic interval (§3.1).
    PortCountNotPowerOfTwo {
        /// The offending port count.
        n: usize,
    },
    /// The requested port count is zero or too small to be meaningful.
    PortCountTooSmall {
        /// The offending port count.
        n: usize,
    },
    /// The requested port count exceeds what the compact [`Packet`] routing
    /// fields can address (see [`crate::packet::MAX_PORTS`]).
    ///
    /// [`Packet`]: crate::packet::Packet
    PortCountTooLarge {
        /// The offending port count.
        n: usize,
        /// The largest supported port count.
        max: usize,
    },
    /// A packet referenced a port index outside `0..N`.
    PortOutOfRange {
        /// The offending port index.
        port: usize,
        /// The switch size.
        n: usize,
    },
    /// A traffic matrix had the wrong dimensions for the switch.
    MatrixDimensionMismatch {
        /// Dimension of the supplied matrix.
        got: usize,
        /// Dimension required by the switch.
        expected: usize,
    },
    /// A rate was negative or otherwise not a valid probability/rate.
    InvalidRate {
        /// The offending rate.
        rate: f64,
    },
    /// A stripe size was not a power of two in `1..=n`.
    StripeSizeOutOfRange {
        /// The offending stripe size.
        size: usize,
        /// The switch size, the largest stripe there is.
        n: usize,
    },
    /// An adaptive measurement window of zero slots.
    ZeroWindow,
}

impl fmt::Display for SwitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchError::PortCountNotPowerOfTwo { n } => {
                write!(f, "switch size {n} is not a power of two")
            }
            SwitchError::PortCountTooSmall { n } => {
                write!(f, "switch size {n} is too small (need at least 2 ports)")
            }
            SwitchError::PortCountTooLarge { n, max } => {
                write!(
                    f,
                    "switch size {n} exceeds the {max}-port bound of the compact packet layout"
                )
            }
            SwitchError::PortOutOfRange { port, n } => {
                write!(
                    f,
                    "port index {port} is out of range for an {n}-port switch"
                )
            }
            SwitchError::MatrixDimensionMismatch { got, expected } => {
                write!(
                    f,
                    "traffic matrix is {got}x{got} but the switch has {expected} ports"
                )
            }
            SwitchError::InvalidRate { rate } => {
                write!(f, "rate {rate} is not a valid non-negative finite rate")
            }
            SwitchError::StripeSizeOutOfRange { size, n } => {
                write!(f, "stripe size {size} is not a power of two in 1..={n}")
            }
            SwitchError::ZeroWindow => {
                write!(
                    f,
                    "the adaptive measurement window must be at least one slot"
                )
            }
        }
    }
}

impl std::error::Error for SwitchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SwitchError::PortCountNotPowerOfTwo { n: 12 };
        assert!(e.to_string().contains("12"));
        let e = SwitchError::PortOutOfRange { port: 9, n: 8 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('8'));
        let e = SwitchError::MatrixDimensionMismatch {
            got: 4,
            expected: 8,
        };
        assert!(e.to_string().contains('4'));
        let e = SwitchError::InvalidRate { rate: -1.0 };
        assert!(e.to_string().contains("-1"));
        let e = SwitchError::StripeSizeOutOfRange { size: 64, n: 32 };
        assert!(e.to_string().contains("stripe size 64"));
        assert!(e.to_string().contains("32"));
        let e = SwitchError::PortCountTooSmall { n: 0 };
        assert!(e.to_string().contains('0'));
        let e = SwitchError::PortCountTooLarge {
            n: 1 << 20,
            max: 65535,
        };
        assert!(e.to_string().contains("1048576"));
        assert!(e.to_string().contains("65535"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>() {}
        assert_error::<SwitchError>();
    }
}
