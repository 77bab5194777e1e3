//! The scheme registry: build any switch in the workspace by name.
//!
//! Every scheme — Sprinklers with its adaptive-sizing variant and all six
//! baselines — registers here under a stable string key, so sweeps, bench
//! binaries, examples and tests construct switches the same way: from a
//! name plus the traffic generator's rate matrix to a `Box<dyn Switch>`,
//! which the blanket `impl Switch for Box<T>` lets the engine drive through
//! the sink-based `step_batch` path with no special cases — the same path a
//! fabric of these switches takes.

use crate::spec::{SizingSpec, SpecError};
use sprinklers_baselines::padded_frames::PaddedFrames;
use sprinklers_baselines::{
    BaselineLbSwitch, FoffSwitch, NewSwitch, NewSwitchWith, OutputQueuedSwitch, PaddedFramesSwitch,
    TcpHashSwitch, UfsSwitch,
};
use sprinklers_core::config::{SizingMode, SprinklersConfig};
use sprinklers_core::matrix::TrafficMatrix;
use sprinklers_core::packet::MAX_PORTS;
use sprinklers_core::sprinklers::SprinklersSwitch;
use sprinklers_core::switch::Switch;

/// Every scheme the registry can build: Sprinklers (plus its adaptive-sizing
/// variant) and the six baselines.
pub const SCHEMES: [&str; 8] = [
    "sprinklers",
    "sprinklers-adaptive",
    "oq",
    "baseline-lb",
    "ufs",
    "foff",
    "padded-frames",
    "tcp-hash",
];

/// The registered scheme names.
pub fn schemes() -> &'static [&'static str] {
    &SCHEMES
}

/// The schemes that guarantee per-VOQ in-order delivery: every scheme but
/// `baseline-lb` and `tcp-hash`.
pub const ORDERED_SCHEMES: [&str; 6] = [
    "sprinklers",
    "sprinklers-adaptive",
    "oq",
    "ufs",
    "foff",
    "padded-frames",
];

/// True if `scheme` promises per-VOQ in-order delivery.
pub fn is_reordering_free(scheme: &str) -> bool {
    ORDERED_SCHEMES.contains(&scheme)
}

/// Build a switch by name.  The sizing spec applies to the Sprinklers
/// variants; `Matrix` sizing uses `matrix`, the rate matrix of the
/// scenario's traffic generator, exactly as the paper's evaluation assumes
/// the matrix is known a priori.
pub fn build_named(
    scheme: &str,
    n: usize,
    sizing: &SizingSpec,
    matrix: &TrafficMatrix,
    seed: u64,
) -> Result<Box<dyn Switch>, SpecError> {
    if n < 2 {
        return Err(SpecError::new(format!(
            "port count n must be at least 2 (got {n})"
        )));
    }
    // Oversized switches would trip `assert_ports_fit` inside the
    // constructors (a panic); reject them here as a typed spec error.
    if n > MAX_PORTS {
        return Err(SpecError::new(format!(
            "port count n must be at most {MAX_PORTS} (got {n})"
        )));
    }
    let sprinklers_sizing = || -> SizingMode {
        match *sizing {
            SizingSpec::Matrix => SizingMode::FromMatrix(matrix.clone()),
            SizingSpec::Adaptive => SprinklersConfig::new(n).sizing,
            SizingSpec::Fixed(size) => SizingMode::FixedSize(size),
        }
    };
    // Sprinklers constructors validate the config (power-of-two port count,
    // sane stripe bounds); surface that as a spec error, not a panic.
    let sprinklers = |config: SprinklersConfig| -> Result<Box<dyn Switch>, SpecError> {
        SprinklersSwitch::try_new(config, seed)
            .map(|s| Box::new(s) as Box<dyn Switch>)
            .map_err(|e| SpecError::new(format!("invalid '{scheme}' configuration: {e}")))
    };
    let switch: Box<dyn Switch> = match scheme {
        "sprinklers" => sprinklers(SprinklersConfig::new(n).with_sizing(sprinklers_sizing()))?,
        "sprinklers-adaptive" => sprinklers(SprinklersConfig::new(n))?,
        "oq" => Box::new(OutputQueuedSwitch::new(n)),
        "baseline-lb" => Box::new(BaselineLbSwitch::new(n)),
        "ufs" => Box::new(UfsSwitch::new(n)),
        "foff" => Box::new(FoffSwitch::new(n)),
        "padded-frames" => Box::new(PaddedFramesSwitch::new(
            n,
            PaddedFrames::default_threshold(n),
        )),
        "tcp-hash" => Box::new(TcpHashSwitch::new(n, seed)),
        other => {
            return Err(SpecError::new(format!(
                "unknown scheme '{other}' (known: {})",
                SCHEMES.join(", ")
            )))
        }
    };
    Ok(switch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    #[test]
    fn registry_lists_sprinklers_and_six_baselines() {
        assert!(schemes().len() >= 7);
        assert!(schemes().contains(&"sprinklers"));
        for baseline in [
            "oq",
            "baseline-lb",
            "ufs",
            "foff",
            "padded-frames",
            "tcp-hash",
        ] {
            assert!(schemes().contains(&baseline), "missing baseline {baseline}");
        }
    }

    #[test]
    fn every_registered_scheme_builds() {
        let matrix = TrafficMatrix::uniform(8, 0.5);
        for scheme in schemes() {
            let sw = build_named(scheme, 8, &SizingSpec::Matrix, &matrix, 3).unwrap();
            assert_eq!(sw.n(), 8, "scheme {scheme}");
            assert!(!sw.name().is_empty());
        }
    }

    #[test]
    fn build_resolves_a_spec() {
        let spec = ScenarioSpec::new("padded-frames", 16);
        let matrix = spec.build_traffic().unwrap().rate_matrix();
        let sw = build_named(&spec.scheme, spec.n, &spec.sizing, &matrix, spec.seed).unwrap();
        assert_eq!(sw.name(), "padded-frames");
        assert_eq!(sw.n(), 16);
    }

    #[test]
    fn degenerate_and_oversized_port_counts_are_typed_errors() {
        let matrix = TrafficMatrix::uniform(2, 0.5);
        for n in [0, 1, MAX_PORTS + 1] {
            for scheme in schemes() {
                let result = build_named(scheme, n, &SizingSpec::Matrix, &matrix, 1);
                assert!(result.is_err(), "scheme {scheme} accepted n={n}");
            }
        }
    }

    #[test]
    fn unknown_scheme_is_a_spec_error() {
        // The last two names were registered ablations once: a spec that
        // still names one fails like any other unknown name.
        let matrix = TrafficMatrix::uniform(8, 0.5);
        for scheme in ["does-not-exist", "sprinklers-aligned", "sprinklers-rowscan"] {
            let err = build_named(scheme, 8, &SizingSpec::Matrix, &matrix, 1)
                .err()
                .expect("unknown scheme must not build");
            assert!(err.to_string().contains(scheme));
            assert!(err.to_string().contains("sprinklers"));
        }
    }

    #[test]
    fn sizing_spec_reaches_the_sprinklers_config() {
        let matrix = TrafficMatrix::uniform(8, 0.5);
        let sw = build_named("sprinklers", 8, &SizingSpec::Fixed(4), &matrix, 1).unwrap();
        assert_eq!(sw.name(), "sprinklers");
        // Boxed switches still expose stats through the blanket impl.
        assert_eq!(sw.stats().total_arrivals, 0);
    }

    #[test]
    fn ordered_schemes_is_a_subset_of_schemes() {
        for s in ORDERED_SCHEMES {
            assert!(SCHEMES.contains(&s));
        }
        assert!(is_reordering_free("sprinklers"));
        assert!(!is_reordering_free("baseline-lb"));
        assert!(!is_reordering_free("tcp-hash"));
    }
}
