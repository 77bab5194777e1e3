//! Experiment harness: regenerates every table and figure of the paper.
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Table 1 (overload probability bounds) | [`experiments::table1_csv`] | `table1` |
//! | Figure 5 (intermediate-stage delay vs N) | [`experiments::figure5_csv`] | `figure5` |
//! | Figure 6 (delay vs load, uniform traffic) | [`experiments::figure_cases`] | `figure6` |
//! | Figure 7 (delay vs load, diagonal traffic) | [`experiments::figure_cases`] | `figure7` |
//! | Ablation: stripe sizing policy | [`experiments::ablation_sizing_cases`] | `ablation_sizing` |
//! | Any scheme × traffic × size (JSON `ScenarioSpec`) | — | `scenario` |
//! | A directory of specs × scheme/load overrides, run in parallel | — | `suite` |
//! | Record, inspect and convert arrival traces | — | `trace` |
//!
//! Each table, figure and ablation binary prints a CSV to stdout; all but
//! `table1` take `--quick` for a reduced-size run (CI checks the paper's
//! qualitative claims on the quick Figure 6 and 7 grids).  Figures 6 and 7
//! and the ablation print the `suite` CSV of base `ScenarioSpec`s crossed
//! with schemes and loads (case names like `figure6+ufs@0.1`), so the
//! binaries and external spec files all describe runs the same way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod cli;
pub mod experiments;
