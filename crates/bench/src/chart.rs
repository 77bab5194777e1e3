//! Minimal ASCII charting for the figure binaries.
//!
//! The paper's Figures 6 and 7 are log-scale delay-vs-load plots with one
//! series per scheme.  The figure binaries print CSV for downstream plotting,
//! but also render a quick ASCII version of the same chart so the shape can
//! be eyeballed straight from the terminal (who wins, by how much, where the
//! curves cross) without any external tooling.

use sprinklers_sim::report::SimReport;
use sprinklers_sim::spec::SuiteCase;
use std::collections::BTreeMap;

/// One named series of (x, y) points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Points, sorted by x.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create a series, sorting the points by x.
    pub fn new(label: impl Into<String>, mut points: Vec<(f64, f64)>) -> Self {
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("x values must not be NaN"));
        Series {
            label: label.into(),
            points,
        }
    }
}

/// Render a log10-y ASCII chart of several series.
///
/// Each series is drawn with its own marker character; collisions show the
/// marker of the later series.  Returns a multi-line string.
pub fn log_y_chart(series: &[Series], width: usize, height: usize) -> String {
    assert!(width >= 16 && height >= 4, "chart must be at least 16x4");
    let markers = ['S', 'U', 'F', 'P', 'L', 'x', 'o', '*', '+'];
    let all_points: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .filter(|&(_, y)| y > 0.0 && y.is_finite())
        .collect();
    if all_points.is_empty() {
        return String::from("(no data)\n");
    }
    let x_min = all_points.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let x_max = all_points
        .iter()
        .map(|p| p.0)
        .fold(f64::NEG_INFINITY, f64::max);
    let y_min = all_points
        .iter()
        .map(|p| p.1.log10())
        .fold(f64::INFINITY, f64::min);
    let y_max = all_points
        .iter()
        .map(|p| p.1.log10())
        .fold(f64::NEG_INFINITY, f64::max);
    let x_span = (x_max - x_min).max(1e-9);
    let y_span = (y_max - y_min).max(1e-9);

    let mut grid: BTreeMap<(usize, usize), char> = BTreeMap::new();
    for (si, s) in series.iter().enumerate() {
        let marker = markers[si % markers.len()];
        for &(x, y) in &s.points {
            if y <= 0.0 || !y.is_finite() {
                continue;
            }
            let col = (((x - x_min) / x_span) * (width - 1) as f64).round() as usize;
            let row = (((y.log10() - y_min) / y_span) * (height - 1) as f64).round() as usize;
            grid.insert((height - 1 - row, col), marker);
        }
    }

    let mut out = String::new();
    for r in 0..height {
        // y-axis label: the log10 value at this row.
        let log_y = y_max - (r as f64 / (height - 1) as f64) * y_span;
        out.push_str(&format!("{:>8.1} |", 10f64.powf(log_y)));
        for c in 0..width {
            out.push(*grid.get(&(r, c)).unwrap_or(&' '));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:>8} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>9}{:<width$.2}{:>8.2}\n",
        "",
        x_min,
        x_max,
        width = width - 4
    ));
    out.push_str("legend: ");
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("{}={} ", markers[si % markers.len()], s.label));
    }
    out.push('\n');
    out
}

/// Group a delay-vs-load grid into chart series, one per scheme: each
/// case's offered load against its report's mean delay.
pub fn points_to_series(cases: &[SuiteCase], reports: &[SimReport]) -> Vec<Series> {
    let mut by_scheme: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
    for (case, report) in cases.iter().zip(reports) {
        by_scheme
            .entry(&case.spec.scheme)
            .or_default()
            .push((case.spec.traffic.load(), report.delay.mean().max(1.0)));
    }
    by_scheme
        .into_iter()
        .map(|(label, pts)| Series::new(label, pts))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_contains_every_series_marker_and_label() {
        let s1 = Series::new("sprinklers", vec![(0.1, 10.0), (0.5, 20.0), (0.9, 100.0)]);
        let s2 = Series::new("ufs", vec![(0.1, 5000.0), (0.5, 800.0), (0.9, 200.0)]);
        let chart = log_y_chart(&[s1, s2], 40, 10);
        assert!(chart.contains('S'));
        assert!(chart.contains('U'));
        assert!(chart.contains("sprinklers"));
        assert!(chart.contains("ufs"));
        assert!(chart.lines().count() > 10);
    }

    #[test]
    fn series_points_are_sorted_by_x() {
        let s = Series::new("a", vec![(0.9, 1.0), (0.1, 2.0), (0.5, 3.0)]);
        assert_eq!(s.points[0].0, 0.1);
        assert_eq!(s.points[2].0, 0.9);
    }

    #[test]
    fn empty_input_renders_a_placeholder() {
        assert_eq!(log_y_chart(&[], 40, 10), "(no data)\n");
        let s = Series::new("a", vec![(0.5, f64::NAN)]);
        assert_eq!(log_y_chart(&[s], 40, 10), "(no data)\n");
    }

    #[test]
    #[should_panic]
    fn tiny_charts_are_rejected() {
        let s = Series::new("a", vec![(0.1, 1.0)]);
        let _ = log_y_chart(&[s], 4, 2);
    }

    #[test]
    fn higher_y_values_appear_on_higher_rows() {
        let s = Series::new("a", vec![(0.0, 1.0), (1.0, 1000.0)]);
        let chart = log_y_chart(&[s], 20, 8);
        let lines: Vec<&str> = chart.lines().collect();
        // The high-value point (x = 1.0) must appear on an earlier (higher)
        // line than the low-value point (x = 0.0).
        let row_of = |col_predicate: fn(usize) -> bool| {
            lines
                .iter()
                .position(|l| {
                    l.char_indices()
                        .any(|(i, ch)| ch == 'S' && col_predicate(i))
                })
                .unwrap()
        };
        let high_row = row_of(|i| i > 20);
        let low_row = row_of(|i| i <= 20);
        assert!(high_row < low_row);
    }
}
