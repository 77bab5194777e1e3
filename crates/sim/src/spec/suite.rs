//! Suites: a directory of spec files crossed with scheme and load
//! overrides.

use super::{ScenarioSpec, SpecError};
use std::path::Path;

/// A suite of scenarios: a directory of [`ScenarioSpec`] JSON files, plus
/// optional scheme and load grid overrides that cross every base spec.
///
/// A suite is the unit the `suite` binary executes: the directory provides
/// the base scenarios (sorted by file name, so expansion order — and
/// therefore the merged CSV — is deterministic), and the overrides turn each
/// base spec into a scheme × load grid, which is exactly the shape of the
/// paper's figure experiments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SuiteSpec {
    /// Directory containing the `*.json` scenario files.
    pub dir: std::path::PathBuf,
    /// When set, each base spec is re-run once per scheme name, overriding
    /// the spec's own scheme.
    pub schemes: Option<Vec<String>>,
    /// When set, each (spec, scheme) pair is re-run once per load,
    /// overriding the spec traffic's load.
    pub loads: Option<Vec<f64>>,
}

/// One expanded member of a suite: a stable name (file stem plus any
/// override suffixes) and the fully resolved spec to run.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteCase {
    /// Deterministic case label, e.g. `smoke_uniform+foff@0.80`.
    pub name: String,
    /// The resolved scenario.
    pub spec: ScenarioSpec,
}

impl SuiteSpec {
    /// A suite over `dir` with no overrides.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Self {
        SuiteSpec {
            dir: dir.into(),
            schemes: None,
            loads: None,
        }
    }

    /// Cross every base spec with these scheme names.
    #[must_use]
    pub fn with_schemes(mut self, schemes: Vec<String>) -> Self {
        self.schemes = Some(schemes);
        self
    }

    /// Cross every (spec, scheme) pair with these offered loads.
    #[must_use]
    pub fn with_loads(mut self, loads: Vec<f64>) -> Self {
        self.loads = Some(loads);
        self
    }

    /// Read and parse every `*.json` file under the suite directory
    /// (recursively; sorted by full path) and expand the scheme/load
    /// overrides into the full case list.  Errors carry the offending
    /// file's path as context.
    ///
    /// Case names are file *stems*, so two spec files with the same stem in
    /// different subdirectories would silently share one merged-CSV case
    /// label; that collision is detected here and reported as a typed error
    /// naming both paths.  A scheme or load given twice in the overrides
    /// would run every case twice under one label, and is an error too.
    pub fn load_cases(&self) -> Result<Vec<SuiteCase>, SpecError> {
        if let Some(scheme) = first_repeat(self.schemes.as_deref().unwrap_or_default()) {
            return Err(SpecError::new(format!(
                "the scheme overrides (--schemes) name '{scheme}' twice: every \
                 case would run twice under one label"
            )));
        }
        // Loads compare as numbers, so `0.3` and `0.30` are one load.
        if let Some(load) = first_repeat(self.loads.as_deref().unwrap_or_default()) {
            return Err(SpecError::new(format!(
                "the load overrides (--loads) give load {load} twice: every \
                 case would run twice under one label"
            )));
        }
        let mut paths: Vec<std::path::PathBuf> = Vec::new();
        collect_spec_paths(&self.dir, &mut paths)?;
        paths.sort();
        if paths.is_empty() {
            return Err(SpecError::new(format!(
                "no *.json scenario specs in {}",
                self.dir.display()
            )));
        }
        let mut stems: Vec<(String, &std::path::PathBuf)> = Vec::new();
        let mut cases = Vec::new();
        for path in &paths {
            let text = std::fs::read_to_string(path)
                .map_err(|e| SpecError::new(format!("cannot read {}: {e}", path.display())))?;
            let mut base = ScenarioSpec::from_json(&text)
                .map_err(|e| e.context(format!("spec file {}", path.display())))?;
            // Trace paths in suite members are relative to the spec file.
            base.rebase_paths(path.parent().unwrap_or_else(|| Path::new("")));
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "spec".to_string());
            // The stem becomes the merged CSV's leading `case` column
            // verbatim; a comma or newline in it would silently splice extra
            // columns or rows into every downstream consumer.  Reject at
            // load time with a typed error instead.
            if stem.contains(',') || stem.contains('\n') || stem.contains('\r') {
                return Err(SpecError::new(format!(
                    "spec file name '{}' contains a comma or newline; case names \
                     form the merged CSV's first column, so these characters would \
                     corrupt its structure ({})",
                    stem.escape_debug(),
                    path.display()
                )));
            }
            if let Some((_, first)) = stems.iter().find(|(s, _)| *s == stem) {
                return Err(SpecError::new(format!(
                    "duplicate spec file stem '{stem}': {} and {} would share \
                     one case label in the merged CSV, making their rows \
                     unattributable; rename one of them",
                    first.display(),
                    path.display()
                )));
            }
            stems.push((stem.clone(), path));
            cases.extend(self.expand(&stem, &base));
        }
        Ok(cases)
    }

    /// Cross one base spec with the suite's overrides.  With no overrides
    /// the base spec is the single case; each applied override is recorded
    /// in the case name (`+scheme` / `@load`).
    pub fn expand(&self, name: &str, base: &ScenarioSpec) -> Vec<SuiteCase> {
        let schemes: Vec<Option<&str>> = match &self.schemes {
            Some(list) => list.iter().map(|s| Some(s.as_str())).collect(),
            None => vec![None],
        };
        let loads: Vec<Option<f64>> = match &self.loads {
            Some(list) => list.iter().copied().map(Some).collect(),
            None => vec![None],
        };
        let mut cases = Vec::with_capacity(schemes.len() * loads.len());
        for scheme in &schemes {
            for load in &loads {
                let mut spec = base.clone();
                let mut case_name = name.to_string();
                if let Some(scheme) = scheme {
                    spec.scheme = scheme.to_string();
                    case_name.push('+');
                    case_name.push_str(scheme);
                }
                if let Some(load) = *load {
                    spec.traffic = spec.traffic.with_load(load);
                    // Full float Display (shortest round-trip form), not a
                    // rounded rendering: distinct loads must yield distinct
                    // case names or merged CSV rows become unattributable.
                    case_name.push_str(&format!("@{load}"));
                }
                cases.push(SuiteCase {
                    name: case_name,
                    spec,
                });
            }
        }
        cases
    }
}

/// The first value of `values` equal to an earlier one.
fn first_repeat<T: PartialEq>(values: &[T]) -> Option<&T> {
    (1..values.len())
        .find(|&i| values[..i].contains(&values[i]))
        .map(|i| &values[i])
}

/// Recursively collect every `*.json` file under `dir`.  Unsorted; the
/// caller sorts the combined list by full path so traversal order (which
/// the OS does not guarantee) never leaks into case order.
fn collect_spec_paths(
    dir: &std::path::Path,
    out: &mut Vec<std::path::PathBuf>,
) -> Result<(), SpecError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| SpecError::new(format!("cannot read suite dir {}: {e}", dir.display())))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_spec_paths(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "json") {
            out.push(path);
        }
    }
    Ok(())
}
