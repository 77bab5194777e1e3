//! Minimal flag parsing and spec loading shared by the bench binaries.
//!
//! Every binary in this crate takes `--flag value` style arguments; these
//! helpers keep the parsing (and its failure behaviour: print, exit 2)
//! identical across `scenario`, `suite` and the figure drivers, and provide
//! the one place that reads a [`ScenarioSpec`] from a JSON file.

use sprinklers_sim::spec::ScenarioSpec;
use std::path::{Path, PathBuf};

/// The value following `--flag`, if present.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// True if the bare flag is present.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Check that every argument is a known `--flag value` pair or a known bare
/// flag, each given at most once, so a typo or a repeat is a usage error
/// instead of a silently ignored word ([`arg_value`] reads the first match).
pub fn check_flags(
    args: &[String],
    value_flags: &[&str],
    bare_flags: &[&str],
) -> Result<(), String> {
    let mut seen: Vec<&str> = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if value_flags.contains(&arg.as_str()) {
            if rest.next().is_none() {
                return Err(format!("{arg} requires a value"));
            }
        } else if arg == "--threads" || arg == "--batch" {
            return Err(format!(
                "{arg} was removed: results were identical at every value"
            ));
        } else if !bare_flags.contains(&arg.as_str()) {
            return Err(format!("unknown argument '{arg}' (see --help)"));
        }
        if seen.contains(&arg.as_str()) {
            return Err(format!("{arg} given more than once"));
        }
        seen.push(arg);
    }
    Ok(())
}

/// Check that no two of a command's file paths name the same file, so that
/// writing one cannot truncate or replace another that the command reads or
/// writes.  `paths` pairs each flag with its value (`None` when absent);
/// callers check before opening anything for writing.  Two paths are the
/// same file when they resolve to one canonical path: `./x` and `x`, or a
/// symlink and its target, collide.
pub fn check_distinct_paths(paths: &[(&str, Option<&str>)]) -> Result<(), String> {
    let given: Vec<(&str, &str, PathBuf)> = paths
        .iter()
        .filter_map(|&(flag, path)| path.map(|p| (flag, p, resolve(p))))
        .collect();
    for (i, (flag, path, file)) in given.iter().enumerate() {
        if let Some((other, _, _)) = given[..i].iter().find(|(_, _, f)| f == file) {
            return Err(format!(
                "{other} and {flag} name the same file '{path}': writing one would destroy the other"
            ));
        }
    }
    Ok(())
}

/// A path as one file: canonical if it exists, else its canonical directory
/// joined with its file name (an output not yet written), else as given.
fn resolve(path: &str) -> PathBuf {
    let path = Path::new(path);
    std::fs::canonicalize(path).unwrap_or_else(|_| {
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        match (std::fs::canonicalize(dir), path.file_name()) {
            (Ok(dir), Some(name)) => dir.join(name),
            _ => path.to_path_buf(),
        }
    })
}

/// Print one stderr note per inert field (`batch`, `threads`) that any
/// loaded spec sets away from its default: spec files that carry them still
/// load, the `--batch` and `--threads` flags are rejected.
pub fn note_inert_fields<'a>(specs: impl IntoIterator<Item = &'a ScenarioSpec>) {
    let defaults = ScenarioSpec::new(String::new(), 0);
    let (mut batch, mut threads) = (false, false);
    for spec in specs {
        batch |= spec.batch != defaults.batch;
        threads |= spec.threads != defaults.threads;
    }
    if batch {
        eprintln!(
            "note: \"batch\" in a spec file is ignored: the engine steps to the \
             next arrival or sample by itself"
        );
    }
    if threads {
        eprintln!("note: \"threads\" in a spec file is ignored: stepping is serial");
    }
}

/// Print `usage` and exit 0 when the arguments ask for help (`--help` or
/// `-h`); every binary asks this before it checks its flags.
pub fn exit_on_help(args: &[String], usage: &str) {
    if has_flag(args, "--help") || has_flag(args, "-h") {
        println!("{usage}");
        std::process::exit(0);
    }
}

/// Check the arguments of a binary whose only flag is a bare `--quick`
/// (usage on `--help`, exit 2 on anything else) and say whether it was
/// given.
pub fn quick_flag(usage: &str) -> bool {
    let args: Vec<String> = std::env::args().skip(1).collect();
    exit_on_help(&args, usage);
    if let Err(e) = check_flags(&args, &[], &["--quick"]) {
        fail(&e);
    }
    has_flag(&args, "--quick")
}

/// Print an error and exit with status 2 (usage / input error).
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Parse a flag's value, failing loudly on garbage instead of silently
/// substituting the default (absent flag => `None` => caller's default).
pub fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    arg_value(args, flag).map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("invalid value '{v}' for {flag}")))
    })
}

/// Parse a comma-separated list flag (e.g. `--loads 0.1,0.5,0.9`).  A
/// present-but-empty list (e.g. an unset shell variable) is an error, not an
/// empty vector — an empty override would silently expand every suite to
/// zero cases.
pub fn parse_list_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<Vec<T>> {
    arg_value(args, flag).map(|v| {
        let values: Vec<T> = v
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("invalid value '{s}' in {flag}")))
            })
            .collect();
        if values.is_empty() {
            fail(&format!("{flag} requires at least one value"));
        }
        values
    })
}

/// Read and parse a `ScenarioSpec` JSON file, exiting with a clear message
/// on I/O or parse failure.  Relative trace paths inside the spec are
/// resolved against the spec file's directory, so specs can reference
/// traces checked in next to them regardless of the working directory.
pub fn load_spec_file(path: &str) -> ScenarioSpec {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read spec file {path}: {e}")));
    let mut spec = ScenarioSpec::from_json(&text).unwrap_or_else(|e| fail(&e.to_string()));
    if let Some(parent) = Path::new(path).parent() {
        spec.rebase_paths(parent);
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_value_finds_the_following_token() {
        let a = args(&["--n", "32", "--quick"]);
        assert_eq!(arg_value(&a, "--n").as_deref(), Some("32"));
        assert_eq!(arg_value(&a, "--quick"), None);
        assert_eq!(arg_value(&a, "--missing"), None);
        assert!(has_flag(&a, "--quick"));
        assert!(!has_flag(&a, "--slow"));
    }

    #[test]
    fn parse_flag_reads_typed_values() {
        let a = args(&["--n", "32", "--load", "0.85"]);
        assert_eq!(parse_flag::<usize>(&a, "--n"), Some(32));
        assert_eq!(parse_flag::<f64>(&a, "--load"), Some(0.85));
        assert_eq!(parse_flag::<usize>(&a, "--workers"), None);
    }

    #[test]
    fn parse_list_flag_splits_on_commas() {
        let a = args(&["--loads", "0.1, 0.5,0.9", "--schemes", "oq,foff"]);
        assert_eq!(
            parse_list_flag::<f64>(&a, "--loads"),
            Some(vec![0.1, 0.5, 0.9])
        );
        assert_eq!(
            parse_list_flag::<String>(&a, "--schemes"),
            Some(vec!["oq".to_string(), "foff".to_string()])
        );
        assert_eq!(parse_list_flag::<f64>(&a, "--absent"), None);
    }

    #[test]
    fn check_distinct_paths_catches_one_file_under_two_names() {
        let dir = std::env::temp_dir().join(format!("sprinklers-cli-paths-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("t.sprt");
        std::fs::write(&file, "x").unwrap();
        let file = file.to_str().unwrap();
        let dotted = format!("{}/./t.sprt", dir.display());
        let fresh = format!("{}/new.csv", dir.display());
        let err =
            check_distinct_paths(&[("--in", Some(file)), ("--out", Some(&dotted))]).unwrap_err();
        assert!(
            err.starts_with("--in and --out name the same file"),
            "{err}"
        );
        // An output that does not exist yet still collides with itself.
        let err = check_distinct_paths(&[("--out", Some(&fresh)), ("--emit-spec", Some(&fresh))])
            .unwrap_err();
        assert!(err.contains("--out and --emit-spec"), "{err}");
        assert!(check_distinct_paths(&[("--in", Some(file)), ("--out", Some(&fresh))]).is_ok());
        assert!(check_distinct_paths(&[("--in", Some(file)), ("--out", None)]).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn check_flags_accepts_known_flags_and_rejects_the_rest() {
        let value = ["--ns", "--json"];
        let bare = ["--quick"];
        assert!(check_flags(&args(&[]), &value, &bare).is_ok());
        assert!(check_flags(&args(&["--quick", "--ns", "64,256"]), &value, &bare).is_ok());
        // Whatever follows a value flag is its value, flag-shaped or not.
        assert!(check_flags(&args(&["--json", "--quick"]), &value, &bare).is_ok());
        let err = check_flags(&args(&["--quik"]), &value, &bare).unwrap_err();
        assert!(err.contains("--quik"), "{err}");
        let err = check_flags(&args(&["--ns", "64", "stray"]), &value, &bare).unwrap_err();
        assert!(err.contains("stray"), "{err}");
        let err = check_flags(&args(&["--ns"]), &value, &bare).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        let err = check_flags(&args(&["--ns", "64", "--ns", "256"]), &value, &bare).unwrap_err();
        assert!(err.contains("--ns given more than once"), "{err}");
        let err = check_flags(&args(&["--quick", "--quick"]), &value, &bare).unwrap_err();
        assert!(err.contains("--quick given more than once"), "{err}");
        for removed in ["--threads", "--batch"] {
            let err = check_flags(&args(&[removed, "8"]), &value, &bare).unwrap_err();
            assert!(err.starts_with(&format!("{removed} was removed")), "{err}");
        }
    }
}
