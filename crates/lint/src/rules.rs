//! The repo's rule families and the per-file analysis that enforces them.
//!
//! Four families, matching the invariants the runtime verification net
//! (golden CSVs, worker/batch parity, record→replay) depends on:
//!
//! * **determinism** — no randomized-iteration containers or ambient
//!   entropy in simulation/result paths (`crates/core`, `crates/baselines`,
//!   `crates/sim`).
//! * **hot-path** — no panicking or allocating constructs inside functions
//!   designated `// lint: hot-path` (the per-slot fabric passes, occupancy
//!   scans and the resequencer).
//! * **cast** — no bare `as u16` / `as u32` narrowing in `crates/core`
//!   outside the checked `Packet` accessors.
//! * **unsafe** — every `unsafe` must be preceded by a `// SAFETY:` comment.
//!
//! Suppression is explicit and audited: `// lint: allow(<rule>) — <why>`
//! on (or directly above) the offending line.  The justification is
//! mandatory — a bare marker is itself a violation — and every allow is
//! counted into the summary the `check` subcommand prints.

use crate::lexer::{scrub, tokenize, Token};

/// The rule families, plus an internal `Marker` category for hygiene
/// diagnostics about the markers themselves (missing justification, unknown
/// rule name, unused marker, dangling designator).  Marker diagnostics are
/// never suppressible — `Marker` is not a valid allow-marker target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    Determinism,
    HotPath,
    Cast,
    Unsafe,
    Marker,
}

/// The allowable rule families, in the order summaries print them.
pub const ALL_RULES: [Rule; 4] = [Rule::Determinism, Rule::HotPath, Rule::Cast, Rule::Unsafe];

impl Rule {
    /// The name used in diagnostics and allow markers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::HotPath => "hot-path",
            Rule::Cast => "cast",
            Rule::Unsafe => "unsafe",
            Rule::Marker => "marker",
        }
    }

    /// Parse an allow-marker rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// One-paragraph description for the `rules` subcommand.
    pub fn description(self) -> &'static str {
        match self {
            Rule::Determinism => {
                "Denies sources of run-to-run nondeterminism in simulation and result \
                 paths (crates/core, crates/baselines, crates/sim; #[cfg(test)] code is \
                 exempt): std HashMap/HashSet (randomized iteration order with the \
                 default hasher), RandomState, DefaultHasher, Instant, SystemTime, \
                 thread_rng, from_entropy, and env var reads (var/var_os/vars). The \
                 byte-identical report guarantees (worker/batch parity, record→replay, \
                 golden CSVs) all assume none of these reach an output path."
            }
            Rule::HotPath => {
                "Denies panicking constructs (unwrap, expect, panic!, todo!, \
                 unimplemented!) and heap-allocating calls (Vec/VecDeque/Box/String::new \
                 or ::with_capacity, vec![], format!, to_vec, to_string, to_owned, \
                 clone) inside functions designated with a `// lint: hot-path` marker \
                 comment — the per-slot fabric passes, occupancy scans and the \
                 resequencer. Complements the runtime counting-allocator test with a \
                 static gate."
            }
            Rule::Cast => {
                "Denies bare `as u16` / `as u32` narrowing casts in crates/core \
                 (#[cfg(test)] code is exempt). The compact Packet layout narrows its \
                 fields only behind checked accessors; everything else must use \
                 try_into or widen instead."
            }
            Rule::Unsafe => {
                "Every `unsafe` block, fn or impl must be immediately preceded by a \
                 `// SAFETY:` comment explaining why the invariants hold. (Every \
                 crate of the workspace compiles with #![forbid(unsafe_code)]; the one \
                 `unsafe` outside this analyzer's fixtures is the counting allocator of \
                 the `steady_state_alloc` integration test. This rule keeps that and any \
                 future exception audited.)"
            }
            Rule::Marker => {
                "Hygiene of the markers themselves: an allow marker must name a known \
                 rule and carry a non-empty justification, must actually suppress \
                 something, and a `lint: hot-path` designator must be followed by a \
                 function with a body. Marker diagnostics cannot be suppressed."
            }
        }
    }
}

/// Which rule scopes apply to a file (derived from its workspace-relative
/// path by [`scope_for_path`], or set explicitly by fixture tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// File is in a determinism-scoped crate (core/baselines/sim sources).
    pub determinism: bool,
    /// File is in the cast-hygiene scope (crates/core sources).
    pub cast: bool,
}

/// Derive the rule scope from a workspace-relative path (with `/` or `\`
/// separators).
pub fn scope_for_path(rel_path: &str) -> Scope {
    let p = rel_path.replace('\\', "/");
    let in_any = |prefixes: &[&str]| prefixes.iter().any(|pre| p.starts_with(pre));
    Scope {
        determinism: in_any(&[
            "crates/core/src/",
            "crates/baselines/src/",
            "crates/sim/src/",
        ]),
        cast: in_any(&["crates/core/src/"]),
    }
}

/// A single diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl Violation {
    /// Render as `path:line: [rule] message`.
    pub fn render(&self, path: &str) -> String {
        format!(
            "{}:{}: [{}] {}",
            path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// An allow marker that suppressed at least one violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowUse {
    pub line: usize,
    pub rule: Rule,
    pub justification: String,
}

/// Result of analyzing one file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub violations: Vec<Violation>,
    pub allows_used: Vec<AllowUse>,
}

/// A parsed `// lint: allow(rule) — justification` marker.
#[derive(Debug)]
struct AllowMarker {
    line: usize,
    rule: Rule,
    justification: String,
    used: bool,
}

const ALLOW_PREFIX: &str = "lint: allow(";
const HOT_PATH_MARKER: &str = "lint: hot-path";

/// Identifiers denied by the determinism rule, with explanations.
const DETERMINISM_DENY: [(&str, &str); 8] = [
    (
        "HashMap",
        "randomized iteration order (default hasher); use BTreeMap or a flat vector",
    ),
    (
        "HashSet",
        "randomized iteration order (default hasher); use BTreeSet or a bitset",
    ),
    ("RandomState", "per-process random hasher state"),
    ("DefaultHasher", "hasher keyed by per-process random state"),
    ("Instant", "wall-clock readings differ across runs"),
    ("SystemTime", "wall-clock readings differ across runs"),
    (
        "thread_rng",
        "OS-entropy-seeded RNG; derive from the scenario seed instead",
    ),
    (
        "from_entropy",
        "OS-entropy-seeded RNG; derive from the scenario seed instead",
    ),
];

/// Identifiers that read the process environment (env-dependent behavior).
const DETERMINISM_ENV: [&str; 3] = ["var", "var_os", "vars"];

/// Panicking identifiers denied in hot paths (method or macro position).
const HOT_PANICKING: [&str; 5] = ["unwrap", "expect", "panic", "todo", "unimplemented"];

/// `Type::method` pairs denied in hot paths (constructors that allocate).
const HOT_ALLOC_TYPES: [&str; 4] = ["Vec", "VecDeque", "Box", "String"];
const HOT_ALLOC_CTORS: [&str; 2] = ["new", "with_capacity"];

/// Allocating method/macro identifiers denied in hot paths.
const HOT_ALLOC_CALLS: [(&str, bool); 6] = [
    // (identifier, is_macro)
    ("vec", true),
    ("format", true),
    ("to_vec", false),
    ("to_string", false),
    ("to_owned", false),
    ("clone", false),
];

/// Analyze one file's source text under the given scope.
///
/// `path` is only used in the "dangling marker" messages; the caller renders
/// diagnostics with whatever path label it wants.
pub fn analyze(src: &str, scope: Scope) -> FileReport {
    let scrubbed = scrub(src);
    let text = scrubbed.text.as_str();
    let tokens = tokenize(text);

    let test_regions = find_test_regions(text, &tokens);
    let in_test = |offset: usize| test_regions.iter().any(|&(s, e)| offset >= s && offset < e);

    let mut report = FileReport::default();
    let mut allows: Vec<AllowMarker> = Vec::new();
    let mut hot_regions: Vec<(usize, usize)> = Vec::new();

    // Pass 1: markers.
    for c in &scrubbed.comments {
        if let Some(rest) = c.text.strip_prefix(ALLOW_PREFIX) {
            match parse_allow(rest) {
                Ok((rule, justification)) => allows.push(AllowMarker {
                    line: c.line,
                    rule,
                    justification,
                    used: false,
                }),
                Err(msg) => report.violations.push(Violation {
                    line: c.line,
                    rule: Rule::Marker,
                    message: msg,
                }),
            }
        } else if c.text == HOT_PATH_MARKER || c.text.starts_with("lint: hot-path ") {
            match hot_region_after(text, &tokens, c.start) {
                Some(region) => hot_regions.push(region),
                None => report.violations.push(Violation {
                    line: c.line,
                    rule: Rule::Marker,
                    message: "dangling `lint: hot-path` marker: no `fn` with a body follows it"
                        .to_string(),
                }),
            }
        } else if c.text.starts_with("lint:") {
            report.violations.push(Violation {
                line: c.line,
                rule: Rule::Marker,
                message: format!(
                    "unrecognized lint marker `{}` (expected `lint: allow(<rule>) — <why>` \
                     or `lint: hot-path`)",
                    c.text
                ),
            });
        }
    }
    let in_hot = |offset: usize| hot_regions.iter().any(|&(s, e)| offset >= s && offset < e);

    // Pass 2: token rules.
    let mut raw: Vec<Violation> = Vec::new();
    for (idx, tok) in tokens.iter().enumerate() {
        if !tok.is_ident {
            continue;
        }
        let name = tok.text(text);

        // determinism --------------------------------------------------
        if scope.determinism && !in_test(tok.start) {
            if let Some((_, why)) = DETERMINISM_DENY.iter().find(|(n, _)| *n == name) {
                raw.push(Violation {
                    line: tok.line,
                    rule: Rule::Determinism,
                    message: format!("`{name}` is nondeterministic: {why}"),
                });
            }
            // `env::var(...)` / `std::env::var_os(...)`: flag the call only
            // when it is path-qualified by `env` to avoid false positives on
            // unrelated `var` identifiers.
            if DETERMINISM_ENV.contains(&name)
                && prev_is_path_segment(&tokens, idx, text, "env")
                && next_punct_is(&tokens, idx, text, b'(')
            {
                raw.push(Violation {
                    line: tok.line,
                    rule: Rule::Determinism,
                    message: format!(
                        "`env::{name}` makes results depend on the process environment"
                    ),
                });
            }
        }

        // hot-path ------------------------------------------------------
        if in_hot(tok.start) {
            if HOT_PANICKING.contains(&name) {
                let is_macro = next_punct_is(&tokens, idx, text, b'!');
                let is_method = prev_punct_is(&tokens, idx, text, b'.');
                let flagged = match name {
                    "unwrap" | "expect" => is_method,
                    _ => is_macro,
                };
                if flagged {
                    raw.push(Violation {
                        line: tok.line,
                        rule: Rule::HotPath,
                        message: format!(
                            "`{name}{}` can panic inside a hot-path function; restructure to an \
                             infallible pattern",
                            if is_macro { "!" } else { "" }
                        ),
                    });
                }
            }
            if HOT_ALLOC_CTORS.contains(&name)
                && HOT_ALLOC_TYPES
                    .iter()
                    .any(|ty| prev_is_path_segment(&tokens, idx, text, ty))
            {
                raw.push(Violation {
                    line: tok.line,
                    rule: Rule::HotPath,
                    message: format!(
                        "allocating constructor `::{name}` inside a hot-path function; \
                         preallocate outside the per-slot loop"
                    ),
                });
            }
            for (call, is_macro) in HOT_ALLOC_CALLS {
                if name != call {
                    continue;
                }
                let matches_shape = if is_macro {
                    next_punct_is(&tokens, idx, text, b'!')
                } else {
                    prev_punct_is(&tokens, idx, text, b'.')
                };
                if matches_shape {
                    raw.push(Violation {
                        line: tok.line,
                        rule: Rule::HotPath,
                        message: format!(
                            "`{name}{}` allocates inside a hot-path function",
                            if is_macro { "!" } else { "" }
                        ),
                    });
                }
            }
        }

        // cast ----------------------------------------------------------
        if scope.cast && !in_test(tok.start) && name == "as" {
            if let Some(next) = tokens.get(idx + 1) {
                if next.is_ident {
                    let target = next.text(text);
                    if target == "u16" || target == "u32" {
                        raw.push(Violation {
                            line: tok.line,
                            rule: Rule::Cast,
                            message: format!(
                                "bare `as {target}` narrowing; use a checked accessor or \
                                 try_into (silent truncation corrupts routing fields)"
                            ),
                        });
                    }
                }
            }
        }

        // unsafe ---------------------------------------------------------
        if name == "unsafe" {
            // Accept `SAFETY:` anywhere in the contiguous comment block that
            // ends on this line or the one above (multi-line justifications
            // put the keyword on the block's first line).
            let commented = |line: usize| scrubbed.comments.iter().any(|c| c.line == line);
            let mut has_safety = false;
            let mut line = tok.line;
            loop {
                if scrubbed
                    .comments
                    .iter()
                    .any(|c| c.line == line && c.text.contains("SAFETY:"))
                {
                    has_safety = true;
                    break;
                }
                if line == 0 || !commented(line - 1) {
                    break;
                }
                line -= 1;
            }
            if !has_safety {
                raw.push(Violation {
                    line: tok.line,
                    rule: Rule::Unsafe,
                    message: "`unsafe` without a preceding `// SAFETY:` comment".to_string(),
                });
            }
        }
    }

    // Pass 3: apply allow markers (a marker suppresses matching violations on
    // its own line — trailing-comment form — or the line directly below).
    for v in raw {
        let mut suppressed = false;
        for a in allows.iter_mut() {
            if a.rule == v.rule && (a.line == v.line || a.line + 1 == v.line) {
                if !a.used {
                    a.used = true;
                    report.allows_used.push(AllowUse {
                        line: a.line,
                        rule: a.rule,
                        justification: a.justification.clone(),
                    });
                }
                suppressed = true;
                break;
            }
        }
        if !suppressed {
            report.violations.push(v);
        }
    }
    for a in &allows {
        if !a.used {
            report.violations.push(Violation {
                line: a.line,
                rule: Rule::Marker,
                message: format!(
                    "unused allow marker for `{}`: nothing on this or the next line \
                     triggers the rule",
                    a.rule.name()
                ),
            });
        }
    }

    report.violations.sort_by_key(|v| v.line);
    report
}

/// Parse the tail of an allow marker after `lint: allow(`.
fn parse_allow(rest: &str) -> Result<(Rule, String), String> {
    let Some(close) = rest.find(')') else {
        return Err("malformed allow marker: missing `)`".to_string());
    };
    let name = rest[..close].trim();
    let Some(rule) = Rule::from_name(name) else {
        return Err(format!(
            "allow marker names unknown rule `{name}` (known: determinism, hot-path, cast, unsafe)"
        ));
    };
    let justification = rest[close + 1..]
        .trim_start_matches([' ', '\t', '—', '–', '-', ':'])
        .trim()
        .to_string();
    if justification.is_empty() {
        return Err(format!(
            "allow marker for `{}` is missing a justification — write \
             `lint: allow({}) — <why this is sound>`",
            rule.name(),
            rule.name()
        ));
    }
    Ok((rule, justification))
}

/// True if the token before `idx` (skipping none) is `::` preceded by the
/// identifier `segment` — i.e. the token at `idx` is path-qualified by it.
fn prev_is_path_segment(tokens: &[Token], idx: usize, text: &str, segment: &str) -> bool {
    if idx < 3 {
        return false;
    }
    let c1 = &tokens[idx - 1];
    let c2 = &tokens[idx - 2];
    let seg = &tokens[idx - 3];
    !c1.is_ident
        && !c2.is_ident
        && c1.text(text) == ":"
        && c2.text(text) == ":"
        && seg.is_ident
        && seg.text(text) == segment
}

fn next_punct_is(tokens: &[Token], idx: usize, text: &str, punct: u8) -> bool {
    tokens
        .get(idx + 1)
        .is_some_and(|t| !t.is_ident && t.text(text).as_bytes() == [punct])
}

fn prev_punct_is(tokens: &[Token], idx: usize, text: &str, punct: u8) -> bool {
    idx > 0 && !tokens[idx - 1].is_ident && tokens[idx - 1].text(text).as_bytes() == [punct]
}

/// Byte ranges of `#[cfg(test)]` / `#[test]`-gated items (including their
/// attribute lists and bodies).
fn find_test_regions(text: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some((attr_end, gated)) = parse_attribute(tokens, i, text) {
            if gated {
                // Skip any further attributes, then the item itself.
                let mut j = attr_end;
                while let Some((next_end, _)) = parse_attribute(tokens, j, text) {
                    j = next_end;
                }
                let end = skip_item(tokens, j, text);
                regions.push((tokens[i].start, end));
                i = j;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    regions
}

/// If tokens[i..] starts an attribute `#[...]`, return (index one past it,
/// whether it test-gates the following item).
fn parse_attribute(tokens: &[Token], i: usize, text: &str) -> Option<(usize, bool)> {
    if i + 1 >= tokens.len() {
        return None;
    }
    if tokens[i].is_ident || tokens[i].text(text) != "#" {
        return None;
    }
    let mut j = i + 1;
    // Inner attributes `#![...]` never gate an item.
    let inner = !tokens[j].is_ident && tokens[j].text(text) == "!";
    if inner {
        j += 1;
    }
    if j >= tokens.len() || tokens[j].is_ident || tokens[j].text(text) != "[" {
        return None;
    }
    let mut depth = 0usize;
    let mut is_test = false;
    let mut saw_cfg_or_test_head = false;
    let mut k = j;
    while k < tokens.len() {
        let t = &tokens[k];
        let s = t.text(text);
        if !t.is_ident {
            match s {
                "[" | "(" => depth += 1,
                "]" | ")" => {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                _ => {}
            }
        } else {
            if depth == 1 && (s == "cfg" || s == "test") {
                saw_cfg_or_test_head = true;
                if s == "test" {
                    is_test = true;
                }
            }
            if depth >= 2 && s == "test" && saw_cfg_or_test_head {
                is_test = true;
            }
        }
        k += 1;
    }
    Some((k, is_test && !inner))
}

/// Skip one item starting at tokens[i]: consume to its body's matching `}` or
/// a terminating `;`, returning the end byte offset.
fn skip_item(tokens: &[Token], i: usize, text: &str) -> usize {
    let mut depth = 0usize;
    let mut k = i;
    while k < tokens.len() {
        let t = &tokens[k];
        if !t.is_ident {
            match t.text(text) {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return t.end;
                    }
                }
                ";" if depth == 0 => return t.end,
                _ => {}
            }
        }
        k += 1;
    }
    text.len()
}

/// The body byte-range of the first `fn` after `after` (for hot markers).
fn hot_region_after(text: &str, tokens: &[Token], after: usize) -> Option<(usize, usize)> {
    let mut i = tokens.iter().position(|t| t.start >= after)?;
    while i < tokens.len() {
        if tokens[i].is_ident && tokens[i].text(text) == "fn" {
            // Find the body's opening brace, then match it.
            let mut k = i + 1;
            while k < tokens.len() {
                let s = tokens[k].text(text);
                if !tokens[k].is_ident && s == "{" {
                    let start = tokens[k].start;
                    let end = skip_item(tokens, k, text);
                    return Some((start, end));
                }
                if !tokens[k].is_ident && s == ";" {
                    return None; // trait method signature without a body
                }
                k += 1;
            }
            return None;
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str, scope: Scope) -> Vec<String> {
        analyze(src, scope)
            .violations
            .iter()
            .map(|v| v.render("f.rs"))
            .collect()
    }

    const FULL: Scope = Scope {
        determinism: true,
        cast: true,
    };

    #[test]
    fn determinism_flags_hashmap_but_not_in_tests() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let v = lint(src, FULL);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("f.rs:1: [determinism]"), "{v:?}");
    }

    #[test]
    fn determinism_is_scope_gated() {
        let src = "use std::collections::HashMap;\n";
        assert!(lint(src, Scope::default()).is_empty());
    }

    #[test]
    fn env_var_is_flagged_only_when_path_qualified() {
        let src = "fn f() { let _ = std::env::var(\"X\"); }\nfn g(var: u8) -> u8 { var }\n";
        let v = lint(src, FULL);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("env::var"), "{v:?}");
    }

    #[test]
    fn hot_path_catches_panics_and_allocation() {
        let src = "// lint: hot-path\n\
                   fn step() {\n\
                       let x = Some(1).unwrap();\n\
                       let v = Vec::new();\n\
                       let s = format!(\"x\");\n\
                   }\n\
                   fn cold() { let y = Some(1).unwrap(); let _ = y; }\n";
        let v = lint(src, Scope::default());
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v[0].contains("unwrap"));
        assert!(v[1].contains("::new"));
        assert!(v[2].contains("format!"));
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "// lint: hot-path\nfn step() { let x = a.unwrap_or_default(); }\n";
        assert!(lint(src, Scope::default()).is_empty());
    }

    #[test]
    fn cast_rule_fires_and_is_suppressible_inline() {
        let src = "fn f(x: usize) -> u16 { x as u16 }\n\
                   // lint: allow(cast) — bounded by assert_ports_fit\n\
                   fn g(x: usize) -> u16 { x as u16 }\n";
        let v = lint(src, FULL);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("f.rs:1: [cast]"));
        let allows = analyze(src, FULL).allows_used;
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].justification, "bounded by assert_ports_fit");
    }

    #[test]
    fn allow_without_justification_is_a_violation() {
        let src = "// lint: allow(cast)\nfn g(x: usize) -> u16 { x as u16 }\n";
        let v = lint(src, FULL);
        assert_eq!(v.len(), 2, "marker error plus the unsuppressed cast: {v:?}");
        assert!(v[0].contains("missing a justification"), "{v:?}");
    }

    #[test]
    fn unused_allow_is_a_violation() {
        let src = "// lint: allow(determinism) — no reason to exist\nfn g() {}\n";
        let v = lint(src, FULL);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("unused allow marker"), "{v:?}");
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let src = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n\
                   // SAFETY: g is only called with valid invariants.\n\
                   fn g() { unsafe { core::hint::unreachable_unchecked() } }\n";
        let v = lint(src, Scope::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("f.rs:1: [unsafe]"), "{v:?}");
    }

    #[test]
    fn dangling_hot_marker_is_reported() {
        let src = "// lint: hot-path\nconst X: u8 = 0;\n";
        let v = lint(src, Scope::default());
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("dangling"), "{v:?}");
    }

    #[test]
    fn strings_and_comments_never_trip_rules() {
        let src = "fn f() -> &'static str { \"HashMap Instant unwrap() as u16\" }\n\
                   // HashMap in prose is fine\n";
        assert!(lint(src, FULL).is_empty());
    }

    #[test]
    fn test_attribute_variants_are_skipped() {
        let src = "#[test]\nfn t() { let m = std::collections::HashMap::<u8, u8>::new(); }\n\
                   #[cfg(all(test, feature = \"x\"))]\nmod m { use std::time::Instant; }\n";
        assert!(lint(src, FULL).is_empty());
    }
}
