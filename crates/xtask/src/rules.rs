//! The repo-specific lint rules.
//!
//! Each rule is a pattern match over the token stream produced by
//! [`crate::lexer`] — a `panic!` inside a doc comment or a raw string
//! is a comment/string token and can never match a rule that inspects
//! code tokens. The rules enforce contracts clippy cannot express for
//! this workspace:
//!
//! | id | rule |
//! |---|---|
//! | `panic` | no `.unwrap()` / `.expect(` / `panic!` / `unreachable!` / `todo!` in non-test library code |
//! | `narrowing` | no lossy `as` narrowing to sub-64-bit integers in accumulator/shift paths (`crates/core`, `crates/unary`) |
//! | `wall-clock` | no `std::time` / `SystemTime` / `Instant` in `crates/des`, `crates/sim` and `crates/unary` (cycle determinism) |
//! | `float-eq` | no `==` / `!=` against float literals in non-test code |
//! | `determinism` | no `HashMap` / `HashSet` in result-affecting crates (`core`, `des`, `sim`, `serve`, `unary`): their iteration order varies run to run |
//! | `float-ord` | no `sort_by`/`max_by`/`min_by` closures built on `partial_cmp` in non-test code; NaN silently reorders — use `total_cmp` |
//! | `errors-doc` | public `Result`-returning fns document a `# Errors` section |
//!
//! Any rule can be waived for one site with a `// lint: allow(<id>)`
//! marker on the same line or the line above; the marker is expected to
//! carry a rationale in the surrounding comment. Waivers are recognised
//! **only inside comments** — the same text in a string literal does
//! not waive anything.

use crate::lexer::{lex, token_regions, Token, TokenKind};

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`panic`, `narrowing`, …).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl core::fmt::Display for Finding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Which rules apply to a file, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileRules {
    /// `panic` rule (non-test library code only).
    pub no_panic: bool,
    /// `narrowing` rule (accumulator/shift crates).
    pub no_narrowing: bool,
    /// `wall-clock` rule (cycle-deterministic crates).
    pub no_wall_clock: bool,
    /// `float-eq` rule.
    pub no_float_eq: bool,
    /// `determinism` rule (result-affecting crates).
    pub no_determinism: bool,
    /// `float-ord` rule.
    pub no_float_ord: bool,
    /// `errors-doc` rule (public API files).
    pub errors_doc: bool,
}

/// Derives the applicable rules from a workspace-relative path.
///
/// Library code is everything under `crates/*/src` and the facade `src/`,
/// except binary entry points (`src/bin`, `main.rs`, `build.rs`), the
/// `xtask` tool itself, and the `bench` experiment harness (whose library
/// modules exist to serve its `exp`/`sim_cli`/`serve_cli` binaries and
/// may abort on impossible configurations). The narrowing rule covers the
/// accumulator/shift implementation crates (`core`, `unary`); the
/// wall-clock rule covers the cycle-deterministic crates (`des`, `sim`,
/// `unary`); the determinism-taint rule covers every crate whose output
/// feeds simulation results (`core`, `des`, `faults`, `sim`, `serve`,
/// `unary`). Files
/// under a `fixtures/` directory are the lint's own regression corpus of
/// deliberate violations and are exempt from everything.
#[must_use]
pub fn classify(rel_path: &str) -> FileRules {
    let path = rel_path.replace('\\', "/");
    if path.contains("/fixtures/") {
        return FileRules::default();
    }
    let in_tool = path.starts_with("crates/xtask") || path.starts_with("crates/bench");
    let is_bin =
        path.contains("/bin/") || path.ends_with("/main.rs") || path.ends_with("/build.rs");
    let is_lib = (path.starts_with("src/")
        || (path.starts_with("crates/") && path.contains("/src/")))
        && !is_bin
        && !in_tool;
    let result_affecting = [
        "crates/core/src",
        "crates/des/src",
        "crates/faults/src",
        "crates/sim/src",
        "crates/serve/src",
        "crates/unary/src",
    ]
    .iter()
    .any(|p| path.starts_with(p));
    FileRules {
        no_panic: is_lib,
        no_narrowing: path.starts_with("crates/core/src") || path.starts_with("crates/unary/src"),
        no_wall_clock: path.starts_with("crates/des/src")
            || path.starts_with("crates/sim/src")
            || path.starts_with("crates/unary/src"),
        no_float_eq: true,
        no_determinism: result_affecting,
        no_float_ord: true,
        errors_doc: is_lib,
    }
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const NARROW: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];
const FLOAT_SORTS: [&str; 5] = [
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
];

/// Runs every applicable rule over one file.
#[must_use]
pub fn lint_source(rel_path: &str, source: &str, rules: FileRules) -> Vec<Finding> {
    let tokens = lex(source);
    let regions = token_regions(&tokens);
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let waivers = collect_waivers(&tokens);
    let mut findings = Vec::new();

    let waived = |line: usize, rule: &str| -> bool {
        waivers
            .iter()
            .any(|(l, r)| r == rule && (*l == line || *l + 1 == line))
    };

    for c in 0..code.len() {
        let t = &tokens[code[c]];
        let region = regions[code[c]];
        let next = |k: usize| code.get(c + k).map(|&i| &tokens[i]);
        let mut push = |line: usize, rule: &'static str, message: String| {
            if !waived(line, rule) {
                findings.push(Finding {
                    file: rel_path.to_owned(),
                    line,
                    rule,
                    message,
                });
            }
        };

        if rules.no_panic && !region.test {
            if t.kind == TokenKind::Ident
                && PANIC_MACROS.contains(&t.text)
                && next(1).is_some_and(|n| n.is_punct("!"))
            {
                push(
                    t.line,
                    "panic",
                    format!(
                        "`{}!` in library code; return a typed error instead",
                        t.text
                    ),
                );
            }
            if t.is_punct(".") && next(2).is_some_and(|n| n.is_punct("(")) {
                if next(1).is_some_and(|n| n.is_ident("unwrap"))
                    && next(3).is_some_and(|n| n.is_punct(")"))
                {
                    push(
                        t.line,
                        "panic",
                        "`.unwrap()` in library code; return a typed error instead".to_owned(),
                    );
                }
                if next(1).is_some_and(|n| n.is_ident("expect")) {
                    push(
                        t.line,
                        "panic",
                        "`.expect(…)` in library code; return a typed error instead".to_owned(),
                    );
                }
            }
        }

        if rules.no_narrowing && !region.test && t.is_ident("as") {
            if let Some(n) = next(1) {
                if n.kind == TokenKind::Ident && NARROW.contains(&n.text) {
                    push(
                        n.line,
                        "narrowing",
                        format!(
                            "lossy `as {}` narrowing in an accumulator/shift path; \
                             use `try_from` or mark `// lint: allow(narrowing)` with a range \
                             argument",
                            n.text
                        ),
                    );
                }
            }
        }

        if rules.no_wall_clock {
            if t.is_ident("SystemTime") || t.is_ident("Instant") {
                push(
                    t.line,
                    "wall-clock",
                    format!(
                        "`{}` in a cycle-deterministic crate; simulated time must come from the \
                         cycle counter",
                        t.text
                    ),
                );
            }
            if t.is_ident("std")
                && next(1).is_some_and(|n| n.is_punct("::"))
                && next(2).is_some_and(|n| n.is_ident("time"))
            {
                push(
                    t.line,
                    "wall-clock",
                    "`std::time` in a cycle-deterministic crate; simulated time must come from \
                     the cycle counter"
                        .to_owned(),
                );
            }
        }

        if rules.no_float_eq && !region.test && (t.is_punct("==") || t.is_punct("!=")) {
            let prev_float = c > 0 && tokens[code[c - 1]].kind == TokenKind::Float;
            let next_float = next(1).is_some_and(|n| n.kind == TokenKind::Float);
            if prev_float || next_float {
                push(
                    t.line,
                    "float-eq",
                    "float literal compared with `==`/`!=`; compare against an epsilon or \
                     restructure"
                        .to_owned(),
                );
            }
        }

        if rules.no_determinism && !region.test && (t.is_ident("HashMap") || t.is_ident("HashSet"))
        {
            push(
                t.line,
                "determinism",
                format!(
                    "`{}` has run-to-run iteration order; use `BTreeMap`/`BTreeSet` (or a Vec) \
                     in result-affecting code",
                    t.text
                ),
            );
        }

        if rules.no_float_ord
            && !region.test
            && t.kind == TokenKind::Ident
            && FLOAT_SORTS.contains(&t.text)
            && next(1).is_some_and(|n| n.is_punct("("))
        {
            // Scan the call's argument list for a partial_cmp comparator.
            let mut depth = 0usize;
            let mut uses_partial = false;
            for &i in &code[c + 1..] {
                let u = &tokens[i];
                if u.is_punct("(") {
                    depth += 1;
                } else if u.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if u.is_ident("partial_cmp") {
                    uses_partial = true;
                }
            }
            if uses_partial {
                push(
                    t.line,
                    "float-ord",
                    format!(
                        "`{}` comparator built on `partial_cmp` silently reorders on NaN; use \
                         `total_cmp` or compare extracted keys",
                        t.text
                    ),
                );
            }
        }
    }

    if rules.errors_doc {
        check_errors_docs(rel_path, &tokens, &regions, &waivers, &mut findings);
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Extracts `lint: allow(<rule>)` waiver markers from comment tokens
/// only, each with the 1-based line the marker sits on (block comments
/// may carry a marker on any of their lines).
fn collect_waivers(tokens: &[Token<'_>]) -> Vec<(usize, String)> {
    const MARKER: &str = "lint: allow(";
    let mut out = Vec::new();
    for t in tokens {
        if !t.is_comment() {
            continue;
        }
        for (i, _) in t.text.match_indices(MARKER) {
            let line = t.line + t.text[..i].matches('\n').count();
            let rest = &t.text[i + MARKER.len()..];
            if let Some(end) = rest.find(')') {
                out.push((line, rest[..end].to_owned()));
            }
        }
    }
    out
}

/// Enforces `# Errors` doc sections on public `Result`-returning fns
/// (trait impls inherit their trait's docs and are exempt).
///
/// Walks the raw token stream so doc comments can be tracked: `///`
/// lines set the doc state, attributes are transparent, and any other
/// code token detaches the docs from what follows.
fn check_errors_docs(
    rel_path: &str,
    tokens: &[Token<'_>],
    regions: &[crate::lexer::Region],
    waivers: &[(usize, String)],
    findings: &mut Vec<Finding>,
) {
    let mut docs_present = false;
    let mut docs_have_errors = false;
    let next_code = |mut k: usize| -> Option<usize> {
        while k < tokens.len() {
            if !tokens[k].is_comment() {
                return Some(k);
            }
            k += 1;
        }
        None
    };

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::LineComment && t.text.starts_with("///") {
            docs_present = true;
            docs_have_errors |= t.text.contains("# Errors");
            i += 1;
            continue;
        }
        if t.is_comment() {
            i += 1;
            continue;
        }
        // Attributes between the docs and the item are transparent.
        if t.is_punct("#") {
            let mut k = next_code(i + 1);
            if k.is_some_and(|k| tokens[k].is_punct("!")) {
                k = next_code(k.unwrap_or(i) + 1);
            }
            if let Some(open) = k.filter(|&k| tokens[k].is_punct("[")) {
                let mut depth = 0usize;
                let mut j = open;
                while j < tokens.len() {
                    if tokens[j].is_punct("[") {
                        depth += 1;
                    } else if tokens[j].is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }

        if t.is_ident("pub") {
            let region = regions[i];
            // `pub(crate)`/`pub(super)` items are not public API.
            let mut k = next_code(i + 1);
            while k.is_some_and(|k| {
                tokens[k].is_ident("const")
                    || tokens[k].is_ident("async")
                    || tokens[k].is_ident("unsafe")
            }) {
                k = next_code(k.unwrap_or(i) + 1);
            }
            if k.is_some_and(|k| tokens[k].is_ident("fn")) && !region.test && !region.trait_impl {
                let mut in_return = false;
                let mut returns_result = false;
                let mut j = k.unwrap_or(i) + 1;
                while j < tokens.len() {
                    let u = &tokens[j];
                    if u.is_punct("{") || u.is_punct(";") {
                        break;
                    }
                    if u.is_punct("->") {
                        in_return = true;
                    } else if in_return && u.is_ident("Result") {
                        returns_result = true;
                    }
                    j += 1;
                }
                if returns_result && !docs_have_errors {
                    let waived = waivers.iter().any(|(l, r)| {
                        r == "errors-doc" && (t.line.saturating_sub(8)..=t.line).contains(l)
                    });
                    if !waived {
                        findings.push(Finding {
                            file: rel_path.to_owned(),
                            line: t.line,
                            rule: "errors-doc",
                            message: if docs_present {
                                "public `Result`-returning fn lacks a `# Errors` doc section"
                                    .to_owned()
                            } else {
                                "public `Result`-returning fn is undocumented (needs a \
                                 `# Errors` section)"
                                    .to_owned()
                            },
                        });
                    }
                }
            }
        }
        docs_present = false;
        docs_have_errors = false;
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_rules() -> FileRules {
        classify("crates/core/src/fake.rs")
    }

    fn lint(src: &str) -> Vec<Finding> {
        lint_source("crates/core/src/fake.rs", src, lib_rules())
    }

    fn rule_lines(findings: &[Finding], rule: &str) -> Vec<usize> {
        findings
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| f.line)
            .collect()
    }

    // -- seeded-violation fixtures: one per rule, proving each fires ----

    #[test]
    fn catches_unwrap_expect_and_panic() {
        let src = "\
pub fn f(x: Option<u64>) -> u64 {
    let a = x.unwrap();
    let b = x.expect(\"present\");
    if a == 0 { panic!(\"zero\") }
    a + b
}
";
        let lines = rule_lines(&lint(src), "panic");
        assert_eq!(lines, vec![2, 3, 4]);
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src = "\
pub fn f(x: Option<u64>) -> u64 {
    x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default()
}
";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn test_code_and_strings_and_comments_are_exempt_from_panic() {
        let src = "\
pub fn f() -> &'static str {
    // a comment mentioning panic!(…) and .unwrap()
    \"string mentioning .unwrap()\"
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
        panic!(\"test code may panic\");
    }
}
";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn catches_narrowing_casts() {
        let src = "\
pub fn acc(total: i64) -> i64 {
    let folded = total as i32;
    i64::from(folded)
}
";
        assert_eq!(rule_lines(&lint(src), "narrowing"), vec![2]);
    }

    #[test]
    fn narrowing_allows_marked_sites_and_widening() {
        let src = "\
pub fn acc(total: i64, small: u8) -> i64 {
    let w = small as u64 as i64; // widening is fine
    // Bounded by MAX_BITWIDTH: lint: allow(narrowing)
    let n = total as u32;
    w + i64::from(n)
}
";
        assert!(rule_lines(&lint(src), "narrowing").is_empty());
    }

    #[test]
    fn catches_wall_clock_in_sim() {
        let src = "\
pub fn now() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}
";
        let f = lint_source(
            "crates/sim/src/fake.rs",
            src,
            classify("crates/sim/src/fake.rs"),
        );
        assert!(!rule_lines(&f, "wall-clock").is_empty());
        // Same source in a non-deterministic crate is allowed.
        let f = lint_source(
            "crates/hw/src/fake.rs",
            src,
            classify("crates/hw/src/fake.rs"),
        );
        assert!(rule_lines(&f, "wall-clock").is_empty());
    }

    #[test]
    fn catches_float_literal_equality() {
        let src = "\
pub fn f(x: f64) -> bool {
    if x == 0.0 {
        return true;
    }
    x != 1.5
}
";
        assert_eq!(rule_lines(&lint(src), "float-eq"), vec![2, 5]);
    }

    #[test]
    fn integer_equality_and_field_access_are_fine() {
        let src = "\
pub fn f(s: &S) -> bool {
    s.n == 0 && s.next.m != 3 && 0.0f64.max(1.0) > 0.5
}
";
        assert!(rule_lines(&lint(src), "float-eq").is_empty());
    }

    #[test]
    fn catches_hash_collections_in_result_affecting_code() {
        let src = "\
use std::collections::HashMap;
pub fn order(keys: &[u64]) -> Vec<u64> {
    let mut m = HashMap::new();
    for k in keys { m.insert(*k, ()); }
    m.into_keys().collect()
}
";
        let f = lint_source(
            "crates/sim/src/fake.rs",
            src,
            classify("crates/sim/src/fake.rs"),
        );
        assert_eq!(rule_lines(&f, "determinism"), vec![1, 3]);
        // Outside the result-affecting crates the rule is off.
        let f = lint_source(
            "crates/obs/src/fake.rs",
            src,
            classify("crates/obs/src/fake.rs"),
        );
        assert!(rule_lines(&f, "determinism").is_empty());
    }

    #[test]
    fn determinism_exempts_test_code_and_waived_sites() {
        let src = "\
// Scratch set; iteration order never observed: lint: allow(determinism)
pub fn waived() -> std::collections::HashSet<u64> {
    std::collections::HashSet::new()
}
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let _ = HashMap::<u64, u64>::new(); }
}
";
        let f = lint_source(
            "crates/core/src/fake.rs",
            src,
            classify("crates/core/src/fake.rs"),
        );
        // Only the un-waived second HashSet mention (line 3) fires.
        assert_eq!(rule_lines(&f, "determinism"), vec![3]);
    }

    #[test]
    fn catches_partial_cmp_comparators() {
        let src = "\
pub fn order(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
    xs.sort_by(f64::total_cmp);
    xs
}
";
        assert_eq!(rule_lines(&lint(src), "float-ord"), vec![2]);
    }

    #[test]
    fn partial_cmp_outside_sorts_is_fine() {
        let src = "\
impl PartialOrd for W {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        self.0.partial_cmp(&other.0)
    }
}
";
        assert!(rule_lines(&lint(src), "float-ord").is_empty());
    }

    #[test]
    fn catches_missing_errors_doc() {
        let src = "\
/// Parses a widget.
pub fn parse(s: &str) -> Result<u32, String> {
    s.parse().map_err(|_| String::new())
}
";
        assert_eq!(rule_lines(&lint(src), "errors-doc"), vec![2]);
    }

    #[test]
    fn errors_doc_satisfied_or_exempt() {
        let src = "\
/// Parses a widget.
///
/// # Errors
///
/// Returns a message on malformed input.
pub fn parse(s: &str) -> Result<u32, String> {
    s.parse().map_err(|_| String::new())
}

impl core::str::FromStr for W {
    type Err = String;
    pub fn from_str(s: &str) -> Result<Self, String> {
        parse(s).map(W)
    }
}

pub fn infallible(x: u32) -> u32 {
    x + 1
}
";
        assert!(rule_lines(&lint(src), "errors-doc").is_empty());
    }

    #[test]
    fn multiline_signatures_are_joined() {
        let src = "\
/// Does a thing.
pub fn long_signature(
    a: u32,
    b: u32,
) -> Result<u32, String> {
    Ok(a + b)
}
";
        assert_eq!(rule_lines(&lint(src), "errors-doc"), vec![2]);
    }

    #[test]
    fn classify_scopes_rules_by_path() {
        assert!(classify("crates/unary/src/mul.rs").no_panic);
        assert!(classify("crates/unary/src/mul.rs").no_narrowing);
        assert!(classify("crates/unary/src/mul.rs").no_wall_clock);
        assert!(classify("crates/unary/src/mul.rs").no_determinism);
        assert!(classify("crates/sim/src/trace.rs").no_wall_clock);
        assert!(!classify("crates/sim/src/trace.rs").no_narrowing);
        assert!(classify("crates/serve/src/scheduler.rs").no_determinism);
        assert!(classify("crates/des/src/queue.rs").no_determinism);
        assert!(classify("crates/des/src/queue.rs").no_wall_clock);
        assert!(classify("crates/des/src/queue.rs").no_panic);
        assert!(!classify("crates/des/src/queue.rs").no_narrowing);
        assert!(classify("crates/faults/src/mask.rs").no_determinism);
        assert!(classify("crates/faults/src/mask.rs").no_panic);
        assert!(!classify("crates/obs/src/sketch.rs").no_determinism);
        assert!(!classify("crates/bench/src/bin/sim_cli.rs").no_panic);
        assert!(!classify("crates/bench/src/table.rs").no_panic);
        assert!(classify("crates/bench/src/table.rs").no_float_eq);
        assert!(classify("crates/bench/src/table.rs").no_float_ord);
        assert!(!classify("crates/xtask/src/main.rs").no_panic);
        assert!(classify("src/lib.rs").no_panic);
    }

    #[test]
    fn fixture_corpus_is_exempt_from_workspace_linting() {
        let rules = classify("crates/xtask/fixtures/seeded.rs");
        assert!(!rules.no_panic);
        assert!(!rules.no_float_eq);
        assert!(!rules.no_determinism);
        assert!(!rules.errors_doc);
    }

    #[test]
    fn findings_render_with_location() {
        let f = Finding {
            file: "crates/core/src/pe.rs".into(),
            line: 7,
            rule: "panic",
            message: "msg".into(),
        };
        assert_eq!(f.to_string(), "crates/core/src/pe.rs:7: [panic] msg");
    }

    // -- the on-disk regression corpus (see ../fixtures/) ---------------

    fn all_rules() -> FileRules {
        FileRules {
            no_panic: true,
            no_narrowing: true,
            no_wall_clock: true,
            no_float_eq: true,
            no_determinism: true,
            no_float_ord: true,
            errors_doc: true,
        }
    }

    #[test]
    fn hostile_but_clean_corpus_yields_zero_findings() {
        let src = include_str!("../fixtures/clean_tricky.rs");
        let f = lint_source("fixtures/clean_tricky.rs", src, all_rules());
        assert!(f.is_empty(), "{f:#?}");
    }

    #[test]
    fn seeded_corpus_fires_every_rule_at_the_exact_line() {
        let src = include_str!("../fixtures/seeded.rs");
        let f = lint_source("fixtures/seeded.rs", src, all_rules());
        let got: Vec<(usize, &str)> = f.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(
            got,
            vec![
                (7, "panic"),
                (11, "narrowing"),
                (15, "wall-clock"),
                (19, "float-eq"),
                (23, "determinism"),
                (28, "float-ord"),
                (32, "errors-doc"),
            ],
            "{f:#?}"
        );
    }
}
