//! Fixture tests for every lint rule: each rule is exercised both firing and
//! silenced by an inline escape.  New rules must add their fixtures here (see
//! CONTRIBUTING.md).
//!
//! All lint trigger text below lives inside Rust *string literals*, which the
//! lexer classifies as `Str` tokens — so this file never lints itself.

use lcmsr_analysis::rules::{analyze_source, Rule};

/// Runs the analyzer and returns just the rule of each finding.
fn rules_in(path: &str, src: &str) -> Vec<Rule> {
    analyze_source(path, src.as_bytes())
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

// ---------------------------------------------------------------- determinism

#[test]
fn determinism_fires_on_hash_collections_in_solver_code() {
    let src = r#"
use std::collections::{HashMap, HashSet};
fn f() {
    let m: HashMap<u32, u32> = HashMap::new();
    let s: HashSet<u32> = HashSet::new();
}
"#;
    let rules = rules_in("crates/core/src/fixture.rs", src);
    assert!(rules.iter().filter(|r| **r == Rule::Determinism).count() >= 2);
    // geotext is in scope too; bench code is not.
    assert!(rules_in("crates/geotext/src/fixture.rs", src).contains(&Rule::Determinism));
    assert!(!rules_in("crates/bench/src/fixture.rs", src).contains(&Rule::Determinism));
}

#[test]
fn determinism_is_escaped_with_a_reason() {
    let src = "
fn f() {
    // lcmsr-lint: allow(determinism) — keyed lookup only, order never observed
    let m: std::collections::HashMap<u32, u32> = Default::default();
    let _ = m;
}
";
    assert!(!rules_in("crates/core/src/fixture.rs", src).contains(&Rule::Determinism));
}

#[test]
fn determinism_ignores_trigger_words_in_comments_and_strings() {
    let src = r#"
// A HashMap would be wrong here.
fn f() -> &'static str {
    "HashMap and HashSet in a string"
}
"#;
    assert_eq!(rules_in("crates/core/src/fixture.rs", src), vec![]);
}

// ---------------------------------------------------------------------- clock

#[test]
fn clock_fires_on_raw_instant_now() {
    let src = "
fn f() {
    let _t = std::time::Instant::now();
    let _w = std::time::SystemTime::now();
}
";
    let rules = rules_in("crates/core/src/fixture.rs", src);
    assert_eq!(rules.iter().filter(|r| **r == Rule::Clock).count(), 2);
}

#[test]
fn clock_skips_audited_files_and_test_code() {
    let src = "
fn f() {
    let _t = std::time::Instant::now();
}
";
    assert!(!rules_in("crates/core/src/cancel.rs", src).contains(&Rule::Clock));
    // `core::cancel` is the only audited clock file.
    assert!(rules_in("crates/core/src/trace.rs", src).contains(&Rule::Clock));
    assert!(rules_in("crates/service/src/scheduler.rs", src).contains(&Rule::Clock));
    let test_src = "
#[cfg(test)]
mod tests {
    fn f() {
        let _t = std::time::Instant::now();
    }
}
";
    assert!(!rules_in("crates/core/src/fixture.rs", test_src).contains(&Rule::Clock));
}

#[test]
fn clock_is_escaped_with_a_reason() {
    let src = "
fn f() {
    // lcmsr-lint: allow(clock) — wall-clock logging only, never solver state
    let _t = std::time::Instant::now();
}
";
    assert!(!rules_in("crates/core/src/fixture.rs", src).contains(&Rule::Clock));
}

// ----------------------------------------------------------------- panic_free

#[test]
fn panic_free_fires_on_unwrap_expect_and_panic_macros() {
    let src = r#"
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect("present");
    if a + b > 3 {
        panic!("boom");
    }
    unreachable!()
}
"#;
    let rules = rules_in("crates/service/src/fixture.rs", src);
    assert_eq!(rules.iter().filter(|r| **r == Rule::PanicFree).count(), 4);
    // The rule only applies to the service crate.
    assert!(!rules_in("crates/core/src/fixture.rs", src).contains(&Rule::PanicFree));
}

#[test]
fn panic_free_skips_test_code_and_lookalike_methods() {
    let test_src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
    }
}
"#;
    assert!(!rules_in("crates/service/src/fixture.rs", test_src).contains(&Rule::PanicFree));
    // `unwrap_or`, `unwrap_or_else` and an own method `expect_byte` are fine.
    let lookalikes = r#"
fn f(x: Option<u32>, p: &mut Parser) -> Result<u32, E> {
    p.expect_byte(b'x')?;
    Ok(x.unwrap_or(0) + x.unwrap_or_else(|| 1))
}
"#;
    assert!(!rules_in("crates/service/src/fixture.rs", lookalikes).contains(&Rule::PanicFree));
}

#[test]
fn panic_free_is_escaped_with_a_reason() {
    let src = r#"
fn f(x: Option<u32>) -> u32 {
    // lcmsr-lint: allow(panic_free) — invariant: caller checked is_some()
    x.unwrap()
}
"#;
    assert!(!rules_in("crates/service/src/fixture.rs", src).contains(&Rule::PanicFree));
}

// -------------------------------------------------------------- unsafe_safety

#[test]
fn unsafe_safety_fires_without_a_safety_comment() {
    let src = "
fn f(p: *const u32) -> u32 {
    unsafe { *p }
}
";
    assert!(rules_in("crates/core/src/fixture.rs", src).contains(&Rule::UnsafeSafety));
}

#[test]
fn unsafe_safety_accepts_a_safety_comment() {
    let src = "
fn f(p: *const u32) -> u32 {
    // SAFETY: callers pass a pointer derived from a live reference.
    unsafe { *p }
}
";
    assert!(!rules_in("crates/core/src/fixture.rs", src).contains(&Rule::UnsafeSafety));
}

#[test]
fn unsafe_safety_is_escaped_with_a_reason() {
    let src = "
fn f(p: *const u32) -> u32 {
    // lcmsr-lint: allow(unsafe_safety) — fixture exercising the escape hatch
    unsafe { *p }
}
";
    assert!(!rules_in("crates/core/src/fixture.rs", src).contains(&Rule::UnsafeSafety));
}

// --------------------------------------------------------------- lock_nesting

#[test]
fn lock_nesting_fires_on_a_second_acquisition() {
    let src = "
fn f(m: &std::sync::Mutex<u32>) {
    let a = *m.lock().unwrap_or_else(|e| e.into_inner());
    let b = *m.lock().unwrap_or_else(|e| e.into_inner());
    let _ = a + b;
}
";
    assert!(rules_in("crates/core/src/fixture.rs", src).contains(&Rule::LockNesting));
}

#[test]
fn lock_nesting_counts_the_poison_recovery_helper() {
    let src = "
fn f(m: &std::sync::Mutex<u32>) {
    let a = *lock_or_recover(m);
    let b = *lock_or_recover(m);
    let _ = a + b;
}
";
    assert!(rules_in("crates/service/src/fixture.rs", src).contains(&Rule::LockNesting));
}

#[test]
fn lock_nesting_allows_one_acquisition_per_function() {
    let src = "
fn f(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap_or_else(|e| e.into_inner())
}
fn g(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap_or_else(|e| e.into_inner())
}
";
    assert!(!rules_in("crates/core/src/fixture.rs", src).contains(&Rule::LockNesting));
}

#[test]
fn lock_nesting_is_escaped_with_a_reason() {
    let src = "
fn f(m: &std::sync::Mutex<u32>) {
    { let _a = lock_or_recover(m); }
    // lcmsr-lint: allow(lock_nesting) — first guard died at its block's end
    let _b = lock_or_recover(m);
}
";
    assert!(!rules_in("crates/service/src/fixture.rs", src).contains(&Rule::LockNesting));
}

// ------------------------------------------------------------------ cache_key

#[test]
fn cache_key_fires_on_raw_to_bits_in_core_and_service() {
    let src = "
fn fingerprint(x: f64) -> u64 {
    x.to_bits()
}
";
    assert!(rules_in("crates/core/src/fixture.rs", src).contains(&Rule::CacheKey));
    assert!(rules_in("crates/service/src/fixture.rs", src).contains(&Rule::CacheKey));
    // The k-MST oracle is in scope like the rest of core.
    assert!(rules_in("crates/core/src/kmst/garg.rs", src).contains(&Rule::CacheKey));
    // Out of scope: other crates, and the audited fingerprint module that
    // owns the canonicalizers.
    assert!(!rules_in("crates/bench/src/fixture.rs", src).contains(&Rule::CacheKey));
    assert!(!rules_in("crates/core/src/cache.rs", src).contains(&Rule::CacheKey));
}

#[test]
fn cache_key_skips_test_code_and_non_method_uses() {
    let src = "
fn f() -> u64 {
    to_bits(1.0)
}
#[cfg(test)]
mod tests {
    fn t(x: f64) -> u64 { x.to_bits() }
}
";
    assert!(!rules_in("crates/core/src/fixture.rs", src).contains(&Rule::CacheKey));
}

#[test]
fn cache_key_is_escaped_with_a_reason() {
    let src = "
fn fingerprint(x: f64) -> u64 {
    // lcmsr-lint: allow(cache_key) — caller already folded the sign
    x.to_bits()
}
";
    assert!(!rules_in("crates/core/src/fixture.rs", src).contains(&Rule::CacheKey));
}

// --------------------------------------------------------------------- escape

#[test]
fn escape_without_a_reason_is_itself_a_finding() {
    let src = "
fn f() {
    // lcmsr-lint: allow(determinism)
    let m: std::collections::HashMap<u32, u32> = Default::default();
    let _ = m;
}
";
    let findings = analyze_source("crates/core/src/fixture.rs", src.as_bytes());
    // The reasonless escape does not silence the finding, and is reported.
    assert!(findings.iter().any(|f| f.rule == Rule::Escape));
    assert!(findings.iter().any(|f| f.rule == Rule::Determinism));
}

#[test]
fn escape_naming_an_unknown_rule_is_reported() {
    let src = "
fn f() {
    // lcmsr-lint: allow(determinsim) — typo'd rule name
    let _x = 1;
}
";
    let findings = analyze_source("crates/core/src/fixture.rs", src.as_bytes());
    assert!(findings
        .iter()
        .any(|f| f.rule == Rule::Escape && f.message.contains("determinsim")));
}

#[test]
fn escape_covers_code_after_a_multi_line_explanation() {
    let src = "
fn f() {
    // lcmsr-lint: allow(determinism) — the map is drained through a sorted
    // collection before anything order-sensitive reads it, so iteration
    // order cannot leak into results.
    let m: std::collections::HashMap<u32, u32> = Default::default();
    let _ = m;
}
";
    assert_eq!(rules_in("crates/core/src/fixture.rs", src), vec![]);
}

#[test]
fn trailing_escape_on_the_finding_line_works() {
    let src = "
fn f() {
    let m: std::collections::HashMap<u32, u32> = Default::default(); // lcmsr-lint: allow(determinism) — fixture
    let _ = m;
}
";
    assert_eq!(rules_in("crates/core/src/fixture.rs", src), vec![]);
}
