//! The lint rules and the per-file analysis driver.
//!
//! Every rule is a *repo invariant*: a property the LCMSR codebase promises
//! (bit-identical output, panic-free serving, audited clocks, safe unsafe,
//! deadlock-free locking) that plain `rustc`/`clippy` cannot check because it
//! is about *this* repo's architecture, not the language.
//!
//! A finding can be silenced inline with an explicit, reasoned escape:
//!
//! ```text
//! // lcmsr-lint: allow(clock) — bench-only wall-clock display
//! ```
//!
//! on the finding's line or the line directly above it.  An escape without a
//! reason is itself reported (`escape` rule) — the policy is "explain it or
//! fix it", never silent baselining.

use crate::lexer::{lex, text, Token, TokenKind};

/// Stable identifiers for the rules (the names used in `allow(…)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `HashMap`/`HashSet` in deterministic solver code.
    Determinism,
    /// `Instant::now()`/`SystemTime::now()` outside the audited clock file.
    Clock,
    /// `unwrap`/`expect`/`panic!`/`unreachable!` in serving code.
    PanicFree,
    /// `unsafe` block or impl without a `// SAFETY:` comment.
    UnsafeSafety,
    /// Two `.lock()` acquisitions inside one function body.
    LockNesting,
    /// Raw `.to_bits()` float fingerprinting outside the audited cache-key
    /// modules (bypasses `canon_f64`'s signed-zero folding).
    CacheKey,
    /// An escape comment with no reason, or naming no known rule.
    Escape,
}

impl Rule {
    /// The name accepted inside `allow(...)` and printed in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::Clock => "clock",
            Rule::PanicFree => "panic_free",
            Rule::UnsafeSafety => "unsafe_safety",
            Rule::LockNesting => "lock_nesting",
            Rule::CacheKey => "cache_key",
            Rule::Escape => "escape",
        }
    }

    fn from_name(name: &str) -> Option<Rule> {
        match name {
            "determinism" => Some(Rule::Determinism),
            "clock" => Some(Rule::Clock),
            "panic_free" => Some(Rule::PanicFree),
            "unsafe_safety" => Some(Rule::UnsafeSafety),
            "lock_nesting" => Some(Rule::LockNesting),
            "cache_key" => Some(Rule::CacheKey),
            "escape" => Some(Rule::Escape),
            _ => None,
        }
    }

    /// Every real rule (excludes the meta `escape` rule).
    pub const ALL: [Rule; 6] = [
        Rule::Determinism,
        Rule::Clock,
        Rule::PanicFree,
        Rule::UnsafeSafety,
        Rule::LockNesting,
        Rule::CacheKey,
    ];
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

/// Which rules run on a file, from its repo-relative path.
///
/// Scope policy (the rule catalogue in README.md documents the why):
///
/// * `determinism` — the deterministic solve path: `crates/core/src` and
///   `crates/geotext/src`, test code included (tests feed golden snapshots).
/// * `clock` — all `crates/*/src` except the audited clock file
///   (`core/src/cancel.rs`) and the bench crate; `#[cfg(test)]` code may use
///   clocks freely.
/// * `panic_free` — `crates/service/src` non-test code.
/// * `unsafe_safety` — everywhere.
/// * `lock_nesting` — all `crates/*/src` non-test code.
/// * `cache_key` — `crates/core/src` and `crates/service/src` non-test code,
///   except the audited fingerprint module `core/src/cache.rs`, which owns
///   `canon_f64`.
fn rules_for(path: &str) -> Vec<Rule> {
    let mut rules = vec![Rule::UnsafeSafety];
    let in_crate_src = path.starts_with("crates/") && path.contains("/src/");
    if path.starts_with("crates/core/src/") || path.starts_with("crates/geotext/src/") {
        rules.push(Rule::Determinism);
    }
    const CLOCK_AUDITED: [&str; 1] = ["crates/core/src/cancel.rs"];
    if in_crate_src && !path.starts_with("crates/bench/") && !CLOCK_AUDITED.contains(&path) {
        rules.push(Rule::Clock);
    }
    if path.starts_with("crates/service/src/") {
        rules.push(Rule::PanicFree);
    }
    if in_crate_src {
        rules.push(Rule::LockNesting);
    }
    const CACHE_KEY_AUDITED: [&str; 1] = ["crates/core/src/cache.rs"];
    if (path.starts_with("crates/core/src/") || path.starts_with("crates/service/src/"))
        && !CACHE_KEY_AUDITED.contains(&path)
    {
        rules.push(Rule::CacheKey);
    }
    rules
}

/// An inline escape parsed out of a comment (the `lcmsr-lint:` marker
/// followed by an `allow` list and a mandatory reason).
struct EscapeComment {
    line: u32,
    rules: Vec<Rule>,
    has_reason: bool,
    /// Unknown rule names inside `allow(…)` (reported: a typo would
    /// otherwise silently disable nothing while looking authoritative).
    unknown: Vec<String>,
}

fn parse_escape(token: &Token, src: &[u8]) -> Option<EscapeComment> {
    let body = String::from_utf8_lossy(text(src, token));
    let at = body.find("lcmsr-lint:")?;
    let rest = body[at + "lcmsr-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let (names, after) = rest.split_once(')')?;
    let mut rules = Vec::new();
    let mut unknown = Vec::new();
    for name in names.split(',') {
        let name = name.trim();
        if name.is_empty() {
            continue;
        }
        match Rule::from_name(name) {
            Some(rule) => rules.push(rule),
            None => unknown.push(name.to_string()),
        }
    }
    // The reason is whatever follows the closing paren, minus separator
    // punctuation (`—`, `–`, `-`, `:`).
    let reason = after
        .trim_start()
        .trim_start_matches(['—', '–', '-', ':'])
        .trim();
    Some(EscapeComment {
        line: token.line,
        rules,
        has_reason: !reason.is_empty(),
        unknown,
    })
}

/// Byte ranges covered by `#[cfg(test)]` items (the attribute's target item,
/// through its closing `}` or `;`).
fn cfg_test_ranges(tokens: &[Token], src: &[u8]) -> Vec<(usize, usize)> {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].kind != TokenKind::Punct(b'#') {
            i += 1;
            continue;
        }
        // Parse one `#[...]` attribute, remembering whether it is cfg(test).
        let Some(open) = code.get(i + 1).filter(|t| t.kind == TokenKind::Punct(b'[')) else {
            i += 1;
            continue;
        };
        let _ = open;
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut saw_cfg = false;
        let mut saw_test = false;
        while j < code.len() {
            match code[j].kind {
                TokenKind::Punct(b'[') => depth += 1,
                TokenKind::Punct(b']') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident => {
                    let t = text(src, code[j]);
                    saw_cfg |= t == b"cfg";
                    saw_test |= t == b"test";
                }
                _ => {}
            }
            j += 1;
        }
        if !(saw_cfg && saw_test) || j >= code.len() {
            i = j.max(i + 1);
            continue;
        }
        // Skip any further attributes on the same item, then consume the item
        // through its closing `}` (mod/fn) or `;` (use, etc.).
        let mut k = j + 1;
        while k + 1 < code.len() && code[k].kind == TokenKind::Punct(b'#') {
            let mut depth = 0usize;
            let mut m = k + 1;
            while m < code.len() {
                match code[m].kind {
                    TokenKind::Punct(b'[') => depth += 1,
                    TokenKind::Punct(b']') => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            k = m + 1;
        }
        let item_start = code[i].start;
        let mut braces = 0usize;
        let mut entered = false;
        let mut end = src.len();
        while k < code.len() {
            match code[k].kind {
                TokenKind::Punct(b'{') => {
                    braces += 1;
                    entered = true;
                }
                TokenKind::Punct(b'}') => {
                    braces = braces.saturating_sub(1);
                    if entered && braces == 0 {
                        end = code[k].end;
                        break;
                    }
                }
                TokenKind::Punct(b';') if !entered => {
                    end = code[k].end;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        ranges.push((item_start, end));
        i = k + 1;
    }
    ranges
}

/// The per-file analysis context handed to each rule.
struct FileContext<'a> {
    path: &'a str,
    src: &'a [u8],
    /// All tokens, comments and whitespace included.
    tokens: &'a [Token],
    /// Indices into `tokens` of code tokens only (no comments/whitespace).
    code: Vec<usize>,
    test_ranges: Vec<(usize, usize)>,
}

impl FileContext<'_> {
    fn in_test(&self, offset: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(s, e)| offset >= s && offset < e)
    }

    fn code_token(&self, code_idx: usize) -> Option<&Token> {
        self.code.get(code_idx).map(|&i| &self.tokens[i])
    }

    fn ident_at(&self, code_idx: usize) -> Option<&[u8]> {
        let t = self.code_token(code_idx)?;
        (t.kind == TokenKind::Ident).then(|| text(self.src, t))
    }

    fn punct_at(&self, code_idx: usize, p: u8) -> bool {
        self.code_token(code_idx)
            .is_some_and(|t| t.kind == TokenKind::Punct(p))
    }
}

/// Analyzes one file's source, returning its findings (escapes applied).
pub fn analyze_source(path: &str, src: &[u8]) -> Vec<Finding> {
    let tokens = lex(src);
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .map(|(i, _)| i)
        .collect();
    let test_ranges = cfg_test_ranges(&tokens, src);
    let ctx = FileContext {
        path,
        src,
        tokens: &tokens,
        code,
        test_ranges,
    };

    let active = rules_for(path);
    let mut findings = Vec::new();
    for rule in &active {
        match rule {
            Rule::Determinism => check_determinism(&ctx, &mut findings),
            Rule::Clock => check_clock(&ctx, &mut findings),
            Rule::PanicFree => check_panic_free(&ctx, &mut findings),
            Rule::UnsafeSafety => check_unsafe_safety(&ctx, &mut findings),
            Rule::LockNesting => check_lock_nesting(&ctx, &mut findings),
            Rule::CacheKey => check_cache_key(&ctx, &mut findings),
            Rule::Escape => {}
        }
    }

    apply_escapes(&ctx, findings)
}

/// Filters findings through the file's escape comments and reports malformed
/// escapes as findings of their own.
fn apply_escapes(ctx: &FileContext<'_>, findings: Vec<Finding>) -> Vec<Finding> {
    let mut escapes = Vec::new();
    let mut out = Vec::new();
    for (ti, token) in ctx.tokens.iter().enumerate() {
        if !matches!(token.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let Some(escape) = parse_escape(token, ctx.src) else {
            continue;
        };
        // The line the escape covers besides its own: the line of the next
        // non-comment token, so a multi-line explanation between the escape
        // and the code it excuses does not break the association.
        let mut covers = escape.line;
        let mut j = ti + 1;
        while let Some(next) = ctx.tokens.get(j) {
            match next.kind {
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment => j += 1,
                _ => {
                    covers = next.line;
                    break;
                }
            }
        }
        for name in &escape.unknown {
            out.push(Finding {
                rule: Rule::Escape,
                file: ctx.path.to_string(),
                line: escape.line,
                message: format!("escape names unknown rule '{name}'"),
            });
        }
        if !escape.has_reason {
            out.push(Finding {
                rule: Rule::Escape,
                file: ctx.path.to_string(),
                line: escape.line,
                message: "escape has no reason; write `lcmsr-lint: allow(<rule>) — <why>`".into(),
            });
        }
        escapes.push((escape, covers));
    }
    // An escape covers findings on its own line (a trailing comment) and on
    // the first code line after it (a comment directly above the code).
    for finding in findings {
        let escaped = escapes.iter().any(|(e, covers)| {
            e.rules.contains(&finding.rule)
                && e.has_reason
                && (e.line == finding.line || *covers == finding.line)
        });
        if !escaped {
            out.push(finding);
        }
    }
    out.sort_by(|a, b| (a.line, a.rule.name()).cmp(&(b.line, b.rule.name())));
    out
}

fn push(ctx: &FileContext<'_>, out: &mut Vec<Finding>, rule: Rule, token: &Token, message: String) {
    out.push(Finding {
        rule,
        file: ctx.path.to_string(),
        line: token.line,
        message,
    });
}

/// determinism: no `HashMap`/`HashSet` identifiers — iteration order leaks
/// into float summation and tie-breaks (the PR 2 bug class, fixed twice).
fn check_determinism(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for idx in 0..ctx.code.len() {
        let Some(name) = ctx.ident_at(idx) else {
            continue;
        };
        if name == b"HashMap" || name == b"HashSet" {
            let token = ctx.code_token(idx).expect("ident_at checked");
            push(
                ctx,
                out,
                Rule::Determinism,
                token,
                format!(
                    "{} in deterministic solver code: iteration order is random per process; \
                     use BTreeMap/BTreeSet or a sorted Vec",
                    String::from_utf8_lossy(name)
                ),
            );
        }
    }
}

/// clock: no raw `Instant::now()`/`SystemTime::now()` outside the audited
/// clock file — every time read flows through `core::cancel::now` so
/// anytime-query promptness stays auditable.
fn check_clock(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for idx in 0..ctx.code.len().saturating_sub(3) {
        let Some(head) = ctx.ident_at(idx) else {
            continue;
        };
        if head != b"Instant" && head != b"SystemTime" {
            continue;
        }
        if !(ctx.punct_at(idx + 1, b':') && ctx.punct_at(idx + 2, b':')) {
            continue;
        }
        if ctx.ident_at(idx + 3) != Some(b"now".as_slice()) {
            continue;
        }
        let token = ctx.code_token(idx).expect("ident_at checked");
        if ctx.in_test(token.start) {
            continue;
        }
        push(
            ctx,
            out,
            Rule::Clock,
            token,
            format!(
                "raw {}::now() outside the audited clock module; use core::cancel::now()",
                String::from_utf8_lossy(head)
            ),
        );
    }
}

/// panic_free: serving code answers with 4xx/5xx, never a panic — a panic
/// poisons locks and drops the client's connection without an answer.
fn check_panic_free(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for idx in 0..ctx.code.len() {
        let Some(name) = ctx.ident_at(idx) else {
            continue;
        };
        let token = ctx.code_token(idx).expect("ident_at checked");
        if ctx.in_test(token.start) {
            continue;
        }
        let method_call = |ctx: &FileContext<'_>| {
            idx > 0 && ctx.punct_at(idx - 1, b'.') && ctx.punct_at(idx + 1, b'(')
        };
        match name {
            b"unwrap" | b"expect" if method_call(ctx) => {
                push(
                    ctx,
                    out,
                    Rule::PanicFree,
                    token,
                    format!(
                        ".{}() in serving code; return an error (4xx/5xx) or recover instead",
                        String::from_utf8_lossy(name)
                    ),
                );
            }
            b"panic" | b"unreachable" | b"todo" | b"unimplemented"
                if ctx.punct_at(idx + 1, b'!') =>
            {
                push(
                    ctx,
                    out,
                    Rule::PanicFree,
                    token,
                    format!(
                        "{}! in serving code; return an error (4xx/5xx) instead",
                        String::from_utf8_lossy(name)
                    ),
                );
            }
            _ => {}
        }
    }
}

/// unsafe_safety: every `unsafe` block or impl carries a `// SAFETY:` comment
/// directly above it stating the proof obligation it discharges.
fn check_unsafe_safety(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for idx in 0..ctx.code.len() {
        if ctx.ident_at(idx) != Some(b"unsafe".as_slice()) {
            continue;
        }
        let is_block = ctx.punct_at(idx + 1, b'{');
        let is_impl = ctx.ident_at(idx + 1) == Some(b"impl".as_slice());
        if !is_block && !is_impl {
            continue; // `unsafe fn` declarations are the caller's obligation
        }
        let token = ctx.code_token(idx).expect("checked unsafe ident");
        // Look for a SAFETY: comment among the raw tokens directly preceding
        // the `unsafe` keyword (whitespace-separated comments allowed).
        let raw_idx = ctx
            .tokens
            .iter()
            .position(|t| t.start == token.start)
            .unwrap_or(0);
        let mut documented = false;
        for t in ctx.tokens[..raw_idx].iter().rev() {
            match t.kind {
                TokenKind::Whitespace => continue,
                TokenKind::LineComment | TokenKind::BlockComment => {
                    let body = text(ctx.src, t);
                    documented = body.windows(7).any(|w| w == b"SAFETY:");
                    break;
                }
                _ => break,
            }
        }
        if !documented {
            push(
                ctx,
                out,
                Rule::UnsafeSafety,
                token,
                format!(
                    "unsafe {} without a `// SAFETY:` comment directly above it",
                    if is_block { "block" } else { "impl" }
                ),
            );
        }
    }
}

/// lock_nesting: a function body acquiring `.lock()` twice is the static
/// shape of the register-vs-shutdown deadlock class (PR 4) — each site must
/// either be split up or carry an escape explaining why the guards cannot
/// overlap (or why a consistent acquisition order holds).
fn check_lock_nesting(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let mut i = 0;
    while i < ctx.code.len() {
        if ctx.ident_at(i) != Some(b"fn".as_slice()) {
            i += 1;
            continue;
        }
        // Find the body's opening brace: the first `{` at zero paren/bracket
        // depth after the `fn` keyword (a `;` first means no body).
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut body_open = None;
        while j < ctx.code.len() {
            match ctx.code_token(j).map(|t| t.kind) {
                Some(TokenKind::Punct(b'(' | b'[')) => depth += 1,
                Some(TokenKind::Punct(b')' | b']')) => depth -= 1,
                Some(TokenKind::Punct(b'{')) if depth == 0 => {
                    body_open = Some(j);
                    break;
                }
                Some(TokenKind::Punct(b';')) if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i = j + 1;
            continue;
        };
        // Scan the body (to the matching `}`), counting lock acquisitions:
        // `.lock(` method calls and `lock_or_recover(` helper calls (the
        // service's poison-tolerant wrapper must not hide a double-lock).
        let mut braces = 0i32;
        let mut k = open;
        let mut locks: Vec<usize> = Vec::new();
        while k < ctx.code.len() {
            match ctx.code_token(k).map(|t| t.kind) {
                Some(TokenKind::Punct(b'{')) => braces += 1,
                Some(TokenKind::Punct(b'}')) => {
                    braces -= 1;
                    if braces == 0 {
                        break;
                    }
                }
                Some(TokenKind::Ident)
                    if ctx.ident_at(k) == Some(b"lock".as_slice())
                        && k > 0
                        && ctx.punct_at(k - 1, b'.')
                        && ctx.punct_at(k + 1, b'(') =>
                {
                    locks.push(k);
                }
                Some(TokenKind::Ident)
                    if ctx.ident_at(k) == Some(b"lock_or_recover".as_slice())
                        && ctx.punct_at(k + 1, b'(') =>
                {
                    locks.push(k);
                }
                _ => {}
            }
            k += 1;
        }
        for &site in locks.iter().skip(1) {
            let token = ctx.code_token(site).expect("lock site recorded");
            if ctx.in_test(token.start) {
                continue;
            }
            push(
                ctx,
                out,
                Rule::LockNesting,
                token,
                "second lock acquisition in one function body (deadlock-shape audit); split \
                 the function or escape with the reason the guards cannot overlap"
                    .to_string(),
            );
        }
        i = k + 1;
    }
}

/// cache_key: response-cache keys must fold `-0.0` to `0.0` before bit-level
/// fingerprinting, or two requests for the same rectangle land in different
/// cache slots.  Raw `.to_bits()` on request-derived floats is the static
/// shape of that bug, so outside the audited fingerprint modules every call
/// site must either go through `core::cache::canon_f64` /
/// `core::cache::request_key` or carry an escape saying why its float can
/// never be a negative zero.
fn check_cache_key(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for idx in 1..ctx.code.len() {
        if ctx.ident_at(idx) != Some(b"to_bits".as_slice()) {
            continue;
        }
        if !(ctx.punct_at(idx - 1, b'.') && ctx.punct_at(idx + 1, b'(')) {
            continue;
        }
        let token = ctx.code_token(idx).expect("ident_at checked");
        if ctx.in_test(token.start) {
            continue;
        }
        push(
            ctx,
            out,
            Rule::CacheKey,
            token,
            "raw .to_bits() outside the audited fingerprint modules; -0.0 and 0.0 get \
             different bits — use core::cache::canon_f64 (or request_key) first"
                .to_string(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_for_scopes_paths() {
        let names = |path: &str| {
            let mut v: Vec<&str> = rules_for(path).into_iter().map(Rule::name).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            names("crates/core/src/tgen.rs"),
            vec![
                "cache_key",
                "clock",
                "determinism",
                "lock_nesting",
                "unsafe_safety"
            ]
        );
        assert_eq!(
            names("crates/service/src/service.rs"),
            vec![
                "cache_key",
                "clock",
                "lock_nesting",
                "panic_free",
                "unsafe_safety"
            ]
        );
        // The audited clock file is `core::cancel` alone: the scheduler
        // reads the clock through it like the rest of the service.
        assert_eq!(
            names("crates/service/src/scheduler.rs"),
            vec![
                "cache_key",
                "clock",
                "lock_nesting",
                "panic_free",
                "unsafe_safety"
            ]
        );
        // Audited fingerprint module: no cache_key rule on the file that
        // defines the canonicalizers.
        assert_eq!(
            names("crates/core/src/cache.rs"),
            vec!["clock", "determinism", "lock_nesting", "unsafe_safety"]
        );
        // Only `cache.rs` is audited: the k-MST oracle is checked like the
        // rest of core.
        assert_eq!(
            names("crates/core/src/kmst/garg.rs"),
            vec![
                "cache_key",
                "clock",
                "determinism",
                "lock_nesting",
                "unsafe_safety"
            ]
        );
        assert_eq!(
            names("crates/bench/src/lib.rs"),
            vec!["lock_nesting", "unsafe_safety"]
        );
        assert_eq!(names("examples/quickstart.rs"), vec!["unsafe_safety"]);
        assert_eq!(names("tests/batch.rs"), vec!["unsafe_safety"]);
    }

    #[test]
    fn escape_parsing() {
        let src = b"// lcmsr-lint: allow(clock) \xe2\x80\x94 bench display only\n";
        let tokens = lex(src);
        let escape = parse_escape(&tokens[0], src).expect("parses");
        assert_eq!(escape.rules, vec![Rule::Clock]);
        assert!(escape.has_reason);
        assert!(escape.unknown.is_empty());

        let src = b"// lcmsr-lint: allow(clock, panic_free)\n";
        let tokens = lex(src);
        let escape = parse_escape(&tokens[0], src).expect("parses");
        assert_eq!(escape.rules, vec![Rule::Clock, Rule::PanicFree]);
        assert!(!escape.has_reason);

        let src = b"// lcmsr-lint: allow(clocks) - typo\n";
        let tokens = lex(src);
        let escape = parse_escape(&tokens[0], src).expect("parses");
        assert_eq!(escape.unknown, vec!["clocks".to_string()]);

        let src = b"// just a comment mentioning lcmsr-lint\n";
        let tokens = lex(src);
        assert!(parse_escape(&tokens[0], src).is_none());
    }

    #[test]
    fn cache_key_flags_raw_to_bits_outside_audited_modules() {
        let src = br#"
fn fingerprint(x: f64) -> u64 { x.to_bits() }
// lcmsr-lint: allow(cache_key) - sign already folded by the caller
fn audited(x: f64) -> u64 { x.to_bits() }
#[cfg(test)]
mod tests {
    fn t(x: f64) -> u64 { x.to_bits() }
}
"#;
        let findings = analyze_source("crates/core/src/engine.rs", src);
        let hits: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == Rule::CacheKey)
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert_eq!(hits[0].line, 2);
        assert!(hits[0].message.contains("canon_f64"));
        // The audited module itself is out of scope entirely.
        let audited = analyze_source("crates/core/src/cache.rs", src);
        assert!(audited.iter().all(|f| f.rule != Rule::CacheKey));
    }

    #[test]
    fn cfg_test_mod_is_skipped() {
        let src = br#"
fn live() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); z.expect("fine"); }
}
"#;
        let findings = analyze_source("crates/service/src/x.rs", src);
        let panics: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == Rule::PanicFree)
            .collect();
        assert_eq!(panics.len(), 1, "{findings:?}");
        assert_eq!(panics[0].line, 2);
    }
}
