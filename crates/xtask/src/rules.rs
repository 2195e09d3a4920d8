//! The lsw lint rules.
//!
//! Each rule guards a piece of the workspace's headline guarantee —
//! bit-identical reports at any thread/shard count — or the soundness
//! discipline around it:
//!
//! * **L001** — no iteration over hash-ordered collections
//!   (`HashMap`/`HashSet`). Hash iteration order is randomized per
//!   process; one such loop feeding a report breaks byte-identity.
//! * **L002** — no ambient nondeterminism (`thread_rng`, `rand::random`,
//!   `SystemTime::now`, `Instant::now`) in the deterministic crates.
//!   All randomness must flow through the counter-keyed substream API
//!   (`lsw_stats::rng::SeedStream`). The rule also covers OS endpoint
//!   acquisition (`TcpListener::bind`, `TcpStream::connect`,
//!   `UdpSocket::bind`): a socket is a clock you don't control. The
//!   `replay` crate exists to touch both, so each of its sites carries a
//!   line-scoped reasoned allow — never a file-wide exemption.
//! * **L003** — no `f64`/`f32` `+=` accumulation on fields of types that
//!   participate in shard merge. Float addition is non-associative, so
//!   merge order would leak into results; shard-merged sums use the
//!   `lsw_stream::fixed` i128 fixed-point accumulators.
//! * **L004** — no unordered `rayon` reductions (`reduce`, `sum`) outside
//!   the blessed k-way-merge modules.
//! * **L005** — no `unwrap()`/`expect()`/`panic!` in library crates'
//!   non-test code (CLI binaries and tests are exempt).
//! * **L006** — no allocating text conversions (`from_utf8_lossy`,
//!   `.to_string()`, `.to_owned()`, `String::from*`) in the ingest
//!   hot-path files. These paths budget ~hundreds of ns per record;
//!   one hidden per-record allocation erases a whole optimization pass.
//!   Cold diagnostics (error constructors, once-per-report rendering)
//!   carry an `lsw::allow(L006)` with the reason.
//!
//! The interprocedural rules (see `DESIGN.md` §14) ride on the call
//! graph in [`crate::graph`]:
//!
//! * **L007** — lock-order analysis: the mutex/rwlock acquisition graph
//!   over `crates/replay` and `crates/stream` must be cycle-free; a
//!   cycle is a potential deadlock between worker shards.
//! * **L008** — no blocking call (`thread::sleep`, `read_to_end`,
//!   unbounded `recv()`, blocking `lock()` waits) reachable from the
//!   replay worker-shard poll loop. Every sanctioned site carries a
//!   reasoned allow explaining why its wait is bounded.
//! * **L009** — bounded-memory discipline: growable-container mutation
//!   (`push`/`insert`/`extend`/…) on struct fields in the streaming
//!   ingest and replay backlog files must be dominated by a capacity
//!   check, or live in a blessed bounded-container module. This is the
//!   static counterpart of the `--memory-budget` contract.
//! * **L010** — stale-allow hygiene: an `lsw::allow`/`allow-file`
//!   comment that suppresses zero findings is itself a finding
//!   (`cargo xtask lint --fix` strips them mechanically).
//! * **L011** — lossy `as` casts to narrow types on the ltc codec and
//!   wire-protocol paths must go through `try_from` or carry a
//!   reasoned allow (truncation on a wire path corrupts records
//!   silently).
//!
//! ## Opt-out
//!
//! A violation can be waived with a source comment on the same line or
//! the line directly above:
//!
//! ```text
//! // lsw::allow(L001): keys are sorted into a Vec before output
//! for (k, v) in map.iter() { … }
//! ```
//!
//! `// lsw::allow-file(L00X): reason` anywhere in a file waives the rule
//! for the whole file. The reason text is mandatory: an allow without a
//! `:` is ignored (and therefore still fires). Doc comments (`///`,
//! `//!`, `/** … */`) never register allows — prose that *describes* the
//! annotation syntax, like this paragraph, is not an annotation.

use crate::items::{self, Items};
use crate::lexer::{lex, Lexed, Token, TokenKind};
use std::collections::BTreeSet;

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    L001,
    L002,
    L003,
    L004,
    L005,
    L006,
    L007,
    L008,
    L009,
    L010,
    L011,
}

impl RuleId {
    /// The stable id string used in diagnostics and allow comments.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::L001 => "L001",
            RuleId::L002 => "L002",
            RuleId::L003 => "L003",
            RuleId::L004 => "L004",
            RuleId::L005 => "L005",
            RuleId::L006 => "L006",
            RuleId::L007 => "L007",
            RuleId::L008 => "L008",
            RuleId::L009 => "L009",
            RuleId::L010 => "L010",
            RuleId::L011 => "L011",
        }
    }

    /// One-line description, for `--list-rules` output.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::L001 => "no iteration over hash-ordered collections (HashMap/HashSet)",
            RuleId::L002 => {
                "no ambient nondeterminism (thread_rng/random/SystemTime/Instant/raw sockets)"
            }
            RuleId::L003 => "no f64/f32 `+=` on fields of shard-merge participants",
            RuleId::L004 => "no unordered rayon reductions outside blessed merge modules",
            RuleId::L005 => "no unwrap/expect/panic! in library non-test code",
            RuleId::L006 => "no allocating text conversions in ingest hot-path files",
            RuleId::L007 => "no cycles in the replay/stream lock acquisition graph (deadlock risk)",
            RuleId::L008 => "no blocking calls reachable from the replay worker-shard poll loop",
            RuleId::L009 => "growable-container mutation must be capacity-guarded (bounded memory)",
            RuleId::L010 => "an lsw::allow comment that suppresses no finding is stale (use --fix)",
            RuleId::L011 => "no lossy `as` casts on wire-protocol/codec paths; use try_from",
        }
    }

    /// All rules, in id order.
    pub fn all() -> [RuleId; 11] {
        [
            RuleId::L001,
            RuleId::L002,
            RuleId::L003,
            RuleId::L004,
            RuleId::L005,
            RuleId::L006,
            RuleId::L007,
            RuleId::L008,
            RuleId::L009,
            RuleId::L010,
            RuleId::L011,
        ]
    }
}

/// One lint finding within a single file.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub rule: RuleId,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    pub message: String,
}

/// How a file participates in the workspace, which decides rule scope.
#[derive(Debug, Clone, Default)]
pub struct FileClass {
    /// The crate directory name under `crates/` (e.g. `stream`).
    pub crate_name: String,
    /// True for `src/bin/*` files and `src/main.rs` (CLI entrypoints).
    pub is_bin: bool,
    /// True for modules blessed to use unordered reductions (the k-way
    /// merge implementations themselves).
    pub blessed_reduction: bool,
    /// True for the per-record ingest hot-path files (the wms scanner,
    /// the ltc codec, the streaming ingest loop), where L006 applies.
    pub ingest_hot: bool,
    /// True for files whose locks participate in the L007 acquisition
    /// graph and whose fns seed the L008 reachability walk (the
    /// multithreaded replay/stream sources).
    pub lock_scope: bool,
    /// True for files under the bounded-memory contract (streaming
    /// ingest state, replay backlog), where L009 applies.
    pub bounded_mem: bool,
    /// True for blessed bounded-container modules: their growth is
    /// bounded by construction, so L009 stays silent.
    pub bounded_container: bool,
    /// True for wire-format/codec files where L011 polices `as` casts.
    pub wire_path: bool,
}

/// Crates whose library code must be free of ambient nondeterminism
/// (L002). These are the crates on the deterministic generate/analyze
/// path; `figures` (whose `repro` binary times its own run with
/// `Instant`), `lsw` and `xtask` are not.
/// `replay` is listed even though wall time and sockets are its whole
/// point: the rule forces every such site to carry a reasoned
/// line-scoped `lsw::allow(L002)` instead of escaping review wholesale.
const L002_CRATES: &[&str] = &[
    "core",
    "stream",
    "simulator",
    "stats",
    "trace",
    "analysis",
    "topology",
    "replay",
    "edge",
];

/// Crates exempt from L005 wholesale: the CLI front-end.
const L005_EXEMPT_CRATES: &[&str] = &["lsw"];

/// Methods that iterate a collection in storage order (L001).
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
    "par_iter",
    "par_iter_mut",
];

/// Rayon parallel-iterator constructors (L004 chain start).
const PAR_SOURCES: &[&str] = &[
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_bridge",
    "par_chunks",
    "par_chunks_mut",
    "par_windows",
];

/// Unordered rayon combinators (L004 chain sink).
const PAR_SINKS: &[&str] = &["reduce", "reduce_with", "sum", "unordered_fold"];

/// Lints one file's source text under the given classification,
/// applying allow comments. This covers the per-file rules
/// (L001–L006, L009, L011); the interprocedural rules (L007, L008) and
/// stale-allow hygiene (L010) need the whole-workspace pass in
/// [`crate::analyze_sources`].
pub fn lint_source(class: &FileClass, src: &str) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let items = items::extract(&lexed.tokens);
    let allows = collect_allows(&lexed);
    let mut diags = file_rules(class, &lexed, &items);
    diags.retain(|d| !allows.iter().any(|a| a.covers(d.rule, d.line)));
    diags.sort_by_key(|d| (d.line, d.col, d.rule));
    diags
}

/// Runs the per-file rules without allow filtering (the caller decides
/// how suppression and usage accounting work). Diagnostics in test code
/// are already excluded.
pub fn file_rules(class: &FileClass, lexed: &Lexed, items: &Items) -> Vec<Diagnostic> {
    let ctx = Ctx::new(class, lexed);
    let mut diags = Vec::new();
    rule_l001(&ctx, &mut diags);
    rule_l002(&ctx, &mut diags);
    rule_l003(&ctx, &mut diags);
    rule_l004(&ctx, &mut diags);
    rule_l005(&ctx, &mut diags);
    rule_l006(&ctx, &mut diags);
    rule_l009(&ctx, items, &mut diags);
    rule_l011(&ctx, &mut diags);
    diags
}

/// Per-file analysis context shared by all rules.
struct Ctx<'a> {
    class: &'a FileClass,
    toks: &'a [Token],
    /// Inclusive line ranges of `#[cfg(test)]` / `#[test]` items.
    test_spans: Vec<(usize, usize)>,
}

impl<'a> Ctx<'a> {
    fn new(class: &'a FileClass, lexed: &'a Lexed) -> Self {
        Self {
            class,
            toks: &lexed.tokens[..],
            test_spans: test_spans(&lexed.tokens),
        }
    }

    fn in_test(&self, line: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// Pushes a diagnostic unless the site is inside test code.
    fn flag(&self, diags: &mut Vec<Diagnostic>, rule: RuleId, tok: &Token, message: String) {
        if !self.in_test(tok.line) {
            diags.push(Diagnostic {
                rule,
                line: tok.line,
                col: tok.col,
                message,
            });
        }
    }
}

/// One `lsw::allow` / `lsw::allow-file` annotation parsed from a
/// non-doc comment, with the reason text the policy requires.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The waived rule's id string (`"L005"`).
    pub rule: &'static str,
    /// True for `lsw::allow-file(...)`.
    pub file_wide: bool,
    /// 1-based line the carrying comment starts on.
    pub line: usize,
    /// 1-based line the carrying comment ends on.
    pub end_line: usize,
    /// 1-based byte column of the carrying comment.
    pub col: usize,
    /// Byte span of the whole carrying comment (for `--fix` removal).
    pub comment_span: (usize, usize),
    /// The mandatory reason text after `):`.
    pub reason: String,
}

impl Allow {
    /// True when this annotation waives `rule` at `line`: file-wide, or
    /// on the comment's own line(s), or on the line directly below it.
    pub fn covers(&self, rule: RuleId, line: usize) -> bool {
        self.rule == rule.id() && (self.file_wide || line == self.line || line == self.end_line + 1)
    }
}

/// Extracts every allow annotation from a file's comments. Doc comments
/// are skipped: prose describing the syntax is not an annotation.
/// Annotations without a `:`-separated reason are ignored (and the
/// finding they meant to waive still fires).
pub fn collect_allows(lexed: &Lexed) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        if c.is_doc {
            continue;
        }
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("lsw::allow") {
            rest = &rest[pos + "lsw::allow".len()..];
            let file_wide = rest.starts_with("-file");
            let body = rest.trim_start_matches("-file");
            let Some(body) = body.strip_prefix('(') else {
                continue;
            };
            let Some(close) = body.find(')') else {
                continue;
            };
            // Reason required: `)` must be followed by `: <text>`.
            let after = body[close + 1..].trim_start();
            let Some(reason_raw) = after.strip_prefix(':') else {
                continue;
            };
            let reason = reason_raw
                .split("lsw::allow")
                .next()
                .unwrap_or("")
                .trim_end_matches("*/")
                .trim()
                .to_owned();
            if reason.is_empty() {
                continue;
            }
            for name in body[..close].split(',') {
                let name = name.trim().trim_start_matches("lsw::");
                for rule in RuleId::all() {
                    if rule.id().eq_ignore_ascii_case(name) {
                        out.push(Allow {
                            rule: rule.id(),
                            file_wide,
                            line: c.line,
                            end_line: c.end_line,
                            col: c.col,
                            comment_span: (c.start, c.end),
                            reason: reason.clone(),
                        });
                    }
                }
            }
        }
    }
    out
}

/// Finds the inclusive line spans of `#[cfg(test)]` and `#[test]` items.
pub fn test_spans(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            if let Some((is_test, close)) = parse_attr(toks, i + 1) {
                if is_test {
                    if let Some(span) = item_body_span(toks, close + 1) {
                        spans.push(span);
                    }
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// Parses the attribute starting at the `[` token index. Returns
/// `(is_test_attr, index_of_closing_bracket)`.
fn parse_attr(toks: &[Token], open: usize) -> Option<(bool, usize)> {
    let mut depth = 0usize;
    let mut close = None;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match &t.kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    close = Some(j);
                    break;
                }
            }
            _ => {}
        }
    }
    let close = close?;
    let body = &toks[open + 1..close];
    // `#[test]`
    let is_test = matches!(body, [t] if t.is_ident("test"))
        // `#[cfg(test)]`
        || matches!(body,
            [c, p1, t, p2]
                if c.is_ident("cfg") && p1.is_punct('(') && t.is_ident("test") && p2.is_punct(')'));
    Some((is_test, close))
}

/// From just after an attribute, finds the `{ … }` body of the annotated
/// item and returns its inclusive line span. Items ending in `;` (e.g.
/// `#[cfg(test)] mod tests;`) have no inline body.
fn item_body_span(toks: &[Token], from: usize) -> Option<(usize, usize)> {
    let mut j = from;
    // Skip any further attributes on the same item.
    while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
        let (_, close) = parse_attr(toks, j + 1)?;
        j = close + 1;
    }
    // Scan the item header for its opening brace.
    let mut k = j;
    while k < toks.len() {
        match &toks[k].kind {
            TokenKind::Punct(';') => return None,
            TokenKind::Punct('{') => break,
            // Parenthesized default args etc. cannot contain `{` in a
            // header position we care about; skip tokens until the brace.
            _ => k += 1,
        }
    }
    if k >= toks.len() {
        return None;
    }
    let open_line = toks[j].line;
    let mut depth = 0usize;
    for t in &toks[k..] {
        match &t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some((open_line, t.line));
                }
            }
            _ => {}
        }
    }
    Some((open_line, toks.last().map_or(open_line, |t| t.line)))
}

/// Collects identifiers bound to `HashMap`/`HashSet` in this file: typed
/// bindings and struct fields (`name: HashMap<…>`) and inferred `let`
/// bindings (`let name = HashMap::new()`).
fn hash_bound_names(toks: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        // Pattern A: `name : [&] [mut] [std::collections::] HashMap/HashSet`
        if t.is_punct(':')
            && i > 0
            && (i == 1 || !toks[i - 2].is_punct(':'))
            && !toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(name) = toks[i - 1].ident() {
                let mut j = i + 1;
                let mut hops = 0;
                while j < toks.len() && hops < 8 {
                    match &toks[j].kind {
                        TokenKind::Ident(s) if s == "HashMap" || s == "HashSet" => {
                            names.insert(name.to_owned());
                            break;
                        }
                        TokenKind::Ident(s)
                            if s == "std" || s == "collections" || s == "mut" || s == "dyn" =>
                        {
                            j += 1;
                        }
                        TokenKind::Punct(':') | TokenKind::Punct('&') => j += 1,
                        TokenKind::Lifetime => j += 1,
                        _ => break,
                    }
                    hops += 1;
                }
            }
        }
        // Pattern B: `let [mut] name = … HashMap/HashSet … ;`
        if t.is_ident("let") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            let Some(name) = toks.get(j).and_then(Token::ident) else {
                continue;
            };
            if !toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                continue;
            }
            for t in toks.iter().skip(j + 2) {
                match &t.kind {
                    TokenKind::Ident(s) if s == "HashMap" || s == "HashSet" => {
                        names.insert(name.to_owned());
                        break;
                    }
                    TokenKind::Punct(';') => break,
                    _ => {}
                }
            }
        }
    }
    names
}

/// L001: iteration over hash-ordered collections.
fn rule_l001(ctx: &Ctx<'_>, diags: &mut Vec<Diagnostic>) {
    let names = hash_bound_names(ctx.toks);
    if names.is_empty() {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        // `name.iter()` and friends.
        if let Some(name) = toks[i].ident() {
            if names.contains(name)
                && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
                && toks
                    .get(i + 2)
                    .and_then(Token::ident)
                    .is_some_and(|m| HASH_ITER_METHODS.contains(&m))
                && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
            {
                let method = toks[i + 2].ident().unwrap_or_default();
                ctx.flag(
                    diags,
                    RuleId::L001,
                    &toks[i + 2],
                    format!(
                        "iteration over hash-ordered collection `{name}` (`.{method}()`): order \
                         is process-randomized; use a BTreeMap/BTreeSet, sort first, or annotate \
                         `// lsw::allow(L001): <why order cannot reach output>`"
                    ),
                );
            }
        }
        // `for pat in [&] [mut] name { … }`
        if toks[i].is_ident("in") {
            let mut j = i + 1;
            while toks
                .get(j)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
            {
                j += 1;
            }
            if let Some(name) = toks.get(j).and_then(Token::ident) {
                if names.contains(name) && toks.get(j + 1).is_some_and(|t| t.is_punct('{')) {
                    ctx.flag(
                        diags,
                        RuleId::L001,
                        &toks[j],
                        format!(
                            "`for … in {name}` iterates a hash-ordered collection: order is \
                             process-randomized; use a BTreeMap/BTreeSet, sort first, or annotate \
                             `// lsw::allow(L001): <why order cannot reach output>`"
                        ),
                    );
                }
            }
        }
    }
}

/// L002: ambient nondeterminism in deterministic crates.
fn rule_l002(ctx: &Ctx<'_>, diags: &mut Vec<Diagnostic>) {
    if ctx.class.is_bin || !L002_CRATES.contains(&ctx.class.crate_name.as_str()) {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        let flagged = match name {
            "thread_rng" | "from_entropy" => Some((name.to_owned(), false)),
            "SystemTime" | "Instant" if path_call(toks, i, "now") => {
                Some((format!("{name}::now"), false))
            }
            "rand" if path_call(toks, i, "random") => Some(("rand::random".to_owned(), false)),
            "TcpListener" | "UdpSocket" if path_call(toks, i, "bind") => {
                Some((format!("{name}::bind"), true))
            }
            "TcpStream" if path_call(toks, i, "connect") => {
                Some((format!("{name}::connect"), true))
            }
            // Reactor endpoints: an epoll instance, timerfd, or wakeup
            // eventfd is an OS handle with kernel-scheduled readiness,
            // exactly like a socket.
            "Poll" | "TimerFd" | "Waker" if path_call(toks, i, "new") => {
                Some((format!("{name}::new"), true))
            }
            _ => None,
        };
        if let Some((what, socket)) = flagged {
            let message = if socket {
                format!(
                    "OS endpoint acquisition `{what}` in deterministic crate `{}`: a live socket \
                     injects kernel scheduling into results; confine it behind a harness seam and \
                     annotate the site `// lsw::allow(L002): <why real I/O is the point here>`",
                    ctx.class.crate_name
                )
            } else {
                format!(
                    "ambient nondeterminism `{what}` in deterministic crate `{}`: randomness and \
                     time must flow through the counter-keyed substream API (SeedStream) or be \
                     injected by the caller",
                    ctx.class.crate_name
                )
            };
            ctx.flag(diags, RuleId::L002, &toks[i], message);
        }
    }
}

/// True when tokens at `i` form `<ident> :: <method> (`.
fn path_call(toks: &[Token], i: usize, method: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident(method))
        && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
}

/// Collects `name: f64`/`name: f32` fields declared inside `struct { … }`
/// bodies.
fn float_struct_fields(toks: &[Token]) -> BTreeSet<String> {
    let mut fields = BTreeSet::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("struct") {
            // Find the struct body `{`; tuple structs (`(`) and unit
            // structs (`;`) have no named fields.
            let mut j = i + 1;
            while j < toks.len()
                && !toks[j].is_punct('{')
                && !toks[j].is_punct('(')
                && !toks[j].is_punct(';')
            {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                let mut depth = 0usize;
                let mut k = j;
                while k < toks.len() {
                    match &toks[k].kind {
                        TokenKind::Punct('{') => depth += 1,
                        TokenKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        TokenKind::Ident(field)
                            if depth == 1
                                && toks.get(k + 1).is_some_and(|t| t.is_punct(':'))
                                && toks
                                    .get(k + 2)
                                    .and_then(Token::ident)
                                    .is_some_and(|ty| ty == "f64" || ty == "f32") =>
                        {
                            fields.insert(field.clone());
                        }
                        _ => {}
                    }
                    k += 1;
                }
                i = k;
            }
        }
        i += 1;
    }
    fields
}

/// L003: float `+=` on fields of merge participants.
fn rule_l003(ctx: &Ctx<'_>, diags: &mut Vec<Diagnostic>) {
    let toks = ctx.toks;
    // Only files that define a shard-merge (`fn merge…`) participate.
    let defines_merge = toks.iter().enumerate().any(|(i, t)| {
        t.is_ident("fn")
            && toks
                .get(i + 1)
                .and_then(Token::ident)
                .is_some_and(|n| n.starts_with("merge"))
            && !ctx.in_test(t.line)
    });
    if !defines_merge {
        return;
    }
    let fields = float_struct_fields(toks);
    if fields.is_empty() {
        return;
    }
    for i in 0..toks.len() {
        if toks[i].is_ident("self")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('+'))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('='))
        {
            if let Some(field) = toks.get(i + 2).and_then(Token::ident) {
                if fields.contains(field) {
                    ctx.flag(
                        diags,
                        RuleId::L003,
                        &toks[i + 2],
                        format!(
                            "float `+=` on field `{field}` of a shard-merge participant: float \
                             addition is non-associative, so merge order leaks into results; \
                             accumulate in fixed::Fixed (i128 fixed-point) and convert at the edge"
                        ),
                    );
                }
            }
        }
    }
}

/// L004: unordered rayon reductions outside blessed merge modules.
fn rule_l004(ctx: &Ctx<'_>, diags: &mut Vec<Diagnostic>) {
    if ctx.class.blessed_reduction {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        let Some(src) = toks[i].ident() else { continue };
        if !PAR_SOURCES.contains(&src) || !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        // Scan the rest of the expression chain for an unordered sink.
        let mut depth = 0i32;
        for j in i + 1..toks.len() {
            match &toks[j].kind {
                TokenKind::Punct('(') | TokenKind::Punct('{') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct('}') | TokenKind::Punct(']') => {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                }
                TokenKind::Punct(';') if depth == 0 => break,
                TokenKind::Ident(m)
                    if depth == 0
                        && PAR_SINKS.contains(&m.as_str())
                        && toks.get(j.wrapping_sub(1)).is_some_and(|t| t.is_punct('.')) =>
                {
                    ctx.flag(
                        diags,
                        RuleId::L004,
                        &toks[j],
                        format!(
                            "unordered rayon reduction `.{m}()` after `.{src}()`: reduction order \
                             is scheduler-dependent; collect per-shard results and combine through \
                             the deterministic k-way merge (blessed modules only)"
                        ),
                    );
                    break;
                }
                _ => {}
            }
        }
    }
}

/// L005: panicking calls in library non-test code.
fn rule_l005(ctx: &Ctx<'_>, diags: &mut Vec<Diagnostic>) {
    if ctx.class.is_bin || L005_EXEMPT_CRATES.contains(&ctx.class.crate_name.as_str()) {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        let hit = match name {
            "unwrap" | "expect" => {
                i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            }
            "panic" => toks.get(i + 1).is_some_and(|t| t.is_punct('!')),
            _ => false,
        };
        if hit {
            let call = if name == "panic" {
                "panic!".to_owned()
            } else {
                format!(".{name}()")
            };
            ctx.flag(
                diags,
                RuleId::L005,
                &toks[i],
                format!(
                    "`{call}` in library code: propagate a Result, or annotate \
                     `// lsw::allow(L005): <why this cannot fail>`"
                ),
            );
        }
    }
}

/// Allocating conversion methods flagged in ingest-hot files (L006).
const L006_METHODS: &[&str] = &["to_string", "to_owned"];

/// `String::<fn>(` constructors flagged in ingest-hot files (L006).
const L006_STRING_FNS: &[&str] = &["from_utf8_lossy", "from_utf8", "from"];

/// L006: allocating text conversions on the per-record ingest paths.
fn rule_l006(ctx: &Ctx<'_>, diags: &mut Vec<Diagnostic>) {
    if !ctx.class.ingest_hot {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        // `.to_string()` / `.to_owned()`
        if L006_METHODS.contains(&name)
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            ctx.flag(
                diags,
                RuleId::L006,
                &toks[i],
                format!(
                    "`.{name}()` in an ingest hot-path file: per-record allocation; parse from \
                     raw bytes, or annotate `// lsw::allow(L006): <why this is off the per-record \
                     path>`"
                ),
            );
            continue;
        }
        // `String::from_utf8_lossy(` / `String::from_utf8(` / `String::from(`
        if name == "String" {
            for f in L006_STRING_FNS {
                if path_call(toks, i, f) {
                    ctx.flag(
                        diags,
                        RuleId::L006,
                        &toks[i],
                        format!(
                            "`String::{f}` in an ingest hot-path file: per-record allocation; \
                             parse from raw bytes (str::from_utf8 borrows), or annotate \
                             `// lsw::allow(L006): <why this is off the per-record path>`"
                        ),
                    );
                    break;
                }
            }
        }
    }
}

/// Container types whose growth L009 polices.
const GROWABLE_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "BinaryHeap",
    "String",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
];

/// Growth methods on those containers.
const GROW_METHODS: &[&str] = &[
    "push",
    "insert",
    "extend",
    "extend_from_slice",
    "append",
    "resize",
    "push_back",
    "push_front",
];

/// Probes that count as a capacity check when called on the growing
/// field itself (`<field>.len()`); on anything else they prove nothing.
const CAPACITY_PROBES: &[&str] = &["len", "capacity", "is_full", "truncate"];

/// Evidence that a capacity check dominates a growth site on `field`:
/// in `toks` (the enclosing fn body up to the site), either a probe called
/// on that field, or a named bound (`MAX_*`, `*_LIMIT`, `budget`, …).
fn is_capacity_guard(toks: &[Token], field: &str) -> bool {
    toks.iter().enumerate().any(|(j, t)| {
        let Some(name) = t.ident() else {
            return false;
        };
        if CAPACITY_PROBES.contains(&name) {
            return j >= 2 && toks[j - 1].is_punct('.') && toks[j - 2].ident() == Some(field);
        }
        let lower = name.to_ascii_lowercase();
        ["max", "limit", "budget", "bound", "cap"]
            .iter()
            .any(|p| lower.contains(p))
    })
}

/// L009: growable-container mutation on struct/variant fields in
/// bounded-memory files must be dominated by a capacity check within the
/// same function (or the file must be a blessed bounded container).
fn rule_l009(ctx: &Ctx<'_>, items: &Items, diags: &mut Vec<Diagnostic>) {
    if !ctx.class.bounded_mem || ctx.class.bounded_container {
        return;
    }
    let growable: BTreeSet<&str> = items
        .fields
        .iter()
        .filter(|f| {
            f.type_idents
                .iter()
                .any(|t| GROWABLE_TYPES.contains(&t.as_str()))
        })
        .map(|f| f.name.as_str())
        .collect();
    if growable.is_empty() {
        return;
    }
    let toks = ctx.toks;
    for k in 0..toks.len() {
        let Some(field) = toks[k].ident() else {
            continue;
        };
        if !growable.contains(field)
            || !toks.get(k + 1).is_some_and(|t| t.is_punct('.'))
            || !toks
                .get(k + 2)
                .and_then(Token::ident)
                .is_some_and(|m| GROW_METHODS.contains(&m))
            || !toks.get(k + 3).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let method = toks[k + 2].ident().unwrap_or_default();
        // Find the innermost enclosing fn body and look for guard
        // evidence between its opening brace and this site.
        let encl = items
            .fns
            .iter()
            .filter_map(|f| f.body.filter(|&(a, b)| a < k && k < b))
            .max_by_key(|&(a, _)| a);
        let guarded = encl.is_some_and(|(a, _)| is_capacity_guard(&toks[a..k], field));
        if !guarded {
            ctx.flag(
                diags,
                RuleId::L009,
                &toks[k + 2],
                format!(
                    "unguarded `.{method}()` on growable field `{field}` in a bounded-memory \
                     file: dominate it with a capacity check (len/capacity against a named \
                     bound), move it to a blessed bounded container, or annotate \
                     `// lsw::allow(L009): <why growth is bounded>`"
                ),
            );
        }
    }
}

/// Narrow cast targets L011 polices on wire paths. `as u64`/`as usize`
/// widenings are exempt by construction.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// L011: lossy `as` casts on wire-protocol/codec paths.
fn rule_l011(ctx: &Ctx<'_>, diags: &mut Vec<Diagnostic>) {
    if !ctx.class.wire_path {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if !toks[i].is_ident("as") {
            continue;
        }
        let Some(target) = toks.get(i + 1).and_then(Token::ident) else {
            continue;
        };
        if NARROW_TARGETS.contains(&target) {
            ctx.flag(
                diags,
                RuleId::L011,
                &toks[i],
                format!(
                    "`as {target}` on a wire-protocol/codec path can truncate silently: use \
                     `{target}::try_from(...)` (or `{target}::from` for a provable widening), or \
                     annotate `// lsw::allow(L011): <why truncation is intended/impossible>`"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_class(name: &str) -> FileClass {
        FileClass {
            crate_name: name.to_owned(),
            ..FileClass::default()
        }
    }

    fn rules_fired(class: &FileClass, src: &str) -> Vec<(RuleId, usize)> {
        lint_source(class, src)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn l005_basic_and_exemptions() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(rules_fired(&lib_class("core"), src), [(RuleId::L005, 1)]);
        // CLI binaries are exempt.
        let bin = FileClass {
            is_bin: true,
            ..lib_class("core")
        };
        assert!(rules_fired(&bin, src).is_empty());
        // unwrap_or_else is not unwrap.
        assert!(rules_fired(&lib_class("core"), "fn f() { x.unwrap_or_else(|| 3); }").is_empty());
    }

    #[test]
    fn l005_skips_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n";
        assert!(rules_fired(&lib_class("core"), src).is_empty());
    }

    #[test]
    fn allow_comment_requires_reason() {
        let with_reason = "// lsw::allow(L005): infallible by construction\nfn f() { x.unwrap(); }";
        assert!(rules_fired(&lib_class("core"), with_reason).is_empty());
        let without = "// lsw::allow(L005)\nfn f() { x.unwrap(); }";
        assert_eq!(
            rules_fired(&lib_class("core"), without),
            [(RuleId::L005, 2)]
        );
        let trailing = "fn f() { x.unwrap() } // lsw::allow(L005): checked above";
        assert!(rules_fired(&lib_class("core"), trailing).is_empty());
    }

    #[test]
    fn allow_file_waives_whole_file() {
        let src = "// lsw::allow-file(L005): generated code\nfn f() { a.unwrap(); }\nfn g() { b.unwrap(); }";
        assert!(rules_fired(&lib_class("core"), src).is_empty());
    }

    #[test]
    fn doc_comments_never_register_allows() {
        // The same annotation as prose in a doc comment must not waive
        // anything (and under L010 would otherwise read as stale).
        let src = "/// lsw::allow(L005): this is documentation, not an annotation\n\
                   fn f() { x.unwrap(); }";
        assert_eq!(rules_fired(&lib_class("core"), src), [(RuleId::L005, 2)]);
    }

    #[test]
    fn collect_allows_reports_reasons_and_spans() {
        let src = "// lsw::allow(L005): checked by the constructor\nfn f() { x.unwrap(); }\n\
                   // lsw::allow-file(L001): report-order sorted downstream\n";
        let lexed = lex(src);
        let allows = collect_allows(&lexed);
        assert_eq!(allows.len(), 2);
        assert_eq!(allows[0].rule, "L005");
        assert!(!allows[0].file_wide);
        assert_eq!(allows[0].reason, "checked by the constructor");
        assert_eq!(
            &src[allows[0].comment_span.0..allows[0].comment_span.1],
            "// lsw::allow(L005): checked by the constructor"
        );
        assert_eq!(allows[1].rule, "L001");
        assert!(allows[1].file_wide);
        assert_eq!(allows[1].reason, "report-order sorted downstream");
    }

    #[test]
    fn l001_typed_binding_and_for_loop() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                       m.values().copied().collect()\n\
                   }";
        assert_eq!(rules_fired(&lib_class("core"), src), [(RuleId::L001, 3)]);
        let src2 = "fn f() {\n let mut s = HashSet::new();\n for x in &s {\n }\n}";
        assert_eq!(rules_fired(&lib_class("core"), src2), [(RuleId::L001, 3)]);
    }

    #[test]
    fn l001_ignores_btree_and_point_lookup() {
        let src = "fn f(m: &BTreeMap<u32, u32>) { for x in m { } }\n\
                   fn g(h: &HashMap<u32, u32>) -> Option<&u32> { h.get(&3) }";
        assert!(rules_fired(&lib_class("core"), src).is_empty());
    }

    #[test]
    fn l002_scoped_to_deterministic_crates() {
        let src = "fn f() -> u64 { let mut r = thread_rng(); r.next_u64() }";
        assert_eq!(rules_fired(&lib_class("stream"), src), [(RuleId::L002, 1)]);
        // figures crate may time itself.
        assert!(rules_fired(&lib_class("figures"), src).is_empty());
        let time = "fn g() { let t = Instant::now(); }";
        assert_eq!(rules_fired(&lib_class("stats"), time), [(RuleId::L002, 1)]);
    }

    #[test]
    fn l002_flags_socket_acquisition() {
        // A socket is as ambient as a clock: the kernel decides ordering.
        let bind = "fn f() { let l = TcpListener::bind(\"127.0.0.1:0\"); }";
        assert_eq!(rules_fired(&lib_class("replay"), bind), [(RuleId::L002, 1)]);
        let connect = "fn f() { let s = TcpStream::connect(addr)?; }";
        assert_eq!(
            rules_fired(&lib_class("replay"), connect),
            [(RuleId::L002, 1)]
        );
        let udp = "fn f() { let u = UdpSocket::bind(\"127.0.0.1:0\"); }";
        assert_eq!(rules_fired(&lib_class("replay"), udp), [(RuleId::L002, 1)]);
        // Mentioning the type without acquiring an endpoint is fine.
        let passive = "fn f(s: &TcpStream) -> io::Result<()> { s.set_nodelay(true) }";
        assert!(rules_fired(&lib_class("replay"), passive).is_empty());
        // Outside the deterministic crates the rule stays silent.
        assert!(rules_fired(&lib_class("figures"), bind).is_empty());
    }

    #[test]
    fn l002_replay_sites_need_line_scoped_allows() {
        // The replay crate is in scope: clocks and sockets each demand a
        // reasoned, line-scoped annotation…
        let clock = "fn start() -> Instant { Instant::now() }";
        assert_eq!(
            rules_fired(&lib_class("replay"), clock),
            [(RuleId::L002, 1)]
        );
        let allowed = "// lsw::allow(L002): replay pacing is anchored to real time by design\n\
                       fn start() -> Instant { Instant::now() }";
        assert!(rules_fired(&lib_class("replay"), allowed).is_empty());
        let sock = "// lsw::allow(L002): the serving harness binds a real socket by design\n\
                    fn listen() { let l = TcpListener::bind(\"127.0.0.1:0\"); }";
        assert!(rules_fired(&lib_class("replay"), sock).is_empty());
        // …and a reasonless annotation still fires.
        let bare = "// lsw::allow(L002)\nfn listen() { let l = TcpListener::bind(\"x\"); }";
        assert_eq!(rules_fired(&lib_class("replay"), bare), [(RuleId::L002, 2)]);
    }

    #[test]
    fn l003_float_accumulation_in_merge_type() {
        let src = "struct Acc { total: f64, n: u64 }\n\
                   impl Acc {\n\
                       fn merge(&mut self, o: &Acc) {\n\
                           self.total += o.total;\n\
                           self.n += o.n;\n\
                       }\n\
                   }";
        assert_eq!(rules_fired(&lib_class("stream"), src), [(RuleId::L003, 4)]);
    }

    #[test]
    fn l003_requires_merge_context() {
        let src = "struct P { x: f64 }\nimpl P { fn step(&mut self) { self.x += 1.0; } }";
        assert!(rules_fired(&lib_class("stream"), src).is_empty());
    }

    #[test]
    fn l004_unordered_reduction() {
        let src = "fn f(v: &[u64]) -> u64 {\n    v.par_iter().map(|x| x + 1).sum()\n}";
        assert_eq!(rules_fired(&lib_class("core"), src), [(RuleId::L004, 2)]);
        let blessed = FileClass {
            blessed_reduction: true,
            ..lib_class("core")
        };
        assert!(rules_fired(&blessed, src).is_empty());
        // Sequential sum is fine.
        assert!(rules_fired(
            &lib_class("core"),
            "fn f(v: &[u64]) -> u64 { v.iter().sum() }"
        )
        .is_empty());
    }

    #[test]
    fn l006_scoped_to_ingest_hot_files() {
        let src = "fn f(b: &[u8]) -> String { String::from_utf8_lossy(b).to_string() }";
        // Out of scope by default…
        assert!(rules_fired(&lib_class("trace"), src).is_empty());
        // …fires twice (constructor + `.to_string()`) in an ingest-hot file.
        let hot = FileClass {
            ingest_hot: true,
            ..lib_class("trace")
        };
        assert_eq!(
            rules_fired(&hot, src),
            [(RuleId::L006, 1), (RuleId::L006, 1)]
        );
        // Borrowing conversions are fine.
        assert!(rules_fired(&hot, "fn f(b: &[u8]) { let _ = std::str::from_utf8(b); }").is_empty());
        // Cold paths opt out with a reasoned allow.
        let cold = "// lsw::allow(L006): error constructor, cold path\n\
                    fn e(b: &[u8]) -> String { String::from_utf8_lossy(b).into_owned() }";
        assert!(rules_fired(&hot, cold).is_empty());
    }

    #[test]
    fn l009_unguarded_growth_in_bounded_mem_files() {
        let bounded = FileClass {
            bounded_mem: true,
            ..lib_class("stream")
        };
        let bad = "struct Backlog { q: Vec<u8> }\n\
                   impl Backlog {\n\
                       fn add(&mut self, b: u8) {\n\
                           self.q.push(b);\n\
                       }\n\
                   }";
        assert_eq!(rules_fired(&bounded, bad), [(RuleId::L009, 4)]);
        // A capacity check ahead of the growth site dominates it.
        let guarded = "struct Backlog { q: Vec<u8> }\n\
                       impl Backlog {\n\
                           fn add(&mut self, b: u8) {\n\
                               if self.q.len() >= MAX_BACKLOG { return; }\n\
                               self.q.push(b);\n\
                           }\n\
                       }";
        assert!(rules_fired(&bounded, guarded).is_empty());
        // Out of scope without the bounded_mem class.
        assert!(rules_fired(&lib_class("stream"), bad).is_empty());
        // Blessed bounded containers grow by construction.
        let blessed = FileClass {
            bounded_container: true,
            ..bounded.clone()
        };
        assert!(rules_fired(&blessed, bad).is_empty());
        // Enum-variant fields count too (the replay request buffer).
        let variant = "enum ConnState { Request { buf: Vec<u8> } }\n\
                       fn pump(buf: &mut Vec<u8>, s: &[u8]) {\n\
                           buf.extend_from_slice(s);\n\
                       }";
        assert_eq!(rules_fired(&bounded, variant), [(RuleId::L009, 3)]);
    }

    #[test]
    fn l011_narrow_casts_on_wire_paths() {
        let wire = FileClass {
            wire_path: true,
            ..lib_class("trace")
        };
        let bad = "fn len_field(n: usize) -> u32 { n as u32 }";
        assert_eq!(rules_fired(&wire, bad), [(RuleId::L011, 1)]);
        // Widening casts are exempt by construction.
        assert!(rules_fired(&wire, "fn w(b: u8) -> u64 { b as u64 }").is_empty());
        // try_from is the sanctioned spelling.
        assert!(rules_fired(
            &wire,
            "fn t(n: usize) -> u32 { u32::try_from(n).unwrap_or(0) }"
        )
        .iter()
        .all(|&(r, _)| r != RuleId::L011));
        // Out of scope off the wire paths.
        assert!(rules_fired(&lib_class("trace"), bad).is_empty());
        // Reasoned allows are honored.
        let allowed = "// lsw::allow(L011): varint low 7 bits, truncation intended\n\
                       fn v(x: u64) -> u8 { (x as u8) & 0x7f }";
        assert!(rules_fired(&wire, allowed).is_empty());
    }

    #[test]
    fn diagnostics_sorted_by_position() {
        let src = "fn f() { b.unwrap(); }\nfn g() { a.unwrap(); }";
        let lines: Vec<usize> = lint_source(&lib_class("core"), src)
            .iter()
            .map(|d| d.line)
            .collect();
        assert_eq!(lines, [1, 2]);
    }
}
