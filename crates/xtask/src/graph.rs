//! The intra-workspace call graph and the interprocedural rules that
//! consume it: L007 (lock-order cycles) and L008 (blocking calls
//! reachable from the replay worker-shard poll loop).
//!
//! ## Name resolution model (and its limits)
//!
//! The graph is built from tokens, not types. Resolution is therefore
//! name-based and deliberately conservative:
//!
//! * Bare calls `f(…)` resolve to free functions named `f` in the same
//!   crate.
//! * Method calls `x.m(…)` resolve to *every* function named `m` in the
//!   same crate (any `impl` owner) — unless `m` is on the common-method
//!   stoplist (`clone`, `len`, `push`, …), which would otherwise wire
//!   the graph to the standard library's vocabulary and drown it in
//!   false edges.
//! * Qualified calls `Type::f(…)` / `module::f(…)` resolve exactly by
//!   `(owner, name)` when such an item exists, falling back to
//!   same-crate free functions named `f`.
//! * Cross-crate edges exist only for paths rooted at a known crate
//!   alias (`lsw_stream::…`, `lsw_sim::…`, `crate::…`).
//!
//! Unresolvable calls produce no edge: reachability (L008) and lock
//! closures (L007) under-approximate across trait objects and
//! cross-crate method calls. That trade-off is documented in
//! `DESIGN.md` §14; the locks this workspace actually uses are all
//! acquired through same-crate helpers, which the model does cover.

use crate::items::is_keyword;
use crate::lexer::{Token, TokenKind};
use crate::rules::{Diagnostic, RuleId};
use crate::AnalyzedFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Method names too generic to resolve by name alone: edges through
/// them would mostly point at the standard library's vocabulary.
const METHOD_STOPLIST: &[&str] = &[
    "abs",
    "and_then",
    "append",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "ceil",
    "chain",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "count",
    "drain",
    "drop",
    "entry",
    "enumerate",
    "eq",
    "err",
    "expect",
    "extend",
    "extend_from_slice",
    "fetch_add",
    "fetch_sub",
    "filter",
    "find",
    "first",
    "floor",
    "flush",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "load",
    "lock",
    "map",
    "max",
    "min",
    "ne",
    "new",
    "next",
    "ok",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "pop",
    "position",
    "powf",
    "powi",
    "push",
    "push_back",
    "push_front",
    "read",
    "read_to_end",
    "recv",
    "remove",
    "replace",
    "resize",
    "retain",
    "rev",
    "round",
    "send",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "split",
    "sqrt",
    "starts_with",
    "store",
    "sum",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_from",
    "try_into",
    "try_lock",
    "try_recv",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "write",
    "zip",
];

/// Crate-path aliases for cross-crate edges: lib name → crate dir name.
fn crate_alias(seg: &str, current: &str) -> Option<String> {
    match seg {
        "crate" | "self" | "super" => Some(current.to_owned()),
        "lsw_core" => Some("core".to_owned()),
        "lsw_stream" => Some("stream".to_owned()),
        "lsw_trace" => Some("trace".to_owned()),
        "lsw_stats" => Some("stats".to_owned()),
        "lsw_sim" => Some("simulator".to_owned()),
        "lsw_analysis" => Some("analysis".to_owned()),
        "lsw_topology" => Some("topology".to_owned()),
        "lsw_replay" => Some("replay".to_owned()),
        "lsw_edge" => Some("edge".to_owned()),
        _ => None,
    }
}

/// Functions treated as thread entry points for the L008 nonblocking
/// contract: the replay reactor shard, the load driver's event loop, and
/// the edge relay's reactor. Roots are matched by name, so
/// `tests/lint_rules.rs` checks that each is still defined in a
/// lock-scope file.
pub const L008_ENTRY_FNS: &[&str] = &["reactor_loop", "drive", "relay_loop"];

/// A lock identity: `(crate, field name)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct LockId {
    krate: String,
    name: String,
}

/// One lock acquisition site inside a function body.
#[derive(Debug, Clone)]
struct Acq {
    lock: LockId,
    /// Token index of the lock field identifier.
    tok: usize,
    /// Token index (inclusive) until which the lock is considered held:
    /// end of statement for temporaries, end of enclosing block (or
    /// `drop(guard)`) for `let`-bound guards.
    held_end: usize,
    /// `lock` / `read` / `write`.
    method: String,
}

/// One blocking primitive inside a function body (for L008).
#[derive(Debug, Clone)]
struct Blocking {
    what: String,
    tok: usize,
}

/// One resolved call site inside a function body.
#[derive(Debug, Clone)]
struct CallSite {
    tok: usize,
    targets: Vec<usize>,
}

/// Per-function analysis record.
#[derive(Debug, Clone)]
struct FnInfo {
    file: usize,
    owner: Option<String>,
    name: String,
    body: Option<(usize, usize)>,
    calls: Vec<CallSite>,
    acqs: Vec<Acq>,
    blocking: Vec<Blocking>,
}

/// Runs the interprocedural rules over the analyzed files and returns
/// `(file index, diagnostic)` pairs, unfiltered by allows (the caller
/// owns suppression accounting).
pub fn graph_rules(files: &[AnalyzedFile]) -> Vec<(usize, Diagnostic)> {
    let fns = call_graph(files);

    // Acquisition closure: every lock a function may take directly or
    // through (resolved) callees. Fixpoint over the call edges.
    let mut closure: Vec<BTreeSet<LockId>> = fns
        .iter()
        .map(|f| f.acqs.iter().map(|a| a.lock.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for id in 0..fns.len() {
            let mut add: BTreeSet<LockId> = BTreeSet::new();
            for call in &fns[id].calls {
                for &t in &call.targets {
                    for l in &closure[t] {
                        if !closure[id].contains(l) {
                            add.insert(l.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                closure[id].extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut diags = Vec::new();
    l007_lock_order(files, &fns, &closure, &mut diags);
    l008_blocking_reachability(files, &fns, &mut diags);
    diags
}

/// Every function the L008 walk reaches from an [`L008_ENTRY_FNS`] root,
/// as `(file index, impl owner, name)` — the rule's coverage, so a test
/// can check that a refactor did not move code out of its sight.
pub fn l008_reachable(files: &[AnalyzedFile]) -> BTreeSet<(usize, Option<String>, String)> {
    let fns = call_graph(files);
    l008_walk(files, &fns)
        .0
        .into_iter()
        .map(|n| (fns[n].file, fns[n].owner.clone(), fns[n].name.clone()))
        .collect()
}

/// Builds the name-resolved call graph: one record per function, with
/// its resolved call sites, lock acquisitions and blocking primitives.
fn call_graph(files: &[AnalyzedFile]) -> Vec<FnInfo> {
    let mut fns: Vec<FnInfo> = Vec::new();
    let mut by_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut free_by_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut by_owner: BTreeMap<(String, String, String), Vec<usize>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for item in &file.items.fns {
            let id = fns.len();
            let krate = file.class.crate_name.clone();
            by_name
                .entry((krate.clone(), item.name.clone()))
                .or_default()
                .push(id);
            if let Some(owner) = &item.owner {
                by_owner
                    .entry((krate.clone(), owner.clone(), item.name.clone()))
                    .or_default()
                    .push(id);
            } else {
                free_by_name
                    .entry((krate, item.name.clone()))
                    .or_default()
                    .push(id);
            }
            fns.push(FnInfo {
                file: fi,
                owner: item.owner.clone(),
                name: item.name.clone(),
                body: item.body,
                calls: Vec::new(),
                acqs: Vec::new(),
                blocking: Vec::new(),
            });
        }
    }

    // Lock vocabulary: Mutex/RwLock struct fields declared in lock-scope
    // files, keyed by crate.
    let mut locks_by_crate: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for file in files {
        if !file.class.lock_scope {
            continue;
        }
        for field in &file.items.fields {
            if field
                .type_idents
                .iter()
                .any(|t| t == "Mutex" || t == "RwLock")
            {
                locks_by_crate
                    .entry(file.class.crate_name.clone())
                    .or_default()
                    .insert(field.name.clone());
            }
        }
    }

    // Populate per-fn calls, acquisitions, and blocking primitives.
    for id in 0..fns.len() {
        let file = &files[fns[id].file];
        let Some((a, b)) = fns[id].body else { continue };
        let toks = &file.lexed.tokens;
        let krate = &file.class.crate_name;
        let empty = BTreeSet::new();
        let lock_names = if file.class.lock_scope {
            locks_by_crate.get(krate).unwrap_or(&empty)
        } else {
            &empty
        };
        let mut calls = Vec::new();
        let mut acqs = Vec::new();
        let mut blocking = Vec::new();
        for k in a + 1..b {
            let Some(name) = toks[k].ident() else {
                continue;
            };
            if !toks.get(k + 1).is_some_and(|t| t.is_punct('(')) {
                // Lock acquisition shape: `<lock> . lock|read|write (`.
                if lock_names.contains(name)
                    && toks.get(k + 1).is_some_and(|t| t.is_punct('.'))
                    && toks
                        .get(k + 2)
                        .and_then(Token::ident)
                        .is_some_and(|m| m == "lock" || m == "read" || m == "write")
                    && toks.get(k + 3).is_some_and(|t| t.is_punct('('))
                {
                    let method = toks[k + 2].ident().unwrap_or_default().to_owned();
                    acqs.push(Acq {
                        lock: LockId {
                            krate: krate.clone(),
                            name: name.to_owned(),
                        },
                        tok: k,
                        held_end: held_range_end(toks, k, b),
                        method,
                    });
                }
                continue;
            }
            // From here on, `name (` — a call or definition.
            let prev = k.checked_sub(1).map(|p| &toks[p]);
            if prev.is_some_and(|t| t.is_ident("fn")) || is_keyword(name) {
                continue;
            }
            if prev.is_some_and(|t| t.is_punct('.')) {
                // Method call.
                if name == "sleep" {
                    // `.sleep(` has no std receiver we use; ignore.
                } else if name == "read_to_end" {
                    blocking.push(Blocking {
                        what: "`.read_to_end()` (unbounded blocking read)".to_owned(),
                        tok: k,
                    });
                } else if name == "recv" {
                    blocking.push(Blocking {
                        what: "unbounded `.recv()` (blocks until a sender acts)".to_owned(),
                        tok: k,
                    });
                } else if name == "poll" {
                    blocking.push(Blocking {
                        what: "`.poll()` (blocking readiness wait)".to_owned(),
                        tok: k,
                    });
                }
                if METHOD_STOPLIST.contains(&name) {
                    continue;
                }
                if let Some(t) = by_name.get(&(krate.clone(), name.to_owned())) {
                    calls.push(CallSite {
                        tok: k,
                        targets: t.clone(),
                    });
                }
                continue;
            }
            if prev.is_some_and(|t| t.is_punct(':'))
                && k >= 2
                && toks[k - 2].is_punct(':')
                && k >= 3
                && toks[k - 3].ident().is_some()
            {
                // Qualified call: walk the path segments back.
                let mut segs = vec![name.to_owned()];
                let mut j = k;
                while j >= 3
                    && toks[j - 1].is_punct(':')
                    && toks[j - 2].is_punct(':')
                    && toks[j - 3].ident().is_some()
                {
                    segs.insert(0, toks[j - 3].ident().unwrap_or_default().to_owned());
                    j -= 3;
                }
                if name == "sleep" && segs.iter().any(|s| s == "thread") {
                    blocking.push(Blocking {
                        what: "`thread::sleep` (hard wall-clock block)".to_owned(),
                        tok: k,
                    });
                }
                let (target_crate, local) = match crate_alias(&segs[0], krate) {
                    Some(c) => (c, &segs[1..]),
                    None => (krate.clone(), &segs[..]),
                };
                let Some(callee) = local.last() else { continue };
                let mut targets: Vec<usize> = Vec::new();
                if local.len() >= 2 {
                    let owner = &local[local.len() - 2];
                    if let Some(t) =
                        by_owner.get(&(target_crate.clone(), owner.clone(), callee.clone()))
                    {
                        targets = t.clone();
                    }
                }
                if targets.is_empty() {
                    if let Some(t) = free_by_name.get(&(target_crate, callee.clone())) {
                        targets = t.clone();
                    }
                }
                if !targets.is_empty() {
                    calls.push(CallSite { tok: k, targets });
                }
                continue;
            }
            // Bare call: free functions only; uppercase initials are
            // tuple-struct/variant constructors, not calls.
            if name.starts_with(|c: char| c.is_ascii_uppercase()) || METHOD_STOPLIST.contains(&name)
            {
                continue;
            }
            if let Some(t) = free_by_name.get(&(krate.clone(), name.to_owned())) {
                calls.push(CallSite {
                    tok: k,
                    targets: t.clone(),
                });
            }
        }
        fns[id].calls = calls;
        fns[id].acqs = acqs;
        fns[id].blocking = blocking;
    }
    fns
}

/// True when the site's line falls inside one of the file's test spans.
fn in_test(file: &AnalyzedFile, line: usize) -> bool {
    file.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
}

/// Computes the token index until which an acquisition at `k` holds its
/// lock: `let guard = x.lock();` chains hold to the enclosing block's
/// close (or an explicit `drop(guard)`); everything else is a temporary
/// held to the end of its statement.
fn held_range_end(toks: &[Token], k: usize, body_end: usize) -> usize {
    let stmt = stmt_end(toks, k, body_end);
    let Some((guard, let_idx)) = guard_binding(toks, k, stmt) else {
        return stmt;
    };
    // Guard: held until the enclosing block closes or the guard is
    // dropped explicitly.
    let mut depth = 0i32;
    let mut j = let_idx;
    while j <= body_end {
        match &toks[j].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            TokenKind::Ident(w)
                if w == "drop"
                    && j > stmt
                    && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(j + 2).is_some_and(|t| t.is_ident(&guard)) =>
            {
                return j;
            }
            _ => {}
        }
        j += 1;
    }
    body_end
}

/// Finds the first `;` that terminates the statement containing token
/// `k` (accounting for brackets opened after `k`; a close that drops
/// below the starting level also ends the statement).
fn stmt_end(toks: &[Token], k: usize, body_end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = k;
    while j <= body_end {
        match &toks[j].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            TokenKind::Punct(';') if depth <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    body_end
}

/// Recognizes `let [mut] <name> = … x.lock()…;` where the lock call is
/// the *end* of the chain (modulo `.unwrap()` / `.expect(…)`): such a
/// binding is a held guard. A lock call feeding further method calls
/// (`.lock().stats().clone()`) produces a temporary instead, dropped at
/// the statement's end — distinguishing the two is what keeps the
/// workspace's `lock-stats-then-log` sequences from reading as
/// self-deadlocks.
fn guard_binding(toks: &[Token], k: usize, stmt: usize) -> Option<(String, usize)> {
    // Chain-end check: after the lock call's closing paren, only
    // `.unwrap()`/`.expect(…)` may follow before the `;`.
    let open = k + 3; // `(` of `.lock(`
    let mut close = open;
    let mut depth = 0i32;
    while close <= stmt {
        match &toks[close].kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        close += 1;
    }
    let mut j = close + 1;
    while j < stmt {
        if toks[j].is_punct('.')
            && toks
                .get(j + 1)
                .and_then(Token::ident)
                .is_some_and(|m| m == "unwrap" || m == "expect")
            && toks.get(j + 2).is_some_and(|t| t.is_punct('('))
        {
            // Skip the call's parens.
            let mut d = 0i32;
            let mut m = j + 2;
            while m < stmt {
                match &toks[m].kind {
                    TokenKind::Punct('(') => d += 1,
                    TokenKind::Punct(')') => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            j = m + 1;
        } else {
            return None;
        }
    }
    // Binding check: walk back over the receiver chain to a `let`.
    let mut j = k;
    while j > 0 {
        let t = &toks[j - 1];
        let chainable = t.is_punct('.')
            || t.is_punct('&')
            || t.is_punct('*')
            || matches!(&t.kind, TokenKind::Ident(w) if w != "let");
        if chainable {
            j -= 1;
        } else {
            break;
        }
    }
    if j == 0 || !toks[j - 1].is_punct('=') {
        return None;
    }
    let name_idx = (j - 1).checked_sub(1)?;
    let name = toks[name_idx].ident()?.to_owned();
    let mut l = name_idx;
    if l > 0 && toks[l - 1].is_ident("mut") {
        l -= 1;
    }
    if l > 0 && toks[l - 1].is_ident("let") {
        return Some((name, l - 1));
    }
    None
}

/// L007: build the lock acquisition-order graph and flag cycles.
fn l007_lock_order(
    files: &[AnalyzedFile],
    fns: &[FnInfo],
    closure: &[BTreeSet<LockId>],
    diags: &mut Vec<(usize, Diagnostic)>,
) {
    // Edge (A → B): lock B acquired (directly or via a callee) while A
    // is held. Keep the lexicographically smallest witness site per edge.
    #[derive(Debug, Clone)]
    struct Witness {
        file: usize,
        line: usize,
        col: usize,
        holder_fn: String,
        via: Option<String>,
    }
    let mut edges: BTreeMap<(LockId, LockId), Witness> = BTreeMap::new();
    let record =
        |edges: &mut BTreeMap<(LockId, LockId), Witness>, a: &LockId, b: &LockId, w: Witness| {
            if a == b {
                return;
            }
            let key = (a.clone(), b.clone());
            match edges.get(&key) {
                Some(old) if (old.file, old.line, old.col) <= (w.file, w.line, w.col) => {}
                _ => {
                    edges.insert(key, w);
                }
            }
        };
    for f in fns {
        let file = &files[f.file];
        let toks = &file.lexed.tokens;
        for acq in &f.acqs {
            if in_test(file, toks[acq.tok].line) {
                continue;
            }
            // Direct nested acquisitions inside the held range.
            for other in &f.acqs {
                if other.tok > acq.tok && other.tok <= acq.held_end {
                    record(
                        &mut edges,
                        &acq.lock,
                        &other.lock,
                        Witness {
                            file: f.file,
                            line: toks[other.tok].line,
                            col: toks[other.tok].col,
                            holder_fn: f.name.clone(),
                            via: None,
                        },
                    );
                }
            }
            // Acquisitions via calls inside the held range.
            for call in &f.calls {
                if call.tok > acq.tok && call.tok <= acq.held_end {
                    for &t in &call.targets {
                        for l in &closure[t] {
                            record(
                                &mut edges,
                                &acq.lock,
                                l,
                                Witness {
                                    file: f.file,
                                    line: toks[call.tok].line,
                                    col: toks[call.tok].col,
                                    holder_fn: f.name.clone(),
                                    via: Some(fns[t].name.clone()),
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    // Reachability over the lock graph; an edge (a, b) participates in a
    // cycle iff b reaches a.
    let mut adj: BTreeMap<&LockId, BTreeSet<&LockId>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a).or_default().insert(b);
    }
    let reaches = |from: &LockId, to: &LockId| -> bool {
        let mut seen: BTreeSet<&LockId> = BTreeSet::new();
        let mut q: VecDeque<&LockId> = VecDeque::new();
        q.push_back(from);
        while let Some(n) = q.pop_front() {
            if n == to {
                return true;
            }
            if let Some(next) = adj.get(n) {
                for m in next {
                    if seen.insert(m) {
                        q.push_back(m);
                    }
                }
            }
        }
        false
    };
    // Group cyclic edges by their strongly connected lock set and report
    // one diagnostic per cycle, at the smallest witness site.
    type CycleEdges<'a> = Vec<(&'a (LockId, LockId), &'a Witness)>;
    let mut cycles: BTreeMap<BTreeSet<LockId>, CycleEdges> = BTreeMap::new();
    for (key, w) in &edges {
        let (a, b) = key;
        if reaches(b, a) {
            let mut scc = BTreeSet::new();
            scc.insert(a.clone());
            scc.insert(b.clone());
            // Close the set over mutual reachability so a 3-lock cycle
            // groups as one report, not three.
            for other in adj.keys() {
                if reaches(a, other) && reaches(other, a) {
                    scc.insert((*other).clone());
                }
            }
            cycles.entry(scc).or_default().push((key, w));
        }
    }
    for (scc, mut witnesses) in cycles {
        witnesses.sort_by_key(|(_, w)| (w.file, w.line, w.col));
        let ((a, b), w) = witnesses[0];
        let names: Vec<String> = scc.iter().map(|l| format!("`{}`", l.name)).collect();
        let via = w
            .via
            .as_ref()
            .map(|v| format!(" via `{v}()`"))
            .unwrap_or_default();
        diags.push((
            w.file,
            Diagnostic {
                rule: RuleId::L007,
                line: w.line,
                col: w.col,
                message: format!(
                    "lock-order cycle among {}: `{}` is acquired{via} in `{}()` while `{}` is \
                     held, and the reverse order exists elsewhere — two threads interleaving \
                     these paths deadlock; acquire in one global order or annotate \
                     `// lsw::allow(L007): <why this interleaving is impossible>`",
                    names.join(" → "),
                    b.name,
                    w.holder_fn,
                    a.name
                ),
            },
        ));
    }
}

/// Breadth-first walk from the entry points — the data-plane loop
/// definitions (`L008_ENTRY_FNS`) in lock-scope files. Returns every
/// reached function and, for call-path diagnostics, each one's caller.
fn l008_walk(files: &[AnalyzedFile], fns: &[FnInfo]) -> (BTreeSet<usize>, BTreeMap<usize, usize>) {
    let entries = fns.iter().enumerate().filter(|(_, f)| {
        L008_ENTRY_FNS.contains(&f.name.as_str()) && files[f.file].class.lock_scope
    });
    let mut seen: BTreeSet<usize> = entries.map(|(i, _)| i).collect();
    let mut q: VecDeque<usize> = seen.iter().copied().collect();
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    while let Some(n) = q.pop_front() {
        for call in &fns[n].calls {
            for &t in &call.targets {
                if seen.insert(t) {
                    parent.insert(t, n);
                    q.push_back(t);
                }
            }
        }
    }
    (seen, parent)
}

/// L008: blocking primitives reachable from the worker-shard poll loop.
fn l008_blocking_reachability(
    files: &[AnalyzedFile],
    fns: &[FnInfo],
    diags: &mut Vec<(usize, Diagnostic)>,
) {
    let (seen, parent) = l008_walk(files, fns);
    let path_to = |mut n: usize| -> String {
        let mut names = vec![fns[n].name.clone()];
        while let Some(&p) = parent.get(&n) {
            names.push(fns[p].name.clone());
            n = p;
        }
        names.reverse();
        names.join(" → ")
    };
    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut sites: Vec<(usize, usize, String)> = Vec::new(); // (fn, tok, what)
    for &n in &seen {
        for b in &fns[n].blocking {
            sites.push((n, b.tok, b.what.clone()));
        }
        for a in &fns[n].acqs {
            sites.push((
                n,
                a.tok,
                format!("blocking `.{}()` wait on lock `{}`", a.method, a.lock.name),
            ));
        }
    }
    sites.sort_by_key(|&(n, tok, _)| (fns[n].file, tok));
    for (n, tok, what) in sites {
        let f = &fns[n];
        let file = &files[f.file];
        let t = &file.lexed.tokens[tok];
        if in_test(file, t.line) || !reported.insert((f.file, tok)) {
            continue;
        }
        diags.push((
            f.file,
            Diagnostic {
                rule: RuleId::L008,
                line: t.line,
                col: t.col,
                message: format!(
                    "{what} is reachable from the worker-shard poll loop ({}): a stalled shard \
                     starves every connection it owns; make the wait bounded/non-blocking or \
                     annotate `// lsw::allow(L008): <why this wait is bounded>`",
                    path_to(n)
                ),
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileClass;
    use crate::{analyze_sources, SourceFile};

    fn lock_file(path: &str, krate: &str, src: &str) -> SourceFile {
        SourceFile {
            rel_path: path.to_owned(),
            class: FileClass {
                crate_name: krate.to_owned(),
                lock_scope: true,
                ..FileClass::default()
            },
            src: src.to_owned(),
        }
    }

    fn rules_fired(files: &[SourceFile]) -> Vec<(String, RuleId, usize)> {
        analyze_sources(files)
            .findings
            .iter()
            .map(|f| (f.path.clone(), f.diag.rule, f.diag.line))
            .collect()
    }

    #[test]
    fn l007_flags_a_two_lock_cycle() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                       fn fwd(&self) {\n\
                           let g = self.a.lock();\n\
                           self.b.lock().checked_add(1);\n\
                       }\n\
                       fn rev(&self) {\n\
                           let g = self.b.lock();\n\
                           self.a.lock().checked_add(1);\n\
                       }\n\
                   }";
        let fired = rules_fired(&[lock_file("crates/replay/src/x.rs", "replay", src)]);
        assert!(
            fired.iter().any(|(_, r, _)| *r == RuleId::L007),
            "expected an L007 cycle, got {fired:?}"
        );
    }

    #[test]
    fn l007_consistent_order_is_clean() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                       fn one(&self) {\n\
                           let g = self.a.lock();\n\
                           self.b.lock().checked_add(1);\n\
                       }\n\
                       fn two(&self) {\n\
                           let g = self.a.lock();\n\
                           self.b.lock().checked_add(2);\n\
                       }\n\
                   }";
        let fired = rules_fired(&[lock_file("crates/replay/src/x.rs", "replay", src)]);
        assert!(fired.iter().all(|(_, r, _)| *r != RuleId::L007));
    }

    #[test]
    fn l007_temporary_lock_chain_is_not_a_guard() {
        // `.lock().stats()` is a temporary dropped at statement end; a
        // second acquisition in the NEXT statement must not form a cycle
        // edge with it.
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                       fn one(&self) {\n\
                           let x = self.a.lock().checked_add(1);\n\
                           self.b.lock().checked_add(1);\n\
                       }\n\
                       fn two(&self) {\n\
                           let y = self.b.lock().checked_add(1);\n\
                           self.a.lock().checked_add(1);\n\
                       }\n\
                   }";
        let fired = rules_fired(&[lock_file("crates/replay/src/x.rs", "replay", src)]);
        assert!(
            fired.iter().all(|(_, r, _)| *r != RuleId::L007),
            "temporaries must not hold across statements, got {fired:?}"
        );
    }

    #[test]
    fn l007_sees_through_calls() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S {\n\
                       fn take_b(&self) { self.b.lock().checked_add(1); }\n\
                       fn fwd(&self) {\n\
                           let g = self.a.lock();\n\
                           self.take_b();\n\
                       }\n\
                       fn rev(&self) {\n\
                           let g = self.b.lock();\n\
                           self.a.lock().checked_add(1);\n\
                       }\n\
                   }";
        let fired = rules_fired(&[lock_file("crates/replay/src/x.rs", "replay", src)]);
        assert!(
            fired.iter().any(|(_, r, _)| *r == RuleId::L007),
            "interprocedural cycle missed: {fired:?}"
        );
    }

    #[test]
    fn l008_flags_sleep_reachable_from_worker_loop() {
        let src = "fn reactor_loop() { helper(); }\n\
                   fn helper() { std::thread::sleep(d); }\n\
                   fn unreachable_helper() { std::thread::sleep(d); }";
        let fired = rules_fired(&[lock_file("crates/replay/src/w.rs", "replay", src)]);
        let l008: Vec<_> = fired
            .iter()
            .filter(|(_, r, _)| *r == RuleId::L008)
            .collect();
        assert_eq!(l008.len(), 1, "only the reachable sleep fires: {fired:?}");
        assert_eq!(l008[0].2, 2);
    }

    #[test]
    fn l008_guard_and_recv_patterns() {
        let src = "struct S { m: Mutex<u32> }\n\
                   impl S {\n\
                       fn reactor_loop(&self, rx: Receiver<u8>) {\n\
                           let x = rx.recv();\n\
                           self.m.lock().checked_add(1);\n\
                       }\n\
                   }";
        let fired = rules_fired(&[lock_file("crates/replay/src/w.rs", "replay", src)]);
        let l008: Vec<usize> = fired
            .iter()
            .filter(|(_, r, _)| *r == RuleId::L008)
            .map(|&(_, _, l)| l)
            .collect();
        assert_eq!(l008, [4, 5], "recv + lock both flagged: {fired:?}");
    }
}
