#!/usr/bin/env python3
"""avdb-analyze: the repo's static analysis, for the rules the compiler
can't enforce (see DESIGN.md §15 "Static analysis model").

Every source file under src/, tests/, bench/ and examples/ is tokenized
once. Fifteen rules run over the tokens.

Line rules look at one file at a time; each finding names one line:

  wallclock          No std::chrono::{system,steady,high_resolution}_clock,
                     sleep_for/sleep_until/usleep/nanosleep, gettimeofday,
                     clock_gettime, std::clock() or std::time() anywhere
                     in the tree. All delay must be charged in virtual time
                     (base/virtual_clock) so schedules are deterministic and
                     fault traces replay; benches that report host time are
                     allowlisted.
  naked-new          No raw `new` / malloc-family calls in src/ outside
                     src/base/buffer*. A `new` immediately owned by a
                     unique_ptr/shared_ptr constructor (the private-ctor
                     factory idiom) is allowed.
  check-in-hot-path  No AVDB_CHECK / AVDB_DCHECK in the streaming hot-path
                     layers (src/storage, src/net, src/codec): data-
                     dependent failures there must surface as Status, not
                     abort the process. Constructor preconditions and
                     encode-side self-checks are allowlisted individually.
  layer-cycle        `#include "dir/…"` across src/ layers must follow the
                     layer DAG (base → time → obs|media → codec|sched →
                     storage|net → activity → cluster → db → hyper|vworld).
                     An include into a higher or sibling layer is a cycle.
  void-cast-call     No `(void)call(...)` in src/: a void-cast of a call is
                     an invisible status drop. Use AVDB_IGNORE_STATUS with
                     a justification instead.
  metric-prefix      Instrument-name string literals in src/ must follow
                     `avdb_<layer>_<metric>` where `<layer>` is the layer
                     (include-DAG directory) of the defining file, so a
                     metric's name always says which layer owns it.
  plane-copy         No per-frame byte-plane copies in the codec/activity
                     hot paths (src/codec, src/activity): by-value
                     `std::vector<uint8_t>` objects allocate per frame
                     (VideoFrame has no copying plane accessor). Use
                     PlaneView / PlaneSpan over the frame's planar storage,
                     or lease scratch from BufferPool (BytesLease /
                     AcquireBuffer).
  naked-retry        In src/cluster and src/storage, every retry loop (see
                     below) must be driven by a RetryState named in the
                     loop or just above it, so every retry charges virtual
                     time, honors the deadline budget, and applies the
                     configured backoff+jitter. A naked loop retries for
                     free and forever.
  direct-replica-write
                     No MediaStore::Put/Delete called directly from
                     src/cluster/: every replica mutation must ride
                     ServerNode's serving arms (ServeWrite / ServeDelete /
                     ApplyRepair) so it is fault-injected, priced in
                     virtual time, and journaled exactly once. The serving
                     arms themselves are allowlisted.

Semantic rules run over src/ only. They build a declaration index
(classes, members, virtual methods, function signatures) and a
per-function scope model:

  lock-order           Extracts the lock-acquisition graph from
                       avdb::MutexLock scopes tree-wide, including locks
                       acquired transitively through calls. Cycles (and
                       same-lock re-acquisition, a self-deadlock for the
                       non-recursive avdb::Mutex) are findings. The
                       canonical acquisition order is emitted into the
                       checked-in tools/lock_order.json; a default run
                       verifies the file is in sync, --write-lock-order
                       regenerates it.
  lock-foreign-call    No foreign code under a lock: invoking a
                       std::function member/local (an injected callback),
                       a virtual method, or an out-of-layer function while
                       holding a MutexLock — directly or through any
                       transitive callee — can re-enter the lock's class
                       or block it on arbitrary work.
  lease-escape         A BufferPool lease (BytesLease / I16Lease) or a
                       PlaneView / PlaneSpan is a borrow: it must not be
                       stored in a member (including member containers of
                       borrow type), captured by an escaping lambda, or
                       returned when its owner is a function-local.
                       Borrows of parameters/members may be returned —
                       the caller owns the backing storage.
  budget-propagation   A function in src/storage, src/net or src/cluster
                       that accepts a DeadlineBudget must use it: charge
                       it, test it, or forward it. Every retry loop in
                       such a function must name the budget, and a call
                       to a callee that has a budget-taking overload must
                       forward a budget rather than silently selecting the
                       budget-free overload. A deliberately background
                       operation says so by constructing
                       DeadlineBudget::Unlimited() — that is exempt.
  determinism          Iteration over unordered_map/unordered_set whose
                       element order can reach serialized bytes, exported
                       JSON/Prometheus text, trace events or
                       replica-selection decisions; iteration over any
                       pointer-keyed std::map/std::set is flagged
                       unconditionally (pointer order varies run to run).

One rule reads all four trees, by name:

  unused-api           A function declared at namespace or class scope in
                       a src/**/*.h header that nothing in src/, bench/,
                       examples/ or tests/ uses: no call (`f(`, `f<…>(`,
                       through `.`, `->` or `::`), no address (`&f`,
                       `&X::f`), no bare argument (`g(f)`, unless the file
                       declares a variable f) and no mention in a #define
                       body. Declarations and definitions are no uses.
                       Constructors, destructors, operators, `= default` /
                       `= delete` and virtual functions and overrides are
                       exempt. Also a data member with a default
                       initializer in a class named …Policy, …Options,
                       …Spec, …Config, …Params, …Profile or …Model that no
                       code sets (assignment, compound assignment, ++/--,
                       designated initializer, or a write through a
                       sub-field). A use of any same-named function keeps
                       every declaration of that name, so the rule can
                       miss a dead function but never flags a used one.
                       Functions only tests/ use and knobs only tests/ set
                       are reported, never failed: printed on every run
                       and written to --json as unused_api_report.

A retry loop, for naked-retry and budget-propagation alike, is a for /
while / do loop whose brace-matched body calls one of RETRYABLE_CALLEES
through a receiver (`device_->Read(`, `link.Transfer(`).

Suppressions live in tools/avdb_lint_allowlist.json: machine-readable,
justification required. Every entry is applied to every finding, and an
entry that matches nothing is stale and fails the run. Never silence a
rule inline.

    python3 tools/avdb_analyze.py --root .                   # analyze tree
    python3 tools/avdb_analyze.py --root . --self-test       # rule fixtures
    python3 tools/avdb_analyze.py --root . --write-lock-order
    python3 tools/avdb_analyze.py --root . --json findings.json
"""

import argparse
import fnmatch
import json
import os
import re
import sys

RULES = frozenset({
    "wallclock", "naked-new", "check-in-hot-path", "layer-cycle",
    "void-cast-call", "metric-prefix", "plane-copy", "naked-retry",
    "direct-replica-write",
    "lock-order", "lock-foreign-call", "lease-escape",
    "budget-propagation", "determinism", "unused-api",
})

SCAN_DIRS = ("src", "tests", "bench", "examples")
SOURCE_EXTS = (".cc", ".h", ".cpp", ".hpp")

# Layer ranks: an #include may only point at a strictly lower rank (or the
# same directory). Keep in sync with DESIGN.md §15.
LAYER_RANK = {
    "base": 0,
    "time": 1,
    "obs": 2,
    "media": 2,
    "codec": 3,
    "sched": 3,
    "storage": 4,
    "net": 4,
    "activity": 5,
    "cluster": 6,
    "db": 7,
    "hyper": 8,
    "vworld": 8,
}

HOT_PATH_DIRS = ("src/storage/", "src/net/", "src/codec/")
PLANE_COPY_DIRS = ("src/codec/", "src/activity/")
NAKED_RETRY_DIRS = ("src/cluster/", "src/storage/")
DIRECT_WRITE_DIRS = ("src/cluster/",)
BUDGET_DIRS = ("src/storage/", "src/net/", "src/cluster/")
# How many lines above a retry loop's head a RetryState still governs it.
NAKED_RETRY_LOOKBACK = 4

WALLCLOCK_CLOCKS = frozenset({
    "system_clock", "steady_clock", "high_resolution_clock"})
WALLCLOCK_SLEEPS = frozenset({"sleep_for", "sleep_until"})
WALLCLOCK_CALLS = frozenset({
    "usleep", "nanosleep", "gettimeofday", "clock_gettime"})
# Banned only when qualified: an unqualified clock() is, e.g.,
# EventEngine::clock(), the virtual clock itself.
WALLCLOCK_STD_CALLS = frozenset({"clock", "time"})
ALLOC_CALLS = frozenset({"malloc", "calloc", "realloc", "free"})
CHECK_MACROS = frozenset({"AVDB_CHECK", "AVDB_DCHECK"})
# An instrument name inside a string literal: "avdb_<layer>_..."
METRIC_LITERAL_RE = re.compile(r'"(avdb_([a-z0-9]+)_[a-z0-9_]+)')

BORROW_TYPES = frozenset({"PlaneView", "PlaneSpan", "BytesLease", "I16Lease"})
# Methods/factories whose result borrows from the receiver object.
BORROW_FACTORIES = frozenset({
    "View", "Span", "MutableView", "MutableSpan", "AcquireBytes",
    "AcquireI16", "plane", "view", "span",
})
# Call targets that keep a passed callable beyond the caller's scope.
ESCAPE_SINKS = frozenset({
    "Submit", "Post", "Schedule", "Defer", "Spawn", "Start", "SetClock",
})
ESCAPE_SINK_PREFIXES = ("Set", "Register", "On")
# Method names too generic (and too obviously value-ish) to treat as
# dynamic dispatch when they appear in the tree-wide virtual set.
SAFE_CALLEES = frozenset({
    "size", "empty", "begin", "end", "clear", "find", "count", "at",
    "push_back", "pop_back", "pop_front", "emplace_back", "emplace",
    "insert", "erase", "reserve", "resize", "front", "back", "get",
    "reset", "release", "swap", "load", "store", "fetch_add", "exchange",
    "c_str", "data", "str", "substr", "append", "value", "has_value",
    "ok", "min", "max", "abs", "move", "forward", "to_string",
    "make_unique", "make_shared", "make_pair", "push", "pop", "top",
    "Wait", "NotifyOne", "NotifyAll", "lock", "unlock", "assign",
})
# Retryable device/channel operations. Exact names only: parsing helpers
# (ReadU32, ReadBytes, ReadString, …) loop legitimately over a buffer.
RETRYABLE_CALLEES = frozenset({
    "Read", "ReadRange", "Transfer", "TransferWithDeadline", "ServeRead",
    "ServeWrite", "RoundTrip",
})
CONTROL_KEYWORDS = frozenset({
    "if", "for", "while", "switch", "catch", "return", "sizeof", "do",
    "else", "new", "delete", "throw", "case", "default", "alignas",
    "alignof", "decltype", "static_assert", "static_cast", "const_cast",
    "dynamic_cast", "reinterpret_cast", "operator", "co_return",
    "constexpr",
})
# Function names whose output is a serialization / export / decision sink
# for the determinism rule.
SINK_FN_RE = re.compile(
    r"Serial|Json|Dump|Export|Prometheus|Text|Save|Encode|Digest|Hash"
    r"|Summary|Pick|Select|Choose|Plan|Repair|Write|Manifest")
# Callees inside a loop body that serialize or emit in iteration order.
SINK_CALLEE_RE = re.compile(
    r"^(?:Append|Serialize|Write|Emit|Event|EventAt|BeginSpan|Add)")
MACRO_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")


def is_macro(name):
    """SHOUT_CASE with at least one underscore (AVDB_GUARDED_BY, …);
    requiring the underscore keeps short all-caps identifiers like a
    method named `AB` out of the macro bucket."""
    return bool(MACRO_RE.match(name)) and "_" in name


def layer_of(rel_path):
    parts = rel_path.split("/")
    if len(parts) >= 2 and parts[0] == "src":
        return parts[1]
    return None


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind    # 'id' | 'num' | 'str' | 'punct' | 'include'
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.text}@{self.line}"


_ID_START = set("abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")
# Multi-char punctuators we keep fused because the analysis keys on them.
# '<' '>' stay single chars so template-argument scanning is uniform
# (shift operators then tokenize as two tokens, which none of the rules
# mind).
_PUNCT2 = {"::", "->", "+=", "-=", "*=", "/=", "|=", "&=", "^=", "==",
           "!=", "<=", ">=", "&&", "||", "++", "--"}


_INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')
_DEFINE_RE = re.compile(r"#\s*define\b")


def tokenize(text):
    """Tokenizes C++ source. Comments are dropped. A `#include "path"` line
    becomes one 'include' token carrying the path, a `#define` one 'define'
    token carrying the rest of the definition (continuation lines
    included); every other preprocessor line is dropped. String and char
    literals become single 'str' tokens."""
    toks = []
    i, n, line = 0, len(text), 1
    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\v\f":
            i += 1
            continue
        if at_line_start and c == "#":
            m = _INCLUDE_RE.match(text, i)
            if m:
                toks.append(Tok("include", m.group(1), line))
            define = _DEFINE_RE.match(text, i)
            first_line = line
            # Skip to end of line, honoring backslash continuations.
            while i < n:
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    line += 1
                    i += 2
                    continue
                if text[i] == "\n":
                    break
                i += 1
            if define:
                toks.append(Tok("define", text[define.end():i], first_line))
            continue
        at_line_start = False
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                while i < n and text[i] != "\n":
                    i += 1
                continue
            if text[i + 1] == "*":
                i += 2
                while i + 1 < n and not (text[i] == "*"
                                         and text[i + 1] == "/"):
                    if text[i] == "\n":
                        line += 1
                    i += 1
                i += 2
                continue
        if c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            word = text[i:j]
            # Raw string literal R"delim( ... )delim"
            if word.endswith("R") and j < n and text[j] == '"':
                k = j + 1
                while k < n and text[k] != "(":
                    k += 1
                delim = text[j + 1:k]
                close = ")" + delim + '"'
                endpos = text.find(close, k)
                if endpos == -1:
                    endpos = n - len(close)
                line += text.count("\n", i, endpos)
                toks.append(Tok("str", '""', line))
                i = endpos + len(close)
                continue
            kind = "id" if not word[0].isdigit() else "num"
            toks.append(Tok(kind, word, line))
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < n and (text[j] in _ID_CONT or text[j] in ".'"):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        if c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                if text[j] == "\\":
                    j += 1
                elif text[j] == "\n":
                    line += 1
                j += 1
            toks.append(Tok("str", text[i:j + 1], line))
            i = j + 1
            continue
        two = text[i:i + 2]
        if two in _PUNCT2:
            toks.append(Tok("punct", two, line))
            i += 2
            continue
        toks.append(Tok("punct", c, line))
        i += 1
    return toks


def match_forward(toks, i, opener, closer):
    """Index of the token closing the opener at toks[i]."""
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j].text
        if t == opener:
            depth += 1
        elif t == closer:
            depth -= 1
            if depth == 0:
                return j
    return len(toks) - 1


def match_back(toks, i, closer, opener):
    """Index of the token opening the closer at toks[i]."""
    depth = 0
    for j in range(i, -1, -1):
        t = toks[j].text
        if t == closer:
            depth += 1
        elif t == opener:
            depth -= 1
            if depth == 0:
                return j
    return 0


def statement_end(toks, i, end):
    """Index of the last token of the statement starting at toks[i]: the
    matching '}' of a block, else the first ';' outside brackets."""
    if toks[i].text == "{":
        return match_forward(toks, i, "{", "}")
    depth = 0
    for j in range(i, end):
        t = toks[j].text
        if t in "([{":
            depth += 1
        elif t in ")]}":
            depth -= 1
        elif t == ";" and depth <= 0:
            return j
    return end - 1


def retry_loops(toks, start, end):
    """Yields (head, last, call) for every for/while loop in
    toks[start:end] whose head or brace-matched body calls a
    RETRYABLE_CALLEES operation through a receiver. head indexes the loop
    keyword, last the body's final token, call is the callee token."""
    for i in range(start, end - 1):
        t = toks[i]
        if t.kind != "id" or t.text not in ("for", "while") \
                or toks[i + 1].text != "(":
            continue
        body = match_forward(toks, i + 1, "(", ")") + 1
        if body >= end:
            continue
        last = statement_end(toks, body, end)
        for j in range(i + 2, last):
            c = toks[j]
            if c.kind == "id" and c.text in RETRYABLE_CALLEES \
                    and toks[j + 1].text == "(" \
                    and toks[j - 1].text in (".", "->"):
                yield i, last, c
                break


# ---------------------------------------------------------------------------
# Line rules
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, rule, path, line, text):
        self.rule = rule
        self.path = path
        self.line_no = line
        self.text = text

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.text}"

    def as_json(self):
        return {"rule": self.rule, "path": self.path,
                "line": self.line_no, "message": self.text}


def _smart_ptr_owned(toks, new_at):
    """A `new` that is the argument of a unique_ptr/shared_ptr constructor
    (the private-ctor factory idiom), possibly split over three lines."""
    if new_at == 0 or toks[new_at - 1].text != "(":
        return False
    first_line = toks[new_at].line - 2
    for j in range(new_at - 2, -1, -1):
        t = toks[j]
        if t.line < first_line or t.text in (";", "{", "}"):
            return False
        if t.text in ("unique_ptr", "shared_ptr") and toks[j + 1].text == "<":
            return True
    return False


def _is_call(toks, j):
    """toks[j:] reads as a call: `f(`, `a.b->c(` or `ns::f(`."""
    while j + 1 < len(toks) and toks[j].kind == "id":
        sep = toks[j + 1].text
        if sep == "(":
            return True
        if sep not in ("::", ".", "->"):
            return False
        j += 2
    return False


def _on_store(texts, i):
    """texts[i] is called on a MediaStore-named receiver: `store_->`,
    `x_store.` or `store().`."""
    sep = texts[i - 1]
    if sep not in (".", "->"):
        return False
    recv = texts[i - 2]
    return recv == "store_" or recv.endswith("_store") or (
        sep == "." and texts[i - 4:i - 1] == ["store", "(", ")"])


def line_findings(path, toks, lines):
    """Runs the nine line rules over one file's tokens. A finding's text is
    its source line, so allowlist patterns match code; layer-cycle,
    metric-prefix and naked-retry findings explain themselves instead."""
    in_src = path.startswith("src/")
    layer = layer_of(path)
    new_banned = in_src and not os.path.basename(path).startswith("buffer")
    hot_path = path.startswith(HOT_PATH_DIRS)
    plane_path = path.startswith(PLANE_COPY_DIRS)
    write_path = path.startswith(DIRECT_WRITE_DIRS)
    texts = [t.text for t in toks] + [""]
    found = {}

    def hit(rule, line, text=None):
        text = text or lines[line - 1].strip()
        found.setdefault((rule, line, text), Finding(rule, path, line, text))

    def after(i, words):
        return i >= len(words) and texts[i - len(words):i] == words

    for i, t in enumerate(toks):
        if t.kind == "include":
            target = t.text.split("/")[0]
            if layer in LAYER_RANK and target in LAYER_RANK \
                    and target != layer \
                    and LAYER_RANK[target] >= LAYER_RANK[layer]:
                hit("layer-cycle", t.line,
                    f'#include "{t.text}" from layer {layer!r} '
                    f"(rank {LAYER_RANK[layer]}) into layer {target!r} "
                    f"(rank {LAYER_RANK[target]}) breaks the layer DAG")
            continue
        if t.kind == "str":
            m = METRIC_LITERAL_RE.match(t.text)
            if in_src and m and m.group(2) != layer:
                hit("metric-prefix", t.line,
                    f'instrument "{m.group(1)}" claims layer '
                    f"{m.group(2)!r} but is defined in layer {layer!r}")
            continue
        if t.text == "(":
            if in_src and texts[i + 1:i + 3] == ["void", ")"] \
                    and _is_call(toks, i + 3):
                hit("void-cast-call", t.line)
            continue
        if t.kind != "id":
            continue
        w = t.text
        call = texts[i + 1] == "("
        if ((w in WALLCLOCK_CLOCKS
             and after(i, ["std", "::", "chrono", "::"]))
                or w in WALLCLOCK_SLEEPS
                or (call and w in WALLCLOCK_CALLS)
                or (call and w in WALLCLOCK_STD_CALLS
                    and after(i, ["std", "::"]))):
            hit("wallclock", t.line)
        if new_banned and (
                (w == "new" and not call and not _smart_ptr_owned(toks, i))
                or (call and w in ALLOC_CALLS)):
            hit("naked-new", t.line)
        if hot_path and call and w in CHECK_MACROS:
            hit("check-in-hot-path", t.line)
        # A by-value byte plane; references borrow and are fine.
        if plane_path and w == "std" and texts[i + 1:i + 6] == [
                "::", "vector", "<", "uint8_t", ">"] \
                and texts[i + 6] not in ("&", "&&"):
            hit("plane-copy", t.line)
        if write_path and call and w in ("Put", "Delete") \
                and _on_store(texts, i):
            hit("direct-replica-write", t.line)

    if path.startswith(NAKED_RETRY_DIRS):
        for head, last, call in retry_loops(toks, 0, len(toks)):
            first = head
            while first > 0 and toks[first - 1].line >= \
                    toks[head].line - NAKED_RETRY_LOOKBACK:
                first -= 1
            if "RetryState" not in texts[first:last + 1]:
                hit("naked-retry", toks[head].line,
                    f"loop retries `{lines[call.line - 1].strip()}` "
                    "without RetryState: unbudgeted, unjittered retry")
    return list(found.values())


# ---------------------------------------------------------------------------
# Declaration index
# ---------------------------------------------------------------------------

class ClassInfo:
    def __init__(self, name, path, line):
        self.name = name              # qualified by nesting: Outer::Inner
        self.path = path
        self.line = line
        self.mutex_members = {}       # member name -> line
        self.fn_members = {}          # std::function member name -> line
        self.borrow_members = {}      # member name -> (line, type text)
        self.unordered_members = {}   # member name -> line
        self.ptrkey_members = {}      # member name -> (line, type text)
        self.methods = set()


class FuncDef:
    def __init__(self, name, cls, path, line, layer):
        self.name = name              # unqualified
        self.cls = cls                # enclosing/qualifying class name or None
        self.path = path
        self.line = line
        self.layer = layer
        self.params = []              # [(type_text, name)]
        self.budget_params = []       # names of DeadlineBudget params
        self.body = (0, 0)            # token index range (open, close brace)
        # Analysis summaries (filled by analyze_function):
        self.direct_locks = []        # [(canonical, line)]
        self.calls = []               # [CallSite]
        self.foreign = []             # [(kind, detail, line)] direct only

    @property
    def key(self):
        return f"{self.cls}::{self.name}" if self.cls else self.name


class CallSite:
    def __init__(self, callee, qual, receiver, line, held, args):
        self.callee = callee          # last identifier of the callee chain
        self.qual = qual              # 'Cls' when written Cls::callee(...)
        self.receiver = receiver     # head id of recv chain (x->f(): 'x')
        self.line = line
        self.held = held              # tuple of canonical locks held here
        self.args = args              # flat arg token texts


def _strip_member_macros(stmt):
    """Removes SHOUT_CASE macro invocations (AVDB_GUARDED_BY(mu_), …) from
    a member-declaration token list so they don't read as methods."""
    out = []
    i = 0
    while i < len(stmt):
        t = stmt[i]
        if (t.kind == "id" and is_macro(t.text)
                and i + 1 < len(stmt) and stmt[i + 1].text == "("):
            i = match_forward(stmt, i + 1, "(", ")") + 1
            continue
        out.append(t)
        i += 1
    return out


def _first_template_arg(stmt, idx):
    """Token texts of the first template argument after stmt[idx] ('map' or
    'set'), or []."""
    i = idx + 1
    if i >= len(stmt) or stmt[i].text != "<":
        return []
    depth = 0
    arg = []
    for j in range(i, len(stmt)):
        t = stmt[j].text
        if t == "<":
            depth += 1
            if depth == 1:
                continue
        elif t == ">":
            depth -= 1
            if depth == 0:
                return arg
        elif t == "," and depth == 1:
            return arg
        if depth >= 1:
            arg.append(t)
    return arg


def _classify_member(cls, stmt, path):
    """Classifies one class-member declaration statement (tokens, ';' not
    included) into the ClassInfo buckets."""
    stmt = _strip_member_macros(stmt)
    if not stmt:
        return
    texts = [t.text for t in stmt]
    # Method or data member? A top-level '(' before any '=' means method —
    # top-level meaning outside template angle brackets, so the '()' in
    # `std::function<int64_t()>` doesn't read as a parameter list.
    eq_at = texts.index("=") if "=" in texts else len(texts)
    paren_at = len(texts)
    angle = 0
    for j, tx in enumerate(texts):
        if tx == "<":
            angle += 1
        elif tx == ">":
            angle -= 1
        elif tx == "(" and angle == 0:
            paren_at = j
            break
    if paren_at < eq_at:
        # Method declaration: name is the id right before the '('.
        name = None
        for j in range(paren_at - 1, -1, -1):
            if stmt[j].kind == "id":
                name = stmt[j].text
                break
        if name and name not in CONTROL_KEYWORDS:
            cls.methods.add(name)
            if "virtual" in texts or "override" in texts or "final" in texts:
                VIRTUAL_METHODS.add(name)
        return
    # Data member: last id before '=' (or end of stmt).
    decl = stmt[:eq_at]
    name = None
    for j in range(len(decl) - 1, -1, -1):
        if decl[j].kind == "id":
            name = decl[j].text
            name_at = j
            break
    if name is None:
        return
    typ = [t.text for t in decl[:name_at]]
    line = stmt[0].line
    type_text = " ".join(typ)
    if "Mutex" in typ and "MutexLock" not in typ:
        cls.mutex_members[name] = line
    if "function" in typ:
        cls.fn_members[name] = line
    if any(t in BORROW_TYPES for t in typ):
        cls.borrow_members[name] = (line, type_text)
    if "unordered_map" in typ or "unordered_set" in typ:
        cls.unordered_members[name] = line
    for container in ("map", "set"):
        if container in typ:
            arg = _first_template_arg(decl, typ.index(container))
            if arg and arg[-1] == "*":
                cls.ptrkey_members[name] = (line, type_text)
            break


# Global (tree-wide) declaration index, reset per run.
CLASSES = {}           # qualified class name -> ClassInfo
VIRTUAL_METHODS = set()
FUNCS = []             # all FuncDefs
FUNCS_BY_NAME = {}     # unqualified name -> [FuncDef]
MUTEX_OWNERS = {}      # mutex member name -> [class name]
LOCK_NODES = {}        # canonical lock -> first witness "path:line"
LOCK_EDGES = {}        # (held, acquired) -> [witness "path:line", ...]


def reset_index():
    CLASSES.clear()
    VIRTUAL_METHODS.clear()
    del FUNCS[:]
    FUNCS_BY_NAME.clear()
    MUTEX_OWNERS.clear()
    LOCK_NODES.clear()
    LOCK_EDGES.clear()


# ---------------------------------------------------------------------------
# File walk: scopes, members, function definitions
# ---------------------------------------------------------------------------

def _try_func_def(toks, brace_at):
    """If the '{' at brace_at opens a function body, returns
    (name, qual, params_open, params_close, decl_line); else None. Walks
    backwards over trailers (const/noexcept/override, SHOUT_CASE macro
    calls, trailing return types) and constructor init-lists."""
    j = brace_at - 1
    guard = 0
    while j >= 0 and guard < 400:
        guard += 1
        t = toks[j]
        if t.kind == "id" and t.text in ("const", "noexcept", "override",
                                         "final", "mutable", "try"):
            j -= 1
            continue
        if t.text == ">":          # trailing return type `-> T<...>` tail
            j = match_back(toks, j, ">", "<") - 1
            continue
        if t.kind in ("id", "num", "str") or t.text in ("::", "->", "*",
                                                        "&", ",", "<"):
            # Could be a trailing return type or an init-list fragment;
            # keep scanning back until we hit a ')' / '}' / terminator.
            j -= 1
            continue
        if t.text == "}":
            # Brace-init entry in a ctor init-list: `, member{}` — walk
            # past it and require ',' or ':' before the member name.
            k = match_back(toks, j, "}", "{")
            m = k - 1
            if m >= 0 and toks[m].kind == "id":
                prev = toks[m - 1].text if m - 1 >= 0 else ""
                if prev in (",", ":"):
                    j = m - 2
                    continue
            return None
        if t.text == ")":
            k = match_back(toks, j, ")", "(")
            m = k - 1
            if m < 0 or toks[m].kind != "id":
                return None
            name = toks[m].text
            prev = toks[m - 1].text if m - 1 >= 0 else ""
            if is_macro(name) or name == "noexcept":
                j = m - 1       # attribute-macro / noexcept(...) trailer
                continue
            if prev in (",", ":") and not prev == "::":
                j = m - 2       # ctor init-list entry `member(...)`
                continue
            if name in CONTROL_KEYWORDS:
                return None
            # Qualified name chain: A::B::name (destructors carry a '~'
            # between the qualifier and the name).
            qual = None
            q = m - 1
            if q >= 0 and toks[q].text == "~":
                name = "~" + name
                q -= 1
            while q - 1 >= 0 and toks[q].text == "::" \
                    and toks[q - 1].kind == "id":
                qual = toks[q - 1].text
                q -= 2
            if m - 1 >= 0 and toks[m - 1].text in ("]",):
                return None     # lambda: `](...) {`
            return (name, qual, k, j, toks[m].line)
        return None
    return None


def index_file(path, toks):
    """Pass over one file: collects classes/members, finds function
    definitions (recording body ranges), maintains a class scope stack.
    Returns the file's FuncDefs (already appended to the globals)."""
    layer = layer_of(path)
    scopes = []                   # (kind, name) with kind class|ns|block|enum
    pending = None                # scope to open at the next '{'
    stmt = []                     # member-decl accumulator inside a class
    out = []
    i = 0
    n = len(toks)

    def cur_class():
        for kind, name in reversed(scopes):
            if kind == "class":
                return name
            if kind == "block":
                return None
        return None

    while i < n:
        t = toks[i]
        if t.kind == "id" and t.text in ("class", "struct"):
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1] if i + 1 < n else None
            if prev != "enum" and nxt is not None and nxt.kind == "id":
                outer = cur_class()
                qname = f"{outer}::{nxt.text}" if outer else nxt.text
                pending = ("class", qname, t.line)
            i += 1
            continue
        if t.kind == "id" and t.text == "namespace":
            nxt = toks[i + 1] if i + 1 < n else None
            pending = ("ns", nxt.text if nxt and nxt.kind == "id" else "")
            i += 1
            continue
        if t.kind == "id" and t.text == "enum":
            pending = ("enum", "")
            i += 1
            continue
        if t.text == ";":
            pending = None        # forward declaration
            stmt = []
            i += 1
            continue
        if t.text == "{":
            if pending:
                if pending[0] == "class":
                    qname = pending[1]
                    if qname not in CLASSES:
                        CLASSES[qname] = ClassInfo(qname, path, pending[2])
                    scopes.append(("class", qname))
                elif pending[0] == "enum":
                    i = match_forward(toks, i, "{", "}") + 1
                    pending = None
                    stmt = []
                    continue
                else:
                    scopes.append(("ns", pending[1]))
                pending = None
                stmt = []
                i += 1
                continue
            fd_info = _try_func_def(toks, i)
            if fd_info:
                name, qual, po, pc, line = fd_info
                cls = qual or cur_class()
                fd = FuncDef(name, cls, path, line, layer)
                # Parameters: split toks[po+1:pc] on top-level ','.
                depth = 0
                cur = []
                groups = []
                for pt in toks[po + 1:pc]:
                    if pt.text in "(<[":
                        depth += 1
                    elif pt.text in ")>]":
                        depth -= 1
                    if pt.text == "," and depth == 0:
                        groups.append(cur)
                        cur = []
                    else:
                        cur.append(pt)
                if cur:
                    groups.append(cur)
                for g in groups:
                    ids = [x.text for x in g if x.kind == "id"]
                    if not ids:
                        continue
                    pname = ids[-1]
                    ptype = " ".join(x.text for x in g[:-1])
                    fd.params.append((ptype, pname))
                    if "DeadlineBudget" in ids[:-1] or \
                            (len(ids) == 1 and ids[0] == "DeadlineBudget"):
                        fd.budget_params.append(pname)
                close = match_forward(toks, i, "{", "}")
                fd.body = (i, close)
                FUNCS.append(fd)
                FUNCS_BY_NAME.setdefault(name, []).append(fd)
                out.append(fd)
                if cls and cls in CLASSES:
                    CLASSES[cls].methods.add(name)
                    if any(x.text in ("virtual", "override", "final")
                           for x in toks[max(0, po - 8):po]):
                        VIRTUAL_METHODS.add(name)
                i = close + 1
                stmt = []
                continue
            scopes.append(("block", ""))
            i += 1
            continue
        if t.text == "}":
            if scopes:
                scopes.pop()
            stmt = []
            i += 1
            continue
        # Member-declaration accumulation at class scope.
        if scopes and scopes[-1][0] == "class":
            cname = scopes[-1][1]
            if t.text == ":" and stmt and stmt[-1].kind == "id" \
                    and stmt[-1].text in ("public", "private", "protected"):
                stmt = []
                i += 1
                continue
            stmt.append(t)
            if i + 1 < n and toks[i + 1].text == ";":
                _classify_member(CLASSES[cname], stmt, path)
                stmt = []
        i += 1
    return out


# ---------------------------------------------------------------------------
# Function-body analysis
# ---------------------------------------------------------------------------

def canonical_lock(expr_toks, fd):
    """Canonical identity for a lock expression: Class::member when the
    expression names a Mutex member (of the enclosing class, else of a
    unique class tree-wide), otherwise file-stem:expr."""
    ids = [t.text for t in expr_toks if t.kind == "id" and t.text != "this"]
    if ids:
        last = ids[-1]
        if fd.cls and fd.cls in CLASSES \
                and last in CLASSES[fd.cls].mutex_members:
            return f"{fd.cls}::{last}"
        owners = MUTEX_OWNERS.get(last, [])
        if len(owners) == 1:
            return f"{owners[0]}::{last}"
        same_file = [c for c in owners if CLASSES[c].path == fd.path]
        if len(same_file) == 1:
            return f"{same_file[0]}::{last}"
    stem = os.path.splitext(os.path.basename(fd.path))[0]
    text = "".join(t.text for t in expr_toks if t.text not in ("&", "this"))
    return f"{stem}:{text.lstrip('.').lstrip('->')}"


class _Block:
    __slots__ = ("locks", "borrows")

    def __init__(self):
        self.locks = []         # canonical names acquired in this block
        self.borrows = {}       # borrow local name -> (source_id, line)


def _receiver_of(toks, call_at):
    """For the callee id at call_at, walks the receiver chain back over
    `.`/`->`; returns (head_id or None, qual or None)."""
    qual = None
    j = call_at - 1
    if j >= 0 and toks[j].text == "::" and j - 1 >= 0 \
            and toks[j - 1].kind == "id":
        qual = toks[j - 1].text
        return None, qual
    head = None
    while j >= 1 and toks[j].text in (".", "->"):
        k = j - 1
        if toks[k].text in (")", "]"):
            k = match_back(toks, k, toks[k].text,
                           "(" if toks[k].text == ")" else "[") - 1
        if k >= 0 and toks[k].kind == "id":
            head = toks[k].text
            j = k - 1
        else:
            break
    return head, qual


def _collect_args(toks, open_paren):
    close = match_forward(toks, open_paren, "(", ")")
    return [t.text for t in toks[open_paren + 1:close]], close


def analyze_function(fd, toks, findings):
    """Walks fd's body with a block-scope stack: lock scopes, borrow
    locals, calls (with held-lock snapshots), loops, lambdas, returns and
    range-for iterations. Fills fd's summaries and emits the intra-
    procedural findings."""
    start, end = fd.body
    cls = CLASSES.get(fd.cls) if fd.cls else None
    blocks = [_Block()]
    held = []                    # [(canonical, line)] in acquisition order
    locals_ = {p[1] for p in fd.params}
    local_objs = set()           # locals declared as owning objects here
    unordered_locals = {}
    ptrkey_locals = {}
    fn_locals = set()            # local std::function variables
    param_names = {p[1] for p in fd.params}
    ret_type_ids = set()
    # Return type ids: tokens before the name on the decl line — approximate
    # by scanning a few tokens before the body's param list.
    for t in toks[max(0, start - 40):start]:
        if t.kind == "id":
            ret_type_ids.add(t.text)
        if t.text == "(":
            break

    def borrow_lookup(name):
        for b in reversed(blocks):
            if name in b.borrows:
                return b.borrows[name]
        return None

    i = start + 1
    while i < end:
        t = toks[i]
        txt = t.text

        if txt == "{":
            blocks.append(_Block())
            i += 1
            continue
        if txt == "}":
            b = blocks.pop() if len(blocks) > 1 else blocks[0]
            for name in b.locks:
                for k in range(len(held) - 1, -1, -1):
                    if held[k][0] == name:
                        del held[k]
                        break
            i += 1
            continue

        # for/while: range-for iteration for the determinism rule.
        if t.kind == "id" and txt in ("for", "while") and i + 1 < end \
                and toks[i + 1].text == "(":
            close = match_forward(toks, i + 1, "(", ")")
            head = toks[i + 2:close]
            if txt == "for":
                colon_at = None
                depth = 0
                for j, ht in enumerate(head):
                    if ht.text in "(<[":
                        depth += 1
                    elif ht.text in ")>]":
                        depth -= 1
                    elif ht.text == ":" and depth == 0:
                        colon_at = j
                        break
                    elif ht.text in ("?", ";") and depth == 0:
                        break
                if colon_at is not None:
                    range_ids = [x.text for x in head[colon_at + 1:]
                                 if x.kind == "id"]
                    if range_ids:
                        _check_iteration(fd, cls, range_ids[-1], t.line,
                                         toks, close, end,
                                         unordered_locals, ptrkey_locals,
                                         findings)
            i = close + 1
            continue

        # MutexLock scope: `[avdb::]MutexLock name(expr);`
        if t.kind == "id" and txt == "MutexLock" and i + 2 < end \
                and toks[i + 1].kind == "id" and toks[i + 2].text == "(":
            args, close = _collect_args(toks, i + 2)
            expr = toks[i + 3:close]
            canon = canonical_lock(expr, fd)
            for held_name, held_line in held:
                if held_name == canon:
                    findings.append(Finding(
                        "lock-order", fd.path, t.line,
                        f"re-acquires {canon} already held since line "
                        f"{held_line} (self-deadlock: avdb::Mutex is not "
                        f"recursive)"))
            for held_name, _ in held:
                if held_name != canon:
                    LOCK_EDGES.setdefault((held_name, canon), []).append(
                        f"{fd.path}:{t.line}")
            LOCK_NODES.setdefault(canon, f"{fd.path}:{t.line}")
            held.append((canon, t.line))
            blocks[-1].locks.append(canon)
            fd.direct_locks.append((canon, t.line))
            i = close + 1
            continue

        # Lambda introducer: a '[' in expression position (not a
        # subscript, which follows an id / ')' / ']').
        if txt == "[":
            prev = toks[i - 1] if i > start else None
            is_lambda = (prev is None
                         or prev.text == "return"
                         or (prev.kind == "punct"
                             and prev.text not in (")", "]")))
            if is_lambda:
                i = _handle_lambda(fd, toks, i, end, blocks, borrow_lookup,
                                   fn_locals, cls, findings)
                continue

        # return statement.
        if t.kind == "id" and txt == "return":
            j = i + 1
            depth = 0
            expr = []
            while j < end:
                jt = toks[j].text
                if jt in "([{":
                    depth += 1
                elif jt in ")]}":
                    depth -= 1
                if jt == ";" and depth == 0:
                    break
                expr.append(toks[j])
                j += 1
            _check_return(fd, expr, ret_type_ids, borrow_lookup,
                          local_objs, param_names, findings, t.line)
            i += 1      # re-walk the expression: calls in it still count
            continue

        # Declarations and calls: id followed by something interesting.
        if t.kind == "id" and txt not in CONTROL_KEYWORDS:
            nxt = toks[i + 1] if i + 1 < end else None
            prev = toks[i - 1] if i > start else None
            prev_is_type = prev is not None and (
                prev.kind == "id" and prev.text not in CONTROL_KEYWORDS
                or prev.text in (">", "*", "&"))
            if nxt is not None and nxt.text == "(" and not prev_is_type:
                recv, qual = _receiver_of(toks, i)
                args, close = _collect_args(toks, i + 1)
                site = CallSite(txt, qual, recv, t.line,
                                tuple(h[0] for h in held), args)
                fd.calls.append(site)
                _check_call_under_lock(fd, cls, site, fn_locals, findings)
                i += 1      # step into the arg tokens (nested calls)
                continue
            if nxt is not None and nxt.text == "(" and prev_is_type:
                # `Type name(args);` — a local object declaration.
                locals_.add(txt)
                local_objs.add(txt)
                _maybe_local_decl(fd, toks, i, blocks, locals_, local_objs,
                                  unordered_locals, ptrkey_locals,
                                  fn_locals, borrow_lookup, param_names,
                                  findings)
                close = match_forward(toks, i + 1, "(", ")")
                i = close + 1
                continue
            if nxt is not None and nxt.text in ("=", ";", "{") \
                    and prev_is_type:
                locals_.add(txt)
                if nxt.text != ";":
                    local_objs.add(txt)
                _maybe_local_decl(fd, toks, i, blocks, locals_, local_objs,
                                  unordered_locals, ptrkey_locals,
                                  fn_locals, borrow_lookup, param_names,
                                  findings)
                i += 1
                continue
            # `.begin()` on an interesting container (explicit-iterator
            # loops).
            if nxt is not None and nxt.text in (".", "->") and i + 2 < end \
                    and toks[i + 2].text == "begin":
                _check_iteration(fd, cls, txt, t.line, toks, i, end,
                                 unordered_locals, ptrkey_locals, findings)
        i += 1

    # Budget-propagation over the finished call/loop picture.
    _check_budget(fd, toks, findings)


def _maybe_local_decl(fd, toks, name_at, blocks, locals_, local_objs,
                      unordered_locals, ptrkey_locals, fn_locals,
                      borrow_lookup, param_names, findings):
    """Classifies the local declaration whose declared name sits at
    name_at. The type tokens run backwards from name_at to the start of
    the statement (';', '{', '}', or ')')."""
    j = name_at - 1
    typ = []
    while j >= 0:
        tt = toks[j]
        if tt.text in (";", "{", "}", "(") or tt.text == ")" and not typ:
            break
        if tt.text == ")":
            break
        typ.append(tt)
        j -= 1
    typ.reverse()
    type_ids = [t.text for t in typ if t.kind == "id"]
    name = toks[name_at].text
    line = toks[name_at].line

    if "unordered_map" in type_ids or "unordered_set" in type_ids:
        unordered_locals[name] = line
    for container in ("map", "set"):
        if container in type_ids:
            idx = next((k for k, t in enumerate(typ)
                        if t.text == container), None)
            if idx is not None:
                arg = _first_template_arg(typ, idx)
                if arg and arg[-1] == "*":
                    ptrkey_locals[name] = line
            break
    if "function" in type_ids:
        fn_locals.add(name)

    # Borrow local: declared with a borrow type, or `auto` initialized
    # from a borrow factory. Record the source object (head of the
    # initializer chain) so escape checks know who owns the storage.
    init = []
    k = name_at + 1
    if k < len(toks) and toks[k].text == "=":
        depth = 0
        k += 1
        while k < len(toks):
            kt = toks[k].text
            if kt in "([{":
                depth += 1
            elif kt in ")]}":
                depth -= 1
            if kt == ";" and depth == 0:
                break
            init.append(toks[k])
            k += 1
    init_ids = [t.text for t in init if t.kind == "id"]
    is_borrow = any(t in BORROW_TYPES for t in type_ids)
    if not is_borrow and "auto" in type_ids and init:
        is_borrow = any(x in BORROW_FACTORIES for x in init_ids) or \
            any(x in BORROW_TYPES for x in init_ids)
    if is_borrow:
        source = init_ids[0] if init_ids else None
        blocks[-1].borrows[name] = (source, line)


def _source_locality(source, local_objs, param_names, cls):
    if source is None:
        return "unknown"
    if source in local_objs:
        return "local"
    if source in param_names:
        return "param"
    if cls is not None and (source in cls.borrow_members
                            or source.endswith("_")):
        return "member"
    return "unknown"


def _check_return(fd, expr, ret_type_ids, borrow_lookup, local_objs,
                  param_names, findings, line):
    """Returning a borrow whose owner is a function-local: the borrow
    outlives its storage (PR 6 bug class)."""
    if not (ret_type_ids & BORROW_TYPES):
        return
    cls = CLASSES.get(fd.cls) if fd.cls else None
    ids = [t.text for t in expr if t.kind == "id"]
    if not ids:
        return
    # `return view;` where view is a borrow local of a local owner.
    b = borrow_lookup(ids[0]) if len(ids) == 1 else None
    if b is not None:
        source, _ = b
        if _source_locality(source, local_objs, param_names, cls) == "local":
            findings.append(Finding(
                "lease-escape", fd.path, line,
                f"returns borrow {ids[0]!r} of function-local "
                f"{source!r}: the storage dies with this frame"))
        return
    # `return frame.View(0);` where frame is a local object.
    if any(x in BORROW_FACTORIES for x in ids):
        head = ids[0]
        if head in local_objs:
            findings.append(Finding(
                "lease-escape", fd.path, line,
                f"returns a borrow of function-local {head!r}: the "
                f"storage dies with this frame"))


def _handle_lambda(fd, toks, open_bracket, end, blocks, borrow_lookup,
                   fn_locals, cls, findings):
    """Parses one lambda. If it escapes the enclosing scope (assigned to a
    member / std::function local, passed to an escape sink, or returned)
    and captures a borrow local, that borrow outlives its owner."""
    cap_close = match_forward(toks, open_bracket, "[", "]")
    captures = [t.text for t in toks[open_bracket + 1:cap_close]]
    j = cap_close + 1
    if j < end and toks[j].text == "(":
        j = match_forward(toks, j, "(", ")") + 1
    while j < end and toks[j].text != "{":
        if toks[j].text == ";" or toks[j].text in (")", ","):
            return cap_close + 1      # not a lambda after all
        j += 1
    if j >= end:
        return cap_close + 1
    body_close = match_forward(toks, j, "{", "}")
    body_ids = {t.text for t in toks[j + 1:body_close] if t.kind == "id"}

    # Escape context.
    escapes = None
    k = open_bracket - 1
    while k >= 0 and toks[k].text in ("(", ","):
        k -= 1
    if k >= 0 and toks[k].kind == "id":
        callee = toks[k].text
        if callee in ESCAPE_SINKS or \
                any(callee.startswith(p) for p in ESCAPE_SINK_PREFIXES):
            escapes = f"passed to {callee}()"
    if escapes is None and k >= 0 and toks[k].text == "=":
        lhs = toks[k - 1].text if k - 1 >= 0 and toks[k - 1].kind == "id" \
            else None
        if lhs and cls is not None and lhs in cls.fn_members:
            escapes = f"stored in member {lhs!r}"
    if escapes is None and k >= 0 and toks[k].text == "return":
        escapes = "returned"

    if escapes:
        explicit = [c for c in captures if c not in ("&", "=", ",", "this")]
        default_cap = "&" in captures or "=" in captures
        suspects = set()
        for c in explicit:
            if borrow_lookup(c) is not None:
                suspects.add(c)
        if default_cap:
            for name in body_ids:
                if borrow_lookup(name) is not None:
                    suspects.add(name)
        for s in sorted(suspects):
            findings.append(Finding(
                "lease-escape", fd.path, toks[open_bracket].line,
                f"lambda {escapes} captures borrow {s!r}, which dies "
                f"with the enclosing scope"))

    # Analyze the lambda body as an anonymous nested function: its locks
    # register in the global graph and its own call sites are checked,
    # but with an empty held-lock context (the body runs when invoked,
    # not where it is written) and without entering name resolution.
    lam = FuncDef(fd.name + "$lambda", fd.cls, fd.path,
                  toks[open_bracket].line, fd.layer)
    lam.body = (j, body_close)
    analyze_function(lam, toks, findings)
    return body_close + 1


def _check_call_under_lock(fd, cls, site, fn_locals, findings):
    """Classifies one call site as foreign (injected callback / virtual
    dispatch) — recorded in fd's summary regardless of lock state so the
    interprocedural pass can see through helpers — and emits the direct
    finding when a lock is held here."""
    callee = site.callee
    if callee in CONTROL_KEYWORDS or is_macro(callee):
        return
    locks = ", ".join(site.held)
    if (cls is not None and callee in cls.fn_members) or \
            callee in fn_locals:
        fd.foreign.append(("callback", callee, site.line))
        if site.held:
            findings.append(Finding(
                "lock-foreign-call", fd.path, site.line,
                f"invokes injected callback {callee!r} while holding "
                f"{locks}: the callback can re-enter and deadlock"))
        return
    if callee in VIRTUAL_METHODS and callee not in SAFE_CALLEES \
            and site.receiver is not None:
        fd.foreign.append(("virtual", callee, site.line))
        if site.held:
            findings.append(Finding(
                "lock-foreign-call", fd.path, site.line,
                f"virtual call {site.receiver}->{callee}() while holding "
                f"{locks}: dynamic dispatch under a lock runs arbitrary "
                f"override code"))


def _check_iteration(fd, cls, name, line, toks, loop_at, end,
                     unordered_locals, ptrkey_locals, findings):
    """Determinism rule at one iteration site over container `name`."""
    ptr_line = None
    if name in ptrkey_locals:
        ptr_line = ptrkey_locals[name]
    elif cls is not None and name in cls.ptrkey_members:
        ptr_line = cls.ptrkey_members[name][0]
    if ptr_line is not None:
        findings.append(Finding(
            "determinism", fd.path, line,
            f"iterates pointer-keyed container {name!r} (declared line "
            f"{ptr_line}): pointer order differs run to run, so any "
            f"effect of this loop is nondeterministic"))
        return
    is_unordered = name in unordered_locals or (
        cls is not None and name in cls.unordered_members)
    if not is_unordered:
        return
    # Unordered iteration is a finding only when the order can reach an
    # output: a serialization-flavored enclosing function, or sink
    # calls / string accumulation in the loop body.
    sink = bool(SINK_FN_RE.search(fd.name))
    if not sink:
        brace = loop_at
        while brace < end and toks[brace].text != "{":
            if toks[brace].text == ";":
                break
            brace += 1
        if brace < end and toks[brace].text == "{":
            close = match_forward(toks, brace, "{", "}")
            for t in toks[brace + 1:close]:
                if (t.kind == "id" and SINK_CALLEE_RE.match(t.text)) or \
                        t.text == "+=":
                    sink = True
                    break
    if sink:
        findings.append(Finding(
            "determinism", fd.path, line,
            f"iterates unordered container {name!r} where element order "
            f"reaches serialized/exported output; use an ordered "
            f"container or sort first"))


def _check_budget(fd, toks, findings):
    """Deadline-budget propagation for budget-accepting functions in the
    serving layers."""
    if not fd.budget_params:
        return
    if not any(fd.path.startswith(d) for d in BUDGET_DIRS):
        return
    start, end = fd.body
    body_ids = [t for t in toks[start + 1:end] if t.kind == "id"]
    body_id_set = {t.text for t in body_ids}
    for b in fd.budget_params:
        if b not in body_id_set:
            findings.append(Finding(
                "budget-propagation", fd.path, fd.line,
                f"{fd.key}() accepts DeadlineBudget {b!r} but never "
                f"charges, tests or forwards it: callers' deadlines are "
                f"silently dropped"))
    budget_names = set(fd.budget_params)
    # Locals of type DeadlineBudget count as budget carriers, except
    # explicit DeadlineBudget::Unlimited() (a deliberate background op).
    i = start + 1
    while i < end - 1:
        if toks[i].kind == "id" and toks[i].text == "DeadlineBudget" \
                and toks[i + 1].kind == "id":
            nxt2 = toks[i + 2].text if i + 2 < end else ""
            if nxt2 in ("=", "(", ";"):
                tail = {t.text for t in toks[i + 2:min(end, i + 12)]}
                if "Unlimited" not in tail:
                    budget_names.add(toks[i + 1].text)
        i += 1
    if not budget_names:
        return
    # Every retry loop must name a budget carrier in its head or body.
    for head, last, call in retry_loops(toks, start + 1, end):
        if not any(t.text in budget_names for t in toks[head:last + 1]):
            findings.append(Finding(
                "budget-propagation", fd.path, call.line,
                f"retry loop calls {call.text}() without consulting "
                f"the DeadlineBudget: retries are budget-free"))
    # Calls that drop the budget at a hop: callee has a budget-taking
    # overload, caller holds a budget, none is passed.
    for site in fd.calls:
        defs = FUNCS_BY_NAME.get(site.callee, [])
        if not defs:
            continue
        has_budget_overload = any(d.budget_params for d in defs)
        if not has_budget_overload:
            continue
        arg_ids = set(site.args)
        if arg_ids & budget_names or "DeadlineBudget" in arg_ids \
                or "Unlimited" in arg_ids:
            continue
        # Only flag when a budget-free overload actually exists to bind
        # to (otherwise the compiler would have rejected the call) and
        # the call isn't the budget-taking definition resolving itself.
        budget_free = any(not d.budget_params for d in defs)
        if budget_free:
            findings.append(Finding(
                "budget-propagation", fd.path, site.line,
                f"calls {site.callee}() without the DeadlineBudget "
                f"{sorted(budget_names)} in scope, but a budget-taking "
                f"overload exists: the deadline stops propagating here"))


# ---------------------------------------------------------------------------
# Interprocedural pass: transitive lock acquisition and foreign calls
# ---------------------------------------------------------------------------

def _resolve(site, fd):
    """Candidate FuncDefs for a call site. Same-class definitions win for
    unqualified/this calls; a cross-class name only resolves when it is
    unambiguous tree-wide (soundness caveat: an ambiguous name is not
    propagated)."""
    defs = FUNCS_BY_NAME.get(site.callee, [])
    if not defs:
        return []
    if site.qual:
        q = [d for d in defs if d.cls and d.cls.split("::")[-1] == site.qual]
        if q:
            return q
    if site.receiver is None and fd.cls:
        same = [d for d in defs if d.cls == fd.cls]
        if same:
            return same
    classes = {d.cls for d in defs}
    if len(classes) == 1:
        return defs
    return []


def _transitive(fd, getter, memo, stack):
    key = id(fd)
    if key in memo:
        return memo[key]
    if key in stack:
        return set()
    stack.add(key)
    acc = set(getter(fd))
    for site in fd.calls:
        for callee in _resolve(site, fd):
            acc |= _transitive(callee, getter, memo, stack)
    stack.discard(key)
    memo[key] = acc
    return acc


def interprocedural_pass(findings):
    """Propagates lock acquisition and foreign calls through the call
    graph: a call made while holding L to a function that (transitively)
    acquires M adds edge L->M; to one that (transitively) invokes a
    callback/virtual is a lock-foreign-call at the call site."""
    lock_memo, foreign_memo = {}, {}
    for fd in FUNCS:
        for site in fd.calls:
            if not site.held:
                continue
            for callee in _resolve(site, fd):
                tlocks = _transitive(
                    callee, lambda f: {c for c, _ in f.direct_locks},
                    lock_memo, set())
                for acquired in tlocks:
                    for held in site.held:
                        if held == acquired:
                            findings.append(Finding(
                                "lock-order", fd.path, site.line,
                                f"calls {callee.key}() while holding "
                                f"{held}, and it re-acquires {held} "
                                f"(self-deadlock: avdb::Mutex is not "
                                f"recursive)"))
                        else:
                            LOCK_EDGES.setdefault(
                                (held, acquired), []).append(
                                f"{fd.path}:{site.line} via {callee.key}")
                tforeign = _transitive(
                    callee, lambda f: set(f.foreign), foreign_memo, set())
                for kind, detail, _line in sorted(tforeign):
                    findings.append(Finding(
                        "lock-foreign-call", fd.path, site.line,
                        f"calls {callee.key}() while holding "
                        f"{', '.join(site.held)}, which reaches a "
                        f"{kind} invocation of {detail!r}"))


def borrow_member_findings(findings):
    """A borrow stored in a member outlives every scope; flag the
    declaration itself (the borrow classes' own files are exempt — they
    implement the borrow)."""
    for cls in CLASSES.values():
        short = cls.name.split("::")[-1]
        if short in BORROW_TYPES:
            continue
        for name, (line, typ) in sorted(cls.borrow_members.items()):
            findings.append(Finding(
                "lease-escape", cls.path, line,
                f"{cls.name}::{name} stores a borrow ({typ.strip()}): a "
                f"member outlives the lease/view scope; store the owning "
                f"object (Buffer, VideoFrame) instead"))


# ---------------------------------------------------------------------------
# Lock-order graph: cycles and the canonical order file
# ---------------------------------------------------------------------------

def lock_cycle_findings(findings):
    """DFS over LOCK_EDGES for cycles; each cycle is reported once with
    its witness chain."""
    adj = {}
    for (a, b), wit in LOCK_EDGES.items():
        adj.setdefault(a, []).append((b, wit[0]))
    seen_cycles = set()
    color = {}

    def dfs(node, path):
        color[node] = 1
        for nxt, wit in sorted(adj.get(node, [])):
            if color.get(nxt) == 1:
                at = [n for n, _ in path].index(nxt)
                cyc = [n for n, _ in path[at:]] + [nxt]
                key = frozenset(cyc)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    chain = " -> ".join(cyc)
                    wfile, _, wline = wit.partition(":")
                    findings.append(Finding(
                        "lock-order", wfile,
                        int(wline.split(":")[0].split()[0] or 0)
                        if wline else 0,
                        f"lock acquisition cycle: {chain} (witness "
                        f"{wit}); a consistent global order is required"))
            elif color.get(nxt, 0) == 0:
                dfs(nxt, path + [(nxt, wit)])
        color[node] = 2

    for node in sorted(adj):
        if color.get(node, 0) == 0:
            dfs(node, [(node, "")])


def canonical_lock_order():
    """Kahn topological sort of the acquisition graph, lexicographic
    tie-break, cyclic leftovers appended lexicographically."""
    nodes = sorted(LOCK_NODES)
    indeg = {n: 0 for n in nodes}
    out = {n: set() for n in nodes}
    for (a, b) in LOCK_EDGES:
        if b not in out.get(a, set()):
            out.setdefault(a, set()).add(b)
            indeg[b] = indeg.get(b, 0) + 1
            indeg.setdefault(a, 0)
    order = []
    ready = sorted(n for n, d in indeg.items() if d == 0)
    while ready:
        n = ready.pop(0)
        order.append(n)
        for m in sorted(out.get(n, ())):
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
        ready.sort()
    order += sorted(n for n in nodes if n not in set(order))
    return order


def lock_order_document():
    return {
        "__doc": "Canonical lock acquisition order, generated by "
                 "tools/avdb_analyze.py --write-lock-order. A lock may "
                 "only be acquired while holding locks that appear "
                 "EARLIER in `locks`. Edges carry one witness site each. "
                 "Regenerate after adding or nesting locks; the analyze "
                 "test fails if this file is out of sync.",
        "locks": [{"id": n, "witness": LOCK_NODES[n]}
                  for n in canonical_lock_order()],
        "edges": [{"from": a, "to": b, "witness": wit[0]}
                  for (a, b), wit in sorted(LOCK_EDGES.items())],
    }


# ---------------------------------------------------------------------------
# unused-api: uncalled header functions and never-set knobs
# ---------------------------------------------------------------------------

# A class whose name ends in one of these holds settings ("knobs").
KNOB_SUFFIXES = ("Policy", "Options", "Spec", "Config", "Params", "Profile",
                 "Model")
# An id before a '(' at declaration scope that names no function: builtin
# types (`void (*fn)(int)` declares a pointer) and keywords.
NON_DECLARATORS = frozenset({
    "void", "bool", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned", "auto",
}) | CONTROL_KEYWORDS
# Parenthesized specifiers stepped over on the way to a declarator.
SPECIFIERS = frozenset({"alignas", "decltype", "noexcept", "__attribute__"})
ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "|=", "&=", "^=",
                        "++", "--"})
# Assignments the tokenizer splits: %= is '%' '=', <<= is '<' '<='.
SPLIT_ASSIGN_OPS = frozenset({("%", "="), ("<", "<="), (">", ">=")})
# Where a use or a write keeps a declaration alive; tests/ alone only
# puts it in the report.
USE_DIRS = frozenset({"src", "bench", "examples"})

# The run's report, filled by unused_api_findings: the functions only
# tests/ use and the knob fields only tests/ set.
UNUSED_API_REPORT = {"test_only_functions": [], "test_only_knobs": []}


def _typeish(tok):
    """tok can end a type, so a name or '&' right after it declares."""
    return (tok.kind == "id" and tok.text not in CONTROL_KEYWORDS) \
        or tok.text in (">", "*", "&", "&&")


def _skip_statement(toks, i):
    """Index past the ';' ending the statement at toks[i], stepping over
    bracketed groups; the index of a scope-closing '}' if that comes
    first."""
    n = len(toks)
    while i < n and toks[i].text != ";":
        x = toks[i].text
        if x == "}":
            return i
        if x in ("(", "[", "{"):
            i = match_forward(toks, i, x, {"(": ")", "[": "]", "{": "}"}[x])
        i += 1
    return i + 1


class ApiDecl:
    def __init__(self, name, qual, line, exempt):
        self.name = name        # unqualified
        self.qual = qual        # Class::name, or name at namespace scope
        self.line = line
        self.exempt = exempt    # None, "virtual" or "special"


def _function_tail(toks, j):
    """toks[j] follows a declarator's parameter list. Returns (end, stop,
    marks): end is the index past the declaration (its ';' or its body's
    '}'), stop where its signature ends (the ';' or the body's '{'), marks
    the word of an `= 0|default|delete` tail."""
    n = len(toks)
    init_list = False
    marks = set()
    while j < n:
        x = toks[j].text
        if x == ";":
            return j + 1, j, marks
        if x == "}":
            return j, j, marks
        if x in ("(", "["):
            j = match_forward(toks, j, x, ")" if x == "(" else "]")
        elif x == "{":
            close = match_forward(toks, j, "{", "}")
            prev = toks[j - 1]
            if not (init_list and (prev.kind == "id" or prev.text == ">")):
                return close + 1, j, marks
            j = close                 # `member{...}` in a ctor init-list
        elif x == ":":
            init_list = True
        elif x == "=" and j + 1 < n:
            marks.add(toks[j + 1].text)
        j += 1
    return n, n, marks


def _declaration(toks, i, scope, out):
    """Parses the declaration at toks[i], at namespace scope (scope None)
    or in class `scope`. A function declarator's name index goes to
    out['decl_at'] and an ApiDecl to out['funcs']; a data member with a
    default initializer in a knob class goes to out['fields']. Returns
    the index past the declaration."""
    n = len(toks)
    if toks[i].text in ("using", "typedef", "static_assert") or (
            toks[i].text == "friend" and i + 1 < n
            and toks[i + 1].text in ("class", "struct")):
        return _skip_statement(toks, i)
    angle = 0
    j = i
    while j < n:
        x = toks[j].text
        if x in (";", "{") or (x == "=" and angle == 0):
            if x == "{" and toks[j - 1].text == ")":
                # A function-like macro's body: TEST_F(Suite, Name) { ... }
                return match_forward(toks, j, "{", "}") + 1
            _knob_field(toks, i, j, scope, out)
            return _skip_statement(toks, j)
        if x == "}":
            return j
        if x == "[":
            j = match_forward(toks, j, "[", "]")
        elif x == "<":
            angle += 1
        elif x == ">" and angle:
            angle -= 1
        elif x == "operator":
            k = j + 1
            if k + 1 < n and toks[k].text == "(" and toks[k + 1].text == ")":
                k += 2
            while k < n and toks[k].text != "(":
                k += 1
            out["decl_at"].add(j)
            return _function_tail(
                toks, match_forward(toks, k, "(", ")") + 1)[0]
        elif x == "(" and angle == 0:
            prev = toks[j - 1]
            if prev.kind == "id" and (is_macro(prev.text)
                                      or prev.text in SPECIFIERS):
                j = match_forward(toks, j, "(", ")") + 1
                continue
            if prev.kind != "id" or prev.text in NON_DECLARATORS:
                return _skip_statement(toks, j)
            out["decl_at"].add(j - 1)
            end, stop, marks = _function_tail(
                toks, match_forward(toks, j, "(", ")") + 1)
            qual = []
            k = j - 2
            while k >= 1 and toks[k].text == "::" \
                    and toks[k - 1].kind == "id":
                qual.insert(0, toks[k - 1].text)
                k -= 2
            words = {t.text for t in toks[i:stop]}
            exempt = None
            if words & {"virtual", "override", "final"} or "0" in marks:
                exempt = "virtual"
            elif marks & {"default", "delete"} \
                    or toks[j - 2].text == "~" \
                    or (qual and qual[-1] == prev.text):
                exempt = "special"
            owner = "::".join(qual) or scope
            out["funcs"].append(ApiDecl(
                prev.text, f"{owner}::{prev.text}" if owner else prev.text,
                prev.line, exempt))
            return end
        j += 1
    return n


def _knob_field(toks, start, end, scope, out):
    """toks[start:end] is a data declaration up to its initializer ('=' or
    '{') or its ';'. Records a member of a knob class that has a default
    initializer."""
    if scope is None or not scope.split("::")[-1].endswith(KNOB_SUFFIXES) \
            or toks[end].text not in ("=", "{") \
            or toks[end - 1].kind != "id" \
            or {t.text for t in toks[start:end]} & {"static", "constexpr"}:
        return
    out["fields"].append((end - 1, scope))


def _declarations(toks):
    """Walks one file's namespace and class scopes. Function bodies and
    initializers are stepped over whole, so a local such as
    `std::vector<T> slots(n)` in an inline body declares nothing. Returns
    {'decl_at': token indexes of function declarator names, 'funcs':
    [ApiDecl], 'fields': [(name index, class)], 'classes': class names}."""
    out = {"decl_at": set(), "funcs": [], "fields": [], "classes": set()}
    scopes = []                 # qualified class name, or None (namespace)
    n = len(toks)
    i = 0
    while i < n:
        x = toks[i].text
        cur = scopes[-1] if scopes else None
        if x == "}":
            if scopes:
                scopes.pop()
            i += 1
        elif x == ";":
            i += 1
        elif x in ("public", "private", "protected") and i + 1 < n \
                and toks[i + 1].text == ":":
            i += 2
        elif x == "template" and i + 1 < n and toks[i + 1].text == "<":
            i = match_forward(toks, i + 1, "<", ">") + 1
        elif x == "namespace" or (x == "extern" and i + 2 < n
                                  and toks[i + 1].kind == "str"
                                  and toks[i + 2].text == "{"):
            j = i + 1
            while j < n and toks[j].text not in ("{", ";", "="):
                j += 1
            if j < n and toks[j].text == "{":
                scopes.append(None)
                i = j + 1
            else:
                i = _skip_statement(toks, j)
        elif x == "enum":
            i = _skip_statement(toks, i)
        elif x in ("class", "struct", "union"):
            j = i + 1
            name = ""
            while j < n and toks[j].text not in ("{", ";", "(", "=", ":"):
                if toks[j].text == "alignas":
                    j = match_forward(toks, j + 1, "(", ")")
                elif toks[j].text == "[":
                    j = match_forward(toks, j, "[", "]")
                elif toks[j].text == "<":
                    j = match_forward(toks, j, "<", ">")
                elif toks[j].kind == "id" and not name \
                        and not is_macro(toks[j].text):
                    name = toks[j].text
                j += 1
            while j < n and toks[j].text not in ("{", ";", "(", "="):
                j += 1                # the base-clause
            if j < n and toks[j].text == "{":
                out["classes"].add(name)
                scopes.append(f"{cur}::{name}" if cur else name)
                i = j + 1
            else:
                i = _declaration(toks, i, cur, out)
        else:
            i = _declaration(toks, i, cur, out)
    return out


def _template_call(toks, i):
    """toks[i + 1] is '<': whether `name<…>(` follows (not a comparison)."""
    depth = 0
    for j in range(i + 1, len(toks) - 1):
        x = toks[j].text
        if x in (";", "{", "}"):
            return False
        if x == "<":
            depth += 1
        elif x == ">":
            depth -= 1
            if depth == 0:
                return toks[j + 1].text == "("
    return False


def _uses(toks, decl_at):
    """Yields every name the file uses as a function: a call (`f(`,
    `f<…>(`, through `.`, `->` or `::`), an address (`&f`, `&X::f`) or a
    bare argument (`g(f)`, unless the file declares a variable named f).
    The file's own declarator names are no uses."""
    n = len(toks)
    variables = {toks[i].text for i in range(1, n - 1)
                 if toks[i].kind == "id" and i not in decl_at
                 and _typeish(toks[i - 1])
                 and toks[i + 1].text in ("=", ";", ",", ")", "{", "[", ":")}
    for i in range(n - 1):
        t = toks[i]
        if t.kind != "id" or i in decl_at:
            continue
        nxt = toks[i + 1].text
        if nxt == "(" or nxt == "<" and _template_call(toks, i):
            yield t.text
            continue
        head = i
        while head >= 2 and toks[head - 1].text == "::" \
                and toks[head - 2].kind == "id":
            head -= 2
        if head == 0 or toks[i - 1].text in (".", "->"):
            continue
        before = toks[head - 1].text
        if before == "&" and not (head >= 2 and _typeish(toks[head - 2])):
            yield t.text
        elif before in ("(", ",") and nxt in (")", ",") \
                and t.text not in variables:
            yield t.text


def _sets(toks):
    """Yields every member name the file writes: the target of an
    assignment, compound assignment, ++/-- or designated initializer, and
    each member on the way to it (`p.retry.max_attempts = 2` writes retry
    and max_attempts). A declaration's initializer writes nothing."""
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        j = i + 1
        if j < n and toks[j].text == "[":
            j = match_forward(toks, j, "[", "]") + 1
        if j >= n:
            continue
        op = (toks[j].text, toks[j + 1].text if j + 1 < n else "")
        chain = [t.text]
        head = i
        while head >= 2 and toks[head - 1].text in (".", "->") \
                and toks[head - 2].kind == "id":
            head -= 2
            chain.append(toks[head].text)
        member = toks[i - 1].text in (".", "->") if i else False
        before = toks[head - 1] if head else None
        if op[0] in ASSIGN_OPS or op in SPLIT_ASSIGN_OPS:
            if member or before is None or not _typeish(before):
                yield from chain
        elif before is not None and before.text in ("++", "--"):
            yield from chain


def unused_api_findings(files_toks, defines, findings):
    """The unused-api rule over {relpath: tokens} and {relpath: [#define
    bodies]}. A function declared in a src/ header that nothing in src/,
    bench/, examples/ or tests/ uses, and a knob field that no code sets,
    are findings; those only tests/ use or set go to UNUSED_API_REPORT.
    Matching is by name, so a use of any same-named function counts."""
    walked = {rel: _declarations(toks) for rel, toks in files_toks.items()}
    classes = set()
    virtual = set()
    for w in walked.values():
        classes |= w["classes"]
        virtual |= {d.name for d in w["funcs"] if d.exempt == "virtual"}
    used, written = {}, {}
    for rel, toks in files_toks.items():
        top = rel.split("/")[0]
        names = set(_uses(toks, walked[rel]["decl_at"]))
        for body in defines.get(rel, ()):
            names.update(x.text for x in tokenize(body) if x.kind == "id")
        for name in names:
            used.setdefault(name, set()).add(top)
        for name in set(_sets(toks)):
            written.setdefault(name, set()).add(top)
    test_fns, test_knobs = [], []
    for rel in sorted(walked):
        if not (rel.startswith("src/") and rel.endswith((".h", ".hpp"))):
            continue
        seen = set()
        for d in walked[rel]["funcs"]:
            if d.exempt or d.name in classes or d.name in virtual \
                    or d.qual in seen:
                continue
            seen.add(d.qual)
            where = used.get(d.name, set())
            if not where:
                findings.append(Finding(
                    "unused-api", rel, d.line,
                    f"{d.qual}() has no use in src/, bench/, examples/ or "
                    f"tests/"))
            elif not where & USE_DIRS:
                test_fns.append(f"{rel}:{d.line}: {d.qual}()")
        toks = files_toks[rel]
        for at, cls in walked[rel]["fields"]:
            name, line = toks[at].text, toks[at].line
            where = written.get(name, set())
            if not where:
                findings.append(Finding(
                    "unused-api", rel, line,
                    f"{cls}::{name} is never set: a knob with one setting "
                    f"is a constant"))
            elif not where & USE_DIRS:
                test_knobs.append(f"{rel}:{line}: {cls}::{name}")
    UNUSED_API_REPORT["test_only_functions"] = test_fns
    UNUSED_API_REPORT["test_only_knobs"] = test_knobs


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def analyze_tree(files):
    """Runs every rule over {relpath: source text}: the line rules and
    unused-api on every file, the other semantic rules on the src/ files.
    Returns the finding list (unfiltered by the allowlist)."""
    reset_index()
    findings = []
    tokenized = {}
    code, defines = {}, {}
    for rel in sorted(files):
        toks = tokenize(files[rel])
        defines[rel] = [t.text for t in toks if t.kind == "define"]
        toks = [t for t in toks if t.kind != "define"]
        findings.extend(line_findings(rel, toks, files[rel].split("\n")))
        code[rel] = [t for t in toks if t.kind != "include"]
        if rel.startswith("src/"):
            tokenized[rel] = code[rel]
            index_file(rel, tokenized[rel])
    for cls in CLASSES.values():
        for m in cls.mutex_members:
            MUTEX_OWNERS.setdefault(m, []).append(cls.name)
    for fd in FUNCS:
        analyze_function(fd, tokenized[fd.path], findings)
    interprocedural_pass(findings)
    borrow_member_findings(findings)
    lock_cycle_findings(findings)
    unused_api_findings(code, defines, findings)
    return findings


def tree_files(root):
    """{relpath: text} for every source file under SCAN_DIRS, skipping
    build trees and tests/compile_fail (deliberately broken programs)."""
    files = {}
    for top in SCAN_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = [d for d in dirnames
                           if d not in ("build", "compile_fail")]
            for name in filenames:
                if name.endswith(SOURCE_EXTS):
                    full = os.path.join(dirpath, name)
                    rel = os.path.relpath(full, root).replace(os.sep, "/")
                    with open(full, encoding="utf-8", errors="replace") as f:
                        files[rel] = f.read()
    return files


def load_allowlist(root):
    path = os.path.join(root, "tools", "avdb_lint_allowlist.json")
    with open(path, encoding="utf-8") as f:
        entries = json.load(f)["entries"]
    errors = []
    for i, e in enumerate(entries):
        for key in ("rule", "file", "pattern", "justification"):
            if not e.get(key):
                errors.append(
                    f"allowlist entry #{i} missing non-empty {key!r}: {e}")
        if e.get("rule") and e["rule"] not in RULES:
            errors.append(
                f"allowlist entry #{i} names unknown rule {e['rule']!r}")
        e["_used"] = False
        e["_re"] = re.compile(e.get("pattern") or r"(?!)")
    return entries, errors


def apply_allowlist(findings, entries):
    """Drops every finding an entry matches. Returns the kept findings and
    the stale entries (those that matched nothing)."""
    kept = []
    for v in findings:
        entry = next((e for e in entries
                      if e.get("rule") == v.rule
                      and fnmatch.fnmatch(v.path, e.get("file") or "")
                      and e["_re"].search(v.text)), None)
        if entry is None:
            kept.append(v)
        else:
            entry["_used"] = True
    return kept, [e for e in entries if not e["_used"]]


def run_analyze(root, json_out=None, write_lock_order=False):
    entries, errors = load_allowlist(root)
    findings = analyze_tree(tree_files(root))
    kept, stale = apply_allowlist(findings, entries)
    for e in stale:
        errors.append(
            f"stale allowlist entry (matched nothing — remove it): "
            f"rule={e.get('rule')} file={e.get('file')} "
            f"pattern={e.get('pattern')}")

    doc = lock_order_document()
    lock_path = os.path.join(root, "tools", "lock_order.json")
    if write_lock_order:
        with open(lock_path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=False)
            f.write("\n")
        print(f"avdb-analyze: wrote {os.path.relpath(lock_path, root)} "
              f"({len(doc['locks'])} locks, {len(doc['edges'])} edges)")
    else:
        try:
            with open(lock_path, encoding="utf-8") as f:
                on_disk = json.load(f)
        except (OSError, ValueError):
            on_disk = None
        if on_disk != doc:
            errors.append(
                "tools/lock_order.json is out of sync with the tree; "
                "run tools/avdb_analyze.py --write-lock-order and commit "
                "the result")

    if json_out:
        payload = {
            "tool": "avdb-analyze",
            "root": os.path.abspath(root),
            "findings": [v.as_json() for v in kept],
            "suppressed": len(findings) - len(kept),
            "summary": {r: sum(1 for v in kept if v.rule == r)
                        for r in sorted(RULES)},
            "lock_order": doc,
            "unused_api_report": UNUSED_API_REPORT,
            "errors": errors,
        }
        with open(json_out, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")

    for key, what in (("test_only_functions", "function(s) only tests/ use"),
                      ("test_only_knobs", "knob field(s) only tests/ set")):
        entries = UNUSED_API_REPORT[key]
        print(f"avdb-analyze: unused-api report: {len(entries)} {what}")
        for entry in entries:
            print(f"  {entry}")
    for v in kept:
        print(v)
    for err in errors:
        print(f"avdb-analyze: error: {err}")
    if kept or errors:
        print(f"avdb-analyze: {len(kept)} finding(s), "
              f"{len(errors)} error(s)")
        return 1
    print(f"avdb-analyze: clean ({len(findings) - len(kept)} allowlisted, "
          f"{len(LOCK_NODES)} locks, {len(LOCK_EDGES)} edges)")
    return 0


# ---------------------------------------------------------------------------
# Self-test over labelled fixtures
# ---------------------------------------------------------------------------

FIXTURE_AS_RE = re.compile(r"//\s*analyze-fixture-as:\s*(\S+)")
FIXTURE_EXPECT_RE = re.compile(r"//\s*analyze-expect:\s*([\w,-]+)")


def run_self_test(root):
    """Each fixture under tools/lint_fixtures/fail must trip exactly the
    rules its `// analyze-expect:` header names, analyzed as-if at its
    `// analyze-fixture-as:` path; each fixture under pass/ must be clean.
    Every fixture is its own one-file tree, checked by all the rules."""
    fixture_root = os.path.join(root, "tools", "lint_fixtures")
    failures = []
    checked = 0
    for kind in ("fail", "pass"):
        kind_dir = os.path.join(fixture_root, kind)
        for name in sorted(os.listdir(kind_dir)):
            if not name.endswith(SOURCE_EXTS):
                continue
            checked += 1
            with open(os.path.join(kind_dir, name), encoding="utf-8") as f:
                text = f.read()
            header = "\n".join(text.splitlines()[:5])
            as_m = FIXTURE_AS_RE.search(header)
            rel = as_m.group(1) if as_m else f"src/base/{name}"
            got = sorted({v.rule for v in analyze_tree({rel: text})})
            if kind == "pass":
                want = []
            else:
                exp_m = FIXTURE_EXPECT_RE.search(header)
                if not exp_m:
                    failures.append(
                        f"{kind}/{name}: missing // analyze-expect:")
                    continue
                want = sorted(exp_m.group(1).split(","))
            if got != want:
                failures.append(
                    f"{kind}/{name} (as {rel}): expected rules {want}, "
                    f"got {got}")
    for f in failures:
        print(f"avdb-analyze self-test: FAIL {f}")
    if failures:
        return 1
    print(f"avdb-analyze self-test: {checked} fixtures ok")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="static analysis of the tree (see module docstring)")
    parser.add_argument("--root", default=".",
                        help="repository root (contains src/, tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the rule engine against the fixtures")
    parser.add_argument("--write-lock-order", action="store_true",
                        help="regenerate tools/lock_order.json")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write findings + lock order as JSON")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    if args.self_test:
        return run_self_test(root)
    return run_analyze(root, json_out=args.json,
                       write_lock_order=args.write_lock_order)


if __name__ == "__main__":
    sys.exit(main())
