"""DLGP-style text format for rules, facts and queries, plus JSON output.

Syntax summary (head-first rules, unlike the usual logical body -> head
notation):

    % comment
    [label] head_atom, ... :- body_atom, ... .     rule
    atom, ... .                                    fact
    ?(X, Y) :- atom, ... .                         query (? :- ... for BCQ)

Predicates and constants match [a-z][A-Za-z0-9_]*, variables
[A-Z][A-Za-z0-9_]*.  Head variables absent from the body are existential.
Names starting with __ are reserved and rejected.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from .kb import (
    Atom,
    ConjunctiveQuery,
    ExistentialRule,
    RESERVED_PREFIX,
    Term,
    canonicalize,
    const,
    strip_answer_atom,
    var,
    vars_of,
)


@dataclass(frozen=True)
class SourceSpan:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class DlgpError(ValueError):
    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        self.span = span
        where = f" at {span}" if span else ""
        super().__init__(f"{message}{where}")


@dataclass
class Document:
    rules: list[ExistentialRule] = field(default_factory=list)
    facts: list[frozenset[Atom]] = field(default_factory=list)
    queries: list[ConjunctiveQuery] = field(default_factory=list)


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<arrow>:-)
      | (?P<punct>[()\[\],.?])
      | (?P<lident>[a-z][A-Za-z0-9_]*)
      | (?P<uident>[A-Z][A-Za-z0-9_]*)
      | (?P<reserved>_[A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DlgpError(
                f"unexpected character {text[pos]!r}", SourceSpan(line, col)
            )
        kind = m.lastgroup
        tok = m.group()
        nl = tok.count("\n")
        end_line = line + nl
        end_col = len(tok) - tok.rfind("\n") if nl else col + len(tok)
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, tok, SourceSpan(line, col)))
        line, col = end_line, end_col
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.arities: dict[str, int] = {}

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1].span if self.tokens else SourceSpan(1, 1)
            raise DlgpError("unexpected end of input", last)
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise DlgpError(f"expected {text!r}, found {tok.text!r}", tok.span)
        return tok

    def term(self) -> Term:
        tok = self.next()
        if tok.kind == "lident":
            return const(tok.text)
        if tok.kind == "uident":
            return var(tok.text)
        if tok.kind == "reserved":
            raise DlgpError(f"reserved name {tok.text!r} not allowed", tok.span)
        raise DlgpError(f"expected a term, found {tok.text!r}", tok.span)

    def atom(self) -> Atom:
        tok = self.next()
        if tok.kind == "reserved" or tok.text.startswith(RESERVED_PREFIX):
            raise DlgpError(f"reserved predicate {tok.text!r} not allowed", tok.span)
        if tok.kind != "lident":
            raise DlgpError(f"expected a predicate, found {tok.text!r}", tok.span)
        self.expect("(")
        args = self.comma_list(self.term)
        self.expect(")")
        a = Atom(tok.text, tuple(args))
        prev = self.arities.setdefault(a.predicate, a.arity)
        if prev != a.arity:
            raise DlgpError(f"predicate {a.predicate!r} used with arities {prev} and {a.arity}",
                            tok.span)
        return a

    def comma_list(self, item: Callable) -> list:
        """One item(), then one more after each ','."""
        items = [item()]
        while self.peek() and self.peek().text == ",":
            self.next()
            items.append(item())
        return items

    def statement(self, doc: Document, auto_label: int) -> int:
        start = self.peek().span
        tok = self.peek()
        if tok.text == "?":
            self.next()
            answer: list[Term] = []
            if self.peek() and self.peek().text == "(":
                self.next()
                if self.peek() and self.peek().text != ")":
                    answer = self.comma_list(self.term)
                self.expect(")")
            self.expect(":-")
            atoms = self.comma_list(self.atom)
            self.expect(".")
            qvars = vars_of(atoms)
            for t in answer:
                if t.is_variable and t not in qvars:
                    raise DlgpError(f"answer variable {t} not in query body", start)
            doc.queries.append(ConjunctiveQuery(frozenset(atoms), tuple(answer)))
            return auto_label
        label = None
        if tok.text == "[":
            self.next()
            name = self.next()
            if name.kind not in ("lident", "uident"):
                raise DlgpError(f"expected a rule label, found {name.text!r}", name.span)
            label = name.text
            self.expect("]")
        first = self.comma_list(self.atom)
        nxt = self.next()
        if nxt.text == ".":
            if label is not None:
                raise DlgpError("facts cannot carry a label", start)
            doc.facts.append(frozenset(first))
            return auto_label
        if nxt.text != ":-":
            raise DlgpError(f"expected '.' or ':-', found {nxt.text!r}", nxt.span)
        body = self.comma_list(self.atom)
        self.expect(".")
        if label is None:
            label = f"r{auto_label}"
            auto_label += 1
        doc.rules.append(ExistentialRule(label, frozenset(body), frozenset(first)))
        return auto_label


def parse_document(text: str) -> Document:
    parser = _Parser(_tokenize(text))
    doc = Document()
    auto_label = 1
    while parser.peek() is not None:
        auto_label = parser.statement(doc, auto_label)
    return doc


def _term_text(t: Term) -> str:
    s = str(t)
    if t.is_constant or s[0].isupper():
        return s
    return s[0].upper() + s[1:]


def _atom_text(a: Atom, term_text=_term_text) -> str:
    return f"{a.predicate}({','.join(term_text(t) for t in a.args)})"


def query_to_dlgp(q: ConjunctiveQuery) -> str:
    """One query statement: the canonical form, with sorted atoms.

    The canonical variable v<i> is printed as X<i>, zero-padded to the width
    of the largest index so that lexicographic order matches index order;
    serialization followed by parsing is then a fixpoint.
    """
    q = canonicalize(q)
    width = len(str(max(len(q.variables()) - 1, 1)))

    def term_text(t: Term) -> str:
        return f"X{t.fresh_index:0{width}d}" if t.is_variable else _term_text(t)

    head = ""
    if q.answer_vars:
        head = "(" + ",".join(term_text(t) for t in q.answer_vars) + ")"
    body = ", ".join(_atom_text(a, term_text) for a in sorted(q.atoms))
    return f"?{head} :- {body}."


def _rule_text(r: ExistentialRule) -> str:
    body = ", ".join(_atom_text(a) for a in sorted(r.body))
    head = ", ".join(_atom_text(a) for a in sorted(r.head))
    return f"[{r.label}] {head} :- {body}."


def document_to_dlgp(doc: Document) -> str:
    lines = [_rule_text(r) for r in doc.rules]
    for f in doc.facts:
        lines.append(", ".join(_atom_text(a) for a in sorted(f)) + ".")
    for q in doc.queries:
        lines.append(query_to_dlgp(q))
    return "\n".join(lines) + "\n"


def printed_cover(result) -> list[str]:
    """A RewritingResult's cover as printed: sorted query statements, with
    the answer atom turned back into the answer terms."""
    return sorted(query_to_dlgp(strip_answer_atom(q)) for q in result.cover)


def serialize(obj, format: str = "dlgp") -> str:
    """Serialize a Document or a RewritingResult as dlgp or json text.

    A RewritingResult is printed as ``ucqrewrite rewrite`` prints it: the
    answer atom becomes the answer terms, and stats.output counts the
    printed queries.
    """
    if format not in ("dlgp", "json"):
        raise ValueError(f"unknown format {format!r}")
    if isinstance(obj, Document):
        if format == "dlgp":
            return document_to_dlgp(obj)
        payload = {
            "rules": [_rule_text(r) for r in obj.rules],
            "facts": [sorted(str(a) for a in f) for f in obj.facts],
            "queries": [query_to_dlgp(q) for q in obj.queries],
        }
        return json.dumps(payload, indent=2) + "\n"
    queries = printed_cover(obj)
    if format == "dlgp":
        return "".join(f"{line}\n" for line in queries)
    stats = {"generated": obj.generated_count, "output": len(queries),
             "depth": obj.depth_reached, "terminated": obj.terminated}
    return json.dumps({"cover": queries, "stats": stats}, indent=2) + "\n"
