#!/usr/bin/env python3
"""Fails when a setting has no caller.

Every field of a `struct *Config`, `*Options`, `*Policy`, `*Params` or
`*Spec` declared in src/**/*.hpp must be assigned somewhere in src/,
bench/, tests/, examples/ or perfbench/: a value nothing ever sets is a
constant, and belongs in the file that reads it. An assignment is
`.f =`, `->f =`, `.f +=`, a nested `.f.x =`, or a designated initializer
(`{.f = ...}`).

Fields are matched by name alone, so a field whose name some other struct
also assigns passes unseen (`metrics`, `spans` and `iterations`, which
ClusterConfig and TransferConfig assign, hide any idle namesake).

Usage: config-fields-set.py [repo root, default: the current directory]
Prints each unset field as `file:line: Struct::field` and exits 1 when
there is one, 0 otherwise.
"""
import pathlib
import re
import sys

STRUCT_RE = re.compile(r"\bstruct\s+(\w+(?:Config|Options|Policy|Params|Spec))"
                       r"\s*(?::[^{;]*)?\{")
SCAN_DIRS = ("src", "bench", "tests", "examples", "perfbench")
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}


def strip_comments(text):
    """Blanks // and /* */ comments and string literals, keeping newlines."""
    def blank(m):
        return re.sub(r"[^\n]", " ", m.group(0))
    return re.sub(r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"', blank, text,
                  flags=re.S)


def matching_brace(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise ValueError("unbalanced braces")


def is_function_head(head):
    head = re.sub(r"\b(const|noexcept|override|final)\b", "", head).rstrip()
    return head.endswith(")")


def fields_of(body):
    """Yields (name, offset in body) for each data member of a struct."""
    i, stmt_start = 0, 0
    while i < len(body):
        c = body[i]
        if c == "{":
            head = body[stmt_start:i]
            end = matching_brace(body, i)
            nested_type = re.match(r"\s*(struct|class|enum|union)\b", head)
            if nested_type or is_function_head(head):
                # A member function body or a nested type: skip it whole.
                i = body.index(";", end) + 1 if nested_type else end + 1
                stmt_start = i
            else:
                i = end + 1  # a brace initializer: part of the statement
            continue
        if c == ";":
            stmt = body[stmt_start:i]
            name = declared_field(stmt)
            if name is not None:
                at = re.search(r"\b%s\b" % re.escape(name), stmt).start()
                yield name, stmt_start + at
            stmt_start = i + 1
        i += 1


def declared_field(stmt):
    s = stmt.strip()
    if not s or re.match(r"(static|using|friend|typedef|template|"
                         r"public|private|protected)\b", s):
        return None
    s = re.sub(r"^(public|private|protected)\s*:", "", s).strip()
    # The declarator ends at the first top-level '=' or '{'.
    depth, head = 0, s
    for j, ch in enumerate(s):
        if ch in "(<[":
            depth += 1
        elif ch in ")>]":
            depth -= 1
        elif depth == 0 and (ch == "{" or (ch == "=" and s[j + 1:j + 2] != "=")):
            head = s[:j]
            break
    if is_function_head(head):
        return None
    m = re.search(r"(\w+)\s*(?:\[[^\]]*\])?\s*$", head)
    return m.group(1) if m else None


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    sources = {}
    for d in SCAN_DIRS:
        for p in sorted((root / d).rglob("*")):
            if p.suffix in SOURCE_SUFFIXES and p.is_file():
                sources[p] = strip_comments(p.read_text(errors="replace"))
    corpus = "\n".join(sources.values())

    unset = []
    for path in sorted((root / "src").rglob("*.hpp")):
        text = sources[path]
        for m in STRUCT_RE.finditer(text):
            open_pos = m.end() - 1
            close = matching_brace(text, open_pos)
            body = text[open_pos + 1:close]
            for name, at in fields_of(body):
                assigned = re.compile(
                    r"(?:\.|->)%s(?:\.\w+)*\s*(?:\+=|=(?!=))" % re.escape(name))
                if not assigned.search(corpus):
                    line = text.count("\n", 0, open_pos + 1 + at) + 1
                    unset.append("%s:%d: %s::%s" % (
                        path.relative_to(root), line, m.group(1), name))
    for u in unset:
        print(u)
    return 1 if unset else 0


if __name__ == "__main__":
    sys.exit(main())
