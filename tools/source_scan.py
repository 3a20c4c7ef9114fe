"""The one C++ source scanner behind the repo's static gates.

tools/run_static.py (lint), tools/shard_affinity.py and
tools/hotpath_effects.py are only their rules; everything they need to
know about C++ text comes from here, and a run loads it once:

  * Tree(source_dir).files lists every .cpp/.hpp under src/ and lexes
    each file once, on first use;
  * Source.code is a file with every comment and the contents of every
    string, char and raw-string literal blanked to spaces.  It has the
    same length and line breaks as the file, so an offset or a line found
    in it is an offset or a line of the file.  What was blanked stays at
    hand for the rules that read it: Source.strings holds the string
    literals (metric and span names, escape justifications) and
    Source.comments the comments (`hn-unordered-iter-ok`);
  * match_bracket() pairs brackets in lexed code;
  * Tree.design_section() pulls a numbered section out of DESIGN.md;
  * collect_markers() and marker_drift() find marker macros and check
    them against a gate's contract table in both directions.
"""

import functools
import pathlib
import re
from bisect import bisect_right

# One token per match, tried in this order at each position.  Words and
# numbers are consumed whole, so a literal prefix (u8, u, U, L, R) only
# counts at the start of a token and a digit separator (50'000) never
# opens a char literal.  Literals end at the line break unless it is
# escaped, so a stray quote cannot swallow the rest of a file.
TOKEN_RE = re.compile(
    r"""(?P<comment>//(?:[^\n\\]|\\.)*|/\*.*?(?:\*/|\Z))
      | (?P<raw>(?:u8|[uUL])?R"(?P<delim>[^()\\\s"]{0,16})\(.*?\)(?P=delim)")
      | (?P<str>(?:u8|[uUL])?"(?:[^"\\\n]|\\.)*")
      | (?P<chr>(?:u8|[uUL])?'(?:[^'\\\n]|\\.)*')
      | (?P<word>[A-Za-z_]\w*|\.?\d(?:[eEpP][+-]|[\w.'])*)""",
    re.S | re.X)
NOT_NEWLINE_RE = re.compile(r"[^\n]")
DEFINE_RE = re.compile(r"[ \t]*#\s*define\b")
OPENERS = {"(": ")", "[": "]", "{": "}", "<": ">"}
MATE = {**OPENERS, **{close: open_ for open_, close in OPENERS.items()}}
BRACKET_RE = {open_: re.compile("[" + re.escape(open_ + close) + "]")
              for open_, close in OPENERS.items()}


def blank(text):
    """`text` with every character but the line breaks turned to spaces."""
    return NOT_NEWLINE_RE.sub(" ", text)


def lex(text):
    """One pass over C++ `text`.  Returns (code, strings, comments): `code`
    blanks comments and literal contents (the quotes stay), `strings` is
    [(offset of the literal, contents)] and `comments` maps a line to the
    text of the comments that start on it."""
    out, strings, comments = [], [], {}
    pos = newlines = line_pos = 0
    for match in TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "word":
            continue
        start, end = match.span()
        token = match.group()
        out.append(text[pos:start])
        if kind == "comment":
            newlines += text.count("\n", line_pos, start)
            line_pos = start
            line = newlines + 1
            comments[line] = f"{comments.get(line, '')} {token}".lstrip()
            out.append(blank(token))
        else:
            quote = token.index("'" if kind == "chr" else '"')
            out.append(token[:quote + 1] + blank(token[quote + 1:-1]) + token[-1])
            if kind == "str":
                strings.append((start, token[quote + 1:-1]))
            elif kind == "raw":
                cut = len(match.group("delim")) + 1
                strings.append((start, token[quote + 1 + cut:-1 - cut]))
        pos = end
    out.append(text[pos:])
    return "".join(out), strings, comments


class Source:
    """One lexed file of the tree (see the module docstring)."""

    def __init__(self, text):
        self.text = text
        self.code, self.strings, self.comments = lex(text)

    @functools.cached_property
    def lines(self):
        """The lines of `code`, one per line of the file."""
        return self.code.split("\n")

    @functools.cached_property
    def _line_starts(self):
        return [match.end() for match in re.finditer("\n", self.text)]

    def line_of(self, offset):
        """The 1-based line holding a character offset."""
        return bisect_right(self._line_starts, offset) + 1


def list_sources(source_dir):
    """Every .cpp/.hpp file under <source_dir>/src, sorted."""
    root = pathlib.Path(source_dir) / "src"
    return sorted(p for p in root.rglob("*") if p.suffix in (".cpp", ".hpp"))


class Tree:
    """A source tree: its src/ files, lexed once, and its DESIGN.md."""

    def __init__(self, source_dir):
        self.root = pathlib.Path(source_dir)

    @functools.cached_property
    def files(self):
        """{repo-relative posix path: Source}, in list_sources() order."""
        return {path.relative_to(self.root).as_posix(): Source(path.read_text())
                for path in list_sources(self.root)}

    def design_section(self, number):
        """The lines of DESIGN.md's `## <number>.` section, up to the next
        `## ` heading; empty when the file or the section is missing."""
        design = self.root / "DESIGN.md"
        if not design.exists():
            return []
        lines, inside = [], False
        for line in design.read_text().splitlines():
            if line.startswith("## "):
                inside = line.startswith(f"## {number}.")
            elif inside:
                lines.append(line)
        return lines


def match_bracket(code, pos):
    """Index of the bracket matching code[pos], searching forward from an
    opening bracket and backward from a closing one; -1 if unbalanced.
    Meant for lexed code, where the brackets inside comments and literals
    are already blanked."""
    this, mate = code[pos], MATE[code[pos]]
    depth = 0
    if this in OPENERS:
        for match in BRACKET_RE[this].finditer(code, pos):
            depth += 1 if match.group() == this else -1
            if depth == 0:
                return match.start()
        return -1
    for i in range(pos, -1, -1):
        if code[i] == this:
            depth += 1
        elif code[i] == mate:
            depth -= 1
            if depth == 0:
                return i
    return -1


def collect_markers(texts, macros, name_of):
    """[(rel, line, name, macro)] for every use of one of `macros` in
    `texts` ({rel: lexed text}), #define lines excepted.  `name_of(text,
    match)` names the function a marker annotates."""
    pattern = re.compile(r"\b(" + "|".join(macros) + r")\b")
    markers = []
    for rel, text in texts.items():
        for match in pattern.finditer(text):
            if DEFINE_RE.match(text, text.rfind("\n", 0, match.start()) + 1):
                continue
            markers.append((rel, text.count("\n", 0, match.start()) + 1,
                            name_of(text, match), match.group(1)))
    return markers


def marker_drift(markers, table, files, table_name, what, section):
    """Two-way check of source markers against a gate's contract table.
    `markers` comes from collect_markers(); `table` maps (rel, name) to the
    macro that function must carry.  A table entry is only required when
    its file is in `files`, so a fixture tree can exercise a single rule."""
    findings = []
    for rel, line, name, macro in markers:
        expected = table.get((rel, name))
        if expected is None:
            findings.append(
                f"{rel}:{line}: {macro} on `{name}` is not in {table_name} "
                f"— new {what}s must be catalogued there (and in DESIGN.md "
                f"§{section})")
        elif expected != macro:
            findings.append(f"{rel}:{line}: `{name}` carries {macro} but "
                            f"{table_name} declares it {expected}")
    found = {(rel, name) for rel, _line, name, _macro in markers}
    for (rel, name), macro in sorted(table.items()):
        if rel in files and (rel, name) not in found:
            findings.append(f"{rel}: `{name}` is catalogued as a {what} but "
                            f"carries no {macro} marker")
    return findings
