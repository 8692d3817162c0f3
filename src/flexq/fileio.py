"""Line-oriented text formats for instances, matchings, and reduction inputs.

Instance files::

    # comments run to end of line, blank lines are skipped
    smfq 1                      <- or "hr 1"; the header picks the type
    [agents]
    a1: p1 p2
    [programs]
    p1 cost=1: a2 a4 a1 a3      <- "hr" files additionally require quota=<int>
    p2 cost=2: a1 a2 a5 a3 a4

Identifiers match ``[A-Za-z0-9_]+`` and integers ``-?[0-9]{1,600}``.  An id is
checked when it is first seen: a list naming only ids seen before needs no
check, and one that names a new id is scanned once for a character outside
ids and whitespace; only a hit falls back to checking token by token, which
names the first bad id and its line.  Parsing validates the result, so a
grammatically fine but structurally broken file raises the corresponding
validation error.  An id that is listed but never declared fails that
validation's mutual-edge check, the first one a parsed file can fail; only
then is the first undeclared id named, with the same message as ever.
``serialize_instance`` emits the canonical form above and round-trips:
parse(serialize(x)) == x.  As in a generated instance, each id
is one object wherever it appears, and ``parse_matching`` returns those
objects too: dict lookups in the rank tables then hit on identity instead of
comparing strings.

Matching files hold one line per agent, in instance order, ``<agent> ->
<program>`` with ``-`` for unmatched, followed by optional ``# key=value``
trailer comments.

Set-cover inputs are ``elements <n>`` followed by ``set <id>: <element
ids>`` lines; graph inputs are ``edge <u> <v>`` lines.  Cost files (for the
second round of the extension pipeline) are ``<program> <cost>`` lines.
"""

from __future__ import annotations

import re

from .errors import NonMutualEdge, ParseError, clipped
from .generators import GraphInstance, SetCoverInstance
from .model import HrInstance, Matching, SmfqInstance, validate

_IDENT = re.compile(r"^[A-Za-z0-9_]+$")
# re's \s matches exactly the code points str.split() splits on
_NON_IDENT = re.compile(r"[^A-Za-z0-9_\s]")
# at most 600 digits: int() and str() accept that many under any interpreter setting
_INT = re.compile(r"-?[0-9]{1,600}")
_MATCH_LINE = re.compile(r"^([A-Za-z0-9_]+)\s*->\s*([A-Za-z0-9_]+|-)$")


def _meaningful_lines(text: str):
    r"""Yield (line_number, content) with comments and blanks stripped.

    A line ends only at ``\n``, ``\r\n`` or ``\r``, as in a file read in text
    mode; str.splitlines() would also end one at form feeds and the like."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for i, raw in enumerate(text.split("\n"), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield i, line


def _check_ident(name: str, lineno: int) -> str:
    if not _IDENT.match(name):
        raise ParseError(f"bad identifier {clipped(name, repr)}", lineno)
    return name


def _ident_list(text: str, lineno: int) -> list[str]:
    """Split a whitespace-separated id list, raising on its first bad id."""
    names = text.split()
    if _NON_IDENT.search(text):
        for name in names:
            _check_ident(name, lineno)
    return names


def _parse_int(text: str, what: str, lineno: int) -> int:
    if _INT.fullmatch(text):
        return int(text)
    raise ParseError(f"{what} must be an integer, got {clipped(text, repr)}", lineno)


def parse_instance(text: str) -> SmfqInstance | HrInstance:
    """Parse an instance file; the header decides which type comes back.

    The parsed instance is validated before being returned.
    """
    lines = _meaningful_lines(text)
    lineno, header = next(lines, (None, None))
    if header is None:
        raise ParseError("empty input: expected a 'smfq 1' or 'hr 1' header")
    parts = header.split()
    if len(parts) != 2 or parts[0] not in ("smfq", "hr") or parts[1] != "1":
        raise ParseError(f"expected header 'smfq 1' or 'hr 1', got {clipped(header, repr)}", lineno)
    kind = parts[0]

    ids: dict[str, str] = {}  # the one object kept for each id; every key passed the id check
    canon = ids.setdefault
    agent_pref: dict[str, list[str]] = {}
    program_pref: dict[str, list[str]] = {}
    cost: dict[str, int] = {}
    quota: dict[str, int] = {}

    section = None
    for lineno, line in lines:
        if line == "[agents]":
            if section is not None:
                raise ParseError("unexpected [agents] section", lineno)
            section = "agents"
            continue
        if line == "[programs]":
            if section != "agents":
                raise ParseError("[programs] must follow the [agents] section", lineno)
            section = "programs"
            continue
        if line.startswith("["):
            raise ParseError(f"unknown section {clipped(line, repr)}", lineno)
        if section is None:
            raise ParseError("expected the [agents] section", lineno)

        head, sep, tail = line.partition(":")
        if not sep:
            raise ParseError("expected '<id> ...: <list>'", lineno)

        if section == "agents":
            # the line is stripped, so a one-id head is that id plus trailing whitespace
            h = head.rstrip()
            if not _IDENT.match(h):
                if len(head.split()) != 1:
                    raise ParseError("agent lines are '<id>: <program ids>'", lineno)
                _check_ident(h, lineno)
            if h in agent_pref:
                raise ParseError(f"duplicate agent line for {clipped(h)}", lineno)
            pref = agent_pref
        else:
            tokens = head.split()
            if not tokens:
                raise ParseError("program lines are '<id> cost=<int> [quota=<int>]: <agent ids>'", lineno)
            h = _check_ident(tokens[0], lineno)
            if h in program_pref:
                raise ParseError(f"duplicate program line for {clipped(h)}", lineno)
            keys: dict[str, int] = {}
            for tok in tokens[1:]:
                key, eq, val = tok.partition("=")
                if not eq or key not in ("cost", "quota"):
                    raise ParseError(f"unknown attribute {clipped(tok, repr)}", lineno)
                if key in keys:
                    raise ParseError(f"duplicate attribute {key!r}", lineno)
                keys[key] = _parse_int(val, key, lineno)
            if "cost" not in keys:
                raise ParseError(f"program {clipped(h)} is missing cost=<int>", lineno)
            if kind == "hr" and "quota" not in keys:
                raise ParseError(f"program {clipped(h)} is missing quota=<int>, required by 'hr 1'", lineno)
            if kind == "smfq" and "quota" in keys:
                raise ParseError(f"program {clipped(h)} carries a quota, not allowed in 'smfq 1'", lineno)
            cost[h] = keys["cost"]
            if kind == "hr":
                quota[h] = keys["quota"]
            pref = program_pref
        h = canon(h, h)
        seen = len(ids)
        names = tail.split()
        pref[h] = [*map(canon, names, names)]
        if len(ids) != seen:  # only a list that names a new id needs the id check
            _ident_list(tail, lineno)

    if section != "programs":
        raise ParseError("missing [programs] section")

    # the dicts keep declaration order, so their keys are the id lists
    agents, programs = list(agent_pref), list(program_pref)
    if kind == "hr":
        instance: SmfqInstance = HrInstance(agents, programs, agent_pref, program_pref, cost, quota=quota)
    else:
        instance = SmfqInstance(agents, programs, agent_pref, program_pref, cost)
    try:
        validate(instance)
    except NonMutualEdge:
        # an undeclared id always fails the mutual-edge scan, the first check a parsed file
        # can fail, so the ordered scans that name it run only here, agent side first
        for a, lst in agent_pref.items():
            for p in lst:
                if p not in program_pref:
                    a, p = clipped(a), clipped(p)
                    raise ParseError(f"agent {a} references undeclared program {p}") from None
        for p, lst in program_pref.items():
            for a in lst:
                if a not in agent_pref:
                    a, p = clipped(a), clipped(p)
                    raise ParseError(f"program {p} references undeclared agent {a}") from None
        raise
    return instance


def serialize_instance(instance: SmfqInstance) -> str:
    """Emit the canonical text form; parses back to an equal instance."""
    is_hr = isinstance(instance, HrInstance)
    agent_pref, program_pref, cost = instance.agent_pref, instance.program_pref, instance.cost
    heads = ([f"{p} cost={cost[p]} quota={instance.quota[p]}" for p in instance.programs] if is_hr
             else [f"{p} cost={cost[p]}" for p in instance.programs])
    out = ["hr 1" if is_hr else "smfq 1", "[agents]"]
    out += [f"{a}: {' '.join(lst)}" if (lst := agent_pref[a]) else f"{a}:" for a in instance.agents]
    out.append("[programs]")
    out += [f"{h}: {' '.join(lst)}" if (lst := program_pref[p]) else f"{h}:"
            for h, p in zip(heads, instance.programs)]
    return "\n".join(out) + "\n"


def parse_matching(text: str, instance: SmfqInstance) -> Matching:
    """Parse a matching file against its instance.

    Requires one line per agent in instance order; assigned programs must be
    acceptable to their agents.  Trailer comments are ignored.
    """
    assignment: dict[str, str] = {}
    expected = list(instance.agents)
    idx = 0
    for lineno, line in _meaningful_lines(text):
        m = _MATCH_LINE.match(line)
        if not m:
            raise ParseError("expected '<agent> -> <program>' or '<agent> -> -'", lineno)
        agent, program = m.group(1), m.group(2)
        if idx >= len(expected):
            raise ParseError(f"unexpected extra line for {clipped(agent)}", lineno)
        if agent != expected[idx]:
            raise ParseError(f"expected agent {clipped(expected[idx])}, got {clipped(agent)}", lineno)
        agent = expected[idx]
        idx += 1
        if program == "-":
            continue
        rank = instance.arank[agent].get(program)
        if rank is None:
            raise ParseError(f"agent {clipped(agent)} does not accept program {clipped(program)}", lineno)
        assignment[agent] = instance.agent_pref[agent][rank]
    if idx != len(expected):
        raise ParseError(f"missing line for agent {clipped(expected[idx])}")
    return Matching(assignment)


def format_value(value) -> str:
    """A value as every ``key=value`` line prints it: a bool as ``true`` or
    ``false``, anything else as ``str`` gives it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def format_matching(instance: SmfqInstance, matching: Matching,
                    notes: list[tuple[str, object]] | None = None) -> str:
    """Emit a matching file: one line per agent plus ``# key=value`` trailers."""
    out = [f"{a} -> {matching.assignment.get(a, '-')}" for a in instance.agents]
    for key, value in notes or []:
        out.append(f"# {key}={format_value(value)}")
    return "\n".join(out) + "\n"


def parse_cost_file(text: str) -> dict[str, int]:
    """Parse ``<program> <cost>`` lines into a cost table."""
    costs: dict[str, int] = {}
    for lineno, line in _meaningful_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected '<program> <cost>'", lineno)
        p = _check_ident(parts[0], lineno)
        if p in costs:
            raise ParseError(f"duplicate cost for {clipped(p)}", lineno)
        costs[p] = _parse_int(parts[1], "cost", lineno)
    return costs


def parse_set_cover(text: str) -> SetCoverInstance:
    """Parse a covering problem; the occurrence count f is derived from the data."""
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ParseError("empty input: expected 'elements <n>'")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "elements":
        raise ParseError(f"expected 'elements <n>', got {clipped(header, repr)}", lineno)
    declared = _parse_int(parts[1], "element count", lineno)

    sets: dict[str, list[str]] = {}
    for lineno, line in lines[1:]:
        if not line.startswith("set "):
            raise ParseError("expected 'set <id>: <element ids>'", lineno)
        head, sep, tail = line[4:].partition(":")
        if not sep:
            raise ParseError("expected 'set <id>: <element ids>'", lineno)
        sid = _check_ident(head.strip(), lineno)
        if sid in sets:
            raise ParseError(f"duplicate set {clipped(sid)}", lineno)
        sets[sid] = _ident_list(tail, lineno)
    elements = list(dict.fromkeys(e for members in sets.values() for e in members))
    if len(elements) != declared:
        raise ParseError(f"header declares {declared} elements but {len(elements)} appear")
    if not elements:
        raise ParseError("no elements declared")
    # the instance checks that every other element occurs as often as the first
    f = sum(elements[0] in members for members in sets.values())
    try:
        return SetCoverInstance(sets=sets, elements=elements, f=f)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_graph(text: str) -> GraphInstance:
    """Parse ``edge <u> <v>`` lines; vertices appear in first-mention order."""
    edges: list[tuple[str, str]] = []
    for lineno, line in _meaningful_lines(text):
        parts = line.split()
        if len(parts) != 3 or parts[0] != "edge":
            raise ParseError("expected 'edge <u> <v>'", lineno)
        u = _check_ident(parts[1], lineno)
        v = _check_ident(parts[2], lineno)
        edges.append((u, v))
    vertices = list(dict.fromkeys(w for edge in edges for w in edge))
    try:
        return GraphInstance(vertices=vertices, edges=edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
