"""Text formats: instance files, matching files, and reduction inputs."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexq import (
    HrInstance,
    Matching,
    NonMutualEdge,
    ParseError,
    ValidationError,
    bench_hr_instance,
    bench_instance,
    format_matching,
    gale_shapley_a_optimal,
    gen_example2,
    gen_fig1,
    gen_fig2,
    gen_master_list,
    gen_random,
    gen_random_hr,
    parse_cost_file,
    parse_graph,
    parse_instance,
    parse_matching,
    parse_set_cover,
    serialize_instance,
    solve_minmax,
)
from flexq import fileio
from flexq.cli import cli

CANONICAL_H = """\
smfq 1
[agents]
a1: p1 p2
a2: p2 p1
a3: p2 p1
a4: p2 p1
a5: p2
[programs]
p1 cost=1: a2 a4 a1 a3
p2 cost=2: a1 a2 a5 a3 a4
"""


# ---------------------------------------------------------------------------
# instance files


def test_canonical_text_round_trips_exactly():
    _, h = gen_fig1()
    assert serialize_instance(h) == CANONICAL_H
    assert parse_instance(CANONICAL_H) == h


def test_quota_variant_round_trips():
    g, _ = gen_fig1()
    text = serialize_instance(g)
    assert "hr 1" in text.splitlines()[0]
    assert "quota=2" in text
    parsed = parse_instance(text)
    assert isinstance(parsed, HrInstance)
    assert parsed == g


def test_generated_families_round_trip():
    for inst in [gen_fig2(6), gen_example2(7, 31),
                 *(bench_instance(s) for s in range(30)),
                 *(bench_hr_instance(s) for s in range(30))]:
        text = serialize_instance(inst)
        assert parse_instance(text) == inst
        assert serialize_instance(parse_instance(text)) == text


def _canonical(names):
    """Map each name to the one object the instance declares for it."""
    return {name: name for name in names}


def test_parsed_markets_hold_one_object_per_id():
    # like a generated market, a parsed one lists the declared id objects
    # themselves, and a parsed matching reuses them
    for inst, solve in [(gen_random(300, 12, 4, 9, 0), lambda i: solve_minmax(i).matching),
                        (gen_master_list(300, 12, 4, 9, 1), lambda i: solve_minmax(i).matching),
                        (gen_random_hr(300, 12, 4, 9, 20, 2), gale_shapley_a_optimal)]:
        parsed = parse_instance(serialize_instance(inst))
        agents, programs = _canonical(parsed.agents), _canonical(parsed.programs)
        assert all(agents[a] is a for a in parsed.agent_pref)
        assert all(programs[p] is p for p in parsed.program_pref)
        assert all(programs[p] is p for lst in parsed.agent_pref.values() for p in lst)
        assert all(agents[a] is a for lst in parsed.program_pref.values() for a in lst)

        matching = parse_matching(format_matching(parsed, solve(parsed)), parsed)
        assert matching.assignment
        assert all(agents[a] is a and programs[p] is p for a, p in matching.assignment.items())


def test_comments_and_blank_lines_are_ignored():
    noisy = ("# leading note\n\nsmfq 1   # header comment\n"
             "\n[agents]\na1: p1 p2  # list comment\na2: p2 p1\n"
             "a3: p2 p1\na4: p2 p1\na5: p2\n# interlude\n[programs]\n"
             "p1 cost=1: a2 a4 a1 a3\np2 cost=2: a1 a2 a5 a3 a4\n")
    _, h = gen_fig1()
    assert parse_instance(noisy) == h


def test_header_errors():
    with pytest.raises(ParseError):
        parse_instance("")
    with pytest.raises(ParseError):
        parse_instance("# only comments\n")
    err = pytest.raises(ParseError, parse_instance, "smfq 2\n[agents]\n").value
    assert err.line == 1
    with pytest.raises(ParseError):
        parse_instance("matching 1\n")


def test_section_errors():
    with pytest.raises(ParseError):
        parse_instance("smfq 1\na1: p1\n")          # content before any section
    with pytest.raises(ParseError):
        parse_instance("smfq 1\n[programs]\n")       # programs before agents
    with pytest.raises(ParseError):
        parse_instance("smfq 1\n[agents]\n[agents]\n")
    with pytest.raises(ParseError):
        parse_instance("smfq 1\n[agents]\n[weird]\n")
    with pytest.raises(ParseError):
        parse_instance("smfq 1\n[agents]\na1: p1\n")  # no [programs] at all


def test_line_level_errors_carry_their_line_number():
    text = "smfq 1\n[agents]\na1 p1\n"
    err = pytest.raises(ParseError, parse_instance, text).value
    assert err.line == 3
    assert "line 3" in str(err)


def test_a_form_feed_inside_a_comment_does_not_end_the_line():
    text = CANONICAL_H.replace("a1: p1 p2\n", "a1: p1 p2   # was p2\fp2\n")
    assert parse_instance(text) == parse_instance(CANONICAL_H)


def test_a_vertical_tab_separates_ids_on_the_same_line():
    text = "smfq 1\n[agents]\na1:\vp1 p-1\n[programs]\np1 cost=0: a1\n"
    err = pytest.raises(ParseError, parse_instance, text).value
    assert str(err) == "line 3: bad identifier 'p-1'"


def test_crlf_and_lone_cr_files_parse_like_lf_files():
    expected = parse_instance(CANONICAL_H)
    assert parse_instance(CANONICAL_H.replace("\n", "\r\n")) == expected
    assert parse_instance(CANONICAL_H.replace("\n", "\r")) == expected
    err = pytest.raises(ParseError, parse_instance, "smfq 1\r\n[agents]\ra1 p1\r\n").value
    assert err.line == 3


@pytest.mark.parametrize("line", [
    "a-1: p1",               # bad identifier
    "a1 extra: p1",          # stray token on an agent line
    pytest.param("a-" + "1" * 9998 + ": p1", id="10000-character bad identifier"),
])
def test_bad_agent_lines(line, tmp_path, capsys):
    text = f"smfq 1\n[agents]\n{line}\n[programs]\np1 cost=0: a1\n"
    with pytest.raises(ParseError):
        parse_instance(text)
    path = tmp_path / "bad.smfq"
    path.write_text(text)
    assert cli(["solve", "minmax", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ") and err.count("\n") == 1 and len(err) < 120


def test_valid_lists_are_scanned_without_a_per_token_check(monkeypatch):
    # a valid file checks one id per program line, its head, however long the
    # lists; an agent head that is an id needs no call
    text = serialize_instance(gen_random_hr(500, 20, 10, 9, 40, 0))
    checked = []
    check = fileio._check_ident

    def counting(name, lineno):
        checked.append(lineno)
        return check(name, lineno)

    monkeypatch.setattr(fileio, "_check_ident", counting)
    parse_instance(text)
    # agents on lines 3-502, programs on 504-523
    assert checked == [*range(504, 524)]


def test_the_head_id_is_checked_before_its_list():
    err = pytest.raises(ParseError, parse_instance,
                        "smfq 1\n[agents]\na-1: p-2\n[programs]\np1 cost=0: a1\n").value
    assert err.line == 3
    assert "bad identifier 'a-1'" in str(err)


# list separators include Unicode whitespace that str.split() splits on;
# \x0b stays inside its line, where it only separates ids
_GOOD_IDS = ["p1", "p2", "p3"]
_BAD_IDS = ["p-1", "$", "é", "p٣", "-", "a$é"]
_SEPARATORS = [" ", "\t", "\u3000", "\x0b", " \t "]


@st.composite
def _id_list_files(draw):
    """An smfq file whose agent lists mix declared, mutual ids with bad ones."""
    lines = ["smfq 1", "[agents]"]
    listed: dict[str, list[str]] = {p: [] for p in _GOOD_IDS}
    for i in range(1, draw(st.integers(min_value=1, max_value=3)) + 1):
        good = draw(st.permutations(_GOOD_IDS))[:draw(st.integers(min_value=1, max_value=3))]
        for p in good:
            listed[p].append(f"a{i}")
        bad = draw(st.lists(st.sampled_from(_BAD_IDS), max_size=2))
        # keep the good ids in order, so the list stays a valid preference list
        tokens = list(good)
        for tok in bad:
            tokens.insert(draw(st.integers(min_value=0, max_value=len(tokens))), tok)
        seps = draw(st.lists(st.sampled_from(_SEPARATORS),
                             min_size=len(tokens) + 1, max_size=len(tokens) + 1))
        lines.append(f"a{i}:" + "".join(s + t for s, t in zip(seps, tokens)) + seps[-1])
    lines.append("[programs]")
    lines += [f"{p} cost=0: {' '.join(agents)}" for p, agents in listed.items()]
    return "\n".join(lines) + "\n"


@given(_id_list_files())
@settings(max_examples=300, deadline=None)
def test_id_lists_are_accepted_exactly_when_every_token_is_an_identifier(text):
    # the first bad token or list-less line, in the order the lines are read
    expected = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        head, sep, tail = line.partition(":")
        if not sep and line.strip() and not line.startswith(("smfq", "[")):
            expected = (lineno, "expected '<id> ...: <list>'")
            break
        bad = [t for t in tail.split() if not re.fullmatch(r"[A-Za-z0-9_]+", t)]
        if bad:
            expected = (lineno, f"bad identifier {bad[0]!r}")
            break
    if expected is None:
        parse_instance(text)
        return
    err = pytest.raises(ParseError, parse_instance, text).value
    assert err.line == expected[0]
    assert str(err) == f"line {expected[0]}: {expected[1]}"


_IDENT_RE = re.compile(r"[A-Za-z0-9_]+")
# whitespace str.strip() drops before a colon, though none of it ends a line
_HEAD_SEPARATORS = ["", " ", "\x0b", "　", "\x1c"]


@st.composite
def _head_files(draw):
    """An smfq file with agent heads that may be bad, two ids, empty or repeated,
    a missing colon, a bad token recurring on later lines, valid but
    undeclared ids on either side, and a program that drops one agent."""
    lines = ["smfq 1", "[agents]"]
    listed: dict[str, list[str]] = {p: [] for p in _GOOD_IDS}
    # in half the files every line parses, so the checks after the lines decide
    faulty = draw(st.booleans())
    recurring = draw(st.sampled_from(_BAD_IDS))
    for i in range(1, draw(st.integers(min_value=1, max_value=4)) + 1):
        a = f"a{i}"
        # "a1" again from the second line on is a duplicate agent line
        head = draw(st.sampled_from([a, a, "a1", "", f"{a} x", "a-1", "é"])) if faulty else a
        good = draw(st.permutations(_GOOD_IDS))[:draw(st.integers(min_value=1, max_value=3))]
        for p in good:
            listed[p].append(a)
        tokens = list(good)
        if faulty and draw(st.booleans()):
            tokens.insert(draw(st.integers(min_value=0, max_value=len(tokens))), recurring)
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            tokens.append("p9")
        colon = draw(st.sampled_from(_HEAD_SEPARATORS)) + ":"
        if faulty and draw(st.integers(min_value=0, max_value=5)) == 0:
            colon = " "
        lines.append(head + colon + " " + " ".join(tokens))
    lines.append("[programs]")
    for p, agents in listed.items():
        if agents and draw(st.integers(min_value=0, max_value=3)) == 0:
            agents = agents[1:]
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            agents = [*agents, "a9"]
        lines.append(f"{p} cost=0: {' '.join(agents)}")
    return "\n".join(lines) + "\n"


def _first_error(text):
    """The error a file of _head_files must raise, from the file grammar and
    the documented check order: line by line, then undeclared ids (agent side
    first), then mutual edges.  None for a valid file."""
    agents: dict[str, list[str]] = {}
    programs: dict[str, list[str]] = {}
    section = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line in ("[agents]", "[programs]"):
            section = line
            continue
        if line in ("", "smfq 1"):
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            return ParseError, lineno, "expected '<id> ...: <list>'"
        heads, names = head.split(), tail.split()
        if section == "[agents]":
            if len(heads) != 1:
                return ParseError, lineno, "agent lines are '<id>: <program ids>'"
            if not _IDENT_RE.fullmatch(heads[0]):
                return ParseError, lineno, f"bad identifier {heads[0]!r}"
            if heads[0] in agents:
                return ParseError, lineno, f"duplicate agent line for {heads[0]}"
            agents[heads[0]] = names
        else:
            programs[heads[0]] = names
        bad = [t for t in names if not _IDENT_RE.fullmatch(t)]
        if bad:
            return ParseError, lineno, f"bad identifier {bad[0]!r}"
    for a, lst in agents.items():
        for p in lst:
            if p not in programs:
                return ParseError, None, f"agent {a} references undeclared program {p}"
    for p, lst in programs.items():
        for a in lst:
            if a not in agents:
                return ParseError, None, f"program {p} references undeclared agent {a}"
    for a, lst in agents.items():
        for p in lst:
            if a not in programs[p]:
                return NonMutualEdge, None, f"agent {a} lists {p}, but {p} does not list {a}"
    return None


@given(_head_files())
@settings(max_examples=400, deadline=None)
def test_heads_and_repeated_ids_give_the_documented_first_error(text):
    expected = _first_error(text)
    if expected is None:
        inst = parse_instance(text)
        assert parse_instance(serialize_instance(inst)) == inst
        return
    kind, line, message = expected
    err = pytest.raises((ParseError, ValidationError), parse_instance, text).value
    assert type(err) is kind
    assert getattr(err, "line", None) == line
    assert str(err) == (f"line {line}: {message}" if line else message)


def test_duplicate_declarations_rejected():
    with pytest.raises(ParseError):
        parse_instance("smfq 1\n[agents]\na1: p1\na1: p1\n"
                       "[programs]\np1 cost=0: a1\n")
    with pytest.raises(ParseError):
        parse_instance("smfq 1\n[agents]\na1: p1\n"
                       "[programs]\np1 cost=0: a1\np1 cost=0: a1\n")


@pytest.mark.parametrize("progline,fragment", [
    ("p1: a1", "missing cost"),
    ("p1 cost=zz: a1", "integer"),
    ("p1 cost=1_0: a1", "cost must be an integer, got '1_0'"),   # int() would read 10
    ("p1 cost=٣: a1", "cost must be an integer, got '٣'"),       # an Arabic-Indic 3
    ("p1 cost=1 cost=2: a1", "duplicate"),
    ("p1 cost=1 shiny=3: a1", "unknown"),
    ("p1 cost=1 quota=2: a1", "quota"),   # quotas have no meaning without 'hr'
    (": a1", "program lines are"),         # nothing before the colon
])
def test_bad_program_lines(progline, fragment):
    text = f"smfq 1\n[agents]\na1: p1\n[programs]\n{progline}\n"
    err = pytest.raises(ParseError, parse_instance, text).value
    assert fragment in str(err)


def test_quota_required_for_every_program_in_quota_files():
    text = ("hr 1\n[agents]\na1: p1 p2\n[programs]\n"
            "p1 cost=1 quota=1: a1\np2 cost=1: a1\n")
    err = pytest.raises(ParseError, parse_instance, text).value
    assert "p2" in str(err)


def test_undeclared_references_rejected():
    err = pytest.raises(ParseError, parse_instance,
                        "smfq 1\n[agents]\na1: p9\n[programs]\np1 cost=0: a1\n").value
    assert "agent a1 references undeclared program p9" in str(err)
    err = pytest.raises(ParseError, parse_instance,
                        "smfq 1\n[agents]\na1: p1\n[programs]\np1 cost=0: a9\n").value
    assert "program p1 references undeclared agent a9" in str(err)
    # undeclared ids on both sides: the agent side is reported first, and
    # within it the first offender in file order
    err = pytest.raises(ParseError, parse_instance,
                        "smfq 1\n[agents]\na1: p1 p8\na2: p7\n[programs]\n"
                        "p1 cost=0: a9 a1\n").value
    assert "agent a1 references undeclared program p8" in str(err)
    # the undeclared id is named, not the non-mutual edge on a1 before it
    err = pytest.raises(ParseError, parse_instance,
                        "smfq 1\n[agents]\na1: p1 p2\na2: p1 p9\n[programs]\n"
                        "p1 cost=0: a1 a2\np2 cost=0:\n").value
    assert str(err) == "agent a2 references undeclared program p9"
    # an otherwise mutual market that fails only on the program side
    err = pytest.raises(ParseError, parse_instance,
                        "smfq 1\n[agents]\na1: p1\n[programs]\np1 cost=0: a1 a9\n").value
    assert str(err) == "program p1 references undeclared agent a9"


def test_structural_validation_still_applies():
    # grammatically fine, but a1 never lists p2 back
    text = ("smfq 1\n[agents]\na1: p1\n[programs]\n"
            "p1 cost=0: a1\np2 cost=0: a1\n")
    with pytest.raises(NonMutualEdge):
        parse_instance(text)
    # and p1 never lists a2 back
    err = pytest.raises(NonMutualEdge, parse_instance,
                        "smfq 1\n[agents]\na1: p1\na2: p1\n[programs]\np1 cost=0: a1\n").value
    assert str(err) == "agent a2 lists p1, but p1 does not list a2"


# ---------------------------------------------------------------------------
# matching files


def test_matching_round_trip_with_unmatched_agents():
    _, h = gen_fig1()
    m = Matching({"a1": "p1", "a3": "p2"})
    text = format_matching(h, m, notes=[("objective", 3), ("certified", True)])
    assert text == ("a1 -> p1\na2 -> -\na3 -> p2\na4 -> -\na5 -> -\n"
                    "# objective=3\n# certified=true\n")
    assert parse_matching(text, h) == m


def test_matching_lines_must_follow_instance_order():
    _, h = gen_fig1()
    good = "a1 -> p1\na2 -> -\na3 -> p2\na4 -> -\na5 -> -\n"
    swapped = "a2 -> -\na1 -> p1\na3 -> p2\na4 -> -\na5 -> -\n"
    parse_matching(good, h)
    with pytest.raises(ParseError):
        parse_matching(swapped, h)


def test_matching_must_cover_every_agent_exactly_once():
    _, h = gen_fig1()
    with pytest.raises(ParseError):
        parse_matching("a1 -> p1\n", h)                     # missing lines
    full = "a1 -> p1\na2 -> -\na3 -> p2\na4 -> -\na5 -> -\n"
    with pytest.raises(ParseError):
        parse_matching(full + "a6 -> p1\n", h)              # extra line


def test_matching_rejects_unacceptable_pairs_and_bad_lines():
    _, h = gen_fig1()
    with pytest.raises(ParseError):
        parse_matching("a1 -> p1\na2 -> -\na3 -> p2\na4 -> -\na5 -> p1\n", h)
    with pytest.raises(ParseError):
        parse_matching("a1 => p1\n", h)


# ---------------------------------------------------------------------------
# auxiliary inputs


def test_cost_file_parsing():
    assert parse_cost_file("# prices\np1 3\np2 0\n") == {"p1": 3, "p2": 0}
    with pytest.raises(ParseError):
        parse_cost_file("p1 3\np1 4\n")
    with pytest.raises(ParseError):
        parse_cost_file("p1 three\n")
    with pytest.raises(ParseError, match="cost must be an integer"):
        parse_cost_file("p1 ٣\n")                 # a non-ASCII digit
    with pytest.raises(ParseError):
        parse_cost_file("p1\n")


def test_set_cover_parsing_derives_the_occurrence_count():
    sc = parse_set_cover("elements 2\nset s1: e1\nset s2: e1 e2\nset s3: e2\n")
    assert sc.f == 2
    assert sc.elements == ["e1", "e2"]
    assert sc.sets == {"s1": ["e1"], "s2": ["e1", "e2"], "s3": ["e2"]}


@pytest.mark.parametrize("text", [
    "set s1: e1\n",                                   # missing header
    "elements 3\nset s1: e1\nset s2: e1\n",           # count mismatch
    "elements 2\nset s1: e1 e2\nset s2: e1\n",        # e2 occurs once, e1 twice
    "elements 1\nset s1: e1\nset s1: e1\n",           # duplicate set id
    "elements 1\nrow s1: e1\n",                       # unknown line shape
    "elements 1\nset s1: e1 e1\nset s2: e1\n",        # repeat inside one set
    "elements 0_1\nset s1: e1\nset s2: e1\n",        # only ASCII digits count
    "elements 1\nset s1 e1\nset s2: e1\n",           # set line without a colon
    "elements 0\n",                                  # no elements at all
])
def test_set_cover_rejects_malformed_inputs(text):
    with pytest.raises(ParseError):
        parse_set_cover(text)


def test_graph_parsing_orders_vertices_by_first_mention():
    g = parse_graph("edge v2 v1\nedge v1 v3\n")
    assert g.vertices == ["v2", "v1", "v3"]
    assert g.edges == [("v2", "v1"), ("v1", "v3")]


@pytest.mark.parametrize("text", [
    "edge u\n",
    "edge u u\n",
    "edge u v\nedge v u\n",
    "arc u v\n",
])
def test_graph_rejects_malformed_inputs(text):
    with pytest.raises(ParseError):
        parse_graph(text)


# ---------------------------------------------------------------------------
# property tests: arbitrary text parses cleanly or fails with a documented error

# fragments of every grammar in this module, so random lines often get far
# into a parser instead of failing on the first token
_TOKENS = ["smfq", "hr", "1", "0", "2", "-3", "x", "[agents]", "[programs]",
           "a1", "a2", "a3", "p1", "p2", "s1", "e1", "e2", ":", "a1:", "->", "-",
           "cost=0", "cost=2", "cost=-1", "cost=x", "quota=1", "quota=0", "cost=1:",
           "quota=2:", "elements", "set", "edge", "#", "\t", " ", "é", "a1 -> p1"]

_lines = st.lists(st.sampled_from(_TOKENS), max_size=6).map(" ".join)
_grammar_text = st.lists(_lines, max_size=10).map("\n".join)

_instance_files = st.builds(
    lambda seed, hr: serialize_instance(bench_hr_instance(seed) if hr else bench_instance(seed)),
    st.integers(min_value=0, max_value=500), st.booleans())
_matching_files = st.lists(st.sampled_from(["p1", "p2", "-"]), min_size=5, max_size=5).map(
    lambda progs: "".join(f"a{i} -> {p}\n" for i, p in enumerate(progs, start=1)))


@st.composite
def _mutated(draw, files):
    """A well-formed file with a few lines dropped, repeated or inserted."""
    lines = draw(files).splitlines()
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(lines)))
        op = draw(st.sampled_from(["drop", "repeat", "insert"]))
        if op == "drop" and i < len(lines):
            del lines[i]
        elif op == "repeat" and i < len(lines):
            lines.insert(i, lines[i])
        elif op == "insert":
            lines.insert(i, draw(_lines))
    return "\n".join(lines) + "\n"


_any_text = st.one_of(st.text(max_size=200), _grammar_text,
                      _mutated(_instance_files), _mutated(_matching_files))


@given(_any_text)
@settings(max_examples=200, deadline=None)
def test_parse_instance_round_trips_or_raises_a_documented_error(text):
    try:
        inst = parse_instance(text)
    except (ParseError, ValidationError):
        return
    assert parse_instance(serialize_instance(inst)) == inst


@given(_any_text)
@settings(max_examples=150, deadline=None)
def test_parse_matching_round_trips_or_raises_a_documented_error(text):
    inst = parse_instance(CANONICAL_H)
    try:
        m = parse_matching(text, inst)
    except (ParseError, ValidationError):
        return
    assert parse_matching(format_matching(inst, m), inst) == m


@pytest.mark.parametrize("parse", [parse_cost_file, parse_set_cover, parse_graph])
@given(text=_any_text)
@settings(max_examples=100, deadline=None)
def test_auxiliary_parsers_raise_only_documented_errors(parse, text):
    try:
        parse(text)
    except (ParseError, ValidationError):
        pass
