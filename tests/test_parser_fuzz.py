"""Seeded fuzzing of the netlist parsers (``hypergraph/io.py``).

* hMETIS is read by the compiled reader when its input lies in the
  plain subset and by the Python reader otherwise.  On generated and
  byte-mutated files — comments, blank lines, CRLF, lone CR, form
  feeds, tabs, duplicate and single pins, fmt 1, 10 and 11, extra
  tokens, signs, underscores, non-ASCII digits, overflow, exotic areas,
  truncation and lines past the declared counts — both paths must give
  the same netlist or the same error, type and message.
* netD, ``.are`` and JSON have one reader each: whatever the input,
  every failure is a named :class:`~repro.errors.ReproError`.
"""

import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import ParseError, ReproError
from repro.fm import native
from repro.hypergraph import read_are, read_hmetis, read_json, read_netd

from .loops import compiled_available, each_loop

needs_cc = pytest.mark.skipif(not compiled_available(),
                              reason="no C compiler for the level kernels")

FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large,
                                       HealthCheck.filter_too_much])

#: Header module counts a reader would really allocate for (a list of
#: that many areas) are kept out of the fuzz; smaller ones are cheap and
#: 2**63 and above fail before any allocation.
_ALLOCATING = range(10**6, 2**63)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(directory, name, data: bytes):
    path = directory / name
    path.write_bytes(data)
    return path


# ---------------------------------------------------------------------------
# Generators.
# ---------------------------------------------------------------------------

#: Tokens Python's int() and float() take that the compiled reader does
#: not, and tokens neither takes.
ODD_INTS = ["+3", "-0", "-2", "1_000", "٣", "007", "0", "2.0", "x",
            "9223372036854775807", "9223372036854775808",
            "99999999999999999999", "2147483648"]
AREAS = ["1", "2", "2.5", ".5", "5.", "0.25", "1e3", "1E-2", "2.5e+1",
         "007.5", "inf", "nan", "-inf", "0x1p3", "-1", "0", "0.0", "+2",
         "1_0.5", "1e999", "1e-999", "٣", "1e", ".", "e5"]
SEPARATORS = [" ", " ", " ", "  ", "\t", " \t", "\x0c"]
ENDINGS = ["\n", "\n", "\n", "\r\n", "\r"]
FILLER = ["% comment", "  %x 1 2", "%", "", "   ", "\t", "\x0c"]
TRAILING = ["1 2 3", "garbage", "€uro", "%", "5"]
#: Bytes a mutation inserts or writes.
ALPHABET = (list(b"0123456789 \t\n\r%-+._e\x0c\x00\xff\x85")
            + ["٣".encode()])


def _mutate(draw, data: bytes) -> bytes:
    data = bytearray(data)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        byte = draw(st.sampled_from(ALPHABET))
        byte = bytes([byte]) if isinstance(byte, int) else byte
        if op == "insert" or at == len(data):
            data[at:at] = byte
        elif op == "delete":
            del data[at]
        else:
            data[at:at + 1] = byte
    return bytes(data)


def _token(draw, plain: str, odd_tokens, odd: bool) -> str:
    if not odd or draw(st.integers(0, 9)):
        return plain
    return draw(st.sampled_from(odd_tokens))


#: What a file may stray in, a few of them at a time, so that many
#: generated files stay close to (or in) the compiled reader's subset.
STRAYS = ["tokens", "separators", "endings", "pins", "counts", "truncate",
          "trailing", "filler", "mutate"]


@st.composite
def hmetis_files(draw, plain_only=False):
    """The bytes of an hMETIS file.  ``plain_only`` keeps to the subset
    the compiled reader takes: valid, ASCII, plain tokens."""
    stray = set() if plain_only else draw(
        st.frozensets(st.sampled_from(STRAYS), max_size=3))
    n = draw(st.integers(1, 9))
    low, high = (0, n + 1) if "pins" in stray else (1, n)
    nets = draw(st.lists(st.lists(st.integers(low, high),
                                  min_size=1 if "pins" in stray else 2,
                                  max_size=6), max_size=7))
    if "pins" not in stray:
        nets = [pins for pins in nets if len(set(pins)) >= 2]
    fmt = draw(st.sampled_from(["0", "1", "10", "11", None, "01"]
                               + (["2"] if "tokens" in stray else [])))
    weighted_nets = fmt in ("1", "11", "01")
    weighted_modules = fmt in ("10", "11")
    odd = "tokens" in stray

    def sep():
        if "separators" not in stray:
            return " "
        return draw(st.sampled_from(SEPARATORS))

    counts = [len(nets), n]
    if "counts" in stray:
        counts[draw(st.integers(0, 1))] += draw(st.sampled_from([-1, 1]))
    header = [_token(draw, str(c), ODD_INTS, odd) for c in counts]
    if fmt is not None:
        header.append(fmt)
    lines = [sep().join(header)]
    for pins in nets:
        tokens = [_token(draw, str(p), ODD_INTS, odd) for p in pins]
        if weighted_nets:
            weight = str(draw(st.integers(1, 9)))
            tokens.insert(0, _token(draw, weight, ODD_INTS, odd))
        lines.append(sep().join(tokens))
    if weighted_modules:
        for _ in range(n):
            area = draw(st.sampled_from(AREAS[:10]))
            tokens = [_token(draw, area, AREAS, odd)]
            if draw(st.integers(0, 5)) == 0:
                tokens.append(draw(st.sampled_from(["7", "x", "1e3"])))
            lines.append(sep().join(tokens))
    if "truncate" in stray:
        del lines[len(lines) - draw(st.integers(1, len(lines))):]
    if "trailing" in stray:
        lines += draw(st.lists(st.sampled_from(TRAILING), max_size=2))
    # comments and blank lines anywhere, then the line endings.
    filler = FILLER if "filler" in stray else FILLER[:6]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(filler)))
    text = ""
    for line in lines:
        text += line + (draw(st.sampled_from(ENDINGS))
                        if "endings" in stray else "\n")
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode()
    return _mutate(draw, data) if "mutate" in stray else data


def _allocates(data: bytes) -> bool:
    """Whether the header declares a module count in
    :data:`_ALLOCATING` (checked the way the Python reader reads it)."""
    try:
        text = data.decode()
    except UnicodeDecodeError:
        return False
    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens or tokens[0].startswith("%"):
            continue
        try:
            return len(tokens) > 1 and int(tokens[1]) in _ALLOCATING
        except ValueError:
            return False
    return False


def _outcome(path):
    """What reading ``path`` gives: the netlist (its name, size, bytes
    of its flat layout and its pin tuples) or the error."""
    try:
        hg = read_hmetis(path)
    except Exception as exc:  # the comparison is the test
        return ("error", type(exc), str(exc))
    return ("netlist", hg.name, hg.num_modules,
            tuple(bytes(a) for a in hg.flat), hg.net_pins)


def _both(path) -> dict:
    return {loop: _outcome(path) for loop in each_loop()}


# ---------------------------------------------------------------------------
# hMETIS: the compiled reader against the Python reader.
# ---------------------------------------------------------------------------


@needs_cc
@FUZZ
@given(data=hmetis_files())
def test_hmetis_paths_agree(scratch, data):
    assume(not _allocates(data))
    got = _both(_write(scratch, "f.hgr", data))
    assert got["c"] == got["py"]


@needs_cc
@FUZZ
@given(data=hmetis_files(plain_only=True))
def test_plain_hmetis_is_read_compiled(scratch, data):
    """Every file in the plain subset takes the compiled reader, and
    gives the Python reader's netlist."""
    assert native.load().read_hmetis(data) is not None
    got = _both(_write(scratch, "f.hgr", data))
    assert got["c"] == got["py"]
    assert got["c"][0] == "netlist"


#: One file per rule of the plain subset; ``True`` where the compiled
#: reader takes it.  Whatever it does, both paths agree.
CASES = [
    ("% head\n\n2 3\n  % mid\n1 2\n\n2 3\n", True),
    ("2 3\r\n1 2\r\n2 3\r\n", True),
    ("2 3\r1 2\r2 3", True),
    ("2 3\n1\t2\n 2  3 \t\n", True),
    ("2 3\n1 2\n\x0c\n2 3\n", False),
    ("2 3\n1\x0c2\n2 3\n", False),
    ("2 3\n1 2 1 2\n3 3 2\n", True),
    ("1 3\n2 2\n", False),
    ("1 3\n2\n", False),
    ("2 3 1\n5 1 2\n7 2 3 3\n", True),
    ("2 3 1\n5 1\n7 2 3\n", False),
    ("1 2 10\n1 2\n3 junk\n4.5 7\n", True),
    ("1 2 11\n9 1 2\n2.5e1\n.5\n", True),
    ("1 2 10\n1 2\n1e3\n5.\n", True),
    ("1 2 01\n4 1 2\n", True),
    ("1 2 2\n1 2\n", False),
    ("1 2\n+1 2\n", False),
    ("1 2 1\n-0 1 2\n", False),
    ("1 2000\n1_000 2\n", False),
    ("1 3\n٣ 2\n", False),
    ("1 2\n99999999999999999999 2\n", False),
    ("1 2 1\n9223372036854775807 1 2\n", True),
    ("1 2 1\n9223372036854775808 1 2\n", False),
    ("1 2 1\n0 1 2\n", False),
    ("1 99999999999999999999\n1 2\n", False),
    ("1 2 10\n1 2\ninf\n1\n", False),
    ("1 2 10\n1 2\nnan\n1\n", False),
    ("1 2 10\n1 2\n0x1p3\n1\n", False),
    ("1 2 10\n1 2\n0\n1\n", False),
    ("1 2 10\n1 2\n1e999\n1\n", False),
    ("1 2 10\n1 2\n" + "0" * 61 + "1.5\n1\n", False),
    ("1 2 10\n1 2\n" + "0" * 60 + "1.5\n1\n", True),
    ("3 4\n1 2\n2 3\n", False),
    ("1 2 10\n1 2\n3\n", False),
    ("2 3\n1 2\n2 3\n1 2 3\nnot a net €\n", False),
    ("2 3\n1 2\n2 3\n1 2 3\nnot a net\n", True),
    ("0 0\n", True),
    ("0 4\n", True),
    ("", False),
    ("% only\n", False),
    ("2\n1 2\n", False),
    ("1 2 3 4\n1 2\n", False),
    ("1 2\n1 3\n", False),
    ("1 2\n1 2\n\xff\n", False),
]


@needs_cc
@pytest.mark.parametrize("text, compiled", CASES)
def test_hmetis_cases(scratch, text, compiled):
    data = text.encode("latin-1" if "\xff" in text else "utf-8")
    assert (native.load().read_hmetis(data) is not None) is compiled
    got = _both(_write(scratch, "case.hgr", data))
    assert got["c"] == got["py"]


def test_undecodable_hmetis_is_a_parse_error(tmp_path):
    path = _write(tmp_path, "bad.hgr", b"1 2\n1 \xff2\n")
    for _ in each_loop():
        with pytest.raises(ParseError, match="text"):
            read_hmetis(path)


# ---------------------------------------------------------------------------
# netD, .are and JSON: every failure is a named ReproError.
# ---------------------------------------------------------------------------

NAMES = ["a0", "a1", "a2", "a3", "p1", "p2"]


@st.composite
def netd_files(draw):
    pins = draw(st.lists(st.tuples(st.sampled_from(NAMES),
                                   st.sampled_from(["s", "l", "l", "x"]),
                                   st.sampled_from(["B", "I", "O", ""])),
                         max_size=12))
    header = ["0", str(len(pins)), str(sum(m == "s" for _, m, _ in pins)),
              str(len({name for name, _, _ in pins})), "0"]
    header = [_token(draw, h, ODD_INTS, True) for h in header]
    lines = header[:draw(st.integers(3, 5))] if not draw(
        st.integers(0, 9)) else header
    lines += [" ".join(filter(None, pin)) for pin in pins]
    return _mutate(draw, "\n".join(lines).encode())


@st.composite
def are_files(draw):
    lines = [f"{draw(st.sampled_from(NAMES))} "
             f"{draw(st.sampled_from(AREAS))}"
             for _ in range(draw(st.integers(0, 6)))]
    return _mutate(draw, "\n".join(lines).encode())


_JSON_SCALARS = st.one_of(
    st.integers(-3, 6), st.sampled_from([2**63, 10**30, -(2**63)]),
    st.floats(allow_nan=True, allow_infinity=True), st.booleans(),
    st.none(), st.sampled_from(["", "a", "3"]))


@st.composite
def json_files(draw):
    values = st.recursive(_JSON_SCALARS,
                          lambda inner: st.lists(inner, max_size=4),
                          max_leaves=12)
    data = {}
    for key, strategy in (("num_modules", _JSON_SCALARS),
                          ("nets", values), ("areas", values),
                          ("net_weights", values), ("name", values)):
        if draw(st.integers(0, 5)):
            data[key] = draw(strategy)
    if draw(st.integers(0, 5)) == 0:
        data = draw(values)
    return _mutate(draw, json.dumps(data).encode())


def _named_failure_only(read, path):
    try:
        read(path)
    except ReproError:
        pass


@FUZZ
@given(data=netd_files(), are=st.none() | are_files())
def test_netd_failures_are_named(scratch, data, are):
    are_path = None if are is None else _write(scratch, "c.are", are)
    _named_failure_only(lambda p: read_netd(p, are_path=are_path),
                        _write(scratch, "c.netD", data))


@FUZZ
@given(data=are_files())
def test_are_failures_are_named(scratch, data):
    _named_failure_only(read_are, _write(scratch, "c.are", data))


@FUZZ
@given(data=json_files())
def test_json_failures_are_named(scratch, data):
    try:
        parsed = json.loads(data)
    except (ValueError, RecursionError):
        parsed = None
    assume(not (isinstance(parsed, dict)
                and type(parsed.get("num_modules")) is int
                and parsed["num_modules"] in _ALLOCATING))
    _named_failure_only(read_json, _write(scratch, "c.json", data))


def test_deeply_nested_json_is_a_parse_error(tmp_path):
    path = _write(tmp_path, "deep.json", b"[" * 100_000 + b"]" * 100_000)
    with pytest.raises(ParseError):
        read_json(path)
