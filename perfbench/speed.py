"""Machine-speed calibration, so that timings on a shared host can be compared.

On a shared host the same pure-Python code runs up to 1.7 times slower in
some minutes than in others, with CPU time equal to wall time (the slowdown
is not waiting for a CPU, so CPU time does not remove it).  A run therefore
interleaves short, fixed calibration chunks with the requests it measures:
one at the start of every pass, one before each request that starts at least
``GAP_S`` after the previous chunk, and one at the end of every pass.  A
request's latency is then scaled by ``REF_S`` / (mean of the chunk before it
and the chunk after it), which gives its time at the speed where one chunk
takes ``REF_S``.  Raw times are kept and printed next to the scaled ones.

The chunk has two parts.  The first runs tight loops: an integer loop,
building a 20,000-key dict with lookups and a keyed sort, and lookups in a
50-key dict.  The second, run twice, calls pure-Python standard-library code
with a large code footprint: difflib, fractions, statistics, textwrap,
tokenize and ipaddress on fixed inputs.  Host slowdowns hit these unequally:
in a 4-minute trace on the 2-core host, scaling by the tight loops alone
left 0.065 of IQR/median in small-exact's pass times and 0.052 in
large-markets'; the large-footprint part alone left 0.043 and 0.055.  Both
together left 0.052 and 0.058 per pass, and 0.037 and 0.034 over medians of
eight passes.  The chunk runs with the garbage collector off, so that
flexq's own heap does not change its cost.
"""

from __future__ import annotations

import difflib
import fractions
import gc
import io
import ipaddress
import random
import statistics
import textwrap
import time
import tokenize

GAP_S = 0.10
# about the chunk time on the 2-core x86 host where the bounds were set, in its
# faster phases, so scaled times read close to raw ones there
REF_S = 0.030

_KEYS = [f"a{i}" for i in range(20000)]
_SHUFFLED = list(_KEYS)
random.Random(0).shuffle(_SHUFFLED)
_FEW = _KEYS[:50]

_rng = random.Random(1)
_SEQ_A = [_rng.choice("abcdefgh") for _ in range(300)]
_SEQ_B = list(_SEQ_A)
for _ in range(40):
    _SEQ_B[_rng.randrange(300)] = _rng.choice("abcdefgh")
_FRACTIONS = [fractions.Fraction(_rng.randrange(1, 50), _rng.randrange(1, 50))
              for _ in range(200)]
_WORDS = " ".join(_rng.choice(["alpha", "be", "gamma", "deltaepsilon", "z"]) for _ in range(600))
_SOURCE = "".join(f"def f{i}(x, y={i}):\n    return [x * {i} + y for _ in range({i % 7})]  # c{i}\n"
                  for i in range(20))


def _library_work() -> None:
    difflib.SequenceMatcher(None, _SEQ_A, _SEQ_B).ratio()
    sum(_FRACTIONS, fractions.Fraction(0))
    statistics.median(_FRACTIONS)
    textwrap.fill(_WORDS, 37)
    list(tokenize.generate_tokens(io.StringIO(_SOURCE).readline))
    for i in range(300):
        ipaddress.ip_address(f"10.0.{i % 256}.{i % 7}")


def chunk() -> float:
    """Seconds one fixed piece of pure-Python work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(80_000):
            acc += i * i % 7
        rank = {k: i for i, k in enumerate(_SHUFFLED)}
        for k in _KEYS:
            acc += rank[k]
        sorted(_SHUFFLED, key=rank.__getitem__)
        few = {k: i for i, k in enumerate(_FEW)}
        for i in range(60_000):
            acc += few[_FEW[i % 50]]
        _library_work()
        _library_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between chunks ``before`` and ``after``, at reference speed."""
    return seconds * REF_S * 2 / (before + after)
