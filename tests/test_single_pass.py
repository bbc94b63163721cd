"""The one-pass primitives of the sparse layer against the validating reference.

``SeqVec``'s ``+``, ``-``, ``*`` and negation check and prune their results
in one pass, ``distance(u, v)`` reads ``norm(u - v)`` without building the
difference, ``norm`` sums the unsorted entries, and ``is_member`` decides
membership by index alone.  Each is compared here with the reference it
replaces: the checking constructor ``SeqVec(raw)`` on the same raw dict, the
norm summed in index order, and ``membership_defect(...) == 0.0``.  Results
must agree bit for bit and in stored order; where the reference raises, the
same exception type with the same message.
"""

import math

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from orbitlab import (
    PrefixZero,
    ResidueZero,
    RightBlockZero,
    SeqVec,
    SupportIn,
    distance,
    is_member,
    membership_defect,
    norm,
)
from orbitlab.seqspace import PRUNE_MODULUS, _checked
from conftest import _outcome

# Stored values: every decade from 1e-300 to 1e307, and values that make
# sums and products leave the float range (as an infinite part, or as a
# finite value whose modulus ``abs`` cannot return), land on either side
# of PRUNE_MODULUS, or give norms below 2**-500 and above 1.3e154.
EDGES = [
    PRUNE_MODULUS,
    math.nextafter(PRUNE_MODULUS, math.inf),
    -1.5 * PRUNE_MODULUS,
    2.5e-300j,
    1e-160,
    3e-151j,
    1.3e154,
    -2e154j,
    1e200 + 1e200j,
    1.7976931348623157e308,
    -1.7e308j,
    1.2e308 + 1.2e308j,
    -1e307 - 1e307j,
]
_magnitudes = st.builds(
    lambda m, e, sign: sign * m * 10.0**e,
    st.floats(1.0, 10.0, exclude_max=True),
    st.integers(-300, 307),
    st.sampled_from([1.0, -1.0]),
)
_parts = st.one_of(st.just(0.0), _magnitudes)
values = st.one_of(
    st.sampled_from(EDGES),
    st.builds(complex, _parts, _parts),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
).filter(lambda z: math.hypot(z.real, z.imag) < math.inf)  # abs does not overflow
# Insertion order is part of a vector: it decides which bad value raises first.
vectors = st.lists(st.tuples(st.integers(0, 6), values), max_size=6).map(
    lambda pairs: SeqVec(dict(pairs))
)
scalars = st.one_of(
    values,
    st.sampled_from(
        [0.0, 1.0, -1.0, 2.0, 0.5, 1j, 1e-10, 1e10, 1e300, 1e-300, math.nextafter(1.0, 0.0)]
    ),
    st.sampled_from([math.inf, -math.inf * 1j, math.nan]),
)
patterns = st.one_of(
    st.builds(PrefixZero, st.integers(0, 4)),
    st.integers(2, 4).flatmap(lambda b: st.builds(ResidueZero, st.integers(0, b - 1), st.just(b))),
    st.builds(SupportIn, st.integers(1, 3)),
    st.builds(RightBlockZero, st.integers(1, 8)),
)


def _stored(fn):
    """``fn()``'s stored entries with their bits, in stored order, or its error."""
    try:
        vec = fn()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [(i, z.real.hex(), z.imag.hex()) for i, z in vec._entries.items()]


def _raw_sum(u, v, sign):
    # How the arithmetic lays out its raw entries: u's keys in order, then v's new ones.
    out = dict(u._entries)
    for i, z in v._entries.items():
        out[i] = out.get(i, 0j) + z if sign > 0 else out.get(i, 0j) - z
    return out


def _index_order_norm(v):
    """``norm`` as it was first written, summed in index order."""
    entries = v.items()
    try:
        r = math.sqrt(math.fsum(z.real * z.real + z.imag * z.imag for _, z in entries))
    except OverflowError:
        r = math.inf
    if r == math.inf or (r < 2.0**-500 and entries):
        scale = max(abs(z) for _, z in entries)
        r = scale * math.sqrt(
            math.fsum((z.real / scale) ** 2 + (z.imag / scale) ** 2 for _, z in entries)
        )
    return r


@seed(31)
@settings(max_examples=80, deadline=None)
@given(vectors, vectors)
def test_add_and_sub_match_the_checking_constructor(u, v):
    assert _stored(lambda: u + v) == _stored(lambda: SeqVec(_raw_sum(u, v, +1)))
    assert _stored(lambda: u - v) == _stored(lambda: SeqVec(_raw_sum(u, v, -1)))


@seed(32)
@settings(max_examples=80, deadline=None)
@given(vectors, scalars)
def test_mul_and_neg_match_the_checking_constructor(v, c):
    def reference():
        k = _checked(c)
        return SeqVec({i: z * k for i, z in v._entries.items()})

    expected = _stored(reference)
    assert _stored(lambda: v * c) == expected
    assert _stored(lambda: c * v) == expected
    assert _stored(lambda: -v) == _stored(lambda: SeqVec({i: -z for i, z in v._entries.items()}))


@seed(33)
@settings(max_examples=80, deadline=None)
@given(vectors, vectors)
def test_distance_matches_the_norm_of_the_difference(u, v):
    expected = _outcome(lambda: _index_order_norm(SeqVec(_raw_sum(u, v, -1))))
    assert _outcome(lambda: norm(u - v)) == expected
    assert _outcome(lambda: distance(u, v)) == expected


@seed(34)
@settings(max_examples=60, deadline=None)
@given(vectors)
def test_norm_of_the_unsorted_entries_matches_index_order(v):
    backwards = SeqVec(dict(reversed(v.items())))
    assert norm(v) == norm(backwards) == _index_order_norm(v)


@seed(35)
@settings(max_examples=60, deadline=None)
@given(vectors, patterns)
def test_is_member_matches_a_zero_defect(v, pattern):
    assert is_member(v, pattern) == (membership_defect(v, pattern) == 0.0)


def test_the_edge_cases_are_reached():
    big = SeqVec({0: 1.2e308 + 1.2e308j})
    # A non-finite sum, and a finite one whose modulus overflows.
    assert _stored(lambda: big + big) == (ValueError, "non-finite coefficient (inf+infj)")
    small = SeqVec({0: 1e307 + 1e307j})
    assert _stored(lambda: big + small) == (OverflowError, "absolute value too large")
    # A finite product whose modulus overflows, and one just inside the range.
    assert _stored(lambda: big * 1.06) == (OverflowError, "absolute value too large")
    assert (big * 1.05)._entries == {0: 1.26e308 + 1.26e308j}
    # The non-finite value raises even when an overflowing one comes first.
    pair = SeqVec({0: 1.2e308 + 1.2e308j, 1: 1.7e308})
    assert _stored(lambda: pair + SeqVec({0: 1e307 + 1e307j, 1: 1.7e308})) == (
        ValueError,
        "non-finite coefficient (inf+0j)",
    )
    # Either side of the prune threshold.
    edge = SeqVec({0: 2 * PRUNE_MODULUS})
    assert (edge - SeqVec({0: PRUNE_MODULUS}))._entries == {0: PRUNE_MODULUS}
    assert not SeqVec({0: PRUNE_MODULUS}) * math.nextafter(1.0, 0.0)
    assert (SeqVec({0: 3e-300}) - SeqVec({0: 2e-300}))._entries == {0: 1.0000000000000002e-300}
    # Norms below 2**-500 and past 1.3e154 take the rescaled sum.
    tiny, huge = SeqVec({0: 1e-160, 3: 2e-160j}), SeqVec({0: 1e200, 3: -1e200j})
    assert distance(tiny, SeqVec()) == norm(tiny) == _index_order_norm(tiny) > 0.0
    assert distance(huge, SeqVec()) == norm(huge) == _index_order_norm(huge) < math.inf
