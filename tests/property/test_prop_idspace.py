"""Property-based tests for identifier-space arithmetic laws."""

from hypothesis import given
from hypothesis import strategies as st

from repro.chord.idspace import IdSpace

BITS = st.integers(min_value=2, max_value=24)


@st.composite
def space_and_ids(draw, count: int = 2):
    bits = draw(BITS)
    space = IdSpace(bits)
    idents = [
        draw(st.integers(min_value=0, max_value=space.max_id)) for _ in range(count)
    ]
    return (space, *idents)


class TestDistanceLaws:
    @given(space_and_ids(2))
    def test_cw_antisymmetry(self, args):
        space, a, b = args
        if a == b:
            assert space.cw(a, b) == 0
        else:
            assert space.cw(a, b) + space.cw(b, a) == space.size

    @given(space_and_ids(3))
    def test_cw_triangle_modular(self, args):
        # Walking a->b->c clockwise covers the same ground as a->c modulo
        # full laps.
        space, a, b, c = args
        assert (space.cw(a, b) + space.cw(b, c)) % space.size == space.cw(a, c)

    @given(space_and_ids(1), st.integers(min_value=-10**9, max_value=10**9))
    def test_wrap_idempotent(self, args, value):
        space, _ = args
        assert space.wrap(space.wrap(value)) == space.wrap(value)
        assert 0 <= space.wrap(value) < space.size


class TestIntervalLaws:
    @given(space_and_ids(3))
    def test_open_interval_partition(self, args):
        # For a != b, every x is in exactly one of: {a}, {b}, (a,b), (b,a).
        space, x, a, b = args
        if a == b:
            return
        memberships = [
            x == a,
            x == b,
            space.in_open(x, a, b),
            space.in_open(x, b, a),
        ]
        assert sum(bool(m) for m in memberships) == 1

    @given(space_and_ids(3))
    def test_half_open_right_vs_open(self, args):
        space, x, a, b = args
        if a == b:
            return
        assert space.in_half_open_right(x, a, b) == (
            space.in_open(x, a, b) or x == b
        )

    @given(space_and_ids(2))
    def test_finger_start_strictly_advances(self, args):
        space, ident, _ = args
        previous = 0
        for j in range(space.bits):
            offset = space.cw(ident, space.finger_start(ident, j))
            assert offset == 1 << j
            assert offset > previous or j == 0
            previous = offset
