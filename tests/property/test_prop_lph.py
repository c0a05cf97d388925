"""Property-based tests for locality-preserving hashing (MAAN's foundation)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.chord.hashing import LocalityPreservingHash
from repro.chord.idspace import IdSpace


@st.composite
def hash_and_values(draw, count: int = 2):
    bits = draw(st.integers(min_value=8, max_value=32))
    low = draw(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    width = draw(st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))
    h = LocalityPreservingHash(IdSpace(bits), low=low, high=low + width)
    values = [
        draw(st.floats(min_value=low, max_value=low + width, allow_nan=False))
        for _ in range(count)
    ]
    return (h, *values)


class TestMonotonicity:
    @given(hash_and_values(2))
    def test_order_preserved(self, args):
        h, a, b = args
        if a <= b:
            assert h(a) <= h(b)
        else:
            assert h(a) >= h(b)

    @given(hash_and_values(1))
    def test_image_in_space(self, args):
        h, v = args
        assert 0 <= h(v) <= h.space.max_id

    @given(hash_and_values(1))
    def test_clamping_is_boundary_image(self, args):
        h, _ = args
        assert h(h.low - 1e9) == h(h.low)
        assert h(h.high + 1e9) == h(h.high)


class TestRangeContiguity:
    @given(hash_and_values(3))
    def test_value_between_hashes_between(self, args):
        # The MAAN range-query guarantee: if l <= v <= u then
        # H(l) <= H(v) <= H(u), so v's record lies on the queried arc.
        h, a, b, c = args
        lo, mid, hi = sorted((a, b, c))
        assert h(lo) <= h(mid) <= h(hi)
