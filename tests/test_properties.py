from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import orbit_of
from orbitlab.formulas import f_closed, r_formula, r_telescoped
from orbitlab.orbits import canonical_form
from orbitlab.residues import (
    GroupSpec,
    PairState,
    ResidueVector,
    apply_s,
    apply_t,
    state_from_index,
    state_index,
)
from orbitlab.words import is_valid_word


@st.composite
def spec_and_index(draw):
    spec = GroupSpec(draw(st.sampled_from([2, 3, 5, 7])),
                     draw(st.integers(min_value=0, max_value=3)))
    i = draw(st.integers(min_value=0, max_value=spec.state_count - 1))
    return spec, i


@st.composite
def valid_word(draw):
    m = draw(st.integers(min_value=0, max_value=12))
    letters = []
    running = 1
    for _ in range(m):
        a = draw(st.integers(min_value=1, max_value=min(4, running + 1)))
        letters.append(a)
        running = max(running, a)
    return tuple(letters)


@given(spec_and_index())
def test_index_round_trip(si):
    spec, i = si
    assert state_index(state_from_index(i, spec)) == i


@given(spec_and_index())
def test_s_move_has_order_four(si):
    spec, i = si
    s = state_from_index(i, spec)
    out = s
    for _ in range(4):
        out = apply_s(out)
    assert out == s


@given(spec_and_index())
def test_two_s_moves_negate(si):
    spec, i = si
    s = state_from_index(i, spec)
    twice = apply_s(apply_s(s))
    assert twice == PairState(-s.g, -s.k)


@given(spec_and_index())
def test_t_walk_of_lcm_length_returns(si):
    spec, i = si
    s = state_from_index(i, spec)
    out = s
    for _ in range(spec.p):
        out = apply_t(out)
    assert out == s


@given(valid_word())
def test_prefixes_of_valid_words_are_valid(letters):
    assert is_valid_word(letters)
    for cut in range(len(letters) + 1):
        assert is_valid_word(letters[:cut])


@given(st.lists(st.integers(min_value=-2, max_value=9), max_size=10))
def test_is_valid_word_total(letters):
    assert isinstance(is_valid_word(letters), bool)


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=3), st.integers(min_value=0, max_value=2),
       st.data())
def test_canonical_form_constant_on_random_orbits(p, n, data):
    spec = GroupSpec.uniform(p, n)
    i = data.draw(st.integers(min_value=0, max_value=spec.state_count - 1))
    s = state_from_index(i, spec)
    canon = canonical_form(s)
    orbit = orbit_of(s)
    assert canon in orbit
    assert all(canonical_form(t) == canon for t in orbit)
    assert min(state_index(t) for t in orbit) == state_index(canon)


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(min_value=1, max_value=40))
def test_telescoping_identity(p, n):
    assert r_telescoped(p, n) == r_formula(p, n)
    assert r_formula(p, n + 1) - r_formula(p, n) == f_closed(p, n)
