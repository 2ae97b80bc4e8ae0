"""Root systems: closure generation, Killing products, structure constants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import (Root, inner, is_root, n_magnitude, positive_root_objects,
                     positive_roots_by_objects, root_string, signed_n,
                     structure_constants_by_objects)

from crosscontact import rootsys
from crosscontact.rootsys import RootSystemError, SimpleBasis


def build(tag: str, n: int = 0) -> rootsys.RootSystem:
    basis = {"A": SimpleBasis.A, "C": SimpleBasis.C}.get(tag)
    return rootsys.RootSystem.of(basis(n) if basis else SimpleBasis.F4())


@pytest.mark.parametrize("tag,n,alg_dim", [
    ("A", 2, 8), ("A", 3, 15), ("A", 4, 24), ("A", 6, 48),
    ("C", 2, 10), ("C", 3, 21), ("C", 4, 36),
    ("F4", 4, 52),
])
def test_positive_root_count(tag, n, alg_dim):
    """Number of positive roots equals (dim - rank) / 2."""
    rs = build(tag, n)
    assert len(rs.positive_roots) == (alg_dim - n) // 2


def test_f4_maximal_root():
    rs = build("F4")
    assert rs.positive_roots[-1] == (2, 3, 4, 2)


@pytest.mark.parametrize("tag,n", [("A", 3), ("C", 3), ("F4", 4)])
def test_maximal_root_dominates(tag, n):
    rs = build(tag, n)
    mu = rs.positive_roots[-1]
    assert all(m >= c for r in rs.positive_roots for m, c in zip(mu, r))


@pytest.mark.parametrize("tag,n", [("A", 2), ("A", 4), ("C", 4), ("F4", 4)])
def test_killing_self_consistency(tag, n):
    """<a, b> = sum over all roots g of <a, g><b, g> (independent recheck)."""
    rs = build(tag, n)
    coeff = np.array(rs.positive_roots, dtype=float)
    prods = coeff @ rs.gram
    assert np.max(np.abs(rs.gram - 2.0 * prods.T @ prods)) < 1e-12


def test_c_family_long_root_last():
    """In the C-layout used here the last simple root is the long one."""
    rs = build("C", 3)
    simple = [tuple(int(i == j) for i in range(3)) for j in range(3)]
    lens = [inner(rs, a, a) for a in simple]
    assert lens[2] == pytest.approx(2 * lens[0])
    assert lens[0] == pytest.approx(lens[1])


@pytest.mark.parametrize("tag,n", [("A", 3), ("C", 3), ("F4", 4)])
def test_structure_constant_magnitudes(tag, n):
    """|N(a, b)|^2 = q(1 - p)/2 * <a, a> over all positive special pairs."""
    rs = build(tag, n)
    pos = positive_root_objects(rs)
    for a in pos:
        for b in pos:
            if a.coeffs >= b.coeffs or not is_root(rs, a + b):
                continue
            p, q = root_string(rs, a, b)
            want = math.sqrt(q * (1 - p) / 2.0 * inner(rs, a.coeffs, a.coeffs))
            assert abs(signed_n(rs, a, b)) == pytest.approx(want)


def test_structure_constant_symmetries():
    """N(a,b) = -N(b,a) = -N(-a,-b) and the cyclic identity for a+b+c = 0."""
    rs = build("C", 3)
    pos = positive_root_objects(rs)
    for a in pos:
        for b in pos:
            if a.coeffs == b.coeffs or not is_root(rs, a + b):
                continue
            nab = signed_n(rs, a, b)
            assert signed_n(rs, b, a) == pytest.approx(-nab)
            assert signed_n(rs, -a, -b) == pytest.approx(-nab)
            c = -(a + b)  # a + b + c = 0: N(a,b) = N(b,c) = N(c,a)
            assert signed_n(rs, b, c) == pytest.approx(nab)
            assert signed_n(rs, c, a) == pytest.approx(nab)


def test_extraspecial_pairs_positive():
    rs = build("A", 3)
    pos = positive_root_objects(rs)
    for gamma in pos:
        if gamma.height < 2:
            continue
        pairs = [(a, gamma - a) for a in pos
                 if (gamma - a).is_positive() and is_root(rs, gamma - a)
                 and a.sort_key() < (gamma - a).sort_key()]
        a1, b1 = min(pairs, key=lambda ab: ab[0].sort_key())
        assert signed_n(rs, a1, b1) > 0


def recursive_signed_n(rs: rootsys.RootSystem):
    """N(a, b) from a dict of positive pairs, read through (*) and (**).

    This is the assignment that RootSystem.n replaced: the Jacobi sign
    propagation fills the dict for positive pairs only, and every other
    pair is reduced to it recursively, N(a, b) = -N(b, a) = -N(-a, -b) and
    N(a, b) = N(b, c) = N(c, a) for c = -(a + b).
    """
    table = {}

    def signed_n(a: Root, b: Root) -> float:
        s = a + b
        if not is_root(rs, s):
            return 0.0
        apos, bpos = a.is_positive(), b.is_positive()
        if apos and bpos:
            return table[(a.coeffs, b.coeffs)]
        if not apos and not bpos:
            return -table[((-a).coeffs, (-b).coeffs)]
        if not apos:  # reduce to the (positive, negative) case
            return -signed_n(b, a)
        # a > 0, b < 0; cycle (a, b, -s): N(a,b) = N(b,-s) = N(-s,a)
        if s.is_positive():
            return -table[((-b).coeffs, s.coeffs)]
        return table[((-s).coeffs, a.coeffs)]

    def put(a: Root, b: Root, val: float):
        table[(a.coeffs, b.coeffs)] = val
        table[(b.coeffs, a.coeffs)] = -val

    pos = positive_root_objects(rs)
    order = {r.coeffs: i for i, r in enumerate(pos)}
    for gamma in pos:
        if gamma.height < 2:
            continue
        pairs = sorted(((a, gamma - a) for a in pos
                        if a.sort_key() < gamma.sort_key()
                        and (gamma - a).coeffs in order
                        and order[a.coeffs] <= order[(gamma - a).coeffs]),
                       key=lambda ab: ab[0].sort_key())
        a1, b1 = pairs[0]
        put(a1, b1, n_magnitude(rs, a1, b1))
        for alpha, beta in pairs[1:]:
            denom = signed_n(gamma, -a1)
            t1 = signed_n(-a1, alpha)
            t1 = t1 * signed_n(alpha - a1, beta) if t1 else 0.0
            t2 = signed_n(beta, -a1)
            t2 = t2 * signed_n(beta - a1, alpha) if t2 else 0.0
            put(alpha, beta, -(t1 + t2) / denom)
    return signed_n


@pytest.mark.parametrize("tag,n", [("A", n) for n in range(2, 7)]
                         + [("C", n) for n in range(2, 6)] + [("F4", 4)])
def test_signed_table_matches_recursive_reduction(tag, n):
    """RootSystem.n equals the recursive reduction bit for bit on all signed pairs."""
    rs = build(tag, n)
    oracle = recursive_signed_n(rs)
    pos = positive_root_objects(rs)
    signed = pos + [-r for r in pos]
    for a in signed:
        for b in signed:
            assert signed_n(rs, a, b) == oracle(a, b), (a.coeffs, b.coeffs)


def test_signed_n_rejects_non_roots():
    rs = build("A", 3)
    a, b = positive_root_objects(rs)[:2]
    with pytest.raises(RootSystemError, match="not a root"):
        signed_n(rs, a + a, b)
    with pytest.raises(RootSystemError, match="not a root"):
        signed_n(rs, a, a - a)


@given(st.lists(st.integers(-4, 4), min_size=2, max_size=6))
def test_root_negation_involution(coeffs):
    r = Root(tuple(coeffs))
    assert (-(-r)).coeffs == r.coeffs
    assert (r + (-r)).coeffs == tuple(0 for _ in coeffs)
    assert (-r).height == -r.height


def test_invalid_cartan_matrix_rejected():
    with pytest.raises(RootSystemError):
        SimpleBasis(np.array([[2, 1], [1, 2]]))
    with pytest.raises(RootSystemError):
        SimpleBasis(np.array([[2, -1], [0, 2]]))
    with pytest.raises(RootSystemError, match="square"):
        SimpleBasis(np.array([[2, -1, 0], [-1, 2, -1]]))
    with pytest.raises(RootSystemError, match="square"):
        SimpleBasis(np.array([2, 2]))
    with pytest.raises(RootSystemError):
        rootsys.cartan_matrix_C(1)


@pytest.mark.parametrize("tag,n", [("A", n) for n in range(2, 7)]
                         + [("C", n) for n in range(2, 6)] + [("F4", 4), ("A", 20)])
def test_pair_table_positions_match_broadcast_search(tag, n):
    """sum_index and diff_index equal a search of every root for every candidate."""
    rs = build(tag, n)
    t = rs.pair_tables()
    coeffs = t.coeffs

    def position(vecs):  # the all-pairs comparison the sorted keys replaced
        hit = (vecs[..., None, :] == coeffs).all(axis=-1)
        return np.where(hit.any(axis=-1), hit.argmax(axis=-1), -1)

    for got, vecs in ((t.sum_index, coeffs[:, None] + coeffs[None]),
                      (t.diff_index, coeffs[:, None] - coeffs[None])):
        want = np.array([position(row) for row in vecs])  # a row at a time: small memory
        assert got.dtype.kind == "i" and np.array_equal(got, want)
        assert (want >= 0).any() and (want < 0).any()


@pytest.mark.parametrize("tag,n", [("A", n) for n in range(2, 7)]
                         + [("C", n) for n in range(2, 6)] + [("F4", 4), ("A", 20)])
def test_tuple_build_bytes_equal_root_objects(tag, n):
    """The tuple generator and assigner give the roots, Gram matrix and
    structure constants of the Root-object oracle, byte for byte."""
    rs = build(tag, n)
    roots = positive_roots_by_objects(rs.basis)
    want = structure_constants_by_objects(rs.basis, roots, rootsys.killing_gram(rs.basis, roots))
    assert rs.positive_roots == want.positive_roots
    assert rs.gram.tobytes() == want.gram.tobytes()
    assert rs.n.tobytes() == want.n.tobytes()


def test_root_system_rejects_a_non_positive_root():
    with pytest.raises(RootSystemError, match="not positive"):
        rootsys.RootSystem(SimpleBasis.A(2), ((1, 0), (1, -1)), np.eye(2), np.zeros((4, 4)))


def test_pair_tables_reject_keys_beyond_int64():
    """Coefficients whose box of keys does not fit in an int64 raise, not wrap."""
    rs = rootsys.RootSystem(SimpleBasis.A(3), ((1 << 21,) * 3,), np.eye(3), np.zeros((2, 2)))
    with pytest.raises(RootSystemError, match="integer key"):
        rs.pair_tables()


def test_simple_basis_is_its_cartan_matrix():
    """The rank is the size of the Cartan matrix, not a second field."""
    assert tuple(f.name for f in dataclasses.fields(SimpleBasis)) == ("cartan_matrix",)
    assert (SimpleBasis.A(3).rank, SimpleBasis.C(4).rank, SimpleBasis.F4().rank) == (3, 4, 4)
