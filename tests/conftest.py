"""Shared fixtures: reference automata and Coxeter matrices used across tests."""

import random

import pytest

from weightcell.automata import Automaton
from weightcell.coxeter import CoxeterSystem


def dihedral_system(m: int) -> CoxeterSystem:
    """I2(m); m = 0 encodes the infinite dihedral group."""
    return CoxeterSystem(("s", "t"), ((1, m), (m, 1)))


def triangle_system(p: int, q: int, r: int) -> CoxeterSystem:
    """Triangle group with (su)^p = (st)^q = (tu)^r = 1."""
    return CoxeterSystem(
        ("s", "t", "u"),
        ((1, q, p), (q, 1, r), (p, r, 1)),
    )


def b_series_system(n: int) -> CoxeterSystem:
    """Finite hyperoctahedral series: chain of bonds 3 ending in a bond 4."""
    names = tuple(f"s{i}" for i in range(1, n + 1))
    mat = [[2] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = 1
    for i in range(n - 1):
        m = 4 if i == n - 2 else 3
        mat[i][i + 1] = mat[i + 1][i] = m
    return CoxeterSystem(names, tuple(tuple(row) for row in mat))


def f4_system() -> CoxeterSystem:
    names = ("s1", "s2", "s3", "s4")
    mat = [
        [1, 3, 2, 2],
        [3, 1, 4, 2],
        [2, 4, 1, 3],
        [2, 2, 3, 1],
    ]
    return CoxeterSystem(names, tuple(tuple(row) for row in mat))


def affine_c_system(n: int) -> CoxeterSystem:
    """Affine series with bonds 4 at both ends of a 3-chain (rank n+1)."""
    names = tuple(f"s{i}" for i in range(n + 1))
    mat = [[2] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        mat[i][i] = 1
    if n == 1:
        mat[0][1] = mat[1][0] = 0  # infinite bond
    else:
        for i in range(n):
            m = 4 if i in (0, n - 1) else 3
            mat[i][i + 1] = mat[i + 1][i] = m
    return CoxeterSystem(names, tuple(tuple(row) for row in mat))


def affine_b_system(n: int) -> CoxeterSystem:
    """Affine series with a fork (s0, s1 both bonded 3 to s2) and a final bond 4."""
    if n < 3:
        raise ValueError("rank must be at least 3")
    names = tuple(f"s{i}" for i in range(n + 1))
    mat = [[2] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        mat[i][i] = 1
    mat[0][2] = mat[2][0] = 3
    mat[1][2] = mat[2][1] = 3
    for i in range(2, n):
        m = 4 if i == n - 1 else 3
        mat[i][i + 1] = mat[i + 1][i] = m
    return CoxeterSystem(names, tuple(tuple(row) for row in mat))


def affine_f4_system() -> CoxeterSystem:
    names = ("s0", "s1", "s2", "s3", "s4")
    mat = [[2] * 5 for _ in range(5)]
    for i in range(5):
        mat[i][i] = 1
    bonds = {(0, 1): 3, (1, 2): 3, (2, 3): 4, (3, 4): 3}
    for (i, j), m in bonds.items():
        mat[i][j] = mat[j][i] = m
    return CoxeterSystem(names, tuple(tuple(row) for row in mat))


def dihedral_reduced_words_automaton() -> Automaton:
    """3-state DFA for the reduced words (alternating words) of the infinite
    dihedral group: start 0, all states accept, s/t edges."""
    return Automaton(
        alphabet=("s", "t"),
        n_states=3,
        start=0,
        accept=frozenset({0, 1, 2}),
        transitions=(
            (0, 0, 1),  # s
            (0, 1, 2),  # t
            (1, 1, 2),
            (2, 0, 1),
        ),
    )


def dihedral_cell_nfa() -> Automaton:
    """Hand-coded 9-state cell NFA for the weight (1, -1) on the automaton
    above: circuit-free prefix tree plus one zero-weight circuit copy per
    prefix vertex, single accept state at the word 's'."""
    # vertices: 0=empty 1=s 2=t 3=st 4=ts 5..8 = circuit copies at s,t,st,ts
    s, t = 0, 1
    return Automaton(
        alphabet=("s", "t"),
        n_states=9,
        start=0,
        accept=frozenset({1}),
        transitions=(
            (0, s, 1),
            (0, t, 2),
            (1, t, 3),
            (2, s, 4),
            (1, t, 5),
            (5, s, 1),
            (2, s, 6),
            (6, t, 2),
            (3, s, 7),
            (7, t, 3),
            (4, t, 8),
            (8, s, 4),
        ),
    )


def dihedral_cell_dfa() -> Automaton:
    """Minimal 3-state DFA of the language {s, sts, ststs, ...}."""
    s, t = 0, 1
    return Automaton(
        alphabet=("s", "t"),
        n_states=3,
        start=0,
        accept=frozenset({1}),
        transitions=((0, s, 1), (1, t, 2), (2, s, 1)),
    )


def triangle_333_shortlex_automaton() -> Automaton:
    """Known 13-state minimal shortlex automaton of the (3,3,3) triangle
    group with generator order s < t < u."""
    s, t, u = 0, 1, 2
    edges = [
        (0, s, 1), (0, t, 2), (0, u, 3),
        (1, t, 2), (1, u, 3),
        (2, s, 4), (2, u, 3),
        (3, s, 5), (3, t, 6),
        (4, u, 3),
        (5, t, 7),
        (6, s, 8),
        (7, s, 4), (7, u, 9),
        (8, u, 10),
        (9, s, 11),
        (10, t, 6),
        (11, t, 12),
        (12, u, 9),
    ]
    return Automaton(("s", "t", "u"), 13, 0, frozenset(range(13)), tuple(edges))


def triangle_246_shortlex_automaton() -> Automaton:
    """Known 13-state minimal shortlex automaton of the (2,4,6) triangle
    group (bond labels m_su=2, m_st=4, m_tu=6), generator order s < t < u."""
    s, t, u = 0, 1, 2
    edges = [
        (0, s, 1), (0, t, 2), (0, u, 3),
        (1, t, 2), (1, u, 3),
        (2, s, 10), (2, u, 3),
        (3, t, 4),
        (4, s, 10), (4, u, 5),
        (5, t, 6),
        (6, s, 7), (6, u, 12),
        (7, t, 11), (7, u, 8),
        (8, t, 9),
        (9, s, 11), (9, u, 5),
        (10, t, 11), (10, u, 3),
        (11, u, 3),
    ]
    return Automaton(("s", "t", "u"), 13, 0, frozenset(range(13)), tuple(edges))


def single_cycle_automaton(n: int) -> Automaton:
    """s^(n-1) from state 0 to the accept state n-1, then t back to 0: one
    circuit through n states, deeper than Python's default recursion limit
    for n in the thousands."""
    edges = tuple((q, 0, q + 1) for q in range(n - 1)) + ((n - 1, 1, 0),)
    return Automaton(("s", "t"), n, 0, frozenset({n - 1}), edges)


def random_automaton(rng: random.Random, max_states: int = 5, n_letters: int = 2) -> Automaton:
    n = rng.randint(1, max_states)
    edges = set()
    for src in range(n):
        for letter in range(n_letters):
            for dst in range(n):
                if rng.random() < 0.3:
                    edges.add((src, letter, dst))
    accept = frozenset(q for q in range(n) if rng.random() < 0.5)
    alphabet = tuple("stuvw"[:n_letters])
    return Automaton(alphabet, n, rng.randint(0, n - 1), accept, tuple(edges))


@pytest.fixture
def ex_dihedral():
    return dihedral_reduced_words_automaton()


@pytest.fixture
def ex_cell_nfa():
    return dihedral_cell_nfa()


@pytest.fixture
def ex_cell_dfa():
    return dihedral_cell_dfa()


@pytest.fixture(scope="session")
def fig_333():
    return triangle_333_shortlex_automaton()


@pytest.fixture(scope="session")
def fig_246():
    return triangle_246_shortlex_automaton()


@pytest.fixture(scope="session")
def sys_246():
    return triangle_system(2, 4, 6)


@pytest.fixture(scope="session")
def sys_333():
    return triangle_system(3, 3, 3)


def shortlex_key(w):
    return (len(w), w)
