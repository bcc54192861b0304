import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qlow import _bits
from qlow.ansatz import (
    Schedule,
    _leave_one_out,
    meanfield_plus,
    multilinear_gradient,
    multilinear_value,
    product_z_expectations,
    qaoa_state,
)
from qlow.errors import ConfigError
from qlow.laplacians import hypercube
from qlow.problems import (
    PROBLEMS,
    WALSH_COEFF_CUTOFF,
    DiagonalProblem,
    ZTerm,
    _dense_from_terms,
    bush,
    chain_detuned,
    conflicted_pairs,
    fisher_chain,
    freeze,
    from_dense,
    from_terms,
    grid_ferromagnet_2d,
    hamming_ramp,
    kspin_ferromagnet,
    maxcut_3regular,
    spike,
    spike_band,
    uncoupled_spins,
)
from qlow.statevector import _phase, _walsh

from conftest import small_problems


def brute_values(n, terms):
    """Reference evaluation: product of (1 - 2 z_i) per term, summed."""
    out = np.zeros(1 << n)
    for z in range(1 << n):
        total = 0.0
        for t in terms:
            prod = t.coeff
            for q in t.qubits:
                prod *= 1 - 2 * ((z >> q) & 1)
            total += prod
        out[z] = total
    return out


def test_zterm_sorts_and_rejects_duplicates():
    t = ZTerm((2, 0), 1.5)
    assert t.qubits == (0, 2)
    with pytest.raises(ValueError):
        ZTerm((1, 1), 1.0)


@settings(max_examples=50)
@given(st.integers(1, 4), st.data())
def test_from_terms_matches_brute_force(n, data):
    n_terms = data.draw(st.integers(0, 4))
    terms = []
    for _ in range(n_terms):
        size = data.draw(st.integers(0, n))
        qubits = tuple(data.draw(st.permutations(range(n)))[:size])
        coeff = data.draw(st.floats(-5, 5, allow_nan=False))
        terms.append(ZTerm(qubits, coeff))
    prob = from_terms(n, terms)
    np.testing.assert_allclose(prob.dense, brute_values(n, terms), atol=1e-10)


def test_from_dense_recovers_terms():
    rng = np.random.default_rng(3)
    values = rng.normal(size=16)
    prob = from_dense(4, values)
    np.testing.assert_allclose(brute_values(4, prob.terms), values, atol=1e-9)


def test_dense_term_consistency_guard():
    with pytest.raises(ValueError, match="dense table disagrees with term-list evaluation"):
        DiagonalProblem(2, [0b1], [1.0], np.zeros(4))


def test_dense_term_consistency_guard_above_sixteen_qubits():
    with pytest.raises(ValueError, match="dense table disagrees with term-list evaluation"):
        DiagonalProblem(17, [0b1], [1.0], np.zeros(2**17))


def scaled_cutoff(values):
    return WALSH_COEFF_CUTOFF * max(1.0, float(np.max(np.abs(values))))


def brute_scan(n, values):
    """Reference Walsh scan: every mask in ascending order, cutoff applied."""
    coeffs = _walsh(np.array(values, dtype=np.float64)) * 2.0**-n
    cutoff = scaled_cutoff(values)
    out = []
    for mask in range(1 << n):
        c = float(coeffs[mask])
        if abs(c) > cutoff:
            out.append((tuple(i for i in range(n) if (mask >> i) & 1), c))
    return out


def test_from_dense_scan_matches_per_mask_loop():
    n = 6
    coeffs = np.random.default_rng(5).normal(size=1 << n)
    coeffs[::5] = 0.0
    # max |values| > 1 here, so the cutoff is scaled; four coefficients sit
    # at twice and at half of it, of both signs
    signs = _bits.parity_signs(n, np.arange(1 << n)[:, None])
    cutoff = scaled_cutoff(signs @ coeffs)
    assert cutoff > WALSH_COEFF_CUTOFF
    near = {3: 2 * cutoff, 10: -2 * cutoff, 17: cutoff / 2, 40: -cutoff / 2}
    for mask, c in near.items():
        coeffs[mask] = c
    values = signs @ coeffs
    terms = [(t.qubits, t.coeff) for t in from_dense(n, values).terms]
    assert terms == brute_scan(n, values)
    kept = {_bits.mask_of(qs) for qs, _ in terms}
    assert {3, 10} <= kept and not {17, 40} & kept
    assert len(kept) == np.count_nonzero(np.abs(coeffs) > scaled_cutoff(values))


@pytest.mark.parametrize("scale", [1e3, 1e5, 1e7])
def test_from_dense_thresholds_scale_with_table(scale):
    # s (popcount(z) + 0.1 z_0) / 3 is an identity term plus one Z term per
    # qubit; rounding noise of the transform grows with s and must not turn
    # into terms or fail the dense-vs-terms check
    n = 12
    values = scale * (_bits.popcounts(n) + 0.1 * (_bits.indices(n) & 1)) / 3
    prob = from_dense(n, values)
    assert [t.qubits for t in prob.terms] == [()] + [(i,) for i in range(n)]
    expected = [scale * 6.05 / 3, -scale * 0.55 / 3] + [-scale * 0.5 / 3] * (n - 1)
    np.testing.assert_allclose([t.coeff for t in prob.terms], expected, rtol=1e-12)


@st.composite
def term_lists(draw, n):
    """Random terms on n qubits, always with a repeated mask and an identity term."""
    def term(mask):
        coeff = draw(st.floats(-5, 5, allow_nan=False))
        return ZTerm(tuple(i for i in range(n) if (mask >> i) & 1), coeff)

    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    return [term(m) for m in masks] + [term(masks[0]), term(0)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.data())
def test_terms_dense_round_trip(n, data):
    values = data.draw(arrays(np.float64, 1 << n, elements=st.floats(-8, 8)))
    again = from_terms(n, from_dense(n, values).terms)
    np.testing.assert_allclose(again.dense, values, rtol=0.0, atol=1e-9)

    terms = data.draw(term_lists(n))
    summed = {}
    for t in terms:
        mask = _bits.mask_of(t.qubits)
        summed[mask] = summed.get(mask, 0.0) + t.coeff
    back = from_dense(n, from_terms(n, terms).dense)
    recovered = {_bits.mask_of(t.qubits): t.coeff for t in back.terms}
    for mask in summed.keys() | recovered.keys():
        assert recovered.get(mask, 0.0) == pytest.approx(summed.get(mask, 0.0), abs=1e-9)


def test_hamming_ramp_values_are_popcounts():
    prob = hamming_ramp(5)
    expected = np.array([bin(z).count("1") for z in range(32)], dtype=float)
    np.testing.assert_allclose(prob.dense, expected, atol=1e-12)
    assert prob.f_min == 0.0 and prob.f_max == 5.0


def test_argmin_set_degenerate():
    prob = from_dense(2, np.array([1.0, 0.0, 0.0, 3.0]))
    assert list(prob.argmin_set) == [1, 2]


def test_spike_band_inward_rounding():
    # n=8, narrow band: only the single weight w=2, which is 28/256 = 0.109375
    # of the domain -- the fraction the measure-vote bound is quoted for.
    assert spike_band(8, 0.109375) == (2, 2)
    assert spike_band(8, 0.5) == (1, 3)


def test_spike_values():
    prob = spike(8, 0.5, 1.0)
    w = _bits.popcounts(8)
    inside = (w >= 1) & (w <= 3)
    np.testing.assert_allclose(prob.dense[~inside], w[~inside].astype(float))
    np.testing.assert_allclose(prob.dense[inside], w[inside] + 8.0)


def test_spike_requires_divisible_n():
    with pytest.raises(ConfigError):
        spike(6, 0.5, 1.0)


def test_bush_values():
    prob = bush(4)
    for z in range(16):
        expected = 1.0 if (z & 1) == 0 else float(bin(z).count("1"))
        assert prob.dense[z] == expected


def test_kspin_values_and_ground():
    prob = kspin_ferromagnet(5, 3)
    s = 5 - 2 * _bits.popcounts(5)
    np.testing.assert_allclose(prob.dense, -(s.astype(float) ** 3))
    assert list(prob.argmin_set) == [0]


def test_uncoupled_spins_distributions():
    for dist in ("binary", "uniform", "gaussian"):
        prob = uncoupled_spins(6, dist, seed=2)
        assert len(prob.terms) == 6
        assert all(len(t.qubits) == 1 for t in prob.terms)
    binary = uncoupled_spins(8, "binary", seed=0)
    assert all(abs(abs(t.coeff) - 1.0) < 1e-12 for t in binary.terms)
    uniform = uncoupled_spins(8, "uniform", seed=0)
    assert all(-1.0 <= t.coeff <= 1.0 for t in uniform.terms)
    with pytest.raises(ConfigError):
        uncoupled_spins(4, "cauchy", seed=0)


@pytest.mark.parametrize("dist", ["binary", "uniform", "gaussian"])
def test_uncoupled_spins_draws_the_recorded_fields(dist):
    # oracle: the per-distribution samplers uncoupled_spins used before it
    # shared one draw with the fig2 simulation
    for n, seed in itertools.product((1, 2, 5, 8, 12), range(6)):
        rng = np.random.default_rng(seed)
        if dist == "binary":
            alphas = rng.choice([-1.0, 1.0], size=n)
        elif dist == "uniform":
            alphas = rng.uniform(-1.0, 1.0, size=n)
        else:
            alphas = rng.normal(0.0, np.sqrt(0.5), size=n)
        prob = uncoupled_spins(n, dist, seed)
        assert np.array_equal(prob.coeffs, alphas), (n, seed)
        assert np.array_equal(prob.masks, 1 << np.arange(n)), (n, seed)


def test_uncoupled_ground_is_signwise():
    prob = uncoupled_spins(7, "gaussian", seed=11)
    coeffs = {t.qubits[0]: t.coeff for t in prob.terms}
    z = sum((1 << q) for q, c in coeffs.items() if c > 0)
    assert list(prob.argmin_set) == [z]


def test_conflicted_pairs_grounds():
    prob = conflicted_pairs(4, 0.5, 3.0)
    # each pair anti-aligns with the strong spin at its one-body minimum (bit 0)
    assert list(prob.argmin_set) == [0b1010]
    with pytest.raises(ConfigError):
        conflicted_pairs(5, 0.5, 3.0)
    with pytest.raises(ConfigError):
        conflicted_pairs(4, 0.5, 2.0)


def test_fisher_chain_couplings():
    prob = fisher_chain(6, seed=4)
    pair_terms = [t for t in prob.terms if len(t.qubits) == 2]
    assert len(pair_terms) == 5
    assert all(t.coeff in (-0.5, -1.0) for t in pair_terms)
    # aligned states are exact grounds at value 0
    assert prob.f_min == pytest.approx(0.0, abs=1e-12)
    assert 0 in prob.argmin_set and 63 in prob.argmin_set


def test_chain_detuned_split():
    prob = chain_detuned(5, 0.3)
    coeffs = [t.coeff for t in sorted(prob.terms, key=lambda t: t.qubits)]
    assert coeffs == [-1.0, -1.0, -0.3, -0.3]


def test_grid_ferromagnet_edges():
    prob = grid_ferromagnet_2d(3, 3, 0.5)
    assert len(prob.terms) == 12  # 3x3 grid has 12 edges
    assert {0, 511} <= set(prob.argmin_set.tolist())
    j2_edges = [t for t in prob.terms if t.coeff == -0.5]
    assert len(j2_edges) > 0


def test_maxcut_3regular_degree():
    prob = maxcut_3regular(8, 0.25, 0.5, seed=9)
    degree = np.zeros(8, dtype=int)
    edges = set()
    for t in prob.terms:
        assert len(t.qubits) == 2
        assert t.qubits not in edges  # simple graph
        edges.add(t.qubits)
        degree[list(t.qubits)] += 1
    assert np.all(degree == 3)
    assert len(edges) == 12
    k = sum(1 for t in prob.terms if t.coeff == 0.5)
    assert k == round(12 * 0.25)


def test_maxcut_seed_determinism():
    a = maxcut_3regular(10, 0.5, 0.7, seed=3)
    b = maxcut_3regular(10, 0.5, 0.7, seed=3)
    np.testing.assert_array_equal(a.dense, b.dense)
    with pytest.raises(ConfigError):
        maxcut_3regular(7, 0.5, 0.7, seed=3)


@settings(max_examples=40)
@given(small_problems(max_n=4), st.data())
def test_freeze_matches_restriction(prob, data):
    if prob.n < 2:
        return
    q = data.draw(st.integers(0, prob.n - 1))
    bit = data.draw(st.integers(0, 1))
    sub, keep = freeze(prob, {q: bit})
    assert len(keep) == prob.n - 1
    for z_sub in range(1 << sub.n):
        z_full = bit << q
        for new, orig in enumerate(keep):
            z_full |= ((z_sub >> new) & 1) << orig
        assert sub.dense[z_sub] == pytest.approx(prob.dense[z_full], abs=1e-9)


def test_freeze_all_raises():
    prob = hamming_ramp(2)
    with pytest.raises(ValueError):
        freeze(prob, {0: 0, 1: 1})


@pytest.mark.parametrize("assignment", [{9: 1}, {4: 0}, {-1: 1}, {0: 2}, {0: -1}])
def test_freeze_rejects_a_qubit_out_of_range_or_a_bit_not_0_or_1(assignment):
    with pytest.raises(ValueError, match=r"freeze takes qubits in \[0, 4\) and bits 0 or 1"):
        freeze(hamming_ramp(4), assignment)


def test_term_tables_sum_to_dense():
    prob = conflicted_pairs(6, 0.25, 3.0)
    np.testing.assert_allclose(prob.term_tables().sum(axis=0), prob.dense, atol=1e-10)


# ---------------------------------------------------------------------------
# Per-term reference loops: the code that walked ZTerms before the problem
# kept (mask, coeff) arrays, kept here to check the array kernels term by term.


def z_signs(n, qubits):
    """prod_{q in qubits} (1 - 2 z_q) for every z, as exact +-1 floats."""
    z = np.arange(1 << n)
    out = np.ones(1 << n)
    for q in qubits:
        out *= 1 - 2 * ((z >> q) & 1)
    return out


def freeze_per_term(problem, assignment):
    keep = [q for q in range(problem.n) if q not in assignment]
    relabel = {orig: new for new, orig in enumerate(keep)}
    folded = {}
    for t in problem.terms:
        coeff = t.coeff
        rest = []
        for q in t.qubits:
            if q in assignment:
                coeff *= 1.0 - 2.0 * assignment[q]
            else:
                rest.append(relabel[q])
        key = tuple(sorted(rest))
        folded[key] = folded.get(key, 0.0) + coeff
    terms = [(qs, c) for qs, c in sorted(folded.items()) if c != 0.0 or qs == ()]
    return terms, keep


def multilinear_per_term(problem, s):
    total = 0.0
    for t in problem.terms:
        total += t.coeff * float(np.prod(s[list(t.qubits)]))
    return total


def leave_one_out_per_term(problem, s):
    out = np.zeros(problem.n)
    for t in problem.terms:
        if not t.qubits:
            continue
        vals = s[list(t.qubits)]
        prod = np.prod(vals)
        for pos, q in enumerate(t.qubits):
            v = vals[pos]
            rest = prod / v if abs(v) > 1e-30 else np.prod(np.delete(vals, pos))
            out[q] += t.coeff * rest
    return out


def mixed_terms():
    """Identity terms, duplicate masks in both qubit orders, 3- and 4-body terms,
    and a pair that cancels once qubit 0 is frozen to 1."""
    return from_terms(5, [
        ZTerm((), 1.5), ZTerm((0, 2), 0.7), ZTerm((2, 0), -0.2), ZTerm((1, 3, 4), 1.1),
        ZTerm((3,), 0.4), ZTerm((), -0.25), ZTerm((4, 3, 1), 0.3), ZTerm((0, 1, 2, 3), -0.9),
        ZTerm((0, 1), 0.5), ZTerm((1,), 0.5), ZTerm((2, 3, 4), -1.3),
    ])


DIFF_PROBLEMS = {
    "mixed_terms": mixed_terms,
    # every subset of 5 qubits up to the 5-body term, in mask order
    "dense5": lambda: from_dense(5, np.random.default_rng(8).normal(size=32)),
    "kspin4": lambda: kspin_ferromagnet(6, 4),
    "grid": lambda: grid_ferromagnet_2d(2, 3, 0.5),
}
ASSIGNMENTS = [{0: 1}, {2: 0}, {0: 1, 3: 0}, {1: 1, 2: 1, 4: 0}, {0: 0, 1: 0, 2: 0, 3: 1}]


@pytest.mark.parametrize("make", DIFF_PROBLEMS.values(), ids=DIFF_PROBLEMS.keys())
def test_term_arrays_match_per_term_loops_bitwise(make):
    prob = make()
    assert prob.masks.tolist() == [_bits.mask_of(t.qubits) for t in prob.terms]
    assert prob.coeffs.tolist() == [t.coeff for t in prob.terms]
    expected = brute_values(prob.n, prob.terms)
    assert np.array_equal(_dense_from_terms(prob.n, prob.masks, prob.coeffs), expected)
    tables = np.stack([t.coeff * z_signs(prob.n, t.qubits) for t in prob.terms])
    assert np.array_equal(prob.term_tables(), tables)
    for assignment in ASSIGNMENTS:
        sub, keep = freeze(prob, assignment)
        terms, ref_keep = freeze_per_term(prob, assignment)
        assert keep == ref_keep
        assert [(t.qubits, t.coeff) for t in sub.terms] == terms
        assert np.array_equal(sub.dense, brute_values(sub.n, sub.terms))


def test_freeze_drops_cancelled_terms_and_keeps_the_identity():
    sub, _ = freeze(mixed_terms(), {0: 1})
    # 0.5 Z0 Z1 + 0.5 Z1 cancel on the new qubit 0
    assert (0,) not in [t.qubits for t in sub.terms]
    fields = from_terms(3, [ZTerm((0,), 1.0), ZTerm((1,), 1.0), ZTerm((2,), 1.0)])
    sub, _ = freeze(fields, {0: 0, 1: 1})
    # the constant folds to exactly 0 and stays as the identity term
    assert [(t.qubits, t.coeff) for t in sub.terms] == [((), 0.0), ((0,), 1.0)]


@pytest.mark.parametrize("make", DIFF_PROBLEMS.values(), ids=DIFF_PROBLEMS.keys())
def test_multilinear_kernels_match_per_term_loops(make):
    prob = make()
    rng = np.random.default_rng(prob.n)
    half = rng.uniform(0, 1, prob.n)
    half[::2] = 0.5  # spins exactly 0 on multi-qubit terms
    for x in (rng.uniform(0, 1, prob.n), half, np.full(prob.n, 0.5), (rng.uniform(size=prob.n) > 0.5) * 1.0):
        s = 1.0 - 2.0 * x
        assert multilinear_value(prob, x) == pytest.approx(multilinear_per_term(prob, s), abs=1e-12)
        np.testing.assert_allclose(
            multilinear_gradient(prob, x), -2.0 * leave_one_out_per_term(prob, s), rtol=0, atol=1e-12
        )
    # the mean-field fields of product states, with <Z_j> = 0 exactly on every
    # qubit of |+>^n and on every other qubit of a random product state
    thetas = rng.uniform(0, np.pi, prob.n)
    mixed = np.stack([np.cos(thetas), np.sin(thetas)], axis=1).astype(complex)
    mixed[1::2] = meanfield_plus(prob.n)[1::2]
    for qubits in (meanfield_plus(prob.n), mixed):
        s = product_z_expectations(qubits)
        np.testing.assert_allclose(
            _leave_one_out(prob, s), leave_one_out_per_term(prob, s), rtol=0, atol=1e-12
        )


def test_multilinear_value_adds_terms_in_order_bitwise():
    prob = DIFF_PROBLEMS["dense5"]()
    x = np.random.default_rng(2).uniform(0, 1, prob.n)
    assert multilinear_value(prob, x) == multilinear_per_term(prob, 1.0 - 2.0 * x)


def test_terms_beyond_n_are_rejected():
    with pytest.raises(ValueError, match=r"term \(1, 3\) references qubit >= n=3"):
        from_terms(3, [ZTerm((0,), 1.0), ZTerm((3, 1), 1.0)])

    # a qubit of 64 or more is caught before its mask overflows int64
    with pytest.raises(ValueError, match=r"term \(70,\) references qubit >= n=3"):
        from_terms(3, [ZTerm((70,), 1.0)])


# ---------------------------------------------------------------------------
# The problem stores only (mask, coeff) arrays; ZTerms are built at the API edge.


def random_table(n):
    return np.random.default_rng(n).normal(size=1 << n)


GENERATED = {
    "uncoupled": lambda: uncoupled_spins(7, "gaussian", seed=3),
    "ramp": lambda: hamming_ramp(6),
    "spike": lambda: spike(8, 0.5, 1.25),
    "bush": lambda: bush(6),
    "kspin": lambda: kspin_ferromagnet(6, 3),
    "conflicted": lambda: conflicted_pairs(6, 0.5, 3.0),
    "fisher": lambda: fisher_chain(7, seed=4),
    "chain": lambda: chain_detuned(7, 0.3),
    "grid": lambda: grid_ferromagnet_2d(2, 3, 0.5),
    "maxcut": lambda: maxcut_3regular(8, 0.5, 0.7, seed=9),
    "mixed_terms": mixed_terms,
    "dense6": lambda: from_dense(6, random_table(6)),
    "dense10": lambda: from_dense(10, random_table(10)),
    "freeze_grid": lambda: freeze(grid_ferromagnet_2d(2, 3, 0.5), {0: 1, 4: 0})[0],
    "freeze_dense": lambda: freeze(from_dense(6, random_table(6)), {1: 1, 3: 0})[0],
    "freeze_mixed": lambda: freeze(mixed_terms(), {0: 1})[0],
}
# built by from_dense, which keeps the table it is given
GIVEN_TABLES = {"spike", "bush", "kspin", "dense6", "dense10"}


@pytest.mark.parametrize("name", GENERATED)
def test_terms_view_rebuilds_the_problem_bitwise(name):
    prob = GENERATED[name]()
    again = from_terms(prob.n, prob.terms)
    assert again.masks.dtype == np.int64 and again.coeffs.dtype == np.float64
    assert np.array_equal(again.masks, prob.masks)
    assert np.array_equal(again.coeffs, prob.coeffs)
    if name in GIVEN_TABLES:
        # the term sum reproduces a given table only to rounding
        atol = 1e-12 * max(1.0, np.abs(prob.dense).max())
        np.testing.assert_allclose(again.dense, prob.dense, rtol=0, atol=atol)
    else:
        assert np.array_equal(again.dense, prob.dense)


def test_array_builders_construct_no_zterm(monkeypatch):
    grid = grid_ferromagnet_2d(2, 3, 0.5)

    def refuse(self):
        raise AssertionError("ZTerm built")

    monkeypatch.setattr(ZTerm, "__post_init__", refuse)
    prob = from_dense(14, random_table(14))
    assert prob.masks.size > 16000
    for source in (grid, DIFF_PROBLEMS["dense5"]()):
        for assignment in ASSIGNMENTS:
            freeze(source, assignment)
    with pytest.raises(AssertionError, match="ZTerm built"):
        prob.terms


@pytest.mark.parametrize(
    "masks,coeffs,message",
    [
        ([0, -1], [1.0, 1.0], r"term masks must lie in \[0, 2\^n\)"),
        ([0, 8], [1.0, 1.0], r"term masks must lie in \[0, 2\^n\)"),
        ([0, 1], [1.0], "1-D arrays of equal length"),
        ([[0, 1]], [[1.0, 1.0]], "1-D arrays of equal length"),
        ([0, 1], [1.0, np.inf], "term coefficients must be finite"),
        ([0, 1], [1.0, np.nan], "term coefficients must be finite"),
    ],
)
def test_constructor_rejects_bad_term_arrays(masks, coeffs, message):
    with pytest.raises(ValueError, match=message):
        DiagonalProblem(3, masks, coeffs, np.zeros(8))


def test_from_dense_rejects_a_table_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"dense table has 16 values, not 2\^n = 8"):
        from_dense(3, np.zeros(16))


# ---------------------------------------------------------------------------
# The level table behind the scalar-gamma phase: one exp per distinct value.

LEVEL_FAMILIES = {
    "ramp": dict(n=8),
    "uncoupled": dict(n=8, dist="binary", seed=2),
    "chain": dict(n=8, j2=0.3),
    "grid": dict(rows=2, cols=4, j2=0.5),
    "maxcut": dict(n=8, seed=3),
    "spike": dict(n=8, a=0.5, b=1.25),
    "bush": dict(n=8),
    "kspin": dict(n=8, k=3),  # its s = 0 entries are -0.0
    "conflicted": dict(n=8, epsilon=0.5, delta=3.0),
    "fisher": dict(n=8, seed=4),
    "dense": dict(n=8, values=np.random.default_rng(5).integers(-3, 4, 256).astype(float).tolist()),
    "terms": dict(n=8, terms=[{"qubits": [0, 3], "coeff": 0.5}, {"qubits": [2, 5, 7], "coeff": 2.0}]),
}
LEVEL_PROBLEMS = {
    **{name: lambda name=name: PROBLEMS[name](**LEVEL_FAMILIES[name]) for name in PROBLEMS},
    "maxcut18": lambda: maxcut_3regular(18),
    "freeze_maxcut": lambda: freeze(maxcut_3regular(12, seed=2), {0: 1, 5: 0, 7: 1})[0],
}


def test_level_families_cover_every_problem_family():
    assert set(LEVEL_FAMILIES) == set(PROBLEMS)


@pytest.mark.parametrize("name", LEVEL_PROBLEMS)
def test_level_phase_equals_the_dense_phase_bitwise(name):
    prob = LEVEL_PROBLEMS[name]()
    levels, index = prob.phase_table
    assert index is not None and index.dtype == np.uint8
    assert np.array_equal(levels[index].view(np.int64), prob.dense.view(np.int64))
    rng = np.random.default_rng(17)
    amps = rng.normal(size=prob.dense.size) + 1j * rng.normal(size=prob.dense.size)
    # large |gamma| too, so that a numpy whose complex exp depends on the array fails here
    for gamma in [*rng.uniform(-np.pi, np.pi, 3), *rng.uniform(-1e3, 1e3, 2), 1e3, -1e3]:
        plain = amps * np.exp(-1j * gamma * prob.dense)  # the kernel before level tables
        assert np.array_equal(_phase(amps, prob.dense, gamma), plain)
        assert np.array_equal(_phase(amps, levels, gamma, index), plain)


def test_all_distinct_table_takes_the_dense_route(monkeypatch):
    prob = uncoupled_spins(12, "gaussian")
    sizes = {"unique": [], "sort": []}
    for name, seen in sizes.items():
        spied = getattr(np, name)
        monkeypatch.setattr(np, name, lambda a, *r, _f=spied, _s=seen, **k: _s.append(np.size(a)) or _f(a, *r, **k))
    levels, index = prob.phase_table
    assert index is None and levels is prob.dense
    # rejected on its prefix, whose levels are counted on a sort; no full unique
    assert sizes == {"unique": [], "sort": [(1 << 12) // 8 + 1]}


def test_table_whose_prefix_fits_but_whole_does_not_takes_the_dense_route():
    values = np.concatenate([np.zeros(600), np.arange(1.0, (1 << 12) - 599)])
    prob = from_dense(12, values)
    levels, index = prob.phase_table
    assert index is None and levels is prob.dense


def test_more_than_256_levels_index_as_uint16():
    values = np.arange(1 << 12, dtype=np.float64) % 300
    levels, index = from_dense(12, values).phase_table
    assert levels.size == 300 and index.dtype == np.uint16
    assert np.array_equal(levels[index], values)


@pytest.mark.parametrize("count,dtype", [(256, np.uint8), (257, np.uint16), (512, np.uint16), (513, None)])
def test_level_table_caps_at_their_exact_bounds(count, dtype):
    """At n=12 a table keeps up to 2^n/8 = 512 levels, indexed as uint8 up to
    256; one level more takes uint16, or the dense route. The phase keeps its
    bytes on either route."""
    prob = from_dense(12, np.arange(1 << 12, dtype=np.float64) % count)
    levels, index = prob.phase_table
    if dtype is None:
        assert index is None and levels is prob.dense
    else:
        assert levels.size == count and index.dtype == dtype
    rng = np.random.default_rng(count)
    amps = rng.normal(size=prob.dense.size) + 1j * rng.normal(size=prob.dense.size)
    for gamma in rng.uniform(-np.pi, np.pi, 3):
        assert _phase(amps, levels, gamma, index).tobytes() == _phase(amps, prob.dense, gamma).tobytes()


def test_signed_zeros_stay_apart_in_the_level_table():
    values = np.tile([0.0, -0.0, 1.0, 2.0], 8)
    levels, index = from_dense(5, values).phase_table
    assert levels.size == 4 and np.array_equal(levels[index].view(np.int64), values.view(np.int64))


def test_level_table_is_built_once_per_problem(monkeypatch):
    prob, lap = maxcut_3regular(8), hypercube(8)
    calls = []
    build = DiagonalProblem.__dict__["phase_table"]
    func = build.func
    monkeypatch.setattr(build, "func", lambda self: calls.append(1) or func(self))
    schedule = Schedule([0.3, -0.2], [0.4, 0.1])
    qaoa_state(prob, lap, schedule)
    table = prob.phase_table
    qaoa_state(prob, lap, schedule)
    assert prob.phase_table is table and len(calls) == 1
