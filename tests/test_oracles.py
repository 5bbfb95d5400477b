import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ldpsim import oracles as oc
from ldpsim.errors import DomainError, ParameterError
from ldpsim.rng import splitmix64, stream


def test_grr_params_ln2_k2():
    p = oc.protocol_params("grr", math.log(2), 2)
    assert p.p == pytest.approx(2 / 3, abs=1e-15)
    assert p.q == pytest.approx(1 / 3, abs=1e-15)


def test_oue_params_ln3():
    p = oc.protocol_params("oue", math.log(3), 10)
    assert p.p == 0.5
    assert p.q == pytest.approx(0.25, abs=1e-15)


def test_sue_params_identity():
    p = oc.protocol_params("sue", 2.0, 5)
    eh = math.exp(1.0)
    assert p.p == pytest.approx(eh / (eh + 1))
    assert p.q == pytest.approx(1 / (eh + 1))


def test_ss_params_ln3_k8_against_enumeration():
    # enumerate the two-branch sampling procedure exhaustively at k=8
    eps, k = math.log(3), 8
    params = oc.protocol_params("ss", eps, k)
    assert params.aux == 2
    assert params.p == pytest.approx(0.5, abs=1e-12)
    p, omega = params.p, params.aux
    v = 0
    others = [x for x in range(k) if x != v]
    support = np.zeros(k)
    # true value included: omega-1 others uniformly
    for combo in itertools.combinations(others, omega - 1):
        w = p / math.comb(k - 1, omega - 1)
        for u in (v, *combo):
            support[u] += w
    # true value excluded: omega others uniformly
    for combo in itertools.combinations(others, omega):
        w = (1 - p) / math.comb(k - 1, omega)
        for u in combo:
            support[u] += w
    assert support[v] == pytest.approx(params.p, abs=1e-12)
    for u in others:
        assert support[u] == pytest.approx(params.q, abs=1e-12)


def test_olh_params_bucket_count():
    p = oc.protocol_params("olh", 1.0, 74)
    assert p.aux == round(math.e) + 1 == 4
    assert p.q == pytest.approx(1 / 4)
    # effective q = 1/g also equals p'/g + (1 - 1/g) q'
    qp = (1 - p.p) / (p.aux - 1)
    assert p.p / p.aux + (1 - 1 / p.aux) * qp == pytest.approx(1 / p.aux, abs=1e-15)


def test_param_errors():
    with pytest.raises(ParameterError):
        oc.protocol_params("grr", 0.0, 4)
    with pytest.raises(ParameterError):
        oc.protocol_params("grr", -1.0, 4)
    with pytest.raises(DomainError):
        oc.protocol_params("sue", 1.0, 1)
    with pytest.raises(ParameterError):
        oc.protocol_params("nope", 1.0, 4)


@pytest.mark.parametrize("k", [4.5, 4.0, "4", None])
def test_non_integer_domain_size_is_domain_error(k):
    with pytest.raises(DomainError, match="not an integer"):
        oc.protocol_params("sue", 1.0, k)


@pytest.mark.parametrize("k", [np.int64(4), np.int32(4), np.uint8(4)])
def test_numpy_integer_domain_size_is_accepted(k):
    assert oc.protocol_params("sue", 1.0, k).k == 4


@settings(max_examples=150, deadline=None)
@given(
    protocol=st.sampled_from(oc.PROTOCOLS),
    epsilon=st.floats(min_value=0.01, max_value=10.0),
    k=st.integers(min_value=2, max_value=100),
)
def test_params_ldp_ratio_property(protocol, epsilon, k):
    params = oc.protocol_params(protocol, epsilon, k)
    assert 0.0 < params.q < params.p <= 1.0
    ee = math.exp(epsilon)
    if protocol == "grr":
        assert params.p / params.q == pytest.approx(ee, rel=1e-12)
    elif protocol == "olh":
        qp = (1 - params.p) / (params.aux - 1)
        assert params.p / qp == pytest.approx(ee, rel=1e-12)
    elif protocol == "ss":
        omega = params.aux
        assert 1 <= omega <= k - 1
        ratio = params.p / (1 - params.p) * (k - omega) / omega
        assert ratio == pytest.approx(ee, rel=1e-9)
    else:
        assert math.log(params.p * (1 - params.q) / ((1 - params.p) * params.q)) == pytest.approx(
            epsilon, abs=1e-12
        )


def test_grr_near_noiseless():
    params = oc.protocol_params("grr", 50.0, 4)
    rng = stream(1, 0)
    batch = oc.randomize_batch(np.full(100_000, 2), params, rng)
    assert np.mean(batch.data == 2) >= 0.9999


@pytest.mark.parametrize("proto", ["grr", "olh", "ss", "sue", "oue"])
def test_narrow_integer_values_randomize_like_int64(proto):
    # integer values keep their dtype through the range check; a uint8 vector over
    # k = 300 must still draw every output value of [0, 300), as int64 values do
    params = oc.protocol_params(proto, 0.5, 300)
    values = stream(3, 1).integers(0, 256, 2000)
    narrow = oc.randomize_batch(values.astype(np.uint8), params, stream(3, 0))
    wide = oc.randomize_batch(values, params, stream(3, 0))
    for got, want in zip(*(b.data if proto == "olh" else (b.data,) for b in (narrow, wide))):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    if proto == "grr":
        assert narrow.data.max() >= 256


def test_sue_bit_marginals():
    params = oc.protocol_params("sue", 1.4, 3)
    rng = stream(2, 0)
    n = 100_000
    batch = oc.randomize_batch(np.zeros(n, dtype=int), params, rng)
    rates = batch.data.mean(axis=0)
    sig_p = 3 * math.sqrt(params.p * (1 - params.p) / n)
    sig_q = 3 * math.sqrt(params.q * (1 - params.q) / n)
    assert abs(rates[0] - params.p) < sig_p
    assert abs(rates[1] - params.q) < sig_q
    assert abs(rates[2] - params.q) < sig_q


def test_ss_subset_size_at_tiny_epsilon():
    params = oc.protocol_params("ss", 1e-4, 6)
    assert params.aux == 3
    rng = stream(3, 0)
    batch = oc.randomize_batch(rng.integers(0, 6, 500), params, rng)
    assert batch.data.shape[1] == 3
    # members distinct and in-domain, rows sorted
    assert (np.diff(batch.data, axis=1) > 0).all()
    assert batch.data.min() >= 0 and batch.data.max() < 6


def test_randomize_value_out_of_domain():
    params = oc.protocol_params("grr", 1.0, 4)
    with pytest.raises(DomainError):
        oc.randomize_batch([4], params, stream(0, 0))


@pytest.mark.parametrize("values", [[[1, 2], [0, 3]], 2, np.zeros((3, 1), np.int64)],
                         ids=["2d", "scalar", "column"])
@pytest.mark.parametrize("protocol", oc.PROTOCOLS)
def test_randomize_refuses_values_that_are_not_1d(protocol, values):
    # a 2-D input would give sue/oue rows several true bits
    rng = stream(0, 0)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="1-D"):
        oc.randomize_batch(values, oc.protocol_params(protocol, 1.0, 4), rng)
    assert rng.bit_generator.state == state


def _supported(params, data):
    """Values a one-report batch supports, as a bool vector over the domain."""
    return oc.support_counts(oc.ReportBatch(params, data)) > 0


def test_supports_rules():
    grr = oc.protocol_params("grr", 1.0, 6)
    assert _supported(grr, np.array([3]))[3]
    assert not _supported(grr, np.array([3]))[2]
    ss = oc.protocol_params("ss", 1e-3, 6)
    assert not _supported(ss, np.array([[1, 4, 5]]))[2]
    assert _supported(ss, np.array([[1, 4, 5]]))[4]
    olh = oc.protocol_params("olh", 1.0, 6)
    from ldpsim.rng import hash_bucket

    bucket = hash_bucket(987654321, 5, olh.aux)
    supported = _supported(olh, (np.array([987654321], dtype=np.uint64), np.array([bucket])))
    for cand in range(6):
        expect = hash_bucket(987654321, cand, olh.aux) == bucket
        assert supported[cand] == expect


# the first three outputs of the published SplitMix64 generator seeded with 0:
# it adds gamma = 0x9E3779B97F4A7C15 to its state and then mixes, as
# splitmix64 does to its input, so input i * gamma gives output i + 1
SPLITMIX64_FROM_0 = ((0, 0xE220_A839_7B1D_CDAF),
                     (0x9E37_79B9_7F4A_7C15, 0x6E78_9E6A_A1B9_65F4),
                     (0x3C6E_F372_FE94_F82A, 0x06C4_5D18_8009_454F))


def test_splitmix64_matches_published_sequence():
    inputs, outputs = zip(*SPLITMIX64_FROM_0)
    assert [splitmix64(x) for x in inputs] == list(outputs)
    mixed = splitmix64(np.array(inputs, dtype=np.uint64))
    assert mixed.dtype == np.uint64
    assert mixed.tolist() == list(outputs)


def test_estimate_all_same_value():
    params = oc.protocol_params("grr", math.log(2), 2)
    est = oc.estimate_frequencies(oc.ReportBatch(params, np.zeros(300, np.int64)))
    assert est[0] == pytest.approx(2.0, abs=1e-9)
    assert est[1] == pytest.approx(-1.0, abs=1e-9)


def test_estimate_zero_support_boundary():
    params = oc.protocol_params("oue", 1.0, 3)
    est = oc.estimate_from_counts(np.array([0, 5, 5]), 10, params)
    assert est[0] == pytest.approx(-params.q / (params.p - params.q))
    assert est[0] < 0


def test_estimate_monte_carlo_within_formula_variance():
    # truth recovered within 3 sigma of the closed-form estimator variance
    params = oc.protocol_params("grr", 2.0, 2)
    n = 100_000
    f = np.array([0.7, 0.3])
    rng = stream(4, 0)
    values = (rng.random(n) >= f[0]).astype(int)
    emp_f = np.bincount(values, minlength=2) / n
    est = oc.estimate_frequencies(oc.randomize_batch(values, params, rng))
    for v in range(2):
        sd = math.sqrt(oc.pure_estimator_variance(emp_f[v], params, n))
        assert abs(est[v] - emp_f[v]) < 3 * sd


@pytest.mark.parametrize("n", [0, -1])
def test_estimator_variance_needs_a_sample(n):
    with pytest.raises(ParameterError, match="sample size"):
        oc.pure_estimator_variance(0.3, oc.protocol_params("grr", 1.0, 4), n)


def test_clip_normalize():
    out = oc.clip_normalize(np.array([-0.2, 0.4, 0.8]))
    assert (out >= 0).all()
    assert out.sum() == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        oc.clip_normalize(np.array([-0.5, -0.1]))
    # a total that is not finite: inf / inf exported nan priors at exit 0
    for est in ([np.inf, 0.2], [np.nan, 0.2], [np.inf, -np.inf]):
        with pytest.raises(ParameterError, match="cannot normalize"):
            oc.clip_normalize(np.array(est))


def _enumerate_report_law(params):
    """Exact Pr[report | true value] table over all outcomes, small k only."""
    k = params.k
    proto = params.protocol
    if proto == "grr":
        mat = np.full((k, k), params.q)
        np.fill_diagonal(mat, params.p)
        return mat  # rows: true value, cols: outcome
    if proto in ("sue", "oue"):
        outs = list(itertools.product([0, 1], repeat=k))
        mat = np.zeros((k, len(outs)))
        for v in range(k):
            for o_idx, bits in enumerate(outs):
                pr = 1.0
                for i, b in enumerate(bits):
                    pi = params.p if i == v else params.q
                    pr *= pi if b else 1 - pi
                mat[v, o_idx] = pr
        return mat
    if proto == "ss":
        omega = params.aux
        outs = list(itertools.combinations(range(k), omega))
        mat = np.zeros((k, len(outs)))
        for v in range(k):
            n_in = math.comb(k - 1, omega - 1)
            n_out = math.comb(k - 1, omega)
            for o_idx, members in enumerate(outs):
                if v in members:
                    mat[v, o_idx] = params.p / n_in
                else:
                    mat[v, o_idx] = (1 - params.p) / n_out
        return mat
    raise AssertionError(proto)


@pytest.mark.parametrize("protocol", ["grr", "ss", "sue", "oue"])
def test_ldp_ratio_from_enumerated_law(protocol):
    for k in (2, 4, 6):
        for eps in (0.5, 1.0, 3.0):
            params = oc.protocol_params(protocol, eps, k)
            mat = _enumerate_report_law(params)
            assert mat.sum(axis=1) == pytest.approx(np.ones(k), abs=1e-12)
            bound = math.exp(eps) * (1 + 1e-12)
            for v1 in range(k):
                for v2 in range(k):
                    ratios = mat[v1] / mat[v2]
                    assert ratios.max() <= bound


def test_olh_ldp_ratio_over_buckets():
    # the randomizer is GRR over the g buckets: max ratio is exactly e^eps
    params = oc.protocol_params("olh", 1.5, 30)
    g = params.aux
    qp = (1 - params.p) / (g - 1)
    mat = np.full((g, g), qp)
    np.fill_diagonal(mat, params.p)
    assert (mat.max(axis=0) / mat.min(axis=0)).max() == pytest.approx(math.exp(1.5), rel=1e-12)


def test_olh_effective_q_for_non_held_values():
    params = oc.protocol_params("olh", 1.0, 12)
    n = 100_000
    rng = stream(5, 0)
    batch = oc.randomize_batch(np.full(n, 7), params, rng)
    counts = oc.support_counts(batch)
    target = 1 / params.aux
    sig = 3 * math.sqrt(target * (1 - target) / n)
    for u in range(12):
        if u == 7:
            assert counts[u] / n >= params.p - sig
        else:
            assert abs(counts[u] / n - target) < sig


@pytest.mark.parametrize("protocol", oc.PROTOCOLS)
def test_unbiasedness_grid(protocol):
    # mean estimate over 20 runs within 4 standard errors, componentwise
    n, runs = 200_000, 20
    for k in (2, 5, 16):
        for eps in (0.5, 1.0, 4.0):
            params = oc.protocol_params(protocol, eps, k)
            f = stream(6, k, int(eps * 10)).dirichlet(np.ones(k))
            ests = []
            for r in range(runs):
                rng = stream(7, k, int(eps * 10), r)
                values = rng.choice(k, size=n, p=f)
                ests.append(oc.estimate_frequencies(oc.randomize_batch(values, params, rng)))
            ests = np.array(ests)
            se = ests.std(axis=0, ddof=1) / math.sqrt(runs)
            assert (np.abs(ests.mean(axis=0) - f) < 4 * se).all(), (protocol, k, eps)


def test_report_stream_determinism():
    for protocol in oc.PROTOCOLS:
        params = oc.protocol_params(protocol, 1.0, 9)
        values = stream(8, 0).integers(0, 9, 2000)
        b1 = oc.randomize_batch(values, params, stream(8, 1))
        b2 = oc.randomize_batch(values, params, stream(8, 1))
        if protocol == "olh":
            assert np.array_equal(b1.data[0], b2.data[0])
            assert np.array_equal(b1.data[1], b2.data[1])
        else:
            assert np.array_equal(b1.data, b2.data)
