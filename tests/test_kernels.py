"""The chunked per-report kernels against reference copies of the whole-matrix code.

Each reference below is the earlier (n, k) implementation, kept verbatim in
spirit: one ``rng.random((n, k))`` draw, an int64 cumsum, a broadcast hash.
The kernels must return the same arrays and leave the generator in the same
state (the next ``rng.random()`` agrees), at row counts around the chunk and
block boundaries, at k = 300 (uint16 cumsum), for SS subset sizes 1 and > 1
and for OLH bucket counts that are and are not powers of two.  The streamed
OLH matches, and the support blocks of OLH and UE batches, are stacked and
compared whole, from an empty batch to three blocks.  The uniform pick is also checked
at k = 255 / 256, where its count dtype widens, on all-0 and all-1 rows, on
blocks that are not C-contiguous and on blocks of growing size.  The pick
finishes each block's draws before it reads the next, so its reference past
one block picks block by block; the numpy property that makes blocks with no
empty row draw as one call (bounded integers drawn per block equal one draw)
is pinned.  The streamed SUE/OUE randomize-and-predict is checked against
randomizing then predicting up to one block, and past it against the bits'
blocks picked as they come, with and without a buffered 32-bit half in the
stream; it takes a generator other than PCG64.  SS reports are checked at
k = 256 / 257, where their dtype widens; the OLH match kernel at bucket counts
near 2^63.  The naive-Bayes predict,
which scores fixed row blocks, is checked against the whole-matrix scorer at
row counts around its block size.  The fake-data sanitizer, which writes every
attribute into one report matrix, is checked against one array per attribute
for grr, sue_z and oue_r, at n = 0 and at k = 300 (a uint16 grr matrix), and its
one-pass UE estimate against one ``support_counts`` per batch around the uint16
slice edges.  The UE bit kernel takes values of any integer dtype, and the
Bernoulli fit's scratch does not grow with n.  The re-identification
kernel's (closer, tied) counts, which come from matches on per-(column, value)
record bitsets, are checked against the single-pass kernel for fk and pk
columns, with user blocks of 7 and 256, users with no
known column, a group larger than a block, tie counts past 255, values compared
in int16, record counts with and without padding bits, users whose every known
entry is wrong, a profile value no record holds, and every known-column count
from 1 to 8 across block edges, also with its bitset budget cut so that the
records split into several blocks.
"""

import tracemalloc

import numpy as np
import pytest

from ldpsim import attacks as atk
from ldpsim import multidim as mdm
from ldpsim import oracles as oc
from ldpsim.classifier import PREDICT_ROWS, NaiveBayes
from ldpsim.datasets import clip_or_uniform, load_fixture, synthesize_profiles, zipf_dataset
from ldpsim.errors import ParameterError
from ldpsim.multidim import _categorical
from ldpsim.rng import CHUNK_ELEMENTS, block_rows, chunk_rows, hash_match_blocks, stream

KS = (2, 74, 300)


def _ns(k):
    rows = chunk_rows(k)
    return (0, 1, rows - 1, rows, rows + 1, 2 * rows + 3)


def _grid():
    return [(k, n) for k in KS for n in _ns(k)]


# ---------------------------------------------------------------------------
# Reference copies of the whole-matrix kernels
# ---------------------------------------------------------------------------

def _ref_splitmix64(x):
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + np.uint64(0x9E37_79B9_7F4A_7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58_476D_1CE4_E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D0_49BB_1331_11EB)
        return z ^ (z >> np.uint64(31))


def _ref_hash(seeds, values, g):
    mixed = _ref_splitmix64(np.asarray(seeds, dtype=np.uint64)
                            ^ _ref_splitmix64(np.asarray(values, dtype=np.uint64)))
    return (mixed % np.uint64(g)).astype(np.int64)


def _ref_pick_from_rows(matrix, counts, k, rng):
    r = rng.integers(0, np.maximum(counts, 1))
    cs = np.cumsum(matrix, axis=1)
    pred = np.argmax(cs > r[:, None], axis=1)
    empty = counts == 0
    if empty.any():
        pred[empty] = rng.integers(0, k, int(empty.sum()))
    return pred


def _ref_pick_blocks(blocks, k, rng):
    """``_ref_pick_from_rows`` on each ``(lo, hi, rows)`` block as it comes: the streamed
    pick's draw order, each block's draws before the next block is read."""
    parts = [np.empty(0, dtype=np.int64)]
    for _, _, rows in blocks:
        parts.append(_ref_pick_from_rows(rows, rows.sum(axis=1), k, rng))
    return np.concatenate(parts)


def _ref_olh_matches(seeds, buckets, k, g):
    cand = np.arange(k, dtype=np.uint64)
    return (_ref_hash(seeds[:, None], cand[None, :], g) == buckets[:, None]).astype(np.uint8)


def _ref_ss(values, p, omega, k, rng):
    n = len(values)
    include = rng.random(n) < p
    keys = rng.random((n, k))
    keys[np.arange(n), values] = np.inf
    order = np.argsort(keys, axis=1)
    out = np.empty((n, omega), dtype=np.int64)
    out[include, 0] = values[include]
    if omega > 1:
        out[include, 1:] = order[include, : omega - 1]
    out[~include, :] = order[~include, :omega]
    out.sort(axis=1)
    return out


def _ref_ue(values, p, q, k, rng):
    n = len(values)
    u = rng.random((n, k))
    thresh = np.full((n, k), q)
    thresh[np.arange(n), values] = p
    return (u < thresh).astype(np.uint8)


def _ref_categorical(pvec, size, rng):
    cum = np.cumsum(pvec)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, rng.random(size), side="right")
    return np.minimum(idx, len(pvec) - 1).astype(np.int64)


def _ref_nb_scores(mode, X_fit, y_fit, n_classes, ks, X):
    """The documented law from a float64 copy of the learning set: log prior plus, per
    feature, the log of the smoothed chance of its value in each class (for bits,
    x log theta + (1 - x) log(1 - theta), as two GEMMs); one class scores 0, the rest
    -inf."""
    counts = np.bincount(y_fit, minlength=n_classes).astype(np.float64)
    if np.count_nonzero(counts) == 1:
        scores = np.full((len(X), n_classes), -np.inf)
        scores[:, np.flatnonzero(counts)[0]] = 0.0
        return scores
    log_prior = np.log((counts + 1.0) / (len(y_fit) + n_classes))
    if mode == "bernoulli":
        Xf, Xb = X_fit.astype(np.float64), X.astype(np.float64)
        ones = np.stack([Xf[y_fit == c].sum(axis=0) for c in range(n_classes)])
        theta = (ones + 1.0) / (counts[:, None] + 2.0)
        return log_prior + Xb @ np.log(theta).T + (1.0 - Xb) @ np.log1p(-theta).T
    scores = np.tile(log_prior, (len(X), 1))
    for j, k in enumerate(ks):
        tab = np.stack([np.bincount(X_fit[y_fit == c, j], minlength=k)
                        for c in range(n_classes)]).astype(np.float64)
        scores += np.log((tab + 1.0) / (counts[:, None] + k))[:, X[:, j]].T
    return scores


def _ref_match_counts(P, B):
    dt = np.min_scalar_type(-max(P.max(), B.max()) - 1)
    P, Bt = P.astype(dt), np.ascontiguousarray(B.T, dtype=dt)
    M = np.zeros((len(P), len(B)), dtype=np.min_scalar_type(B.shape[1]))
    for j, col in enumerate(Bt):
        M += P[:, j, None] == col
    return M


def _ref_closer_tied(profiles, bk_rows, bk_cols, chunk=256):
    n = len(profiles)
    B = bk_rows[:, bk_cols]
    closer, tied = np.empty((2, n), dtype=np.int64)
    for lo in range(0, n, chunk):
        M = _ref_match_counts(profiles[lo:lo + chunk, bk_cols], B)
        own = M[np.arange(len(M)), np.arange(lo, lo + len(M)), None]
        closer[lo:lo + chunk] = np.count_nonzero(M > own, axis=1)
        tied[lo:lo + chunk] = np.count_nonzero(M == own, axis=1)
    return closer, tied


def _values(k, n, seed):
    return stream(seed, k, n).integers(0, k, n)


def _pair(seed, k, n):
    return stream(seed, k, n, 1), stream(seed, k, n, 1)


def _blocks(matrix, rows):
    """``(lo, hi, rows)`` blocks of ``matrix``, as the streamed kernels hand them on."""
    n = len(matrix)
    return ((lo, min(lo + rows, n), matrix[lo:lo + rows]) for lo in range(0, n, rows))


def _stacked(blocks, n, k):
    """``(lo, hi, rows)`` blocks of a streamed kernel, copied and stacked; they tile [0, n)."""
    parts, end = [np.empty((0, k), dtype=np.uint8)], 0
    for lo, hi, rows in blocks:
        assert lo == end and hi - lo == len(rows) <= block_rows(k)
        assert rows.dtype == np.uint8
        parts.append(rows.copy())
        end = hi
    assert end == n
    return np.concatenate(parts)


def _olh_matches(seeds, buckets, k, g):
    """The blocks of ``hash_match_blocks``, stacked by ``_stacked``."""
    return _stacked(hash_match_blocks(seeds, buckets, k, g), len(seeds), k)


# ---------------------------------------------------------------------------
# Byte identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,n", _grid())
@pytest.mark.parametrize("eps", [1.0, 4.0])
def test_ss_randomize_matches_reference(k, n, eps):
    params = oc.protocol_params("ss", eps, k)
    values = _values(k, n, 31)
    rng, ref_rng = _pair(31, k, n)
    got = oc.randomize_batch(values, params, rng).data
    ref = _ref_ss(values, params.p, params.aux, k, ref_rng)
    np.testing.assert_array_equal(got, ref)
    assert rng.random() == ref_rng.random()
    np.testing.assert_array_equal(oc.support_counts(oc.ReportBatch(params, got)),
                                  np.bincount(ref.ravel(), minlength=k))


def test_ss_grid_has_both_subset_sizes():
    omegas = {oc.protocol_params("ss", eps, k).aux > 1 for k in KS for eps in (1.0, 4.0)}
    assert omegas == {False, True}


@pytest.mark.parametrize("k,dtype", [(256, np.uint8), (257, np.uint16)])
def test_ss_reports_take_the_narrowest_dtype(k, dtype):
    params = oc.protocol_params("ss", 1.0, k)
    n = 300
    values = _values(k, n, 68)
    values[::4] = k - 1  # the largest value the dtype must hold
    rng, ref_rng = _pair(68, k, n)
    batch = oc.randomize_batch(values, params, rng)
    assert batch.data.dtype == dtype
    np.testing.assert_array_equal(batch.data, _ref_ss(values, params.p, params.aux, k, ref_rng))
    assert (batch.data == k - 1).any()
    assert atk.predict_batch(batch, rng).dtype == np.int64


@pytest.mark.parametrize("k,n", _grid())
@pytest.mark.parametrize("proto", ["sue", "oue"])
def test_ue_randomize_and_predict_match_reference(k, n, proto):
    params = oc.protocol_params(proto, 1.0, k)
    values = _values(k, n, 32)
    rng, ref_rng = _pair(32, k, n)
    batch = oc.randomize_batch(values, params, rng)
    ref = _ref_ue(values, params.p, params.q, k, ref_rng)
    np.testing.assert_array_equal(batch.data, ref)
    assert batch.data.dtype == np.uint8
    np.testing.assert_array_equal(oc.support_counts(batch), ref.sum(axis=0))
    pred = atk.predict_batch(batch, rng)
    ref_pred = _ref_pick_from_rows(ref, ref.sum(axis=1), k, ref_rng)
    np.testing.assert_array_equal(pred, ref_pred)
    assert rng.random() == ref_rng.random()


def _stream_ns(k):
    rows, block = chunk_rows(k), block_rows(k)
    return sorted({1, rows - 1, rows + 1, block + 1, 2 * block + 3})


@pytest.mark.parametrize("k,n", [(k, n) for k in KS for n in _stream_ns(k)])
@pytest.mark.parametrize("eps", [1.0, 4.0])
@pytest.mark.parametrize("proto", ["sue", "oue"])
@pytest.mark.parametrize("half", [False, True], ids=["whole", "half"])
def test_streamed_randomize_predict_equals_composition(k, n, eps, proto, half):
    # half: a small-range draw first leaves a buffered 32-bit half in the stream,
    # which the UE bits' doubles keep and the pick's draws take first; past one
    # block, each block's picks are drawn right after its bits
    params = oc.protocol_params(proto, eps, k)
    values = _values(k, n, 38)
    rng, ref_rng = _pair(38, k, n)
    if half:
        assert rng.integers(0, 5) == ref_rng.integers(0, 5)
        assert rng.bit_generator.state["has_uint32"] == 1
    pred = atk.randomize_predict(values, params, rng)
    if n <= block_rows(k):
        ref = atk.predict_batch(oc.randomize_batch(values, params, ref_rng), ref_rng)
    else:
        ref = _ref_pick_blocks(oc.unary_bit_blocks(n, k, params.q, ref_rng, values, params.p),
                               k, ref_rng)
    assert pred.dtype == np.int64
    np.testing.assert_array_equal(pred, ref)
    assert rng.random() == ref_rng.random()
    np.testing.assert_array_equal(rng.integers(0, 7, 3), ref_rng.integers(0, 7, 3))


def test_streamed_ue_attack_refuses_a_stream_that_cannot_jump():
    # the streamed pick draws as it goes, so any bit generator serves, twins alike
    acc = atk.empirical_attack_acc("oue", 1.0, 8, 100, np.random.Generator(np.random.MT19937(1)))
    assert 0.0 <= acc <= 100.0
    assert acc == atk.empirical_attack_acc("oue", 1.0, 8, 100,
                                           np.random.Generator(np.random.MT19937(1)))


@pytest.mark.parametrize("k,n", _grid())
def test_unary_fake_rows_match_reference(k, n):
    # the ue_z fake rows: every bit set w.p. q, no true column
    rng, ref_rng = _pair(33, k, n)
    got = _stacked(oc.unary_bit_blocks(n, k, 0.3, rng), n, k)
    np.testing.assert_array_equal(got, (ref_rng.random((n, k)) < 0.3).astype(np.uint8))
    assert rng.random() == ref_rng.random()


def test_unary_bit_blocks_take_any_integer_value_dtype():
    # the true columns are reset through flat indices i * k + v of each chunk, which
    # take any integer dtype of the values, uint64 included
    n, k = 100, 6
    values = _values(k, n, 70)
    want = _stacked(oc.unary_bit_blocks(n, k, 0.3, stream(70, 0), values, 0.7), n, k)
    for dtype in (np.uint8, np.uint64):
        np.testing.assert_array_equal(_stacked(oc.unary_bit_blocks(
            n, k, 0.3, stream(70, 0), values.astype(dtype), 0.7), n, k), want)


@pytest.mark.parametrize("k,n", _grid())
@pytest.mark.parametrize("eps", [1.0, 4.0], ids=["g4", "g56"])
def test_olh_predict_and_counts_match_reference(k, n, eps):
    params = oc.protocol_params("olh", eps, k)
    g = params.aux
    assert (g & (g - 1) == 0) == (eps == 1.0)
    values = _values(k, n, 34)
    rng, ref_rng = _pair(34, k, n)
    batch = oc.randomize_batch(values, params, rng)
    oc.randomize_batch(values, params, ref_rng)  # GRR on buckets: untouched here
    seeds, buckets = batch.data
    ref_matches = _ref_olh_matches(seeds, buckets, k, g)
    np.testing.assert_array_equal(_olh_matches(seeds, buckets, k, g), ref_matches)
    np.testing.assert_array_equal(oc.support_counts(batch), ref_matches.sum(axis=0))
    pred = atk.predict_batch(batch, rng)
    ref_pred = _ref_pick_from_rows(ref_matches, ref_matches.sum(axis=1), k, ref_rng)
    np.testing.assert_array_equal(pred, ref_pred)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("k,n", _grid())
@pytest.mark.parametrize("density", [0.02, 0.5, 0.97])
def test_pick_from_rows_matches_reference(k, n, density):
    # density 0.97 at k = 300 puts more than 255 set bits in a row
    matrix = (stream(35, k, n).random((n, k)) < density).astype(np.uint8)
    rng, ref_rng = _pair(35, k, n)
    pred = atk._pick_from_rows(_blocks(matrix, block_rows(k)), n, k, rng)
    ref = _ref_pick_from_rows(matrix, matrix.sum(axis=1), k, ref_rng)
    np.testing.assert_array_equal(pred, ref)
    assert rng.random() == ref_rng.random()


def _edge_rows(k, n):
    """Dense rows, with every third row all 0 and every third all 1."""
    matrix = (stream(38, k, n).random((n, k)) < 0.97).astype(np.uint8)
    matrix[::3] = 0
    matrix[1::3] = 1
    return matrix


LAYOUTS = {
    "c": lambda m: m,
    "f": np.asfortranarray,
    # a column slice of a wider array: rows are strided
    "slice": lambda m: np.pad(m, ((0, 0), (2, 3)), constant_values=1)[:, 2:-3],
}


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("k", [255, 256])
def test_pick_from_rows_edges_match_reference(k, layout):
    # all-1 rows count k: the top of uint8 at k = 255, a uint16 count at k = 256
    n = 2 * chunk_rows(k) + 3
    matrix = LAYOUTS[layout](_edge_rows(k, n))
    np.testing.assert_array_equal(matrix, _edge_rows(k, n))
    assert matrix.flags.c_contiguous == (layout == "c")
    rng, ref_rng = _pair(38, k, n)
    pred = atk._pick_from_rows(_blocks(matrix, chunk_rows(k) + 5), n, k, rng)
    ref = _ref_pick_blocks(_blocks(matrix, chunk_rows(k) + 5), k, ref_rng)
    np.testing.assert_array_equal(pred, ref)
    assert pred.dtype == np.int64
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("dtype,top", [(np.uint8, 255), (np.uint16, 65535), (np.int64, 1 << 40)])
def test_bounded_integers_drawn_in_blocks_equal_one_call(dtype, top):
    # the pick draws each block's r by itself; over blocks with no empty row, numpy's
    # bounded integers give the values, and leave the generator in the state, of
    # one call over all rows; a bound of 1 (an empty or one-bit row) draws nothing
    bounds = stream(64, 0).integers(1, top + 1, 5000).astype(dtype)
    bounds[::7] = 1
    bounds[1::7] = top
    one, blocked = stream(65, 0), stream(65, 0)
    whole = one.integers(0, bounds)
    parts = [blocked.integers(0, bounds[lo:lo + 337]) for lo in range(0, len(bounds), 337)]
    np.testing.assert_array_equal(np.concatenate(parts), whole)
    assert one.random() == blocked.random()


def test_pick_from_rows_takes_blocks_of_any_size():
    # blocks of 1, 2, 3, ... rows: each block draws its own r, then the values
    # of its rows with no set bit (about 2 %)
    k, n = 74, 2000
    matrix = (stream(66, 0).random((n, k)) < 0.05).astype(np.uint8)
    assert (matrix.sum(axis=1) == 0).any()
    edges = np.unique(np.minimum(np.cumsum(np.arange(64)), n))
    assert edges[0] == 0 and edges[-1] == n
    rng, ref_rng = _pair(66, k, n)

    def blocks():
        return ((lo, hi, matrix[lo:hi]) for lo, hi in zip(edges, edges[1:]))

    pred = atk._pick_from_rows(blocks(), n, k, rng)
    np.testing.assert_array_equal(pred, _ref_pick_blocks(blocks(), k, ref_rng))
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("k,n", [(k, n) for k in KS for b in [block_rows(k)]
                                 for n in (0, b - 1, b, b + 1, 2 * b + 3)])
@pytest.mark.parametrize("proto", ["oue", "olh", "sue"])
def test_streamed_predict_and_counts_match_reference_across_blocks(proto, k, n):
    # support_blocks tiles [0, n) with the matches or bits that counts and pick read
    params = oc.protocol_params(proto, 1.0, k)
    values = _values(k, n, 67)
    rng, ref_rng = _pair(67, k, n)
    batch = oc.randomize_batch(values, params, rng)
    if proto == "olh":
        oc.randomize_batch(values, params, ref_rng)
        ref = _ref_olh_matches(*batch.data, k, params.aux)
        np.testing.assert_array_equal(_olh_matches(*batch.data, k, params.aux), ref)
    else:
        ref = _ref_ue(values, params.p, params.q, k, ref_rng)
        np.testing.assert_array_equal(batch.data, ref)
    np.testing.assert_array_equal(_stacked(oc.support_blocks(batch), n, k), ref)
    np.testing.assert_array_equal(oc.support_counts(batch), ref.sum(axis=0))
    pred = atk.predict_batch(batch, rng)
    np.testing.assert_array_equal(pred, _ref_pick_blocks(_blocks(ref, block_rows(k)), k, ref_rng))
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("g", [oc.protocol_params("olh", 43.0, 74).aux, 1 << 63],
                         ids=["eps43", "2^63"])
def test_hash_matches_near_the_bucket_limit(g):
    assert g > 1 << 62  # z // g takes only the values 0 to 3
    k = 74
    n = 2 * chunk_rows(k) + 3
    rng = stream(39, 0)
    seeds = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    values = _values(k, n, 39)
    rows = np.arange(n)
    true = _ref_hash(seeds, values, g)
    neighbour = np.where(true > 0, true - 1, true + 1)
    for buckets in (true, neighbour):
        got = _olh_matches(seeds, buckets, k, g)
        np.testing.assert_array_equal(got, _ref_olh_matches(seeds, buckets, k, g))
        np.testing.assert_array_equal(got[rows, values], buckets is true)


def _categorical_cases():
    """Probability vectors by name."""
    cases = {}
    for k in (1, 2, 16, 255, 256, 257, 300):
        p = stream(37, k).random(k) + 0.05
        cases[f"k{k}"] = p / p.sum()
        if k < 3:
            continue
        for where, at in (("first", 0), ("middle", k // 2), ("last", k - 1)):
            z = p.copy()
            z[at] = 0.0
            cases[f"k{k}-zero-{where}"] = z / z.sum()
        cases[f"k{k}-point"] = np.eye(k)[k // 3]
    # the cumulative sum reaches 1.0 exactly before its last entry ...
    cases["early-one"] = np.array([0.5, 0.25, 0.25, 0.0, 0.0])
    # ... or rounds above 1.0 there (cumsum[-2] == 1.0000000000000002)
    cases["early-over"] = np.array([
        0.10263397919429064, 0.1499824281457144, 0.10381675370987502, 0.05342415508841949,
        0.0764806371484379, 0.15154024547200093, 0.11604756078091066, 0.17764959774664688,
        0.06842464271370415, 0.0])
    return cases


CATEGORICAL_CASES = _categorical_cases()


class _FixedUniforms:
    """Stands in for a generator whose random(size) returns chosen uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == len(self.u)
        return self.u.copy()


@pytest.mark.parametrize("name", list(CATEGORICAL_CASES))
def test_categorical_matches_searchsorted_reference(name):
    pvec = CATEGORICAL_CASES[name]
    n = 20_000
    rng, ref_rng = stream(37, len(pvec), 1), stream(37, len(pvec), 1)
    got = _categorical(pvec, n, rng)
    assert got.dtype == (np.uint8 if len(pvec) <= 256 else np.int64)
    np.testing.assert_array_equal(got, _ref_categorical(pvec, n, ref_rng))
    assert rng.random() == ref_rng.random()
    # uniforms on every threshold, just below each, and 0: zero-mass ties and the edges
    cum = np.cumsum(pvec)[:-1]
    u = np.concatenate([[0.0], cum, np.nextafter(cum, 0.0)])
    u = u[u < 1.0]
    np.testing.assert_array_equal(_categorical(pvec, len(u), _FixedUniforms(u)),
                                  _ref_categorical(pvec, len(u), _FixedUniforms(u)))


def test_categorical_cases_hit_every_branch():
    sizes = {len(p) for p in CATEGORICAL_CASES.values()}
    assert {1, 256, 257} <= sizes  # the counting branch's limit on both sides
    assert np.cumsum(CATEGORICAL_CASES["early-one"])[2] == 1.0
    assert np.cumsum(CATEGORICAL_CASES["early-over"])[-2] > 1.0


NB_KS = [5, 2, 74, 9]  # categorical features; bernoulli mode takes sum(NB_KS) bits
NB_CLASSES = 5


def _nb_rows(mode, n, seed):
    """(n, m) features: category indices, or unary-style bits as uint8."""
    rng = stream(seed, n)
    if mode == "bernoulli":
        return (rng.random((n, sum(NB_KS))) < 0.3).astype(np.uint8)
    return np.column_stack([rng.integers(0, k, n) for k in NB_KS])


def _nb_learning_set(mode, single):
    X = _nb_rows(mode, 3000, 40)
    y = stream(41, 0).integers(0, NB_CLASSES, len(X))
    if single:
        y[:] = 2
    return X, y


def _nb_fit(mode, single):
    X, y = _nb_learning_set(mode, single)
    return NaiveBayes(mode=mode).fit(X, y, n_classes=NB_CLASSES, categories=NB_KS)


@pytest.mark.parametrize("n", [0, 1, PREDICT_ROWS - 1, PREDICT_ROWS, PREDICT_ROWS + 1,
                               2 * PREDICT_ROWS + 3])
@pytest.mark.parametrize("single", [False, True], ids=["fit", "single"])
@pytest.mark.parametrize("mode", ["categorical", "bernoulli"])
def test_nb_predict_matches_whole_matrix_scorer(mode, single, n):
    clf = _nb_fit(mode, single)
    assert (clf.constant_class is not None) == single
    X = _nb_rows(mode, n, 42)
    ref = _ref_nb_scores(mode, *_nb_learning_set(mode, single), NB_CLASSES, NB_KS, X)
    pred = clf.predict(X)
    assert pred.dtype == np.int64
    np.testing.assert_array_equal(pred, np.argmax(ref, axis=1))
    if single:
        return
    for lo in range(0, n, PREDICT_ROWS):
        hi = min(lo + PREDICT_ROWS, n)
        np.testing.assert_allclose(clf._scores(X[lo:hi]), ref[lo:hi], rtol=1e-12, atol=0)
    assert n < 2 or len(np.unique(pred)) > 1


@pytest.mark.parametrize("single", [False, True], ids=["fit", "single"])
@pytest.mark.parametrize("mode", ["categorical", "bernoulli"])
def test_nb_predict_checks_the_last_block_before_scoring(mode, single, monkeypatch):
    clf = _nb_fit(mode, single)
    X = _nb_rows(mode, 2 * PREDICT_ROWS + 3, 43)
    X[-1, 1] = 2  # out of range for feature 1 in both modes (k = 2, or a bit)
    scored = []
    monkeypatch.setattr(clf, "_scores", lambda block: scored.append(len(block)))
    with pytest.raises(ParameterError, match=r"feature 1 must lie in \[0, 2\)"):
        clf.predict(X)
    assert scored == []


def _ref_rs_sanitize(rows, cfg, rng):
    """The fake-data sanitizer with one array per attribute (int64 values or (n, k)
    uint8 bits), as it was before the report matrix, column-stacked in int64."""
    rows = np.asarray(rows, dtype=np.int64)
    n, d = rows.shape
    sampled = rng.integers(0, d, size=n)
    grr = cfg.variant == "grr"
    cols = []
    for a, k in enumerate(cfg.ks):
        params = cfg.params(a)
        real, fake = np.flatnonzero(sampled == a), np.flatnonzero(sampled != a)
        col = np.empty(n if grr else (n, k), dtype=np.int64 if grr else np.uint8)
        col[real] = oc.randomize_batch(rows[real, a], params, rng).data
        if cfg.fake is None:
            col[fake] = _stacked(oc.unary_bit_blocks(len(fake), k, params.q, rng), len(fake), k)
        else:
            fakes = _categorical(cfg.fake[a], len(fake), rng)
            col[fake] = fakes if grr else oc.randomize_batch(fakes, params, rng).data
        cols.append(col)
    return np.column_stack(cols).astype(np.int64), sampled


@pytest.mark.parametrize("n", [0, 1, block_rows(300) - 1, block_rows(300) + 1, 3000])
@pytest.mark.parametrize("variant,ks", [("grr", (4, 5, 3)), ("sue_z", (4, 5, 3)),
                                        ("oue_r", (4, 5, 3)), ("grr", (300, 3)),
                                        ("sue_z", (300, 5, 3)), ("sue_r", (300, 5, 3)),
                                        ("oue_r", (300, 5, 3))])
def test_rs_sanitize_writes_one_report_matrix(variant, ks, n):
    # the sanitizer returns one report matrix, and report_batches cuts it into column
    # views of it in attribute order; k = 300 makes the grr matrix uint16, and its UE
    # slots stream in blocks of block_rows(300) = 872 rows, which 3,000 users' slots cross
    cfg = mdm.CollectionConfig(ks, "rs_fd", variant, 1.0)
    rng = stream(56, n)
    rows = np.column_stack([rng.integers(0, k, n) for k in ks])
    M, sampled = mdm.rs_sanitize_batch(rows, cfg, stream(57, n))
    ref, ref_sampled = _ref_rs_sanitize(rows, cfg, stream(57, n))
    grr = variant == "grr"
    assert M.flags.c_contiguous and M.shape == (n, len(ks) if grr else sum(ks))
    assert M.dtype == (np.uint16 if grr and max(ks) > 256 else np.uint8)
    np.testing.assert_array_equal(M, ref)
    np.testing.assert_array_equal(sampled, ref_sampled)
    lo = 0
    for a, (b, k) in enumerate(zip(mdm.report_batches(M, cfg), ks, strict=True)):
        hi = lo + (1 if grr else k)
        assert b.params == cfg.params(a) and b.data.base is M
        np.testing.assert_array_equal(b.data, M[:, lo] if grr else M[:, lo:hi])
        if n:
            assert np.shares_memory(b.data, M[:, lo:hi])
            assert not np.shares_memory(b.data, M[:, :lo])
            assert not np.shares_memory(b.data, M[:, hi:])
        lo = hi
    for bad in (M[:, 0], M.ravel(), M[:, 1:], np.hstack([M, M[:, :1]])):
        with pytest.raises(ParameterError, match="report matrix must be"):
            mdm.report_batches(bad, cfg)


@pytest.mark.parametrize("n", [0, 1, block_rows(300) + 1, 3000])
@pytest.mark.parametrize("variant,ks", [("grr", (4, 5, 3)), ("grr", (300, 3)),
                                        ("sue_z", (300, 5, 3)), ("oue_r", (300, 5, 3))])
def test_rs_sanitize_stream_hands_over_the_report_matrix_columns(variant, ks, n):
    # the streamed sanitizer makes rs_sanitize_batch's draws and reports, and hands
    # each attribute's columns of M over in order, as contiguous rows of one reused
    # buffer
    cfg = mdm.CollectionConfig(ks, "rs_fd", variant, 1.0)
    rows = np.column_stack([stream(58, n).integers(0, k, n) for k in ks])
    rng, ref_rng = stream(59, n), stream(59, n)
    M, sampled = mdm.rs_sanitize_batch(rows, cfg, ref_rng)
    handed, buffers = [], set()

    def sink(cols, reports, y):
        assert reports.shape == (n, cols.stop - cols.start) and reports.dtype == M.dtype
        assert reports.flags.c_contiguous
        np.testing.assert_array_equal(y, sampled)
        handed.append((cols, reports.copy()))
        buffers.add(id(reports.base))

    np.testing.assert_array_equal(mdm.rs_sanitize_stream(rows, cfg, rng, sink), sampled)
    assert [cols for cols, _ in handed] == mdm.report_columns(cfg)
    for cols, reports in handed:
        np.testing.assert_array_equal(reports, M[:, cols])
    assert len(buffers) == 1
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("solution,variant", [
    ("rs_fd", "grr"), ("rs_fd", "sue_z"), ("rs_fd", "oue_z"), ("rs_fd", "sue_r"),
    ("rs_fd", "oue_r"), ("rs_rfd", "sue_r"), ("rs_rfd", "oue_r")])
def test_rs_estimate_counts_the_report_matrix_in_one_pass(solution, variant):
    # UE bits are counted over the whole (n, sum(ks)) matrix in uint16 slices of
    # 32,768 rows, then split at cumsum(ks): the counts of one support_counts per
    # batch, so the estimates are bit-identical, at n around the slice edges
    ks = (300, 5, 3)
    priors = [stream(73, k).dirichlet(np.ones(k)) for k in ks] if solution == "rs_rfd" else None
    cfg = mdm.CollectionConfig(ks, solution, variant, 1.0, priors)
    ns = (1, 32_767, 32_768, 32_769, 65_539)
    rng = stream(74, 0)
    rows = np.column_stack([rng.integers(0, k, ns[-1]) for k in ks])
    M, _ = mdm.rs_sanitize_batch(rows, cfg, stream(75, 0))
    grr = variant == "grr"
    ends = np.cumsum(ks)
    for n in ns:
        sub = M[:n].copy()  # the report matrix of n users
        part = [oc.ReportBatch(cfg.params(a), sub[:, a] if grr else sub[:, e - k : e])
                for a, (k, e) in enumerate(zip(ks, ends))]
        want = mdm.rs_estimate_from_counts([oc.support_counts(b) for b in part], cfg, n)
        for got, ref in zip(mdm.rs_estimate(sub, cfg), want, strict=True):
            np.testing.assert_array_equal(got, ref)
    for bad in (M[:, 0], M[:, 1:], np.hstack([M, M[:, :1]])):
        with pytest.raises(ParameterError, match="report matrix must be"):
            mdm.rs_estimate(bad, cfg)


def _rank_profiles(case):
    """300 users ranked against their own 300 records over 8 columns."""
    rng = stream(48, 0)
    n, c = 300, 8
    scale = 128 if case == "wide" else 1
    rows = rng.integers(0, 4, size=(n, c)) * scale
    noisy = np.where(rng.random((n, c)) < 0.3, rng.integers(0, 4, size=(n, c)) * scale, rows)
    if case == "all":
        return rows, noisy
    known = rng.random((n, c)) < rng.random((n, 1))
    known[:20] = False
    return rows, np.where(known, noisy, -1)


@pytest.mark.parametrize("chunk", [7, 256])
@pytest.mark.parametrize("bk", ["fk", "pk"])
@pytest.mark.parametrize("case", ["mixed", "all", "wide"])
def test_rank_of_true_matches_reference(case, bk, chunk, monkeypatch):
    # mixed: -1 entries, users with no known column (tied = 300, past uint8);
    # all: one known-column group of 300 users, more than a block;
    # wide: values 0..384, compared in int16 (int8 would equate 0 and 256)
    monkeypatch.setattr(atk, "_USER_BLOCK", chunk)
    rows, profiles = _rank_profiles(case)
    bk_cols = np.arange(8) if bk == "fk" else np.array([0, 2, 3, 5, 6])
    closer, tied = _assert_counts_match_reference(profiles, rows, bk_cols)
    assert (tied > 1).any() and (closer > 0).any()
    if case == "mixed":
        assert tied.max() == len(rows) > 255


def _assert_counts_match_reference(profiles, rows, bk_cols):
    """The kernel's int64 closer and tied equal the reference's; returns them."""
    closer, tied = atk._closer_tied(profiles, rows, bk_cols)
    ref_closer, ref_tied = _ref_closer_tied(profiles, rows, bk_cols)
    assert closer.dtype == tied.dtype == np.int64
    np.testing.assert_array_equal(closer, ref_closer)
    np.testing.assert_array_equal(tied, ref_tied)
    return closer, tied


def _bitset_profiles(n):
    """n users over 8 columns of values 0..2: user i knows i % 8 + 1 columns and is,
    by (i // 8) % 4, all right, wrong once with the value 3 no record holds, all
    wrong, or 30 % noisy."""
    rng = stream(53, n)
    c = 8
    rows = rng.integers(0, 3, size=(n, c))
    m = np.arange(n) % c + 1
    kind = np.arange(n) // c % 4
    known = np.argsort(rng.random((n, c)), axis=1) < m[:, None]
    profiles = rows.copy()
    first = known.argmax(axis=1)
    profiles[kind == 1, first[kind == 1]] = 3
    wrong = (rows + rng.integers(1, 3, size=(n, c))) % 3
    profiles[kind == 2] = wrong[kind == 2]
    noisy = (kind == 3)[:, None] & (rng.random((n, c)) < 0.3)
    profiles[noisy] = wrong[noisy]
    return rows, np.where(known, profiles, -1)


@pytest.mark.parametrize("n_bk", [256, 300])
def test_rank_of_true_bitset_edges(n_bk, monkeypatch):
    # 256 records fill their 4 words; 300 leave 20 padding bits, which an
    # all-wrong user (own = 0) must not count as tied
    rows, profiles = _bitset_profiles(n_bk)
    m = np.count_nonzero(profiles >= 0, axis=1)
    own = np.count_nonzero(profiles == rows, axis=1)
    for k in range(1, 9):  # both paths, each over more users than a block of 7
        assert np.count_nonzero((m == k) & (own == k)) > 7
        assert np.count_nonzero((m == k) & (own < k)) > 7
    assert (own == 0).sum() >= n_bk // 4 and (profiles == 3).any()
    monkeypatch.setattr(atk, "_USER_BLOCK", 7)
    _assert_counts_match_reference(profiles, rows, np.arange(8))


@pytest.mark.parametrize("budget", [64, 512])
@pytest.mark.parametrize("case", ["bitset-256", "bitset-300", "mixed", "wide"])
def test_rank_of_true_record_blocks_match_reference(case, budget, monkeypatch):
    # a cut bitset budget splits the records into blocks of one word (64 bytes,
    # and the wide case's 3,000-odd rows at 512) or two (512 bytes); the 300
    # records end in a part-filled block, whose padding bits users with own = 0
    # must not count as tied
    monkeypatch.setattr(atk, "_BITSET_BYTES", budget)
    if case.startswith("bitset"):
        rows, profiles = _bitset_profiles(int(case.split("-")[1]))
    else:
        rows, profiles = _rank_profiles(case)
    assert (np.count_nonzero(profiles == rows, axis=1) == 0).any()
    for bk_cols in (np.arange(8), np.array([0, 2, 3, 5, 6])):
        for chunk in (7, 256):
            monkeypatch.setattr(atk, "_USER_BLOCK", chunk)
            _assert_counts_match_reference(profiles, rows, bk_cols)


# ---------------------------------------------------------------------------
# Memory bound
# ---------------------------------------------------------------------------

def test_rs_sanitize_scratch_is_block_sized():
    # the (n_a, k) bits of each UE slot, the n-long float64 uniforms of each fake
    # draw and int64 sampled indices grew the peak by 75.6 bytes per user at
    # sum(k) = 46; now it is the report matrix and a few bytes per user (the row
    # indices, the sampled index and the fake values)
    ks = [16, 12, 8, 6, 4]
    for variant in ("oue_r", "sue_z"):
        cfg = mdm.CollectionConfig(ks, "rs_fd", variant, 1.0)

        def peak(n):
            rows = zipf_dataset(n, ks, 0.6, stream(64, n)).rows
            (_, sampled), traced = _traced_peak(
                lambda: mdm.rs_sanitize_batch(rows, cfg, stream(65, n)))
            return traced, sampled

        peak(100)  # first-call allocations would otherwise count only in the small run
        n_small, n = 20_000, 80_000
        (small, _), (large, sampled) = peak(n_small), peak(n)
        assert large - small <= (n - n_small) * (sum(ks) + 12)
        assert sampled.dtype == np.uint8 and len(sampled) == n


def test_bernoulli_fit_scratch_is_block_sized():
    # per-class mask gathers grew the fit's peak by about n m / C + n bytes (a class's
    # rows and its mask); one float32 GEMM per block of PREDICT_ROWS rows holds a
    # block's scratch, whatever n
    m, C = 46, 5

    def peak(n):
        X = (stream(76, n).random((n, m)) < 0.3).astype(np.uint8)
        y = stream(77, n).integers(0, C, n)
        return _traced_peak(lambda: NaiveBayes(mode="bernoulli").fit(X, y, n_classes=C))[1]

    peak(100)  # first-call allocations would otherwise count only in the small run
    small, large = peak(20_000), peak(80_000)
    # 64 KiB covers the interpreter's own small objects
    assert large - small <= 64 * 1024


@pytest.mark.parametrize("k", [16, 300])
@pytest.mark.parametrize("size", [CHUNK_ELEMENTS - 1, CHUNK_ELEMENTS, CHUNK_ELEMENTS + 1,
                                  2 * CHUNK_ELEMENTS + 3])
def test_categorical_chunks_draw_the_unchunked_values(k, size):
    pvec = CATEGORICAL_CASES[f"k{k}"]
    rng, ref_rng = stream(66, size), stream(66, size)
    np.testing.assert_array_equal(_categorical(pvec, size, rng),
                                  _ref_categorical(pvec, size, ref_rng))
    assert rng.random() == ref_rng.random()


def _ref_attr_infer(rows, cfg, seed, run=0, s_mult=1.0, npk_frac=0.1):
    """run_attr_infer_experiment with whole learning sets: the synthetic one's report
    matrix made by rs_sanitize_batch at the same draws, the compromised rows gathered
    whole, one row-block fit on them, and every model's test rows predicted in one call."""
    n = len(rows)
    rng = stream(seed, 404, run)
    features, labels = mdm.rs_sanitize_batch(rows, cfg, rng)
    est = mdm.rs_estimate(features, cfg)
    grr = cfg.variant == "grr"
    out = {}
    for i, model in enumerate(atk.ATTACK_MODELS):
        rng_m = stream(seed, 505, run, i)
        Xs, ys, fell_back, rest = [], [], [], slice(None)
        if model != "nk":
            perm = rng_m.permutation(n)
            n_pk = atk.compromised_count(npk_frac, n)
            comp, rest = perm[:n_pk], perm[n_pk:]
            Xs.append(features[comp])
            ys.append(labels[comp])
        if model != "pk":
            dists, fell_back = clip_or_uniform(est)
            synth = synthesize_profiles(dists, atk.synthetic_count(s_mult, n), rng_m, cfg.ks)
            M, sampled = mdm.rs_sanitize_batch(synth, cfg, rng_m)
            Xs.insert(0, M)
            ys.insert(0, sampled)
        clf = NaiveBayes(mode="categorical" if grr else "bernoulli").fit(
            Xs, ys, n_classes=len(cfg.ks), categories=list(cfg.ks))
        flags = [f for f, hit in (("single_class", clf.constant_class is not None),
                                  ("estimate_fallback", any(fell_back))) if hit]
        pred = clf.predict(features[rest])
        out[model] = (100.0 * float(np.mean(pred == labels[rest])), flags)
    return out


@pytest.mark.parametrize("variant", ["grr", "oue_r"])
def test_attr_infer_scores_test_rows_in_predict_blocks(variant, monkeypatch):
    # 10,001 users: no model's test rows (10,001 for nk, 9,001 for pk and hm) fill
    # their last block of PREDICT_ROWS
    ks = [16, 12, 8, 6, 4]
    cfg = mdm.CollectionConfig(ks, "rs_fd", variant, 1.0)
    rows = zipf_dataset(10_001, ks, 0.6, stream(67, 0)).rows
    ref = _ref_attr_infer(rows, cfg, seed=68)
    matrices, calls = [], []
    sanitize, predict = atk.rs_sanitize_batch, NaiveBayes.predict

    def spy_sanitize(rows, cfg, rng):
        matrices.append(sanitize(rows, cfg, rng))
        return matrices[-1]

    def spy_predict(self, X):
        calls.append((len(X), np.shares_memory(X, matrices[0][0])))
        return predict(self, X)

    monkeypatch.setattr(atk, "rs_sanitize_batch", spy_sanitize)  # the name attacks calls
    monkeypatch.setattr(NaiveBayes, "predict", spy_predict)
    got = atk.run_attr_infer_experiment(rows, cfg, atk.ATTACK_MODELS, seed=68)
    assert got == ref  # the accuracies bit for bit, and the flags
    assert all(rows <= PREDICT_ROWS for rows, _ in calls)
    # nk scores views of the collection's report matrix; pk and hm gather their rows
    assert calls == [(4096, True), (4096, True), (1809, True)] + 2 * [
        (4096, False), (4096, False), (809, False)]


def test_rank_of_true_takes_narrow_background_rows():
    # uint8 records whose maximum exceeds the profiles': negating that uint8 maximum
    # for the compare dtype wrapped, with a RuntimeWarning
    rows = stream(62, 0).integers(0, 5, size=(200, 3))
    profiles = np.full(rows.shape, -1)
    profiles[:, 0] = 0
    narrow = rows.astype(np.uint8)
    assert narrow.max() > profiles.max()
    for got, want in zip(atk._closer_tied(profiles, narrow, np.arange(3)),
                         atk._closer_tied(profiles, rows, np.arange(3)), strict=True):
        np.testing.assert_array_equal(got, want)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("proto", ["sue", "olh", "ss"])
def test_randomize_and_predict_peak_memory_bounded(proto):
    # the whole-matrix kernels peaked near 18 x n*k bytes (float64 / int64 temporaries);
    # a (k, n) count array and the (n, k) OLH match matrix put UE / OLH predict at
    # 1.23 / 2.24 x n*k, and int64 reports SS randomize at 2.32
    n_small, n, k = 10_000, 50_000, 74
    params = oc.protocol_params(proto, 1.0, k)

    def run(m):
        values = _values(k, m, 36)
        rng = stream(36, 0)
        batch, randomize = _traced_peak(lambda: oc.randomize_batch(values, params, rng))
        pred, predict = _traced_peak(lambda: atk.predict_batch(batch, rng))
        assert pred.dtype == np.int64
        return batch, randomize, predict

    _, _, small = run(n_small)
    batch, randomize, predict = run(n)
    if proto == "ss":
        assert batch.data.dtype == np.uint8
        assert randomize < n * k
        # bincount casts to intp: one copy of the uint8 reports would be 8 x their bytes
        assert _traced_peak(lambda: oc.support_counts(batch))[1] < batch.data.nbytes / 2
        return
    if proto == "sue":
        assert randomize < 1.5 * n * k
    assert predict < n * k
    # only the int64 output grows with n; 64 KiB covers the interpreter's own small objects
    assert predict - small <= 8 * (n - n_small) + 64 * 1024


@pytest.mark.parametrize("proto", ["sue", "oue"])
def test_streamed_ue_attack_peak_memory_bounded(proto):
    # randomize-then-predict held the (n, k) bits and grew by about 80 bytes per
    # added row at k = 74; streamed into the pick, only the int64 output grows
    n_small, n, k = 10_000, 50_000, 74
    params = oc.protocol_params(proto, 1.0, k)

    def peak(m):
        values = _values(k, m, 40)
        rng = stream(40, 0)
        pred, traced = _traced_peak(lambda: atk.randomize_predict(values, params, rng))
        assert len(pred) == m and pred.dtype == np.int64
        return traced

    peak(1)  # first-call allocations would otherwise count only in the small run
    small, large = peak(n_small), peak(n)
    # 64 KiB covers the interpreter's own small objects
    assert large - small <= 8 * (n - n_small) + 64 * 1024


def test_nb_predict_peak_memory_bounded():
    # the whole-matrix scorer peaked near 16 bytes per bit (a float64 copy and 1 - copy)
    n_small, n, m = 50_000, 200_000, 46
    bits = (stream(44, n).random((n, m)) < 0.3).astype(np.uint8)
    y = stream(45, 0).integers(0, 5, n)
    clf = NaiveBayes(mode="bernoulli").fit(bits[:3000], y[:3000], n_classes=5)
    _, small = _traced_peak(lambda: clf.predict(bits[:n_small]))
    pred, peak = _traced_peak(lambda: clf.predict(bits))
    assert len(pred) == n
    assert peak < 16 * 2**20
    # only the int64 output grows with n; 64 KiB covers the interpreter's own small objects
    assert peak - small <= 8 * (n - n_small) + 64 * 1024


def test_attr_infer_peak_memory_bounded():
    # one oue_r collection over d = 5 attributes and nk, pk and hm against it; with a
    # column_stack of the batches, the concatenated hm learning set and int64
    # synthetic rows this peaked at 5.61 bytes per n * sum(k) at n = 80,000 and grew
    # by 4.69 bytes per added n * sum(k) from n = 20,000 (one report matrix, block
    # fit and narrow rows: 3.37 and 2.47; block-sized UE and fake-draw scratch,
    # uint8 sampled labels and test rows scored a block at a time: 2.85 and 2.11).
    # That 2.11 held only because the 20,000-user peak carried ~1.4 MiB of constant
    # scoring scratch: the traced peaks were 4.68 / 5.78 / 8.12 / 10.57 MB at
    # 20 / 40 / 60 / 80 thousand users, 2.61 bytes per added n * sum(k) from 40,000.
    # With learning sets counted as they are made, not stored, one GEMM per scored
    # block and bool-mask sanitizer rows: 3.01 / 4.31 / 6.06 / 7.71 MB, so 1.71 from
    # 20,000 and 1.85 from 40,000; both slopes are checked
    ks = [16, 12, 8, 6, 4]
    cfg = mdm.CollectionConfig(ks, "rs_fd", "oue_r", 1.0)

    def peak(n):
        rows = zipf_dataset(n, ks, 0.6, stream(3, n)).rows
        res, traced = _traced_peak(lambda: atk.run_attr_infer_experiment(
            rows, cfg, atk.ATTACK_MODELS, seed=5))
        assert list(res) == list(atk.ATTACK_MODELS)
        return traced

    n = 80_000
    large = peak(n)
    assert large < 3.0 * n * sum(ks)
    for n_small in (20_000, 40_000):
        assert large - peak(n_small) < 2.25 * (n - n_small) * sum(ks)


def test_rank_of_true_peak_memory_bounded():
    # every user knows all 10 columns: one group in full blocks, the largest scratch;
    # the single-pass kernel peaked at 4.2 MiB at n = 5,000 (an int64 copy of the
    # table, (256, n) counts and two bool copies of them)
    def peak(n):
        rows = stream(50, n).integers(0, 5, size=(n, 10))
        profiles = np.where(stream(51, n).random((n, 10)) < 0.3, (rows + 1) % 5, rows)
        return _traced_peak(lambda: atk._closer_tied(profiles, rows, np.arange(10)))[1]

    small, large = peak(1250), peak(5000)
    assert large < 3 * 2**20
    assert large <= 4 * small


def test_rank_of_true_bitset_budget_bounds_memory(monkeypatch):
    # an index-like column holds one value per record, so its bitsets alone take
    # n^2 / 8 bytes: the single-block kernel peaked at 53.3 MiB at n = 20,000
    monkeypatch.setattr(atk, "_BITSET_BYTES", 4 * 2**20)
    n = 20_000
    fixture = load_fixture("adult_style_5000").rows
    rows = np.column_stack([np.tile(fixture, (n // len(fixture), 1)), np.arange(n)])
    profiles = np.where(stream(61, n).random(rows.shape) < 0.4, rows, -1)
    (closer, tied), peak = _traced_peak(lambda: atk._closer_tied(profiles, rows,
                                                                 np.arange(rows.shape[1])))
    assert peak < 12 * 2**20
    assert len(closer) == n and (closer >= 0).all() and (tied >= 1).all()
    assert (closer + tied <= n).all()
