"""Property tests over random inputs, beyond the fixed seeds and beta = 0.5
of the unit tests and the benchmark.

* The scalar constructions equal the vectorized one bit for bit.
* Every method's ``run_method`` values equal its closed-form rule exactly,
  and ``n_queries`` counts exactly the queried rows.
* The query ledger is exact: exact values that were never queried can
  change without changing any output bit.
* Every method's values lie in their domain (e >= 0, p in [0, 1]), and the
  allocation's expected queries stay within the budget.
* With ids, permuting the rows permutes every output the same way.
* A set's memo never leaks: any sequence of runs on one set gives what
  the same runs give on fresh sets, and the memo holds only its named slots.
* The bulk table reader returns the same keys and bit-identical values as
  the per-row ``csv.reader`` loop it falls back to.
* Every domain check refuses exactly when an element mask finds an
  offender, naming the same first offender with the same message, and
  every public call refuses values that are not numbers, and settings
  outside their interval or choices, by the argument's name.
* ``csv_text`` writes each float as ``repr`` of its ``tolist()`` value,
  whatever its bits, dtype or stride, and across join blocks.
* The signal DGP's Poisson sampler equals ``scipy.stats.poisson.ppf`` bit
  for bit, at CDF steps too, and returns for every finite mean.
"""

import math
import os
import re
import tempfile
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from activetest.allocation import allocate_utilities, eval_utility
from activetest.core import (
    E_VALUES,
    P_GENERAL,
    P_INDEPENDENT,
    active_e,
    active_p,
    active_values,
    check_domain,
)
from activetest import pipeline
from activetest.engine import (
    _ROWS_PER_JOIN, METHOD_NAMES, HypothesisSet, MethodSpec, UniqueIds, csv_text, run_method,
    xu_query_prob,
)
from activetest.errors import DegenerateUtilitiesError, DomainError
from activetest.procedures import bh, by, ebh, harmonic_number
from activetest.rng import QUERY_DRAW, uniforms
from activetest.simulate import DgpSpec, _poisson_inverse, run_experiment

MODES = [E_VALUES, P_INDEPENDENT, P_GENERAL]

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.filter_too_much])

# bounded away from 0 only so that (1 - h) / beta cannot overflow
betas = st.floats(min_value=1e-12, max_value=1.0, exclude_max=True)
draws = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
open_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
unit = st.floats(min_value=0.0, max_value=1.0)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


@st.composite
def streams(draw, n):
    """A seed, a rep and n ids (or none): what picks a set's own branch draws."""
    ids = draw(st.none() | st.lists(st.text(max_size=4), min_size=n, max_size=n, unique=True))
    return draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 3)), ids


def stream_draws(hs, seed, rep):
    return uniforms(seed, rep, hs.stream_keys(), QUERY_DRAW)


@st.composite
def hypotheses(draw, mode, min_size=1, max_size=25):
    n = draw(st.integers(min_size, max_size))
    if mode.is_e:
        stat = st.floats(min_value=0.0, max_value=1e6)
    else:
        stat = unit
    aux = draw(st.lists(stat, min_size=n, max_size=n))
    exact = draw(st.lists(stat, min_size=n, max_size=n))
    return np.array(aux), np.array(exact)


@PROPERTY
@given(data=st.data(), mode=st.sampled_from(MODES), beta=betas)
def test_scalar_constructions_equal_active_values(data, mode, beta):
    _, exact = data.draw(hypotheses(mode))
    n = exact.size
    h = np.array(data.draw(st.lists(st.floats(min_value=0.0, max_value=10.0),
                                    min_size=n, max_size=n)))
    u = np.array(data.draw(st.lists(draws, min_size=n, max_size=n)))
    values, queried = active_values(h, u, lambda idx: exact[idx], mode, beta)
    for i in range(n):
        if mode.is_e:
            out = active_e(exact[i], h[i], beta=beta, u=u[i])
        else:
            out = active_p(exact[i], h[i], beta=beta, mode=mode, u=u[i])
        assert bits(out.value) == bits(values[i])
        assert out.queried == queried[i]


@PROPERTY
@given(data=st.data(), mode=st.sampled_from(MODES), beta=betas)
def test_sure_levels_always_queried(data, mode, beta):
    # a draw lies in [0, 1), so a level h >= 1 is queried at every draw and
    # the no-query value, which needs h < 1, is never formed from it
    aux, exact = data.draw(hypotheses(mode))
    n = exact.size
    levels = st.one_of(st.floats(min_value=0.0, max_value=10.0), st.sampled_from([1.0, 1e300]))
    h = np.array(data.draw(st.lists(levels, min_size=n, max_size=n)))
    u = np.array(data.draw(st.lists(draws, min_size=n, max_size=n)))
    _, queried = active_values(h, u, lambda idx: exact[idx], mode, beta)
    assert queried[h >= 1.0].all()

    n_b = float(data.draw(st.integers(1, n)))
    seed, rep, ids = data.draw(streams(n))
    hs = HypothesisSet(aux, exact, ids=ids)
    utility = "log1p" if mode.is_e else "log_inverse"
    for method in ("active", "active-xu", "xu"):
        try:
            out = run_method(hs, MethodSpec(method, beta=beta), mode=mode, n_b=n_b,
                             seed=seed, rep=rep, utility=utility)
        except DegenerateUtilitiesError:
            continue  # all-zero utilities are rejected by design
        assert out.queried[out.h >= 1.0].all()
        np.testing.assert_array_equal(
            out.queried, stream_draws(hs, seed, rep) < np.minimum(1.0, out.h))


def closed_form(method, mode, beta, aux, exact, h, queried):
    """Per-row value of each method's rule, in plain Python floats."""
    out = []
    for a, e, hi, q in zip(aux, exact, h, queried):
        a, e, hi = float(a), float(e), float(hi)
        if method in ("random", "all"):
            out.append(e if q else 1.0)
        elif method == "xu":
            if not q:
                out.append(a)
            elif mode.is_e:
                out.append((1.0 - beta) * e)
            else:
                out.append(min(1.0, e / (1.0 - beta)))
        elif mode.is_e:
            out.append((1.0 - beta) / hi * e if q else beta / (1.0 - hi))
        elif not q:
            out.append(min(1.0, (1.0 - hi) / beta))
        elif mode.kind == "p_independent":
            out.append(min(1.0, hi / (1.0 - beta) * e))
        else:
            out.append(min(1.0, 1.0 / (1.0 - beta) * e))
    return out


@PROPERTY
@given(data=st.data(), method=st.sampled_from(METHOD_NAMES), mode=st.sampled_from(MODES),
       beta=betas)
def test_run_method_follows_closed_form(data, method, mode, beta):
    aux, exact = data.draw(hypotheses(mode))
    n = aux.size
    n_b = data.draw(st.integers(1, n))
    utility = "log1p" if mode.is_e else "log_inverse"
    if method in ("active", "active-xu"):
        if method == "active":
            scores = eval_utility(utility, aux)
        else:
            scores = xu_query_prob(aux, beta, mode)
        assume(np.any(scores > 0.0))  # all-zero utilities are rejected by design
        want_h = allocate_utilities(scores, float(n_b)).h
        query_prob = np.minimum(1.0, want_h)
    elif method == "xu":
        want_h = query_prob = xu_query_prob(aux, beta, mode)
    else:
        want_h = np.full(n, n_b / n) if method == "random" else np.ones(n)
        query_prob = None
    seed, rep, ids = data.draw(streams(n))
    hs = HypothesisSet(aux, exact, ids=ids)

    out = run_method(hs, MethodSpec(method, beta=beta), mode=mode, n_b=float(n_b),
                     seed=seed, rep=rep, utility=utility)

    assert out.h.tobytes() == want_h.tobytes()
    if query_prob is not None:
        np.testing.assert_array_equal(
            out.queried, stream_draws(hs, seed, rep) < np.minimum(1.0, query_prob))
    want = closed_form(method, mode, beta, aux, exact, out.h, out.queried)
    assert [bits(v) for v in out.values] == [bits(v) for v in want]
    assert out.n_queries == int(np.count_nonzero(out.queried))
    if method == "random":
        assert out.n_queries == n_b
    if method == "all":
        assert out.n_queries == n


def run_or_reject(hs, method, mode, beta, n_b, seed):
    utility = "log1p" if mode.is_e else "log_inverse"
    try:
        return run_method(hs, MethodSpec(method, beta=beta), mode=mode, n_b=n_b, seed=seed,
                          utility=utility)
    except DegenerateUtilitiesError:
        assume(False)  # all-zero utilities are rejected by design


@PROPERTY
@given(data=st.data(), method=st.sampled_from(METHOD_NAMES), mode=st.sampled_from(MODES),
       beta=betas, seed=st.integers(0, 2**32))
def test_ledger_is_exact(data, method, mode, beta, seed):
    aux, exact = data.draw(hypotheses(mode))
    n_b = float(data.draw(st.integers(1, aux.size)))

    def run(exact_values):
        return run_or_reject(HypothesisSet(aux, exact_values), method, mode, beta, n_b, seed)

    out = run(exact)
    # NaN is out of every domain: a read of any unqueried row would show
    mutated = np.where(out.queried, exact, np.nan)
    again = run(mutated)
    for name in ("values", "queried", "h"):
        assert getattr(again, name).tobytes() == getattr(out, name).tobytes()
    assert again.n_queries == out.n_queries


@PROPERTY
@given(data=st.data(), method=st.sampled_from(METHOD_NAMES), mode=st.sampled_from(MODES),
       beta=betas, seed=st.integers(0, 2**32))
def test_values_in_domain_and_expected_queries_within_budget(data, method, mode, beta, seed):
    aux, exact = data.draw(hypotheses(mode))
    n = aux.size
    if method == "random":
        n_b = float(data.draw(st.integers(1, n)))
    else:
        n_b = data.draw(st.floats(min_value=1e-3, max_value=float(n)))
    out = run_or_reject(HypothesisSet(aux, exact), method, mode, beta, n_b, seed)
    if mode.is_e:
        assert np.all(out.values >= 0.0)
    else:
        assert np.all((out.values >= 0.0) & (out.values <= 1.0))
    if out.allocation is not None:  # active and active-xu
        # float rounding only: each h carries three roundings (the sorted
        # total, the division, the product) and the sum one per row, so a
        # relative slack of 8 n machine epsilons covers them with room
        slack = 8 * n * np.finfo(np.float64).eps
        assert out.allocation.expected_queries <= n_b * (1.0 + slack)


@PROPERTY
@given(data=st.data(), method=st.sampled_from(["active", "active-xu", "xu", "all"]),
       mode=st.sampled_from(MODES), beta=betas, seed=st.integers(0, 2**32))
def test_row_order_permutes_outputs(data, method, mode, beta, seed):
    aux, exact = data.draw(hypotheses(mode))
    n = aux.size
    n_b = float(data.draw(st.integers(1, n)))
    perm = np.array(data.draw(st.permutations(range(n))), dtype=np.intp)
    ids = np.array([f"h{i}" for i in range(n)], dtype=object)

    def run(order):
        hs = HypothesisSet(aux[order], exact[order], ids=list(ids[order]))
        return run_or_reject(hs, method, mode, beta, n_b, seed)

    out = run(np.arange(n))
    moved = run(perm)
    assert moved.ids == list(ids[perm])
    for name in ("values", "queried", "h"):
        assert getattr(moved, name).tobytes() == getattr(out, name)[perm].tobytes()


@st.composite
def run_calls(draw, n):
    """A sequence of run_method keyword sets over every variant, mode, beta,
    budget (some above n), utility family, seed and rep.
    Each call after the first changes one setting of the call before it (or
    none), so runs keep meeting a memo made for settings one step away."""
    fields = {
        "variant": st.sampled_from(METHOD_NAMES),
        "mode": st.sampled_from(MODES),
        "beta": st.sampled_from([0.3, 0.5]),
        "budget": st.sampled_from([0, 1, n, n + 2]).map(float),
        "utility": st.sampled_from(["identity", "log1p", "inverse", "log_inverse"]),
        "seed": st.integers(0, 2),
        "rep": st.integers(0, 1),
    }
    settings_ = [{name: draw(field) for name, field in fields.items()}]
    for _ in range(draw(st.integers(1, 24))):
        step = dict(settings_[-1])
        changed = draw(st.sampled_from([None, *fields]))
        if changed is not None:
            step[changed] = draw(fields[changed])
        settings_.append(step)
    calls = []
    for step in settings_:
        variant = step["variant"]
        n_b = step["budget"]
        if variant != "random":
            n_b = n_b or 0.5 * n
        elif n_b > n:
            n_b = float(n)
        calls.append(dict(method=MethodSpec(variant, beta=step["beta"]), mode=step["mode"],
                          n_b=n_b, utility=step["utility"], seed=step["seed"], rep=step["rep"]))
    return calls


def outcome(hs, call):
    """run_method's outputs and warnings, or the error it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = run_method(hs, **call)
        except DomainError as exc:
            return type(exc), str(exc)
    return (out.values.tobytes(), out.queried.tobytes(), out.h.tobytes(), out.n_queries,
            [str(w.message) for w in caught])


@PROPERTY
@given(data=st.data(), with_ids=st.booleans(), aux_mode=st.sampled_from([E_VALUES, P_GENERAL]))
def test_memo_runs_equal_fresh_runs(data, with_ids, aux_mode):
    # statistics in [0, 1] lie in every mode's domain; larger e-values only
    # in the e domain, so p-mode runs on them are refused
    aux, exact = data.draw(hypotheses(aux_mode, max_size=12))
    n = aux.size
    ids = [f"h{i}" for i in range(n)] if with_ids else None
    shared = HypothesisSet(aux, exact, ids=ids)
    for call in data.draw(run_calls(n)):
        assert outcome(shared, call) == outcome(HypothesisSet(aux, exact, ids=ids), call)


MEMO_SLOTS = {"keys", "aux", "draws", "active", "active-xu", ("plan", "active"),
              ("plan", "active-xu"), "oracle"}


@PROPERTY
@given(data=st.data())
def test_memo_holds_only_its_named_slots(data):
    # what varies between runs (mode, alpha, budget, seed) is a slot's key, never its name
    aux, target = data.draw(hypotheses(P_GENERAL, max_size=12))
    pair = pipeline.AlignedPair([f"k{i}" for i in range(aux.size)], aux, target)
    for call in data.draw(run_calls(aux.size)):
        if data.draw(st.booleans()):
            outcome(pair, call)
        else:
            alpha = data.draw(st.sampled_from([0.05, 0.1, 0.2]))
            try:
                pipeline.oracle_recovery(pair, n_b=call["n_b"], beta=call["method"].beta,
                                         method=call["method"].variant, alpha=alpha,
                                         seed=call["seed"])
            except DomainError:
                pass  # a budget above n is refused
        assert set(pair._memo) <= MEMO_SLOTS


# characters csv.reader keeps inside a field but str.splitlines would break on
LINE_LIKE = " \x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\u00e9"


@st.composite
def plain_tables(draw):
    """A quote-free table: its text, the key and value column names, the
    keys and values it holds, and whether values are unit-interval checked."""
    delim = draw(st.sampled_from([",", "\t"]))
    k = draw(st.integers(2, 5))
    names = [f"c{j}" for j in range(k)]
    order = draw(st.permutations(range(k)))
    n_values = draw(st.integers(1, k - 1))
    key_idx, value_idxs = order[0], order[1:1 + n_values]
    unit = draw(st.booleans())
    chars = st.one_of(st.sampled_from(LINE_LIKE),
                      st.characters(codec="utf-8", exclude_characters=delim + '"\r\n'))
    n = draw(st.integers(1, 30))
    keys = draw(st.lists(st.text(chars, max_size=5), min_size=n, max_size=n, unique=True))
    number = (st.floats(0.0, 1.0) if unit
              else st.floats(allow_nan=True, allow_infinity=True) | st.integers(-10**6, 10**6))
    spaces = st.sampled_from(["", " ", "  ", "\t" if delim == "," else " "])
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    values = [[] for _ in value_idxs]
    lines = [delim.join(names) + draw(ends)]
    for key in keys:
        fields = [draw(st.text(chars, max_size=4)) for _ in range(k)]
        fields[key_idx] = key
        for column, idx in zip(values, value_idxs):
            x = draw(number)
            text = draw(st.sampled_from([repr, str, "{:.6e}".format]))(x)
            column.append(float(text))
            fields[idx] = draw(spaces) + text + draw(spaces)
        lines.append(delim.join(fields) + draw(ends))
        lines += [draw(ends) for _ in range(draw(st.integers(0, 2)))]  # blank lines
    text = "".join(lines)
    if not draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, names[key_idx], [names[i] for i in value_idxs], keys, values, unit


@PROPERTY
@given(table=plain_tables(), block=st.sampled_from([1, 7, 64, 1 << 16]))
def test_bulk_reader_matches_csv_reader(table, block):
    text, key_col, value_cols, keys, values, unit = table
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        # small blocks make every table span several of them
        with mock.patch.object(pipeline, "_BLOCK_CHARS", block), \
                mock.patch.object(pipeline, "_parse_rows", side_effect=AssertionError("declined")):
            bulk = pipeline.read_columns(path, key_col, value_cols, unit_interval=unit)
        with mock.patch.object(pipeline, "_parse_blocks", return_value=None):
            rows = pipeline.read_columns(path, key_col, value_cols, unit_interval=unit)
    assert bulk[0] == rows[0] == tuple(keys)
    assert type(bulk[0]) is type(rows[0]) is UniqueIds
    for got, ref, want in zip(bulk[1], rows[1], values):
        assert got.tobytes() == ref.tobytes() == np.array(want, dtype=np.float64).tobytes()


# bit patterns no drawn word is likely to hit: both zeros, quiet and
# signalling NaNs with payloads and either sign, both infinities, the
# smallest and largest subnormals
FLOAT_EDGE_BITS = [0x0, 0x8000000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
                   0x7FF8000000000001, 0x7FF0000000000001, 0xFFF00000DEADBEEF,
                   0x7FF0000000000000, 0xFFF0000000000000, 0x1, 0x800000000000000F,
                   0x000FFFFFFFFFFFFF]


@st.composite
def float_columns(draw):
    """A float column of arbitrary bits and edge values, with both zeros
    next to each other in either order, maybe a run of one value across
    the first join-block boundary; float64, float32 or strided."""
    words = st.integers(0, 2**64 - 1)
    pieces = [np.array(draw(st.lists(words, max_size=30)), dtype=np.uint64),
              np.array(draw(st.lists(st.sampled_from(FLOAT_EDGE_BITS), max_size=20)),
                       dtype=np.uint64),
              np.array(draw(st.sampled_from([[0x0, 1 << 63], [1 << 63, 0x0]])), dtype=np.uint64)]
    pieces = [piece.view(np.float64) for piece in draw(st.permutations(pieces))]
    if draw(st.booleans()):
        run = np.full(draw(st.integers(2, 40)), np.array(draw(words), dtype=np.uint64).view(
            np.float64))
        before = _ROWS_PER_JOIN - draw(st.integers(1, run.size - 1))
        pieces = [np.arange(before) / 7.0, run] + pieces
    column = np.concatenate(pieces)
    form = draw(st.sampled_from(["float64", "float32", "strided"]))
    if form == "float32":
        return column.view(np.float32)
    if form == "strided":
        return np.stack([column, -column], axis=1).ravel()[::2]
    return column


@PROPERTY
@given(column=float_columns())
def test_csv_floats_written_as_repr(column):
    want = "".join(f"{i},{v!r}\n" for i, v in enumerate(column.tolist()))
    assert csv_text("i,v\n", [np.arange(column.size), column]) == "i,v\n" + want


# the edges of the domain checks: both zeros, subnormals, 1 and its
# neighbours, nan, both infinities and the largest finite value
IN_UNIT = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, math.nextafter(1.0, 0.0)]
OUTSIDE = [math.nan, math.inf, -math.inf, -5e-324, -1.0, math.nextafter(1.0, 2.0),
           1.7976931348623157e308]
EDGE_CHECKS = settings(PROPERTY, max_examples=200)


@st.composite
def edge_vectors(draw):
    """Up to 50 values in [0, 1], of which up to two are then replaced by
    any float, so that vectors inside each domain are drawn often."""
    xs = draw(st.lists(st.sampled_from(IN_UNIT) | unit, max_size=50))
    for _ in range(draw(st.integers(0, 2)) if xs else 0):
        xs[draw(st.integers(0, len(xs) - 1))] = draw(st.sampled_from(OUTSIDE) | st.floats())
    return np.array(xs, dtype=np.float64)


def refusal(call):
    """(message, index) of the domain refusal ``call`` raises, or None."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            call()
    except DegenerateUtilitiesError:
        return None
    except DomainError as exc:
        return str(exc), exc.index
    return None


def first(bad: np.ndarray):
    return int(np.flatnonzero(bad)[0]) if bad.any() else None


@EDGE_CHECKS
@given(x=edge_vectors(), mode=st.sampled_from(MODES), with_rows=st.booleans())
def test_check_domain_refuses_as_the_element_mask(x, mode, with_rows):
    rows = np.arange(x.size) * 3 + 7 if with_rows else None
    bad = ~np.isfinite(x) | (x < 0.0)
    if mode.is_p:
        bad |= x > 1.0
    i = first(bad)
    want = None
    if i is not None:
        row = i if rows is None else int(rows[i])
        rule = "lie in [0, 1]" if mode.is_p else "be finite and >= 0"
        want = (f"exact must {rule}, got {float(x[i])!r} at index {row}", row)
    assert refusal(lambda: check_domain(x, "exact", mode.is_p, rows)) == want


@EDGE_CHECKS
@given(x=edge_vectors())
def test_procedure_and_utility_checks_refuse_as_the_element_mask(x):
    empty = x.size == 0

    def named(rule, i):
        return None if i is None else (f"{rule}, got {float(x[i])!r} at index {i}", i)

    i = first(~((x >= 0.0) & (x <= 1.0)))
    want = (("p-values must form a nonempty vector", None) if empty
            else named("p-values must lie in [0, 1]", i))
    assert refusal(lambda: bh(x, 0.1)) == want
    assert refusal(lambda: by(x, 0.1)) == want
    i = first(~(x >= 0.0))
    want = (("e-values must form a nonempty vector", None) if empty
            else named("e-values must be >= 0", i))
    assert refusal(lambda: ebh(x, 0.1)) == want
    i = first(~np.isfinite(x) | (x < 0.0))
    offending = i is not None
    assert refusal(lambda: eval_utility("identity", x)) == named(
        "auxiliary values must be finite and >= 0", i)
    want = (("utilities must form a nonempty vector", None) if empty
            else named("utilities must be finite and >= 0", i))
    got = refusal(lambda: allocate_utilities(x, 0.5))
    with np.errstate(over="ignore"):
        overflows = not offending and not np.isfinite(np.sum(np.sort(x)))
    if overflows:
        # finite utilities whose sum overflows are refused as a whole
        assert got[0].startswith("utilities overflow") and got[1] is None
    else:
        assert got == want


TWO_SETS = lambda exact: HypothesisSet([1.0, 2.0], exact)
TEXT = ["x", "y"]


@pytest.mark.parametrize("call, named", [
    (lambda: bh(["x"], 0.1), "p-values"),
    (lambda: by(["x"], 0.1), "p-values"),
    (lambda: ebh(["x"], 0.1), "e-values"),
    (lambda: allocate_utilities(TEXT, 1.0), "utilities"),
    (lambda: eval_utility("log1p", "x"), "auxiliary values"),
    (lambda: xu_query_prob(TEXT, 0.5, E_VALUES), "aux e-values"),
    (lambda: pipeline.conformal_p(TEXT, [0.1]), "calibration scores"),
    (lambda: pipeline.conformal_p([0.1], TEXT), "test scores"),
    (lambda: active_e(1.0, "x", 0.5, 0.1), "h"),
    (lambda: active_e("x", 0.5, 0.5, 0.1), "exact e-values"),
    # None is read as nan, which no draw may be
    (lambda: active_e(1.0, 0.5, 0.5, None), "branch draw u"),
    (lambda: active_values(TEXT, [0.1, 0.2], lambda i: [1.0] * i.size, E_VALUES, 0.5), "h"),
    (lambda: active_values([0.5], TEXT[:1], lambda i: [1.0] * i.size, E_VALUES, 0.5), "u"),
    (lambda: active_values([0.5], [0.1], lambda i: ["x"] * i.size, E_VALUES, 0.5),
     "exact e-values"),
    (lambda: run_method(TWO_SETS(lambda i: ["x"] * i.size), MethodSpec("all"), mode=E_VALUES,
                        n_b=1), "exact"),
], ids=["bh", "by", "ebh", "allocate_utilities", "eval_utility", "xu_query_prob",
        "conformal_p calibration", "conformal_p test", "active_e h", "active_e exact",
        "active_e u None", "active_values h", "active_values u", "active_values fetched",
        "run_method exact callable"])
def test_non_numbers_refused_by_the_argument_name(call, named):
    rule = "lie in" if named == "branch draw u" else "be numbers:"
    with pytest.raises(DomainError, match=f"^{named} must {rule} "):
        call()


MODE_CHOICES = ("(StatMode(kind='e'), StatMode(kind='p_independent'), "
                "StatMode(kind='p_general'))")
P_MODE_CHOICES = "(StatMode(kind='p_independent'), StatMode(kind='p_general'))"
FAMILIES = "('identity', 'log1p', 'inverse', 'log_inverse')"
WORDS = "seed, rep, index and purpose must be whole numbers, got"
TOP = np.iinfo(np.intp).max  # the largest array size
RESULT = lambda: run_experiment(DgpSpec("signal", n=50, pi=0.1), ["active"], n_b=5, reps=1)
METRICS = ("('n_rejected', 'n_true_discoveries', 'queries', 'n_signals', 'expected_queries', "
           "'fdp', 'tpp', 'efficiency')")


def no_fetch(idx):
    raise AssertionError(f"fetched {idx}")


ALIGNED = lambda: pipeline.align(
    pipeline.SummaryTable(keys=("a", "b"), stats=np.array([0.1, 0.5])),
    pipeline.SummaryTable(keys=("a", "b"), stats=np.array([0.2, 0.4])))


@pytest.mark.parametrize("call, message", [
    (lambda: run_method(TWO_SETS([1.0, 1.0]), MethodSpec("all"), mode=E_VALUES, n_b=True),
     "budget must lie in (0, inf), got True"),
    (lambda: run_method(TWO_SETS([1.0, 1.0]), MethodSpec("all"), mode=E_VALUES,
                        n_b=float("inf")), "budget must lie in (0, inf), got inf"),
    (lambda: run_experiment(DgpSpec("signal", n=50, pi=0.1), ["all"], n_b=5, reps=True),
     "reps must be a whole number >= 1, got True"),
    (lambda: DgpSpec("signal", n=50, pi=True), "pi must lie in [0, 1], got True"),
    (lambda: DgpSpec("noisy", n=50, pi=0.1, sigma=True), "sigma must lie in (0, inf), got True"),
    (lambda: run_method(TWO_SETS([1.0, 1.0]), MethodSpec("all"), mode=E_VALUES, n_b=1,
                        utility=["x"]), f"utility family must be one of {FAMILIES}, got ['x']"),
    (lambda: eval_utility(["log1p"], [1.0]),
     f"utility family must be one of {FAMILIES}, got ['log1p']"),
    (lambda: run_method(TWO_SETS([1.0, 1.0]), MethodSpec("all"), mode="e", n_b=1),
     f"mode must be one of {MODE_CHOICES}, got 'e'"),
    (lambda: active_values([0.5], [0.1], lambda i: [1.0] * i.size, "p_general", 0.5),
     f"mode must be one of {MODE_CHOICES}, got 'p_general'"),
    (lambda: active_p(0.5, 0.5, 0.5, "p_general", 0.1),
     f"mode must be one of {P_MODE_CHOICES}, got 'p_general'"),
    (lambda: xu_query_prob([0.5], 0.5, "e"), f"mode must be one of {MODE_CHOICES}, got 'e'"),
    (lambda: run_method(TWO_SETS([1.0, 1.0]), "all", mode=E_VALUES, n_b=1),
     "method must be a MethodSpec, got 'all'"),
    (lambda: active_e(1.0, [0.1, 0.2], 0.5, 0.3), "h must be one number"),
    (lambda: active_e(1.0, 0.1, 0.5, [0.3, 0.4]), "u must be one number"),
    (lambda: run_method(TWO_SETS([1.0, 1.0]), MethodSpec("all"), mode=E_VALUES, n_b=1,
                        seed=True), f"{WORDS} True"),
    (lambda: run_method(TWO_SETS([1.0, 1.0]), MethodSpec("xu"), mode=E_VALUES, n_b=1,
                        rep=True), f"{WORDS} True"),
    (lambda: run_experiment(DgpSpec("signal", n=50, pi=0.1), ["all"], n_b=5, reps=1, seed=True),
     f"{WORDS} True"),
    (lambda: pipeline.oracle_recovery(ALIGNED(), n_b=1, beta=0.5, method="active", alpha=0.1,
                                      seed=True), f"{WORDS} True"),
    # each is refused before any array is made
    (lambda: DgpSpec("signal", n=10**400, pi=0.1),
     f"n must be a whole number <= {TOP}, got {10**400}"),
    (lambda: DgpSpec("signal", n=2**63, pi=0.1), f"n must be a whole number <= {TOP}, got {2**63}"),
    (lambda: harmonic_number(10**400), f"n must be a whole number <= {TOP}, got {10**400}"),
    (lambda: run_method(TWO_SETS([1.0, 1.0]), MethodSpec("random"), mode=E_VALUES, n_b=10**400),
     f"budget must be a whole number <= {TOP}, got {10**400}"),
    # a value past the int-to-str digit limit is shown by its type
    (lambda: DgpSpec("signal", n=10**5000, pi=0.1),
     f"n must be a whole number <= {TOP}, got a value too long to show (int)"),
    (lambda: run_method(TWO_SETS([1.0, 1.0]), MethodSpec("random"), mode=E_VALUES,
                        n_b=10**5000),
     f"budget must be a whole number <= {TOP}, got a value too long to show (int)"),
    (lambda: run_method(TWO_SETS([1.0, 1.0]), MethodSpec("active"), mode=E_VALUES,
                        n_b=10**5000, utility="log1p"),
     "budget must lie in [0, 2], got a value too long to show (int)"),
    (lambda: allocate_utilities([1.0, 1.0], -10**5000),
     "budget must lie in (0, inf), got a value too long to show (int)"),
    (lambda: eval_utility(10**5000, [1.0]),
     f"utility family must be one of {FAMILIES}, got a value too long to show (int)"),
    (lambda: allocate_utilities([1.0, 1.0], Fraction(-1, 10**5000)),
     "budget must lie in (0, inf), got a value too long to show (Fraction)"),
    (lambda: active_values(np.full((2, 2), 0.5), np.full((2, 2), 0.1), no_fetch, E_VALUES, 0.5),
     "h must form a nonempty vector"),
    (lambda: active_values(0.5, 0.1, no_fetch, E_VALUES, 0.5), "h must form a nonempty vector"),
    (lambda: active_values([], [], no_fetch, E_VALUES, 0.5), "h must form a nonempty vector"),
    (lambda: RESULT().column("xu", "fdp"), "method must be one of ('active',), got 'xu'"),
    (lambda: RESULT().column("active", "power"), f"metric must be one of {METRICS}, got 'power'"),
], ids=["run_method bool budget", "run_method inf budget", "run_experiment bool reps",
        "DgpSpec bool pi", "DgpSpec bool sigma", "run_method list utility",
        "eval_utility list family", "run_method text mode", "active_values text mode",
        "active_p text mode", "xu_query_prob text mode",
        "run_method text method", "active_e list h", "active_e list u", "run_method bool seed",
        "run_method bool rep", "run_experiment bool seed", "oracle_recovery bool seed",
        "DgpSpec n past float range", "DgpSpec n past array size",
        "harmonic_number n past float range", "run_method random budget past float range",
        "DgpSpec n past digit limit", "run_method random budget past digit limit",
        "run_method active budget past digit limit",
        "allocate_utilities negative budget past digit limit",
        "eval_utility family past digit limit", "allocate_utilities fraction past digit limit",
        "active_values 2-D h", "active_values 0-d h", "active_values empty h",
        "column method not run", "column unknown metric"])
def test_bad_settings_refused_by_the_argument_name(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def assert_ppf_bits(u, mean):
    u = np.asarray(u, dtype=np.float64)
    mean = np.broadcast_to(np.asarray(mean, dtype=np.float64), u.shape).copy()
    got = _poisson_inverse(u, mean)
    assert got.tobytes() == stats.poisson.ppf(u, mean).tobytes()


@PROPERTY
@given(st.lists(st.tuples(open_unit, st.floats(1.0, 1000.0)), min_size=1, max_size=50))
def test_poisson_inverse_matches_scipy(pairs):
    u, mean = zip(*pairs)
    assert_ppf_bits(u, mean)


# relative offsets from a CDF step, on both sides of the sampler's margin
STEP_OFFSETS = [sign * 10.0**-e for e in range(6, 13) for sign in (1, -1)]


@PROPERTY
@given(mean=st.floats(1.0, 1000.0) | st.integers(1, 1000).map(float))
def test_poisson_inverse_at_cdf_steps(mean):
    steps = special.pdtr(np.arange(int(mean + 12 * math.sqrt(mean)) + 30), mean)
    u = np.concatenate([steps, np.nextafter(steps, 0.0), np.nextafter(steps, 1.0)]
                       + [steps * (1.0 + r) for r in STEP_OFFSETS])
    assert_ppf_bits(u[(u > 0.0) & (u < 1.0)], mean)


def test_poisson_inverse_at_stream_extremes():
    # the smallest uniform rng.uniforms makes, the largest double below 1,
    # and 1 itself, which it returns when (2**53 - 1) + 0.5 rounds to 2**53
    u = [2.0**-54, np.nextafter(1.0, 0.0), 1.0]
    for mean in (1.0, 2.5, 40.0, 1000.0):
        assert_ppf_bits(u, mean)


@PROPERTY
@given(mean=st.floats(700.0, 1e6) | st.sampled_from([745.2, 746.0, 800.0, 1e15, 1e300, 1.7e308]),
       u=st.lists(open_unit, min_size=1, max_size=20))
def test_poisson_inverse_returns_when_exp_underflows(mean, u):
    # exp(-mean) is subnormal from ~708 and 0 from ~745.2: the pmf recurrence
    # starts from (almost) nothing and must hand the row over, not spin
    assert_ppf_bits(u, mean)
