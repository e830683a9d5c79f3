"""Property tests over random inputs, beyond the fixed seeds and beta = 0.5
of the unit tests and the benchmark.

* The scalar constructions equal the vectorized one bit for bit.
* Every method's ``run_method`` values equal its closed-form rule exactly,
  and ``n_queries`` counts exactly the queried rows.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from activetest.allocation import BudgetConfig, UtilitySpec, allocate_utilities, eval_utility
from activetest.core import (
    E_VALUES,
    P_GENERAL,
    P_INDEPENDENT,
    StatMode,
    active_e,
    active_p,
    active_values,
)
from activetest.engine import METHOD_NAMES, HypothesisSet, MethodSpec, run_method, xu_query_prob

MODES = [E_VALUES, P_INDEPENDENT, P_GENERAL, StatMode("p_general", sup_h=0.3)]

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.filter_too_much])

# bounded away from 0 only so that (1 - h) / beta cannot overflow
betas = st.floats(min_value=1e-12, max_value=1.0, exclude_max=True)
draws = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
unit = st.floats(min_value=0.0, max_value=1.0)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


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
    values, queried, scales = active_values(h, u, lambda idx: exact[idx], mode, beta)
    for i in range(n):
        if mode.is_e:
            out = active_e(exact[i], h[i], beta=beta, u=u[i])
        else:
            out = active_p(exact[i], h[i], beta=beta, mode=mode, u=u[i])
        assert bits(out.value) == bits(values[i])
        assert bits(out.scale) == bits(scales[i])
        assert out.queried == queried[i]


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
            out.append(min(1.0, min(1.0, mode.sup_h) / (1.0 - beta) * e))
    return out


@PROPERTY
@given(data=st.data(), method=st.sampled_from(METHOD_NAMES), mode=st.sampled_from(MODES),
       beta=betas)
def test_run_method_follows_closed_form(data, method, mode, beta):
    aux, exact = data.draw(hypotheses(mode))
    n = aux.size
    n_b = data.draw(st.integers(1, n))
    utility = UtilitySpec.log1p() if mode.is_e else UtilitySpec.log_inverse(eps=1e-8)
    if method in ("active", "active-xu"):
        if method == "active":
            scores = eval_utility(utility, aux)
        else:
            scores = xu_query_prob(aux, beta, mode)
        assume(np.any(scores > 0.0))  # all-zero utilities are rejected by design
        want_h = allocate_utilities(scores, BudgetConfig(float(n_b), n)).h
        query_prob = np.minimum(1.0, want_h)
    elif method == "xu":
        want_h = query_prob = xu_query_prob(aux, beta, mode)
    else:
        want_h = np.full(n, n_b / n) if method == "random" else np.ones(n)
        query_prob = None
    u = None if query_prob is None else np.array(
        data.draw(st.lists(draws, min_size=n, max_size=n)))
    hs = HypothesisSet(aux, exact, ids=[f"h{i}" for i in range(n)])

    out = run_method(hs, MethodSpec(method, beta=beta), mode=mode, n_b=float(n_b),
                     utility=utility, u=u)

    assert out.h.tobytes() == want_h.tobytes()
    if u is not None:
        np.testing.assert_array_equal(out.queried, u < query_prob)
    want = closed_form(method, mode, beta, aux, exact, out.h, out.queried)
    assert [bits(v) for v in out.values] == [bits(v) for v in want]
    assert out.n_queries == int(np.count_nonzero(out.queried))
    if method == "random":
        assert out.n_queries == n_b
    if method == "all":
        assert out.n_queries == n
