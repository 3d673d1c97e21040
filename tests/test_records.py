"""The validated records admit no unchecked instance.

`ModelParameters`, `CharacteristicTriple` and `HopfPoint` are named tuples
whose ``__new__`` runs the checks.  NamedTuple's own ``_make`` and
``_replace`` would build the tuple around it, and so would unpickling with
``tuple.__new__``; every route must raise what the constructor raises.
"""

import copy
import pickle

import pytest

import refvals as rv
from hemohopf import hopf, linstab, model
from hemohopf.errors import DomainError, NumericsError, ParameterError
from test_hopf import MOVED_DELAY_CONFIGS, moved_delay_outcome, moved_delays


def _ref_params():
    return model.ModelParameters.from_k(rv.BETA0, rv.N, rv.DELTA, rv.K, rv.R_REF)


def _ref_hopf():
    return hopf.hopf_from_pqk(rv.N, rv.BETA0, rv.DELTA, rv.K)


def _ref_hopf_1e6():
    # the reference point in a time unit a millionth as long: the rates
    # times 1e6, r* over 1e6
    return hopf.hopf_from_pqk(rv.N, rv.BETA0 * 1e6, rv.DELTA * 1e6, rv.K)


def _ref_triple():
    return linstab.CharacteristicTriple(p=rv.P_REF, q=rv.Q_REF, r=rv.R_REF)


def _error(call):
    """(class, message) of the error `call` raises."""
    with pytest.raises((ParameterError, NumericsError)) as info:
        call()
    return type(info.value), str(info.value)


def _unchecked(record, changes):
    """An instance of record's class holding bad values, built around the
    checks the way a stale or hand-made pickle would hold them."""
    values = record._asdict()
    values.update(changes)
    return tuple.__new__(type(record), values.values())


def _omega_off(record):
    """omega* of the Hopf point `record`, moved by 1e-9 relative."""
    return {"omega_star": record.omega_star * (1.0 + 1e-9)}


# changes: the bad field values, or a function of the record that gives them
BAD_VALUES = [
    pytest.param(_ref_params, {"r": -1.0}, ParameterError, id="params-negative-r"),
    pytest.param(_ref_params, {"k": 1.5}, ParameterError, id="params-inconsistent-k"),
    pytest.param(_ref_triple, {"r": -1.0}, DomainError, id="triple-negative-r"),
    pytest.param(_ref_hopf, {"omega_star": 1.7}, NumericsError, id="hopf-wrong-omega"),
    pytest.param(_ref_hopf, _omega_off, NumericsError, id="hopf-omega-off-1e-9"),
    pytest.param(_ref_hopf_1e6, _omega_off, NumericsError,
                 id="hopf-omega-off-1e-9-time-unit-1e-6"),
]


@pytest.mark.parametrize("make, changes, error", BAD_VALUES)
def test_every_route_to_a_bad_record_raises_the_constructor_error(make, changes,
                                                                  error):
    record = make()
    if callable(changes):
        changes = changes(record)
    values = {**record._asdict(), **changes}
    expected = _error(lambda: type(record)(**values))
    assert issubclass(expected[0], error)
    assert _error(lambda: record._replace(**changes)) == expected
    assert _error(lambda: type(record)._make(values.values())) == expected
    data = pickle.dumps(_unchecked(record, changes))
    assert _error(lambda: pickle.loads(data)) == expected


def test_with_r_raises_the_constructor_error():
    params = _ref_params()
    expected = _error(lambda: model.ModelParameters(**{**params._asdict(), "r": -1.0}))
    assert expected[0] is ParameterError
    assert _error(lambda: params.with_r(-1.0)) == expected


def _with_r(r, params):
    return params.with_r(r)


def _from_gamma(r, params):
    return model.ModelParameters.from_gamma(params.beta0, params.n, params.delta,
                                            params.gamma, r)


@pytest.mark.parametrize("name", MOVED_DELAY_CONFIGS)
def test_with_r_is_the_constructor_on_the_moved_delay_grid(name):
    # with_r checks only the delay and the new A: every other field passed
    # the constructor when `params` was built; A overflows on the
    # near-float-limit config's short delays
    params = MOVED_DELAY_CONFIGS[name]
    refusals = []
    for r in moved_delays(params):
        outcome = moved_delay_outcome(_with_r, r, params)
        assert outcome == moved_delay_outcome(_from_gamma, r, params), r
        if isinstance(outcome, tuple):
            refusals.append(outcome[1])
    # the grid reaches a negative delay, a non-finite one and one of the wrong type
    for start in ("delay r must be nonnegative", "non-finite inputs",
                  "r must be a finite number"):
        assert any(message.startswith(start) for message in refusals), start


@pytest.mark.parametrize("make", [_ref_params, _ref_triple, _ref_hopf, _ref_hopf_1e6])
def test_valid_records_survive_every_route(make):
    record = make()
    cls = type(record)
    for clone in (cls._make(record), record._replace(), pickle.loads(pickle.dumps(record)),
                  copy.deepcopy(record)):
        assert type(clone) is cls and clone == record
    assert repr(record).startswith(f"{cls.__name__}(")
