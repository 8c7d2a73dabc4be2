"""Tests of record.Record, the base of every immutable value type in the
package: equality and hashing over the field tuple, the repr, no instance
dict, and pickle and copy round trips. Frozen fields are tested in
test_expalg.TestSlottedPoly.test_fields_are_frozen."""

import copy
import pickle

import pytest
from conftest import record_samples

from susy_ladder.cli import RunConfig
from susy_ladder.dirac import SpinorFn
from susy_ladder.expalg import ExpoPoly
from susy_ladder.oracle import LogGrid
from susy_ladder.params import DiracParams, NRParams
from susy_ladder.record import Record
from susy_ladder.verify import CheckResult


def field_tuple(record):
    return tuple(getattr(record, name) for name in record._fields)


def test_every_record_type_is_sampled():
    assert {type(r) for r in record_samples()} == set(Record.__subclasses__())


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_round_trip(copier):
    for record in record_samples():
        out = copier(record)
        assert type(out) is type(record)
        assert out == record and hash(out) == hash(record)
        assert repr(out) == repr(record)


def test_equality_and_hash_follow_the_field_tuple():
    for record in record_samples():
        twin = copy.deepcopy(record)
        assert twin is not record and twin == record and not twin != record
        assert hash(record) == hash(field_tuple(record)) == hash(record)
        assert hash(twin) == hash(field_tuple(record))
        assert record != field_tuple(record)
    assert NRParams(1.5, 0.5) != NRParams(1.5, 0.6)
    assert DiracParams(1.0, 2.0, 1.0, 0.1) != DiracParams(1.0, 2.0, 1.0, 0.2)
    assert NRParams(100.0, 64) != LogGrid(100.0, 64)
    # lru_cache keys: an equal record finds the entry another one made
    assert {DiracParams(1.0, 2.0, 1.0, 0.1): 1}[DiracParams(1.0, 2.0, 1.0, 0.1)] == 1


def test_reprs_name_every_field():
    zero = ExpoPoly.zero(1.0, 2.0)
    assert repr(NRParams(1.5, 0.5)) == "NRParams(a=1.5, b=0.5)"
    assert repr(DiracParams(1.0, 2.0, 1.0, 0.1)) == "DiracParams(a=1.0, b=2.0, d0=1.0, mbar=0.1)"
    assert repr(CheckResult("x", False, "d, e")) == "CheckResult(name='x', passed=False, detail='d, e')"
    assert repr(LogGrid(100.0, 1024)) == "LogGrid(rho_max=100.0, n_points=1024)"
    assert (repr(ExpoPoly(1.3, 0.7, ((0, -1, None, 0.5),)))
            == "ExpoPoly(a=1.3, b=0.7, terms=((0, -1, None, (0.5+0j)),))")
    assert (repr(SpinorFn((zero, zero)))
            == "SpinorFn(components=(ExpoPoly(a=1.0, b=2.0, terms=()), "
               "ExpoPoly(a=1.0, b=2.0, terms=())))")
    assert repr(RunConfig(mode="fig2")) == (
        "RunConfig(mode='fig2', a=None, b=None, d0=None, mbar=None, hbar=None, m=None, "
        "c=None, e=None, k=None, pz=None, ell=None, levels=3, families=('a', 'b', 'c', 'd'), "
        "rho_max=None, fmt='csv', out=None)")


def test_no_instance_dict():
    for record in record_samples():
        assert not hasattr(record, "__dict__")
        assert "__dict__" not in dir(type(record))


def test_run_config_replace_and_fields():
    assert RunConfig._fields == ("mode", "a", "b", "d0", "mbar", "hbar", "m", "c", "e", "k",
                                 "pz", "ell", "levels", "families", "rho_max", "fmt", "out")
    cfg = RunConfig(mode="fig3", a=1.0)
    new = cfg.replace(levels=5, families=("a",))
    assert (new.mode, new.a, new.levels, new.families) == ("fig3", 1.0, 5, ("a",))
    assert (cfg.levels, cfg.families) == (3, ("a", "b", "c", "d"))
    with pytest.raises(TypeError, match="bogus"):
        RunConfig(mode="fig2", bogus=1)
    with pytest.raises(TypeError, match="bogus"):
        cfg.replace(bogus=1)
