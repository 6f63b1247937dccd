"""The Migration order contract: an immutable four-field record."""

import pickle

import pytest

from repro.interfaces import Migration


def test_positional_and_keyword_construction_agree():
    a = Migration(7, 1, 2, 0.5)
    b = Migration(task_id=7, src=1, dst=2, heat=0.5)
    assert a == b
    assert (a.task_id, a.src, a.dst, a.heat) == (7, 1, 2, 0.5)


def test_heat_defaults_to_zero():
    m = Migration(3, 0, 1)
    assert m.heat == 0.0 and type(m.heat) is float
    assert Migration(3, 0, 1) == Migration(3, 0, 1, 0.0)


def test_fields_in_order():
    assert Migration._fields == ("task_id", "src", "dst", "heat")


@pytest.mark.parametrize("field", ["task_id", "src", "dst", "heat"])
def test_assignment_raises_attribute_error(field):
    m = Migration(3, 0, 1)
    with pytest.raises(AttributeError):
        setattr(m, field, 9)
    assert m == Migration(3, 0, 1)


def test_missing_or_extra_arguments_raise():
    with pytest.raises(TypeError):
        Migration(3, 0)
    with pytest.raises(TypeError):
        Migration(3, 0, 1, 0.0, 5)
    with pytest.raises(TypeError):
        Migration(3, 0, 1, weight=2.0)


def test_hashable_by_value():
    a, b = Migration(1, 2, 3, 4.0), Migration(1, 2, 3, 4.0)
    assert hash(a) == hash(b)
    assert len({a, b, Migration(1, 2, 3)}) == 2


def test_pickle_round_trip():
    m = Migration(11, 4, 5, 2.25)
    back = pickle.loads(pickle.dumps(m))
    assert back == m and type(back) is Migration
    assert back.heat == 2.25
