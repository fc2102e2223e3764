"""The frozen records: the value semantics every record class keeps, and an
import path of the package that loads no ``dataclasses`` machinery."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sgclass import domains as dom
from sgclass import graded as grd
from sgclass import ideals as mid
from sgclass import quadric
from sgclass.records import Record
from sgclass.semigroups import MonoidDescriptor, from_generators

SRC = Path(__file__).resolve().parents[1] / "src"


def build_records() -> dict:
    """One instance of each record class, every one built from scratch, so
    two calls give equal but distinct instances."""
    s = from_generators([3, 5])
    d = dom.CoefficientDomain.z_sqrt(-5)
    z = dom.CoefficientDomain.integers()
    y = mid.ideal_from_generators(s, [0, 2])
    coeff = dom.ideal_from_generators(d, [2, d.element(1, 1)])
    pair = grd.IdealPair(coeff, mid.ideal_from_generators(s, [2]))
    return {
        "NumericalSemigroup": s,
        "MonoidDescriptor": MonoidDescriptor.numerical(s),
        "FractionalIdeal": y,
        "CoefficientDomain": d,
        "QuadElement": d.element(Fraction(1, 2), 3),
        "CoeffIdeal": coeff,
        "QuadForm": dom.QuadForm(2, 2, 3),
        "ClassGroup": dom.class_group(d),
        "GradedElement": grd.graded_element(z, s, [(0, 1), (3, -2)]),
        "HomogeneousIdeal": grd.homogeneous_ideal(z, s, [(2, 2), (2, 3)]),
        "IdealPair": pair,
        "HomogeneousClass": grd.decompose_class(pair),
        "QuadricElement": quadric.x_pow(2, Fraction(3, 4)),
    }


RECORDS = build_records()


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record.__slots__)


def test_every_record_class_is_covered():
    package = [cls.__name__ for cls in Record.__subclasses__()
               if cls.__module__.startswith("sgclass.")]
    assert sorted(RECORDS) == sorted(package)
    for name, record in RECORDS.items():
        assert type(record).__name__ == name


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_frozen(name):
    record = RECORDS[name]
    for field in record.__slots__:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_equality_and_hash(name):
    record, again = RECORDS[name], build_records()[name]
    assert record is not again
    assert record == again and not record != again
    assert hash(record) == hash(again)
    assert record != fields(record)
    # a record class with the same fields and values is another type
    twin_cls = type("Twin", (Record,), {"__slots__": type(record).__slots__})
    twin = object.__new__(twin_cls)
    for field, value in zip(record.__slots__, fields(record)):
        object.__setattr__(twin, field, value)
    assert record != twin and twin != record
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


# the records whose __init__ validates, converts or defaults its input
HAND_WRITTEN = ("CoeffIdeal", "CoefficientDomain", "MonoidDescriptor", "QuadElement",
                "QuadForm")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_constructor(name):
    record = RECORDS[name]
    cls, slots, values = type(record), record.__slots__, fields(record)
    init = cls.__dict__["__init__"]
    written = init.__code__.co_filename == sys.modules[cls.__module__].__file__
    assert written == (name in HAND_WRITTEN)
    if written:
        return
    # the compiled __init__ takes exactly the slots, in order
    code = init.__code__
    assert code.co_varnames[:code.co_argcount] == ("self", *slots)
    assert init.__defaults__ is None and code.co_kwonlyargcount == 0
    assert init.__qualname__ == f"{name}.__init__"
    assert cls(*values) == record
    assert cls(**dict(zip(slots, values))) == record
    # a TypeError names the record, as FractionalIdeal(s, (0,)) does
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) missing 1 required "
                                        rf"positional argument: '{slots[-1]}'"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) takes"):
        cls(*values, None)


def test_post_init_refusals_keep_their_messages():
    cases = [
        (lambda: dom.CoefficientDomain("Z", -5), "rational kinds take no radicand"),
        (lambda: dom.CoefficientDomain("Q", None, True), "rational kinds take no radicand"),
        (lambda: dom.CoefficientDomain("R"), "unknown domain kind 'R'"),
        (lambda: dom.CoefficientDomain("quadratic", -4, True),
         "the radicand must be a squarefree negative integer"),
        (lambda: dom.CoefficientDomain("quadratic"),
         "the radicand must be a squarefree negative integer"),
        (lambda: dom.CoefficientDomain("quadratic", -5),
         "quadratic orders must state maximality"),
        (lambda: dom.QuadForm(0, 1, 1), "the form must be positive definite"),
        (lambda: dom.QuadForm(1, 3, 1), "the form must be positive definite"),
        (lambda: MonoidDescriptor(), "exactly one of semigroup and prime must be given"),
        (lambda: MonoidDescriptor(from_generators([2, 3]), 2),
         "exactly one of semigroup and prime must be given"),
        (lambda: MonoidDescriptor(prime=4), "4 is not prime"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_quad_element_stores_exact_coordinates():
    d = dom.CoefficientDomain.z_sqrt(-5)
    u = dom.QuadElement(d, Fraction(4, 2), 0)
    assert type(u.x) is int and u.x == 2
    assert type(u.y) is int
    assert u == dom.QuadElement(d, 2, 0)


def test_keyword_construction_and_defaults():
    assert dom.CoeffIdeal(dom.CoefficientDomain.integers(), 3) == \
        dom.CoeffIdeal(domain=dom.CoefficientDomain("Z"), scale=3, a=1, b=0, c=1)
    assert MonoidDescriptor.p_power_cone(3) == MonoidDescriptor(prime=3)


def test_semigroup_identity_is_generators_and_scale():
    s, t = from_generators([6, 9, 10]), from_generators([10, 9, 6, 15])
    assert s is not t and s == t and hash(s) == hash(t)
    assert from_generators([4, 6]) != from_generators([2, 3])
    assert repr(from_generators([4, 6])) == (
        "NumericalSemigroup(generators=(2, 3), scale=2, conductor=2)")
    # one unit_ideal cache entry serves equal semigroups built apart
    assert mid.unit_ideal(s) is mid.unit_ideal(t)


def test_repr_leaves_out_hidden_fields():
    y = mid.ideal_from_generators(from_generators([3, 5]), [0, 2])
    assert repr(y) == ("FractionalIdeal(monoid=NumericalSemigroup(generators=(3, 5), "
                       "scale=1, conductor=8), min_generators=(0, 2))")
    assert repr(dom.QuadForm(1, 1, 2)) == "QuadForm(a=1, b=1, c=2)"


def test_cli_import_loads_no_dataclasses_machinery():
    """``-S`` keeps site hooks from preloading modules into the child."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import sgclass.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
