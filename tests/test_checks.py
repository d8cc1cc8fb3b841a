"""Every numeric field of every config dataclass refuses NaN and ±inf,
and every integer field refuses 1.5, with a ``ValueError`` naming it.

The walk reads the fields off each class, so a numeric field added
later without a rule in ``__post_init__`` fails here.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.model.strategic import StrategicSpec
from repro.scheduler.adaptive import AdaptiveConfig
from repro.simulation.config import (
    CapacityClassMix,
    ClassBand,
    DepartureRules,
    MariposaParams,
    QueryClassSpec,
    SimulationConfig,
    WorkloadSpec,
)
from repro.simulation.faults import FlapSpec, OutageSpec
from repro.sweeps.spec import SweepSpec

#: Valid instances to poison, one or more per class: a field takes its
#: valid value from the first instance of its class that sets it.
INSTANCES = [
    SimulationConfig(),
    WorkloadSpec(),
    WorkloadSpec.burst(base=0.5, peak=1.0, start=0.2, end=0.4),
    WorkloadSpec.piecewise(((0.0, 0.5), (0.5, 1.0), (1.0, 0.5))),
    DepartureRules(),
    MariposaParams(),
    CapacityClassMix(),
    QueryClassSpec(),
    ClassBand(fraction=0.5, low=-1.0, high=1.0),
    OutageSpec(fraction=0.5, start=0.1, end=0.2),
    FlapSpec(fraction=0.5, period=0.2),
    StrategicSpec(),
    AdaptiveConfig(ci_threshold=0.5, max_seeds=4),
    SweepSpec(name="walk", scenarios=("diurnal",), seeds=(1, 2)),
]


def _numeric_fields():
    for owner in dict.fromkeys(type(instance) for instance in INSTANCES):
        bases = [instance for instance in INSTANCES if type(instance) is owner]
        for field in dataclasses.fields(owner):
            if not re.search(r"\b(int|float)\b", field.type):
                continue
            base = next(
                (b for b in bases if getattr(b, field.name) is not None),
                bases[0],
            )
            bad = [float("nan"), float("inf"), float("-inf")]
            if re.search(r"\bint\b", field.type):
                bad.append(1.5)
            for value in bad:
                yield pytest.param(
                    base, field.name, value,
                    id=f"{owner.__name__}.{field.name}={value}",
                )


def _poisoned(value, bad):
    """Each copy of ``value`` with one of its numbers replaced by ``bad``."""
    if isinstance(value, tuple):
        for index, item in enumerate(value):
            for poisoned in _poisoned(item, bad):
                yield value[:index] + (poisoned,) + value[index + 1:]
    else:
        yield bad


@pytest.mark.parametrize("base, name, bad", list(_numeric_fields()))
def test_non_finite_numbers_are_refused_naming_the_field(base, name, bad):
    for value in _poisoned(getattr(base, name), bad):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            dataclasses.replace(base, **{name: value})
