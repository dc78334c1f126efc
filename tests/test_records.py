"""The package's records behave as the frozen dataclasses they stand for.

Every class decorated as a record in ``src/gptsched`` is compared with a
twin that ``dataclasses.make_dataclass`` builds from the class's source:
the same fields, annotations and defaults, frozen, and slotted where the
record is. On hypothesis-drawn values both must agree on the signature,
``repr``, ``==``, ``hash``, ``__match_args__``, ``dataclasses.fields``,
``replace``, ``asdict`` and ``is_dataclass``, the copy and pickle round
trips, the errors of assigning and deleting, and ``__dict__`` and weak
reference support.

A probe then imports ``gptsched.cli`` under the running interpreter and
every other one ``test_interpreters`` finds: neither ``dataclasses`` nor
``inspect`` may be loaded, and ``dataclasses`` must still work on one
instance of each record.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import importlib
import inspect
import pickle
import re
import subprocess
import sys
import types
import weakref
from functools import lru_cache
from typing import Any, Dict, List, NamedTuple, Tuple

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gptsched import EventKind, GptSchedError, PowerMode, TaskKind
from gptsched.simulator import SnapshotRow

from test_interpreters import SRC, _other_interpreters

PACKAGE = SRC / "gptsched"


class Spec(NamedTuple):
    """A record class as its source declares it."""

    cls: type
    slots: bool
    fields: Tuple[Tuple[str, str, Any], ...]  # name, annotation text, default or MISSING


def _decorator_slots(decorator: ast.expr) -> Any:
    """Whether decorator, @record or @dataclass(frozen=True, ...), makes a slotted record; None for others."""

    call = decorator if isinstance(decorator, ast.Call) else None
    name = ast.unparse(call.func if call else decorator)
    if name not in ("record", "dataclass"):
        return None
    keywords = {k.arg: ast.literal_eval(k.value) for k in call.keywords} if call else {}
    assert name == "record" or keywords.get("frozen") is True
    return bool(keywords.get("slots"))


def _specs() -> List[Spec]:
    specs = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"gptsched.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            slots = {_decorator_slots(d) for d in node.decorator_list} - {None}
            if not slots:
                continue
            fields = tuple(
                (item.target.id, ast.unparse(item.annotation),
                 eval(ast.unparse(item.value), vars(module)) if item.value else dataclasses.MISSING)
                for item in node.body
                if isinstance(item, ast.AnnAssign)
            )
            specs.append(Spec(getattr(module, node.name), slots.pop(), fields))
    return specs


SPECS = _specs()
BY_NAME = {spec.cls.__name__: spec for spec in SPECS}

# The twins live in a module of their own, so that pickle finds them by name.
TWINS = types.ModuleType(f"{__name__}_twins")
sys.modules[TWINS.__name__] = TWINS


def _twin(spec: Spec) -> type:
    twin = dataclasses.make_dataclass(
        spec.cls.__name__,
        [(name, annotation, dataclasses.field(default=default)) for name, annotation, default in spec.fields],
        frozen=True,
        slots=spec.slots,
    )
    twin.__module__ = TWINS.__name__
    setattr(TWINS, twin.__name__, twin)
    return twin


TWIN_OF = {spec.cls: _twin(spec) for spec in SPECS}


def test_the_package_declares_eighteen_records() -> None:
    assert len(SPECS) == 18
    assert sum(spec.slots for spec in SPECS) == 6


# Values for an annotation; a record's annotation draws an instance of it.
_floats = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0.5, 2.0, 1e300])
_text = st.text(min_size=1, max_size=4)
_SCALARS: Dict[str, st.SearchStrategy] = {
    "float": _floats,
    "int": st.integers(min_value=1, max_value=2**70),
    "bool": st.booleans(),
    "str": _text,
    "TaskKind": st.sampled_from(TaskKind),
    "PowerMode": st.sampled_from(PowerMode),
    "EventKind": st.sampled_from(EventKind),
    "FrozenSet[str]": st.frozensets(_text, max_size=2),
    "Dict[str, str]": st.dictionaries(_text, _text, max_size=2),
    "Tuple[str, float]": st.tuples(_text, _floats),
    "Tuple[float, float]": st.tuples(_floats, _floats),
    "Tuple[Tuple[float, float], ...]": st.sampled_from([((7.0, 1.0),), ((1.0, 0.25), (2.0, 0.75))]),
    "SnapshotRow": st.builds(SnapshotRow, _floats, _text, _floats, _floats, _floats, _floats),
}


def _values(annotation: str) -> st.SearchStrategy:
    if annotation in _SCALARS:
        return _SCALARS[annotation]
    inner = re.fullmatch(r"Optional\[(.+)\]", annotation)
    if inner:
        return st.none() | _values(inner[1])
    inner = re.fullmatch(r"(?:Sequence|Tuple)\[(.+?)(?:, \.\.\.)?\]", annotation)
    if inner:
        return st.lists(_values(inner[1]), max_size=2).map(tuple)
    return st.deferred(lambda: _instances(BY_NAME[annotation].cls))


@lru_cache(maxsize=None)
def _instances(cls: type) -> st.SearchStrategy:
    """Records of cls: each field drawn, or left at its default."""

    def build(values: tuple) -> Any:
        try:
            return cls(*values)
        except GptSchedError:  # the drawn values fail the record's checks
            assume(False)

    fields = [
        _values(annotation) if default is dataclasses.MISSING else _values(annotation) | st.just(default)
        for _, annotation, default in BY_NAME[cls.__name__].fields
    ]
    return st.tuples(*fields).map(build)


def _twin_of(record: object) -> Any:
    """The twin instance holding record's field values as they are."""

    twin = TWIN_OF[type(record)]
    return twin(*(getattr(record, field.name) for field in dataclasses.fields(twin)))


def _outcome(action) -> Any:  # type: ignore[no-untyped-def]
    """What action() returns, or the type and text of what it raises."""

    try:
        return ("ok", action())
    except Exception as exc:  # noqa: BLE001  any error is part of the behaviour
        return (type(exc), str(exc))


def _field_view(cls_or_record: object) -> list:
    return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare, f.kw_only)
            for f in dataclasses.fields(cls_or_record)]


def _round_trips(value: object) -> list:
    copies = [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]
    return [(type(c).__qualname__, repr(c), c == value) for c in copies]


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.cls.__name__)
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_record_behaves_as_its_dataclass_twin(spec: Spec, data: st.DataObject) -> None:
    cls, twin = spec.cls, TWIN_OF[spec.cls]
    record, other = data.draw(_instances(cls)), data.draw(_instances(cls))
    record_twin, other_twin = _twin_of(record), _twin_of(other)

    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert cls.__match_args__ == twin.__match_args__
    assert getattr(cls, "__slots__", None) == getattr(twin, "__slots__", None)
    assert _field_view(cls) == _field_view(twin) == _field_view(record)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record)

    assert repr(record) == repr(record_twin)
    assert record == copy.copy(record) and (record == other) == (record_twin == other_twin)
    assert record != record_twin and record.__eq__(record_twin) is NotImplemented
    assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(record_twin))
    assert _outcome(lambda: hash(record) == hash(other)) == _outcome(lambda: hash(record_twin) == hash(other_twin))

    name = data.draw(st.sampled_from(cls.__match_args__))
    changes = {name: getattr(other, name)}
    changed = _outcome(lambda: dataclasses.replace(record, **changes))
    if changed[0] == "ok":  # else the mixed values fail the record's checks, which its twin lacks
        assert type(changed[1]) is cls
        assert repr(changed[1]) == repr(dataclasses.replace(record_twin, **changes))
    assert _outcome(lambda: dataclasses.replace(record, nonesuch=1))[0] is TypeError
    assert dataclasses.asdict(record) == dataclasses.asdict(record_twin)

    assert _round_trips(record) == _round_trips(record_twin)

    for target, twin_target in ((record, record_twin), (other, other_twin)):
        for attribute in (name, "nonesuch"):
            for change in (lambda obj: setattr(obj, attribute, 1), lambda obj: delattr(obj, attribute)):
                assert _outcome(lambda: change(target)) == _outcome(lambda: change(twin_target))
    assert repr(record) == repr(record_twin)  # nothing was stored
    assert hasattr(record, "__dict__") == hasattr(record_twin, "__dict__") == (not spec.slots)
    assert _outcome(lambda: weakref.ref(record) is not None) == _outcome(lambda: weakref.ref(record_twin) is not None)


# Exits 0 only when gptsched.cli loads neither module and dataclasses
# works on one instance of each of the 18 records.
PROBE = r'''
import sys
import gptsched.cli
loaded = [name for name in ("dataclasses", "inspect") if name in sys.modules]
if loaded:
    sys.exit("import gptsched.cli loaded %s" % loaded)

import copy, dataclasses, pickle
from gptsched import AdaptorPolicy, GeneratorSpec, LognormalSpec, generate_synthetic, run_timeline
from gptsched.config import default_config

config = default_config()
spec = GeneratorSpec(request_count=20, seed=3, arrival_rate_per_s=2.0, duration_dist=LognormalSpec(1.0, 0.5))
requests = generate_synthetic(spec)
result = run_timeline(requests, list(config.initial_nodes), "max-util", config.scheduler, AdaptorPolicy(5.0), 2.0)
node = config.initial_nodes[0]
records = [
    config, config.scheduler, config.threshold, config.power_policy, config.coefficients, config.adaptor,
    config.generator, config.generator.prompt_tokens_dist, node, node.template, node.capacity,
    node.utilization, requests[0], result, result.report, result.outcome, result.outcome.trace[0],
    result.events[0],
]
assert len({type(record) for record in records}) == 18
for record in records:
    names = [field.name for field in dataclasses.fields(record)]
    assert names == list(type(record).__match_args__), names
    assert dataclasses.is_dataclass(record)
    assert dataclasses.replace(record) == record
    assert dataclasses.replace(record, **{names[-1]: getattr(record, names[-1])}) == record
    assert list(dataclasses.asdict(record)) == names
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    try:
        setattr(record, names[0], None)
    except dataclasses.FrozenInstanceError:
        pass
    else:
        sys.exit("%s accepted an assignment" % type(record).__name__)
print(len(records))
'''


def test_cli_import_loads_no_dataclasses_under_every_interpreter() -> None:
    for interpreter in [sys.executable, *_other_interpreters()]:
        proc = subprocess.run(
            [interpreter, "-S", "-c", PROBE], capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(SRC)},
        )
        assert (proc.returncode, proc.stdout) == (0, "18\n"), f"{interpreter}: {proc.stderr}"
