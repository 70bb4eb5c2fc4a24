"""Pin every generated benchmark input, byte for byte.

``tests/input_fingerprints.json`` holds one SHA-256 per registered
benchmark, seed and variant, over every field of the built
:class:`~repro.sim.kernel.Application`: the kernel fields, the bytes of
``thread_items`` and ``mem_bases``, and every ``ChildRequest`` field,
nested requests included.  A generator rewrite must leave every hash
unchanged.

Regenerate the file only in a change that means to alter inputs::

    PYTHONPATH=src python -m tests.test_input_fingerprints --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.workloads import benchmark_names, get_benchmark

FINGERPRINTS = Path(__file__).with_name("input_fingerprints.json")

SEEDS = (1, 5)

#: variant label -> how to build it; ``dp-cta32`` is the Fig. 7 path.
VARIANTS = {
    "flat": lambda bench, seed: bench.flat(seed),
    "dp": lambda bench, seed: bench.dp(seed),
    "dp-cta32": lambda bench, seed: bench.dp(seed, cta_threads=32),
}


#: Built-in scalar types whose ``repr`` is exact and names the type.  numpy
#: scalars are tagged with their own type name instead (their ``repr``
#: differs between numpy releases), so a numpy scalar where the parent had
#: a Python one changes the hash.
_PLAIN = frozenset({type(None), bool, int, float, str})


def _layout(kind, _cache={}):
    """(header, field getter) of a dataclass type."""
    if kind not in _cache:
        names = tuple(field.name for field in dataclasses.fields(kind))
        _cache[kind] = (f"{kind.__name__}{names}", operator.attrgetter(*names))
    return _cache[kind]


def _flatten(value, out: list) -> None:
    """Append a type-tagged text form of ``value`` to ``out``."""
    kind = type(value)
    if kind in _PLAIN:
        out.append(repr(value))
    elif isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        out.append(f"{array.dtype.str}{array.shape}{array.tobytes().hex()}")
    elif isinstance(value, np.generic):
        out.append(f"{kind.__name__}({value.item()!r})")
    elif isinstance(value, dict):
        out.append(f"dict{len(value)}")
        for key, item in value.items():
            _flatten(key, out)
            _flatten(item, out)
    elif isinstance(value, (list, tuple)):
        out.append(f"{kind.__name__}{len(value)}")
        for item in value:
            _flatten(item, out)
    elif dataclasses.is_dataclass(value):
        header, fields_of = _layout(kind)
        out.append(header)
        for item in fields_of(value):
            if type(item) in _PLAIN:
                out.append(repr(item))
            else:
                _flatten(item, out)
    else:
        raise TypeError(f"cannot fingerprint {kind.__name__}")


def app_fingerprint(app) -> str:
    out: list = []
    _flatten(app, out)
    return hashlib.sha256(",".join(out).encode()).hexdigest()


def compute_fingerprints() -> dict:
    return {
        f"{name}/seed{seed}/{variant}": app_fingerprint(
            build(get_benchmark(name), seed)
        )
        for name in benchmark_names()
        for seed in SEEDS
        for variant, build in VARIANTS.items()
    }


def test_generated_inputs_match_pinned_fingerprints():
    pinned = json.loads(FINGERPRINTS.read_text())
    actual = compute_fingerprints()
    assert sorted(actual) == sorted(pinned)
    changed = [key for key in pinned if actual[key] != pinned[key]]
    assert not changed, f"generated inputs changed: {changed}"


def test_fingerprint_sees_every_field():
    app = get_benchmark("AMR").dp(1)
    base = app_fingerprint(app)
    spec = app.kernels[0]
    req = next(r for (r,) in spec.child_requests.values() if r.nested)
    nested = next(iter(req.nested.values()))[0]
    nested.mem_base += 1
    assert app_fingerprint(app) != base
    nested.mem_base -= 1
    spec.thread_items[0] += 1
    assert app_fingerprint(app) != base
    spec.thread_items[0] -= 1
    req.at_fraction = np.float64(req.at_fraction)
    assert app_fingerprint(app) != base
    req.at_fraction = float(req.at_fraction)
    assert app_fingerprint(app) == base
    with pytest.raises(TypeError):
        app_fingerprint(object())


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FINGERPRINTS.write_text(
        json.dumps(compute_fingerprints(), indent=1, sort_keys=True) + "\n"
    )
