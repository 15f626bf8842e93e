"""Byte golden of every buffer the engine writes.

Each case of a fixed grid runs the rescaled post-order plan and the
all-branch gradient sweep, then hashes what they leave behind: both root
log-likelihoods, every computed lower, upper and scale buffer, and every
``(logL, d/dt, d²/dt²)`` triple. The digests in ``bank_golden.json``
were recorded while upper partials still lived in a bank of their own,
so any change to the buffer layout or the launch path that moves a
single bit fails here.

The table was recorded with two NumPy backends, the whole-set
``reference`` and the cache-blocked ``blocked``, and holds one row per
backend for every cell; the two rows are equal. The one engine computes
each cell once, and every test asserts it equals the row named in its
id, so both recorded rows stay checked.

Bits depend on the BLAS and libm build, so the table carries a probe
digest of a few matmuls, exponentials and logs in the grid's shapes, and
the comparison runs only where the probe matches. Record the table
with ``python -m tests.beagle.test_bank_golden`` — only when the
arithmetic changes on purpose.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import build_tree
from repro.core import create_instance, execute_plan, make_plan, optimal_reroot_fast
from repro.data import AMINO_ACID, DNA, random_patterns
from repro.inference import all_branch_derivatives
from repro.models import HKY85, discrete_gamma, single_rate, synthetic_empirical

GOLDEN = Path(__file__).with_name("bank_golden.json")

N_TIPS, N_PATTERNS = 10, 250
TOPOLOGIES = ("pectinate", "balanced", "random")
ROOTINGS = ("given", "rerooted")
#: The backends the table was recorded with, one row each.
RECORDED_ROWS = ("reference", "blocked")
DTYPES = {"f32": np.float32, "f64": np.float64}
CATEGORIES = (1, 4)
STATES = (4, 20)
MODES = ("concurrent", "serial")


def _case(topology, rooting, categories, states, seed=11):
    """Tree, model, rates and patterns; one tip carries explicit partials
    and one has unknown characters, so every child kind takes part."""
    rng = np.random.default_rng(seed)
    tree = build_tree(topology, N_TIPS, seed)
    for edge in tree.edges():
        edge.length = float(rng.exponential(0.2))
    if rooting == "rerooted":
        tree = optimal_reroot_fast(tree).tree
    alphabet = DNA if states == 4 else AMINO_ACID
    patterns = random_patterns(
        tree.tip_names(), N_PATTERNS, alphabet=alphabet, rng=rng
    )
    patterns.codes[1, ::5] = alphabet.n_states
    patterns.partials[patterns.taxa[0]] = rng.uniform(size=(N_PATTERNS, states))
    model = HKY85(2.0, [0.3, 0.2, 0.2, 0.3]) if states == 4 else synthetic_empirical(seed)
    rates = single_rate() if categories == 1 else discrete_gamma(0.5, categories)
    return tree, model, rates, patterns


def _digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _readable(read, indices):
    """``(index, bytes)`` of every buffer ``read`` returns without
    raising "read before being computed"."""
    for index in indices:
        try:
            data = read(index)
        except ValueError:
            continue
        yield str(index).encode() + data.tobytes()


def _lower(instance):
    base = instance.tip_count
    return _digest(
        _readable(instance.get_partials, range(base, base + instance.partials_buffer_count))
    )


def _upper(instance):
    return _digest(_readable(instance.upper_partials, range(instance.upper_base)))


def _scale(instance):
    return _digest(instance.scale.read(i).tobytes() for i in range(instance.scale.count))


def _gradient(case, dtype, mode, instance):
    tree, model, rates, patterns = case
    gradient = all_branch_derivatives(
        tree, model, patterns, rates=rates, dtype=dtype, mode=mode,
        instance=instance,
    )
    triples = [
        f"{d.log_likelihood.hex()} {d.first.hex()} {d.second.hex()}".encode()
        for d in gradient.derivatives
    ]
    return {
        "logL": gradient.log_likelihood.hex(),
        "lower": _lower(instance),
        "upper": _upper(instance),
        "derivatives": _digest(triples),
    }


@functools.lru_cache(maxsize=None)
def _grid_case(topology, rooting, dname, categories, states, mode):
    case = _case(topology, rooting, categories, states)
    tree, model, rates, patterns = case
    dtype = DTYPES[dname]
    scaled = create_instance(
        tree, model, patterns, rates=rates, dtype=dtype, scaling=True
    )
    ll = execute_plan(scaled, make_plan(tree, mode, scaling=True))
    instance = create_instance(tree, model, patterns, rates=rates, dtype=dtype)
    return {
        "scaled": {
            "logL": ll.hex(),
            "lower": _lower(scaled),
            "scale": _scale(scaled),
        },
        "gradient": _gradient(case, dtype, mode, instance),
    }


@functools.lru_cache(maxsize=None)
def _reuse_case():
    """A plain evaluation, then two gradient sweeps on the same instance:
    the upper bank appears after lower buffers already hold values."""
    case = _case("random", "given", 4, 20)
    tree, model, rates, patterns = case
    instance = create_instance(tree, model, patterns, rates=rates)
    ll = execute_plan(instance, make_plan(tree, "concurrent"))
    plain = {"logL": ll.hex(), "lower": _lower(instance)}
    first = _gradient(case, np.float64, "concurrent", instance)
    second = _gradient(case, np.float64, "concurrent", instance)
    return {"plain": plain, "first": first, "second": second}


GRID = [
    (topology, rooting, backend, dname, categories, states, mode)
    for topology in TOPOLOGIES
    for rooting in ROOTINGS
    for backend in RECORDED_ROWS
    for dname in DTYPES
    for categories in CATEGORIES
    for states in STATES
    for mode in MODES
]


def _key(topology, rooting, backend, dname, categories, states, mode):
    return f"{topology}/{rooting}/{backend}/{dname}/c{categories}/s{states}/{mode}"


def blas_probe():
    """Digest of matmuls, exponentials and logs in the grid's shapes."""
    rng = np.random.default_rng(0)
    chunks = []
    for states in STATES:
        for dtype in DTYPES.values():
            a = rng.uniform(size=(3, 4, N_PATTERNS, states)).astype(dtype)
            b = rng.uniform(size=(3, 4, states, states)).astype(dtype)
            chunks.append(np.matmul(a, b).tobytes())
            chunks.append(np.matmul(a[0, 0], b[0, 0].T).tobytes())
            chunks.append(np.exp(-b).tobytes())
            chunks.append(np.log(a).tobytes())
    return _digest(chunks)


@pytest.fixture(scope="module")
def golden():
    table = json.loads(GOLDEN.read_text())
    if table["blas_probe"] != blas_probe():
        pytest.skip("golden recorded under a different BLAS/libm build")
    return table


def _cell(topology, rooting, backend, dname, categories, states, mode):
    """The engine's digests for a grid key; ``backend`` only names the
    recorded row, so each cell is computed once for both rows."""
    return _grid_case(topology, rooting, dname, categories, states, mode)


@pytest.mark.parametrize("params", GRID, ids=[_key(*p) for p in GRID])
def test_grid_case_matches_the_table(params, golden):
    assert _cell(*params) == golden["grid"][_key(*params)]


@pytest.mark.parametrize("backend", RECORDED_ROWS)
def test_reused_instance_matches_the_table(backend, golden):
    assert _reuse_case() == golden["reuse"][backend]


def test_table_covers_the_grid(golden):
    assert sorted(golden["grid"]) == sorted(_key(*p) for p in GRID)
    assert sorted(golden["reuse"]) == sorted(RECORDED_ROWS)


def _record() -> None:
    table = {
        "blas_probe": blas_probe(),
        "grid": {_key(*p): _cell(*p) for p in GRID},
        "reuse": {backend: _reuse_case() for backend in RECORDED_ROWS},
    }
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _record()
