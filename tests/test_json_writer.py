"""The CLI's JSON documents: the one-line bytes of json.dumps(sort_keys=True, allow_nan=False)."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pseudoform import cli
from pseudoform.errors import EvaluationDomainError

from test_cli import _ONE_STEP_TRANSPORT, _PARIS_RUN, _run, _strict_json


_SPHERE = {"levelset": "x^2+y^2+z^2"}
_TILTED = {**_SPHERE, "point": [1, 0, 0], "nu": [0.6, 0.8], "ds": 0.05, "steps": 40}
_ABORTED = {"pfaffian": ["0", "0", "sqrt(1-x)"], "point": [0, 0, 0], "nu": [1, 0], "ds": 0.05,
            "steps": 100}
_PENDULUM = {**_PARIS_RUN, "dt": 0.5, "duration": 1200.0}  # 2401 rows, three blocks


@pytest.mark.parametrize("argv, config, code", [
    (["classify"], {"theta": ["0", "x", "1"], "lower": [0, 0, 0], "upper": [1, 1, 1]}, 0),
    # f |theta|^2 overflows, so max_frobenius_raw is null
    (["classify"], {"theta": ["0", "x*exp(400*x)", "exp(400*x)"], "lower": [0.9, 0.5, 0],
                    "upper": [1, 1, 1], "count": 16}, 0),
    (["surface"], {**_SPHERE, "points": [[0, 0, 1], [0.6, 0, 0.8]]}, 0),
    (["surface"], {"pfaffian": ["0", "x", "1"], "metric": "minkowski", "chart": "spacetime",
                   "points": [[0.5, -0.25, 1e-300]]}, 0),
    (["--format", "json", "geodesic"], _TILTED, 0),
    (["--format", "json", "geodesic"], _ABORTED, 3),
    (["foucault", "geometry"], {"latitude": 0.8527, "metric": "galilean"}, 0),
    (["--format", "json", "foucault", "sim"], _PENDULUM, 0),
    (["--format", "json", "foucault", "precession"], {**_PENDULUM, "duration": 3600.0}, 0),
    (["--format", "json", "transport"], {**_ONE_STEP_TRANSPORT, "initial": [1, 0, 0],
                                         "t1": 3e3, "dt": 1.0}, 0),
], ids=["classify", "classify-null-raw", "surface-levelset", "surface-pfaffian",
        "geodesic", "geodesic-aborted", "foucault-geometry", "foucault-sim",
        "foucault-precession", "transport"])
def test_every_document_is_the_bytes_of_json_dumps(tmp_path, capsys, argv, config, code):
    status, out, _ = _run(tmp_path, capsys, argv, config)
    assert status == code
    assert out == json.dumps(_strict_json(out), sort_keys=True, allow_nan=False) + "\n"


def _written(tmp_path, result):
    """The bytes ``cli._write_json`` writes to ``--out`` for ``result``; None if it wrote none."""
    out = tmp_path / "out.json"
    args = cli._Args(("surface",), "surface", None, str(out), "json", 7)
    cli._write_json(args, {"levelset": "x"}, result)
    return out.read_text() if out.exists() else None


def _as_json(value):
    """``value`` as JSON reads it back: tuples become lists."""
    if isinstance(value, (list, tuple)):
        return [_as_json(item) for item in value]
    if isinstance(value, dict):
        return {key: _as_json(item) for key, item in value.items()}
    return value


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7, 0.1]),
)
_SCALARS = st.one_of(
    _FLOATS, st.integers(), st.booleans(), st.none(), st.text(max_size=8),
    st.sampled_from(["é", "Ω→∞", "\x00\x1f\"\\", "\ud800", "😀"]),
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(_FLOATS, max_size=6),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_DOCUMENTS)
def test_generated_documents_are_the_bytes_of_json_dumps(tmp_path, document):
    text = _written(tmp_path, document)
    assert text.count("\n") == 1 and text.endswith("\n")
    assert text == json.dumps(_strict_json(text), sort_keys=True, allow_nan=False) + "\n"
    assert _strict_json(text)["result"] == _as_json(document)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("place", [
    lambda x: x,
    lambda x: [x],
    lambda x: [1.0, 2.0, x],
    lambda x: [1, x],
    lambda x: {"a": {"b": [[0.5], [x, 0.5]]}},
], ids=["scalar", "float-list", "tail-of-floats", "mixed-list", "nested"])
def test_inf_and_nan_raise_value_error(tmp_path, bad, place):
    match = "non-finite value in the surface result"
    with pytest.raises(EvaluationDomainError, match=match) as caught:
        _written(tmp_path, place(bad))
    assert isinstance(caught.value.__cause__, ValueError)
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("value", [{1, 2}, {"a": object()}, {(1, 2): "tuple key"}, b"bytes", 1j])
def test_a_value_json_cannot_hold_raises_type_error(tmp_path, value):
    with pytest.raises(TypeError):
        _written(tmp_path, value)
    assert not (tmp_path / "out.json").exists()
