"""The column-block record renderer against the per-record reference encoder.

``reference_render`` below is the encoder every command used before record
families were rendered by column: ``_plain`` on each record, then one
``json.dumps`` per line.  It is kept here as the oracle; the command line
promises byte-identical output, so the block renderer must agree with it
line for line in both formats.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgsov.cli as cli


def reference_plain(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.complexfloating):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "c":
            return [reference_plain(v) for v in value.tolist()]
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [reference_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): reference_plain(v) for k, v in value.items()}
    return str(value)


def reference_line(rec: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(reference_plain(rec), sort_keys=True, separators=(",", ":"))
    rec = reference_plain(rec)
    head = rec.pop("record", "row")
    body = "  ".join(f"{k}={json.dumps(v, sort_keys=True)}" for k, v in rec.items())
    return f"{head:24s} {body}"


def reference_render(records: list[dict], fmt: str) -> str:
    return "\n".join(reference_line(rec, fmt) for rec in records) + "\n"


def expand(records: list) -> list[dict]:
    """Blocks back into one dict per record, in the family's field order."""
    out = []
    for rec in records:
        if not isinstance(rec, cli._Block):
            out.append(rec)
            continue
        for i in range(len(rec)):
            row = {"record": rec.record}
            for name, value in rec.fields.items():
                if name == rec.optional and not rec.mask[i]:
                    continue
                row[name] = value[i] if isinstance(value, np.ndarray) else value
            out.append(row)
    return out


# ---------------------------------------------------------------------------
# property test: random blocks

SPECIAL_FLOATS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1e16]
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                   st.sampled_from(SPECIAL_FLOATS))
complexes = st.builds(complex, floats, floats)
# text that a %-template or a JSON string must escape
texts = st.one_of(st.text(max_size=6), st.text(alphabet='%sd"\\ \u00e9\n', max_size=6))
names = texts.filter(lambda k: k and k != "record")

constants = st.one_of(
    floats,
    complexes,
    st.integers(-10**20, 10**20),
    st.booleans(),
    texts,
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
    st.builds(np.uint8, st.integers(0, 255)),
    st.builds(np.bool_, st.booleans()),
    st.builds(np.float64, floats),
    st.builds(np.complex128, complexes),
    st.lists(complexes, max_size=3),
)


@st.composite
def columns(draw, n: int):
    kind = draw(st.sampled_from(["float", "complex", "int", "uint", "bool", "float32"]))
    shape = (n, *draw(st.lists(st.integers(0, 3), max_size=2)))
    size = int(np.prod(shape))
    if kind == "float":
        data = np.array(draw(st.lists(floats, min_size=size, max_size=size)), dtype=float)
    elif kind == "float32":
        data = np.array(draw(st.lists(st.floats(width=32), min_size=size, max_size=size)),
                        dtype=np.float32)
    elif kind == "complex":
        data = np.array(draw(st.lists(complexes, min_size=size, max_size=size)), dtype=complex)
    elif kind == "int":
        data = np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=size,
                                      max_size=size)), dtype=np.int64)
    elif kind == "uint":
        data = np.array(draw(st.lists(st.integers(0, 2**64 - 1), min_size=size,
                                      max_size=size)), dtype=np.uint64)
    else:
        data = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
    return data.reshape(shape)


@st.composite
def blocks(draw):
    n = draw(st.integers(0, 5))
    keys = draw(st.lists(names, min_size=1, max_size=6, unique=True))
    n_columns = draw(st.integers(1, len(keys)))
    fields = {}
    for i, key in enumerate(keys):
        fields[key] = draw(columns(n)) if i < n_columns else draw(constants)
    order = draw(st.permutations(keys))
    fields = {k: fields[k] for k in order}
    optional = draw(st.one_of(st.none(), st.sampled_from(keys)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    record = draw(texts)
    return cli._Block(record, fields, optional=optional, mask=mask)


# what dict records hold: scalars, NumPy scalars, and nested lists and dicts of them
plain_values = st.recursive(
    st.one_of(st.none(), floats, complexes, st.integers(-10**20, 10**20), st.booleans(),
              texts, st.builds(np.bool_, st.booleans()), st.builds(np.float64, floats)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def dict_records(draw):
    keys = draw(st.lists(names, max_size=5, unique=True))
    rec = {key: draw(plain_values) for key in keys}
    return {"record": draw(texts), **rec} if draw(st.booleans()) else {**rec, "record": draw(texts)}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(dict_records(), blocks()), max_size=4),
       st.sampled_from(["json", "table"]))
def test_dict_records_render_as_the_reference_encoder_writes_them(records, fmt):
    assert cli._render(records, fmt) == reference_render(expand(records), fmt)


@settings(max_examples=300, deadline=None)
@given(blocks(), st.sampled_from(["json", "table"]))
def test_block_renderer_matches_reference_encoder(block, fmt):
    rows = expand([block])
    assert block.lines(fmt) == [reference_line(rec, fmt) for rec in rows]
    mixed = [{"record": "before", "value": 1.5}, block, {"record": "after", "value": 1j}]
    assert cli._render(mixed, fmt) == reference_render(expand(mixed), fmt)


def test_non_finite_values_are_written_as_json_writes_them():
    block = cli._Block("r", {"x": np.array([np.nan, np.inf, -np.inf, -0.0]),
                             "z": np.array([complex(np.inf, np.nan)] * 4)})
    assert block.lines("json")[0] == '{"record":"r","x":NaN,"z":[Infinity,NaN]}'
    assert block.lines("table")[3] == f"{'r':24s} x=-0.0  z=[Infinity, NaN]"


# ---------------------------------------------------------------------------
# command level: what each command writes, against its blocks expanded

CPLX = ("--kappa", "(1.2+0.4j),(0.7-0.3j),(1.6+0.1j)",
        "--xi", "(0.9-0.5j),(1.4+0.2j),(0.6+0.3j)")
INSTANCES = {
    "real33": ("--seed", "7"),
    "complex33": ("--seed", "7", *CPLX),
    "real35": ("--seed", "7", "--n-sites", "3", "--p", "5"),
}
COMMANDS = ("verify-ybe", "averages", "sov-basis", "spectrum", "qfunctions", "formfactors")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_command_output_equals_reference_encoder(tmp_path, monkeypatch, command, instance):
    rendered = []
    real_render = cli._render

    def capture(records, fmt):
        text = real_render(records, fmt)
        rendered.append((records, fmt, text))
        return text

    monkeypatch.setattr(cli, "_render", capture)
    for fmt in ("json", "table"):
        out = tmp_path / f"{command}.{fmt}"
        assert cli.main([*INSTANCES[instance], "--format", fmt, "--out", str(out), command]) == 0
        records, used, text = rendered.pop()
        assert used == fmt and out.read_text() == text
        assert text == reference_render(expand(records), fmt)
    assert any(isinstance(r, cli._Block) for r in records)
