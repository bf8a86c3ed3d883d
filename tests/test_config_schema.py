"""The config schema, tested from its own table.

The refusal cases are drawn from ``cli``'s key tables, so a key is covered as
soon as it is declared: for every top-level, sweep and model key, each value
outside its type or constraint makes ``run`` exit 2 with one ``config error:``
line that names the key, and leaves no output directory. The bundled configs
resolve to the config blocks of their committed manifests, and the README's
schema block names every top-level and sweep key.
"""

import json
import pathlib
import re
import warnings

import pytest
import yaml

from causalgeom import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]

BASE = {
    "schema_version": 1,
    "model": {"name": "dimmer"},
    "computation": "ei-geom",
    "estimator": "geometric",
    "sweep": {"variable": "epsilon", "from": 0.1, "to": 0.2, "steps": 3, "log": True, "tie": ["delta"]},
    "submanifolds": [],
    "theta": [0.3],
    "seed": 0,
    "units": "bits",
    "threads": 1,
    "plot": False,
}

NOT_OF_KIND = {
    "int": ["abc", "2.5", True, False, 2.5, [1], {"k": 1}, float("inf"), float("nan")],
    "bool": ["false", "no", "true", 0, 1, [True]],
    "name": [1, True, ["x"], {"k": 1}],
    "names": ["diagonal", [1], [["x"]], {"k": 1}, 1, True],
    "sweep": ["abc", 1, [1], {}, True],
    "model": ["abc", 1, [1], {}, {"name": "perpetuum-mobile"}, True],
    "models": ["abc", 1, [], {"name": "dimmer"}, True],
}


def with_first(value, x):
    """``value`` with its first scalar replaced by ``x``."""
    return [with_first(value[0], x), *value[1:]] if isinstance(value, list) else x


def refused(key: cli.Key) -> list:
    """Values outside ``key``'s type or constraint."""
    if key.kind == "float":
        good = 1.0
        for n in reversed(key.shape):
            good = [good] * (1 if n == -1 else n)
        values = ["abc", True, {"k": 1}, [good]]
        values += [with_first(good, x) for x in (float("nan"), float("inf"), float("-inf"), "x", True)]
    else:
        values = list(NOT_OF_KIND[key.kind])
    if key.choices:
        values.append(["psychic"] if key.kind == "names" else 2 if key.kind == "int" else "psychic")
    if key.minimum is not None:
        values.append(key.minimum - 1)
    if key.positive_when:  # BASE sets each such flag
        values += [0.0, -0.5]
    if key.required:
        values.append(None)
    return values


def cases():
    """(id, key name, key, value -> document) for every declared key."""
    for name, key in cli._TOP.items():
        yield f"config-{name}", name, key, lambda v, name=name: {**BASE, name: v}
    for name, key in cli._SWEEP.items():
        yield f"sweep-{name}", name, key, lambda v, name=name: {**BASE, "sweep": {**BASE["sweep"], name: v}}
    for model, entry in cli.MODELS.items():
        base = {"schema_version": 1, "computation": entry.computations[0]}
        for name, key in cli._MODEL_KEYS[model].items():
            yield (
                f"{model}-{name}",
                name,
                key,
                lambda v, base=base, model=model, name=name: {**base, "model": {"name": model, name: v}},
            )


CASES = list(cases())


def test_the_base_documents_resolve():
    cli._resolve_config(BASE)
    for model, entry in cli.MODELS.items():
        cli._resolve_config({"schema_version": 1, "model": {"name": model}, "computation": entry.computations[0]})


@pytest.mark.parametrize("name, key, document", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_each_value_outside_a_keys_type_or_constraint_exits_2(tmp_path, capsys, monkeypatch, name, key, document):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CG_THREADS", raising=False)
    config = tmp_path / "config.yaml"
    for value in refused(key):
        config.write_text(yaml.safe_dump(document(value)), encoding="utf-8")
        # output's own refusals are checked without the flag that overrides it
        argv = ["run", str(config)] + ([] if name == "output" else ["--output", str(tmp_path / "out")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 2, (name, value, out, err)
        [line] = err.splitlines()
        assert line.startswith("config error:") and name in line, (value, line)
        assert list(tmp_path.iterdir()) == [config], value


def test_a_sweep_too_large_to_allocate_exits_3_without_a_traceback(tmp_path, capsys):
    # 10**15 float64 values take 8e15 bytes, more than a 2**47-byte user
    # address space, so the allocation fails at once without touching memory
    doc = {**BASE, "sweep": {**BASE["sweep"], "steps": 10**15}}
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(doc), encoding="utf-8")
    code = cli.main(["run", str(config), "--output", str(tmp_path / "out")])
    [line] = capsys.readouterr().err.splitlines()
    assert code == 3 and line.startswith("numeric error:")
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("config", sorted((ROOT / "configs").glob("*.yaml")), ids=lambda p: p.stem)
def test_bundled_configs_resolve_to_their_committed_manifests(config):
    committed = json.loads((ROOT / "out" / config.stem / "manifest.json").read_text(encoding="utf-8"))["config"]
    assert cli._resolve_config(yaml.safe_load(config.read_text(encoding="utf-8"))) == committed
    assert cli._resolve_config(committed) == committed


def test_readme_schema_block_names_every_top_level_and_sweep_key():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("### Config schema", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    for name in [*cli._TOP, *cli._SWEEP]:
        assert re.search(rf"(?<![\w-]){name}:", block), name
