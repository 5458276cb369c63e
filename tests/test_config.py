"""Configuration parsing: defaults, validation paths, object building."""

import json
from pathlib import Path

import numpy as np
import pytest

from kirchflow.cli import main
from kirchflow.config import ConfigError, load_config, parse_config
from kirchflow.constitutive import ConstitutiveModel
from kirchflow.grid import Column


def test_empty_document_is_the_reference_problem():
    cfg = parse_config("{}")
    assert cfg.grid == {"length": 1.0, "n_cells": 200, "gravity_sign": -1.0}
    assert cfg.stepping["h"] == 0.01
    assert cfg.stepping["gamma"] == 0.1
    assert cfg.stepping["t_end"] == 1.0
    assert cfg.stepping["newton_tol"] == 1.0e-7
    assert cfg.ic == {
        "profile": "gaussian_lens",
        "center": 0.5,
        "width": 0.15,
        "depth": 0.2,
    }
    assert set(vars(cfg)) == {"constitutive", "grid", "stepping", "ic"}


def test_partial_block_keeps_remaining_defaults():
    cfg = parse_config('{"grid": {"n_cells": 100}, "stepping": {"gamma": 0.0}}')
    assert cfg.grid["n_cells"] == 100
    assert cfg.grid["length"] == 1.0
    assert cfg.stepping["gamma"] == 0.0
    assert cfg.stepping["h"] == 0.01


def test_builders_produce_wired_objects():
    cfg = parse_config('{"grid": {"n_cells": 60}}')
    model = cfg.build_model()
    assert isinstance(model, ConstitutiveModel)
    col = cfg.build_column()
    assert isinstance(col, Column)
    assert col.n_cells == 60
    stepping = cfg.build_stepping()
    assert stepping.beta == 1.0  # growth constant of the default curves
    assert stepping.h == 0.01


def test_timestep_bound_rejected_with_citation():
    with pytest.raises(ConfigError, match=r"stepping\.h.*h <= 1/beta"):
        parse_config('{"stepping": {"h": 2.0}}')


def test_van_genuchten_exponent_rejected():
    with pytest.raises(ConfigError, match=r"constitutive\.n_vg.*exceed 1"):
        parse_config('{"constitutive": {"n_vg": 0.9}}')


def test_parse_error_reported():
    with pytest.raises(ConfigError, match="parse error"):
        parse_config("{not json")
    # an integer literal past Python's int digit limit fails in json itself
    with pytest.raises(ConfigError, match="parse error"):
        parse_config('{"stepping": {"h": 1%s}}' % ("0" * 5000))


def test_non_finite_literal_rejected():
    with pytest.raises(ConfigError, match="non-finite"):
        parse_config('{"stepping": {"h": NaN}}')


def test_root_must_be_object():
    with pytest.raises(ConfigError, match="<root>"):
        parse_config("[1, 2]")


def test_unknown_block_and_key_carry_paths():
    with pytest.raises(ConfigError, match="steppin"):
        parse_config('{"steppin": {}}')
    with pytest.raises(ConfigError, match=r"grid\.n_cellz.*unknown key"):
        parse_config('{"grid": {"n_cellz": 10}}')
    # Newton's iteration cap is a solver constant, and Newton neither damps
    # its steps nor lags gravity: none of the three is a setting
    for key in ("newton_max_iter", "damping", "lag_gravity"):
        with pytest.raises(ConfigError, match=rf"stepping\.{key}: unknown key"):
            parse_config(json.dumps({"stepping": {key: 1}}))


@pytest.mark.parametrize(
    "doc, path",
    [
        ('{"constitutive": {"alpha_vg": 0.0}}', "constitutive.alpha_vg"),
        ('{"constitutive": {"s_res": 0.0}}', "constitutive.s_res"),
        ('{"constitutive": {"p_reg": 1.0}}', "constitutive.p_reg"),
        ('{"constitutive": {"p_reg": -2000000.0}}', "constitutive.p_reg"),
        ('{"constitutive": {"a_min": 1.5}}', "constitutive.a_min"),
        ('{"grid": []}', "grid"),
        ('{"grid": {"length": -1.0}}', "grid.length"),
        ('{"grid": {"length": 1e80}}', "grid.length"),
        ('{"grid": {"length": 1e-100}, "ic": {"profile": "zero"}}', "grid.length"),
        ('{"grid": {"n_cells": 4}}', "grid.n_cells"),
        ('{"grid": {"n_cells": 10.5}}', "grid.n_cells"),
        ('{"grid": {"gravity_sign": 0.5}}', "grid.gravity_sign"),
        ('{"stepping": {"h": -0.1}}', "stepping.h"),
        ('{"stepping": {"gamma": -0.1}}', "stepping.gamma"),
        ('{"stepping": {"t_end": 0.0}}', "stepping.t_end"),
        ('{"stepping": {"newton_tol": 0.0}}', "stepping.newton_tol"),
        ('{"stepping": {"newton_max_iter": 0}}', "stepping.newton_max_iter"),
        ('{"stepping": {"damping": 1.0}}', "stepping.damping"),
        ('{"stepping": {"lag_gravity": 1}}', "stepping.lag_gravity"),
        ('{"stepping": {"h": true}}', "stepping.h"),
        ('{"ic": {"profile": "sideways"}}', "ic.profile"),
        ('{"ic": {"profile": ["zero"]}}', "ic.profile"),
        ('{"ic": {"profile": "gausian_lens", "center": 0.3}}', "ic.profile"),
        ('{"ic": {"center": 1.5}}', "ic.center"),
        ('{"ic": {"width": 0.0}}', "ic.width"),
        ('{"ic": {"depth": -0.1}}', "ic.depth"),
        ('{"ic": {"profile": "custom", "z": [0, 0.5, 1], "u": [0, 0]}}', "ic.u"),
        # integers too large for a float are not finite numbers
        pytest.param('{"stepping": {"h": 1%s}}' % ("0" * 400), "stepping.h",
                     id="stepping.h-1e400"),
        pytest.param('{"ic": {"profile": "custom", "z": [0, 1%s], "u": [0, 0]}}'
                     % ("0" * 400), "ic.z", id="ic.z-1e400"),
    ],
)
def test_constraint_violations_name_the_key(doc, path):
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
        parse_config(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"stepping": {"h": 0.005}, "stepping": {"gamma": 0.0}}',
         "stepping: duplicate key (got 'stepping')"),
        ('{"stepping": {"h": 0.01, "h": 0.02}}', "stepping.h: duplicate key (got 'h')"),
        ('{"ic": {"depth": 0.3, "depth": 0.1}}', "ic.depth: duplicate key (got 'depth')"),
        # refused before the profile is read
        ('{"ic": {"profile": "zero", "profile": "custom"}}',
         "ic.profile: duplicate key (got 'profile')"),
    ],
)
def test_duplicate_keys_are_refused(doc, message, tmp_path, capsys):
    # json.loads keeps the last value of a repeated key, so each of these
    # would otherwise run without one of the settings it states
    with pytest.raises(ConfigError) as refused:
        parse_config(doc)
    assert str(refused.value) == message
    config, out = tmp_path / "dup.json", tmp_path / "out"
    config.write_text(doc)
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_model_constraint_beyond_the_ranges_names_the_key():
    # every parameter is in range, but the retention curve has already
    # reached s_res at p_reg: the model's own check, reported with its path
    doc = '{"constitutive": {"alpha_vg": 1000.0, "n_vg": 10.0, "p_reg": -100000.0}}'
    with pytest.raises(ConfigError, match=r"^constitutive\.p_reg: .*s_res"):
        parse_config(doc)


def test_readme_config_document_is_the_default():
    path = Path(__file__).resolve().parents[1] / "README.md"
    readme = path.read_text(encoding="utf-8")
    section = readme[readme.index("### Config document"):]
    start = section.index("```json\n") + len("```json\n")
    block = section[start:section.index("```", start)]
    assert json.loads(block) == json.loads(parse_config("{}").canonical_json())


def test_lens_center_bound_follows_column_length():
    # center 1.5 is valid once the column is long enough
    cfg = parse_config('{"grid": {"length": 3.0}, "ic": {"center": 1.5}}')
    assert cfg.ic["center"] == 1.5


def test_zero_profile_state():
    cfg = parse_config('{"grid": {"n_cells": 20}, "ic": {"profile": "zero"}}')
    assert np.array_equal(cfg.initial_state(cfg.build_column()).values, np.zeros(20))


def test_gaussian_lens_state_formula():
    cfg = parse_config(
        '{"grid": {"n_cells": 30},'
        ' "ic": {"center": 0.4, "width": 0.2, "depth": 0.1}}'
    )
    col = cfg.build_column()
    z = col.nodes()
    expected = -0.1 * np.exp(-(((z - 0.4) / 0.2) ** 2))
    np.testing.assert_array_equal(cfg.initial_state(col).values, expected)
    # the square overflows to inf at every node: the state is zero, unwarned
    thin = parse_config('{"grid": {"n_cells": 30}, "ic": {"width": 1e-300}}')
    assert np.array_equal(thin.initial_state(col).values, np.zeros(30))


def test_custom_profile_interpolates():
    cfg = parse_config(
        '{"grid": {"n_cells": 12},'
        ' "ic": {"profile": "custom", "z": [0.0, 0.5, 1.0],'
        ' "u": [0.0, -0.3, 0.0]}}'
    )
    col = cfg.build_column()
    expected = np.interp(col.nodes(), [0.0, 0.5, 1.0], [0.0, -0.3, 0.0])
    np.testing.assert_array_equal(cfg.initial_state(col).values, expected)


@pytest.mark.parametrize(
    "doc, path",
    [
        ('{"ic": {"profile": "custom", "z": [0.0, 1.0]}}', "ic.u"),
        (
            '{"ic": {"profile": "custom", "z": [0.0, 1.0], "u": [0.0]}}',
            "ic.u",
        ),
        (
            '{"ic": {"profile": "custom", "z": [0.5, 0.5], "u": [0.0, 0.0]}}',
            "ic.z",
        ),
        (
            '{"ic": {"profile": "custom", "z": [0.0, "a"], "u": [0.0, 0.0]}}',
            "ic.z",
        ),
    ],
)
def test_custom_profile_validation(doc, path):
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
        parse_config(doc)


def test_config_hash_normalizes_number_spelling():
    a = parse_config('{"grid": {"length": 1}}')
    b = parse_config('{"grid": {"length": 1.0}}')
    assert a.config_hash() == b.config_hash()
    c = parse_config('{"grid": {"length": 2.0}}')
    assert a.config_hash() != c.config_hash()


def test_load_config_default_and_missing(tmp_path):
    assert load_config(None).stepping == parse_config("{}").stepping
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))
    path = tmp_path / "ok.json"
    path.write_text('{"stepping": {"t_end": 0.5}}')
    assert load_config(str(path)).stepping["t_end"] == 0.5
