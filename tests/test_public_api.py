"""The public API's knobs: every defaulted init field and parameter of the
names each module exports, public methods included.

Each knob doubles the configurations that the tests and the benchmark have to
cover, so one is kept only while a production caller (the command line, the
config document, the benchmark or another module) sets it, or while it is the
reference API that the dense-agreement test drives.  The list is pinned: a
new knob is added here on purpose, or made a constant.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import kirchflow

KNOBS = [
    "cli.main(argv=)",  # None: the console script's sys.argv
    "config.RunConfig.build_stepping(beta=)",  # the benchmark passes beta
    "constitutive.ConstitutiveModel.a_min",  # the config's constitutive block
    "constitutive.ConstitutiveModel.alpha_vg",
    "constitutive.ConstitutiveModel.n_vg",
    "constitutive.ConstitutiveModel.p_reg",
    "constitutive.ConstitutiveModel.s_res",
    "diagnostics.uniqueness_probe(seed=)",  # probe-uniqueness --seed
    "grid.Column.gravity_sign",  # the config's grid block
    "grid.Column.length",
    "grid.Column.n_cells",
    "harness.convergence_study(gamma=)",  # mms: the config's gamma
    "harness.convergence_study(levels=)",  # the benchmark's level count
    "stepper.StepConfig.beta",  # the benchmark passes beta
    "stepper.StepConfig.gamma",  # the config's stepping block
    "stepper.StepConfig.h",
    "stepper.StepConfig.newton_tol",
    "stepper.StepConfig.t_end",
    "stepper.run(source=)",  # the manufactured-solution studies
    "stepper.step(initial_guess=)",  # the dense-agreement reference
    "stepper.step(source=)",
]


def _defaulted(function, name):
    return [f"{name}({p.name}=)" for p in inspect.signature(function).parameters.values()
            if p.default is not inspect.Parameter.empty]


def _knobs(module_name, name, obj):
    where = f"{module_name}.{name}"
    if not inspect.isclass(obj):
        return _defaulted(obj, where) if callable(obj) else []
    found = []
    if dataclasses.is_dataclass(obj):
        found = [f"{where}.{f.name}" for f in dataclasses.fields(obj) if f.init and (
            f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING)]
    for attr, member in vars(obj).items():
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if not attr.startswith("_") and inspect.isfunction(member):
            found += _defaulted(member, f"{where}.{attr}")
    return found


def test_every_knob_is_listed():
    found = []
    for info in pkgutil.iter_modules(kirchflow.__path__):
        module = importlib.import_module(f"kirchflow.{info.name}")
        for name in getattr(module, "__all__", ()):
            found += _knobs(info.name, name, getattr(module, name))
    assert sorted(found) == KNOBS
