"""The public API: its knobs, every defaulted init field and parameter of the
names each module exports, public methods included; and its methods, every
public method and property of each exported class.

Each knob doubles the configurations that the tests and the benchmark have to
cover, so one is kept only while a production caller (the command line, the
config document, the benchmark or another module) sets it.  Each method is a
way into the package that the tests have to cover.  Both lists are pinned: a
new knob or method is added here on purpose, and a deleted one taken out.
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
]

METHODS = [
    "config.RunConfig.build_column",
    "config.RunConfig.build_stepping",
    "config.RunConfig.config_hash",
    "config.RunConfig.initial_state",
    "config.RunConfig.transform_table",
    "constitutive.ConstitutiveModel.conductivity",
    "constitutive.ConstitutiveModel.conductivity_pressure_slope",
    "constitutive.ConstitutiveModel.conductivity_vs_pressure",
    "constitutive.ConstitutiveModel.effective_saturation",
    "constitutive.ConstitutiveModel.m_vg",
    "constitutive.ConstitutiveModel.sat_slope_raw",
    "constitutive.ConstitutiveModel.saturation",
    "constitutive.KirchhoffTable.all_channels",
    "constitutive.KirchhoffTable.beta_bound",  # only the benchmark calls it
    "constitutive.KirchhoffTable.kirchhoff",
    "constitutive.KirchhoffTable.kirchhoff_inverse",
    "constitutive.KirchhoffTable.legendre_B",
    "diagnostics.Check.passed",
    "diagnostics.EnergyReport.energy_inequality",
    "diagnostics.EnergyReport.energy_inequality_ok",  # only the benchmark calls it
    "diagnostics.EnergyReport.gronwall",
    "diagnostics.EnergyReport.gronwall_ok",  # only the benchmark calls it
    "diagnostics.EnergyReport.inequality_defect",
    "grid.Column.dz",
    "grid.Column.nodes",
    "grid.Field.zeros",
    "harness.ManufacturedSolution.envelope",
    "harness.ManufacturedSolution.envelope_rate",
    "harness.ManufacturedSolution.field",
    "harness.ManufacturedSolution.source_callable",
    "stepper.StepConfig.n_steps",
    "stepper.Trajectory.n_steps",
    "stepper.Trajectory.rows",
]


def _exported():
    """``(module name, name, object)`` of every name each module exports."""
    for info in pkgutil.iter_modules(kirchflow.__path__):
        module = importlib.import_module(f"kirchflow.{info.name}")
        for name in getattr(module, "__all__", ()):
            yield info.name, name, getattr(module, name)


def _members(cls):
    """The public methods and properties that ``cls`` defines itself."""
    for attr, member in vars(cls).items():
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if not attr.startswith("_") and (inspect.isfunction(member)
                                         or isinstance(member, property)):
            yield attr, member


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
    for attr, member in _members(obj):
        if inspect.isfunction(member):
            found += _defaulted(member, f"{where}.{attr}")
    return found


def test_the_package_namespace_reexports_nothing():
    # each name lives in its module only: kirchflow holds its version and,
    # once imported, its submodules
    reexported = [name for name, value in vars(kirchflow).items()
                  if not name.startswith("_") and not inspect.ismodule(value)]
    assert reexported == [] and isinstance(kirchflow.__version__, str)


def test_every_knob_is_listed():
    found = []
    for module_name, name, obj in _exported():
        found += _knobs(module_name, name, obj)
    assert sorted(found) == KNOBS


def test_every_method_is_listed():
    found = [f"{module_name}.{name}.{attr}" for module_name, name, obj in _exported()
             if inspect.isclass(obj) for attr, _ in _members(obj)]
    assert sorted(found) == METHODS
