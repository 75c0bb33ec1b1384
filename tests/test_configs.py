"""Every config rejects a value outside its bounds with its own module's error.

The sweep takes each numeric field (annotated ``int`` or ``float``, optionally
``| None``) from ``dataclasses.fields``, so a new field is covered without
editing this file: NaN and +-inf must raise, and so must 2.5 in an int field.
``OUT_OF_RANGE`` adds finite values outside a field's bound, tuple entries and
a None where the default is not None.
"""

import dataclasses
import math

import pytest

from fluvinv.generators import GeneratorDescriptor, GeneratorError
from fluvinv.geophysics import (
    BurdenConfig,
    GeophysicsError,
    MineralPhase,
    PsfConfig,
    RockPhysicsParams,
)
from fluvinv.grids import GridError, GridGeometry
from fluvinv.inversion import (
    DataLossConfig,
    DreamConfig,
    FlowConfig,
    InferenceNetConfig,
    InversionError,
    LatentOptimizeConfig,
    PivotalTuneConfig,
)
from fluvinv.survey import StagePolicy, SurveyError

# config class -> (its module's error, valid values of the fields without a default)
CONFIGS = {
    GridGeometry: (GridError, {}),
    MineralPhase: (GeophysicsError, dict(rho=2.65, porosity=0.27, bulk=37.0, shear=44.0)),
    RockPhysicsParams: (GeophysicsError, {}),
    BurdenConfig: (GeophysicsError, {}),
    PsfConfig: (GeophysicsError, {}),
    GeneratorDescriptor: (GeneratorError, {}),
    StagePolicy: (SurveyError, dict(count=4, exclusion_m=500.0, ramp_m=1000.0)),
    DataLossConfig: (InversionError, {}),
    DreamConfig: (InversionError, {}),
    LatentOptimizeConfig: (InversionError, {}),
    PivotalTuneConfig: (InversionError, {}),
    FlowConfig: (InversionError, {}),
    InferenceNetConfig: (InversionError, {}),
}

NUMERIC = ("int", "float", "int | None", "float | None")

SWEEP = [(cls, f.name, bad)
         for cls in CONFIGS for f in dataclasses.fields(cls) if f.type in NUMERIC
         for bad in (math.nan, math.inf, -math.inf) + ((2.5,) if f.type[:3] == "int" else ())]

OUT_OF_RANGE = [
    (GridGeometry, "dx", math.nan), (GridGeometry, "nx", 2.5),
    (PsfConfig, "peak_frequency_hz", math.nan), (GeneratorDescriptor, "label_dim", -1),
    (LatentOptimizeConfig, "lr", math.inf),
    (MineralPhase, "rho", 0.0), (RockPhysicsParams, "water_rho", 0.0),
    (RockPhysicsParams, "water_bulk", -2.29), (RockPhysicsParams, "pressure", 0.0),
    (RockPhysicsParams, "coordination", 0.0), (RockPhysicsParams, "critical_porosity", 1.0),
    (PsfConfig, "velocity_mps", 0.0), (PsfConfig, "illumination_angle_deg", 90.5),
    (PsfConfig, "kernel_extents", (9, -1, 3)), (PsfConfig, "kernel_extents", (9, 3.0, 3)),
    (PsfConfig, "kernel_extents", [9, 0, 3]),
    (GeneratorDescriptor, "base_channels", 0), (GeneratorDescriptor, "leaky_slope", -0.2),
    (GeneratorDescriptor, "out_extents", (32, 32, 0)), (StagePolicy, "count", -1),
    (StagePolicy, "ramp_m", math.inf), (DataLossConfig, "lambda_z", None),
    (DreamConfig, "archive_size0", 0), (DreamConfig, "rng_seed", -1),
    (LatentOptimizeConfig, "rng_seed", -1), (PivotalTuneConfig, "locality_weight", math.inf),
    (FlowConfig, "hidden", (8.5,)), (FlowConfig, "n_posterior", None),
    (InferenceNetConfig, "hidden", (16, math.nan)), (InferenceNetConfig, "noise_dim", 2.5),
]

CASES = {f"{cls.__name__}.{name}={bad}": (cls, name, bad)
         for cls, name, bad in SWEEP + OUT_OF_RANGE}


@pytest.mark.parametrize("cls, name, bad", list(CASES.values()), ids=list(CASES))
def test_config_rejects_a_value_outside_its_bounds(cls, name, bad):
    error, required = CONFIGS[cls]
    with pytest.raises(error, match=name):
        cls(**{**required, name: bad})
