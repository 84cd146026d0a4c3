"""Two-view 3-D reconstruction with geometric uniqueness certificates.

Every layer is a package attribute and a `sys.modules` entry from the
start, but executes only when one of its attributes is first read:
`from twoview import toric` runs nothing, `toric.detect_axis` runs
`toric` and the layers its calls reach, since every layer but the base
ones, `errors` and `geometry`, is reached through its module
(`from . import recon`, then `recon.name`).  The names the package
re-exports, `from twoview import PointCloud` say, load their home layer
the same way.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    """The submodule `name`, executed on first attribute access (the
    importlib documentation's lazy-import recipe)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


geometry = _lazy("geometry")
moments = _lazy("moments")
recon = _lazy("recon")
diffgeo = _lazy("diffgeo")
certify = _lazy("certify")
algebra = _lazy("algebra")
toric = _lazy("toric")
serialization = _lazy("serialization")

_EXPORTS = {
    geometry: ("BackprojectionRay", "Involution", "PointCloud", "Projected2D",
               "ProjectionSpec", "Sinogram", "VoxelGrid", "apply_involution",
               "backproject", "check_transversality", "coordinate_spec",
               "project_points", "project_voxels"),
    moments: ("MomentValue", "SecondMoment3D", "centroid2d", "centroid3d",
              "moment_map", "second_moment"),
    recon: ("ConstraintRow", "DirectionSolution", "NoiseReport",
            "RadonSystem", "build_radon_system", "noise_study",
            "reconstruct_cloud", "solve_direction", "solve_radon",
            "triangulate"),
    certify: ("Certificate", "TrivializationCoords", "certificate",
              "trivialization"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """A re-exported name, read from its home layer (PEP 562)."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


def __dir__():
    return sorted([*globals(), *_HOME])
