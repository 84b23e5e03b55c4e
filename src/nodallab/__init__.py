"""nodallab: a numerical laboratory for the nodal sets of the two-phase sublinear equation."""

# the one version string: pyproject.toml reads it as the project's dynamic
# version, and the CLI records it in every run.json
__version__ = "0.1.0"
