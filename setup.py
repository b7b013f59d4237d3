"""Setuptools shim.

This environment has no ``wheel`` package and no network access, so
``pip install -e .`` cannot build a modern editable wheel.  The shim lets
``python setup.py develop`` (or ``pip install -e . --no-build-isolation``
once wheel is available) install the package from this metadata.

``package_data`` ships the bundled ``.bif`` ground-truth networks inside
the wheel/sdist so :func:`repro.bn.datasets.load_dataset` (which reads
them through ``importlib.resources``) works from an installed package,
not just a source checkout.
"""

from setuptools import find_packages, setup

setup(
    name="repro-fastbni",
    version="1.0.0",
    description="Fast parallel exact inference on Bayesian networks (PPoPP'23 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.bn.datasets": ["*.bif"]},
    include_package_data=True,
    python_requires=">=3.10",
    install_requires=["numpy", "orjson>=3.8"],
    entry_points={"console_scripts": ["fastbni = repro.cli:main"]},
)
