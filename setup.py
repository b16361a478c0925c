"""Setuptools entry point (legacy path for environments without wheel)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Quorum Selection for Byzantine Fault Tolerance' "
        "(Jehl, ICDCS 2019)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
