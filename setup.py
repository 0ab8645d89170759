"""Package metadata for ``repro``.

This file is the whole packaging story (there is no pyproject.toml).
The package has no runtime requirements; the native plane kernel's C
source ships as package data and is compiled on first use with the
host's C compiler (hosts without one fall back to bigint planes).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Optimal metastability-containing sorting networks "
    "(Bund, Lenzen & Medina, DATE 2018) -- a reproduction",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.backends._kernel": ["kernel.c"]},
    python_requires=">=3.9",
)
