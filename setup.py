"""Packaging for ``repro``; all project metadata lives here.

There is no ``pyproject.toml``: plain ``setup.py`` keeps ``pip install -e .``
working in fully offline environments where the PEP 517 editable-wheel path
is unavailable.  ``clmul.c`` ships as package data because the ``native``
kernel backend (``repro.gf.backends``) compiles it on first use, also from an
installed copy.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.14.0",
    description="Network-Aware Byzantine Broadcast (Liang & Vaidya, PODC 2012), reproduced",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.gf": ["clmul.c"]},
    python_requires=">=3.10",
)
