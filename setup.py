"""Setuptools shim.

The project metadata lives in ``pyproject.toml``; ``pip install -e .``
installs the ``repro`` package and the ``repro-accel`` console script.
Offline, pip needs the ``wheel`` package to build the project; without it,
``python setup.py develop`` installs the same package and script.
"""

from setuptools import setup

setup()
