"""Legacy setup shim.

The execution environment has no network and no ``wheel`` package, so
PEP 660 editable installs are unavailable; this shim lets
``pip install -e .`` take the classic ``setup.py develop`` path.
Metadata lives in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description=(
        "Energy-efficient user/kernel-partitioned STT-RAM L2 cache design "
        "for mobile platforms (DATE'15 / TODAES'17 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.0"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
