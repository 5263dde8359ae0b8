"""Legacy setup shim: the sandbox lacks the `wheel` package, so PEP 660
editable installs are unavailable; `pip install -e .` falls back to this."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "FedProphet (MLSys 2025) reproduction: memory-efficient federated "
        "adversarial training via robust and consistent cascade learning."
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.22"],
)
