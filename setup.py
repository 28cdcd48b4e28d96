import sys

from setuptools import Extension, setup

# The compiled value-iteration kernel is an optional speedup: if Cython or a
# C compiler is missing, the package falls back to the pure-Python kernel at
# import time.
ext_modules = []
try:
    from Cython.Build import cythonize

    extensions = [
        Extension(
            "remest._kernels.rvi_cy",
            ["src/remest/_kernels/rvi_cy.pyx"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
        ),
    ]
    ext_modules = cythonize(extensions, compiler_directives={"language_level": "3"})
except ImportError:
    print("Cython not available; building without the compiled kernel", file=sys.stderr)

setup(ext_modules=ext_modules)
