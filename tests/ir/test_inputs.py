"""``make_inputs`` draws one dataset whichever procedure it is given.

``Session.run`` draws from a fresh ``parse_and_build`` procedure while
the sweep paths draw from ``compiled.proc``, the procedure after every
compiler pass.  The two must yield the same arrays, or a validated run
and a sweep point of one program would simulate different data.
"""

import pathlib

import numpy as np
import pytest

from repro.core import CompilerOptions, compile_source
from repro.ir.build import make_inputs, parse_and_build
from repro.programs import appsp_source, dgefa_source, tomcatv_source

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

SOURCES = {
    "tomcatv": tomcatv_source(n=17, niter=1, procs=4),
    "dgefa": dgefa_source(n=12, procs=4),
    "appsp-1d": appsp_source(nx=8, ny=8, nz=8, niter=1, procs=4, distribution="1d"),
    "appsp-2d": appsp_source(nx=8, ny=8, nz=8, niter=1, procs=4, distribution="2d"),
    **{p.stem: p.read_text() for p in sorted(CORPUS.glob("*.hpf"))},
}


@pytest.mark.parametrize("name", SOURCES)
def test_fresh_and_compiled_procedures_draw_identical_inputs(name):
    source = SOURCES[name]
    compiled = compile_source(source, CompilerOptions(num_procs=4))
    fresh = make_inputs(parse_and_build(source), 5)
    swept = make_inputs(compiled.proc, 5)
    assert list(fresh) == list(swept)
    for array in fresh:
        assert np.array_equal(fresh[array], swept[array]), array
