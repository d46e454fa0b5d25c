"""Byte-identity of ``grs verify --json`` on every shipped spec.

Each shipped spec runs in 9 configurations: the random seed as written,
``--seed 1`` and ``--seed 7``, each with the point count as written,
``--points 32`` and ``--points 1000``.  The runs go in process through
``grs.cli.main``.  One SHA-256 per spec covers its nine (exit code,
stdout, stderr) triples, so a change that moves any norm, verdict, worst
point or message in a spec's output fails that spec's test.

Like the golden JSON, the pinned digests hold for the toolchain they
were taken with (Python 3.11.7, numpy 2.4.6): another libm or numpy may
round the last bits of a norm differently.  After a deliberate change
of output, re-pin with ``PYTHONPATH=src python tests/test_report_digest.py``,
which prints the table below.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import grs
from grs.cli import main

SPEC_DIR = Path(grs.__file__).parent / "specs"

SEEDS = (None, 1, 7)
POINTS = (None, 32, 1000)

DIGESTS = {
    "absolute_invariant.grs": "ebcddd765f0b01211e34a93ff9184f69466d62f214929eeb052a5db04fbb2576",
    "autoparallel_valued_form.grs": "e20842343393f2dba62125b0a48492e43f95c2e0eefbd1f657e3d5b004886b47",
    "autoparallel_vector.grs": "30f5c31969fe75c1be14e55a2ddf1be83e512ba6cb031ba79a986c3b0c03847b",
    "bianchi.grs": "42ae428846983b172f5c5054656bf8c3b4f3be0ad432059ffb6e873a5c21d0b7",
    "dirac.grs": "3bbd5abbd654c1a374b00c61d3eb5a226ca0b36788d213f5314a959c4841e982",
    "ext_maxwell_currents.grs": "44d2ef822f182159a623aaa9cefdc04b07a5cea2efe6a9e4736cb15ea661b465",
    "ext_maxwell_vacuum.grs": "1f6e15e869704409ff0029ceb5c68bc06e9f2445ab8d2ef1f13ff40f5e649095",
    "ext_yang_mills_bracket.grs": "c5ba20b24a1dac8ac58d2d1817e7a67f9b68acc2d6a7f9087b266ed04419f39b",
    "ext_yang_mills_diagonal.grs": "97f6bdb3231e9ea697bac7cd97859c7b4924d4dfa7f51d3d913b5c25f2435459",
    "ext_yang_mills_sym.grs": "bc186f4c2ae65015619865cc8f13386c41b8c25a50e3fee41fac0ed281cb497a",
    "first_integral.grs": "7da1af9e6d41a0505157e896107491957b448573f4ae8ac20b5a5086ec2a8b4a",
    "frobenius_pfaff.grs": "e58fb3583d31def7b7d8c966fa7a0f5c46c22733f49a1f927051f8c04ee5f2cc",
    "frobenius_vector.grs": "bea9841e25abd6a559c2e8353a5a456d422cf5be007524f7cff17fee60357c38",
    "hamiltonian_field.grs": "e798b68826785de2f75443507644154620cddef0f1e3227ab3cbf35bd9a0ea27",
    "mass_energy.grs": "3dbc2983f5ef154e0969f38a07ff7f8c7732ac241cb3f7d75eceb3f4ea986554",
    "maxwell_currents.grs": "4f5bbb2d3c40ca9dce8cd94d9aa7244d3b5343e83f447c7f2b2baac3ca7567e4",
    "maxwell_vacuum.grs": "dac09ea63f54caa4828faa61f360d7512edf68fb519021c50c3cd1d3f73954b3",
    "nabla_parallel.grs": "a44453cd6d9f0f2102c94e5bbbbad2409680b698230093636e0ba5f7ef582ee8",
    "null_autoparallel.grs": "1beb7d820e8f304743fc2215e76ea80732f1d566a4b7083a40f041bd350b10e5",
    "pfaff_currents.grs": "942259fcb4215bf88f871196695fc85d5c8aa095c1f31cda6c49ae416e7aac3d",
    "poisson_first_integrals.grs": "d6ad8907ece11c8aef7def7711f08985751ee9107c1746ff102a31ffcb7d9950",
    "relative_invariant.grs": "b790544403ee0411918665da60ab345e280733cdf9ab6df466391fce051bc498",
    "ricci_flat.grs": "6b2aac1c744711df09704a3bf17bd67149c1442f7e31c3e59d1daf344be544e5",
    "schrodinger.grs": "020aa498646730eae569fa2e501636a387167ec0747cd4683db069504df6439b",
    "symplectic_closed.grs": "954f9971c415d66a95da2f5c76b94caa45d2578d9fe32da2014744ddf2a0009b",
    "theta_pi_parallel.grs": "d223858ebc6d8480032b22c055e145f70109a8aa79314c40d2957901f5bb55ef",
    "yang_mills.grs": "775a883952f41b3200318ff69bfcdce5de7dcbec46848552183edd6ac0cf3a30",
}


def spec_digest(spec: str) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for points in POINTS:
            argv = ["verify", str(SPEC_DIR / spec), "--json"]
            if seed is not None:
                argv += ["--seed", str(seed)]
            if points is not None:
                argv += ["--points", str(points)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            h.update(json.dumps([code, out.getvalue(), err.getvalue()]).encode())
    return h.hexdigest()


def test_every_shipped_spec_is_pinned():
    assert sorted(p.name for p in SPEC_DIR.glob("*.grs")) == sorted(DIGESTS)


@pytest.mark.parametrize("spec", sorted(DIGESTS))
def test_verify_output_matches_the_pinned_digest(spec):
    assert spec_digest(spec) == DIGESTS[spec], f"{spec}: grs verify --json output changed"


if __name__ == "__main__":
    for name in sorted(p.name for p in SPEC_DIR.glob("*.grs")):
        print(f'    "{name}": "{spec_digest(name)}",')
