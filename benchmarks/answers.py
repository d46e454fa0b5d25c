"""Known verdicts for every request the benchmark sends, written by hand.

Nothing here comes from running grs.  The spec verdicts follow the
comments in the shipped ``.grs`` files and the catalog fixtures'
``expect_pass``: every shipped spec pairs a solution (first check) with
a non-solution (second check), so the 54 checks are 27 PASS and 27 FAIL.
The point counts are the sample sizes written in each check line.

Check names are those the DSL binder gives: the entry id for the first
check of an entry in a file, ``entry#2`` for the second.
"""

PASS = True
FAIL = False

# spec file -> ((check name, verdict, sample points), ...)
SPECS = {
    # X = d/dz leaves x dy invariant, not x dz
    "absolute_invariant.grs": (("absolute_invariant", PASS, 200),
                               ("absolute_invariant#2", FAIL, 200)),
    # wave pair (F, *F) against a sheared non-solution
    "autoparallel_valued_form.grs": (("autoparallel_valued_form", PASS, 200),
                                     ("autoparallel_valued_form#2", FAIL, 200)),
    # spatially finite flow at half light speed vs z dz
    "autoparallel_vector.grs": (("autoparallel_vector", PASS, 1000),
                                ("autoparallel_vector#2", FAIL, 200)),
    # the curvature of any connection satisfies the identity; an
    # arbitrary psi does not
    "bianchi.grs": (("bianchi", PASS, 200),
                    ("bianchi#2", FAIL, 200)),
    # rest-frame spinor: mass must match the phase frequency (m=1, not 2)
    "dirac.grs": (("dirac", PASS, 200),
                  ("dirac#2", FAIL, 200)),
    # plane wave with zero currents vs a nonzero current the field lacks
    "ext_maxwell_currents.grs": (("ext_maxwell_currents", PASS, 200),
                                 ("ext_maxwell_currents#2", FAIL, 200)),
    # plane wave vs z dx^dy
    "ext_maxwell_vacuum.grs": (("ext_maxwell_vacuum", PASS, 200),
                               ("ext_maxwell_vacuum#2", FAIL, 200)),
    "ext_yang_mills_bracket.grs": (("ext_yang_mills_bracket", PASS, 200),
                                   ("ext_yang_mills_bracket#2", FAIL, 200)),
    "ext_yang_mills_diagonal.grs": (("ext_yang_mills_diagonal", PASS, 200),
                                    ("ext_yang_mills_diagonal#2", FAIL, 200)),
    "ext_yang_mills_sym.grs": (("ext_yang_mills_sym", PASS, 200),
                               ("ext_yang_mills_sym#2", FAIL, 200)),
    # rotational flow on the plane: r^2 is conserved, x is not
    "first_integral.grs": (("first_integral", PASS, 200),
                           ("first_integral#2", FAIL, 200)),
    # dz is integrable, the contact form dz - x dy is not
    "frobenius_pfaff.grs": (("frobenius_pfaff", PASS, 200),
                            ("frobenius_pfaff#2", FAIL, 200)),
    # the coordinate plane is integrable; the Heisenberg pair is not
    "frobenius_vector.grs": (("frobenius_vector", PASS, 200),
                             ("frobenius_vector#2", FAIL, 200)),
    # rotation is Hamiltonian for dq^dp, the shear q dq is not
    "hamiltonian_field.grs": (("hamiltonian_field", PASS, 200),
                              ("hamiltonian_field#2", FAIL, 200)),
    # the soliton density is conserved; z is not.  The FAIL residual is
    # nonzero only inside a bump band (~40% of the box): at 8 points on
    # seed 13 it reads PASS, so no workload samples fewer than 32 points.
    "mass_energy.grs": (("mass_energy", PASS, 200),
                        ("mass_energy#2", FAIL, 200)),
    # sources consistent with the field vs dropped sources
    "maxwell_currents.grs": (("maxwell_currents", PASS, 200),
                             ("maxwell_currents#2", FAIL, 200)),
    "maxwell_vacuum.grs": (("maxwell_vacuum", PASS, 200),
                           ("maxwell_vacuum#2", FAIL, 200)),
    # a constant vector is parallel along X = d/dx, x dx is not
    "nabla_parallel.grs": (("nabla_parallel", PASS, 200),
                           ("nabla_parallel#2", FAIL, 200)),
    # light-speed soliton vs a field that is neither null nor geodesic
    "null_autoparallel.grs": (("null_autoparallel", PASS, 1000),
                              ("null_autoparallel#2", FAIL, 200)),
    # exact currents are completely integrable; a contact form is not
    "pfaff_currents.grs": (("pfaff_currents", PASS, 200),
                           ("pfaff_currents#2", FAIL, 200)),
    # two functionally dependent integrals of the oscillator flow vs dq
    "poisson_first_integrals.grs": (("poisson_first_integrals", PASS, 200),
                                    ("poisson_first_integrals#2", FAIL, 200)),
    "relative_invariant.grs": (("relative_invariant", PASS, 200),
                               ("relative_invariant#2", FAIL, 200)),
    # vacuum black-hole exterior vs a uniformly curved surface
    "ricci_flat.grs": (("ricci_flat", PASS, 200),
                       ("ricci_flat#2", FAIL, 200)),
    # plane wave on and off the free dispersion relation
    "schrodinger.grs": (("schrodinger", PASS, 200),
                        ("schrodinger#2", FAIL, 200)),
    # the canonical form is closed, q2 dq1^dp1 + dq2^dp2 is not
    "symplectic_closed.grs": (("symplectic_closed", PASS, 200),
                              ("symplectic_closed#2", FAIL, 200)),
    "theta_pi_parallel.grs": (("theta_pi_parallel", PASS, 200),
                              ("theta_pi_parallel#2", FAIL, 200)),
    # an abelian-direction plane wave solves Yang-Mills; om2 does not
    "yang_mills.grs": (("yang_mills", PASS, 200),
                       ("yang_mills#2", FAIL, 200)),
}

# catalog fixture ``ricci_flat/schwarzschild`` has expect_pass=True
SCHWARZSCHILD = PASS
# g = J^T J is the Euclidean metric pulled back by a diffeomorphism: Ric = 0
DENSE_FLAT = PASS
# the same g times (1 + 0.1 u0^2) is curved: Ric != 0
DENSE_CONTROL = FAIL
